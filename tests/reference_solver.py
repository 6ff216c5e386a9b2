"""The mixture kernels and the quantile solve as they were before the
column-wise kernel and the Hermite-grid start, kept as test oracles.

The kernels build the (..., M) array of standardised distances and sum each
component's term over its last axis; the log density is scipy's
``logsumexp`` over that axis. ``output_quantile`` is the active-set
Newton solve from the moment-matched single-Gaussian start; deep in the lower
tail (below about p = 1e-90 on PAM-4) it stops at the iteration cap far from
the root, so it is a reference only where it meets its own contract.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp, ndtr, ndtri

from softrec.channel import QUANTILE_TOL, ChannelModel

_MAX_NEWTON = 200
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _z(y, ch: ChannelModel):
    return (np.asarray(y, dtype=float)[..., None] - ch.constellation.points) / ch.sigma


def _cdf(z, ch: ChannelModel):
    return np.sum(ch.constellation.priors * ndtr(z), axis=-1)


def _density(z, ch: ChannelModel):
    return np.sum(ch.constellation.priors * np.exp(-0.5 * z * z), axis=-1) / (
        np.sqrt(2.0 * np.pi) * ch.sigma
    )


def output_cdf(y, ch: ChannelModel):
    return _cdf(_z(y, ch), ch)


def output_sf(y, ch: ChannelModel):
    return _cdf(-_z(y, ch), ch)


def output_density(y, ch: ChannelModel):
    return _density(_z(y, ch), ch)


def log_output_density(y, ch: ChannelModel):
    z = _z(y, ch)
    expo = -0.5 * z * z + np.log(ch.constellation.priors)
    out = np.asarray(logsumexp(expo, axis=-1))
    out -= _LOG_SQRT_2PI + np.log(ch.sigma)
    return out


def output_quantile(p, ch: ChannelModel):
    """The earlier solve; points still unsolved at the cap are returned
    without a warning."""
    pv = np.atleast_1d(np.asarray(p, dtype=float)).reshape(-1)
    upper = pv > 0.5
    sgn = np.where(upper, -1.0, 1.0)
    target = np.where(upper, 1.0 - pv, pv)
    pts = ch.constellation.points
    sig = ch.sigma

    def residual(y, sgn, target):
        z = sgn[:, None] * ((y[:, None] - pts) / sig)
        return sgn * (_cdf(z, ch) - target), _density(z, ch)

    hi = np.full(pv.shape, pts.max() + 10.0 * sig)
    edge = pts.min() - 10.0 * sig
    lo = np.full(pv.shape, edge)
    span = float(pts.max() - pts.min()) + 10.0 * sig
    grow = np.ones(pv.shape, dtype=bool)
    for _ in range(100):
        if not grow.any():
            break
        z = (edge - pts) / sig
        grow &= sgn * (np.where(upper, _cdf(-z, ch), _cdf(z, ch)) - target) > 0
        edge -= span
        lo[grow] = edge
        span *= 2.0

    priors = ch.constellation.priors
    mean = float(np.sum(priors * pts))
    var = float(np.sum(priors * (pts - mean) ** 2) + ch.noise_variance)
    y = mean + np.sqrt(var) * ndtri(np.clip(pv, 1e-300, 1.0 - 1e-16))
    y = np.clip(y, lo, hi)

    out = np.empty_like(pv)
    idx = np.arange(pv.size)
    for _ in range(_MAX_NEWTON):
        if not idx.size:
            break
        r, f = residual(y, sgn, target)
        below = r < 0
        lo = np.where(below, y, lo)
        hi = np.where(below, hi, y)
        done = np.abs(r) <= 2.0 * QUANTILE_TOL * target
        done |= (hi - lo) <= np.spacing(np.maximum(np.abs(lo), np.abs(hi))) * 4
        out[idx[done]] = y[done]
        keep = ~done
        trial = y - r / np.maximum(f, 1e-300)
        fallback = (trial <= lo) | (trial >= hi) | ~np.isfinite(trial)
        y = np.where(fallback, 0.5 * (lo + hi), trial)
        idx, y, lo, hi, sgn, target = (a[keep] for a in (idx, y, lo, hi, sgn, target))
    out[idx] = y
    return out.reshape(np.shape(p))
