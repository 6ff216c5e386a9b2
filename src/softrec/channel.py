"""AWGN channel and the Gaussian-mixture marginal of its output.

The channel output Y = X + W with W ~ N(0, sigma^2) has the mixture marginal

    f_Y(y) = sum_j P(X=a_j) * phi((y - a_j) / sigma) / sigma

whose density, CDF, survival function, and quantile drive the softening
transforms. The quantile has no closed form and is solved by a vectorized,
bracketed Newton iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from softrec.constellation import Constellation

__all__ = [
    "ChannelModel",
    "transmit",
    "output_density",
    "output_cdf",
    "output_sf",
    "output_quantile",
    "QUANTILE_TOL",
]

# Relative tolerance of the quantile solve, in probability space: it stops at
# |F_Y(y) - p| <= 2 * QUANTILE_TOL * min(p, 1 - p).
QUANTILE_TOL = 1e-12

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass(frozen=True)
class ChannelModel:
    """AWGN channel bound to a constellation.

    Attributes
    ----------
    constellation : Constellation
    noise_variance : float
        sigma^2 = N0/2, in squared channel units; > 0.
    """

    constellation: Constellation
    noise_variance: float

    def __post_init__(self) -> None:
        if not self.noise_variance > 0:
            raise ValueError(f"noise_variance must be > 0, got {self.noise_variance}")

    @property
    def sigma(self) -> float:
        """Noise standard deviation."""
        return float(np.sqrt(self.noise_variance))


def transmit(x, ch: ChannelModel, rng: np.random.Generator):
    """Send symbol index/indices ``x`` through the channel.

    Parameters
    ----------
    x : int or array of int
        Symbol indices in [0, M).
    ch : ChannelModel
    rng : numpy.random.Generator
        Supplies the noise; deterministic given the generator state.

    Returns
    -------
    float or ndarray
        a_x + w with w ~ N(0, sigma^2), matching the shape of ``x``.
    """
    idx = np.asarray(x)
    if idx.size and (idx.min() < 0 or idx.max() >= ch.constellation.order):
        raise ValueError("symbol index out of range")
    clean = ch.constellation.points[idx]
    noisy = clean + rng.normal(0.0, ch.sigma, size=idx.shape)
    if idx.ndim == 0:
        return float(noisy)
    return noisy


def _mixture_z(y, ch: ChannelModel, name: str):
    """``(arr, z)``: ``y`` as a NaN-checked float array, and its standardised
    distance z = (y - a_j) / sigma to every point, along a new last axis."""
    arr = np.asarray(y, dtype=float)
    if np.isnan(arr).any():
        raise ValueError(f"{name}: NaN input")
    return arr, (arr[..., None] - ch.constellation.points) / ch.sigma


def _shaped(arr: np.ndarray, vals):
    """``vals`` as a float when the input ``arr`` was a scalar."""
    if arr.ndim == 0:
        return float(vals)
    return vals


def _cdf(z, ch: ChannelModel):
    """sum_j P_j Phi(z_j) over the last axis of the standardised distances."""
    return np.sum(ch.constellation.priors * ndtr(z), axis=-1)


def _density(z, ch: ChannelModel):
    """sum_j P_j phi(z_j) / sigma over the last axis of the standardised distances."""
    return np.sum(ch.constellation.priors * np.exp(-0.5 * z * z), axis=-1) / (
        np.sqrt(2.0 * np.pi) * ch.sigma
    )


def output_density(y, ch: ChannelModel):
    """Mixture density f_Y(y); strictly positive, integrates to 1."""
    arr, z = _mixture_z(y, ch, "output_density")
    return _shaped(arr, _density(z, ch))


def log_output_density(y, ch: ChannelModel):
    """log f_Y(y), stable far into the tails where the density underflows."""
    arr, z = _mixture_z(y, ch, "log_output_density")
    expo = -0.5 * z * z + np.log(ch.constellation.priors)
    top = np.max(expo, axis=-1)
    out = top + np.log(np.sum(np.exp(expo - top[..., None]), axis=-1))
    out -= _LOG_SQRT_2PI + np.log(ch.sigma)
    return _shaped(arr, out)


def output_cdf(y, ch: ChannelModel):
    """Mixture CDF F_Y(y) = sum_j P_j * Phi((y - a_j)/sigma).

    Exact to absolute ~1e-16; values very close to 1 necessarily lose
    relative precision in a double. Use ``output_sf`` when the upper-tail
    mass itself is needed.
    """
    arr, z = _mixture_z(y, ch, "output_cdf")
    return _shaped(arr, _cdf(z, ch))


def output_sf(y, ch: ChannelModel):
    """Survival function P(Y > y); accurate (relative) in the upper tail."""
    arr, z = _mixture_z(y, ch, "output_sf")
    return _shaped(arr, _cdf(-z, ch))


def output_quantile(p, ch: ChannelModel):
    """Invert the output CDF: find y with F_Y(y) = p.

    Safeguarded Newton iteration with a per-element bisection bracket,
    starting from the single-Gaussian moment-matched guess. Terminates at
    |F_Y(y) - p| <= 2 * QUANTILE_TOL * min(p, 1 - p) or a machine-width
    bracket; strictly increasing in p.

    Parameters
    ----------
    p : float or array
        Probabilities in the open interval (0, 1). Exact 0/1 are rejected
        (they map to -inf/+inf); callers clamp first.
    ch : ChannelModel

    Returns
    -------
    float or ndarray
    """
    arr = np.asarray(p, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("output_quantile: NaN input")
    if arr.size and (arr.min() <= 0.0 or arr.max() >= 1.0):
        raise ValueError("output_quantile: p must lie strictly inside (0, 1)")
    scalar = arr.ndim == 0
    pv = np.atleast_1d(arr.astype(float)).reshape(-1)

    # Solve on whichever tail is well conditioned for each element: the
    # upper one (sgn = -1) where p > 1/2, where 1 - p is exact (Sterbenz), so
    # the given value is never degraded. _cdf(-z) is the survival function,
    # and sgn * (_cdf(sgn * z) - target) increases in y on both tails.
    upper = pv > 0.5
    sgn = np.where(upper, -1.0, 1.0)
    target = np.where(upper, 1.0 - pv, pv)
    # Relative to the chosen tail's mass, which is at most 1/2.
    tol = 2.0 * QUANTILE_TOL * target

    pts = ch.constellation.points
    sig = ch.sigma

    def residual(y: np.ndarray):
        """(residual, density) at y; z carries the sign, which z * z drops."""
        z = sgn[:, None] * ((y[:, None] - pts) / sig)
        return sgn * (_cdf(z, ch) - target), _density(z, ch)

    # Bracket [lo, hi] with residual(lo) <= 0 <= residual(hi). The upper
    # tail mass past max(a) + 10 sigma is at most Phi(-10) ~ 7.6e-24, below
    # any double 1 - p >= 2**-53, so hi never needs to grow. F_Y(min(a) -
    # 10 sigma) can exceed a tiny p, so lo moves outward by a doubling step
    # until the residual there is <= 0.
    hi = np.full(pv.shape, pts.max() + 10.0 * sig)
    lo = np.full(pv.shape, pts.min() - 10.0 * sig)
    span = float(pts.max() - pts.min()) + 10.0 * sig
    for _ in range(100):
        grow = residual(lo)[0] > 0
        if not grow.any():
            break
        lo = np.where(grow, lo - span, lo)
        span *= 2.0

    priors = ch.constellation.priors
    mean = float(np.sum(priors * pts))
    var = float(np.sum(priors * (pts - mean) ** 2) + ch.noise_variance)
    y = mean + np.sqrt(var) * ndtri(np.clip(pv, 1e-300, 1.0 - 1e-16))
    y = np.clip(y, lo, hi)

    active = np.ones(pv.shape, dtype=bool)
    for _ in range(200):
        r, f = residual(y)
        f = np.maximum(f, 1e-300)
        # Tighten the bracket from the current iterate.
        below = r < 0
        lo = np.where(active & below, y, lo)
        hi = np.where(active & ~below, y, hi)
        done = np.abs(r) <= tol
        # Machine-limited: the bracket cannot shrink further.
        done |= (hi - lo) <= np.spacing(np.maximum(np.abs(lo), np.abs(hi))) * 4
        active &= ~done
        if not active.any():
            break
        step = r / f
        trial = y - step
        fallback = (trial <= lo) | (trial >= hi) | ~np.isfinite(trial)
        trial = np.where(fallback, 0.5 * (lo + hi), trial)
        y = np.where(active, trial, y)

    if scalar:
        return float(y[0])
    return y.reshape(arr.shape)
