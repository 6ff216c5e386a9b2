"""Sender-side soft metrics from the disclosed value and the known symbol.

Knowing her transmitted symbol a_j and the disclosed metric n, the sender
entertains M hypotheses, one per possible receiver decision: decision i
together with n pins the channel output at g_i^{-1}(n). The density of each
hypothesis is

    f(n, i | j) = f_{Y|X}(g_i^{-1}(n) | a_j) / |g_i'(g_i^{-1}(n))|

and the per-bit LAPPRs are built from these M numbers. All combination
happens in log-domain; the raw Gaussian ratios underflow at high SNR.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from softrec.channel import log_output_density
from softrec.constellation import Constellation, bit_partitions
from softrec.softening import SofteningTransform, inverse_and_jacobian

__all__ = [
    "LAPPR_CLAMP",
    "bit_lapprs",
    "joint_density_ratio_form",
    "log_joint_conditional_density",
    "lappr_batch",
]

# Clamp for LAPPR magnitudes (natural-log units). Far above any
# decision-relevant magnitude but keeps the decoder away from +-inf.
LAPPR_CLAMP = 50.0

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _log_joint_from_y(y, i, j, t: SofteningTransform):
    """log f(n, i | j) given the already-inverted output y = g_i^{-1}(n)."""
    ch = t.channel
    a = ch.constellation.points
    aj = a[np.asarray(j)]
    log_fyx = -((y - aj) ** 2) / (2.0 * ch.noise_variance) - _LOG_SQRT_2PI - np.log(ch.sigma)
    # 1 / |g'| = dF_i / f_Y(y)
    return log_fyx - log_output_density(y, ch) + np.log(t.deltas[np.asarray(i)])


def log_joint_conditional_density(n, i, j, t: SofteningTransform):
    """log f(n, i | j), the joint density of (metric, decision) given the
    sent symbol.

    Broadcasts over ``n`` (disclosed metric in [0, 1], clamped inward by
    N_EPS), ``i`` (hypothesised decision) and ``j`` (sent symbol index).
    For fixed j its exp integrates to 1 over (n, i).
    """
    y, _ = inverse_and_jacobian(n, i, t)
    return _log_joint_from_y(y, i, j, t)


def joint_density_ratio_form(n, i, j, t: SofteningTransform):
    """Same density through the expanded mixture-ratio identity.

    Substituting the mixture forms of f_{Y|X} and f_Y collapses the joint
    density to

        dF_i / sum_k P_k exp(-(2 y - a_j - a_k)(a_j - a_k) / (2 sigma^2))

    with y = g_i^{-1}(n). Kept as an independent evaluation route and
    cross-checked against the definition form in the tests; do not fold the
    two together.
    """
    ch = t.channel
    y, _ = inverse_and_jacobian(n, i, t)
    a = ch.constellation.points
    aj = a[np.asarray(j)]
    yb = np.asarray(y)[..., None]
    ajb = np.asarray(aj)[..., None]
    expo = -((2.0 * yb - ajb - a) * (ajb - a)) / (2.0 * ch.noise_variance)
    log_den = logsumexp(expo, axis=-1, b=ch.constellation.priors)
    out = np.exp(np.log(t.deltas[np.asarray(i)]) - log_den)
    if np.isscalar(n) and np.isscalar(i) and np.isscalar(j):
        return float(np.asarray(out).reshape(()))
    return out


def bit_lapprs(logw, c: Constellation, alpha: float = 1.0) -> np.ndarray:
    """Per-bit log-ratios from per-symbol log-weights: the bit marginaliser.

    Parameters
    ----------
    logw : array, shape (..., M)
        Unnormalised log-weight of each symbol hypothesis; a common offset
        cancels.
    c : Constellation
        Supplies the bit labeling.
    alpha : float
        Multiplicative scaling applied before clamping.

    Returns
    -------
    ndarray, shape (..., L)
        alpha * (logsumexp over the symbols whose bit l is 0 - logsumexp
        over those whose bit l is 1), clamped to +-LAPPR_CLAMP.
    """
    nbits = c.bits_per_symbol
    out = np.empty(logw.shape[:-1] + (nbits,), dtype=float)
    for l in range(nbits):
        zeros, ones = bit_partitions(c, l)
        l0 = logsumexp(logw[..., zeros], axis=-1)
        l1 = logsumexp(logw[..., ones], axis=-1)
        out[..., l] = alpha * (l0 - l1)
    np.clip(out, -LAPPR_CLAMP, LAPPR_CLAMP, out=out)
    return out


def lappr_batch(n, j, t: SofteningTransform, alpha: float = 1.0) -> np.ndarray:
    """Vectorized LAPPRs for many symbol slots.

    Parameters
    ----------
    n : array, shape (S,)
        Disclosed metrics, in [0, 1].
    j : int array, shape (S,)
        The sender's own symbol indices.
    t : SofteningTransform
    alpha : float
        Multiplicative scaling applied before clamping; 1.0 leaves the
        log-ratios untouched. 0.65 is the documented tuned preset for the
        bundled rate-1/2 decoder.

    Returns
    -------
    ndarray, shape (S, L)
        [s, l] = clamp(alpha * log(sum_{i: bit_l(i)=0} f / sum_{i: bit_l(i)=1} f))
        with f = f(n[s], i | j[s]) and the constellation's bit labeling.
    """
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    jarr = np.asarray(j)
    if jarr.size and (jarr.min() < 0 or jarr.max() >= t.order):
        raise ValueError("symbol index out of range")
    # One vectorized quantile solve covers all M decision hypotheses.
    logf = log_joint_conditional_density(
        np.asarray(n, dtype=float)[..., None], np.arange(t.order), jarr[..., None], t
    )
    return bit_lapprs(logf, t.channel.constellation, alpha)
