"""Sender-side soft metrics from the disclosed value and the known symbol.

Knowing her transmitted symbol a_j and the disclosed metric n, the sender
entertains M hypotheses, one per possible receiver decision: decision i
together with n pins the channel output at g_i^{-1}(n). The density of each
hypothesis is

    f(n, i | j) = f_{Y|X}(g_i^{-1}(n) | a_j) / |g_i'(g_i^{-1}(n))|

and the per-bit LAPPRs are built from these M numbers; the inverse returns
log|g_i'| with y. All combination happens in log-domain; the raw Gaussian
ratios underflow at high SNR.
"""

from __future__ import annotations

import numpy as np

from softrec.channel import _LOG_SQRT_2PI, ChannelModel, _logsumexp
from softrec.constellation import Constellation, _indices, bit_partitions
from softrec.softening import SofteningTransform, inverse_and_jacobian

__all__ = [
    "LAPPR_CLAMP",
    "bit_lapprs",
    "log_joint_conditional_density",
    "lappr_batch",
]

# Clamp for LAPPR magnitudes (natural-log units). Far above any
# decision-relevant magnitude but keeps the decoder away from +-inf.
LAPPR_CLAMP = 50.0


def _alpha(alpha) -> float:
    """The LAPPR scaling ``alpha`` as a float: a finite number > 0 and not a
    bool (numpy's ``np.True_`` included), or ValueError."""
    if isinstance(alpha, (bool, np.bool_)) or not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha!r}")
    return float(alpha)


def _log_joint_from_y(y, log_jac, j, ch: ChannelModel):
    """log f(n, i | j) = log f_{Y|X}(y | a_j) - log|g_i'(y)|, from the
    y = g_i^{-1}(n) and log|g_i'| that ``inverse_and_jacobian`` returns."""
    aj = ch.constellation.points[j]
    log_fyx = -((y - aj) ** 2) / (2.0 * ch.noise_variance) - _LOG_SQRT_2PI - np.log(ch.sigma)
    return log_fyx - log_jac


def log_joint_conditional_density(n, i, j, t: SofteningTransform):
    """log f(n, i | j), the joint density of (metric, decision) given the
    sent symbol.

    Broadcasts over ``n`` (disclosed metric in [0, 1], clamped inward by
    N_EPS), ``i`` (hypothesised decision) and ``j`` (sent symbol index).
    For fixed j its exp integrates to 1 over (n, i). A ``j`` that is not
    an integer (a bool included) or is outside [0, M) raises ValueError.
    """
    jarr = _indices(j, t.order, "symbol index")
    y, log_jac = inverse_and_jacobian(n, i, t)
    return _log_joint_from_y(y, log_jac, jarr, t.channel)


def bit_lapprs(logw, c: Constellation, alpha: float = 1.0) -> np.ndarray:
    """Per-bit log-ratios from per-symbol log-weights: the bit marginaliser.

    Parameters
    ----------
    logw : array, shape (..., M)
        Unnormalised log-weight of each symbol hypothesis; a common offset
        cancels. -inf (weight 0) is allowed; a bit whose 1-side (0-side)
        weights are all -inf clamps to +LAPPR_CLAMP (-LAPPR_CLAMP). A NaN,
        or a bit with both sides all -inf (or both +inf), raises ValueError.
    c : Constellation
        Supplies the bit labeling.
    alpha : float
        Multiplicative scaling applied before clamping, overflow included;
        finite and > 0, and not a bool.

    Returns
    -------
    ndarray, shape (..., L)
        alpha * (``channel._logsumexp`` over the symbols whose bit l is 0 -
        the same over those whose bit l is 1), each summing the symbols'
        columns in symbol order, clamped to +-LAPPR_CLAMP.
    """
    alpha = _alpha(alpha)
    nbits = c.bits_per_symbol
    out = np.empty(logw.shape[:-1] + (nbits,), dtype=float)
    for l in range(nbits):
        zeros, ones = bit_partitions(c, l)
        l0 = _logsumexp(lambda: (logw[..., k] for k in zeros))
        l1 = _logsumexp(lambda: (logw[..., k] for k in ones))
        with np.errstate(over="ignore", invalid="ignore"):
            out[..., l] = alpha * (l0 - l1)
    if np.isnan(out).any():
        raise ValueError("bit_lapprs: a log-weight row holds a NaN or leaves a bit no ratio")
    np.clip(out, -LAPPR_CLAMP, LAPPR_CLAMP, out=out)
    return out


def lappr_batch(n, j, t: SofteningTransform, alpha: float = 1.0) -> np.ndarray:
    """Vectorized LAPPRs for many symbol slots.

    Parameters
    ----------
    n : array, shape (S,)
        Disclosed metrics, in [0, 1].
    j : int array, shape (S,)
        The sender's own symbol indices: integers (not bool) in [0, M), one
        per slot of ``n``.
    t : SofteningTransform
    alpha : float
        Multiplicative scaling applied before clamping; finite and > 0,
        since an infinite one times an equal pair of log-sums is NaN, and
        not a bool, which would read as 1 or 0. 1.0
        leaves the log-ratios untouched. 0.65 is the documented tuned
        preset for the bundled rate-1/2 decoder.

    Returns
    -------
    ndarray, shape (S, L)
        [s, l] = clamp(alpha * log(sum_{i: bit_l(i)=0} f / sum_{i: bit_l(i)=1} f))
        with f = f(n[s], i | j[s]) and the constellation's bit labeling.
    """
    alpha = _alpha(alpha)
    narr = np.asarray(n, dtype=float)
    jarr = np.asarray(j)
    if jarr.shape != narr.shape:
        raise ValueError(f"j must be shaped like n, got {jarr.shape}")
    # One vectorized quantile solve covers all M decision hypotheses.
    logf = log_joint_conditional_density(narr[..., None], np.arange(t.order), jarr[..., None], t)
    return bit_lapprs(logf, t.channel.constellation, alpha)
