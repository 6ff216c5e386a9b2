"""Mutual-information evaluation for the reconciliation schemes.

Four quantities, all in bits per channel use:

* ``mi_direct``: I(X;Y) of the discrete-input AWGN channel (soft direct
  reconciliation).
* ``mi_hard``: I(X;Xhat) of the hard-decision discrete channel.
* ``mi_rrs``: I(Xhat; X, N), what the sender learns about the receiver's
  decisions from her own symbols plus the disclosed metric.
* ``leakage``: I(N; Xhat) from the joint densities; zero by construction,
  so the evaluated value measures rounding.

Every continuous integral runs on one batched adaptive Gauss-Kronrod rule
(``_gk_integrate``): each pass evaluates the 15 Kronrod nodes of every open
panel in one call of a vector integrand, so the rrs-MI and leakage passes
each make one quantile solve. Entropy is reported base 2 while internal
densities stay in natural log.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, xlogy

from softrec.channel import ChannelModel, _logsumexp, output_density
from softrec.constellation import map_decision_regions
from softrec.metrics import _log_joint_from_y
from softrec.softening import SofteningTransform, inverse_and_jacobian

__all__ = [
    "MiResult",
    "QuadratureWarning",
    "QUAD_ABS_TOL",
    "QUAD_REL_TOL",
    "QUAD_LIMIT",
    "transition_matrix",
    "mi_direct",
    "mi_hard",
    "mi_rrs",
    "leakage",
]

# Adaptive-quadrature controls shared by every evaluator: the absolute and
# relative error targets, and the most panels one integral may hold.
QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8
QUAD_LIMIT = 200

# The 15-point Kronrod rule on [-1, 1] (QUADPACK qk15) and the 7-point Gauss
# rule embedded in it, whose nodes are the odd-indexed Kronrod nodes.
_GK_X = np.array([
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0,
    0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
    0.586087235467691130294144838258730, 0.741531185599394439863864773280788,
    0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_GK_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_GK_WG = np.zeros(15)
_GK_WG[1::2] = [
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
    0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
]

_LN2 = float(np.log(2.0))


class QuadratureWarning(RuntimeWarning):
    """Adaptive quadrature stopped above its error target."""


@dataclass(frozen=True)
class MiResult:
    """One mutual-information evaluation.

    Attributes
    ----------
    snr_db : float
    scheme : str
        One of 'direct', 'hard', 'rrs'.
    config : str
        Monotonicity config name for the rrs scheme, '' otherwise.
    value_bits : float
        Finite and not below -1e-9.
    error_estimate : float
        Quadrature error estimate in bits (0 for closed-form results);
        finite.
    """

    snr_db: float
    scheme: str
    config: str
    value_bits: float
    error_estimate: float

    def __post_init__(self) -> None:
        if self.scheme not in ("direct", "hard", "rrs"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (np.isfinite(self.value_bits) and np.isfinite(self.error_estimate)):
            raise ValueError(
                f"value_bits and error_estimate must be finite, got "
                f"{self.value_bits!r} and {self.error_estimate!r}"
            )
        if self.value_bits < -1e-9:
            raise ValueError("mutual information cannot be negative")


def transition_matrix(ch: ChannelModel) -> np.ndarray:
    """Hard-decision channel matrix T[j, i] = P(decision i | sent j).

    Entries are differences of Gaussian CDFs at the boundaries of the
    channel's MAP regions; each row sums to 1 within 1e-12.
    """
    regions = map_decision_regions(ch.constellation, ch.noise_variance)
    a = ch.constellation.points
    z = (regions.boundaries[None, :] - a[:, None]) / ch.sigma
    cdf = np.concatenate(
        [np.zeros((a.size, 1)), ndtr(z), np.ones((a.size, 1))], axis=1
    )
    return np.diff(cdf, axis=1)


def _gk_integrate(f, edges):
    """(integral, error estimate) of a vector integrand over the panels
    between consecutive ``edges``, by batched adaptive Gauss-Kronrod.

    ``f`` maps nodes of shape (K,) to values of shape (K, V). Each pass
    evaluates the 15 Kronrod nodes of every open panel in one call of ``f``.
    A panel is kept when the 2-norm of its K15 - G7 difference is within
    its width's share of max(QUAD_ABS_TOL, QUAD_REL_TOL * |running total|),
    where the running total is the kept panels' sum plus this pass's K15
    values; the other panels are bisected. The error estimate is the sum of
    the kept panels' differences. When bisecting would take the panel count
    past QUAD_LIMIT, every open panel is kept as it stands, its difference
    counted in the estimate.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    span = edges[-1] - edges[0]
    weights = np.stack((_GK_WK, _GK_WK - _GK_WG))
    total, err, kept = 0.0, 0.0, 0
    while True:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        vals = f((mid[:, None] + half[:, None] * _GK_X).ravel())
        sums = np.einsum("rk,pkv->rpv", weights, vals.reshape(a.size, _GK_X.size, -1))
        k15 = half[:, None] * sums[0]
        diff = np.linalg.norm(half[:, None] * sums[1], axis=1)
        running = total + k15.sum(axis=0)
        target = max(QUAD_ABS_TOL, QUAD_REL_TOL * float(np.linalg.norm(running)))
        done = diff <= target * (b - a) / span
        if kept + 2 * a.size - np.count_nonzero(done) > QUAD_LIMIT:
            done[:] = True
        total = total + k15[done].sum(axis=0)
        err += float(diff[done].sum())
        kept += int(np.count_nonzero(done))
        if done.all():
            return total, err
        a, b, mid = a[~done], b[~done], mid[~done]
        a, b = np.column_stack((a, mid)).ravel(), np.column_stack((mid, b)).ravel()


def _integrate(f, edges, what: str, max_err: float):
    """``_gk_integrate(f, edges)``, warning ``QuadratureWarning`` unless the
    error estimate is within ``max_err`` bits, so a NaN estimate warns too."""
    res, err = _gk_integrate(f, edges)
    if not err <= max_err:
        warnings.warn(
            f"{what} quadrature stopped at error estimate {err:.2e} bits",
            QuadratureWarning,
            stacklevel=3,
        )
    return res, err


def mi_direct(ch: ChannelModel, with_error: bool = False):
    """I(X;Y) in bits for the discrete-input AWGN channel.

    Computed as h(Y) - h(Y|X) with h(Y) by adaptive quadrature of
    -f_Y log2 f_Y over +-13 sigma beyond the outer points, in panels split
    at the constellation points, and h(Y|X) = log2(sqrt(2 pi e) sigma) in
    closed form.

    Parameters
    ----------
    ch : ChannelModel
    with_error : bool
        When True, return (value, error_estimate) instead of the value.
    """
    a = ch.constellation.points  # strictly increasing
    sig = ch.sigma

    def integrand(y: np.ndarray) -> np.ndarray:
        f = output_density(y, ch)
        return -xlogy(f, f)[:, None] / _LN2

    edges = np.concatenate(([a[0] - 13.0 * sig], a, [a[-1] + 13.0 * sig]))
    h_y, err = _integrate(integrand, edges, "direct-MI", 1e-6)
    h_y_given_x = 0.5 * np.log2(2.0 * np.pi * np.e * ch.noise_variance)
    value = float(h_y[0] - h_y_given_x)
    if with_error:
        return value, err
    return value


def mi_hard(ch: ChannelModel) -> float:
    """I(X;Xhat) in bits of the hard-decision channel over the MAP regions."""
    t = transition_matrix(ch)
    p = ch.constellation.priors
    marg = p @ t
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(t > 0, t / marg[None, :], 1.0)
        terms = np.where(t > 0, t * np.log2(ratio), 0.0)
    return float(np.sum(p[:, None] * terms))


def _log_joint(n: np.ndarray, t: SofteningTransform) -> np.ndarray:
    """log f(n, i | j) at every metric node, shape (K, decision i, sent j),
    from one inverse over the K * M (node, decision) pairs."""
    i_all = np.arange(t.order)
    y, log_jac = inverse_and_jacobian(n[:, None], i_all, t)
    return _log_joint_from_y(y[:, :, None], log_jac[:, :, None], i_all, t.channel)


def mi_rrs(t: SofteningTransform, with_error: bool = False):
    """I(Xhat; X, N) in bits for a built softening transform.

    Decomposes as H(Xhat) plus the expectation of the log-ratio between the
    joint conditional density and its decision-marginal; the expectation is
    an adaptive Gauss-Kronrod integral over the metric, summed over symbol
    pairs. H(Xhat) uses P(decision i) = dF_i, which the transform already
    carries.
    """
    priors = t.channel.constellation.priors
    h_xhat = float(-np.sum(t.deltas * np.log2(t.deltas)))  # every delta > 0 (SofteningTransform)

    def integrand(n: np.ndarray) -> np.ndarray:
        logf = _log_joint(n, t)
        # Marginal over the decision hypothesis, per sent symbol.
        logz = _logsumexp(lambda: (logf[:, i] for i in range(t.order)))
        return np.sum(np.exp(logf) * (logf - logz[:, None]), axis=1) / _LN2

    res, err = _integrate(integrand, (0.0, 1.0), "rrs-MI", 1e-5)
    value = h_xhat + float(np.sum(priors * res))
    if with_error:
        return value, err
    return value


def leakage(t: SofteningTransform) -> float:
    """I(N; Xhat) in bits, evaluated numerically from the joint densities.

    The result is zero by algebra, not by measurement: for any
    ``SofteningTransform``, whatever its ``cdf_edges``, sum_j P_j f(n, i | j)
    = dF_i, so the integrand is identically zero and the value (<= 1e-6
    bits) measures rounding only; a quadrature error estimate above 1e-6
    bits raises ``QuadratureWarning``. It cannot detect a broken transform; one
    that does not match its channel is caught by the audit's Monte-Carlo MI
    and KS uniformity checks on simulated outputs.
    """
    priors = t.channel.constellation.priors
    log_df = np.log(t.deltas)
    log_priors = np.log(priors)

    def integrand(n: np.ndarray) -> np.ndarray:
        logf = _log_joint(n, t)
        # log f_{N|Xhat}(n | i) = log sum_j P_j f(n, i | j) - log dF_i
        log_cond = _logsumexp(lambda: (logf[:, :, j] + lw for j, lw in enumerate(log_priors)))
        log_cond -= log_df
        # log f_N(n) = log sum_i dF_i f_{N|Xhat}(n | i)
        log_mix = _logsumexp(lambda: (ld + log_cond[:, i] for i, ld in enumerate(log_df)))
        return np.exp(log_cond) * (log_cond - log_mix[:, None]) / _LN2

    res, _ = _integrate(integrand, (0.0, 1.0), "leakage", 1e-6)
    return float(np.sum(t.deltas * res))
