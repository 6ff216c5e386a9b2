"""Mutual-information evaluation for the reconciliation schemes.

Four quantities, all in bits per channel use:

* ``mi_direct``: I(X;Y) of the discrete-input AWGN channel (soft direct
  reconciliation).
* ``mi_hard``: I(X;Xhat) of the hard-decision discrete channel.
* ``mi_rrs``: I(Xhat; X, N), what the sender learns about the receiver's
  decisions from her own symbols plus the disclosed metric.
* ``leakage``: I(N; Xhat) from the joint densities; zero by construction,
  so the evaluated value measures rounding.

Continuous integrals run on adaptive Gauss-Kronrod quadrature; entropy is
reported base 2 while internal densities stay in natural log.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import logsumexp, ndtr

from softrec.channel import ChannelModel, output_density
from softrec.constellation import DecisionRegions, map_decision_regions
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

# Adaptive-quadrature controls shared by every evaluator.
QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8
QUAD_LIMIT = 200
_QUAD = {"epsabs": QUAD_ABS_TOL, "epsrel": QUAD_REL_TOL, "limit": QUAD_LIMIT}

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
    error_estimate : float
        Quadrature error estimate in bits (0 for closed-form results).
    """

    snr_db: float
    scheme: str
    config: str
    value_bits: float
    error_estimate: float

    def __post_init__(self) -> None:
        if self.scheme not in ("direct", "hard", "rrs"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.value_bits < -1e-9:
            raise ValueError("mutual information cannot be negative")


def transition_matrix(ch: ChannelModel, regions: DecisionRegions | None = None) -> np.ndarray:
    """Hard-decision channel matrix T[j, i] = P(decision i | sent j).

    Entries are differences of Gaussian CDFs at the region boundaries; each
    row sums to 1 within 1e-12.
    """
    if regions is None:
        regions = map_decision_regions(ch.constellation, ch.noise_variance)
    a = ch.constellation.points
    z = (regions.boundaries[None, :] - a[:, None]) / ch.sigma
    cdf = np.concatenate(
        [np.zeros((a.size, 1)), ndtr(z), np.ones((a.size, 1))], axis=1
    )
    return np.diff(cdf, axis=1)


def _entropy_bits(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    nz = p > 0
    return float(-np.sum(p[nz] * np.log2(p[nz])))


def mi_direct(ch: ChannelModel, with_error: bool = False):
    """I(X;Y) in bits for the discrete-input AWGN channel.

    Computed as h(Y) - h(Y|X) with h(Y) by adaptive quadrature of
    -f_Y log2 f_Y and h(Y|X) = log2(sqrt(2 pi e) sigma) in closed form.

    Parameters
    ----------
    ch : ChannelModel
    with_error : bool
        When True, return (value, error_estimate) instead of the value.
    """
    a = ch.constellation.points
    sig = ch.sigma

    def integrand(y: float) -> float:
        f = output_density(y, ch)
        return -f * np.log2(f) if f > 0 else 0.0

    lo = float(a.min() - 13.0 * sig)
    hi = float(a.max() + 13.0 * sig)
    h_y, err = integrate.quad(integrand, lo, hi, points=list(a), **_QUAD)
    h_y_given_x = 0.5 * np.log2(2.0 * np.pi * np.e * ch.noise_variance)
    value = float(h_y - h_y_given_x)
    if err > 1e-6:
        warnings.warn(
            f"direct-MI quadrature stopped at error estimate {err:.2e} bits",
            QuadratureWarning,
            stacklevel=2,
        )
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


def _log_joint_matrix(n: float, t: SofteningTransform) -> np.ndarray:
    """log f(n, i | j) for all (decision i, sent j) at one metric value."""
    m = t.order
    i_all = np.arange(m)
    y, _ = inverse_and_jacobian(np.full(m, float(n)), i_all, t)
    return _log_joint_from_y(y[:, None], i_all[:, None], np.arange(m)[None, :], t)


def mi_rrs(t: SofteningTransform, with_error: bool = False):
    """I(Xhat; X, N) in bits for a built softening transform.

    Decomposes as H(Xhat) plus the expectation of the log-ratio between the
    joint conditional density and its decision-marginal; the expectation is
    an adaptive Gauss-Kronrod integral over the metric, summed over symbol
    pairs. H(Xhat) uses P(decision i) = dF_i, which the transform already
    carries.
    """
    priors = t.channel.constellation.priors
    h_xhat = _entropy_bits(t.deltas)

    def integrand(n: float) -> np.ndarray:
        logf = _log_joint_matrix(n, t)
        # Marginal over the decision hypothesis, per sent symbol.
        logz = logsumexp(logf, axis=0, keepdims=True)
        return np.sum(np.exp(logf) * (logf - logz), axis=0) / _LN2

    res, err = integrate.quad_vec(integrand, 0.0, 1.0, quadrature="gk15", **_QUAD)
    value = h_xhat + float(np.sum(priors * res))
    if err > 1e-5:
        warnings.warn(
            f"rrs-MI quadrature stopped at error estimate {err:.2e} bits",
            QuadratureWarning,
            stacklevel=2,
        )
    if with_error:
        return value, float(err)
    return value


def leakage(t: SofteningTransform) -> float:
    """I(N; Xhat) in bits, evaluated numerically from the joint densities.

    The result is zero by algebra, not by measurement: for any
    ``SofteningTransform``, whatever its ``cdf_edges``, sum_j P_j f(n, i | j)
    = dF_i, so the integrand is identically zero and the value (<= 1e-6
    bits) measures rounding only. It cannot detect a broken transform; one
    that does not match its channel is caught by the audit's Monte-Carlo MI
    and KS uniformity checks on simulated outputs.
    """
    priors = t.channel.constellation.priors
    log_df = np.log(t.deltas)
    log_priors = np.log(priors)

    def integrand(n: float) -> np.ndarray:
        logf = _log_joint_matrix(n, t)
        # log f_{N|Xhat}(n | i) = log sum_j P_j f(n, i | j) - log dF_i
        log_cond = logsumexp(logf + log_priors[None, :], axis=1) - log_df
        # log f_N(n) = log sum_i dF_i f_{N|Xhat}(n | i)
        log_mix = logsumexp(log_df + log_cond)
        return np.exp(log_cond) * (log_cond - log_mix) / _LN2

    res, _err = integrate.quad_vec(integrand, 0.0, 1.0, quadrature="gk15", **_QUAD)
    return float(np.sum(t.deltas * res))

