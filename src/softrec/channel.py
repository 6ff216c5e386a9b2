"""AWGN channel and the Gaussian-mixture marginal of its output.

The channel output Y = X + W with W ~ N(0, sigma^2) has the mixture marginal

    f_Y(y) = sum_j P(X=a_j) * phi((y - a_j) / sigma) / sigma

whose density, CDF, survival function, and quantile drive the softening
transforms. The quantile has no closed form and is solved by a vectorized,
bracketed Newton iteration that works only on the points still unsolved and
warns (``QuantileWarning``) if any remain at its iteration cap.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from softrec.constellation import Constellation, _indices

__all__ = [
    "ChannelModel",
    "transmit",
    "output_density",
    "output_cdf",
    "output_quantile",
    "QUANTILE_TOL",
    "QuantileWarning",
]

# Relative tolerance of the quantile solve, in probability space: it stops at
# |F_Y(y) - p| <= 2 * QUANTILE_TOL * min(p, 1 - p).
QUANTILE_TOL = 1e-12
# Newton iterations before the solve gives up on a point and warns.
_MAX_NEWTON = 200
# Knots of the quantile solve's start, and buckets of its lookup table per knot.
_KNOTS = 2048
_BUCKETS_PER_KNOT = 4
# Points per block of the quantile solve.
_BLOCK = 8192

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


class QuantileWarning(RuntimeWarning):
    """The quantile solve stopped with points above its tolerance."""


@dataclass(frozen=True)
class ChannelModel:
    """AWGN channel bound to a constellation.

    Attributes
    ----------
    constellation : Constellation
    noise_variance : float
        sigma^2 = N0/2, in squared channel units; finite and > 0.
    """

    constellation: Constellation
    noise_variance: float

    def __post_init__(self) -> None:
        if not 0 < self.noise_variance < np.inf:
            raise ValueError(f"noise_variance must be finite and > 0, got {self.noise_variance}")

    @property
    def sigma(self) -> float:
        """Noise standard deviation."""
        return float(np.sqrt(self.noise_variance))

    @functools.cached_property
    def _start(self) -> "_Start":
        """The quantile solve's start, built on the first solve and kept on
        this instance; pickles leave it out (``__getstate__``)."""
        return _build_start(self)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_start", None)
        return state


def transmit(x, ch: ChannelModel, rng: np.random.Generator):
    """Send symbol index/indices ``x`` through the channel.

    Parameters
    ----------
    x : int or array of int
        Symbol indices in [0, M); integers, not bool, else ValueError.
    ch : ChannelModel
    rng : numpy.random.Generator
        Supplies the noise; deterministic given the generator state.

    Returns
    -------
    float or ndarray
        a_x + w with w ~ N(0, sigma^2), matching the shape of ``x``.
    """
    idx = _indices(x, ch.constellation.order, "symbol indices")
    clean = ch.constellation.points[idx]
    return _shaped(idx, clean + rng.normal(0.0, ch.sigma, size=idx.shape))


def _checked(y, name: str) -> np.ndarray:
    """``y`` as a float array; NaN is rejected."""
    arr = np.asarray(y, dtype=float)
    if np.isnan(arr).any():
        raise ValueError(f"{name}: NaN input")
    return arr


def _shaped(arr: np.ndarray, vals):
    """``vals`` as a float when the input ``arr`` was a scalar."""
    if arr.ndim == 0:
        return float(vals)
    return vals


# The mixture kernels work one component at a time, on arrays shaped like y,
# and add the components' terms left to right, as ``_logsumexp`` sums its
# columns in the order given. For M <= 4 that is numpy's order over a last
# axis of length M, so they return the bits of sum(priors * f(z), axis=-1)
# and of scipy's ``logsumexp``; for M >= 8 numpy sums in blocks, and they may not.


def _components(y, ch: ChannelModel, sgn=None):
    """Each point's prior P_j with its standardised distance
    z_j = (y - a_j) / sigma, times ``sgn`` when it is given, all in one array:
    the caller may overwrite z_j, and is done with it before drawing the next."""
    z = np.empty(np.shape(y))
    for a, w in zip(ch.constellation.points, ch.constellation.priors):
        np.subtract(y, a, out=z)
        z /= ch.sigma
        if sgn is not None:
            z *= sgn
        yield w, z


def _cdf(y, ch: ChannelModel, sgn=None):
    """sum_j P_j Phi(z_j); with ``sgn`` = -1, the survival function."""
    total = np.zeros(np.shape(y))
    for w, z in _components(y, ch, sgn):
        ndtr(z, out=z)
        z *= w
        total += z
    return total


def _density(y, ch: ChannelModel):
    """sum_j P_j phi(z_j) / sigma, each term w * exp(-z * z / 2) computed in
    the memory of z. Halving is exact (short of subnormal z * z, where exp
    gives 1 either way), so this is bit for bit w * exp(-0.5 * z * z)."""
    total = np.zeros(np.shape(y))
    for w, z in _components(y, ch):
        z *= z
        z *= -0.5
        np.exp(z, out=z)
        z *= w
        total += z
    return total / (np.sqrt(2.0 * np.pi) * ch.sigma)


def output_density(y, ch: ChannelModel):
    """Mixture density f_Y(y); strictly positive, integrates to 1."""
    arr = _checked(y, "output_density")
    return _shaped(arr, _density(arr, ch))


def _logsumexp(columns) -> np.ndarray:
    """log(sum_k exp(a_k)) over the columns a_k of ``columns()``, with the
    bits of scipy's ``logsumexp`` for real input. Each pass calls ``columns``
    again for same-shaped float arrays (views, or one reused array), reads
    each before drawing the next, writes none, and sums them left to right
    in the order given. Scipy's rule: log1p(s) + log(m) + a_max, where m
    counts the columns equal to the maximum a_max and s sums exp(a_k - a_max)
    over the others, divided by m unless 0. It is not finite only where a_max
    is not, and there scipy's fallback log(sum_k exp(a_k)) is a_max. Where no
    row ties, m = 1 drops out bit for bit; otherwise a third pass counts m."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        it = iter(columns())
        a = next(it)
        s, buf, tie = np.zeros(a.shape), np.empty(a.shape), np.empty(a.shape, dtype=bool)
        top = np.array(a, dtype=float)
        for a in it:
            np.maximum(top, a, out=top)
        # Let the last column go before the next pass draws its own.
        a, ties = None, 0
        for a in columns():
            ties += np.count_nonzero(np.equal(a, top, out=tie))
            np.subtract(a, top, out=buf)
            # exp(0) - 1 drops a finite maximum from s, as scipy's exp(-inf) does.
            s += np.subtract(np.exp(buf, out=buf), tie, out=buf)
        # A row whose maximum is not NaN ties at least once.
        if ties == top.size and not np.isnan(top, out=tie).any():
            np.log1p(s, out=s)
        else:
            m = sum(a == top for a in columns())
            s = np.log1p(np.where(s == 0, s, s / m)) + np.log(m)
        s += top
        if not np.isfinite(s, out=tie).all():
            s = np.where(tie, s, top)
    return s


def _exponents(y, ch: ChannelModel):
    """log P_j - z_j^2 / 2 at y, per component in order, in ``_components``' array."""
    for lw, (_, z) in zip(np.log(ch.constellation.priors), _components(y, ch)):
        z *= z
        z *= -0.5
        z += lw
        yield z


def log_output_density(y, ch: ChannelModel):
    """log f_Y(y), stable far into the tails where the density underflows:
    ``_logsumexp`` of the exponents log P_j - z_j^2 / 2, one component at a
    time and in component order, minus log(sqrt(2 pi) sigma)."""
    arr = _checked(y, "log_output_density")
    out = _logsumexp(lambda: _exponents(arr, ch))
    out -= _LOG_SQRT_2PI + np.log(ch.sigma)
    return _shaped(arr, out)


def output_cdf(y, ch: ChannelModel):
    """Mixture CDF F_Y(y) = sum_j P_j * Phi((y - a_j)/sigma).

    Exact to absolute ~1e-16; values very close to 1 necessarily lose
    relative precision in a double; the upper-tail mass itself is
    ``_cdf(y, ch, -1.0)``, accurate (relative) there.
    """
    arr = _checked(y, "output_cdf")
    return _shaped(arr, _cdf(arr, ch))


def _quintic(x, y, d1, d2) -> np.ndarray:
    """(6, n - 1) coefficients of the quintic Hermite curve through (x_k, y_k)
    with first and second derivatives d1_k and d2_k, for strictly increasing
    x; on interval i, row k multiplies (u - x_i)^(5 - k)."""
    h = np.diff(x)
    # What the quadratic from the left end misses at the right end, in
    # value, slope and curvature.
    a = y[1:] - y[:-1] - h * (d1[:-1] + 0.5 * h * d2[:-1])
    b = h * (d1[1:] - d1[:-1] - h * d2[:-1])
    c = h * h * (d2[1:] - d2[:-1])
    return np.stack((
        (6 * a - 3 * b + 0.5 * c) / h**5,
        (-15 * a + 7 * b - c) / h**4,
        (10 * a - 4 * b + 0.5 * c) / h**3,
        0.5 * d2[:-1], d1[:-1], y[:-1],
    ))


@dataclass(eq=False)
class _Start:
    """The quantile start of one channel (see ``_build_start``): the quintic
    y(u) through the knots' normal scores ``knots``, and a table of buckets
    uniform in u, where ``first[b]`` is the index of the first knot in
    bucket b (``first[-1]`` is the knot count). ``cdf_lo`` and ``sf_hi``
    are the tail masses beyond the knots' outer ends. ``points`` counts the
    points solved from it, and ``at_start`` those that met the tolerance on
    their first residual pass, before any Newton step."""

    knots: np.ndarray
    coef: np.ndarray
    first: np.ndarray
    origin: float
    scale: float
    cdf_lo: float
    sf_hi: float
    points: int = 0
    at_start: int = 0

    def bucket(self, u: np.ndarray) -> np.ndarray:
        """Bucket index of each u, clipped to the table. It never falls as u
        rises, so the knots of earlier buckets lie below u and those of
        later ones above it."""
        b = u - self.origin
        b *= self.scale
        np.clip(b, 0, self.first.size - 2, out=b)
        return b.astype(np.intp)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """The curve at v, on interval i = searchsorted(knots, v, "right") - 1
        clipped to [0, n - 2], so past either end the end piece
        extrapolates. The bucket of v holds the knots below it up to its own;
        a bucket of at most one knot settles i with one comparison, and only
        the points of fuller buckets are searched."""
        b = self.bucket(v)
        lo = self.first[b]
        count = self.first[b + 1] - lo
        i = lo - 1
        i += (count > 0) & (np.take(self.knots, lo, mode="clip") <= v)
        full = np.flatnonzero(count > 1)
        i[full] = np.searchsorted(self.knots, v[full], "right") - 1
        np.clip(i, 0, self.knots.size - 2, out=i)
        c = np.take(self.coef, i, axis=1)
        s = v - np.take(self.knots, i)
        y = c[0]
        for ck in c[1:]:
            y *= s
            y += ck
        return y


def _build_start(ch: ChannelModel) -> _Start:
    """The start of ``output_quantile`` for channel ``ch``.

    ``_KNOTS`` points y_k span [min a - 8 sigma, max a + 8 sigma] uniformly.
    Each gets its normal score from one tail: u_k = Phi^{-1}(F_Y(y_k))
    below the prior-weighted mean of the points and -Phi^{-1}(P(Y > y_k))
    above it. The curve y(u) through them is quintic, with the exact
    derivatives y' = phi(u) / f_Y(y) and y'' = y' (y' E[z | y] / sigma - u),
    where z = (y - a) / sigma and E[z | y] is its mean under the posterior of
    the sent point, so that d log f_Y / dy = -E[z | y] / sigma. A flat
    stretch of the CDF repeats a score, and a saturated tail gives an
    infinite one; the curve keeps the points where the score rises and the
    score and both derivatives are finite. Where the density underflows
    between points at small sigma, a segment's coefficients can overflow;
    its points start at NaN.
    """
    pts, sig = ch.constellation.points, ch.sigma
    grid = np.linspace(pts[0] - 8.0 * sig, pts[-1] + 8.0 * sig, _KNOTS)
    split = np.searchsorted(grid, ch.constellation.priors @ pts)
    cdf = _cdf(grid[:split], ch)
    sf = _cdf(grid[split:], ch, -1.0)
    u = np.concatenate((ndtri(cdf), -ndtri(sf)))
    log_f = log_output_density(grid, ch)
    # log sum_j P_j exp(-z_j^2 / 2), which normalises the posterior weights
    norm = log_f + (_LOG_SQRT_2PI + np.log(sig))
    mean_z = sum((grid - a) / sig * np.exp(e - norm) for a, e in zip(pts, _exponents(grid, ch)))
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = np.exp(-0.5 * u * u - _LOG_SQRT_2PI - log_f)
        d2 = d1 * (d1 * mean_z / sig - u)
        rising = u > np.maximum.accumulate(np.concatenate(([-np.inf], u[:-1])))
        usable = rising & np.isfinite(u) & np.isfinite(d1) & np.isfinite(d2)
        knots = u[usable]
        coef = _quintic(knots, grid[usable], d1[usable], d2[usable])
    buckets = _BUCKETS_PER_KNOT * knots.size
    start = _Start(
        knots, coef, np.empty(buckets + 1, dtype=np.int32), knots[0],
        buckets / (knots[-1] - knots[0]), cdf[0], sf[-1],
    )
    start.first[0] = 0
    np.cumsum(np.bincount(start.bucket(knots), minlength=buckets), out=start.first[1:])
    return start


def output_quantile(p, ch: ChannelModel):
    """Invert the output CDF: find y with F_Y(y) = p.

    Safeguarded Newton iteration with a per-element bisection bracket,
    started from a curve that each channel builds once, on its first solve,
    and keeps (Hörmann & Leydold, ACM TOMACS 13(4), 2003):

    - Start (``_build_start``). A point starts at y(v), the quintic curve
      of the 2,048 knots at its own normal score v = Phi^{-1}(p) (or
      -Phi^{-1}(1 - p) where p > 1/2).
    - Bracket. Each a_j lies in [a_0, a_{M-1}], so
      Phi((y - a_{M-1}) / sigma) <= F_Y(y) <= Phi((y - a_0) / sigma), and
      the same holds for P(Y > y), mirrored. So every point's bracket is
      [a_0 + sigma v, a_{M-1} + sigma v].
    - Far tail. A point past the knots starts from the dominant edge
      component alone, y = a_min + sigma Phi^{-1}(p / P(a_min)), mirrored in
      the upper tail.

    Each Newton iteration then runs on the active set, the points not yet
    solved; a solved point leaves it. Every step is elementwise, so a
    point's result depends only on (p, ch). A point terminates at
    |F_Y(y) - p| <= 2 * QUANTILE_TOL * min(p, 1 - p) or a machine-width
    bracket. On PAM-2, -4 and -8 from -10 to 15 dB every point within the
    knots meets the tolerance at its start, so one residual pass solves a
    frame; the Newton steps and the density they need run on the rest, such
    as far-tail points at low SNR. Points still unsolved after
    ``_MAX_NEWTON`` iterations are returned as they stand, with one
    ``QuantileWarning`` per call giving their count and worst relative
    residual.

    All but the start runs to completion on one block of ``_BLOCK`` points
    before the next, so the working arrays fit the cache. Every step is
    elementwise: no bit moves.

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
    arr = _checked(p, "output_quantile")
    if arr.size and (arr.min() <= 0.0 or arr.max() >= 1.0):
        raise ValueError("output_quantile: p must lie strictly inside (0, 1)")
    if not arr.size:
        return np.empty(arr.shape)
    pv = arr.reshape(-1)

    pts, priors = ch.constellation.points, ch.constellation.priors
    sig = ch.sigma
    start = ch._start

    def residual(y: np.ndarray, sgn: np.ndarray, target: np.ndarray) -> np.ndarray:
        """sgn * (tail mass at y - target), in each point's own tail."""
        return sgn * (_cdf(y, ch, sgn) - target)

    out = np.empty_like(pv)
    unsolved, worst = 0, 0.0
    for first in range(0, pv.size, _BLOCK):
        pb = pv[first : first + _BLOCK]
        # Solve on whichever tail is well conditioned for each element: the
        # upper one (sgn = -1) where p > 1/2, where 1 - p is exact
        # (Sterbenz), so the given value is never degraded. _cdf(y, ch, -1)
        # is the survival function, and sgn * (_cdf(y, ch, sgn) - target)
        # increases in y on both tails. The points a_j increase, so
        # a_min = a_0 and a_max = a_{M-1}.
        upper = pb > 0.5
        sgn = np.where(upper, -1.0, 1.0)
        target = np.where(upper, 1.0 - pb, pb)

        # The bracket (see above) has residual(lo) <= 0 <= residual(hi) on
        # both tails; it is zero wide for a one-point constellation.
        v = sgn * ndtri(target)
        lo = pts[0] + sig * v
        hi = pts[-1] + sig * v
        with np.errstate(over="ignore", invalid="ignore"):
            y = start(v)

        # Far tail (see above): the first point's below the knots, the
        # last's above them.
        past = np.where(upper, target <= start.sf_hi, target < start.cdf_lo)
        a_edge = np.where(upper[past], pts[-1], pts[0])
        p_edge = np.where(upper[past], priors[-1], priors[0])
        y[past] = a_edge + sgn[past] * sig * ndtri(np.minimum(target[past] / p_edge, 1.0))

        y = np.clip(y, lo, hi)
        # A NaN start would become a bracket edge on the first pass; start
        # such a point at its bracket's middle instead.
        nan = np.isnan(y)
        y[nan] = 0.5 * (lo[nan] + hi[nan])

        # Active set: idx holds the unsolved points' places in out, and the
        # working arrays hold only their rows.
        idx = np.arange(first, first + pb.size)
        for it in range(_MAX_NEWTON):
            if not idx.size:
                break
            r = residual(y, sgn, target)
            # Relative to the chosen tail's mass, which is at most 1/2.
            met = np.abs(r) <= 2.0 * QUANTILE_TOL * target
            if it == 0:
                start.at_start += np.count_nonzero(met)
            out[idx[met]] = y[met]
            idx, y, lo, hi, sgn, target, r = (a[~met] for a in (idx, y, lo, hi, sgn, target, r))
            # Tighten the bracket from the current iterate. Where it cannot
            # shrink further, the point is machine-limited, and done too.
            below = r < 0
            lo = np.where(below, y, lo)
            hi = np.where(below, hi, y)
            done = (hi - lo) <= np.spacing(np.maximum(np.abs(lo), np.abs(hi))) * 4
            out[idx[done]] = y[done]
            idx, y, lo, hi, sgn, target, r = (a[~done] for a in (idx, y, lo, hi, sgn, target, r))
            # The Newton step, on the rest.
            trial = y - r / np.maximum(_density(y, ch), 1e-300)
            # A correction under half a spacing of y leaves y where it is,
            # and bisecting from there would throw the point away from its
            # root. The root then lies within a spacing, so step one spacing
            # toward it: the bracket closes to machine width on the next
            # pass.
            stuck = trial == y
            trial[stuck] = np.nextafter(y[stuck], np.where(r[stuck] < 0, np.inf, -np.inf))
            fallback = (trial <= lo) | (trial >= hi) | ~np.isfinite(trial)
            y = np.where(fallback, 0.5 * (lo + hi), trial)
        if idx.size:
            out[idx] = y
            unsolved += idx.size
            worst = np.maximum(worst, np.max(np.abs(residual(y, sgn, target)) / target))
    start.points += pv.size
    if unsolved:
        warnings.warn(
            f"output_quantile: {unsolved} of {pv.size} points unsolved after "
            f"{_MAX_NEWTON} Newton iterations; worst |F - p| / min(p, 1 - p) "
            f"= {worst:.3g}",
            QuantileWarning,
            stacklevel=2,
        )

    return _shaped(arr, out.reshape(arr.shape))
