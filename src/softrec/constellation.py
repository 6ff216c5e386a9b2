"""PAM constellations: amplitudes, priors, bit labels, and MAP decision regions.

All symbol indices in this package are 0-based positions into the
amplitude-sorted ``points`` array. Bit positions are 0-based and MSB-first
into the bitmap strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Constellation",
    "DecisionRegions",
    "gray_bitmap",
    "pam",
    "map_decision_regions",
    "decide",
    "demap",
    "bit_partitions",
]

_PRIOR_SUM_TOL = 1e-12


def gray_bitmap(order: int) -> tuple[str, ...]:
    """Binary-reflected Gray labels for ``order`` symbols, MSB first.

    Parameters
    ----------
    order : int
        Number of symbols; must be a power of two.

    Returns
    -------
    tuple of str
        ``order`` distinct bit-strings of length log2(order); adjacent
        entries differ in exactly one bit.
    """
    if order < 2 or order & (order - 1):
        raise ValueError(f"order must be a power of two >= 2, got {order}")
    width = order.bit_length() - 1
    return tuple(format(i ^ (i >> 1), f"0{width}b") for i in range(order))


@dataclass(frozen=True)
class Constellation:
    """A real PAM alphabet with symbol priors and a bit labeling.

    Attributes
    ----------
    points : ndarray
        Strictly increasing amplitudes, shape (M,).
    priors : ndarray
        Symbol probabilities, shape (M,); positive, summing to 1.
    bitmap : tuple of str
        M distinct bit-strings of length log2(M) labeling the symbols.
    bits : ndarray
        The bitmap as a (M, L) uint8 table, MSB-first columns; (M, 0)
        without a bitmap. Derived, not passed.

    Equal, and hashed alike, when points, priors and bitmap are.
    """

    points: np.ndarray
    priors: np.ndarray
    bitmap: tuple[str, ...]
    bits: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        priors = np.asarray(self.priors, dtype=float)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "priors", priors)
        if points.ndim != 1 or points.size < 1:
            raise ValueError("points must be a non-empty 1-D array")
        if not np.all(np.diff(points) > 0):
            raise ValueError("points must be strictly increasing")
        if priors.shape != points.shape:
            raise ValueError("priors must match points in shape")
        if not np.all(priors > 0):
            raise ValueError("all priors must be positive")
        if abs(priors.sum() - 1.0) > _PRIOR_SUM_TOL:
            raise ValueError(f"priors must sum to 1 within {_PRIOR_SUM_TOL}")
        m = points.size
        bitmap = tuple(self.bitmap)
        object.__setattr__(self, "bitmap", bitmap)
        if bitmap:
            if m & (m - 1):
                raise ValueError("a bitmap requires the order to be a power of two")
            width = m.bit_length() - 1
            if len(bitmap) != m:
                raise ValueError("bitmap must have one label per symbol")
            if len(set(bitmap)) != m:
                raise ValueError("bitmap labels must be distinct")
            for label in bitmap:
                if len(label) != width or set(label) - {"0", "1"}:
                    raise ValueError(f"bitmap label {label!r} is not a {width}-bit string")
        bits = np.array([[int(b) for b in label] for label in bitmap], dtype=np.uint8)
        object.__setattr__(self, "bits", bits.reshape(m, -1))

    def _key(self) -> tuple:
        return (tuple(self.points.tolist()), tuple(self.priors.tolist()), self.bitmap)

    def __eq__(self, other) -> bool:
        return isinstance(other, Constellation) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def order(self) -> int:
        """Number of symbols M."""
        return self.points.size

    @property
    def bits_per_symbol(self) -> int:
        """Label width L = log2(M)."""
        return self.bits.shape[1]

    @property
    def average_power(self) -> float:
        """E[X^2] under the priors; amplitudes are never auto-normalized."""
        return float(np.sum(self.priors * self.points**2))


def pam(
    order: int,
    amplitudes: Sequence[float] | None = None,
    priors: Sequence[float] | None = None,
    bitmap: Sequence[str] | None = None,
) -> Constellation:
    """Build a PAM constellation with conventional defaults.

    Defaults: amplitudes {+-1, +-3, ...}, uniform priors, binary-reflected
    Gray bitmap over the amplitude-sorted points.
    """
    if amplitudes is None:
        if order < 2:
            raise ValueError("order must be >= 2")
        amplitudes = np.arange(-(order - 1), order, 2, dtype=float)
    pts = np.sort(np.asarray(amplitudes, dtype=float))
    if pts.size != order:
        raise ValueError(f"expected {order} amplitudes, got {pts.size}")
    if priors is None:
        priors = np.full(order, 1.0 / order)
    if bitmap is None:
        bitmap = gray_bitmap(order)
    return Constellation(points=pts, priors=np.asarray(priors, dtype=float), bitmap=tuple(bitmap))


@dataclass(frozen=True)
class DecisionRegions:
    """Interval partition of the real line into M decision regions.

    Region i is (boundaries[i-1], boundaries[i]] with -inf and +inf at the
    ends; a point sitting exactly on a threshold belongs to the region on
    its left (right-closed convention, fixed for reproducibility).
    """

    boundaries: np.ndarray

    def __post_init__(self) -> None:
        bounds = np.asarray(self.boundaries, dtype=float)
        object.__setattr__(self, "boundaries", bounds)
        if bounds.ndim != 1:
            raise ValueError("boundaries must be 1-D")
        if bounds.size and not np.all(np.diff(bounds) > 0):
            raise ValueError("boundaries must be strictly increasing")
        if bounds.size and not np.all(np.isfinite(bounds)):
            raise ValueError("boundaries must be finite")

    @property
    def count(self) -> int:
        """Number of regions M."""
        return self.boundaries.size + 1


def map_decision_regions(c: Constellation, noise_variance: float) -> DecisionRegions:
    """MAP decision thresholds for ``c`` observed through AWGN.

    For Gaussian noise with equal variance per symbol, the posterior
    log-ratio between adjacent symbols is linear in y, so each threshold is
    the midpoint shifted by the prior log-ratio:

        t_i = (a_i + a_{i+1})/2 + sigma^2 * ln(P_i / P_{i+1}) / (a_{i+1} - a_i)

    Parameters
    ----------
    c : Constellation
    noise_variance : float
        AWGN variance sigma^2, finite and > 0.

    Returns
    -------
    DecisionRegions

    Raises
    ------
    ValueError
        If ``noise_variance`` is not finite and > 0, or some symbol's MAP
        region is empty (possible with extreme priors); the message names
        the dominated symbol.
    """
    if not 0 < noise_variance < np.inf:
        raise ValueError(f"noise_variance must be finite and > 0, got {noise_variance}")
    a = c.points
    p = c.priors
    if c.order == 1:
        return DecisionRegions(boundaries=np.empty(0))
    gaps = np.diff(a)
    mids = (a[:-1] + a[1:]) / 2.0
    bounds = mids + noise_variance * np.log(p[:-1] / p[1:]) / gaps
    # An inverted threshold pair means the in-between symbol never wins the
    # posterior anywhere on the line.
    bad = np.flatnonzero(np.diff(bounds) <= 0)
    if bad.size:
        i = int(bad[0]) + 1
        raise ValueError(
            f"symbol index {i} (amplitude {a[i]}) has an empty MAP region "
            f"under the given priors and noise_variance={noise_variance}"
        )
    return DecisionRegions(boundaries=bounds)


def decide(y, regions: DecisionRegions):
    """Region index for observation(s) ``y``.

    Vectorized; returns an int for scalar input, an int64 array otherwise.
    Threshold points go to the lower-indexed region (right-closed).
    NaN input is rejected.

    The index is the number of thresholds strictly below y, which is
    ``searchsorted(boundaries, y, "left")``: one comparison pass per
    threshold into a small-integer count. With M - 1 thresholds that is
    several times faster than the binary search, from PAM-2 to PAM-64.
    """
    arr = np.asarray(y, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("decide: NaN observation")
    idx = np.zeros(arr.shape, dtype=np.min_scalar_type(regions.count - 1))
    for b in regions.boundaries:
        idx += arr > b
    if arr.ndim == 0:
        return int(idx)
    return idx.astype(np.int64)


def _indices(x, order: int, what: str) -> np.ndarray:
    """``x`` as indices in [0, order), the package's one index rule: a bool
    dtype (numpy's mask), a float one (an empty list's too) or an index out
    of range raises ValueError, its message led by ``what``."""
    idx = np.asarray(x)
    if idx.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers (not bool), got {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= order):
        raise ValueError(f"{what} out of range")
    return idx


def demap(indices, c: Constellation) -> np.ndarray:
    """Concatenated bit labels for a sequence of symbol indices.

    Parameters
    ----------
    indices : int or array of int
        Symbol indices in [0, M), any shape, read in C order; a bool,
        a float or an index out of range raises ValueError.
    c : Constellation

    Returns
    -------
    ndarray of uint8, shape (L * indices.size,)
    """
    return c.bits[_indices(indices, c.order, "symbol index")].reshape(-1)


def bit_partitions(c: Constellation, l: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split symbol indices by the value of bit position ``l``.

    Parameters
    ----------
    c : Constellation
    l : int
        Bit position, 0-based, MSB first; 0 <= l < L.

    Returns
    -------
    (zeros, ones) : tuple of tuples
        Indices whose l-th bit is 0, then those whose l-th bit is 1.
        The two sets partition range(M).
    """
    if not 0 <= l < c.bits_per_symbol:
        raise ValueError(f"bit position {l} outside [0, {c.bits_per_symbol})")
    col = c.bits[:, l]
    return tuple(np.flatnonzero(col == 0).tolist()), tuple(np.flatnonzero(col).tolist())
