"""Piecewise softening transforms over the decision regions.

The receiver maps his observation y, landing in decision region D_i, through
a region-local monotone reparameterization of the output CDF:

    increasing piece:  g_i(y) = (F_Y(y) - F_Y(inf D_i)) / dF_i
    decreasing piece:  g_i(y) = (F_Y(sup D_i) - F_Y(y)) / dF_i

with dF_i = F_Y(sup D_i) - F_Y(inf D_i). Either way the disclosed value
N = g(Y) is Uniform[0,1] conditioned on ANY decision, which is what makes
publishing it leak nothing about the decision itself. The monotonicity sign
per region is a free design choice; both pieces share the Jacobian
|g_i'(y)| = f_Y(y) / dF_i.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from softrec.channel import ChannelModel, log_output_density, output_cdf, output_quantile
from softrec.constellation import DecisionRegions, _indices, decide, map_decision_regions

__all__ = [
    "MonotonicityConfig",
    "SofteningTransform",
    "build_transform",
    "enumerate_configs",
    "inverse_and_jacobian",
    "soften",
    "N_EPS",
]

# Disclosed-metric clamp: n in {0, 1} maps to +-inf on unbounded edge
# regions, so callers of the inverse work inside [N_EPS, 1 - N_EPS].
N_EPS = 1e-12

_EDGE_SUM_TOL = 1e-10


@dataclass(frozen=True)
class MonotonicityConfig:
    """Per-region monotonicity choice for the transform pieces.

    Attributes
    ----------
    signs : tuple of int
        One entry per decision region; +1 for an increasing piece, -1 for a
        decreasing one. Each must be an integer (numpy's included), not a
        bool or a float.
    """

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        signs = tuple(self.signs)
        if not signs:
            raise ValueError("signs must be non-empty")
        for s in signs:
            if isinstance(s, bool) or not isinstance(s, numbers.Integral) or s not in (1, -1):
                raise ValueError(f"signs entries must be the integers +1 or -1, got {s!r}")
        object.__setattr__(self, "signs", tuple(int(s) for s in signs))

    @classmethod
    def base(cls, m: int) -> "MonotonicityConfig":
        """All pieces increasing."""
        return cls(signs=(1,) * m)

    @classmethod
    def alternating(cls, m: int) -> "MonotonicityConfig":
        """Signs alternate between adjacent regions, starting increasing."""
        return cls(signs=tuple(1 if i % 2 == 0 else -1 for i in range(m)))

    @classmethod
    def from_string(cls, text: str, m: int) -> "MonotonicityConfig":
        """Parse 'base', 'alternating', or an explicit sign string like '+-+-'."""
        name = text.strip().lower()
        if name == "base":
            return cls.base(m)
        if name == "alternating":
            return cls.alternating(m)
        if set(name) <= {"+", "-"} and name:
            if len(name) != m:
                raise ValueError(f"sign string {text!r} must have length {m}")
            return cls(signs=tuple(1 if ch == "+" else -1 for ch in name))
        raise ValueError(f"unrecognized monotonicity config {text!r}")

    def __str__(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)

    @property
    def name(self) -> str:
        """Canonical name: 'base', 'alternating', or the sign string."""
        m = len(self.signs)
        if self == MonotonicityConfig.base(m):
            return "base"
        if self == MonotonicityConfig.alternating(m):
            return "alternating"
        return str(self)


def enumerate_configs(m: int):
    """Yield all 2^M monotonicity configurations for M regions.

    Order is lexicographic with increasing-first, so the base (all
    increasing) config comes first.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    for signs in itertools.product((1, -1), repeat=m):
        yield MonotonicityConfig(signs=signs)


@dataclass(frozen=True)
class SofteningTransform:
    """A fully built softening transform bound to a channel.

    The CDF values at all region edges are precomputed once; they are hit in
    per-sample hot loops. ``cdf_edges[i] = F_Y(inf D_i)`` with a final entry
    of 1, so region i spans probability [cdf_edges[i], cdf_edges[i+1]] and
    ``deltas[i]`` is its mass, which also equals P(decision = i). Piece i
    is n = (F_Y(y) - ref[i]) / mass[i]: ``ref[i]`` is F_Y at its n = 0 end
    (the low edge if increasing, the high edge if decreasing) and
    ``mass[i] = s_i * deltas[i]`` its signed mass.
    """

    channel: ChannelModel
    regions: DecisionRegions
    config: MonotonicityConfig
    cdf_edges: np.ndarray
    deltas: np.ndarray = field(init=False)
    ref: np.ndarray = field(init=False)
    mass: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        m = self.regions.count
        if len(self.config.signs) != m:
            raise ValueError(f"config has {len(self.config.signs)} signs for {m} regions")
        if self.cdf_edges.shape != (m + 1,):
            raise ValueError("cdf_edges must have one entry per region edge")
        object.__setattr__(self, "deltas", np.diff(self.cdf_edges))
        if not np.all(self.deltas > 0):
            raise ValueError("every region must carry positive probability mass")
        if abs(self.deltas.sum() - 1.0) > _EDGE_SUM_TOL:
            raise ValueError("region probability masses must sum to 1")
        signs = np.asarray(self.config.signs)
        ref = np.where(signs > 0, self.cdf_edges[:-1], self.cdf_edges[1:])
        object.__setattr__(self, "ref", ref)
        object.__setattr__(self, "mass", signs * self.deltas)

    @property
    def order(self) -> int:
        """Number of regions M."""
        return self.regions.count


def build_transform(
    ch: ChannelModel, config: MonotonicityConfig | str | None = None
) -> SofteningTransform:
    """Construct the transform for a channel and config over the MAP regions.

    Parameters
    ----------
    ch : ChannelModel
    config : MonotonicityConfig or str, optional
        Defaults to all-increasing. Strings accept 'base', 'alternating',
        or a sign string like '+-+-'.
    """
    regions = map_decision_regions(ch.constellation, ch.noise_variance)
    m = regions.count
    if config is None:
        config = MonotonicityConfig.base(m)
    elif isinstance(config, str):
        config = MonotonicityConfig.from_string(config, m)
    inner = output_cdf(regions.boundaries, ch) if m > 1 else np.empty(0)
    edges = np.concatenate(([0.0], np.atleast_1d(inner), [1.0]))
    return SofteningTransform(channel=ch, regions=regions, config=config, cdf_edges=edges)


def soften(y, t: SofteningTransform):
    """Map observation(s) to (disclosed metric, decision index).

    Parameters
    ----------
    y : float or array
        Finite channel outputs.
    t : SofteningTransform

    Returns
    -------
    (n, decision)
        ``n`` in [0, 1] with the same shape as ``y``; ``decision`` the
        region index of each observation.

    Both pieces are one formula, n = (F_Y(y) - ref_i) / mass_i, with the
    transform's ``ref`` and ``mass`` tables, so each sample takes one
    gather from each, computed in place. Negating a difference or a divisor
    is exact, so a decreasing piece gives the bits of (hi - F_Y(y)) / dF_i,
    except that F_Y(y) = hi gives -0.0, which adding +0.0 turns back into
    the +0.0 of that form.
    """
    arr = np.asarray(y, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("soften: observations must be finite")
    if arr.ndim == 0:
        n, d = soften(arr.reshape(1), t)
        return float(n[0]), int(d[0])
    d = decide(arr, t.regions)
    n = output_cdf(arr, t.channel)
    per_sample = np.take(t.ref, d)
    n -= per_sample
    n /= np.take(t.mass, d, out=per_sample)
    n += 0.0
    np.clip(n, 0.0, 1.0, out=n)
    return n, d


def inverse_and_jacobian(n, i, t: SofteningTransform):
    """Invert the i-th transform piece: (g_i^{-1}(n), log|g_i'| at that point).

    The one inverse of the piecewise transform, from one quantile solve;
    broadcasts over ``n`` and ``i``. The Jacobian, f_Y(y) / dF_i for
    increasing and decreasing pieces alike, comes in log form, finite where
    f_Y(y) underflows. ``n`` is clamped to [N_EPS, 1 - N_EPS] first, so an
    endpoint of an unbounded edge region, which would map to +-inf,
    saturates to the far tail instead. ``n`` outside [0, 1] or NaN, and a
    region index that is not an integer (a bool included) or is out of
    range, raise ValueError.
    """
    narr = np.asarray(n, dtype=float)
    if np.isnan(narr).any():
        raise ValueError("metric n must not be NaN")
    if narr.size and (narr.min() < 0.0 or narr.max() > 1.0):
        raise ValueError("metric n must lie in [0, 1]")
    iarr = _indices(i, t.order, "region index")
    nc = np.clip(narr, N_EPS, 1.0 - N_EPS)
    # hi + nc * (-dF) is hi - nc * dF bit for bit: negation is exact. An
    # array even for scalar n and i, so the clip can write into it.
    p = np.asarray(t.ref[iarr] + nc * t.mass[iarr])
    # Guard the open-interval requirement of the quantile against rounding.
    y = output_quantile(np.clip(p, 1e-300, 1.0 - 1e-16, out=p), t.channel)
    log_jac = log_output_density(y, t.channel)
    log_jac -= np.log(t.deltas[iarr])
    return y, log_jac
