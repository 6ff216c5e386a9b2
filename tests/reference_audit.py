"""The audit cell and ``soften`` as they were before the one-pass audit,
kept as test oracles.

``soften`` decides by ``searchsorted`` and evaluates both pieces' formulas
before choosing one per sample. The audit cell bins the (decision, metric)
pairs by floor(n * MC_BINS) with an edge fix-up, and takes each decision's
metrics out with a boolean mask for its KS test.
"""

from __future__ import annotations

import numpy as np

from softrec import cli
from softrec.channel import output_cdf, transmit
from softrec.infotheory import leakage


def soften(y, t):
    """(disclosed metric, decision index) of observation(s) ``y``."""
    arr = np.asarray(y, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("soften: observations must be finite")
    idx = np.searchsorted(t.regions.boundaries, arr, side="left")
    d = int(idx) if arr.ndim == 0 else idx.astype(np.int64)
    didx = np.asarray(d)
    fy = output_cdf(arr, t.channel)
    signs = np.asarray(t.config.signs)[didx]
    lo = t.cdf_edges[didx]
    hi = t.cdf_edges[didx + 1]
    n = np.where(signs > 0, fy - lo, hi - fy) / t.deltas[didx]
    n = np.clip(n, 0.0, 1.0)
    if arr.ndim == 0:
        return float(n), int(d)
    return n, d


def audit_cell(ch, transform, rng, samples_per_decision: int):
    """One (snr, config) audit cell: returns (analytic, mc, min KS p-value)."""
    analytic = leakage(transform)
    order = ch.constellation.order
    counts = np.zeros(order, dtype=np.int64)
    chunks_n: list = []
    chunks_d: list = []
    # Draw until every decision has its quota; chunk size targets the
    # rarest decision, so a couple of rounds normally suffice.
    min_delta = float(np.min(transform.deltas))
    while counts.min() < samples_per_decision:
        need = samples_per_decision - int(counts.min())
        size = min(4_000_000, max(50_000, int(1.3 * need / min_delta)))
        x = rng.choice(order, size=size, p=ch.constellation.priors)
        y = transmit(x, ch, rng)
        n, d = soften(y, transform)
        chunks_n.append(n)
        chunks_d.append(d)
        counts += np.bincount(d, minlength=order)
    n = np.concatenate(chunks_n)
    d = np.concatenate(chunks_d)

    # Plug-in MI of the (decision, binned metric) joint with the
    # Miller-Madow correction; zero leakage shows up at the sampling floor.
    joint = joint_counts(d, n, order)
    total = joint.sum()
    pj = joint / total
    pr = pj.sum(axis=1, keepdims=True)
    pc = pj.sum(axis=0, keepdims=True)
    mask = pj > 0
    mc = float(np.sum(pj[mask] * np.log2(pj[mask] / (pr @ pc)[mask])))
    k_j = int(np.count_nonzero(pj))
    k_r = int(np.count_nonzero(pr))
    k_c = int(np.count_nonzero(pc))
    mc -= (k_j - k_r - k_c + 1) / (2.0 * total * np.log(2.0))

    ks_min = 1.0
    for i in range(order):
        ks_min = min(ks_min, ks_uniform(n[d == i])[1])
    return analytic, mc, ks_min


def joint_counts(d: np.ndarray, n: np.ndarray, order: int) -> np.ndarray:
    """(order, MC_BINS) counts of (decision, metric bin) pairs.

    The same counts as ``np.histogram2d(d, n, bins=[order, MC_BINS],
    range=[[-0.5, order - 0.5], [0, 1]])``, as integers, for decisions in
    [0, order) and metrics in [0, 1]: bin k holds edge[k] <= n < edge[k + 1]
    over the ``np.linspace`` edges, and the last bin also holds n = 1.
    floor(n * MC_BINS) is off by at most one bin near an edge, so it is
    moved down or up against the edges themselves.
    """
    bins = cli.MC_BINS
    edges = np.linspace(0.0, 1.0, bins + 1)
    k = np.minimum((n * bins).astype(np.intp), bins - 1)
    k -= n < edges[k]
    k += (n >= edges[k + 1]) & (k < bins - 1)
    counts = np.bincount(d * bins + k, minlength=order * bins)
    return counts.reshape(order, bins)


def ks_uniform(x: np.ndarray) -> tuple[float, float]:
    """(statistic, p-value) of the two-sided one-sample KS test of ``x``
    against Uniform[0, 1], from one sort, as ``scipy.stats.kstest`` gives them."""
    from scipy.stats import kstwo

    x = np.sort(x)
    size = x.size
    d_plus = np.max(np.arange(1.0, size + 1) / size - x)
    d_minus = np.max(x - np.arange(0.0, size) / size)
    stat = float(max(d_plus, d_minus))
    return stat, float(np.clip(kstwo.sf(stat, size), 0.0, 1.0))
