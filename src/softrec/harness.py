"""End-to-end experiment orchestration with seeded reproducibility.

Every simulated frame, of every scheme, runs through one path, ``_frame``:
draw symbols and channel outputs, ask the scheme for its target bits and
soft inputs (``_soft_inputs``), take the syndrome of the target, decode
once. The schemes differ only in that middle step: direct decodes the
sender's bits from channel LLRs, hard reverse reconciliation decodes the
receiver's decisions from the discrete-channel table, and softened reverse
reconciliation (rrs) decodes them from LAPPRs of the disclosed metric.

* ``run_protocol``: one rrs frame exactly as the protocol runs it,
  returning both parties' bits and a transcript holding only what crossed
  the public channel (the softened metric values and the syndrome), so
  leakage audits can work from the transcript alone.
* ``ber_sweep``: Monte Carlo coded-BER runs with early stopping and Wilson
  intervals. Each (snr, scheme, config) cell is a small frozen record,
  ``_Cell``, built once before any frame runs; worker tasks are
  ``(cell, frame index)``, and each frame seeds its generator from
  (master seed, grid point, scheme, config, frame index), making the output
  a pure function of the experiment spec.
* ``mi_sweep``: per-SNR mutual information curves for the three schemes,
  plus the inverse view (SNR required to reach fixed MI levels) by monotone
  cubic interpolation.

CSV emission uses ``repr`` for floats, so identical runs produce identical
bytes.
"""

from __future__ import annotations

import csv
import json
import numbers
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import ChannelModel, transmit
from .constellation import Constellation, decide, demap, map_decision_regions
from .infotheory import MiResult, mi_direct, mi_hard, mi_rrs, transition_matrix
from .ldpc import decode, load_code, syndrome
from .metrics import _alpha, bit_lapprs, lappr_batch
from .softening import MonotonicityConfig, SofteningTransform, build_transform, soften

__all__ = [
    "SCHEMES",
    "MI_TARGETS",
    "ExperimentSpec",
    "BerPoint",
    "Transcript",
    "ProtocolResult",
    "noise_variance_for_snr_db",
    "run_protocol",
    "mi_sweep",
    "snr_at_mi",
    "ber_sweep",
    "hard_rr_lapprs",
    "direct_bit_llrs",
    "write_mi_csv",
    "write_snr_at_mi_csv",
    "write_ber_csv",
    "append_run_log",
]

SCHEMES = ("direct", "hard", "rrs")

# Fixed-MI levels used for the inverse (SNR-at-MI) presentation.
MI_TARGETS = (1.75, 1.0, 0.75, 0.3, 0.1, 0.01)


def noise_variance_for_snr_db(snr_db: float, c: Constellation) -> float:
    """Noise variance realizing a given SNR for a constellation.

    SNR is Es/N0 in dB with N0 = 2 sigma^2, i.e.
    sigma^2 = Es / (2 * 10^(SNR/10)). Under this convention the direct
    channel of uniform PAM-4 reaches 1 bit at 2.11 dB.
    """
    es = c.average_power
    return es / (2.0 * 10.0 ** (snr_db / 10.0))


# ExperimentSpec's counts, each an integer (not a bool) at or above its
# value here.
_COUNT_MINIMA = dict(
    frames_per_point=1, workers=1, max_iters=1,
    stop_bit_errors=0, stop_frame_errors=0, master_seed=0,
)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a sweep needs; immutable and picklable. A count outside
    ``_COUNT_MINIMA`` (a float, a bool, or too small) fails at build.

    Attributes
    ----------
    constellation : Constellation
    snr_grid_db : tuple of float
        Non-empty and finite; ascending recommended (not enforced).
    schemes : tuple of str
        Subset of {'direct', 'hard', 'rrs'}.
    configs : tuple of MonotonicityConfig
        Monotonicity configs for the rrs scheme; defaults to base and
        alternating for the constellation's order. Strings accepted.
    code : str
        Preset name, alist path, or alist text (BER sweeps only); loaded
        here, so a bad source fails when the spec is built.
    alpha : float
        LAPPR scaling for the rrs decoder input; finite and > 0, not a
        bool, and stored as a float.
    frames_per_point : int
        Cap on simulated frames per (snr, scheme, config) cell.
    master_seed : int
    workers : int
        Process count for BER frames; 1 = in-process.
    max_iters : int
        Belief-propagation sweep cap per frame.
    stop_bit_errors, stop_frame_errors : int
        Early-stop thresholds: a cell stops once both are reached.
    """

    constellation: Constellation
    snr_grid_db: tuple
    schemes: tuple = SCHEMES
    configs: tuple = ()
    code: str = "hamming74"
    alpha: float = 1.0
    frames_per_point: int = 1
    master_seed: int = 0
    workers: int = 1
    max_iters: int = 100
    stop_bit_errors: int = 100
    stop_frame_errors: int = 20

    def __post_init__(self) -> None:
        grid = tuple(float(s) for s in self.snr_grid_db)
        if not grid:
            raise ValueError("snr grid must be non-empty")
        if not np.all(np.isfinite(grid)):
            raise ValueError(f"snr_grid_db must be finite, got {grid}")
        object.__setattr__(self, "snr_grid_db", grid)
        schemes = tuple(self.schemes)
        for s in schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}; expected subset of {SCHEMES}")
        if not schemes:
            raise ValueError("at least one scheme required")
        object.__setattr__(self, "schemes", schemes)
        m = self.constellation.order
        raw = self.configs or ("base", "alternating")
        configs = tuple(
            c if isinstance(c, MonotonicityConfig) else MonotonicityConfig.from_string(c, m)
            for c in raw
        )
        for c in configs:
            if len(c.signs) != m:
                raise ValueError(f"config {c} does not match constellation order {m}")
        object.__setattr__(self, "configs", configs)
        object.__setattr__(self, "alpha", _alpha(self.alpha))
        for name, least in _COUNT_MINIMA.items():
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < least:
                kind = "positive" if least else "non-negative"
                raise ValueError(f"{name} must be a {kind} integer, got {v!r}")
        load_code(self.code)


@dataclass(frozen=True)
class BerPoint:
    """Aggregate of one (snr, scheme, config) cell of a BER sweep; its frame
    errors split into undetected (syndrome met, bits wrong) and not converged."""

    snr_db: float
    scheme: str
    config: str
    alpha: float
    frames: int
    bit_errors: int
    frame_errors: int
    ber: float
    ber_ci_lo: float
    ber_ci_hi: float
    fer: float
    undersampled: bool
    undetected_frames: int
    not_converged_frames: int


@dataclass(frozen=True)
class Transcript:
    """Exactly what crossed the public channel in one frame: nothing else."""

    n_values: np.ndarray
    syndrome: np.ndarray


@dataclass(frozen=True)
class ProtocolResult:
    """Both parties' bits and the public transcript of one frame; decoder
    detail rides along in ``outcome``."""

    alice_bits: np.ndarray
    bob_bits: np.ndarray
    transcript: Transcript
    outcome: object


# ---------------------------------------------------------------------------
# Soft-input construction per scheme


def direct_bit_llrs(y, ch: ChannelModel) -> np.ndarray:
    """Per-bit channel LLRs log(P(bit=0|y)/P(bit=1|y)) from raw outputs.

    This is the receiver-side soft demapper of the direct scheme: the
    party holding y decodes toward the sender's syndrome.

    Returns
    -------
    ndarray, shape (len(y), L), clamped to +-LAPPR_CLAMP.
    """
    c = ch.constellation
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    logw = -((ya[:, None] - c.points[None, :]) ** 2) / (2.0 * ch.noise_variance)
    logw += np.log(c.priors)[None, :]
    return bit_lapprs(logw, c)


def hard_rr_lapprs(ch: ChannelModel) -> np.ndarray:
    """Soft inputs available to the sender under hard reverse reconciliation.

    Without any disclosed metric the sender only knows the discrete channel
    T[x, i] = P(decision i | sent a_x) over the MAP regions, so every frame
    slot carrying symbol x gets the same per-bit LLR
    log(P(bit=0|x)/P(bit=1|x)): ``bit_lapprs`` over the log-weights log T[x],
    the marginaliser of the other two schemes, with log 0 = -inf for a
    decision that cannot occur. Magnitudes saturate at the clamp as the
    channel becomes noiseless.

    Returns
    -------
    ndarray, shape (M, L)
        Row x holds the LLRs for sent symbol x.
    """
    with np.errstate(divide="ignore"):
        return bit_lapprs(np.log(transition_matrix(ch)), ch.constellation)


# ---------------------------------------------------------------------------
# Frame simulation


@dataclass(frozen=True)
class _Cell:
    """One (snr, scheme, config) cell of a sweep: what all its frames share.

    Built once per cell, before any frame runs; a worker task is
    ``(cell, frame_index)``. ``point`` and ``cfg_idx`` index the spec's grid
    and configs, and with the scheme they key each frame's seed substream.
    An rrs cell also holds its softening transform, so its frames share the
    channel's quantile start; other cells hold None there.
    """

    spec: ExperimentSpec
    point: int
    scheme: str
    cfg_idx: int = 0
    channel: ChannelModel = field(init=False)
    transform: SofteningTransform | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        c = self.spec.constellation
        if not c.bitmap:
            raise ValueError("constellation has no bitmap; frames need one to map symbols to bits")
        ch = ChannelModel(c, noise_variance_for_snr_db(self.snr_db, c))
        object.__setattr__(self, "channel", ch)
        object.__setattr__(
            self,
            "transform",
            build_transform(ch, self.spec.configs[self.cfg_idx]) if self.scheme == "rrs" else None,
        )

    @property
    def snr_db(self) -> float:
        return self.spec.snr_grid_db[self.point]

    @property
    def config_name(self) -> str:
        return self.spec.configs[self.cfg_idx].name if self.scheme == "rrs" else ""


def _soft_inputs(cell: _Cell, x, y):
    """The scheme's part of a frame: (target bits, soft inputs, disclosed metric).

    The target is the bit string the decoder must reconstruct: the
    receiver's decisions under reverse reconciliation, the sender's symbols
    under direct. Only rrs discloses a metric; the others return None.
    """
    ch = cell.channel
    c = ch.constellation
    if cell.scheme == "rrs":
        n, i = soften(y, cell.transform)
        return demap(i, c), lappr_batch(n, x, cell.transform, alpha=cell.spec.alpha), n
    if cell.scheme == "hard":
        regions = map_decision_regions(c, ch.noise_variance)
        return demap(decide(y, regions), c), hard_rr_lapprs(ch)[x], None
    return demap(x, c), direct_bit_llrs(y, ch), None


def _frame(cell: _Cell, rng):
    """One frame of any scheme: draw, soft inputs, syndrome, one decode.

    Returns (decode outcome, target bits, syndrome, disclosed metric). Each
    length-L bit group comes from one symbol; bits past the blocklength are
    dropped.
    """
    code = load_code(cell.spec.code)
    c = cell.channel.constellation
    x = rng.choice(c.order, size=-(-code.n // c.bits_per_symbol), p=c.priors)
    y = transmit(x, cell.channel, rng)
    bits, soft, n = _soft_inputs(cell, x, y)
    target = bits[: code.n]
    syn = syndrome(code, target)
    out = decode(code, soft.reshape(-1)[: code.n], syn, max_iters=cell.spec.max_iters)
    return out, target, syn, n


def run_protocol(spec: ExperimentSpec) -> ProtocolResult:
    """Simulate one full softened-reverse frame of ``spec``.

    The frame runs at the spec's first grid point with its first config,
    and draws from a generator seeded with ``spec.master_seed``, so one
    spec names one frame. The sender draws symbols and the channel adds
    noise; the receiver decides, softens, demaps and computes the syndrome;
    the sender then builds LAPPRs from its own symbols and the disclosed
    metric and decodes toward the receiver's bits. Non-convergence is
    recorded in the outcome, never raised.

    Returns
    -------
    ProtocolResult
        alice_bits, bob_bits, transcript, and the decode outcome.
    """
    cell = _Cell(spec, 0, "rrs")
    out, bob, syn, n = _frame(cell, np.random.default_rng(spec.master_seed))
    transcript = Transcript(n_values=n, syndrome=syn)
    return ProtocolResult(alice_bits=out.bits, bob_bits=bob, transcript=transcript, outcome=out)


# ---------------------------------------------------------------------------
# MI sweep


def mi_sweep(spec: ExperimentSpec, out_dir: str | Path | None = None, mi_targets=MI_TARGETS):
    """Evaluate MI curves over the SNR grid for the selected schemes.

    Returns the list of MiResult rows in deterministic order (scheme, then
    config, then grid order). When ``out_dir`` is given, writes ``mi.csv``
    and, for grids with at least two points, the inverse table
    ``snr_at_mi.csv``; a shorter grid removes an older ``snr_at_mi.csv``
    there, which would disagree with the new ``mi.csv``. Non-finite targets
    raise ValueError before any MI is computed.
    """
    mi_targets = _finite_targets(mi_targets)
    c = spec.constellation
    grid = [(snr, ChannelModel(c, noise_variance_for_snr_db(snr, c))) for snr in spec.snr_grid_db]
    results: list[MiResult] = []
    for scheme in spec.schemes:
        if scheme == "direct":
            for snr, ch in grid:
                val, err = mi_direct(ch, with_error=True)
                results.append(MiResult(snr, "direct", "", val, err))
        elif scheme == "hard":
            for snr, ch in grid:
                results.append(MiResult(snr, "hard", "", mi_hard(ch), 0.0))
        else:
            for cfg in spec.configs:
                for snr, ch in grid:
                    transform = build_transform(ch, cfg)
                    val, err = mi_rrs(transform, with_error=True)
                    results.append(MiResult(snr, "rrs", cfg.name, val, err))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_mi_csv(results, out / "mi.csv")
        if len(spec.snr_grid_db) >= 2:
            write_snr_at_mi_csv(snr_at_mi(results, mi_targets), out / "snr_at_mi.csv")
        else:
            (out / "snr_at_mi.csv").unlink(missing_ok=True)
    return results


def _finite_targets(mi_targets) -> tuple:
    """``mi_targets`` as a tuple of floats; ValueError if any is NaN or inf."""
    targets = tuple(float(t) for t in mi_targets)
    if not np.all(np.isfinite(targets)):
        raise ValueError(f"mi_targets must be finite, got {targets}")
    return targets


def snr_at_mi(results: list[MiResult], mi_targets=MI_TARGETS) -> list[dict]:
    """Invert MI curves: the SNR at which each curve reaches each target.

    Each (scheme, config) curve reads SNR as a function of MI through scipy's
    ``PchipInterpolator``, the monotone cubic of Fritsch & Carlson (SIAM J.
    Numer. Anal. 17(2), 1980); ``scipy.interpolate`` is imported on the first
    call, so ``import softrec`` does without it. Cells outside the computed
    MI range are flagged ``out-of-range`` with an empty SNR, curves with
    fewer than two usable points flag ``insufficient-grid``. A NaN or
    infinite target raises ValueError.
    """
    mi_targets = _finite_targets(mi_targets)
    from scipy.interpolate import PchipInterpolator

    curves: dict[tuple, list[MiResult]] = {}
    for r in results:
        curves.setdefault((r.scheme, r.config), []).append(r)
    rows = []
    for key, curve in curves.items():
        pts = sorted(curve, key=lambda r: r.snr_db)
        mi = np.array([p.value_bits for p in pts])
        snr = np.array([p.snr_db for p in pts])
        # MI is strictly increasing in SNR; keep a point only if it lies
        # above every lower-SNR point, which drops a numerically flat tail.
        keep = mi > np.maximum.accumulate(np.concatenate(([-np.inf], mi[:-1])))
        mi, snr = mi[keep], snr[keep]
        line = PchipInterpolator(mi, snr) if mi.size >= 2 else None
        for tgt in mi_targets:
            row = {"mi_bits": float(tgt), "scheme": key[0], "config": key[1]}
            if line is None:
                row.update(snr_db=None, status="insufficient-grid")
            elif not mi[0] <= tgt <= mi[-1]:
                row.update(snr_db=None, status="out-of-range")
            else:
                row.update(snr_db=float(line(tgt)), status="ok")
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# BER sweep

_SCHEME_INDEX = {s: k for k, s in enumerate(SCHEMES)}
_BATCH = 16  # stop-rule evaluation granularity, fixed so results do not depend on workers


def _ber_frame(task) -> tuple[int, int, bool]:
    """One sweep frame: (bit errors, decoder iterations, converged)."""
    cell, frame = task
    seed = np.random.SeedSequence(
        cell.spec.master_seed,
        spawn_key=(cell.point, _SCHEME_INDEX[cell.scheme], cell.cfg_idx, frame),
    )
    out, target, _, _ = _frame(cell, np.random.default_rng(seed))
    return int(np.count_nonzero(out.bits != target)), out.iterations_used, out.converged


def _wilson(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    ph = k / n
    z2 = z * z
    den = 1.0 + z2 / n
    center = (ph + z2 / (2.0 * n)) / den
    half = z * float(np.sqrt(ph * (1.0 - ph) / n + z2 / (4.0 * n * n))) / den
    # rounding in sqrt can leave the k=0 (k=n) bound a hair off its exact
    # value of 0 (1); the interval must always contain the point estimate
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def ber_sweep(
    spec: ExperimentSpec,
    out_dir: str | Path | None = None,
    log_path: str | Path | None = None,
) -> list[BerPoint]:
    """Monte Carlo coded-BER estimation over the grid and schemes.

    Per (snr, scheme, config) cell, frames are simulated in fixed-size
    batches until either ``frames_per_point`` is reached or both early-stop
    thresholds (bit and frame errors) are met; cells that never meet them
    are flagged ``undersampled``. Every frame draws its generator from
    (master seed, point index, scheme, config, frame index), so the result
    is independent of batching and worker count. Each cell's ``ber-point``
    run-log record holds the point's ``_RUN_LOG_FIELDS`` and counts its
    frames by decoder sweeps in ``iterations_histogram``.
    """
    code = load_code(spec.code)
    cells = [
        _Cell(spec, point, scheme, cfg_idx)
        for point in range(len(spec.snr_grid_db))
        for scheme in spec.schemes
        for cfg_idx in (range(len(spec.configs)) if scheme == "rrs" else (0,))
    ]

    points: list[BerPoint] = []
    pool = ProcessPoolExecutor(max_workers=spec.workers) if spec.workers > 1 else None
    run = pool.map if pool is not None else map
    try:
        for cell in cells:
            bit_err = frame_err = frames = undetected = not_converged = 0
            sweeps: Counter[int] = Counter()
            stopped = False
            while frames < spec.frames_per_point and not stopped:
                batch = min(_BATCH, spec.frames_per_point - frames)
                for nerr, used, converged in run(
                    _ber_frame, [(cell, frames + b) for b in range(batch)]
                ):
                    bit_err += nerr
                    frame_err += nerr > 0
                    sweeps[used] += 1
                    undetected += converged and nerr > 0
                    not_converged += not converged
                frames += batch
                stopped = bit_err >= spec.stop_bit_errors and frame_err >= spec.stop_frame_errors
            nbits = frames * code.n
            lo, hi = _wilson(bit_err, nbits)
            pt = BerPoint(
                snr_db=cell.snr_db,
                scheme=cell.scheme,
                config=cell.config_name,
                alpha=spec.alpha if cell.scheme == "rrs" else 1.0,
                frames=frames,
                bit_errors=bit_err,
                frame_errors=frame_err,
                ber=bit_err / nbits,
                ber_ci_lo=lo,
                ber_ci_hi=hi,
                fer=frame_err / frames,
                undersampled=not stopped,
                undetected_frames=undetected,
                not_converged_frames=not_converged,
            )
            points.append(pt)
            if log_path is not None:
                record = {k: getattr(pt, k) for k in _RUN_LOG_FIELDS}
                record.update(
                    event="ber-point",
                    mean_iterations=sum(k * v for k, v in sweeps.items()) / frames,
                    iterations_histogram=dict(sorted(sweeps.items())),
                )
                append_run_log(log_path, record)
    finally:
        if pool is not None:
            pool.shutdown()
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_ber_csv(points, out / "ber.csv")
    return points


# ---------------------------------------------------------------------------
# Serialization


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_rows(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_mi_csv(results: list[MiResult], path) -> None:
    _write_rows(
        path,
        ["snr_db", "scheme", "config", "mi_bits", "err_est"],
        [(r.snr_db, r.scheme, r.config, r.value_bits, r.error_estimate) for r in results],
    )


def write_snr_at_mi_csv(rows: list[dict], path) -> None:
    _write_rows(
        path,
        ["mi_bits", "scheme", "config", "snr_db", "status"],
        [(r["mi_bits"], r["scheme"], r["config"], r["snr_db"], r["status"]) for r in rows],
    )


# The BerPoint fields that make up each ber.csv row and each ber-point
# run-log record.
_BER_COLUMNS = (
    "snr_db", "scheme", "config", "alpha", "frames",
    "bit_errors", "ber", "ber_ci_lo", "ber_ci_hi", "fer",
)
_RUN_LOG_FIELDS = (
    "snr_db", "scheme", "config", "frames", "bit_errors", "frame_errors",
    "undetected_frames", "not_converged_frames", "ber", "undersampled",
)


def write_ber_csv(points: list[BerPoint], path) -> None:
    _write_rows(path, _BER_COLUMNS, [tuple(getattr(p, k) for k in _BER_COLUMNS) for p in points])


def append_run_log(path, record: dict) -> None:
    """Append one JSON object as a line to the run log."""
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
