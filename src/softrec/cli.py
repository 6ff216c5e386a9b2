"""Command-line surface binding the library into reproducible runs.

Subcommands
-----------
mi-sweep
    MI curves over an SNR grid for the selected schemes and configs, with
    the inverse SNR-at-MI table. Writes mi.csv / snr_at_mi.csv.
ber-sweep
    Monte Carlo coded-BER runs. Writes ber.csv.
audit
    Disclosure audit over a grid: analytic leakage, Monte-Carlo mutual
    information between the disclosed metric and the receiver's decisions
    estimated from simulated transcripts, and per-decision KS uniformity
    tests. Exits 1 when any check breaches its threshold. The analytic
    figure is zero by algebra for any transform and so bounds rounding
    only; the Monte-Carlo and KS checks are the ones that catch a broken
    transform. Standard output gives the analytic check's outcome, not its
    digits, which are rounding noise; the run log keeps the value.
reconcile
    Single-frame protocol demo at one SNR and one config; prints the public
    transcript as JSON.
codegen
    Emit a built-in parity-check matrix in alist form.

Configuration precedence: explicit flags > config file (YAML, unknown keys
rejected) > built-in defaults. The default output directory comes from
$SOFTREC_OUTDIR, falling back to the working directory. Every subcommand
but codegen (whose --out names the alist file) echoes its fully resolved
configuration (defaults and seed included) to the JSON-lines run log in the
output directory before computing anything.

Exit codes: 0 success, 1 audit/check failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from .channel import ChannelModel, transmit
from .constellation import pam
from .harness import (
    MI_TARGETS,
    ExperimentSpec,
    append_run_log,
    ber_sweep,
    mi_sweep,
    noise_variance_for_snr_db,
    run_protocol,
)
from .infotheory import leakage
from .ldpc import load_code, to_alist
from .softening import MonotonicityConfig, build_transform, enumerate_configs, soften

log = logging.getLogger("softrec")

# Audit thresholds.
ANALYTIC_LEAKAGE_MAX = 1e-6
MC_LEAKAGE_MAX = 1e-3
KS_LEVEL = 0.01
MC_BINS = 20


_LOG_LEVELS = ("debug", "info", "warning", "error")


# ---------------------------------------------------------------------------
# Options: one row per key, (help, argparse type, default). The flag is
# "--" + key with "_" as "-", and the key is also the config-file key.

_OPTIONS = {
    "constellation": ("pamM", str, "pam4"),
    "snr": ("grid start:stop:step, comma list, or single dB value", str, None),
    "out": (
        "output directory (default $SOFTREC_OUTDIR or .); "
        "for codegen the alist file or directory (default stdout)",
        str,
        None,
    ),
    "seed": ("master seed", int, 0),
    "log_level": ("/".join(_LOG_LEVELS), str, "info"),
    "schemes": ("comma list from direct,hard,rrs", str, "direct,hard,rrs"),
    "configs": ("comma list of base/alternating/sign strings, or 'all'", str, "base,alternating"),
    "config": ("one config: base/alternating/sign string", str, "base"),
    "mi_targets": ("comma list of MI levels", str, ",".join(str(t) for t in MI_TARGETS)),
    "code": ("code preset or alist path", str, "hamming74"),
    "alpha": ("LAPPR scaling for rrs", float, 1.0),
    "frames": ("max frames per point", int, 100),
    "workers": ("process count", int, 1),
    "max_iters": ("BP sweep cap", int, 100),
    "samples_per_decision": ("Monte Carlo sample quota per decision", int, 100000),
}

_COMMON_KEYS = ("constellation", "snr", "out", "seed", "log_level")


def _typed(key: str, value):
    """A config-file value converted with its option's type, as a flag is.

    A str option keeps the value as read. A numeric option rejects a bool,
    and an int option a non-integral number, so 2.7 is an error, not 2.
    """
    kind = _OPTIONS[key][1]
    if kind is str:
        return value
    try:
        typed = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        typed = None
    if typed is None or (kind is int and isinstance(value, float) and typed != value):
        raise ValueError(f"config key {key}: expected {kind.__name__}, got {value!r}")
    return typed


def _resolve(args: argparse.Namespace) -> dict:
    """Merge CLI flags over config-file values over defaults."""
    _, _, keys, overrides, _ = _COMMANDS[args.command]
    from_file: dict = {}
    if args.config_file:
        path = Path(args.config_file)
        if not path.exists():
            raise ValueError(f"config file not found: {path}")
        loaded = yaml.safe_load(path.read_text()) or {}
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a mapping")
        unknown = sorted(set(loaded) - set(keys))
        if unknown:
            raise ValueError(
                f"unknown config keys for {args.command}: {', '.join(unknown)}"
            )
        from_file = {key: _typed(key, value) for key, value in loaded.items()}
    resolved = {}
    for key in sorted(keys):
        flag = getattr(args, key)
        if flag is not None:
            resolved[key] = flag
        else:
            resolved[key] = from_file.get(key, overrides.get(key, _OPTIONS[key][2]))
    return resolved


def _parse_snr(text) -> tuple:
    """Grid syntax: 'start:stop:step' (inclusive), 'a,b,c', or a single value."""
    if text is None:
        raise ValueError("--snr is required")
    if isinstance(text, (int, float)):
        return (float(text),)
    s = str(text).strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad snr range {s!r}; expected start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"bad snr range {s!r}") from None
        if step <= 0:
            raise ValueError("snr step must be > 0")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise ValueError(f"empty snr grid {s!r}")
        return tuple(float(start + k * step) for k in range(count))
    try:
        vals = tuple(float(p) for p in s.split(",") if p.strip())
    except ValueError:
        raise ValueError(f"bad snr list {s!r}") from None
    if not vals:
        raise ValueError("empty snr grid")
    return vals


def _parse_constellation(text: str):
    s = str(text).strip().lower()
    if not s.startswith("pam"):
        raise ValueError(f"unknown constellation {s!r}; expected pamM (e.g. pam4)")
    try:
        order = int(s[3:])
    except ValueError:
        raise ValueError(f"unknown constellation {s!r}") from None
    return pam(order)


def _parse_configs(text, c) -> tuple:
    s = str(text).strip()
    if s.lower() == "all":
        return tuple(enumerate_configs(c.order))
    items = [p.strip() for p in s.split(",") if p.strip()]
    if not items:
        raise ValueError("empty config list")
    return tuple(MonotonicityConfig.from_string(p, c.order) for p in items)


def _parse_schemes(text) -> tuple:
    """Map aliases and drop repeats; ExperimentSpec rejects unknown names."""
    alias = {"hard-rr": "hard", "rr": "hard", "dr": "direct"}
    items = [alias.get(p.strip().lower(), p.strip().lower()) for p in str(text).split(",") if p.strip()]
    return tuple(dict.fromkeys(items))


# Option key -> (ExperimentSpec field, parser of the resolved value and the
# constellation); no parser passes the value on as typed. A subcommand's spec
# gets the field of every option it has, and the spec validates the values.
_SPEC_FIELDS = {
    "snr": ("snr_grid_db", lambda v, c: _parse_snr(v)),
    "schemes": ("schemes", lambda v, c: _parse_schemes(v)),
    "configs": ("configs", _parse_configs),
    "config": ("configs", _parse_configs),
    "code": ("code", lambda v, c: str(v)),
    "alpha": ("alpha", None),
    "frames": ("frames_per_point", None),
    "seed": ("master_seed", None),
    "workers": ("workers", None),
    "max_iters": ("max_iters", None),
}


def _spec(resolved: dict) -> ExperimentSpec:
    """The subcommand's experiment, built and validated from its options."""
    c = _parse_constellation(resolved["constellation"])
    fields = {
        name: parse(resolved[key], c) if parse else resolved[key]
        for key, (name, parse) in _SPEC_FIELDS.items()
        if key in resolved
    }
    return ExperimentSpec(constellation=c, **fields)


def _out_dir(resolved: dict) -> Path:
    out = resolved["out"] or os.environ.get("SOFTREC_OUTDIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _echo_config(command: str, resolved: dict, out: Path) -> Path:
    log_path = out / "run_log.jsonl"
    append_run_log(log_path, {"event": "config", "command": command, **resolved})
    return log_path


def _setup_logging(resolved: dict) -> None:
    name = str(resolved["log_level"]).lower()
    if name not in _LOG_LEVELS:
        raise ValueError(
            f"log_level: unknown level {resolved['log_level']!r}; "
            f"expected one of {', '.join(_LOG_LEVELS)}"
        )
    logging.basicConfig(level=name.upper(), format="%(levelname)s %(name)s: %(message)s")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_mi_sweep(resolved: dict) -> int:
    spec = _spec(resolved)
    targets = tuple(float(t) for t in str(resolved["mi_targets"]).split(",") if t.strip())
    out = _out_dir(resolved)
    _echo_config("mi-sweep", resolved, out)
    log.info("mi-sweep: %d grid points, schemes %s", len(spec.snr_grid_db), spec.schemes)
    mi_sweep(spec, out_dir=out, mi_targets=targets)
    return 0


def _cmd_ber_sweep(resolved: dict) -> int:
    spec = _spec(resolved)
    out = _out_dir(resolved)
    log_path = _echo_config("ber-sweep", resolved, out)
    log.info(
        "ber-sweep: %d points x %d schemes, <=%d frames each",
        len(spec.snr_grid_db),
        len(spec.schemes),
        spec.frames_per_point,
    )
    ber_sweep(spec, out_dir=out, log_path=log_path)
    return 0


def _audit_cell(ch, transform, rng, samples_per_decision: int):
    """One (snr, config) audit cell: returns (analytic, mc, min KS p-value).

    The decisions group the metrics once (``_group_by_decision``), and each
    group is sorted once, in place. Both tests read that sorted group: its
    row of the (decision, metric bin) histogram is a ``searchsorted`` of
    the bin edges, and the KS statistic is a pass over it.
    """
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
    del chunks_n, chunks_d
    grouped = _group_by_decision(n, d, order)
    del n, d

    joint = np.empty((order, MC_BINS), dtype=np.int64)
    ks_min = 1.0
    for i, group in enumerate(np.split(grouped, np.cumsum(counts[:-1]))):
        group.sort()
        joint[i] = _bin_counts(group)
        ks_min = min(ks_min, _ks_uniform(group)[1])

    # Plug-in MI of the (decision, binned metric) joint with the
    # Miller-Madow correction; zero leakage shows up at the sampling floor.
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
    return analytic, mc, ks_min


def _group_by_decision(n: np.ndarray, d: np.ndarray, order: int) -> np.ndarray:
    """``n`` grouped by decision: the concatenation of n[d == 0], ...,
    n[d == order - 1], each group in its original order.

    One stable argsort of the decisions cast to the smallest unsigned type
    that holds them, which numpy sorts by radix.
    """
    keys = d.astype(np.min_scalar_type(order - 1))
    return n[np.argsort(keys, kind="stable")]


def _bin_counts(x: np.ndarray) -> np.ndarray:
    """MC_BINS counts of the sorted metrics ``x`` in [0, 1].

    The same counts as ``np.histogram(x, bins=MC_BINS, range=(0, 1))``,
    as integers: bin k holds edge[k] <= x < edge[k + 1] over the
    ``np.linspace`` edges, and the last bin also holds x = 1.
    """
    pos = np.searchsorted(x, np.linspace(0.0, 1.0, MC_BINS + 1), side="left")
    pos[-1] = x.size
    return np.diff(pos)


def _ks_uniform(x: np.ndarray) -> tuple[float, float]:
    """(statistic, p-value) of the two-sided one-sample KS test of the
    sorted sample ``x`` against Uniform[0, 1].

    The statistic D = max(D+, D-) and the p-value clip(kstwo.sf(D, N), 0, 1)
    are computed as ``scipy.stats.kstest(x, "uniform")`` computes them, whose
    CDF values on [0, 1] are x itself, so both agree with it bit for bit.
    scipy.stats is imported here, by the first audit cell, because nothing
    else needs it and importing it costs most of the CLI's start-up.
    """
    from scipy.stats import kstwo

    size = x.size
    d_plus = np.max(np.arange(1.0, size + 1) / size - x)
    d_minus = np.max(x - np.arange(0.0, size) / size)
    stat = float(max(d_plus, d_minus))
    return stat, float(np.clip(kstwo.sf(stat, size), 0.0, 1.0))


def _cmd_audit(resolved: dict) -> int:
    spec = _spec(resolved)
    c = spec.constellation
    samples = resolved["samples_per_decision"]
    if samples < 1:
        raise ValueError("samples_per_decision must be >= 1")
    out = _out_dir(resolved)
    log_path = _echo_config("audit", resolved, out)
    failures = []
    for cell, (snr, cfg) in enumerate(
        (s, cf) for s in spec.snr_grid_db for cf in spec.configs
    ):
        ch = ChannelModel(c, noise_variance_for_snr_db(snr, c))
        transform = build_transform(ch, cfg)
        rng = np.random.default_rng(np.random.SeedSequence(spec.master_seed, spawn_key=(cell,)))
        analytic, mc, ks_min = _audit_cell(ch, transform, rng, samples)
        analytic_ok = abs(analytic) <= ANALYTIC_LEAKAGE_MAX
        ok = analytic_ok and abs(mc) <= MC_LEAKAGE_MAX and ks_min >= KS_LEVEL
        record = {
            "event": "audit-cell",
            "snr_db": snr,
            "config": cfg.name,
            "analytic_bits": analytic,
            "mc_bits": mc,
            "ks_min_pvalue": ks_min,
            "pass": ok,
        }
        append_run_log(log_path, record)
        line = (
            f"audit snr={snr:+.2f} config={cfg.name}: "
            f"analytic={'ok' if analytic_ok else 'FAIL'} mc={mc:.3e} ks_p={ks_min:.4f} "
            f"{'ok' if ok else 'FAIL'}"
        )
        print(line)
        if not ok:
            failures.append((snr, cfg.name))
    if failures:
        print("failed cells: " + "; ".join(f"({s} dB, {n})" for s, n in failures), file=sys.stderr)
        return 1
    return 0


def _cmd_reconcile(resolved: dict) -> int:
    spec = _spec(resolved)
    for key, values in (("snr", spec.snr_grid_db), ("config", spec.configs)):
        if len(values) != 1:
            raise ValueError(f"reconcile takes one --{key} value, got {len(values)}")
    out = _out_dir(resolved)
    _echo_config("reconcile", resolved, out)
    result = run_protocol(spec)
    res = {
        "snr_db": spec.snr_grid_db[0],
        "config": spec.configs[0].name,
        "transcript": {
            "n_values": [float(v) for v in result.transcript.n_values],
            "syndrome": [int(b) for b in result.transcript.syndrome],
        },
        "converged": bool(result.outcome.converged),
        "iterations": int(result.outcome.iterations_used),
        "residual_bit_errors": int(np.count_nonzero(result.alice_bits != result.bob_bits)),
    }
    print(json.dumps(res))
    return 0


def _cmd_codegen(resolved: dict) -> int:
    name = str(resolved["code"])
    text = to_alist(load_code(name))
    if resolved["out"]:
        path = Path(resolved["out"])
        if path.is_dir():
            path = path / f"{name}.alist"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Parser

# command: (help, handler, option keys, defaults that differ from _OPTIONS,
# option help texts that differ from _OPTIONS)
_COMMANDS = {
    "mi-sweep": (
        "mutual information curves and SNR-at-MI table",
        _cmd_mi_sweep,
        _COMMON_KEYS + ("schemes", "configs", "mi_targets"),
        {},
        {},
    ),
    "ber-sweep": (
        "Monte Carlo coded-BER runs",
        _cmd_ber_sweep,
        _COMMON_KEYS + ("schemes", "configs", "code", "alpha", "frames", "workers", "max_iters"),
        {},
        {},
    ),
    "audit": (
        "disclosure audit: leakage + uniformity checks",
        _cmd_audit,
        _COMMON_KEYS + ("configs", "samples_per_decision"),
        {},
        {},
    ),
    "reconcile": (
        "single-frame protocol demo",
        _cmd_reconcile,
        _COMMON_KEYS + ("config", "code", "alpha", "max_iters"),
        {"snr": 3.0},
        {"snr": "one dB value"},
    ),
    "codegen": (
        "emit a built-in parity-check matrix as alist",
        _cmd_codegen,
        ("code", "out", "log_level"),
        {"code": "dvbs2-r12-64800"},
        {},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softrec",
        description="Softened reverse reconciliation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, keys, overrides, texts) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config-file", help="YAML config file (flags win)")
        for key in keys:
            text, kind, default = _OPTIONS[key]
            text = texts.get(key, text)
            default = overrides.get(key, default)
            if default is not None:
                text = f"{text}, default {default}"
            # default stays None so that _resolve can tell an unset flag
            p.add_argument("--" + key.replace("_", "-"), type=kind, help=text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolved = _resolve(args)
        _setup_logging(resolved)
        return _COMMANDS[args.command][1](resolved)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
