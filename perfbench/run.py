"""softrec benchmark: one workload, one seed, one measuring window.

Run from the root of a source checkout (the package is imported from
``src/``, never from an installed copy):

    python3 perfbench/run.py --workload rrs-frames --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

With ``--trace 0`` the run measures end-to-end metrics with tracing off.
With ``--trace 1`` it runs every operation twice, untraced and traced in
alternating order, and reports per-layer metrics from the spans plus the
tracing overhead (traced minus untraced time per operation). The last line of
standard output is the JSON result; the line before it holds the details
(environment, sample counts, tail percentile, outcome classes). See
perfbench/README.md for what every metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SPEC = ROOT / "BENCHMARK.json"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOADS = ("rrs-frames", "mi-audit")
# Seeds 1-10 are the tuning seeds; claims are checked again on this one.
HELD_OUT_SEED = 7919
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_softrec():
    """Put the checkout's src/ first on the path and import softrec from it."""
    if not (SRC / "softrec" / "__init__.py").is_file():
        sys.exit(f"error: no softrec sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import softrec

    if Path(softrec.__file__).resolve().parent != SRC / "softrec":
        sys.exit(f"error: softrec imported from {softrec.__file__}, not from {SRC}")
    return softrec


# ---------------------------------------------------------------------------
# Set-up probe: a fresh process pays import, code build and first transform.


def setup_probe(workload: str) -> int:
    t0 = time.perf_counter()
    import_softrec()
    from softrec import harness, ldpc
    from softrec.channel import ChannelModel
    from softrec.constellation import pam
    from softrec.softening import build_transform

    if workload == "mi-audit":
        import softrec.cli  # noqa: F401  (the audit runs through the CLI)
    if workload.endswith("frames"):
        ldpc.load_code("dvbs2-r12-64800")
    c = pam(4)
    build_transform(ChannelModel(c, harness.noise_variance_for_snr_db(3.5, c)), "alternating")
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def measure_setup(workload: str, repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# Environment


def git_commit() -> str:
    """HEAD of the checkout's own .git, read as files; no parent directory."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "softrec").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


# ---------------------------------------------------------------------------
# Measuring


def closed_loop(wl, ops, seconds: float):
    """Run operations one after another until ``seconds`` have passed.

    At least one operation runs. Returns the loop's wall time and one record
    per operation: its input, wall time, output-check problems and check info.
    """
    records = []
    t_start = time.perf_counter()
    for op in ops:
        if records and time.perf_counter() - t_start >= seconds:
            break
        t0 = time.perf_counter()
        try:
            result = wl.run(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            records.append({"op": op, "dt": time.perf_counter() - t0,
                            "problems": [f"{type(exc).__name__}: {exc}"], "info": {}})
            continue
        dt = time.perf_counter() - t0
        problems, info = wl.check(op, result)
        records.append({"op": op, "dt": dt, "problems": problems, "info": info})
    return time.perf_counter() - t_start, records


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile). Below 2 * TAIL_BEYOND samples that
    percentile would fall under the median, where it says nothing about
    the slow end; the median is returned instead, as percentile 50.
    """
    xs = sorted(values)
    k = len(xs) - 1 - TAIL_BEYOND
    if 2 * (k + 1) < len(xs):
        return statistics.median(xs), 50.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def class_counts(records) -> dict:
    counts: dict[str, int] = {}
    for r in records:
        cls = r["info"].get("class")
        if cls is not None:
            counts[cls] = counts.get(cls, 0) + 1
    return counts


def end_to_end(wl, args, ops) -> tuple[dict, dict, list]:
    setup = measure_setup(args.workload, SETUP_REPEATS)
    wall, records = closed_loop(wl, ops, args.seconds)
    ok = [r["dt"] for r in records if not r["problems"]]
    if not ok:
        return {}, {"setup_samples": setup}, records
    tail_s, tail_pct = tail(ok)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ops_per_s": (len(records) / wall, "1/s"),
        "op_p50_s": (statistics.median(ok), "s"),
        "op_tail_s": (tail_s, "s"),
    }
    details = {
        "setup_samples": setup,
        "ops": len(records),
        "loop_wall_s": wall,
        "tail_percentile": tail_pct,
        "op_seconds": [r["dt"] for r in records],
        "classes": class_counts(records),
    }
    return metrics, details, records


def per_layer(wl, args, ops, setup_info) -> tuple[dict, dict, list]:
    """Each operation twice, untraced and traced, in alternating order.

    Per-layer metrics come from the traced runs; the tracing overhead is the
    median over operations of traced minus untraced wall time.
    """
    from tracing import Tracer
    from workloads import CORRECT, NOT_CONVERGED, WRONG, decode_bytes_per_iteration

    tracer = Tracer()
    plain, traced = [], []
    t_start = time.perf_counter()
    for k, op in enumerate(ops):
        if traced and time.perf_counter() - t_start >= args.seconds:
            break
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.op = k
                tracer.install()
            try:
                _, recs = closed_loop(wl, [op], 0)
            finally:
                tracer.uninstall()
            (traced if with_trace else plain).append(recs[0])
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")

    k = len(traced)
    summary = tracer.summary()

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    m: dict[str, tuple] = {}
    for name in (
        "channel.output_quantile",
        "channel.output_cdf",
        "channel.transmit",
        "softening.soften",
        "softening.build_transform",
        "metrics.lappr_batch",
        "ldpc.decode",
        "ldpc.syndrome",
        "infotheory.mi_rrs",
        "infotheory.leakage",
        "infotheory.mi_direct",
        "infotheory.mi_hard",
        "constellation.decide",
    ):
        m[f"{name}.busy_s"] = (get(name, "busy_s") / k, "s")
    for name in (
        "softening.inverse_and_jacobian",
        "metrics.lappr_batch",
        "infotheory.mi_rrs",
        "harness.ber_sweep",
        "harness.mi_sweep",
        "cli.audit",
    ):
        m[f"{name}.self_s"] = (get(name, "self_s") / k, "s")
    m["channel.output_quantile.calls"] = (get("channel.output_quantile", "calls") / k, "count")
    q_calls = get("channel.output_quantile", "calls")
    q_points = sum(n["points"] for n in get("channel.output_quantile", "notes") or [])
    m["channel.output_quantile.points"] = (q_points / q_calls if q_calls else 0.0, "count")
    m["softening.build_transform.calls"] = (get("softening.build_transform", "calls") / k, "count")

    dec = get("ldpc.decode", "notes") or []
    iters = sum(n["iterations"] for n in dec)
    code = wl.code
    m["ldpc.decode.iter_s"] = (get("ldpc.decode", "busy_s") / iters if iters else 0.0, "s")
    m["ldpc.decode.iterations"] = (iters / len(dec) if dec else 0.0, "count")
    m["ldpc.decode.edge_updates"] = (iters * code.edge_count / k if code else 0.0, "count")
    m["ldpc.decode.bytes_computed"] = (
        iters * decode_bytes_per_iteration(code) / k if code else 0.0, "B")
    m["ldpc.decode.converged_ratio"] = (
        sum(n["converged"] for n in dec) / len(dec) if dec else 0.0, "ratio")
    classes = class_counts(traced)
    m["ldpc.decode.undetected"] = (classes.get(WRONG, 0), "count")
    for cls in (CORRECT, NOT_CONVERGED):
        m[f"frames.{cls}"] = (classes.get(cls, 0), "count")
    m["ldpc.dvbs2_r12.build_s"] = (setup_info.get("ldpc.dvbs2_r12.build_s", 0.0), "s")

    rrs_calls = get("infotheory.mi_rrs", "calls")
    inv = summary.get("infotheory.mi_rrs", {}).get("children", {}).get(
        "softening.inverse_and_jacobian", 0)
    m["infotheory.mi_rrs.inverse_calls"] = (inv / rrs_calls if rrs_calls else 0.0, "count")
    errs = [n["err"] for n in get("infotheory.mi_rrs", "notes") or [] if "err" in n]
    m["infotheory.mi_rrs.err_est_max"] = (max(errs) if errs else 0.0, "bits")

    m["quality.bp_iters_mean"] = (setup_info.get("quality.bp_iters_mean", 0.0), "count")
    m["quality.fer"] = (setup_info.get("quality.fer", 0.0), "ratio")
    m["quality.decode.edge_updates"] = (setup_info.get("quality.decode.edge_updates", 0), "count")

    diffs = [t["dt"] - p["dt"] for t, p in zip(traced, plain)]
    base = statistics.median(p["dt"] for p in plain)
    overhead = statistics.median(diffs)
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_frac"] = (overhead / base, "ratio")
    m["trace.spans_per_op"] = (len(tracer.spans) / k, "count")
    m["trace.ops"] = (k, "count")
    details = {"ops_untraced": len(plain), "ops_traced": k, "classes": classes}
    return m, details, plain + traced


def run(args) -> int:
    pin_threads()
    softrec = import_softrec()
    import workloads

    env = environment(args.seed)
    env["softrec"] = softrec.__version__
    wl = workloads.make(args.workload, WORK)
    try:
        setup_info = wl.setup()
        problems, quality = wl.warm_up()
        setup_info.update(quality)
        if args.trace:
            metrics_, details, records = per_layer(wl, args, wl.ops(args.seed), setup_info)
        else:
            metrics_, details, records = end_to_end(wl, args, wl.ops(args.seed))
    finally:
        wl.teardown()

    failed = sum(1 for r in records if r["problems"])
    problems += [p for r in records for p in r["problems"]]
    details.update(workload=args.workload, trace=args.trace, environment=env,
                   quality=quality, problems=problems[:20])
    result = {
        "correct": not problems and bool(metrics_),
        "attempted": max(1, len(records)),
        "failed": failed if records else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics_.items()},
    }
    WORK.mkdir(exist_ok=True)
    out = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"details": details, "result": result}, indent=1))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Self-check: every workload at minimum size, output schema validated.


def validate(result: dict, expected: list[dict]) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
        return errors
    if result["correct"] is not True:
        errors.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append(f"{key} is not a whole number")
    if result["attempted"] < 1:
        errors.append("attempted < 1")
    want = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if set(got) != set(want):
        errors.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        if set(entry) != {"value", "unit"}:
            errors.append(f"{name}: keys {sorted(entry)}")
            continue
        if entry["unit"] != want.get(name):
            errors.append(f"{name}: unit {entry['unit']!r}, expected {want.get(name)!r}")
        v = entry["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{name}: value {v!r} is not a finite number")
    return errors


def self_check() -> int:
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        print(f"FAIL BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
        return 1
    bad = 0
    for name in names:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=170, check=False)
            lines = proc.stdout.strip().splitlines()
            errors = [] if proc.returncode == 0 else [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
            if lines and not errors:
                errors = validate(json.loads(lines[-1]), expected)
            elif not errors:
                errors = ["no output"]
            if trace == 0 and not errors:
                zero = [k for k, v in json.loads(lines[-1])["metrics"].items() if v["value"] == 0]
                errors += [f"end-to-end metric {k} is 0" for k in zero]
            status = "ok" if not errors else "FAIL " + "; ".join(errors)
            print(f"{name} trace={trace} {time.perf_counter() - t0:.1f}s {status}", flush=True)
            bad += bool(errors)
    print("self-check " + ("passed" if not bad else f"failed ({bad})"))
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true",
                   help="run every workload at minimum size and validate the output")
    p.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        pin_threads()
        return setup_probe(args.setup_probe)
    if args.self_check:
        return self_check()
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
