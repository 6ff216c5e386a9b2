"""The benchmark's workloads: what one operation is, its inputs, its checks.

Every workload drives softrec through public functions only, in one
process, one operation at a time (a closed loop with a single caller).
Inputs are drawn from the workload seed; ``ops(seed)`` yields them without
end and the runner stops taking them when the measuring time is up.

* ``rrs-frames``: softened reverse-reconciliation frames, ``ber_sweep``
  with one frame per call.
* ``mi-audit``: one ``mi_sweep`` call (direct, hard and rrs for both
  configs at one SNR) followed by six ``softrec audit`` cells through
  ``cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import time
from pathlib import Path

import numpy as np

from softrec import cli, harness, ldpc
from softrec.channel import ChannelModel
from softrec.constellation import pam
from softrec.softening import build_transform, enumerate_configs

PAM4 = pam(4)
CODE = "dvbs2-r12-64800"
MAX_ITERS = 100
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Frame outcome classes.
CORRECT, WRONG, NOT_CONVERGED = "converged_correct", "converged_wrong", "not_converged"

# Pinned quality frames, checked against the reference on every run:
# (scheme, snr_db, master seed). Their decoder iteration counts and classes
# are deterministic, so a trade of accuracy for speed shows as a failure.
QUALITY_FRAMES = {
    "rrs-frames": (("rrs", 3.5, 101), ("rrs", 3.5, 102)),
}
# A pinned frame set may average at most this much above its reference
# iteration count.
QUALITY_ITERS_SLACK = 0.05

# MI checks: reference values from the seed commit, at a tolerance tighter
# than the acceptance battery's (1e-4 bits BPSK equivalence, 0.05 dB on the
# operating points), and the ordering hard <= rrs <= direct + slack.
MI_TOL_BITS = 1e-5
MI_ORDER_SLACK = 1e-6
MI_SNR_LO = -10.0
MI_SPAN = 25.0  # the reference covers [-10, 15) dB
MI_CONFIGS = ("base", "alternating")
MI_STEP = 0.25  # SNR points sit on the acceptance battery's 0.25 dB grid
# The measured MI points: the 0.25 dB grid of [8, 10) dB, where an rrs point
# is cheapest (see MiPart).
MI_OP_BAND = (8.0, 10.0)

# Audit cells as the acceptance battery runs them: 1e5 samples per
# decision at -10/0/10 dB, every config. The Monte-Carlo master seed stays
# at the battery's pinned value: each cell runs four KS tests at the 1%
# level, so a fresh seed would fail a correct program on about 4% of cells.
AUDIT_SNRS = (-10.0, 0.0, 10.0)
AUDIT_SAMPLES = 100_000
AUDIT_MC_SEED = 10
AUDIT_CONFIGS_PER_OP = 2  # each with all of AUDIT_SNRS, one cell per call


def snr_key(snr: float) -> str:
    return f"{snr:.2f}"


def first_transform(snr: float = 3.5, config: str = "alternating"):
    ch = ChannelModel(PAM4, harness.noise_variance_for_snr_db(snr, PAM4))
    return build_transform(ch, config)


def decode_bytes_per_iteration(code: ldpc.LdpcCode) -> int:
    """Computed, not measured: one pass over each array a flooding sweep needs.

    Check half: read the variable-to-check messages, the edge-to-check
    index and the per-edge syndrome parity, write the check-to-variable
    messages. Variable half: read the variable-major permutation and the
    check messages, read the channel inputs and write the totals, read the
    check-major variable index and write the new variable messages.
    Syndrome test: write the hard decisions, gather them through the
    variable index and write one bit per check.
    """
    e, n, m = code.edge_count, code.n, code.m
    f = np.dtype(float).itemsize
    idx = code.chk_var.itemsize
    check_half = e * (f + idx + idx + f)
    var_half = e * (idx + f) + n * 2 * f + e * (idx + f)
    syndrome_test = n + e * (idx + 1) + m
    return check_half + var_half + syndrome_test


class DecodeCapture:
    """Keeps each decode call's outcome and target syndrome for the checks.

    Installed in traced and untraced runs alike; it only stores two
    references per call and times nothing.
    """

    def __init__(self):
        self.calls: list = []
        self._original = None

    def install(self) -> None:
        self._original = harness.decode

        def capture(code, lapprs, target, max_iters=100):
            out = self._original(code, lapprs, target, max_iters=max_iters)
            self.calls.append((out, np.asarray(target, dtype=np.uint8)))
            return out

        harness.decode = capture

    def uninstall(self) -> None:
        if self._original is not None:
            harness.decode = self._original
            self._original = None


class FrameWorkload:
    """One frame per operation through ``ber_sweep`` on the 64800-bit code."""

    def __init__(self, name: str, point: tuple, reference: list):
        self.name = name
        self.point = point  # (scheme, snr_db) of every measured frame
        self.reference = reference  # pinned frame outcomes
        self.capture = DecodeCapture()
        self.code = None
        self._syndrome = ldpc.syndrome  # the untraced original, for checks

    def setup(self) -> dict:
        t0 = time.perf_counter()
        self.code = ldpc.load_code(CODE)
        build_s = time.perf_counter() - t0
        first_transform()
        self.capture.install()
        return {"ldpc.dvbs2_r12.build_s": build_s}

    def teardown(self) -> None:
        self.capture.uninstall()

    def ops(self, seed: int):
        scheme, snr = self.point
        for k in itertools.count():
            master = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
            yield (scheme, snr, master)

    def run(self, op):
        scheme, snr, master = op
        spec = harness.ExperimentSpec(
            constellation=PAM4,
            snr_grid_db=(snr,),
            schemes=(scheme,),
            configs=("alternating",),
            code=CODE,
            alpha=1.0,
            frames_per_point=1,
            master_seed=master,
            workers=1,
            max_iters=MAX_ITERS,
        )
        self.capture.calls.clear()
        return harness.ber_sweep(spec)

    def check(self, op, result) -> tuple[list, dict]:
        problems = []
        if len(result) != 1 or result[0].frames != 1:
            return ["ber_sweep did not return exactly one frame"], {}
        if len(self.capture.calls) != 1:
            return [f"expected one decode call, saw {len(self.capture.calls)}"], {}
        pt = result[0]
        out, target = self.capture.calls[0]
        syn_ok = bool(np.array_equal(self._syndrome(self.code, out.bits), target))
        if syn_ok != out.converged:
            problems.append("decoder's converged flag disagrees with the syndrome of its bits")
        if not 0 <= out.iterations_used <= MAX_ITERS:
            problems.append(f"iterations {out.iterations_used} outside [0, {MAX_ITERS}]")
        if pt.frame_errors != int(pt.bit_errors > 0):
            problems.append("frame error count disagrees with bit errors")
        if not syn_ok and pt.bit_errors == 0:
            problems.append("bits match the target but the syndrome does not")
        if syn_ok:
            cls = CORRECT if pt.bit_errors == 0 else WRONG
        else:
            cls = NOT_CONVERGED
        return problems, {"class": cls, "iterations": int(out.iterations_used)}

    def warm_up(self) -> tuple[list, dict]:
        """Run the pinned quality frames and compare them with the reference."""
        ref = self.reference
        problems, iters, errors = [], 0, 0
        for (scheme, snr, master), want in zip(QUALITY_FRAMES[self.name], ref):
            op = (scheme, snr, master)
            p, info = self.check(op, self.run(op))
            problems += p
            if info.get("class") != want["class"]:
                problems.append(
                    f"pinned {scheme} frame {master}: class {info.get('class')}, "
                    f"reference {want['class']}"
                )
            iters += info.get("iterations", 0)
            errors += info.get("class") != CORRECT
        frames = len(ref)
        ref_mean = sum(r["iterations"] for r in ref) / frames
        mean = iters / frames
        if mean > ref_mean * (1.0 + QUALITY_ITERS_SLACK):
            problems.append(f"pinned frames average {mean} iterations, reference {ref_mean}")
        return problems, {
            "quality.bp_iters_mean": mean,
            "quality.fer": errors / frames,
            "quality.decode.edge_updates": iters * self.code.edge_count,
        }


class MiPart:
    """One ``mi_sweep`` call: direct, hard and rrs (both configs) at one SNR.

    The MI code is many small numpy calls, and on a shared host its speed
    swings by up to 2x over minutes: the same call took 2.3-4.9 s over ten
    minutes of repeats, while an audit cell took 0.40-0.46 s. So the MI
    call is kept to about 12% of an operation, at an SNR from the band
    where an rrs point is cheapest. Each point still builds a fresh
    transform and makes many 4-point quantile calls.
    """

    def __init__(self, reference: dict):
        self.reference = reference  # snr key -> scheme or config -> bits

    def setup(self) -> dict:
        first_transform()
        return {}

    def teardown(self) -> None:
        pass

    def ops(self, seed: int):
        """The seed draws the SNR on the 0.25 dB grid of MI_OP_BAND."""
        rng = np.random.default_rng(seed)
        lo, hi = MI_OP_BAND
        while True:
            yield (lo + MI_STEP * int(rng.integers(round((hi - lo) / MI_STEP))),)

    def run(self, op):
        spec = harness.ExperimentSpec(
            constellation=PAM4, snr_grid_db=op, schemes=harness.SCHEMES, configs=MI_CONFIGS
        )
        return harness.mi_sweep(spec)

    def check(self, op, result) -> tuple[list, dict]:
        got = {(r.snr_db, r.scheme, r.config): r.value_bits for r in result}
        want_keys = {(snr, scheme, "") for snr in op for scheme in ("direct", "hard")}
        want_keys |= {(snr, "rrs", cfg) for snr in op for cfg in MI_CONFIGS}
        if set(got) != want_keys:
            return [f"mi_sweep returned {sorted(got)}"], {}
        problems = []
        for (snr, scheme, config), value in got.items():
            want = self.reference[snr_key(snr)][config or scheme]
            if not abs(value - want) <= MI_TOL_BITS:
                problems.append(
                    f"{scheme}{'/' + config if config else ''} at {snr} dB: "
                    f"{value!r} bits, reference {want!r}"
                )
        for snr in op:
            hard, direct = got[(snr, "hard", "")], got[(snr, "direct", "")]
            for cfg in MI_CONFIGS:
                rrs = got[(snr, "rrs", cfg)]
                if not hard <= rrs <= direct + MI_ORDER_SLACK:
                    problems.append(f"ordering broken at {snr} dB ({cfg}): "
                                    f"hard {hard}, rrs {rrs}, direct {direct}")
        return problems, {}

    def warm_up(self) -> tuple[list, dict]:
        op = (MI_OP_BAND[1],)
        problems, _ = self.check(op, self.run(op))
        return problems, {}


class AuditPart:
    """Disclosure-audit cells through ``cli.main``: two configs, every SNR."""

    def __init__(self, work_dir: Path):
        self.out_dir = work_dir / "audit"
        self.configs = [str(c) for c in enumerate_configs(PAM4.order)]

    def setup(self) -> dict:
        first_transform()
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        return {}

    def teardown(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def ops(self, seed: int):
        """The seed orders the configs; every op has each SNR once per config."""
        rng = np.random.default_rng(seed)
        while True:
            order = [self.configs[c] for c in rng.permutation(len(self.configs))]
            for k in range(0, len(order), AUDIT_CONFIGS_PER_OP):
                yield tuple((snr, cfg) for cfg in order[k:k + AUDIT_CONFIGS_PER_OP]
                            for snr in AUDIT_SNRS)

    def run(self, op):
        return [self._cell(snr, cfg) for snr, cfg in op]

    def _cell(self, snr, cfg):
        argv = [
            "audit",
            f"--snr={snr}",
            f"--configs={cfg}",
            f"--samples-per-decision={AUDIT_SAMPLES}",
            f"--seed={AUDIT_MC_SEED}",
            f"--out={self.out_dir}",
            "--log-level=warning",
        ]
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            rc = cli.main(argv)
        return rc, text.getvalue()

    def check(self, op, result) -> tuple[list, dict]:
        return [f"audit cell {cell} exited with {rc}: {text.strip()}"
                for cell, (rc, text) in zip(op, result) if rc != 0], {}

    def warm_up(self) -> tuple[list, dict]:
        op = ((0.0, "++++"),)
        problems, _ = self.check(op, self.run(op))
        return problems, {}


class MiAuditWorkload:
    """One MI call and then six audit cells per operation.

    Pairing them gives every operation the same make-up, where taking the
    two kinds in turn would mix two populations in one median.
    """

    name = "mi-audit"
    code = None

    def __init__(self, mi: MiPart, audit: AuditPart):
        self.parts = (mi, audit)

    def setup(self) -> dict:
        for part in self.parts:
            part.setup()
        return {}

    def teardown(self) -> None:
        for part in self.parts:
            part.teardown()

    def ops(self, seed: int):
        return zip(*(part.ops(seed) for part in self.parts))

    def run(self, op):
        return [part.run(o) for part, o in zip(self.parts, op)]

    def check(self, op, result) -> tuple[list, dict]:
        problems = []
        for part, o, r in zip(self.parts, op, result):
            problems += part.check(o, r)[0]
        return problems, {}

    def warm_up(self) -> tuple[list, dict]:
        problems = []
        for part in self.parts:
            problems += part.warm_up()[0]
        return problems, {}


def make(name: str, work_dir: Path):
    reference = json.loads(REFERENCE.read_text())
    frames = reference["quality_frames"]
    if name == "rrs-frames":
        return FrameWorkload(name, ("rrs", 3.5), frames[name])
    if name == "mi-audit":
        return MiAuditWorkload(MiPart(reference["mi"]), AuditPart(work_dir))
    raise ValueError(f"unknown workload {name!r}")
