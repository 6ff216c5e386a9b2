"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: ``Tracer.install`` replaces,
for the life of the run, the names one softrec module imports from another
(``softening.output_quantile``, ``harness.decode``, ...) with thin wrappers
that record a span around each call. No source file is edited, and
``Tracer.uninstall`` puts every original back.

Each span holds its name, start, end, parent span and operation id. Spans
stay in memory and are written out once, when the run ends. A span's self
time is its duration minus the time covered by its child spans; the calls
are single-threaded and properly nested, so the children never overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (module, attribute) -> span name. Each entry is a name some softrec module
# looks up at call time, so replacing it there puts a span around every call
# made through that module.
BOUNDARIES = {
    ("softening", "output_quantile"): "channel.output_quantile",
    ("softening", "output_cdf"): "channel.output_cdf",
    ("harness", "transmit"): "channel.transmit",
    ("cli", "transmit"): "channel.transmit",
    ("softening", "decide"): "constellation.decide",
    ("harness", "decide"): "constellation.decide",
    ("harness", "soften"): "softening.soften",
    ("cli", "soften"): "softening.soften",
    ("harness", "build_transform"): "softening.build_transform",
    ("cli", "build_transform"): "softening.build_transform",
    ("metrics", "inverse_and_jacobian"): "softening.inverse_and_jacobian",
    ("infotheory", "inverse_and_jacobian"): "softening.inverse_and_jacobian",
    ("harness", "lappr_batch"): "metrics.lappr_batch",
    ("harness", "decode"): "ldpc.decode",
    ("harness", "syndrome"): "ldpc.syndrome",
    # decode looks its syndrome test up in its own module
    ("ldpc", "syndrome"): "ldpc.syndrome",
    ("harness", "mi_direct"): "infotheory.mi_direct",
    ("harness", "mi_hard"): "infotheory.mi_hard",
    ("harness", "mi_rrs"): "infotheory.mi_rrs",
    ("cli", "leakage"): "infotheory.leakage",
    # the benchmark's own call sites look these up on the module
    ("harness", "ber_sweep"): "harness.ber_sweep",
    ("harness", "mi_sweep"): "harness.mi_sweep",
    ("cli", "main"): "cli.audit",
}


def _quantile_points(args, kwargs, result):
    return {"points": int(getattr(result, "size", 1))}


def _decode_outcome(args, kwargs, result):
    return {"iterations": int(result.iterations_used), "converged": bool(result.converged)}


def _mi_error(args, kwargs, result):
    return {"err": float(result[1])} if isinstance(result, tuple) else {}


# Span name -> function(args, kwargs, result) -> fields kept with the span.
NOTES = {
    "channel.output_quantile": _quantile_points,
    "ldpc.decode": _decode_outcome,
    "infotheory.mi_rrs": _mi_error,
}


class Tracer:
    """Records nested spans in memory; one per run, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, notes]
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.op = -1

    def wrap(self, name, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(rec)
            stack.append(sid)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for (mod, attr), name in BOUNDARIES.items():
            target = importlib.import_module(f"softrec.{mod}")
            original = getattr(target, attr)
            self._patched.append((target, attr, original))
            setattr(target, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op, notes) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if notes:
                    rec.update(notes)
                fh.write(json.dumps(rec) + "\n")

    def summary(self) -> dict:
        """Per span name: calls, busy and self seconds, notes, child-call counts.

        A parent span is always recorded before its children, so one pass
        can take each child's time off its parent's self time.
        """
        out: dict[str, dict] = {}
        for name, start, end, parent, op, notes in self.spans:
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "notes": [],
                                      "children": defaultdict(int)})
            dur = end - start
            s["calls"] += 1
            s["busy_s"] += dur
            s["self_s"] += dur
            if notes:
                s["notes"].append(notes)
            if parent >= 0:
                p = out[self.spans[parent][0]]
                p["self_s"] -= dur
                p["children"][name] += 1
        return out
