"""Record the reference outputs that the benchmark's checks compare against.

Run once on the commit whose outputs define "correct", from the root of a
source checkout:

    python3 perfbench/record_reference.py

It writes perfbench/reference.json with

* ``mi``: direct, hard and rrs (base, alternating) mutual information in
  bits at every SNR the mi-audit workload can draw (-10 to 14.75 dB in
  0.25 dB steps), computed through ``harness.mi_sweep``;
* ``quality_frames``: decoder iterations and outcome class of the pinned
  quality frames of each frame workload.

Takes about three minutes on one core.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.pin_threads()
    run.import_softrec()
    import workloads
    from softrec import harness

    grid = [
        workloads.MI_SNR_LO + k * workloads.MI_STEP
        for k in range(round(workloads.MI_SPAN / workloads.MI_STEP))
    ]
    spec = harness.ExperimentSpec(
        constellation=workloads.PAM4,
        snr_grid_db=tuple(grid),
        schemes=harness.SCHEMES,
        configs=("base", "alternating"),
    )
    mi: dict[str, dict] = {workloads.snr_key(s): {} for s in grid}
    for r in harness.mi_sweep(spec):
        mi[workloads.snr_key(r.snr_db)][r.config or r.scheme] = r.value_bits

    frames = {}
    for name, pinned in workloads.QUALITY_FRAMES.items():
        wl = workloads.FrameWorkload(name, None, [])
        wl.setup()
        try:
            rows = []
            for op in pinned:
                problems, info = wl.check(op, wl.run(op))
                if problems:
                    sys.exit(f"pinned frame {op} failed its checks: {problems}")
                rows.append({"scheme": op[0], "snr_db": op[1], "master_seed": op[2], **info})
            frames[name] = rows
        finally:
            wl.teardown()

    out = {"mi": mi, "quality_frames": frames, "environment": run.environment(None)}
    workloads.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
