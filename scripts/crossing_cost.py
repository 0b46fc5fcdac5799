#!/usr/bin/env python3
"""Cost of the crossing refinement, next to the benchmark verdicts.

    python3 scripts/crossing_cost.py --parent-src DIR --compare FILE --out FILE

Runs the README coupling scan and the seeded delta scan of the
coupling-scan workload (``bench/workloads.py``) in process, once on the
rabicf sources of this checkout and once on those under ``--parent-src``
(for example a ``git archive`` of the parent commit).  For every scan it
records the wall time, the events, and what reached the crossing
refinement: parameter steps per event and pivot sweeps (calls of
``tridiag._negative_pivot_counts``) with the Sturm counts they evaluated.
``--compare`` is the file ``bench/compare.py --json`` wrote for the same
parent/change pair; it is copied in unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 20121205)
README_SCAN = {"param": "g", "g": 0.7, "delta": 0.4, "from": 0.05, "to": 1.2,
               "steps": 600, "levels": 8, "order": 300}


def _cases() -> dict[str, dict]:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    cases = {"readme g scan": README_SCAN}
    for seed in SEEDS:
        for request in workloads.generate("coupling-scan", seed):
            if request.spec["param"] == "delta":
                cases[f"delta scan, seed {seed}"] = request.spec
    return cases


def measure(src: str) -> dict:
    """Refinement cost of every case on the rabicf under ``src``."""
    sys.path.insert(0, src)
    import numpy as np
    from rabicf import ModelParams, scan_levels
    from rabicf import search, tridiag

    seen = {}
    pivot_counts, refine_events = tridiag._negative_pivot_counts, search._refine_events

    def counted_sweep(energies, diag, off2):
        if seen.get("inside"):
            seen["sweeps"] += 1
            seen["counts"] += int(np.broadcast(energies, diag[..., 0]).size)
        return pivot_counts(energies, diag, off2)

    def refining(*args):
        seen["inside"] = True
        try:
            out = refine_events(*args)
        finally:
            seen["inside"] = False
        seen["itp_steps"] = out[2].tolist()
        return out

    tridiag._negative_pivot_counts = counted_sweep
    search._refine_events = refining
    result = {}
    for name, spec in _cases().items():
        seen.update(sweeps=0, counts=0, itp_steps=[])
        base = ModelParams(1.0, spec["g"], spec["delta"])
        start = time.perf_counter()
        scan = scan_levels(base, spec["param"], spec["from"], spec["to"], spec["steps"],
                           spec["levels"], spec["order"])
        wall = time.perf_counter() - start
        events = len(scan.events)
        result[name] = {
            "wall_s": round(wall, 3),
            "events": events,
            "parameter_steps_per_event": seen["itp_steps"],
            "pivot_sweeps": seen["sweeps"],
            "pivot_sweeps_per_event": round(seen["sweeps"] / max(events, 1), 1),
            "sturm_counts_per_event": round(seen["counts"] / max(events, 1)),
        }
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent-src", required=True)
    p.add_argument("--compare", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--measure", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sides = {}
    for side, src in (("parent", args.parent_src), ("change", str(ROOT / "src"))):
        done = subprocess.run(
            [sys.executable, __file__, "--parent-src", args.parent_src, "--compare",
             args.compare, "--out", args.out, "--measure", src],
            capture_output=True, text=True, env=env, check=True)
        sides[side] = json.loads(done.stdout)
    import numpy

    record = {
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": numpy.__version__},
        "compare": json.loads(Path(args.compare).read_text(encoding="utf-8")),
        "refinement": sides,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
