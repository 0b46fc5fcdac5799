#!/usr/bin/env python3
"""Cost of the crossing refinement and of the root refinement.

    python3 scripts/crossing_cost.py --parent-src DIR --compare FILE --out FILE

Runs in process, once on the rabicf sources of this checkout and once on
those under ``--parent-src`` (for example a ``git archive`` of the parent
commit):

* the README coupling scan and the seeded delta scan of the coupling-scan
  workload (``bench/workloads.py``): for every scan the wall time, the
  events, and what reached the crossing refinement: parameter steps per
  event and pivot sweeps (calls of ``tridiag._negative_pivot_counts``) with
  the Sturm counts they evaluated;
* the evaluations that ``search.bisect_sign`` makes of P_N
  (``schweber.pair_secular``, method a) and of D_0 (``resolvent.char_poly``,
  method b): exact counts for the README examples ``spectrum --method a
  --order 150 --levels 10`` and ``--method b --parity plus --levels 8`` at
  (omega, g, delta) = (1, 0.7, 0.4), and at orders 150, 300 and 600 on the
  default window evaluations per bracket and the time of one
  ``bisect_sign`` call (mean over the brackets, best of 5 solves).

``--compare`` is the file ``bench/compare.py --json`` wrote for the same
parent/change pair; it is copied in unchanged.
"""

from __future__ import annotations

import argparse
import io
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
MODEL = ["--omega", "1", "--g", "0.7", "--delta", "0.4"]
README_SPECTRA = {
    "readme method a": (["--method", "a", "--order", "150", "--levels", "10"], "pair_secular"),
    "readme method b": (["--method", "b", "--parity", "plus", "--levels", "8"], "char_poly"),
}
ORDERS = (150, 300, 600)
REPEATS = 5


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
    """Both refinement costs on the rabicf under ``src``."""
    sys.path.insert(0, src)
    return {"crossing refinement": _crossing_cost(), "root refinement": _root_cost()}


def _crossing_cost() -> dict:
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


def _root_cost() -> dict:
    from rabicf import ModelParams, Parity, build_chain, poles_of_resolvent, solve_method_a
    from rabicf import resolvent, search
    from rabicf.cli import main

    seen = {"inside": False, "pair_secular": 0, "char_poly": 0, "brackets": 0, "s": 0.0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            seen[name] += seen["inside"]
            return real(*args)

        setattr(module, name, wrapper)

    bisect_sign = search.bisect_sign

    def bisecting(*args):
        seen["inside"], seen["brackets"] = True, seen["brackets"] + 1
        start = time.perf_counter()
        try:
            return bisect_sign(*args)
        finally:
            seen["s"] += time.perf_counter() - start
            seen["inside"] = False

    counted(search, "pair_secular")
    counted(resolvent, "char_poly")
    search.bisect_sign = bisecting

    def reset():
        seen.update(pair_secular=0, char_poly=0, brackets=0, s=0.0)

    result = {}
    for name, (argv, kernel) in README_SPECTRA.items():
        reset()
        if main(["spectrum", *MODEL, *argv], out=io.StringIO()) != 0:
            raise RuntimeError(f"{name} failed")
        result[name] = {f"{kernel}_calls": seen[kernel], "brackets": seen["brackets"]}

    params = ModelParams(1.0, 0.7, 0.4)
    solves = {
        "method a": (lambda n: solve_method_a(params, n, search.default_window(params, 10),
                                              levels=10), "pair_secular"),
        "method b": (lambda n: poles_of_resolvent(build_chain(params, Parity.PLUS, n),
                                                  search.default_window(params, 8), 8),
                     "char_poly"),
    }
    for name, (solve, kernel) in solves.items():
        for order in ORDERS:
            best = None
            for _ in range(REPEATS):
                reset()
                solve(order)
                best = seen["s"] if best is None else min(best, seen["s"])
            result[f"{name}, order {order}"] = {
                "brackets": seen["brackets"],
                f"{kernel}_calls": seen[kernel],
                "calls_per_bracket": round(seen[kernel] / seen["brackets"], 2),
                "ms_per_bracket": round(1e3 * best / seen["brackets"], 3),
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
