#!/usr/bin/env python3
"""Cold-start cost of ``import rabicf.cli`` on two source trees.

    python3 scripts/cold_start.py --parent-src DIR [--change-src DIR]
                                  [--rounds N] [--out FILE]

Copies the ``rabicf`` package of each tree (``--change-src`` defaults to
this checkout's ``src``) to a temporary directory without its bytecode
caches, then runs N rounds, alternating which side goes first.  In each
round every side runs two fresh interpreters with PYTHONDONTWRITEBYTECODE=1
and one thread for the numpy libraries; each loads numpy first, so numpy's
own import is not counted:

* one times ``import rabicf.cli`` with ``time.perf_counter``;
* one runs the same import under ``-X importtime`` and keeps the self time
  of every ``rabicf`` module.

So every module of the package is compiled from source in every process,
as it is where no bytecode cache can be written.  Prints, and writes to
``--out`` as JSON, each side's median and quartiles of the import time and
the median self time of each ``rabicf`` module.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TIMED = ("import numpy, time\n"
         "t = time.perf_counter()\n"
         "import rabicf.cli\n"
         "print(time.perf_counter() - t)\n")


def _quartiles(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _self_times(stderr: str) -> dict[str, int]:
    """Self time in microseconds of each rabicf module in ``-X importtime``
    output (lines ``import time: self | cumulative | name``)."""
    times = {}
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            fields = line[len("import time:"):].split("|")
            name = fields[2].strip()
            if name == "rabicf" or name.startswith("rabicf."):
                times[name] = int(fields[0])
    return times


def measure(trees: dict[str, Path], rounds: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    seconds = {side: [] for side in trees}
    selfs = {side: [] for side in trees}
    for r in range(rounds):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for side in order:
            side_env = dict(env, PYTHONPATH=str(trees[side]))
            done = subprocess.run([sys.executable, "-c", TIMED], capture_output=True,
                                  text=True, env=side_env, check=True)
            seconds[side].append(float(done.stdout))
            done = subprocess.run([sys.executable, "-X", "importtime", "-c",
                                   "import numpy\nimport rabicf.cli\n"],
                                  capture_output=True, text=True, env=side_env, check=True)
            selfs[side].append(_self_times(done.stderr))
    record = {}
    for side in trees:
        modules = sorted({m for run in selfs[side] for m in run})
        record[side] = {
            "import_ms": {k: round(1e3 * v, 2) for k, v in _quartiles(seconds[side]).items()},
            "import_ms_samples": [round(1e3 * s, 2) for s in seconds[side]],
            "self_us_median": {m: statistics.median(run.get(m, 0) for run in selfs[side])
                               for m in modules},
        }
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent-src", required=True, type=Path)
    p.add_argument("--change-src", type=Path, default=ROOT / "src")
    p.add_argument("--rounds", type=int, default=15)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    if args.rounds < 2:
        p.error("--rounds must be at least 2")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for side, src in (("parent", args.parent_src), ("change", args.change_src)):
            trees[side] = Path(tmp) / side
            shutil.copytree(src / "rabicf", trees[side] / "rabicf",
                            ignore=shutil.ignore_patterns("__pycache__"))
        sides = measure(trees, args.rounds)
    import numpy

    record = {
        "command": "python3 scripts/cold_start.py " + " ".join(argv or sys.argv[1:]),
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": numpy.__version__},
        "rounds": args.rounds,
        "sides": sides,
    }
    for side, r in sides.items():
        ms = r["import_ms"]
        print(f"{side}: import rabicf.cli {ms['median']:.1f} ms "
              f"[{ms['q1']:.1f}, {ms['q3']:.1f}] over {args.rounds} processes")
        for module, us in sorted(r["self_us_median"].items(), key=lambda kv: -kv[1]):
            print(f"    {module:22s} {us / 1e3:7.2f} ms self")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
