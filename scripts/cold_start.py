#!/usr/bin/env python3
"""Cold-start cost of the rabicf CLI on two source trees: ``import
rabicf.cli``, and that import plus one README request of each command.

    python3 scripts/cold_start.py --parent-src DIR [--change-src DIR]
                                  [--rounds N] [--out FILE]

Copies the ``rabicf`` package of each tree (``--change-src`` defaults to
this checkout's ``src``) to a temporary directory without its bytecode
caches, then runs N rounds, alternating which side goes first.  In each
round every side runs, for the bare import and for each README request in
``COMMANDS`` (the scan without ``--levels-out``), two fresh interpreters
with PYTHONDONTWRITEBYTECODE=1 and one thread for the numpy libraries;
each loads numpy first, so numpy's own import is not counted:

* one times ``import rabicf.cli``, then the import plus one request through
  ``rabicf.cli.main`` (what the benchmark's ``setup_s`` holds besides its
  own batch), with ``time.perf_counter``, and lists the ``rabicf`` modules
  loaded at the end;
* one runs the same under ``-X importtime`` and keeps the self time of
  every ``rabicf`` module, those a request imports on first use included.

So every module a process loads is compiled from source in that process,
as it is where no bytecode cache can be written.  Prints, and writes to
``--out`` as JSON, for each command and side the median and quartiles of
both times, the modules loaded with their median self times, and the
modules the parent loads that the change leaves out.  One round is enough
to list the modules each command loads, as CI's smoke step does.
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

MODEL = ["--omega", "1", "--g", "0.7", "--delta", "0.4"]
# The README's CLI examples, one a command; None times the import alone.
COMMANDS = {
    "import": None,
    "spectrum a": ["spectrum", *MODEL, "--method", "a", "--order", "150", "--levels", "10"],
    "spectrum b": ["spectrum", *MODEL, "--method", "b", "--parity", "plus", "--levels", "8"],
    "spectrum diag": ["spectrum", "--omega", "1", "--g", "0", "--delta", "0.4",
                      "--parity", "plus", "--method", "diag", "--levels", "3"],
    "compare": ["compare", *MODEL, "--method-1", "a", "--order-1", "150", "--method-2", "diag",
                "--order-2", "400", "-m", "10", "--tol", "1e-7"],
    "pathological": ["pathological", *MODEL, "--e0", "0.5", "--parity", "plus",
                     "--order", "10,20,40,80,160", "--variant", "diag"],
    "bound": ["bound", *MODEL, "--energy", "0"],
    "scan": ["scan", *MODEL, "--param", "g", "--from", "0.05", "--to", "1.2", "--steps", "600",
             "--levels", "8", "--order", "300"],
}

# argv (JSON, or null) in sys.argv[1]; prints import and total seconds and
# the rabicf modules loaded, as one JSON line.
TIMED = """import io, json, sys, time
import numpy
argv = json.loads(sys.argv[1])
t = time.perf_counter()
import rabicf.cli
imported = time.perf_counter()
if argv is not None and rabicf.cli.main(argv, out=io.StringIO()) != 0:
    sys.exit("request failed")
done = time.perf_counter()
print(json.dumps([imported - t, done - t,
                  sorted(m for m in sys.modules if m.split(".")[0] == "rabicf")]))
"""


def _quartiles(xs: list[float]) -> dict:
    # one round gives one sample, its own quartiles
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"q1": round(1e3 * q1, 2), "median": round(1e3 * median, 2), "q3": round(1e3 * q3, 2)}


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


def _run(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          check=True)


def measure(trees: dict[str, Path], rounds: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    runs = {side: {name: [] for name in COMMANDS} for side in trees}
    for r in range(rounds):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for name, argv in COMMANDS.items():
            for side in order:
                side_env = dict(env, PYTHONPATH=str(trees[side]))
                timed = json.loads(_run(["-c", TIMED, json.dumps(argv)], side_env).stdout)
                traced = _run(["-X", "importtime", "-c", TIMED, json.dumps(argv)], side_env)
                runs[side][name].append((*timed, _self_times(traced.stderr)))
    record = {}
    for side in trees:
        record[side] = {}
        for name, samples in runs[side].items():
            imports, totals, loaded, selfs = zip(*samples)
            modules = sorted({m for run in loaded for m in run})
            record[side][name] = {
                "import_ms": _quartiles(imports),
                "total_ms": _quartiles(totals),
                "total_ms_samples": [round(1e3 * s, 2) for s in totals],
                "modules": modules,
                "self_us_median": {m: statistics.median(run.get(m, 0) for run in selfs)
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
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for side, src in (("parent", args.parent_src), ("change", args.change_src)):
            trees[side] = Path(tmp) / side
            shutil.copytree(src / "rabicf", trees[side] / "rabicf",
                            ignore=shutil.ignore_patterns("__pycache__"))
        sides = measure(trees, args.rounds)
    import numpy

    parent, change = sides["parent"], sides["change"]
    left_out = {name: {m: parent[name]["self_us_median"][m] for m in parent[name]["modules"]
                       if m not in change[name]["modules"]} for name in COMMANDS}
    record = {
        "command": "python3 scripts/cold_start.py " + " ".join(argv or sys.argv[1:]),
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": numpy.__version__},
        "rounds": args.rounds,
        "commands": COMMANDS,
        "sides": sides,
        "left_out_by_change_us": left_out,
    }
    print(f"median [q1, q3] ms over {args.rounds} processes a side; import, then "
          "import plus one request")
    for name in COMMANDS:
        line = f"{name:14s}"
        for side in ("parent", "change"):
            imp, tot = sides[side][name]["import_ms"], sides[side][name]["total_ms"]
            line += (f"  {side} {imp['median']:5.1f} / {tot['median']:6.1f} "
                     f"[{tot['q1']:.1f}, {tot['q3']:.1f}] ({len(sides[side][name]['modules'])})")
        print(line)
        if left_out[name]:
            print("    left out: " + ", ".join(f"{m} {us / 1e3:.2f} ms"
                                              for m, us in left_out[name].items()))
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
