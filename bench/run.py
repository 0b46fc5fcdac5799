#!/usr/bin/env python3
"""Benchmark of the rabicf CLI, run from the root of a source checkout.

    python3 bench/run.py --workload spectra-a --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
``spectra-a`` (method a), ``spectra-bd`` (methods b and diag, pathological
sweeps, bounds) and ``coupling-scan`` (crossing scans).  ``--workload all``
runs each of them in its own child process.

``--trace 0`` measures the end-to-end metrics with rabicf imported
unmodified: ``setup_s`` (median of seven set-ups: import, input generation
and one warm-up request), ``wall_norm_s`` (time of one pass over the
batch) and ``peak_rss_mb``.  The number of passes follows from
``--seconds`` alone (workloads.PASS_S), so every run of a seed attempts the
same requests.  Both times are rescaled to nominal machine
speed by speed.py; the report adds raw times and per-request latency
percentiles, which are not gated.  ``--trace 1`` is a separate run that
wraps the layer functions, reports per-layer counts and times, writes its
spans under bench/out/, and checks that the traced outputs are
byte-identical to an untraced pass.

Every output is verified against references that share no code with the
program (verify.py).  A request fails when it raises, exits non-zero or
fails verification; ``failed`` counts those per pass.  ``correct`` is false
when the program printed different bytes for the same request in two
passes, or when tracing changed an output.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--out FILE`` also writes the
full record (seed, argv hash, environment, latency tail, failures) that
compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="time budget of the measured passes at nominal machine speed; "
                        "sets how many passes run (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full run record to this JSON file")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _run_all(args) -> int:
    status = 0
    for workload in workloads.NAMES:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", f"{args.out}.{workload}.json"]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "rabicf" / "__init__.py").is_file():
        print(f"bench: no rabicf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)

    import harness

    if args.setup_probe:
        raw, norm, _, _ = harness.setup_sample(args.workload, args.seed)
        print(json.dumps({"raw_s": raw, "setup_s": norm}))
        return 0
    if args.trace:
        record = harness.measure_traced(args.workload, args.seed)
    else:
        record = harness.measure(args.workload, args.seed, args.seconds)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(harness.report(record), flush=True)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    # Pin BLAS/OpenMP pools before numpy loads, for this process and its children.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
