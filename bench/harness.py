"""Measurement of one workload: set-up, timed passes, verification, and the
traced run.

Load comes from one closed-loop client: this process sends a request to
``rabicf.cli.main`` only after the previous one returned.  A pass runs the
workload's whole batch once; output verification happens after all passes
and is excluded from every timing.

Nothing heavy is imported at module level, so a set-up measurement times
the program's own imports.
"""

from __future__ import annotations

import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import summary
import workloads

BENCH = Path(__file__).resolve().parent
SPANS_DIR = BENCH / "out"
# Set-up is measured this many times per run: once in this process and in
# fresh child processes for the rest.
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60

# End-to-end metrics of an untraced run: (name, unit).  setup_s and
# wall_norm_s are rescaled to nominal machine speed (speed.py).  Per-request latencies and
# the raw wall time go into the run record and the report, ungated: on a
# shared host their spread from run to run exceeds any usable bound.
E2E_METRICS = [
    ("setup_s", "s"),
    ("wall_norm_s", "s"),
    ("peak_rss_mb", "MiB"),
]


@dataclass(frozen=True)
class Outcome:
    rc: int | None  # None when the request raised
    text: str
    start: float
    seconds: float
    error: str = ""


def call(main, argv: list[str]) -> Outcome:
    """One request, timed; an exception is kept as the outcome."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        rc = main(argv, out=out)
    except Exception:  # a raising request is a failed request; the run goes on
        seconds = time.perf_counter() - start
        return Outcome(None, out.getvalue(), start, seconds, traceback.format_exc(limit=4))
    return Outcome(rc, out.getvalue(), start, time.perf_counter() - start)


def judge(spec: dict, outcome: Outcome):
    """Verification verdict: a raise or a non-zero exit fails outright."""
    import verify

    if outcome.rc is None:
        return verify.Check(False, math.inf, "raised: " + outcome.error.strip().splitlines()[-1])
    if outcome.rc != 0:
        return verify.Check(False, math.inf, f"exit code {outcome.rc}")
    return verify.check(spec, outcome.text)


def run_pass(main, batch, tracer=None) -> tuple[float, float, list[Outcome]]:
    """(start, end, outcomes) of one pass over the batch."""
    outcomes = []
    start = time.perf_counter()
    for i, request in enumerate(batch):
        if tracer is not None:
            tracer.request = i
        outcomes.append(call(main, request.argv))
    return start, time.perf_counter(), outcomes


def setup(workload: str, seed: int):
    """Import the program, generate the batch and run the warm-up request;
    returns (seconds, batch, rabicf.cli)."""
    start = time.perf_counter()
    import rabicf.cli as cli

    batch = workloads.generate(workload, seed)
    warm = call(cli.main, workloads.WARMUP[workload])
    seconds = time.perf_counter() - start
    if warm.rc != 0:
        print(f"bench: warm-up request failed ({warm.rc}): {warm.error}", file=sys.stderr)
    return seconds, batch, cli


def setup_sample(workload: str, seed: int):
    """One set-up, timed and rescaled to nominal machine speed; returns
    (raw seconds, rescaled seconds, batch, rabicf.cli)."""
    import speed

    seconds, batch, cli = setup(workload, seed)
    return seconds, speed.rescale(seconds), batch, cli


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(raw, rescaled) set-up time measured in a fresh child process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["raw_s"], sample["setup_s"]


def _verdicts(batch, passes):
    """Judge the first pass; a later pass that printed other bytes for the
    same argv is judged on its own and marks the run non-deterministic."""
    first = [judge(r.spec, o) for r, o in zip(batch, passes[0])]
    verdicts = [first]
    deterministic = True
    for outcomes in passes[1:]:
        row = []
        for i, (request, outcome) in enumerate(zip(batch, outcomes)):
            same = (outcome.rc, outcome.text) == (passes[0][i].rc, passes[0][i].text)
            deterministic &= same
            row.append(first[i] if same else judge(request.spec, outcome))
        verdicts.append(row)
    return verdicts, deterministic


def _failures(batch, verdicts) -> list[dict]:
    return [
        {"pass": p, "request": i, "argv": " ".join(batch[i].argv), "reason": v.reason}
        for p, row in enumerate(verdicts) for i, v in enumerate(row) if not v.ok
    ]


def _max_error(verdicts) -> float:
    """Largest verified deviation among the outputs that passed."""
    return max((v.error for row in verdicts for v in row if v.ok), default=0.0)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: end-to-end metrics over the whole passes of the batch
    that fit in ``seconds`` at nominal speed (workloads.passes)."""
    import speed

    raw_setup, norm_setup, batch, cli = setup_sample(workload, seed)
    setups = [(raw_setup, norm_setup)]
    setups += [probe_setup(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    passes, bounds = [], []
    with speed.SpeedMeter() as meter:
        for _ in range(workloads.passes(workload, seconds)):
            start, end, outcomes = run_pass(cli.main, batch)
            passes.append(outcomes)
            bounds.append((start, end))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [end - start for start, end in bounds]
    norm_walls = [meter.normalise(start, end) for start, end in bounds]

    verdicts, deterministic = _verdicts(batch, passes)
    raw = [statistics.median(p[i].seconds for p in passes) for i in range(len(batch))]
    norm = [statistics.median(meter.normalise(p[i].start, p[i].start + p[i].seconds)
                              for p in passes) for i in range(len(batch))]
    failures = _failures(batch, verdicts)
    values = {
        "setup_s": statistics.median(norm for _, norm in setups),
        "wall_norm_s": statistics.median(norm_walls),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = len(batch) * len(passes)
    return {
        "workload": workload, "seed": seed, "trace": 0,
        "argv_sha256": workloads.argv_hash(batch),
        "requests": len(batch), "passes": len(passes),
        "correct": deterministic, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS},
        "latency": {"p50_norm_s": statistics.median(norm), "tail_norm": _tail(norm),
                    "p50_s": statistics.median(raw), "tail": _tail(raw)},
        "wall_s": statistics.median(walls),
        "failed_frac": len(failures) / attempted,
        "max_error": _max_error(verdicts),
        "setup_samples_s": [norm for _, norm in setups],
        "setup_samples_raw_s": [raw for raw, _ in setups],
        "pass_walls_s": walls,
        "pass_walls_norm_s": norm_walls,
        "latencies_norm_s": norm,
        "speed_samples": len(meter.seconds),
        "kernel_median_s": statistics.median(meter.seconds),
        "failures": failures,
        "environment": environment(),
    }


def _tail(latencies: list[float]):
    tail = summary.tail_percentile(latencies)
    if tail is None:
        return None
    return {"percentile": tail[0], "value_s": tail[1], "beyond": tail[2],
            "samples": len(latencies)}


def measure_traced(workload: str, seed: int) -> dict:
    """Traced run: one untraced pass for reference, then one pass with
    spans; per-layer metrics, overhead, and byte-identity of the outputs."""
    import spans

    _, batch, cli = setup(workload, seed)
    start, end, plain = run_pass(cli.main, batch)
    plain_wall = end - start
    tracer = spans.Tracer()
    tracer.install()
    try:
        start, end, traced = run_pass(cli.main, batch, tracer)
    finally:
        tracer.uninstall()
    traced_wall = end - start

    identical = all((a.rc, a.text) == (b.rc, b.text) for a, b in zip(plain, traced))
    verdicts = [[judge(r.spec, o) for r, o in zip(batch, traced)]]
    calls = spans.totals(tracer.spans)
    unbound = [n for n in workloads.EXPECTED_CALLS[workload]
               if calls.get(n, {}).get("calls", 0) == 0]
    if unbound:
        print(f"bench: no calls traced for {', '.join(unbound)}", file=sys.stderr)
    values = spans.layer_metrics(tracer, {
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        "trace.unbound_names": len(unbound),
        "verify.max_error": _max_error(verdicts),
    })
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{workload}-{seed}.tsv"
    tracer.write(spans_path)
    failures = _failures(batch, verdicts)
    return {
        "workload": workload, "seed": seed, "trace": 1,
        "argv_sha256": workloads.argv_hash(batch),
        "requests": len(batch), "passes": 1,
        "correct": identical, "attempted": len(batch), "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in spans.LAYER_METRICS},
        "unbound_names": unbound,
        "spans_file": str(spans_path.relative_to(BENCH.parent)),
        "span_count": len(tracer.spans),
        "failed_frac": len(failures) / len(batch),
        "failures": failures,
        "environment": environment(),
    }


def report(record: dict) -> str:
    """Human-readable lines: every metric by name with its unit."""
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"{record['requests']} requests x {record['passes']} pass(es)  "
        f"argv sha256 {record['argv_sha256'][:16]}",
    ]
    for name, metric in record["metrics"].items():
        lines.append(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if record["trace"] == 0:
        lat = record["latency"]
        lines.append(f"  wall_s = {record['wall_s']:.6g} s (raw), "
                     f"latency_p50_norm_s = {lat['p50_norm_s']:.6g} s, "
                     f"latency_p50_s = {lat['p50_s']:.6g} s (raw)")
        for label, tail in (("latency_tail_norm_s", lat["tail_norm"]),
                            ("latency_tail_s (raw)", lat["tail"])):
            if tail is None:
                lines.append(f"  {label} omitted: {record['requests']} requests leave no "
                             f"percentile with {summary.TAIL_BEYOND} samples beyond")
            else:
                lines.append(f"  {label} = {tail['value_s']:.6g} s  (p{tail['percentile']}, "
                             f"{tail['beyond']} of {tail['samples']} samples beyond)")
    lines.append(f"  failed_frac = {record['failed_frac']:.4g}  "
                 f"({record['failed']} of {record['attempted']})")
    for failure in record["failures"]:
        lines.append(f"    failed: {failure['argv']}: {failure['reason']}")
    env = record["environment"]
    lines.append(f"  env: nproc {env['nproc']}, {env['cpu']}, Python {env['python']}, "
                 f"numpy {env['numpy']}, scipy {env['scipy']}")
    return "\n".join(lines)
