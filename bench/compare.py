#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 bench/compare.py --parent DIR --change DIR [--json FILE]

Each directory holds the records that ``run.py --out`` writes.  Make the
runs as alternating pairs with the same seed on both sides (parent first
on odd pairs, change first on even ones); runs are paired by workload and
seed.  For every workload and end-to-end metric the report gives both
sides' median and quartiles and a verdict by the rule in summary.compare,
with the better-direction and bound taken from BENCHMARK.json.  With
``--change`` omitted it summarises the parent runs alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import summary

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[str, dict[int, dict]]:
    """Untraced records by workload, then seed."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def _values(records: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in records]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change")
    p.add_argument("--json", help="also write the verdicts to this file")
    args = p.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    parent = load(args.parent)
    change = load(args.change) if args.change else {}
    result = {}
    for workload in sorted(parent):
        seeds = sorted(set(parent[workload]) & set(change.get(workload, {}))) if change \
            else sorted(parent[workload])
        if not seeds:
            print(f"{workload}: no paired runs", file=sys.stderr)
            continue
        p_runs = [parent[workload][s] for s in seeds]
        c_runs = [change[workload][s] for s in seeds] if change else None
        print(f"{workload}  ({len(seeds)} {'pairs' if change else 'runs'}, seeds {seeds})")
        rows = {}
        for metric in metrics:
            name, unit = metric["name"], metric["unit"]
            p_vals = _values(p_runs, name)
            if c_runs is None:
                q1, med, q3 = summary.quartiles(p_vals)
                rows[name] = {"q1": q1, "median": med, "q3": q3, "spread": summary.spread(p_vals)}
                print(f"  {name:16s} median {med:.6g} {unit}  [q1 {q1:.6g}, q3 {q3:.6g}]  "
                      f"spread {rows[name]['spread']:.3f} (bound {metric['bound']})")
                continue
            verdict = summary.compare(p_vals, _values(c_runs, name), metric["better"],
                                      metric["bound"])
            rows[name] = verdict
            pp, cc = verdict["parent"], verdict["change"]
            print(f"  {name:16s} parent {pp['median']:.6g} [{pp['q1']:.6g}, {pp['q3']:.6g}]  "
                  f"change {cc['median']:.6g} [{cc['q1']:.6g}, {cc['q3']:.6g}] {unit}  "
                  f"wins {verdict['wins']}/{verdict['pairs']}  {verdict['verdict']}")
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            if runs is not None:
                print(f"  failed ({side}) {sum(r['failed'] for r in runs)} "
                      f"of {sum(r['attempted'] for r in runs)}")
        result[workload] = rows
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
