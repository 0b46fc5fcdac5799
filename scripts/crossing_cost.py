#!/usr/bin/env python3
"""Cost of the crossing refinement and of the root refinement.

    python3 scripts/crossing_cost.py --parent-src DIR --compare FILE --out FILE

Runs in process, once on the rabicf sources of this checkout and once on
those under ``--parent-src`` (for example a ``git archive`` of the parent
commit):

* the README coupling scan and the seeded delta scan of the coupling-scan
  workload (``bench/workloads.py``): for every scan the events and what
  reached the crossing refinement: parameter steps per event and pivot
  sweeps (calls of ``tridiag._negative_pivot_counts``, the oracle's entry
  to the pivot sweep ``model.pivot_sweep`` of all three routes) with the Sturm
  counts they evaluated and the chain steps they read;
* the evaluations that ``search.bisect_sign`` makes of P_N
  (``schweber.pair_secular``, method a) and of D_0 (``resolvent.char_poly``,
  method b): exact counts for the README examples ``spectrum --method a
  --order 150 --levels 10`` and ``--method b --parity plus --levels 8`` at
  (omega, g, delta) = (1, 0.7, 0.4), and at orders 150, 300 and 600 on the
  default window evaluations per bracket; each side takes its default
  windows from this checkout's ``rabicf.model``;
* for method b, where ``resolvent._refine_pole`` refines each pole on a
  leading minor of D_0 (``resolvent._leading_minor``): its evaluations, the
  rows each reads and the restarts on D_0 where its pivot test misses, for
  the README method-b example and for ``spectrum --method b --levels 8`` at
  g = 13 and 20 (omega 1, delta 0.4, default order), the D_0 evaluations
  inside the refinement counted as above;
* for those two README examples, the samples that ``search.bracket_roots``
  counts (the lengths of the arrays it hands its count) and the rows that
  each of its pivot sweeps reads (``schweber.secular_count``'s sweeps and
  method b's, ``tridiag.sturm_count``'s, which ``resolvent.pole_count``
  names, stop where the rest of the rows is dominant), and outside it the
  lockstep narrowing's sweeps and the rows each reads;
* the pivot sweeps that one call of each of these makes: the tracks of the
  README g scan (600 chains x 8 levels, order 300) and of the seed-1 delta
  scan (200 x 6, order 150) by ``tridiag.eigenvalues_batch``, the README
  scan's crossing refinement, and ``tridiag.eigenvalues`` on one chain at
  8 levels and orders 300, 600 and 1200: sweeps per call, Sturm counts and
  chain steps read per sweep (a sweep that stops where the tail is
  dominant reads fewer than n + 1) and, for this checkout, whether every
  count equals the per-step rule that ``tests/test_tridiag.py`` keeps as
  its reference;
* the scan's chain tables: the rows of each parity's diag and off2 tables
  built for the README g scan's tracks (all of them where the tables are
  full arrays), and the tracemalloc peak and the time (best of REPEATS) of
  ``scan._spectra_at`` on the README g scan and on a g scan of 2000
  steps over 0.05..3 at order 2000 (8 levels).

Then, in this process, each parent against change in REPEATS alternating
rounds (the median): the time of each of those scans (``scan_levels``);
of one pivot sweep of each of those calls, the parent's kernel on its own
sweeps and this checkout's on its own; of one piece's refinement of the
method-a and method-b solves above at orders 150, 300 and 600 (each piece
from the cell the narrowing reaches, per piece); of one count of a chain's
eigenvalues below 2 and below 2000 energies at orders 10-1200 (the
parent's ``resolvent.pole_count`` and ``tridiag.sturm_count`` each against
this checkout's one count); of one grid pass (``bracket_roots`` at the
default grid) of method a at 10 levels, orders 100-600, and of method b on
the plus chain at 8 levels, orders 300-1200; of one
``recurrence.scaled_pair`` call on the steps of ``resolvent.char_poly`` at
order 1200 and of ``schweber.pair_secular`` at order 300; of method b on
the plus chain at orders 300, 600 and 1200, one piece's refinement, one
``pole_count`` of one energy and of the 2000 grid samples, and one
``char_poly``; and of the whole g = 13 and 20 method-b requests
(``cli.main``).  Then the multisection crossover on this checkout:
``tridiag._bisect`` on 720, 1440 and 4800 per-row chains of the README g
scan at orders 300 and 1200, each level from its interlacing start as
``eigenvalues_batch`` brackets it, with m = 1, 2 and 3 halvings a sweep,
forced through ``_MULTISECTION_PROBES``.

``--compare`` is the file ``bench/compare.py --json`` wrote for the same
parent/change pair; it is copied in unchanged.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import time
from functools import partial
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
LARGE_G = {f"method b, g = {g}": ["spectrum", "--omega", "1", "--g", g, "--delta", "0.4",
                                   "--method", "b", "--levels", "8"] for g in ("13", "20")}
ORDERS = (150, 300, 600)
REPEATS = 5
NUMBER = 5
CHAIN_ORDERS = (300, 600, 1200)
COUNT_ORDERS = (10, 160, 300, 1200)
CROSSOVER = tuple((order, lanes) for order in (300, 1200) for lanes in (720, 1440, 4800))
GRID_ORDERS = {"method a": (100, 150, 300, 600), "method b": (300, 600, 1200)}


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
    """Both refinement costs and the pivot sweeps on the rabicf under ``src``."""
    sys.path.insert(0, src)
    import rabicf

    return {"crossing refinement": _crossing_cost(), "root refinement": _root_cost(),
            "pivot sweeps": _sweep_counts(rabicf, Path(src).resolve() == ROOT / "src"),
            "scan tables": _table_cost()}


def _table_cost() -> dict:
    """Rows built of the README g scan's track tables, and the peak and
    time of ``scan._spectra_at`` at README size and at 2000 x 2000."""
    import tracemalloc

    import numpy as np
    from rabicf import ModelParams, Parity, scan

    base, spec = ModelParams(1.0, 0.7, 0.4), README_SCAN
    built, batch_tables = {}, scan._batch_tables

    def recording(base, parameter, values, sign, order):
        built[Parity(sign).label] = tables = batch_tables(base, parameter, values, sign, order)
        return tables

    def spectra(steps, order, stop):
        values = np.linspace(spec["from"], stop, steps)
        interval = scan._sweep_interval(base, "g", stop, order)
        return lambda: scan._spectra_at(base, "g", values, spec["levels"], order, 1e-11,
                                        interval)

    scan._batch_tables = recording
    try:
        spectra(spec["steps"], spec["order"], spec["to"])()
    finally:
        scan._batch_tables = batch_tables
    # a table built a block at a time keeps its blocks
    result = {"readme g scan tracks, rows built": {
        parity: dict(zip(("diag", "off2"), (sum(map(len, t._blocks)) for t in tables)))
        for parity, tables in built.items()}}
    for name, (steps, order, stop) in {"readme g scan": (spec["steps"], spec["order"], spec["to"]),
                                       "g scan, 2000 steps, order 2000": (2000, 2000, 3.0)}.items():
        call, times = spectra(steps, order, stop), []
        for _ in range(REPEATS):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        tracemalloc.start()
        call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        result[f"{name} _spectra_at"] = {"ms": round(1e3 * min(times), 1),
                                         "tracemalloc_peak_kib": round(peak / 1024)}
    return result


def _crossing_cost() -> dict:
    from rabicf import ModelParams, scan, scan_levels, tridiag

    seen = {}
    sweep, refine_events = tridiag._pivot_sweep, scan._refine_events

    def counted_sweep(*args):
        counts, steps = sweep(*args)
        if seen.get("inside"):
            seen["sweeps"] += 1
            seen["counts"] += counts.size
            seen["steps"] += steps
        return counts

    def refining(*args):
        seen["inside"] = True
        try:
            out = refine_events(*args)
        finally:
            seen["inside"] = False
        seen["itp_steps"] = out[2].tolist()
        return out

    tridiag._negative_pivot_counts = counted_sweep
    scan._refine_events = refining
    result = {}
    for name, spec in _cases().items():
        seen.update(sweeps=0, counts=0, steps=0, itp_steps=[])
        base = ModelParams(1.0, spec["g"], spec["delta"])
        events = len(scan_levels(base, spec["param"], spec["from"], spec["to"], spec["steps"],
                                 spec["levels"], spec["order"]).events)
        result[name] = {
            "events": events,
            "parameter_steps_per_event": seen["itp_steps"],
            "pivot_sweeps": seen["sweeps"],
            "pivot_sweeps_per_event": round(seen["sweeps"] / max(events, 1), 1),
            "pivot_steps_read": seen["steps"],
            "sturm_counts_per_event": round(seen["counts"] / max(events, 1)),
        }
    return result


def _root_cost() -> dict:
    from rabicf import ModelParams, Parity, build_chain, poles_of_resolvent, solve_method_a
    from rabicf import resolvent, schweber, search, tridiag
    from rabicf.cli import main

    seen = {"inside": False, "pair_secular": 0, "char_poly": 0, "brackets": 0,
            "samples": 0, "gridding": False, "grid_rows": [], "narrowing_rows": [],
            "minor_rows": [], "restarts": 0}

    def pivots(module):
        """Wrap ``module``'s binding of ``model.negative_pivots``, the pivot
        sweep its root count runs on, to record the rows each sweep reads
        (the last row it fills), in the grid pass and outside it (the
        narrowing)."""
        real = module.negative_pivots

        def counting(couplings, rows, dominant, *energies):
            last = [0]

            def reading(i, j):
                last[0] = max(last[0], j)
                return rows(i, j)

            out = real(couplings, reading, dominant, *energies)
            seen["grid_rows" if seen["gridding"] else "narrowing_rows"].append(last[0])
            return out

        module.negative_pivots = counting

    def counted(module, name):
        """Count ``module.name``'s calls inside a refinement (``solve_method_a``
        reads ``schweber``'s binding of ``pair_secular`` at every call)."""
        real = getattr(module, name)

        def wrapper(*args):
            seen[name] += seen["inside"]
            return real(*args)

        setattr(module, name, wrapper)

    def refining(refine):
        """``refine`` (one piece's refinement) counted a bracket."""
        def wrapper(*args, **kwargs):
            seen["inside"], seen["brackets"] = True, seen["brackets"] + 1
            try:
                return refine(*args, **kwargs)
            finally:
                seen["inside"] = False

        return wrapper

    minor = resolvent._leading_minor

    def minoring(*args, **kwargs):
        seen["minor_rows"].append(kwargs["k"] + 1)
        try:
            return minor(*args, **kwargs)
        except resolvent._Unsettled:
            seen["restarts"] += 1
            raise

    resolvent._leading_minor = minoring
    resolvent._refine_pole = refining(resolvent._refine_pole)

    bracket_roots = search.bracket_roots

    def scanning(count, *args):
        def counting(energies):
            seen["samples"] += len(energies)
            return count(energies)

        seen["gridding"] = True
        try:
            return bracket_roots(counting, *args)
        finally:
            seen["gridding"] = False

    counted(schweber, "pair_secular")
    counted(resolvent, "char_poly")
    pivots(schweber)
    # method b counts with tridiag.sturm_count (with its own count in
    # resolvent in a parent from before the two counts were merged)
    pivots(tridiag if hasattr(tridiag, "negative_pivots") else resolvent)
    search.bisect_sign, search.bracket_roots = refining(search.bisect_sign), scanning

    def reset():
        seen.update(pair_secular=0, char_poly=0, brackets=0, samples=0, grid_rows=[],
                    narrowing_rows=[], minor_rows=[], restarts=0)

    def minors():
        return {"leading_minor_calls": len(seen["minor_rows"]),
                "leading_minor_rows_read": seen["minor_rows"], "restarts": seen["restarts"]}

    result = {}
    for name, (argv, kernel) in README_SPECTRA.items():
        reset()
        if main(["spectrum", *MODEL, *argv], out=io.StringIO()) != 0:
            raise RuntimeError(f"{name} failed")
        result[name] = {f"{kernel}_calls": seen[kernel], "brackets": seen["brackets"],
                        "grid_samples": seen["samples"], "grid_rows_read": seen["grid_rows"],
                        "narrowing_sweeps": len(seen["narrowing_rows"]),
                        "narrowing_rows_read": seen["narrowing_rows"]}
        if kernel == "char_poly":
            result[name] |= minors()
    for name, argv in LARGE_G.items():
        reset()
        if main(argv, out=io.StringIO()) != 0:
            raise RuntimeError(f"{name} failed")
        result[name] = {"char_poly_calls": seen["char_poly"], "brackets": seen["brackets"],
                        **minors()}

    params, default_window = ModelParams(1.0, 0.7, 0.4), _change_model().default_window
    solves = {
        "method a": (lambda n: solve_method_a(params, n, default_window(params, 10),
                                              levels=10), "pair_secular"),
        "method b": (lambda n: poles_of_resolvent(build_chain(params, Parity.PLUS, n),
                                                  default_window(params, 8), 8),
                     "char_poly"),
    }
    for name, (solve, kernel) in solves.items():
        for order in ORDERS:
            reset()
            solve(order)
            result[f"{name}, order {order}"] = {
                "brackets": seen["brackets"],
                f"{kernel}_calls": seen[kernel],
                "calls_per_bracket": round(seen[kernel] / seen["brackets"], 2),
            }
            if kernel == "char_poly":
                result[f"{name}, order {order}"] |= minors()
    return result


def _sweep_args(rabicf) -> dict[str, list[tuple]]:
    """The arguments of every pivot sweep that one call of each shape makes
    in ``rabicf``, in that package's own table layout."""
    import numpy as np

    tridiag, scan = rabicf.tridiag, rabicf.scan
    kernel, refine_events = tridiag._negative_pivot_counts, scan._refine_events
    calls, on = [], [True]

    def recording(*args):
        if on[0]:
            calls.append(args)
        return kernel(*args)

    def refining(*args):
        on[0] = True
        try:
            return refine_events(*args)
        finally:
            on[0] = False

    def captured(call):
        calls.clear()
        call()
        return list(calls)

    base = rabicf.ModelParams(1.0, 0.7, 0.4)
    shapes = {}
    tridiag._negative_pivot_counts = recording
    try:
        for label, spec in (("readme g scan", README_SCAN),
                            ("delta scan, seed 1", _cases()["delta scan, seed 1"])):
            p = rabicf.ModelParams(1.0, spec["g"], spec["delta"])
            values = np.linspace(spec["from"], spec["to"], spec["steps"])
            tables = scan._batch_tables(p, spec["param"], values, 1.0, spec["order"])
            interval = scan._sweep_interval(p, spec["param"], spec["to"], spec["order"])
            name = f"{label} tracks, {spec['steps']} x {spec['levels']}, order {spec['order']}"
            shapes[name] = captured(lambda: tridiag.eigenvalues_batch(
                *tables, spec["levels"], 1e-11, interval))
        scan._refine_events, on[0] = refining, False
        spec = README_SCAN
        shapes["readme g scan refinement rows"] = captured(lambda: rabicf.scan_levels(
            base, "g", spec["from"], spec["to"], spec["steps"], spec["levels"], spec["order"]))
        scan._refine_events, on[0] = refine_events, True
        for order in CHAIN_ORDERS:
            chain = rabicf.build_chain(base, rabicf.Parity.PLUS, order)
            shapes[f"one chain, 8 levels, order {order}"] = captured(
                lambda: tridiag.eigenvalues(chain, 8))
    finally:
        tridiag._negative_pivot_counts, scan._refine_events = kernel, refine_events
    return shapes


def _sweep_counts(rabicf, reference: bool) -> dict:
    """Sweeps per call, Sturm counts and chain steps read per sweep of each
    shape, read through ``tridiag._pivot_sweep`` (the oracle's binding of
    ``model.pivot_sweep``, or its own sweep in a parent from before the
    merge), and the chain's n + 1 steps; with ``reference``, whether every
    count equals the per-step rule of this checkout's tests (its tables
    have the chain steps on the last axis)."""
    import numpy as np

    if reference:
        sys.path.insert(0, str(ROOT / "tests"))
        from test_tridiag import reference_pivot_counts
    sweep, result = rabicf.tridiag._pivot_sweep, {}
    for name, calls in _sweep_args(rabicf).items():
        counts, steps = zip(*(sweep(*args) for args in calls))
        result[name] = {"sweeps_per_call": len(calls), "sturm_counts_per_sweep":
                        round(sum(c.size for c in counts) / len(calls)),
                        "steps_read_per_sweep": round(sum(steps) / len(calls), 1),
                        "chain_steps": calls[0][1].shape[0]}
        if reference:
            result[name]["counts_equal_reference"] = all(
                np.array_equal(got, reference_pivot_counts(
                    e, np.moveaxis(diag[:], 0, -1), np.moveaxis(off2[:], 0, -1)))
                for got, (e, diag, off2, *_) in zip(counts, calls))
    return result


def _change_model():
    """``rabicf.model`` of this checkout, where both sides take their default
    windows: a parent's ``search.default_window`` gives the same floats."""
    return _load(str(ROOT / "src"), "rabicf_change").model


def _load(src: str, name: str):
    """The rabicf package under ``src``, imported as ``name``."""
    init = Path(src) / "rabicf" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _alternating_ms(calls: dict, number: int = 1) -> dict:
    """Median milliseconds of one call of each side's ``calls[side]`` (a
    function of no arguments), in REPEATS alternating rounds of ``number``
    calls."""
    import numpy as np

    ms = {side: [] for side in calls}
    for round_ in range(REPEATS):
        for side in (("parent", "change") if round_ % 2 == 0 else ("change", "parent")):
            start = time.perf_counter()
            for _ in range(number):
                calls[side]()
            ms[side].append(1e3 * (time.perf_counter() - start) / number)
    return {side: float(np.median(t)) for side, t in ms.items()}


def _per_call(ms: dict) -> dict:
    """``_alternating_ms`` medians as a record, with the parent/change ratio."""
    return {"ms_per_call": {side: round(t, 4) for side, t in ms.items()},
            "speedup": round(ms["parent"] / ms["change"], 2)}


def _scan_times(sides: dict) -> dict:
    """Milliseconds of each scan of ``_cases`` (``scan_levels``), the parent
    package against the change's, in REPEATS alternating rounds."""
    result = {}
    for name, spec in _cases().items():
        calls = {side: lambda pkg=pkg, spec=spec: pkg.scan_levels(
            pkg.ModelParams(1.0, spec["g"], spec["delta"]), spec["param"], spec["from"],
            spec["to"], spec["steps"], spec["levels"], spec["order"])
            for side, pkg in sides.items()}
        result[name] = _per_call(_alternating_ms(calls))
    return result


def _sweep_times(sides: dict) -> dict:
    """Milliseconds per pivot sweep of each shape, the oracle's sweep
    (``tridiag._negative_pivot_counts``) of the parent package on its own
    sweeps against the change's, in REPEATS alternating rounds."""
    args = {side: _sweep_args(pkg) for side, pkg in sides.items()}
    result = {}
    for name in args["change"]:
        sweeps = {side: len(args[side][name]) for side in sides}
        ms = _alternating_ms({side: lambda kernel=pkg.tridiag._negative_pivot_counts,
                              calls=args[side][name]: [kernel(*call) for call in calls]
                              for side, pkg in sides.items()})
        ms = {side: t / sweeps[side] for side, t in ms.items()}
        result[name] = {
            "sweeps_per_call": sweeps,
            "ms_per_sweep": {side: round(t, 3) for side, t in ms.items()},
            "speedup": round(ms["parent"] / ms["change"], 2),
        }
    return result


def _grid_pass_times(sides: dict) -> dict:
    """Milliseconds of one grid pass (``bracket_roots`` at the default grid
    and window), parent against change, of method a at 10 levels and of
    method b on the plus chain at 8 levels, g = 0.7, delta = 0.4."""
    default_window = sides["change"].model.default_window

    def passes(pkg):
        search, params = pkg.search, pkg.ModelParams(1.0, 0.7, 0.4)
        out = {}
        for order in GRID_ORDERS["method a"]:
            out[f"method a, order {order}"] = lambda order=order: search.bracket_roots(
                lambda e: pkg.secular_count(e, params, order),
                default_window(params, 10), search.DEFAULT_GRID, 10)
        for order in GRID_ORDERS["method b"]:
            chain = pkg.build_chain(params, pkg.Parity.PLUS, order)
            out[f"method b, order {order}"] = lambda chain=chain: search.bracket_roots(
                lambda e: pkg.resolvent.pole_count(e, chain),
                default_window(params, 8), search.DEFAULT_GRID, 8)
        return out

    calls = {side: passes(pkg) for side, pkg in sides.items()}
    return {name: _per_call(_alternating_ms({side: calls[side][name] for side in sides}, NUMBER))
            for name in calls["change"]}


def _scaled_pair_times(sides: dict) -> dict:
    """Milliseconds of one ``recurrence.scaled_pair`` call, parent against
    change, on the step lists that ``resolvent.char_poly`` (plus chain,
    order 1200, E = 0.5) and ``schweber.pair_secular`` (order 300, E = 0.5)
    hand it, captured from the change's package."""
    change = sides["change"]
    steps = {}

    def capture(name, module, call):
        real = module.scaled_pair

        def keep(rows):
            steps[name] = list(rows)
            return real(steps[name])

        module.scaled_pair = keep
        try:
            call()
        finally:
            module.scaled_pair = real

    params = change.ModelParams(1.0, 0.7, 0.4)
    chain = change.build_chain(params, change.Parity.PLUS, 1200)
    capture("char_poly steps, order 1200", change.resolvent,
            lambda: change.resolvent.char_poly(0.5, chain))
    capture("pair_secular steps, order 300", change.schweber,
            lambda: change.schweber.pair_secular(0.5, params, 300))
    return {name: _per_call(_alternating_ms({side: lambda pkg=pkg, rows=rows:
                                             pkg.recurrence.scaled_pair(rows)
                                             for side, pkg in sides.items()}, NUMBER))
            for name, rows in steps.items()}


def _pieces(search, parts, window, levels: int):
    """(a function refining every piece of one solve, the number of pieces):
    the pieces that ``search.counted_roots`` hands its refinement, each from
    the cell the narrowing reaches, on the (count, f, refine) ``parts``."""
    (count, f, refine), pieces = parts, []
    search.counted_roots(count, f, window, search.DEFAULT_GRID, levels,
                         search.DEFAULT_REFINE_TOL,
                         refine=lambda f, *args, **kwargs: pieces.append((args, kwargs)) or 0.0)
    return lambda: [refine(f, *args, **kwargs) for args, kwargs in pieces], len(pieces)


def _solve_parts(pkg, method: str, order: int):
    """(count, f, refine) of a method-a solve or of a method-b solve on the
    plus chain of ``pkg`` at (omega, g, delta) = (1, 0.7, 0.4), as
    ``solve_method_a`` and ``poles_of_resolvent`` form them."""
    params = pkg.ModelParams(1.0, 0.7, 0.4)
    if method == "method a":
        return (lambda e: pkg.secular_count(e, params, order),
                lambda e: pkg.pair_secular(e, params, order), pkg.search.bisect_sign)
    chain = pkg.build_chain(params, pkg.Parity.PLUS, order)
    return (lambda e: pkg.resolvent.pole_count(e, chain),
            lambda e: pkg.resolvent.char_poly(e, chain)[0],
            partial(pkg.resolvent._refine_pole, chain))


def _refinement_times(sides: dict) -> dict:
    """Milliseconds of one piece's refinement, parent against change, of the
    method-a solve at 10 levels and of the method-b solve at 8 on the
    default window, at orders ORDERS (all pieces of a solve, per piece)."""
    params, change, result = sides["change"].ModelParams(1.0, 0.7, 0.4), sides["change"], {}
    for method, levels in (("method a", 10), ("method b", 8)):
        window = change.model.default_window(params, levels)
        for order in ORDERS:
            pieces = {side: _pieces(change.search, _solve_parts(pkg, method, order), window,
                                    levels) for side, pkg in sides.items()}
            ms = _alternating_ms({side: call for side, (call, _) in pieces.items()})
            result[f"{method}, order {order}"] = _per_call(
                {side: t / pieces[side][1] for side, t in ms.items()})
    return result


def _count_times(sides: dict) -> dict:
    """Milliseconds of one count of the plus chain's eigenvalues at (omega,
    g, delta) = (1, 0.7, 0.4) below 2 energies (two grid samples inside the
    window) and below the 2000 grid samples of method b's default window, at
    orders COUNT_ORDERS: the parent's ``resolvent.pole_count`` and
    ``tridiag.sturm_count`` each against this checkout's (one count under
    both names), in REPEATS alternating rounds of 100 calls."""
    import numpy as np

    change, result = sides["change"], {}
    params = change.ModelParams(1.0, 0.7, 0.4)
    grid = np.linspace(*change.model.default_window(params, 8), change.search.DEFAULT_GRID)
    for order in COUNT_ORDERS:
        chains = {side: pkg.build_chain(pkg.ModelParams(1.0, 0.7, 0.4), pkg.Parity.PLUS, order)
                  for side, pkg in sides.items()}
        for lanes, energies in (("2 energies", grid[[666, 1333]]), ("2000 energies", grid)):
            for name in ("resolvent.pole_count", "tridiag.sturm_count"):
                module, attr = name.split(".")
                calls = {side: partial(getattr(getattr(pkg, module), attr), energies,
                                       chains[side]) for side, pkg in sides.items()}
                result[f"{name}, {lanes}, order {order}"] = _per_call(
                    _alternating_ms(calls, 100))
    return result


def _method_b_times(sides: dict) -> dict:
    """Milliseconds, parent against change, of method b's kernels on the plus
    chain at (omega, g, delta) = (1, 0.7, 0.4) and orders 300, 600 and
    1200: one piece's refinement (the 8 pieces of an 8-level solve on the
    default window, each from the cell the narrowing reaches, per piece),
    one ``pole_count`` of E = 0.5 and of the 2000 grid samples, and one
    ``char_poly`` at E = 0.5; then one whole method-b request at g = 13 and
    20 (``LARGE_G``), through each side's ``cli.main``."""
    import numpy as np

    change, result = sides["change"], {}
    for order in CHAIN_ORDERS:
        calls, count = {}, {}
        for side, pkg in sides.items():
            params = pkg.ModelParams(1.0, 0.7, 0.4)
            chain = pkg.build_chain(params, pkg.Parity.PLUS, order)
            window = change.model.default_window(params, 8)
            grid = np.linspace(*window, pkg.search.DEFAULT_GRID)
            calls[side] = {
                "pole_count, one energy": lambda pkg=pkg, chain=chain:
                    pkg.resolvent.pole_count(0.5, chain),
                "pole_count, 2000 energies": lambda pkg=pkg, chain=chain, grid=grid:
                    pkg.resolvent.pole_count(grid, chain),
                "char_poly": lambda pkg=pkg, chain=chain: pkg.resolvent.char_poly(0.5, chain),
            }
            calls[side]["refinement, one piece"], count[side] = _pieces(
                change.search, _solve_parts(pkg, "method b", order), window, 8)
        for name in calls["change"]:
            ms = _alternating_ms({side: calls[side][name] for side in sides}, NUMBER)
            if name.startswith("refinement"):
                ms = {side: t / count[side] for side, t in ms.items()}
            result[f"{name}, order {order}"] = _per_call(ms)
    clis = {side: importlib.import_module(f"{pkg.__name__}.cli") for side, pkg in sides.items()}
    for name, argv in LARGE_G.items():
        result[name] = _per_call(_alternating_ms({
            side: lambda cli=cli: cli.main(argv, out=io.StringIO()) for side, cli in clis.items()}))
    return result


def _crossover(rabicf) -> dict:
    """Milliseconds of one ``tridiag._bisect`` of the README g scan's per-row
    chains, levels 1..8 in turn, each from its interlacing start, with
    m = 1, 2 and 3 halvings a sweep (median of REPEATS alternating rounds),
    in ``rabicf``."""
    import numpy as np

    scan, tridiag = rabicf.scan, rabicf.tridiag
    p, probes, result = rabicf.ModelParams(1.0, 0.7, 0.4), tridiag._MULTISECTION_PROBES, {}
    try:
        for order, lanes in CROSSOVER:
            tables = scan._batch_tables(p, "g", np.linspace(0.05, 1.2, lanes), 1.0, order)
            interval = scan._sweep_interval(p, "g", 1.2, order)
            wanted = np.arange(lanes) % 8 + 1
            tops = tridiag._start_tops(*tables, 8, 1e-11, interval)[wanted - 1, np.arange(lanes)]
            ms = {1: [], 2: [], 3: []}
            for round_ in range(REPEATS):
                for m in ((1, 2, 3) if round_ % 2 == 0 else (3, 2, 1)):
                    tridiag._MULTISECTION_PROBES = lanes * (2**m - 1) if m > 1 else 0
                    start = time.perf_counter()
                    tridiag._bisect(*tables, wanted, np.full(lanes, interval[0]), tops, 1e-11,
                                    tridiag._dominance_floor(*tables))
                    ms[m].append(1e3 * (time.perf_counter() - start))
            result[f"order {order}, {lanes} brackets"] = {
                f"m={m}": round(float(np.median(t)), 1) for m, t in ms.items()}
    finally:
        tridiag._MULTISECTION_PROBES = probes
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

    packages = {"parent": _load(args.parent_src, "rabicf_parent"),
                "change": _load(str(ROOT / "src"), "rabicf")}
    record = {
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": numpy.__version__},
        "compare": json.loads(Path(args.compare).read_text(encoding="utf-8")),
        "refinement": sides,
        "scan ms": _scan_times(packages),
        "pivot sweep ms": _sweep_times(packages),
        "refinement ms per bracket": _refinement_times(packages),
        "count ms": _count_times(packages),
        "grid pass ms": _grid_pass_times(packages),
        "scaled_pair ms": _scaled_pair_times(packages),
        "method b ms": _method_b_times(packages),
        "multisection crossover ms": _crossover(packages["change"]),
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
