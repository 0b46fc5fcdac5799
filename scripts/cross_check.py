#!/usr/bin/env python3
"""Three-way cross-check of the spectral routes over seeded requests.

    python3 scripts/cross_check.py --seed S --requests N --src DIR [--g-range LO HI]

Draws N requests (g, delta) from ``random.Random(S)``, g uniform in
[LO, HI] (default [0.02, 12]; ``--g-range 6 14`` is the strong-coupling
arm, where method a meets close parity doublets) and delta in [0.01, 8]
(omega 1), and runs two arms on the rabicf sources under DIR (for example
``src`` or a ``git archive`` of another commit):

* default order: each request at 8 levels, its ``model.default_window`` and
  ``model.default_order`` N, as ``rabicf spectrum`` runs it.  The reference
  is the oracle (``tridiag.eigenvalues``) of both parity chains at order
  2N.  Method a must give 8 levels, each within 1e-8*max(1, |E|) of the
  union of the two oracles, level by level; method b on each parity chain
  must do the same against that parity's oracle.
* fixed order: each request at orders 10, 20 and 40 on each parity chain,
  where method b and the oracle run on one chain.  Method b's poles in the
  default window must be the oracle's levels there, each within the
  oracle's bracket width plus method b's refinement width.

Prints one JSON record: per arm and method the requests that matched,
disagreed and raised, and a list with every disagreement or raise, with
the ``rabicf`` command line that repeats it.  The record holds no paths
or timings, so two source trees that agree give the same record.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

LEVELS = 8
FIXED_ORDERS = (10, 20, 40)
REL_TOL = 1e-8


def _cli(g: float, delta: float, method: str, parity=None, order=None) -> str:
    line = f"rabicf spectrum --omega 1 --g {g!r} --delta {delta!r} --method {method}"
    if parity is not None:
        line += f" --parity {parity.label}"
    line += f" --levels {LEVELS}"
    return line + (f" --order {order}" if order is not None else "")


def _mismatch(got, want, widths) -> str | None:
    """Why the levels ``got`` are not ``want`` within ``widths`` (one a
    level), or None when they are."""
    if len(got) != len(want):
        return f"{len(got)} levels, expected {len(want)}"
    for i, (e, ref, width) in enumerate(zip(got, want, widths)):
        if not abs(e - ref) <= width:
            return f"level {i}: {e!r} against {ref!r}, off by {abs(e - ref):.3g} > {width:.3g}"
    return None


def _relative(levels) -> list[float]:
    return [REL_TOL * max(1.0, abs(e)) for e in levels]


def run(seed: int, requests: int, g_range: tuple[float, float] = (0.02, 12.0)) -> dict:
    from rabicf import (ModelParams, Parity, build_chain, eigenvalues, poles_of_resolvent,
                        solve_method_a)
    from rabicf.model import DEFAULT_REFINE_TOL, default_order, default_window
    from rabicf.tridiag import union_spectrum

    rng = random.Random(seed)
    draws = [(rng.uniform(*g_range), rng.uniform(0.01, 8.0)) for _ in range(requests)]
    tally = {arm: {method: {"matched": 0, "disagreed": 0, "raised": 0} for method in methods}
             for arm, methods in (("default order", ("a", "b")), ("fixed order", ("b",)))}
    found = []

    def check(arm, method, line, compare):
        """Run ``compare`` (the reason the route disagrees, or None) and
        tally its outcome under ``arm`` and ``method``."""
        try:
            why, kind = compare(), "disagreed"
        except Exception as exc:  # every raise is a finding
            why, kind = f"{type(exc).__name__}: {exc}", "raised"
        if why is None:
            tally[arm][method]["matched"] += 1
            return
        tally[arm][method][kind] += 1
        found.append({"arm": arm, "method": method, "outcome": kind, "detail": why,
                      "cli": line})

    for g, delta in draws:
        params = ModelParams(1.0, g, delta)
        window = default_window(params, LEVELS)
        order = default_order(params, LEVELS, window)
        oracles = {parity: eigenvalues(build_chain(params, parity, 2 * order), LEVELS)
                   for parity in Parity}
        union = [lev.energy for lev in union_spectrum(list(oracles.values()), LEVELS)]
        check("default order", "a", _cli(g, delta, "a"), lambda: _mismatch(
            [lev.energy for lev in solve_method_a(params, order, window, LEVELS).spectrum.levels],
            union, _relative(union)))
        for parity, oracle in oracles.items():
            want = oracle.energies.tolist()
            check("default order", "b", _cli(g, delta, "b", parity), lambda: _mismatch(
                poles_of_resolvent(build_chain(params, parity, order), window,
                                   LEVELS).energies.tolist(), want, _relative(want)))
        for n in FIXED_ORDERS:
            for parity in Parity:
                chain = build_chain(params, parity, n)

                def fixed():
                    diag = [lev for lev in eigenvalues(chain, min(LEVELS, chain.dim)).levels
                            if lev.energy <= window[1]]
                    return _mismatch(poles_of_resolvent(chain, window, LEVELS).energies.tolist(),
                                     [lev.energy for lev in diag],
                                     [lev.residual + DEFAULT_REFINE_TOL for lev in diag])

                check("fixed order", "b", " and ".join(
                    _cli(g, delta, m, parity, n) for m in ("b", "diag")), fixed)
    return {"seed": seed, "requests": requests, "g": list(g_range), "delta": [0.01, 8.0],
            "levels": LEVELS, "fixed_orders": list(FIXED_ORDERS), "outcomes": tally,
            "findings": found}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--requests", type=int, required=True)
    p.add_argument("--src", required=True, help="directory holding the rabicf package")
    p.add_argument("--g-range", type=float, nargs=2, default=(0.02, 12.0), metavar=("LO", "HI"),
                   help="interval of the uniform g draws (default 0.02 12)")
    args = p.parse_args(argv)
    sys.path.insert(0, args.src)
    start = time.perf_counter()
    record = run(args.seed, args.requests, tuple(args.g_range))
    print(json.dumps(record, indent=1))
    print(f"cross-check: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
