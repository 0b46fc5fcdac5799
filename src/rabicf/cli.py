"""Command-line interface.

Subcommands: spectrum, compare, pathological, bound, scan.  Output is CSV
(default) or JSON on stdout; CSV carries ``# key = value`` metadata lines
before the header row, and the JSON object holds the same fields under
``metadata``/``columns``/``rows``.  Exit codes: 0 success, 1 tolerance
failure (compare), 2 usage or invalid configuration, 3 numerical failure.

All computation is deterministic; there is no randomness anywhere.  A
plain ``key = value`` config file can seed any long option, with explicit
flags taking precedence.  A negative value after an option is that value,
in exponent form and as a window ``lo:hi`` too (``--window -3:5``).
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys

from . import __version__
from .errors import (
    DegenerateScanError,
    PoleSeparationError,
    RabiSolverError,
    TooFewLevelsError,
)
from .model import (DEFAULT_EIG_TOL, DEFAULT_GRID, DEFAULT_REFINE_TOL, DEN_FLOOR, EnergyLevel,
                    ModelParams, Parity, build_chain, checked_grid, checked_tol, checked_window,
                    default_order, default_window, pole_guard)

# search, schweber, resolvent, convergence, the oracle (tridiag) and the
# scan are imported by the commands that run them: a process compiles only
# the modules of its own route.

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# The --parity choices of every subcommand that takes one.
PARITIES = {"plus": Parity.PLUS, "minus": Parity.MINUS}

# A negative value: a number in decimal or exponent form, such as -0.001 or
# -1e-3, or a window lo:hi with a negative lo, such as -3:5.
_NEGATIVE = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
                       r"(:[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?)?")


def _emit(metadata: dict, columns: list[str], rows: list[list], fmt: str, out) -> None:
    if fmt == "json":
        json.dump({"metadata": metadata, "columns": columns, "rows": rows}, out, indent=1)
        out.write("\n")
        return
    for key, value in metadata.items():
        out.write(f"# {key} = {value}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _parse_window(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must be 'lo:hi', got {text!r}"
        ) from None
    return lo, hi


def _parse_orders(text: str) -> list[int]:
    try:
        orders = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        orders = []
    if not orders:
        raise argparse.ArgumentTypeError(f"bad order list {text!r}")
    return orders


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--omega", type=float, required=True, help="oscillator frequency (> 0)")
    p.add_argument("--g", type=float, required=True, help="coupling (sign ignored)")
    p.add_argument("--delta", type=float, required=True, help="level splitting (sign ignored)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--config", help="key = value file seeding these options")
    p.add_argument("--seedless", action="store_true",
                   help="no-op: every computation is deterministic already")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabicf",
        description="Continued-fraction and Sturm-bisection spectra of the quantum Rabi model",
    )
    parser.add_argument("--version", action="version", version=f"rabicf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="low-lying spectrum by one method")
    _add_model_args(p)
    p.add_argument("--method", choices=("a", "b", "diag"), required=True,
                   help="a: coefficient continued fraction (parity-blind); "
                        "b: resolvent poles; diag: Sturm-bisection oracle")
    p.add_argument("--parity", choices=PARITIES,
                   help="parity chain for methods b/diag; omitted = union of both; "
                        "ignored by method a")
    p.add_argument("--order", type=int, help="truncation order (default for every method: "
                   "max(2*tail-depth bound at the window's largest |E|, 4*levels, 300))")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--window", type=_parse_window,
                   help="search window lo:hi of methods a and b, checked for diag too "
                        "(default derived from the exact limits)")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID,
                   help="samples across the window for methods a and b, at least 2 "
                        "(checked for diag too)")
    p.add_argument("--tol", type=float,
                   help="Sturm bisection width of --method diag (default 1e-11*omega); "
                        "methods a and b ignore it and refine roots to 1e-12*omega")
    p.add_argument("--eps-pole", type=float,
                   help="pole-guard half width of method a's residual, which reads inf "
                        "closer to a pole (default 1e-9*omega); b and diag ignore it")

    p = sub.add_parser("compare", help="level-by-level deviation of two methods")
    _add_model_args(p)
    p.add_argument("--method-1", choices=("a", "b", "diag"), required=True)
    p.add_argument("--order-1", type=int)
    p.add_argument("--method-2", choices=("a", "b", "diag"), required=True)
    p.add_argument("--order-2", type=int)
    p.add_argument("-m", "--m", dest="m", type=int, required=True,
                   help="number of levels compared")
    p.add_argument("--tol", type=float,
                   help="pass threshold on the max deviation (default 1e-7*omega; "
                        "exit 1 at or above it)")
    p.add_argument("--parity", choices=PARITIES,
                   help="restrict methods b/diag to one chain (default: union)")
    p.add_argument("--window", type=_parse_window)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)

    p = sub.add_parser("pathological", help="plant a fictitious resolvent pole")
    _add_model_args(p)
    p.add_argument("--e0", type=float, required=True, help="energy of the planted pole")
    p.add_argument("--parity", choices=PARITIES, default="plus")
    p.add_argument("--order", type=_parse_orders, default=(10, 20, 40, 80, 160),
                   help="comma-separated truncation orders for the sweep")
    p.add_argument("--variant", choices=("diag", "diag-offdiag"), default="diag")

    p = sub.add_parser("bound", help="tail-depth bound and convergence certificate")
    _add_model_args(p)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--parity", choices=PARITIES, default="plus")

    p = sub.add_parser("scan", help="parameter scan with crossing detection")
    _add_model_args(p)
    p.add_argument("--param", choices=("g", "delta"), default="g")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--order", type=int, help="truncation order (default: the rule of "
                   "spectrum --order, with the parameter at max(|from|, |to|))")
    p.add_argument("--tol", type=float)
    p.add_argument("--levels-out",
                   help="write the level tracks to this CSV file instead of stdout")
    return parser


def _load_config_args(argv: list[str]) -> list[str]:
    """The one pre-pass of a request's argv.  Options from a ``--config``
    file go right after the subcommand, so explicit flags (parsed later)
    win.  A negative value after an option joins it in the ``--option=value``
    form: argparse reads ``-1e-3`` and ``-3:5`` as options, though it takes
    ``-0.001`` as a value."""
    path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif arg.startswith("--config="):
            path = arg.split("=", 1)[1]
    extra: list[str] = []
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"config line without '=': {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                key = key.replace("_", "-")
                if value.lower() in ("true", "yes", "on"):
                    extra.append(f"--{key}")
                elif value.lower() in ("false", "no", "off"):
                    continue
                else:
                    extra.extend([f"--{key}", value])
    joined: list[str] = []
    # config args go right after the subcommand: argparse lets later
    # (explicit) occurrences win
    for arg in argv[:1] + extra + argv[1:]:
        if joined and joined[-1][:1] == "-" and "=" not in joined[-1] and _NEGATIVE.fullmatch(arg):
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    return joined


def _metadata_base(args, params: ModelParams) -> dict:
    return {
        "tool": f"rabicf {__version__}",
        "command": args.command,
        "omega": repr(params.omega),
        "g": repr(params.g),
        "delta": repr(params.delta),
        "format": args.format,
    }


def _solve_spectrum(args, method: str, order: int | None, levels: int,
                    solver_tol: float | None = None) -> tuple[list[EnergyLevel], dict]:
    """Check one spectrum request, fill in its defaults and solve it;
    returns (levels, metadata bits), the order used among the latter."""
    params = ModelParams(args.omega, args.g, args.delta)
    # a given window is checked before the default order reads it
    window = checked_window(args.window) if args.window else default_window(params, levels)
    if order is None:
        order = default_order(params, levels, window)
    tol = checked_tol(solver_tol, DEFAULT_EIG_TOL * params.omega)
    eps_pole = pole_guard(params, getattr(args, "eps_pole", None))  # compare takes no --eps-pole
    if method == "a" and params.g == 0.0:
        raise ValueError("method a requires g > 0")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    checked_grid(args.grid)
    notes: dict = {
        "method": method, "order": order, "levels_requested": levels,
        "window": f"{window[0]!r}:{window[1]!r}", "eig_tol": repr(tol),
        "refine_tol": repr(DEFAULT_REFINE_TOL * params.omega),
        "eps_pole": repr(eps_pole), "den_floor": repr(DEN_FLOOR), "grid": args.grid,
    }
    if method == "a":
        notes["parity"] = "n/a"
        notes["parity_note"] = ("method a depends only on delta**2 "
                                "and does not discern the parity chains")
        from .search import solve_method_a

        result = solve_method_a(params, order, window, levels=levels,
                                grid=args.grid, eps_pole=eps_pole)
        return list(result.spectrum.levels), notes

    notes["parity"] = args.parity.label if args.parity else "union"
    from .tridiag import eigenvalues, union_spectrum

    if method == "b":
        from .resolvent import poles_of_resolvent
    spectra = []
    for parity in [args.parity] if args.parity else list(Parity):
        chain = build_chain(params, parity, order)
        spectra.append(eigenvalues(chain, levels, tol) if method == "diag"
                       else poles_of_resolvent(chain, window, levels, grid=args.grid))
    if args.parity:
        return list(spectra[0].levels), notes
    return union_spectrum(spectra, first_k=levels), notes


def cmd_spectrum(args, out) -> int:
    levels, notes = _solve_spectrum(args, args.method, args.order, args.levels, args.tol)
    meta = _metadata_base(args, ModelParams(args.omega, args.g, args.delta)) | notes
    columns = ["index", "energy", "residual", "method", "order", "parity"]
    rows = [
        [lev.index, lev.energy, lev.residual, args.method, notes["order"], notes["parity"]]
        for lev in levels
    ]
    _emit(meta, columns, rows, args.format, out)
    return EXIT_OK


def cmd_compare(args, out) -> int:
    params = ModelParams(args.omega, args.g, args.delta)
    # --tol is the pass threshold, not a solver tolerance; default 1e-7*omega
    tol = checked_tol(args.tol, 1e-7 * params.omega)
    if args.m < 1:
        raise ValueError("m must be >= 1")
    levels1, notes1 = _solve_spectrum(args, args.method_1, args.order_1, args.m)
    levels2, notes2 = _solve_spectrum(args, args.method_2, args.order_2, args.m)
    if len(levels1) < args.m or len(levels2) < args.m:
        raise TooFewLevelsError(
            f"need {args.m} levels, computed {len(levels1)} and {len(levels2)}"
        )
    rows = []
    worst = 0.0
    for n in range(args.m):
        dev = abs(levels1[n].energy - levels2[n].energy)
        worst = max(worst, dev)
        rows.append([n, levels1[n].energy, levels2[n].energy, dev])
    meta = _metadata_base(args, params) | {
        "method_1": args.method_1, "order_1": notes1["order"],
        "method_2": args.method_2, "order_2": notes2["order"],
        "m": args.m, "tol": repr(tol),
        "parity": notes1["parity"] if args.method_1 != "a" else notes2["parity"],
        "max_deviation": repr(worst),
    }
    _emit(meta, ["index", "energy_1", "energy_2", "deviation"], rows, args.format, out)
    return EXIT_OK if worst < tol else EXIT_TOLERANCE


def cmd_pathological(args, out) -> int:
    from .resolvent import E0_MIN_SEPARATION, PathologicalVariant, build_pathological, resolvent_cf

    params = ModelParams(args.omega, args.g, args.delta)
    variant = PathologicalVariant(args.variant)
    rows = []
    for order in args.order:
        chain = build_pathological(args.e0, params, args.parity, order, variant)
        limit = -params.omega / (params.g * params.g)  # after the GZeroError at g = 0
        planted = resolvent_cf(args.e0, chain)
        rows.append([
            order,
            chain.modified_diag_nn,
            chain.modified_offdiag if chain.modified_offdiag is not None else "",
            chain.tail,
            abs(chain.tail - limit),
            abs(planted.reciprocal),
            chain.slow_approach_diagnostic,
        ])
    meta = _metadata_base(args, params) | {
        "e0": repr(args.e0),
        "parity": args.parity.label,
        "variant": args.variant,
        "tail_limit": repr(limit),
        "min_separation": repr(E0_MIN_SEPARATION * params.omega),
    }
    columns = ["order", "modified_diag_nn", "modified_offdiag", "tail_gn",
               "tail_minus_limit", "planted_reciprocal", "order_times_tail_offset"]
    _emit(meta, columns, rows, args.format, out)
    return EXIT_OK


def cmd_bound(args, out) -> int:
    from .convergence import best_certificate, tail_depth_bound

    params = ModelParams(args.omega, args.g, args.delta)
    n = tail_depth_bound(args.energy, params)
    cert = best_certificate(args.energy, params, args.parity, n, 10 * n)
    meta = _metadata_base(args, params) | {
        "energy": repr(args.energy),
        "parity": args.parity.label,
    }
    if params.g == 0.0:
        meta["note"] = "g = 0: every tail numerator vanishes; tail trivially convergent"
    columns = ["bound", "c", "margin", "holds", "start_index", "verified_up_to",
               "unbounded_product"]
    rows = [[n, cert.c, cert.margin, cert.holds, cert.start_index,
             cert.verified_up_to, cert.unbounded_product]]
    _emit(meta, columns, rows, args.format, out)
    return EXIT_OK


def cmd_scan(args, out) -> int:
    from .search import scan_levels

    params = ModelParams(args.omega, args.g, args.delta)
    result = scan_levels(
        params, args.param, args.start, args.stop, args.steps,
        args.levels, args.order, tol=args.tol,
    )
    meta = _metadata_base(args, params) | {
        "param": args.param,
        "from": repr(args.start), "to": repr(args.stop), "steps": args.steps,
        "levels": args.levels, "order": result.order,
        "events": len(result.events),
    }
    columns = ["param_value", "energy", "shifted", "nearest_multiple", "deviation",
               "plus_level", "minus_level"]
    rows = [
        [ev.value, ev.energy, ev.shifted, ev.nearest_multiple, ev.deviation,
         ev.plus_level, ev.minus_level]
        for ev in result.events
    ]
    track_cols = ([args.param]
                  + [f"plus_{n}" for n in range(args.levels)]
                  + [f"minus_{n}" for n in range(args.levels)])
    track_rows = [[x, *p, *m] for x, p, m in zip(result.values.tolist(),
                                                 result.plus_levels.tolist(),
                                                 result.minus_levels.tolist())]
    # the file first: an unwritable path fails before anything is printed
    if args.levels_out:
        with open(args.levels_out, "w", encoding="utf-8") as fh:
            _emit({"section": "tracks"} | meta, track_cols, track_rows, "csv", fh)
    if args.format == "json":
        doc = {"metadata": meta, "events": {"columns": columns, "rows": rows}}
        if not args.levels_out:
            doc["tracks"] = {"columns": track_cols, "rows": track_rows}
        json.dump(doc, out, indent=1)
        out.write("\n")
    else:
        _emit(meta, columns, rows, "csv", out)
        if not args.levels_out:
            out.write("\n")
            _emit({"section": "tracks"}, track_cols, track_rows, "csv", out)
    return EXIT_OK


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "compare": cmd_compare,
    "pathological": cmd_pathological,
    "bound": cmd_bound,
    "scan": cmd_scan,
}


def main(argv: list[str] | None = None, out=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        argv = _load_config_args(argv)
    except (OSError, ValueError) as exc:
        print(f"rabicf: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    if getattr(args, "parity", None):
        args.parity = PARITIES[args.parity]
    try:
        return _COMMANDS[args.command](args, out)
    except (DegenerateScanError, PoleSeparationError, TooFewLevelsError, ValueError,
            OSError) as exc:
        print(f"rabicf: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RabiSolverError as exc:
        print(f"rabicf: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ArithmeticError as exc:
        print(f"rabicf: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
