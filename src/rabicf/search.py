"""Root localization for both continued fractions.

Both continued fractions find their roots through one driver,
``counted_roots``: the grid cells of one plain window over which a root
count rises (``secular_count`` for method a, cuts of the pole lattice
E = k w - g^2/w included; ``pole_count`` for method b) are brackets, one
per root.  The count is monotone, so ``bracket_roots`` counts a coarse
grid first and every sample only inside the coarse cells whose count
rises and that can hold a wanted root.  All brackets of a request then
narrow together by count with the oracle's multisection (``model.multisect``):
to the piece that holds the bracket's own root alone, then 16 levels below
it.  ITP (``bisect_sign``) refines each piece from the cell reached, on a
function with no pole in it: P_N for method a, D_0 or a leading minor with
its sign for method b (``refine``).

The parameter scan and its crossing detector are in ``rabicf.scan``, which
runs the oracle; ``CrossingEvent``, ``ScanResult`` and ``scan_levels`` are
bound here on first use (PEP 562), so that method a loads neither the scan
nor the oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LevelSpacingError, LostBracketError, RabiSolverError
from .model import (DEFAULT_GRID, DEFAULT_REFINE_TOL, EnergyLevel, ModelParams, SpectralMethod,
                    SpectrumApproximation, TruncationOrder, checked_grid, checked_window,
                    multisect, pole_guard, record)

# solve_method_a imports schweber when it runs: method b and a scan never load it.

__all__ = [
    "BracketScan",
    "bracket_roots",
    "bisect_sign",
    "counted_roots",
    "MethodAResult",
    "solve_method_a",
    "CrossingEvent",
    "ScanResult",
    "scan_levels",
]

# Names defined in rabicf.scan, bound here when first read.
_SCAN_NAMES = ("CrossingEvent", "ScanResult", "scan_levels")

# The narrowing by count stops this many levels below each bracket's piece
# (cells 2**-16 of it), well short of the root, where the count's parity
# and the sign of f may part in floats; ITP on f takes the rest.
NARROW_DEPTH = 16

# ITP constants: kappa1 = ITP_KAPPA1 / (initial width), kappa2 = 2, n0.
ITP_KAPPA1 = 0.2
ITP_N0 = 1


@record
class BracketScan:
    """Root brackets of a counted function, in sample order, with the
    count at both ends of each: a cell over which the count rises by k
    appears k times in both."""

    brackets: tuple[tuple[float, float], ...]
    counts: tuple[tuple[int, int], ...]


def bracket_roots(count, window: tuple[float, float], grid: int,
                  levels: int | None = None) -> BracketScan:
    """Root brackets of a counted function over ``grid`` samples spanning
    ``window``: the first ``levels`` of them, or all when ``levels`` is None.

    ``count`` maps an array of samples to an integer array in one call,
    the number of roots at or below each sample; a cell over which the
    count rises by k is its bracket k times, each with the counts at its
    two samples.  Brackets come in sample order, so the first k hold the
    k lowest roots: a caller refines every bracket returned.  A negative
    ``levels`` is a ValueError, a count falling between samples a RabiSolverError.

    The count is monotone, so only samples that can move a bracket are
    counted: every isqrt(grid)-th sample and the last, then every sample
    inside the coarse cells whose count changes and that hold one of the
    lowest ``levels`` roots.  Every other cell holds its end count.  The
    brackets and counts are those of counting every sample.
    """
    if levels is not None and levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    lo, hi = checked_window(window)
    xs = np.linspace(lo, hi, checked_grid(grid))
    coarse = np.append(np.arange(0, grid - 1, math.isqrt(grid)), grid - 1)
    ends = count(xs[coarse])
    fine = ends[1:] != ends[:-1]  # a falling cell too, refused below
    if levels is not None:
        fine &= ends[:-1] < ends[0] + levels
    counts = np.repeat(ends, np.diff(coarse, append=grid))
    inside = np.repeat(fine, np.diff(coarse))
    inside[coarse[:-1]] = False
    if (inside := np.flatnonzero(inside)).size:
        counts[inside] = count(xs[inside])
    if (steps := np.diff(counts)).min() < 0:
        raise RabiSolverError(f"the root count falls between samples in {window!r}")
    cells = np.repeat(np.arange(grid - 1), steps)[:levels]
    return BracketScan(brackets=tuple(zip(xs[cells].tolist(), xs[cells + 1].tolist())),
                       counts=tuple(zip(counts[cells].tolist(), counts[cells + 1].tolist())))


def _itp_point(a, b, fa, fb, w0, tol, steps):
    """ITP's next point (Oliveira & Takahashi, ACM TOMS 47(1), 2020) for both
    refinements, elementwise: in (a, b) with fa, fb of opposite signs, ``w0``
    wide at first, ``steps`` taken toward width ``tol``, regula falsi truncated
    toward the midpoint, projected into the reach of ceil(log2(w0/tol)) + ITP_N0."""
    width, mid = b - a, 0.5 * (a + b)
    reach = 0.5 * tol * 2.0 ** (np.ceil(np.log2(w0 / tol)) + ITP_N0 - steps) - 0.5 * width
    falsi = (b * fa - a * fb) / (fa - fb)
    toward = np.sign(mid - falsi)
    shift = ITP_KAPPA1 / w0 * width * width
    trial = np.where(shift <= np.abs(mid - falsi), falsi + toward * shift, mid)
    return np.where(np.abs(trial - mid) <= reach, trial, mid - toward * reach)


def _tree_cell(lo: float, hi: float, level: int, index: int) -> tuple[float, float]:
    """Cell ``index`` (from 0, left to right) of the 2**level cells that
    halving (lo, hi) ``level`` times by 0.5*(lo + hi) makes.  Halving is
    deterministic, so a node is the same from whichever cell above it it is
    halved to."""
    for bit in range(level - 1, -1, -1):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if index >> bit & 1 else (lo, mid)
    return lo, hi


def _tree_depth(lo: float, hi: float, tol: float) -> int:
    """Levels of the bisection tree of (lo, hi) down to cells ``tol`` (or 128
    ulps) wide; at tol 0, the 128 ulps."""
    w, floor = hi - lo, 128 * math.ulp(max(-lo, hi))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # tol 0: to the floor
        return int(max(0, min(np.ceil(np.log2(np.divide(w, tol))), np.floor(np.log2(w / floor)))))


def bisect_sign(f, lo: float, hi: float, tol: float, *,
                start: tuple[float, float] | None = None) -> float:
    """The root of ``f`` in (lo, hi] that sign bisection finds (a zero at
    ``hi``, not at ``lo``; one met on the way; else the midpoint of the cell
    holding the sign change once ``tol`` wide or adjacent floats), in fewer
    steps: ITP on the indices of the tree's nodes, down to cells ``tol`` (or
    128 ulps) wide, reading a ``recurrence.Scaled`` as float * 2**exponent.
    NaN raises LostBracketError.  ``bench/`` traces one call a bracket by this name.

    ``start`` = (a, b) is a cell of that tree, as ``counted_roots`` narrows to
    by count.  ITP then starts from its ends, on the depth of the tree of (lo,
    hi); where ``f`` shows no sign change over it (opposite signs, or a zero
    at its upper end alone), the whole of (lo, hi) is refined."""
    depth = _tree_depth(lo, hi, tol)
    if start is not None:
        a, b = start
        fa, fb = f(a), f(b)
        if fa == fa and fb == fb and fa != 0.0 and (fb == 0.0 or (fa > 0.0) != (fb > 0.0)):
            below = depth - round(math.log2((hi - lo) / (b - a)))  # levels below (a, b)
            return _itp_nodes(f, a, b, fa, fb, max(0, below), 2.0**depth, tol)
    flo, fhi = f(lo), f(hi)
    if fhi != 0.0 and (np.sign(flo) == np.sign(fhi) or flo != flo or fhi != fhi):
        raise LostBracketError(f"no sign change over ({lo!r}, {hi!r}): f = {flo!r}, {fhi!r}")
    return _itp_nodes(f, lo, hi, flo, fhi, depth, 2.0**depth, tol)


def _itp_nodes(f, lo, hi, flo, fhi, depth, w0, tol) -> float:
    """``bisect_sign`` on the cell (lo, hi) of a tree cut ``depth`` levels
    below it, from f's values flo and fhi at its ends: ITP with the initial
    width ``w0`` of the whole tree, in units of the cells ``depth`` levels
    below (lo, hi)."""
    if fhi == 0.0:
        return hi
    cell, j = (lo, hi), 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ka, kb = 0, 2**depth
        while hi - lo > tol:
            if kb - ka == 1:  # one level down, where the midpoint is the only node
                depth, ka, kb = depth + 1, 2 * ka, 2 * kb
            d = getattr(fhi, "exponent", 0) - getattr(flo, "exponent", 0)  # to one exponent
            k = _itp_point(ka, kb, np.ldexp(flo, min(0, -d)), np.ldexp(fhi, min(0, d)), w0, 1, j)
            k = min(max(int(k + 0.5), ka + 1), kb - 1) if ka < k < kb else (ka + kb) // 2
            x = _tree_cell(*cell, depth, k)[0]  # node k
            if not lo < x < hi:
                break
            if (fx := f(x)) == 0.0:
                return x
            if fx != fx:
                raise LostBracketError(f"f is NaN at {x!r} in ({lo!r}, {hi!r})")
            if (fx > 0.0) == (fhi > 0.0):
                hi, fhi, kb = x, fx, k
            else:
                lo, flo, ka = x, fx, k
            j += 1
    return 0.5 * (lo + hi)


def counted_roots(count, f, window: tuple[float, float], grid: int, levels: int | None,
                  tol: float, refine=None) -> list[tuple[float, float | None]]:
    """The lowest ``levels`` roots in ``window`` (all when None), ascending,
    as (root, width) pairs.  ``count`` gives the number of roots at or below
    each energy of an array; ``f`` changes sign at each root and nowhere else.

    Bracket i of ``bracket_roots`` holds root number count(window[0]) + 1 + i.
    ``model.multisect`` narrows each by count to its piece, which holds that
    root alone, and NARROW_DEPTH levels below it; ``bisect_sign`` (or
    ``refine``, called as it is, on a cheaper function of f's sign) refines
    the piece on ``f`` down to ``tol`` from the cell reached (width None).  A
    bracket still holding other roots at ``tol`` is a root at its midpoint,
    with its width; so is a piece on which the refinement finds no sign
    change (LostBracketError), once multisected by count: at a root pair
    closer than a few ulps, such as a close parity doublet, the count and
    the sign of f may part by rounding.  Several roots in a bracket that
    cannot be halved although wider than ``tol`` (its midpoint is an end, or
    overflows) raise LevelSpacingError: they lie closer than the float spacing."""
    scan = bracket_roots(count, window, grid, levels)
    ends = np.reshape(scan.counts, (-1, 2)).T
    wanted = ends[0][:1] + np.arange(1, len(scan.brackets) + 1)
    found: list[tuple[float, float | None]] = []
    for k, lo, hi, a, b in zip(wanted, *(x.tolist() for x in multisect(
            count, wanted, *np.reshape(scan.brackets, (-1, 2)).T, tol,
            (*ends, lambda a, b: min(NARROW_DEPTH, _tree_depth(a, b, tol)))))):
        if a == a:  # the piece (a, b] holds root k alone
            try:
                found.append(((refine or bisect_sign)(f, a, b, tol, start=(lo, hi)), None))
                continue
            except LostBracketError:  # no sign change of f over the piece: narrow by count
                lo, hi = (x.item() for x in multisect(count, k, np.array([a]), np.array([b]), tol))
        elif hi - lo > tol:
            raise LevelSpacingError(f"levels in ({lo!r}, {hi!r}] lie closer together than "
                                    "halving can separate: below the float spacing there")
        found.append((0.5 * (lo + hi), hi - lo))
    return found


@record
class MethodAResult:
    spectrum: SpectrumApproximation


def solve_method_a(
    params: ModelParams,
    order: TruncationOrder,
    window: tuple[float, float],
    levels: int | None = None,
    grid: int = DEFAULT_GRID,
    eps_pole: float | None = None,
) -> MethodAResult:
    """Locate the lowest ``levels`` coefficient-method roots in a window
    (all of them when None); only their brackets are refined.

    ``counted_roots`` finds them on the root count of W_N (``secular_count``)
    and ITP on the pole-free P_N (``pair_secular``), down to
    DEFAULT_REFINE_TOL * omega.  The residual is |f_0 - F_N|, infinite
    within ``eps_pole`` of a cut (checked before solving), or the width of
    a piece still holding several roots at that tolerance.  Fewer than
    ``levels`` roots come back when the window holds fewer.  GZeroError at
    g = 0 and DeltaZeroError at delta = 0 come from ``secular_count``.
    """
    from .schweber import pair_secular, secular_count, spectral_function_a

    guard = pole_guard(params, eps_pole)
    roots = counted_roots(lambda e: secular_count(e, params, order),
                          lambda e: pair_secular(e, params, order), window, grid, levels,
                          DEFAULT_REFINE_TOL * params.omega)
    found: list[EnergyLevel] = []
    for root, residual in roots:
        if residual is None:
            res = spectral_function_a(root, params, order, guard)
            residual = abs(res.value) if res.converged else math.inf
        found.append(EnergyLevel(index=len(found), energy=root, residual=residual))
    return MethodAResult(SpectrumApproximation.from_levels(
        SpectralMethod.METHOD_A, None, order, found, params.omega
    ))


def __getattr__(name: str):
    """A name of ``_SCAN_NAMES``, from ``rabicf.scan``, bound here once read."""
    if name not in _SCAN_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import scan

    value = globals()[name] = getattr(scan, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SCAN_NAMES})
