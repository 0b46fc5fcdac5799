"""Root localization for both continued fractions.

Both continued fractions find their roots through one driver,
``counted_roots``: the grid cells of one plain window over which a root
count rises (``secular_count`` for method a, cuts of the pole lattice
E = k w - g^2/w included; ``pole_count`` for method b) are brackets, one
per root.  The count is monotone, so ``bracket_roots`` counts a coarse
grid first and every sample only inside the coarse cells whose count
rises and that can hold a wanted root.  All brackets of a request then
narrow together by count down their bisection trees, 15 nodes a bracket in
one count call a sweep: first to the piece that holds the bracket's own
root alone, then 16 levels below it.  ITP (``bisect_sign``) refines each
piece from the cell reached, on a function with no pole in it: P_N for
method a, D_0 or a leading minor with its sign for method b (``refine``).

The parameter scan and its crossing detector are in ``rabicf.scan``, which
runs the oracle; ``CrossingEvent``, ``ScanResult`` and ``scan_levels`` are
bound here on first use (PEP 562), so that method a loads neither the scan
nor the oracle.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .errors import LevelSpacingError, LostBracketError
from .model import (DEFAULT_GRID, DEFAULT_REFINE_TOL, EnergyLevel, ModelParams, SpectralMethod,
                    SpectrumApproximation, TruncationOrder, checked_grid, checked_window,
                    pole_guard, record)

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

# Levels of every bracket's bisection tree that one count of the lockstep
# narrowing reads: 2**NARROW_LEVELS - 1 nodes a bracket a sweep.
NARROW_LEVELS = 4

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
    ``levels`` is a ValueError.

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
    fine = ends[1:] != ends[:-1]  # a falling cell too, which np.repeat refuses below
    if levels is not None:
        fine &= ends[:-1] < ends[0] + levels
    counts = np.repeat(ends, np.diff(coarse, append=grid))
    inside = np.repeat(fine, np.diff(coarse))
    inside[coarse[:-1]] = False
    if (inside := np.flatnonzero(inside)).size:
        counts[inside] = count(xs[inside])
    cells = np.repeat(np.arange(grid - 1), np.diff(counts))[:levels]
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
                start: tuple[int, int] | None = None) -> float:
    """The root of ``f`` in (lo, hi] that sign bisection finds (a zero at
    ``hi``, not at ``lo``; one met on the way; else the midpoint of the cell
    holding the sign change once ``tol`` wide or adjacent floats), in fewer
    steps: ITP on the indices of the tree's nodes, down to cells ``tol`` (or
    128 ulps) wide, reading a ``recurrence.Scaled`` as float * 2**exponent.
    NaN raises LostBracketError.  ``bench/`` traces one call a bracket by this name.

    ``start`` = (level, index) is a cell of that tree (``_tree_cell``), such
    as the one ``counted_roots`` narrows to by count.  ITP then starts from
    its ends and descends to each node from it, on the depth of the tree of
    (lo, hi); where ``f`` shows no sign change over it (opposite signs, or a
    zero at its upper end alone), the whole of (lo, hi) is refined."""
    depth = _tree_depth(lo, hi, tol)
    if start is not None:
        a, b = _tree_cell(lo, hi, *start)
        fa, fb = f(a), f(b)
        if fa == fa and fb == fb and fa != 0.0 and (fb == 0.0 or (fa > 0.0) != (fb > 0.0)):
            return _itp_nodes(f, a, b, fa, fb, max(0, depth - start[0]), 2.0**depth, tol)
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
    Every bracket then narrows by count toward its root, down its bisection
    tree, all in lockstep (``_narrow``).  The first cell whose ends' counts
    differ by one is its piece, which holds that root alone.  The piece
    narrows NARROW_DEPTH levels further, and ``bisect_sign`` refines it on
    ``f`` down to ``tol`` from the cell reached (width None); ``refine``, when
    given, stands in for ``bisect_sign`` there, called as it is, so that a
    caller can refine each piece on a cheaper function of f's sign.  A piece still
    holding other roots at ``tol`` is a root at its midpoint, with its
    width; so is a piece on which the refinement finds no sign change
    (LostBracketError), once halved by count down to ``tol`` (or to adjacent
    floats) toward the count's step: at a root pair closer than a few ulps,
    such as an exponentially close parity doublet, the count and the sign of
    f may part by rounding.  One that holds several roots and cannot be
    halved although wider than ``tol`` (its midpoint is an end, or
    overflows) raises LevelSpacingError: those roots lie closer than the
    float spacing there, and would not come out strictly increasing."""
    found: list[tuple[float, float | None]] = []
    for (a, b), start in _narrow(count, bracket_roots(count, window, grid, levels), tol):
        if start is not None:
            try:
                found.append(((refine or bisect_sign)(f, a, b, tol, start=start), None))
                continue
            except LostBracketError:  # no sign change of f over the piece: narrow by count
                c_a = int(count(np.array([a]))[0])
                while b - a > tol and a < (m := 0.5 * (a + b)) < b:
                    a, b = (a, m) if count(np.array([m]))[0] > c_a else (m, b)
        elif b - a > tol:
            raise LevelSpacingError(f"levels in ({a!r}, {b!r}] lie closer together than "
                                    "halving can separate: below the float spacing there")
        found.append((0.5 * (a + b), b - a))
    return found


def _narrow(count, scan: BracketScan, tol: float) -> list:
    """For each bracket of ``scan``, its piece (a, b) and the (level, index) of
    the cell of the piece's tree NARROW_DEPTH levels down (fewer in a
    shallower tree) that holds the root; or the cell, still holding other
    roots, where halving stopped, and None.

    Each sweep forms the 2**NARROW_LEVELS - 1 nodes below every unfinished
    bracket's cell by halving, counts them all in one call, and descends
    each bracket by the counts as halving by count one node at a time
    would: toward root number k, into the half whose upper end counts k or
    more; the piece is the first cell whose ends' counts differ by one.  A
    bracket stops short of its piece at ``tol`` wide or where its midpoint
    is one of its ends.

    A bracket's state is a namespace: its cell (lo, hi] with the counts
    c_lo and c_hi at both ends and the root number k it narrows toward;
    once found, its piece, the levels below it to narrow to (target), and
    the cell reached as (level, index) of the piece's tree."""
    first = scan.counts[0][0] if scan.counts else 0
    state = [SimpleNamespace(lo=a, hi=b, c_lo=c_lo, c_hi=c_hi, k=first + 1 + i, piece=None,
                             target=0, level=0, index=0)
             for i, ((a, b), (c_lo, c_hi)) in enumerate(zip(scan.brackets, scan.counts))]
    result: list = [None] * len(state)
    leaves = 2**NARROW_LEVELS
    while todo := [i for i, out in enumerate(result) if out is None]:
        ends = np.empty((len(todo), leaves + 1))
        ends[:, 0], ends[:, leaves] = [state[i].lo for i in todo], [state[i].hi for i in todo]
        with np.errstate(over="ignore"):  # ends beyond 2**1023 halve to inf, as floats do
            for step in (leaves >> j for j in range(NARROW_LEVELS)):
                ends[:, step // 2::step] = 0.5 * (ends[:, :-(step // 2):step] + ends[:, step::step])
        for i, e, c in zip(todo, ends.tolist(), count(ends[:, 1:-1]).tolist()):
            s = state[i]
            c = [s.c_lo, *c, s.c_hi]
            at, span = 0, leaves
            while True:
                a, b = e[at], e[at + span]
                if s.piece is None and c[at + span] - c[at] == 1:  # alone: the piece
                    s.piece, s.target = (a, b), min(NARROW_DEPTH, _tree_depth(a, b, tol))
                if s.piece is not None and s.level == s.target:
                    result[i] = s.piece, (s.level, s.index)
                    break
                if span == 1:  # the next sweep goes on from this cell
                    s.lo, s.hi, s.c_lo, s.c_hi = a, b, c[at], c[at + 1]
                    break
                mid = at + span // 2
                if s.piece is None and not (b - a > tol and a < e[mid] < b):
                    result[i] = (a, b), None
                    break
                right = c[mid] < s.k
                if s.piece is not None:
                    s.level, s.index = s.level + 1, 2 * s.index + right
                at, span = (mid if right else at), span // 2
    return result


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
