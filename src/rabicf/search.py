"""Root localization and the parameter-scan crossing detector.

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

The crossing scan tracks oracle eigenvalues of both parity chains across a
coupling sweep and records every inter-parity crossing together with the
deviation of the shifted energy x* = E* + g*^2/w from the nearest integer
multiple of w.  Crossings are refined by ITP on the gap, each step solving
only the two levels involved from warm-started brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .convergence import tail_depth_bound
from .errors import DegenerateScanError, LevelSpacingError, LostBracketError, RabiSolverError
from .model import ModelParams, Parity, TruncationOrder, build_chain, chain_diagonal, checked_tol
from .schweber import pair_secular, pole_guard, secular_count, spectral_function_a
from .tridiag import (
    DEFAULT_EIG_TOL,
    EnergyLevel,
    SpectralMethod,
    SpectrumApproximation,
    eigenvalues_batch,
    eigenvalues_rows,
    gershgorin_interval,
    lattice_cell,
)

__all__ = [
    "BracketScan",
    "bracket_roots",
    "bisect_sign",
    "counted_roots",
    "MethodAResult",
    "solve_method_a",
    "default_window",
    "default_order",
    "CrossingEvent",
    "ScanResult",
    "scan_levels",
]

DEFAULT_GRID = 2000

# Floor of every default truncation order (``default_order``).
DEFAULT_ORDER = 300

# Largest default truncation order: above it every route would allocate
# chains of millions of sites, so an explicit order is required.
MAX_DEFAULT_ORDER = 10**6

# Root refinement width, relative to omega.
DEFAULT_REFINE_TOL = 1e-12

# The crossing refinement reads the gap E_a^+ - E_b^- on the tracks'
# energy lattice halved this many times (2**-37 -> 2**-44 at omega = 1
# and the default tol).  On the tracks' own the gap is quantised near a
# crossing and regula falsi stalls.
FINE_HALVINGS = 7

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


@dataclass(frozen=True)
class BracketScan:
    """Root brackets of a counted function, in sample order, with the
    count at both ends of each: a cell over which the count rises by k
    appears k times in both."""

    brackets: tuple[tuple[float, float], ...]
    counts: tuple[tuple[int, int], ...]


def checked_window(window) -> tuple[float, float]:
    """``window`` as two floats, lo < hi, both finite; ValueError otherwise."""
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid window {window!r}")
    return lo, hi


def checked_grid(grid: int) -> int:
    """``grid`` when it holds at least 2 samples; ValueError otherwise."""
    if grid < 2:
        raise ValueError(f"--grid {grid} is too small: at least 2 samples are needed")
    return grid


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
    width.  One that holds several roots and cannot be halved although wider
    than ``tol`` (its midpoint is an end, or overflows) raises
    LevelSpacingError: those roots lie closer than the float spacing there,
    and would not come out strictly increasing."""
    found: list[tuple[float, float | None]] = []
    for (a, b), start in _narrow(count, bracket_roots(count, window, grid, levels), tol):
        if start is not None:
            found.append(((refine or bisect_sign)(f, a, b, tol, start=start), None))
        elif b - a > tol:
            raise LevelSpacingError(f"levels in ({a!r}, {b!r}] lie closer together than "
                                    "halving can separate: below the float spacing there")
        else:
            found.append((0.5 * (a + b), b - a))
    return found


@dataclass
class _Narrowing:
    """A bracket of ``_narrow``: its cell (lo, hi] with the counts at both
    ends and the root number k it narrows toward; once found, its piece, the
    levels below it to narrow to, and the cell reached as (level, index) of
    the piece's tree."""

    lo: float
    hi: float
    c_lo: int
    c_hi: int
    k: int
    piece: tuple[float, float] | None = None
    target: int = 0
    level: int = 0
    index: int = 0


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
    is one of its ends."""
    first = scan.counts[0][0] if scan.counts else 0
    state = [_Narrowing(a, b, c_lo, c_hi, first + 1 + i)
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


def default_window(params: ModelParams, levels: int) -> tuple[float, float]:
    """Envelope window holding at least ``levels`` low-lying states: the
    g = 0 and delta = 0 exact spectra bound the sweep.  RabiSolverError
    where an end overflows."""
    try:
        lo = -params.g**2 / params.omega - params.delta - params.omega
        hi = (levels + 2) * params.omega
    except OverflowError:
        lo = hi = math.inf
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise RabiSolverError(f"the default window overflows at omega = {params.omega!r}, "
                              f"g = {params.g!r}, delta = {params.delta!r}; pass --window")
    return lo, hi


def default_order(params: ModelParams, levels: int, window: tuple[float, float]) -> int:
    """Default truncation order of every route (methods a and b, the oracle,
    the scan): twice the tail-depth bound at the largest |E| of ``window``,
    which grows with g^2/w^2, with floors of 4*levels and DEFAULT_ORDER.
    ValueError above MAX_DEFAULT_ORDER, a bound that overflows included."""
    emax = max(abs(window[0]), abs(window[1]))
    try:
        order = max(2 * tail_depth_bound(emax, params), 4 * levels, DEFAULT_ORDER)
    except (OverflowError, ValueError):  # ceil of an inf or NaN bound
        if not math.isfinite(emax):
            raise
        order = math.inf
    if order > MAX_DEFAULT_ORDER:
        raise ValueError(f"the default truncation order {order} exceeds {MAX_DEFAULT_ORDER}; "
                         "pass --order")
    return order


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CrossingEvent:
    """An inter-parity level crossing found during a parameter scan."""

    value: float
    energy: float
    plus_level: int
    minus_level: int
    shifted: float
    nearest_multiple: int
    deviation: float


@dataclass(frozen=True)
class ScanResult:
    order: TruncationOrder
    values: np.ndarray
    plus_levels: np.ndarray
    minus_levels: np.ndarray
    events: tuple[CrossingEvent, ...]


def _sweep_interval(base, parameter, vmax, order) -> tuple[float, float]:
    """Spectrum envelope over the whole sweep (widest chain wins).  A
    squared coupling a_j = j g^2 that overflows there raises RabiSolverError."""
    p = replace(base, **{parameter: vmax})
    if not math.isfinite(p.g * p.g * order):
        raise RabiSolverError(f"scan: a squared coupling a_j overflows at "
                              f"g = {p.g!r}, order {order}")
    ends = [gershgorin_interval(build_chain(p, parity, order)) for parity in Parity]
    return min(lo for lo, _ in ends), max(hi for _, hi in ends)


def _batch_tables(base, parameter, values, sign, order):
    """Step-major (diag, off2) tables of shape (order+1, S) / (order, S) of
    the parity chain ``sign`` at each scanned value: :func:`build_chain`'s
    ``chain_diagonal`` and g**2 * j, as broadcast views."""
    j = np.arange(order + 1, dtype=float)[:, None]
    g, delta = (values, base.delta) if parameter == "g" else (base.g, values)
    diag = chain_diagonal(j, base.omega, sign, delta)
    off2 = g**2 * j[1:]
    return (np.broadcast_to(diag, (order + 1, len(values))),
            np.broadcast_to(off2, (order, len(values))))


def _spectra_at(base, parameter, values, levels, order, tol, interval):
    """(S, levels) eigenvalue tables for both parities, batched over the
    scan, every chain bisected from the same spectrum ``interval``."""
    return tuple(eigenvalues_batch(*_batch_tables(base, parameter, values, parity.sign, order),
                                   levels, tol, interval) for parity in Parity)


def _refine_events(base, parameter, a_idx, b_idx, lo, hi, e_lo, e_hi, order, tol,
                   value_tol, interval):
    """Refine all detected crossings together by ITP (``_itp_point``) on
    the gap E_a^+ - E_b^- over the scan parameter, down to a bracket of
    width ``value_tol``.

    Row r is the level pair (a_idx[r], b_idx[r]) bracketed by the scan
    points lo[r] < hi[r], with e_lo[r] and e_hi[r] the (E_a^+, E_b^-) pair
    of the level tracks there; the four bracket arrays narrow in place.
    Each step solves only those two levels of every unfinished row, on the
    ``tol`` lattice refined FINE_HALVINGS times, from Weyl brackets around
    the values at the row's current ends: no level moves faster than
    ||dH/dv||_2 in the parameter.
    A gap that reads exactly 0 ends its row at that point.  The crossing
    energy is solved on the tracks' ``tol`` lattice at the final midpoint,
    bit for bit what :func:`_spectra_at` gives there.  Returns the crossing
    values, their energies and the ITP steps each row took.
    """
    lip = 2.0 * math.sqrt(order) if parameter == "g" else 1.0
    # Weyl keeps every level within lip*(hi-lo) of its track values, so no
    # step bisects a level larger than this down to the fine cell
    magnitude = float(np.max(np.abs([e_lo, e_hi]))) + lip * float(np.max(hi - lo))
    fine = lattice_cell(tol, FINE_HALVINGS, magnitude)

    def levels_at(x, sel, cell):
        # Weyl: |E(x) - E(v)| <= lip |x - v|; the tracked values are at most
        # half a tol cell off, which the tol slack covers
        reach_lo = lip * (x - lo[sel])[:, None]
        reach_hi = lip * (hi[sel] - x)[:, None]
        guess_lo = np.maximum(e_lo[sel] - reach_lo, e_hi[sel] - reach_hi) - tol
        guess_hi = np.minimum(e_lo[sel] + reach_lo, e_hi[sel] + reach_hi) + tol
        tables = [_batch_tables(base, parameter, x, parity.sign, order) for parity in Parity]
        diag, off2 = (np.concatenate(t, axis=1) for t in zip(*tables))
        energies = eigenvalues_rows(diag, off2, np.concatenate([a_idx[sel], b_idx[sel]]),
                                    cell, interval, guess_lo.T.ravel(), guess_hi.T.ravel())
        return energies.reshape(2, -1).T

    # orient every gap to rise from lo to hi
    orient = -np.sign(e_lo[:, 0] - e_lo[:, 1])
    f_lo = orient * (e_lo[:, 0] - e_lo[:, 1])
    f_hi = orient * (e_hi[:, 0] - e_hi[:, 1])
    w0, steps = hi - lo, np.zeros(len(lo), dtype=int)
    while len(sel := np.flatnonzero(hi - lo > value_tol)):
        x = _itp_point(lo[sel], hi[sel], f_lo[sel], f_hi[sel], w0[sel], value_tol, steps[sel])
        e_x = levels_at(x, sel, fine)
        f_x = orient[sel] * (e_x[:, 0] - e_x[:, 1])
        steps[sel] += 1
        # a gap of exactly 0 moves both ends onto x
        for keep, end, e_end, f_end in ((f_x >= 0.0, hi, e_hi, f_hi), (f_x <= 0.0, lo, e_lo, f_lo)):
            moved = sel[keep]
            end[moved], e_end[moved], f_end[moved] = x[keep], e_x[keep], f_x[keep]
    star = 0.5 * (lo + hi)
    e_star = levels_at(star, np.arange(len(lo)), tol)
    return star, 0.5 * (e_star[:, 0] + e_star[:, 1]), steps


def _crossing(base, parameter, a, b, value, energy) -> CrossingEvent:
    g = value if parameter == "g" else base.g
    shifted = energy + g * g / base.omega
    k = int(round(shifted / base.omega))
    return CrossingEvent(
        value=value,
        energy=energy,
        plus_level=a,
        minus_level=b,
        shifted=shifted,
        nearest_multiple=k,
        deviation=abs(shifted - k * base.omega),
    )


def scan_levels(
    params_base: ModelParams,
    parameter: str,
    start: float,
    stop: float,
    steps: int,
    levels: int,
    order: TruncationOrder | None = None,
    tol: float | None = None,
) -> ScanResult:
    """Track the lowest oracle eigenvalues of both parity chains across a
    parameter sweep and refine every inter-parity crossing.  ``order``
    defaults to ``default_order`` with the parameter at max(|start|, |stop|).

    Every sign change of a gap E_i^+ - E_j^- between adjacent scan points
    is one crossing event, for every level pair (tracking is by sorted
    order within each chain, which parity conservation keeps consistent),
    refined by ITP on the gap; nothing is merged.  A gap that is exactly
    zero on the first or last scan point, with a nonzero neighbour, is a
    crossing there.  Events come sorted by value, then level pair.
    """
    if parameter not in ("g", "delta"):
        raise ValueError(f"unsupported scan parameter {parameter!r}")
    if steps < 10:
        raise ValueError("steps must be >= 10")
    if order is None and math.isfinite(start) and math.isfinite(stop):  # nan/inf: refused below
        top = replace(params_base, **{parameter: max(abs(start), abs(stop))})
        try:
            window = default_window(top, levels)
        except RabiSolverError:  # a scan takes no --window
            raise RabiSolverError(f"scan: the default window overflows at {parameter} = "
                                  f"{getattr(top, parameter)!r}; pass --order") from None
        order = default_order(top, levels, window)
    if order is not None and not 1 <= levels <= order + 1:
        raise ValueError(f"levels must be in 1..{order + 1} at order {order}, got {levels}")
    if not (math.isfinite(start) and math.isfinite(stop) and start < stop):
        raise ValueError("invalid scan range")
    if parameter == "g" and params_base.delta == 0.0:
        raise DegenerateScanError(
            "delta=0 makes the parity chains identical: every pair is "
            "degenerate at every coupling"
        )
    if parameter == "delta" and start <= 0.0:
        raise DegenerateScanError("delta scan range must stay strictly positive")
    tol = checked_tol(tol, DEFAULT_EIG_TOL * params_base.omega)

    values = np.linspace(start, stop, steps)
    # the chains widen with |value|: a g scan may run over negative couplings
    interval = _sweep_interval(params_base, parameter, float(np.max(np.abs(values))), order)
    ep, em = _spectra_at(params_base, parameter, values, levels, order, tol, interval)

    # (a, b, i, j): the gap of plus level a and minus level b changes sign
    # between scan points i < j; (a, b, value, energy): a found crossing
    brackets: list[tuple[int, int, int, int]] = []
    found: list[tuple[int, int, float, float]] = []
    for a in range(levels):
        for b in range(levels):
            # a crossing on a scan point leaves an exact-zero gap there:
            # bracket across it from the nonzero neighbours
            gap = ep[:, a] - em[:, b]
            kept = np.flatnonzero(gap)
            s = np.sign(gap[kept])
            flips = np.nonzero(s[:-1] * s[1:] < 0)[0]
            brackets += [(a, b, i, j) for i, j in zip(kept[flips], kept[flips + 1])]
            # on an end point it has a neighbour on one side only; a zero
            # run that reaches an end stays unresolved, as one inside does
            for i, n in ((0, 1), (steps - 1, steps - 2)):
                if gap[i] == 0.0 and gap[n] != 0.0:
                    found.append((a, b, float(values[i]), float(ep[i, a])))

    if brackets:
        a, b, i, j = np.array(brackets).T
        value_tol = DEFAULT_REFINE_TOL * max(params_base.omega, abs(stop))
        stars, estars, _ = _refine_events(
            params_base, parameter, a, b, values[i], values[j],
            np.stack([ep[i, a], em[i, b]], axis=1), np.stack([ep[j, a], em[j, b]], axis=1),
            order, tol, value_tol, interval,
        )
        found += zip(a.tolist(), b.tolist(), stars.tolist(), estars.tolist())
    found.sort(key=lambda row: (row[2], row[0], row[1]))
    return ScanResult(
        order=order,
        values=values,
        plus_levels=ep,
        minus_levels=em,
        events=tuple(_crossing(params_base, parameter, *row) for row in found),
    )
