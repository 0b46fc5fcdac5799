"""Root localization and the parameter-scan crossing detector.

Both continued fractions find their roots through one driver,
``counted_roots``: the grid cells of one plain window over which a root
count rises (``secular_count`` for method a, cuts of the pole lattice
E = k w - g^2/w included; ``pole_count`` for method b) are brackets, one
per root.  Each is halved by count toward its own root number until the
piece holds that root alone, and bisected on the sign of a function with
no pole in it: P_N for method a, D_0 for method b.

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
from .errors import DegenerateScanError, LostBracketError
from .model import ModelParams, Parity, TruncationOrder, build_chain, checked_tol
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

    ``count`` maps the array of samples to an integer array in one call,
    the number of roots at or below each sample; a cell over which the
    count rises by k is its bracket k times, each with the counts at its
    two samples.  Brackets come in sample order, so the first k hold the
    k lowest roots: a caller refines every bracket returned.  A negative
    ``levels`` is a ValueError.
    """
    if levels is not None and levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    lo, hi = checked_window(window)
    xs = np.linspace(lo, hi, checked_grid(grid))
    cells = np.repeat(np.arange(grid - 1), np.diff(counts := count(xs)))[:levels]
    return BracketScan(brackets=tuple(zip(xs[cells].tolist(), xs[cells + 1].tolist())),
                       counts=tuple(zip(counts[cells].tolist(), counts[cells + 1].tolist())))


def bisect_sign(f, lo: float, hi: float, tol: float) -> float:
    """Bisection for the root of ``f`` in (lo, hi] using only its sign;
    robust for functions whose magnitude jumps (rescaled determinant
    mantissas).  A zero at ``hi`` is the root; one at ``lo`` belongs to the
    cell below, so halving goes on to the sign change above it.  Halving
    stops at width ``tol``, or earlier once lo and hi are adjacent floats.
    A NaN value of ``f`` loses the bracket (LostBracketError)."""
    flo = f(lo)
    if (fhi := f(hi)) == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi) or flo != flo or fhi != fhi:
        raise LostBracketError(f"no sign change over ({lo!r}, {hi!r}): f = {flo!r}, {fhi!r}")
    below = np.sign(flo) or -np.sign(fhi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fm != fm:
            raise LostBracketError(f"f is NaN at {mid!r} in ({lo!r}, {hi!r})")
        if np.sign(fm) == below:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def counted_roots(count, f, window: tuple[float, float], grid: int, levels: int | None,
                  tol: float) -> list[tuple[float, float | None]]:
    """The lowest ``levels`` roots in ``window`` (all when None), ascending,
    as (root, width) pairs.  ``count`` gives the number of roots at or below
    each energy of an array or at a float; ``f`` changes sign at each root
    and nowhere else.  Bracket i holds root number count(window[0]) + 1 + i,
    which ``_isolate`` halves toward by count; the piece left holding it
    alone is bisected on ``f`` down to ``tol`` (width None), and one still
    holding other roots at ``tol`` is a root at its midpoint, with its width."""
    scan = bracket_roots(count, window, grid, levels)
    found: list[tuple[float, float | None]] = []
    for i, (bracket, ends) in enumerate(zip(scan.brackets, scan.counts)):
        a, b, alone = _isolate(count, *bracket, *ends, scan.counts[0][0] + 1 + i, tol)
        found.append((bisect_sign(f, a, b, tol), None) if alone else (0.5 * (a + b), b - a))
    return found


def _isolate(count, lo, hi, c_lo, c_hi, k, tol) -> tuple[float, float, bool]:
    """The piece (a, b, alone) of (lo, hi] that holds root number ``k``,
    with c_lo < k <= c_hi the counts at its ends, halved by ``count``
    toward that root until it holds no other root (alone), or until it is
    ``tol`` wide or cannot be split (not alone)."""
    while c_hi - c_lo > 1 and hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if (c_mid := count(mid)) >= k:
            hi, c_hi = mid, c_mid
        else:
            lo, c_lo = mid, c_mid
    return lo, hi, c_hi - c_lo == 1


def default_window(params: ModelParams, levels: int) -> tuple[float, float]:
    """Envelope window holding at least ``levels`` low-lying states: the
    g = 0 and delta = 0 exact spectra bound the sweep."""
    lo = -params.g**2 / params.omega - params.delta - params.omega
    hi = (levels + 2) * params.omega
    return lo, hi


def default_order(params: ModelParams, levels: int, window: tuple[float, float]) -> int:
    """Default truncation order of every route (methods a and b, the oracle,
    the scan): twice the tail-depth bound at the largest |E| of ``window``,
    which grows with g^2/w^2, with floors of 4*levels and DEFAULT_ORDER.
    ValueError above MAX_DEFAULT_ORDER."""
    emax = max(abs(window[0]), abs(window[1]))
    order = max(2 * tail_depth_bound(emax, params), 4 * levels, DEFAULT_ORDER)
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
    and the sign of the pole-free P_N (``pair_secular``), down to
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
    """Spectrum envelope over the whole sweep (widest chain wins)."""
    p = replace(base, **{parameter: vmax})
    ends = [gershgorin_interval(build_chain(p, parity, order)) for parity in Parity]
    return min(lo for lo, _ in ends), max(hi for _, hi in ends)


def _batch_tables(base, parameter, values, sign, order):
    """(diag, off2) tables of shape (S, order+1) / (S, order) of the parity
    chain ``sign`` at each scanned value: :func:`build_chain`'s diagonal and
    g**2 * j, as broadcast views."""
    j = np.arange(order + 1, dtype=float)
    scanned = values[:, None]
    g, delta = (scanned, base.delta) if parameter == "g" else (base.g, scanned)
    diag = j * base.omega + sign * ((-1.0) ** j) * delta
    off2 = g**2 * j[1:]
    return (np.broadcast_to(diag, (len(values), order + 1)),
            np.broadcast_to(off2, (len(values), order)))


def _spectra_at(base, parameter, values, levels, order, tol, interval):
    """(S, levels) eigenvalue tables for both parities, batched over the
    scan, every chain bisected from the same spectrum ``interval``."""
    return tuple(eigenvalues_batch(*_batch_tables(base, parameter, values, parity.sign, order),
                                   levels, tol, interval) for parity in Parity)


def _refine_events(base, parameter, a_idx, b_idx, lo, hi, e_lo, e_hi, order, tol,
                   value_tol, interval):
    """Refine all detected crossings together by ITP on the gap
    E_a^+ - E_b^- over the scan parameter (Oliveira & Takahashi, ACM TOMS
    47(1), 2020), down to a bracket of width ``value_tol``.

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
        diag, off2 = (np.concatenate(t) for t in zip(*tables))
        energies = eigenvalues_rows(diag, off2, np.concatenate([a_idx[sel], b_idx[sel]]),
                                    cell, interval, guess_lo.T.ravel(), guess_hi.T.ravel())
        return energies.reshape(2, -1).T

    # orient every gap to rise from lo to hi
    orient = -np.sign(e_lo[:, 0] - e_lo[:, 1])
    f_lo = orient * (e_lo[:, 0] - e_lo[:, 1])
    f_hi = orient * (e_hi[:, 0] - e_hi[:, 1])
    kappa1 = ITP_KAPPA1 / (hi - lo)
    n_max = np.ceil(np.log2((hi - lo) / value_tol)) + ITP_N0
    steps = np.zeros(len(lo), dtype=int)
    while True:
        sel = np.flatnonzero(hi - lo > value_tol)
        if not len(sel):
            break
        a, b, fa, fb = lo[sel], hi[sel], f_lo[sel], f_hi[sel]
        width, mid = b - a, 0.5 * (a + b)
        reach = 0.5 * value_tol * 2.0 ** (n_max[sel] - steps[sel]) - 0.5 * width
        falsi = (b * fa - a * fb) / (fa - fb)
        toward = np.sign(mid - falsi)
        shift = kappa1[sel] * width * width
        trial = np.where(shift <= np.abs(mid - falsi), falsi + toward * shift, mid)
        x = np.where(np.abs(trial - mid) <= reach, trial, mid - toward * reach)
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
        order = default_order(top, levels, default_window(top, levels))
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
