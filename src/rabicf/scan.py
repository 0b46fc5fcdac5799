"""The parameter scan and its crossing detector.

``scan_levels`` tracks the oracle eigenvalues of both parity chains across
a coupling (g) or splitting (delta) sweep, batched over the scan points
(``tridiag.eigenvalues_batch``), and records every inter-parity crossing
together with the deviation of the shifted energy x* = E* + g*^2/w from the
nearest integer multiple of w.  Crossings are refined by ITP on the gap
(``search._itp_point``, the rule of the root refinement), each step solving
only the two levels involved from warm-started brackets.

Only a scan loads this module, and with it the oracle: ``rabicf.search``
binds ``CrossingEvent``, ``ScanResult`` and ``scan_levels`` on first use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateScanError, RabiSolverError
from .model import (DEFAULT_EIG_TOL, DEFAULT_REFINE_TOL, ModelParams, Parity, TruncationOrder,
                    build_chain, chain_diagonal, checked_tol, default_order, default_window,
                    record)
from .search import _itp_point
from .tridiag import StepTable, eigenvalues_batch, eigenvalues_rows, lattice_cell

__all__ = ["CrossingEvent", "ScanResult", "scan_levels"]

# The crossing refinement reads the gap E_a^+ - E_b^- on the tracks'
# energy lattice halved this many times (2**-37 -> 2**-44 at omega = 1
# and the default tol).  On the tracks' own the gap is quantised near a
# crossing and regula falsi stalls.
FINE_HALVINGS = 7


@record
class CrossingEvent:
    """An inter-parity level crossing found during a parameter scan."""

    value: float
    energy: float
    plus_level: int
    minus_level: int
    shifted: float
    nearest_multiple: int
    deviation: float


@record
class ScanResult:
    order: TruncationOrder
    values: np.ndarray
    plus_levels: np.ndarray
    minus_levels: np.ndarray
    events: tuple[CrossingEvent, ...]


def _params_at(base: ModelParams, parameter: str, value: float) -> ModelParams:
    """``base`` with the scanned ``parameter`` ("g" or "delta") at ``value``."""
    if parameter == "g":
        return ModelParams(base.omega, value, base.delta)
    return ModelParams(base.omega, base.g, value)


def _sweep_interval(base, parameter, vmax, order) -> tuple[float, float]:
    """Spectrum envelope over the whole sweep (widest chain wins).  A
    squared coupling a_j = j g^2 that overflows there raises RabiSolverError."""
    p = _params_at(base, parameter, vmax)
    if not math.isfinite(p.g * p.g * order):
        raise RabiSolverError(f"scan: a squared coupling a_j overflows at "
                              f"g = {p.g!r}, order {order}")
    ends = [build_chain(p, parity, order).gershgorin for parity in Parity]
    return min(lo for lo, _ in ends), max(hi for _, hi in ends)


def _batch_tables(base, parameter, values, sign, order):
    """Step-major (diag, off2) tables, (order+1, S) and (order, S), of the
    parity chain ``sign`` (one for all, or one a chain) at each scanned
    value: :func:`build_chain`'s ``chain_diagonal`` and g**2 * j, as
    :class:`StepTable`s built only as deep as the sweeps read.  Their keys
    are sign*delta and g**2, in which fl(j*omega +- delta) and fl(j*g**2)
    are monotone."""
    j = np.arange(order + 1, dtype=float)
    g, delta = (values, base.delta) if parameter == "g" else (base.g, values)
    return (StepTable(lambda j, sd: chain_diagonal(j, base.omega, 1.0, sd), j, sign * delta,
                      np.shape(values)),
            StepTable(lambda j, g2: g2 * j, j[1:], g**2, np.shape(values)))


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
        diag, off2 = _batch_tables(base, parameter, np.concatenate([x, x]),
                                   np.repeat([parity.sign for parity in Parity], len(x)), order)
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
        top = _params_at(params_base, parameter, max(abs(start), abs(stop)))
        try:
            window = default_window(top, levels)
        except RabiSolverError:  # a scan takes no --window
            raise RabiSolverError(f"scan: the default window overflows at {parameter} = "
                                  f"{getattr(top, parameter)!r}; pass --order") from None
        order = default_order(top, levels, window)
    if order is not None and order < 0:
        raise ValueError("order must be >= 0")
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
