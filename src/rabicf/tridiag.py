"""Sturm-sequence bisection eigensolver for the truncated parity chains.

This is the oracle against which both continued-fraction methods are
cross-validated.  It deliberately shares no code path with them: counting
negative pivots of the LDL^T factorization of ``T - E`` gives the number of
eigenvalues below E, and bisection on that count brackets each eigenvalue.

Bisection brackets are snapped outward to a power-of-two lattice, so every
endpoint is an exact dyadic number.  Results are then bit-reproducible at a
fixed tolerance, independent of truncation order: any two chains that agree
on an eigenvalue far below the tolerance return the identical float.

A few brackets take up to four halvings per pivot sweep (dyadic
multisection, as in LAPACK ``dstebz``; Demmel, *Applied Numerical Linear
Algebra*, 5.3), the thousands of a parameter scan's tracks one, and all
end in the cell that bisection reaches wherever the count is monotone.

A pivot sweep runs over step-major tables, diag (n+1, ...) and off2
(n, ...), a block of chain steps at a time with two in-place numpy calls a
step.  The PIVMIN rule is checked once a block and a block is run again
only from the first pivot within PIVMIN of zero, as in LAPACK ``dlaneg``:
the count is the per-step rule's, bit for bit, whose monotonicity Demmel,
Dhillon and Ren analyse (ETNA 3, 1995).

A sweep stops at the end of a block once the rest of every chain is
diagonally dominant above its largest energy, read from one floor a step,
and every lane's last pivot can start an induction: the paper's Pringsheim
criterion, site by site, tested as in both continued-fraction counts.
Beyond that block no pivot can reach PIVMIN, so the count is the full
sweep's, bit for bit; low levels of long chains are settled within the
first block.  Bisection starts each level k at the Gershgorin upper end
of the leading k x k block, an upper bound by Cauchy interlacing that needs
no count, and ends in the lattice cell that the whole spectrum interval
gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import TooFewLevelsError
from .model import ChainCoefficients, Parity, TruncationOrder, checked_tol, range_scale

__all__ = [
    "SpectralMethod",
    "EnergyLevel",
    "SpectrumApproximation",
    "sturm_count",
    "eigenvalues",
    "DEFAULT_EIG_TOL",
]

# Default bisection width, relative to omega.
DEFAULT_EIG_TOL = 1e-11

# Gap below which two levels are flagged as a near-degenerate pair,
# relative to omega.
NEAR_DEGENERATE_GAP = 1e-10

# Pivots at or below PIVMIN count as negative, and those in (-PIVMIN,
# PIVMIN] continue as -PIVMIN, the usual bisection convention: an exactly
# singular leading submatrix counts as an eigenvalue below E.  Small
# enough never to matter at physical scales, large enough that
# a_j / PIVMIN cannot overflow for any representable chain.
PIVMIN = 1e-290


class SpectralMethod(Enum):
    METHOD_A = "a"
    METHOD_B = "b"
    ORACLE = "oracle"


@dataclass(frozen=True)
class EnergyLevel:
    index: int
    energy: float
    residual: float


@dataclass(frozen=True)
class SpectrumApproximation:
    """Ordered low-lying spectrum estimate with per-level residuals.

    ``residual`` is each method's own convergence witness: the spectral
    function magnitude for the coefficient method, the resolvent reciprocal
    for the resolvent method, and the final bracket width for the oracle.
    Energies are strictly increasing except across flagged near-degenerate
    pairs, which are kept separate rather than merged.
    """

    method: SpectralMethod
    parity: Parity | None
    order: TruncationOrder
    levels: tuple[EnergyLevel, ...]
    flagged_pairs: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        flagged = {frozenset(p) for p in self.flagged_pairs}
        for a, b in zip(self.levels, self.levels[1:]):
            if a.energy >= b.energy and frozenset((a.index, b.index)) not in flagged:
                raise ValueError(
                    f"levels not strictly increasing at indices {a.index},{b.index}"
                )

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def energies(self) -> np.ndarray:
        return np.array([lev.energy for lev in self.levels])

    @classmethod
    def from_levels(cls, method, parity, order, levels, omega) -> "SpectrumApproximation":
        """Assemble, flagging near-degenerate neighbours (gap < 1e-10*omega)."""
        levels = tuple(levels)
        flagged = tuple(
            (a.index, b.index)
            for a, b in zip(levels, levels[1:])
            if abs(b.energy - a.energy) < NEAR_DEGENERATE_GAP * omega
        )
        return cls(method=method, parity=parity, order=order, levels=levels,
                   flagged_pairs=flagged)


# Chain steps per block of the pivot sweep.  Measured on a 2-vCPU x86-64
# VM: 16 is 5-10% faster than 32 on the scan's 600 x 8 lanes at order 300,
# 32 about 10% faster on one chain's 8 x 15 lanes and on the crossing
# refinement's rows, 64 no faster; each sweep takes about 40% of the time
# of the per-step PIVMIN rule (scripts/crossing_cost.py, BENCH_24.json).
_ROWS = 32

# Relative slack of the dominance exit: of the energy, of each diagonal row
# and of the pivot's bound.  About 1e7 units of roundoff, far above the
# rounding of one step, far below any gap that decides where a sweep stops.
_SLACK = 1e-9


def _steps(diag: np.ndarray, lanes: tuple) -> np.ndarray:
    """``diag`` (n+1, ...) with its trailing axes right-aligned to ``lanes``,
    so that a block diag[i:j] broadcasts against (lanes) arrays."""
    return diag.reshape(diag.shape[:1] + (1,) * (len(lanes) + 1 - diag.ndim) + diag.shape[1:])


def _dominance_floor(diag: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """S_0 .. S_{n+1} of the step-major tables, a lower bound on the rows of
    every chain from step J on:

        S_J = min_{j >= J} (dlo_j - r_j - _SLACK*(|d|_j + r_j) - 4*PIVMIN),

    the suffix minimum, S_{n+1} = +inf, with dlo_j the least d_j of the
    chains, |d|_j the largest |d_j|, r_j = b_j + b_{j+1} and b_j the square
    root of the largest a_j = ``off2[j-1]`` (a_0 = a_{n+1} = 0).  Each float
    operation rounds monotonically, so S_J is at most every chain's own
    suffix minimum.  No energy passes the NaN or -inf of an inf or NaN entry.
    """
    n1 = diag.shape[0]
    lo = np.min(diag, axis=tuple(range(1, diag.ndim)))
    mag = np.maximum(np.max(diag, axis=tuple(range(1, diag.ndim))), -lo)
    b = np.zeros(n1 + 1)
    b[1:n1] = np.sqrt(np.max(off2, axis=tuple(range(1, off2.ndim))))
    r = b[:-1] + b[1:]
    with np.errstate(invalid="ignore", over="ignore"):
        row = lo - r - (_SLACK * (mag + r) + 4.0 * PIVMIN)
    return np.append(np.minimum.accumulate(row[::-1])[::-1], np.inf)


def _pivot_sweep(energies, diag, off2, floor) -> tuple[np.ndarray, int]:
    """(counts, steps read) of :func:`_negative_pivot_counts`."""
    energies = np.asarray(energies, dtype=float)
    lanes = np.broadcast_shapes(energies.shape, diag.shape[1:], off2.shape[1:])
    n1, diag = diag.shape[0], _steps(diag, lanes)
    rows = np.empty((_ROWS + 1,) + lanes)  # row 0: the last pivot of the block before
    neg = np.empty((_ROWS,) + lanes, dtype=bool)
    t = np.empty(lanes)
    count = np.zeros(lanes, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # NaN when a lane is NaN or -inf, which never passes
        top = np.max(energies + _SLACK * np.abs(energies), initial=-np.inf)
        for j0 in range(0, n1, _ROWS):
            m = min(_ROWS, n1 - j0)
            np.subtract(diag[j0:j0 + m], energies, out=rows[1:m + 1])
            first, check = (2 if j0 == 0 else 1), 1
            while True:
                for i in range(first, m + 1):  # row i is step j0 + i - 1
                    q = rows[i, ...]  # a view, also for scalar energies
                    np.divide(off2[j0 + i - 2], rows[i - 1], out=t)
                    np.subtract(q, t, out=q)
                # no pivot in [-PIVMIN, PIVMIN] when as many are <= PIVMIN as < -PIVMIN
                np.less_equal(rows[check:m + 1], PIVMIN, out=neg[check - 1:m])
                if np.count_nonzero(neg[check - 1:m]) == np.count_nonzero(rows[check:m + 1] < -PIVMIN):
                    break
                tiny = np.abs(rows[check:m + 1]) <= PIVMIN
                r = check + int(np.flatnonzero(tiny.reshape(len(tiny), -1).any(axis=1))[0])
                np.copyto(rows[r, ...], -PIVMIN, where=tiny[r - check])
                np.subtract(diag[j0 + r:j0 + m], energies, out=rows[r + 1:m + 1])
                first = check = r + 1
            count += np.add.reduce(neg[:m].view(np.uint8), axis=0, dtype=np.uint8)
            rows[0] = rows[m]
            end = j0 + m
            if end < n1 and floor[end] >= top:
                # np.count_nonzero, not np.all, which would map in one more
                # numpy loop on the oracle's requests (about 60 KiB of RSS)
                held = rows[0] >= np.sqrt(off2[end - 1]) * (1.0 + _SLACK)
                if np.count_nonzero(held) == held.size:
                    return count, end
    return count, n1


def _negative_pivot_counts(energies: np.ndarray, diag: np.ndarray, off2: np.ndarray,
                           floor: np.ndarray) -> np.ndarray:
    """Count eigenvalues at or below each energy, vectorized: the pivots at
    or below PIVMIN.  ``energies`` has any shape; the step-major tables
    ``diag`` (n+1, ...) and ``off2`` (n, ...) broadcast against it on their
    trailing axes.

    The sweep is step-major and blocked, with the PIVMIN check deferred
    (LAPACK ``dlaneg``; Marques, Riedy and Voemel, SIAM J. Sci. Comput.
    28(5), 2006): a block of _ROWS steps is filled with d_j - E in one call,
    then each step is two in-place calls, with no per-step clamp.  After
    the block, the first row with a pivot in [-PIVMIN, PIVMIN] has those
    lanes set to -PIVMIN (a no-op at -PIVMIN itself) and the rows after it
    are filled and run again.  Up to that row every pivot is the one the
    per-step rule makes, so the counts are equal bit for bit.  A zero pivot
    divides by zero before its repair, hence the errstate.

    The sweep stops after the block ending at step J once max E + _SLACK*|E|
    over the lanes is at most S_{J+1} of ``floor`` (:func:`_dominance_floor`)
    and every lane has q_J >= b_{J+1}*(1 + _SLACK), b_{J+1} its chain's own:
    every tail is then diagonally dominant above every E, and by induction
    q_j = d_j - E - a_j/q_{j-1} > d_j - E - b_j >= b_{j+1}*(1 + _SLACK) for
    every j > J, the slack covering the rounding of each step; so no later
    pivot reaches PIVMIN, and the count is the full sweep's, bit for bit.
    This is the Pringsheim criterion of :mod:`rabicf.convergence` with c_j =
    b_{j+1}, as ``recurrence.negative_pivots`` tests it; NaN and -inf lanes
    never pass.
    """
    return _pivot_sweep(energies, diag, off2, floor)[0]


def sturm_count(energy, chain: ChainCoefficients):
    """Number of chain eigenvalues at or below ``energy``, an exactly
    singular pivot counting as negative: an int for a float, an int array
    for an array, counted in one sweep that stops at the dominant tail.

    Monotone non-decreasing in the energy; ranges 0..order+1.  Exactly
    singular pivots are perturbed to -PIVMIN, which keeps the count
    deterministic.
    """
    scale, diag, off2, _ = _squared(chain)
    count = _negative_pivot_counts(scale * np.asarray(energy, dtype=float), diag, off2,
                                   _dominance_floor(diag, off2))
    return int(count) if np.ndim(energy) == 0 else count


def gershgorin_interval(chain: ChainCoefficients) -> tuple[float, float]:
    """Enclosing interval for the whole spectrum from Gershgorin discs."""
    radius = np.zeros(chain.dim)
    radius[:-1] += np.abs(chain.offdiag)
    radius[1:] += np.abs(chain.offdiag)
    return float(np.min(chain.diag - radius)), float(np.max(chain.diag + radius))


def _squared(chain: ChainCoefficients) -> tuple[float, np.ndarray, np.ndarray, tuple]:
    """(scale, diag, off2, interval): the chain, its squared off-diagonals
    and its Gershgorin interval, times ``scale``, the ``range_scale`` of the
    interval's larger end: 1 unless it reaches beyond 2**256, and no square
    can overflow.  Counts and bisection in the scaled chain are exact up to
    that factor."""
    lo, hi = gershgorin_interval(chain)
    # range_scale is 1 below 2**256: ordinary chains skip its numpy calls
    scale = 1.0 if max(-lo, hi) < 2.0**256 else float(range_scale(max(-lo, hi)))
    off = scale * chain.offdiag
    return scale, scale * chain.diag, off * off, (scale * lo, scale * hi)


def lattice_cell(tol: float, halvings: int = 0, magnitude: float = 0.0) -> float:
    """Width of the cells in which bisection down to ``tol`` ends, the
    largest power of two <= ``tol``, halved up to ``halvings`` more times.
    Bisection starts from :func:`_snap`, on this lattice.

    Halving stops short at 4 ulps of ``magnitude``, the largest |E| that is
    to be bisected down to the cell: below that the midpoint of two lattice
    points near it is not exact, and the bisection would end early.
    """
    cell = math.ldexp(1.0, math.frexp(tol)[1] - 1)
    floor = 4.0 * math.ulp(magnitude)
    for _ in range(halvings):
        if 0.5 * cell < floor:
            break
        cell *= 0.5
    return cell


def _pow2_above(x: float) -> float:
    """Smallest power of two >= x > 0."""
    mant, expo = math.frexp(x)
    return math.ldexp(1.0, expo - (mant == 0.5))


def _snap(lo: np.ndarray, hi: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Snap the brackets (lo, hi) outward onto the :func:`lattice_cell`
    lattice of ``tol``, all to one common power-of-two number of cells.

    The cell is never finer than one ulp of the largest bracket end, where
    ``lo / cell`` would overflow, nor coarser than the power of two that
    covers the widest bracket, which would widen it past the spectrum.
    Bisection from a snapped bracket that holds the wanted count ends in
    the same lattice cell, whichever bracket it started from.
    """
    top = float(np.max(np.maximum(np.abs(lo), np.abs(hi))))
    span = float(np.max(hi - lo))
    # a point bracket (a one-site chain) counts as 2**-99 wide
    cell = min(max(lattice_cell(tol), math.ulp(top)), _pow2_above(max(span, 1e-30)))
    lo = np.floor(lo / cell) * cell
    return lo, lo + _pow2_above(max(float(np.max(hi - lo)), cell))


def _start_tops(diag, off2, first_k, tol, interval) -> np.ndarray:
    """Upper bracket ends for levels 1..``first_k`` of the chains of the
    step-major tables, (first_k, ...), with no count.

    By Cauchy interlacing level k is at most the largest eigenvalue of the
    leading k x k block, so at most that block's Gershgorin upper end
    u_k = max_{j<k}(d_j + b_j + b_{j+1}), where row k-1 takes no b_k (b_j =
    sqrt(``off2[j-1]``), b_0 = 0); each row's end is raised by 2**-50 of
    its magnitude, above the rounding of its sum.  The end is
    min(interval[1], max(u_k, interval[0] + cell)) with the ``tol`` lattice
    cell: the lower clamp keeps the span that :func:`_snap` sees at least
    one cell wide, so the cell, and with it the level, is the one that the
    whole ``interval`` gives.
    """
    chains = np.broadcast_shapes(diag.shape[1:], off2.shape[1:])
    b = np.zeros((first_k + 1,) + chains)
    b[1:first_k] = np.sqrt(off2[:first_k - 1])
    d = _steps(diag, chains)[:first_k]

    def ends(r):
        return d + r + 2.0**-50 * (np.abs(d) + r)

    top, full = ends(b[:-1]), ends(b[:-1] + b[1:])
    top[1:] = np.maximum(np.maximum.accumulate(full[:-1], axis=0), top[1:])
    return np.minimum(interval[1], np.maximum(top, interval[0] + lattice_cell(tol)))


# Most Sturm counts, lanes times (2**m - 1) probes, that one sweep of m > 1
# halvings may take.  Measured on a 2-vCPU x86-64 VM at orders 300 and
# 1200: up to a few hundred lanes the fastest m takes about 1000-2500
# counts a sweep, and from about 1500 lanes, where a sweep is bound by
# memory traffic, plain bisection (m = 1) is fastest.  Between, the rule
# keeps m = 1 at 720 and 1440 lanes, where m = 2 measured 1-18% faster on
# the blocked sweep at orders 300 and 1200 (BENCH_24.json); no workload
# has that shape.
_MULTISECTION_PROBES = 2048


def _bisect(diag, off2, wanted, lo, hi, tol, floor) -> tuple[np.ndarray, np.ndarray]:
    """Count multisection of the brackets (lo, hi) of eigenvalue number
    ``wanted`` (1-based), all in lockstep from their :func:`_snap`.  Each
    bracket is halved until it is <= ``tol`` wide or its midpoint no longer
    lies strictly inside it (lo and hi are adjacent floats), whichever
    comes first.  The step-major ``diag`` and ``off2`` broadcast against
    the brackets on their trailing axes.  Returns the final (lo, hi).

    Every live bracket has the same power-of-two width W, so one pivot
    sweep takes s halvings at once: it counts at the 2**s - 1 dyadic
    points lo + i*W/2**s, and the new lo is lo + j*W/2**s with j the number
    of them whose count is below ``wanted``, the cell that s bisection
    steps reach wherever the count is monotone.  s is the largest value
    up to 4 with lanes * (2**s - 1) <= _MULTISECTION_PROBES that every
    live bracket can still take: W/2**(s-1) above ``tol``, and W/2**s no
    finer than one ulp of the largest live end, so every probe is exact.
    It is at least 1, the midpoint, which the stop rule checks.

    Every sweep stops where the chains' tails are dominant above its
    energies, on one :func:`_dominance_floor` of the chains, ``floor``.
    """
    lo, hi = _snap(lo, hi, tol)
    while True:
        mid = 0.5 * (lo + hi)
        live = (hi - lo > tol) & (lo < mid) & (mid < hi)
        if not live.any():
            return lo, hi
        width = float(np.max((hi - lo)[live]))
        ulp = math.ulp(float(np.max(np.maximum(np.abs(lo), np.abs(hi))[live])))
        s = 1
        while (s < 4 and lo.size * (2 ** (s + 1) - 1) <= _MULTISECTION_PROBES
               and width * 2.0**-(s + 1) >= ulp and width * 2.0**-s > tol):
            s += 1
        step = width * 2.0**-s
        probes = lo + step * np.arange(1, 2**s).reshape((-1,) + (1,) * lo.ndim)
        below = np.sum(_negative_pivot_counts(probes, diag, off2, floor) < wanted, axis=0)
        lo, hi = np.where(live, lo + below * step, lo), np.where(live, lo + (below + 1) * step, hi)


def eigenvalues(chain: ChainCoefficients, first_k: int, tol: float | None = None) -> SpectrumApproximation:
    """The ``first_k`` smallest eigenvalues of the chain by Sturm bisection.

    Each eigenvalue is bracketed until the bracket width drops below
    ``tol`` (default 1e-11 * omega), or until its ends are adjacent floats;
    the reported energy is the final bracket midpoint and the residual is
    the final width.  Deterministic; all ``first_k`` brackets are
    multisected in lockstep, up to four halvings per vectorized pivot sweep,
    level k from the Gershgorin lower end up to :func:`_start_tops`.
    """
    tol = checked_tol(tol, DEFAULT_EIG_TOL * chain.params.omega)
    if not 1 <= first_k <= chain.dim:
        raise ValueError(f"first_k must be in 1..{chain.dim}, got {first_k}")

    scale, diag, off2, interval = _squared(chain)
    hi = _start_tops(diag, off2, first_k, scale * tol, interval)
    lo, hi = _bisect(diag, off2, np.arange(1, first_k + 1), np.full(first_k, interval[0]),
                     hi, scale * tol, _dominance_floor(diag, off2))
    lo, hi = lo / scale, hi / scale
    levels = [
        EnergyLevel(index=n, energy=float(0.5 * (lo[n] + hi[n])), residual=float(hi[n] - lo[n]))
        for n in range(first_k)
    ]
    return SpectrumApproximation.from_levels(
        SpectralMethod.ORACLE, chain.parity, chain.order, levels, chain.params.omega
    )


def eigenvalues_batch(
    diag: np.ndarray,
    off2: np.ndarray,
    first_k: int,
    tol: float,
    interval: tuple[float, float],
) -> np.ndarray:
    """Low-level batched bisection over many chains at once.

    The tables are step-major: ``diag`` has shape (n+1, S) or (n+1,),
    ``off2`` shape (n, S); returns an (S, first_k) array.  Used by the
    parameter scan, where hundreds of chains differ only in their
    off-diagonals.  The brackets are level-major, (first_k, S), so that
    each step of a pivot sweep runs over the S chains in one inner loop,
    level k of each chain from ``interval[0]`` up to its :func:`_start_tops`.
    """
    shape = (first_k,) + off2.shape[1:]
    wanted = np.arange(1, first_k + 1).reshape((-1,) + (1,) * (off2.ndim - 1))
    hi = _start_tops(diag, off2, first_k, tol, interval)
    lo, hi = _bisect(diag, off2, wanted, np.full(shape, interval[0]), hi, tol,
                     _dominance_floor(diag, off2))
    return (0.5 * (lo + hi)).T


def eigenvalues_rows(
    diag: np.ndarray,
    off2: np.ndarray,
    index: np.ndarray,
    tol: float,
    interval: tuple[float, float],
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Eigenvalue number ``index[r]`` (0-based) of chain r only, bisected
    from a warm bracket [lo[r], hi[r]] that is believed to hold it.

    The step-major ``diag`` has shape (n+1, R), ``off2`` (n, R); returns an
    (R,) array.
    Count bisection from the :func:`_snap` of the brackets ends in the same
    cell as :func:`eigenvalues_batch` with the same ``tol`` wherever the
    count is monotone and some bracket is at least ``tol`` wide, so each
    value is bit for bit the one it returns.  One count sweep checks every
    snapped bracket; a row whose bracket fails it restarts from
    ``interval``, so a wrong guess costs time but never a level.
    """
    wanted = np.asarray(index) + 1
    lo, hi = _snap(lo, hi, tol)
    floor = _dominance_floor(diag, off2)
    ends = _negative_pivot_counts(np.stack([lo, hi]), diag, off2, floor)
    bad = (ends[0] >= wanted) | (ends[1] < wanted)
    lo = np.where(bad, interval[0], lo)
    hi = np.where(bad, interval[1], hi)
    lo, hi = _bisect(diag, off2, wanted, lo, hi, tol, floor)
    return 0.5 * (lo + hi)


def union_spectrum(spectra: list[SpectrumApproximation], first_k: int | None = None) -> list[EnergyLevel]:
    """Merge per-parity spectra into one sorted level list, re-indexed."""
    merged = sorted((lev for s in spectra for lev in s.levels), key=lambda lev: lev.energy)
    if first_k is not None:
        if len(merged) < first_k:
            raise TooFewLevelsError(f"requested {first_k} levels, have {len(merged)}")
        merged = merged[:first_k]
    return [EnergyLevel(index=i, energy=lev.energy, residual=lev.residual)
            for i, lev in enumerate(merged)]
