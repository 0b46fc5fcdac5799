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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import TooFewLevelsError
from .model import ChainCoefficients, Parity, TruncationOrder, checked_tol

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


def _negative_pivot_counts(energies: np.ndarray, diag: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """Count eigenvalues at or below each energy, vectorized: the pivots at
    or below PIVMIN.  ``energies`` has any shape; ``diag`` (..., n+1) and
    ``off2`` (..., n) broadcast against it on the leading axes."""
    q = diag[..., 0] - energies
    count = np.zeros(q.shape, dtype=np.int64)
    for j in range(diag.shape[-1]):
        if j:
            q = (diag[..., j] - energies) - off2[..., j - 1] / q
        count += (neg := q <= PIVMIN)
        q = np.where(neg, np.minimum(q, -PIVMIN), q)
    return count


def sturm_count(energy: float, chain: ChainCoefficients) -> int:
    """Number of chain eigenvalues at or below ``energy``, an exactly
    singular pivot counting as negative.

    Monotone non-decreasing in the energy; ranges 0..order+1.  Exactly
    singular pivots are perturbed to -PIVMIN, which keeps the count
    deterministic.
    """
    scale, diag, off2 = _squared(chain)
    return int(_negative_pivot_counts(np.asarray(scale * float(energy)), diag, off2))


def gershgorin_interval(chain: ChainCoefficients) -> tuple[float, float]:
    """Enclosing interval for the whole spectrum from Gershgorin discs."""
    radius = np.zeros(chain.dim)
    radius[:-1] += np.abs(chain.offdiag)
    radius[1:] += np.abs(chain.offdiag)
    return float(np.min(chain.diag - radius)), float(np.max(chain.diag + radius))


def _squared(chain: ChainCoefficients) -> tuple[float, np.ndarray, np.ndarray]:
    """(scale, diag, off2): the chain times ``scale`` and its squared
    off-diagonals.  ``scale`` is 1, or 2**-256 for a chain whose Gershgorin
    interval reaches beyond 2**256, whose squares would overflow from
    about 2**512.  Power-of-two scaling commutes with rounding, so counts
    and bisection in the scaled chain are exact up to that factor."""
    lo, hi = gershgorin_interval(chain)
    scale = 2.0**-256 if max(-lo, hi) > 2.0**256 else 1.0
    off = scale * chain.offdiag
    return scale, scale * chain.diag, off * off


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


# Most Sturm counts, lanes times (2**m - 1) probes, that one sweep of m > 1
# halvings may take.  Measured on a 2-vCPU x86-64 VM at orders 300 and
# 1200: up to a few hundred lanes the fastest m takes about 1000-2500
# counts a sweep, and from about 1500 lanes, where a sweep is bound by
# memory traffic, plain bisection (m = 1) is fastest.
_MULTISECTION_PROBES = 2048


def _bisect(diag, off2, wanted, lo, hi, tol) -> tuple[np.ndarray, np.ndarray]:
    """Count multisection of the brackets (lo, hi) of eigenvalue number
    ``wanted`` (1-based), all in lockstep from their :func:`_snap`.  Each
    bracket is halved until it is <= ``tol`` wide or its midpoint no longer
    lies strictly inside it (lo and hi are adjacent floats), whichever
    comes first.  ``diag`` and ``off2`` broadcast against the brackets on
    their leading axes.  Returns the final (lo, hi).

    Every live bracket has the same power-of-two width W, so one pivot
    sweep takes s halvings at once: it counts at the 2**s - 1 dyadic
    points lo + i*W/2**s, and the new lo is lo + j*W/2**s with j the number
    of them whose count is below ``wanted``, the cell that s bisection
    steps reach wherever the count is monotone.  s is the largest value
    up to 4 with lanes * (2**s - 1) <= _MULTISECTION_PROBES that every
    live bracket can still take: W/2**(s-1) above ``tol``, and W/2**s no
    finer than one ulp of the largest live end, so every probe is exact.
    It is at least 1, the midpoint, which the stop rule checks.
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
        below = np.sum(_negative_pivot_counts(probes, diag, off2) < wanted, axis=0)
        lo, hi = np.where(live, lo + below * step, lo), np.where(live, lo + (below + 1) * step, hi)


def eigenvalues(chain: ChainCoefficients, first_k: int, tol: float | None = None) -> SpectrumApproximation:
    """The ``first_k`` smallest eigenvalues of the chain by Sturm bisection.

    Each eigenvalue is bracketed until the bracket width drops below
    ``tol`` (default 1e-11 * omega), or until its ends are adjacent floats;
    the reported energy is the final bracket midpoint and the residual is
    the final width.  Deterministic; all ``first_k`` brackets are
    multisected in lockstep, up to four halvings per vectorized pivot sweep.
    """
    tol = checked_tol(tol, DEFAULT_EIG_TOL * chain.params.omega)
    if not 1 <= first_k <= chain.dim:
        raise ValueError(f"first_k must be in 1..{chain.dim}, got {first_k}")

    scale, diag, off2 = _squared(chain)
    lo, hi = gershgorin_interval(chain)
    lo, hi = _bisect(diag, off2, np.arange(1, first_k + 1), np.full(first_k, scale * lo),
                     np.full(first_k, scale * hi), scale * tol)
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

    ``diag`` has shape (S, n+1) or (n+1,), ``off2`` shape (S, n); returns an
    (S, first_k) array.  Used by the parameter scan, where hundreds of
    chains differ only in their off-diagonals.
    """
    shape = off2.shape[:-1] + (first_k,)
    lo, hi = _bisect(diag[..., None, :], off2[..., None, :], np.arange(1, first_k + 1),
                     np.full(shape, interval[0]), np.full(shape, interval[1]), tol)
    return 0.5 * (lo + hi)


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

    ``diag`` has shape (R, n+1), ``off2`` (R, n); returns an (R,) array.
    Count bisection from the :func:`_snap` of the brackets ends in the same
    cell as :func:`eigenvalues_batch` with the same ``tol`` wherever the
    count is monotone and some bracket is at least ``tol`` wide, so each
    value is bit for bit the one it returns.  One count sweep checks every
    snapped bracket; a row whose bracket fails it restarts from
    ``interval``, so a wrong guess costs time but never a level.
    """
    wanted = np.asarray(index) + 1
    lo, hi = _snap(lo, hi, tol)
    ends = _negative_pivot_counts(np.stack([lo, hi], axis=-1), diag[:, None, :], off2[:, None, :])
    bad = (ends[:, 0] >= wanted) | (ends[:, 1] < wanted)
    lo = np.where(bad, interval[0], lo)
    hi = np.where(bad, interval[1], hi)
    lo, hi = _bisect(diag, off2, wanted, lo, hi, tol)
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
