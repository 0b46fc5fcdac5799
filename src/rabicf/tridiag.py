"""Sturm-sequence bisection eigensolver for the truncated parity chains.

This is the oracle against which both continued-fraction methods are
cross-validated: counting negative pivots of the LDL^T factorization of
``T - E`` gives the number of eigenvalues below E, and bisection on that
count brackets each eigenvalue.  It counts with the sweep that both
continued fractions count with (``model.pivot_sweep``), and ``sturm_count``
is the one count of a chain's eigenvalues, which method b counts its poles
with (``resolvent.pole_count``); the tests check these counts against exact
integer Sturm counts, which share no arithmetic with any route.

Bisection brackets are snapped outward to a power-of-two lattice, so every
endpoint is an exact dyadic number.  Results are then bit-reproducible at a
fixed tolerance, independent of truncation order: any two chains that agree
on an eigenvalue far below the tolerance return the identical float.

Bisection is the count multisection of all three routes (``model.multisect``;
Demmel, *Applied Numerical Linear Algebra*, 5.3): a few brackets take up to
four halvings per pivot sweep, the thousands of a scan's tracks one, and all
end in the cell that bisection reaches wherever the count is monotone.

A pivot sweep takes its step-major tables, diag (n+1, ...) and off2
(n, ...), one slice a block of chain steps, with two in-place numpy calls a
step; a scan's tables are built a block at a time, only as deep as its
sweeps read (:class:`StepTable`).  The count is the per-step PIVMIN rule's,
bit for bit, whose monotonicity Demmel, Dhillon and Ren analyse (ETNA 3,
1995).  A sweep stops at the end of a block once the rest of every chain
is diagonally dominant above its largest energy, read from one floor a
step, and every lane's last pivot can start an induction, so low levels of
long chains are settled within the first block.  Bisection starts each
level k at the Gershgorin upper end of the leading k x k block, an upper
bound by Cauchy interlacing that needs no count, and ends in the lattice
cell that the whole spectrum interval gives.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TooFewLevelsError
from .model import (_ROWS, DEFAULT_EIG_TOL, SLACK, ChainCoefficients, EnergyLevel,
                    SpectralMethod, SpectrumApproximation, checked_tol, dominance_margins,
                    dominant_row, multisect, negative_pivots, pivot_sweep, range_scale)

__all__ = [
    "sturm_count",
    "eigenvalues",
]


def _steps(diag: np.ndarray, ndim: int) -> np.ndarray:
    """``diag`` (n+1, ...) with its trailing axes right-aligned to ``ndim``
    lane axes, so that a block diag[i:j] broadcasts against lane arrays."""
    return diag.reshape(diag.shape[:1] + (1,) * (ndim + 1 - diag.ndim) + diag.shape[1:])


class StepTable:
    """A step-major table of chains, shape (n,) + ``chains``, whose steps
    i..k-1 are ``fill(j[i:k, None], key)``: built when a sweep first reads
    them, a block of _ROWS steps at a time, and kept for the sweeps after
    it.  A slice [i:k] inside one block, as each of a sweep's is, is a view.

    ``key`` is a float, or one a chain, in which ``fill`` is monotone at
    every step; so ``ends``, the table of the chains at its least and
    largest key, holds every step's least and largest entry, all that
    :func:`_dominance_floor` reads.
    """

    def __init__(self, fill, j: np.ndarray, key, chains: tuple):
        key = np.asarray(key, dtype=float)
        self.shape, self.ndim = (len(j),) + chains, 1 + len(chains)
        self._fill, self._j, self._key, self._blocks = fill, j[:, None], key, []
        self.ends = fill(self._j, key[[np.argmin(key), np.argmax(key)]] if key.ndim else key)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, steps: slice) -> np.ndarray:
        i, k, _ = steps.indices(self.shape[0])
        while (built := len(self._blocks) * _ROWS) < k:
            j = self._j[built:built + _ROWS]
            self._blocks.append(np.broadcast_to(self._fill(j, self._key),
                                                (len(j),) + self.shape[1:]))
        b = i // _ROWS
        if k > (b + 1) * _ROWS or b >= len(self._blocks):  # across blocks, or empty
            return np.concatenate([np.empty((0,) + self.shape[1:]), *self._blocks[b:]])[
                i - b * _ROWS:k - b * _ROWS]
        return self._blocks[b][i - b * _ROWS:k - b * _ROWS]


def _dominance_floor(diag: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """S_0 .. S_{n+1} of the step-major tables, a lower bound on the rows of
    every chain from step J on: the suffix minimum S_J of the
    :func:`~rabicf.model.dominance_margins` from step J on, S_{n+1} = +inf,
    of the least d_j of the chains, with the largest |d_j| and b_j the square
    root of the largest a_j = ``off2[j-1]`` (a_0 = a_{n+1} = 0).  Each float
    operation rounds monotonically, so S_J is at most every chain's own, and
    S_J never decreases: a NaN margin reads -inf, which no energy passes.  A
    :class:`StepTable` gives them from its ``ends``, bit for bit."""
    diag, off2 = getattr(diag, "ends", diag), getattr(off2, "ends", off2)
    n1 = diag.shape[0]
    lo = np.min(diag, axis=tuple(range(1, diag.ndim)))
    b = np.zeros(n1 + 1)
    b[1:n1] = np.sqrt(np.max(off2, axis=tuple(range(1, off2.ndim))))
    row = dominance_margins(lo, b, np.maximum(np.max(diag, axis=tuple(range(1, diag.ndim))), -lo))
    row[np.isnan(row)] = -np.inf
    return np.append(np.minimum.accumulate(row[::-1])[::-1], np.inf)


def _pivot_sweep(energies, diag, off2, floor) -> tuple[np.ndarray, int]:
    """(counts, steps read) of :func:`_negative_pivot_counts`."""
    energies = np.asarray(energies, dtype=float)
    top = float(energies.max(initial=-np.inf))  # NaN where a lane is NaN
    ndim = max(energies.ndim, diag.ndim - 1, off2.ndim - 1)
    return pivot_sweep(off2, lambda i, j: _steps(diag[i:j], ndim),
                       int(np.searchsorted(floor, top + SLACK * abs(top))), energies)


def _negative_pivot_counts(energies: np.ndarray, diag: np.ndarray, off2: np.ndarray,
                           floor: np.ndarray) -> np.ndarray:
    """Count eigenvalues at or below each energy of any shape, vectorized:
    the :func:`~rabicf.model.pivot_sweep` of the step-major tables ``diag``
    (n+1, ...) and ``off2`` (n, ...), which broadcast against ``energies`` on
    their trailing axes (``off2`` into the shape of the other two), promised
    dominant from the first step whose
    ``floor`` (:func:`_dominance_floor`) is max E + SLACK*|E| or above
    (E + SLACK*|E| never falls as E rises, in floats too); NaN lanes never pass."""
    return _pivot_sweep(energies, diag, off2, floor)[0]


def sturm_count(energy, chain: ChainCoefficients):
    """Number of chain eigenvalues at or below ``energy`` (an int for a
    float, an int array for an array): the negative forward pivots of H - E,
    an exactly singular one included (``model.negative_pivots``), in one
    sweep that stops where the rest of the chain is dominant above every
    lane (``model.dominant_row``).  They are also the poles of G_0, so this
    is method b's ``resolvent.pole_count``.  A chain reaching beyond 2**256
    is counted in its :func:`_scaled` copy, as the oracle bisects it.
    """
    scale, chain, _ = _scaled(chain)
    if scale != 1.0:
        energy = scale * np.asarray(energy, dtype=float)
    diag, lanes, top = chain.diag, (-1,) + (1,) * np.ndim(energy), np.max(energy, initial=-np.inf)
    count = negative_pivots(chain.couplings, lambda i, j: diag[i:j].reshape(lanes),
                            dominant_row(diag - top, chain.coupling_roots), energy)
    return int(count) if np.ndim(energy) == 0 else count


def _scaled(chain: ChainCoefficients) -> tuple[float, ChainCoefficients, tuple[float, float]]:
    """(scale, chain, interval): the chain and its Gershgorin interval times
    ``scale``, the ``range_scale`` of the interval's larger end: 1 (the chain
    itself) unless it reaches beyond 2**256, and no square can overflow.
    Counts and bisection in the scaled chain are exact up to that factor."""
    lo, hi = chain.gershgorin
    if max(-lo, hi) < 2.0**256:  # ordinary chains skip range_scale's numpy calls
        return 1.0, chain, (lo, hi)
    scale = float(range_scale(max(-lo, hi)))
    return scale, ChainCoefficients(chain.params, chain.parity, chain.order, scale * chain.diag,
                                    scale * chain.offdiag), (scale * lo, scale * hi)


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
    d = _steps(diag[:first_k], len(chains))

    def ends(r):
        return d + r + 2.0**-50 * (np.abs(d) + r)

    top, full = ends(b[:-1]), ends(b[:-1] + b[1:])
    top[1:] = np.maximum(np.maximum.accumulate(full[:-1], axis=0), top[1:])
    return np.minimum(interval[1], np.maximum(top, interval[0] + lattice_cell(tol)))


def _bisect(diag, off2, wanted, lo, hi, tol, floor) -> tuple[np.ndarray, np.ndarray]:
    """:func:`~rabicf.model.multisect` of the :func:`_snap` of (lo, hi), counted
    by the pivot sweep of the step-major ``diag`` and ``off2`` on ``floor``."""
    return multisect(lambda e: _negative_pivot_counts(e, diag, off2, floor), wanted,
                     *_snap(lo, hi, tol), tol)


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

    scale, scaled, interval = _scaled(chain)
    diag, off2 = scaled.diag, scaled.a_values()
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
    ``off2`` shape (n, S), either one a :class:`StepTable`; returns an
    (S, first_k) array.  Used by the parameter scan, whose hundreds of
    chains differ in their off-diagonals (g) or diagonals (delta).  The brackets are level-major, (first_k, S), so that
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
