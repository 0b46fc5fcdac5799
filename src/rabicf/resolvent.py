"""Resolvent method (CLI method "b"): determinant and resolvent
recurrences on truncated parity chains, plus the pathological truncation
that plants a fictitious pole.

For a chain of dimension N+1 the minors D_j = det(E - H)_{j..N} obey

    D_j = b_j(E) D_{j+1} - a_{j+1} D_{j+2},   D_{N+1} = 1, D_{N+2} = 0,

with b_j(E) = E - diag[j] and a_j the squared off-diagonal entries (their
sign cancels in the recurrence).  The border resolvent matrix element is
G_0(E) = D_1/D_0: a finite continued fraction in ratio form, with poles
exactly at the chain eigenvalues (never lifted, since every a_j > 0 for
g > 0).

The ratio form is evaluated here through the scaled minor pair (the
two-term recurrence of ``rabicf.recurrence``) rather than by chained
divisions.  The two are algebraically identical, but the minor
recurrence is linear and backward stable, passes through partial-fraction
poles without blowup, and keeps a sign-true D_0 for refining a pole.
The same fraction counts its poles: the forward pivots q_j = (d_j - E) -
a_j/q_{j-1} of H - E are -P_{j+1}/P_j for the leading minors P_j =
det(E - H)_{0..j-1} (the ratios G_{j+1}(E) of ``build_pathological``
scaled by -a_{j+1}), and the negative ones number the poles at or below E
(``pole_count``, a second name of the oracle's ``tridiag.sturm_count``).
Past the row where the rest of the chain is dominant and a pivot clears
the next coupling, every later pivot is positive, so a leading minor
P_{K+1} has D_0 = P_{N+1}'s sign up to (-1)**(N - K): each pole is
refined on it (``_refine_pole``), but where g**2/omega exceeds SETTLE_REACH.
A chain's couplings and their square roots are built once, on first use
(``ChainCoefficients.couplings``, ``coupling_roots``).

A pathological truncation's chain (``PlantedChain``) is the one exception
to double precision: its planted pole has a border residue of roughly
g^(2N)/N!, far below one float spacing, so its last diagonal entry and its
resolvent are computed exactly, in Python ints on the entries scaled by one
power of two (``_dyadic_steps``), and each value is rounded once.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import partial
from itertools import chain as chained

import numpy as np

from .errors import (
    DivergedTailError,
    GZeroError,
    PoleSeparationError,
    RabiSolverError,
)
from .model import (DEFAULT_GRID, DEFAULT_REFINE_TOL, DEN_FLOOR, PIVMIN, SLACK, ChainCoefficients,
                    EnergyLevel, ModelParams, Parity, SpectralMethod, SpectrumApproximation,
                    TruncationOrder, build_chain, checked_window, dominant_row, field, record)
from .recurrence import Scaled, scaled_pair
from .search import bisect_sign, counted_roots
from .tridiag import sturm_count

__all__ = [
    "ResolventStatus",
    "ResolventValue",
    "PathologicalVariant",
    "PlantedChain",
    "char_poly",
    "pole_count",
    "resolvent_cf",
    "poles_of_resolvent",
    "build_pathological",
    "E0_MIN_SEPARATION",
]

pole_count = sturm_count  # the poles of G_0 are the chain's eigenvalues

# Plant energies within this many omega of a genuine pole are rejected: the
# demonstration needs the planted pole to be separable from the real ones.
E0_MIN_SEPARATION = 1e-6

# Rows past the first row that settles D_0's sign at both ends of a pole's
# piece, up to which the pole is refined: the row that settles the sign
# moves out as the energy nears the pole.
SETTLE_MARGIN = 32

# A chain whose coupling g**2/omega exceeds this many rows has every pole
# refined on D_0.  Near its lowest levels, E ~ -g**2/omega, the diagonal gap
# j*omega - E meets the dominance bound 2*g*sqrt(j) tangentially at row
# g**2/omega, and the pivots settle slowly past it: from g = 6 (omega 1) on,
# SETTLE_MARGIN rows miss the pivot test at the first nodes of most pieces,
# which then restart on D_0, and a margin wide enough for them (J // 2) reads
# more rows and, at g = 20, puts a root 14 ulps from D_0's.
SETTLE_REACH = 32


class ResolventStatus(Enum):
    CONVERGED = "converged"
    POLE_HIT = "pole-hit"


@record
class ResolventValue:
    """Border resolvent G_0(E) together with its reciprocal D_0/D_1.

    ``value * reciprocal`` is 1 up to rounding whenever both are finite;
    the poles of the resolvent are the zeros of ``reciprocal``.
    """

    value: float
    reciprocal: float
    status: ResolventStatus


def char_poly(energy: float, chain: ChainCoefficients) -> tuple[float, float]:
    """The characteristic minors (D_0, D_1) of E - H for a chain, both
    under a shared positive power-of-two rescale (``rabicf.recurrence``),
    run backward over all N + 1 rows.

    D_0 = det(E - H) up to that factor: its zeros over energy are the
    truncated-chain eigenvalues, and D_1/D_0 is the border resolvent G_0
    (``resolvent_cf``, each pole's residual).  A pole is refined on D_0
    only where no leading minor settles its sign, or g**2/omega exceeds
    SETTLE_REACH (``_refine_pole``).
    """
    # step j takes (b_j, a_{j+1}); a_{N+1} = 0 starts from D_{N+2} = 0, and
    # zip stops before a_0
    couplings = chained((0.0,), reversed(chain.couplings))
    steps = zip(reversed((energy - chain.diag).tolist()), couplings)
    d1, d0, _ = scaled_pair(steps)
    return d0, d1


class _Unsettled(Exception):
    """A leading minor's pivot missed the dominance test at an energy."""


def _settled_row(chain: ChainCoefficients, lo: float, hi: float) -> int:
    """The last row K of the leading minors that a pole's piece (lo, hi) is
    refined on: SETTLE_MARGIN rows past K0, the first row at or after
    J - 1 whose forward pivots q_K0 at lo and at hi both clear
    b_{K0+1}*(1 + SLACK), with J = ``dominant_row`` at hi; N where g**2/omega
    exceeds SETTLE_REACH or no row before N - SETTLE_MARGIN clears.  A pivot
    of exactly 0 continues as -PIVMIN, as in the pole count."""
    n, b, p = chain.order, chain.coupling_roots, chain.params
    if p.g * p.g > SETTLE_REACH * p.omega:
        return n
    first = dominant_row(chain.diag - hi, b) - 1
    q_lo = q_hi = math.inf
    rows = chain.diag[:max(n - SETTLE_MARGIN, 0)]
    for k, (d, a) in enumerate(zip(map(float, rows), chain.couplings)):
        q_lo = (d - lo) - a / q_lo or -PIVMIN
        q_hi = (d - hi) - a / q_hi or -PIVMIN
        if k >= first and min(q_lo, q_hi) >= b[k + 1] * (1.0 + SLACK):
            return k + SETTLE_MARGIN
    return n


def _leading_minor(energy: float, chain: ChainCoefficients, k: int) -> Scaled:
    """(-1)**(N - K) * P_{K+1}(E), the leading minor det(E - H)_{0..K}
    under the power-of-two rescale of ``scaled_pair``, which has the sign
    of D_0 = P_{N+1} once the forward pivot q_K = -P_{K+1}/P_K clears
    b_{K+1}*(1 + SLACK): every later row is dominant at energies up to the
    piece's upper end, so every later pivot is positive.  _Unsettled where
    it does not clear."""
    prev, cur, exponent = scaled_pair(zip((energy - chain.diag[:k + 1]).tolist(),
                                          chain.couplings))
    if not (prev and -cur / prev >= chain.coupling_roots[k + 1] * (1.0 + SLACK)):
        raise _Unsettled
    return Scaled(-cur if (chain.order - k) % 2 else cur, exponent)


def _refine_pole(chain: ChainCoefficients, f, lo: float, hi: float, tol: float, *,
                 start) -> float:
    """``search.bisect_sign`` on one pole's piece, with its arguments: on
    the leading minor P_{K+1} of ``_settled_row`` where K < N, and on ``f``
    (D_0) where K = N, or again from the same start cell where the minor's
    pivot misses the test at an energy it is read at.  The two have the same
    sign wherever the minor is read, so the root is the same."""
    k = _settled_row(chain, lo, hi)
    if k < chain.order:
        try:
            return bisect_sign(partial(_leading_minor, chain=chain, k=k), lo, hi, tol,
                               start=start)
        except _Unsettled:
            pass
    return bisect_sign(f, lo, hi, tol, start=start)


def _dyadic_steps(energy: float, diag, offdiag) -> tuple[int, list[int], list[int], int]:
    """(E*2**s, B, A, s): the ints B_j = (E - diag_j)*2**s and A_j =
    offdiag_j**2 * 4**s, for the least s that the floats E, ``diag`` and
    ``offdiag`` all fit in (each is an int over a power of two)."""
    ratios = [x.as_integer_ratio() for x in [energy, *diag, *offdiag]]
    s = max(q.bit_length() for _, q in ratios) - 1
    ints = [p << s + 1 - q.bit_length() for p, q in ratios]
    e, n = ints[0], len(diag) + 1
    return e, [e - d for d in ints[1:n]], [o * o for o in ints[n:]], s


def _minors(steps, prev: int, cur: int) -> tuple[int, int]:
    """Run y_k = B_k y_{k-1} - A_k y_{k-2} over ``steps`` (B_k, A_k) from
    (prev, cur) exactly in ints; returns the last pair (y_{K-1}, y_K)."""
    for b, a in steps:
        prev, cur = cur, b * cur - a * prev
    return prev, cur


def _det_pair_planted(energy: float, chain: "PlantedChain") -> tuple[float, float]:
    """(D_0, D_1) of a planted chain, exact, divided by the positive |D_1|
    (|D_0| if D_1 vanishes) and rounded once: the minors run backward in
    ints on the entries scaled by 2**s, from (D_{N+1}, D_N) = (denominator,
    numerator) of (E - H[N,N])*2**s, so D_0/D_1 is the last pair's ratio over 2**s."""
    e, b, a, s = _dyadic_steps(energy, chain.diag[:-1].tolist(), chain.offdiag.tolist())
    num, den = chain.planted_diag_nn
    d1, d0 = _minors(zip(b[::-1], a[::-1]), den, e * den - (num << s))
    d1 <<= s
    scale = abs(d1) or abs(d0)
    return d0 / scale, d1 / scale


def resolvent_cf(energy: float, chain: ChainCoefficients) -> ResolventValue:
    """G_0(E) for a truncated chain, with the reciprocal reported alongside.

    In ratio terms this is the backward two-term recurrence seeded at
    G_N = 1/b_N(E) (the standard cut-off); the reciprocal b_0 - a_1 G_1 is
    computed as D_0/D_1 from the minor pair.  Status is POLE_HIT when the
    reciprocal falls below the denominator floor, i.e. E sits on a chain
    eigenvalue to within working precision.

    A ``PlantedChain`` (from ``build_pathological``) is evaluated exactly
    on its exact planted entry, and the reciprocal is rounded once, so at
    the planted energy it reads 0.0 (POLE_HIT), not the O(1) background
    that double precision leaves there.  OverflowError is raised where the
    reciprocal leaves the float range, and ValueError or OverflowError for
    a non-finite energy.  Every other chain takes the double-precision
    minor recurrence.
    """
    if isinstance(chain, PlantedChain):
        d0, d1 = _det_pair_planted(energy, chain)
    else:
        d0, d1 = char_poly(energy, chain)
    if d1 == 0.0:
        # E is an eigenvalue of the once-deleted chain: a zero of G_0.
        return ResolventValue(value=0.0, reciprocal=math.copysign(math.inf, d0),
                              status=ResolventStatus.CONVERGED)
    reciprocal = d0 / d1
    if abs(reciprocal) < DEN_FLOOR:
        return ResolventValue(value=math.inf, reciprocal=reciprocal,
                              status=ResolventStatus.POLE_HIT)
    return ResolventValue(value=1.0 / reciprocal, reciprocal=reciprocal,
                          status=ResolventStatus.CONVERGED)


def poles_of_resolvent(
    chain: ChainCoefficients,
    window: tuple[float, float],
    max_levels: int,
    grid: int = DEFAULT_GRID,
) -> SpectrumApproximation:
    """Poles of G_0 inside a window, i.e. the truncated-chain eigenvalues.

    ``search.counted_roots`` brackets the window's ``grid`` samples by
    ``pole_count``, which finds every pole at any grid of 2 or more
    samples, and refines each pole by ITP (``search.bisect_sign``) down to
    DEFAULT_REFINE_TOL * omega on a function with D_0's sign there (not on
    the reciprocal, which also flips at the zeros of D_1): a leading minor
    of D_0 up to a row that settles its sign, or D_0 on all rows
    (``_refine_pole``), with the same root.  The residual reported per pole
    is the reciprocal magnitude there, from D_0 and D_1 on all rows.

    Returns the poles found, fewer than ``max_levels`` or none when the
    window holds fewer; ``solve_method_a`` answers the same way, and a
    caller that needs a count checks it (``union_spectrum(first_k=...)``).
    A squared coupling a_j that overflows raises RabiSolverError.
    """
    checked_window(window)
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")
    with np.errstate(over="ignore"):  # a_j = j g^2 overflows at huge g
        if not np.isfinite(chain.a_values()).all():
            raise RabiSolverError(f"method b: a squared coupling a_j overflows at "
                                  f"g = {chain.params.g!r}, order {chain.order}")
    roots = counted_roots(lambda e: pole_count(e, chain), lambda e: char_poly(e, chain)[0],
                          window, grid, max_levels, DEFAULT_REFINE_TOL * chain.params.omega,
                          refine=partial(_refine_pole, chain))
    poles = [EnergyLevel(index=i, energy=root, residual=abs(resolvent_cf(root, chain).reciprocal))
             for i, (root, _) in enumerate(roots)]
    return SpectrumApproximation.from_levels(
        SpectralMethod.METHOD_B, chain.parity, chain.order, poles, chain.params.omega
    )


class PathologicalVariant(Enum):
    DIAG_ONLY = "diag"
    DIAG_AND_OFFDIAG = "diag-offdiag"


@record
class PlantedChain(ChainCoefficients):
    """The chain of a pathological truncation: ``base`` altered in its last
    entries so the border resolvent acquires a pole at ``target_energy``,
    while the projection onto the first N rows and columns still equals
    the unmodified operator.

    DIAG_ONLY sets H[N,N] = E_0 - 1/G_N(E_0); DIAG_AND_OFFDIAG also sets
    H[N-1,N] = H[N,N-1] = g N, and H[N,N] = E_0 - a'_N/(a_N G_N(E_0)) with
    a'_N = (g N)^2 and a_N = (g sqrt(N))^2 squared from the stored entries.
    Their ratio is N only up to the rounding of g*sqrt(N), and the planted
    pole's residue is far too small to forgive that rounding.

    G_N and H[N,N] are exact rationals on the stored entries;
    ``planted_diag_nn`` is H[N,N] as an int pair (numerator, denominator),
    which ``resolvent_cf`` uses to resolve the planted pole.  ``tail`` and
    ``diag[order]`` are those values correctly rounded to double, so Sturm
    counts and eigensolvers see an ordinary chain.
    """

    base: ChainCoefficients
    target_energy: float
    variant: PathologicalVariant
    tail: float  # G_N(E_0), the exact rational rounded once
    planted_diag_nn: tuple[int, int] = field(repr=False)

    @property
    def modified_diag_nn(self) -> float:
        return float(self.diag[self.order])

    @property
    def modified_offdiag(self) -> float | None:
        if self.variant is PathologicalVariant.DIAG_AND_OFFDIAG:
            return float(self.offdiag[self.order - 1])
        return None

    @property
    def slow_approach_diagnostic(self) -> float:
        """N (G_N + omega/g^2): if this does not vanish with N, the
        off-diagonal variant need not produce a low-energy state."""
        p = self.params
        return self.order * (self.tail + p.omega / (p.g * p.g))


def build_pathological(
    energy0: float,
    params: ModelParams,
    parity: Parity,
    order: TruncationOrder,
    variant: PathologicalVariant = PathologicalVariant.DIAG_ONLY,
) -> PlantedChain:
    """Construct the truncation that plants a resolvent pole at energy0.

    ``energy0`` must keep a minimum separation, E0_MIN_SEPARATION * omega,
    from every genuine pole of the unmodified truncated resolvent so that
    the planted pole is unambiguous; violations raise PoleSeparationError.

    G_N = P_N/(a_N P_{N-1}) for the polynomials P_{j+1} = b_j P_j - a_j
    P_{j-1} from (0, 1), exactly: on entries scaled by 2**s (``_dyadic_steps``)
    Q_j = 2**(sj) P_j are ints, G_N = Q_N 2**s/(A_N Q_{N-1}) and H[N,N] =
    (E_0 2**s Q_N - A'_N Q_{N-1})/(Q_N 2**s), each rounded once; RabiSolverError
    where one of them, or the tail limit -omega/g**2, leaves the float range.
    A zero Q_{N-1} or Q_N raises DivergedTailError(its index).
    """
    if params.g == 0.0:
        raise GZeroError("pathological construction needs nonzero coupling")
    base = build_chain(params, parity, order)
    separation = E0_MIN_SEPARATION * params.omega
    below, above = sturm_count(energy0 + np.array([-separation, separation]), base)
    if below != above:
        raise PoleSeparationError(
            f"E0={energy0!r} lies within {separation} of a genuine "
            f"pole of the unmodified resolvent at order {order}"
        )
    n = base.order
    if n < 1:
        raise ValueError("need order >= 1 for the upward recurrence")
    if not math.isfinite(energy0):
        raise ValueError("energy0 must be finite")
    last_offdiag = (params.g * n if variant is PathologicalVariant.DIAG_AND_OFFDIAG
                    else float(base.offdiag[-1]))
    e, b, a, s = _dyadic_steps(energy0, base.diag[:-1].tolist(),
                               base.offdiag.tolist() + [last_offdiag])
    # step j takes (B_j, A_{j-1}) for Q_{j+1}; A_{-1} = 0
    q_before, q_n = _minors(zip(b, [0] + a[:-2]), 0, 1)
    for j, q in ((n - 1, q_before), (n, q_n)):
        if q == 0:
            raise DivergedTailError(j)
    hnn = (e * q_n - a[-1] * q_before, q_n << s)
    diag, offdiag = base.diag.copy(), base.offdiag.copy()
    try:
        diag[n], tail = hnn[0] / hnn[1], (q_n << s) / (a[-2] * q_before)
        if math.isinf(params.omega / (params.g * params.g)):  # the tail's limit
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        raise RabiSolverError(f"pathological: H[N,N] or the tail limit -omega/g**2 leaves "
                              f"the float range at g = {params.g!r}") from None
    offdiag[n - 1] = last_offdiag
    return PlantedChain(params=params, parity=parity, order=n, diag=diag, offdiag=offdiag,
                        base=base, target_energy=energy0, variant=variant,
                        tail=tail, planted_diag_nn=hnn)
