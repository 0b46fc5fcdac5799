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
a_j/q_{j-1} of H - E are -a_{j+1} G_{j+1}(E), the upward ratios of
``_upward_ratios`` scaled by -a_{j+1}, and the negative ones number the
poles at or below E (``pole_count``, ``recurrence.negative_pivots``).

A pathological truncation's chain (``PlantedChain``) is the one exception
to double precision: its planted pole has a border residue of roughly
g^(2N)/N!, far below one float spacing, so both its last diagonal entry
and its resolvent are carried in mpmath at a precision worked out from
the planted mode itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import mpmath
import numpy as np

from .errors import (
    DivergedTailError,
    GZeroError,
    PoleSeparationError,
    RabiSolverError,
)
from .model import ChainCoefficients, ModelParams, Parity, TruncationOrder, build_chain
from .recurrence import dominant_row, negative_pivots, scaled_pair
from .schweber import DEN_FLOOR
from .search import DEFAULT_GRID, DEFAULT_REFINE_TOL, checked_window, counted_roots
from .tridiag import (
    EnergyLevel,
    SpectralMethod,
    SpectrumApproximation,
    sturm_count,
)

__all__ = [
    "ResolventStatus",
    "ResolventValue",
    "PathologicalVariant",
    "PlantedChain",
    "char_poly",
    "pole_count",
    "resolvent_cf",
    "poles_of_resolvent",
    "inverse_recurrence_tail",
    "build_pathological",
    "E0_MIN_SEPARATION",
]

# Decimal digits kept beyond what the planted mode's own growth consumes;
# the reciprocal at the planted energy then reads about 10**-_PLANT_MARGIN.
_PLANT_MARGIN = 40

# Plant energies within this many omega of a genuine pole are rejected: the
# demonstration needs the planted pole to be separable from the real ones.
E0_MIN_SEPARATION = 1e-6


class ResolventStatus(Enum):
    CONVERGED = "converged"
    POLE_HIT = "pole-hit"


@dataclass(frozen=True)
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
    under a shared positive power-of-two rescale (``rabicf.recurrence``).

    D_0 = det(E - H) up to that factor: its zeros over energy are the
    truncated-chain eigenvalues, and D_1/D_0 is the border resolvent G_0.
    """
    # step j takes (b_j, a_{j+1}); a_{N+1} = 0 starts from D_{N+2} = 0
    a = np.append(chain.a_values(), 0.0)[::-1]
    steps = zip((energy - chain.diag)[::-1].tolist(), a.tolist())
    d1, d0, _ = scaled_pair(steps)
    return d0, d1


def pole_count(energy, chain: ChainCoefficients):
    """Poles of G_0 at or below ``energy`` (an int for a float, an int array
    for an array): the negative forward pivots q_0 .. q_N of H - E, the
    ratios of ``_upward_ratios`` scaled by -a_{j+1}, an exactly singular one
    included (``recurrence.negative_pivots``).  The lane sweep stops where
    the rest of the chain is dominant above every lane (``dominant_row``)."""
    diag, a = chain.diag, [0.0] + chain.a_values().tolist()
    if np.ndim(energy) == 0:
        return negative_pivots(zip((diag - energy).tolist(), a))
    lanes, top = (-1,) + (1,) * np.ndim(energy), np.max(energy, initial=-np.inf)
    return negative_pivots(a, lambda i, j: diag[i:j].reshape(lanes) - energy,
                           dominant_row(diag - top, np.sqrt(a + [0.0])))


def _det_pair_planted(energy: float, chain: "PlantedChain") -> tuple[float, float]:
    """(D_0, D_1) of a planted chain, evaluated in mpmath at the chain's
    own precision on the exact values of its entries (the stored doubles,
    their exact squares and the extended planted entry), then divided by
    the positive |D_1| (|D_0| if D_1 vanishes) and rounded to double."""
    with mpmath.workdps(chain.digits):
        e = mpmath.mpf(energy)
        b = [e - d for d in chain.diag[-2::-1].tolist()]
        a = [mpmath.mpf(x) ** 2 for x in chain.offdiag[::-1].tolist()]
        # from D_{N+1} = 1 and D_N on the extended planted entry
        d1, d0, _ = scaled_pair([(e - chain.planted_diag_nn, 0)] + list(zip(b, a)))
        scale = abs(d1) or abs(d0)
        return float(d0 / scale), float(d1 / scale)


def resolvent_cf(energy: float, chain: ChainCoefficients) -> ResolventValue:
    """G_0(E) for a truncated chain, with the reciprocal reported alongside.

    In ratio terms this is the backward two-term recurrence seeded at
    G_N = 1/b_N(E) (the standard cut-off); the reciprocal b_0 - a_1 G_1 is
    computed as D_0/D_1 from the minor pair.  Status is POLE_HIT when the
    reciprocal falls below the denominator floor, i.e. E sits on a chain
    eigenvalue to within working precision.

    A ``PlantedChain`` (from ``build_pathological``) is evaluated in
    mpmath at its own precision, so the reciprocal at the planted energy
    reads the planted zero, not the O(1) background that double precision
    leaves there; the returned fields are that result rounded to double.
    Every other chain takes the double-precision minor recurrence.
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
    samples, and refines each pole by ITP on D_0 (``search.bisect_sign``;
    not on the reciprocal, which also flips at the zeros of D_1) down to
    DEFAULT_REFINE_TOL * omega.  The residual reported per pole is the
    reciprocal magnitude there.

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
                          window, grid, max_levels, DEFAULT_REFINE_TOL * chain.params.omega)
    poles = [EnergyLevel(index=i, energy=root, residual=abs(resolvent_cf(root, chain).reciprocal))
             for i, (root, _) in enumerate(roots)]
    return SpectrumApproximation.from_levels(
        SpectralMethod.METHOD_B, chain.parity, chain.order, poles, chain.params.omega
    )


def _upward_ratios(energy0: float, chain: ChainCoefficients, num=None) -> list:
    """G_1(E_0) .. G_N(E_0) from the upward recurrence: in double, or in
    ``num`` arithmetic (mpmath.mpf at the caller's precision), with b_j and
    a_j built from the stored entries converted exactly."""
    if chain.params.g == 0.0:
        raise GZeroError("upward recurrence needs nonzero coupling (a_j > 0)")
    if chain.order < 1:
        raise ValueError("need order >= 1 for the upward recurrence")
    if not math.isfinite(energy0):
        raise ValueError("energy0 must be finite")
    if num is None:
        b, a = energy0 - chain.diag, chain.a_values()
    else:
        b = [num(energy0) - d for d in chain.diag.tolist()]
        a = [num(x) ** 2 for x in chain.offdiag.tolist()]
    ratios = [b[0] / a[0]]  # G_1 = b_0/a_1
    for j in range(1, chain.order):
        cur = ratios[-1]
        if abs(cur) < DEN_FLOOR:
            raise DivergedTailError(j)
        ratios.append(b[j] / a[j] - 1.0 / (a[j] * cur))
    return ratios


def inverse_recurrence_tail(energy0: float, chain: ChainCoefficients) -> float:
    """Run the two-term recurrence upward from a forced pole at energy0.

    Demanding G_0(E_0) = infinity fixes the seed G_1 = b_0(E_0)/a_1, and

        G_{j+1} = b_j(E_0)/a_{j+1} - 1/(a_{j+1} G_j)

    climbs to G_N(E_0).  The upward direction is the unstable one for
    generic seeds, which the pathological construction exploits: G_N tends
    to -omega/g^2 regardless of E_0 as the order grows.
    """
    return float(_upward_ratios(energy0, chain)[-1])


class PathologicalVariant(Enum):
    DIAG_ONLY = "diag"
    DIAG_AND_OFFDIAG = "diag-offdiag"


@dataclass(frozen=True)
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

    G_N and H[N,N] are computed in mpmath at ``digits`` decimal digits;
    ``planted_diag_nn`` is H[N,N] at that precision, which ``resolvent_cf``
    uses to resolve the planted pole.  ``tail`` and ``diag[order]`` are
    those values correctly rounded to double, so Sturm counts and
    eigensolvers see an ordinary chain.
    """

    base: ChainCoefficients
    target_energy: float
    variant: PathologicalVariant
    tail: float  # G_N(E_0) from the upward recurrence
    planted_diag_nn: mpmath.mpf = field(repr=False)
    digits: int

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

    The planted mode's components are the orthonormal polynomials
    p_j(E_0) = prod_{i<=j} sqrt(a_i) G_i(E_0), and its border residue is
    about 1/max_j p_j^2.  A double upward pass measures max_j log10|p_j|;
    the tail and H[N,N] are then recomputed in mpmath at twice that many
    digits plus a margin of 40, which leaves |D_0/D_1| at E_0 near 1e-40.
    """
    if params.g == 0.0:
        raise GZeroError("pathological construction needs nonzero coupling")
    base = build_chain(params, parity, order)
    separation = E0_MIN_SEPARATION * params.omega
    below = sturm_count(energy0 - separation, base)
    above = sturm_count(energy0 + separation, base)
    if below != above:
        raise PoleSeparationError(
            f"E0={energy0!r} lies within {separation} of a genuine "
            f"pole of the unmodified resolvent at order {order}"
        )
    ratios = _upward_ratios(energy0, base)
    if ratios[-1] == 0.0:
        raise DivergedTailError(base.order)
    log10_p = np.cumsum(np.log10(np.abs(base.offdiag * ratios)))
    digits = _PLANT_MARGIN + math.ceil(2.0 * max(0.0, float(log10_p.max())))
    last_offdiag = (params.g * base.order if variant is PathologicalVariant.DIAG_AND_OFFDIAG
                    else float(base.offdiag[-1]))
    with mpmath.workdps(digits):
        tail = _upward_ratios(energy0, base, mpmath.mpf)[-1]
        a_n = mpmath.mpf(base.offdiag[-1]) ** 2
        hnn = energy0 - mpmath.mpf(last_offdiag) ** 2 / (a_n * tail)
    diag, offdiag = base.diag.copy(), base.offdiag.copy()
    diag[base.order] = float(hnn)
    offdiag[base.order - 1] = last_offdiag
    return PlantedChain(
        params=params,
        parity=parity,
        order=base.order,
        diag=diag,
        offdiag=offdiag,
        base=base,
        target_energy=energy0,
        variant=variant,
        tail=float(tail),
        planted_diag_nn=hnn,
        digits=digits,
    )
