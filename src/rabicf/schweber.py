"""Coefficient method (CLI method "a"): recurrence coefficients,
coefficient sequences and the finite continued fraction whose zeros
approximate the Rabi spectrum.

The expansion coefficients K_n of the eigenfunction around the lower
singular point satisfy the three-term recurrence

    n K_n = f_{n-1}(E) K_{n-1} - K_{n-2},      K_0 = 1, K_1 = f_0(E),

with f_n(E) = 2g/w + (n w - x + D^2/(x - n w)) / (2g) and x = E + g^2/w.
Eigenvalues are the energies where the minimal solution of the recurrence
also satisfies the K_1 = f_0 seed, i.e. the zeros of

    S_N(E) = f_0(E) - F_N(E),
    F_N(E) = 1/(f_1 - 2/(f_2 - 3/(f_3 - ... N/f_N))).

The method sees only D^2, so it cannot discern the two parity chains: its
roots approximate the union of both parity spectra.  The f_n have poles on
the lattice x = n w (the cuts).  The root count ``secular_count`` counts
across them and the secular polynomial ``pair_secular`` has them cleared,
so roots on a cut (exceptional, Juddian levels) are found; only
evaluations of f_n itself keep a guard interval around each pole.

The convergents and the secular polynomial run the scaled two-term
recurrence of ``rabicf.recurrence``, and the root count its pivot count;
coefficient sequences are kept as ratios K_{n+1}/K_n, which need no rescale.
Its pole guard, DEN_FLOOR and ``CfValue`` live in ``rabicf.model``.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    DeltaZeroError,
    GZeroError,
    PoleError,
    TooShortError,
)
from .model import (DEN_FLOOR, CfStatus, CfValue, ModelParams, TruncationOrder, checked_order,
                    dominant_row, negative_pivots, pole_guard, record, shifted_energy)
from .recurrence import Scaled, scaled_pair

__all__ = [
    "SchweberCoefficient",
    "CoefficientSequence",
    "ConvergentPair",
    "Classification",
    "coeff_f",
    "forward_recurrence",
    "minimal_sequence",
    "finite_cf",
    "spectral_function_a",
    "convergent_pair",
    "pair_secular",
    "secular_count",
    "classify_solution",
]


@record
class SchweberCoefficient:
    """Recurrence coefficient f_n(E); ``at_pole`` marks the guard interval
    around x(E) = n*omega where the value is undefined."""

    n: int
    value: float
    at_pole: bool


class Classification(Enum):
    MINIMAL_LIKE = "minimal-like"
    DOMINANT_LIKE = "dominant-like"
    UNDETERMINED = "undetermined"


def _require_coupling(params: ModelParams):
    if params.g == 0.0:
        raise GZeroError(
            "coefficient method undefined at g=0; use the resolvent method "
            "or the tridiagonal eigensolver"
        )


def coeff_f(
    n: int, energy: float, params: ModelParams, eps_pole: float | None = None
) -> SchweberCoefficient:
    """Evaluate f_n(E), flagging the pole guard around x(E) = n*omega.

    ``eps_pole`` is the guard half-width in energy units (default
    EPS_POLE_REL * omega).
    """
    _require_coupling(params)
    if n < 0:
        raise ValueError("n must be >= 0")
    detune = shifted_energy(params, energy) - n * params.omega
    if abs(detune) < pole_guard(params, eps_pole):
        return SchweberCoefficient(n=n, value=math.nan, at_pole=True)
    return SchweberCoefficient(n=n, value=_f_of_detune(detune, params), at_pole=False)


def _f_of_detune(detune, params: ModelParams):
    """f_n from the detuning x - n*omega; elementwise on arrays."""
    w, g, d = params.omega, params.g, params.delta
    return 2.0 * g / w + (-detune + d * d / detune) / (2.0 * g)


def _coeff_values(
    energy: float, params: ModelParams, n_max: int, eps_pole: float | None = None
) -> np.ndarray:
    """f_0..f_{n_max} as an array; raises PoleError on any guard hit."""
    w = params.omega
    detune = shifted_energy(params, energy) - w * np.arange(n_max + 1, dtype=float)
    hits = np.abs(detune) < pole_guard(params, eps_pole)
    if np.any(hits):
        raise PoleError(int(np.argmax(hits)), energy)
    return _f_of_detune(detune, params)


@record
class CoefficientSequence:
    """Coefficients K_0..K_N with K_0 = 1, stored as their successive
    ratios r[n] = K_{n+1}/K_n, so that no diagnostic overflows or
    underflows.

    Absolute values are not meaningful downstream, only ratios; ``entries``
    multiplies them out where representable (inf/0 otherwise).  At an
    exactly zero K_m the ratios read 0 and then +-inf, and ``entries``
    reads NaN past K_m.
    """

    r: np.ndarray

    def __len__(self) -> int:
        return len(self.r) + 1

    @property
    def entries(self) -> np.ndarray:
        with np.errstate(all="ignore"):
            return np.cumprod(np.concatenate(([1.0], self.r)))

    def ratio(self, n: int) -> float:
        """K_{n+1} / K_n."""
        if not 0 <= n < len(self.r):
            raise IndexError(f"ratio index {n} out of range")
        return float(self.r[n])

    def ratios(self) -> np.ndarray:
        """All consecutive ratios K_{n+1}/K_n, n = 0..N-1."""
        return self.r.copy()


def forward_recurrence(
    energy: float,
    params: ModelParams,
    order: TruncationOrder,
    k1: float | None = None,
) -> CoefficientSequence:
    """Run the three-term recurrence forward from K_0 = 1, K_1 = k1.

    ``k1`` defaults to f_0(E), the seed forced by analyticity at the lower
    singular point.  The recurrence runs in ratio form, r_1 = k1 and
    r_m = (f_{m-1} - 1/r_{m-1}) / m for r_m = K_m/K_{m-1}.  Forward
    iteration is exact for the recurrence but numerically favours the
    dominant solution: at an eigenvalue the minimal decay survives only
    until rounding feeds the dominant branch (use :func:`minimal_sequence`
    for a stable minimal solution).
    """
    _require_coupling(params)
    n = checked_order(order, 0)
    f = _coeff_values(energy, params, max(n - 1, 0))
    r = np.empty(n)
    if n >= 1:
        r[0] = f[0] if k1 is None else k1
    with np.errstate(divide="ignore"):  # an exact zero K_m gives r = 0, then inf
        for m in range(2, n + 1):
            r[m - 1] = (f[m - 1] - 1.0 / r[m - 2]) / m
    return CoefficientSequence(r=r)


def minimal_sequence(
    energy: float,
    params: ModelParams,
    order: TruncationOrder,
) -> CoefficientSequence:
    """Minimal solution K_0..K_N with K_0 = 1, built backward.

    The tail ratios xi_n = n K_n / K_{n-1} are generated by the downward
    recursion xi_n = n / (f_n - xi_{n+1}) seeded at depth N + max(50, N),
    well beyond ``order`` (Miller's device); xi_n / n are the ratios of the
    minimal solution, which the forward recurrence cannot reach in floating
    point.  Note the seed K_1 = xi_1 equals f_0(E) only at eigenvalues.
    """
    _require_coupling(params)
    n = checked_order(order, 0)
    depth = n + max(50, n)
    f = _coeff_values(energy, params, depth)
    xi = 0.0
    r = np.empty(n)
    for m in range(depth, 0, -1):
        xi = m / (f[m] - xi)
        if m <= n:
            r[m - 1] = xi / m
    return CoefficientSequence(r=r)


def finite_cf(
    energy: float,
    params: ModelParams,
    order: TruncationOrder,
    eps_pole: float | None = None,
) -> CfValue:
    """Backward evaluation of F_N(E) = 1/(f_1 - 2/(f_2 - ... N/f_N)).

    Backward evaluation is the stable direction for the minimal solution.
    Status is HIT_POLE if any needed f_n sits in its pole guard, OVERFLOW
    if an intermediate denominator falls below DEN_FLOOR.
    """
    _require_coupling(params)
    n = checked_order(order, 1)
    try:
        with np.errstate(over="ignore"):  # below g ~ 1e-307 some f_m, and the residual, read inf
            f = _coeff_values(energy, params, n, eps_pole)
    except PoleError:
        return CfValue(value=math.nan, status=CfStatus.HIT_POLE)
    acc = f[n]
    for m in range(n - 1, 0, -1):
        if abs(acc) < DEN_FLOOR:
            return CfValue(value=math.nan, status=CfStatus.OVERFLOW)
        acc = f[m] - (m + 1) / acc
    if abs(acc) < DEN_FLOOR:
        return CfValue(value=math.nan, status=CfStatus.OVERFLOW)
    return CfValue(value=float(1.0 / acc), status=CfStatus.CONVERGED)


def spectral_function_a(
    energy: float,
    params: ModelParams,
    order: TruncationOrder,
    eps_pole: float | None = None,
) -> CfValue:
    """S_N(E) = f_0(E) - F_N(E); its zeros are the method's eigenvalue
    estimates.  Pole and overflow statuses propagate."""
    tail = finite_cf(energy, params, order, eps_pole)  # guards f_0 too
    if not tail.converged:
        return tail
    f0 = coeff_f(0, energy, params, eps_pole).value
    return CfValue(value=f0 - tail.value, status=CfStatus.CONVERGED)


@record
class ConvergentPair:
    """Numerator/denominator pair (A_n, B_n) of the n-th convergent.

    Both satisfy C_m = f_m C_{m-1} - m C_{m-2}, from A_0 = 0, A_1 = 1 and
    B_0 = 1, B_1 = f_1.  Only the quotient A_n/B_n = F_n is well-defined in
    the large-n limit, so each is run through the scaled recurrence
    (``rabicf.recurrence``) and the two are brought to a common power of
    two, which leaves the quotient exact.
    """

    a: float
    b: float
    n: int

    @property
    def ratio(self) -> float:
        if self.b == 0.0:
            raise DegenerateDenominatorError(f"B_{self.n} = 0: F_{self.n} has a pole here")
        return self.a / self.b


def convergent_pair(energy: float, params: ModelParams, n: int) -> ConvergentPair:
    """Rescaled (A_n, B_n) with A_n/B_n = F_n(E); cross-check strategy for
    the backward evaluation.  Raises PoleError when any of f_0..f_n sits in
    its guard."""
    _require_coupling(params)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ConvergentPair(a=0.0, b=1.0, n=0)
    f = _coeff_values(energy, params, n).tolist()
    steps = list(zip(f[2:], range(2, n + 1)))
    _, a, a_exp = scaled_pair(steps)
    _, b, b_exp = scaled_pair([(f[1], 0.0)] + steps)
    top = max(a_exp, b_exp)
    return ConvergentPair(a=math.ldexp(a, a_exp - top), b=math.ldexp(b, b_exp - top), n=n)


def pair_secular(energy: float, params: ModelParams, order: TruncationOrder) -> Scaled:
    """Pole-free secular polynomial P_N = W_N prod_{m<=N} (x - m w), as a
    ``Scaled`` (its rescale kept): W_N = f_0 B_N - A_N vanishes exactly where
    S_N = f_0 - F_N does (consecutive convergents never vanish together).

    W_m = f_m W_{m-1} - m W_{m-2} from (W_{-1}, W_0) = (1, f_0), so with
    d_m = x - m w, t = max(2g, w) and c = 2g/t, (c/w)^(m+1) P_m runs on the
    rows p_m = c f_m d_m/w = (d_m/w)(2g c/w - d_m/t) + D^2/(t w) and
    q_m = c^2 m (d_m/w)(d_{m-1}/w) from (1, p_0): one scaled sequence
    (``rabicf.recurrence``), finite on every cut, with no 1/g below g = w/2,
    no g^2 above and no overall scale of (w, g, D).  Its sign is
    (-1)^(N + 1 + secular_count(E)), so refinement needs no cut test.
    """
    _require_coupling(params)
    n = checked_order(order, 1)
    w, g, delta = params.omega, params.g, params.delta
    m = np.arange(n + 1, dtype=float)
    dw = (d := shifted_energy(params, energy) - w * m) / w
    c = 2.0 * g / (t := max(2.0 * g, w))  # min(2g/w, 1)
    p = (dw * (c * (2.0 * g / w) - d / t) + delta * delta / (t * w)).tolist()
    q = (c * c * m[1:] * dw[1:] * dw[:-1]).tolist()
    return Scaled(*scaled_pair(zip(p, [0.0] + q))[1:])


def secular_count(energy, params: ModelParams, order: TruncationOrder):
    """Root count c'(E) of W_N: the negative pivots q_0 = f_0,
    q_m = f_m - m/q_{m-1} of its leading minors, plus the cuts x = m w,
    0 <= m <= N, at or below x(E).

    W_0..W_N are the leading minors of the tridiagonal T(x) with diagonal
    f_0..f_N and squared off-diagonals 1..N, which decreases in E between
    cuts, so the pivot count rises by one at each root and never falls
    (discrete Sturm oscillation; F. V. Atkinson, 1964, ch. 4).  At a cut
    f_m jumps from -inf to +inf (it is +inf on the cut) and the pivot count
    drops by one, which the cut term restores: c'(b) - c'(a) roots lie in
    (a, b], cuts included.  A float gives an int (one 0-d lane), an array
    an int array (``model.negative_pivots``).  At delta = 0 f_m has no
    pole for the cut term to count (it reads 0/0 on a cut): DeltaZeroError.

    The sweep stops where the rest of T(x) is diagonally dominant
    (``_dominant_row``), so it reads a number of rows that depends on the
    energies, not on N; its counts are the full sweep's, bit for bit.
    """
    _require_coupling(params)
    if params.delta == 0.0:
        raise DeltaZeroError("at delta=0 every eigenvalue coincides with a coefficient pole; "
                             "use the resolvent method or the eigensolver")
    n = checked_order(order, 1)
    x = shifted_energy(params, energy)
    m_w = params.omega * np.arange(n + 1, dtype=float)
    cuts = np.searchsorted(m_w, x, side="right")  # x - m w >= 0 iff x >= m w
    lanes = (-1,) + (1,) * np.ndim(x)
    count = cuts + negative_pivots(range(n + 1), lambda i, j: _f_of_detune(
        x - m_w[i:j].reshape(lanes), params), _dominant_row(x, m_w, params))
    return int(count) if np.ndim(x) == 0 else count


def _dominant_row(x, m_w, params: ModelParams) -> int:
    """``model.dominant_row`` of ``secular_count``'s sweep over the
    lanes ``x`` (its couplings are a_m = m): rows at max x, those at or
    below a cut (m w <= max x) failing.  Above its cut f_m falls as x
    rises, in floats too (each operation rounds monotonically), so the row
    at max x bounds the row of every lane.  A NaN lane gives N + 1."""
    top = np.max(x, initial=-np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = np.where(m_w > top, _f_of_detune(top - m_w, params), np.nan)
    return dominant_row(f, np.sqrt(np.arange(len(m_w) + 1.0)))


def classify_solution(seq: CoefficientSequence, params: ModelParams) -> Classification:
    """Classify a coefficient sequence by its late ratios.

    DOMINANT_LIKE if the last 10 ratios sit within 20% of the limit
    omega/(2g); MINIMAL_LIKE if their magnitudes decay monotonically below
    one tenth of that limit; UNDETERMINED otherwise.
    """
    _require_coupling(params)
    if len(seq) < 20:
        raise TooShortError(f"need at least 20 entries, got {len(seq)}")
    target = params.omega / (2.0 * params.g)
    last = seq.r[-10:]
    if np.all(np.abs(last - target) <= 0.2 * target):
        return Classification.DOMINANT_LIKE
    mags = np.abs(last)
    if np.all(mags < 0.1 * target) and np.all(np.diff(mags) <= 0):
        return Classification.MINIMAL_LIKE
    return Classification.UNDETERMINED
