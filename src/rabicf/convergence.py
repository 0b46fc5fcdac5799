"""Convergence certificates for the resolvent tail and the spectral
convergence comparator.

A continued fraction a_1/(b_1 - a_2/(b_2 - ...)) with dimensionful entries
converges to a value bounded by c whenever |b_j| >= a_j/c + c holds for all
levels and the numerator products are unbounded.  Applied to the resolvent
tail (a_j = j g^2, b_j(E) = E - j w -/+ (-1)^j D) the inequality holds for
all j >= n once n exceeds

    (|E| + |D|)/w + (2 g^2/w^2) (1 + sqrt(1 + (|E| + |D|) w / g^2)),

for the optimal choice of c.  The bound is finite for every coupling, in
particular beyond g = w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooFewLevelsError
from .model import ModelParams, Parity, range_scale
from .schweber import CfStatus, CfValue, DEN_FLOOR
from .tridiag import SpectrumApproximation

__all__ = [
    "PringsheimCertificate",
    "tail_depth_bound",
    "check_pringsheim",
    "best_certificate",
    "compare_spectra",
    "tail_value",
]


@dataclass(frozen=True)
class PringsheimCertificate:
    """Finite verification of |b_j| >= a_j/c + c over j in [start_index,
    verified_up_to].  A certificate is not a proof for all j; callers pair
    it with the depth bound, beyond which the inequality is automatic."""

    c: float
    start_index: int
    verified_up_to: int
    holds: bool
    margin: float
    unbounded_product: bool


def tail_depth_bound(energy: float, params: ModelParams) -> int:
    """Smallest certified tail start: the dimensionful convergence bound,
    rounded up.  Returns 1 at g = 0, where every tail numerator vanishes
    and the tail is trivially convergent."""
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy!r}")
    w, g, d = params.omega, params.g, params.delta
    if g == 0.0:
        return 1
    s = abs(energy) + d
    n = s / w + (2.0 * g * g / (w * w)) * (1.0 + math.sqrt(1.0 + s * w / (g * g)))
    return max(1, math.ceil(n))


def _tail_b(energy: float, params: ModelParams, parity: Parity, j: np.ndarray) -> np.ndarray:
    return energy - j * params.omega - parity.sign * ((-1.0) ** j) * params.delta


def _candidate_levels(energy: float, params: ModelParams, n: int, up_to: int) -> np.ndarray:
    """The levels of [n, up_to] where |b_j| - (j g^2/c + c) is least: on
    each parity class it is linear in j but for a kink where b_j changes
    sign, near j = (E -+ D)/w, so at a class end or next to a kink.  (At
    c = g^2/w it is flat above the kink, and read to a few ulps of j w.)"""
    if n < 0 or up_to < n:
        raise ValueError("need 0 <= n <= up_to")
    kinks = [math.floor((energy + s * params.delta) / params.omega) for s in (-1.0, 1.0)]
    js = {n, n + 1, up_to - 1, up_to, *(k + i for k in kinks for i in range(-1, 3))}
    return np.array(sorted(j for j in js if n <= j <= up_to), dtype=float)


def _margins(energy, params, parity, n, up_to, c):
    """min over levels [n, up_to] of |b_j| - (j g^2/c + c), for a constant
    ``c`` or each entry of an array of them.  For each c, inputs reaching
    beyond 2**256 (|E|, w*up_to, g*sqrt(up_to), D or c) are first scaled by
    ``range_scale`` of the largest, so that j g^2 cannot overflow, and the
    margin is exact up to that factor."""
    j = _candidate_levels(energy, params, n, up_to)
    c = np.asarray(c, dtype=float)[..., None]
    w, g, d = params.omega, params.g, params.delta
    top = np.maximum(max(abs(energy), w * up_to, g * math.sqrt(up_to), w, d), c)
    s = range_scale(top)
    lhs = np.abs(s * energy - j * (s * w) - parity.sign * ((-1.0) ** j) * (s * d))
    return np.min(lhs - (j * (s * g) * (s * g) / (s * c) + s * c), axis=-1) / s[..., 0]


def check_pringsheim(
    energy: float,
    params: ModelParams,
    parity: Parity,
    n: int,
    c: float,
    up_to: int,
) -> PringsheimCertificate:
    """Verify the tail inequality with constant ``c`` on levels [n, up_to]."""
    if c <= 0:
        raise ValueError("c must be positive")
    margin = float(_margins(energy, params, parity, n, up_to, c))
    return PringsheimCertificate(
        c=c,
        start_index=n,
        verified_up_to=up_to,
        holds=bool(margin >= 0.0),
        margin=margin,
        unbounded_product=params.g > 0.0,
    )


def best_certificate(
    energy: float,
    params: ModelParams,
    parity: Parity,
    n: int,
    up_to: int,
) -> PringsheimCertificate:
    """The c of the best margin, in closed form.

    The margin min_j(|b_j| - j g^2/c - c) over the candidate levels is a
    minimum of functions concave in c > 0, so it is concave, and its
    maximum lies at a piece's vertex c = g sqrt(j) or where two pieces
    meet, c = (i - j) g^2/(|b_i| - |b_j|): it is the best margin at those
    points.  At g = 0 the inequality degenerates to |b_j| >= c; the
    largest admissible c is min |b_j| and is used directly.
    """
    w, g = params.omega, params.g
    if g == 0.0:
        j = _candidate_levels(energy, params, n, up_to)
        c = float(np.min(np.abs(_tail_b(energy, params, parity, j))))
        c = max(c, DEN_FLOOR)
        return check_pringsheim(energy, params, parity, n, c, up_to)
    j = _candidate_levels(energy, params, n, up_to)
    b = np.abs(_tail_b(energy, params, parity, j))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        meet = (j[:, None] - j) / (b[:, None] - b) * g * g
    cs = np.concatenate([g * np.sqrt(np.maximum(j, 1.0)), meet.ravel()])
    cs = cs[np.isfinite(cs) & (cs > 0.0)]
    # argmax keeps the first of equal margins
    c = float(cs[np.argmax(_margins(energy, params, parity, n, up_to, cs))])
    return check_pringsheim(energy, params, parity, n, c, up_to)


def compare_spectra(a: SpectrumApproximation, b: SpectrumApproximation, m: int) -> float:
    """max_{n < m} |E_n^a - E_n^b| over the first m levels."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if len(a) < m or len(b) < m:
        raise TooFewLevelsError(
            f"need {m} levels, have {len(a)} and {len(b)}"
        )
    ea = a.energies[:m]
    eb = b.energies[:m]
    return float(np.max(np.abs(ea - eb)))


def tail_value(
    energy: float,
    params: ModelParams,
    parity: Parity,
    n: int,
    depth: int,
) -> CfValue:
    """Backward evaluation of the resolvent tail starting at level n,
    truncated ``depth`` levels below:

        xi_n = a_n/(b_n - a_{n+1}/(b_{n+1} - ...))

    With a certificate at start n the value is bounded by the certified c.
    Starting below the depth bound is allowed but uncertified, and the
    evaluation may hit a partial-fraction pole.
    """
    if n < 1:
        raise ValueError("tail start must be >= 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    g2 = params.g * params.g
    acc = 0.0
    for j in range(n + depth, n - 1, -1):
        den = float(_tail_b(energy, params, parity, np.float64(j))) - acc
        if abs(den) < DEN_FLOOR:
            return CfValue(value=math.nan, status=CfStatus.HIT_POLE)
        acc = j * g2 / den
    return CfValue(value=float(acc), status=CfStatus.CONVERGED)
