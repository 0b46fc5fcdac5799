"""Physical parameters and truncated parity-chain matrices.

The Rabi Hamiltonian restricted to one of its two parity-invariant
subspaces is a real symmetric tridiagonal (Jacobi) matrix in the Fock
basis.  Everything downstream (both continued-fraction methods and the
eigensolver oracle) consumes the chain coefficients built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import RabiSolverError

__all__ = [
    "ModelParams",
    "Parity",
    "TruncationOrder",
    "ChainCoefficients",
    "build_chain",
    "shifted_energy",
]

# Index of the last retained Fock state; chain dimension is order + 1.
TruncationOrder = int


class Parity(Enum):
    """The two invariant subspaces of the model's Z2 symmetry."""

    PLUS = +1
    MINUS = -1

    @property
    def sign(self) -> int:
        return self.value

    @property
    def label(self) -> str:
        return "plus" if self is Parity.PLUS else "minus"


@dataclass(frozen=True)
class ModelParams:
    """The three couplings of the Rabi Hamiltonian, in energy units.

    omega : oscillator frequency, strictly positive.
    g     : qubit-oscillator coupling; the sign is irrelevant (unitary
            equivalence), so the absolute value is stored.
    delta : level splitting; absolute value stored for the same reason.
    """

    omega: float
    g: float
    delta: float

    def __post_init__(self):
        omega = float(self.omega)
        g = float(self.g)
        delta = float(self.delta)
        if not (math.isfinite(omega) and math.isfinite(g) and math.isfinite(delta)):
            raise ValueError("model parameters must be finite")
        if omega <= 0.0:
            raise ValueError(f"omega must be strictly positive, got {omega!r}")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "g", abs(g))
        object.__setattr__(self, "delta", abs(delta))


def checked_order(order: int, least: int) -> int:
    """``order`` as an int when it is an integer >= ``least``; ValueError
    otherwise, so no routine truncates a fractional order silently."""
    n = int(order)
    if n != order or n < least:
        raise ValueError(f"truncation order must be an integer >= {least}, got {order!r}")
    return n


def checked_tol(tol: float | None, default: float) -> float:
    """``tol``, or ``default`` when it is None, once it is finite and > 0;
    ValueError otherwise."""
    tol = default if tol is None else tol
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    return tol


@dataclass(frozen=True)
class ChainCoefficients:
    """Truncated parity chain of dimension ``order + 1``.

    ``diag[j] = j*omega + sign * (-1)**j * delta`` and
    ``offdiag[j-1] = g * sqrt(j)`` for ``j = 1..order``.  The off-diagonal
    stores the matrix entries sqrt(a_j); continued-fraction numerators are
    recovered as ``a_values() = offdiag**2`` so the matrix stays the single
    source of truth.
    """

    params: ModelParams
    parity: Parity
    order: TruncationOrder
    diag: np.ndarray = field(repr=False)
    offdiag: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.diag) != self.order + 1 or len(self.offdiag) != self.order:
            raise ValueError("coefficient lengths inconsistent with order")
        self.diag.setflags(write=False)
        self.offdiag.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.order + 1

    def a_values(self) -> np.ndarray:
        """Continued-fraction numerators a_j = j*g**2 for j = 1..order."""
        return self.offdiag * self.offdiag

    @cached_property
    def couplings(self) -> tuple[float, ...]:
        """a_0 .. a_N with a_0 = 0, the coupling column of the forward minor
        and pivot recurrences; built on first use and kept with the chain."""
        return (0.0, *self.a_values().tolist())

    @cached_property
    def coupling_roots(self) -> np.ndarray:
        """b_0 .. b_{N+1} = sqrt(a_j), with b_{N+1} = 0: the dominance test's
        off-diagonal magnitudes (``recurrence.dominant_row``), read-only."""
        roots = np.sqrt(self.couplings + (0.0,))
        roots.setflags(write=False)
        return roots


def range_scale(top):
    """The power of two, at most 1, that brings the magnitude ``top`` (a float
    or an array) to at most 2**256, where a product of two cannot overflow."""
    return np.ldexp(1.0, np.minimum(0, 256 - np.frexp(top)[1]))


def chain_diagonal(j, omega, sign, delta):
    """The diagonal j*omega + sign*(-1)**j*delta of the parity chain
    ``sign`` at the sites ``j``, a float array; ``delta`` broadcasts."""
    return j * omega + sign * ((-1.0) ** j) * delta


def build_chain(params: ModelParams, parity: Parity, order: TruncationOrder) -> ChainCoefficients:
    """Build the truncated parity-chain coefficients for a parameter set.
    RabiSolverError where the largest off-diagonal g*sqrt(order) overflows."""
    n = checked_order(order, 0)
    if not math.isfinite(params.g * math.sqrt(n)):
        raise RabiSolverError(f"chain: an off-diagonal g*sqrt(j) overflows at "
                              f"g = {params.g!r}, order {n}")
    diag = chain_diagonal(np.arange(n + 1, dtype=float), params.omega, parity.sign, params.delta)
    offdiag = params.g * np.sqrt(np.arange(1, n + 1, dtype=float))
    return ChainCoefficients(params=params, parity=parity, order=n, diag=diag, offdiag=offdiag)


def shifted_energy(params: ModelParams, energy: float) -> float:
    """Coupling-shifted energy x = E + g**2/omega used by the recurrence
    coefficients; its pole lattice sits at integer multiples of omega."""
    return energy + params.g * params.g / params.omega
