"""Physical parameters, truncated parity-chain matrices and spectra.

The Rabi Hamiltonian restricted to one of its two parity-invariant
subspaces is a real symmetric tridiagonal (Jacobi) matrix in the Fock
basis.  Every route (both continued-fraction methods and the oracle)
consumes the chain coefficients built here and reports its levels in the
spectrum records here; the request defaults and checks (window, grid,
order) and the continued fractions' pole guard, DEN_FLOOR and ``CfValue``
live here too, so that no route loads another route's module for them.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from operator import attrgetter

import numpy as np

from .errors import RabiSolverError

__all__ = [
    "ModelParams",
    "Parity",
    "TruncationOrder",
    "ChainCoefficients",
    "build_chain",
    "shifted_energy",
    "SpectralMethod",
    "EnergyLevel",
    "SpectrumApproximation",
    "CfStatus",
    "CfValue",
]

# Index of the last retained Fock state; chain dimension is order + 1.
TruncationOrder = int


class FrozenInstanceError(AttributeError):
    """Assignment to or deletion of an attribute of a frozen record."""


class _Field:
    __slots__ = ("repr",)

    def __init__(self, repr):
        self.repr = repr


def field(*, repr: bool = True):
    """A record field without a default, left out of the repr at ``repr=False``."""
    return _Field(repr)


def _bound(cls, names, defaults, args, kwargs) -> dict:
    """The fields of ``cls(*args, **kwargs)`` by name, the defaults filled in;
    TypeError for a call that binds a field twice, some field to nothing,
    or a name that is no field."""
    given = names[:len(args)]
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} positional arguments "
                        f"but {len(args)} were given")
    for name in kwargs:
        if name in given or name not in names:
            raise TypeError(f"{cls.__qualname__}() got "
                            + ("multiple values for argument" if name in given
                               else "an unexpected keyword argument") + f" {name!r}")
    values = {**defaults, **kwargs, **dict(zip(given, args))}
    if len(values) < len(names):
        missing = ", ".join(repr(n) for n in names if n not in values)
        raise TypeError(f"{cls.__qualname__}() missing required arguments: {missing}")
    return values


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` a frozen record of the fields its annotations name, after
    those of a record base class: ``__init__`` by position or keyword (with
    the class attribute as a default) and then ``__post_init__`` where the
    class has one; ``__repr__`` of the fields not marked
    ``field(repr=False)``, as ``Name(field=value, ...)``; and ``__eq__`` over
    the field tuple, for records of the same class only.  Assignment and
    deletion raise FrozenInstanceError, an AttributeError, and the hash is
    that of the field tuple (a TypeError where a field holds an array).
    Values live in the instance ``__dict__``, where ``cached_property`` also
    keeps its values.

    These are the methods ``dataclasses.dataclass(frozen=True)`` writes,
    built here from closures in about 6 us a class.  The package does not
    use ``dataclasses``: that decorator generates the source of five or six
    methods per class and compiles it with ``exec``, 0.4-0.9 ms a class and
    9-14 ms for the 16 records the package then had (2-vCPU x86-64 VM,
    Python 3.11), which every process paid at import, while a CLI request
    takes 3-17 ms.
    """
    # field name -> shown in the repr
    fields = dict(getattr(cls, "_record_fields", {}))
    for name in cls.__dict__.get("__annotations__", {}):
        spec = getattr(cls, name, None)
        if isinstance(spec, _Field):
            delattr(cls, name)
        fields[name] = spec.repr if isinstance(spec, _Field) else True
    names, keys = tuple(fields), fields.keys()
    defaults = {n: getattr(cls, n) for n in names if hasattr(cls, n)}
    shown_names = [n for n, shown in fields.items() if shown]
    # attrgetter of one name returns the value itself, not a 1-tuple
    astuple = (attrgetter(*names) if len(names) > 1
               else lambda self: (getattr(self, names[0]),))
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if not args and kwargs.keys() == keys:
            values = kwargs
        elif not kwargs and len(args) == len(names):
            values = dict(zip(names, args))
        else:
            values = _bound(cls, names, defaults, args, kwargs)
        self.__dict__.update(values)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in shown_names)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return astuple(self) == astuple(other)
        return NotImplemented

    cls._record_fields = fields
    cls.__init__, cls.__repr__, cls.__eq__ = __init__, __repr__, __eq__
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__hash__ = lambda self: hash(astuple(self))
    return cls


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


@record
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


@record
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
        off-diagonal magnitudes (``dominant_row``), read-only."""
        roots = np.sqrt(self.couplings + (0.0,))
        roots.setflags(write=False)
        return roots

    @cached_property
    def gershgorin(self) -> tuple[float, float]:
        """The Gershgorin interval, which holds the whole spectrum; built once."""
        radius = np.zeros(self.dim)
        radius[:-1] += np.abs(self.offdiag)
        radius[1:] += np.abs(self.offdiag)
        return float(np.min(self.diag - radius)), float(np.max(self.diag + radius))


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


# Default bisection width of the oracle, relative to omega.
DEFAULT_EIG_TOL = 1e-11

# Gap below which two levels are flagged as a near-degenerate pair,
# relative to omega.
NEAR_DEGENERATE_GAP = 1e-10


class SpectralMethod(Enum):
    METHOD_A = "a"
    METHOD_B = "b"
    ORACLE = "oracle"


@record
class EnergyLevel:
    index: int
    energy: float
    residual: float


@record
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
    flagged_pairs: tuple[tuple[int, int], ...] = ()

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


DEFAULT_GRID = 2000

# Floor of every default truncation order (``default_order``).
DEFAULT_ORDER = 300

# Largest default truncation order: above it every route would allocate
# chains of millions of sites, so an explicit order is required.
MAX_DEFAULT_ORDER = 10**6

# Root refinement width, relative to omega.
DEFAULT_REFINE_TOL = 1e-12


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


def default_window(params: ModelParams, levels: int) -> tuple[float, float]:
    """Envelope window holding at least ``levels`` low-lying states: the
    g = 0 and delta = 0 exact spectra bound the sweep.  RabiSolverError
    where an end overflows."""
    try:
        lo = -params.g**2 / params.omega - params.delta - params.omega
        hi = (levels + 2) * params.omega
    except OverflowError:
        lo = hi = math.inf
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise RabiSolverError(f"the default window overflows at omega = {params.omega!r}, "
                              f"g = {params.g!r}, delta = {params.delta!r}; pass --window")
    return lo, hi


def default_order(params: ModelParams, levels: int, window: tuple[float, float]) -> int:
    """Default truncation order of every route (methods a and b, the oracle,
    the scan): twice the tail-depth bound at the largest |E| of ``window``,
    which grows with g^2/w^2, with floors of 4*levels and DEFAULT_ORDER.
    ValueError above MAX_DEFAULT_ORDER, a bound that overflows included."""
    from .convergence import tail_depth_bound

    emax = max(abs(window[0]), abs(window[1]))
    try:
        order = max(2 * tail_depth_bound(emax, params), 4 * levels, DEFAULT_ORDER)
    except (RabiSolverError, ValueError):  # an inf bound, or an energy not finite
        if not math.isfinite(emax):
            raise
        order = math.inf
    if order > MAX_DEFAULT_ORDER:
        raise ValueError(f"the default truncation order {order} exceeds {MAX_DEFAULT_ORDER}; "
                         "pass --order")
    return order


# Pole guard half-width around x = n*omega, relative to omega.  Inside it
# f_n is reported at_pole instead of evaluated, and the method-a residual
# reads infinite; the root count needs no guard.
EPS_POLE_REL = 1e-9

# An intermediate continued-fraction denominator below this magnitude is a
# pole of a partial fraction; the evaluation reports Overflow status.
DEN_FLOOR = 1e-300


class CfStatus(Enum):
    CONVERGED = "converged"
    HIT_POLE = "hit-pole"
    OVERFLOW = "overflow"


@record
class CfValue:
    """Value of a finite continued fraction plus its evaluation status.

    ``value`` is finite exactly when ``status`` is CONVERGED.
    """

    value: float
    status: CfStatus

    @property
    def converged(self) -> bool:
        return self.status is CfStatus.CONVERGED


def pole_guard(params: ModelParams, eps_pole: float | None = None) -> float:
    """Pole guard half-width in energy units: ``eps_pole``, finite and >= 0,
    or by default EPS_POLE_REL * omega."""
    if eps_pole is None:
        return EPS_POLE_REL * params.omega
    if not (math.isfinite(eps_pole) and eps_pole >= 0.0):
        raise ValueError(f"eps_pole must be finite and >= 0, got {eps_pole!r}")
    return eps_pole


# Pivots at or below PIVMIN count as negative, and those in (-PIVMIN,
# PIVMIN] continue as -PIVMIN, the usual bisection convention: an exactly
# singular leading submatrix counts as an eigenvalue below E.  Small
# enough never to matter at physical scales, large enough that
# a_j / PIVMIN cannot overflow for any representable chain.
PIVMIN = 1e-290

# Steps per block of the pivot sweep.  Measured on a 2-vCPU x86-64 VM: 16
# is 5-10% faster than 32 on the scan's 600 x 8 lanes at order 300, 32
# about 10% faster on one chain's 8 x 15 lanes and on the crossing
# refinement's rows, 64 no faster; each sweep takes about 40% of the time
# of the per-step PIVMIN rule (scripts/crossing_cost.py, BENCH_24.json).
_ROWS = 32

# Relative slack of the dominance exit: of the energy, of each row and of
# the pivot's bound.  About 1e7 units of roundoff, far above the rounding
# of one step, far below any gap that decides where a sweep stops.
SLACK = 1e-9


def dominance_margins(p, b, mag) -> np.ndarray:
    """p_j - r_j - (SLACK*(mag_j + r_j) + 4*PIVMIN) of the rows p_0 .. p_K,
    with r_j = b_j + b_{j+1}, off-diagonal magnitudes ``b`` = b_0 .. b_{K+1}
    and row magnitudes ``mag`` >= |p_j|: row j is dominant above E, as
    :func:`pivot_sweep` takes it, where its margin is >= E + SLACK*|E|."""
    r = b[:-1] + b[1:]
    with np.errstate(invalid="ignore", over="ignore"):
        return p - r - (SLACK * (mag + r) + 4.0 * PIVMIN)


def dominant_row(p, b) -> int:
    """The first row J from which every row of ``p``, the rows p_0 .. p_K
    at or below those of every lane, is dominant above E = 0; K + 1 when
    the last row is not.  A NaN row is not."""
    below = np.flatnonzero(~(dominance_margins(p, b, np.abs(p)) >= 0.0))
    return int(below[-1]) + 1 if below.size else 0


def pivot_sweep(couplings, rows, dominant: int, energies=0.0) -> tuple[np.ndarray, int]:
    """(counts, steps read): the pivots q_0 = p_0 - E, q_k = (p_k - E) -
    a_k/q_{k-1} of an LDL^T at or below PIVMIN (each then continues as
    -PIVMIN or below), as many as its eigenvalues below E (Sylvester), in
    every lane, an int array.  ``rows(i, j)`` gives the (j - i, ...) array
    p_i .. p_{j-1}, a row of which broadcasts against ``energies`` to the
    lanes' shape, and ``couplings[i:j]`` a_{i+1} .. a_j, of len(couplings)
    + 1 steps, which broadcast into it: per-lane tables count in one sweep.

    The sweep is blocked, with the PIVMIN check deferred (LAPACK
    ``dlaneg``; Marques, Riedy and Voemel, SIAM J. Sci. Comput. 28(5),
    2006): _ROWS steps are filled with p_j - E in one call, then each step
    is two in-place calls.  After the block, the first row with a pivot in
    [-PIVMIN, PIVMIN] has those lanes set to -PIVMIN and the rows after it
    run again, so every count is the per-step rule's, bit for bit.  Block
    row i is step j0 + i - 1, row 0 the last pivot of the block before,
    whose coupling is carried over, so that a table slice stays inside one
    block.  The errstate covers inf rows and a zero pivot's division.

    ``dominant`` = J promises that every row from J on is dominant in every
    lane, p_j - E >= r_j + SLACK*(|p_j - E| + r_j) + 4*PIVMIN with r_j =
    b_j + b_{j+1} and b_j = sqrt(a_j) (:func:`dominance_margins`); J >
    len(couplings) promises nothing.  The sweep stops after the first block
    whose last step K has K + 1 >= J and q_K >= b_{K+1}*(1 + SLACK) in every
    lane: by induction q_j > p_j - E - b_j >= b_{j+1}*(1 + SLACK) for every
    j > K, the slack covering each step's rounding, so no later pivot
    reaches PIVMIN and the count is the full sweep's, bit for bit (the
    paper's Pringsheim criterion, site by site).  NaN lanes never pass.
    """
    steps, a = len(couplings) + 1, [None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = rows(0, min(_ROWS, steps))
        lanes = np.broadcast(d[0], energies).shape
        block = np.empty((_ROWS + 1,) + lanes)
        row = [block[i, ...] for i in range(_ROWS + 1)]  # views, also for 0-d lanes
        neg = np.empty(block.shape, dtype=bool)
        t = np.empty(lanes)
        count = np.zeros(lanes, dtype=np.int64)
        for j0 in range(0, steps, _ROWS):
            m = min(_ROWS, steps - j0)
            if j0:
                d = rows(j0, j0 + m)
            a = [a[-1], *couplings[j0:j0 + m]]  # a[i - 1] is the a_k into row i
            np.subtract(d, energies, out=block[1:m + 1])
            first, check = (2 if j0 == 0 else 1), 1
            while True:
                for a_k, before, q in zip(a[first - 1:m], row[first - 1:m], row[first:m + 1]):
                    np.divide(a_k, before, out=t)
                    np.subtract(q, t, out=q)
                # no pivot in [-PIVMIN, PIVMIN] when as many are <= PIVMIN as < -PIVMIN
                np.less_equal(block[check:m + 1], PIVMIN, out=neg[check:m + 1])
                if np.count_nonzero(neg[check:m + 1]) == np.count_nonzero(
                        block[check:m + 1] < -PIVMIN):
                    break
                tiny = np.abs(block[check:m + 1]) <= PIVMIN
                r = check + int(np.flatnonzero(tiny.reshape(len(tiny), -1).any(axis=1))[0])
                np.copyto(row[r], -PIVMIN, where=tiny[r - check])
                np.subtract(d[r:], energies, out=block[r + 1:m + 1])
                first = check = r + 1
            count += np.add.reduce(neg[1:m + 1].view(np.uint8), axis=0, dtype=np.uint8)
            block[0] = block[m]
            if dominant <= j0 + m < steps:
                # np.count_nonzero, not np.all, which would map in one more
                # numpy loop on the oracle's requests (about 60 KiB of RSS)
                held = block[0] >= np.sqrt(a[m]) * (1.0 + SLACK)
                if np.count_nonzero(held) == held.size:
                    return count, j0 + m
    return count, steps


def negative_pivots(couplings, rows, dominant: int, energies=0.0) -> np.ndarray:
    """The counts of :func:`pivot_sweep` with ``couplings`` = a_0 .. a_K, as
    the continued fractions' forward pivots index them (a_0 = 0, the unread
    coupling into the first row)."""
    return pivot_sweep(couplings[1:], rows, dominant, energies)[0]
