"""Exception types shared across the solver modules."""


class RabiSolverError(Exception):
    """Base class for all rabicf errors."""


class GZeroError(RabiSolverError):
    """The coupling is zero, so the recurrence-coefficient method is undefined.

    The chain is diagonal in this limit; use the resolvent method or the
    tridiagonal eigensolver instead.
    """


class DeltaZeroError(RabiSolverError):
    """Level splitting is zero: every eigenvalue sits exactly on a pole of the
    recurrence coefficients, so root finding by the coefficient method is
    refused.  Use the resolvent method or the eigensolver."""


class PoleError(RabiSolverError):
    """A coefficient f_n was requested at (or within the guard of) its pole."""

    def __init__(self, n: int, energy: float | None = None):
        self.n = n
        self.energy = energy
        msg = f"coefficient pole hit at index n={n}"
        if energy is not None:
            msg += f" (E={energy!r})"
        super().__init__(msg)


class TooShortError(RabiSolverError):
    """Sequence too short to classify."""


class DegenerateDenominatorError(RabiSolverError):
    """Convergent denominator vanished: the finite continued fraction has a
    pole at this energy."""


class DivergedTailError(RabiSolverError):
    """The upward resolvent recurrence passed through a pole."""

    def __init__(self, j: int):
        self.j = j
        super().__init__(f"upward recurrence diverged at level j={j}")


class PoleSeparationError(RabiSolverError):
    """Requested plant energy is too close to a genuine pole of the
    unmodified resolvent for the demonstration to be unambiguous."""


class LostBracketError(RabiSolverError):
    """A bracket handed to sign bisection has no sign change between its
    ends, so it holds no root that bisection can refine."""


class TooFewLevelsError(RabiSolverError):
    """A spectrum comparison was requested over more levels than computed."""


class DegenerateScanError(RabiSolverError):
    """Crossing scan rejected: at zero splitting the two parity chains are
    identical, so every level pair is degenerate at every coupling."""
