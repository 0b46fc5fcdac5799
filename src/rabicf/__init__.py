"""Spectral solvers for the quantum Rabi model.

Two finite continued-fraction routes to the spectrum, cross-validated by an
independent Sturm-bisection eigensolver on the truncated parity chains:

* coefficient method (``schweber``): zeros of f_0(E) - F_N(E) built from
  the three-term recurrence of the eigenfunction expansion coefficients;
  parity-blind, pole lattice at E = k*omega - g^2/omega.
* resolvent method (``resolvent``): poles of the border resolvent of the
  truncated parity chain, via the characteristic-minor recurrence; includes
  the pathological truncation that plants a fictitious eigenvalue.
* oracle (``tridiag``): Sturm-count bisection, sharing no code with either
  continued-fraction route.

Both continued fractions run one scaled two-term recurrence and count
their roots (``secular_count``, ``pole_count``) with one pivot count, both
in ``recurrence``, for one root driver in ``search``, next to the crossing
detector; ``convergence`` certifies resolvent-tail convergence and bounds
the truncation depth; ``cli`` exposes everything as subcommands.
"""

from .errors import (
    DegenerateDenominatorError,
    DegenerateScanError,
    DeltaZeroError,
    DivergedTailError,
    GZeroError,
    LostBracketError,
    PoleError,
    PoleSeparationError,
    RabiSolverError,
    TooFewLevelsError,
    TooShortError,
)
from .model import (
    ChainCoefficients,
    ModelParams,
    Parity,
    TruncationOrder,
    build_chain,
    shifted_energy,
)
from .schweber import (
    CfStatus,
    CfValue,
    Classification,
    CoefficientSequence,
    ConvergentPair,
    SchweberCoefficient,
    classify_solution,
    coeff_f,
    convergent_pair,
    finite_cf,
    forward_recurrence,
    minimal_sequence,
    pair_secular,
    secular_count,
    spectral_function_a,
)
from .resolvent import (
    PathologicalVariant,
    PlantedChain,
    ResolventStatus,
    ResolventValue,
    build_pathological,
    char_poly,
    inverse_recurrence_tail,
    pole_count,
    poles_of_resolvent,
    resolvent_cf,
)
from .tridiag import (
    EnergyLevel,
    SpectralMethod,
    SpectrumApproximation,
    eigenvalues,
    sturm_count,
    union_spectrum,
)
from .convergence import (
    PringsheimCertificate,
    best_certificate,
    check_pringsheim,
    compare_spectra,
    tail_depth_bound,
    tail_value,
)
from .search import (
    CrossingEvent,
    MethodAResult,
    ScanResult,
    bracket_roots,
    scan_levels,
    solve_method_a,
)

__version__ = "0.1.0"
