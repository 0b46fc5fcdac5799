"""Spectral solvers for the quantum Rabi model.

Two finite continued-fraction routes to the spectrum, cross-validated by a
Sturm-bisection eigensolver on the truncated parity chains:

* coefficient method (``schweber``): zeros of f_0(E) - F_N(E) built from
  the three-term recurrence of the eigenfunction expansion coefficients;
  parity-blind, pole lattice at E = k*omega - g^2/omega.
* resolvent method (``resolvent``): poles of the border resolvent of the
  truncated parity chain, via the characteristic-minor recurrence; includes
  the pathological truncation that plants a fictitious eigenvalue.
* oracle (``tridiag``): Sturm-count bisection on the pivot sweep that both
  continued fractions count with; exact integer counts in the tests check it.

Both continued fractions run one scaled two-term recurrence (``recurrence``)
and count their roots with the oracle's pivot sweep, which stops at the
dominant tail (``pole_count`` is the oracle's ``sturm_count``, the one count
of a chain's eigenvalues), for one root driver in ``search``; ``scan``
tracks the oracle's levels over a parameter sweep and detects their
crossings; ``convergence`` certifies resolvent-tail convergence and bounds
the truncation depth; ``cli`` exposes everything as subcommands.  ``model`` holds what every route
shares: the parameters, the chains, the spectrum records (``EnergyLevel``,
``SpectrumApproximation``), the request defaults and checks, the
continued fractions' pole guard, DEN_FLOOR and ``CfValue``, and the
negative-pivot sweep of all three routes.

Names are resolved on first use (PEP 562): ``import rabicf`` loads no
submodule, and ``rabicf.eigenvalues`` or ``from rabicf import eigenvalues``
imports ``tridiag`` (and what it imports) then, so a process compiles only
the modules it runs: method a loads neither the oracle nor the scan, and
the oracle and ``bound`` load no continued fraction.  Every submodule
resolves as an attribute too.
"""

from importlib import import_module

__version__ = "0.1.0"

# Defining submodule -> the names the package re-exports from it.
_EXPORTS = {
    "errors": ("DegenerateDenominatorError", "DegenerateScanError", "DeltaZeroError",
               "DivergedTailError", "GZeroError", "LevelSpacingError", "LostBracketError",
               "PoleError", "PoleSeparationError", "RabiSolverError", "TooFewLevelsError",
               "TooShortError"),
    "model": ("CfStatus", "CfValue", "ChainCoefficients", "EnergyLevel", "ModelParams", "Parity",
              "SpectralMethod", "SpectrumApproximation", "TruncationOrder", "build_chain",
              "shifted_energy"),
    "schweber": ("Classification", "CoefficientSequence", "ConvergentPair",
                 "SchweberCoefficient", "classify_solution", "coeff_f", "convergent_pair",
                 "finite_cf", "forward_recurrence", "minimal_sequence", "pair_secular",
                 "secular_count", "spectral_function_a"),
    "resolvent": ("PathologicalVariant", "PlantedChain", "ResolventStatus", "ResolventValue",
                  "build_pathological", "char_poly", "pole_count", "poles_of_resolvent",
                  "resolvent_cf"),
    "tridiag": ("eigenvalues", "sturm_count", "union_spectrum"),
    "convergence": ("PringsheimCertificate", "best_certificate", "check_pringsheim",
                    "compare_spectra", "tail_depth_bound", "tail_value"),
    "search": ("MethodAResult", "bracket_roots", "solve_method_a"),
    "scan": ("CrossingEvent", "ScanResult", "scan_levels"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cli", "recurrence", *_EXPORTS)

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
