"""The package loads each module when a command first needs it: every test
runs in a fresh interpreter, where nothing of rabicf is loaded yet."""

import json
from pathlib import Path

import pytest

import rabicf

from conftest import assert_not_imported, run_fresh

MODEL = ["--omega", "1", "--g", "0.7", "--delta", "0.4"]
README_METHOD_A = ["spectrum", *MODEL, "--method", "a", "--order", "150", "--levels", "10"]
README_METHOD_B = ["spectrum", *MODEL, "--method", "b", "--parity", "plus", "--levels", "8"]
README_DIAG = ["spectrum", "--omega", "1", "--g", "0", "--delta", "0.4", "--parity", "plus",
               "--method", "diag", "--levels", "3"]
README_PATHOLOGICAL = ["pathological", *MODEL, "--e0", "0.5", "--parity", "plus",
                       "--order", "10,20,40,80,160", "--variant", "diag"]
README_BOUND = ["bound", *MODEL, "--energy", "0"]
README_SCAN = ["scan", *MODEL, "--param", "g", "--from", "0.05", "--to", "1.2",
               "--steps", "600", "--levels", "8", "--order", "300"]
ROUTES = ("rabicf.schweber", "rabicf.recurrence", "rabicf.resolvent", "rabicf.convergence")
SUBMODULES = sorted(p.stem for p in Path(rabicf.__file__).parent.glob("*.py")
                    if p.stem != "__init__")

# Every name the package re-exported when it imported all of its modules
# eagerly, by the module that defines it now.
EXPORTED = {
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


def loaded_by(argv: list[str] | None) -> list[str]:
    """The rabicf modules, without the package prefix, that a fresh
    interpreter has loaded after ``import rabicf.cli`` and, unless ``argv``
    is None, ``argv`` through ``main``."""
    run = "" if argv is None else f"assert rabicf.cli.main({argv!r}, out=io.StringIO()) == 0\n"
    return json.loads(run_fresh(
        "import io, json, sys\nimport rabicf.cli\n" + run
        + "print(json.dumps(sorted(m[len('rabicf.'):] for m in sys.modules\n"
          "                        if m.startswith('rabicf.'))))\n"))


class TestRouteModules:
    # each route loads model, errors and the modules it computes with, and
    # no other route's module for a default, a check or a shared constant
    def test_cli_loads_errors_and_model_alone(self):
        assert loaded_by(None) == ["cli", "errors", "model"]

    def test_diag_loads_the_oracle_alone(self):
        argv = ["spectrum", *MODEL, "--method", "diag", "--order", "300", "--levels", "8"]
        assert loaded_by(argv) == ["cli", "errors", "model", "tridiag"]

    def test_diag_at_its_default_order_adds_convergence(self):
        # the tail-depth bound sets the default order
        assert loaded_by(README_DIAG) == ["cli", "convergence", "errors", "model", "tridiag"]

    def test_bound_loads_convergence_alone(self):
        assert loaded_by(README_BOUND) == ["cli", "convergence", "errors", "model"]

    @pytest.mark.parametrize("argv", [README_METHOD_B, README_PATHOLOGICAL],
                             ids=["method-b", "pathological"])
    def test_resolvent_loads_no_coefficient_method(self, argv):
        assert_not_imported("rabicf.schweber", argv)


class TestLazyImports:
    def test_import_loads_no_submodule(self):
        assert {"cli", "resolvent", "scan", "tridiag"} <= set(SUBMODULES)
        assert_not_imported([f"rabicf.{m}" for m in SUBMODULES], None)

    def test_scan_loads_no_continued_fraction(self):
        # the README scan runs the oracle alone, at its given order
        assert_not_imported(ROUTES, README_SCAN)

    def test_method_a_loads_no_resolvent(self):
        assert_not_imported(("rabicf.resolvent", "rabicf.convergence"), README_METHOD_A)

    def test_method_a_loads_its_own_route_alone(self):
        # no oracle and no scan: the spectrum records live in model
        loaded = json.loads(run_fresh(
            "import io, json, sys\n"
            "import rabicf.cli\n"
            f"assert rabicf.cli.main({README_METHOD_A!r}, out=io.StringIO()) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('rabicf.'))))\n"))
        assert loaded == [f"rabicf.{m}" for m in ("cli", "errors", "model", "recurrence",
                                                  "schweber", "search")]

    def test_bound_loads_no_resolvent(self):
        assert_not_imported("rabicf.resolvent", ["bound", *MODEL, "--energy", "0"])

    def test_bound_loads_no_oracle(self):
        assert_not_imported(("rabicf.tridiag", "rabicf.scan"), ["bound", *MODEL, "--energy", "0"])

    def test_scan_names_of_search_are_the_scan_module_names(self):
        # bound in search on first read, which loads the scan and the oracle;
        # listed in search's __all__ and dir() before that
        run_fresh("import sys\n"
                  "import rabicf.search as search\n"
                  "names = ('CrossingEvent', 'ScanResult', 'scan_levels')\n"
                  "assert 'rabicf.scan' not in sys.modules and 'rabicf.tridiag' not in sys.modules\n"
                  "assert set(names) <= set(search.__all__) and set(names) <= set(dir(search))\n"
                  "from rabicf.search import scan_levels\n"
                  "import rabicf.scan\n"
                  "assert scan_levels is rabicf.scan.scan_levels\n"
                  "assert rabicf.search.scan_levels is rabicf.scan.scan_levels\n"
                  "assert all(getattr(search, n) is getattr(rabicf.scan, n) for n in names)\n"
                  "assert 'scan_levels' in vars(search)\n"
                  "try:\n"
                  "    search.no_such_name\n"
                  "except AttributeError as exc:\n"
                  "    assert 'no_such_name' in str(exc), exc\n"
                  "else:\n"
                  "    raise AssertionError('no AttributeError')\n")

    def test_every_exported_name_resolves_to_its_definition(self):
        # __all__, dir() and the name's object in its defining module, each
        # module's names looked up in a fresh interpreter of its own
        for module, names in EXPORTED.items():
            code = ("import importlib, json, rabicf\n"
                    f"home = importlib.import_module('rabicf.{module}')\n"
                    f"print(json.dumps([[n in rabicf.__all__, n in dir(rabicf),\n"
                    f"                   getattr(rabicf, n) is getattr(home, n)]\n"
                    f"                  for n in {names!r}]))\n")
            got = json.loads(run_fresh(code))
            assert got == [[True, True, True]] * len(names), module
        assert sorted(rabicf.__all__) == sorted(n for names in EXPORTED.values() for n in names)

    def test_from_import_loads_the_defining_module(self):
        run_fresh("import sys, rabicf\n"
                  "from rabicf import eigenvalues\n"
                  "assert 'rabicf.resolvent' not in sys.modules\n"
                  "assert eigenvalues is sys.modules['rabicf.tridiag'].eigenvalues\n")

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_submodule_resolves(self, name):
        run_fresh("import sys, rabicf\n"
                  f"assert {name!r} in dir(rabicf)\n"
                  f"assert rabicf.{name} is sys.modules['rabicf.{name}']\n")

    @pytest.mark.parametrize("name", ["no_such_name", "__wrapped__", "_HOME_"])
    def test_unknown_name_raises_attribute_error(self, name):
        run_fresh("import sys, rabicf\n"
                  "try:\n"
                  f"    getattr(rabicf, {name!r})\n"
                  "except AttributeError as exc:\n"
                  f"    assert {name!r} in str(exc), exc\n"
                  "else:\n"
                  "    raise AssertionError('no AttributeError')\n"
                  "try:\n"
                  f"    exec('from rabicf import {name}')\n"
                  "except ImportError:\n"
                  "    pass\n"
                  "else:\n"
                  "    raise AssertionError('no ImportError')\n"
                  "assert not [m for m in sys.modules if m.startswith('rabicf.')]\n")
