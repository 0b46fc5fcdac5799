import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import rabicf
from rabicf import ModelParams, Parity, build_chain, eigenvalues

settings.register_profile("ci", derandomize=True, max_examples=50, deadline=None)
settings.load_profile("ci")

# Reference parameter set used throughout: omega=1, g=0.7, delta=0.4.
FIXTURE = ModelParams(omega=1.0, g=0.7, delta=0.4)

# Oracle fixture: first 12 eigenvalues per parity chain at order 400,
# bisection tolerance 1e-11.  Generated once by rabicf.tridiag.eigenvalues
# and frozen for regression; test_tridiag checks the live oracle still
# reproduces these bitwise.
ORACLE_PLUS_12 = (
    -0.4270436745682673,
    0.673603825027385,
    1.360756832134939,
    2.545230965512019,
    3.5669038354644726,
    4.4056290975968295,
    5.628621088235377,
    6.410720501724427,
    7.559239528931357,
    8.50780515270526,
    9.468662337978458,
    10.589193407166022,
)
ORACLE_MINUS_12 = (
    -0.7078050640957372,
    0.37094976339358254,
    1.637010370646749,
    2.466695702063589,
    3.4611266960673674,
    4.621586816447234,
    5.389339932040457,
    6.602234186251735,
    7.455707347337011,
    8.511991124320048,
    9.554822331079777,
    10.434970492900902,
)
ORACLE_UNION_24 = tuple(sorted(ORACLE_PLUS_12 + ORACLE_MINUS_12))


@pytest.fixture(scope="session")
def fixture_params():
    return FIXTURE


@pytest.fixture(scope="session")
def oracle_plus():
    return eigenvalues(build_chain(FIXTURE, Parity.PLUS, 400), 12, 1e-11)


@pytest.fixture(scope="session")
def oracle_minus():
    return eigenvalues(build_chain(FIXTURE, Parity.MINUS, 400), 12, 1e-11)


@pytest.fixture(scope="session")
def oracle_union(oracle_plus, oracle_minus):
    return np.sort(np.concatenate([oracle_plus.energies, oracle_minus.energies]))


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this rabicf; its
    stdout.  A failure (an assert in ``code`` included) fails the test."""
    src = str(Path(rabicf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def assert_not_imported(modules, argv: list[str] | None):
    """Import rabicf.cli in a fresh interpreter and run ``argv`` through
    ``main`` (with ``argv`` None, only ``import rabicf``), then require that
    none of ``modules`` (one name or several) was ever imported."""
    modules = (modules,) if isinstance(modules, str) else tuple(modules)
    run = ("import rabicf\n" if argv is None else
           f"import rabicf.cli\nassert rabicf.cli.main({argv!r}, out=io.StringIO()) == 0\n")
    run_fresh("import io, sys\n" + run
              + f"loaded = sorted(set({modules!r}) & set(sys.modules))\n"
              "assert not loaded, f'imported: {loaded}'\n")
