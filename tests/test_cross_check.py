"""The three-way cross-check of ``scripts/cross_check.py`` as a standing
gate: a seeded slice of each g range runs in process, and every arm must
match the oracle, with no disagreement and no raise."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cross_check.py"


@pytest.fixture(scope="module")
def cross_check():
    spec = importlib.util.spec_from_file_location("cross_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed, g_range", [
    (5601, (0.02, 12.0)),  # the default g range
    (5602, (6.0, 14.0)),   # strong coupling, where method a meets close parity doublets
])
def test_every_arm_matches(cross_check, seed, g_range):
    requests = 20
    record = cross_check.run(seed, requests, g_range)
    assert record["findings"] == []
    matched = {"default order": {"a": requests, "b": 2 * requests},
               "fixed order": {"b": 2 * len(cross_check.FIXED_ORDERS) * requests}}
    assert record["outcomes"] == {
        arm: {method: {"matched": n, "disagreed": 0, "raised": 0} for method, n in methods.items()}
        for arm, methods in matched.items()}
