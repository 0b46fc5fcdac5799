"""The float root counts against exact-integer Sturm counts (``exact.py``)
at every oracle and method-b level of seeded chains."""

import numpy as np
import pytest

from rabicf import ModelParams, Parity, build_chain, eigenvalues, sturm_count
from rabicf.model import default_window
from rabicf.resolvent import pole_count, poles_of_resolvent

from exact import exact_count

LEVELS = 8


def _cases(seed=20121205, count=8):
    """(g, delta, parity, order): g up to 13 (the largest always drawn),
    delta in (0, 2), orders log-uniform over 10..2000, parities alternating."""
    rng = np.random.default_rng(seed)
    gs = [13.0, *rng.uniform(0.05, 13.0, count - 1)]
    orders = np.exp(rng.uniform(np.log(10), np.log(2000), count)).astype(int)
    deltas = rng.uniform(0.0, 2.0, count)
    return [(float(g), float(d), (Parity.PLUS, Parity.MINUS)[i % 2], int(n))
            for i, (g, d, n) in enumerate(zip(gs, deltas, orders))]


@pytest.mark.parametrize("g, delta, parity, order", _cases())
def test_float_counts_equal_the_exact_count(g, delta, parity, order):
    # E -+ 1e-9*max(1, |E|) at each level that the oracle and method b give:
    # sturm_count and pole_count both equal the exact count, which rises by
    # one across the level
    params = ModelParams(1.0, g, delta)
    chain = build_chain(params, parity, order)
    k = min(LEVELS, chain.dim)
    levels = [lev.energy for lev in eigenvalues(chain, k).levels]
    levels += [lev.energy for lev in poles_of_resolvent(chain, default_window(params, k), k).levels]
    assert levels
    for level in levels:
        counts = []
        for energy in (level - 1e-9 * max(1.0, abs(level)), level + 1e-9 * max(1.0, abs(level))):
            counts.append(exact_count(energy, chain))
            assert (sturm_count(energy, chain), pole_count(energy, chain)) == (counts[-1],) * 2, \
                energy
        assert counts[1] == counts[0] + 1


def test_exact_count_is_the_eigenvalue_count():
    # against LAPACK's eigenvalues of a short chain, away from each of them
    chain = build_chain(ModelParams(1.0, 3.0, 0.4), Parity.MINUS, 40)
    levels = np.linalg.eigvalsh(np.diag(chain.diag) + np.diag(chain.offdiag, 1)
                                + np.diag(chain.offdiag, -1))
    for energy in np.random.default_rng(3).uniform(levels[0] - 5.0, levels[-1] + 5.0, 50):
        if np.abs(levels - energy).min() > 1e-8:
            assert exact_count(energy, chain) == np.count_nonzero(levels < energy)
