"""The float root counts against exact-integer Sturm counts (``exact.py``)
at every oracle and method-b level of seeded chains, and at every bracket
end that the oracle's bisection and method b's narrowing reach; and every
crossing of seeded scans against the exact sign of Judd's constraint."""

import io

import numpy as np
import pytest

from rabicf import (ModelParams, Parity, build_chain, eigenvalues, resolvent, scan_levels,
                    sturm_count, tridiag)
from rabicf.cli import main
from rabicf.model import default_window
from rabicf.resolvent import pole_count, poles_of_resolvent

from exact import exact_count, judd_sign

LEVELS = 8
# Overall scales 2**k of the seeded chains: 2**-400 keeps every chain far
# below the oracle's range rule, 2**300 and 2**450 put it beyond 2**256.
SCALES = (-400, 300, 450)
MODEL = ["--omega", "1", "--g", "0.7", "--delta", "0.4"]
README_DIAG = ["spectrum", "--omega", "1", "--g", "0", "--delta", "0.4", "--parity", "plus",
               "--method", "diag", "--levels", "3"]
README_METHOD_B = ["spectrum", *MODEL, "--method", "b", "--parity", "plus", "--levels", "8"]
# A crossing at v brackets a root of Judd's constraint in v*(1 -+ JUDD_EPS).
JUDD_EPS = 1e-10


def _cases(seed=20121205, count=8):
    """(g, delta, parity, order): g up to 13 (the largest always drawn),
    delta in (0, 2), orders log-uniform over 10..2000, parities alternating."""
    rng = np.random.default_rng(seed)
    gs = [13.0, *rng.uniform(0.05, 13.0, count - 1)]
    orders = np.exp(rng.uniform(np.log(10), np.log(2000), count)).astype(int)
    deltas = rng.uniform(0.0, 2.0, count)
    return [(float(g), float(d), (Parity.PLUS, Parity.MINUS)[i % 2], int(n))
            for i, (g, d, n) in enumerate(zip(gs, deltas, orders))]


def _chain(g, delta, parity, order, k=0):
    """(params, chain) of a case with every parameter times 2**k, so every
    entry of the chain is the k = 0 one times 2**k, exactly."""
    params = ModelParams(2.0**k, g * 2.0**k, delta * 2.0**k)
    return params, build_chain(params, parity, order)


def _levels_counted(params, chain):
    # E -+ 1e-9*max(omega, |E|) at each level that the oracle and method b
    # give: sturm_count and pole_count both equal the exact count, which
    # rises by one across the level
    k = min(LEVELS, chain.dim)
    levels = [lev.energy for lev in eigenvalues(chain, k).levels]
    levels += [lev.energy for lev in poles_of_resolvent(chain, default_window(params, k), k).levels]
    assert levels
    for level in levels:
        counts = []
        margin = 1e-9 * max(params.omega, abs(level))
        for energy in (level - margin, level + margin):
            counts.append(exact_count(energy, chain))
            assert (sturm_count(energy, chain), pole_count(energy, chain)) == (counts[-1],) * 2, \
                energy
        assert counts[1] == counts[0] + 1


def _ends_counted(chain, lo, hi) -> tuple[int, int]:
    """The exact counts at ``lo`` and ``hi``, once sturm_count gives them
    too and the bracket holds a level."""
    below, above = exact_count(lo, chain), exact_count(hi, chain)
    assert (sturm_count(lo, chain), sturm_count(hi, chain)) == (below, above), (lo, hi)
    assert below < above, (lo, hi)
    return below, above


def _oracle_brackets(monkeypatch) -> tuple[list, list]:
    """(brackets, chains): record each chain that ``tridiag.eigenvalues``
    bisects and the final (lo, hi) of each of its levels, in the units of
    the chain it bisects (``tridiag._scaled``), with the oracle's own count
    at both ends and the level number (1-based)."""
    brackets, chains, bisect, scaled = [], [], tridiag._bisect, tridiag._scaled

    def bisecting(diag, off2, wanted, lo, hi, tol, floor):
        lo, hi = bisect(diag, off2, wanted, lo, hi, tol, floor)
        counts = tridiag._negative_pivot_counts(np.stack([lo, hi]), diag, off2, floor)
        brackets.extend(zip(lo.tolist(), hi.tolist(), counts.T.tolist(), wanted.tolist()))
        return lo, hi

    monkeypatch.setattr(tridiag, "_bisect", bisecting)
    monkeypatch.setattr(tridiag, "_scaled", lambda chain: chains.append(chain) or scaled(chain))
    return brackets, chains


def _oracle_ends_counted(brackets, chain):
    """Each bracket holds its level, and the exact count at each end equals
    the oracle's sweep and sturm_count, in the bisected chain's units and in
    the chain's own (the range rule's scale undone)."""
    scale, scaled, _ = tridiag._scaled(chain)
    assert brackets
    for lo, hi, count, wanted in brackets:
        below, above = _ends_counted(scaled, lo, hi)
        assert [below, above] == count and below < wanted <= above
        assert (sturm_count(lo / scale, chain), sturm_count(hi / scale, chain)) == (below, above)


@pytest.mark.parametrize("g, delta, parity, order", _cases())
def test_float_counts_equal_the_exact_count(g, delta, parity, order):
    _levels_counted(*_chain(g, delta, parity, order))


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("g, delta, parity, order", _cases())
def test_scaled_chain_counts_equal_the_exact_count(g, delta, parity, order, k):
    # the same chains times 2**k: beyond 2**256 counted on the copy that the
    # oracle's range rule scales, below it as they are
    _levels_counted(*_chain(g, delta, parity, order, k))


@pytest.mark.parametrize("k", (0, *SCALES))
@pytest.mark.parametrize("g, delta, parity, order", _cases())
def test_oracle_bracket_ends_are_counted_exactly(g, delta, parity, order, k, monkeypatch):
    chain = _chain(g, delta, parity, order, k)[1]
    brackets, _ = _oracle_brackets(monkeypatch)
    eigenvalues(chain, min(LEVELS, chain.dim))
    _oracle_ends_counted(brackets, chain)


def test_readme_diag_bracket_ends_are_counted_exactly(monkeypatch):
    brackets, chains = _oracle_brackets(monkeypatch)
    assert main(README_DIAG, out=io.StringIO()) == 0
    assert len(chains) == 1 and len(brackets) == 3
    _oracle_ends_counted(brackets, chains[0])


def test_readme_method_b_piece_ends_are_counted_exactly(monkeypatch):
    # the piece that method b's narrowing hands the refinement of each pole
    # holds that pole alone, counted exactly at both ends
    pieces, refine = [], resolvent._refine_pole

    def refining(chain, f, lo, hi, tol, *, start):
        pieces.append((chain, lo, hi))
        return refine(chain, f, lo, hi, tol, start=start)

    monkeypatch.setattr(resolvent, "_refine_pole", refining)
    assert main(README_METHOD_B, out=io.StringIO()) == 0
    assert len(pieces) == 8
    for chain, lo, hi in pieces:
        below, above = _ends_counted(chain, lo, hi)
        assert above == below + 1


def test_exact_count_is_the_eigenvalue_count():
    # against LAPACK's eigenvalues of a short chain, away from each of them
    chain = build_chain(ModelParams(1.0, 3.0, 0.4), Parity.MINUS, 40)
    levels = np.linalg.eigvalsh(np.diag(chain.diag) + np.diag(chain.offdiag, 1)
                                + np.diag(chain.offdiag, -1))
    for energy in np.random.default_rng(3).uniform(levels[0] - 5.0, levels[-1] + 5.0, 50):
        if np.abs(levels - energy).min() > 1e-8:
            assert exact_count(energy, chain) == np.count_nonzero(levels < energy)


def _judd_scans(seed=20121205, count=2):
    """(param, g, delta, stop, steps, levels, order) of scans from 0.05:
    the README g scan, then ``count`` g scans to U(1.5, 3) at delta U(0.1, 3)
    and ``count`` delta scans to U(2, 6) at g U(0.3, 2)."""
    rng = np.random.default_rng(seed)
    scans = [("g", 0.7, 0.4, 1.2, 600, 8, 300)]
    for _ in range(count):
        scans.append(("g", 0.7, float(rng.uniform(0.1, 3.0)), float(rng.uniform(1.5, 3.0)),
                      400, 10, 400))
    for _ in range(count):
        scans.append(("delta", float(rng.uniform(0.3, 2.0)), 0.4, float(rng.uniform(2.0, 6.0)),
                      400, 10, 400))
    return scans


def _judd_changes(events, param, g, delta, lo, hi) -> list[bool]:
    """For each event at value v, whether Judd's constraint at its
    nearest_multiple changes sign between the parameter values lo(v) and
    hi(v)."""
    def sign(n, v):
        return judd_sign(n, 1.0, v, delta) if param == "g" else judd_sign(n, 1.0, g, v)
    return [sign(ev.nearest_multiple, lo(ev.value)) != sign(ev.nearest_multiple, hi(ev.value))
            for ev in events]


@pytest.mark.parametrize("param, g, delta, stop, steps, levels, order", _judd_scans())
def test_every_crossing_brackets_a_juddian_root(param, g, delta, stop, steps, levels, order):
    # two levels of opposite parity cross only where x = n omega is a root
    # of W_{n-1}: Judd's constraint changes sign within JUDD_EPS of each event
    events = scan_levels(ModelParams(1.0, g, delta), param, 0.05, stop, steps, levels,
                         order).events
    changes = _judd_changes(events, param, g, delta,
                            lambda v: v * (1 - JUDD_EPS), lambda v: v * (1 + JUDD_EPS))
    assert changes and all(changes)


def test_judd_sign_constant_away_from_the_crossings():
    # the check is not vacuous: the 19 README events moved up by 1e-4 to
    # 2e-4 bracket no root
    events = scan_levels(ModelParams(1.0, 0.7, 0.4), "g", 0.05, 1.2, 600, 8, 300).events
    assert len(events) == 19 and not any(_judd_changes(events, "g", 0.7, 0.4,
                                 lambda v: v + 1e-4, lambda v: v + 2e-4))
