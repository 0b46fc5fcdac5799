import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from rabicf import (
    EnergyLevel,
    ModelParams,
    Parity,
    SpectralMethod,
    SpectrumApproximation,
    build_chain,
    eigenvalues,
    sturm_count,
)
from rabicf.search import _batch_tables, _sweep_interval
import rabicf.tridiag
from rabicf.tridiag import (
    PIVMIN,
    _ROWS,
    _SLACK,
    _bisect,
    _negative_pivot_counts,
    _pivot_sweep,
    _snap,
    _start_tops,
    _dominance_floor,
    eigenvalues_batch,
    eigenvalues_rows,
    gershgorin_interval,
    lattice_cell,
)

from conftest import FIXTURE, ORACLE_MINUS_12, ORACLE_PLUS_12


class TestSturmCount:
    def test_gershgorin_edges(self):
        chain = build_chain(FIXTURE, Parity.PLUS, 40)
        lo, hi = gershgorin_interval(chain)
        assert sturm_count(lo - 1.0, chain) == 0
        assert sturm_count(hi + 1.0, chain) == 41

    def test_two_site_example(self):
        # 2x2 chain has eigenvalues 0.5 +- sqrt(0.5); one lies below 0
        chain = build_chain(FIXTURE, Parity.PLUS, 1)
        assert sturm_count(0.0, chain) == 1

    def test_monotone_in_energy(self):
        chain = build_chain(FIXTURE, Parity.MINUS, 60)
        grid = np.linspace(-2.0, 8.0, 200)
        counts = [sturm_count(e, chain) for e in grid]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_exact_pivot_zero_energy(self):
        # g=1.2, minus parity: the pivot at level 1 vanishes exactly at
        # E=-1 while the true ground state sits below; the count must not
        # lose it (regression for the zero-pivot sign convention).
        chain = build_chain(ModelParams(1.0, 1.2, 0.4), Parity.MINUS, 300)
        assert sturm_count(-1.0, chain) == 1

    def test_singular_pivot_counts_the_level(self):
        # g = 0: the lowest level is exactly 0.25, and the count at 0.25
        # includes it (at or below, not strictly below)
        chain = build_chain(ModelParams(1.0, 0.0, 0.25), Parity.PLUS, 20)
        assert sturm_count(0.25, chain) == 1

    def test_counts_match_bisection(self):
        chain = build_chain(FIXTURE, Parity.PLUS, 80)
        spectrum = eigenvalues(chain, 8)
        for e in np.linspace(-1.0, 6.5, 23):
            assert sturm_count(e, chain) == int(np.sum(spectrum.energies < e))


class TestEigenvalues:
    def test_diagonal_spectrum(self):
        chain = build_chain(ModelParams(1.0, 0.0, 0.4), Parity.PLUS, 30)
        got = eigenvalues(chain, 3).energies
        np.testing.assert_allclose(got, [0.4, 0.6, 2.4], atol=1e-11)

    def test_displaced_oscillator_limit(self):
        # delta=0: E_n = n*omega - g^2/omega
        chain = build_chain(ModelParams(1.0, 0.7, 0.0), Parity.PLUS, 300)
        got = eigenvalues(chain, 5).energies
        np.testing.assert_allclose(got, np.arange(5) - 0.49, atol=1e-8)

    def test_oracle_fixture_regression(self):
        plus = eigenvalues(build_chain(FIXTURE, Parity.PLUS, 400), 12, 1e-11)
        minus = eigenvalues(build_chain(FIXTURE, Parity.MINUS, 400), 12, 1e-11)
        np.testing.assert_array_equal(plus.energies, ORACLE_PLUS_12)
        np.testing.assert_array_equal(minus.energies, ORACLE_MINUS_12)

    @pytest.mark.parametrize("parity, reference", [
        (Parity.PLUS, ORACLE_PLUS_12), (Parity.MINUS, ORACLE_MINUS_12),
    ])
    def test_batch_of_one_matches_fixture(self, parity, reference):
        chain = build_chain(FIXTURE, parity, 400)
        got = eigenvalues_batch(
            chain.diag, (chain.offdiag * chain.offdiag)[:, None], 12, 1e-11, gershgorin_interval(chain)
        )
        assert got.shape == (1, 12)
        np.testing.assert_array_equal(got[0], reference)

    def test_against_lapack(self):
        chain = build_chain(FIXTURE, Parity.MINUS, 120)
        ours = eigenvalues(chain, 10).energies
        lapack = eigh_tridiagonal(
            chain.diag, chain.offdiag, select="i", select_range=(0, 9),
            eigvals_only=True,
        )
        np.testing.assert_allclose(ours, lapack, atol=2e-11)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("g", [1e225, 1e231, 1e250, 1e300])
    def test_huge_coupling_against_lapack(self, g):
        # the chain is scaled to at most 2**256 before its off-diagonals are
        # squared; LAPACK runs on it scaled by a power of two.  Counts are
        # compared between levels, not at 0, where LAPACK cannot resolve
        # the sign of the middle level.
        chain = build_chain(ModelParams(1.0, g, 0.4), Parity.PLUS, 50)
        s = math.ldexp(1.0, -math.frexp(g)[1] - 8)
        lapack = eigh_tridiagonal(s * chain.diag, s * chain.offdiag, select="i",
                                  select_range=(0, 2), eigvals_only=True) / s
        np.testing.assert_allclose(eigenvalues(chain, 3).energies, lapack, rtol=1e-14)
        assert sturm_count(0.5 * (lapack[:-1] + lapack[1:]), chain).tolist() == [1, 2]

    def test_interlacing(self):
        big = eigenvalues(build_chain(FIXTURE, Parity.PLUS, 41), 10).energies
        small = eigenvalues(build_chain(FIXTURE, Parity.PLUS, 40), 9).energies
        # Cauchy interlacing for the principal submatrix, sorted comparison
        assert np.all(big[:9] <= small + 1e-11)
        assert np.all(small <= big[1:10] + 1e-11)

    def test_delta_zero_parity_degeneracy(self):
        p = ModelParams(1.0, 0.7, 0.0)
        plus = eigenvalues(build_chain(p, Parity.PLUS, 200), 5).energies
        minus = eigenvalues(build_chain(p, Parity.MINUS, 200), 5).energies
        np.testing.assert_allclose(plus, minus, atol=2e-11)

    def test_doubling_converged(self):
        a = eigenvalues(build_chain(FIXTURE, Parity.PLUS, 100), 5).energies
        b = eigenvalues(build_chain(FIXTURE, Parity.PLUS, 200), 5).energies
        assert np.max(np.abs(a - b)) <= 1e-11

    def test_residual_is_bracket_width(self):
        spectrum = eigenvalues(build_chain(FIXTURE, Parity.PLUS, 60), 4, 1e-9)
        for lev in spectrum.levels:
            assert 0 < lev.residual < 1e-9

    def test_first_k_bounds(self):
        chain = build_chain(FIXTURE, Parity.PLUS, 10)
        with pytest.raises(ValueError):
            eigenvalues(chain, 0)
        with pytest.raises(ValueError):
            eigenvalues(chain, 12)
        with pytest.raises(ValueError):
            eigenvalues(chain, 3, tol=0.0)

    @pytest.mark.parametrize("tol", [-1e-11, float("nan"), float("inf")])
    def test_malformed_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            eigenvalues(build_chain(FIXTURE, Parity.PLUS, 10), 3, tol)


class TestEigenvaluesRows:
    """One level per chain from a warm bracket, bit for bit the batched
    bisection from the spectrum interval."""

    @staticmethod
    def _cold(parameter, order, parity):
        values = np.linspace(0.3, 1.4, 3)
        interval = _sweep_interval(FIXTURE, parameter, float(values[-1]), order)
        diag, off2 = _batch_tables(FIXTURE, parameter, values, parity.sign, order)
        cold = eigenvalues_batch(diag, off2, 6, 1e-11, interval)
        rows, index = np.divmod(np.arange(cold.size), 6)
        cell = lattice_cell(1e-11)
        return diag[:, rows], off2[:, rows], index, interval, cold.ravel(), cell

    @pytest.mark.parametrize("order", [300, 1200])
    @pytest.mark.parametrize("parameter", ["g", "delta"])
    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_warm_brackets_match_batch(self, parameter, order, parity):
        diag, off2, index, interval, cold, cell = self._cold(parameter, order, parity)
        rng = np.random.default_rng(order)
        lo = cold - rng.uniform(0.0, 1e-3, cold.size)
        hi = cold + rng.uniform(0.0, 1e-3, cold.size)
        got = eigenvalues_rows(diag, off2, index, 1e-11, interval, lo, hi)
        np.testing.assert_array_equal(got, cold)

    @pytest.mark.parametrize("order", [300, 1200])
    @pytest.mark.parametrize("parameter", ["g", "delta"])
    def test_one_cell_brackets(self, parameter, order):
        # the final cell itself: no bisection step is left to take
        diag, off2, index, interval, cold, cell = self._cold(parameter, order, Parity.PLUS)
        got = eigenvalues_rows(diag, off2, index, 1e-11, interval,
                               cold - 0.5 * cell, cold + 0.5 * cell)
        np.testing.assert_array_equal(got, cold)

    def test_wrong_bracket_falls_back(self):
        # a bracket that holds the wrong level fails the count check and
        # is bisected from the spectrum interval instead
        diag, off2, index, interval, cold, cell = self._cold("g", 300, Parity.MINUS)
        lo = np.roll(cold, 1) - 1e-6
        hi = np.roll(cold, 1) + 1e-6
        got = eigenvalues_rows(diag, off2, index, 1e-11, interval, lo, hi)
        np.testing.assert_array_equal(got, cold)


class TestLatticeCell:
    def test_halvings(self):
        # the tracks' 2**-37 cell at omega = 1, seven halvings finer
        assert lattice_cell(1e-11) == 2.0**-37
        assert lattice_cell(1e-11, 7, magnitude=10.0) == 2.0**-44

    @pytest.mark.parametrize("k", [-30, -20, -3, 0, 3, 16, 30])
    def test_is_where_bisection_ends(self, k):
        # the final width of every level, for every tol at every scale 2**k
        # of the fixture
        s = 2.0**k
        params = ModelParams(s * FIXTURE.omega, s * FIXTURE.g, s * FIXTURE.delta)
        for order, tol in ((1, 1e-11), (300, 1e-12), (1200, 3e-9), (60, 2.0**-37)):
            spectrum = eigenvalues(build_chain(params, Parity.PLUS, order), 2, tol * s)
            for lev in spectrum.levels:
                assert lev.residual == lattice_cell(tol * s) == s * lattice_cell(tol)

    def test_stops_at_four_ulps(self):
        # levels near -576: one ulp is 2**-43, so halving stops at 2**-41,
        # and the per-row solve down to that cell ends, bit for bit the batch
        params = ModelParams(1.0, 24.0, 0.4)
        order = 700
        interval = _sweep_interval(params, "g", 24.0, order)
        cell = lattice_cell(1e-11, 7, magnitude=600.0)
        assert cell == 2.0**-41
        diag, off2 = _batch_tables(params, "g", np.array([24.0]), 1.0, order)
        cold = eigenvalues_batch(diag, off2, 3, cell, interval)[0]
        assert np.all(np.abs(cold) > 512.0)
        got = eigenvalues_rows(np.broadcast_to(diag, (order + 1, 3)),
                               np.broadcast_to(off2, (order, 3)), np.arange(3),
                               cell, interval, cold - 1e-6, cold + 1e-6)
        np.testing.assert_array_equal(got, cold)


class TestSpectrumApproximation:
    def test_rejects_unordered(self):
        levels = [EnergyLevel(0, 1.0, 0.0), EnergyLevel(1, 0.5, 0.0)]
        with pytest.raises(ValueError):
            SpectrumApproximation(SpectralMethod.ORACLE, None, 10, tuple(levels))

    def test_flags_near_degenerate_instead_of_merging(self):
        levels = [EnergyLevel(0, 1.0, 0.0), EnergyLevel(1, 1.0 + 1e-13, 0.0)]
        spectrum = SpectrumApproximation.from_levels(
            SpectralMethod.ORACLE, None, 10, levels, omega=1.0
        )
        assert spectrum.flagged_pairs == ((0, 1),)
        assert len(spectrum) == 2


class TestBisect:
    """The one halving loop: each bracket stops at ``tol`` or on adjacent
    floats, on its own.  A diagonal chain counts the diagonal entries below
    E, so its eigenvalues can be placed anywhere."""

    def test_ends_on_adjacent_floats(self, monkeypatch):
        # no bracket near 1.5 or 3.5 can shrink to tol = 0: halving ends
        # once lo and hi are adjacent, and the sweep guard fails the test
        # where the loop would never end
        roots = np.array([1.5 + 2.0**-40 / 3.0, 3.5 - 2.0**-38 / 3.0])
        real = rabicf.tridiag._negative_pivot_counts
        calls = []

        def counted(*args):
            calls.append(args)
            if len(calls) > 200:
                raise RuntimeError("_bisect does not end")
            return real(*args)

        monkeypatch.setattr(rabicf.tridiag, "_negative_pivot_counts", counted)
        lo, hi = _bisect(roots, np.zeros(1), np.array([1, 2]), np.array([1.0, 3.0]),
                         np.array([2.0, 4.0]), 0.0, _dominance_floor(roots, np.zeros(1)))
        np.testing.assert_array_equal(hi, np.nextafter(lo, np.inf))
        assert np.all((lo < roots) & (roots <= hi))
        assert len(calls) < 60

    def test_each_bracket_ends_on_its_own(self):
        # the bracket near 1e6 meets its adjacent float at 2**-33, above
        # tol; the one near 0.3 goes on down to the 2**-44 cell
        roots = np.array([0.3, 1e6 + 0.3])
        lo, hi = _bisect(roots, np.zeros(1), np.array([1, 2]), np.array([0.0, 1e6 - 1.0]),
                         np.array([1.0, 1e6 + 1.0]), 1e-13, _dominance_floor(roots, np.zeros(1)))
        np.testing.assert_array_equal(hi - lo, [2.0**-44, 2.0**-33])
        assert np.all((lo < roots) & (roots <= hi))


def reference_bisect(diag, off2, wanted, lo, hi, tol):
    """Plain lockstep count bisection from the snapped brackets, one
    midpoint per count of the per-step rule, with _bisect's stop rule."""
    lo, hi = _snap(lo, hi, tol)
    while True:
        mid = 0.5 * (lo + hi)
        live = (hi - lo > tol) & (lo < mid) & (mid < hi)
        if not live.any():
            return lo, hi
        left = reference_pivot_counts(mid, np.moveaxis(diag, 0, -1),
                                      np.moveaxis(off2, 0, -1)) >= wanted
        hi = np.where(live & left, mid, hi)
        lo = np.where(live & ~left, mid, lo)


def reference_pivot_counts(energies, diag, off2):
    """The per-step PIVMIN rule that the blocked sweep replaced, on tables
    with the chain steps on the last axis: a pivot at or below PIVMIN counts,
    and one in (-PIVMIN, PIVMIN] continues as -PIVMIN.  An overflowing or
    NaN pivot carries on silently, as in the sweep."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = diag[..., 0] - energies
        count = np.zeros(q.shape, dtype=np.int64)
        for j in range(diag.shape[-1]):
            if j:
                q = (diag[..., j] - energies) - off2[..., j - 1] / q
            count += (neg := q <= PIVMIN)
            q = np.where(neg, np.minimum(q, -PIVMIN), q)
    return count


def assert_same_counts(energies, diag, off2):
    """The sweep on step-major tables, with its dominance exit, equals the
    per-step rule, bit for bit."""
    got = _negative_pivot_counts(energies, diag, off2, _dominance_floor(diag, off2))
    want = reference_pivot_counts(energies, np.moveaxis(diag, 0, -1), np.moveaxis(off2, 0, -1))
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    return got


# pivots at and between +-PIVMIN, and next to them
TINY = [0.0, -0.0, PIVMIN, -PIVMIN, 0.5 * PIVMIN, -0.5 * PIVMIN, 5e-324,
        np.nextafter(PIVMIN, 1.0), np.nextafter(-PIVMIN, -1.0)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPivotSweep:
    """The blocked sweep, which repairs a block only where a pivot came out
    within PIVMIN of zero, counts exactly what the per-step rule counts."""

    ORDER = 2 * _ROWS + 7

    @staticmethod
    def _chain(seed, order):
        rng = np.random.default_rng(seed)
        params = ModelParams(1.0, rng.uniform(0.2, 3.0), rng.uniform(0.1, 1.5))
        return rng, params, build_chain(params, (Parity.PLUS, Parity.MINUS)[seed % 2], order)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_chains(self, seed):
        # one block or several, the last one full or holding a single row
        rng, params, chain = self._chain(seed, [1, _ROWS - 1, _ROWS, 2 * _ROWS, 150, 300][seed])
        lo, hi = gershgorin_interval(chain)
        off2 = chain.offdiag * chain.offdiag
        for shape in [(), (8,), (5, 8)]:
            assert_same_counts(rng.uniform(lo, hi, shape), chain.diag, off2)
        assert isinstance(sturm_count(0.5 * (lo + hi), chain), int)
        # (P, k, S) lanes on the scan's tables, diag (g) or off2 (delta)
        # broadcast along the chains with stride 0
        values = np.sort(rng.uniform(0.2, 1.5, 7))
        for parameter in ("g", "delta"):
            diag, off2 = _batch_tables(params, parameter, values, chain.parity.sign, chain.order)
            assert 0 in diag.strides + off2.strides
            assert_same_counts(rng.uniform(lo, hi, (3, 4, 7)), diag, off2)

    @pytest.mark.parametrize("planted", [[0], [_ROWS - 1], [_ROWS], [ORDER],
                                         [0, _ROWS - 1, _ROWS, ORDER], [3, 5, _ROWS + 1]])
    def test_exact_zero_pivots(self, planted):
        # with off2 = 0 into row r, the pivot there is d_r - E, exactly 0
        # at E = d_r; the clamp to -PIVMIN then shows in the rows after it
        _, _, chain = self._chain(7, self.ORDER)
        diag, off2 = chain.diag.copy(), chain.offdiag * chain.offdiag
        diag[planted] = 0.25
        off2[[r - 1 for r in planted if r]] = 0.0
        energies = np.array([0.25, np.nextafter(0.25, 1.0), -1.0, 2.0, 0.25, 30.0])
        counts = assert_same_counts(energies, diag, off2)
        assert counts[0] == counts[4] >= 1
        assert_same_counts(np.stack([energies, energies[::-1]]), diag, off2)

    def test_tiny_pivots_in_every_lane(self):
        # chain s of S holds the pivot TINY[s % 9] at E = 0 in row
        # planted[s]: several repairs in one block, rows and lanes apart
        rng, _, chain = self._chain(8, self.ORDER)
        rows = [0, 1, 3, _ROWS - 1, _ROWS, _ROWS + 2, 2 * _ROWS - 1, 2 * _ROWS, self.ORDER]
        planted = np.array(rows * 2)
        lanes = np.arange(planted.size)
        diag = np.repeat(chain.diag[:, None], planted.size, axis=1)
        off2 = np.repeat((chain.offdiag * chain.offdiag)[:, None], planted.size, axis=1)
        diag[planted, lanes] = np.array(TINY * 2)
        off2[planted[planted > 0] - 1, lanes[planted > 0]] = 0.0
        energies = np.zeros((2, 3, planted.size))
        energies[1] = rng.uniform(-2.0, 8.0, (3, planted.size))
        assert_same_counts(energies, diag, off2)
        # the same on one chain holding all of them, energies in any shape
        diag1, off21 = chain.diag.copy(), chain.offdiag * chain.offdiag
        diag1[rows], off21[[r - 1 for r in rows if r]] = TINY, 0.0
        for energies in (0.0, np.zeros(3), np.array([[0.0, -0.0], [1.0, 40.0]])):
            assert_same_counts(energies, diag1, off21)

    def test_nan_energies(self):
        _, _, chain = self._chain(9, self.ORDER)
        energies = np.array([np.nan, 0.3, np.nan, -1.0, 5.0])
        counts = assert_same_counts(energies, chain.diag, chain.offdiag * chain.offdiag)
        assert counts[0] == counts[2] == 0

    def test_overflowing_step_after_a_clamp(self):
        # o / -PIVMIN overflows to +inf after a zero pivot, and the step
        # after that divides by inf
        _, _, chain = self._chain(10, self.ORDER)
        diag, off2 = chain.diag.copy(), chain.offdiag * chain.offdiag
        for r in (2, _ROWS - 1, _ROWS + 4):
            diag[r], off2[r - 1], off2[r] = 0.0, 0.0, 1e300
        assert_same_counts(np.array([0.0, -0.0, 1.0, 1e-300]), diag, off2)


def counted_sweeps(monkeypatch):
    """Count the calls of _negative_pivot_counts, one per pivot sweep."""
    calls = []
    real = rabicf.tridiag._negative_pivot_counts

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rabicf.tridiag, "_negative_pivot_counts", counted)
    return calls


class TestMultisection:
    """Up to four halvings per pivot sweep, ending bit for bit where plain
    bisection ends."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("tol", [1e-11, 0.0])
    @pytest.mark.parametrize("copies", [1, 20, 60, 100])
    def test_same_cell_as_bisection(self, seed, tol, copies):
        # 8 levels repeated: 8, 160, 480 and 800 lanes take 4, 3, 2 and 1
        # halvings a sweep
        rng = np.random.default_rng(seed)
        params = ModelParams(1.0, rng.uniform(0.2, 4.0), rng.uniform(0.1, 2.0))
        parity = (Parity.PLUS, Parity.MINUS)[seed % 2]
        chain = build_chain(params, parity, int(rng.integers(8, 401)))
        off2 = chain.offdiag * chain.offdiag
        wanted = np.tile(np.arange(1, 9), copies)
        lo, hi = gershgorin_interval(chain)
        brackets = np.full(wanted.size, lo), np.full(wanted.size, hi)
        got = _bisect(chain.diag, off2, wanted, *brackets, tol, _dominance_floor(chain.diag, off2))
        want = reference_bisect(chain.diag, off2, wanted, *brackets, tol)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("tol, widths", [
        (1e-13, [2.0**-44, 2.0**-44, 2.0**-33, 2.0**-21]),
        (0.0, [2.0**-76, 2.0**-53, 2.0**-33, 2.0**-21]),
    ])
    def test_lanes_stop_at_different_depths(self, tol, widths):
        # adjacent floats come at 2**-76 near 1e-7, 2**-53 just below 1,
        # 2**-33 near 1e6 and 2**-21 near -3e9
        roots = np.array([1e-7, 1.0 - 2.0**-50, 1e6 + 0.3, -3e9 - 1.0 / 3.0])
        wanted = np.array([2, 3, 4, 1])
        lo = np.array([-1.0, 0.5, 1e6 - 1.0, -3.1e9])
        hi = np.array([1.0, 1.5, 1e6 + 1.0, -2.9e9])
        got = _bisect(roots, np.zeros(3), wanted, lo, hi, tol, _dominance_floor(roots, np.zeros(3)))
        want = reference_bisect(roots, np.zeros(3), wanted, lo, hi, tol)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[1] - got[0], widths)
        assert np.all((got[0] < np.sort(roots)[wanted - 1]) & (np.sort(roots)[wanted - 1] <= got[1]))

    @pytest.mark.parametrize("roots, lo, hi", [
        ([0.9999999999998863, -0.003456474980611698, -0.0005718811384953244],
         [0.9979231857650344, -0.007158214389234819, -0.005713309888050771],
         [1.0165067772668486, 0.0010387328642744338, 0.01572207038140503]),
        ([0.9999999999999929, -12854.879567060732, 8041592956.426211],
         [0.9028723482716012, -12854.957237768202, 8041592956.384948],
         [1.0129655923154517, -12854.839479460245, 8041592956.452334]),
    ])
    def test_brackets_that_miss_their_level(self, roots, lo, hi):
        # two of the three brackets miss their level and end on one of their
        # ends, as in bisection: no sweep probes finer than one ulp of a
        # live end, where a probe would round
        got = _bisect(np.array(roots), np.zeros(2), np.arange(1, 4), np.array(lo), np.array(hi), 0.0,
                      _dominance_floor(np.array(roots), np.zeros(2)))
        want = reference_bisect(np.array(roots), np.zeros(2), np.arange(1, 4), np.array(lo),
                                np.array(hi), 0.0)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @staticmethod
    def _halvings(diag, off2, levels, interval):
        # from the snapped interlacing brackets, one common power-of-two
        # width, down to the 2**-37 cell
        hi = _start_tops(diag, off2, levels, 1e-11, interval)
        lo, hi = _snap(np.full(hi.shape, interval[0]), hi, 1e-11)
        return int(math.log2(float(np.max(hi - lo)) / lattice_cell(1e-11)))

    def test_eigenvalues_sweeps(self, monkeypatch):
        # order 300, 8 levels: 41 halvings from the snapped interlacing
        # brackets (46 from the Gershgorin interval), 4 per sweep
        chain = build_chain(FIXTURE, Parity.PLUS, 300)
        off2 = chain.offdiag * chain.offdiag
        halvings = self._halvings(chain.diag, off2, 8, gershgorin_interval(chain))
        assert halvings == 41
        calls = counted_sweeps(monkeypatch)
        eigenvalues(chain, 8)
        assert len(calls) == math.ceil(halvings / 4) == 11

    def test_batch_keeps_bisection(self, monkeypatch):
        # the README scan's tracks, 600 chains x 8 levels: one halving a sweep
        values = np.linspace(0.05, 1.2, 600)
        interval = _sweep_interval(FIXTURE, "g", 1.2, 300)
        diag, off2 = _batch_tables(FIXTURE, "g", values, 1.0, 300)
        halvings = self._halvings(diag, off2, 8, interval)
        calls = counted_sweeps(monkeypatch)
        eigenvalues_batch(diag, off2, 8, 1e-11, interval)
        assert len(calls) == halvings


@st.composite
def exit_sweeps(draw):
    """(energies, diag, off2): Rabi-like step-major tables of one chain or
    three, with decoupled sites (a_j = 0), planted pivots at and near
    +-PIVMIN at block edges (exact zeros among them, at E = 0), and an
    overall 2**-256 scale; energies low and high, 0, NaN and +-inf."""
    n1 = draw(st.sampled_from([1, 2, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS, 3 * _ROWS + 5, 150]))
    chains = draw(st.sampled_from([(), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    j = np.arange(n1, dtype=float).reshape((-1,) + (1,) * len(chains))
    omega = draw(st.sampled_from([1.0, 0.3]))
    diag = j * omega + (-1.0) ** j * rng.uniform(0.0, 2.0, chains)
    diag = diag + draw(st.sampled_from([0.0, 0.1])) * rng.normal(size=diag.shape)
    off2 = rng.uniform(0.0, 3.0, chains) ** 2 * j[1:] * omega
    off2[rng.random(off2.shape) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    for r in draw(st.lists(st.sampled_from([0, 1, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS, n1 - 1]),
                           max_size=3)):
        if r < n1:
            diag[r] = draw(st.sampled_from(TINY))
            if r:
                off2[r - 1] = 0.0
    energies = draw(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
        st.floats(-8.0, 4.0), st.floats(-8.0, 60.0)), min_size=1, max_size=10))
    energies = np.array(energies).reshape(draw(st.sampled_from([(-1,), (1, -1)])))
    scale = draw(st.sampled_from([1.0, 2.0**-256]))
    return scale * energies, scale * diag, scale * scale * off2


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDominanceExit:
    """A sweep that stops where the tail is diagonally dominant above every
    energy counts what the per-step rule counts over the whole chain, and
    the interlacing start is an upper end of its level."""

    @settings(max_examples=300, deadline=None)
    @given(exit_sweeps())
    def test_counts_equal_the_full_sweep(self, case):
        energies, diag, off2 = case
        if diag.ndim == 2:
            energies = energies[..., None]
        got, steps = _pivot_sweep(energies, diag, off2, _dominance_floor(diag, off2))
        want = reference_pivot_counts(energies, np.moveaxis(diag, 0, -1),
                                      np.moveaxis(off2, 0, -1))
        np.testing.assert_array_equal(got, want)
        assert steps % _ROWS == 0 or steps == diag.shape[0]
        if np.isnan(energies).any():
            assert steps == diag.shape[0]

    def test_stops_after_one_block_below_the_spectrum(self):
        # order 300 at g = 0.7: dominant from a few sites above E = 1
        chain = build_chain(FIXTURE, Parity.PLUS, 300)
        diag, off2 = chain.diag, chain.offdiag * chain.offdiag
        tail = _dominance_floor(diag, off2)
        for energies, steps in (([-1.0, 0.5, 1.0], _ROWS), ([0.5, 400.0], 301), ([0.5, np.nan], 301)):
            got, read = _pivot_sweep(np.array(energies), diag, off2, tail)
            assert read == steps
            np.testing.assert_array_equal(got, reference_pivot_counts(np.array(energies), diag, off2))

    @pytest.mark.parametrize("params, parity, order, level", [
        (FIXTURE, Parity.PLUS, 400, ORACLE_PLUS_12[0]),
        # the pivot at level 1 vanishes exactly at E = -1
        (ModelParams(1.0, 1.2, 0.4), Parity.MINUS, 300, -1.0),
        # g = 0: 0.25 is exactly the lowest eigenvalue
        (ModelParams(1.0, 0.0, 0.25), Parity.PLUS, 20, 0.25),
    ])
    def test_sturm_count_single_energies(self, params, parity, order, level):
        # NaN, +-inf and a level: a Python int, equal to its lane in one
        # sweep over all four and to the per-step rule
        chain = build_chain(params, parity, order)
        diag, off2 = chain.diag, chain.offdiag * chain.offdiag
        energies = [math.nan, math.inf, -math.inf, level]
        lanes = _negative_pivot_counts(np.array(energies), diag, off2, _dominance_floor(diag, off2))
        want = reference_pivot_counts(np.array(energies), diag, off2)
        got = [sturm_count(e, chain) for e in energies]
        assert all(type(c) is int for c in got)
        assert got == lanes.tolist() == want.tolist()
        assert got[:3] == [0, chain.dim, 0]

    def test_sturm_count_stops_at_the_dominant_tail(self, monkeypatch):
        # order 160: one block of 32 steps below the spectrum, where the tail
        # is dominant; a NaN energy never passes and reads all 161
        chain = build_chain(FIXTURE, Parity.PLUS, 160)
        real, read = rabicf.tridiag._pivot_sweep, []

        def spy(*args):
            counts, steps = real(*args)
            read.append(steps)
            return counts, steps

        monkeypatch.setattr(rabicf.tridiag, "_pivot_sweep", spy)
        assert [sturm_count(e, chain) for e in (-1.0, gershgorin_interval(chain)[0], math.nan)] \
            == [0, 0, 0]
        assert read == [_ROWS, _ROWS, 161]

    @staticmethod
    def _suffix_minima(diag, off2):
        """S_0 .. S_n of each chain of step-major tables on its own, formed
        on every row: (n+1, ...)."""
        b = np.sqrt(np.concatenate([np.zeros((1,) + off2.shape[1:]), off2,
                                    np.zeros((1,) + off2.shape[1:])]))
        r = b[:-1] + b[1:]
        rows = diag - r - (_SLACK * (np.abs(diag) + r) + 4.0 * PIVMIN)
        return np.minimum.accumulate(rows[::-1], axis=0)[::-1]

    def test_dominance_floor_is_the_suffix_minimum(self):
        # one chain: S_0 .. S_{n+1}, bit for bit
        for order in (0, 1, _ROWS - 1, _ROWS, 150):
            chain = build_chain(ModelParams(1.0, 1.3, 0.6), Parity.MINUS, order)
            diag, off2 = chain.diag, chain.offdiag * chain.offdiag
            floor = _dominance_floor(diag, off2)
            want = np.append(self._suffix_minima(diag, off2), np.inf)
            assert floor.shape == (order + 2,)
            assert floor.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tables", ["readme tracks", "three chains"])
    def test_dominance_floor_bounds_every_chain(self, tables):
        # at most each chain's own S_J: the README g scan's 600 chains, which
        # share their diagonal, and three chains with diagonals of both signs
        if tables == "readme tracks":
            diag, off2 = _batch_tables(FIXTURE, "g", np.linspace(0.05, 1.2, 600), 1.0, 300)
        else:
            rng = np.random.default_rng(7)
            j = np.arange(151.0)[:, None]
            diag = j * rng.uniform(0.2, 2.0, 3) + rng.normal(0.0, 40.0, (151, 3))
            off2 = rng.uniform(0.0, 3.0, (150, 3)) ** 2 * j[1:]
        own = self._suffix_minima(diag, off2)
        floor = _dominance_floor(diag, off2)
        assert floor.shape == (diag.shape[0] + 1,) and floor[-1] == np.inf
        assert np.all(floor[:-1, None] <= own)

    @pytest.mark.parametrize("table, value", [
        ("diag", np.inf), ("diag", -np.inf), ("diag", np.nan), ("off2", np.inf), ("off2", np.nan)])
    def test_dominance_floor_never_passes_a_bad_entry(self, table, value):
        # an inf or NaN entry at step 100 of one of three chains: no S_J
        # with J <= 100 passes any energy, and a sweep below the spectrum,
        # which stops after one block without it, reads past that step
        energies, diag, off2 = np.array([[-1.0], [0.0]]), np.full((151, 3), 5.0), np.ones((150, 3))
        assert _pivot_sweep(energies, diag, off2, _dominance_floor(diag, off2))[1] == _ROWS
        (diag[100] if table == "diag" else off2[99])[1] = value
        floor = _dominance_floor(diag, off2)
        assert not np.any(floor[:101] > -np.inf)
        assert _pivot_sweep(energies, diag, off2, floor)[1] > 100

    @pytest.mark.parametrize("energies", [
        np.array(math.nan), np.array(2.5), np.array([-1.0, 0.3, math.nan, 4.7, 9.0]),
        np.array([[math.nan, -2.0, 1.1], [3.3, 6.0, 12.0]]),
    ])
    def test_sturm_count_arrays(self, monkeypatch, energies):
        # one sweep over every energy, NaN lanes included: an int for a 0-d
        # input, else an int64 array of its shape, equal to the per-float
        # calls and to the per-step rule
        chain = build_chain(FIXTURE, Parity.MINUS, 120)
        calls = counted_sweeps(monkeypatch)
        got = sturm_count(energies, chain)
        assert len(calls) == 1
        per_float = [sturm_count(float(e), chain) for e in energies.flat]
        want = reference_pivot_counts(energies, chain.diag, chain.offdiag * chain.offdiag)
        if energies.ndim == 0:
            assert type(got) is int
        else:
            assert type(got) is np.ndarray and got.dtype == np.int64
            assert got.shape == energies.shape
        assert np.ravel(got).tolist() == per_float == want.ravel().tolist()

    @pytest.mark.parametrize("seed", range(8))
    def test_interlacing_tops_hold_their_level(self, seed):
        # u_k, unclamped, >= lambda_k of the whole chain on random chains
        rng = np.random.default_rng(seed)
        n1 = int(rng.integers(1, 60))
        k = min(1 + seed, n1)
        diag = rng.normal(0.0, 3.0, (n1, 4)) + np.arange(n1)[:, None] * rng.uniform(0.0, 1.0)
        off = rng.normal(0.0, 2.0, (n1 - 1, 4))
        tops = _start_tops(diag, off * off, k, 1e-11, (-np.inf, np.inf))
        for s in range(4):
            t = np.diag(diag[:, s]) + np.diag(off[:, s], 1) + np.diag(off[:, s], -1)
            assert np.all(tops[:, s] >= np.linalg.eigvalsh(t)[:k])
        # clamped to at least one 512 cell above the lower end, at most the upper
        lo = float(np.min(diag)) - 10.0
        for hi in (lo + 2000.0, lo + 100.0):
            starts = _start_tops(diag, off * off, k, 1e3, (lo, hi))
            np.testing.assert_array_equal(starts, np.minimum(hi, np.maximum(tops, lo + 512.0)))
        np.testing.assert_array_equal(_start_tops(diag, off * off, k, 1e-11, (lo, 1e9)), tops)
