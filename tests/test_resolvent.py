import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rabicf import (
    DivergedTailError,
    GZeroError,
    ModelParams,
    Parity,
    PoleSeparationError,
    ResolventStatus,
    build_chain,
    build_pathological,
    char_poly,
    eigenvalues,
    pole_count,
    poles_of_resolvent,
    resolvent_cf,
    sturm_count,
)
from rabicf import resolvent, tridiag
from rabicf.model import (
    _ROWS,
    DEFAULT_GRID,
    DEFAULT_REFINE_TOL,
    PIVMIN,
    SLACK,
    ChainCoefficients,
    default_order,
    default_window,
    negative_pivots,
)
from rabicf.resolvent import PathologicalVariant
from rabicf.search import bisect_sign, counted_roots

from conftest import FIXTURE, ORACLE_MINUS_12, ORACLE_PLUS_12, assert_not_imported


class TestCharPoly:
    def test_two_site_closed_form(self):
        chain = build_chain(FIXTURE, Parity.PLUS, 1)
        for energy in (-0.5, 0.0, 0.3, 1.1, 2.0):
            det, _ = char_poly(energy, chain)
            expected = (energy - 0.4) * (energy - 0.6) - 0.49
            assert det == pytest.approx(expected, rel=1e-14)

    def test_two_site_roots(self):
        chain = build_chain(FIXTURE, Parity.PLUS, 1)
        roots = poles_of_resolvent(chain, (-1.0, 2.0), 2).energies
        expected = [0.5 - math.sqrt(0.5), 0.5 + math.sqrt(0.5)]
        np.testing.assert_allclose(roots, expected, atol=1e-11)

    def test_diagonal_product_form(self):
        chain = build_chain(ModelParams(1.0, 0.0, 0.4), Parity.MINUS, 4)
        for energy in (-0.7, 0.25, 3.8):
            det, minor = char_poly(energy, chain)
            assert det == pytest.approx(np.prod(energy - chain.diag), rel=1e-13)
            assert minor == pytest.approx(np.prod(energy - chain.diag[1:]), rel=1e-13)

    def test_no_overflow_large_order(self):
        chain = build_chain(FIXTURE, Parity.PLUS, 800)
        d0, d1 = char_poly(0.5, chain)
        assert math.isfinite(d0) and math.isfinite(d1)
        assert (d0, d1) != (0.0, 0.0)

    def test_ratio_is_level_resolvent(self):
        chain = build_chain(FIXTURE, Parity.PLUS, 6)
        d0, d1 = char_poly(0.2, chain)
        assert d1 / d0 == pytest.approx(resolvent_cf(0.2, chain).value, rel=1e-12)


class TestPoleCount:
    @pytest.mark.parametrize("params, parity, order, special", [
        (FIXTURE, Parity.PLUS, 100, ORACLE_PLUS_12[0]),
        (FIXTURE, Parity.MINUS, 100, ORACLE_MINUS_12[0]),
        # g = 0: 0.25 is exactly the lowest eigenvalue
        (ModelParams(1.0, 0.0, 0.25), Parity.PLUS, 20, 0.25),
        # the oracle's forward pivot at level 1 vanishes exactly at E = -1
        (ModelParams(1.0, 1.2, 0.4), Parity.MINUS, 300, -1.0),
    ])
    def test_matches_sturm_count(self, params, parity, order, special):
        chain = build_chain(params, parity, order)
        energies = np.append(np.linspace(-5.0, 12.0, 341), special)
        want = [sturm_count(e, chain) for e in energies]
        lanes = pole_count(energies, chain)
        np.testing.assert_array_equal(lanes, want)
        # a float counts as one 0-d lane: an int, equal to its lane
        floats = [pole_count(float(e), chain) for e in energies]
        assert all(type(c) is int for c in floats)
        np.testing.assert_array_equal(floats, lanes)

    def test_pole_on_the_energy_counts(self):
        chain = build_chain(ModelParams(1.0, 0.0, 0.25), Parity.PLUS, 20)
        assert [int(pole_count(e, chain)) for e in (0.0, 0.25, 0.5)] == [0, 1, 1]


def reference_pole_count(energy, chain):
    """The backward count that ``pole_count`` ran before its forward sweep:
    the negative backward pivots u_N .. u_0 of H - E, from u_N = d_N - E,
    u_j = (d_j - E) - a_{j+1}/u_{j+1}, read through all N + 1 sites."""
    diag, a = chain.diag[::-1], np.append(chain.a_values(), 0.0)[::-1].tolist()
    if np.ndim(energy) == 0:  # a plain-float loop, a pivot at or below PIVMIN counting
        count, u = 0, math.inf
        for d, a_j in zip(diag.tolist(), a):
            if (u := (d - float(energy)) - a_j / u) <= PIVMIN:
                count, u = count + 1, min(u, -PIVMIN)
        return count
    lanes = (-1,) + (1,) * np.ndim(energy)
    return negative_pivots(a, lambda i, j: diag[i:j].reshape(lanes) - energy, len(a))


def full_forward_count(energies, chain):
    """``pole_count`` on lanes with its forward sweep run through all N + 1
    sites: the reference that the sweep's dominance exit is held to."""
    a = [0.0] + chain.a_values().tolist()
    return negative_pivots(a, lambda i, j: chain.diag[i:j].reshape(-1, 1) - energies, len(a))


def chain_matrix(chain):
    return np.diag(chain.diag) + np.diag(chain.offdiag, 1) + np.diag(chain.offdiag, -1)


def lanes_at_levels(levels):
    """Energies on ``levels``, on the floats next to them and halfway
    between neighbours."""
    return np.concatenate([levels, np.nextafter(levels, -np.inf), np.nextafter(levels, np.inf),
                           (levels[:-1] + levels[1:]) / 2.0])


def planted_chain(diag, offdiag):
    """A chain with the given entries: ``pole_count`` reads only these."""
    diag, offdiag = np.asarray(diag, dtype=float), np.asarray(offdiag, dtype=float)
    return ChainCoefficients(FIXTURE, Parity.PLUS, len(offdiag), diag, offdiag)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPoleCountExit:
    """``pole_count``'s forward lane sweep, which stops after the first block
    past the site from which the chain is dominant above every lane, counts
    what the full forward sweep counts, and what the backward count counted
    away from the eigenvalues."""

    @settings(max_examples=120, deadline=None)
    @given(st.floats(1e-3, 20.0), st.floats(0.0, 3.0), st.integers(1, 1300),
           st.sampled_from(Parity), st.integers(0, 40), st.integers(1, 12),
           st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), max_size=2))
    def test_random_chains(self, g, delta, order, parity, first, count, nonfinite):
        chain = build_chain(ModelParams(1.0, g, delta), parity, order)
        levels = np.linalg.eigvalsh(chain_matrix(chain))
        energies = np.concatenate([lanes_at_levels(levels[first:first + count]), nonfinite])
        got = pole_count(energies, chain)
        np.testing.assert_array_equal(got, full_forward_count(energies, chain))
        # a float is one 0-d lane of the same sweep
        np.testing.assert_array_equal([pole_count(float(e), chain) for e in energies], got)
        # away from every eigenvalue the backward count agrees: each count is
        # exact for a matrix within rounding of the chain
        finite = np.isfinite(energies)
        gap = np.abs(energies[finite, None] - levels).min(axis=1)
        far = gap > 1e-13 * np.abs(levels).max()
        np.testing.assert_array_equal(got[finite][far],
                                      reference_pole_count(energies[finite][far], chain))

    def test_exit_takes_the_first_dominant_site(self, monkeypatch):
        # the J handed to the sweep is the first site from which every
        # d_j - max E passes the dominance test; the site before fails it
        chain = build_chain(ModelParams(1.0, 0.7, 0.4), Parity.MINUS, 300)
        energies = np.linspace(-1.0, 7.3, 50)
        seen = []

        def spy(couplings, rows, dominant, energies):
            seen.append(dominant)
            return negative_pivots(couplings, rows, dominant, energies)

        monkeypatch.setattr(tridiag, "negative_pivots", spy)  # the count's sweep
        pole_count(energies, chain)
        b = np.sqrt(np.append(np.append(0.0, chain.a_values()), 0.0))
        p, r = chain.diag - energies.max(), b[:-1] + b[1:]
        passes = p >= r + SLACK * (np.abs(p) + r) + 4.0 * PIVMIN
        J = seen[0]
        assert 0 < J < chain.order and passes[J:].all() and not passes[J - 1]

    def test_pivot_below_the_next_coupling(self):
        # site 31 sits just above the top lane and is not dominant, every site
        # from 32 on is: at E = 0 the first block ends on q_31 = d_31 - E,
        # small and positive, so the next pivot is negative and counts; at
        # E = -1, q_31 = 1.001 passes and no later pivot is negative
        diag = np.full(3 * _ROWS, 50.0)
        diag[_ROWS - 1] = 1e-3
        offdiag = np.ones(3 * _ROWS - 1)
        offdiag[_ROWS - 2] = 0.0  # q_31 = d_31 - E
        chain = planted_chain(diag, offdiag)
        energies = np.array([-1.0, 0.0])
        assert pole_count(energies, chain).tolist() == [0, 1]
        np.testing.assert_array_equal(pole_count(energies, chain),
                                      full_forward_count(energies, chain))

    def test_negative_site_just_before_the_dominant_tail(self):
        # site 32 lies far below the lanes, every site from 33 on and
        # before 32 is dominant: the sweep may stop after the block that
        # holds site 32, never after the one before it
        diag = np.full(3 * _ROWS, 50.0)
        diag[_ROWS] = -100.0
        chain = planted_chain(diag, np.ones(3 * _ROWS - 1))
        energies = np.array([-1.0, 0.0])
        assert pole_count(energies, chain).tolist() == [1, 1]
        np.testing.assert_array_equal(pole_count(energies, chain),
                                      full_forward_count(energies, chain))

    @pytest.mark.parametrize("chain, level", [
        # g = 0: 0.25 is exactly the lowest eigenvalue, a zero pivot
        (build_chain(ModelParams(1.0, 0.0, 0.25), Parity.PLUS, 20), 0.25),
        (build_chain(ModelParams(1.0, 0.7, 0.4), Parity.MINUS, 300), None),
    ])
    def test_single_energies(self, chain, level):
        # NaN, +-inf and an eigenvalue (numpy.linalg.eigvalsh's level 3 when
        # none is exact): a float gives a Python int, equal to its lane, to
        # the full forward sweep and, where the backward count is exact, to it
        if level is None:
            level = float(np.linalg.eigvalsh(chain_matrix(chain))[3])
        energies = [math.nan, math.inf, -math.inf, level]
        lanes = pole_count(np.array(energies), chain)
        for e, lane in zip(energies, lanes):
            got = pole_count(e, chain)
            assert type(got) is int
            assert got == lane == full_forward_count(np.array([e]), chain)[0]
            if not math.isfinite(e) or chain.params.g == 0.0:
                assert got == reference_pole_count(e, chain)
        assert lanes.tolist()[:3] == [0, chain.dim, 0]

    @pytest.mark.parametrize("seed", [1, 2, 3, 20121205])
    def test_poles_equal_the_backward_count(self, seed, monkeypatch):
        # seeded method-b requests: the brackets the forward count gives
        # refine to the roots and residuals the backward count gave
        rng = random.Random(seed)
        requests = [(ModelParams(1.0, round(rng.uniform(0.2, 2.0), 4),
                                 round(rng.uniform(0.1, 1.5), 4)), parity, order)
                    for order in (300, 600, 1200) for parity in Parity]
        def solve():
            return [poles_of_resolvent(build_chain(p, parity, order), default_window(p, 8), 8)
                    for p, parity, order in requests]

        got = solve()
        monkeypatch.setattr(resolvent, "pole_count", reference_pole_count)
        want = solve()
        for mine, theirs in zip(got, want):
            assert [(lev.energy, lev.residual) for lev in mine.levels] == \
                [(lev.energy, lev.residual) for lev in theirs.levels]


class TestResolventCf:
    def test_diagonal_limit(self):
        chain = build_chain(ModelParams(1.0, 0.0, 0.4), Parity.PLUS, 5)
        for energy in (-1.0, 0.1, 0.9):
            got = resolvent_cf(energy, chain)
            assert got.value == pytest.approx(1.0 / (energy - 0.4), rel=1e-14)

    def test_two_site_hand_value(self):
        chain = build_chain(FIXTURE, Parity.PLUS, 1)
        got = resolvent_cf(0.0, chain)
        assert got.value == pytest.approx(1.0 / (-0.4 - 0.49 / (-0.6)), rel=1e-14)
        assert got.value == pytest.approx(2.4, rel=1e-12)

    def test_reciprocal_inverse_identity(self):
        chain = build_chain(FIXTURE, Parity.MINUS, 40)
        for energy in np.linspace(-1.0, 4.0, 37):
            got = resolvent_cf(energy, chain)
            if got.status is ResolventStatus.CONVERGED and got.value != 0.0:
                assert got.value * got.reciprocal == pytest.approx(1.0, rel=1e-14)

    def test_tiny_reciprocal_at_eigenvalue(self):
        chain = build_chain(FIXTURE, Parity.PLUS, 30)
        pole = poles_of_resolvent(chain, (-1.0, 1.0), 1).levels[0]
        got = resolvent_cf(pole.energy, chain)
        assert got.status is ResolventStatus.POLE_HIT or abs(got.reciprocal) < 1e-9


class TestPolesOfResolvent:
    def test_diagonal_spectrum(self):
        chain = build_chain(ModelParams(1.0, 0.0, 0.4), Parity.PLUS, 2)
        got = poles_of_resolvent(chain, (-1.0, 3.0), 5).energies
        np.testing.assert_allclose(got, [0.4, 0.6, 2.4], atol=1e-11)

    def test_matches_oracle(self):
        for parity, reference in (
            (Parity.PLUS, ORACLE_PLUS_12),
            (Parity.MINUS, ORACLE_MINUS_12),
        ):
            chain = build_chain(FIXTURE, parity, 200)
            got = poles_of_resolvent(chain, (-1.2, 7.0), 6).energies
            np.testing.assert_allclose(got, reference[:6], atol=1e-9)

    def test_empty_window(self):
        # an empty window is an empty spectrum, as for method a
        chain = build_chain(FIXTURE, Parity.PLUS, 40)
        assert poles_of_resolvent(chain, (-5.0, -3.0), 3).levels == ()

    def test_pole_on_a_grid_sample(self):
        # g = 0: the plus chain's lowest pole 0.25 is the middle of three samples
        chain = build_chain(ModelParams(1.0, 0.0, 0.25), Parity.PLUS, 20)
        got = poles_of_resolvent(chain, (0.0, 0.5), 3, grid=3).energies
        np.testing.assert_array_equal(got, [0.25])

    @given(st.floats(0.0, 3.0, exclude_min=True), st.floats(0.0, 2.0, exclude_min=True),
           st.integers(1, 60), st.integers(2, 40))
    def test_every_pole_at_any_grid(self, g, delta, order, grid):
        # the pole count brackets every pole, however many share a cell
        params = ModelParams(1.0, g, delta)
        lo, hi = default_window(params, 6)
        margin = 1e-8 * params.omega
        for parity in Parity:
            chain = build_chain(params, parity, order)
            for end in (lo, hi):
                assume(sturm_count(end - margin, chain) == sturm_count(end + margin, chain))
            n_lo, n_hi = sturm_count(lo, chain), sturm_count(hi, chain)
            got = poles_of_resolvent(chain, (lo, hi), order + 1, grid=grid).energies
            assert len(got) == n_hi - n_lo
            if n_hi > n_lo:
                want = eigenvalues(chain, n_hi).energies[n_lo:]
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    def test_poles_on_consecutive_samples(self):
        # g = delta = 0: the poles 0, 1, 2, 3 are samples; each cell ends on
        # its own pole and starts on the one below
        chain = build_chain(ModelParams(1.0, 0.0, 0.0), Parity.PLUS, 6)
        for grid in (2, 3, 5):
            got = poles_of_resolvent(chain, (-1.0, 3.0), 10, grid=grid).energies
            np.testing.assert_array_equal(got, [0.0, 1.0, 2.0, 3.0])

    def test_interlacing_with_next_order(self):
        big = poles_of_resolvent(build_chain(FIXTURE, Parity.PLUS, 31), (-1.0, 6.0), 8).energies
        small = poles_of_resolvent(build_chain(FIXTURE, Parity.PLUS, 30), (-1.0, 6.0), 8).energies
        k = min(len(big), len(small)) - 1
        assert np.all(big[:k] <= small[:k] + 1e-9)
        assert np.all(small[:k] <= big[1 : k + 1] + 1e-9)

    def test_parity_union_at_g_zero(self):
        p = ModelParams(1.0, 0.0, 0.4)
        plus = poles_of_resolvent(build_chain(p, Parity.PLUS, 20), (-1.0, 4.0), 8).energies
        minus = poles_of_resolvent(build_chain(p, Parity.MINUS, 20), (-1.0, 4.0), 8).energies
        expected = {0.4, 0.6, 2.4, 2.6}, {-0.4, 1.4, 1.6, 3.4, 3.6}
        np.testing.assert_allclose(plus, sorted(expected[0]), atol=1e-10)
        np.testing.assert_allclose(minus, sorted(expected[1]), atol=1e-10)
        # each value appears in exactly one chain
        for value in plus:
            assert np.min(np.abs(minus - value)) > 0.1


def full_row_poles(chain, window, levels):
    """The poles that ITP on D_0 over all N + 1 rows refines to: the
    refinement ``poles_of_resolvent`` ran before its leading minors."""
    return [root for root, _ in counted_roots(
        lambda e: pole_count(e, chain), lambda e: char_poly(e, chain)[0], window,
        DEFAULT_GRID, levels, DEFAULT_REFINE_TOL * chain.params.omega)]


def counting_minors(monkeypatch):
    """Count the leading-minor evaluations, and those that miss the pivot
    test and so restart a piece on D_0."""
    seen = {"evaluations": 0, "restarts": 0}
    real = resolvent._leading_minor

    def counted(*args, **kwargs):
        seen["evaluations"] += 1
        try:
            return real(*args, **kwargs)
        except resolvent._Unsettled:
            seen["restarts"] += 1
            raise

    monkeypatch.setattr(resolvent, "_leading_minor", counted)
    return seen


class TestLeadingMinorRefinement:
    """Each pole is refined on the leading minors up to a row that settles
    D_0's sign, and comes out bit for bit as ITP on D_0 gives it."""

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_roots_equal_the_full_row_refinement(self, seed, parity, monkeypatch):
        seen = counting_minors(monkeypatch)
        rng = np.random.default_rng(seed)
        for g, order in zip(np.geomspace(0.05, 3.0, 6), [10, 40, 150, 300, 600, 1200]):
            params = ModelParams(1.0, g * rng.uniform(0.9, 1.1), rng.uniform(0.1, 1.5))
            levels = int(rng.integers(4, 11))
            chain, window = build_chain(params, parity, order), default_window(params, levels)
            assert poles_of_resolvent(chain, window, levels).energies.tolist() == \
                full_row_poles(chain, window, levels)
        assert seen["evaluations"] > 10 * seen["restarts"]

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("g", [13.0, 20.0])
    def test_large_coupling_at_the_default_order(self, g, parity, monkeypatch):
        # g**2/omega is past SETTLE_REACH rows there: every piece is refined
        # on D_0 from the start, with no minor to restart
        seen = counting_minors(monkeypatch)
        params = ModelParams(1.0, g, 0.4)
        window = default_window(params, 8)
        chain = build_chain(params, parity, default_order(params, 8, window))
        assert poles_of_resolvent(chain, window, 8).energies.tolist() == \
            full_row_poles(chain, window, 8)
        assert seen == {"evaluations": 0, "restarts": 0}

    def test_restart_from_the_same_cell(self, monkeypatch):
        # no margin: the pivot test misses at the first node of every piece,
        # which then refines on D_0 from the cell it started from
        monkeypatch.setattr(resolvent, "SETTLE_MARGIN", 0)
        seen = counting_minors(monkeypatch)
        calls, real = [], resolvent.bisect_sign

        def recorded(f, *args, **kwargs):
            calls.append((f, args, kwargs))
            return real(f, *args, **kwargs)

        monkeypatch.setattr(resolvent, "bisect_sign", recorded)
        chain, window = build_chain(FIXTURE, Parity.PLUS, 300), default_window(FIXTURE, 8)
        assert poles_of_resolvent(chain, window, 8).energies.tolist() == \
            full_row_poles(chain, window, 8)
        assert seen["restarts"] == 8 and len(calls) == 16
        for (minor, *first), (d0, *again) in zip(calls[::2], calls[1::2]):
            assert minor.func is resolvent._leading_minor and first == again
            assert d0(0.5) == char_poly(0.5, chain)[0]

    def test_minor_has_the_sign_of_d0(self):
        # wherever its pivot test passes, (-1)**(N - K) P_{K+1} has D_0's sign
        chain = build_chain(FIXTURE, Parity.PLUS, 300)
        parities = set()
        for e in np.linspace(-1.5, 9.0, 211).tolist():
            k = resolvent._settled_row(chain, e, e)
            assert k < chain.order
            parities.add((chain.order - k) % 2)
            assert np.sign(resolvent._leading_minor(e, chain, k)) == \
                np.sign(char_poly(e, chain)[0]) != 0
        assert parities == {0, 1}

    @pytest.mark.parametrize("g", [5.0, 5.65, 5.66, 6.0])
    def test_reach(self, g):
        # a chain with g**2/omega past SETTLE_REACH rows refines on D_0
        chain = build_chain(ModelParams(1.0, g, 0.4), Parity.PLUS, 400)
        reach = g * g > resolvent.SETTLE_REACH
        assert (resolvent._settled_row(chain, -g * g - 0.5, -g * g) == chain.order) == reach

    @pytest.mark.parametrize("order", [0, 1, 20, 32, 33, 40])
    def test_last_row_is_within_the_chain(self, order):
        # K = min(N, K0 + SETTLE_MARGIN): a chain shorter than the margin
        # refines on D_0
        chain = build_chain(FIXTURE, Parity.PLUS, order)
        k = resolvent._settled_row(chain, -1.0, -0.5)
        assert k == order if order <= resolvent.SETTLE_MARGIN else k <= order

    def test_exactly_zero_pivot(self):
        # the piece (d_0, 1] of the README plus chain holds one pole, and at
        # its lower end the first pivot d_0 - E is exactly 0
        chain = build_chain(FIXTURE, Parity.PLUS, 300)
        lo = float(chain.diag[0])
        assert pole_count(1.0, chain) - pole_count(lo, chain) == 1
        k = resolvent._settled_row(chain, lo, 1.0)
        assert k < chain.order
        d0 = lambda e: char_poly(e, chain)[0]
        tol = DEFAULT_REFINE_TOL
        assert resolvent._refine_pole(chain, d0, lo, 1.0, tol, start=(0, 0)) == \
            bisect_sign(d0, lo, 1.0, tol, start=(0, 0))
        # P_1 = 0 there, so the minors ending at rows 0 and 1 cannot vouch
        for k in (0, 1):
            with pytest.raises(resolvent._Unsettled):
                resolvent._leading_minor(lo, chain, k)


class TestPlantedTail:
    """G_N(E_0) of the plant, ``PlantedChain.tail``."""

    def test_seed_formula(self):
        # at order 1, G_1 = b_0/a_1, rounded once
        got = build_pathological(0.0, FIXTURE, Parity.PLUS, 1).tail
        assert got == float(Fraction(0.0 - 0.4) / Fraction(0.7) ** 2)
        assert got == pytest.approx(-0.4 / 0.49, rel=1e-15)
        assert got == pytest.approx(-0.8163265306122449, rel=1e-14)

    def test_approach_to_limit(self):
        # G_N(E0) tends to -omega/g^2 regardless of E0
        limit = -FIXTURE.omega / FIXTURE.g**2
        g40 = build_pathological(0.5, FIXTURE, Parity.PLUS, 40).tail
        assert abs(g40 - limit) < 0.1 * abs(limit)

    def test_monotone_approach(self):
        limit = -FIXTURE.omega / FIXTURE.g**2
        g20 = build_pathological(0.5, FIXTURE, Parity.PLUS, 20).tail
        g200 = build_pathological(0.5, FIXTURE, Parity.PLUS, 200).tail
        assert abs(g200 - limit) < abs(g20 - limit)

    def test_g_zero_rejected(self):
        with pytest.raises(GZeroError):
            build_pathological(0.0, ModelParams(1.0, 0.0, 0.4), Parity.PLUS, 5)


class TestPathological:
    def test_projection_untouched(self):
        chain = build_pathological(0.5, FIXTURE, Parity.PLUS, 30)
        base = chain.base
        np.testing.assert_array_equal(chain.diag[:30], base.diag[:30])
        np.testing.assert_array_equal(chain.offdiag, base.offdiag)
        assert chain.diag[30] != base.diag[30]

    def test_offdiag_variant_entries(self):
        chain = build_pathological(
            0.5, FIXTURE, Parity.PLUS, 30, PathologicalVariant.DIAG_AND_OFFDIAG
        )
        assert chain.offdiag[29] == FIXTURE.g * 30
        np.testing.assert_array_equal(chain.offdiag[:29], chain.base.offdiag[:29])
        assert chain.modified_diag_nn == pytest.approx(
            0.5 - 30 / chain.tail, rel=1e-14
        )

    def test_planted_eigenvalue_location(self):
        # the modified matrix genuinely acquires an eigenvalue at E0 to
        # near machine precision, at every order; the Sturm count is the
        # robust witness
        for order in (10, 20, 40, 80, 160):
            chain = build_pathological(0.5, FIXTURE, Parity.PLUS, order)
            assert sturm_count(0.5 + 1e-10, chain) - sturm_count(0.5 - 1e-10, chain) == 1

    def test_planted_reciprocal_small_order(self):
        # at order 10 the planted pole's residue (~2e-5) would still be
        # resolvable in double precision; the planted chain carries its
        # last entry exactly at every order, and the five-order sweep is
        # checked in test_acceptance.py (criterion 4)
        chain = build_pathological(0.5, FIXTURE, Parity.PLUS, 10)
        assert abs(resolvent_cf(0.5, chain).reciprocal) < 1e-9

    def test_offdiag_variant_planted_reciprocal(self):
        # the last step must use the stored couplings' own ratio
        # a'_N/a_N = (gN)^2/(g sqrt(N))^2, which equals N only up to
        # rounding; with the idealised N the reciprocal reads ~0.4 at N >= 20
        for order in (10, 20, 40, 80, 160):
            chain = build_pathological(
                0.5, FIXTURE, Parity.PLUS, order, PathologicalVariant.DIAG_AND_OFFDIAG
            )
            assert abs(resolvent_cf(0.5, chain).reciprocal) < 1e-9, order

    def test_precision_follows_planted_mode(self):
        # far below the diagonal the planted mode grows faster than
        # sqrt(N!)/g^N; the exact planted entry leaves the reciprocal 0.0
        params = ModelParams(1.0, 0.2, 0.4)
        for order in (40, 160):
            chain = build_pathological(-8.0, params, Parity.PLUS, order)
            assert abs(resolvent_cf(-8.0, chain).reciprocal) < 1e-30, order

    def test_separation_from_genuine_poles(self):
        base = build_chain(FIXTURE, Parity.PLUS, 30)
        genuine = eigenvalues(base, 8).energies
        assert np.min(np.abs(genuine - 0.5)) >= 1e-3

    def test_rejects_e0_on_genuine_pole(self):
        genuine = eigenvalues(build_chain(FIXTURE, Parity.PLUS, 30), 1).energies[0]
        with pytest.raises(PoleSeparationError):
            build_pathological(float(genuine), FIXTURE, Parity.PLUS, 30)

    def test_low_mode_invariance_and_count(self):
        order = 40
        window = (-1.0, 6.0)
        pathological = build_pathological(0.5, FIXTURE, Parity.PLUS, order)
        unmodified = build_chain(FIXTURE, Parity.PLUS, order)
        previous = build_chain(FIXTURE, Parity.PLUS, order - 1)
        count_pat = sturm_count(window[1], pathological) - sturm_count(window[0], pathological)
        count_unmod = sturm_count(window[1], unmodified) - sturm_count(window[0], unmodified)
        assert abs(count_pat - count_unmod) <= 1
        # every low eigenvalue of the order N-1 chain survives in the
        # pathological order-N chain essentially unmoved
        low_prev = eigenvalues(previous, 8).energies
        low_pat = eigenvalues(pathological, 9).energies
        for e in low_prev:
            assert np.min(np.abs(low_pat - e)) < 1e-6

    def test_tail_diagnostic(self):
        modified = build_pathological(0.5, FIXTURE, Parity.PLUS, 80)
        limit = -FIXTURE.omega / FIXTURE.g**2
        assert modified.slow_approach_diagnostic == pytest.approx(
            80 * (modified.tail - limit), rel=1e-14
        )


def fraction_plant(chain):
    """G_N(E_0) and H[N,N] of a planted chain in plain Fractions, from the
    upward ratios G_1 .. G_N on every entry converted exactly."""
    base, e = chain.base, Fraction(chain.target_energy)
    b = [e - Fraction(d) for d in base.diag.tolist()]
    a = [Fraction(o) ** 2 for o in base.offdiag.tolist()]
    tail = b[0] / a[0]
    for j in range(1, base.order):
        tail = b[j] / a[j] - 1 / (a[j] * tail)
    return tail, e - Fraction(chain.offdiag[-1]) ** 2 / (a[-1] * tail)


def fraction_reciprocal(energy, chain, hnn):
    """D_0/D_1 of a chain whose last diagonal entry is ``hnn``, from the
    backward minors in plain Fractions on every entry converted exactly."""
    e = Fraction(energy)
    prev, cur = Fraction(1), e - hnn  # D_{N+1}, D_N
    for d, o in zip(chain.diag[-2::-1].tolist(), chain.offdiag[::-1].tolist()):
        prev, cur = cur, (e - Fraction(d)) * cur - Fraction(o) ** 2 * prev
    return cur / prev


class TestExactPlant:
    """The planted entry and the planted reciprocal are exact rationals
    rounded once."""

    @pytest.mark.parametrize("variant", list(PathologicalVariant))
    @pytest.mark.parametrize("params, parity, energy0", [
        (FIXTURE, Parity.PLUS, 0.5),
        (ModelParams(1.0, 0.2, 0.4), Parity.PLUS, -8.0),
        (ModelParams(1.0, 1.5626, 0.1894), Parity.MINUS, -0.3491),
    ])
    def test_equals_the_fraction_reference(self, params, parity, energy0, variant):
        for order in (10, 20, 40, 80, 160):
            chain = build_pathological(energy0, params, parity, order, variant)
            tail, hnn = fraction_plant(chain)
            assert chain.tail == float(tail), order
            assert chain.modified_diag_nn == float(hnn), order
            assert fraction_reciprocal(energy0, chain, hnn) == 0
            got = resolvent_cf(energy0, chain)
            assert (got.reciprocal, got.status) == (0.0, ResolventStatus.POLE_HIT), order
            for energy in (energy0 - 1e-3, energy0 + 1e-3):
                want = float(fraction_reciprocal(energy, chain, hnn))
                assert resolvent_cf(energy, chain).reciprocal == want, (order, energy)

    @pytest.mark.parametrize("order", [1, 2])
    def test_zero_leading_minor_reports_its_index(self, order):
        # E0 = diag[0] zeroes Q_1, which is Q_N at order 1 and Q_{N-1} at order 2
        with pytest.raises(DivergedTailError) as exc:
            build_pathological(0.4, FIXTURE, Parity.PLUS, order)
        assert exc.value.j == 1

    def test_plants_past_a_zero_leading_minor(self):
        # at order 3 only Q_1 vanishes, which the double recurrence refused
        chain = build_pathological(0.4, FIXTURE, Parity.PLUS, 3)
        assert resolvent_cf(0.4, chain).reciprocal == 0.0
        assert sturm_count(0.4 + 1e-10, chain) - sturm_count(0.4 - 1e-10, chain) == 1

    def test_no_mpmath_import(self):
        # the CLI and a planted chain's resolvent run on numpy and ints alone
        assert_not_imported("mpmath", ["pathological", "--omega", "1", "--g", "0.7",
                                       "--delta", "0.4", "--e0", "0.5", "--order", "10,160"])

    def test_no_dataclasses_import(self):
        # the records are built without dataclasses, which compiles their
        # methods with exec at import
        assert_not_imported("dataclasses", ["spectrum", "--omega", "1", "--g", "0.7",
                                            "--delta", "0.4", "--method", "b", "--levels", "4"])
