import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rabicf import (
    CfStatus,
    Classification,
    ConvergentPair,
    DegenerateDenominatorError,
    DeltaZeroError,
    GZeroError,
    ModelParams,
    Parity,
    PoleError,
    TooShortError,
    classify_solution,
    coeff_f,
    convergent_pair,
    finite_cf,
    forward_recurrence,
    build_chain,
    minimal_sequence,
    pair_secular,
    secular_count,
    shifted_energy,
    spectral_function_a,
    sturm_count,
)

from rabicf.recurrence import _ROWS, negative_pivots
from rabicf.schweber import EPS_POLE_REL, _f_of_detune, pole_guard
from rabicf.search import default_window

from conftest import FIXTURE, ORACLE_UNION_24


def f_desk(n, energy, p):
    # independent desk evaluation of the coefficient formula
    x = energy + p.g**2 / p.omega
    return 2 * p.g / p.omega + (n * p.omega - x + p.delta**2 / (x - n * p.omega)) / (2 * p.g)


class TestCoeffF:
    def test_delta_free_value(self):
        got = coeff_f(0, 0.0, ModelParams(1.0, 0.5, 0.0))
        assert got.value == pytest.approx(0.75, abs=1e-15)

    def test_fixture_value(self):
        # desk evaluation: 1.4 + (-0.49 + 0.16/0.49)/1.4
        got = coeff_f(0, 0.0, FIXTURE)
        assert not got.at_pole
        assert got.value == pytest.approx(1.4 + (-0.49 + 0.16 / 0.49) / 1.4, rel=1e-15)
        assert got.value == pytest.approx(1.2832361516034985, rel=1e-13)

    def test_pole_guard(self):
        energy = 2.0 - FIXTURE.g**2 / FIXTURE.omega  # x(E) = 2*omega exactly
        got = coeff_f(2, energy, FIXTURE)
        assert got.at_pole
        assert math.isnan(got.value)

    @pytest.mark.parametrize("eps_pole", [-1e-9, float("nan"), float("inf")])
    def test_malformed_pole_guard_rejected(self, eps_pole):
        with pytest.raises(ValueError, match="eps_pole must be finite and >= 0"):
            pole_guard(FIXTURE, eps_pole)

    def test_pole_guard_values(self):
        assert pole_guard(FIXTURE) == EPS_POLE_REL * FIXTURE.omega
        assert pole_guard(FIXTURE, 0.0) == 0.0

    def test_g_zero_raises(self):
        with pytest.raises(GZeroError):
            coeff_f(0, 0.0, ModelParams(1.0, 0.0, 0.4))

    @given(st.integers(0, 30), st.floats(-5.0, 15.0))
    def test_matches_desk_formula_off_lattice(self, n, energy):
        got = coeff_f(n, energy, FIXTURE)
        if not got.at_pole:
            assert got.value == pytest.approx(f_desk(n, energy, FIXTURE), rel=1e-12)


class TestForwardRecurrence:
    def test_seed_reproduction(self):
        seq = forward_recurrence(0.3, FIXTURE, 1)
        f0 = coeff_f(0, 0.3, FIXTURE).value
        np.testing.assert_allclose(seq.entries, [1.0, f0], rtol=0)

    def test_one_step_by_hand(self):
        f0 = coeff_f(0, 0.0, FIXTURE).value
        f1 = coeff_f(1, 0.0, FIXTURE).value
        seq = forward_recurrence(0.0, FIXTURE, 2)
        assert seq.entries[2] == pytest.approx((f1 * f0 - 1.0) / 2.0, rel=1e-14)

    def test_recurrence_consistency_invariant(self):
        energy = 0.37
        seq = forward_recurrence(energy, FIXTURE, 40)
        k = seq.entries
        for n in range(2, 41):
            f = coeff_f(n - 1, energy, FIXTURE).value
            lhs = abs(n * k[n] - f * k[n - 1] + k[n - 2])
            assert lhs <= 1e-12 * (abs(f * k[n - 1]) + abs(k[n - 2]))

    def test_minimal_decay_then_float_contamination(self, oracle_union):
        # At an eigenvalue the exact sequence is minimal, but the forward
        # recurrence loses it: rounding seeds the dominant branch, which
        # overtakes around n ~ 20 in double precision.  Assert the early
        # minimal dip and the eventual dominant ratio.
        seq = forward_recurrence(float(oracle_union[0]), FIXTURE, 60)
        ratios = np.abs(seq.ratios())
        assert ratios[:25].min() < 0.08  # deep minimal dip (exact ratio ~ 2g/(w n))
        target = FIXTURE.omega / (2 * FIXTURE.g)
        assert abs(ratios[-1] - target) < 0.2 * target  # dominant takeover

    def test_custom_seed(self):
        seq = forward_recurrence(0.1, FIXTURE, 1, k1=2.5)
        assert seq.entries[1] == 2.5

    def test_pole_raises(self):
        energy = 1.0 - FIXTURE.g**2  # x(E) = omega: f_1 pole needed for K_2
        with pytest.raises(PoleError):
            forward_recurrence(energy, FIXTURE, 3)


class TestFiniteCf:
    def test_single_level(self):
        f1 = coeff_f(1, 0.2, FIXTURE).value
        got = finite_cf(0.2, FIXTURE, 1)
        assert got.converged
        assert got.value == pytest.approx(1.0 / f1, rel=1e-15)

    def test_two_levels_by_hand(self):
        f1 = coeff_f(1, 0.0, FIXTURE).value
        f2 = coeff_f(2, 0.0, FIXTURE).value
        got = finite_cf(0.0, FIXTURE, 2)
        assert got.value == pytest.approx(1.0 / (f1 - 2.0 / f2), rel=1e-14)

    def test_minimal_seed_identity_at_eigenvalue(self, oracle_union):
        # K_1^min = f_0 exactly at eigenvalues: F_N(E_2) ~ f_0(E_2)
        energy = float(oracle_union[2])
        got = finite_cf(energy, FIXTURE, 150)
        f0 = coeff_f(0, energy, FIXTURE).value
        assert abs(got.value - f0) < 1e-8

    def test_pole_status(self):
        energy = 1.0 - FIXTURE.g**2 / FIXTURE.omega  # x(E) = omega exactly
        got = finite_cf(energy, FIXTURE, 10)
        assert got.status is CfStatus.HIT_POLE
        assert math.isnan(got.value)

    def test_value_finite_iff_converged(self):
        for energy in np.linspace(-1.0, 5.0, 101):
            got = finite_cf(energy, FIXTURE, 30)
            assert math.isfinite(got.value) == got.converged


class TestSpectralFunctionA:
    def test_no_sign_change_below_ground_state(self, oracle_union):
        lo_grid = np.linspace(-10.0, float(oracle_union[0]) - 0.1, 300)
        signs = {
            np.sign(spectral_function_a(e, FIXTURE, 100).value)
            for e in lo_grid
            if spectral_function_a(e, FIXTURE, 100).converged
        }
        assert len(signs) == 1

    def test_small_at_eigenvalue(self, oracle_union):
        got = spectral_function_a(float(oracle_union[1]), FIXTURE, 150)
        assert got.converged
        assert abs(got.value) < 1e-8

    def test_pole_status_propagates(self):
        energy = 1.0 - FIXTURE.g**2 / FIXTURE.omega
        assert spectral_function_a(energy, FIXTURE, 20).status is CfStatus.HIT_POLE

    def test_delta_sign_symmetry(self):
        pos = ModelParams(1.0, 0.7, 0.4)
        neg = ModelParams(1.0, 0.7, -0.4)
        for energy in (-0.3, 0.9, 2.2):
            assert (
                spectral_function_a(energy, pos, 40).value
                == spectral_function_a(energy, neg, 40).value
            )


class TestConvergentPair:
    def test_seeds(self):
        pair = convergent_pair(0.1, FIXTURE, 0)
        assert (pair.a, pair.b) == (0.0, 1.0)

    def test_first_convergent(self):
        pair = convergent_pair(0.1, FIXTURE, 1)
        assert pair.a == 1.0
        assert pair.b == coeff_f(1, 0.1, FIXTURE).value

    def test_matches_backward_at_depth_80(self):
        pair = convergent_pair(0.0, FIXTURE, 80)
        backward = finite_cf(0.0, FIXTURE, 80)
        assert abs(pair.ratio - backward.value) <= 1e-10 * (1 + abs(backward.value))

    @given(st.floats(-0.9, 5.9))
    def test_strategy_equivalence_property(self, energy):
        # keep away from the coefficient pole lattice
        x = energy + FIXTURE.g**2 / FIXTURE.omega
        if abs(x - round(x)) < 1e-6:
            return
        backward = finite_cf(energy, FIXTURE, 60)
        if not backward.converged:
            return
        pair = convergent_pair(energy, FIXTURE, 60)
        if pair.b == 0.0:
            return
        assert abs(pair.ratio - backward.value) <= 1e-10 * (1 + abs(backward.value))

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominatorError):
            _ = ConvergentPair(a=1.0, b=0.0, n=7).ratio

    def test_pole_raises(self):
        energy = 1.0 - FIXTURE.g**2 / FIXTURE.omega
        with pytest.raises(PoleError):
            convergent_pair(energy, FIXTURE, 10)


@pytest.mark.parametrize("routine", [forward_recurrence, minimal_sequence, finite_cf,
                                     pair_secular, secular_count])
def test_fractional_order_refused(routine):
    # a fractional order is refused, not truncated to the integer below
    with pytest.raises(ValueError, match="integer >= "):
        routine(0.5, FIXTURE, 2.5)
    routine(0.5, FIXTURE, 2.0)


class TestPairSecular:
    def test_zero_iff_spectral_zero(self, oracle_union):
        # W and f0 - F_N vanish together; check sign change brackets match
        # around the third eigenvalue.
        e = float(oracle_union[2])
        lo, hi = e - 1e-3, e + 1e-3
        assert np.sign(pair_secular(lo, FIXTURE, 120)) != np.sign(
            pair_secular(hi, FIXTURE, 120)
        )

    def test_finite_at_backward_pole(self):
        # scan for an energy where the backward evaluation has a partial
        # fraction pole nearby: W stays finite and sign-definite there
        vals = [pair_secular(e, FIXTURE, 60) for e in np.linspace(0.6, 0.67, 50)]
        assert all(math.isfinite(v) for v in vals)

    @pytest.mark.parametrize("seed, g", [(1, None), (2, None), (3, None), (4, 1e-300),
                                         (5, 1e-250), (6, 1e-228), (7, 1e-150), (8, 1e60)],
                             ids=["1", "2", "3", "1e-300", "1e-250", "1e-228", "1e-150", "1e60"])
    def test_sign_is_root_count_parity(self, seed, g):
        # P_N = W_N prod (x - m w) has no pole: at random energies, on every
        # cut x = m w (m <= min(N, 12)) and within 2 ulps of one, it is
        # finite, warns of nothing and has the sign (-1)^(N + 1 + count);
        # its rows carry no 1/g below g = w/2 and no g^2 above, so the same
        # holds at tiny and at huge g
        rng = np.random.default_rng(seed)
        on_cut = 0
        for _ in range(30):
            params = ModelParams(float(rng.choice([0.5, 1.0, 3.0])), g or rng.uniform(0.05, 3.0),
                                 rng.uniform(0.05, 2.0))
            order, w = int(rng.integers(1, 300)), params.omega
            energies = (rng.uniform(-10.0, 15.0, 20) * w).tolist()
            for m in range(min(order, 12) + 1):
                cut = m * w - params.g**2 / w
                for side in (-math.inf, math.inf):
                    e = cut
                    for _ in range(2):
                        energies.append(e := math.nextafter(e, side))
                energies.append(cut)
                on_cut += sum(shifted_energy(params, e) == m * w for e in energies[-5:])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for e in energies:
                    value = pair_secular(e, params, order)
                    count = secular_count(e, params, order)
                    assert math.isfinite(value) and np.sign(value) == (-1) ** (order + 1 + count)
        assert on_cut > 0


class TestSecularCount:
    @pytest.mark.parametrize("g", [1e-323, 0.3, 1.0, 2.0])
    @pytest.mark.parametrize("order", [1, 2, 150, 600])
    def test_lanes_match_scalar(self, g, order):
        # the grid pass and the plain-float halving must count alike, on
        # and next to the cuts too, silently at subnormal g; sorted, the
        # counts never fall
        params = ModelParams(1.0, g, 0.4)
        cuts = np.arange(8) * params.omega - g * g / params.omega
        below, above = [cuts], [cuts]
        for _ in range(3):
            below.append(np.nextafter(below[-1], -np.inf))
            above.append(np.nextafter(above[-1], np.inf))
        energies = np.sort(np.concatenate([np.linspace(-g * g - 1.5, 8.0, 401), *below, *above]))
        lanes = secular_count(energies, params, order)
        scalar = np.array([secular_count(float(e), params, order) for e in energies])
        np.testing.assert_array_equal(lanes, scalar)
        assert np.all(np.diff(lanes) >= 0)

    @pytest.mark.parametrize("energy", [0.51, np.arange(6) - 0.49], ids=["float", "lanes"])
    def test_delta_zero_refused(self, energy):
        # the cut term counts the poles of f_m, which delta = 0 removes:
        # on a cut x = m w f_m reads 0/0
        with pytest.raises(DeltaZeroError, match="at delta=0 every eigenvalue coincides"):
            secular_count(energy, ModelParams(1.0, 0.7, 0.0), 20)

    @pytest.mark.parametrize("g", [math.sqrt(0.84) / 2, 0.7, 2.0, 3.0])
    def test_never_falls_on_the_grid(self, g):
        params = ModelParams(1.0, g, 0.4)
        counts = secular_count(np.linspace(*default_window(params, 12), 2000), params, 600)
        assert np.all(np.diff(counts) >= 0)

    @given(st.floats(0.0, 3.0, exclude_min=True), st.floats(0.0, 2.0, exclude_min=True))
    def test_window_count_matches_union_oracle(self, g, delta):
        params = ModelParams(1.0, g, delta)
        window = default_window(params, 8)
        chains = [build_chain(params, parity, 300) for parity in (Parity.PLUS, Parity.MINUS)]
        union = lambda e: sum(sturm_count(e, chain) for chain in chains)
        margin = 1e-8 * params.omega
        for end in window:
            assume(union(end - margin) == union(end + margin))
        lo, hi = (secular_count(end, params, 300) for end in window)
        assert hi - lo == union(window[1]) - union(window[0])


def full_secular_count(energy, params, order):
    """``secular_count`` on lanes with its pivot sweep run through all N + 1
    rows: the reference that the sweep's dominance exit is held to."""
    x = shifted_energy(params, np.asarray(energy, dtype=float))
    m_w = params.omega * np.arange(order + 1, dtype=float)
    lanes = (-1,) + (1,) * np.ndim(x)
    with np.errstate(divide="ignore", over="ignore"):
        return np.searchsorted(m_w, x, side="right") + negative_pivots(
            range(order + 1), lambda i, j: _f_of_detune(x - m_w[i:j].reshape(lanes), params))


def near_cuts(params, order, rng, shape):
    """Energies of ``shape`` on the cuts x = m w of rows 0..order + 1, on the
    floats next to them and within 1e-3 w of them."""
    m = rng.integers(0, order + 2, shape)
    x = m * params.omega + rng.choice([0.0, 1e-3, -1e-3], shape) * rng.uniform(0.0, 1.0, shape)
    x = np.where(rng.uniform(size=shape) < 0.3, np.nextafter(x, rng.choice([-1.0, 1.0], shape)), x)
    return x - params.g**2 / params.omega


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSecularCountExit:
    """``secular_count``'s lane sweep, which stops after the first block past
    the row from which every row is dominant, counts what the full sweep
    counts."""

    @pytest.mark.parametrize("steps", [2, _ROWS - 1, _ROWS, _ROWS + 1, 3 * _ROWS + 5])
    @pytest.mark.parametrize("lanes", [(), (7,), (3, 4)])
    @pytest.mark.parametrize("g", [0.05, 0.7, 2.0])
    def test_every_lane_shape(self, steps, lanes, g):
        params = ModelParams(1.0, g, 0.4)
        energies = near_cuts(params, steps - 1, np.random.default_rng(steps), lanes)
        np.testing.assert_array_equal(secular_count(energies, params, steps - 1),
                                      full_secular_count(energies, params, steps - 1))

    @pytest.mark.parametrize("g", [3.0, 5.0])
    def test_rows_that_dip_below_dominance(self, g):
        # at strong coupling f_m - sqrt(m) - sqrt(m+1) is positive on the
        # first rows above these cuts, negative near m = 4 g^2 and positive
        # again: the exit waits for the last of those rows, not the first
        params = ModelParams(1.0, g, 0.4)
        energies = np.array([-1e-3, 0.5, 1.5]) - g * g
        np.testing.assert_array_equal(secular_count(energies, params, 300),
                                      full_secular_count(energies, params, 300))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-3, 20.0), st.floats(0.01, 3.0), st.integers(1, 600),
           st.integers(0, 2**32 - 1), st.integers(1, 12),
           st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), max_size=2))
    def test_random_couplings(self, g, delta, order, seed, lanes, nonfinite):
        params = ModelParams(1.0, g, delta)
        rng = np.random.default_rng(seed)
        low = near_cuts(params, min(order, 8), rng, lanes // 2)  # the lowest cuts, and x < 0
        energies = np.concatenate([low, near_cuts(params, order, rng, lanes - lanes // 2),
                                   nonfinite])
        np.testing.assert_array_equal(secular_count(energies, params, order),
                                      full_secular_count(energies, params, order))


class TestMinimalSequence:
    def test_seed_is_continued_fraction_value(self):
        seq = minimal_sequence(0.3, FIXTURE, 40)
        cf = finite_cf(0.3, FIXTURE, 40 + 40)
        assert seq.entries[1] == pytest.approx(cf.value, rel=1e-10)

    def test_ratios_decay_like_inverse_index(self, oracle_union):
        seq = minimal_sequence(float(oracle_union[0]), FIXTURE, 60)
        ratios = np.abs(seq.ratios())
        assert ratios[55] < ratios[20] < ratios[5]
        # exact minimal ratio approaches 2g/(omega n)
        assert ratios[55] == pytest.approx(2 * FIXTURE.g / (56 + 1), rel=0.3)


EXACT_ORDER = 40


def exact_reference_draws(count=200):
    """Random (g, delta, E) with the float coefficients f_0..f_depth the
    sequences see, at depth = EXACT_ORDER + max(50, EXACT_ORDER)."""
    rng = np.random.default_rng(20121205)
    depth = EXACT_ORDER + max(50, EXACT_ORDER)
    for _ in range(count):
        p = ModelParams(1.0, rng.uniform(0.05, 2.0), rng.uniform(0.0, 2.0))
        energy = float(rng.uniform(-3.0, 10.0))
        yield p, energy, [coeff_f(n, energy, p).value for n in range(depth + 1)]


class TestExactReference:
    # both sequences against the same recurrence run in exact rational
    # arithmetic on the same float f_n
    def test_forward_ratios(self):
        for p, energy, f in exact_reference_draws():
            k = [Fraction(1), Fraction(f[0])]
            for m in range(2, EXACT_ORDER + 1):
                k.append((Fraction(f[m - 1]) * k[-1] - k[-2]) / m)
            exact = np.array([float(k[m + 1] / k[m]) for m in range(EXACT_ORDER)])
            got = forward_recurrence(energy, p, EXACT_ORDER).ratios()
            np.testing.assert_allclose(got, exact, rtol=1e-10, atol=0)

    def test_minimal_ratios(self):
        for p, energy, f in exact_reference_draws():
            xi = [Fraction(0)] * (len(f) + 1)
            for m in range(len(f) - 1, 0, -1):
                xi[m] = m / (Fraction(f[m]) - xi[m + 1])
            exact = np.array([float(xi[m] / m) for m in range(1, EXACT_ORDER + 1)])
            got = minimal_sequence(energy, p, EXACT_ORDER).ratios()
            np.testing.assert_allclose(got, exact, rtol=1e-10, atol=0)


class TestClassification:
    def test_too_short(self):
        seq = forward_recurrence(0.3, FIXTURE, 5)
        with pytest.raises(TooShortError):
            classify_solution(seq, FIXTURE)

    def test_generic_energy_dominant(self):
        seq = forward_recurrence(0.2, FIXTURE, 80)
        assert classify_solution(seq, FIXTURE) is Classification.DOMINANT_LIKE

    def test_eigenvalue_minimal(self, oracle_union):
        seq = minimal_sequence(float(oracle_union[0]), FIXTURE, 60)
        assert classify_solution(seq, FIXTURE) is Classification.MINIMAL_LIKE

    def test_undetermined(self):
        # forward sequence at an eigenvalue, length 30: past the minimal dip,
        # not yet settled on the dominant ratio
        seq = forward_recurrence(float(ORACLE_UNION_24[0]), FIXTURE, 30)
        assert classify_solution(seq, FIXTURE) in (
            Classification.UNDETERMINED,
            Classification.DOMINANT_LIKE,
        )


class TestTailStabilization:
    def test_depth_doubling_non_increasing(self):
        # beyond the convergence depth the backward value is bit-stable, so
        # successive depth doublings cannot increase the difference
        for energy in (-0.45, 0.2, 1.9, 3.3):
            f1 = finite_cf(energy, FIXTURE, 50).value
            f2 = finite_cf(energy, FIXTURE, 100).value
            f4 = finite_cf(energy, FIXTURE, 200).value
            assert abs(f4 - f2) <= abs(f2 - f1) + 1e-15
