import io
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rabicf import (
    ModelParams,
    Parity,
    SpectralMethod,
    SpectrumApproximation,
    TooFewLevelsError,
    best_certificate,
    build_chain,
    check_pringsheim,
    compare_spectra,
    eigenvalues,
    poles_of_resolvent,
    solve_method_a,
    tail_depth_bound,
    tail_value,
    union_spectrum,
)

from rabicf.cli import main
from rabicf.convergence import _tail_b
from rabicf.schweber import DEN_FLOOR

from conftest import FIXTURE


def _margin_every_level(energy, params, parity, n, c, up_to):
    # the margin read on every level of [n, up_to]
    j = np.arange(n, up_to + 1, dtype=float)
    rhs = j * params.g * params.g / c + c
    return float(np.min(np.abs(_tail_b(energy, params, parity, j)) - rhs))


def _least_b_every_level(energy, params, parity, n, up_to):
    # best_certificate's c at g = 0, read on every level
    j = np.arange(n, up_to + 1, dtype=float)
    c = max(float(np.min(np.abs(_tail_b(energy, params, parity, j)))), DEN_FLOOR)
    return c, _margin_every_level(energy, params, parity, n, c, up_to)


class TestTailDepthBound:
    def test_fixture_value(self):
        # hand evaluation: ceil(0.4 + 0.98*(1 + sqrt(1 + 0.4/0.49))) = 3
        assert tail_depth_bound(0.0, FIXTURE) == 3

    def test_small_coupling_limit(self):
        # at E=0, delta=0 the bound is ceil(4 g^2): 1 for g^2 < 1/4
        assert tail_depth_bound(0.0, ModelParams(1.0, 0.4, 0.0)) == 1
        assert tail_depth_bound(0.0, ModelParams(1.0, 0.6, 0.0)) == 2

    def test_g_zero(self):
        assert tail_depth_bound(5.0, ModelParams(1.0, 0.0, 0.4)) == 1

    @pytest.mark.parametrize("energy", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_energy_rejected(self, energy):
        with pytest.raises(ValueError, match="energy must be finite"):
            tail_depth_bound(energy, FIXTURE)

    def test_deep_strong_coupling_finite(self):
        p = ModelParams(1.0, 1.2, 0.4)
        n = tail_depth_bound(0.0, p)
        assert n == 7
        cert = best_certificate(0.0, p, Parity.PLUS, n, 10 * n)
        assert cert.holds

    @given(
        st.floats(0.0, 8.0), st.floats(0.0, 8.0),
        st.floats(0.05, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0),
    )
    def test_monotone_in_magnitudes(self, e1, e2, g, d1, d2):
        lo_e, hi_e = sorted((e1, e2))
        lo_d, hi_d = sorted((d1, d2))
        assert tail_depth_bound(lo_e, ModelParams(1.0, g, lo_d)) <= tail_depth_bound(
            hi_e, ModelParams(1.0, g, lo_d)
        )
        assert tail_depth_bound(lo_e, ModelParams(1.0, g, lo_d)) <= tail_depth_bound(
            lo_e, ModelParams(1.0, g, hi_d)
        )

    @given(st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    def test_monotone_in_coupling(self, g1, g2):
        lo, hi = sorted((g1, g2))
        assert tail_depth_bound(1.0, ModelParams(1.0, lo, 0.3)) <= tail_depth_bound(
            1.0, ModelParams(1.0, hi, 0.3)
        )


class TestCheckPringsheim:
    def test_holds_at_bound_with_searched_c(self):
        n = tail_depth_bound(0.0, FIXTURE)
        for parity in (Parity.PLUS, Parity.MINUS):
            cert = best_certificate(0.0, FIXTURE, parity, n, 10 * n)
            assert cert.holds
            assert cert.unbounded_product
            assert cert.start_index == n and cert.verified_up_to == 10 * n

    def test_fails_on_vanishing_denominator(self):
        # plus-parity b_0(E) = E - delta vanishes at E = delta
        cert = check_pringsheim(0.4, FIXTURE, Parity.PLUS, 0, 1.0, 5)
        assert not cert.holds

    def test_g_zero_reduces_to_min_b(self):
        p = ModelParams(1.0, 0.0, 0.4)
        cert = best_certificate(0.3, p, Parity.PLUS, 1, 12)
        assert cert.holds
        assert not cert.unbounded_product
        j = np.arange(1, 13, dtype=float)
        min_b = np.min(np.abs(0.3 - j - ((-1.0) ** j) * 0.4))
        assert cert.c <= min_b + 1e-12

    def test_candidate_levels_give_every_level_margin(self):
        # the margin is piecewise linear in j on each parity class, so the
        # class ends and the levels next to the kink b_j = 0 hold its
        # minimum, bit for bit; it is concave in c, so no point of a
        # 400-point log grid over [g^2/w, n w], nor a neighbour of the
        # closed-form c, has a larger one
        rng = random.Random(20121205)
        for _ in range(40):
            omega = rng.choice([0.5, 1.0, 2.0])
            params = ModelParams(omega, rng.choice([0.0, rng.uniform(0.01, 3.0)]),
                                 rng.uniform(0.0, 2.0))
            energy = rng.uniform(-30.0, 60.0)
            parity = rng.choice([Parity.PLUS, Parity.MINUS])
            n = tail_depth_bound(energy, params)
            cert = best_certificate(energy, params, parity, n, 10 * n)
            assert cert.margin == _margin_every_level(energy, params, parity, n, cert.c, 10 * n)
            if params.g == 0.0:
                assert (cert.c, cert.margin) == _least_b_every_level(energy, params, parity, n,
                                                                     10 * n)
            else:
                lo, hi = params.g**2 / omega, max(n, 1) * omega
                slack = 1e-12 * (abs(energy) + 10 * n * omega)
                for c in [*np.geomspace(lo, max(hi, 4.0 * lo), 400), cert.c * (1.0 - 1e-6),
                          cert.c * (1.0 + 1e-6)]:
                    margin = _margin_every_level(energy, params, parity, n, float(c), 10 * n)
                    assert margin <= cert.margin + slack
            for start, up_to in ((n, 10 * n), (0, rng.randint(0, 50)), (rng.randint(0, 20), 80)):
                c = rng.uniform(0.01, 5.0)
                got = check_pringsheim(energy, params, parity, start, c, up_to).margin
                assert got == _margin_every_level(energy, params, parity, start, c, up_to)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("g", [0.7, 3.0, 100.0, 200.0, 1e3, 1e5, 1e100, 1e150])
    def test_closed_form_c_holds_at_large_coupling(self, g):
        # at E = 0, delta = 0.4 the margin is about 0.1 from g = 100 up (a
        # 400-point log grid of c read -0.14 at g = 200), and nothing
        # overflows up to g = 1e150, where |b_j| ~ 4 g^2 leaves no digit of it
        params = ModelParams(1.0, g, 0.4)
        n = tail_depth_bound(0.0, params)
        cert = best_certificate(0.0, params, Parity.PLUS, n, 10 * n)
        assert math.isfinite(cert.c) and math.isfinite(cert.margin)
        if g <= 1e5:
            assert cert.holds and cert.margin >= 0.0

    @pytest.mark.parametrize("k", [-500, -256, 257, 500])
    def test_closed_form_c_scales(self, k):
        # c and the margin are exactly 2**k times their omega = 1 values
        s = 2.0**k
        n = tail_depth_bound(0.0, FIXTURE)
        one = best_certificate(0.0, FIXTURE, Parity.MINUS, n, 10 * n)
        params = ModelParams(s * FIXTURE.omega, s * FIXTURE.g, s * FIXTURE.delta)
        scaled = best_certificate(0.0, params, Parity.MINUS, n, 10 * n)
        assert (scaled.c, scaled.margin) == (s * one.c, s * one.margin) and scaled.holds

    def test_bound_cost_does_not_grow_with_energy(self):
        out = io.StringIO()
        start = time.perf_counter()
        code = main(["bound", "--omega", "1", "--g", "0.7", "--delta", "0.4",
                     "--energy", "1e15"], out=out)
        assert code == 0
        assert time.perf_counter() - start < 0.5
        assert "1000000044271889" in out.getvalue()

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            check_pringsheim(0.0, FIXTURE, Parity.PLUS, 3, -1.0, 30)
        with pytest.raises(ValueError):
            check_pringsheim(0.0, FIXTURE, Parity.PLUS, 3, 1.0, 2)


class TestCompareSpectra:
    def test_identity(self, oracle_plus):
        assert compare_spectra(oracle_plus, oracle_plus, 12) == 0.0

    def test_too_few_levels(self, oracle_plus):
        with pytest.raises(TooFewLevelsError):
            compare_spectra(oracle_plus, oracle_plus, 13)

    def test_oracle_doubling_below_tolerance(self):
        a = eigenvalues(build_chain(FIXTURE, Parity.PLUS, 100), 5)
        b = eigenvalues(build_chain(FIXTURE, Parity.PLUS, 200), 5)
        assert compare_spectra(a, b, 5) <= 1e-11

    def test_method_vs_oracle_deviation_non_increasing(self, oracle_plus, oracle_minus):
        # both continued-fraction methods sit at or below their converged
        # deviation from the oracle once the order doubles
        union = SpectrumApproximation.from_levels(
            SpectralMethod.ORACLE, None, 400,
            union_spectrum([oracle_plus, oracle_minus], first_k=10),
            FIXTURE.omega,
        )
        d_a = [
            compare_spectra(
                solve_method_a(FIXTURE, n, (-1.2, 6.0), levels=10).spectrum, union, 10
            )
            for n in (75, 150)
        ]
        assert d_a[0] >= d_a[1]
        d_b = [
            compare_spectra(
                poles_of_resolvent(build_chain(FIXTURE, Parity.PLUS, n), (-1.2, 10.0), 10),
                oracle_plus, 10,
            )
            for n in (100, 200)
        ]
        assert d_b[0] >= d_b[1]
        assert d_b[1] < 1e-9

    def test_visible_truncation_trend(self):
        # where truncation error is above float resolution the deviation
        # from a deep reference decreases strictly with the order
        reference = eigenvalues(build_chain(FIXTURE, Parity.PLUS, 400), 10)
        devs = [
            compare_spectra(eigenvalues(build_chain(FIXTURE, Parity.PLUS, n), 10),
                            reference, 10)
            for n in (12, 16, 24)
        ]
        assert devs[0] > devs[1] > devs[2]


class TestTailValue:
    def test_g_zero_vanishes(self):
        p = ModelParams(1.0, 0.0, 0.4)
        got = tail_value(0.0, p, Parity.PLUS, 3, 50)
        assert got.converged
        assert got.value == 0.0

    def test_stabilizes_and_bounded_by_certificate(self):
        n = tail_depth_bound(0.0, FIXTURE)
        cert = best_certificate(0.0, FIXTURE, Parity.PLUS, n, 10 * n)
        v200 = tail_value(0.0, FIXTURE, Parity.PLUS, n, 200)
        v400 = tail_value(0.0, FIXTURE, Parity.PLUS, n, 400)
        assert abs(v400.value - v200.value) < 1e-10
        assert abs(v200.value) <= cert.c

    @pytest.mark.parametrize("g,energy", [(0.5, 0.0), (1.0, 3.0), (1.2, 0.0)])
    def test_certificate_soundness(self, g, energy):
        p = ModelParams(1.0, g, 0.4)
        n = tail_depth_bound(energy, p)
        cert = best_certificate(energy, p, Parity.MINUS, n, 10 * n)
        assert cert.holds
        v1 = tail_value(energy, p, Parity.MINUS, n, 200)
        v2 = tail_value(energy, p, Parity.MINUS, n, 400)
        assert abs(v2.value - v1.value) < 1e-10
        assert abs(v1.value) <= cert.c

    def test_validation(self):
        with pytest.raises(ValueError):
            tail_value(0.0, FIXTURE, Parity.PLUS, 0, 10)
        with pytest.raises(ValueError):
            tail_value(0.0, FIXTURE, Parity.PLUS, 2, -1)
