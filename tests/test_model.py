import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rabicf import ModelParams, Parity, build_chain, shifted_energy

params_st = st.builds(
    ModelParams,
    omega=st.floats(0.1, 10.0),
    g=st.floats(0.0, 3.0),
    delta=st.floats(0.0, 3.0),
)


class TestModelParams:
    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            ModelParams(0.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            ModelParams(-1.0, 0.5, 0.1)

    def test_rejects_nonfinite(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ModelParams(1.0, bad, 0.1)
            with pytest.raises(ValueError):
                ModelParams(bad, 0.5, 0.1)

    def test_negative_couplings_normalized(self):
        p = ModelParams(1.0, -0.7, -0.4)
        assert p.g == 0.7
        assert p.delta == 0.4


class TestBuildChain:
    def test_diagonal_limit(self):
        chain = build_chain(ModelParams(1.0, 0.0, 0.4), Parity.PLUS, 2)
        np.testing.assert_array_equal(chain.diag, [0.4, 0.6, 2.4])
        np.testing.assert_array_equal(chain.offdiag, [0.0, 0.0])

    def test_two_site_plus(self):
        chain = build_chain(ModelParams(1.0, 0.7, 0.4), Parity.PLUS, 1)
        np.testing.assert_allclose(chain.diag, [0.4, 0.6], rtol=0, atol=0)
        np.testing.assert_allclose(chain.offdiag, [0.7], rtol=0, atol=0)

    def test_two_site_minus(self):
        chain = build_chain(ModelParams(1.0, 0.7, 0.4), Parity.MINUS, 1)
        np.testing.assert_allclose(chain.diag, [-0.4, 1.4], rtol=0, atol=0)
        np.testing.assert_allclose(chain.offdiag, [0.7], rtol=0, atol=0)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            build_chain(ModelParams(1.0, 0.7, 0.4), Parity.PLUS, -1)

    def test_arrays_immutable(self):
        chain = build_chain(ModelParams(1.0, 0.7, 0.4), Parity.PLUS, 4)
        with pytest.raises(ValueError):
            chain.diag[0] = 3.0

    @given(params_st, st.integers(1, 60))
    def test_offdiag_exact(self, p, order):
        chain = build_chain(p, Parity.PLUS, order)
        expected = p.g * np.sqrt(np.arange(1, order + 1, dtype=float))
        np.testing.assert_array_equal(chain.offdiag, expected)

    @given(params_st, st.integers(2, 60))
    def test_diag_spacing_two_omega(self, p, order):
        chain = build_chain(p, Parity.MINUS, order)
        gaps = chain.diag[2:] - chain.diag[:-2]
        np.testing.assert_allclose(gaps, 2.0 * p.omega, rtol=1e-12)

    @given(params_st, st.integers(0, 40))
    def test_parity_difference(self, p, order):
        plus = build_chain(p, Parity.PLUS, order)
        minus = build_chain(p, Parity.MINUS, order)
        j = np.arange(order + 1)
        np.testing.assert_allclose(
            plus.diag - minus.diag, 2.0 * ((-1.0) ** j) * p.delta, atol=1e-12
        )
        np.testing.assert_array_equal(plus.offdiag, minus.offdiag)

    @given(params_st, st.integers(0, 50), st.data())
    def test_projection_consistency(self, p, order, data):
        sub_order = data.draw(st.integers(0, order))
        big = build_chain(p, Parity.PLUS, order)
        small = build_chain(p, Parity.PLUS, sub_order)
        np.testing.assert_array_equal(big.diag[: sub_order + 1], small.diag)
        np.testing.assert_array_equal(big.offdiag[:sub_order], small.offdiag)

    def test_a_values_are_squared_entries(self):
        p = ModelParams(1.0, 0.7, 0.4)
        chain = build_chain(p, Parity.PLUS, 5)
        np.testing.assert_array_equal(chain.a_values(), chain.offdiag**2)


class TestShiftedEnergy:
    def test_examples(self):
        assert shifted_energy(ModelParams(1.0, 0.5, 0.0), 0.0) == 0.25
        assert shifted_energy(ModelParams(1.0, 0.0, 0.0), 3.2) == 3.2
        assert shifted_energy(ModelParams(2.0, 1.0, 0.0), 1.0) == 1.5
