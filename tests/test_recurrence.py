from fractions import Fraction

import pytest

from rabicf.recurrence import scaled_pair


def dyadic_steps(sign):
    """(p_k, q_k) = (2 c r_k, r_k r_{k-1}) with r_k = 2**40 for 40 steps,
    then 2**-40 for 80.  Unscaled, y_k = R_k z_k with R_k = prod r_i and
    z_k = 2c z_{k-1} - z_{k-2} (c = +-1) an integer sequence of linear
    growth, so every float operation is exact; R_k reaches 2**1600 and
    then 2**-1600, which overflows and underflows without rescaling."""
    scales = [2.0**40] * 40 + [2.0**-40] * 80
    steps, last = [], 1.0
    for r in scales:
        steps.append((2.0 * sign * r, r * last))
        last = r
    return steps


def exact(prev, cur, steps):
    prev, cur = Fraction(prev), Fraction(cur)
    for p, q in steps:
        prev, cur = cur, Fraction(p) * cur - Fraction(q) * prev
    return prev, cur


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("seeds", [(1.0, 3.0), (-2.0, 5.0), (0.0, 1.0)])
def test_scalar_pair_is_exact_times_power_of_two(sign, seeds):
    steps = dyadic_steps(sign)
    prev, cur, exponent = scaled_pair(*seeds, steps)
    want_prev, want_cur = exact(*seeds, steps)
    # climbed past 2**1024 and fell below 2**-1024: both rescale directions ran
    assert want_cur != 0 and exponent < -1024
    assert Fraction(prev) * Fraction(2) ** exponent == want_prev
    assert Fraction(cur) * Fraction(2) ** exponent == want_cur
    # the pair sits inside the rescale bounds
    assert 2.0**-256 <= max(abs(prev), abs(cur)) <= 2.0**256


def test_zero_pair_is_not_rescaled():
    assert scaled_pair(0.0, 0.0, [(2.0**-300, 1.0)] * 5) == (0.0, 0.0, 0)

