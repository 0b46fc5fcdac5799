from fractions import Fraction

import numpy as np
import pytest

from rabicf.recurrence import PIVMIN, negative_pivots, scaled_pair


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


def exact(steps):
    prev, cur = Fraction(0), Fraction(1)
    for p, q in steps:
        prev, cur = cur, Fraction(p) * cur - Fraction(q) * prev
    return prev, cur


def seeded(a, b, steps):
    """``steps`` run from (y_{-1}, y_0) = (a, b): two leading steps reach
    that pair exactly from the kernel's (0, 1)."""
    return [(a, 0.0), (0.0, -b)] + steps


# rows (2**300, 0) grow the pair by more than 2**256 per step and
# (2**-300, 0) shrink it as much: one rescale a step overflows, then
# underflows
JUMPS = [(2.0**300, 0.0)] * 40 + [(2.0**-300, 0.0)] * 80


@pytest.mark.parametrize("steps", [pytest.param(dyadic_steps(1.0), id="1.0"),
                                   pytest.param(dyadic_steps(-1.0), id="-1.0"),
                                   pytest.param(JUMPS, id="jumps")])
@pytest.mark.parametrize("seeds", [(1.0, 3.0), (-2.0, 5.0), (0.0, 1.0)])
def test_scalar_pair_is_exact_times_power_of_two(steps, seeds):
    steps = seeded(*seeds, steps)
    prev, cur, exponent = scaled_pair(steps)
    want_prev, want_cur = exact(steps)
    # climbed past 2**1024 and fell below 2**-1024: both rescale directions ran
    assert want_cur != 0 and exponent < -1024
    assert Fraction(prev) * Fraction(2) ** exponent == want_prev
    assert Fraction(cur) * Fraction(2) ** exponent == want_cur
    # the pair sits inside the rescale bounds
    assert 2.0**-256 <= max(abs(prev), abs(cur)) <= 2.0**256


@pytest.mark.parametrize("seeds", [(1.0, float("inf")), (float("nan"), 1.0)])
def test_nonfinite_pair_ends(seeds):
    # inf * 2**-256 is inf: the rescale must not spin on it
    prev, cur, _ = scaled_pair(seeded(*seeds, [(2.0**300, 1.0)] * 3))
    assert not np.isfinite(cur)


def test_zero_pair_is_not_rescaled():
    steps = [(0.0, 0.0), (0.0, 0.0)] + [(2.0**-300, 1.0)] * 5
    assert scaled_pair(steps) == (0.0, 0.0, 0)


def test_out_of_range_first_term_is_rescaled():
    # y_0 = 2**600 leaves the range on the first step: the loop's range
    # rule brings the pair back, as it does after any other step
    steps = [(2.0**600, 0.0), (1.0, 2.0**590)]
    prev, cur, exponent = scaled_pair(steps)
    want_prev, want_cur = exact(steps)
    assert exponent == 512
    assert Fraction(prev) * Fraction(2) ** exponent == want_prev
    assert Fraction(cur) * Fraction(2) ** exponent == want_cur
    assert 2.0**-256 <= max(abs(prev), abs(cur)) <= 2.0**256


def pivot_rows(seed, steps=40, lanes=9):
    """Random rows (p_k, a_k) of a tridiagonal with diagonal p and squared
    off-diagonals a_1..; a_0 = 0 is the unused first coupling."""
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(steps, lanes))
    a = rng.uniform(0.1, 2.0, size=steps)
    a[0] = 0.0
    return p, a


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pivots_count_negative_eigenvalues(seed):
    # Sylvester's law of inertia: the count is that of the matrix's
    # negative eigenvalues, lane by lane
    p, a = pivot_rows(seed)
    for j in range(p.shape[1]):
        t = np.diag(p[:, j]) + np.diag(np.sqrt(a[1:]), 1) + np.diag(np.sqrt(a[1:]), -1)
        want = int(np.sum(np.linalg.eigvalsh(t) < 0.0))
        assert negative_pivots(zip(p[:, j].tolist(), a.tolist())) == want


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pivots_floats_match_lanes(seed):
    p, a = pivot_rows(seed)
    # lane 0 meets an exactly zero pivot at step 1; lanes 1 and 2 start on
    # PIVMIN and on -0.0
    p[:2, 0], a[1] = 1.0, 1.0
    p[0, 1:3] = PIVMIN, -0.0
    lanes = negative_pivots(zip(p, a))
    floats = [negative_pivots(zip(p[:, j].tolist(), a.tolist())) for j in range(p.shape[1])]
    assert all(type(c) is int for c in floats)
    assert lanes.dtype == np.int64 and lanes.shape == (p.shape[1],)
    np.testing.assert_array_equal(lanes, floats)


def test_singular_pivot_counts_and_continues_below():
    # q_1 = 1 - 1/1 = 0 counts; continuing as -PIVMIN, q_2 = 0 + 1/PIVMIN > 0
    assert negative_pivots([(1.0, 0.0), (1.0, 1.0)]) == 1
    assert negative_pivots([(1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]) == 1
