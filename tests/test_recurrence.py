import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabicf.model import _ROWS, PIVMIN, SLACK, dominant_row, negative_pivots
from rabicf.recurrence import RESCALE, RESCALE_LIMIT, scaled_pair


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


def full_count(couplings, p):
    """``negative_pivots`` over the table ``p`` (steps, *lanes) with no
    dominance promised, so the sweep runs every row."""
    return negative_pivots(couplings, lambda i, j: p[i:j], len(couplings))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pivots_count_negative_eigenvalues(seed):
    # Sylvester's law of inertia: the count is that of the matrix's
    # negative eigenvalues, lane by lane, on 0-d lanes and on 1-D ones
    p, a = pivot_rows(seed)
    want = []
    for j in range(p.shape[1]):
        t = np.diag(p[:, j]) + np.diag(np.sqrt(a[1:]), 1) + np.diag(np.sqrt(a[1:]), -1)
        want.append(int(np.sum(np.linalg.eigvalsh(t) < 0.0)))
        assert full_count(a.tolist(), p[:, j]) == want[j]
    np.testing.assert_array_equal(full_count(a.tolist(), p), want)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pivots_floats_match_lanes(seed):
    p, a = pivot_rows(seed)
    # lane 0 meets an exactly zero pivot at step 1; lanes 1 and 2 start on
    # PIVMIN and on -0.0
    p[:2, 0], a[1] = 1.0, 1.0
    p[0, 1:3] = PIVMIN, -0.0
    lanes = full_count(a.tolist(), p)
    floats = [full_count(a.tolist(), p[:, j]) for j in range(p.shape[1])]
    assert all(c.dtype == np.int64 and c.shape == () for c in floats)
    assert lanes.dtype == np.int64 and lanes.shape == (p.shape[1],)
    np.testing.assert_array_equal(lanes, floats)


def test_singular_pivot_counts_and_continues_below():
    # q_1 = 1 - 1/1 = 0 counts; continuing as -PIVMIN, q_2 = 0 + 1/PIVMIN > 0;
    # on a 0-d lane and on a 1-D one
    for lanes in [(), (1,)]:
        p = np.array([1.0, 1.0, 0.0]).reshape((3,) + lanes)
        assert full_count([0.0, 1.0], p[:2]) == 1
        assert full_count([0.0, 1.0, 1.0], p) == 1


def reference_scaled_pair(steps):
    """The range rule before its one-test shortcut: both rescale loops
    after every step."""
    lim, tiny = RESCALE_LIMIT, RESCALE
    prev, cur, exponent = 0.0, 1.0, 0
    for p, q in steps:
        prev, cur = cur, p * cur - q * prev
        while not (-lim <= cur <= lim and -lim <= prev <= lim) and cur - cur == prev - prev == 0:
            prev, cur, exponent = prev * tiny, cur * tiny, exponent + 256
        while -tiny < cur < tiny and -tiny < prev < tiny and (cur or prev):
            prev, cur, exponent = prev * lim, cur * lim, exponent - 256
    return prev, cur, exponent


# the rescale bounds exactly and next to them, zeros, subnormals and
# non-finite values
EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.0**-1030, 2.0**-1022]
for _x in (2.0**256, 2.0**-256):
    EDGES += [_x, -_x, math.nextafter(_x, 0.0), math.nextafter(_x, math.inf)]
_coefficient = st.one_of(
    st.sampled_from(EDGES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(math.ldexp, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
              st.integers(-1100, 1024)))


def _bits(pair):
    """(prev, cur, exponent) with signed zeros and NaN told apart."""
    return tuple(repr(x) for x in pair)


@settings(max_examples=400)
@given(st.lists(st.tuples(_coefficient, _coefficient), max_size=24))
def test_scaled_pair_equals_both_loops_every_step(steps):
    assert _bits(scaled_pair(steps)) == _bits(reference_scaled_pair(steps))


def reference_pivot_lanes(couplings, p):
    """The per-step-clamp lane loop that the blocked sweep replaced, on the
    full table ``p`` (steps, *lanes): a pivot at or below PIVMIN counts and
    continues as -PIVMIN or below."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        count, q = np.zeros(p.shape[1:], dtype=np.int64), np.inf
        for p_k, a_k in zip(p, couplings):
            neg = (q := p_k - a_k / q) <= PIVMIN
            count += neg
            q = np.where(neg, np.minimum(q, -PIVMIN), q)
    return count


def assert_same_pivot_counts(couplings, p):
    """The blocked sweep counts what the per-step rule counts, filling no
    more than one block of rows at a time and leaving the rows it got alone."""
    blocks, table = [], p.copy()

    def rows(i, j):
        blocks.append((i, j))
        return p[i:j]

    got = negative_pivots(couplings, rows, len(couplings))
    want = reference_pivot_lanes(couplings, p)
    assert got.dtype == np.int64 and got.shape == p.shape[1:]
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(p, table)
    assert all(0 <= i < j <= len(couplings) and j - i <= _ROWS for i, j in blocks)
    return got


# three full blocks and a part
STEPS = 3 * _ROWS + 5
# pivots within PIVMIN of zero and next to it, and a cut (+inf)
SPECIAL = [0.0, -0.0, PIVMIN, -PIVMIN, 0.5 * PIVMIN, np.nextafter(PIVMIN, 1.0),
           np.nextafter(-PIVMIN, -1.0), np.inf]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPivotLanes:
    """The blocked lane sweep, which repairs a block only where a pivot came
    out within PIVMIN of zero, counts exactly what the per-step rule counts."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("steps", [1, _ROWS - 1, _ROWS, _ROWS + 1, STEPS])
    @pytest.mark.parametrize("lanes", [(), (7,), (3, 4)])
    def test_seeded_rows(self, seed, steps, lanes):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.1, 2.0, steps)
        a[0] = 0.0
        assert_same_pivot_counts(a.tolist(), rng.normal(size=(steps,) + lanes))

    @pytest.mark.parametrize("zeroed", [False, True])
    def test_special_pivots_in_every_lane(self, zeroed):
        # lane (r, v) holds the pivot v in row r when the coupling into it is
        # zero; with couplings left on, v is one diagonal entry among others
        planted = [0, 1, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS, STEPS - 1]
        rng = np.random.default_rng(4)
        p = rng.normal(size=(STEPS, len(planted) * len(SPECIAL)))
        a = rng.uniform(0.1, 2.0, STEPS)
        a[0] = 0.0
        if zeroed:
            a[planted] = 0.0
        for lane, (row, value) in enumerate(product(planted, SPECIAL)):
            p[row, lane] = value
        counts = assert_same_pivot_counts(a.tolist(), p)
        if zeroed:  # every planted value but inf counts
            assert np.all(counts >= np.array([v != np.inf for v in SPECIAL] * len(planted)))

    def test_exact_zero_pivots_in_one_lane(self):
        # zero pivots at the block edges and in the last row of one chain,
        # each followed by a division by zero before its repair
        planted = [_ROWS - 1, _ROWS, _ROWS + 1, STEPS - 1]
        p = np.random.default_rng(5).normal(size=(STEPS, 3))
        a = np.ones(STEPS)
        a[0] = 0.0
        a[planted] = 0.0
        p[planted] = 0.0
        p[_ROWS + 2, 1] = np.inf  # a cut right after a repaired row
        assert_same_pivot_counts(a.tolist(), p)
        assert_same_pivot_counts(range(STEPS), p)  # integer couplings, as secular_count's

    def test_nan_rows(self):
        p = np.random.default_rng(6).normal(size=(STEPS, 4))
        p[_ROWS, :2] = np.nan
        assert_same_pivot_counts([0.0] + [1.0] * (STEPS - 1), p)


def dominant_rows(couplings, dominant, p):
    """``p`` (steps, *lanes) with every row from ``dominant`` on raised to the
    least that ``negative_pivots`` takes as dominant, times 1 + 3*SLACK: the
    tail is as close to its bound as the exit allows."""
    b = np.sqrt(np.append(np.asarray(couplings, dtype=float), 0.0))
    p = p.copy()
    bound = (b[:-1] + b[1:]) * (1.0 + 3.0 * SLACK) + 4.0 * PIVMIN
    p[dominant:] = np.maximum(p[dominant:], bound[dominant:].reshape((-1,) + (1,) * (p.ndim - 1)))
    return p


def assert_exit_counts(couplings, p, dominant):
    """With rows dominant from ``dominant`` on, the sweep that may stop
    there counts what the full sweep counts."""
    got = negative_pivots(couplings, lambda i, j: p[i:j], dominant)
    np.testing.assert_array_equal(got, reference_pivot_lanes(couplings, p))
    return got


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDominanceExit:
    """The lane sweep that stops after the first block past a dominant row
    counts what the full sweep counts."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("steps", [1, _ROWS - 1, _ROWS, _ROWS + 1, STEPS])
    @pytest.mark.parametrize("lanes", [(), (7,), (3, 4)])
    @pytest.mark.parametrize("dominant", [0, 1, _ROWS, _ROWS + 1, STEPS])
    def test_every_lane_shape(self, seed, steps, lanes, dominant):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.1, 2.0, steps)
        a[0] = 0.0
        p = dominant_rows(a, dominant, rng.normal(size=(steps,) + lanes))
        assert_exit_counts(a.tolist(), p, dominant)

    def test_pivot_below_the_next_coupling(self):
        # lane 0's last pivot of the first block, 0.5*b_{J+1}, passes a test
        # against b_J = 0 but not against b_{J+1}: the row after it, at its
        # dominance bound, then turns negative and counts
        a = np.ones(STEPS)
        a[0], a[_ROWS - 1], a[_ROWS] = 0.0, 0.0, 4.0
        p = np.full((STEPS, 2), 10.0)
        p[_ROWS - 1, 0], p[_ROWS:] = 1.0, 0.0  # q_{J-1} = p_{J-1}: its coupling is 0
        counts = assert_exit_counts(a.tolist(), dominant_rows(a, _ROWS, p), _ROWS)
        assert counts.tolist() == [1, 0]

    @pytest.mark.parametrize("value", [1e-280, 1e-9, 0.3])
    def test_small_positive_pivot_at_a_block_end(self, value):
        # a positive last pivot below b_{J+1} makes the next one negative
        a = np.full(STEPS, 2.0)
        a[0], a[_ROWS - 1] = 0.0, 0.0
        p = dominant_rows(a, _ROWS, np.full((STEPS, 3), 5.0))
        p[_ROWS - 1, 0] = value  # q_{J-1} = p_{J-1}: its coupling is 0
        assert assert_exit_counts(a.tolist(), p, _ROWS).tolist() == [1, 0, 0]

    def test_exact_zero_pivots_at_block_edges(self):
        # zero pivots planted where a block ends and starts, before the
        # dominant rows, each repaired to -PIVMIN as the full sweep does
        planted = [_ROWS - 1, _ROWS, 2 * _ROWS - 1, 2 * _ROWS]
        a = np.ones(STEPS)
        a[0] = 0.0
        a[planted] = 0.0
        p = np.random.default_rng(7).normal(size=(STEPS, 4))
        p[planted, :2] = 0.0
        for dominant in (_ROWS, _ROWS + 1, 2 * _ROWS, 2 * _ROWS + 1):
            assert_exit_counts(a.tolist(), dominant_rows(a, dominant, p), dominant)

    @pytest.mark.parametrize("bad", [0.5, np.nan, -np.inf])
    def test_dominant_row(self, bad):
        # the first row from which every row passes the test; a row that
        # fails, NaN included, moves it past that row
        a = np.array([0.0, 1.0, 4.0, 1.0])
        b = np.sqrt(np.append(a, 0.0))
        p = dominant_rows(a, 0, np.zeros((4, 1)))[:, 0]
        assert dominant_row(p, b) == 0
        for row in range(4):
            assert dominant_row(np.where(np.arange(4) == row, bad * p, p), b) == row + 1

    def test_nan_and_infinite_lanes(self):
        a = np.full(STEPS, 0.5)
        a[0] = 0.0
        p = dominant_rows(a, 1, np.random.default_rng(8).normal(size=(STEPS, 4)))
        p[3, 0], p[_ROWS + 3, 1], p[5, 2] = np.nan, np.nan, np.inf
        assert_exit_counts(a.tolist(), p, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3 * _ROWS + 7), st.integers(0, 2**32 - 1), st.data())
    def test_random_chains(self, steps, seed, data):
        rng = np.random.default_rng(seed)
        dominant = data.draw(st.integers(0, steps))
        a = rng.choice([0.0, 0.01, 0.5, 2.0, 100.0], steps) * rng.uniform(0.5, 2.0, steps)
        a[0] = 0.0
        p = rng.normal(size=(steps, 6)) * rng.choice([1e-6, 1.0, 10.0], (1, 6))
        assert_exit_counts(a.tolist(), dominant_rows(a, dominant, p), dominant)
