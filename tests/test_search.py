import hashlib
import io
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from rabicf import (
    DegenerateScanError,
    DeltaZeroError,
    GZeroError,
    LevelSpacingError,
    LostBracketError,
    ModelParams,
    Parity,
    bracket_roots,
    build_chain,
    coeff_f,
    eigenvalues,
    pair_secular,
    scan_levels,
    secular_count,
    solve_method_a,
    sturm_count,
)
import rabicf.resolvent as resolvent
import rabicf.scan as scan
import rabicf.schweber as schweber
import rabicf.search as search
from rabicf.recurrence import Scaled
from rabicf.resolvent import poles_of_resolvent
from rabicf.cli import main
from rabicf.errors import RabiSolverError
from rabicf.model import _ROWS, default_order, default_window
from rabicf.search import BracketScan, bisect_sign, counted_roots
from rabicf.tridiag import StepTable, _dominance_floor

from conftest import FIXTURE, ORACLE_UNION_24


def roots_at(*roots):
    """Root count of a function whose roots are ``roots``: how many lie at
    or below each sample."""
    return lambda e: sum(np.greater_equal(e, r).astype(int) for r in roots)


class TestBracketRoots:
    def test_invalid_window(self):
        with pytest.raises(ValueError, match="invalid window"):
            bracket_roots(roots_at(), (2.0, 1.0), 10)

    def test_linear_single_bracket(self):
        scan = bracket_roots(roots_at(1.0), (0.0, 2.0), 10)
        assert len(scan.brackets) == 1
        lo, hi = scan.brackets[0]
        assert lo < 1.0 < hi

    def test_no_sign_change(self):
        # a count that never rises over the window brackets nothing
        scan = bracket_roots(roots_at(-1.0), (0.0, 2.0), 10)
        assert scan.brackets == ()

    def test_fixture_count_matches_oracle(self, oracle_union):
        # the secular root count brackets every oracle eigenvalue in the
        # window, across the cuts of the pole lattice
        scan = bracket_roots(lambda e: secular_count(e, FIXTURE, 150), (-1.0, 6.0), 2000)
        n_oracle = int(np.sum((oracle_union > -1.0) & (oracle_union < 6.0)))
        assert len(scan.brackets) == n_oracle == 14

    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="--grid 1 is too small"):
            bracket_roots(roots_at(), (-1.0, 3.0), 1)

    def test_exact_zero_sample_is_bracket(self):
        # a root on a sample is counted there: the cell ending on it
        xs = np.linspace(0.0, 2.0, 11)
        scan = bracket_roots(roots_at(1.0), (0.0, 2.0), 11)  # grid hits 1.0
        assert scan.brackets == ((xs[4], 1.0),)

    def test_brackets_in_sample_order(self):
        # roots at 0.3 and 1.7 lie between samples; 1.0 is a sample
        xs = np.linspace(0.0, 2.0, 11)
        scan = bracket_roots(roots_at(0.3, 1.0, 1.7), (0.0, 2.0), 11)
        assert scan.brackets == ((xs[1], xs[2]), (xs[4], 1.0), (xs[8], xs[9]))

    def test_count_rise_repeats_the_cell(self):
        # an integer count that rises by 2 over one cell brackets it twice
        xs = np.linspace(0.0, 2.0, 11)
        count = lambda e: 2 * (e > 0.5) + (e > 1.5)
        scan = bracket_roots(count, (0.0, 2.0), 11)
        assert scan.brackets == ((xs[2], xs[3]), (xs[2], xs[3]), (xs[7], xs[8]))
        assert bracket_roots(count, (0.0, 2.0), 11, 1).brackets == scan.brackets[:1]

    def test_levels_keeps_the_lowest(self):
        count = roots_at(0.3, 1.0, 1.7)
        every = bracket_roots(count, (0.0, 2.0), 11).brackets
        assert len(every) == 3
        for levels in (0, 1, 2, 3, 4):
            assert bracket_roots(count, (0.0, 2.0), 11, levels).brackets == every[:levels]

    @pytest.mark.parametrize("levels", [-1, -5])
    def test_negative_levels_refused(self, levels):
        # a negative slice would drop the highest brackets: 7 and 3 of the
        # window's 8 roots, silently
        with pytest.raises(ValueError, match="levels must be >= 0"):
            bracket_roots(roots_at(0.3, 1.0, 1.7), (0.0, 2.0), 11, levels)
        with pytest.raises(ValueError, match="levels must be >= 0"):
            solve_method_a(FIXTURE, 150, (-1.2, 3.0), levels=levels)

    def test_counts_at_both_ends(self):
        # a cell over which the count rises by 2 carries its end counts twice
        count = lambda e: 1 + 2 * (e > 0.5) + (e > 1.5)
        scan = bracket_roots(count, (0.0, 2.0), 11)
        assert scan.counts == ((1, 3), (1, 3), (3, 4))


def reference_bracket_roots(count, window, grid, levels=None):
    """``bracket_roots`` as it was before it counted coarse cells first:
    every sample of the grid counted."""
    xs = np.linspace(*window, grid)
    cells = np.repeat(np.arange(grid - 1), np.diff(counts := count(xs)))[:levels]
    return BracketScan(brackets=tuple(zip(xs[cells].tolist(), xs[cells + 1].tolist())),
                       counts=tuple(zip(counts[cells].tolist(), counts[cells + 1].tolist())))


@st.composite
def counted_grids(draw):
    """(count, window, grid, levels): a non-decreasing step count with
    roots between samples and on them, some repeated, and a count below
    the window."""
    grid = draw(st.integers(2, 5000))
    lo = draw(st.floats(-10.0, 10.0))
    window = (lo, lo + draw(st.floats(1e-6, 100.0)))
    xs = np.linspace(*window, grid)
    between = st.floats(window[0] - 1.0, window[1] + 1.0)
    on = st.integers(0, grid - 1).map(lambda i: float(xs[i]))
    roots = draw(st.lists(st.tuples(st.one_of(between, on), st.integers(1, 3)), max_size=40))
    roots = np.sort([r for r, times in roots for _ in range(times)])
    below = draw(st.integers(0, 5))
    count = lambda e: below + np.searchsorted(roots, e, side="right")
    inside = int(np.count_nonzero((roots > window[0]) & (roots <= window[1])))
    levels = draw(st.one_of(st.none(), st.sampled_from([0, 1]), st.integers(0, inside + 3)))
    return count, window, grid, levels


class TestCoarseCount:
    """``bracket_roots`` counts the samples inside only those coarse cells
    that can hold a wanted root, and returns what counting every sample
    returns."""

    @settings(max_examples=300)
    @given(counted_grids())
    def test_equals_counting_every_sample(self, case):
        count, window, grid, levels = case
        seen = []

        def counting(e):
            seen.extend(e.tolist())
            return count(e)

        assert bracket_roots(counting, window, grid, levels) == reference_bracket_roots(
            count, window, grid, levels)
        # no sample counted twice
        assert len(seen) == len(set(seen)) <= grid

    @pytest.mark.parametrize("method", ["a", "b"])
    def test_readme_requests_count_few_samples(self, method):
        # the README requests spectrum --method a --order 150 --levels 10
        # and --method b --parity plus --levels 8 (order 300) at the default
        # grid: a few hundred of the 2000 samples, the same brackets
        if method == "a":
            levels, count = 10, lambda e: secular_count(e, FIXTURE, 150)
        else:
            chain = build_chain(FIXTURE, Parity.PLUS, 300)
            levels, count = 8, lambda e: resolvent.pole_count(e, chain)
        window, seen = default_window(FIXTURE, levels), []

        def counting(e):
            seen.append(len(e))
            return count(e)

        assert bracket_roots(counting, window, 2000, levels) == reference_bracket_roots(
            count, window, 2000, levels)
        assert sum(seen) <= 400


class TestCountedRoots:
    def test_two_roots_in_one_cell(self):
        # one cell of a two-sample grid holds both roots: halved by count
        f = lambda e: (e - 0.3) * (e - 0.35)
        got = counted_roots(roots_at(0.3, 0.35), f, (0.0, 2.0), 2, None, 1e-12)
        assert [w for _, w in got] == [None, None]
        np.testing.assert_allclose([r for r, _ in got], [0.3, 0.35], atol=1e-12)

    def test_levels_inside_the_last_cell(self):
        # the cell holds more roots than were asked for: the lowest is kept
        f = lambda e: (e - 0.3) * (e - 0.35)
        got = counted_roots(roots_at(0.3, 0.35), f, (0.0, 2.0), 2, 1, 1e-12)
        assert len(got) == 1 and got[0][0] == pytest.approx(0.3, abs=1e-12)

    def test_levels_inside_a_cell_of_three(self):
        # each bracket halves toward its own root number: the third root
        # of the cell is neither counted down to nor returned
        f = lambda e: (e - 0.3) * (e - 0.35) * (e - 0.4)
        got = counted_roots(roots_at(0.3, 0.35, 0.4), f, (0.0, 2.0), 2, 2, 1e-12)
        assert [w for _, w in got] == [None, None]
        np.testing.assert_allclose([r for r, _ in got], [0.3, 0.35], atol=1e-12)

    @pytest.mark.parametrize("method", ["a", "b"])
    def test_grid_samples_are_counted_once(self, monkeypatch, method):
        # the grid pass never counts a sample twice: narrowing a cell that
        # holds several roots, or the last cell that levels stops inside,
        # counts only nodes inside it
        if method == "a":  # cell 0 of 2 holds 18 roots, 12 kept
            params, order, levels, grid = ModelParams(1.0, 2.0, 0.4), 300, 12, 3
            module, name = schweber, "secular_count"  # read by solve_method_a at each call
            solve = lambda w: solve_method_a(params, order, w, levels, grid).spectrum
        else:  # cells of 1, 3, 2 and 3 poles, the cell of 2 cut to 1
            params, order, levels, grid = FIXTURE, 100, 5, 5
            module, name = resolvent, "pole_count"
            chain = build_chain(params, Parity.PLUS, order)
            solve = lambda w: poles_of_resolvent(chain, w, levels, grid)
        window = default_window(params, levels)
        counted, real = [], getattr(module, name)

        def count(energy, *args):
            counted.extend(np.ravel(energy).tolist())
            return real(energy, *args)

        monkeypatch.setattr(module, name, count)
        assert len(solve(window).levels) == levels
        samples = np.linspace(*window, grid).tolist()
        assert len(counted) > grid
        assert all(counted.count(x) <= 1 for x in samples)

    def test_two_roots_at_one_point(self):
        # a piece that still holds both roots at tol is never refined on f:
        # each root is its midpoint, with its width
        got = counted_roots(roots_at(0.5, 0.5), None, (0.0, 1.0), 2, None, 1e-12)
        assert len(got) == 2
        for root, width in got:
            assert 0.0 < width <= 1e-12
            assert abs(root - 0.5) <= width

    def test_roots_closer_than_an_ulp(self):
        # one ulp of 9000 is 1.8e-12: a piece holding both roots cannot be
        # halved to 1e-13, and its two midpoints would be equal
        with pytest.raises(LevelSpacingError, match="closer together than halving"):
            counted_roots(roots_at(9000.5, 9000.5), None, (9000.0, 9001.0), 2, None, 1e-13)


def reference_counted_roots(count, f, window, grid, levels, tol):
    """The driver before the lockstep narrowing: each bracket halved alone by
    a scalar count toward its own root until its piece holds that root
    alone (``_isolate``), then ``bisect_sign`` on the whole piece."""
    scan = bracket_roots(count, window, grid, levels)
    found = []
    for i, ((lo, hi), (c_lo, c_hi)) in enumerate(zip(scan.brackets, scan.counts)):
        k = scan.counts[0][0] + 1 + i
        while c_hi - c_lo > 1 and hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
            if (c_mid := count(mid)) >= k:
                hi, c_hi = mid, c_mid
            else:
                lo, c_lo = mid, c_mid
        found.append((bisect_sign(f, lo, hi, tol), None) if c_hi - c_lo == 1
                     else (0.5 * (lo + hi), hi - lo))
    return found


def _request(method, params, order, levels):
    """(count, f, window, tol, refine) of a method-a solve or a method-b
    solve on the plus chain, as ``solve_method_a`` and ``poles_of_resolvent``
    form them: method b refines each piece on a leading minor of D_0."""
    window, tol = default_window(params, levels), search.DEFAULT_REFINE_TOL * params.omega
    if method == "a":
        return (lambda e: secular_count(e, params, order),
                lambda e: pair_secular(e, params, order), window, tol, None)
    chain = build_chain(params, Parity.PLUS, order)
    return (lambda e: resolvent.pole_count(e, chain),
            lambda e: resolvent.char_poly(e, chain)[0], window, tol,
            partial(resolvent._refine_pole, chain))


class TestLockstepNarrowing:
    """``counted_roots`` returns what the scalar driver it replaced returns."""

    @pytest.mark.parametrize("method", ["a", "b"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_requests(self, method, seed):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            params = ModelParams(1.0, rng.uniform(0.2, 3.0), rng.uniform(0.1, 1.5))
            levels = int(rng.integers(4, 13))
            count, f, window, tol, refine = _request(method, params,
                                                     int(rng.integers(100, 601)), levels)
            want = reference_counted_roots(count, f, window, search.DEFAULT_GRID, levels, tol)
            assert counted_roots(count, f, window, search.DEFAULT_GRID, levels, tol,
                                 refine=refine) == want

    @pytest.mark.parametrize("method", ["a", "b"])
    @pytest.mark.parametrize("grid", [2, 3])
    def test_cells_of_several_roots(self, method, grid):
        # a coarse grid leaves many roots in one cell: each bracket finds its
        # piece by count first
        count, f, window, tol, refine = _request(method, ModelParams(1.0, 1.0, 0.4), 300, 12)
        want = reference_counted_roots(count, f, window, grid, 12, tol)
        assert counted_roots(count, f, window, grid, 12, tol, refine=refine) == want
        assert len(want) == 12 and all(width is None for _, width in want)

    def test_pieces_not_alone_at_tol(self):
        roots = (0.3, 0.3 + 1e-14, 0.7)
        f = lambda e: (e - roots[0]) * (e - roots[1]) * (e - roots[2])
        want = reference_counted_roots(roots_at(*roots), f, (0.0, 1.0), 2, None, 1e-12)
        got = counted_roots(roots_at(*roots), f, (0.0, 1.0), 2, None, 1e-12)
        assert got == want
        assert [width is None for _, width in got] == [False, False, True]

    def test_count_and_sign_disagree(self):
        # the count puts the root at 0.3, f changes sign at 0.6: no sign
        # change over the cell narrowed to, so the whole piece is refined
        calls = []
        f = lambda e: calls.append(e) or e - 0.6
        got = counted_roots(roots_at(0.3), f, (0.0, 1.0), 2, None, 1e-12)
        assert got == reference_counted_roots(roots_at(0.3), f, (0.0, 1.0), 2, None, 1e-12)
        assert got[0][0] == pytest.approx(0.6, abs=1e-12)
        assert abs(calls[0] - 0.3) < 2.0**-16 and calls[2:4] == [0.0, 1.0]

    @given(st.floats(-1e6, 1e6), st.floats(1e-9, 1e6), st.integers(1, 40), st.data())
    def test_nodes_from_a_cell_equal_nodes_from_the_root(self, lo, width, depth, data):
        # halving is deterministic: a node halved to from any cell above it
        # is the node halved to from the whole tree
        hi = lo + width
        assume(lo < hi)
        level = data.draw(st.integers(0, depth))
        k = data.draw(st.integers(0, 2**depth - 1))
        below = depth - level
        cell = search._tree_cell(lo, hi, level, k >> below)
        assert search._tree_cell(*cell, below, k & (2**below - 1)) == \
            search._tree_cell(lo, hi, depth, k)


class TestRefineRoot:
    def test_linear(self):
        root = bisect_sign(lambda e: e - 1.0, 0.0, 2.0, 1e-12)
        assert root == pytest.approx(1.0, abs=1e-12)

    def test_odd_multiplicity(self):
        root = bisect_sign(lambda e: (e - 0.5) ** 3, 0.0, 2.0, 1e-10)
        assert root == pytest.approx(0.5, abs=1e-9)

    def test_root_on_the_upper_end(self):
        # a root on a grid sample lies in the cell that ends there
        assert bisect_sign(lambda e: e - 1.0, 0.0, 1.0, 1e-12) == 1.0

    def test_zero_on_the_lower_end_is_not_taken(self):
        # a root on the lower end belongs to the cell below: the root in
        # (lo, hi] is the one found
        root = bisect_sign(lambda e: e * (e - 0.6), 0.0, 1.0, 1e-12)
        assert root == pytest.approx(0.6, abs=1e-12)

    def test_no_sign_change_rejected(self):
        with pytest.raises(LostBracketError):
            bisect_sign(lambda e: e * e + 1.0, 0.0, 1.0, 1e-12)

    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_nan_at_an_end_rejected(self, end):
        f = lambda e: math.nan if e == end else e - 0.5
        with pytest.raises(LostBracketError):
            bisect_sign(f, 0.0, 1.0, 1e-12)

    def test_nan_inside_rejected(self):
        # finite with a sign change at both ends, NaN at every interior point
        f = lambda e: e - 0.5 if e in (0.0, 1.0) else math.nan
        with pytest.raises(LostBracketError, match="NaN"):
            bisect_sign(f, 0.0, 1.0, 1e-12)

    def test_endpoint_perturbation_invariance(self):
        f = lambda e: math.tanh(3.0 * (e - 1.25))
        r1 = bisect_sign(f, 0.5, 2.0, 1e-11)
        r2 = bisect_sign(f, 0.5 + 1e-4, 2.0 - 1e-4, 1e-11)
        assert abs(r1 - r2) < 1e-11

    def test_bisect_sign_discontinuous_magnitude(self):
        # magnitude jumps must not break sign bisection
        f = lambda e: (1.0 if e < 1.0 else 1e200) * (e - 1.3)
        root = bisect_sign(f, 0.0, 2.0, 1e-12)
        assert root == pytest.approx(1.3, abs=1e-11)

    def test_ends_on_adjacent_floats(self):
        # one ulp of 9000 is 1.8e-12, so no bracket near it can shrink to
        # the requested 1e-13: halving ends once lo and hi are adjacent.
        # The sign flips between two floats, so no sample is a zero; the
        # call guard fails the test where the loop would never end.
        calls = []

        def f(e):
            calls.append(e)
            if len(calls) > 200:
                raise RuntimeError("bisect_sign does not end")
            return 1.0 if e > 9000.123456789 else -1.0

        root = bisect_sign(f, 9000.0, 9001.0, 1e-13)
        assert root in (9000.123456789, math.nextafter(9000.123456789, math.inf))
        assert len(calls) < 60


def _sign_bisection(f, lo, hi, tol):
    """Plain bisection on the sign of ``f`` alone, by the rules of
    ``bisect_sign``: the reference its ITP steps are held to."""
    flo, fhi = f(lo), f(hi)
    if fhi == 0.0:
        return hi
    below = np.sign(flo) or -np.sign(fhi)
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if (fm := f(mid)) == 0.0:
            return mid
        lo, hi = (mid, hi) if np.sign(fm) == below else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def seeded_pieces():
    """(f, lo, hi, tol) of every piece that ``bisect_sign`` refines in
    seeded method-a solves and method-b solves (plus chain), six levels
    each, at g in [0.2, 3], delta in [0.1, 1.5] and orders 100 to 1200.
    A method-b piece is recorded with D_0, which ``poles_of_resolvent``
    hands its refinement hook as ``f``."""
    rng = np.random.default_rng(23)
    pieces, real, refine = [], search.bisect_sign, resolvent._refine_pole
    search.bisect_sign = lambda *args, **kw: pieces.append(args) or real(*args, **kw)
    resolvent._refine_pole = lambda chain, *args, **kw: search.bisect_sign(*args, **kw)
    try:
        for method in ("a", "b") * 4:
            params = ModelParams(1.0, rng.uniform(0.2, 3.0), rng.uniform(0.1, 1.5))
            order, window = int(rng.integers(100, 1201)), default_window(params, 6)
            if method == "a":
                solve_method_a(params, order, window, levels=6)
            else:
                poles_of_resolvent(build_chain(params, Parity.PLUS, order), window, 6)
    finally:
        search.bisect_sign, resolvent._refine_pole = real, refine
    assert len(pieces) == 48
    return pieces


def _evaluations(f, lo, hi, tol):
    calls = []
    root = bisect_sign(lambda e: calls.append(e) or f(e), lo, hi, tol)
    return root, len(calls)


class TestItpRefinement:
    def test_steps_within_bisection_budget(self, seeded_pieces):
        # ITP never takes more than the halvings of bisection plus n0 (and
        # the two ends); on these smooth P_N and D_0, a third of them
        itp = plain = 0
        for f, lo, hi, tol in seeded_pieces:
            halvings = math.ceil(math.log2((hi - lo) / tol))
            _, calls = _evaluations(f, lo, hi, tol)
            assert calls <= halvings + search.ITP_N0 + 2
            itp, plain = itp + calls, plain + halvings + 2
        assert 3 * itp <= plain

    def test_roots_agree_with_sign_bisection(self, seeded_pieces):
        # ITP steps on the nodes of the bisection tree: where the sign of f
        # is the same at every node it meets, it ends in the same cell
        for f, lo, hi, tol in seeded_pieces:
            assert bisect_sign(f, lo, hi, tol) == _sign_bisection(f, lo, hi, tol)

    @pytest.mark.parametrize("k", [1, 2, 4, -3])
    def test_ends_of_different_exponent(self, k):
        # e - 0.3 with its mantissa scaled by 2**(-256 k) above the root:
        # only the exponent makes the two ends interpolate
        def f(e):
            exponent = 256 * k if e > 0.3 else 0
            return Scaled(math.ldexp(e - 0.3, -exponent), exponent)

        root, calls = _evaluations(f, 0.0, 1.0, 1e-12)
        assert abs(root - 0.3) <= 1e-12
        assert abs(root - _sign_bisection(f, 0.0, 1.0, 1e-12)) <= 1e-12
        assert calls <= 12  # bisection takes 42

    def test_plain_float_values(self):
        root, calls = _evaluations(lambda e: (e - 0.3) ** 3 + 0.1 * (e - 0.3), 0.0, 1.0, 1e-12)
        assert abs(root - 0.3) <= 1e-12 and calls <= 12

    def test_zero_tol_ends_on_adjacent_floats(self):
        f = lambda e: 1.0 if e > 0.123456789 else -1.0
        root, calls = _evaluations(f, 0.0, 1.0, 0.0)
        assert root == _sign_bisection(f, 0.0, 1.0, 0.0)
        assert root in (0.123456789, math.nextafter(0.123456789, 1.0)) and calls < 70

    def test_nan_at_an_interior_point(self):
        # the first point inside is ITP's, off the midpoint: NaN there
        # loses the bracket as NaN anywhere does
        calls = []

        def f(e):
            calls.append(e)
            return math.nan if len(calls) == 3 else e - 0.2

        with pytest.raises(LostBracketError, match="NaN"):
            bisect_sign(f, 0.0, 1.0, 1e-12)
        assert len(calls) == 3 and abs(calls[2] - 0.5) > 0.05

    def test_one_rule_for_both_refinements(self, monkeypatch):
        # method a's brackets (scalars) and the crossing refinement (arrays)
        # both step by search._itp_point, which the scan binds as its own
        shapes, real = [], search._itp_point
        assert scan._itp_point is real
        for module in (search, scan):
            monkeypatch.setattr(module, "_itp_point",
                                lambda *args: shapes.append(np.ndim(args[0])) or real(*args))
        solve_method_a(FIXTURE, 150, (-1.2, 0.0), levels=2)
        scan_levels(FIXTURE, "g", 0.05, 1.2, 60, 4, order=60)
        assert set(shapes) == {0, 1}

    def test_readme_scan_crossings_bit_for_bit(self, readme_scan):
        # the shared rule keeps the crossing refinement's arithmetic: a
        # change to it that moves the README scan's crossings shows here
        result, refined = readme_scan
        text = "".join(f"{ev.value!r} {ev.energy!r}\n" for ev in result.events)
        digest = "692aa9eeda8435f5c6a6b546159b489bf44e68ae7e35be59e822edb1061c0b3b"
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert refined["steps"].tolist() == [8, 7, 8, 7, 8, 9, 8, 8, 7, 7, 7, 8, 8, 9, 8, 8, 8, 8, 8]

    def test_rule_is_elementwise(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1.0, 1.0, 64)
        b = a + rng.uniform(1e-9, 1.0, 64)
        fa, fb = -rng.uniform(0.0, 1.0, 64), rng.uniform(0.0, 1.0, 64)
        w0, steps = (b - a) * rng.uniform(1.0, 8.0, 64), rng.integers(0, 12, 64)
        got = search._itp_point(a, b, fa, fb, w0, 1e-12, steps)
        for i in range(64):
            assert got[i] == search._itp_point(a[i], b[i], fa[i], fb[i], w0[i], 1e-12, steps[i])


class TestSolveMethodA:
    def test_ground_state_matches_oracle(self, oracle_union):
        result = solve_method_a(FIXTURE, 150, (-1.2, 0.0), levels=2)
        assert result.spectrum.levels[0].energy == pytest.approx(
            float(oracle_union[0]), abs=1e-8
        )

    def test_delta_zero_refused(self):
        with pytest.raises(DeltaZeroError):
            solve_method_a(ModelParams(1.0, 0.7, 0.0), 100, (-1.0, 3.0))

    def test_g_zero_refused(self):
        with pytest.raises(GZeroError):
            solve_method_a(ModelParams(1.0, 0.0, 0.4), 100, (-1.0, 3.0))

    def test_fractional_order_refused(self):
        with pytest.raises(ValueError, match="integer >= "):
            solve_method_a(FIXTURE, 60.5, (-1.0, 2.0), levels=3)

    @pytest.mark.parametrize("eps_pole", [-1.0, math.nan])
    @pytest.mark.parametrize("window", [(-5.0, -4.0), (-1.2, 1.0)])
    def test_malformed_eps_pole_refused(self, eps_pole, window):
        # checked before anything is solved, also over a window that holds
        # no level
        with pytest.raises(ValueError, match="eps_pole must be finite and >= 0"):
            solve_method_a(ModelParams(1.0, 0.7, 0.4), 150, window, eps_pole=eps_pole)

    def test_root_count_matches_oracle_above_depth_bound(self, oracle_union):
        result = solve_method_a(FIXTURE, 150, (-1.0, 6.0))
        n_oracle = int(np.sum((oracle_union > -1.0) & (oracle_union < 6.0)))
        assert len(result.spectrum.levels) == n_oracle

    def test_no_level_lost_at_guard_edge(self):
        # at g = 1 a window segmented at the pole lattice once lost the
        # level at E = -0.99620 next to the guard of a cut
        params = ModelParams(1.0, 1.0, 0.4)
        window = default_window(params, 12)
        got = solve_method_a(params, 600, window, levels=12).spectrum.energies
        union = np.sort(np.concatenate([
            eigenvalues(build_chain(params, parity, 600), 12, tol=1e-12).energies
            for parity in (Parity.PLUS, Parity.MINUS)
        ]))
        union = union[(union > window[0]) & (union < window[1])][:12]
        assert len(got) == len(union) == 12
        assert float(np.max(np.abs(got - union))) < 1e-10

    @pytest.mark.parametrize("g, delta", [
        (2.29, 0.51), (2.51, 0.87), (2.70, 0.06), (3.0, 0.4), (4.0, 0.4), (5.0, 0.4), (8.0, 0.4),
    ])
    def test_default_order_converged(self, g, delta):
        # the default truncation leaves the 8 lowest levels converged at
        # strong coupling: twice that order moves the union by less than
        # 1e-8 w
        params, k = ModelParams(1.0, g, delta), 8
        window = default_window(params, k)
        order = default_order(params, k, window)
        got = solve_method_a(params, order, window, levels=k).spectrum.energies
        j = np.arange(2 * order + 1, dtype=float)
        off = g * np.sqrt(j[1:])
        union = np.sort(np.concatenate([
            eigh_tridiagonal(j + sign * (-1.0) ** j * delta, off, eigvals_only=True,
                             select="i", select_range=(0, k - 1))
            for sign in (1, -1)
        ]))[:k]
        assert len(got) == k
        assert float(np.max(np.abs(got - union))) < 1e-8 * params.omega

    @pytest.mark.parametrize("g, delta", [
        (8.328725746944016, 2.435531129483232), (11.400913397054943, 0.3061288586038702),
        (9.46255019321232, 6.422406580445575), (11.347130464810721, 3.375027029682397),
    ])
    def test_close_doublets_printed_twice(self, g, delta):
        # at these parity doublets the float count steps inside a piece wider
        # than tol on which P_N keeps its sign: the piece narrows by count,
        # and both levels of each doublet come out within 1e-10 of the union
        # oracle (each request once exited 3 with LostBracketError)
        model = ["--omega", "1", "--g", repr(g), "--delta", repr(delta)]
        out = io.StringIO()
        assert main(["spectrum", *model, "--method", "a", "--levels", "8"], out=out) == 0
        assert len([line for line in out.getvalue().splitlines() if line[:1].isdigit()]) == 8
        assert main(["compare", *model, "--method-1", "a", "--method-2", "diag", "-m", "8",
                     "--tol", "1e-10"], out=io.StringIO()) == 0

    @pytest.mark.parametrize("g", [0.7, 1.0, 2.0])
    def test_refines_only_the_levels_returned(self, monkeypatch, g):
        # the lowest k brackets are refined, not every bracket in the window
        params = ModelParams(1.0, g, 0.4)
        k = 6
        window = default_window(params, k)
        order = default_order(params, k, window)
        calls = []
        real = search.bisect_sign
        monkeypatch.setattr(search, "bisect_sign",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        every = solve_method_a(params, order, window).spectrum.levels
        assert len(calls) == len(every) > k
        calls.clear()
        lowest = solve_method_a(params, order, window, levels=k).spectrum.levels
        assert len(calls) == k
        assert lowest == every[:k]

    def test_default_order_of_a_bound_that_is_not_finite(self):
        # at w = g = 2**520 both w*w and g*g overflow and the tail-depth
        # bound is NaN: refused like an order above the cap; an infinite
        # window is still named as such
        params = ModelParams(2.0**520, 2.0**520, 1.0)
        with pytest.raises(ValueError, match="order inf exceeds 1000000; pass --order"):
            default_order(params, 8, (-1.0, 1.0))
        with pytest.raises(ValueError, match="energy must be finite"):
            default_order(FIXTURE, 8, (-math.inf, 1.0))

    @staticmethod
    def _juddian_pair(g, n):
        # both parity chains hold the level E = n w - g^2/w, which sits on
        # the cut of f_n: method a reports it twice
        params = ModelParams(1.0, g, 0.4)
        got = solve_method_a(params, 300, default_window(params, 8), levels=8).spectrum.energies
        target = n * params.omega - g * g / params.omega
        near = got[np.abs(got - target) < 1e-6]
        assert len(near) == 2
        assert float(np.max(np.abs(near - target))) < 1e-11 * params.omega

    def test_juddian_pair_on_first_cut(self):
        # 4 g^2 + delta^2 = omega^2 puts a doubly degenerate level on the
        # cut x = omega (Judd, J. Phys. C 12, 1685 (1979))
        self._juddian_pair(math.sqrt(0.84) / 2, 1)

    @pytest.mark.parametrize("g_bracket", [(0.35, 0.36), (0.90, 0.91)])
    def test_juddian_pair_on_second_cut(self, g_bracket):
        # the n = 2 points are the couplings where the leading minor W_1
        # vanishes at x = 2 w, bisected in g
        w1 = lambda g: pair_secular(2.0 - g * g, ModelParams(1.0, g, 0.4), 1)
        self._juddian_pair(bisect_sign(w1, *g_bracket, 1e-16), 2)


class TestScan:
    def test_levels_beyond_chain_rejected(self):
        # an order-3 chain holds 4 levels; more would read the top of the
        # bisection interval as levels
        assert scan_levels(FIXTURE, "g", 0.1, 0.5, 20, 4, 3).plus_levels.shape == (20, 4)
        for levels in (0, 5, 8):
            with pytest.raises(ValueError, match="levels must be in 1..4"):
                scan_levels(FIXTURE, "g", 0.1, 0.5, 20, levels, 3)

    def test_delta_zero_rejected(self):
        with pytest.raises(DegenerateScanError):
            scan_levels(ModelParams(1.0, 0.7, 0.0), "g", 0.1, 0.5, 20, 3, 60)

    def test_empty_range(self):
        events = scan_levels(FIXTURE, "g", 0.05, 0.08, 10, 3, 80).events
        assert events == ()

    def test_single_crossing_refined(self):
        # the (1,1) pair crosses near g ~ 0.4583 with x* = 1 exactly
        events = scan_levels(FIXTURE, "g", 0.4, 0.52, 60, 3, 120).events
        assert len(events) == 1
        ev = events[0]
        assert ev.value == pytest.approx(0.45825756949, abs=1e-6)
        assert ev.nearest_multiple == 1
        assert ev.deviation < 1e-8
        assert (ev.plus_level, ev.minus_level) == (1, 1)
        # the crossing energy satisfies the integer-multiple law
        assert ev.shifted == pytest.approx(1.0, abs=1e-8)

    def test_crossing_on_a_scan_point(self):
        # the midpoint sample is the first Juddian point 4g^2 + delta^2 = omega^2,
        # where the (1, 1) gap is exactly zero
        g_star = math.sqrt(0.84) / 2
        events = scan_levels(FIXTURE, "g", g_star - 0.01, g_star + 0.01, 11, 3, 150).events
        assert len(events) == 1
        assert (events[0].plus_level, events[0].minus_level) == (1, 1)
        assert abs(events[0].value - g_star) < 1e-9

    def test_tracks_shape(self):
        result = scan_levels(FIXTURE, "g", 0.1, 0.2, 12, 4, 60)
        assert result.values.shape == (12,)
        assert result.plus_levels.shape == (12, 4)
        assert result.minus_levels.shape == (12, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            scan_levels(FIXTURE, "g", 0.1, 0.5, 5, 3, 60)
        with pytest.raises(ValueError):
            scan_levels(FIXTURE, "g", 0.5, 0.1, 20, 3, 60)
        with pytest.raises(ValueError):
            scan_levels(FIXTURE, "FAKE", 0.1, 0.5, 20, 3, 60)
        with pytest.raises(DegenerateScanError):
            scan_levels(FIXTURE, "delta", 0.0, 0.5, 20, 3, 60)

    @pytest.mark.parametrize("tol", [0.0, -1e-11, float("nan"), float("inf")])
    def test_malformed_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            scan_levels(FIXTURE, "g", 0.1, 0.5, 20, 3, 60, tol=tol)

    def test_crossing_on_an_end_point(self):
        # the first scan point sits on the Juddian point, where the (1, 1)
        # gap is exactly zero with a neighbour on one side only
        g_star = math.sqrt(0.84) / 2
        events = scan_levels(
            FIXTURE, "g", 0.45825756949515895, 0.46825756949515895, 11, 3, 150
        ).events
        assert len(events) == 1
        assert (events[0].plus_level, events[0].minus_level) == (1, 1)
        assert abs(events[0].value - g_star) < 1e-9

    def test_every_grid_sign_change_is_an_event(self):
        # on a coarse grid the (9, 9) gap changes sign in neighbouring
        # cells, with crossings less than one step apart: each is an event
        result = scan_levels(FIXTURE, "g", 0.05, 3.0, 12, 10, 200)
        ep, em = result.plus_levels, result.minus_levels
        flips = sum(
            int(np.count_nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0))
            for d in (ep[:, a] - em[:, b] for a in range(10) for b in range(10))
        )
        assert flips == 45
        assert len(result.events) == flips

    @pytest.mark.parametrize("gap, found", [
        ([0.0, 1.0, 2.0], [0]),    # isolated zero on the first point
        ([-2.0, -1.0, 0.0], [-1]), # isolated zero on the last point
        ([0.0, 0.0, 1.0], []),     # a zero run reaching the first point
        ([-1.0, 0.0, 0.0], []),    # a zero run reaching the last point
    ])
    def test_end_point_zero_rule(self, monkeypatch, gap, found):
        # synthetic one-level tracks whose gap is zero on an end point
        steps = 10
        ep = np.interp(np.arange(steps), [0, steps // 2, steps - 1], gap)[:, None]
        monkeypatch.setattr(scan, "_spectra_at", lambda *args: (ep, np.zeros_like(ep)))
        result = scan_levels(FIXTURE, "g", 0.1, 0.2, steps, 1, 20)
        assert [ev.value for ev in result.events] == [result.values[i] for i in found]

    def test_negative_couplings(self):
        # the sign of g is irrelevant: the tracks over negative couplings
        # are the oracle's levels at |g|, the widest chain at g = -1.2
        result = scan_levels(FIXTURE, "g", -1.2, -0.05, 12, 3, 60)
        for value, plus, minus in zip(result.values, result.plus_levels, result.minus_levels):
            params = ModelParams(FIXTURE.omega, value, FIXTURE.delta)
            for levels, parity in ((plus, Parity.PLUS), (minus, Parity.MINUS)):
                oracle = eigenvalues(build_chain(params, parity, 60), 3).energies
                np.testing.assert_allclose(levels, oracle, rtol=0, atol=1e-10)


class TestBatchTables:
    @pytest.mark.parametrize("parameter", ["g", "delta"])
    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_rows_are_build_chain(self, parameter, parity):
        # the scan's own copy of the chain formula, row by row
        values = np.linspace(0.05, 3.0, 13)
        order = 60
        diag, off2 = scan._batch_tables(FIXTURE, parameter, values, parity.sign, order)
        assert diag.shape == (order + 1, len(values)) and off2.shape == (order, len(values))
        j = np.arange(1, order + 1, dtype=float)
        for row, value in enumerate(values):
            params = (ModelParams(FIXTURE.omega, value, FIXTURE.delta) if parameter == "g"
                      else ModelParams(FIXTURE.omega, FIXTURE.g, value))
            np.testing.assert_array_equal(diag[:][:, row], build_chain(params, parity, order).diag)
            np.testing.assert_array_equal(off2[:][:, row], params.g**2 * j)


# scans whose tables built on demand are checked against full ones: the
# README g scan, a g scan across g = 0, and the delta scans of the
# coupling-scan workload at seeds 1, 2, 3 and 20121205 (bench/workloads.py)
ON_DEMAND_SCANS = {
    "readme g scan": ("0.7", "g", "0.05", "1.2", "600", "8", "300"),
    "g scan across 0": ("0.7", "g", "-1", "1.3", "600", "8", "300"),
    **{f"delta scan, seed {seed}": (g, "delta", lo, hi, "200", "6", "150") for seed, g, lo, hi in (
        (1, "0.62", "0.127", "1.5892"), (2, "0.616", "0.1105", "1.5124"),
        (3, "0.7055", "0.0754", "1.4263"), (20121205, "0.7959", "0.1106", "1.5814"))},
}


class TestTablesOnDemand:
    """The scan's tables are built a block of _ROWS steps at a time, only as
    deep as its pivot sweeps read, and give what full tables give."""

    @staticmethod
    def _scan(name, path):
        """The scan through ``scan_levels`` and through ``cli.main`` with its
        tracks written to ``path``: (tracks, events, exit, stdout, tracks file)."""
        g, param, lo, hi, steps, levels, order = ON_DEMAND_SCANS[name]
        base = ModelParams(1.0, float(g), 0.4)
        result = scan_levels(base, param, float(lo), float(hi), int(steps), int(levels),
                             int(order))
        out = io.StringIO()
        code = main(["scan", "--omega", "1", "--g", g, "--delta", "0.4", "--param", param,
                     "--from", lo, "--to", hi, "--steps", steps, "--levels", levels,
                     "--order", order, "--levels-out", str(path)], out=out)
        return (result.plus_levels.tobytes() + result.minus_levels.tobytes(), result.events,
                code, out.getvalue(), path.read_bytes())

    @pytest.mark.parametrize("name", ON_DEMAND_SCANS)
    def test_bit_identical_to_full_tables(self, name, monkeypatch, tmp_path):
        got = self._scan(name, tmp_path / "blocks.csv")
        # the reference: every table built whole as an ndarray, through the
        # same eigenvalues_batch and eigenvalues_rows
        real = scan._batch_tables
        monkeypatch.setattr(scan, "_batch_tables",
                            lambda *args: tuple(table[:] for table in real(*args)))
        want = self._scan(name, tmp_path / "full.csv")
        assert got == want
        assert want[1] and want[2] == 0

    @pytest.mark.parametrize("parameter, values, sign", [
        ("g", np.linspace(0.05, 1.2, 600), 1),
        ("g", np.linspace(-1.0, 1.3, 600), -1),
        ("delta", np.linspace(0.127, 1.5892, 200), 1),
        ("delta", np.linspace(0.0754, 1.4263, 200), -1),
        # the crossing refinement's rows: both parities, values in no order
        ("g", np.tile([0.9, -0.3, 1.1, 0.2], 2), np.repeat([1, -1], 4)),
        ("delta", np.tile([0.9, 0.3, 1.1, 0.2], 2), np.repeat([1, -1], 4)),
    ])
    def test_extremes_from_two_chains(self, parameter, values, sign):
        # fl(j*g**2) and fl(j*omega +- delta) are monotone in g**2 and
        # sign*delta, so the chains at their least and largest hold every
        # step's least and largest entry, and the floor is the full tables'
        tables = scan._batch_tables(FIXTURE, parameter, values, sign, 150)
        for table in tables:
            for extreme in (np.min, np.max):
                assert extreme(table.ends, axis=1).tobytes() == extreme(table[:], axis=1).tobytes()
        want = _dominance_floor(*(table[:] for table in tables))
        assert _dominance_floor(*tables).tobytes() == want.tobytes()

    def test_readme_scan_builds_one_block(self, monkeypatch):
        # every table of the tracks and of the crossing refinement is read
        # by sweeps that stop after the first block of 32 of its 301 steps
        made = []

        class Recorded(StepTable):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(scan, "StepTable", Recorded)
        scan_levels(FIXTURE, "g", 0.05, 1.2, 600, 8, 300)
        assert len(made) > 4
        assert {len(t._blocks) for t in made} == {1}
        assert {t._blocks[0].shape[0] for t in made} == {_ROWS}

    @staticmethod
    def _peak(steps, order, stop):
        """tracemalloc peak of ``scan._spectra_at`` on a g scan of the fixture."""
        values = np.linspace(0.05, stop, steps)
        interval = scan._sweep_interval(FIXTURE, "g", stop, order)
        tracemalloc.start()
        try:
            scan._spectra_at(FIXTURE, "g", values, 8, order, 1e-11, interval)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_follows_the_rows_read(self):
        # the same 2000-step scan at four times the order reads the same
        # rows; a full off2 table at order 2000 alone takes 32 MB
        assert self._peak(2000, 2000, 3.0) <= 1.25 * self._peak(2000, 500, 3.0)
        # the README scan: 3.3 MB with its full tables
        assert self._peak(600, 300, 1.2) < 2.5e6


# level pairs of the README scan's crossings in value order, as bisection
# on the scan parameter found them before the ITP refinement
README_PAIRS = [
    (7, 7), (6, 6), (5, 5), (4, 4), (3, 3), (2, 2), (1, 1), (7, 7), (6, 6), (5, 5),
    (4, 4), (3, 3), (7, 7), (6, 6), (2, 2), (5, 5), (4, 4), (7, 7), (6, 6),
]


@pytest.fixture(scope="module")
def readme_scan():
    """The README coupling scan, with the rows and ITP step counts that
    reached the crossing refinement."""
    refined = {}
    original = scan._refine_events

    def recording(base, parameter, a, b, lo, hi, e_lo, e_hi, order, tol, value_tol, interval):
        # the bracket arrays narrow in place: keep the rows as they came in
        rows = list(zip(a, b, lo.copy(), hi.copy(), e_lo.copy(), e_hi.copy()))
        out = original(base, parameter, a, b, lo, hi, e_lo, e_hi, order, tol, value_tol, interval)
        refined.update(rows=rows, value_tol=value_tol, steps=out[2])
        return out

    scan._refine_events = recording
    try:
        result = scan_levels(FIXTURE, "g", 0.05, 1.2, 600, 8, 300)
    finally:
        scan._refine_events = original
    return result, refined


@pytest.fixture(scope="module")
def readme_scan_scaled():
    """The README coupling scan with omega, g, delta and the range scaled
    by 1000: every energy is 1000 times the omega = 1 one, so most of the
    levels it refines exceed 512 in magnitude, where one ulp is 2**-43."""
    scale = 1000.0
    base = ModelParams(scale * FIXTURE.omega, scale * FIXTURE.g, scale * FIXTURE.delta)
    return scale, base, scan_levels(base, "g", scale * 0.05, scale * 1.2, 600, 8, 300)


def _lapack_level(params, sign, order, k):
    j = np.arange(order + 1, dtype=float)
    diag = j * params.omega + sign * (-1.0) ** j * params.delta
    off = params.g * np.sqrt(np.arange(1, order + 1, dtype=float))
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(k, k))[0]


def _juddian(n, g):
    """W_{n-1} at the n-th Juddian energy E = n omega - g^2/omega of the
    fixture at coupling g; its zeros in g are the exact crossings."""
    p = ModelParams(FIXTURE.omega, g, FIXTURE.delta)
    energy = n * p.omega - g * g / p.omega
    return coeff_f(0, energy, p).value if n == 1 else pair_secular(energy, p, n - 1)


def _juddian_points(lo, hi, grid):
    """(n, g) of every exact crossing with n = 1..9 over [lo, hi]: bracketed
    on a g grid, then bisected."""
    points = []
    gs = np.linspace(lo, hi, grid)
    for n in range(1, 10):
        vals = [_juddian(n, g) for g in gs]
        for a, b, va, vb in zip(gs, gs[1:], vals, vals[1:]):
            if va * vb < 0 or va == 0.0:
                points.append((n, bisect_sign(lambda g: _juddian(n, g), a, b, 1e-15)))
    return points


class TestCrossingRefinement:
    def test_events_match_bisection(self, readme_scan):
        result, _ = readme_scan
        assert [(ev.plus_level, ev.minus_level) for ev in result.events] == README_PAIRS

    def test_lapack_gap_at_crossing(self, readme_scan):
        result, _ = readme_scan
        for ev in result.events:
            p = ModelParams(FIXTURE.omega, ev.value, FIXTURE.delta)
            gap = _lapack_level(p, 1, 300, ev.plus_level) - _lapack_level(p, -1, 300, ev.minus_level)
            assert abs(gap) <= 1e-12 * FIXTURE.omega

    def test_itp_steps_within_bisection_budget(self, readme_scan):
        _, refined = readme_scan
        assert len(refined["rows"]) == len(README_PAIRS)
        for (_, _, lo, hi, _, _), steps in zip(refined["rows"], refined["steps"]):
            assert 1 <= steps <= math.ceil(math.log2((hi - lo) / refined["value_tol"])) + 1

    def test_energy_matches_tracks_solver(self, readme_scan):
        # the reported energy is what the track solver gives at the crossing
        result, _ = readme_scan
        interval = scan._sweep_interval(FIXTURE, "g", 1.2, 300)
        values = np.array([ev.value for ev in result.events])
        ep, em = scan._spectra_at(FIXTURE, "g", values, 8, 300, 1e-11, interval)
        for i, ev in enumerate(result.events):
            assert ev.energy == 0.5 * (ep[i, ev.plus_level] + em[i, ev.minus_level])

    def test_no_crossing_lost(self, readme_scan):
        # every event sits on an exact crossing of its own n, and every
        # exact crossing between the 8 tracked levels of each chain is an event
        result, _ = readme_scan
        points = _juddian_points(0.05, 1.2, 400)
        for ev in result.events:
            nearest = min(abs(ev.value - g) for n, g in points if n == ev.nearest_multiple)
            assert nearest <= 1e-12 * FIXTURE.omega
        for n, g in points:
            p = ModelParams(FIXTURE.omega, g, FIXTURE.delta)
            energy = n * p.omega - g * g / p.omega
            below = [sturm_count(energy - 1e-9, build_chain(p, parity, 300)) for parity in Parity]
            if max(below) < 8:
                assert any(ev.nearest_multiple == n and abs(ev.value - g) <= 1e-12 * FIXTURE.omega
                           for ev in result.events), (n, g)

    def test_scaled_omega(self, readme_scan, readme_scan_scaled):
        # the refinement lattice follows omega: the scan ends, on the same
        # pairs, and its crossings are the omega = 1 ones scaled
        result, _ = readme_scan
        scale, base, scaled = readme_scan_scaled
        assert [(ev.plus_level, ev.minus_level) for ev in scaled.events] == README_PAIRS
        for ev, big in zip(result.events, scaled.events):
            assert abs(big.value / scale - ev.value) <= 1e-10
            assert big.nearest_multiple == ev.nearest_multiple
            assert big.deviation <= 1e-10 * base.omega
            p = ModelParams(base.omega, big.value, base.delta)
            gap = _lapack_level(p, 1, 300, big.plus_level) - _lapack_level(p, -1, 300, big.minus_level)
            assert abs(gap) <= 1e-12 * base.omega


class TestFallingCount:
    """A root count that falls between two grid samples brackets nothing:
    ``bracket_roots`` refuses it by name."""

    def test_refused_by_name(self):
        with pytest.raises(RabiSolverError, match="falls between samples"):
            bracket_roots(lambda e: np.where(e < 0.5, 1, 0), (0.0, 1.0), 10)

    def test_method_a_where_omega_squared_underflows(self, capsys):
        # 2**-560 * (1, 0.7, 0.4): secular_count falls across the window
        argv = ["spectrum", "--omega", "2.6497349136889905e-169", "--g", "1.8548144395822932e-169",
                "--delta", "1.0598939654755962e-169", "--method", "a", "--levels", "4",
                "--order", "150"]
        assert main(argv, out=io.StringIO()) == 3
        assert "the root count falls between samples" in capsys.readouterr().err
