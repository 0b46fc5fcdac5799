"""The scaled two-term recurrence and the pivot count behind both continued
fractions.

Method a's convergents and secular form, and method b's characteristic
minors, all run the same recurrence

    y_k = p_k y_{k-1} - q_k y_{k-2}

with different coefficients, from (y_{-1}, y_0) = (0, 1): a sequence's own
initial terms are its first steps.  Its solutions grow or shrink without
bound with the order, so whenever the larger magnitude of the running pair
(y_{k-1}, y_k) leaves [2**-256, 2**256] the pair is rescaled by 2**256
until it is back: down above 2**256, up when nonzero below 2**-256 (a pair
holding inf or NaN is left as it is).  Power-of-two scaling commutes with
rounding, so every value keeps the bits it would have unscaled, up to that
factor, and signs and ratios are exact.  A ``Scaled`` float keeps that factor.
A step whose new y_k lies in [2**-256, 2**256] needs no rescale (y_{k-1},
the last y_k, is within 2**256), so one range test a step decides whether
the rule runs.

``scaled_pair`` runs on Python floats.  Its ratio form counts roots:
``negative_pivots`` counts the negative pivots of an LDL^T, whose number is
the number of negative eigenvalues (Sylvester; Parlett 1980), in one
blocked numpy sweep over an array of energies (0-d for one).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["RESCALE_LIMIT", "RESCALE", "PIVMIN", "SLACK", "Scaled", "scaled_pair",
           "negative_pivots", "dominant_row"]

RESCALE_LIMIT = 2.0**256
RESCALE = 2.0**-256

# Pivots at or below PIVMIN count as negative, the oracle's rule; a copy of
# ``tridiag.PIVMIN``, so that the continued fractions share no code with it.
PIVMIN = 1e-290

# Steps a block of the lane sweep runs between two PIVMIN checks.
_ROWS = 32

# Relative slack of the dominance exit, a copy of ``tridiag._SLACK``: far
# above the rounding of one step, far below any margin that decides where a
# sweep stops.
SLACK = 1e-9


class Scaled(float):
    """A recurrence value: this float, which sign tests read, times 2**exponent."""

    def __new__(cls, mantissa, exponent: int):
        (value := super().__new__(cls, mantissa)).exponent = exponent
        return value


def scaled_pair(steps):
    """Run the recurrence over ``steps``, an iterable of (p_k, q_k), from
    (y_{-1}, y_0) = (0, 1); a first step (t, 0) leaves the pair (1, t).

    Returns (y_{K-1}, y_K, exponent) for the last step K: the true pair is
    the returned pair times 2**exponent.
    """
    lim, tiny = RESCALE_LIMIT, RESCALE
    prev, cur, exponent = 0.0, 1.0, 0
    for p, q in steps:
        prev, cur = cur, p * cur - q * prev
        if tiny <= abs(cur) <= lim:  # no rescale: prev, the last cur, left the loops within lim
            continue
        while not (-lim <= cur <= lim and -lim <= prev <= lim) and cur - cur == prev - prev == 0:
            prev, cur, exponent = prev * tiny, cur * tiny, exponent + 256
        while -tiny < cur < tiny and -tiny < prev < tiny and (cur or prev):
            prev, cur, exponent = prev * lim, cur * lim, exponent - 256
    return prev, cur, exponent


def negative_pivots(couplings, rows, dominant):
    """Number of pivots q_k = p_k - a_k/q_{k-1}, from q_{-1} = inf, at or
    below PIVMIN (each then continues as -PIVMIN or below), in every lane
    of an energy array: ``couplings`` is the sequence a_0 .. a_K and
    ``rows(i, j)`` gives the (j - i, *lanes) array p_i .. p_{j-1}, counted
    into an int array of the lanes' shape (0-d for one energy).

    The sweep is blocked, with the PIVMIN check deferred (LAPACK
    ``dlaneg``; Marques, Riedy and Voemel, SIAM J. Sci. Comput. 28(5),
    2006), as ``tridiag._negative_pivot_counts`` runs it: _ROWS rows are
    filled at a time and each step is two in-place calls.  After the block,
    the first row with a pivot in [-PIVMIN, PIVMIN] has those lanes set to
    -PIVMIN and the rows after it are filled and run again, so every count
    is the per-step rule's, bit for bit.  Block row i is step j0 + i - 1,
    and row 0 holds the last pivot of the block before (inf before the
    first).  The errstate covers ``rows``, which may give inf or overflow,
    and a zero pivot, which divides by zero before its repair.  The loop is
    written out again so that the oracle shares no code with the continued
    fractions.

    ``dominant`` = J is the caller's promise that every row from J on is
    diagonally dominant in every lane: p_j >= b_j + b_{j+1} +
    SLACK*(|p_j| + b_j + b_{j+1}) + 4*PIVMIN with b_j = sqrt(a_j) (b past
    the last step may read as any value >= 0); J = len(couplings) promises
    nothing.  The sweep stops after the first block whose last step K has
    K + 1 >= J and q_K >= b_{K+1}*(1 + SLACK) in every lane: by induction
    q_j > p_j - b_j >= b_{j+1}*(1 + SLACK) for every j > K, the slack
    covering the rounding of each step, so no later pivot reaches PIVMIN
    and the count is the full sweep's, bit for bit.  NaN lanes never pass;
    ``dominant_row`` finds J.
    """
    steps = len(couplings)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fill = rows(0, min(_ROWS, steps))  # the first block, which gives the lanes' shape
        block = np.empty((_ROWS + 1,) + fill.shape[1:])
        row = [block[i, ...] for i in range(_ROWS + 1)]  # views, also for 0-d lanes
        neg = np.empty(block.shape, dtype=bool)
        t = np.empty(fill.shape[1:])
        count = np.zeros(fill.shape[1:], dtype=np.int64)
        block[0] = np.inf
        for j0 in range(0, steps, _ROWS):
            m = min(_ROWS, steps - j0)
            block[1:m + 1] = fill if j0 == 0 else rows(j0, j0 + m)
            first = 1
            while True:
                for a, before, q in zip(couplings[j0 + first - 1:j0 + m], row[first - 1:m],
                                        row[first:m + 1]):
                    np.divide(a, before, out=t)
                    np.subtract(q, t, out=q)
                # no pivot in [-PIVMIN, PIVMIN] when as many are <= PIVMIN as < -PIVMIN
                np.less_equal(block[first:m + 1], PIVMIN, out=neg[first:m + 1])
                if np.count_nonzero(neg[first:m + 1]) == np.count_nonzero(
                        block[first:m + 1] < -PIVMIN):
                    break
                tiny = np.abs(block[first:m + 1]) <= PIVMIN
                r = first + int(np.flatnonzero(tiny.reshape(len(tiny), -1).any(axis=1))[0])
                np.copyto(row[r], -PIVMIN, where=tiny[r - first])
                if r < m:
                    block[r + 1:m + 1] = rows(j0 + r, j0 + m)
                first = r + 1
            count += np.add.reduce(neg[1:m + 1].view(np.uint8), axis=0, dtype=np.uint8)
            block[0] = block[m]
            if dominant <= j0 + m < steps and np.count_nonzero(
                    block[0] >= math.sqrt(couplings[j0 + m]) * (1.0 + SLACK)) == block[0].size:
                break
    return count


def dominant_row(p, b) -> int:
    """The first row J from which every row j of ``p``, the rows p_0 .. p_K
    at or below those of every lane, passes the dominance test that
    ``negative_pivots`` takes from J on, with ``b`` = b_0 .. b_{K+1};
    K + 1 when the last row fails.  A NaN row fails."""
    r = b[:-1] + b[1:]
    with np.errstate(invalid="ignore", over="ignore"):  # such a row fails
        below = np.flatnonzero(~(p - r - (SLACK * (np.abs(p) + r) + 4.0 * PIVMIN) >= 0.0))
    return int(below[-1]) + 1 if below.size else 0
