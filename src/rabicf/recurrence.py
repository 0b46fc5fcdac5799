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

``scaled_pair`` runs on Python floats (or mpmath numbers).  Its ratio form
counts roots: ``negative_pivots`` counts the negative pivots of an LDL^T,
whose number is the number of negative eigenvalues (Sylvester; Parlett 1980).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

__all__ = ["RESCALE_LIMIT", "RESCALE", "PIVMIN", "Scaled", "scaled_pair", "negative_pivots"]

RESCALE_LIMIT = 2.0**256
RESCALE = 2.0**-256

# Pivots at or below PIVMIN count as negative, the oracle's rule; a copy of
# ``tridiag.PIVMIN``, so that the continued fractions share no code with it.
PIVMIN = 1e-290


class Scaled(float):
    """A recurrence value: this float, which sign tests read, times 2**exponent."""

    def __new__(cls, mantissa, exponent: int):
        (value := super().__new__(cls, mantissa)).exponent = exponent
        return value


def scaled_pair(steps):
    """Run the recurrence over ``steps``, an iterable of (p_k, q_k), from
    (y_{-1}, y_0) = (0, 1); a first step (t, 0) leaves the pair (1, t).

    Returns (y_{K-1}, y_K, exponent) for the last step K: the true pair is
    the returned pair times 2**exponent.  Plain arithmetic and comparisons
    only, so mpmath numbers run through it unchanged.
    """
    lim, tiny = RESCALE_LIMIT, RESCALE
    prev, cur, exponent = 0.0, 1.0, 0
    for p, q in steps:
        prev, cur = cur, p * cur - q * prev
        while not (-lim <= cur <= lim and -lim <= prev <= lim) and cur - cur == prev - prev == 0:
            prev, cur, exponent = prev * tiny, cur * tiny, exponent + 256
        while -tiny < cur < tiny and -tiny < prev < tiny and (cur or prev):
            prev, cur, exponent = prev * lim, cur * lim, exponent - 256
    return prev, cur, exponent


def negative_pivots(steps):
    """Number of pivots q_k = p_k - a_k/q_{k-1}, from q_{-1} = inf, at or
    below PIVMIN (each then continues as -PIVMIN or below) over ``steps``,
    an iterable of (p_k, a_k).  Python floats run a plain-float loop into an
    int; arrays p_k run as lanes, one numpy pass with the same arithmetic,
    into an int array."""
    first = next(steps := iter(steps))
    with np.errstate(divide="ignore", over="ignore"):
        if isinstance(first[0], np.ndarray):
            count, q = np.zeros(first[0].shape, dtype=np.int64), np.inf
            for p, a in chain([first], steps):
                neg = (q := p - a / q) <= PIVMIN
                count += neg
                q = np.where(neg, np.minimum(q, -PIVMIN), q)
            return count
        count, q = 0, np.inf
        for p, a in chain([first], steps):
            if (q := p - a / q) <= PIVMIN:
                count, q = count + 1, min(q, -PIVMIN)
        return count
