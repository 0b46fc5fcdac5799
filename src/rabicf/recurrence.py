"""The scaled two-term recurrence behind both continued fractions.

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

``scaled_pair`` runs on Python floats.  Its ratio form, the forward pivots
that count roots, is ``model.pivot_sweep``, the oracle's sweep.
"""

from __future__ import annotations

__all__ = ["RESCALE_LIMIT", "RESCALE", "Scaled", "scaled_pair"]

RESCALE_LIMIT = 2.0**256
RESCALE = 2.0**-256


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
