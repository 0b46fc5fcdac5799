"""The scaled two-term recurrence behind both continued fractions.

Method a's convergents and secular form, and method b's characteristic
minors, all run the same recurrence

    y_k = p_k y_{k-1} - q_k y_{k-2}

with different coefficients.  Its solutions grow or shrink without bound
with the order, so the running pair (y_{k-1}, y_k) is rescaled by an exact
power of two whenever its larger magnitude leaves [2**-256, 2**256]: down
above 2**256, up when nonzero below 2**-256.  Power-of-two scaling commutes
with rounding, so every value keeps the bits it would have unscaled, up to
that factor, and signs and ratios are exact.

``scaled_pair`` runs on Python floats (or mpmath numbers).
"""

from __future__ import annotations

__all__ = ["RESCALE_LIMIT", "RESCALE", "scaled_pair"]

RESCALE_LIMIT = 2.0**256
RESCALE = 2.0**-256


def scaled_pair(prev, cur, steps):
    """Run the recurrence over ``steps``, an iterable of (p_k, q_k), from
    the seeds (y_{-1}, y_0) = (prev, cur).

    Returns (y_{K-1}, y_K, exponent) for the last step K: the true pair is
    the returned pair times 2**exponent.  Plain arithmetic and comparisons
    only, so mpmath numbers run through it unchanged.
    """
    lim, tiny = RESCALE_LIMIT, RESCALE
    exponent = 0
    for p, q in steps:
        prev, cur = cur, p * cur - q * prev
        # max(|prev|, |cur|) against both bounds, as chained compares: no
        # calls in the hot loop
        if not (-lim <= cur <= lim and -lim <= prev <= lim):
            prev *= tiny
            cur *= tiny
            exponent += 256
        elif -tiny < cur < tiny and -tiny < prev < tiny and (cur or prev):
            prev *= lim
            cur *= lim
            exponent -= 256
    return prev, cur, exponent

