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

``scaled_pair`` runs on Python floats (or mpmath numbers); ``scaled_pair_lanes``
runs the same rule lane by lane on numpy arrays and gives the same bits
in every lane.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RESCALE_LIMIT", "RESCALE", "scaled_pair", "scaled_pair_lanes"]

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


def scaled_pair_lanes(prev: np.ndarray, cur: np.ndarray, rows):
    """Lane form of :func:`scaled_pair`: ``prev`` and ``cur`` hold one seed
    per lane and ``rows`` yields (p_k, q_k) per step, each an array over
    the lanes or a scalar.  Rows are consumed one at a time, so no
    (steps, lanes) coefficient table is built.

    Returns the last pair (y_{K-1}, y_K), each lane rescaled under the same
    rule as the scalar form and so bit-identical to it.
    """
    for p, q in rows:
        prev, cur = cur, p * cur - q * prev
        mag = np.maximum(np.abs(prev), np.abs(cur))
        down = mag > RESCALE_LIMIT
        up = mag < RESCALE
        if down.any() or up.any():
            scale = np.where(down, RESCALE, np.where(up & (mag > 0.0), RESCALE_LIMIT, 1.0))
            prev, cur = prev * scale, cur * scale
    return prev, cur
