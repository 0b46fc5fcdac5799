"""Exact-integer Sturm counts of a parity chain, and the exact sign of
Judd's constraint polynomial: references that share no arithmetic with any
route.

The leading minors P_j = det(E - H)_{0..j-1} of a chain obey

    P_{j+1} = (E - d_j) P_j - o_j**2 P_{j-1},   (P_0, P_1) = (1, E - d_0),

with o_j the off-diagonal into row j.  On E and the chain's floats scaled
to ints by one power of two, 2**s (``resolvent._dyadic_steps``), Q_j =
2**(s j) P_j runs in Python ints with no rounding.  The forward pivot q_j =
-P_{j+1}/P_j of H - E is negative exactly where P_{j+1} and P_j share their
sign, and the number of negative pivots is the number of eigenvalues below
E (Sylvester).  The squares o_j**2 are exact here; the float routes round
them once.

The count stops once every later pivot is proven positive, exactly: with
c_j = isqrt(A_j) (1 where A_j = 0) on the scaled squares A_j, and c_{N+1} =
1, every row k > K is dominant, (d_k - E) - a_k/c_k >= c_{k+1}, and q_K >=
c_{K+1}; by induction q_k >= c_{k+1} > 0 for every k > K.  This is the
floats' Pringsheim exit (``model.pivot_sweep``) with rational c_j for
sqrt(a_j), tested with no slack.
"""

from math import isqrt

from rabicf.resolvent import _dyadic_steps


def exact_count(energy: float, chain) -> int:
    """Eigenvalues of ``chain`` below the float ``energy``, counted exactly;
    ValueError where a leading minor vanishes (E is then an eigenvalue of a
    leading block, and the count depends on the convention at zero)."""
    _, b, a, _ = _dyadic_steps(float(energy), chain.diag.tolist(), chain.offdiag.tolist())
    n = len(b) - 1
    c = [1] + [isqrt(x) or 1 for x in a] + [1]  # c[j] for row j; c[0] unread
    dominant = [True] * (n + 2)  # dominant[j]: every row from j on
    for j in range(n, 0, -1):
        dominant[j] = dominant[j + 1] and -b[j] * c[j] >= a[j - 1] + c[j] * c[j + 1]
    count, prev, cur = 0, 1, b[0]
    for j in range(n + 1):  # cur = Q_{j+1}, prev = Q_j: the pivot q_j
        if j:
            prev, cur = cur, b[j] * cur - a[j - 1] * prev
        if cur == 0:
            raise ValueError(f"a leading minor of order {j + 1} vanishes at {energy!r}")
        count += (cur > 0) == (prev > 0)
        # q_j * 2**s = -Q_{j+1}/Q_j >= c_{j + 1}
        if dominant[j + 1] and (-cur if prev > 0 else cur) >= c[j + 1] * abs(prev):
            break
    return count


def judd_sign(n: int, omega: float, g: float, delta: float) -> int:
    """The sign (-1, 0 or 1) of W_{n-1} at x = n*omega, exactly: Judd's
    constraint polynomial in g**2 and delta**2, which vanishes where a level
    of each parity sits at x = n*omega (Judd, J. Phys. C 12, 1685 (1979)).

    W_m is the continuant of method a's f_0..f_m (``rabicf.schweber``).
    With d_k = x - k*omega and F_k = 4 g**2 d_k + omega (delta**2 - d_k**2),
    R_m = W_m * prod_{k <= m} (2 g omega d_k) obeys

        R_m = F_m R_{m-1} - (2 g omega)**2 m d_m d_{m-1} R_{m-2},
        (R_{-2}, R_{-1}) = (0, 1),

    each term homogeneous of degree 3(m + 1) in omega, g and delta, which
    run here as the floats times one power of two, in ints.  At x = n*omega
    every d_k, k < n, is positive, so W_{n-1} and R_{n-1} share their sign."""
    ratios = [float(v).as_integer_ratio() for v in (omega, g, delta)]
    scale = max(den for _, den in ratios)
    w, g, delta = (num * (scale // den) for num, den in ratios)
    c = (2 * g * w) ** 2
    prev, cur = 0, 1
    for m in range(n):
        d, d_prev = (n - m) * w, (n - m + 1) * w  # d_m and d_{m-1}
        f = 4 * g * g * d + w * (delta * delta - d * d)
        prev, cur = cur, f * cur - c * m * d * d_prev * prev
    return (cur > 0) - (cur < 0)
