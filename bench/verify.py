"""Independent reference checks for rabicf CLI outputs.

Nothing here imports rabicf.  Parity chains are rebuilt from the model's
definition (diag_j = j*omega + s*(-1)**j*delta, offdiag_j = g*sqrt(j)) and
diagonalised with LAPACK through ``scipy.linalg.eigh_tridiagonal``, so a
defect shared by the program's three solvers cannot hide here.

Tolerances are absolute, in units of omega.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

# Per-method spectrum tolerance.  Methods b and diag refine to 1e-12 and
# 1e-11*omega on the requested chain; method a's continued fraction adds
# its own truncation at the requested depth.
SPECTRUM_TOL = {"a": 1e-8, "b": 1e-9, "diag": 1e-9}
# Distance of the planted eigenvalue from e0 in a pathological sweep.
PATHOLOGICAL_TOL = 1e-9
# Relative agreement of a bound request's certificate margin.
MARGIN_RTOL = 1e-9
# Gap of the two levels at a refined crossing, and each level track.
CROSSING_TOL = 1e-8
TRACK_TOL = 1e-9
# |x* - k*omega| at a crossing: the bound of acceptance criterion 7.
JUDD_TOL = 1e-4


@dataclass(frozen=True)
class Check:
    """Verdict on one output: ``error`` is the largest deviation seen."""

    ok: bool
    error: float
    reason: str = ""


def chain(omega: float, g: float, delta: float, sign: int, order: int):
    """(diag, offdiag) of one truncated parity chain of dimension order+1."""
    j = np.arange(order + 1, dtype=float)
    diag = j * omega + sign * (-1.0) ** j * delta
    return diag, g * np.sqrt(np.arange(1, order + 1, dtype=float))


def lowest(omega: float, g: float, delta: float, sign: int, order: int, k: int) -> np.ndarray:
    """The k smallest eigenvalues of one parity chain."""
    diag, off = chain(omega, g, delta, sign, order)
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(0, k - 1))


def reference_levels(spec: dict, order: int) -> np.ndarray:
    """First ``levels`` reference energies for a spectrum request: one
    parity chain, or the union of both (always for method a)."""
    args = (spec["omega"], spec["g"], spec["delta"])
    k = spec["levels"]
    if spec["method"] != "a" and spec["parity"] is not None:
        return lowest(*args, _SIGN[spec["parity"]], order, k)
    both = np.concatenate([lowest(*args, +1, order, k), lowest(*args, -1, order, k)])
    return np.sort(both)[:k]


_SIGN = {"plus": +1, "minus": -1}


def parse_sections(text: str) -> list[tuple[dict, list[str], list[list[str]]]]:
    """Split CSV output into (metadata, header, rows) sections; sections
    are separated by blank lines."""
    sections = []
    for block in text.split("\n\n"):
        meta, data = {}, []
        for line in block.splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                meta[key] = value
            elif line:
                data.append(line)
        if data:
            rows = list(csv.reader(data))
            sections.append((meta, rows[0], rows[1:]))
    return sections


def check_spectrum(spec: dict, text: str) -> Check:
    """Levels against both parity chains at twice the requested order."""
    _, _, rows = parse_sections(text)[0]
    energies = np.array([float(r[1]) for r in rows])
    if len(energies) != spec["levels"]:
        return Check(False, math.inf, f"{len(energies)} of {spec['levels']} levels returned")
    ref = reference_levels(spec, 2 * spec["order"])
    error = float(np.max(np.abs(energies - ref)))
    tol = SPECTRUM_TOL[spec["method"]] * spec["omega"]
    if error > tol:
        worst = int(np.argmax(np.abs(energies - ref)))
        return Check(False, error, f"level {worst}: {float(energies[worst])!r} "
                                   f"vs reference {float(ref[worst])!r}")
    return Check(True, error)


def check_pathological(spec: dict, text: str) -> Check:
    """Rebuild each modified chain from the output's planted entries and
    require an eigenvalue at e0."""
    _, _, rows = parse_sections(text)[0]
    orders = [int(r[0]) for r in rows]
    if orders != spec["orders"]:
        return Check(False, math.inf, f"orders {orders} != requested {spec['orders']}")
    error = 0.0
    for row in rows:
        n = int(row[0])
        diag, off = chain(spec["omega"], spec["g"], spec["delta"], _SIGN[spec["parity"]], n)
        diag[n] = float(row[1])
        if spec["variant"] == "diag-offdiag":
            off[n - 1] = float(row[2])
        eig = eigh_tridiagonal(diag, off, eigvals_only=True)
        error = max(error, float(np.min(np.abs(eig - spec["e0"]))))
    if error > PATHOLOGICAL_TOL * spec["omega"]:
        return Check(False, error, f"no eigenvalue within {error:.3g} of e0")
    return Check(True, error)


def check_bound(spec: dict, text: str) -> Check:
    """The certificate must hold over [n, 10 n] with the reported c, and
    its margin must match a direct evaluation of |b_j| - a_j/c - c."""
    _, _, rows = parse_sections(text)[0]
    n, c, margin, holds, start, up_to = rows[0][:6]
    n, c, margin, start, up_to = int(n), float(c), float(margin), int(start), int(up_to)
    if (start, up_to) != (n, 10 * n):
        return Check(False, math.inf, f"verified range [{start}, {up_to}] != [{n}, {10 * n}]")
    w, g, d = spec["omega"], spec["g"], spec["delta"]
    j = np.arange(start, up_to + 1, dtype=float)
    b = spec["energy"] - j * w - _SIGN[spec["parity"]] * (-1.0) ** j * d
    direct = float(np.min(np.abs(b) - j * g * g / c - c))
    error = abs(direct - margin)
    if error > MARGIN_RTOL * (1.0 + abs(direct)):
        return Check(False, error, f"margin {margin!r} vs direct {direct!r}")
    if holds != "True" or direct < 0.0:
        return Check(False, error, f"certificate fails at the depth bound (margin {direct!r})")
    return Check(True, error)


def _scan_params(spec: dict, value: float) -> tuple[float, float, float]:
    if spec["param"] == "g":
        return spec["omega"], value, spec["delta"]
    return spec["omega"], spec["g"], value


def check_scan(spec: dict, text: str) -> Check:
    """Level tracks, the event count on the scan grid, and each event's
    degeneracy and Juddian position, all against the reference chains at
    the requested order."""
    sections = parse_sections(text)
    _, _, events = sections[0]
    _, _, tracks = sections[1]
    k, order = spec["levels"], spec["order"]
    values = np.linspace(spec["from"], spec["to"], spec["steps"])
    ep = np.array([lowest(*_scan_params(spec, v), +1, order, k) for v in values])
    em = np.array([lowest(*_scan_params(spec, v), -1, order, k) for v in values])

    got = np.array([[float(x) for x in row] for row in tracks])
    if got.shape != (len(values), 1 + 2 * k):
        return Check(False, math.inf, f"track table shape {got.shape}")
    error = float(np.max(np.abs(got[:, 1:] - np.hstack([ep, em]))))
    if not np.array_equal(got[:, 0], values) or error > TRACK_TOL * spec["omega"]:
        return Check(False, error, f"level tracks off by {error:.3g}")

    expected = sum(
        int(np.count_nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0))
        for d in (ep[:, a] - em[:, b] for a in range(k) for b in range(k))
    )
    if len(events) != expected:
        return Check(False, error,
                     f"{len(events)} events, reference grid has {expected} sign changes")

    w = spec["omega"]
    for row in events:
        value, energy = float(row[0]), float(row[1])
        a, b = int(row[5]), int(row[6])
        params = _scan_params(spec, value)
        e_plus = lowest(*params, +1, order, a + 1)[a]
        e_minus = lowest(*params, -1, order, b + 1)[b]
        mid = 0.5 * (e_plus + e_minus)
        gap = max(abs(e_plus - e_minus), abs(energy - mid))
        error = max(error, gap)
        if gap > CROSSING_TOL * w:
            return Check(False, error, f"event at {value!r}: levels {e_plus!r}, {e_minus!r}")
        shifted = mid + params[1] ** 2 / w
        if abs(shifted - round(shifted / w) * w) > JUDD_TOL * w:
            return Check(False, error, f"event at {value!r}: x* = {shifted!r} off the lattice")
    return Check(True, error)


CHECKS = {
    "spectrum": check_spectrum,
    "pathological": check_pathological,
    "bound": check_bound,
    "scan": check_scan,
}


def check(spec: dict, text: str) -> Check:
    """Verdict for one request's CSV output; malformed output fails."""
    try:
        return CHECKS[spec["kind"]](spec, text)
    except (IndexError, ValueError) as exc:
        return Check(False, math.inf, f"unreadable output: {exc}")
