"""Seeded request batches for the three benchmark workloads.

A batch is a list of ``Request``s: the CLI argv the program sees, plus the
same parameters as a ``spec`` dict for the verifier.  Every structural size
(method, parity, order, levels, steps) and every coupling bin sits in a
fixed slot, so each seed asks for about the same amount of work; the seed
draws the physics (g within its bin, delta, energies, scan ranges) and the
request order.  Continuous draws are rounded to four decimals so the argv
strings and the specs hold identical floats.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

NAMES = ("spectra-a", "spectra-bd", "coupling-scan")

# Held out from every tuning run; later claims are checked on it as well.
HELD_OUT_SEED = 20121205

# Layer functions each workload must call at least once.  A zero count on
# one of these means a binding moved and the traced run no longer sees it.
EXPECTED_CALLS = {
    "spectra-a": (
        "cli.main", "search.solve_method_a", "search.bracket_roots",
        "search.bisect_sign", "schweber.pair_secular", "schweber.spectral_function_a",
    ),
    "spectra-bd": (
        "cli.main", "search.bisect_sign", "resolvent.poles_of_resolvent",
        "resolvent.char_poly", "resolvent.resolvent_cf", "resolvent.build_pathological",
        "tridiag.sturm_count", "tridiag.eigenvalues", "convergence.best_certificate",
        "convergence.tail_depth_bound", "model.build_chain",
    ),
    "coupling-scan": (
        "cli.main", "search.scan_levels", "tridiag.eigenvalues_batch", "model.build_chain",
    ),
}

# Time of one pass over the batch at nominal machine speed (speed.py), as
# measured when the benchmark was added.  A run makes
# max(1, seconds // PASS_S) passes: the count depends only on --seconds, so
# ``attempted`` and ``failed`` are the same on every run of a seed, however
# fast the host happens to be.  Fixed here, not re-measured, so a faster or
# slower program keeps the same work per run.
PASS_S = {"spectra-a": 17.5, "spectra-bd": 8.5, "coupling-scan": 21.0}


def passes(workload: str, seconds: float) -> int:
    """Number of passes a run of ``seconds`` makes over the batch."""
    return max(1, int(seconds // PASS_S[workload]))


# Small requests run once, untimed, before measuring; setup_s includes them.
WARMUP = {
    "spectra-a": ["spectrum", "--omega", "1", "--g", "0.5", "--delta", "0.3",
                  "--method", "a", "--order", "50", "--levels", "4"],
    "spectra-bd": ["spectrum", "--omega", "1", "--g", "0.5", "--delta", "0.3",
                   "--method", "b", "--order", "100", "--levels", "4"],
    "coupling-scan": ["scan", "--omega", "1", "--g", "0.7", "--delta", "0.4", "--param", "g",
                      "--from", "0.05", "--to", "0.1", "--steps", "10", "--levels", "1",
                      "--order", "20"],
}


@dataclass(frozen=True)
class Request:
    argv: list[str]
    spec: dict


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One draw from each of n equal bins of [lo, hi].  Slot i takes bin
    7*i mod n (n is never a multiple of 7), which spreads weak and strong
    coupling evenly over the slots and keeps the pairing the same for
    every seed."""
    return [round(lo + (hi - lo) * ((7 * i) % n + rng.random()) / n, 4) for i in range(n)]


def _model(spec: dict) -> list[str]:
    return ["--omega", repr(spec["omega"]), "--g", repr(spec["g"]),
            "--delta", repr(spec["delta"])]


def spectrum(g, delta, method, parity, order, levels) -> Request:
    spec = {"kind": "spectrum", "omega": 1.0, "g": g, "delta": delta, "method": method,
            "parity": parity, "order": order, "levels": levels}
    argv = ["spectrum", *_model(spec), "--method", method,
            "--order", str(order), "--levels", str(levels)]
    if parity is not None:
        argv += ["--parity", parity]
    return Request(argv, spec)


def pathological(g, delta, e0, parity, variant, orders) -> Request:
    spec = {"kind": "pathological", "omega": 1.0, "g": g, "delta": delta, "e0": e0,
            "parity": parity, "variant": variant, "orders": orders}
    argv = ["pathological", *_model(spec), "--e0", repr(e0), "--parity", parity,
            "--order", ",".join(map(str, orders)), "--variant", variant]
    return Request(argv, spec)


def bound(g, delta, energy, parity) -> Request:
    spec = {"kind": "bound", "omega": 1.0, "g": g, "delta": delta, "energy": energy,
            "parity": parity}
    argv = ["bound", *_model(spec), "--energy", repr(energy), "--parity", parity]
    return Request(argv, spec)


def scan(param, g, delta, start, stop, steps, levels, order) -> Request:
    spec = {"kind": "scan", "omega": 1.0, "g": g, "delta": delta, "param": param,
            "from": start, "to": stop, "steps": steps, "levels": levels, "order": order}
    argv = ["scan", *_model(spec), "--param", param, "--from", repr(start), "--to", repr(stop),
            "--steps", str(steps), "--levels", str(levels), "--order", str(order)]
    return Request(argv, spec)


def spectra_a(rng: random.Random) -> list[Request]:
    """Method a over g in [0.2, 2.0]: 18 seeded requests at orders 100..300
    and 6..12 levels, plus the two lost-level cases of ROADMAP item 2, which
    stay in the batch and count as failed while the defect lasts."""
    n = 18
    gs = _strata(rng, n, 0.2, 2.0)
    batch = [
        spectrum(gs[i], _draw(rng, 0.1, 1.5), "a", None,
                 100 + round(200 * i / (n - 1)), 6 + i % 7)
        for i in range(n)
    ]
    batch += [spectrum(1.0, 0.4, "a", None, 300, 12), spectrum(2.0, 0.4, "a", None, 300, 12)]
    rng.shuffle(batch)
    return batch


def _clear_of_poles(e0, g, delta, parity, orders, gap=1e-3) -> bool:
    from verify import chain  # scipy is only needed when generating this workload
    from scipy.linalg import eigh_tridiagonal

    sign = 1 if parity == "plus" else -1
    for order in orders:
        eig = eigh_tridiagonal(*chain(1.0, g, delta, sign, order), eigvals_only=True)
        if min(abs(eig - e0)) < gap:
            return False
    return True


def spectra_bd(rng: random.Random) -> list[Request]:
    """Methods b and diag, each parity and the union, at orders 300, 600
    and 1200 (18 requests), interleaved with 6 pathological sweeps and 6
    bound requests.  Pathological energies keep 1e-3 from every genuine
    pole of the sweep, where the CLI refuses them by design."""
    combos = [(m, p, n) for n in (300, 600, 1200) for m in ("b", "diag")
              for p in ("plus", "minus", None)]
    gs = _strata(rng, len(combos), 0.2, 2.0)
    batch = [spectrum(g, _draw(rng, 0.1, 1.5), m, p, n, 8) for g, (m, p, n) in zip(gs, combos)]
    orders = [10, 20, 40, 80, 160]
    for i, g in enumerate(_strata(rng, 6, 0.2, 2.0)):
        parity = ("plus", "minus")[i % 2]
        variant = ("diag", "diag-offdiag")[i // 3]
        delta = _draw(rng, 0.1, 1.5)
        e0 = _draw(rng, -1.0, 5.0)
        while not _clear_of_poles(e0, g, delta, parity, orders):
            e0 = _draw(rng, -1.0, 5.0)
        batch.append(pathological(g, delta, e0, parity, variant, orders))
    for i, g in enumerate(_strata(rng, 6, 0.2, 2.0)):
        parity = ("plus", "minus")[i % 2]
        batch.append(bound(g, _draw(rng, 0.1, 1.5), _draw(rng, -5.0, 20.0), parity))
    rng.shuffle(batch)
    return batch


def coupling_scan(rng: random.Random) -> list[Request]:
    """The README coupling scan (fixed) and one seeded delta scan that
    always spans a crossing."""
    batch = [
        scan("g", 0.7, 0.4, 0.05, 1.2, 600, 8, 300),
        scan("delta", _draw(rng, 0.5, 0.8), 0.4, _draw(rng, 0.05, 0.15), _draw(rng, 1.4, 1.6),
             200, 6, 150),
    ]
    rng.shuffle(batch)
    return batch


_BUILDERS = {"spectra-a": spectra_a, "spectra-bd": spectra_bd, "coupling-scan": coupling_scan}


def generate(workload: str, seed: int) -> list[Request]:
    """The batch for one workload and seed; the same seed gives the same batch."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def argv_hash(batch: list[Request]) -> str:
    """sha256 of the batch's argv lists, to show two runs saw the same inputs."""
    return hashlib.sha256(json.dumps([r.argv for r in batch]).encode()).hexdigest()
