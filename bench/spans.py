"""Span tracing of rabicf's layer functions, installed from outside.

``install`` wraps each target function at every module attribute that holds
it, because ``from x import y`` copies the reference: wrapping only the
defining module would miss the calls made through the copies.  A target
that no longer exists is skipped and shows up as zero calls.

A span is ``(name, start, end, parent, request)`` with ``parent`` the index
of the enclosing span (-1 at the top).  Spans stay in memory until the run
writes them out.  Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Layer (package module) -> functions traced in it.
TARGETS = {
    "cli": ("main",),
    "search": ("solve_method_a", "bracket_roots", "bisect_sign", "scan_levels"),
    "schweber": ("pair_secular", "spectral_function_a"),
    "resolvent": ("poles_of_resolvent", "char_poly", "resolvent_cf", "build_pathological"),
    "tridiag": ("sturm_count", "eigenvalues", "eigenvalues_batch"),
    "convergence": ("best_certificate", "tail_depth_bound"),
    "model": ("build_chain",),
}


def _nonfinite(args, kwargs, result):
    try:
        return {"nonfinite": 0 if math.isfinite(result) else 1}
    except TypeError:  # not a scalar: the counter stays at zero
        return {}


def _brackets(args, kwargs, result):
    return {"brackets": len(getattr(result, "brackets", ()))}


def _levels_kept(args, kwargs, result):
    return {"levels_kept": len(getattr(getattr(result, "spectrum", None), "levels", ()))}


def _events(args, kwargs, result):
    return {"events": len(getattr(result, "events", ()))}


def _chain_levels(args, kwargs, result):
    shape = getattr(result, "shape", ())
    return {"chain_levels": shape[0] * shape[1] if len(shape) == 2 else 0}


# Counts taken from a call's arguments and result, next to its span.
OBSERVERS = {
    "schweber.pair_secular": _nonfinite,
    "search.bracket_roots": _brackets,
    "search.solve_method_a": _levels_kept,
    "search.scan_levels": _events,
    "tridiag.eigenvalues_batch": _chain_levels,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.request = -1
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if observe is not None:
                counts[name].update(observe(args, kwargs, result))
            return result

        return traced

    def install(self, package: str = "rabicf") -> dict[str, int]:
        """Wrap every target at each of its bindings in the loaded package
        modules; returns the number of bindings wrapped per name."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        bound = {}
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"{package}.{layer}")
            for fname in names:
                name = f"{layer}.{fname}"
                original = getattr(home, fname, None)
                bound[name] = 0
                if original is None:
                    continue
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
                            bound[name] += 1
        return bound

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Spans as tab-separated rows: id, parent, request, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\trequest\tname\tstart\tend\n")
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{request}\t{name}\t{start!r}\t{end!r}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.
    Children of one span never overlap: the program is single-threaded."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def totals(spans) -> dict[str, dict[str, float]]:
    """Per name: calls, inclusive seconds (a span nested in a span of the
    same name is not counted twice), self seconds, and calls by the name
    of the direct parent."""
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                "by_parent": Counter()})
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        entry["by_parent"][spans[parent][0] if parent >= 0 else None] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics: (name, unit, better).  Names ending in .calls, .s or
# .self_s read the span totals; the rest are computed in layer_metrics.
LAYER_METRICS = [
    ("schweber.pair_secular.calls", "count", "lower"),
    ("schweber.pair_secular.s", "s", "lower"),
    ("schweber.pair_secular.scan_calls", "count", "lower"),
    ("schweber.pair_secular.refine_calls", "count", "lower"),
    ("schweber.pair_secular.nonfinite_frac", "ratio", "lower"),
    ("schweber.spectral_function_a.calls", "count", "lower"),
    ("schweber.spectral_function_a.s", "s", "lower"),
    ("search.solve_method_a.s", "s", "lower"),
    ("search.bracket_roots.s", "s", "lower"),
    ("search.bracket_roots.brackets", "count", "higher"),
    ("search.bisect_sign.calls", "count", "lower"),
    ("search.bisect_sign.s", "s", "lower"),
    ("search.refine_useful_frac", "ratio", "higher"),
    ("search.scan_levels.s", "s", "lower"),
    ("search.scan_levels.self_s", "s", "lower"),
    ("search.scan_levels.events", "count", "higher"),
    ("resolvent.poles_of_resolvent.calls", "count", "lower"),
    ("resolvent.poles_of_resolvent.s", "s", "lower"),
    ("resolvent.poles_of_resolvent.self_s", "s", "lower"),
    ("resolvent.char_poly.calls", "count", "lower"),
    ("resolvent.char_poly.s", "s", "lower"),
    ("resolvent.resolvent_cf.calls", "count", "lower"),
    ("resolvent.resolvent_cf.s", "s", "lower"),
    ("resolvent.build_pathological.calls", "count", "lower"),
    ("resolvent.build_pathological.s", "s", "lower"),
    ("tridiag.sturm_count.calls", "count", "lower"),
    ("tridiag.eigenvalues.calls", "count", "lower"),
    ("tridiag.eigenvalues.s", "s", "lower"),
    ("tridiag.eigenvalues_batch.calls", "count", "lower"),
    ("tridiag.eigenvalues_batch.s", "s", "lower"),
    ("tridiag.eigenvalues_batch.chain_levels", "count", "lower"),
    ("convergence.best_certificate.s", "s", "lower"),
    ("convergence.tail_depth_bound.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("model.build_chain.calls", "count", "lower"),
    ("model.build_chain.s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unbound_names", "count", "lower"),
    ("verify.max_error", "omega", "lower"),
]


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every LAYER_METRICS value from the tracer; ``extra`` supplies the
    trace.* and verify.* entries measured by the run itself."""
    tot = totals(tracer.spans)
    counts = tracer.counts
    secular = tot.get("schweber.pair_secular", {"calls": 0, "by_parent": Counter()})
    special = {
        "schweber.pair_secular.scan_calls": secular["by_parent"]["search.bracket_roots"],
        "schweber.pair_secular.refine_calls": secular["by_parent"]["search.bisect_sign"],
        "schweber.pair_secular.nonfinite_frac":
            _ratio(counts["schweber.pair_secular"]["nonfinite"], secular["calls"]),
        "search.bracket_roots.brackets": counts["search.bracket_roots"]["brackets"],
        "search.refine_useful_frac": _ratio(counts["search.solve_method_a"]["levels_kept"],
                                            counts["search.bracket_roots"]["brackets"]),
        "search.scan_levels.events": counts["search.scan_levels"]["events"],
        "tridiag.eigenvalues_batch.chain_levels":
            counts["tridiag.eigenvalues_batch"]["chain_levels"],
    } | extra
    values = {}
    for metric, _, _ in LAYER_METRICS:
        if metric in special:
            values[metric] = special[metric]
            continue
        name, _, field = metric.rpartition(".")
        entry = tot.get(name)
        values[metric] = entry[field] if entry else 0
    return values
