"""Self-tests of the benchmark: percentile rule, span self time, verifier,
failure accounting, tracing, and agreement with BENCHMARK.json."""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import summary  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


class TestTailPercentile:
    def test_hundred_samples_give_p90(self):
        p, value, beyond = summary.tail_percentile([float(i) for i in range(1, 101)])
        assert (p, value, beyond) == (90, 90.0, 10)

    def test_twenty_samples_give_p50(self):
        p, value, beyond = summary.tail_percentile([float(i) for i in range(20, 0, -1)])
        assert (p, value, beyond) == (50, 10.0, 10)

    @pytest.mark.parametrize("n", [0, 2, 19])
    def test_too_few_samples_omit_the_tail(self, n):
        assert summary.tail_percentile([1.0] * n) is None


def _span(name, start, end, parent):
    return (name, start, end, parent, 0)


class TestSpans:
    TREE = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("search.bisect_sign", 1.0, 4.0, 0),
        _span("schweber.pair_secular", 2.0, 3.0, 1),
        _span("search.bracket_roots", 5.0, 7.0, 0),
        _span("schweber.pair_secular", 5.5, 6.0, 3),
        _span("schweber.pair_secular", 6.0, 6.5, 3),
    ]

    def test_self_time_subtracts_direct_children(self):
        assert spans.self_times(self.TREE) == [5.0, 2.0, 1.0, 1.0, 0.5, 0.5]

    def test_totals_count_calls_by_parent(self):
        tot = spans.totals(self.TREE)
        secular = tot["schweber.pair_secular"]
        assert secular["calls"] == 3
        assert secular["s"] == 2.0
        assert secular["by_parent"]["search.bracket_roots"] == 2
        assert secular["by_parent"]["search.bisect_sign"] == 1
        assert tot["cli.main"]["self_s"] == 5.0

    def test_nested_same_name_counts_once(self):
        tree = [_span("x", 0.0, 4.0, -1), _span("x", 1.0, 2.0, 0)]
        assert spans.totals(tree)["x"]["s"] == 4.0

    def test_tracing_keeps_output_and_sees_every_binding(self):
        import rabicf.cli as cli

        argv = ["spectrum", "--omega", "1", "--g", "0.7", "--delta", "0.4",
                "--method", "a", "--order", "30", "--levels", "3"]
        original = cli.main
        plain = harness.call(cli.main, argv)
        tracer = spans.Tracer()
        bound = tracer.install()
        try:
            traced = harness.call(cli.main, argv)
        finally:
            tracer.uninstall()
        assert (traced.rc, traced.text) == (plain.rc, plain.text)
        assert all(count >= 1 for count in bound.values()), bound
        values = spans.layer_metrics(tracer, {})
        calls = values["schweber.pair_secular.calls"]
        assert calls > 0
        assert (values["schweber.pair_secular.scan_calls"]
                + values["schweber.pair_secular.refine_calls"]) == calls
        assert values["search.bisect_sign.calls"] == values["search.bracket_roots.brackets"]
        assert cli.main is original


class TestSpeed:
    def meter(self):
        meter = speed.SpeedMeter()
        meter.starts = [0.0, 1.0, 2.0, 3.0]
        meter.seconds = [2 * speed.NOMINAL_S] * 4  # machine at half speed
        return meter

    def test_removes_kernel_time_and_rescales(self):
        expected = (2.0 - 4 * speed.NOMINAL_S) / 2
        assert self.meter().normalise(0.5, 2.5) == pytest.approx(expected)

    def test_short_interval_uses_samples_nearby(self):
        meter = self.meter()
        meter.seconds[2] = 4 * speed.NOMINAL_S  # outside the margin: ignored
        assert meter.normalise(1.1, 1.2) == pytest.approx(0.05)

    def test_samples_while_active(self):
        with speed.SpeedMeter() as meter:
            end = speed.perf_counter() + 3 * speed.PERIOD_S
            while speed.perf_counter() < end:
                pass
        assert len(meter.seconds) >= 2


SPEC = {"kind": "spectrum", "omega": 1.0, "g": 0.7, "delta": 0.4, "method": "diag",
        "parity": None, "order": 40, "levels": 6}


def _spectrum_text(energies):
    lines = ["# command = spectrum", "index,energy,residual,method,order,parity"]
    lines += [f"{i},{e!r},1e-12,diag,40,union" for i, e in enumerate(energies)]
    return "\n".join(lines) + "\n"


class TestVerifier:
    def reference(self):
        return [float(e) for e in verify.reference_levels(SPEC, 80)]

    def test_exact_levels_pass(self):
        assert verify.check(SPEC, _spectrum_text(self.reference())).ok

    def test_dropped_level_fails(self):
        levels = self.reference()
        assert not verify.check(SPEC, _spectrum_text(levels[:2] + levels[3:])).ok

    def test_dropped_level_replaced_by_the_next_fails(self):
        spec = SPEC | {"levels": 7}
        levels = [float(e) for e in verify.reference_levels(spec, 80)]
        assert not verify.check(SPEC, _spectrum_text(levels[:2] + levels[3:])).ok

    def test_shifted_level_fails(self):
        levels = self.reference()
        levels[4] += 1e-6
        check = verify.check(SPEC, _spectrum_text(levels))
        assert not check.ok
        assert check.error == pytest.approx(1e-6, rel=1e-3)

    def test_unreadable_output_fails(self):
        assert not verify.check(SPEC, "garbage\n").ok


class TestFailureAccounting:
    REQUEST = workloads.spectrum(0.7, 0.4, "diag", None, 40, 6)

    def test_exception_counts_as_failed(self):
        def boom(argv, out):
            raise FloatingPointError("overflow")

        outcome = harness.call(boom, self.REQUEST.argv)
        assert outcome.rc is None
        assert not harness.judge(self.REQUEST.spec, outcome).ok

    def test_nonzero_exit_counts_as_failed(self):
        def refuse(argv, out):
            out.write(_spectrum_text([float(e) for e in verify.reference_levels(SPEC, 80)]))
            return 3

        verdict = harness.judge(self.REQUEST.spec, harness.call(refuse, self.REQUEST.argv))
        assert not verdict.ok
        assert "exit code 3" in verdict.reason

    def test_failures_are_listed_per_pass(self):
        good = verify.Check(True, 0.0)
        bad = verify.Check(False, math.inf, "x")
        failures = harness._failures([self.REQUEST] * 2, [[good, bad], [bad, bad]])
        assert [(f["pass"], f["request"]) for f in failures] == [(0, 1), (1, 0), (1, 1)]


class TestCompare:
    PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]

    def test_clear_gain(self):
        change = [v * 0.8 for v in self.PARENT]
        assert summary.compare(self.PARENT, change, "lower", 0.1)["verdict"] == "gain"

    def test_same_code_is_same(self):
        assert summary.compare(self.PARENT, self.PARENT[::-1], "lower", 0.1)["verdict"] == "same"

    def test_regression(self):
        change = [v * 1.3 for v in self.PARENT]
        assert summary.compare(self.PARENT, change, "lower", 0.1)["verdict"] == "regression"

    def test_wide_spread_is_unresolved(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        assert summary.compare(self.PARENT, noisy, "lower", 0.1)["verdict"] == "unresolved"


class TestWorkloads:
    @pytest.mark.parametrize("name", workloads.NAMES)
    def test_seed_fixes_the_batch(self, name):
        a, b = workloads.generate(name, 3), workloads.generate(name, 3)
        assert workloads.argv_hash(a) == workloads.argv_hash(b)
        assert workloads.argv_hash(a) != workloads.argv_hash(workloads.generate(name, 4))

    def test_method_a_keeps_strong_coupling(self):
        gs = [r.spec["g"] for r in workloads.generate("spectra-a", 7)]
        assert {1.0, 2.0} <= set(gs)
        assert sum(g >= 1.0 for g in gs) >= len(gs) // 3

    @pytest.mark.parametrize("name", workloads.NAMES)
    def test_pass_count_depends_only_on_seconds(self, name):
        assert workloads.passes(name, 0.5) == 1
        assert workloads.passes(name, 30) == max(1, int(30 // workloads.PASS_S[name]))
        assert workloads.passes(name, 4 * workloads.PASS_S[name]) == 4


def test_benchmark_json_lists_the_reported_metrics():
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == harness.E2E_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == \
        spans.LAYER_METRICS
    assert [w["name"] for w in config["workloads"]] == list(workloads.NAMES)
