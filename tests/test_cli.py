import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import rabicf
import rabicf.cli
import rabicf.resolvent
import rabicf.schweber
import rabicf.scan
import rabicf.search
import rabicf.tridiag
from rabicf.cli import _load_config_args, main
from rabicf.convergence import check_pringsheim
from rabicf.errors import LostBracketError
from rabicf.model import ModelParams, Parity, default_order, default_window

from conftest import ORACLE_UNION_24


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def parse_csv(text):
    meta = {}
    lines = text.splitlines()
    data_lines = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif line:
            data_lines.append(line)
    rows = list(csv.reader(data_lines))
    return meta, rows[0], rows[1:]


FIXTURE_ARGS = ["--omega", "1", "--g", "0.7", "--delta", "0.4"]


def chain_reference(g, delta, parities, k, order=6000):
    """The k lowest levels of the omega = 1 chains of ``parities`` at a
    truncation far past the default's, by scipy."""
    j = np.arange(order + 1, dtype=float)
    signs = {"plus": 1.0, "minus": -1.0}
    return np.sort(np.concatenate([
        eigh_tridiagonal(j + signs[p] * (-1.0) ** j * delta, g * np.sqrt(j[1:]),
                         eigvals_only=True, select="i", select_range=(0, k - 1))
        for p in parities
    ]))[:k]


class TestSpectrum:
    def test_diagonal_limit(self):
        code, text = run_cli(
            ["spectrum", "--omega", "1", "--g", "0", "--delta", "0.4",
             "--parity", "plus", "--method", "diag", "--levels", "3"]
        )
        assert code == 0
        meta, header, rows = parse_csv(text)
        assert header == ["index", "energy", "residual", "method", "order", "parity"]
        energies = [float(r[1]) for r in rows]
        np.testing.assert_allclose(energies, [0.4, 0.6, 2.4], atol=1e-10)

    def test_method_a_refuses_delta_zero(self):
        code, _ = run_cli(
            ["spectrum", "--omega", "1", "--g", "0.7", "--delta", "0", "--method", "a"]
        )
        assert code == 3

    def test_method_a_rejects_g_zero(self):
        code, _ = run_cli(
            ["spectrum", "--omega", "1", "--g", "0", "--delta", "0.4", "--method", "a"]
        )
        assert code == 2

    def test_method_a_matches_oracle_fixture(self):
        code, text = run_cli(
            ["spectrum", *FIXTURE_ARGS, "--method", "a", "--order", "150",
             "--levels", "10"]
        )
        assert code == 0
        meta, _, rows = parse_csv(text)
        energies = [float(r[1]) for r in rows]
        np.testing.assert_allclose(energies, ORACLE_UNION_24[:10], atol=1e-8)
        assert meta["parity"] == "n/a"
        assert "does not discern" in meta["parity_note"]

    def test_method_b_empty_window(self, capsys):
        # each chain's window is empty; the union is short of --levels
        code, text = run_cli(
            ["spectrum", *FIXTURE_ARGS, "--method", "b", "--window=-5:-4", "--levels", "3"]
        )
        assert (code, text) == (2, "")
        assert "requested 3 levels, have 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["spectrum", *FIXTURE_ARGS, "--method", "b", "--levels", "1", "--order", "100"],
        ["compare", *FIXTURE_ARGS, "--method-1", "a", "--method-2", "b", "-m", "1"],
    ], ids=["b-union", "compare-a-b"])
    def test_window_of_one_chain(self, argv):
        # the window holds the plus ground state only: the minus chain's
        # empty window is an empty spectrum, not a failure
        code, text = run_cli([*argv, "--window=-0.5:-0.4"])
        assert code == 0
        _, header, rows = parse_csv(text)
        energies = {row[i] for row in rows for i, col in enumerate(header)
                    if col.startswith("energy")}
        assert len(rows) == 1 and energies == {"-0.4270436745660642"}

    @pytest.mark.parametrize("argv", [
        [*FIXTURE_ARGS, "--parity", "plus", "--levels", "6", "--order", "100", "--grid", "5"],
        ["--omega", "1", "--g", "2", "--delta", "0.4", "--parity", "minus",
         "--levels", "12", "--order", "300", "--grid", "16"],
    ], ids=["two-poles-a-cell", "g2-minus"])
    def test_method_b_coarse_grid_loses_no_pole(self, argv):
        # grid cells holding several poles of one chain are halved by the
        # pole count: every level the oracle finds is printed, none skipped
        code, text = run_cli(["spectrum", *argv, "--method", "b"])
        assert code == 0
        _, _, rows = parse_csv(text)
        code, oracle = run_cli(["spectrum", *argv, "--method", "diag"])
        assert code == 0
        want = [float(r[1]) for r in parse_csv(oracle)[2]]
        assert len(rows) == len(want) == int(argv[argv.index("--levels") + 1])
        np.testing.assert_allclose([float(r[1]) for r in rows], want, atol=1e-9)

    @pytest.mark.parametrize("g", ["1e-76", "1e-150", "1e-200", "1e-228", "1e-300", "1e-305",
                                   "1e-307", "1e-310"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_method_a_tiny_coupling_matches_oracle(self, g):
        # below g = w/2 the secular rows p_m = (d_m/w)(4g^2/w^2 - d_m/w) + D^2/w^2
        # and q_m = (4g^2/w^2) m (d_m/w)(d_{m-1}/w) carry no 1/g, so no step
        # overflows and both levels are found down to g = 1e-310; from about
        # 1e-307 some of the residual's f_m read inf, with no warning
        argv = ["--omega", "1", "--g", g, "--delta", "1.5", "--levels", "2", "--order", "300"]
        levels = {}
        for method in ("a", "diag"):
            code, text = run_cli(["spectrum", *argv, "--method", method])
            assert code == 0
            levels[method] = [float(row[1]) for row in parse_csv(text)[2]]
        assert len(levels["a"]) == 2
        np.testing.assert_allclose(levels["a"], levels["diag"], atol=1e-9)

    @pytest.mark.parametrize("method, g, parity", [
        ("diag", 15.0, None), ("diag", 20.0, "plus"), ("b", 20.0, None), ("b", 15.0, "minus"),
    ])
    def test_default_order_at_strong_coupling(self, method, g, parity):
        # every method takes default_order, which grows with g: 2630 at
        # g = 15 and 4670 at g = 20, where order 300 is off by 0.02 and 20
        params, k = ModelParams(1.0, g, 0.4), 4
        argv = ["spectrum", "--omega", "1", "--g", repr(g), "--delta", "0.4",
                "--levels", str(k), "--method", method] + (["--parity", parity] if parity else [])
        code, text = run_cli(argv)
        assert code == 0
        meta, _, rows = parse_csv(text)
        assert int(meta["order"]) == default_order(params, k, default_window(params, k))
        want = chain_reference(g, 0.4, [parity] if parity else ["plus", "minus"], k)
        np.testing.assert_allclose([float(r[1]) for r in rows], want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--g", "1e4", "--method", "a"],
        ["spectrum", "--g", "1e4", "--method", "b"],
        ["spectrum", "--g", "1e4", "--method", "diag"],
        ["scan", "--g", "0.7", "--param", "g", "--from", "0.05", "--to", "1e4",
         "--steps", "10", "--levels", "2"],
    ])
    def test_default_order_above_cap_refused(self, argv, monkeypatch, capsys):
        # default_order reads 1165685432 at g = 1e4 and 8 levels (2 in the
        # scan): refused before any chain is built
        def no_chain(*args):
            raise AssertionError("build_chain called")

        for module in (rabicf.cli, rabicf.resolvent, rabicf.scan):
            monkeypatch.setattr(module, "build_chain", no_chain)
        code, text = run_cli([argv[0], "--omega", "1", "--delta", "0.4", *argv[1:]])
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert "1165685432" in err and "pass --order" in err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--method", "a", "--levels", "8"],
        ["spectrum", "--method", "b", "--levels", "8"],
        ["spectrum", "--method", "diag", "--levels", "8"],
        ["scan", "--param", "g", "--from", repr(0.05 * 2.0**511), "--to", repr(1.2 * 2.0**511),
         "--steps", "10", "--levels", "2"],
    ])
    def test_default_order_of_an_overflowing_bound_refused(self, argv, capsys):
        # at 2**511 * (1, 0.7, 0.4) the tail-depth bound overflows, which
        # default_order refuses like any order above its cap
        s = 2.0**511
        code, text = run_cli([argv[0], "--omega", repr(s), "--g", repr(0.7 * s),
                              "--delta", repr(0.4 * s), *argv[1:]])
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert "default truncation order inf" in err and "pass --order" in err

    def test_method_b_grid_too_small(self, capsys):
        code, text = run_cli(["spectrum", *FIXTURE_ARGS, "--method", "b", "--grid", "1"])
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert "--grid 1" in err
        assert "at least 2 samples are needed" in err

    def test_metadata_records_tolerances(self):
        code, text = run_cli(
            ["spectrum", *FIXTURE_ARGS, "--method", "diag", "--parity", "plus",
             "--levels", "2", "--order", "60"]
        )
        assert code == 0
        meta, _, _ = parse_csv(text)
        for key in ("eig_tol", "refine_tol", "eps_pole", "den_floor", "window", "grid"):
            assert key in meta

    def test_json_format(self):
        code, text = run_cli(
            ["spectrum", *FIXTURE_ARGS, "--method", "diag", "--parity", "plus",
             "--levels", "2", "--order", "60", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["columns"][0] == "index"
        assert len(doc["rows"]) == 2
        assert doc["metadata"]["command"] == "spectrum"

    def test_union_when_parity_omitted(self):
        code, text = run_cli(
            ["spectrum", *FIXTURE_ARGS, "--method", "diag", "--levels", "4",
             "--order", "120"]
        )
        assert code == 0
        _, _, rows = parse_csv(text)
        energies = [float(r[1]) for r in rows]
        np.testing.assert_allclose(energies, ORACLE_UNION_24[:4], atol=1e-9)

    def test_deterministic_output(self):
        argv = ["spectrum", *FIXTURE_ARGS, "--method", "b", "--parity", "minus",
                "--levels", "3", "--order", "80"]
        assert run_cli(argv) == run_cli(argv)

    def test_seedless_flag_accepted(self):
        code, _ = run_cli(
            ["spectrum", *FIXTURE_ARGS, "--method", "diag", "--parity", "plus",
             "--levels", "1", "--order", "40", "--seedless"]
        )
        assert code == 0

    def test_unknown_option(self):
        code, _ = run_cli(["spectrum", *FIXTURE_ARGS, "--method", "diag", "--bogus"])
        assert code == 2

    def test_module_entry_point(self):
        # `python -m rabicf.cli` runs the same command as main() in process
        argv = ["spectrum", *FIXTURE_ARGS, "--method", "diag", "--parity", "plus",
                "--levels", "3"]
        src = str(Path(rabicf.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-m", "rabicf.cli", *argv],
                              capture_output=True, env=env, timeout=120)
        assert done.returncode == 0
        assert done.stdout == run_cli(argv)[1].encode()


def call_limit(monkeypatch, module, name, calls):
    """Make ``module.name`` raise once called ``calls`` times, so a halving
    loop that never ends fails the test instead of hanging the suite."""
    real = getattr(module, name)
    count = itertools.count()

    def guarded(*args, **kwargs):
        if next(count) >= calls:
            raise RuntimeError(f"{name} called {calls} times: a halving loop does not end")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, guarded)


class TestHalvingEnds:
    """Bisection below one ulp of the levels ends on adjacent floats."""

    def test_diag_tol_below_ulp(self, monkeypatch):
        call_limit(monkeypatch, rabicf.tridiag, "_negative_pivot_counts", 1000)
        code, text = run_cli(["spectrum", *FIXTURE_ARGS, "--method", "diag",
                              "--levels", "3", "--tol", "1e-16"])
        assert code == 0
        _, _, rows = parse_csv(text)
        energies = np.array([float(r[1]) for r in rows])
        residuals = np.array([float(r[2]) for r in rows])
        np.testing.assert_allclose(energies, ORACLE_UNION_24[:3], atol=1e-11)
        # the residual is the final width: above tol where the ends met
        assert residuals.max() > 1e-16
        assert np.all(residuals <= np.maximum(1e-16, [math.ulp(e) for e in energies]))

    def test_method_b_refine_below_ulp(self, monkeypatch):
        # one ulp of 9000 exceeds the 1e-12 refinement width; the pole is
        # refined on a leading minor of D_0, or on D_0 after a restart
        call_limit(monkeypatch, rabicf.resolvent, "char_poly", 500)
        call_limit(monkeypatch, rabicf.resolvent, "_leading_minor", 500)
        code, text = run_cli(["spectrum", *FIXTURE_ARGS, "--method", "b", "--parity", "plus",
                              "--order", "9100", "--window=9000:9002", "--levels", "1"])
        assert code == 0
        _, _, rows = parse_csv(text)
        assert len(rows) == 1
        assert 9000.0 < float(rows[0][1]) < 9002.0

    def test_method_b_refine_below_ulp_on_a_leading_minor(self, monkeypatch):
        # at order 9200 the pole near 9000 is refined on the leading minors
        # up to row 9179, each capped as D_0 is
        calls = []
        real = rabicf.resolvent._leading_minor
        monkeypatch.setattr(rabicf.resolvent, "_leading_minor",
                            lambda *args, **kw: calls.append(kw["k"]) or real(*args, **kw))
        call_limit(monkeypatch, rabicf.resolvent, "char_poly", 500)
        call_limit(monkeypatch, rabicf.resolvent, "_leading_minor", 500)
        code, text = run_cli(["spectrum", *FIXTURE_ARGS, "--method", "b", "--parity", "plus",
                              "--order", "9200", "--window=9000:9002", "--levels", "1"])
        assert code == 0
        _, _, rows = parse_csv(text)
        assert len(rows) == 1
        assert 9000.0 < float(rows[0][1]) < 9002.0
        assert calls and set(calls) == {9179}


# (energy, residual) rows of `spectrum --method diag --levels 3` for the
# union and the plus chain at extreme --tol.  Below one ulp of the levels
# the brackets end on adjacent floats; at a tol as wide as the spectrum
# they stay on the dyadic snap of the Gershgorin interval.
ADJACENT_FLOATS = (
    [("-0.7078050640984868", "1.1102230246251565e-16"),
     ("-0.4270436745661865", "5.551115123125783e-17"),
     ("0.37094976339069297", "5.551115123125783e-17")],
    [("-0.4270436745661865", "5.551115123125783e-17"),
     ("0.6736038250270113", "1.1102230246251565e-16"),
     ("1.3607568321317176", "2.220446049250313e-16")],
)
WHOLE_SNAP = ([("0.0", "1024.0")] * 3,) * 2
EDGE_TOL_ROWS = {
    "1e-310": ADJACENT_FLOATS,
    "1e-300": ADJACENT_FLOATS,
    "1e-16": ADJACENT_FLOATS,
    "1e-11": (
        [("-0.7078050640957372", "7.275957614183426e-12"),
         ("-0.4270436745682673", "7.275957614183426e-12"),
         ("0.37094976339358254", "7.275957614183426e-12")],
        [("-0.4270436745682673", "7.275957614183426e-12"),
         ("0.673603825027385", "7.275957614183426e-12"),
         ("1.360756832134939", "7.275957614183426e-12")],
    ),
    "1e3": ([("-256.0", "512.0"), ("-256.0", "512.0"), ("256.0", "512.0")],
            [("-256.0", "512.0"), ("256.0", "512.0"), ("256.0", "512.0")]),
    "1e10": WHOLE_SNAP,
    "1e308": WHOLE_SNAP,
}


class TestEdgeTolerances:
    @pytest.mark.parametrize("tol", list(EDGE_TOL_ROWS))
    @pytest.mark.parametrize("parity", ["union", "plus"])
    def test_oracle_rows(self, tol, parity):
        argv = ["spectrum", *FIXTURE_ARGS, "--method", "diag", "--levels", "3", "--tol", tol]
        if parity == "plus":
            argv += ["--parity", "plus"]
        code, text = run_cli(argv)
        assert code == 0
        _, _, rows = parse_csv(text)
        expected = EDGE_TOL_ROWS[tol][parity == "plus"]
        assert [(r[1], r[2]) for r in rows] == expected


MALFORMED = {
    "diag-tol-nan": ["spectrum", *FIXTURE_ARGS, "--method", "diag", "--levels", "3",
                     "--tol", "nan"],
    "scan-tol-zero": ["scan", *FIXTURE_ARGS, "--param", "g", "--from", "0.05", "--to", "1.2",
                      "--steps", "100", "--levels", "3", "--order", "60", "--tol", "0"],
    "scan-tol-nan": ["scan", *FIXTURE_ARGS, "--param", "g", "--from", "0.05", "--to", "1.2",
                     "--steps", "100", "--levels", "3", "--order", "60", "--tol", "nan"],
    "eps-pole-negative": ["spectrum", *FIXTURE_ARGS, "--method", "a", "--order", "60",
                          "--levels", "6", "--eps-pole=-1e-9"],
    "eps-pole-nan": ["spectrum", *FIXTURE_ARGS, "--method", "a", "--order", "60",
                     "--levels", "6", "--eps-pole", "nan"],
    "bound-energy-inf": ["bound", *FIXTURE_ARGS, "--energy", "inf"],
    "bound-energy-nan": ["bound", *FIXTURE_ARGS, "--energy", "nan"],
    "a-tol-negative": ["spectrum", *FIXTURE_ARGS, "--method", "a", "--levels", "3",
                       "--tol", "-5"],
    "b-tol-nan": ["spectrum", *FIXTURE_ARGS, "--method", "b", "--levels", "3", "--tol", "nan"],
    "compare-tol-nan": ["compare", *FIXTURE_ARGS, "--method-1", "diag", "--method-2", "b",
                        "-m", "3", "--tol", "nan"],
    "compare-tol-negative": ["compare", *FIXTURE_ARGS, "--method-1", "diag", "--method-2", "b",
                             "-m", "3", "--tol", "-1"],
}


class TestMalformedInputs:
    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_usage_exit(self, name, capsys):
        assert run_cli(MALFORMED[name]) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("rabicf: ") and "must be finite" in err


# A malformed --window or --grid, with the text its message names: refused
# for every method, diag included, although diag samples neither.
MALFORMED_SAMPLING = {
    "diag-window-reversed": (["spectrum", *FIXTURE_ARGS, "--method", "diag", "--levels", "2",
                              "--window=5:1"], "invalid window (5.0, 1.0)"),
    "diag-plus-window-nan": (["spectrum", *FIXTURE_ARGS, "--method", "diag", "--levels", "2",
                              "--parity", "plus", "--window=nan:1"], "invalid window (nan, 1.0)"),
    "diag-grid-zero": (["spectrum", *FIXTURE_ARGS, "--method", "diag", "--levels", "2",
                        "--grid", "0"], "--grid 0 is too small"),
    "a-window-reversed": (["spectrum", *FIXTURE_ARGS, "--method", "a", "--order", "60",
                           "--levels", "3", "--window=5:1"], "invalid window (5.0, 1.0)"),
    "b-grid-one": (["spectrum", *FIXTURE_ARGS, "--method", "b", "--levels", "3",
                    "--grid", "1"], "--grid 1 is too small"),
    "compare-diag-window-nan": (["compare", *FIXTURE_ARGS, "--method-1", "diag",
                                 "--method-2", "diag", "-m", "2", "--window=nan:1"],
                                "invalid window (nan, 1.0)"),
    "compare-diag-grid-negative": (["compare", *FIXTURE_ARGS, "--method-1", "diag",
                                    "--method-2", "diag", "-m", "2", "--grid", "-5"],
                                   "--grid -5 is too small"),
    "compare-b-a-window-inf": (["compare", *FIXTURE_ARGS, "--method-1", "b", "--method-2", "a",
                                "--order-2", "60", "-m", "2", "--window=-inf:1"],
                               "invalid window (-inf, 1.0)"),
    "a-window-nan-default-order": (["spectrum", *FIXTURE_ARGS, "--method", "a",
                                    "--window=nan:1"], "invalid window (nan, 1.0)"),
}

# Inputs whose arithmetic overflows or divides by zero before any solver runs.
# tail_depth_bound refuses an omega**2 that underflows to 0 by name, so the
# test puts a stand-in that divides by zero in its place.
ARITHMETIC_FAILURES = {
    "bound-omega-underflow": ["bound", "--omega", "1e-300", "--g", "0.7", "--delta", "0.4",
                              "--energy", "1e10"],
}
# The exception each of them raises, named on the error line with the subcommand.
ARITHMETIC_KINDS = {
    "bound-omega-underflow": "ZeroDivisionError",
}


class TestMalformedSampling:
    @pytest.mark.parametrize("name", list(MALFORMED_SAMPLING))
    def test_usage_exit_for_every_method(self, name, capsys):
        argv, message = MALFORMED_SAMPLING[name]
        assert run_cli(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("rabicf: ") and message in err


class TestArithmeticFailure:
    @pytest.mark.parametrize("name", list(ARITHMETIC_FAILURES))
    def test_numerical_exit(self, name, capsys, monkeypatch):
        monkeypatch.setattr(rabicf.convergence, "tail_depth_bound", lambda energy, params: 1 / 0)
        assert run_cli(ARITHMETIC_FAILURES[name]) == (3, "")
        err = capsys.readouterr().err
        assert err.startswith("rabicf: ") and "Traceback" not in err
        assert err.startswith(f"rabicf: {ARITHMETIC_FAILURES[name][0]}: {ARITHMETIC_KINDS[name]}: ")


class TestLevelSpacing:
    # from g = 1e20 on, the spacing omega of levels near E = -g^2/omega is
    # below the float spacing there: method a's lowest two levels cannot be
    # told apart, and every such request exits 3 with one named error
    @pytest.mark.parametrize("g", ["1e20", "7e153", "1e154"])
    def test_levels_closer_than_the_float_spacing(self, g, capsys):
        argv = ["spectrum", "--omega", "1", "--g", g, "--delta", "1.5", "--method", "a",
                "--levels", "2", "--order", "300"]
        assert run_cli(argv) == (3, "")
        err = capsys.readouterr().err
        assert err.startswith("rabicf: levels in (") and "closer together than halving" in err

    # there the squared couplings a_j = j g^2 of an order-300 chain overflow:
    # method b exits 3 with one named error and no numpy warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("g", ["7e153", "1e154"])
    def test_method_b_couplings_overflow(self, g, capsys):
        argv = ["spectrum", "--omega", "1", "--g", g, "--delta", "1.5", "--method", "b",
                "--parity", "plus", "--levels", "2", "--order", "300"]
        assert run_cli(argv) == (3, "")
        assert capsys.readouterr().err == (f"rabicf: method b: a squared coupling a_j "
                                           f"overflows at g = {float(g)!r}, order 300\n")

    def test_parity_doublet_closer_than_the_refine_tol(self, monkeypatch):
        # the doublet at E = -37.9830391055111 is one float apart in diag: P_N
        # is positive on two floats only, next to where the root count steps,
        # and the one-root piece that the count narrows to, 7.6e-13 wide and
        # so below the 1e-12 refine tol, shows no sign change of P_N.  Such a
        # piece is a root at its midpoint, with its width.  The other three
        # doublets are pieces that hold both roots at tol, never refined;
        # each of this doublet's two one-root pieces is refined once
        model = ["--omega", "1", "--g", "6.322116523042089", "--delta", "1.4658731281973478",
                 "--levels", "8"]
        refined, refine = [], rabicf.search.bisect_sign

        def refining(*args, **kwargs):
            try:
                root = refine(*args, **kwargs)
            except LostBracketError:
                refined.append("lost")
                raise
            refined.append("found")
            return root

        monkeypatch.setattr(rabicf.search, "bisect_sign", refining)
        code_a, text_a = run_cli(["spectrum", *model, "--method", "a"])
        assert code_a == 0
        assert refined == ["lost", "lost"]
        code_diag, text_diag = run_cli(["spectrum", *model, "--method", "diag"])
        assert code_diag == 0
        a, diag = ([float(row[1]) for row in parse_csv(text)[2]] for text in (text_a, text_diag))
        assert len(a) == len(diag) == 8 and diag[4] == diag[5]
        assert abs(a[4] - diag[4]) <= 5e-13 and abs(a[5] - diag[5]) <= 5e-13
        np.testing.assert_allclose(a, diag, rtol=0, atol=1e-10)


class TestHugeCoupling:
    # past g ~ 1.3e154 g**2 overflows in the default window: a request
    # without --window exits 3 with one named error and no numpy warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method, g", [("a", "1e200"), ("b", "1e250"), ("diag", "1e250")])
    def test_default_window_overflows(self, method, g, capsys):
        argv = ["spectrum", "--omega", "1", "--g", g, "--delta", "0.4", "--method", method,
                "--levels", "2", "--order", "50"]
        assert run_cli(argv) == (3, "")
        assert capsys.readouterr().err == (f"rabicf: the default window overflows at omega = "
                                           f"1.0, g = {float(g)!r}, delta = 0.4; pass --window\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scan_default_window_overflows(self, capsys):
        # a scan takes no --window: the default order needs the window
        argv = ["scan", "--omega", "1", "--g", "0.7", "--delta", "0.4", "--param", "g",
                "--from", "0.05", "--to", "1e250", "--steps", "10", "--levels", "1"]
        assert run_cli(argv) == (3, "")
        assert capsys.readouterr().err == ("rabicf: scan: the default window overflows at "
                                           "g = 1e+250; pass --order\n")

    # at g = 1e308 the off-diagonals g sqrt(j) themselves overflow: every
    # route that builds the chain refuses it up front
    @pytest.mark.parametrize("argv", [
        ["pathological", "--omega", "1", "--g", "1e308", "--delta", "0.4", "--e0", "0.5",
         "--parity", "plus", "--order", "10"],
        ["spectrum", "--omega", "1", "--g", "1e308", "--delta", "0.4", "--method", "diag",
         "--parity", "plus", "--levels", "2", "--order", "10", "--window=-1:1"],
    ], ids=["pathological", "diag"])
    def test_off_diagonal_overflows(self, argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(argv) == (3, "")
        assert not caught
        assert capsys.readouterr().err == ("rabicf: chain: an off-diagonal g*sqrt(j) overflows "
                                           "at g = 1e+308, order 10\n")


# Each case: argv at omega = 1, with the floats that scale with omega given
# as floats, and the power of omega in each output column and metadata
# field; columns and fields not named scale as omega**0.  The
# continued-fraction floor den_floor is a fixed underflow guard.
MODEL = ["--omega", 1.0, "--g", 0.7, "--delta", 0.4, "--format", "json"]
SPECTRUM_META = {"omega": 1, "g": 1, "delta": 1, "window": 1,
                 "eig_tol": 1, "refine_tol": 1, "eps_pole": 1}
COVARIANT = {
    "spectrum-a": (["spectrum", *MODEL, "--method", "a", "--order", "150", "--levels", "10"],
                   SPECTRUM_META, {"energy": 1}),
    "spectrum-b": (["spectrum", *MODEL, "--method", "b", "--parity", "plus", "--levels", "8"],
                   SPECTRUM_META, {"energy": 1, "residual": 1}),
    "spectrum-diag": (["spectrum", *MODEL, "--method", "diag", "--levels", "8"],
                      SPECTRUM_META, {"energy": 1, "residual": 1}),
    "scan": (["scan", *MODEL, "--param", "g", "--from", 0.05, "--to", 1.2,
              "--steps", "60", "--levels", "4", "--order", "60"],
             {"omega": 1, "g": 1, "delta": 1, "from": 1, "to": 1},
             {"param_value": 1, "energy": 1, "shifted": 1, "deviation": 1,
              "g": 1, **{f"{p}_{n}": 1 for p in ("plus", "minus") for n in range(4)}}),
    "compare": (["compare", *MODEL, "--method-1", "a", "--order-1", "150",
                 "--method-2", "diag", "--order-2", "400", "-m", "10"],
                {"omega": 1, "g": 1, "delta": 1, "tol": 1, "max_deviation": 1},
                {"energy_1": 1, "energy_2": 1, "deviation": 1}),
    "bound": (["bound", *MODEL, "--energy", 7.25], {"omega": 1, "g": 1, "delta": 1, "energy": 1},
              {"c": 1, "margin": 1}),
    "pathological": (["pathological", *MODEL, "--e0", 0.5, "--order", "10,20,40"],
                     {"omega": 1, "g": 1, "delta": 1, "e0": 1, "tail_limit": -1,
                      "min_separation": 1},
                     {"modified_diag_nn": 1, "tail_gn": -1, "tail_minus_limit": -1,
                      "planted_reciprocal": 1, "order_times_tail_offset": -1}),
}


class TestScaleCovariance:
    """The Hamiltonian is homogeneous of degree one in (omega, g, delta), and
    every tolerance is relative to omega: at 2**k times every input, every
    output is exactly 2**k times its omega = 1 value (2**-k for 1/energy)."""

    @staticmethod
    def _run(name, s):
        argv, _, _ = COVARIANT[name]
        code, text = run_cli([repr(s * a) if isinstance(a, float) else a for a in argv])
        assert code == 0
        doc = json.loads(text)
        tables = [doc[t] for t in ("events", "tracks")] if "events" in doc else [doc]
        return doc["metadata"], [(t["columns"], t["rows"]) for t in tables]

    # method a's rows are in units of omega: exact from 2**-510 to 2**511;
    # the oracle scales a chain reaching beyond 2**256 down to at most
    # 2**256 before it squares the off-diagonals, and bound's margins are
    # formed on inputs scaled the same way
    @pytest.mark.parametrize("name, k", [
        *((name, k) for name in COVARIANT for k in (-270, -20, -3, 3, 16, 260)),
        *(("spectrum-a", k) for k in (-420, -416, -400, 500, 502, 510)),
        *(("compare", k) for k in (-420, -416, -400, 500, 502, 509, 510)),
        *(("spectrum-diag", k) for k in (509, 510)),
        *(("bound", k) for k in (-500, -420, 500)),
    ])
    def test_outputs_scale_exactly(self, name, k, monkeypatch):
        # method a refining below one ulp of its levels would never end;
        # solve_method_a reads schweber's binding at every call
        call_limit(monkeypatch, rabicf.schweber, "pair_secular", 5000)
        _, meta_power, column_power = COVARIANT[name]
        s = 2.0**k
        meta1, tables1 = self._run(name, 1.0)
        meta, tables = self._run(name, s)
        assert len(tables) == len(tables1)
        for (columns, rows), (columns1, rows1) in zip(tables, tables1):
            assert columns == columns1
            assert len(rows) == len(rows1) > 0
            for row, row1 in zip(rows, rows1):
                for column, got, want in zip(columns, row, row1):
                    power = column_power.get(column, 0)
                    assert got == (want * s**power if power and want != "" else want), column
        assert meta.keys() == meta1.keys()
        for key, value in meta.items():
            power = meta_power.get(key, 0)
            if power:
                got = [float(v) for v in value.split(":")]
                assert got == [float(v) * s**power for v in meta1[key].split(":")], key
            else:
                assert value == meta1[key], key

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-270, 260, 511])
    def test_bound_margin_scales(self, k):
        # the margin at the printed c is exactly 2**k times its omega = 1
        # value, 2**511 included, where j g^2 would overflow unscaled
        s = 2.0**k
        code, text = run_cli(["bound", *(repr(s * a) if isinstance(a, float) else a for a in MODEL),
                              "--energy", "0"])
        assert code == 0
        doc = json.loads(text)
        row = dict(zip(doc["columns"], doc["rows"][0]))
        cert = check_pringsheim(0.0, ModelParams(1.0, 0.7, 0.4), Parity.PLUS, row["start_index"],
                                row["c"] / s, row["verified_up_to"])
        assert row["holds"] and row["margin"] == s * cert.margin > 0.0


class TestCompare:
    def test_a_vs_oracle_passes(self):
        code, text = run_cli(
            ["compare", *FIXTURE_ARGS, "--method-1", "a", "--order-1", "150",
             "--method-2", "diag", "--order-2", "400", "-m", "10", "--tol", "1e-7"]
        )
        assert code == 0
        meta, _, rows = parse_csv(text)
        assert float(meta["max_deviation"]) < 1e-7
        assert len(rows) == 10

    def test_oracle_order_doubling(self):
        code, text = run_cli(
            ["compare", *FIXTURE_ARGS, "--method-1", "diag", "--order-1", "100",
             "--method-2", "diag", "--order-2", "200", "-m", "5", "--tol", "1e-7"]
        )
        assert code == 0

    def test_tolerance_failure_exit(self):
        code, _ = run_cli(
            ["compare", *FIXTURE_ARGS, "--method-1", "b", "--order-1", "60",
             "--method-2", "diag", "--order-2", "300", "-m", "4", "--tol", "1e-300"]
        )
        assert code == 1

    def test_explicit_tol_is_absolute(self):
        # at omega = 2**16 the deviation, 2**16 times its omega = 1 value,
        # exceeds 1e-7 (the default threshold scales; see TestScaleCovariance)
        code, text = run_cli(
            ["compare", "--omega", "65536", "--g", "45875.2", "--delta", "26214.4",
             "--method-1", "a", "--order-1", "150", "--method-2", "diag",
             "--order-2", "400", "-m", "10", "--tol", "1e-7"]
        )
        assert code == 1
        assert parse_csv(text)[0]["tol"] == "1e-07"

    def test_m_zero(self, capsys):
        code, text = run_cli(
            ["compare", *FIXTURE_ARGS, "--method-1", "diag", "--method-2", "b", "-m", "0"]
        )
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "rabicf: m must be >= 1\n"

    def test_m_exceeding_levels(self):
        code, _ = run_cli(
            ["compare", *FIXTURE_ARGS, "--method-1", "diag", "--order-1", "60",
             "--method-2", "diag", "--order-2", "60", "-m", "120", "--tol", "1e-7"]
        )
        assert code == 2


class TestPathological:
    def test_sweep_table(self):
        code, text = run_cli(
            ["pathological", *FIXTURE_ARGS, "--e0", "0.5", "--parity", "plus",
             "--order", "10,20,40"]
        )
        assert code == 0
        meta, header, rows = parse_csv(text)
        assert [r[0] for r in rows] == ["10", "20", "40"]
        # the tail approaches -omega/g^2 monotonically across the sweep
        dist = [float(r[4]) for r in rows]
        assert dist[0] > dist[-1]
        # the planted pole reads zero at E0 on every row
        col = header.index("planted_reciprocal")
        assert all(float(r[col]) < 1e-9 for r in rows)

    def test_diag_offdiag_emits_diagnostic(self):
        code, text = run_cli(
            ["pathological", *FIXTURE_ARGS, "--e0", "0.5", "--variant", "diag-offdiag",
             "--order", "20"]
        )
        assert code == 0
        _, header, rows = parse_csv(text)
        assert "order_times_tail_offset" in header
        assert float(rows[0][header.index("modified_offdiag")]) == 0.7 * 20

    @pytest.mark.parametrize("orders", [",", ""])
    def test_empty_order_list(self, orders, capsys):
        code, text = run_cli(
            ["pathological", *FIXTURE_ARGS, "--e0", "0.5", "--order", orders]
        )
        assert (code, text) == (2, "")
        assert f"bad order list {orders!r}" in capsys.readouterr().err

    def test_e0_on_genuine_pole(self):
        code, _ = run_cli(
            ["pathological", *FIXTURE_ARGS, "--e0", repr(ORACLE_UNION_24[1]),
             "--parity", "plus", "--order", "200"]
        )
        assert code == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_coupling(self):
        # a_j = j g^2 overflows in double; the planted entries are exact
        code, text = run_cli(
            ["pathological", "--omega", "1", "--g", "1e154", "--delta", "0.4", "--e0", "0.5",
             "--parity", "plus", "--order", "10,20"]
        )
        assert code == 0
        _, header, rows = parse_csv(text)
        assert [r[header.index("planted_reciprocal")] for r in rows] == ["0.0", "0.0"]
        assert all(math.isfinite(float(r[header.index("tail_gn")])) for r in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_separation_check_at_huge_coupling(self):
        # the Sturm check squares the chain scaled to at most 2**256, where
        # a fixed 2**-256 scale leaves g sqrt(j) above 2**512 from g ~ 1e231
        code, text = run_cli(
            ["pathological", "--omega", "1", "--g", "1e300", "--delta", "0.4", "--e0", "0.5",
             "--parity", "plus", "--order", "10"]
        )
        assert code == 0
        _, header, rows = parse_csv(text)
        assert rows[0][header.index("planted_reciprocal")] == "0.0"

    def test_g_zero_refused_by_name(self, capsys):
        # the tail limit -omega/g^2 is formed only after the plant refuses g = 0
        code, text = run_cli(["pathological", "--omega", "1", "--g", "0", "--delta", "0.4",
                              "--e0", "0.5"])
        assert (code, text) == (3, "")
        assert capsys.readouterr().err == "rabicf: pathological construction needs nonzero coupling\n"

    def test_tiny_coupling_refused_by_name(self, capsys):
        # at g = 1e-200 the exact tail G_N leaves the float range and g**2
        # underflows to 0: a named refusal, not a bare OverflowError
        code, text = run_cli(["pathological", "--omega", "1", "--g", "1e-200", "--delta", "0.4",
                              "--e0", "0.5", "--order", "10", "--parity", "plus"])
        assert (code, text) == (3, "")
        assert capsys.readouterr().err == (
            "rabicf: pathological: H[N,N] or the tail limit -omega/g**2 leaves the float "
            "range at g = 1e-200\n")


class TestBound:
    def test_fixture(self):
        code, text = run_cli(["bound", *FIXTURE_ARGS, "--energy", "0"])
        assert code == 0
        _, header, rows = parse_csv(text)
        assert rows[0][header.index("bound")] == "3"
        assert rows[0][header.index("holds")] == "True"

    def test_g_zero_note(self):
        code, text = run_cli(
            ["bound", "--omega", "1", "--g", "0", "--delta", "0.4", "--energy", "0"]
        )
        assert code == 0
        meta, header, rows = parse_csv(text)
        assert rows[0][header.index("bound")] == "1"
        assert "note" in meta

    def test_deep_strong_coupling(self):
        code, text = run_cli(
            ["bound", "--omega", "1", "--g", "1.2", "--delta", "0.4", "--energy", "0"]
        )
        assert code == 0
        _, header, rows = parse_csv(text)
        assert rows[0][header.index("holds")] == "True"

    @pytest.mark.parametrize("model", [
        ["--g", "0.7", "--delta", "0.4", "--energy", "1e308"],
        ["--g", "1e200", "--delta", "0.4", "--energy", "0"],
        ["--g", "0.7", "--delta", "1e308", "--energy", "0"],
    ], ids=["energy", "g", "delta"])
    def test_overflowing_bound_refused(self, model, capsys):
        # the tail-depth bound is inf at each: a named refusal, not an
        # OverflowError from rounding it up
        assert run_cli(["bound", "--omega", "1", *model]) == (3, "")
        err = capsys.readouterr().err
        assert err.startswith("rabicf: the tail-depth bound overflows at energy "
                              f"{float(model[-1])!r}, omega = 1.0, ")
        assert "Error" not in err


    def test_coupling_whose_square_underflows(self):
        # at g = 1e-200, g**2 is 0: the bound divides by no g**2, for bound
        # and for the diag default order that it sets
        code, text = run_cli(["bound", "--omega", "1", "--g", "1e-200", "--delta", "0.4",
                              "--energy", "0", "--parity", "plus"])
        assert code == 0
        _, header, rows = parse_csv(text)
        assert rows[0][header.index("bound")] == "1"
        code, text = run_cli(["spectrum", "--omega", "1", "--g", "1e-200", "--delta", "0.4",
                              "--method", "diag", "--levels", "3"])
        assert code == 0
        np.testing.assert_allclose([float(r[1]) for r in parse_csv(text)[2]],
                                   [-0.4, 0.4, 0.6], atol=1e-11)


class TestNegativeExponentValues:
    # argparse reads -1e-3 and -3:5 as options, as it does not -0.001: after
    # an option they are its value, as in the --option=value form
    @pytest.mark.parametrize("argv, option, value", [
        (["bound", *FIXTURE_ARGS], "--energy", "-1e-3"),
        (["pathological", *FIXTURE_ARGS, "--order", "10,20"], "--e0", "-5e-1"),
        (["scan", *FIXTURE_ARGS, "--to", "0.2", "--steps", "10", "--levels", "2",
          "--order", "20"], "--from", "-1e-1"),
        (["spectrum", *FIXTURE_ARGS, "--method", "b", "--parity", "plus", "--levels", "2",
          "--order", "10"], "--window", "-3:5"),
    ], ids=["energy", "e0", "from", "window"])
    def test_same_as_the_equals_form(self, argv, option, value, capsys):
        spaced = run_cli([*argv, option, value]), capsys.readouterr().err
        assert spaced == (run_cli([*argv, f"{option}={value}"]), capsys.readouterr().err)
        printed = ":".join(f"{float(part)!r}" for part in value.split(":"))
        assert spaced[0][0] == 0 and printed in spaced[0][1]


class TestScan:
    # a_j = j g^2 of the widest chain overflows: a g scan and a delta scan
    # exit 3 with one named error and no numpy warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("param, g, start, stop", [
        ("g", "0.7", "1e200", "2e200"), ("g", "0.7", "1e152", "3e153"),
        ("delta", "1e200", "0.1", "1"),
    ])
    def test_couplings_overflow(self, param, g, start, stop, capsys):
        argv = ["scan", "--omega", "1", "--g", g, "--delta", "0.4", "--param", param,
                "--from", start, "--to", stop, "--steps", "10", "--levels", "1", "--order", "20"]
        assert run_cli(argv) == (3, "")
        top = float(stop if param == "g" else g)
        assert capsys.readouterr().err == (f"rabicf: scan: a squared coupling a_j "
                                           f"overflows at g = {top!r}, order 20\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_couplings_at_the_overflow_edge(self):
        # 20 (2.998e153)**2 is still finite: the scan runs
        code, text = run_cli(
            ["scan", "--omega", "1", "--g", "0.7", "--delta", "0.4", "--param", "g",
             "--from", "1e152", "--to", "2.998e153", "--steps", "10", "--levels", "2",
             "--order", "20"]
        )
        assert code == 0
        _, header, rows = parse_csv(text)
        assert len(rows) > 0

    def test_delta_zero_degenerate(self):
        code, _ = run_cli(
            ["scan", "--omega", "1", "--g", "0.7", "--delta", "0", "--param", "g",
             "--from", "0.1", "--to", "0.5", "--steps", "20", "--levels", "3",
             "--order", "60"]
        )
        assert code == 2

    def test_empty_range(self):
        code, text = run_cli(
            ["scan", *FIXTURE_ARGS, "--param", "g", "--from", "0.05", "--to", "0.08",
             "--steps", "10", "--levels", "3", "--order", "60"]
        )
        assert code == 0
        meta, _, _ = parse_csv(text.split("\n\n")[0])
        assert meta["events"] == "0"

    def test_crossing_row_and_tracks(self, tmp_path):
        tracks = tmp_path / "tracks.csv"
        code, text = run_cli(
            ["scan", *FIXTURE_ARGS, "--param", "g", "--from", "0.4", "--to", "0.52",
             "--steps", "40", "--levels", "3", "--order", "120",
             "--levels-out", str(tracks)]
        )
        assert code == 0
        meta, header, rows = parse_csv(text)
        assert len(rows) == 1
        deviation = float(rows[0][header.index("deviation")])
        assert deviation < 1e-4
        track_meta, track_header, track_rows = parse_csv(tracks.read_text())
        assert track_header[0] == "g"
        assert len(track_rows) == 40

    def test_default_order_at_largest_value(self):
        # without --order the scan takes default_order with g at max(|from|, |to|)
        code, text = run_cli(["scan", "--omega", "1", "--g", "15", "--delta", "0.4", "--param", "g",
                              "--from", "14", "--to", "15", "--steps", "10", "--levels", "2",
                              "--format", "json"])
        assert code == 0
        doc = json.loads(text)
        top = ModelParams(1.0, 15.0, 0.4)
        assert doc["metadata"]["order"] == default_order(top, 2, default_window(top, 2)) == 2630
        for g, *levels in doc["tracks"]["rows"]:
            want = [chain_reference(g, 0.4, [p], 2) for p in ("plus", "minus")]
            np.testing.assert_allclose(levels, np.concatenate(want), rtol=0, atol=1e-10)

    def test_levels_beyond_chain(self):
        # an order-3 chain holds 4 levels
        for levels in ("8", "0"):
            code, text = run_cli(
                ["scan", *FIXTURE_ARGS, "--param", "g", "--from", "0.1", "--to", "0.5",
                 "--steps", "20", "--levels", levels, "--order", "3"]
            )
            assert (code, text) == (2, "")

    def test_negative_order_refused_as_spectrum_refuses_it(self, capsys):
        # the order is checked before the levels it bounds
        code, text = run_cli(
            ["scan", *FIXTURE_ARGS, "--param", "g", "--from", "0.1", "--to", "0.2",
             "--steps", "10", "--order", "-3", "--levels", "1"]
        )
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "rabicf: order must be >= 0\n"
        run_cli(["spectrum", *FIXTURE_ARGS, "--method", "diag", "--order", "-3", "--levels", "1"])
        assert capsys.readouterr().err == "rabicf: order must be >= 0\n"

    def test_json_levels_out(self, tmp_path):
        argv = ["scan", *FIXTURE_ARGS, "--param", "g", "--from", "0.4", "--to", "0.52",
                "--steps", "20", "--levels", "3", "--order", "60", "--format", "json"]
        tracks = tmp_path / "tracks.csv"
        code, text = run_cli([*argv, "--levels-out", str(tracks)])
        assert code == 0
        doc = json.loads(text)
        assert "tracks" not in doc
        whole = json.loads(run_cli(argv)[1])
        assert doc["events"] == whole.pop("events")
        meta, header, rows = parse_csv(tracks.read_text())
        assert meta["section"] == "tracks"
        assert header == whole["tracks"]["columns"]
        assert [[float(v) for v in row] for row in rows] == whole["tracks"]["rows"]

    def test_unwritable_levels_out(self, tmp_path, capsys):
        # the tracks file is written before stdout: nothing is printed
        missing = tmp_path / "missing" / "tracks.csv"
        code, text = run_cli(
            ["scan", *FIXTURE_ARGS, "--param", "g", "--from", "0.4", "--to", "0.52",
             "--steps", "20", "--levels", "3", "--order", "60", "--levels-out", str(missing)]
        )
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("rabicf: ") and str(missing) in err

    def test_json_scan(self):
        code, text = run_cli(
            ["scan", *FIXTURE_ARGS, "--param", "g", "--from", "0.05", "--to", "0.08",
             "--steps", "10", "--levels", "2", "--order", "40", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(text)
        assert "events" in doc and "tracks" in doc
        assert len(doc["tracks"]["rows"]) == 10


class TestRepeatedMain:
    """Back-to-back ``main`` calls in one process print and exit as a fresh
    process does for each request: no call leaves state behind, in the
    parser or its defaults, that a later one reads."""

    def test_back_to_back_calls(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega = 1\ng = 0.7\ndelta = 0.4\nmethod = diag\nlevels = 3\n")
        small = [*FIXTURE_ARGS, "--order", "40", "--levels", "3"]
        requests = [
            ["spectrum", *small, "--method", "a"],
            ["spectrum", *small, "--method", "b", "--parity", "plus", "--format", "json"],
            ["spectrum", *FIXTURE_ARGS, "--method", "bogus"],  # usage error
            ["spectrum", "--config", str(cfg), "--parity", "minus"],
            ["compare", *FIXTURE_ARGS, "--method-1", "b", "--order-1", "40",
             "--method-2", "diag", "--order-2", "40", "-m", "3"],
            ["pathological", *FIXTURE_ARGS, "--e0", "0.5"],  # the default orders
            ["pathological", *FIXTURE_ARGS, "--e0", "0.5", "--order", "10,20",
             "--format", "json"],
            ["pathological", *FIXTURE_ARGS, "--e0", "0.5"],
            ["bound", *FIXTURE_ARGS, "--energy", "0"],
            ["scan", *FIXTURE_ARGS, "--from", "0.05", "--to", "0.5", "--steps", "10",
             "--levels", "2", "--order", "20"],
            ["--version"],
            ["spectrum", "--config", str(tmp_path / "missing.cfg")],
        ]
        src = str(Path(rabicf.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))

        def fresh(argv):
            return subprocess.Popen([sys.executable, "-m", "rabicf.cli", *argv], env=env,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

        ahead = 3  # fresh processes running at a time
        procs = [fresh(argv) for argv in requests[:ahead]]
        for i, argv in enumerate(requests):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            stdout, stderr = procs[i].communicate(timeout=120)
            if i + ahead < len(requests):
                procs.append(fresh(requests[i + ahead]))
            assert (code, out.getvalue(), err.getvalue()) == (procs[i].returncode, stdout,
                                                               stderr), argv


class TestConfigFile:
    def test_config_seeds_options(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega = 1\ng = 0\ndelta = 0.4\nmethod = diag\n"
                       "parity = plus\nlevels = 3\n")
        code, text = run_cli(["spectrum", "--config", str(cfg)])
        assert code == 0
        _, _, rows = parse_csv(text)
        assert [float(r[1]) for r in rows] == pytest.approx([0.4, 0.6, 2.4], abs=1e-10)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega = 1\ng = 0\ndelta = 0.4\nmethod = diag\n"
                       "parity = plus\nlevels = 3\n")
        code, text = run_cli(["spectrum", "--config", str(cfg), "--levels", "2"])
        assert code == 0
        _, _, rows = parse_csv(text)
        assert len(rows) == 2

    def test_missing_config(self):
        code, _ = run_cli(["spectrum", "--config", "/nonexistent/x.cfg",
                           *FIXTURE_ARGS, "--method", "diag"])
        assert code == 2

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("omega 1\n")
        code, _ = run_cli(["spectrum", "--config", str(cfg)])
        assert code == 2

    @pytest.mark.parametrize("value, seeded", [("on", True), ("off", False)])
    def test_boolean_value(self, tmp_path, value, seeded):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seedless = {value}\n")
        argv = ["spectrum", "--config", str(cfg)]
        assert _load_config_args(argv) == argv[:1] + ["--seedless"] * seeded + argv[1:]
