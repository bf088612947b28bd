import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import involution
from involution.channel import write_eta_sequence
from involution.cli import EXIT_CONSTRAINT, EXIT_ENGINE, EXIT_OK, EXIT_PARSE, EXIT_USAGE, _atomic_write, main
from involution.signals import make_signal, pulse, read_trace, write_trace
from involution.waveform_lab import fit_exp_channel

import oracles
from test_circuit import FIG4_NETLIST


@pytest.fixture()
def fig4(tmp_path):
    netlist = tmp_path / "fig4.json"
    netlist.write_text(json.dumps(FIG4_NETLIST))
    return netlist


def write_stimulus(tmp_path, sig, name="i"):
    path = tmp_path / "stim.csv"
    write_trace(path, {name: sig})
    return path


class TestSimulate:
    def test_lock_run_writes_traces_and_manifest(self, tmp_path, fig4, capsys):
        stim = write_stimulus(tmp_path, pulse(0, 1.5))
        out = tmp_path / "out"
        rc = main(["simulate", str(fig4), str(stim), "--horizon", "30", "--out", str(out)])
        assert rc == EXIT_OK
        o_sig = read_trace(out / "o.csv")["o"]
        assert len(o_sig.transitions) == 1 and o_sig.transitions[0].value == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert set(manifest["inputs"]) == {str(fig4), str(stim)}
        assert manifest["resolved"]["o"] == 1

    def test_pass_through_run_yields_zero_output(self, tmp_path, fig4):
        stim = write_stimulus(tmp_path, pulse(0, 0.5))
        out = tmp_path / "out"
        assert main(["simulate", str(fig4), str(stim), "--horizon", "30", "--out", str(out)]) == EXIT_OK
        assert read_trace(out / "o.csv")["o"].is_zero

    def test_missing_file_is_io_error(self, tmp_path, fig4, capsys):
        rc = main(["simulate", str(fig4), str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_PARSE
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "io"

    def test_bad_netlist_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ports": [], "gates": [], "channels": [], "bogus": 1}))
        stim = write_stimulus(tmp_path, pulse(0, 1))
        assert main(["simulate", str(bad), str(stim), "--out", str(tmp_path / "o")]) == EXIT_PARSE

    def test_reproducible_outputs(self, tmp_path, fig4):
        stim = write_stimulus(tmp_path, pulse(0, 0.9))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", str(fig4), str(stim), "--horizon", "30", "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", str(fig4), str(stim), "--horizon", "30", "--out", str(out2)]) == EXIT_OK
        for name in ("o.csv", "or1.csv", "chan_c.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


    def test_rerun_publishes_only_changed_files(self, tmp_path):
        # two independent wires: changing b's stimulus leaves every a-file unchanged
        wires = {
            "ports": [{"name": n, "direction": d} for n, d in (("a", "in"), ("b", "in"), ("x", "out"), ("y", "out"))],
            "gates": [],
            "channels": [
                {"name": "ca", "from": "a", "to": "x", "kind": "pure", "params": {"d": 1.0}},
                {"name": "cb", "from": "b", "to": "y", "kind": "pure", "params": {"d": 1.0}},
            ],
        }
        netlist, stim, out = tmp_path / "wires.json", tmp_path / "stim.csv", tmp_path / "out"
        netlist.write_text(json.dumps(wires))
        argv = ["simulate", str(netlist), str(stim), "--horizon", "10", "--out", str(out)]
        write_trace(stim, {"a": pulse(0, 1), "b": pulse(0, 1)})
        assert main(argv) == EXIT_OK
        before = {p.name: p.stat() for p in out.iterdir()}

        # b's falling edge moves from 1.0 to 2.0: the changed files keep their size
        write_trace(stim, {"a": pulse(0, 1), "b": pulse(0, 2)})
        started = tmp_path / "second_run_started"
        started.touch()
        assert main(argv) == EXIT_OK
        after = {p.name: p.stat() for p in out.iterdir()}

        assert set(after) == set(before)  # no *.tmp left behind
        for name in ("a.csv", "x.csv", "chan_ca.csv"):
            assert after[name].st_ino == before[name].st_ino, name
            assert after[name].st_mtime_ns >= started.stat().st_mtime_ns, name
        for name in ("b.csv", "y.csv", "chan_cb.csv"):
            assert after[name].st_size == before[name].st_size, name
            assert after[name].st_ino != before[name].st_ino, name
        fresh = tmp_path / "fresh"
        assert main([*argv[:-1], str(fresh)]) == EXIT_OK
        for name in after:
            if name.endswith(".csv"):
                assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
        assert after["manifest.json"].st_ino != before["manifest.json"].st_ino
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"][str(stim)] == hashlib.sha256(stim.read_bytes()).hexdigest()

    def test_malformed_trace_row_is_parse_error(self, tmp_path, fig4, capsys):
        stim = tmp_path / "stim.csv"
        stim.write_text("signal,time,value\ni,-inf,0\ni,abc,1\n")
        assert main(["simulate", str(fig4), str(stim), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "parse" and "line 3" in err["message"]

    def test_malformed_eta_sequence_is_parse_error(self, tmp_path, capsys):
        doc = json.loads(json.dumps(FIG4_NETLIST))
        doc["channels"][1]["strategy"] = {"variant": "fixed_sequence", "file": "etas.csv"}
        netlist = tmp_path / "fig4.json"
        netlist.write_text(json.dumps(doc))
        (tmp_path / "etas.csv").write_text("index,eta\n1,0.0\n")
        stim = write_stimulus(tmp_path, pulse(0, 1.5))
        assert main(["simulate", str(netlist), str(stim), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "parse" and "eta-sequence header" in err["message"]
        write_eta_sequence(tmp_path / "etas.csv", [0.0])
        assert main(["simulate", str(netlist), str(stim), "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_netlist_field_type_is_parse_error(self, tmp_path, capsys):
        doc = json.loads(json.dumps(FIG4_NETLIST))
        doc["gates"][1]["arity"] = "1"
        netlist = tmp_path / "fig4.json"
        netlist.write_text(json.dumps(doc))
        stim = write_stimulus(tmp_path, pulse(0, 1.5))
        assert main(["simulate", str(netlist), str(stim), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "parse" and "arity must be an integer" in err["message"]

    @pytest.mark.parametrize(
        "path, bad",
        [(("ports",), ["i", "o"]), (("channels", 0, "params"), [1.0])],
        ids=["ports", "params"],
    )
    def test_netlist_shape_is_parse_error(self, tmp_path, capsys, path, bad):
        doc = json.loads(json.dumps(FIG4_NETLIST))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        netlist = tmp_path / "fig4.json"
        netlist.write_text(json.dumps(doc))
        stim = write_stimulus(tmp_path, pulse(0, 1.5))
        assert main(["simulate", str(netlist), str(stim), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "parse" and "must be an object" in err["message"]

    def _run_eta_minus(self, tmp_path, eta_minus):
        doc = json.loads(json.dumps(FIG4_NETLIST))
        doc["channels"][1]["eta"]["minus"] = eta_minus
        netlist = tmp_path / "fig4.json"
        netlist.write_text(json.dumps(doc))
        stim = write_stimulus(tmp_path, pulse(0, 1.5))
        return main(["simulate", str(netlist), str(stim), "--horizon", "30", "--out", str(tmp_path / "o")])

    def test_nan_eta_minus_is_parse_error(self, tmp_path, capsys):
        assert self._run_eta_minus(tmp_path, math.nan) == EXIT_PARSE
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "parse" and "eta bounds must be finite" in err["message"]

    def test_huge_eta_minus_is_engine_error(self, tmp_path, capsys):
        assert self._run_eta_minus(tmp_path, 1000.0) == EXIT_ENGINE
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "engine" and "eta_minus exceeds delta(0)" in err["message"]


def test_failed_write_keeps_old_file_and_leaves_no_tmp(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("old\n")

    def writer(tmp):
        with open(tmp, "w") as fh:
            fh.write("partial")
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        _atomic_write(str(path), writer)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]


class TestAnalyze:
    def test_ref_zero_eta_report(self, capsys):
        rc = main(["analyze", "--tau", "1", "--t-p", "0.5", "--vth", "0.5"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        assert report["duty"] == pytest.approx(0.5, abs=1e-6)
        assert report["tau_star"] == pytest.approx(0.6491832629580262, abs=1e-9)

    def test_constraint_violation_is_structured(self, capsys):
        rc = main(
            ["analyze", "--tau", "1", "--t-p", "0.5", "--vth", "0.5", "--eta-minus", "0.4", "--eta-plus", "0.05"]
        )
        assert rc == EXIT_CONSTRAINT
        report = json.loads(capsys.readouterr().out)
        assert not report["ok"] and report["error"] == "ConstraintCViolated"

    def test_other_params_pass_invariants(self, capsys):
        rc = main(["analyze", "--tau", "2", "--t-p", "0.3", "--vth", "0.7"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["delta_min"] == pytest.approx(0.3, abs=1e-9)
        assert report["delta_up"] < report["delta_min"]

    def test_report_file(self, tmp_path):
        out = tmp_path / "rep"
        assert main(["analyze", "--tau", "1", "--t-p", "0.5", "--vth", "0.5", "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "characterization.json").read_text())
        assert doc["gamma" if "gamma" in doc else "duty"] == pytest.approx(0.5, abs=1e-6)


class TestSpfSweep:
    def test_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(
            [
                "spf-sweep",
                "--tau", "1", "--t-p", "0.5", "--vth", "0.5",
                "--grid", "0.3", "1.5", "0.3",
                "--strategy", "zero",
                "--horizon", "40",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result == {"f2": True, "f3": True, "f4": True}
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "delta0,regime,pulses_observed,resolved_to,stabilization_time"
        assert len(rows) == 1 + 1 + 5  # header + zero run + grid points
        verdict = json.loads((out / "spf_verdict.json").read_text())
        assert verdict["f4_witnesses"] == []

    def test_delta0_is_a_plain_float(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["spf-sweep", *REF, "--grid", "0.1", "0.5", "0.2", "--horizon", "20", "--out", str(out)]
        assert main(argv) == EXIT_OK
        cells = [row.split(",")[0] for row in (out / "sweep.csv").read_text().splitlines()[2:]]
        assert [float(c) for c in cells] == pytest.approx([0.1, 0.3, 0.5])

    def test_empty_strategy_set_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["spf-sweep", *REF, "--strategy", "random", "--seeds", "0", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "no strategy to sweep" in capsys.readouterr().err
        assert not out.exists()


class TestWaveform:
    def test_zero_disturbance_self_test(self, tmp_path, capsys):
        out = tmp_path / "wf"
        rc = main(
            ["waveform", "--tau", "1", "--t-p", "0.5", "--vth", "0.5", "--horizon", "30", "--out", str(out)]
        )
        assert rc == EXIT_OK
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["coverage"] == 1.0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["tau"] == pytest.approx(1.0, rel=1e-3)
        assert fit["t_p"] == pytest.approx(0.5, rel=1e-3)
        assert fit["vth_norm"] == pytest.approx(0.5, rel=1e-3)

    def test_fit_learns_from_the_deviation_pairs(self, tmp_path, capsys):
        # The disturbed surrogate crosses only twice for `a`, while the channel
        # keeps all four transitions.  Pairing the two by position fed the fit
        # a row with T = -0.466 and delta_down = 5.004 and gave tau = 0.042,
        # t_p = 1.21, vth = 0.063 with an rms residual of 1.08.
        a = make_signal(0, [(0.0, 1), (0.95, 0), (2.0, 1), (5.0, 0)])
        others = {
            name: make_signal(0, [(0.0, 1), (1.5 + 0.3 * k, 0), (3.0 + 0.5 * k, 1), (5.0 + 0.5 * k, 0)])
            for k, name in enumerate("bcde")
        }
        stim = tmp_path / "s.csv"
        write_trace(stim, {"a": a, **others})
        out = tmp_path / "wf"
        argv = ["waveform", "--tau", "1", "--t-p", "0.5", "--vth", "0.6", "--amplitude", "0.2", "--seed", "0"]
        assert main([*argv, "--stimulus", str(stim), "--out", str(out)]) == EXIT_OK
        fit = json.loads((out / "fit.json").read_text())
        rows = (out / "deviations.csv").read_text().splitlines()[1:]
        assert fit["sample_count"] == sum(math.isfinite(float(r.split(",")[1])) for r in rows) == 14
        assert fit["rms_residual"] < 0.05
        assert fit["tau"] == pytest.approx(0.828, abs=1e-3)
        assert fit["t_p"] == pytest.approx(0.546, abs=1e-3)
        assert fit["vth_norm"] == pytest.approx(0.606, abs=1e-3)

    def test_disturbed_run_emits_bins(self, tmp_path, capsys):
        out = tmp_path / "wf"
        rc = main(
            [
                "waveform",
                "--tau", "1", "--t-p", "0.5", "--vth", "0.6",
                "--amplitude", "0.01", "--period", "2.0",
                "--horizon", "30", "--seed", "3",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["bins"]) == 4
        dev_rows = (out / "deviations.csv").read_text().splitlines()
        assert dev_rows[0] == "edge,T,D,covered,delay"
        assert len(dev_rows) > 10

    def test_fit_is_reproduced_from_deviations_csv(self, tmp_path, capsys):
        out = tmp_path / "wf"
        argv = ["waveform", "--tau", "1", "--t-p", "0.5", "--vth", "0.6", "--amplitude", "0.01", "--seed", "51"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        with open(out / "deviations.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if math.isfinite(float(r["T"]))]
        samples = [
            (float(r["T"]), float(r["delay"]), None) if r["edge"] == "rising" else (float(r["T"]), None, float(r["delay"]))
            for r in rows
        ]
        fitted = fit_exp_channel(samples)
        fit = json.loads((out / "fit.json").read_text())
        assert fit == {
            "tau": fitted.params.tau,
            "t_p": fitted.params.t_p,
            "vth_norm": fitted.params.vth_norm,
            "rms_residual": fitted.rms,
            "sample_count": len(samples),
            "nfev": fitted.nfev,
        }
        assert fitted.nfev >= 3  # one evaluation at least per start

    def test_a_diverged_fit_removes_an_earlier_fit_json(self, tmp_path, capsys):
        out = tmp_path / "wf"
        argv = ["waveform", "--tau", "1", "--t-p", "0.5", "--vth", "0.6", "--out", str(out)]
        assert main(argv) == EXIT_OK and (out / "fit.json").exists()
        stim = write_stimulus(tmp_path, make_signal(0, [(0.0, 1), (3.0, 0)]))
        capsys.readouterr()
        assert main([*argv, "--stimulus", str(stim)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["fit"] == {"error": "need at least 5 delay values, got 1"}
        assert len((out / "deviations.csv").read_text().splitlines()) == 3
        assert sorted(p.name for p in out.iterdir()) == ["deviations.csv", "manifest.json"]

    def test_the_seed_reaches_only_a_disturbed_rail(self, tmp_path, capsys):
        argv = ["waveform", "--tau", "1", "--t-p", "0.5", "--vth", "0.6"]
        for amplitude in ("0", "0.01"):
            for seed in ("0", "7"):
                out = tmp_path / f"a{amplitude}-s{seed}"
                assert main([*argv, "--amplitude", amplitude, "--seed", seed, "--out", str(out)]) == EXIT_OK
        for name in ("deviations.csv", "fit.json"):
            assert (tmp_path / "a0-s0" / name).read_bytes() == (tmp_path / "a0-s7" / name).read_bytes()
            assert (tmp_path / "a0.01-s0" / name).read_bytes() != (tmp_path / "a0.01-s7" / name).read_bytes()


def test_usage_error_exit_code():
    assert main(["simulate"]) == 2
    assert main(["frobnicate"]) == 2


def test_flags_a_subcommand_does_not_read_are_usage_errors(tmp_path, fig4):
    stim = write_stimulus(tmp_path, pulse(0, 1.5))
    ref = ["--tau", "1", "--t-p", "0.5", "--vth", "0.5"]
    out = ["--out", str(tmp_path / "out")]
    assert main(["analyze", *ref, "--horizon", "5"]) == 2
    assert main(["simulate", str(fig4), str(stim), "--horizon", "30", "--tol", "1e-9", *out]) == 2
    assert main(["spf-sweep", *ref, "--grid", "0.3", "0.3", "0.3", "--horizon", "20", "--seed", "1", *out]) == 2


REF = ["--tau", "1", "--t-p", "0.5", "--vth", "0.5"]


def _usage_error(capsys, argv, flag) -> bool:
    rc = main(argv)
    return rc == EXIT_USAGE and f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-5", "0"])
def test_horizon_must_be_finite_and_positive(tmp_path, fig4, capsys, value):
    stim = write_stimulus(tmp_path, pulse(0, 1.5))
    out = ["--out", str(tmp_path / "out"), "--horizon", value]
    assert _usage_error(capsys, ["simulate", str(fig4), str(stim), *out], "--horizon")
    assert _usage_error(capsys, ["spf-sweep", *REF, "--grid", "0.3", "0.3", "0.3", *out], "--horizon")
    assert _usage_error(capsys, ["waveform", *REF, *out], "--horizon")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "grid", [("0.1", "1.5", "0"), ("0.1", "1.5", "-0.1"), ("1.5", "0.1", "0.1"), ("0.1", "nan", "0.1")]
)
def test_grid_must_be_finite_and_ordered_with_positive_step(tmp_path, capsys, grid):
    argv = ["spf-sweep", *REF, "--grid", *grid, "--out", str(tmp_path / "out")]
    assert _usage_error(capsys, argv, "--grid")


def test_events_max_must_be_positive(tmp_path, fig4, capsys):
    stim = write_stimulus(tmp_path, pulse(0, 1.5))
    argv = ["simulate", str(fig4), str(stim), "--events-max", "0", "--out", str(tmp_path / "out")]
    assert _usage_error(capsys, argv, "--events-max")


def test_seeds_must_be_non_negative(tmp_path, capsys):
    argv = ["spf-sweep", *REF, "--strategy", "random", "--seeds", "-1", "--out", str(tmp_path / "out")]
    assert _usage_error(capsys, argv, "--seeds")


@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_epsilon_must_be_finite_and_positive(tmp_path, capsys, value):
    # a NaN epsilon made the F4 check pass vacuously
    argv = ["spf-sweep", *REF, "--grid", "0.3", "0.3", "0.3", "--epsilon", value, "--out", str(tmp_path / "out")]
    assert _usage_error(capsys, argv, "--epsilon")


@pytest.mark.parametrize(
    "flag, value", [("--eta-plus", "nan"), ("--eta-plus", "-1"), ("--period", "0"), ("--period", "inf")]
)
def test_waveform_budget_and_period_are_checked(tmp_path, capsys, flag, value):
    # a NaN or negative eta_plus gave coverage 0 and exit 0; --period 0 silently meant tau
    argv = ["waveform", *REF, "--amplitude", "0.01", flag, value, "--out", str(tmp_path / "out")]
    assert _usage_error(capsys, argv, flag)



# Every failure leaves main as a documented exit code, never as a traceback.
# Codes 3-5 end stderr with a JSON error of their kind, except that analyze
# reports a constraint failure on stdout, as {"ok": false, ...}.
_KINDS = {EXIT_PARSE: {"parse", "io"}, EXIT_CONSTRAINT: {"constraint"}, EXIT_ENGINE: {"engine"}}


def _run(capsys, argv) -> tuple[int, str]:
    """main's exit code, checked against the contract, and the last line of its stderr."""
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc in (EXIT_OK, EXIT_USAGE, *_KINDS), rc
    last = err.strip().splitlines()[-1] if err.strip() else ""
    if argv[0] == "analyze" and rc == EXIT_CONSTRAINT:
        assert json.loads(out)["ok"] is False
    elif rc in _KINDS:
        assert json.loads(last)["error"] in _KINDS[rc], last
    return rc, last


_NUMERIC_FLAGS = {
    "simulate": {"--horizon": ["30"], "--events-max": ["100000"]},
    "analyze": {"--tau": ["1"], "--t-p": ["0.5"], "--vth": ["0.5"], "--eta-plus": ["0.01"], "--eta-minus": ["0.01"]},
    "spf-sweep": {
        "--tau": ["1"], "--t-p": ["0.5"], "--vth": ["0.5"], "--eta-plus": ["0.01"], "--eta-minus": ["0.01"],
        "--grid": ["0.3", "0.6", "0.3"], "--seeds": ["1"], "--epsilon": ["0.1"], "--horizon": ["20"],
        "--events-max": ["100000"],
    },
    "waveform": {
        "--tau": ["1"], "--t-p": ["0.5"], "--vth": ["0.5"], "--amplitude": ["0.01"], "--period": ["1"],
        "--eta-plus": ["0.01"], "--seed": ["0"], "--horizon": ["20"],
    },
}
_FLAG_CASES = [(cmd, flag, k) for cmd, flags in _NUMERIC_FLAGS.items() for flag, v in flags.items() for k in range(len(v))]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "1e308"])
@pytest.mark.parametrize("cmd, flag, k", _FLAG_CASES, ids=[f"{c} {f}[{k}]" for c, f, k in _FLAG_CASES])
def test_numeric_flag_values_end_in_a_documented_exit(tmp_path, fig4, capsys, cmd, flag, k, value):
    flags = {f: list(v) for f, v in _NUMERIC_FLAGS[cmd].items()}
    flags[flag][k] = value
    positional = [str(fig4), str(write_stimulus(tmp_path, pulse(0, 1.5)))] if cmd == "simulate" else []
    strategies = ["--strategy", "zero", "--strategy", "random"] if cmd == "spf-sweep" else []
    argv = [cmd, *positional, *strategies, *(x for f, v in flags.items() for x in (f, *v)), "--out", str(tmp_path / "o")]
    rc, last = _run(capsys, argv)
    if rc == EXIT_USAGE:
        assert f"argument {flag}:" in last


def _leaves(node, path=()):
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(child, (*path, key))
    else:
        yield path


_LEAVES = list(_leaves(FIG4_NETLIST))


@pytest.mark.parametrize("mutation", ["missing", "wrong type", "negative", "nan"])
@pytest.mark.parametrize("path", _LEAVES, ids=[".".join(map(str, p)) for p in _LEAVES])
def test_netlist_leaf_mutations_are_parse_errors(tmp_path, capsys, path, mutation):
    doc = json.loads(json.dumps(FIG4_NETLIST))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if mutation == "missing":
        del node[path[-1]]
    else:
        wrong_type = 1 if isinstance(node[path[-1]], str) else "1"
        node[path[-1]] = {"wrong type": wrong_type, "negative": -1, "nan": math.nan}[mutation]
    netlist = tmp_path / "n.json"
    netlist.write_text(json.dumps(doc))
    stim = write_stimulus(tmp_path, pulse(0, 1.5))
    rc, last = _run(capsys, ["simulate", str(netlist), str(stim), "--horizon", "30", "--out", str(tmp_path / "o")])
    assert rc == EXIT_PARSE and json.loads(last)["error"] == "parse"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["analyze", "--tau", "-1", "--t-p", "0.5", "--vth", "0.5"], "--tau"),
        (["spf-sweep", "--tau", "-1", "--t-p", "0.5", "--vth", "0.5"], "--tau"),
        (["waveform", "--tau", "-1", "--t-p", "0.5", "--vth", "0.5"], "--tau"),
        (["analyze", *REF, "--eta-plus", "-0.1"], "--eta-plus"),
        (["waveform", *REF, "--seed", "-1"], "--seed"),
        (["spf-sweep", *REF, "--grid", "0", "0.2", "0.1"], "--grid"),
        (["spf-sweep", *REF, "--grid", "0.1", "1e308", "0.1"], "--grid"),
    ],
)
def test_out_of_range_flag_is_a_usage_error(tmp_path, capsys, argv, flag):
    assert _usage_error(capsys, [*argv, "--out", str(tmp_path / "out")], flag)


@pytest.mark.parametrize("cmd", ["simulate", "analyze", "spf-sweep", "waveform"])
def test_out_below_a_regular_file_is_io_error(tmp_path, fig4, capsys, cmd):
    (tmp_path / "file").write_text("")
    stim = write_stimulus(tmp_path, pulse(0, 1.5))
    args = {
        "simulate": [str(fig4), str(stim), "--horizon", "30"],
        "analyze": REF,
        "spf-sweep": [*REF, "--grid", "0.3", "0.3", "0.3", "--horizon", "20"],
        "waveform": [*REF, "--stimulus", str(stim), "--horizon", "20"],
    }[cmd]
    rc, last = _run(capsys, [cmd, *args, "--out", str(tmp_path / "file" / "out")])
    assert rc == EXIT_PARSE and json.loads(last)["error"] == "io"


@pytest.mark.parametrize(
    "strategy, words",
    [({"variant": "uniform_random", "seed": -1}, "seed must be >= 0, got -1"), ({}, "missing key 'variant'")],
    ids=["negative seed", "no variant"],
)
def test_bad_strategy_is_parse_error_naming_the_channel(tmp_path, capsys, strategy, words):
    doc = json.loads(json.dumps(FIG4_NETLIST))
    doc["channels"][1]["strategy"] = strategy
    netlist = tmp_path / "n.json"
    netlist.write_text(json.dumps(doc))
    stim = write_stimulus(tmp_path, pulse(0, 1.5))
    rc, last = _run(capsys, ["simulate", str(netlist), str(stim), "--out", str(tmp_path / "o")])
    assert rc == EXIT_PARSE and json.loads(last)["message"] == f"channel 'c': {words}"


@pytest.mark.parametrize("time", ["inf", "nan"])
def test_non_finite_stimulus_time_is_parse_error(tmp_path, fig4, capsys, time):
    stim = tmp_path / "stim.csv"
    stim.write_text(f"signal,time,value\ni,-inf,0\ni,{time},1\n")
    rc, last = _run(capsys, ["simulate", str(fig4), str(stim), "--out", str(tmp_path / "o")])
    assert rc == EXIT_PARSE and "is not finite" in json.loads(last)["message"]


def test_input_that_is_not_utf8_is_parse_error(tmp_path, fig4, capsys):
    garbage = tmp_path / "garbage"
    garbage.write_bytes(b"\xff\xfe\x00")
    stim = write_stimulus(tmp_path, pulse(0, 1.5))
    for argv in (["simulate", str(garbage), str(stim)], ["simulate", str(fig4), str(garbage)]):
        rc, last = _run(capsys, [*argv, "--out", str(tmp_path / "o")])
        assert rc == EXIT_PARSE and json.loads(last)["error"] == "parse"
        assert json.loads(last)["message"].startswith(f"{garbage}: not UTF-8 text")


@pytest.mark.parametrize("ref", ["table", "eta"])
def test_referenced_file_that_is_not_utf8_is_parse_error_naming_it(tmp_path, capsys, ref):
    doc = json.loads(json.dumps(FIG4_NETLIST))
    loop = doc["channels"][1]
    if ref == "table":
        loop["params"] = {"table": "garbage", "asymptotes": {"up": 1.2, "down": 1.2}}
    else:
        loop["strategy"] = {"variant": "fixed_sequence", "file": "garbage"}
    netlist = tmp_path / "fig4.json"
    netlist.write_text(json.dumps(doc))
    (tmp_path / "garbage").write_bytes(b"\xff\xfe\x00")
    stim = write_stimulus(tmp_path, pulse(0, 1.5))
    rc, last = _run(capsys, ["simulate", str(netlist), str(stim), "--out", str(tmp_path / "o")])
    assert rc == EXIT_PARSE and json.loads(last)["error"] == "parse"
    assert f"{tmp_path / 'garbage'}: not UTF-8 text" in json.loads(last)["message"]


TABLE_NETLIST = {
    "ports": [{"name": "i", "direction": "in"}, {"name": "o", "direction": "out"}],
    "gates": [],
    "channels": [
        {
            "name": "c",
            "from": "i",
            "to": "o",
            "kind": "involution",
            "params": {"table": "table.csv", "asymptotes": {"up": oracles.REF_D_INF, "down": oracles.REF_D_INF}},
        }
    ],
}


_HEADER = "T,delta_up,delta_down"


def write_table_netlist(tmp_path, rows, header=_HEADER):
    (tmp_path / "table.csv").write_text(f"{header}\n" + "".join(f"{r}\n" for r in rows))
    netlist = tmp_path / "table.json"
    netlist.write_text(json.dumps(TABLE_NETLIST))
    return netlist


@pytest.mark.parametrize(
    "header, rows, problem",
    [
        (_HEADER, ["0,1.0,1.0", "1,1.2,1.2", "1,1.3,1.3", "2,1.4,1.4"], "delta_up samples repeat T=1.0"),
        (_HEADER, ["0,1.0,1.0", "nan,1.2,1.2", "1,1.3,1.3", "2,1.4,1.4"], "delta_up samples must have finite T and delay"),
        (_HEADER, ["0,1.0,1.0", "1,1.2,nan", "1.5,1.3,1.3", "2,1.4,1.4"], "delta_down samples must have finite T and delay"),
        (_HEADER, ["0,1.0,1.0", "1,,1.2", "2,,1.3", "3,1.4,1.4"], "delta_up needs at least 3 samples"),
        (_HEADER, ["0,1.0,1.0", "1,1.2,0.9", "2,1.4,1.4"], "delta_down samples must be strictly increasing in T"),
        ("T,up,down", ["0,1.0,1.0"], "{table}: line 1: bad delay-sample header ['T', 'up', 'down']"),
    ],
    ids=["repeated-T", "nan-T", "nan-delay", "too-few", "not-increasing", "header"],
)
def test_malformed_delay_table_is_parse_error_naming_the_channel(tmp_path, capsys, header, rows, problem):
    # the interpolant used to reject the first three with a bare ValueError: exit 1 and a traceback
    netlist = write_table_netlist(tmp_path, rows, header)
    stim = write_stimulus(tmp_path, pulse(0, 1.5))
    rc, last = _run(capsys, ["simulate", str(netlist), str(stim), "--out", str(tmp_path / "o")])
    problem = problem.format(table=tmp_path / "table.csv")
    assert rc == EXIT_PARSE and json.loads(last) == {"error": "parse", "message": f"channel 'c': {problem}"}


def _fig4_with(change):
    """A copy of FIG4_NETLIST after ``change(doc)``."""
    doc = json.loads(json.dumps(FIG4_NETLIST))
    change(doc)
    return doc


_ROGUE = {"kind": "pure", "params": {"d": 1.0}}  # an extra channel, named "x" and placed by each case
_IDLE = {"function": "CONST0", "arity": 0, "initial": 0}  # an extra gate without pins, named by each case


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: d["channels"][0].update({"from": "nowhere"}), "channel 'ci': unknown source 'nowhere'"),
        (lambda d: d["channels"][3].update({"from": "o"}), "channel 'co': output port 'o' cannot drive"),
        (lambda d: d["channels"][3].update({"to": "o.0"}), "channel 'co': ports have no pins"),
        (
            lambda d: d["channels"].append({"name": "x", "from": "buf1", "to": "i", **_ROGUE}),
            "channel 'x': input port 'i' cannot be driven",
        ),
        (
            lambda d: d["channels"].append({"name": "x", "from": "buf1", "to": "nowhere", **_ROGUE}),
            "channel 'x': unknown destination 'nowhere'",
        ),
        (lambda d: d["channels"][1].update({"params": {}}), "channel 'c': params need 'exp' or 'table', got []"),
        (lambda d: d["channels"][0]["params"].update({"q": 1}), "channel 'ci': unknown params ['q']"),
        (lambda d: d["channels"][1].update({"from": "or1.0"}), "channel 'c': 'from' must be a gate or port, not a pin"),
        (
            lambda d: d["gates"].append({"name": "buf1", "function": "NOT", "arity": 1, "initial": 1}),
            "duplicate vertex names ['buf1']",
        ),
        (lambda d: d["channels"][3].update({"name": "ht"}), "duplicate channel names ['ht']"),
        (
            lambda d: d["gates"].append({"name": "chan_ci", **_IDLE}),
            "gate 'chan_ci' and channel 'ci' would both write the trace file 'chan_ci.csv'",
        ),
        (
            lambda d: d["gates"].append({"name": "a/b", **_IDLE}),
            "gate 'a/b': a name written as a trace file cannot hold '/', '\\' or NUL",
        ),
        (
            lambda d: d["channels"][3].update({"name": "c\\o"}),
            "channel 'c\\\\o': a name written as a trace file cannot hold '/', '\\' or NUL",
        ),
        (
            lambda d: d["gates"].append({"name": "g\0", **_IDLE}),
            "gate 'g\\x00': a name written as a trace file cannot hold '/', '\\' or NUL",
        ),
    ],
    ids=[
        "unknown-source", "output-drives", "pin-on-port", "input-driven", "unknown-destination",
        "no-delay-params", "unknown-params", "from-a-pin", "repeated-gate", "repeated-channel",
        "gate-named-like-a-channel-trace", "slash-in-a-gate", "backslash-in-a-channel", "nul-in-a-gate",
    ],
)
def test_netlist_rejection_names_its_entry(tmp_path, capsys, change, message):
    netlist = tmp_path / "n.json"
    netlist.write_text(json.dumps(_fig4_with(change)))
    stim = write_stimulus(tmp_path, pulse(0, 1.5))
    rc, last = _run(capsys, ["simulate", str(netlist), str(stim), "--out", str(tmp_path / "o")])
    assert rc == EXIT_PARSE and json.loads(last) == {"error": "parse", "message": message}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("sig,time,value\ni,-inf,0\n", "{stim}: line 1: bad trace header ['sig', 'time', 'value']"),
        ("signal,time,value\ni,1.0,1\n", "{stim}: signal 'i' has no -inf initial-value row"),
        ("signal,time,value\ni,-inf,0\ni,1.0,1\ni,-inf,0\n", "{stim}: line 4: repeated -inf initial-value row of signal 'i'"),
        ("signal,time,value\ni,-inf,0\ni,1.0,0\n", "{stim}: signal 'i': transition at t=1.0 repeats value 0"),
    ],
    ids=["header", "no-initial-row", "repeated-initial-row", "invalid-signal"],
)
def test_trace_rejection_is_parse_error(tmp_path, fig4, capsys, text, message):
    stim = tmp_path / "stim.csv"
    stim.write_text(text)
    rc, last = _run(capsys, ["simulate", str(fig4), str(stim), "--out", str(tmp_path / "o")])
    assert rc == EXIT_PARSE and json.loads(last) == {"error": "parse", "message": message.format(stim=stim)}


def test_manifest_records_the_argv_main_parsed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["host", "--unrelated"])
    argv = ["analyze", *REF, "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    assert json.loads((tmp_path / "manifest.json").read_text())["argv"] == argv


def test_manifest_digests_the_files_a_netlist_names(tmp_path):
    up, down, _, _ = oracles.exp_pair(1.0, 0.5, 0.5)
    netlist = write_table_netlist(tmp_path, [f"{t},{up(t)},{down(t)}" for t in (-0.9, -0.5, 0.0, 1.0, 3.0, 8.0)])
    doc = json.loads(netlist.read_text())
    doc["channels"][0].update(kind="eta_involution", strategy={"variant": "fixed_sequence", "file": "etas.csv"})
    netlist.write_text(json.dumps(doc))
    table, etas = tmp_path / "table.csv", tmp_path / "etas.csv"
    write_eta_sequence(etas, [0.0])
    stim = write_stimulus(tmp_path, pulse(0, 1.5))

    def inputs():
        assert main(["simulate", str(netlist), str(stim), "--horizon", "20", "--out", str(tmp_path / "o")]) == EXIT_OK
        return json.loads((tmp_path / "o" / "manifest.json").read_text())["inputs"]

    def digests():
        return {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (netlist, stim, table, etas)}

    assert inputs() == digests()
    before = digests()
    with open(table, "a") as fh:
        fh.write(f"12.0,{up(12.0)},{down(12.0)}\n")
    after = inputs()
    assert after == digests() and after[str(table)] != before[str(table)]


def test_a_stimulus_signal_naming_no_input_port_is_an_engine_error(tmp_path, fig4, capsys):
    stim = tmp_path / "stim.csv"
    write_trace(stim, {"i": pulse(0, 1.5), "x": pulse(0, 1.0)})
    rc, last = _run(capsys, ["simulate", str(fig4), str(stim), "--out", str(tmp_path / "o")])
    assert rc == EXIT_ENGINE
    assert json.loads(last) == {"error": "engine", "message": "input signals ['x'] name no input port"}
    assert not (tmp_path / "o").exists()


_SWEEP = ["spf-sweep", *REF, "--grid", "0.3", "0.6", "0.3", "--horizon", "20"]
_WAVEFORM = ["waveform", "--tau", "1", "--t-p", "0.5", "--vth", "0.6", "--seed", "7"]


@pytest.mark.parametrize(
    "argv, stimulus, seeds",
    [
        ([*_SWEEP, "--strategy", "zero"], None, {}),
        ([*_SWEEP, "--strategy", "worst", "--strategy", "random", "--seeds", "2"], None, {"random": [0, 1]}),
        ([*_WAVEFORM, "--amplitude", "0"], None, {}),
        ([*_WAVEFORM, "--amplitude", "0.01"], None, {"phase": 7}),
        (["simulate"], make_signal(0, []), {}),
        (["simulate"], pulse(0, 1.5), {"c": 5}),
    ],
    ids=["sweep-zero", "sweep-random", "waveform-clean", "waveform-disturbed", "simulate-idle", "simulate-pulse"],
)
def test_manifest_lists_only_the_seeds_a_run_drew_from(tmp_path, capsys, argv, stimulus, seeds):
    if stimulus is not None:  # fig4 with a uniform-random loop channel, which draws once its input switches
        doc = _fig4_with(lambda d: d["channels"][1].update(strategy={"variant": "uniform_random", "seed": 5}))
        netlist = tmp_path / "n.json"
        netlist.write_text(json.dumps(doc))
        argv = [*argv, str(netlist), str(write_stimulus(tmp_path, stimulus)), "--horizon", "30"]
    assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["seeds"] == seeds


def test_waveform_and_a_tabulated_simulate_run_without_scipy(tmp_path):
    # SciPy is a test dependency only; with it unimportable both commands still succeed
    up, down, _, _ = oracles.exp_pair(1.0, 0.5, 0.5)
    netlist = write_table_netlist(tmp_path, [f"{t},{up(t)},{down(t)}" for t in (-0.9, -0.5, 0.0, 1.0, 3.0, 8.0)])
    stim = write_stimulus(tmp_path, make_signal(0, [(0.0, 1), (1.0, 0), (1.6, 1), (3.0, 0)]))
    argvs = [
        ["waveform", "--tau", "1", "--t-p", "0.5", "--vth", "0.6", "--amplitude", "0.01", "--out", str(tmp_path / "wf")],
        ["simulate", str(netlist), str(stim), "--horizon", "20", "--out", str(tmp_path / "sim")],
    ]
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None  # importing scipy or any submodule now raises ImportError\n"
        "from involution.cli import main\n"
        "sys.exit(max([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(involution.__file__))},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "wf" / "fit.json").exists()
    assert len(read_trace(tmp_path / "sim" / "o.csv")["o"].transitions) == 4


def test_analyze_one_ulp_inside_the_delay_domain_reports(capsys):
    # h(hi) evaluates delta_down one ulp above -d_inf_up, where the
    # exponential rounds to 1; that used to end in a log1p(-1.0) traceback
    argv = [
        "analyze", "--tau", "2.4411016800340977", "--t-p", "0.21728129490157388", "--vth", "0.0807739889154245",
        "--eta-minus", "0.04174366976770804", "--eta-plus", "0.07959080912480865",
    ]
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_calibration_train_with_vanishing_gaps_is_a_constraint_error(tmp_path, capsys):
    rc, last = _run(capsys, ["waveform", "--tau", "1", "--vth", "0.5", "--t-p", "1e-300", "--out", str(tmp_path)])
    assert rc == EXIT_CONSTRAINT and json.loads(last)["error"] == "constraint"
    assert "--t-p=1e-300" in json.loads(last)["message"] and "calibration train" in json.loads(last)["message"]


def test_eta_plus_outside_the_delay_domain_stays_a_constraint_report(capsys):
    assert main(["analyze", *REF, "--eta-plus", "5"]) == EXIT_CONSTRAINT
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["error"] == "DomainViolation"


def test_closed_stdout_exits_3_without_a_message():
    # the reader of the pipe has gone before the report is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(involution.__file__))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "involution.cli", "analyze", *REF],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_PARSE
    assert done.stderr == b""
