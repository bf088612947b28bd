import csv
import hashlib
import json
import math

import pytest

from involution.channel import write_eta_sequence
from involution.cli import EXIT_CONSTRAINT, EXIT_ENGINE, EXIT_OK, EXIT_PARSE, EXIT_USAGE, _atomic_write, main
from involution.signals import make_signal, pulse, read_trace, write_trace
from involution.waveform_lab import fit_exp_channel

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
        fitted, rms = fit_exp_channel(samples, seed=51)
        fit = json.loads((out / "fit.json").read_text())
        assert fit == {
            "tau": fitted.tau,
            "t_p": fitted.t_p,
            "vth_norm": fitted.vth_norm,
            "rms_residual": rms,
            "sample_count": len(samples),
        }


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
