"""Self-tests of the benchmark: generators, tracer restore, and span arithmetic.

Run with ``python3 -m pytest bench`` from the repository root.
"""

import importlib
import json
import os

import pytest

import gen
from tracer import LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_generators_are_deterministic_per_seed(tmp_path):
    def write(seed, tag):
        net, stim = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
        horizon = gen.write_chain_inputs(seed, str(net), str(stim))
        return horizon, _bytes(net), _bytes(stim)

    assert write(7, "a") == write(7, "b")
    assert write(7, "a")[1:] != write(8, "c")[1:]
    assert gen.sweep_grid(7) == gen.sweep_grid(7) != gen.sweep_grid(8)
    assert gen.analyze_points(7) == gen.analyze_points(7) != gen.analyze_points(8)


def test_chain_stimulus_alternates_and_increases():
    times = gen.chain_stimulus(3)
    assert len(times) == gen.CHAIN_TRANSITIONS
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert min(gaps) >= gen.CHAIN_GAP[0] and max(gaps) <= gen.CHAIN_GAP[1]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_analyze_points_satisfy_constraint_c(seed):
    # A draw of U(0, 0.05) per budget violated (C) at seed 1, point 249.
    from involution import analysis, channel, delay_model

    for p in gen.analyze_points(seed):
        df = delay_model.exp_channel(delay_model.ExpChannelParams(p["tau"], p["t_p"], p["vth"]))
        holds, margin = analysis.constraint_C(df, channel.EtaBounds(p["eta_minus"], p["eta_plus"]))
        assert holds, (seed, p, margin)
        own = gen.constraint_c_margin(p["tau"], p["t_p"], p["vth"], p["eta_plus"], p["eta_minus"])
        assert own == pytest.approx(margin, abs=1e-9)


def _attribute_snapshot():
    pkg = importlib.import_module("involution")
    mods = [pkg] + [importlib.import_module(f"involution.{layer}") for layer in LAYERS]
    from involution import channel, delay_model, signals
    import scipy.optimize

    owners = mods + [delay_model.DelayFunction, signals.Signal, channel.EtaSource, channel._InvolutionState]
    snap = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    snap[("least_squares",)] = scipy.optimize.least_squares
    return snap


def test_tracer_restores_every_patched_attribute():
    from involution import analysis, circuit

    before = _attribute_snapshot()
    original_execute = circuit.execute
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            # the alias another module imported carries the same wrapper
            assert analysis.execute is circuit.execute is not original_execute
            assert analysis.execute.__wrapped__ is original_execute
            raise RuntimeError("leave the block by an exception")
    after = _attribute_snapshot()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed


def test_self_time_and_parent_attribution_on_a_known_tree():
    class Clock:
        t = 0.0

        def __call__(self):
            return self.t

    clock = Clock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.t += 1.0

    def child():
        clock.t += 2.0
        leaf_w()

    def root():
        clock.t += 3.0
        child_w()
        child_w()

    leaf_w = tr.counter("hot.leaf", leaf, timed=True)
    child_w = tr.span("m.child", child)
    root_w = tr.span("m.root", root)
    other_w = tr.span("m.other", child)
    root_w()
    other_w()

    totals = tr.span_totals()
    assert totals["m.root"] == {"calls": 1, "total_s": 9.0, "self_s": 3.0}
    assert totals["m.child"] == {"calls": 2, "total_s": 6.0, "self_s": 4.0}
    assert totals["m.other"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert tr.counts["hot.leaf"] == 3 and tr.leaf_s["hot.leaf"] == 3.0
    assert [s[3] for s in tr.spans] == [-1, 0, 0, -1]
    assert tr.time_under("m.child", "m.root") == 6.0
    assert tr.time_under("m.other", "m.root") == 0.0


def test_traced_analyze_counts(capsys):
    from involution import cli

    def traced():
        tr = Tracer()
        with tr.installed():
            assert cli.main(["analyze", "--tau", "1", "--t-p", "0.5", "--vth", "0.5", "--eta-plus", "0.1", "--eta-minus", "0.05"]) == 0
        return tr.layer_metrics()

    first, second = traced(), traced()
    assert capsys.readouterr().out.count('"ok": true') == 2
    def counts(metrics):
        return {k: v for k, v in metrics.items() if not k.endswith("_s") and not k.startswith("runtime.")}

    assert counts(first) == counts(second)
    assert first["analysis.solve_tau.calls"] == 2
    assert first["rootfind.scan_sign_change.calls"] == 2
    assert first["delay_model.evals"] > first["rootfind.f_evals"] > 2000
    assert first["analysis.characterize_s"] > 0 and first["cli.self_s"] > 0
    assert first["circuit.events"] == 0


def test_benchmark_json_matches_the_reported_metrics():
    import run
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
