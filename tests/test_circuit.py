import json
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involution import channel as channel_module, delay_model

from involution.channel import (
    EtaBounds,
    EtaInvolution,
    FixedSequence,
    Inertial,
    Involution,
    Pure,
    UniformRandom,
    Zero,
    _release_window,
    apply_channel,
    channel_state,
)
from involution.circuit import (
    AlternationViolation,
    CausalityFault,
    ChannelEdge,
    Circuit,
    DanglingPin,
    EngineError,
    Gate,
    HorizonExceeded,
    MultipleDrivers,
    NetlistError,
    UnknownFunction,
    execute,
    or_loop_circuit,
    parse_circuit,
    verify_execution,
)
from involution.delay_model import ExpChannelParams, custom_channel, delta_min, exp_channel, tabulated_channel
from involution.rootfind import bisect_root
from involution.signals import Signal, make_signal, pulse

FIG4_NETLIST = {
    "ports": [{"name": "i", "direction": "in"}, {"name": "o", "direction": "out"}],
    "gates": [
        {"name": "or1", "function": "OR", "arity": 2, "initial": 0},
        {"name": "buf1", "function": "BUF", "arity": 1, "initial": 0},
    ],
    "channels": [
        {"name": "ci", "from": "i", "to": "or1.0", "kind": "pure", "params": {"d": 0.0}},
        {
            "name": "c",
            "from": "or1",
            "to": "or1.1",
            "kind": "eta_involution",
            "params": {"exp": {"tau": 1.0, "t_p": 0.5, "vth": 0.5}},
            "eta": {"plus": 0.0, "minus": 0.0},
            "strategy": {"variant": "zero"},
        },
        {
            "name": "ht",
            "from": "or1",
            "to": "buf1.0",
            "kind": "involution",
            "params": {"exp": {"tau": 4.0, "t_p": 0.2, "vth": 0.75}},
        },
        {"name": "co", "from": "buf1", "to": "o", "kind": "pure", "params": {"d": 0.0}},
    ],
}


class TestParse:
    def test_fig4_netlist_valid(self):
        c = parse_circuit(json.dumps(FIG4_NETLIST))
        assert c.input_ports == ["i"] and c.output_ports == ["o"]
        assert set(c.gates) == {"or1", "buf1"}
        assert set(c.channels) == {"ci", "c", "ht", "co"}

    def test_two_drivers_on_one_pin(self):
        doc = json.loads(json.dumps(FIG4_NETLIST))
        doc["channels"].append(
            {"name": "dup", "from": "i", "to": "or1.1", "kind": "pure", "params": {"d": 0.0}}
        )
        with pytest.raises(MultipleDrivers):
            parse_circuit(doc)

    def test_single_buf_circuit(self):
        doc = {
            "ports": [{"name": "x", "direction": "in"}, {"name": "y", "direction": "out"}],
            "gates": [{"name": "b", "function": "BUF", "arity": 1, "initial": 0}],
            "channels": [
                {"name": "in", "from": "x", "to": "b.0", "kind": "pure", "params": {"d": 1.0}},
                {"name": "out", "from": "b", "to": "y", "kind": "pure", "params": {"d": 1.0}},
            ],
        }
        c = parse_circuit(doc)
        assert set(c.gates) == {"b"}

    def test_channel_to_channel_is_alternation_violation(self):
        doc = json.loads(json.dumps(FIG4_NETLIST))
        doc["channels"][-1] = {"name": "co", "from": "ht", "to": "o", "kind": "pure", "params": {"d": 0.0}}
        with pytest.raises(NetlistError) as exc_info:
            parse_circuit(doc)
        assert any(isinstance(v, AlternationViolation) for v in exc_info.value.violations)

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            Gate("g", "MAJ3", 3, 0)
        with pytest.raises(UnknownFunction):
            Gate("g", "NOT", 2, 0)

    def test_dangling_pin_reported(self):
        doc = json.loads(json.dumps(FIG4_NETLIST))
        doc["channels"][0]["to"] = "or1.7"
        with pytest.raises(NetlistError) as exc_info:
            parse_circuit(doc)
        kinds = {type(v) for v in exc_info.value.violations}
        assert DanglingPin in kinds

    def test_unknown_keys_rejected(self):
        doc = json.loads(json.dumps(FIG4_NETLIST))
        doc["extra"] = 1
        with pytest.raises(NetlistError):
            parse_circuit(doc)
        doc = json.loads(json.dumps(FIG4_NETLIST))
        doc["channels"][0]["frobnicate"] = True
        with pytest.raises(NetlistError):
            parse_circuit(doc)

    def test_zero_delay_between_gates_rejected(self):
        doc = json.loads(json.dumps(FIG4_NETLIST))
        doc["channels"][2] = {"name": "ht", "from": "or1", "to": "buf1.0", "kind": "pure", "params": {"d": 0.0}}
        with pytest.raises(NetlistError):
            parse_circuit(doc)

    @pytest.mark.parametrize(
        "path, bad, field",
        [
            (("gates", 1, "arity"), "1", "arity"),
            (("gates", 0, "initial"), 0.0, "initial"),
            (("gates", 1, "arity"), True, "arity"),
            (("channels", 0, "params", "d"), "0", "d"),
            (("channels", 1, "params", "exp", "tau"), None, "exp.tau"),
            (("channels", 2, "params", "exp", "vth"), "0.75", "exp.vth"),
            (("channels", 1, "eta", "minus"), [0.0], "eta.minus"),
        ],
        ids=["arity-str", "initial-float", "arity-bool", "d", "exp.tau", "exp.vth", "eta.minus"],
    )
    def test_field_types_rejected(self, path, bad, field):
        doc = json.loads(json.dumps(FIG4_NETLIST))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        with pytest.raises(NetlistError, match=f"{field} must be"):
            parse_circuit(doc)

    @pytest.mark.parametrize(
        "path, bad, message",
        [
            ((), ["netlist"], "netlist: document must be an object, got list"),
            (("ports",), ["i", "o"], "netlist: ports[0] must be an object, got str"),
            (("gates",), {"or1": {}}, "netlist: gates must be a list, got dict"),
            (("channels",), "ci", "netlist: channels must be a list, got str"),
            (("ports", 0, "name"), ["i"], "port ['i']: name must be a string, got list"),
            (("gates", 0, "function"), ["OR"], "gate 'or1': function must be a string, got list"),
            (("channels", 0, "from"), 5, "channel 'ci': from must be a string, got int"),
            (("channels", 0, "params"), [1.0], "channel 'ci': params must be an object, got list"),
            (("channels", 1, "params", "exp"), [1.0, 0.5, 0.5], "channel 'c': exp must be an object, got list"),
            (("channels", 1, "eta"), [0.0, 0.0], "channel 'c': eta must be an object, got list"),
            (("channels", 1, "strategy"), "zero", "channel 'c': strategy must be an object, got str"),
        ],
        ids=["document", "ports", "gates", "channels", "name", "function", "from", "params", "exp", "eta", "strategy"],
    )
    def test_container_shapes_rejected(self, path, bad, message):
        doc = json.loads(json.dumps(FIG4_NETLIST))
        if not path:
            doc = bad
        else:
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = bad
        with pytest.raises(NetlistError, match=re.escape(message)):
            parse_circuit(doc)

    def test_non_integer_pin_rejected(self):
        doc = json.loads(json.dumps(FIG4_NETLIST))
        doc["channels"][0]["to"] = "or1.x"
        with pytest.raises(NetlistError, match="pin must be an integer"):
            parse_circuit(doc)

    def test_inertial_field_types_rejected(self):
        doc = json.loads(json.dumps(FIG4_NETLIST))
        doc["channels"][2] = {
            "name": "ht", "from": "or1", "to": "buf1.0", "kind": "inertial", "params": {"d": 1.0, "window": "0.1"}
        }
        with pytest.raises(NetlistError, match="channel 'ht': window must be a number"):
            parse_circuit(doc)

    @pytest.mark.parametrize(
        "kind, params",
        [("pure", {"d": 1.0}), ("inertial", {"d": 1.0, "window": 0.1}), ("involution", FIG4_NETLIST["channels"][2]["params"])],
        ids=["pure", "inertial", "involution"],
    )
    @pytest.mark.parametrize("field", ["eta", "strategy"])
    def test_eta_fields_only_on_eta_involution(self, kind, params, field):
        doc = json.loads(json.dumps(FIG4_NETLIST))
        doc["channels"][2] = {
            "name": "ht", "from": "or1", "to": "buf1.0", "kind": kind, "params": params, field: doc["channels"][1][field]
        }
        with pytest.raises(NetlistError, match=re.escape(f"channel 'ht': ['{field}'] apply only to eta_involution")):
            parse_circuit(doc)

    def test_table_and_eta_file_references(self, tmp_path, ref):
        from involution.channel import write_eta_sequence
        from involution.delay_model import write_delay_samples

        ts = -0.98 * ref.delta_inf_down + np.logspace(-4, np.log10(12), 900)
        write_delay_samples(
            tmp_path / "table.csv",
            [(float(t), ref.up(float(t)), ref.down(float(t))) for t in ts],
        )
        write_eta_sequence(tmp_path / "etas.csv", [0.0, 0.01])
        doc = {
            "ports": [{"name": "x", "direction": "in"}, {"name": "y", "direction": "out"}],
            "gates": [{"name": "b", "function": "BUF", "arity": 1, "initial": 0}],
            "channels": [
                {
                    "name": "in",
                    "from": "x",
                    "to": "b.0",
                    "kind": "eta_involution",
                    "params": {"table": "table.csv", "asymptotes": {"up": ref.delta_inf_up, "down": ref.delta_inf_down}},
                    "eta": {"plus": 0.02, "minus": 0.0},
                    "strategy": {"variant": "fixed_sequence", "file": "etas.csv"},
                },
                {"name": "out", "from": "b", "to": "y", "kind": "pure", "params": {"d": 0.0}},
            ],
        }
        c = parse_circuit(doc, base_dir=str(tmp_path))
        spec = c.channels["in"].spec
        assert isinstance(spec, EtaInvolution)
        assert spec.strategy.etas == (0.0, 0.01)


@pytest.fixture(scope="module")
def loop_no_ht(ref):
    return or_loop_circuit(EtaInvolution(ref, EtaBounds(0, 0), Zero()))


class TestOrLoop:
    def test_small_pulse_passes_through(self, ref, loop_no_ht):
        # below the filtering threshold d_inf_up - delta_min the loop echoes
        # only the input pulse
        e = execute(loop_no_ht, {"i": pulse(0, 0.5)}, horizon=30.0)
        or_sig = e.vertex_signals["or1"]
        assert [(t.time, t.value) for t in or_sig.transitions] == [(0.0, 1), (0.5, 0)]

    def test_big_pulse_locks(self, ref, loop_no_ht):
        e = execute(loop_no_ht, {"i": pulse(0, 1.5)}, horizon=30.0)
        or_sig = e.vertex_signals["or1"]
        assert [(t.time, t.value) for t in or_sig.transitions] == [(0.0, 1)]
        assert e.resolved_value["o"] == 1

    def test_near_threshold_pass(self, ref, loop_no_ht):
        e = execute(loop_no_ht, {"i": pulse(0, 0.69)}, horizon=30.0)
        assert len(e.vertex_signals["or1"].transitions) == 2

    def test_critical_pulse_oscillates_then_resolves(self, ref, loop_no_ht):
        e = execute(loop_no_ht, {"i": pulse(0, 0.9)}, horizon=60.0)
        or_sig = e.vertex_signals["or1"]
        assert len(or_sig.transitions) > 4  # several loop pulses
        assert e.stabilized["o"]

    def test_commit_audit_positive_margin(self, ref, loop_no_ht):
        e = execute(loop_no_ht, {"i": pulse(0, 0.9)}, horizon=60.0)
        assert e.commit_margins["c"] > 0

    def test_zero_strategy_deterministic(self, ref, loop_no_ht):
        e1 = execute(loop_no_ht, {"i": pulse(0, 0.87)}, horizon=60.0)
        e2 = execute(loop_no_ht, {"i": pulse(0, 0.87)}, horizon=60.0)
        assert e1.vertex_signals["or1"].transitions == e2.vertex_signals["or1"].transitions
        assert e1.event_count == e2.event_count


def exact_window(p: ExpChannelParams, eta_minus: float, value: int) -> Decimal:
    """The root of S + delta(S) = eta_minus in 60-digit arithmetic, from the same closed form."""
    with localcontext() as ctx:
        ctx.prec = 60
        tau, t_p, vth = Decimal(p.tau), Decimal(p.t_p), Decimal(p.vth_norm)
        d_up, d_down = t_p - tau * (1 - vth).ln(), t_p - tau * vth.ln()
        own, other = (d_up, d_down) if value == 1 else (d_down, d_up)
        return tau * (1 + ((Decimal(eta_minus) + own - other) / tau).exp()).ln() - own


class TestReleaseWindow:
    @given(
        tau=st.floats(0.05, 20.0),
        t_p_ratio=st.floats(0.05, 5.0),
        vth=st.floats(0.05, 0.95),
        frac=st.floats(0.0, 1.0, exclude_max=True),
        value=st.sampled_from([0, 1]),
    )
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_closed_form_matches_bisection(self, tau, t_p_ratio, vth, frac, value):
        p = ExpChannelParams(tau, tau * t_p_ratio, vth)
        df = exp_channel(p)
        # eta_minus in [0, delta(0)) of the edge that cancels a pending `value`
        eta_minus = frac * (df.down if value == 1 else df.up)(0.0)
        closed = _release_window(df, eta_minus, delta_min(df), value)
        generic = custom_channel(df.up, df.down, df.delta_inf_up, df.delta_inf_down)  # params=None: bisection
        bisected = _release_window(generic, eta_minus, delta_min(generic), value)
        assert abs(closed - bisected) <= 1e-12
        assert Decimal(closed) >= exact_window(p, eta_minus, value)

    def test_only_non_exp_pairs_bisect(self, ref, monkeypatch):
        calls = []

        def counting(f, lo, hi, **kw):
            calls.append((lo, hi))
            return bisect_root(f, lo, hi, **kw)

        monkeypatch.setattr(channel_module, "bisect_root", counting)
        monkeypatch.setattr(delay_model, "bisect_root", counting)
        channel_state(Involution(ref), 0).check_causal()
        assert calls == []
        t = np.linspace(-0.4, 6.0, 200)
        table = tabulated_channel(
            [(x, ref.up(x)) for x in t], [(x, ref.down(x)) for x in t], ref.delta_inf_up, ref.delta_inf_down
        )
        channel_state(Involution(table), 0).check_causal()
        assert len(calls) == 3  # delta_min and both release windows

    def test_huge_eta_minus_is_rejected_not_overflowed(self, ref):
        c = or_loop_circuit(EtaInvolution(ref, EtaBounds(eta_minus=1000.0, eta_plus=0.0), Zero()))
        with pytest.raises(CausalityFault, match="eta_minus exceeds delta"):
            execute(c, {"i": pulse(0, 1)}, horizon=5.0)


class TestChains:
    def test_buf_pure_chain_delay_adds(self):
        doc = {
            "ports": [{"name": "x", "direction": "in"}, {"name": "y", "direction": "out"}],
            "gates": [
                {"name": "b1", "function": "BUF", "arity": 1, "initial": 0},
                {"name": "b2", "function": "BUF", "arity": 1, "initial": 0},
            ],
            "channels": [
                {"name": "c0", "from": "x", "to": "b1.0", "kind": "pure", "params": {"d": 0.0}},
                {"name": "c1", "from": "b1", "to": "b2.0", "kind": "pure", "params": {"d": 1.0}},
                {"name": "c2", "from": "b2", "to": "y", "kind": "pure", "params": {"d": 1.0}},
            ],
        }
        c = parse_circuit(doc)
        e = execute(c, {"x": make_signal(0, [(0.0, 1)])}, horizon=10.0)
        assert [(t.time, t.value) for t in e.vertex_signals["y"].transitions] == [(2.0, 1)]

    def test_port_to_port_zero_delay(self):
        doc = {
            "ports": [{"name": "x", "direction": "in"}, {"name": "y", "direction": "out"}],
            "gates": [],
            "channels": [{"name": "wire", "from": "x", "to": "y", "kind": "pure", "params": {"d": 0.0}}],
        }
        e = execute(parse_circuit(doc), {"x": pulse(0.5, 1.0)}, horizon=10.0)
        assert [(t.time, t.value) for t in e.vertex_signals["y"].transitions] == [(0.5, 1), (1.5, 0)]

    def test_const_gate_fires_at_time_zero(self):
        doc = {
            "ports": [{"name": "y", "direction": "out"}],
            "gates": [{"name": "k", "function": "CONST1", "arity": 0, "initial": 0}],
            "channels": [{"name": "c", "from": "k", "to": "y", "kind": "pure", "params": {"d": 0.0}}],
        }
        e = execute(parse_circuit(doc), {}, horizon=5.0)
        assert [(t.time, t.value) for t in e.vertex_signals["y"].transitions] == [(0.0, 1)]

    def test_inertial_window_beyond_delay_rejected(self):
        c = Circuit(
            ["x"],
            ["y"],
            [Gate("b", "BUF", 1, 0)],
            [
                ChannelEdge("in", "x", "b", 0, Inertial(0.5, 1.0)),
                ChannelEdge("out", "b", "y", None, Pure(0.0)),
            ],
        )
        with pytest.raises(CausalityFault):
            execute(c, {"x": pulse(0, 2)}, horizon=10.0)

    def test_ring_oscillator_exhausts_event_budget(self):
        c = Circuit(
            [],
            ["y"],
            [Gate("n", "NOT", 1, 0)],
            [
                ChannelEdge("fb", "n", "n", 0, Pure(0.25)),
                ChannelEdge("out", "n", "y", None, Pure(0.0)),
            ],
        )
        with pytest.raises(HorizonExceeded) as exc_info:
            execute(c, {}, horizon=1e9, events_max=5000)
        assert exc_info.value.events  # oscillation diagnosis attached
        assert len(exc_info.value.events) == 100

    def test_missing_input_rejected(self, loop_no_ht):
        with pytest.raises(EngineError):
            execute(loop_no_ht, {}, horizon=1.0)

    def test_strategy_override_for_non_eta_channel_rejected(self, loop_no_ht):
        with pytest.raises(EngineError):
            execute(loop_no_ht, {"i": pulse(0, 1)}, horizon=1.0, strategies={"ci": Zero()})

    def test_oversized_eta_minus_rejected_up_front(self, ref):
        # eta_minus beyond delta(0) makes pending outputs uncommittable: a
        # future input could always retro-cancel them
        c = or_loop_circuit(EtaInvolution(ref, EtaBounds(eta_minus=0.9, eta_plus=0.0), Zero()))
        with pytest.raises(CausalityFault):
            execute(c, {"i": pulse(0, 1)}, horizon=5.0)


def random_channel_spec(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        return Pure(float(rng.uniform(0.2, 2.0)))
    if kind == 1:
        d = float(rng.uniform(0.3, 2.0))
        return Inertial(d, float(rng.uniform(0.05, d)))
    tau = float(rng.uniform(0.3, 2.0))
    t_p = float(rng.uniform(0.1, 1.0))
    df = exp_channel(ExpChannelParams(tau, t_p, float(rng.uniform(0.25, 0.75))))
    if kind == 2:
        return Involution(df)
    bounds = EtaBounds(eta_minus=0.05 * t_p, eta_plus=0.05 * t_p)
    return EtaInvolution(df, bounds, UniformRandom(seed=int(rng.integers(0, 2**31))))


def random_stimulus(rng, n_max=14):
    n = int(rng.integers(0, n_max))
    t = 0.0
    times = []
    for _ in range(n):
        t += 0.05 + float(rng.exponential(1.2))
        times.append(t)
    return make_signal(0, [(t, (i + 1) % 2) for i, t in enumerate(times)])


def gate_signal_oracle(gate: Gate, pins: list[Signal], horizon: float) -> Signal:
    """Denotational zero-time gate evaluation, independent of the engine."""
    times = sorted({0.0} | {tr.time for s in pins for tr in s.transitions if tr.time <= horizon})
    value = gate.initial_value
    out = []
    for t in times:
        v = gate.evaluate(tuple(s.value_at(t) for s in pins))
        if v != value:
            out.append((t, v))
            value = v
    return make_signal(gate.initial_value, out)


class TestAcyclicEquivalence:
    def test_engine_equals_topological_composition(self):
        # two input branches into a 2-input gate; engine output must equal the
        # by-hand composition of channel functions in topological order
        rng = np.random.default_rng(2024)
        horizon = 200.0
        for trial in range(200):
            specs = [random_channel_spec(rng) for _ in range(3)]
            g1 = Gate("g1", "BUF" if rng.random() < 0.5 else "NOT", 1, 0)
            g3 = Gate("g3", str(rng.choice(["OR", "AND", "XOR", "NAND", "NOR"])), 2, 0)
            circuit = Circuit(
                ["a", "b"],
                ["y"],
                [g1, g3],
                [
                    ChannelEdge("ca", "a", "g1", 0, specs[0]),
                    ChannelEdge("cb", "b", "g3", 1, specs[1]),
                    ChannelEdge("cg", "g1", "g3", 0, specs[2]),
                    ChannelEdge("co", "g3", "y", None, Pure(0.0)),
                ],
            )
            stim = {"a": random_stimulus(rng), "b": random_stimulus(rng)}
            e = execute(circuit, stim, horizon)

            def replay(spec, name):
                if isinstance(spec, EtaInvolution):
                    return EtaInvolution(spec.df, spec.bounds, FixedSequence(tuple(e.eta_sequences[name])))
                return spec

            ca_out, _ = apply_channel(replay(specs[0], "ca"), stim["a"])
            g1_out = gate_signal_oracle(g1, [ca_out], horizon)
            cb_out, _ = apply_channel(replay(specs[1], "cb"), stim["b"])
            cg_out, _ = apply_channel(replay(specs[2], "cg"), g1_out)
            g3_out = gate_signal_oracle(g3, [cg_out, cb_out], horizon)

            assert e.channel_signals["ca"].transitions == ca_out.truncated(horizon).transitions, trial
            assert e.vertex_signals["g1"].transitions == g1_out.truncated(horizon).transitions, trial
            assert e.channel_signals["cg"].transitions == cg_out.truncated(horizon).transitions, trial
            assert e.vertex_signals["g3"].transitions == g3_out.truncated(horizon).transitions, trial
            assert e.vertex_signals["y"].transitions == g3_out.truncated(horizon).transitions, trial

            report = verify_execution(e)
            assert report.ok, report.mismatches


class TestPureRoundingTie:
    def test_tied_records_are_not_delivered(self):
        # the delay rounds the inputs at t1 < t2 onto one output time: the pair
        # cancels, as in apply_channel, instead of raising NonMonotoneTimes
        t1, t2 = 3.9043828960234284, 3.904382896023429
        circuit = Circuit(
            ["i"],
            ["o"],
            [Gate("b", "BUF", 1, 0)],
            [ChannelEdge("c", "i", "b", 0, Pure(0.5306)), ChannelEdge("co", "b", "o", None, Pure(0.0))],
        )
        stim = make_signal(0, [(1.0, 1), (t1, 0), (t2, 1), (6.0, 0)])
        e = execute(circuit, {"i": stim}, horizon=20.0)
        expected, _ = apply_channel(Pure(0.5306), stim)
        assert e.channel_signals["c"] == expected
        assert [(t.time, t.value) for t in e.vertex_signals["o"].transitions] == [(1.5306, 1), (6.5306, 0)]
        assert [r.canceled for r in e.channel_logs["c"]] == [False, True, True, False]
        assert verify_execution(e).ok


class TestVerifyExecution:
    def test_clean_execution_passes(self, loop_no_ht):
        e = execute(loop_no_ht, {"i": pulse(0, 0.9)}, horizon=60.0)
        report = verify_execution(e)
        assert report.ok, report.mismatches

    def test_shifted_channel_output_flagged(self, loop_no_ht):
        e = execute(loop_no_ht, {"i": pulse(0, 0.9)}, horizon=60.0)
        sig = e.channel_signals["c"]
        moved = make_signal(
            sig.initial_value,
            [(tr.time + (1e-3 if j == 0 else 0.0), tr.value) for j, tr in enumerate(sig.transitions)],
        )
        e.channel_signals["c"] = moved
        report = verify_execution(e)
        assert not report.ok
        assert any("channel c" in m for m in report.mismatches)

    def test_inverted_gate_output_flagged(self, loop_no_ht):
        e = execute(loop_no_ht, {"i": pulse(0, 0.5)}, horizon=30.0)
        sig = e.vertex_signals["or1"]
        flipped = make_signal(1 - sig.initial_value, [(tr.time, 1 - tr.value) for tr in sig.transitions])
        e.vertex_signals["or1"] = flipped
        report = verify_execution(e)
        assert not report.ok
        assert any("gate or1" in m for m in report.mismatches)


class TestFig4EndToEnd:
    def test_netlist_simulation_matches_builder(self, ref):
        c = parse_circuit(json.dumps(FIG4_NETLIST))
        e = execute(c, {"i": pulse(0, 1.5)}, horizon=30.0)
        assert [(t.time, t.value) for t in e.vertex_signals["or1"].transitions] == [(0.0, 1)]
        # the high-threshold stage turns the locked loop into one rising edge
        out = e.vertex_signals["o"].transitions
        assert len(out) == 1 and out[0].value == 1
        assert verify_execution(e).ok
