import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest

import oracles
from involution import circuit as circuit_module
from involution.channel import (
    EtaBounds,
    EtaInvolution,
    FixedSequence,
    Inertial,
    Involution,
    Pure,
    Record,
    UniformRandom,
    Zero,
    apply_channel,
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
from involution.delay_model import ExpChannelParams, exp_channel, tabulated_channel
from involution.signals import Signal, make_signal, pulse

from corpus import random_dag_case, xor_self_loop_case

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

    @pytest.mark.parametrize(
        "ports, gates",
        [(["x", "c"], []), (["x"], [Gate("c", "CONST0", 0, 0)])],
        ids=["input_port", "gate"],
    )
    def test_a_vertex_named_like_a_channel_is_rejected(self, ports, gates):
        # active_at_horizon and the fan-in cones name vertices and channels in one set
        with pytest.raises(NetlistError, match=r"^names \['c'\] are both vertex and channel names$"):
            Circuit(ports, ["y"], gates, [ChannelEdge("c", "x", "y", None, Pure(1.0))])

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

    def test_a_channel_into_the_pin_numbered_like_the_arity_is_out_of_range(self):
        # the OR's pins 0 and 1 have drivers; a third channel into or1.2 must not pass as a pin
        doc = json.loads(json.dumps(FIG4_NETLIST))
        doc["channels"].append({"name": "extra", "from": "i", "to": "or1.2", "kind": "pure", "params": {"d": 1.0}})
        with pytest.raises(DanglingPin, match=r"^channel 'extra': pin or1.2 out of range$"):
            parse_circuit(doc)

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
            [(float(t), d, v) for t in ts for d, v in ((ref.up(float(t)), 1), (ref.down(float(t)), 0))],
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


class TestReleaseWindow:
    @pytest.mark.parametrize("taus", [6.0, 8.0])
    def test_tabulated_pair_brackets_from_the_domain_edge(self, taus):
        # Interpolation error puts S + delta(S) above 0 at S = -delta_min for
        # this table; it still executes and verifies.
        p = ExpChannelParams(1.3828, 0.3428, 0.2246)
        df = exp_channel(p)
        t = np.linspace(-0.999 * min(df.delta_inf_up, df.delta_inf_down), taus * p.tau, 160)
        table = tabulated_channel(
            [(x, df.up(x)) for x in t], [(x, df.down(x)) for x in t], df.delta_inf_up, df.delta_inf_down
        )
        c = Circuit(["i"], ["o"], [], [ChannelEdge("c", "i", "o", None, Involution(table))])
        e = execute(c, {"i": make_signal(0, [(0.0, 1), (0.5, 0), (3.0, 1)])}, horizon=20.0)
        assert verify_execution(e).ok

    def test_huge_eta_minus_is_rejected_not_overflowed(self, ref):
        c = or_loop_circuit(EtaInvolution(ref, EtaBounds(eta_minus=1000.0, eta_plus=0.0), Zero()))
        with pytest.raises(CausalityFault, match="eta_minus is not below delta"):
            execute(c, {"i": pulse(0, 1)}, horizon=5.0)

    def test_fixed_sequence_override_is_checked_before_the_first_event(self, ref):
        c = or_loop_circuit(EtaInvolution(ref, EtaBounds(0.1, 0.1), FixedSequence((0.5,))))
        with pytest.raises(CausalityFault, match=r"channel 'c': eta=0.5 outside \[-0.1, 0.1\]"):
            execute(c, {"i": make_signal(0, [])}, horizon=5.0)


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

    def test_an_inertial_window_equal_to_its_delay_completes_on_both_engine_paths(self):
        # both pins of the XOR switch at 1.0, where the inertial record is
        # delivered at its output time like the pure one, so g stays at 0
        c = Circuit(
            ["i"],
            ["o"],
            [Gate("g", "XOR", 2, 0)],
            [
                ChannelEdge("p", "i", "g", 0, Pure(1.0)),
                ChannelEdge("n", "i", "g", 1, Inertial(1.0, 1.0)),
                ChannelEdge("out", "g", "o", None, Pure(0.0)),
            ],
        )
        stim = {"i": make_signal(0, [(0.0, 1)])}
        assert circuit_module._compose(c, stim, 10.0, 10**6, False) is not None
        e = execute(c, stim, horizon=10.0, log=True)
        assert e.vertex_signals["o"].times == ()
        assert e.event_count == 5  # the stimulus, g's evaluations at 0 and 1.0, and the two deliveries
        assert verify_execution(e).ok
        assert e == _event_loop(c, stim, 10.0, events_max=10**6, log=True)

    def test_arrival_one_ulp_above_the_domain_edge_is_guard_canceled(self):
        # T = -d_inf_up + 1 ulp: the exponential in delta_down rounds to 1
        df = exp_channel(ExpChannelParams(2.4411016800340977, 0.21728129490157388, 0.0807739889154245))
        edge = math.nextafter(-df.delta_inf_up, 0.0)
        t1 = edge + df.delta_inf_up
        assert t1 - df.delta_inf_up == edge
        c = Circuit(["i"], ["o"], [], [ChannelEdge("c", "i", "o", None, Involution(df))])
        e = execute(c, {"i": make_signal(0, [(0.0, 1), (t1, 0)])}, horizon=10.0, log=True)
        rising, falling = e.channel_logs["c"]
        assert falling.T == edge and falling.guard_hit and rising.canceled_with == falling.index
        assert e.vertex_signals["o"].transitions == ()
        assert verify_execution(e).ok

    def test_record_canceled_before_the_horizon_leaves_its_channel_inactive(self, ref):
        # both outputs of the pulse lie beyond the horizon and cancel each
        # other at the falling arrival; the rising record's release is still
        # queued there but has nothing to deliver
        c = Circuit(["i"], ["o"], [], [ChannelEdge("c", "i", "o", None, EtaInvolution(ref, EtaBounds(0.05, 0.1)))])
        e = execute(c, {"i": make_signal(0, [(9.0, 1), (9.5, 0)])}, horizon=9.6, log=True)
        rising, falling = e.channel_logs["c"]
        assert rising.canceled and falling.canceled
        assert 9.6 < falling.out_time < rising.out_time
        assert "c" not in e.active_at_horizon
        assert e.stabilized["o"]

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

    def test_oversized_eta_minus_rejected_up_front(self, ref):
        # eta_minus beyond delta(0) makes pending outputs uncommittable: a
        # future input could always retro-cancel them
        c = or_loop_circuit(EtaInvolution(ref, EtaBounds(eta_minus=0.9, eta_plus=0.0), Zero()))
        with pytest.raises(CausalityFault):
            execute(c, {"i": pulse(0, 1)}, horizon=5.0)


class TestStabilizationCone:
    """An output port is stabilized when no channel or input port in its fan-in
    cone has a stimulus, delivery or release due after the horizon."""

    @pytest.mark.parametrize("path", ["execute", "event_loop"])
    def test_a_pending_stimulus_two_channels_upstream_keeps_the_output_unstabilized(self, path):
        # the output's own driving channel is idle at 0.5; only x is still due
        run = execute if path == "execute" else _event_loop
        c, stim = _buffer(Pure(0.0)), {"x": make_signal(0, [(1.0, 1)])}
        e = run(c, stim, 0.5, events_max=10**6, log=False)
        assert e.active_at_horizon == {"x"}
        assert e.stabilized == {"y": False} and e.resolved_value == {"y": 0}
        e = run(c, stim, 5.0, events_max=10**6, log=False)
        assert e.active_at_horizon == set()
        assert e.stabilized == {"y": True} and e.resolved_value == {"y": 1}

    @pytest.mark.parametrize("path", ["execute", "event_loop"])
    def test_an_output_switching_at_the_horizon_is_stabilized_and_not_one_ulp_earlier(self, path):
        # x rises at 1.0 and y at 2.0: at H = 2.0 nothing is due, one ulp below it the delivery is
        run = execute if path == "execute" else _event_loop
        c = Circuit(["x"], ["y"], [], [ChannelEdge("c", "x", "y", None, Pure(1.0))])
        stim = {"x": make_signal(0, [(1.0, 1)])}
        e = run(c, stim, 2.0, events_max=10**6, log=False)
        assert e.vertex_signals["y"].last_time() == 2.0
        assert e.active_at_horizon == set() and e.stabilized == {"y": True}
        e = run(c, stim, math.nextafter(2.0, 0.0), events_max=10**6, log=False)
        assert e.vertex_signals["y"].times == ()
        assert e.active_at_horizon == {"c"} and e.stabilized == {"y": False}

    @pytest.mark.parametrize("path", ["execute", "event_loop"])
    def test_an_inertial_pulse_suppressed_before_the_horizon_leaves_its_output_stabilized(self, path):
        # the fall at 1.5 arrives within the window of the rise at 1.0: the two
        # records cancel there, and neither delivery is due
        run = execute if path == "execute" else _event_loop
        c = Circuit(["x"], ["y"], [], [ChannelEdge("c", "x", "y", None, Inertial(5.0, 1.0))])
        e = run(c, {"x": pulse(1.0, 0.5)}, 2.0, events_max=10**6, log=False)
        assert e.active_at_horizon == set() and e.stabilized == {"y": True}
        assert e.vertex_signals["y"].times == () and e.resolved_value == {"y": 0}

    @pytest.mark.parametrize("delay", [0.0, 1.0], ids=["zero_delay", "unit_delay"])
    @pytest.mark.parametrize("path", ["execute", "event_loop"])
    def test_at_an_infinite_horizon_every_output_is_stabilized(self, delay, path):
        c = _buffer(Pure(delay))
        run = execute if path == "execute" else _event_loop
        e = run(c, {"x": make_signal(0, [(1.0, 1), (2.0, 0)])}, math.inf, events_max=10**6, log=False)
        assert e.vertex_signals["y"].times == (1.0 + delay, 2.0 + delay)
        assert e.active_at_horizon == set() and e.stabilized == {"y": True}

    def test_a_masked_ring_keeps_its_output_unstabilized_and_leaves_a_port_beside_it_stabilized(self):
        # an AND with pin 0 held at 0 by z and pin 1 fed by a ring: y never
        # switches, but the ring is still due; w depends on z alone
        c = Circuit(
            ["z"],
            ["y", "w"],
            [Gate("n", "NOT", 1, 0), Gate("a", "AND", 2, 0)],
            [
                ChannelEdge("hold", "z", "a", 0, Pure(0.0)),
                ChannelEdge("fb", "n", "n", 0, Pure(0.25)),
                ChannelEdge("ring", "n", "a", 1, Pure(0.5)),
                ChannelEdge("out", "a", "y", None, Pure(0.0)),
                ChannelEdge("cw", "z", "w", None, Pure(0.0)),
            ],
        )
        e = execute(c, {"z": make_signal(0, [])}, 10.0)
        assert {"fb", "ring"} <= e.active_at_horizon
        assert e.vertex_signals["y"].times == ()
        assert e.stabilized == {"y": False, "w": True}
        assert e.resolved_value == {"y": 0, "w": 0}


_SYMMETRIC = exp_channel(ExpChannelParams(1.0, 0.5, 0.5))


def _buffer(spec):
    """x -> channel 'in' with ``spec`` -> BUF b -> channel 'out' (Pure(0)) -> y."""
    return Circuit(
        ["x"],
        ["y"],
        [Gate("b", "BUF", 1, 0)],
        [ChannelEdge("in", "x", "b", 0, spec), ChannelEdge("out", "b", "y", None, Pure(0.0))],
    )


@pytest.mark.parametrize(
    "spec, message",
    [
        (
            EtaInvolution(exp_channel(ExpChannelParams(1.0, 0.5, 0.5)), EtaBounds(eta_minus=0.9, eta_plus=0.0)),
            "channel 'in': eta_minus is not below delta(0); pending outputs cannot be committed causally",
        ),
        (
            # eta_minus equal to delta(0): an input at a pending output's time can land on it, after its decision
            EtaInvolution(_SYMMETRIC, EtaBounds(eta_minus=min(_SYMMETRIC.up(0.0), _SYMMETRIC.down(0.0)))),
            "channel 'in': eta_minus is not below delta(0); pending outputs cannot be committed causally",
        ),
        (Inertial(0.5, 1.0), "channel 'in': inertial window exceeds delay; not causally executable"),
        (
            EtaInvolution(
                exp_channel(ExpChannelParams(1.0, 0.5, 0.5)), EtaBounds(0.1, 0.1), FixedSequence((0.05, 0.5))
            ),
            "channel 'in': eta=0.5 outside [-0.1, 0.1]",
        ),
    ],
    ids=["eta_minus", "eta_minus_at_delta_0", "inertial_window", "fixed_sequence"],
)
def test_causal_fault_is_raised_by_every_run(spec, message):
    c = _buffer(spec)  # building the circuit succeeds; its runs fault
    with pytest.raises(EngineError, match="missing input signals"):  # the inputs are checked first
        execute(c, {}, horizon=10.0)
    for _ in range(2):
        with pytest.raises(CausalityFault) as exc_info:
            execute(c, {"x": pulse(0, 2)}, horizon=10.0)
        assert str(exc_info.value) == message


@pytest.mark.parametrize(
    "names, message",
    [
        (["a"], "missing input signals for ports ['b']"),
        (["b", "a", "z", "w"], "input signals ['z', 'w'] name no input port"),
        (["z", "b"], "missing input signals for ports ['a']"),  # missing ports are named first
        ([], "missing input signals for ports ['a', 'b']"),
    ],
    ids=["missing", "unknown", "both", "none"],
)
def test_inputs_that_do_not_match_the_input_ports_are_named(names, message):
    c = Circuit(
        ["a", "b"],
        ["y"],
        [Gate("g", "AND", 2, 0)],
        [
            ChannelEdge("ca", "a", "g", 0, Pure(1.0)),
            ChannelEdge("cb", "b", "g", 1, Pure(1.0)),
            ChannelEdge("co", "g", "y", None, Pure(0.0)),
        ],
    )
    with pytest.raises(EngineError) as exc_info:
        execute(c, dict.fromkeys(names, pulse(0, 2)), horizon=10.0)
    assert str(exc_info.value) == message
    e = execute(c, {"b": pulse(0, 2), "a": pulse(1, 2)}, horizon=10.0)  # the order of the inputs is free
    assert e.vertex_signals["y"] == make_signal(0, [(2.0, 1), (3.0, 0)])


def test_a_surviving_record_with_a_negative_delay_faults_at_its_decision():
    # the first two records cancel; the third measures T from the canceled second
    # and, with eta = -eta_minus, its output precedes its own input, so at its
    # decision time, the input time, the output lies in the past
    df = exp_channel(ExpChannelParams(1.0, 0.5, 0.5))
    spec = EtaInvolution(df, EtaBounds(0.5, 0.5), FixedSequence((-0.1, 0.5, -0.5)))
    stim = make_signal(0, [(0.5, 1), (0.8, 0), (0.85, 1)])
    _, log = apply_channel(spec, stim)
    assert [r.canceled for r in log] == [True, True, False] and log[2].out_time < log[2].time
    c = Circuit(["i"], ["o"], [], [ChannelEdge("c", "i", "o", None, spec)])
    with pytest.raises(CausalityFault) as exc_info:
        execute(c, {"i": stim}, horizon=20.0)
    assert str(exc_info.value) == f"channel 'c': committed output at {log[2].out_time} lies before decision time 0.85"


@pytest.mark.parametrize(
    "seed, horizon, message",
    [
        (1681, 15.0, "channel 'c1': arrival at t=2.0607207695113017 would retro-cancel a committed output at 1.7929620501317054"),
        (1445, 20.0, "channel 'c1': committed output at 19.6674477165379 lies before decision time 19.715590918811735"),
    ],
    ids=["retro-cancel", "decision-time"],
)
def test_a_channel_audit_in_an_xor_self_loop_is_a_causality_fault(seed, horizon, message):
    # feed's retro-cancel raise and commit's decision-time audit, each wrapped by execute
    c, stim = xor_self_loop_case(seed)
    with pytest.raises(CausalityFault) as exc_info:
        execute(c, {"i": stim}, horizon=horizon)
    assert str(exc_info.value) == message


class _StubState:
    """A channel state that delivers the k-th input after ``delays[k]`` with value ``values[k]``."""

    def __init__(self, values, delays):
        self.values, self.delays = iter(values), iter(delays)
        self.fed = 0

    def feed(self, t, value):
        self.fed += 1
        delay = next(self.delays)
        return Record(self.fed, t, next(self.values), t + delay), None

    def decide_at(self, rec):
        return None


@pytest.mark.parametrize(
    "times, values, delays, message",
    [
        ((0.5, 2.0), (1, 1), (1.0, 1.0), "channel 'in': delivery at t=3.0 repeats value 1"),
        ((0.5, 1.0), (1, 0), (1.0, 0.5), "channel 'in': delivery at t=1.5 does not follow its last one at t=1.5"),
    ],
    ids=["repeated_value", "same_time"],
)
def test_delivery_that_breaks_the_signal_rules_is_a_causality_fault(times, values, delays, message):
    c = _buffer(Pure(1.0))
    c._new_states[0] = lambda log=False: _StubState(values, delays)  # channel 'in'
    with pytest.raises(CausalityFault) as exc_info:
        execute(c, {"x": make_signal(0, [(times[0], 1), (times[1], 0)])}, horizon=10.0)
    assert str(exc_info.value) == message


def test_formerly_out_of_order_commit_completes_and_verifies():
    # Committing at out_time + w, with a window w per value, once committed a
    # record of this eta-involution self-loop above a still-pending one; a
    # later arrival then canceled the pending one and the run faulted.
    # Deciding each record at its own output time commits them in order.
    df = exp_channel(ExpChannelParams(1.0843127071063443, 0.8637598444367273, 0.3092726299866592))
    loop = EtaInvolution(df, EtaBounds(0.33794173234806607, 0.22912360129929865), UniformRandom(615))
    c = Circuit(
        ["i"],
        ["o"],
        [Gate("g", "XOR", 3, 0)],
        [
            ChannelEdge("c0", "i", "g", 0, Pure(0.0)),
            ChannelEdge("c1", "g", "g", 1, Pure(0.18818370983333688)),
            ChannelEdge("c2", "g", "g", 2, loop),
            ChannelEdge("co", "g", "o", None, Pure(0.0)),
        ],
    )
    stim = make_signal(0, [(0.9767421038919517, 1), (1.9075541090336496, 0), (2.4707416141641794, 1)])
    e = execute(c, {"i": stim}, horizon=15.0, events_max=20000)
    assert verify_execution(e).ok
    again = execute(c, {"i": stim}, horizon=15.0, events_max=20000)
    assert again.vertex_signals == e.vertex_signals and again.channel_signals == e.channel_signals
    assert again.event_count == e.event_count


# Seeds of that family that faulted when each record was decided at
# out_time + w, w the root of S + delta(S) = eta_minus of the opposite edge.
WINDOW_RULE_FAULTS = (
    198, 592, 766, 770, 847, 1258, 1360, 1389, 1445, 1779, 1902, 2124, 2180, 2404,
    2405, 2563, 2628, 2714, 2795, 2911, 2948, 3540, 3552, 3585, 3666, 3740, 3812,
)


@pytest.mark.parametrize("seeds", [range(0, 4000, 8), WINDOW_RULE_FAULTS], ids=["every_8th", "window_rule_faults"])
def test_xor_self_loop_family_verifies_or_faults(seeds):
    # Over seeds 0-3999, 1331 cases satisfy (C); deciding at the output time,
    # 7 of them fault: 6 with eta_minus >= delta(0) and one late arrival.
    for seed in seeds:
        case = xor_self_loop_case(seed)
        if case is None:
            continue
        c, stim = case
        try:
            e = execute(c, {"i": stim}, horizon=15.0, events_max=20000)
        except CausalityFault as exc:
            assert seeds is not WINDOW_RULE_FAULTS, (seed, exc)
            assert re.search("eta_minus is not below delta|would retro-cancel a committed output", str(exc)), seed
            continue
        except HorizonExceeded:
            continue
        assert verify_execution(e).ok, seed
        again = execute(c, {"i": stim}, horizon=15.0, events_max=20000)
        assert again.vertex_signals == e.vertex_signals and again.channel_signals == e.channel_signals, seed
        assert again.event_count == e.event_count, seed


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
        v = oracles.gate_value(gate.function, [s.value_at(t) for s in pins])
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

    def test_every_composed_random_dag_equals_the_event_loop(self):
        # seeds 60 to 1059, past the 60 recorded dag corpus cases; 995 are
        # composed and 5 fall back to the loop
        composed = 0
        for seed in range(60, 1060):
            c, stim, horizon, events_max = random_dag_case(seed)
            got = circuit_module._compose(c, stim, horizon, events_max, False)
            if got is not None:
                composed += 1
                assert got == _event_loop(c, stim, horizon, events_max=events_max, log=False), seed
        assert composed >= 995


class TestEventsAtTheHorizon:
    """An event at exactly the horizon is processed and counted; one ulp beyond it, it is due.

    x -> 'in' (pure, 1) -> g.0 -> 'out' (eta-involution) -> y, and in the
    looped circuit g is an OR whose pin 1 is fed back from g by 'fb' (pure,
    4).  E = 10: x rises at E (a stimulus at E) or at E - 1 ('in' delivers at
    E, and g evaluates there); or at E - 2, when 'out' releases g's rise at
    E, one ulp below its output time, and delivers it one ulp beyond E.
    """

    E = 10.0
    DF = exp_channel(ExpChannelParams(1.0, 0.5, 0.5))
    # the eta that puts the output of g's rise at E - 1 one ulp above E
    ETA = (math.nextafter(E, math.inf) - (E - 1.0)) - DF.delta_inf_up

    @classmethod
    def circuit(cls, looped):
        gate = Gate("g", "OR", 2, 0) if looped else Gate("g", "BUF", 1, 0)
        out = EtaInvolution(cls.DF, EtaBounds(-cls.ETA, 0.0), FixedSequence((cls.ETA,)))
        channels = [ChannelEdge("in", "x", "g", 0, Pure(1.0)), ChannelEdge("out", "g", "y", None, out)]
        if looped:
            channels.append(ChannelEdge("fb", "g", "g", 1, Pure(4.0)))
        return Circuit(["x"], ["y"], [gate], channels)

    @pytest.mark.parametrize("looped", [False, True], ids=["acyclic", "looped"])
    @pytest.mark.parametrize(
        "rise, signal, events_at_E, due",
        [(10.0, ("vertex", "x"), 1, "x"), (9.0, ("channel", "in"), 2, "in")],
        ids=["stimulus", "delivery"],
    )
    def test_an_event_at_the_horizon_is_processed_and_one_ulp_beyond_it_is_due(
        self, looped, rise, signal, events_at_E, due
    ):
        c = self.circuit(looped)
        stim = {"x": make_signal(0, [(rise, 1)])}
        below = math.nextafter(self.E, 0.0)
        if not looped:  # the composition runs, not the event loop it falls back to
            assert c._order is not None and circuit_module._compose(c, stim, self.E, 10**6, False) is not None
        at, before = execute(c, stim, self.E), execute(c, stim, below)
        kind, name = signal
        signals = f"{kind}_signals"
        assert getattr(at, signals)[name].times == (self.E,) and getattr(before, signals)[name].times == ()
        assert at.event_count == before.event_count + events_at_E
        assert due in before.active_at_horizon and due not in at.active_at_horizon

    @pytest.mark.parametrize("looped", [False, True], ids=["acyclic", "looped"])
    def test_a_release_at_the_horizon_is_processed_and_its_delivery_one_ulp_beyond_it_is_due(self, looped):
        c = self.circuit(looped)
        stim = {"x": make_signal(0, [(self.E - 2.0, 1)])}
        beyond = math.nextafter(self.E, math.inf)
        if not looped:
            assert circuit_module._compose(c, stim, self.E, 10**6, False) is not None
        before, at, after = (execute(c, stim, h, log=True) for h in (math.nextafter(self.E, 0.0), self.E, beyond))
        (rec,) = after.channel_logs["out"]
        assert rec.time == self.E - 1.0 and rec.out_time == beyond
        assert at.event_count == before.event_count + 1 and after.event_count == at.event_count + 1
        # the release is due below E, its delivery at E, and nothing beyond it
        assert "out" in before.active_at_horizon and "out" in at.active_at_horizon
        assert "out" not in after.active_at_horizon
        assert at.vertex_signals["y"].times == () and after.vertex_signals["y"].times == (beyond,)
        assert at == _event_loop(c, stim, self.E, events_max=10**6, log=True)


def _outcome(run, c, stim, horizon, events_max=10**6):
    """What ``run`` gives for these inputs: the execution, or the engine error it raised."""
    try:
        return run(c, stim, horizon, events_max=events_max, log=True)
    except EngineError as exc:
        return exc


def _event_loop(c, stim, horizon, *, events_max, log):
    return circuit_module._run_events(c, stim, horizon, events_max, log)


class TestCompositionFallsBackToTheEventLoop:
    """An acyclic circuit is composed; where the composition may not give the
    event loop's execution or error, ``execute`` runs the loop."""

    def test_the_first_fault_in_time_is_raised_not_the_first_in_topological_order(self):
        # each channel raises at the decision of its third record, a surviving
        # record with a negative delay, as in
        # test_a_surviving_record_with_a_negative_delay_faults_at_its_decision;
        # port a's channel comes first in topological order, port b's faults
        # first in time
        df = exp_channel(ExpChannelParams(1.0, 0.5, 0.5))
        spec = EtaInvolution(df, EtaBounds(0.5, 0.5), FixedSequence((-0.1, 0.5, -0.5)))
        stim = {
            "a": make_signal(0, [(2.5, 1), (2.8, 0), (2.85, 1)]),
            "b": make_signal(0, [(0.5, 1), (0.8, 0), (0.85, 1)]),
        }
        for s in stim.values():
            _, log = apply_channel(spec, s)
            assert [r.canceled for r in log] == [True, True, False] and log[2].out_time < log[2].time
        c = Circuit(
            ["a", "b"],
            ["oa", "ob"],
            [],
            [ChannelEdge("ca", "a", "oa", None, spec), ChannelEdge("cb", "b", "ob", None, spec)],
        )
        _, log = apply_channel(spec, stim["b"])
        with pytest.raises(CausalityFault) as exc_info:
            execute(c, stim, horizon=20.0)
        assert str(exc_info.value) == f"channel 'cb': committed output at {log[2].out_time} lies before decision time 0.85"

    def test_an_acyclic_budget_overrun_raises_with_the_event_loops_trail(self):
        c = _buffer(Pure(0.5))
        stim = make_signal(0, [(k / 10, (k + 1) % 2) for k in range(400)])
        assert execute(c, {"x": stim}, horizon=100.0).event_count == 1601
        with pytest.raises(HorizonExceeded) as exc_info:
            execute(c, {"x": stim}, horizon=100.0, events_max=500)
        loop = _outcome(_event_loop, c, {"x": stim}, 100.0, 500)
        assert str(exc_info.value) == str(loop) == "event budget 500 exhausted at t=12.8 (oscillation?); last event eval 'b'"
        assert len(exc_info.value.events) == 100 and repr(exc_info.value.events) == repr(loop.events)

    def test_a_stimulus_beyond_the_budget_feeds_no_channel_before_the_loop_runs(self):
        c = _buffer(Pure(0.5))
        stim = make_signal(0, [(k / 10, (k + 1) % 2) for k in range(40)])
        fed = []

        def counting(new):
            def new_counting(*args):
                state = new(*args)
                feed = state.feed
                state.feed = lambda t, v: (fed.append(t), feed(t, v))[1]
                return state

            return new_counting

        c._new_states = list(map(counting, c._new_states))
        assert circuit_module._compose(c, {"x": stim}, 100.0, 39, False) is None
        assert fed == []
        assert circuit_module._compose(c, {"x": stim}, 100.0, 10**6, False).event_count == 161
        assert len(fed) == 80

    def test_releases_scheduled_out_of_order_are_all_counted(self):
        # the third input cancels the second record, and the fourth survives
        # below it, so its release comes before the second record's, which lies
        # beyond the horizon; the loop processes the releases at or before the
        # horizon, whatever their order
        spec = EtaInvolution(exp_channel(ExpChannelParams(1.0, 0.5, 0.5)), EtaBounds(0.2, 0.3), UniformRandom(7))
        c = Circuit(["i"], ["o"], [], [ChannelEdge("c", "i", "o", None, spec)])
        stim = make_signal(0, [(t, (k + 1) % 2) for k, t in enumerate([0.571, 2.411, 2.782, 2.852, 3.035])])
        state = c._new_states[0]()
        _, _, release_at, _ = circuit_module._decide(state, stim.times, 0, 3.6)
        assert release_at[0] < release_at[2] < 3.6 < release_at[1]
        composed = circuit_module._compose(c, {"i": stim}, 3.6, 10**6, True)
        assert composed is not None
        assert composed == _event_loop(c, {"i": stim}, 3.6, events_max=10**6, log=True)

    @staticmethod
    def twice_evaluated(function):
        """i -> 'p' (pure, 1) -> g.0, and i -> 'q' (pure, 1) -> BUF b -> 'n'
        (pure, 1e-17) -> g.1: b's rise at 1.0 reaches g at 1.0 too."""
        return Circuit(
            ["i"],
            ["o"],
            [Gate("g", function, 2, 0), Gate("b", "BUF", 1, 0)],
            [
                ChannelEdge("p", "i", "g", 0, Pure(1.0)),
                ChannelEdge("q", "i", "b", 0, Pure(1.0)),
                ChannelEdge("n", "b", "g", 1, Pure(1e-17)),
                ChannelEdge("out", "g", "o", None, Pure(0.0)),
            ],
        )

    def test_a_late_delivery_beside_another_evaluates_its_gate_twice(self):
        # 'n' delays b's rise at 1.0 by 0 there, and the loop makes that
        # delivery at b's evaluation, after the OR evaluated the pure channel's
        # delivery at 1.0, so it evaluates the OR a second time at 1.0.  Its
        # output does not change again; with an XOR it would, and the run faults.
        assert 1.0 + 1e-17 == 1.0
        stim = {"i": make_signal(0, [(0.0, 1)])}
        c = self.twice_evaluated("OR")
        assert circuit_module._compose(c, stim, 10.0, 10**6, False) is None
        e = execute(c, stim, horizon=10.0, log=True)
        # the stimulus, g's and b's evaluations at 0, and at 1.0: the deliveries
        # to g and b, g's evaluation and its delivery to o, b's evaluation, its
        # delivery to g and g's second evaluation
        assert e.event_count == 10
        assert e.vertex_signals["o"].times == (1.0,)
        assert e == _outcome(_event_loop, c, stim, 10.0)
        with pytest.raises(CausalityFault, match=r"^vertex 'g': transition at t=1.0 does not follow its last one"):
            execute(self.twice_evaluated("XOR"), stim, horizon=10.0)

    def test_a_late_delivery_where_a_driven_channel_decides_a_record_runs_the_loop(self):
        # n's third record has delay 0 at its input time 1.0 (its eta cancels
        # its delta), so the loop releases and delivers it at 1.0.  It releases
        # d's first record, committed at 1 + 1 ulp, there first, and the
        # delivery then switches g: g's fall reaches d after the commit.  With a
        # delay of 0 there, d's second record lands on the committed output and
        # raises; fed before the commit, it would have canceled the first record
        # instead.
        df = exp_channel(ExpChannelParams(1.0, 0.5, 0.5))
        d0 = df.down(0.0)
        assert df.up(0.0) == d0
        eta_minus = math.nextafter(d0, 0.0)
        eta_first = (math.nextafter(1.0, 2.0) - 0.25) - df.delta_inf_up
        assert 0.25 + (df.delta_inf_up + eta_first) == math.nextafter(1.0, 2.0)
        # i2's pulse from 0 to 0.65 cancels in n, and its rise at 1.0 measures T from the fall
        eta_third = -df.up(1.0 - 0.65 - df.down(0.65 - df.delta_inf_up))
        n = EtaInvolution(df, EtaBounds(eta_minus, 0.0), FixedSequence((0.0, 0.0, eta_third)))
        i2 = make_signal(0, [(0.0, 1), (0.65, 0), (1.0, 1)])
        assert [(r.canceled, r.out_time) for r in apply_channel(n, i2)[1]][2] == (False, 1.0)
        spec = EtaInvolution(df, EtaBounds(eta_minus, 0.0), FixedSequence((eta_first, -eta_minus)))
        c = Circuit(
            ["i1", "i2"],
            ["o"],
            [Gate("g", "XOR", 2, 0)],
            [
                ChannelEdge("p", "i1", "g", 0, Pure(0.25)),
                ChannelEdge("n", "i2", "g", 1, n),
                ChannelEdge("d", "g", "o", None, spec),
            ],
        )
        stim = {"i1": make_signal(0, [(0.0, 1)]), "i2": i2}
        assert circuit_module._compose(c, stim, 10.0, 10**6, False) is None
        with pytest.raises(CausalityFault) as exc_info:
            execute(c, stim, horizon=10.0)
        assert str(exc_info.value) == (
            "channel 'd': arrival at t=1.0 would retro-cancel a committed output at 1.0000000000000002"
        )

    @pytest.mark.parametrize(
        "times, values, delays, message",
        [
            ((0.5, 2.0), (1, 1), (1.0, 1.0), "channel 'c': delivery at t=3.0 repeats value 1"),
            ((0.5, 1.0), (1, 0), (1.0, 0.5), "channel 'c': delivery at t=1.5 does not follow its last one at t=1.5"),
        ],
        ids=["repeated_value", "same_time"],
    )
    def test_a_delivery_that_breaks_the_signal_rules_at_a_port_runs_the_loop(self, times, values, delays, message):
        # as test_delivery_that_breaks_the_signal_rules_is_a_causality_fault,
        # with no gate after the channel to switch twice at one instant
        c = Circuit(["x"], ["y"], [], [ChannelEdge("c", "x", "y", None, Pure(1.0))])
        c._new_states[0] = lambda log=False: _StubState(values, delays)
        with pytest.raises(CausalityFault) as exc_info:
            execute(c, {"x": make_signal(0, [(times[0], 1), (times[1], 0)])}, horizon=10.0)
        assert str(exc_info.value) == message

    def test_a_pure_tie_made_at_a_gate_evaluation_follows_its_partners_delivery(self):
        # Near 2**53 the delay 0.75 rounds b's rise at 2**53 - 1 and its fall at
        # 2**53 onto the output time 2**53.  The loop delivers the rise there
        # before it evaluates b, whose fall then cancels the pair too late.
        t = 2.0**53
        assert (t - 1) + 0.75 == t + 0.75 == t
        c = Circuit(
            ["i"],
            ["o"],
            [Gate("b", "BUF", 1, 0)],
            [ChannelEdge("in", "i", "b", 0, Pure(0.0)), ChannelEdge("d", "b", "o", None, Pure(0.75))],
        )
        stim = {"i": make_signal(0, [(t - 1, 1), (t, 0)])}
        e = execute(c, stim, horizon=2 * t, log=True)
        assert [r.canceled for r in e.channel_logs["d"]] == [True, True]
        assert e.vertex_signals["o"].times == (t,)
        assert e == _outcome(_event_loop, c, stim, 2 * t)

    @pytest.mark.parametrize("cyclic", [False, True], ids=["acyclic", "cyclic"])
    def test_a_nan_horizon_is_rejected(self, cyclic, loop_no_ht):
        # t > nan is never true, so the event loop used to run every event
        c = loop_no_ht if cyclic else _buffer(Pure(0.5))
        assert (c._order is None) == cyclic
        port = c.input_ports[0]
        with pytest.raises(EngineError, match=r"^horizon must be a number >= 0, got nan$"):
            execute(c, {port: pulse(0.0, 1.0)}, horizon=math.nan)

    @pytest.mark.parametrize("cyclic", [False, True], ids=["acyclic", "cyclic"])
    def test_a_negative_horizon_is_rejected_and_a_horizon_of_0_runs(self, cyclic, loop_no_ht):
        # below 0 the gates' evaluations at 0 are still pending, and no field reports them
        c = loop_no_ht if cyclic else _buffer(Pure(0.0))
        assert (c._order is None) == cyclic
        port = c.input_ports[0]
        for horizon in (-math.inf, -1.0):
            with pytest.raises(EngineError, match=rf"^horizon must be a number >= 0, got {horizon}$"):
                execute(c, {port: pulse(1.0, 1.0)}, horizon=horizon)
        e = execute(c, {port: pulse(1.0, 1.0)}, horizon=0.0)
        assert e.active_at_horizon == {port}
        assert e.stabilized == dict.fromkeys(c.output_ports, False)


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
        e = execute(circuit, {"i": stim}, horizon=20.0, log=True)
        expected, _ = apply_channel(Pure(0.5306), stim)
        assert e.channel_signals["c"] == expected
        assert [(t.time, t.value) for t in e.vertex_signals["o"].transitions] == [(1.5306, 1), (6.5306, 0)]
        assert [r.canceled for r in e.channel_logs["c"]] == [False, True, True, False]
        assert verify_execution(e).ok

    def test_successive_ties_compare_the_survivor_found_after_a_cancel(self):
        # near 103.9 one ulp spans 32 ulps of 3.9, so the delay rounds neighbouring
        # inputs onto one output time: three inputs tie, then two more.  The first
        # two of the three cancel; the survivor before them, at t=1.0, lies below
        # every later output, so the third stays, and the next pair cancels.
        d = 100.0
        a = [3.9, math.nextafter(3.9, 4), math.nextafter(math.nextafter(3.9, 4), 4)]
        b = [4.2, math.nextafter(4.2, 5)]
        assert a[0] + d == a[1] + d == a[2] + d and b[0] + d == b[1] + d
        stim = make_signal(0, [(t, (k + 1) % 2) for k, t in enumerate([1.0, *a, *b, 6.0])])
        expected, log = apply_channel(Pure(d), stim)
        c = Circuit(["i"], ["o"], [], [ChannelEdge("c", "i", "o", None, Pure(d))])
        e = execute(c, {"i": stim}, horizon=200.0, log=True)
        assert e.channel_signals["c"] == expected
        assert expected.initial_value == 0 and expected.times == (1.0 + d, a[2] + d, 6.0 + d)
        pairs = [(False, None), (True, 3), (True, 2), (False, None), (True, 6), (True, 5), (False, None)]
        assert [(r.canceled, r.canceled_with) for r in log] == pairs
        assert [(r.canceled, r.canceled_with) for r in e.channel_logs["c"]] == pairs
        assert verify_execution(e).ok

    def test_an_engine_pure_channel_keeps_one_pending_record(self):
        # pure outputs never decrease, so only the newest pending record can still cancel
        c = _buffer(Pure(0.5))
        stim = make_signal(0, [(k / 100, (k + 1) % 2) for k in range(2000)])
        expected, _ = apply_channel(Pure(0.5), stim)
        built = []

        def keeping(new):
            return lambda *args: built.append(new(*args)) or built[-1]

        c._new_states = list(map(keeping, c._new_states))
        e = execute(c, {"x": stim}, horizon=30.0)
        assert len(built) == 2 and all(len(state.stack) <= 1 for state in built)
        assert e.channel_signals["in"] == expected


@pytest.mark.parametrize("run", [execute, _event_loop], ids=["execute", "event_loop"])
def test_an_engine_inertial_channel_keeps_no_pending_stack(run):
    # the glitch train of the channel tests: the 0.05 low pulse is suppressed
    spec = Inertial(1.0, 0.2)
    c = _buffer(spec)
    stim = make_signal(0, [(0.0, 1), (0.5, 0), (0.55, 1), (2.0, 0)])
    built = []
    c._new_states = [lambda log=False, new=new: built.append(new(log)) or built[-1] for new in c._new_states]
    e = run(c, {"x": stim}, 10.0, events_max=10**6, log=False)
    assert not hasattr(built[0], "stack")
    assert e.channel_signals["in"] == apply_channel(spec, stim)[0] == make_signal(0, [(1.0, 1), (3.0, 0)])


def _ring_oscillator(ref):
    """A NOT gate fed back through a uniform-random eta-involution channel: it never settles."""
    loop = EtaInvolution(ref, EtaBounds(0.05, 0.1), UniformRandom(3))
    channels = [ChannelEdge("fb", "n", "n", 0, loop), ChannelEdge("out", "n", "y", None, Pure(0.0))]
    return Circuit([], ["y"], [Gate("n", "NOT", 1, 0)], channels)


def _run_template(c):
    return copy.deepcopy([c._evals_at_0, c._gate_initials, c._pin_channels, c._fanout, c._port_cones])


@pytest.mark.parametrize(
    "case, fault, next_horizon",
    [("ring", HorizonExceeded, 20.0), ("xor1681", CausalityFault, 1.5)],
    ids=["horizon_exceeded", "causality_fault"],
)
def test_a_run_that_raises_leaves_the_run_template_untouched(ref, case, fault, next_horizon):
    # the ring runs out of a budget of 500 events; the XOR self-loop's feed audit
    # raises at t=2.06 (test_a_channel_audit_in_an_xor_self_loop_is_a_causality_fault)
    def build():
        if case == "ring":
            return _ring_oscillator(ref), {}
        xor, stim = xor_self_loop_case(1681)
        return xor, {"i": stim}

    c, inputs = build()
    template = _run_template(c)
    with pytest.raises(fault):
        execute(c, inputs, 1e9 if case == "ring" else 15.0, events_max=500)
    assert _run_template(c) == template
    fresh, _ = build()
    e = execute(c, inputs, next_horizon)
    assert e == dataclasses.replace(execute(fresh, inputs, next_horizon), circuit=c)


@pytest.mark.parametrize("case", ["acyclic_pure", "eta_ring"])
def test_a_budget_trail_reports_plain_records_with_the_log_on(ref, case):
    # a logged state builds TransitionRecords; the trail snapshots each as the
    # Record an unlogged run reports, so the error reads the same either way
    if case == "eta_ring":
        c, inputs = _ring_oscillator(ref), {}
    else:
        c, inputs = _buffer(Pure(0.5)), {"x": make_signal(0, [(k / 10, (k + 1) % 2) for k in range(400)])}
    raised = {}
    for log in (False, True):
        with pytest.raises(HorizonExceeded) as exc_info:
            execute(c, inputs, 1e9, events_max=500, log=log)
        raised[log] = exc_info.value
    records = [payload[1] for _, kind, payload in raised[True].events if kind in ("deliver", "release")]
    assert records and all(type(r) is Record for r in records)
    assert repr(raised[True].events) == repr(raised[False].events)
    assert str(raised[True]) == str(raised[False])


def _channel_differs(name: str, expected: int, got: int) -> str:
    return f"channel {name}: recorded output differs from channel function (expected {expected} transitions, got {got})"


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

    @pytest.mark.parametrize(
        "horizon, recorded, counts",
        [
            (2.0, None, None),  # the last survivor lies exactly at the horizon
            (2.0, Signal(1, [(2.0, 0)]), (1, 1)),  # the initial value flipped
            (1.5, Signal(1, []), (0, 0)),  # the initial value flipped, before any transition
            (math.nextafter(2.0, 0.0), Signal(0, [(2.0, 1)]), (0, 1)),  # an extra transition one ulp above it
            (2.0, Signal(0, [(math.nextafter(2.0, 3.0), 1)]), (1, 1)),  # the last transition moved one ulp past it
            (2.0, Signal(0, []), (1, 0)),  # the last transition, at the horizon, dropped
        ],
        ids=[
            "at_horizon",
            "initial_flipped",
            "initial_flipped_alone",
            "extra_past_horizon",
            "last_moved_past_horizon",
            "last_dropped",
        ],
    )
    def test_recorded_channel_output_is_compared_up_to_the_horizon(self, horizon, recorded, counts):
        # the channel's one survivor lies at 2.0: at the horizon, or beyond it
        e = execute(_buffer(Pure(1.0)), {"x": make_signal(0, [(1.0, 1)])}, horizon)
        assert verify_execution(e).ok
        if recorded is None:
            assert e.channel_signals["in"].times == (2.0,)
            return
        e.channel_signals["in"] = recorded
        report = verify_execution(e)
        assert _channel_differs("in", *counts) in report.mismatches

    @pytest.mark.parametrize(
        "survivors, counts",
        [
            ([(2.0, 0)], (1, 1)),  # a value that repeats the initial one
            ([(2.0, 1), (1.5, 0)], (2, 1)),  # a time before its predecessor's
            ([(math.nan, 1)], (1, 1)),  # a time that is not a number
            ([(2.0, 1), (math.nan, 0)], (2, 1)),  # and one after the recorded transitions
        ],
        ids=["repeated_value", "decreasing_time", "nan_time", "trailing_nan_time"],
    )
    def test_a_replay_that_breaks_a_signal_rule_is_a_mismatch(self, monkeypatch, survivors, counts):
        e = execute(_buffer(Pure(1.0)), {"x": make_signal(0, [(1.0, 1)])}, 2.0)
        records = [Record(k, 1.0, value, t) for k, (t, value) in enumerate(survivors, 1)]
        monkeypatch.setattr(circuit_module.ch, "_replay", lambda spec, s: (records, None))
        report = verify_execution(e)
        assert _channel_differs("in", *counts) in report.mismatches

    def test_inverted_gate_output_flagged(self, loop_no_ht):
        e = execute(loop_no_ht, {"i": pulse(0, 0.5)}, horizon=30.0)
        sig = e.vertex_signals["or1"]
        flipped = make_signal(1 - sig.initial_value, [(tr.time, 1 - tr.value) for tr in sig.transitions])
        e.vertex_signals["or1"] = flipped
        report = verify_execution(e)
        assert not report.ok
        assert any("gate or1" in m for m in report.mismatches)

    def test_output_port_initial_value_flagged(self):
        c = Circuit(
            ["i"],
            ["o"],
            [Gate("b", "BUF", 1, 0)],
            [ChannelEdge("c", "i", "b", 0, Pure(1.0)), ChannelEdge("co", "b", "o", None, Pure(0.0))],
        )
        e = execute(c, {"i": make_signal(0, [])}, horizon=5.0)
        assert verify_execution(e).ok
        e.vertex_signals["o"] = Signal(1, ())
        report = verify_execution(e)
        assert report.mismatches == ["output port o: signal differs from driving channel co"]


class TestFig4EndToEnd:
    def test_netlist_simulation_matches_builder(self, ref):
        c = parse_circuit(json.dumps(FIG4_NETLIST))
        e = execute(c, {"i": pulse(0, 1.5)}, horizon=30.0)
        assert [(t.time, t.value) for t in e.vertex_signals["or1"].transitions] == [(0.0, 1)]
        # the high-threshold stage turns the locked loop into one rising edge
        out = e.vertex_signals["o"].transitions
        assert len(out) == 1 and out[0].value == 1
        assert verify_execution(e).ok
