import json
import math
import re

import numpy as np
import pytest

from involution.channel import (
    EtaBounds,
    EtaInvolution,
    FixedSequence,
    Inertial,
    Involution,
    Pure,
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

from corpus import xor_self_loop_case

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
        with pytest.raises(CausalityFault, match="eta_minus exceeds delta"):
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

    def test_inertial_window_equal_to_its_delay_is_a_causality_fault(self):
        # The inertial record is decided at (1.0, after the gate's evaluation
        # at 1.0), so its delivery would switch the XOR a second time at 1.0.
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
        with pytest.raises(CausalityFault, match=r"vertex 'g': transition at t=1.0 does not follow"):
            execute(c, {"i": make_signal(0, [(0.0, 1)])}, horizon=10.0)

    def test_arrival_one_ulp_above_the_domain_edge_is_guard_canceled(self):
        # T = -d_inf_up + 1 ulp: the exponential in delta_down rounds to 1
        df = exp_channel(ExpChannelParams(2.4411016800340977, 0.21728129490157388, 0.0807739889154245))
        edge = math.nextafter(-df.delta_inf_up, 0.0)
        t1 = edge + df.delta_inf_up
        assert t1 - df.delta_inf_up == edge
        c = Circuit(["i"], ["o"], [], [ChannelEdge("c", "i", "o", None, Involution(df))])
        e = execute(c, {"i": make_signal(0, [(0.0, 1), (t1, 0)])}, horizon=10.0)
        rising, falling = e.channel_logs["c"]
        assert falling.T == edge and falling.guard_hit and rising.canceled_with == falling.index
        assert e.vertex_signals["o"].transitions == ()
        assert verify_execution(e).ok

    def test_record_canceled_before_the_horizon_leaves_its_channel_inactive(self, ref):
        # both outputs of the pulse lie beyond the horizon and cancel each
        # other at the falling arrival; the rising record's release is still
        # queued there but has nothing to deliver
        c = Circuit(["i"], ["o"], [], [ChannelEdge("c", "i", "o", None, EtaInvolution(ref, EtaBounds(0.05, 0.1)))])
        e = execute(c, {"i": make_signal(0, [(9.0, 1), (9.5, 0)])}, horizon=9.6)
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
            assert re.search("eta_minus exceeds delta|would retro-cancel a committed output", str(exc)), seed
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
