"""Circuit graphs and the discrete-event execution engine.

A circuit is a directed graph whose vertices are ports and zero-time Boolean
gates and whose edges are delay channels; gates and channels alternate on
every path, and every gate input pin and output port has exactly one driving
channel.  ``execute`` produces an execution: an assignment of signals to all
vertices and edges consistent with the gate functions and channel functions
for the adversary choices drawn during the run.

The engine drives every channel through its incremental state
(``channel.channel_state``) and releases a pending output to downstream
consumers only at the state's decision time, which ``channel`` derives per
kind (for the involution channels, from the commit rule documented there).
A channel that cannot be decided causally, or an arrival that would
retro-cancel a committed output, raises :class:`CausalityFault` instead of
silently corrupting the trace.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import json
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable

from . import channel as ch
from .delay_model import DelayFunction, ExpChannelParams, exp_channel, read_delay_samples, tabulated_channel
from .signals import Signal, make_signal


class NetlistError(ValueError):
    """One or more netlist violations; ``violations`` lists all of them."""

    def __init__(self, message: str, violations: list["NetlistError"] | None = None):
        super().__init__(message)
        self.violations = violations if violations is not None else [self]


class DanglingPin(NetlistError):
    pass


class MultipleDrivers(NetlistError):
    pass


class AlternationViolation(NetlistError):
    pass


class UnknownFunction(NetlistError):
    pass


class EngineError(RuntimeError):
    pass


class HorizonExceeded(EngineError):
    """Event budget exhausted; ``events`` carries the last processed events."""

    def __init__(self, message: str, events: list[tuple] | None = None):
        super().__init__(message)
        self.events = events or []


class CausalityFault(EngineError):
    pass


_GATE_EVAL: dict[str, Callable[[tuple[int, ...]], int]] = {
    "NOT": lambda v: 1 - v[0],
    "BUF": lambda v: v[0],
    "OR": lambda v: int(any(v)),
    "NOR": lambda v: 1 - int(any(v)),
    "AND": lambda v: int(all(v)),
    "NAND": lambda v: 1 - int(all(v)),
    "XOR": lambda v: sum(v) % 2,
    "CONST0": lambda v: 0,
    "CONST1": lambda v: 1,
}

_GATE_ARITY: dict[str, Callable[[int], bool]] = {
    "NOT": lambda n: n == 1,
    "BUF": lambda n: n == 1,
    "OR": lambda n: n >= 2,
    "NOR": lambda n: n >= 2,
    "AND": lambda n: n >= 2,
    "NAND": lambda n: n >= 2,
    "XOR": lambda n: n >= 2,
    "CONST0": lambda n: n == 0,
    "CONST1": lambda n: n == 0,
}


@dataclass(frozen=True)
class Gate:
    name: str
    function: str
    arity: int
    initial_value: int

    def __post_init__(self) -> None:
        if self.function not in _GATE_EVAL:
            raise UnknownFunction(f"gate {self.name!r}: unknown function {self.function!r}")
        if not _GATE_ARITY[self.function](self.arity):
            raise UnknownFunction(
                f"gate {self.name!r}: function {self.function} does not admit arity {self.arity}"
            )
        if self.initial_value not in (0, 1):
            raise NetlistError(f"gate {self.name!r}: initial value must be 0 or 1")

    def evaluate(self, values: tuple[int, ...]) -> int:
        return _GATE_EVAL[self.function](values)


@dataclass(frozen=True)
class ChannelEdge:
    """A channel from a source vertex to a gate input pin or an output port."""

    name: str
    src: str
    dst: str
    dst_pin: int | None
    spec: ch.ChannelSpec


class Circuit:
    def __init__(
        self,
        input_ports: list[str],
        output_ports: list[str],
        gates: list[Gate],
        channels: list[ChannelEdge],
    ):
        self.input_ports = list(input_ports)
        self.output_ports = list(output_ports)
        self.gates = {g.name: g for g in gates}
        self.channels = {c.name: c for c in channels}
        self.outgoing: dict[str, list[ChannelEdge]] = {}
        for edge in channels:
            self.outgoing.setdefault(edge.src, []).append(edge)
        self._validate()

    def _validate(self) -> None:
        violations: list[NetlistError] = []
        names = set(self.input_ports) | set(self.output_ports) | set(self.gates)
        if len(names) != len(self.input_ports) + len(self.output_ports) + len(self.gates):
            violations.append(NetlistError("duplicate vertex names"))
        channel_names = set(self.channels)

        drivers: dict[tuple[str, int | None], list[str]] = {}
        for edge in self.channels.values():
            if edge.src in channel_names or edge.dst in channel_names:
                violations.append(
                    AlternationViolation(
                        f"channel {edge.name!r} connects to another channel; gates and channels must alternate"
                    )
                )
                continue
            if edge.src not in names:
                violations.append(DanglingPin(f"channel {edge.name!r}: unknown source {edge.src!r}"))
            elif edge.src in self.output_ports:
                violations.append(DanglingPin(f"channel {edge.name!r}: output port {edge.src!r} cannot drive"))
            if edge.dst in self.gates:
                gate = self.gates[edge.dst]
                if edge.dst_pin is None or not 0 <= edge.dst_pin < gate.arity:
                    violations.append(
                        DanglingPin(f"channel {edge.name!r}: pin {edge.dst}.{edge.dst_pin} out of range")
                    )
                else:
                    drivers.setdefault((edge.dst, edge.dst_pin), []).append(edge.name)
            elif edge.dst in self.output_ports:
                if edge.dst_pin is not None:
                    violations.append(DanglingPin(f"channel {edge.name!r}: ports have no pins"))
                drivers.setdefault((edge.dst, None), []).append(edge.name)
            elif edge.dst in self.input_ports:
                violations.append(MultipleDrivers(f"channel {edge.name!r}: input port {edge.dst!r} cannot be driven"))
            else:
                violations.append(DanglingPin(f"channel {edge.name!r}: unknown destination {edge.dst!r}"))
            if isinstance(edge.spec, ch.Pure) and edge.spec.delay == 0.0:
                if edge.src in self.gates and edge.dst in self.gates:
                    violations.append(
                        NetlistError(f"channel {edge.name!r}: zero delay is only allowed adjacent to a port")
                    )

        for (dst, pin), who in drivers.items():
            if len(who) > 1:
                violations.append(
                    MultipleDrivers(f"{dst}{'' if pin is None else '.%d' % pin} driven by {sorted(who)}")
                )
        for gate in self.gates.values():
            for pin in range(gate.arity):
                if (gate.name, pin) not in drivers:
                    violations.append(DanglingPin(f"gate pin {gate.name}.{pin} has no driver"))
        for port in self.output_ports:
            if (port, None) not in drivers:
                violations.append(DanglingPin(f"output port {port!r} has no driver"))

        if len(violations) == 1:
            raise violations[0]
        if violations:
            raise NetlistError(
                f"{len(violations)} netlist violations: " + "; ".join(str(v) for v in violations),
                violations,
            )
        self._drivers = {key: self.channels[who[0]] for key, who in drivers.items()}

    def driver_of(self, dst: str, pin: int | None = None) -> ChannelEdge:
        return self._drivers[(dst, pin)]


def _parse_endpoint(text: str) -> tuple[str, int | None]:
    if "." in text:
        vertex, pin = text.rsplit(".", 1)
        try:
            return vertex, int(pin)
        except ValueError:
            raise NetlistError(f"endpoint {text!r}: pin must be an integer") from None
    return text, None


def _integer(where: str, field: str, x: Any) -> int:
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise NetlistError(f"{where}: {field} must be an integer, got {x!r}")
    return x


def _number(where: str, field: str, x: Any) -> float:
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise NetlistError(f"{where}: {field} must be a number, got {x!r}")
    return x


_JSON_KIND = {dict: "an object", list: "a list", str: "a string"}


def _typed(where: str, field: str, x: Any, kind: type) -> Any:
    if not isinstance(x, kind):
        raise NetlistError(f"{where}: {field} must be {_JSON_KIND[kind]}, got {type(x).__name__}")
    return x


def _parse_channel_spec(entry: dict, base_dir: str | None) -> ch.ChannelSpec:
    import os

    kind = entry["kind"]
    where = f"channel {entry['name']!r}"
    stray = sorted({"eta", "strategy"} & set(entry))
    if stray and kind != "eta_involution":
        raise NetlistError(f"{where}: {stray} apply only to eta_involution channels, not {kind!r}")
    params = dict(_typed(where, "params", entry.get("params", {}), dict))

    def num(field: str, x: Any) -> float:
        return _number(where, field, x)

    def build_df() -> DelayFunction:
        if "exp" in params:
            e = _typed(where, "exp", params.pop("exp"), dict)
            return exp_channel(
                ExpChannelParams(num("exp.tau", e["tau"]), num("exp.t_p", e["t_p"]), num("exp.vth", e["vth"]))
            )
        if "table" in params:
            path = _typed(where, "table", params.pop("table"), str)
            if base_dir is not None and not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            rows = read_delay_samples(path)
            up = [(t, du) for t, du, _ in rows if du is not None]
            down = [(t, dd) for t, _, dd in rows if dd is not None]
            meta = _typed(where, "asymptotes", params.pop("asymptotes"), dict)
            return tabulated_channel(up, down, num("asymptotes.up", meta["up"]), num("asymptotes.down", meta["down"]))
        raise NetlistError(f"channel params need 'exp' or 'table', got {sorted(params)}")

    if kind == "pure":
        spec: ch.ChannelSpec = ch.Pure(num("d", params.pop("d")))
    elif kind == "inertial":
        spec = ch.Inertial(num("d", params.pop("d")), num("window", params.pop("window")))
    elif kind == "involution":
        spec = ch.Involution(build_df())
    elif kind == "eta_involution":
        df = build_df()
        eta = _typed(where, "eta", entry.get("eta", {"plus": 0.0, "minus": 0.0}), dict)
        bounds = ch.EtaBounds(eta_minus=num("eta.minus", eta["minus"]), eta_plus=num("eta.plus", eta["plus"]))
        strat_doc = _typed(where, "strategy", entry.get("strategy", {"variant": "zero"}), dict)
        variant = strat_doc["variant"]
        if variant == "zero":
            strategy: ch.AdversaryStrategy = ch.Zero()
        elif variant == "worst_case_shrink":
            strategy = ch.WorstCaseShrink()
        elif variant == "uniform_random":
            strategy = ch.UniformRandom(seed=_integer(where, "strategy.seed", strat_doc["seed"]))
        elif variant == "fixed_sequence":
            path = _typed(where, "strategy.file", strat_doc["file"], str)
            if base_dir is not None and not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            strategy = ch.FixedSequence(tuple(ch.read_eta_sequence(path)))
        else:
            raise NetlistError(f"unknown strategy variant {variant!r}")
        spec = ch.EtaInvolution(df, bounds, strategy)
    else:
        raise NetlistError(f"unknown channel kind {kind!r}")
    if params:
        raise NetlistError(f"unknown channel params {sorted(params)}")
    return spec


_PORT_KEYS = {"name", "direction"}
_GATE_KEYS = {"name", "function", "arity", "initial"}
_CHANNEL_KEYS = {"name", "from", "to", "kind", "params", "eta", "strategy"}


def parse_circuit(document: dict | str, base_dir: str | None = None) -> Circuit:
    """Validate a netlist document (JSON text or parsed dict) into a Circuit.

    Unknown keys are rejected, and every container and name is type-checked
    before it is read.  All structural violations are collected and reported
    together.
    """
    doc = _typed("netlist", "document", json.loads(document) if isinstance(document, str) else document, dict)
    unknown = set(doc) - {"ports", "gates", "channels"}
    if unknown:
        raise NetlistError(f"unknown top-level keys {sorted(unknown)}")

    def entries(key: str, known: set[str]) -> list[tuple[str, dict]]:
        out = []
        for k, e in enumerate(_typed("netlist", key, doc.get(key, []), list)):
            _typed("netlist", f"{key}[{k}]", e, dict)
            where = f"{key[:-1]} {e.get('name')!r}"
            if set(e) - known:
                raise NetlistError(f"{where}: unknown keys {sorted(set(e) - known)}")
            _typed(where, "name", e["name"], str)
            out.append((where, e))
        return out

    inputs, outputs, gates, edges = [], [], [], []
    for where, p in entries("ports", _PORT_KEYS):
        if p["direction"] not in ("in", "out"):
            raise NetlistError(f"{where}: direction must be 'in' or 'out'")
        (inputs if p["direction"] == "in" else outputs).append(p["name"])
    for where, g in entries("gates", _GATE_KEYS):
        gates.append(
            Gate(
                g["name"],
                _typed(where, "function", g["function"], str),
                _integer(where, "arity", g["arity"]),
                _integer(where, "initial", g["initial"]),
            )
        )
    for where, c in entries("channels", _CHANNEL_KEYS):
        src, src_pin = _parse_endpoint(_typed(where, "from", c["from"], str))
        if src_pin is not None:
            raise NetlistError(f"{where}: 'from' must be a gate or port, not a pin")
        dst, dst_pin = _parse_endpoint(_typed(where, "to", c["to"], str))
        edges.append(ChannelEdge(c["name"], src, dst, dst_pin, _parse_channel_spec(c, base_dir)))
    return Circuit(inputs, outputs, gates, edges)


def or_loop_circuit(
    loop_spec: ch.ChannelSpec,
    ht_params: ExpChannelParams | None = None,
) -> Circuit:
    """The storage-loop pulse filter: an OR gate fed back through ``loop_spec``.

    With ``ht_params`` a high-threshold exp-channel stage and output buffer
    are appended; otherwise the OR output drives the output port directly.
    """
    gates = [Gate("or1", "OR", 2, 0)]
    edges = [
        ChannelEdge("ci", "i", "or1", 0, ch.Pure(0.0)),
        ChannelEdge("c", "or1", "or1", 1, loop_spec),
    ]
    if ht_params is not None:
        gates.append(Gate("buf1", "BUF", 1, 0))
        edges.append(ChannelEdge("ht", "or1", "buf1", 0, ch.Involution(exp_channel(ht_params))))
        edges.append(ChannelEdge("co", "buf1", "o", None, ch.Pure(0.0)))
    else:
        edges.append(ChannelEdge("co", "or1", "o", None, ch.Pure(0.0)))
    return Circuit(["i"], ["o"], gates, edges)


@dataclass
class Execution:
    """An executed assignment of signals to every vertex and channel."""

    horizon: float
    vertex_signals: dict[str, Signal]
    channel_signals: dict[str, Signal]
    channel_logs: dict[str, list[ch.TransitionRecord]]
    eta_sequences: dict[str, list[float]]
    event_count: int
    stabilized: dict[str, bool]
    resolved_value: dict[str, int]
    active_at_horizon: set[str]
    commit_margins: dict[str, float]
    circuit: Circuit


def execute(
    circuit: Circuit,
    inputs: dict[str, Signal],
    horizon: float,
    strategies: dict[str, ch.AdversaryStrategy] | None = None,
    *,
    events_max: int = 10**6,
) -> Execution:
    """Event-driven execution of ``circuit`` up to ``horizon``.

    ``strategies`` overrides the adversary strategy of individual
    eta-involution channels by name.  Raises :class:`HorizonExceeded` when the
    event budget runs out (near-critical feedback can oscillate for a long
    time) and :class:`CausalityFault` if the engine's commit rule would be
    violated.
    """
    strategies = strategies or {}
    missing = [p for p in circuit.input_ports if p not in inputs]
    if missing:
        raise EngineError(f"missing input signals for ports {missing}")
    for name in strategies:
        if name not in circuit.channels:
            raise EngineError(f"strategy override for unknown channel {name!r}")
        if not isinstance(circuit.channels[name].spec, ch.EtaInvolution):
            raise EngineError(f"channel {name!r} is not an eta-involution channel")

    # Initial values propagate statically: a channel's initial output value is
    # its source vertex's initial value.
    values: dict[str, int] = {}
    for p in circuit.input_ports:
        values[p] = inputs[p].initial_value
    for g in circuit.gates.values():
        values[g.name] = g.initial_value
    initial_of_vertex = dict(values)
    pin_values: dict[str, list[int]] = {g.name: [0] * g.arity for g in circuit.gates.values()}
    for edge in circuit.channels.values():
        src_initial = initial_of_vertex.get(edge.src)
        if edge.dst in circuit.gates:
            pin_values[edge.dst][edge.dst_pin] = src_initial
        else:
            values[edge.dst] = src_initial
    states = {}
    for name, edge in circuit.channels.items():
        states[name] = ch.channel_state(edge.spec, initial_of_vertex[edge.src], strategies.get(name))
        try:
            states[name].check_causal()
        except ch.ChannelError as exc:
            raise CausalityFault(f"channel {name!r}: {exc}") from exc
    delivered: dict[str, list[tuple[float, int]]] = {name: [] for name in states}

    vertex_events: dict[str, list[tuple[float, int]]] = {v: [] for v in values}
    initial_values = dict(values)

    heap: list[tuple[float, int, int, str, Any]] = []
    seq = itertools.count()
    trail: collections.deque[tuple] = collections.deque(maxlen=100)

    def schedule(t: float, prio: int, kind: str, payload: Any) -> None:
        heapq.heappush(heap, (t, prio, next(seq), kind, payload))

    pending_evals: set[tuple[str, float]] = set()

    def vertex_transition(name: str, t: float, v: int) -> None:
        if values[name] == v:
            return
        if vertex_events[name] and t < vertex_events[name][-1][0]:
            raise CausalityFault(f"vertex {name!r}: transition at {t} precedes {vertex_events[name][-1][0]}")
        values[name] = v
        vertex_events[name].append((t, v))
        for edge in circuit.outgoing.get(name, []):
            channel_arrival(edge, t, v)

    def deliver(edge: ChannelEdge, t: float, v: int) -> None:
        delivered[edge.name].append((t, v))
        if edge.dst in circuit.gates:
            pin_values[edge.dst][edge.dst_pin] = v
            key = (edge.dst, t)
            if key not in pending_evals:
                pending_evals.add(key)
                schedule(t, 1, "eval", edge.dst)
        else:
            vertex_transition(edge.dst, t, v)

    def channel_arrival(edge: ChannelEdge, t: float, v: int) -> None:
        state = states[edge.name]
        try:
            rec, _partner = state.feed(t, v)
        except ch.ChannelError as exc:
            raise CausalityFault(f"channel {edge.name!r}: {exc}") from exc
        at = state.decide_at(rec)
        if at is None:
            schedule(rec.out_time, 0, "deliver", (edge.name, rec))
        elif not rec.canceled:
            schedule(at, 2, "release", (edge.name, rec))

    for port in circuit.input_ports:
        for tr in inputs[port].transitions:
            schedule(tr.time, 0, "stim", (port, tr.value))
    for gate_name in circuit.gates:
        pending_evals.add((gate_name, 0.0))
        schedule(0.0, 1, "eval", gate_name)

    event_count = 0
    active: set[str] = set()
    while heap:
        t, prio, _, kind, payload = heapq.heappop(heap)
        if t > horizon:
            if kind != "eval":  # a stimulus, delivery or release still to come
                active.add(payload[0])
            continue
        event_count += 1
        if event_count > events_max:
            raise HorizonExceeded(
                f"event budget {events_max} exhausted at t={t} (oscillation?); "
                f"last event {kind} {payload!r}",
                events=list(trail),
            )
        trail.append((t, kind, payload))

        if kind == "stim":
            port, v = payload
            vertex_transition(port, t, v)
        elif kind == "eval":
            gate_name = payload
            pending_evals.discard((gate_name, t))
            gate = circuit.gates[gate_name]
            v = gate.evaluate(tuple(pin_values[gate_name]))
            vertex_transition(gate_name, t, v)
        elif kind == "deliver":
            name, rec = payload
            if not rec.canceled:  # a pure record can cancel with a later one rounded onto its time
                deliver(circuit.channels[name], rec.out_time, rec.value)
        elif kind == "release":
            name, rec = payload
            try:
                committed = states[name].commit(rec)
            except ch.ChannelError as exc:
                raise CausalityFault(f"channel {name!r}: {exc}") from exc
            if not committed:
                continue
            if rec.out_time < t:
                raise CausalityFault(
                    f"channel {name!r}: committed output at {rec.out_time} lies before decision time {t}"
                )
            if rec.out_time > horizon:
                active.add(name)
                continue
            schedule(rec.out_time, 0, "deliver", (name, rec))

    channel_signals = {
        name: make_signal(initial_of_vertex[edge.src], delivered[name]) for name, edge in circuit.channels.items()
    }

    vertex_signals = {
        name: make_signal(initial_values[name], events) for name, events in vertex_events.items()
    }

    involutions = [name for name, edge in circuit.channels.items() if isinstance(edge.spec, ch.EtaInvolution)]
    dinfs = [circuit.channels[name].spec.df.delta_inf_up for name in involutions]
    delays = [e.spec.delay for e in circuit.channels.values() if isinstance(e.spec, (ch.Pure, ch.Inertial))]
    guard = 10.0 * max(dinfs) if dinfs else (10.0 * max(delays) if delays and max(delays) > 0 else horizon / 10.0)
    guard = min(guard, horizon / 2.0)  # the window must leave room before it

    stabilized = {}
    resolved = {}
    for port in circuit.output_ports:
        sig = vertex_signals[port]
        driver = circuit.driver_of(port).name
        stabilized[port] = sig.last_time() <= horizon - guard and driver not in active
        resolved[port] = sig.value_at(horizon)

    return Execution(
        horizon=horizon,
        vertex_signals=vertex_signals,
        channel_signals=channel_signals,
        channel_logs={name: state.log for name, state in states.items()},
        eta_sequences={name: [rec.eta for rec in states[name].log] for name in involutions},
        event_count=event_count,
        stabilized=stabilized,
        resolved_value=resolved,
        active_at_horizon=active,
        commit_margins={name: states[name].commit_margin for name in involutions},
        circuit=circuit,
    )


@dataclass
class VerificationReport:
    ok: bool
    mismatches: list[str] = field(default_factory=list)


def verify_execution(e: Execution) -> VerificationReport:
    """Re-derive every channel and gate signal denotationally and report mismatches.

    Each channel function is re-applied to its recorded input signal with the
    recorded eta sequence replayed; each gate is re-evaluated at every event
    time of its pins.  This is the engine's independent self-check oracle.
    """
    mismatches: list[str] = []
    circuit = e.circuit

    for name, edge in circuit.channels.items():
        spec = edge.spec
        if isinstance(spec, ch.EtaInvolution):
            spec = ch.EtaInvolution(spec.df, spec.bounds, ch.FixedSequence(tuple(e.eta_sequences[name])))
        src_sig = e.vertex_signals[edge.src].truncated(e.horizon)
        try:
            expected, _ = ch.apply_channel(spec, src_sig)
        except ch.ChannelError as exc:
            mismatches.append(f"channel {name}: re-application failed: {exc}")
            continue
        got = e.channel_signals[name]
        exp_trunc = expected.truncated(e.horizon)
        if exp_trunc.initial_value != got.initial_value or exp_trunc.transitions != got.transitions:
            mismatches.append(
                f"channel {name}: recorded output differs from channel function "
                f"(expected {len(exp_trunc.transitions)} transitions, got {len(got.transitions)})"
            )

    for gate in circuit.gates.values():
        pins = [e.channel_signals[circuit.driver_of(gate.name, pin).name] for pin in range(gate.arity)]
        out = e.vertex_signals[gate.name]
        if out.initial_value != gate.initial_value:
            mismatches.append(f"gate {gate.name}: initial value mismatch")
        times = {0.0}
        times.update(tr.time for s in pins for tr in s.transitions if tr.time <= e.horizon)
        times.update(tr.time for tr in out.transitions)
        for t in sorted(times):
            want = gate.evaluate(tuple(s.value_at(t) for s in pins))
            if out.value_at(t) != want:
                mismatches.append(f"gate {gate.name}: value at t={t} is {out.value_at(t)}, expected {want}")
                break

    for port in circuit.output_ports:
        edge = circuit.driver_of(port)
        if e.vertex_signals[port].transitions != e.channel_signals[edge.name].transitions:
            mismatches.append(f"output port {port}: signal differs from driving channel {edge.name}")

    return VerificationReport(not mismatches, mismatches)
