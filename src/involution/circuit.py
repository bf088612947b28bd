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
A channel that cannot be decided causally, an arrival that would
retro-cancel a committed output, and a vertex that would switch twice at one
instant raise :class:`CausalityFault` instead of silently corrupting the
trace.
"""

from __future__ import annotations

import collections
import heapq
import json
import math
import numbers
from dataclasses import dataclass, field
from itertools import cycle, repeat
from typing import Any, Callable

from . import channel as ch
from .delay_model import DelayFunction, DelayModelError, ExpChannelParams, exp_channel
from .delay_model import read_delay_samples, tabulated_channel
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


# function -> (output from the pin values, least arity, greatest arity)
_GATES: dict[str, tuple[Callable[[tuple[int, ...]], int], int, float]] = {
    "NOT": (lambda v: 1 - v[0], 1, 1),
    "BUF": (lambda v: v[0], 1, 1),
    "OR": (lambda v: int(any(v)), 2, math.inf),
    "NOR": (lambda v: 1 - int(any(v)), 2, math.inf),
    "AND": (lambda v: int(all(v)), 2, math.inf),
    "NAND": (lambda v: 1 - int(all(v)), 2, math.inf),
    "XOR": (lambda v: sum(v) % 2, 2, math.inf),
    "CONST0": (lambda v: 0, 0, 0),
    "CONST1": (lambda v: 1, 0, 0),
}


@dataclass(frozen=True)
class Gate:
    name: str
    function: str
    arity: int
    initial_value: int

    def __post_init__(self) -> None:
        if self.function not in _GATES:
            raise UnknownFunction(f"gate {self.name!r}: unknown function {self.function!r}")
        _, least, greatest = _GATES[self.function]
        if not least <= self.arity <= greatest:
            raise UnknownFunction(
                f"gate {self.name!r}: function {self.function} does not admit arity {self.arity}"
            )
        if self.initial_value not in (0, 1):
            raise NetlistError(f"gate {self.name!r}: initial value must be 0 or 1")

    def evaluate(self, values: tuple[int, ...]) -> int:
        return _GATES[self.function][0](values)


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
        self.files: list[str] = []  # the data files a parsed netlist names; see parse_circuit
        self._validate(gates, channels)
        self._index()

    def _validate(self, gates: list[Gate], channels: list[ChannelEdge]) -> None:
        """Check the structural rules on the lists as given, before the dicts merged repeated names."""
        violations: list[NetlistError] = []
        vertices = [*self.input_ports, *self.output_ports, *(g.name for g in gates)]
        for kind, listed in (("vertex", vertices), ("channel", [c.name for c in channels])):
            repeated = sorted(name for name, n in collections.Counter(listed).items() if n > 1)
            if repeated:
                violations.append(NetlistError(f"duplicate {kind} names {repeated}"))
        names = set(vertices)
        channel_names = set(self.channels)

        drivers: dict[tuple[str, int | None], list[str]] = {}
        for edge in channels:
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

    def _index(self) -> None:
        """Number the vertices and channels once, for every ``execute`` of this circuit.

        Vertices are the input ports, the gates, then the output ports in the
        order of their driving channels; channels keep their netlist order.
        """
        edges = list(self.channels.values())
        self._vertex_names = [*self.input_ports, *self.gates, *(e.dst for e in edges if e.dst_pin is None)]
        at = {name: k for k, name in enumerate(self._vertex_names)}
        self._channel_names = [e.name for e in edges]
        self._channel_src = [at[e.src] for e in edges]
        # a delivery sets gate pin (vertex, pin) or switches output port (vertex, None)
        self._channel_dst = [(at[e.dst], e.dst_pin) for e in edges]
        self._fanout = [tuple(c for c, e in enumerate(edges) if e.src == name) for name in self._vertex_names]
        # by vertex number up to the last gate: its function and the sources of its pins (None for a port)
        ports = [None] * len(self.input_ports)
        self._gate_fns = [*ports, *(_GATES[g.function][0] for g in self.gates.values())]
        self._pin_srcs = [
            *ports,
            *([at[self._drivers[(name, pin)].src] for pin in range(g.arity)] for name, g in self.gates.items()),
        ]
        self._involutions = [e.name for e in edges if isinstance(e.spec, ch.EtaInvolution)]
        dinfs = [e.spec.df.delta_inf_up for e in edges if isinstance(e.spec, ch.EtaInvolution)]
        delays = [e.spec.delay for e in edges if isinstance(e.spec, (ch.Pure, ch.Inertial))]
        # the stabilization guard, or None for a tenth of the horizon
        self._guard = 10.0 * max(dinfs) if dinfs else (10.0 * max(delays) if delays and max(delays) > 0 else None)

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


def _parse_channel_spec(entry: dict, base_dir: str | None, files: list[str]) -> ch.ChannelSpec:
    import os

    kind = entry["kind"]
    where = f"channel {entry['name']!r}"
    stray = sorted({"eta", "strategy"} & set(entry))
    if stray and kind != "eta_involution":
        raise NetlistError(f"{where}: {stray} apply only to eta_involution channels, not {kind!r}")
    params = dict(_typed(where, "params", entry.get("params", {}), dict))

    def num(field: str, x: Any) -> float:
        return _number(where, field, x)

    def data_file(field: str, x: Any) -> str:
        """A named data file's path, relative ones resolved against ``base_dir``; appended to ``files``."""
        path = _typed(where, field, x, str)
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        files.append(path)
        return path

    def build_df() -> DelayFunction:
        if "exp" in params:
            e = _typed(where, "exp", params.pop("exp"), dict)
            return exp_channel(
                ExpChannelParams(num("exp.tau", e["tau"]), num("exp.t_p", e["t_p"]), num("exp.vth", e["vth"]))
            )
        if "table" in params:
            rows = read_delay_samples(data_file("table", params.pop("table")))
            up = [(t, du) for t, du, _ in rows if du is not None]
            down = [(t, dd) for t, _, dd in rows if dd is not None]
            meta = _typed(where, "asymptotes", params.pop("asymptotes"), dict)
            return tabulated_channel(up, down, num("asymptotes.up", meta["up"]), num("asymptotes.down", meta["down"]))
        raise NetlistError(f"{where}: params need 'exp' or 'table', got {sorted(params)}")

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
            strategy = ch.FixedSequence(tuple(ch.read_eta_sequence(data_file("strategy.file", strat_doc["file"]))))
        else:
            raise NetlistError(f"{where}: unknown strategy variant {variant!r}")
        spec = ch.EtaInvolution(df, bounds, strategy)
    else:
        raise NetlistError(f"{where}: unknown channel kind {kind!r}")
    if params:
        raise NetlistError(f"{where}: unknown params {sorted(params)}")
    return spec


_PORT_KEYS = {"name", "direction"}
_GATE_KEYS = {"name", "function", "arity", "initial"}
_CHANNEL_KEYS = {"name", "from", "to", "kind", "params", "eta", "strategy"}


def parse_circuit(document: dict | str, base_dir: str | None = None) -> Circuit:
    """Validate a netlist document (JSON text or parsed dict) into a Circuit.

    Unknown keys are rejected, and every container and name is type-checked
    before it is read.  All structural violations are collected and reported
    together.  The circuit's ``files`` lists the data files the netlist
    names (delay tables and eta sequences), resolved and in the order read.
    """
    doc = _typed("netlist", "document", json.loads(document) if isinstance(document, str) else document, dict)
    unknown = set(doc) - {"ports", "gates", "channels"}
    if unknown:
        raise NetlistError(f"unknown top-level keys {sorted(unknown)}")

    def entries(key: str, known: set[str]):
        for k, e in enumerate(_typed("netlist", key, doc.get(key, []), list)):
            _typed("netlist", f"{key}[{k}]", e, dict)
            where = f"{key[:-1]} {e.get('name')!r}"
            if set(e) - known:
                raise NetlistError(f"{where}: unknown keys {sorted(set(e) - known)}")
            _typed(where, "name", e.get("name"), str)
            yield where, e

    inputs, outputs, gates, edges, files = [], [], [], [], []
    try:  # ``where`` names the entry being parsed in the errors of its fields
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
            edges.append(ChannelEdge(c["name"], src, dst, dst_pin, _parse_channel_spec(c, base_dir, files)))
    except KeyError as exc:
        raise NetlistError(f"{where}: missing key {exc}") from None
    except (DelayModelError, ch.ChannelError) as exc:
        raise NetlistError(f"{where}: {exc}") from exc
    circuit = Circuit(inputs, outputs, gates, edges)
    circuit.files = files
    return circuit


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
    """An executed assignment of signals to every vertex and channel.

    ``active_at_horizon`` names the input ports and channels (never a gate)
    with a stimulus, delivery or release still due after the horizon.  A
    record canceled before the horizon has nothing left to deliver and marks
    no channel active.
    """

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
    *,
    events_max: int = 10**6,
) -> Execution:
    """Event-driven execution of ``circuit`` up to ``horizon``.

    ``inputs`` holds one signal per input port and nothing else.  Raises
    :class:`HorizonExceeded` when the event budget runs out (near-critical
    feedback can oscillate for a long time) and :class:`CausalityFault` if
    the engine's commit rule would be violated.
    """
    missing = [p for p in circuit.input_ports if p not in inputs]
    if missing:
        raise EngineError(f"missing input signals for ports {missing}")
    unknown = [name for name in inputs if name not in circuit.input_ports]
    if unknown:
        raise EngineError(f"input signals {unknown} name no input port")

    # Vertices and channels are numbered by ``Circuit._index``.  Initial values
    # propagate statically: a channel's initial output value is its source
    # vertex's initial value.
    vertex_names, channel_names = circuit._vertex_names, circuit._channel_names
    channel_dst, fanout, gate_fns = circuit._channel_dst, circuit._fanout, circuit._gate_fns
    initial = [inputs[p].initial_value for p in circuit.input_ports]
    initial += [g.initial_value for g in circuit.gates.values()]
    initial += [initial[src] for src, (_, pin) in zip(circuit._channel_src, channel_dst) if pin is None]
    pins = [srcs and [initial[s] for s in srcs] for srcs in circuit._pin_srcs]
    states = []
    for (name, edge), src in zip(circuit.channels.items(), circuit._channel_src):
        try:
            state = ch.channel_state(edge.spec, initial[src])
            state.check_causal()
        except ch.ChannelError as exc:
            raise CausalityFault(f"channel {name!r}: {exc}") from exc
        states.append(state)
    delivered: list[list[tuple[float, int]]] = [[] for _ in states]
    # a vertex's current value is its last transition's, else its initial one
    vertex_events: list[list[tuple[float, int]]] = [[] for _ in vertex_names]

    # Heap entries are (time, priority, sequence number, kind, payload); at one
    # time stimuli and deliveries come first, then gate evaluations, then
    # releases.  Payloads: STIM (port, value), EVAL gate, DELIVER and RELEASE
    # (channel, record), vertices and channels by number.
    gates = range(len(circuit.input_ports), len(circuit.input_ports) + len(circuit.gates))
    first = []
    for k, p in enumerate(circuit.input_ports):
        v0 = inputs[p].initial_value
        first += [(t, 0, _STIM, x) for t, x in zip(inputs[p].times, cycle(((k, 1 - v0), (k, v0))))]
    first += [(0.0, 1, _EVAL, g) for g in gates]
    heap: list[tuple[float, int, int, int, Any]]
    heap = [(t, prio, seq, kind, x) for seq, (t, prio, kind, x) in enumerate(first)]
    heapq.heapify(heap)
    seq = len(heap)
    pending_evals = {(g, 0.0) for g in gates}
    trail: collections.deque[tuple] = collections.deque(maxlen=100)  # the last events before the budget runs out
    trail_from = events_max - trail.maxlen
    push, pop = heapq.heappush, heapq.heappop

    event_count = 0
    while heap:
        item = pop(heap)
        t, _, _, kind, payload = item
        if t > horizon:
            heap.append(item)
            break
        event_count += 1
        if event_count > trail_from:
            if event_count > events_max:
                _, kind_name, named = _named(circuit, item)
                raise HorizonExceeded(
                    f"event budget {events_max} exhausted at t={t} (oscillation?); last event {kind_name} {named!r}",
                    events=[_named(circuit, e) for e in trail],
                )
            trail.append(item)

        if kind == _DELIVER:
            c, rec = payload
            if rec.canceled:  # a pure record can cancel with a later one rounded onto its time
                continue
            v = rec.value
            delivered[c].append((t, v))
            x, pin = channel_dst[c]
            if pin is not None:  # a gate pin: evaluate the gate after every delivery at t
                pins[x][pin] = v
                if (x, t) not in pending_evals:
                    pending_evals.add((x, t))
                    seq += 1
                    push(heap, (t, 1, seq, _EVAL, x))
                continue
        elif kind == _EVAL:
            x = payload
            pending_evals.discard((x, t))
            v = gate_fns[x](pins[x])
        elif kind == _RELEASE:
            c, rec = payload
            try:
                committed = states[c].commit(rec)
            except ch.ChannelError as exc:
                raise CausalityFault(f"channel {channel_names[c]!r}: {exc}") from exc
            if not committed:
                continue
            if rec.out_time < t:
                raise CausalityFault(
                    f"channel {channel_names[c]!r}: committed output at {rec.out_time} lies before decision time {t}"
                )
            seq += 1
            push(heap, (rec.out_time, 0, seq, _DELIVER, payload))
            continue
        else:
            x, v = payload

        # vertex x takes value v at t and feeds its fan-out channels
        events = vertex_events[x]
        if events:
            last_t, last_v = events[-1]
            if last_v == v:
                continue
            if t <= last_t:  # equal: a record decided at its output time was delivered after this evaluation
                raise CausalityFault(
                    f"vertex {vertex_names[x]!r}: transition at t={t} does not follow its last one at t={last_t}"
                )
        elif initial[x] == v:
            continue
        events.append((t, v))
        for c in fanout[x]:
            state = states[c]
            try:
                rec, _ = state.feed(t, v)
            except ch.ChannelError as exc:
                raise CausalityFault(f"channel {channel_names[c]!r}: {exc}") from exc
            at = state.decide_at(rec)
            seq += 1
            if at is None:
                push(heap, (rec.out_time, 0, seq, _DELIVER, (c, rec)))
            elif not rec.canceled:
                push(heap, (at, 2, seq, _RELEASE, (c, rec)))

    # what is still due after the horizon
    active: set[str] = set()
    for _, _, _, kind, payload in heap:
        if kind == _STIM:
            active.add(vertex_names[payload[0]])
        elif kind != _EVAL and not payload[1].canceled:
            active.add(channel_names[payload[0]])

    channel_signals = {
        name: make_signal(initial[src], events)
        for name, src, events in zip(channel_names, circuit._channel_src, delivered)
    }
    vertex_signals = {name: make_signal(v, events) for name, v, events in zip(vertex_names, initial, vertex_events)}

    guard = circuit._guard if circuit._guard is not None else horizon / 10.0
    guard = min(guard, horizon / 2.0)  # the window must leave room before it
    stabilized = {}
    resolved = {}
    for port in circuit.output_ports:
        sig = vertex_signals[port]
        driver = circuit.driver_of(port).name
        stabilized[port] = sig.last_time() <= horizon - guard and driver not in active
        resolved[port] = sig.value_at(horizon)

    by_name = dict(zip(channel_names, states))
    return Execution(
        horizon=horizon,
        vertex_signals=vertex_signals,
        channel_signals=channel_signals,
        channel_logs={name: state.log for name, state in by_name.items()},
        eta_sequences={name: [rec.eta for rec in by_name[name].log] for name in circuit._involutions},
        event_count=event_count,
        stabilized=stabilized,
        resolved_value=resolved,
        active_at_horizon=active,
        commit_margins={name: by_name[name].commit_margin for name in circuit._involutions},
        circuit=circuit,
    )


_STIM, _EVAL, _DELIVER, _RELEASE = range(4)
_KIND_NAMES = ("stim", "eval", "deliver", "release")


def _named(circuit: Circuit, item: tuple) -> tuple:
    """A heap entry as (time, kind, payload) with names for numbers, as ``HorizonExceeded`` reports it."""
    t, _, _, kind, payload = item
    if kind == _STIM:
        payload = (circuit._vertex_names[payload[0]], payload[1])
    elif kind == _EVAL:
        payload = circuit._vertex_names[payload]
    else:
        payload = (circuit._channel_names[payload[0]], payload[1])
    return t, _KIND_NAMES[kind], payload


@dataclass
class VerificationReport:
    ok: bool
    mismatches: list[str] = field(default_factory=list)


def verify_execution(e: Execution) -> VerificationReport:
    """Re-derive every channel and gate signal denotationally and report mismatches.

    Each channel function is re-applied to its recorded input signal with the
    recorded eta sequence replayed; each gate is re-evaluated at every event
    time of its pins and its output, and each output port must equal its
    driving channel.  This is the engine's independent self-check oracle.
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
        if exp_trunc != got:
            mismatches.append(
                f"channel {name}: recorded output differs from channel function "
                f"(expected {len(exp_trunc.times)} transitions, got {len(got.times)})"
            )

    for gate in circuit.gates.values():
        pins = [e.channel_signals[circuit.driver_of(gate.name, pin).name] for pin in range(gate.arity)]
        out = e.vertex_signals[gate.name]
        if out.initial_value != gate.initial_value:
            mismatches.append(f"gate {gate.name}: initial value mismatch")
        times = {0.0, *out.times}
        for s in pins:
            times.update(s.truncated(e.horizon).times)
        times = sorted(times)
        inputs = zip(*(s.values_at(times) for s in pins)) if pins else repeat((), len(times))
        want = list(map(_GATES[gate.function][0], inputs))
        got = out.values_at(times)
        if got != want:
            k = next(k for k, (a, b) in enumerate(zip(got, want)) if a != b)
            mismatches.append(f"gate {gate.name}: value at t={times[k]} is {got[k]}, expected {want[k]}")

    for port in circuit.output_ports:
        edge = circuit.driver_of(port)
        if e.vertex_signals[port] != e.channel_signals[edge.name]:
            mismatches.append(f"output port {port}: signal differs from driving channel {edge.name}")

    return VerificationReport(not mismatches, mismatches)
