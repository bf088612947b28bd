"""Circuit graphs and the execution engine.

A circuit is a directed graph whose vertices are ports and zero-time Boolean
gates and whose edges are delay channels; gates and channels alternate on
every path, and every gate input pin and output port has exactly one driving
channel.  ``execute`` produces an execution: an assignment of signals to all
vertices and edges consistent with the gate functions and channel functions
for the adversary choices drawn during the run.

The engine drives every channel through its incremental state, built fresh
for every run (``channel.state_constructor``).  It delivers a pure or
inertial record at its output time unless the state canceled it by then, and
releases an eta-involution record to downstream consumers only at the
state's decision time, which ``channel`` derives from the commit rule
documented there.
A circuit with a loop runs as one discrete-event loop over all its channels
and gates.  An acyclic circuit is executed as one composition of its channel
and gate functions in topological order, which gives the loop's execution;
where it may not, the loop runs instead.  A channel that cannot be decided
causally (checked once per circuit), an audit of a channel state that fails
(``channel`` lists them), and a vertex or channel that would switch twice at
one instant or repeat its value raise :class:`CausalityFault` instead of
silently corrupting the trace.
"""

from __future__ import annotations

import collections
import heapq
import json
import math
import numbers
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, compress, count, cycle, islice, repeat, zip_longest
from typing import Any, Callable

from . import channel as ch
from .delay_model import DelayFunction, DelayModelError, ExpChannelParams, exp_channel
from .delay_model import read_delay_samples, tabulated_channel
from .signals import Signal, _unchecked


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
        self._index(self._validate(gates, channels))

    def _validate(self, gates: list[Gate], channels: list[ChannelEdge]) -> dict:
        """Check the structural rules on the lists as given, before the dicts merged repeated names;
        returns the name of the channel driving each gate pin ``(gate, pin)`` and output port ``(port, None)``."""
        violations: list[NetlistError] = []
        vertices = [*self.input_ports, *self.output_ports, *(g.name for g in gates)]
        for kind, listed in (("vertex", vertices), ("channel", [c.name for c in channels])):
            repeated = sorted(name for name, n in collections.Counter(listed).items() if n > 1)
            if repeated:
                violations.append(NetlistError(f"duplicate {kind} names {repeated}"))
        names = set(vertices)
        shared = sorted(names.intersection(self.channels))
        if shared:  # active_at_horizon and the fan-in cones name vertices and channels in one set
            violations.append(NetlistError(f"names {shared} are both vertex and channel names"))
        channel_names = set(self.channels) - names

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
        return {key: who[0] for key, who in drivers.items()}

    def _index(self, drivers: dict) -> None:
        """Build the run template that every ``execute`` of this circuit reads, once.

        Vertices are the input ports, the gates, then the output ports in the
        order of their driving channels; channels keep their netlist order.
        The template numbers them, orders the gates, and holds what a run
        would otherwise rebuild: the input-port set, the gates' initial values
        and time-0 evaluations, the source and fan-in cone of each output port,
        and the number of each eta-involution channel.
        """
        edges = list(self.channels.values())
        self._vertex_names = [*self.input_ports, *self.gates, *(e.dst for e in edges if e.dst_pin is None)]
        at = {name: k for k, name in enumerate(self._vertex_names)}
        self._input_set = set(self.input_ports)
        self._gate_initials = [g.initial_value for g in self.gates.values()]
        self._channel_names = [e.name for e in edges]
        self._channel_src = [at[e.src] for e in edges]
        # a delivery sets gate pin (vertex, pin) or switches output port (vertex, None)
        self._channel_dst = [(at[e.dst], e.dst_pin) for e in edges]
        self._port_srcs = [at[e.src] for e in edges if e.dst_pin is None]  # by output port, in vertex order
        self._fanout = [tuple(c for c, e in enumerate(edges) if e.src == name) for name in self._vertex_names]
        # by vertex number up to the last gate: its function and the channels driving its pins (None for a port)
        ports = [None] * len(self.input_ports)
        self._gate_fns = [*ports, *(_GATES[g.function][0] for g in self.gates.values())]
        number = {e.name: c for c, e in enumerate(edges)}
        self._pin_channels = [
            *ports,
            *([number[drivers[(name, pin)]] for pin in range(g.arity)] for name, g in self.gates.items()),
        ]
        n_in = len(self.input_ports)
        # by output port: the names of the channels and input ports that it depends on, back from its driving channel
        self._port_cones = []
        for port in self.output_ports:
            cone, todo = set(), [number[drivers[(port, None)]]]
            while todo:
                c = todo.pop()
                if self._channel_names[c] not in cone:
                    cone.add(self._channel_names[c])
                    x = self._channel_src[c]
                    if x < n_in:
                        cone.add(self.input_ports[x])
                    else:
                        todo += self._pin_channels[x]
            self._port_cones.append((port, cone))
        # the gates in an order where each follows the gates driving its pins, or None if the gates form a loop
        gates = range(n_in, n_in + len(self.gates))
        self._evals_at_0 = [(0.0, _EVAL, seq, x) for seq, x in enumerate(gates)]  # heap entries, see _run_events
        waiting = {x: sum(self._channel_src[c] >= n_in for c in self._pin_channels[x]) for x in gates}
        order = [x for x in gates if not waiting[x]]
        for x in order:  # grows while it is read
            for y, pin in map(self._channel_dst.__getitem__, self._fanout[x]):
                if pin is not None:
                    waiting[y] -= 1
                    if not waiting[y]:
                        order.append(y)
        self._order = order if len(order) == len(gates) else None
        self._involutions = [(e.name, c) for c, e in enumerate(edges) if isinstance(e.spec, ch.EtaInvolution)]
        # by channel: the constructor of its fresh states, one per run; and the message of the
        # first channel that the engine cannot decide causally, or None, which every execute raises
        self._new_states: list[Callable | None] = []
        self._fault = None
        for e in edges:
            try:
                new = ch.state_constructor(e.spec)
                ch.check_causal(e.spec)
            except ch.ChannelError as exc:
                new, self._fault = None, self._fault or f"channel {e.name!r}: {exc}"
            self._new_states.append(new)


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
            samples = read_delay_samples(data_file("table", params.pop("table")))
            up = [(t, d) for t, d, value in samples if value]
            down = [(t, d) for t, d, value in samples if not value]
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


@dataclass(slots=True)
class Execution:
    """An executed assignment of signals to every vertex and channel.

    A run up to the horizon H processes every event at or before H, the
    zero-delay cascades at H included, and none after it.  Three fields say
    what that leaves open:

    - ``active_at_horizon`` names the input ports and channels (never a
      gate) with a stimulus, delivery or release still due after H.  A record
      canceled at or before H has nothing left to deliver and marks no
      channel active.
    - ``stabilized`` holds, per output port, whether nothing in its fan-in
      cone is active: no channel on a path to it, and no input port feeding
      one.  Only such an event can switch the port after H, so a stabilized
      port's signal is final: a run to any later horizon gives it the same.
      The converse does not hold, since a gate can mask what is due (an AND
      with a pin held at 0); a port that is not stabilized has something
      upstream still due.
    - ``resolved_value`` holds each output port's value at H, final where
      the port is stabilized.

    For a loop this means: a loop that has settled, such as a storage loop
    locked at 1, has nothing pending and its outputs read stabilized; a loop
    that still oscillates at H has a channel in its own cone due, so its
    outputs do not, and their values at H are a sample of the oscillation.

    ``channel_logs`` holds every channel's full per-transition log, the
    ``log`` list of its state, when ``execute`` ran with ``log=True`` and is
    empty otherwise; ``eta_sequences`` and ``commit_margins`` are always
    there.  The log only observes: with it on, each channel state builds its
    records as TransitionRecords, which the engine reads as plain records, so
    every other field, and any error raised (a budget trail reports plain
    records), is the same.
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
    log: bool = False,
) -> Execution:
    """The execution of ``circuit`` up to ``horizon``.

    ``inputs`` holds one signal per input port and nothing else.  ``log``
    keeps every channel's full per-transition log in ``channel_logs``.

    An acyclic circuit is executed as the composition of its channel and gate
    functions in topological order (``_compose``); a circuit with a loop runs
    the discrete-event loop (``_run_events``).  The composition gives the
    execution that the event loop gives, ``event_count`` included, and runs
    the loop instead wherever it may not: on a channel fault, on a budget
    the loop would exhaust, on a delivery that would repeat a value or not
    follow the last one, and on a delivery made at the instant it lands at a
    gate pin (a delay that rounds to zero at its input time), whose order
    among that instant's events the composition does not reproduce.  Every
    error is the event loop's, raised at its first fault:
    :class:`HorizonExceeded` when the event budget runs out (near-critical
    feedback can oscillate for a long time), :class:`CausalityFault` if the
    engine's commit rule would be violated, and :class:`EngineError` for
    inputs that do not match the input ports or a horizon that is not a
    number >= 0.  No time lies beyond NaN, and below 0 the gates'
    evaluations at 0 would still be pending, which no field reports.
    """
    if inputs.keys() != circuit._input_set:
        missing = [p for p in circuit.input_ports if p not in inputs]
        if missing:
            raise EngineError(f"missing input signals for ports {missing}")
        unknown = [name for name in inputs if name not in circuit.input_ports]
        raise EngineError(f"input signals {unknown} name no input port")
    if not horizon >= 0:  # NaN too: no time lies beyond it, so the loop would run every event
        raise EngineError(f"horizon must be a number >= 0, got {horizon}")

    if circuit._fault is not None:
        raise CausalityFault(circuit._fault)
    if circuit._order is not None:
        e = _compose(circuit, inputs, horizon, events_max, log)
        if e is not None:
            return e
    return _run_events(circuit, inputs, horizon, events_max, log)


def _initial_values(circuit: Circuit, inputs: dict[str, Signal]) -> list[int]:
    """Every vertex's initial value, by number.

    Initial values propagate statically: a channel's initial output value is
    its source vertex's initial value.
    """
    initial = [inputs[p].initial_value for p in circuit.input_ports]
    initial += circuit._gate_initials
    initial += [initial[x] for x in circuit._port_srcs]
    return initial


def _run_events(
    circuit: Circuit, inputs: dict[str, Signal], horizon: float, events_max: int, log: bool
) -> Execution:
    """The discrete-event loop: every stimulus, delivery, gate evaluation and
    release up to ``horizon``, one at a time from a heap; only an
    eta-involution channel schedules releases."""
    # Vertices and channels are numbered by ``Circuit._index``.
    vertex_names, channel_names, channel_src = circuit._vertex_names, circuit._channel_names, circuit._channel_src
    channel_dst, fanout, gate_fns = circuit._channel_dst, circuit._fanout, circuit._gate_fns
    initial = _initial_values(circuit, inputs)
    pins = [chans and [initial[channel_src[c]] for c in chans] for chans in circuit._pin_channels]
    states = [new(log) for new in circuit._new_states]
    # the transition times of every channel and vertex; values alternate from
    # ``initial``, and ``values`` holds each vertex's current one
    channel_times: list[list[float]] = [[] for _ in states]
    vertex_times: list[list[float]] = [[] for _ in vertex_names]
    values = initial[:]

    # Heap entries are (time, kind, sequence number, payload); at one time the
    # kind orders them: stimuli, deliveries, gate evaluations, releases.
    # Payloads: STIM (port, value), EVAL gate, DELIVER and RELEASE (channel,
    # record), vertices and channels by number.
    # Sequence numbers only order the entries of one time and kind, so the
    # gates' evaluations at 0 come first, from the circuit's template.
    heap: list[tuple[float, int, int, Any]] = circuit._evals_at_0[:]
    for k, p in enumerate(circuit.input_ports):
        v0 = inputs[p].initial_value
        stims = zip(count(len(heap)), inputs[p].times, cycle(((k, 1 - v0), (k, v0))))
        heap += [(t, _STIM, seq, x) for seq, t, x in stims]
    heapq.heapify(heap)
    seq = len(heap)
    # by gate: the time of its pending evaluation, else None (every gate evaluates at 0)
    pending_eval: list[float | None] = [0.0] * len(pins)
    trail: list[tuple] = []  # the events after trail_from: the last 100 before the budget runs out
    trail_from = events_max - 100
    push, pop = heapq.heappush, heapq.heappop

    event_count = 0
    while heap:
        item = pop(heap)
        t, kind, _, payload = item
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
            if rec.canceled:  # a pure or inertial record can cancel with a later arrival
                continue
            v = rec.value
            x, pin = channel_dst[c]
            times = channel_times[c]
            # the pin's value, or the port's, is the channel's last delivered value
            if v == (values[x] if pin is None else pins[x][pin]):
                raise CausalityFault(f"channel {channel_names[c]!r}: delivery at t={t} repeats value {v}")
            if times and t <= times[-1]:
                raise CausalityFault(
                    f"channel {channel_names[c]!r}: delivery at t={t} does not follow its last one at t={times[-1]}"
                )
            times.append(t)
            if pin is not None:  # a gate pin: evaluate the gate after every delivery at t
                pins[x][pin] = v
                if pending_eval[x] != t:
                    pending_eval[x] = t
                    seq += 1
                    push(heap, (t, _EVAL, seq, x))
                continue
        elif kind == _EVAL:
            x = payload
            pending_eval[x] = None
            v = gate_fns[x](pins[x])
        elif kind == _RELEASE:
            c, rec = payload
            try:
                committed = states[c].commit(rec)
            except ch.ChannelError as exc:
                raise CausalityFault(f"channel {channel_names[c]!r}: {exc}") from exc
            if committed:
                seq += 1
                push(heap, (rec.out_time, _DELIVER, seq, payload))
            continue
        else:
            x, v = payload

        # vertex x takes value v at t and feeds its fan-out channels
        if values[x] == v:
            continue
        times = vertex_times[x]
        if times and t <= times[-1]:  # equal: a record decided at its output time was delivered after this evaluation
            raise CausalityFault(
                f"vertex {vertex_names[x]!r}: transition at t={t} does not follow its last one at t={times[-1]}"
            )
        times.append(t)
        values[x] = v
        for c in fanout[x]:
            state = states[c]
            try:
                rec, _ = state.feed(t, v)
            except ch.ChannelError as exc:
                raise CausalityFault(f"channel {channel_names[c]!r}: {exc}") from exc
            at = state.decide_at(rec)
            seq += 1
            if at is None:
                push(heap, (rec.out_time, _DELIVER, seq, (c, rec)))
            elif not rec.canceled:
                push(heap, (at, _RELEASE, seq, (c, rec)))

    # what is still due after the horizon
    active: set[str] = set()
    for _, kind, _, payload in heap:
        if kind == _STIM:
            active.add(vertex_names[payload[0]])
        elif kind != _EVAL and not payload[1].canceled:
            active.add(channel_names[payload[0]])
    # the loop's checks keep the times strictly increasing and the values alternating
    return _execution(circuit, horizon, initial, vertex_times, channel_times, states, event_count, active, log)


def _compose(
    circuit: Circuit, inputs: dict[str, Signal], horizon: float, events_max: int, log: bool
) -> Execution | None:
    """The execution of an acyclic circuit as the composition of its channel
    and gate functions, or None where it may not be the event loop's.

    Vertices are visited in topological order.  Each channel state is fed its
    source's transitions up to the horizon and decides each record at its
    decision time, after the input at that instant, as the loop's event kinds
    order them (``_decide``).  Each gate output switches where the gate's
    function of its pins changes (``_gate_output_times``).  ``event_count``
    counts what the loop would process: the stimuli, deliveries (a pure or
    inertial channel's canceled ones too) and releases up to the horizon, and
    one evaluation per gate at 0 and at every other time a pin switches.

    A delivery made at the instant it lands, where a delay rounds to zero at
    its input time, comes after some of that instant's other events in the
    loop when it is made at a release or at a gate's evaluation, so the
    composition returns None for one that lands at a gate pin, and for a
    canceled one (a pure tie whose partner the loop delivered first).  One
    made at a stimulus, by a pure or inertial channel, comes before them.
    """
    n_in = len(circuit.input_ports)
    channel_names, channel_src, channel_dst = circuit._channel_names, circuit._channel_src, circuit._channel_dst
    initial = _initial_values(circuit, inputs)
    states = [new(log) for new in circuit._new_states]
    vertex_times: list[tuple[float, ...]] = [()] * len(initial)
    channel_times: list[tuple[float, ...]] = [()] * len(states)
    active: set[str] = set()
    event_count = 0

    for k, p in enumerate(circuit.input_ports):
        times = inputs[p].times
        n = bisect_right(times, horizon)
        vertex_times[k] = times[:n]
        event_count += n
        if n < len(times):
            active.add(p)
    if event_count > events_max:
        return None
    for x in (*range(n_in), *circuit._order):
        if x >= n_in:
            pins = [_unchecked(initial[channel_src[c]], channel_times[c]) for c in circuit._pin_channels[x]]
            vertex_times[x] = _gate_output_times(circuit._gate_fns[x], pins, horizon, initial[x])
            event_count += len({0.0}.union(*(s.times for s in pins)))
        v0 = initial[x]
        for c in circuit._fanout[x]:
            try:
                made_at, made, release_at, due = _decide(states[c], vertex_times[x], v0, horizon)
            except ch.ChannelError:
                return None
            ends = [rec.out_time for rec in made]
            hit = list(map(operator.le, ends, repeat(horizon)))
            if not all(hit):  # keep the deliveries up to the horizon; one beyond it that survives is due
                due = due or not all(rec.canceled for rec in compress(made, map(operator.not_, hit)))
                made_at, made, ends = (list(compress(seq, hit)) for seq in (made_at, made, ends))
            live = [not rec.canceled for rec in made]
            out, times = made, tuple(ends)
            if not all(live):
                out, times = list(compress(made, live)), tuple(compress(ends, live))
            if [rec.value for rec in out] != list(islice(cycle((1 - v0, v0)), len(out))):
                return None  # a delivery would repeat a value
            if not all(map(operator.lt, times, times[1:])):
                return None  # a delivery would not follow the last one
            channel_times[c] = times
            event_count += len(made) + sum(map(operator.le, release_at, repeat(horizon)))
            if due:
                active.add(channel_names[c])
            y, pin = channel_dst[c]
            if pin is None:
                vertex_times[y] = times
            if x >= n_in or release_at:  # not made at a stimulus
                late = list(compress(made, map(operator.eq, made_at, ends)))
                if late and (pin is not None or any(rec.canceled for rec in late)):
                    return None  # made as it lands, after some of that instant's events
        if event_count > events_max:
            return None
    return _execution(circuit, horizon, initial, vertex_times, channel_times, states, event_count, active, log)


def _decide(state, times: tuple[float, ...], v0: int, horizon: float):
    """Feed ``state`` the transitions at ``times``, whose values alternate
    from ``1 - v0``, and decide its records up to ``horizon`` as the event loop does.

    Each record is decided at its decision time, after the input at that
    instant.  A canceled record decides nothing, so it is taken as soon as it
    is next.  Returns four things: the deliveries the loop makes, as the
    times they are made and their records, two parallel lists; the decision
    times of the releases it schedules, in the order scheduled; and whether a
    record that is not canceled is still undecided after the horizon.
    """
    feed, decide_at, commit = state.feed, state.decide_at, getattr(state, "commit", None)
    made_at: list[float] = []
    made: list[ch.Record] = []
    release_at: list[float] = []
    released: list[ch.Record] = []  # beside release_at
    k = n = 0  # released[:k] are decided, of n
    for t, v in zip(times, cycle((1 - v0, v0))):
        while k < n and (release_at[k] < t or released[k].canceled):
            rec = released[k]
            if commit(rec):
                made_at.append(release_at[k])
                made.append(rec)
            k += 1
        rec = feed(t, v)[0]
        at = decide_at(rec)
        if at is None:  # a pure or inertial record, delivered at its output time
            made_at.append(t)
            made.append(rec)
        elif not rec.canceled:
            release_at.append(at)
            released.append(rec)
            n += 1
    while k < n and (release_at[k] <= horizon or released[k].canceled):
        rec = released[k]
        if commit(rec):
            made_at.append(release_at[k])
            made.append(rec)
        k += 1
    return made_at, made, release_at, k < n


def _execution(
    circuit: Circuit,
    horizon: float,
    initial: list[int],
    vertex_times: list,
    channel_times: list,
    states: list,
    event_count: int,
    active: set[str],
    log: bool,
) -> Execution:
    """The execution with these transition times, strictly increasing, of every vertex and channel by number.

    Each signal map is built in one pass; the states it reads hold only what
    their kind keeps (``channel.state_constructor``).
    """
    channel_names = circuit._channel_names
    channel_signals = {
        name: _unchecked(initial[x], tuple(times))
        for name, x, times in zip(channel_names, circuit._channel_src, channel_times)
    }
    vertex_signals = {
        name: _unchecked(v0, tuple(times)) for name, v0, times in zip(circuit._vertex_names, initial, vertex_times)
    }

    return Execution(
        horizon,
        vertex_signals,
        channel_signals,
        {name: state.log for name, state in zip(channel_names, states)} if log else {},
        {name: states[c].etas for name, c in circuit._involutions},
        event_count,
        {port: active.isdisjoint(cone) for port, cone in circuit._port_cones},
        {port: vertex_signals[port].value_at(horizon) for port in circuit.output_ports},
        active,
        {name: states[c].commit_margin for name, c in circuit._involutions},
        circuit,
    )


_STIM, _DELIVER, _EVAL, _RELEASE = range(4)  # also the order of events at one time
_KIND_NAMES = ("stim", "deliver", "eval", "release")


def _named(circuit: Circuit, item: tuple) -> tuple:
    """A heap entry as (time, kind, payload) with names for numbers, as ``HorizonExceeded`` reports it."""
    t, kind, _, payload = item
    if kind == _STIM:
        payload = (circuit._vertex_names[payload[0]], payload[1])
    elif kind == _EVAL:
        payload = circuit._vertex_names[payload]
    else:  # a plain record whichever kind the state built, so the trail reads the same with the log on or off
        c, r = payload
        payload = (circuit._channel_names[c], ch.Record(r.index, r.time, r.value, r.out_time, r.canceled))
    return t, _KIND_NAMES[kind], payload


def _gate_output_times(fn: Callable, pins: list[Signal], horizon: float, value: int) -> tuple[float, ...]:
    """The times where a gate output that starts at ``value`` switches, if it
    takes the value of ``fn`` on its pins at 0 and at every pin time up to ``horizon``."""
    pin_times = [s.truncated(horizon).times for s in pins]
    if len(pins) == 1 and fn((0,)) != fn((1,)):
        # NOT or BUF: the output switches at 0 if it starts wrong, then at every later pin time
        (times,) = pin_times
        at0 = times[:1] == (0.0,)
        return ((0.0,) if fn((pins[0].initial_value ^ at0,)) != value else ()) + times[at0:]
    times = sorted({0.0}.union(*pin_times))
    # each pin's value at every check time, after its initial value: it flips at each of its own times
    values = [
        accumulate(map(set(own).__contains__, times), operator.xor, initial=s.initial_value)
        for s, own in zip(pins, pin_times)
    ]
    want = list(map(fn, islice(zip(*values), 1, None))) if pins else [fn(())]
    return tuple(compress(times, map(operator.ne, want, [value, *want])))


@dataclass
class VerificationReport:
    ok: bool
    mismatches: list[str] = field(default_factory=list)


def verify_execution(e: Execution) -> VerificationReport:
    """Re-derive every channel and gate signal denotationally and report mismatches.

    Each channel function is re-applied to its recorded input signal with the
    recorded eta sequence replayed, through the channel's own ``feed`` with
    the log off, and its surviving records up to the horizon are compared
    with the recorded channel signal: its initial value, its times, and the
    values alternating from it; no expected signal is built.  A replay whose
    records break a signal rule within the horizon is reported as a
    mismatch.  Each gate's output is derived from its pins: the gate is
    evaluated at 0 and at every pin time up to the horizon, and the times
    where its value changes must be the output's times; a mismatch names the
    first time where the two differ.  Each output port must equal its driving
    channel.  Both execution paths drive the same ``feed``, so this checks
    how a run drives the channels, not the channel algorithm itself.  The
    event loop derives gate outputs by evaluating gates at its events, apart
    from ``_gate_output_times``; an acyclic circuit's run is composed from
    ``_gate_output_times`` too, so for it this checks only what the
    composition does around the shared pieces: the feeding order, the
    decisions, the truncation at the horizon and the eta draws.
    """
    mismatches: list[str] = []
    circuit = e.circuit
    # the driving channel of each gate pin and output port, read from the netlist, not the run template
    driver = {(edge.dst, edge.dst_pin): name for name, edge in circuit.channels.items()}

    for name, edge in circuit.channels.items():
        spec = edge.spec
        if isinstance(spec, ch.EtaInvolution):
            spec = ch.EtaInvolution(spec.df, spec.bounds, ch.FixedSequence(tuple(e.eta_sequences[name])))
        src_sig = e.vertex_signals[edge.src].truncated(e.horizon)
        try:
            survivors, _ = ch._replay(spec, src_sig)
        except ch.ChannelError as exc:
            mismatches.append(f"channel {name}: re-application failed: {exc}")
            continue
        # the survivors up to the horizon, and any NaN time, must be the recorded transitions:
        # those of a valid signal, so strictly increasing, with values alternating from its initial value
        got = e.channel_signals[name]
        kept = [r for r in survivors if not r.out_time > e.horizon]
        v0, n = got.initial_value, len(kept)
        if (
            src_sig.initial_value != v0
            or [r.out_time for r in kept] != list(got.times)
            or [r.value for r in kept] != [1 - v0, v0] * (n // 2) + [1 - v0] * (n % 2)
        ):
            mismatches.append(
                f"channel {name}: recorded output differs from channel function "
                f"(expected {n} transitions, got {len(got.times)})"
            )

    for gate in circuit.gates.values():
        fn = _GATES[gate.function][0]
        pins = [e.channel_signals[driver[(gate.name, pin)]] for pin in range(gate.arity)]
        out = e.vertex_signals[gate.name]
        if out.initial_value != gate.initial_value:
            mismatches.append(f"gate {gate.name}: initial value mismatch")
        want = _gate_output_times(fn, pins, e.horizon, out.initial_value)
        if want != out.times:
            # before t both switch alike; at t only one of them does
            t = next(min(a, b) for a, b in zip_longest(want, out.times, fillvalue=math.inf) if a != b)
            got = out.value_at(t)
            mismatches.append(f"gate {gate.name}: value at t={t} is {got}, expected {1 - got}")

    for port in circuit.output_ports:
        name = driver[(port, None)]
        if e.vertex_signals[port] != e.channel_signals[name]:
            mismatches.append(f"output port {port}: signal differs from driving channel {name}")

    return VerificationReport(not mismatches, mismatches)
