"""Equivalence corpus of engine executions, pinned by SHA-256 digests.

Each case is a circuit, its input signals, a horizon and an event budget.
Running a case gives two digests:

- *trace*: every vertex and channel signal, every channel log, the eta
  sequences, ``event_count`` and ``commit_margins``, or the type and message
  of the raised error (with the 100 trailing events of a
  ``HorizonExceeded``);
- *horizon*: ``stabilized``, ``resolved_value`` and ``active_at_horizon``
  (null when the run raised).

``tests/data/execution_digests.json`` records the digests together with the
Python version and C library of the host that made them, because the delay
functions go through ``math.exp`` and ``math.log``.  Regenerate it with

    PYTHONPATH=src python tests/corpus.py --write [NAME ...]

which rewrites only the named cases when names are given, and compare this
host against it with ``PYTHONPATH=src python tests/corpus.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import json
import math
import platform
import random
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from involution.analysis import constraint_C
from involution.channel import (
    EtaBounds,
    EtaInvolution,
    FixedSequence,
    Inertial,
    Involution,
    Pure,
    UniformRandom,
    WorstCaseShrink,
    Zero,
)
from involution.circuit import (
    ChannelEdge,
    Circuit,
    EngineError,
    Execution,
    Gate,
    HorizonExceeded,
    execute,
    parse_circuit,
)
from involution.delay_model import DelayModelError, ExpChannelParams, exp_channel
from involution.signals import Signal, make_signal

DIGESTS = Path(__file__).parent / "data" / "execution_digests.json"
BENCH_GEN = Path(__file__).parent.parent / "bench" / "gen.py"

XOR_SEEDS = range(0, 4000, 16)
NETLIST_SEEDS = range(300)
DAG_SEEDS = range(60)


class Case(NamedTuple):
    circuit: Circuit
    inputs: dict[str, Signal]
    horizon: float
    events_max: int


def xor_self_loop_case(seed: int):
    """A three-input XOR with two self-loops drawn from ``random.Random(seed)``; None outside (C).

    Pin 0 is the input through Pure(0).  Pins 1 and 2 are self-loops, each an
    eta-involution channel under UniformRandom or WorstCaseShrink, a
    Pure(U[0.1, 1]) or an Involution, on one exp-channel with tau ~ U[0.5, 2],
    T_p ~ U[0.1, 1] and V_th ~ U[0.2, 0.8], and eta_minus, eta_plus ~ U[0, 0.4].
    The input has 1-6 transitions with gaps U[0.01, 1].  Draw order: tau, T_p,
    V_th, eta_minus, eta_plus, each loop's kind and parameter, then the
    transition count and the gaps.
    """
    rng = random.Random(seed)
    df = exp_channel(ExpChannelParams(rng.uniform(0.5, 2), rng.uniform(0.1, 1), rng.uniform(0.2, 0.8)))
    bounds = EtaBounds(rng.uniform(0, 0.4), rng.uniform(0, 0.4))
    try:
        if not constraint_C(df, bounds)[0]:
            return None
    except DelayModelError:  # eta_plus beyond the delta_down domain
        return None
    loops = []
    for _ in range(2):
        kind = rng.randrange(4)
        if kind == 0:
            loops.append(EtaInvolution(df, bounds, UniformRandom(rng.randrange(1000))))
        elif kind == 1:
            loops.append(EtaInvolution(df, bounds, WorstCaseShrink()))
        elif kind == 2:
            loops.append(Pure(rng.uniform(0.1, 1)))
        else:
            loops.append(Involution(df))
    times = itertools.accumulate(rng.uniform(0.01, 1) for _ in range(rng.randint(1, 6)))
    c = Circuit(
        ["i"],
        ["o"],
        [Gate("g", "XOR", 3, 0)],
        [
            ChannelEdge("c0", "i", "g", 0, Pure(0.0)),
            ChannelEdge("c1", "g", "g", 1, loops[0]),
            ChannelEdge("c2", "g", "g", 2, loops[1]),
            ChannelEdge("co", "g", "o", None, Pure(0.0)),
        ],
    )
    return c, make_signal(0, [(t, (k + 1) % 2) for k, t in enumerate(times)])


_FUNCTIONS = ("NOT", "BUF", "OR", "NOR", "AND", "NAND", "XOR")
_STRATEGIES = ("zero", "worst", "random", "fixed")


def _random_spec(rng: random.Random, kind: int, strategy: str):
    """A channel of ``kind`` (0 pure, 1 inertial, 2 involution, 3 eta-involution)."""
    if kind == 0:
        return Pure(rng.uniform(0.1, 1.0))
    if kind == 1:
        d = rng.uniform(0.2, 1.5)
        return Inertial(d, d if rng.random() < 0.3 else rng.uniform(0.05, d))
    df = exp_channel(ExpChannelParams(rng.uniform(0.5, 2), rng.uniform(0.1, 1), rng.uniform(0.2, 0.8)))
    if kind == 2:
        return Involution(df)
    bounds = EtaBounds(rng.uniform(0, 0.6) * df.params.t_p, rng.uniform(0, 0.6) * df.params.t_p)
    if not constraint_C(df, bounds)[0]:
        bounds = EtaBounds()
    if strategy == "zero":
        return EtaInvolution(df, bounds, Zero())
    if strategy == "worst":
        return EtaInvolution(df, bounds, WorstCaseShrink())
    if strategy == "random":
        return EtaInvolution(df, bounds, UniformRandom(rng.randrange(2**31)))
    etas = tuple(rng.uniform(-bounds.eta_minus, bounds.eta_plus) for _ in range(rng.randint(0, 8)))
    rng.random()  # a draw no longer used, kept so that the later draws of every case stay the same
    return EtaInvolution(df, bounds, FixedSequence(etas))


def random_netlist_case(seed: int) -> Case:
    """A random 1-4-gate netlist with feedback, drawn from ``random.Random(seed)``.

    Gates are NOT, BUF, OR, NOR, AND, NAND or XOR (arity up to 3) with random
    initial values; every pin is driven from one of the 1-2 input ports or any
    gate, so loops are common.  Channel kinds and eta strategies cycle with
    the seed and the channel, so the corpus holds all four of each; inertial
    windows equal their delay in 30% of the channels, and eta budgets are up
    to 0.6 T_p, or zero where that violates (C).  Each input has 0-6
    transitions with gaps U[0.05, 1.5].
    """
    rng = random.Random(seed)
    inputs = [f"i{k}" for k in range(rng.randint(1, 2))]
    gates = []
    for k in range(rng.randint(1, 4)):
        function = rng.choice(_FUNCTIONS)
        arity = 1 if function in ("NOT", "BUF") else rng.randint(2, 3)
        gates.append(Gate(f"g{k}", function, arity, rng.randint(0, 1)))
    sources = inputs + [g.name for g in gates]
    edges = []
    for g in gates:
        for pin in range(g.arity):
            n = len(edges)
            spec = _random_spec(rng, (seed + n) % 4, _STRATEGIES[(seed // 4 + n) % 4])
            edges.append(ChannelEdge(f"c{n}", rng.choice(sources), g.name, pin, spec))
    out_spec = Pure(0.0) if rng.random() < 0.5 else _random_spec(rng, rng.randrange(4), rng.choice(_STRATEGIES))
    edges.append(ChannelEdge("co", gates[-1].name, "o", None, out_spec))
    stimuli = {}
    for port in inputs:
        v0 = rng.randint(0, 1)
        times = itertools.accumulate(rng.uniform(0.05, 1.5) for _ in range(rng.randint(0, 6)))
        stimuli[port] = make_signal(v0, [(t, (v0 + k + 1) % 2) for k, t in enumerate(times)])
    return Case(Circuit(inputs, ["o"], gates, edges), stimuli, 15.0, 5000)


_TIE_BINADES = (8.0, 16.0, 32.0, 64.0)
DAG_BUDGET_SEED = 29


def random_dag_case(seed: int) -> Case:
    """A random feed-forward netlist of 1-6 gates, drawn from ``random.Random(seed)``.

    Gates are drawn as in ``random_netlist_case``, but every pin is driven
    from an input port or an earlier gate, so the circuit has no loop.
    Channel kinds and eta strategies cycle with the seed and the channel, and
    inertial windows equal their delay in 30% of the inertial channels.  Each
    of the 1-2 inputs has 50-500 transitions with gaps U[0.05, 1.5]; in every
    third case each input also holds one-ulp pairs of transitions just below
    8, 16, 32 and 64, which a pure delay of more than 0.02 rounds onto one output
    time in about half of the pairs.  Even seeds run 30 s past the last
    stimulus; odd seeds stop at 70% of it, with stimuli and pending outputs
    beyond the horizon.  Seed ``DAG_BUDGET_SEED`` has an event budget of 300
    and exhausts it; every other case has 10**5.  Seed 39 raises
    ``CausalityFault``: a surviving record of its channel c0 has a negative delay.
    """
    rng = random.Random(seed)
    inputs = [f"i{k}" for k in range(rng.randint(1, 2))]
    gates, edges = [], []
    sources = list(inputs)
    for k in range(rng.randint(1, 6)):
        function = rng.choice(_FUNCTIONS)
        gate = Gate(f"g{k}", function, 1 if function in ("NOT", "BUF") else rng.randint(2, 3), rng.randint(0, 1))
        for pin in range(gate.arity):
            n = len(edges)
            spec = _random_spec(rng, (seed + n) % 4, _STRATEGIES[(seed // 4 + n) % 4])
            edges.append(ChannelEdge(f"c{n}", rng.choice(sources), gate.name, pin, spec))
        gates.append(gate)
        sources.append(gate.name)
    out_spec = Pure(0.0) if rng.random() < 0.5 else _random_spec(rng, rng.randrange(4), rng.choice(_STRATEGIES))
    edges.append(ChannelEdge("co", gates[-1].name, "o", None, out_spec))
    stimuli, last = {}, 0.0
    for port in inputs:
        v0 = rng.randint(0, 1)
        times = list(itertools.accumulate(rng.uniform(0.05, 1.5) for _ in range(rng.randint(50, 500))))
        if seed % 3 == 0:
            pairs = [(b - 0.02, math.nextafter(b - 0.02, b)) for b in _TIE_BINADES if b < times[-1]]
            times = sorted({*times, *itertools.chain.from_iterable(pairs)})
        stimuli[port] = make_signal(v0, [(t, (v0 + k + 1) % 2) for k, t in enumerate(times)])
        last = max(last, times[-1])
    horizon = last + 30.0 if seed % 2 == 0 else 0.7 * last
    return Case(Circuit(inputs, ["o"], gates, edges), stimuli, horizon, 300 if seed == DAG_BUDGET_SEED else 10**5)


def horizon_exceeded_case() -> Case:
    """A NOR with an involution self-loop, restarted by input pulses; exhausts 3000 events."""
    df = exp_channel(ExpChannelParams(1.0, 0.5, 0.5))
    c = Circuit(
        ["i"],
        ["o"],
        [Gate("n", "NOR", 2, 0)],
        [
            ChannelEdge("ci", "i", "n", 0, Pure(0.0)),
            ChannelEdge("fb", "n", "n", 1, EtaInvolution(df, EtaBounds(0.05, 0.1), UniformRandom(7))),
            ChannelEdge("co", "n", "o", None, Pure(0.0)),
        ],
    )
    stim = make_signal(0, [(t, (k + 1) % 2) for k, t in enumerate([50.0, 50.5, 300.0, 300.2, 900.0, 901.0])])
    return Case(c, {"i": stim}, 1e4, 3000)


def pure_rounding_tie_case() -> Case:
    """A pure delay that rounds the inputs at t1 < t2 onto one output time."""
    t1, t2 = 3.9043828960234284, 3.904382896023429
    c = Circuit(
        ["i"],
        ["o"],
        [Gate("b", "BUF", 1, 0)],
        [ChannelEdge("c", "i", "b", 0, Pure(0.5306)), ChannelEdge("co", "b", "o", None, Pure(0.0))],
    )
    return Case(c, {"i": make_signal(0, [(1.0, 1), (t1, 0), (t2, 1), (6.0, 0)])}, 20.0, 10**6)


def canceled_before_horizon_case() -> Case:
    """A short pulse just before the horizon whose two outputs land beyond it and cancel."""
    df = exp_channel(ExpChannelParams(1.0, 0.5, 0.5))
    c = Circuit(["i"], ["o"], [], [ChannelEdge("c", "i", "o", None, EtaInvolution(df, EtaBounds(0.05, 0.1)))])
    return Case(c, {"i": make_signal(0, [(9.0, 1), (9.5, 0)])}, 9.6, 10**6)


def bench_chain_case() -> Case:
    """The benchmark's inverter chain (seed 51) fed its first 200 stimulus transitions.

    Built by ``bench/gen.py``, so a change to that generator changes this case's digests.
    """
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    times = gen.chain_stimulus(51, 200)
    stim = make_signal(0, [(t, 1 - n % 2) for n, t in enumerate(times)])
    return Case(parse_circuit(gen.chain_netlist(51)), {"i": stim}, gen.chain_horizon(times), 10**6)


def cases() -> dict[str, Callable[[], Case | None]]:
    """Every corpus case by name; a case builder returns None outside (C)."""
    out: dict[str, Callable[[], Case | None]] = {
        "horizon_exceeded": horizon_exceeded_case,
        "pure_rounding_tie": pure_rounding_tie_case,
        "canceled_before_horizon": canceled_before_horizon_case,
        "bench_chain_200": bench_chain_case,
    }

    def xor(seed):
        case = xor_self_loop_case(seed)
        return None if case is None else Case(case[0], {"i": case[1]}, 15.0, 20000)

    for seed in XOR_SEEDS:
        out[f"xor{seed}"] = lambda seed=seed: xor(seed)
    for seed in NETLIST_SEEDS:
        out[f"net{seed}"] = lambda seed=seed: random_netlist_case(seed)
    for seed in DAG_SEEDS:
        out[f"dag{seed}"] = lambda seed=seed: random_dag_case(seed)
    return out


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _signal(s: Signal) -> list:
    return [s.initial_value, [[tr.time, tr.value] for tr in s.transitions]]


def outcome(case: Case, log: bool = True) -> Execution | EngineError:
    """The execution of one case, or the engine error it raised; the digests read it with the log on."""
    try:
        return execute(case.circuit, case.inputs, case.horizon, events_max=case.events_max, log=log)
    except EngineError as exc:
        return exc


def digest(e: Execution | EngineError) -> dict[str, str | None]:
    """The trace and horizon digests of one case's ``outcome`` with the log on."""
    if isinstance(e, EngineError):
        error = {"error": type(e).__name__, "message": str(e)}
        if isinstance(e, HorizonExceeded):
            error["events"] = repr(e.events)
        return {"trace": _sha(error), "horizon": None}
    trace = {
        "vertex": {k: _signal(s) for k, s in e.vertex_signals.items()},
        "channel": {k: _signal(s) for k, s in e.channel_signals.items()},
        "logs": {
            k: [[r.index, r.time, r.value, r.T, r.delta, r.eta, r.out_time, r.canceled, r.canceled_with, r.guard_hit]
                for r in log]
            for k, log in e.channel_logs.items()
        },
        "eta": e.eta_sequences,
        "event_count": e.event_count,
        "commit_margins": e.commit_margins,
    }
    horizon = {
        "stabilized": e.stabilized,
        "resolved": e.resolved_value,
        "active": sorted(e.active_at_horizon),
    }
    return {"trace": _sha(trace), "horizon": _sha(horizon)}


def run(case: Case) -> dict[str, str | None]:
    """The trace and horizon digests of one case."""
    return digest(outcome(case))


def digests(names=None) -> dict[str, dict[str, str | None]]:
    """The digests of every case within (C), or of the cases in ``names``."""
    out = {}
    for name, build in cases().items():
        if names is not None and name not in names:
            continue
        case = build()
        if case is not None:
            out[name] = run(case)
    return out


def host() -> dict:
    """What the digests depend on besides the code: the Python version and the C library."""
    return {"python": list(sys.version_info[:2]), "libc": list(platform.libc_ver())}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--write"]:
        names = set(argv[1:])
        if names:
            doc = json.loads(DIGESTS.read_text())
            if doc["host"] != host():
                print(f"not written: digests recorded on {doc['host']}, this host is {host()}")
                return 1
            if names - doc["cases"].keys():
                print(f"not written: no recorded cases {sorted(names - doc['cases'].keys())}")
                return 1
            doc["cases"].update(digests(names))
        else:
            DIGESTS.parent.mkdir(exist_ok=True)
            doc = {"host": host(), "cases": digests()}
        DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(names or doc['cases'])} cases to {DIGESTS}")
        return 0
    recorded = json.loads(DIGESTS.read_text())
    if recorded["host"] != host():
        print(f"corpus skipped: digests recorded on {recorded['host']}, this host is {host()}")
        return 0
    got = digests()
    differ = sorted(k for k in set(got) | set(recorded["cases"]) if got.get(k) != recorded["cases"].get(k))
    if differ:
        print(f"corpus differs in {len(differ)} of {len(recorded['cases'])} cases: {differ}")
        return 1
    print(f"corpus compared bit for bit: {len(got)} cases on {host()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
