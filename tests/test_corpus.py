import dataclasses
import json
import random

import pytest

import corpus
import oracles
from involution import circuit
from involution.channel import EtaBounds, EtaInvolution, UniformRandom, WorstCaseShrink, Zero
from involution.circuit import or_loop_circuit, verify_execution
from involution.delay_model import ExpChannelParams, exp_channel
from involution.signals import Signal, make_signal, pulse


def test_every_case_keeps_its_recorded_digests(logged_runs):
    recorded = json.loads(corpus.DIGESTS.read_text())
    if recorded["host"] != corpus.host():
        pytest.skip(f"digests recorded on {recorded['host']}, this host is {corpus.host()}")
    got = {name: corpus.digest(e) for name, e in logged_runs.items()}
    assert sorted(got) == sorted(recorded["cases"])
    differ = sorted(name for name, d in got.items() if d != recorded["cases"][name])
    assert not differ, differ


def test_horizon_exceeded_case_carries_its_last_100_events():
    case = corpus.horizon_exceeded_case()
    with pytest.raises(corpus.HorizonExceeded, match="event budget 3000 exhausted") as exc_info:
        corpus.execute(case.circuit, case.inputs, case.horizon, events_max=case.events_max)
    assert len(exc_info.value.events) == 100


def _outcomes(log):
    """Every corpus case within (C) by name: its ``corpus.outcome``."""
    built = ((name, build()) for name, build in corpus.cases().items())
    return {name: corpus.outcome(case, log) for name, case in built if case is not None}


@pytest.fixture(scope="module")
def runs():
    """Every corpus case within (C) by name: its execution with the log off, or the engine error it raised."""
    return _outcomes(log=False)


@pytest.fixture(scope="module")
def logged_runs():
    """``runs`` with the full per-transition log on, what the corpus digests read."""
    return _outcomes(log=True)


@pytest.fixture(scope="module")
def completed(runs):
    """The execution of every corpus case that completes, by name."""
    return {name: e for name, e in runs.items() if not isinstance(e, corpus.EngineError)}


def test_only_the_known_cases_raise(runs):
    raised = {name: type(e).__name__ for name, e in runs.items() if isinstance(e, corpus.EngineError)}
    assert raised == {
        "horizon_exceeded": "HorizonExceeded",
        "xor2176": "HorizonExceeded",
        "xor352": "CausalityFault",
        "xor1216": "CausalityFault",
        "dag29": "HorizonExceeded",
        "dag39": "CausalityFault",
    }


def test_the_log_changes_no_output_and_no_error(runs, logged_runs):
    assert runs.keys() == logged_runs.keys()
    trails = 0
    for name, e in runs.items():
        logged = logged_runs[name]
        assert type(logged) is type(e), name
        if isinstance(e, corpus.EngineError):
            assert str(logged) == str(e), name
            if isinstance(e, corpus.HorizonExceeded):
                assert repr(logged.events) == repr(e.events), name
                trails += "Record(" in repr(e.events)
            continue
        assert e.channel_logs == {} and logged.channel_logs.keys() == e.channel_signals.keys(), name
        for field in (
            "vertex_signals",
            "channel_signals",
            "eta_sequences",
            "commit_margins",
            "event_count",
            "stabilized",
            "resolved_value",
            "active_at_horizon",
        ):
            assert getattr(logged, field) == getattr(e, field), (name, field)
    assert trails == 3  # every HorizonExceeded case prints records in its trail


def _loop_outcome(case, log):
    try:
        return circuit._run_events(case.circuit, case.inputs, case.horizon, case.events_max, log)
    except corpus.EngineError as exc:
        return exc


def test_the_composition_equals_the_event_loop_on_every_acyclic_case(runs, logged_runs):
    # execute composes the acyclic cases and falls back to the event loop
    # where it may not give the loop's execution; either way it must give it.
    # A circuit with a loop runs the event loop alone.
    acyclic, composed = set(), set()
    for name, build in corpus.cases().items():
        case = build()
        if case is None:
            continue
        if name.startswith(("xor", "dag")):  # self-loops, and none
            assert (case.circuit._order is None) == name.startswith("xor"), name
        if case.circuit._order is None or case.circuit._fault is not None:  # the fault is raised before either runs
            continue
        acyclic.add(name)
        for got, log in ((runs[name], False), (logged_runs[name], True)):
            want = _loop_outcome(case, log)
            assert type(got) is type(want), (name, log)
            if isinstance(want, corpus.EngineError):
                assert str(got) == str(want), (name, log)
                assert repr(getattr(got, "events", None)) == repr(getattr(want, "events", None)), (name, log)
            else:  # the fixtures built their own circuits
                assert got == dataclasses.replace(want, circuit=got.circuit), (name, log)
        if circuit._compose(case.circuit, case.inputs, case.horizon, case.events_max, False) is not None:
            composed.add(name)
    assert len(acyclic) == 110
    # dag29 overruns its budget and dag39 faults; every other acyclic case is composed
    assert acyclic - composed == {"dag29", "dag39"}


def test_every_completing_case_verifies(completed):
    failing = sorted(name for name, e in completed.items() if not verify_execution(e).ok)
    assert not failing, failing


def test_a_stabilized_output_keeps_its_signal_in_a_longer_run(completed):
    # nothing in a stabilized port's fan-in cone is due after the horizon, so running on cannot switch it
    checked = 0
    for name, build in corpus.cases().items():
        e = completed.get(name)
        if e is None or not any(e.stabilized.values()):
            continue
        case = build()
        later = corpus.outcome(case._replace(horizon=case.horizon + 200.0), log=False)
        for port in (port for port, settled in e.stabilized.items() if settled):
            assert later.vertex_signals[port] == e.vertex_signals[port], (name, port)
            checked += 1
    assert checked == 280


def test_every_engine_signal_is_a_valid_signal(completed):
    # the engine builds its signals from their times without the constructor's checks
    for name, e in completed.items():
        for s in [*e.vertex_signals.values(), *e.channel_signals.values()]:
            assert Signal(s.initial_value, s.transitions) == s, name


def test_runs_on_one_circuit_equal_runs_on_fresh_circuits():
    # A circuit keeps its channels' uniform eta draws and its causal fault for
    # all its runs; each run must still see a fresh channel.
    df = exp_channel(ExpChannelParams(1.0, 0.5, 0.5))
    ht = ExpChannelParams(4.0, 0.2, 0.75)
    strategies = [Zero(), WorstCaseShrink(), *map(UniformRandom, range(3))]
    specs = [EtaInvolution(df, EtaBounds(0.05, 0.1), s) for s in strategies]
    specs.append(EtaInvolution(df, EtaBounds(0.9, 0.0)))  # eta_minus is not below delta(0): every run faults
    stimuli = [make_signal(0, []), *(pulse(0.0, w) for w in (0.3, 0.7, 0.9, 1.2, 1.6))]
    for n, spec in enumerate(specs):
        shared = or_loop_circuit(spec, ht)
        order = list(range(len(stimuli))) * 2
        random.Random(n).shuffle(order)
        for k in order:
            got = corpus.run(corpus.Case(shared, {"i": stimuli[k]}, 30.0, 10**5))
            want = corpus.run(corpus.Case(or_loop_circuit(spec, ht), {"i": stimuli[k]}, 30.0, 10**5))
            assert got == want, (spec.strategy, k)


def _with_signal(e, name, sig):
    """``e`` with the channel or vertex signal ``name`` replaced by ``sig``."""
    if name in e.channel_signals:
        return dataclasses.replace(e, channel_signals={**e.channel_signals, name: sig})
    return dataclasses.replace(e, vertex_signals={**e.vertex_signals, name: sig})


def _signals(e):
    return {**e.vertex_signals, **e.channel_signals}


def _drop_last_channel_transition(e, rng):
    names = sorted(k for k, s in e.channel_signals.items() if s.transitions)
    if not names:
        return None
    name = rng.choice(names)
    sig = e.channel_signals[name]
    return _with_signal(e, name, Signal(sig.initial_value, sig.transitions[:-1]))


def _shift_one_time(e, rng):
    """One transition of one signal moved by +-1e-3, where the times stay increasing and >= 0."""
    moves = []
    for name, s in sorted(_signals(e).items()):
        times = s.times
        for j, t in enumerate(times):
            for dt in (-1e-3, 1e-3):
                lo = times[j - 1] if j else -1e-3
                hi = times[j + 1] if j + 1 < len(times) else float("inf")
                if lo < t + dt < hi and t + dt >= 0.0:
                    moves.append((name, j, dt))
    if not moves:
        return None
    name, j, dt = rng.choice(moves)
    s = _signals(e)[name]
    pairs = [(t + (dt if k == j else 0.0), v) for k, (t, v) in enumerate(s.transitions)]
    return _with_signal(e, name, make_signal(s.initial_value, pairs))


def _flip_gate_segment(e, rng):
    """One gate output with the segment between two adjacent transitions (or after the last) flipped."""
    names = sorted(g for g in e.circuit.gates if e.vertex_signals[g].transitions)
    if not names:
        return None
    name = rng.choice(names)
    s = e.vertex_signals[name]
    k = rng.randrange(len(s.transitions))
    kept = s.transitions[:k] + s.transitions[k + 2:]
    return _with_signal(e, name, make_signal(s.initial_value, kept))


def _transition_at_horizon(e, rng):
    names = sorted(k for k, s in _signals(e).items() if s.last_time() < e.horizon)
    if not names:
        return None
    name = rng.choice(names)
    s = _signals(e)[name]
    last = s.transitions[-1].value if s.transitions else s.initial_value
    return _with_signal(e, name, make_signal(s.initial_value, [*s.transitions, (e.horizon, 1 - last)]))


def _retimed(s, times):
    """A signal with the initial value of ``s`` and the transition times ``times``."""
    return make_signal(s.initial_value, [(t, (s.initial_value + k + 1) % 2) for k, t in enumerate(times)])


def _pulse_between_pin_times(e, rng):
    """One gate output with a pulse inserted strictly between two adjacent switch times of its pins."""
    spots = []
    driver = {(edge.dst, edge.dst_pin): c for c, edge in e.circuit.channels.items()}
    for name, gate in sorted(e.circuit.gates.items()):
        pins = (e.channel_signals[driver[(name, pin)]] for pin in range(gate.arity))
        times = sorted({t for s in pins for t in s.truncated(e.horizon).times})
        for a, b in zip(times, times[1:]):
            lo, hi = a + (b - a) / 3, a + 2 * (b - a) / 3
            if a < lo < hi < b:
                spots.append((name, lo, hi))
    if not spots:
        return None
    name, lo, hi = rng.choice(spots)
    s = e.vertex_signals[name]
    return _with_signal(e, name, _retimed(s, sorted((*s.times, lo, hi))))


def _toggle_gate_output_at_zero(e, rng):
    """One gate output with its transition at t = 0 removed, or with one added there."""
    names = sorted(e.circuit.gates)
    if not names:
        return None
    name = rng.choice(names)
    s = e.vertex_signals[name]
    return _with_signal(e, name, _retimed(s, s.times[1:] if s.times[:1] == (0.0,) else (0.0, *s.times)))


CORRUPTIONS = [
    _drop_last_channel_transition,
    _shift_one_time,
    _flip_gate_segment,
    _transition_at_horizon,
    _pulse_between_pin_times,
    _toggle_gate_output_at_zero,
]


def test_verify_execution_equals_the_per_time_reference_on_the_corpus(completed):
    assert len(completed) > 300
    for name, e in completed.items():
        assert verify_execution(e) == oracles.verify_execution_per_time(e), name


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
def test_verify_execution_equals_the_per_time_reference_on_corruptions(completed, corrupt):
    flagged = 0
    for n, (name, e) in enumerate(completed.items()):
        bad = corrupt(e, random.Random(n))
        if bad is None:
            continue
        report = verify_execution(bad)
        assert report == oracles.verify_execution_per_time(bad), name
        flagged += not report.ok
    assert flagged > 100
