import csv
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involution.signals import (
    NegativeTime,
    NonAlternatingValues,
    NonFiniteTime,
    NonMonotoneTimes,
    NonPositiveLength,
    Pulse,
    decompose_pulses,
    make_signal,
    pulse,
    Signal,
    SignalError,
    Transition,
    read_trace,
    value_at,
    write_trace,
)


def test_zero_signal():
    s = make_signal(0, [])
    assert s.is_zero
    assert s.transitions == ()


def test_single_pulse_signal():
    s = make_signal(0, [(0, 1), (0.1, 0)])
    assert [(t.time, t.value) for t in s.transitions] == [(0.0, 1), (0.1, 0)]


@pytest.mark.parametrize(
    "initial, transitions, err",
    [
        (0, [(1, 1), (0.5, 0)], NonMonotoneTimes),
        (0, [(0, 1), (0, 0)], NonMonotoneTimes),
        (0, [(0, 0)], NonAlternatingValues),
        (0, [(0, 1), (1, 1)], NonAlternatingValues),
        (1, [(0, 1)], NonAlternatingValues),
        (0, [(-1, 1)], NegativeTime),
        (0, [(math.inf, 1)], NonFiniteTime),
        (0, [(0, 1), (math.nan, 0)], NonFiniteTime),
        (0, [(-math.inf, 1)], NonFiniteTime),
    ],
)
def test_make_signal_rejects(initial, transitions, err):
    with pytest.raises(err):
        make_signal(initial, transitions)


def test_pulse_basic():
    s = pulse(0, 0.1)
    assert [(t.time, t.value) for t in s.transitions] == [(0.0, 1), (0.1, 0)]
    s = pulse(2, 1)
    assert [(t.time, t.value) for t in s.transitions] == [(2.0, 1), (3.0, 0)]


def test_pulse_degenerate():
    with pytest.raises(NonPositiveLength):
        pulse(0, 0)
    with pytest.raises(NonPositiveLength):
        pulse(0, -1)


def test_value_at():
    assert value_at(make_signal(0, []), 5) == 0
    p = pulse(0, 0.1)
    assert value_at(p, 0.05) == 1
    # right-continuous: the transition at exactly t takes effect at t
    assert value_at(p, 0.1) == 0
    assert value_at(p, 0.0) == 1
    assert value_at(p, -1.0) == 0


def test_decompose_single_pulse():
    assert decompose_pulses(pulse(0, 0.1), 10) == [Pulse(0.0, 0.1, math.inf)]


def test_decompose_two_pulses():
    s = make_signal(0, [(0, 1), (1, 0), (3, 1), (4, 0)])
    assert decompose_pulses(s, 10) == [Pulse(0.0, 1.0, 2.0), Pulse(3.0, 1.0, math.inf)]


def test_decompose_zero_signal():
    assert decompose_pulses(make_signal(0, []), 10) == []


def test_decompose_open_pulse_at_horizon():
    s = make_signal(0, [(1, 1)])
    (p,) = decompose_pulses(s, 10)
    assert p.start == 1.0 and math.isinf(p.up_time)


def test_decompose_respects_horizon():
    s = make_signal(0, [(0, 1), (1, 0), (3, 1), (4, 0)])
    assert decompose_pulses(s, 2.0) == [Pulse(0.0, 1.0, 2.0)]


def test_duty_cycle():
    assert Pulse(0, 1, 3).duty_cycle == 0.25
    assert Pulse(0, 1, math.inf).duty_cycle == 0.0


@st.composite
def signals(draw, max_transitions=12):
    n = draw(st.integers(0, max_transitions))
    times = sorted(
        draw(
            st.lists(
                st.floats(0, 100, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    initial = draw(st.sampled_from([0, 1]))
    values = [(initial + 1 + i) % 2 for i in range(n)]
    return make_signal(initial, list(zip(times, values)))


@given(signals(), st.floats(-10, 110, allow_nan=False))
@settings(max_examples=200)
def test_value_at_matches_last_transition_rule(s, t):
    expected = s.initial_value
    for tr in s.transitions:
        if tr.time <= t:
            expected = tr.value
    assert s.value_at(t) == expected


@given(signals(), st.lists(st.floats(-10, 110, allow_nan=False), max_size=20))
@settings(max_examples=200)
def test_values_at_equals_value_at_of_each_time(s, times):
    times += [tr.time for tr in s.transitions]  # exactly on an edge, too
    assert s.values_at(times) == [s.value_at(t) for t in times]
    assert s.values_at(sorted(times)) == [s.value_at(t) for t in sorted(times)]


def test_truncated_keeps_a_transition_at_the_horizon():
    s = make_signal(0, [(1.0, 1), (2.0, 0), (3.0, 1)])
    assert s.truncated(2.0) == make_signal(0, [(1.0, 1), (2.0, 0)])
    assert s.truncated(math.nextafter(2.0, 0.0)) == make_signal(0, [(1.0, 1)])
    assert s.truncated(0.5) == make_signal(0, [])
    assert s.truncated(3.0) is s and s.truncated(math.inf) is s
    empty = make_signal(1, [])
    assert empty.truncated(0.0) is empty


def test_signal_equality_reads_initial_value_times_and_values():
    s = make_signal(0, [(1.0, 1), (2.0, 0)])
    assert s == make_signal(0, [(1.0, 1), (2.0, 0)]) and hash(s) == hash(make_signal(0, [(1.0, 1), (2.0, 0)]))
    assert s != make_signal(1, [(1.0, 0), (2.0, 1)])
    assert s != make_signal(0, [(1.0, 1), (2.5, 0)])
    assert s != make_signal(0, [(1.0, 1)])
    # a signal built without validation may repeat a value; equality still reads it
    assert s != Signal(0, (Transition(1.0, 1), Transition(2.0, 1)))
    assert s != (0, s.transitions) and s.__eq__(object()) is NotImplemented


def test_value_at_piecewise_constant_on_random_samples():
    import numpy as np

    rng = np.random.default_rng(7)
    times = np.sort(rng.uniform(0, 50, 25))
    s = make_signal(0, [(float(t), (i + 1) % 2) for i, t in enumerate(times)])
    for t in rng.uniform(-5, 60, 1000):
        expected = 0
        for tr in s.transitions:
            if tr.time <= t:
                expected = tr.value
        assert s.value_at(float(t)) == expected


def test_monotonicity_rejected_for_every_bad_permutation():
    import itertools

    base = [(0.0, 1), (1.0, 0), (2.0, 1)]
    for perm in itertools.permutations(base):
        times = [t for t, _ in perm]
        if times == sorted(times):
            continue
        with pytest.raises((NonMonotoneTimes, NonAlternatingValues)):
            make_signal(0, list(perm))


def test_trace_roundtrip(tmp_path):
    sigs = {
        "a": pulse(0, 0.25),
        "b": make_signal(1, [(0.5, 0), (1.5, 1)]),
        "z": make_signal(0, []),
    }
    path = tmp_path / "trace.csv"
    write_trace(path, sigs)
    back = read_trace(path)
    assert set(back) == set(sigs)
    for name in sigs:
        assert back[name].initial_value == sigs[name].initial_value
        assert back[name].transitions == sigs[name].transitions


def test_trace_header_is_stable(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, {"s": pulse(0, 1)})
    first, second = path.read_text().splitlines()[:2]
    assert first == "signal,time,value"
    assert second == "s,-inf,0"


@pytest.mark.parametrize("row", ["i,abc,1", "i,1.0", "i,1.0,x", "i,1.0,1,2"])
def test_malformed_trace_row_names_the_line(tmp_path, row):
    path = tmp_path / "trace.csv"
    path.write_text(f"signal,time,value\ni,-inf,0\n{row}\n")
    with pytest.raises(SignalError, match="line 3:"):
        read_trace(path)


def _reference_make_signal(initial, transitions):
    """The one-transition-at-a-time rules, as an oracle for the bulk check."""
    prev_t, prev_v = -math.inf, initial
    for t, v in transitions:
        if v not in (0, 1):
            raise NonAlternatingValues(f"transition value must be 0 or 1, got {v!r}")
        if not 0.0 <= t < math.inf:
            if math.isfinite(t):
                raise NegativeTime(f"transition at t={t} precedes time 0")
            raise NonFiniteTime(f"transition time {t} is not finite")
        if not t > prev_t:
            raise NonMonotoneTimes(f"transition times not strictly increasing at t={t}")
        if v == prev_v:
            raise NonAlternatingValues(f"transition at t={t} repeats value {v}")
        prev_t, prev_v = t, v


@pytest.mark.parametrize("k", [0, 1, 7, 18, 39])
@pytest.mark.parametrize(
    "bad",
    [(math.nan, None), (math.inf, None), (-math.inf, None), (-1.0, None), ("same", None), ("back", None), (None, 2),
     (None, "repeat"), (None, True)],
)
def test_bulk_check_raises_the_first_violation_of_the_loop(k, bad):
    pairs = [(0.5 * (n + 1), (n + 1) % 2) for n in range(40)]
    t, v = bad
    if t == "same":
        t = pairs[k - 1][0] if k else 0.0
        t = t if k else -0.0
    elif t == "back":
        t = pairs[k - 1][0] - 0.1 if k else 0.0
    if v == "repeat":
        v = 1 - pairs[k][1]
    pairs[k] = (pairs[k][0] if t is None else t, pairs[k][1] if v is None else v)
    pairs[k + 1:k + 1] = [(math.nan, 7)]  # a second violation after the first
    with pytest.raises(SignalError) as expected:
        _reference_make_signal(0, pairs)
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        make_signal(0, pairs)


def test_bulk_build_converts_like_the_loop():
    times = np.cumsum(np.full(30, 0.25))
    s = make_signal(1, [(t, bool(n % 2)) for n, t in enumerate(times)])
    assert all(type(tr.time) is float and type(tr.value) is int for tr in s.transitions)
    assert s == make_signal(1, [(float(t), n % 2) for n, t in enumerate(times)])
    assert s == make_signal(1, ((float(t), n % 2) for n, t in enumerate(times)))
    assert type(make_signal(True, [(1.0, 0)]).initial_value) is int
    from_float = make_signal(1.0, [(float(t), n % 2) for n, t in enumerate(times)])
    assert {type(tr.value) for tr in from_float.transitions} == {int}


def test_transition_keeps_the_dataclass_contract():
    a, b = Transition(1.5, 1), Transition(1.5, 1)
    assert a == b and hash(a) == hash(b) and {a: 0}[b] == 0
    assert a != Transition(1.5, 0) and a != (1.5, 1) and (1.5, 1) != a
    assert repr(a) == "Transition(time=1.5, value=1)"
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        a.time = 2.0
    with pytest.raises(TypeError):
        a < b


@pytest.mark.parametrize("name", ["c1", "a,b", 'q"x', "", "two\nlines", "car\rriage", " pad ", "semi;colon"])
def test_write_trace_matches_a_row_by_row_csv_writer(tmp_path, name):
    s = make_signal(1, [(0.1 * n + 1e-9, n % 2) for n in range(20)])
    write_trace(tmp_path / "fast.csv", {name: s, "other": s})
    with open(tmp_path / "rows.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["signal", "time", "value"])
        for n in sorted([name, "other"]):
            w.writerow([n, "-inf", s.initial_value])
            for tr in s.transitions:
                w.writerow([n, repr(tr.time), tr.value])
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
