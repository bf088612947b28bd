import csv
import dataclasses
import math
import pickle
import re
from itertools import cycle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

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
    _unchecked,
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


@pytest.mark.parametrize("item", [(1.0, 1, 2), (1.0,), 1.0, ("1.0", 1), (None, 1)])
def test_an_item_that_is_not_a_numeric_pair_is_a_signal_error_naming_it(item):
    with pytest.raises(SignalError, match=f"^transition {re.escape(repr(item))} is not a"):
        Signal(0, [item])


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
    assert s != (0, s.transitions) and s.__eq__(object()) is NotImplemented
    with pytest.raises(NonAlternatingValues):
        Signal(0, [(1.0, 1), (2.0, 1)])


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


@pytest.mark.parametrize(
    "rows, err, message",
    [
        ("i,-inf,0\ni,1.0,1\ni,-inf,0\n", SignalError, "line 4: repeated -inf initial-value row of signal 'i'"),
        ("i,-inf,1\ni,1.0,1\n", NonAlternatingValues, "signal 'i': transition at t=1.0 repeats value 1"),
        ("i,-inf,2\n", NonAlternatingValues, "signal 'i': initial value must be 0 or 1, got 2"),
        ("i,-inf,0\ni,2.0,1\ni,1.0,0\n", NonMonotoneTimes, "signal 'i': transition times not strictly increasing at t=1.0"),
        ("i,-inf,0\ni,-1.0,1\n", NegativeTime, "signal 'i': transition at t=-1.0 precedes time 0"),
        ("i,-inf,0\ni,nan,1\n", NonFiniteTime, "signal 'i': transition time nan is not finite"),
    ],
)
def test_trace_rejection_names_the_file_and_signal(tmp_path, rows, err, message):
    path = tmp_path / "trace.csv"
    path.write_text(f"signal,time,value\n{rows}")
    with pytest.raises(err, match=f"^{re.escape(f'{path}: {message}')}$"):
        read_trace(path)


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
        oracles.reference_make_signal(0, pairs)
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


@pytest.mark.parametrize("initial, times", [(0, ()), (1, ()), (0, (0.0, 1.5)), (1, (0.25, 1.0, 7.5))])
def test_an_unchecked_signal_is_the_checked_one(initial, times):
    s = _unchecked(initial, times)
    want = Signal(initial, list(zip(times, cycle((1 - initial, initial)))))
    assert type(s) is Signal and s == want and hash(s) == hash(want) and repr(s) == repr(want)
    for name in ("initial_value", "times"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, getattr(s, name))
    assert s == want


def test_transition_keeps_the_dataclass_contract():
    a, b = Transition(1.5, 1), Transition(1.5, 1)
    assert a == b and hash(a) == hash(b) and {a: 0}[b] == 0
    assert a != Transition(1.5, 0) and a == (1.5, 1) and (1.5, 1) == a
    assert repr(a) == "Transition(time=1.5, value=1)"
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        a.time = 2.0


def test_transitions_equal_the_pairs_a_signal_is_built_from():
    assert Signal(0, [(1.0, 1), (2.0, 0)]).transitions == ((1.0, 1), (2.0, 0))


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


_times = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2, 50),
    st.sampled_from([0.0, -0.0, 1.0, 2.0]),
)
_values = st.one_of(st.sampled_from([0, 1, True, False, 1.0]), st.integers(-1, 2))


@st.composite
def pair_lists(draw):
    """Alternating pairs on increasing times, then sometimes one pair replaced by arbitrary values."""
    initial = draw(st.sampled_from([0, 1]))
    times = sorted(draw(st.lists(st.floats(0, 100), max_size=30, unique=True)))
    pairs = [(t, (initial + k + 1) % 2) for k, t in enumerate(times)]
    if pairs and draw(st.booleans()):
        k = draw(st.integers(0, len(pairs) - 1))
        pairs[k] = (draw(_times), draw(_values))
    return initial, pairs


@given(pair_lists(), st.lists(st.floats(-10, 110), max_size=10))
@settings(max_examples=500, derandomize=True, deadline=None)
def test_signal_equals_the_per_pair_references(tmp_path_factory, case, probes):
    initial, pairs = case
    try:
        want = oracles.reference_make_signal(initial, pairs)
    except SignalError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            Signal(initial, pairs)
        return
    s = Signal(initial, pairs)
    assert s.transitions == tuple(Transition(t, v) for t, v in want)
    assert all(type(tr.time) is float and type(tr.value) is int for tr in s.transitions)
    probes = probes + [t for t, _ in want]  # exactly on an edge, too
    expected = [oracles.reference_value_at(initial, want, t) for t in probes]
    assert [s.value_at(t) for t in probes] == expected
    path = tmp_path_factory.mktemp("trace") / "s.csv"
    write_trace(path, {"s": s})
    assert read_trace(path) == {"s": s}
