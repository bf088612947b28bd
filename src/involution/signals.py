"""Binary signals: alternating transitions, pulses, and trace files.

A signal is an initial Boolean value (conceptually a transition at time
minus infinity) followed by a finite, strictly increasing list of
transition times; the values alternate, so the times determine them.
Signals are immutable and safe to share between concurrent workers.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, cycle, repeat
from typing import Any, Callable, Iterable, NamedTuple


class SignalError(ValueError):
    """Invalid signal construction."""


class NonMonotoneTimes(SignalError):
    """Transition times are not strictly increasing."""


class NonAlternatingValues(SignalError):
    """Transition values do not strictly alternate from the initial value."""


class NegativeTime(SignalError):
    """A non-initial transition lies before time zero."""


class NonFiniteTime(SignalError):
    """A transition time is NaN or infinite."""


class NonPositiveLength(SignalError):
    """A pulse must have strictly positive length."""


class Transition(NamedTuple):
    """A single edge: (time, value).  A falling edge is (t, 0), a rising edge (t, 1)."""

    time: float
    value: int


@dataclass(frozen=True)
class Pulse:
    """One 1-interval of a signal.

    ``down_time`` is ``math.inf`` when no further rising edge follows, and
    ``up_time`` is ``math.inf`` when the signal is still high at the
    decomposition horizon.
    """

    start: float
    up_time: float
    down_time: float

    @property
    def duty_cycle(self) -> float:
        """up_time / (up_time + down_time); zero when down_time is unbounded."""
        if math.isinf(self.down_time):
            return 0.0
        return self.up_time / (self.up_time + self.down_time)


_new_tuple = tuple.__new__


@dataclass(frozen=True, slots=True, init=False)
class Signal:
    """An initial value and the strictly increasing times of its transitions.

    Values alternate, so the k-th transition (counting from 1) has value
    ``initial_value ^ (k & 1)``.  ``Signal(initial_value, transitions)``
    validates ``(time, value)`` pairs and raises :class:`NonMonotoneTimes`,
    :class:`NonAlternatingValues`, :class:`NegativeTime` or
    :class:`NonFiniteTime` on the first violated structural rule, and
    :class:`SignalError` on an item that is not a pair with a numeric time.
    """

    initial_value: int
    times: tuple[float, ...]

    def __init__(self, initial_value: int, transitions: Iterable[tuple[float, int]]) -> None:
        if initial_value not in (0, 1):
            raise NonAlternatingValues(f"initial value must be 0 or 1, got {initial_value!r}")
        initial_value = int(initial_value)
        pairs = transitions if isinstance(transitions, (list, tuple)) else list(transitions)
        object.__setattr__(self, "initial_value", initial_value)
        object.__setattr__(self, "times", _checked_times(initial_value, pairs) if pairs else ())

    @property
    def transitions(self) -> tuple[Transition, ...]:
        """The transitions as ``(time, value)`` pairs."""
        iv = self.initial_value
        return tuple(map(_new_tuple, repeat(Transition), zip(self.times, cycle((1 - iv, iv)))))

    def value_at(self, t: float) -> int:
        """Value of the most recent transition at or before ``t`` (right-continuous)."""
        return self.initial_value ^ (bisect_right(self.times, t) & 1)

    @property
    def is_zero(self) -> bool:
        return self.initial_value == 0 and not self.times

    def last_time(self) -> float:
        """Time of the last transition, or -inf for a constant signal."""
        return self.times[-1] if self.times else -math.inf

    def truncated(self, horizon: float) -> "Signal":
        """Drop transitions strictly after ``horizon``."""
        n = bisect_right(self.times, horizon)
        return self if n == len(self.times) else _unchecked(self.initial_value, self.times[:n])


def _unchecked(
    initial_value: int,
    times: tuple[float, ...],
    new=object.__new__,
    set_initial=Signal.initial_value.__set__,
    set_times=Signal.times.__set__,
) -> Signal:
    """A signal from times known to be valid (floats, 0 <= t_1 < t_2 < ... < inf), without checking them.

    The defaults bind the slots' descriptor setters once; like ``object.__setattr__``, they pass the frozen check by.
    """
    s = new(Signal)
    set_initial(s, initial_value)
    set_times(s, times)
    return s


def _checked_times(initial_value: int, pairs) -> tuple[float, ...]:
    """The times of the non-empty ``pairs`` as floats, checked in one pass.

    Values must alternate from the initial value, and 0 <= first time < ... <
    last time < inf (a NaN fails the comparisons).  On any failure the loop
    below runs, only to name the first violation.
    """
    n = len(pairs)
    values = (1 - initial_value, initial_value) * (n // 2) + (1 - initial_value,) * (n % 2)
    try:
        times, given = zip(*pairs, strict=True)
        if given == values and 0.0 <= times[0] and times[-1] < math.inf and all(map(operator.lt, times, times[1:])):
            return tuple(map(float, times))
    except (TypeError, ValueError):
        pass
    prev_time, prev_value = -math.inf, initial_value
    for item in pairs:
        try:
            time, value = item
            in_range = 0.0 <= time < math.inf
        except (TypeError, ValueError):
            raise SignalError(f"transition {item!r} is not a (time, value) pair with a numeric time") from None
        if value not in (0, 1):
            raise NonAlternatingValues(f"transition value must be 0 or 1, got {value!r}")
        if not in_range:
            if math.isfinite(time):
                raise NegativeTime(f"transition at t={time} precedes time 0")
            raise NonFiniteTime(f"transition time {time} is not finite")
        if not time > prev_time:
            raise NonMonotoneTimes(f"transition times not strictly increasing at t={time}")
        if value == prev_value:
            raise NonAlternatingValues(f"transition at t={time} repeats value {value}")
        prev_time, prev_value = time, value
    raise SignalError("transitions fail the one-pass check but break no single rule")


def make_signal(initial_value: int, transitions: Iterable[tuple[float, int]]) -> Signal:
    """Validate and build a signal from ``(time, value)`` pairs (see :class:`Signal`)."""
    return Signal(initial_value, transitions)


def pulse(start: float, length: float) -> Signal:
    """A single pulse: initial 0, rising at ``start``, falling at ``start + length``."""
    if not length > 0:
        raise NonPositiveLength(f"pulse length must be > 0, got {length}")
    return make_signal(0, [(start, 1), (start + length, 0)])


def value_at(s: Signal, t: float) -> int:
    return s.value_at(t)


def decompose_pulses(s: Signal, horizon: float) -> list[Pulse]:
    """Every 1-interval of ``s`` that starts before ``horizon``.

    ``down_time`` runs to the next rising edge (``inf`` if none); a final
    interval still high at the horizon gets ``up_time = inf``.  A leading
    interval inherited from ``initial_value == 1`` has no rising edge and is
    skipped.
    """
    pulses = []
    ts = s.times
    for i in range(s.initial_value, len(ts), 2):  # the rising edges
        rise = ts[i]
        if rise >= horizon:
            break
        if i + 1 == len(ts):
            pulses.append(Pulse(rise, math.inf, math.inf))
            break
        fall = ts[i + 1]
        down = ts[i + 2] - fall if i + 2 < len(ts) else math.inf
        pulses.append(Pulse(rise, fall - rise, down))
    return pulses


def read_text(path, error: type[Exception]) -> str:
    """The UTF-8 text of the file ``path``; bytes that are not UTF-8 raise ``error`` naming it."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from None


def read_csv(path, header: list[str], what: str, error: type[ValueError], parse: Callable[[list[str]], Any]) -> list:
    """``parse(row)`` of each row below ``header`` of the UTF-8 CSV file ``path``, in file order.

    A wrong header, a row that ``parse`` fails with a ``ValueError``, and an
    ``error`` that ``parse`` raises with its own text all raise ``error`` naming the file and line.
    """
    rows = csv.reader(io.StringIO(read_text(path, error), newline=""))
    found = next(rows, None)
    if found != header:
        raise error(f"{path}: line 1: bad {what} header {found!r}")
    out = []
    for row in rows:
        try:
            out.append(parse(row))
        except error as exc:
            raise type(exc)(f"{path}: line {rows.line_num}: {exc}") from None
        except ValueError as exc:
            raise error(f"{path}: line {rows.line_num}: bad {what} row {row!r} ({exc})") from exc
    return out


def write_csv(path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write ``header`` and ``rows`` to the CSV file ``path``, each line ended by CRLF."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# Trace file format: header "signal,time,value", rows sorted by (signal, time),
# the initial value encoded as a row with time field "-inf".

_TRACE_HEADER = "signal,time,value\r\n"


def _trace_rows(name: str, initial_value: int, times: Iterable[str]) -> str:
    """The rows of one signal: its initial-value row, then one row per rendered time, values alternating."""
    head = io.StringIO()
    csv.writer(head).writerow([name, "-inf", initial_value])
    row = head.getvalue()
    prefix = row[: -len(f"-inf,{initial_value}\r\n")]  # the name as csv quotes it, and the comma
    values = cycle((f",{1 - initial_value}\r\n", f",{initial_value}\r\n"))
    return row + "".join(chain.from_iterable(zip(repeat(prefix), times, values)))


def write_trace(path, signals: dict[str, Signal]) -> None:
    """Write ``signals`` to the trace file ``path``, sorted by name; each time is written as its ``repr``."""
    with open(path, "w", newline="") as fh:
        fh.write(_TRACE_HEADER)
        for name in sorted(signals):
            s = signals[name]
            fh.write(_trace_rows(name, s.initial_value, map(repr, s.times)))


def write_traces(signals: dict[str, Signal], publish: Callable[[str, Callable[[Any], None]], None]) -> None:
    """Write every signal to a trace file of its own: ``publish(name, writer)``
    gets a ``writer(path)`` that writes what ``write_trace(path, {name: signal})`` does.

    The signals are grouped by their times, and each group's times are
    rendered once: a NOT gate's output shares them with the channel at its
    pin, and an output port with its driving channel.  Only one group's
    rendering is kept at a time.
    """
    groups: dict[tuple[float, ...], list[str]] = {}
    for name, s in signals.items():
        groups.setdefault(s.times, []).append(name)
    for times, names in groups.items():
        rendered = list(map(repr, times))
        for name in names:

            def writer(path, name=name, rendered=rendered):
                with open(path, "w", newline="") as fh:
                    fh.write(_TRACE_HEADER)
                    fh.write(_trace_rows(name, signals[name].initial_value, rendered))

            publish(name, writer)


def read_trace(path) -> dict[str, Signal]:
    raw: dict[str, list[tuple[float, int]]] = {}
    initials: dict[str, int] = {}

    def parse(row: list[str]) -> None:
        name, time_s, value_s = row
        value = int(value_s)  # before the time: a row with both fields bad names the value
        if time_s.strip() != "-inf":
            raw.setdefault(name, []).append((float(time_s), value))
        elif name in initials:
            raise SignalError(f"repeated -inf initial-value row of signal {name!r}")
        else:
            initials[name] = value
            raw.setdefault(name, [])

    read_csv(path, ["signal", "time", "value"], "trace", SignalError, parse)
    out = {}
    for name, transitions in raw.items():
        if name not in initials:
            raise SignalError(f"{path}: signal {name!r} has no -inf initial-value row")
        try:
            out[name] = make_signal(initials[name], transitions)
        except SignalError as exc:
            raise type(exc)(f"{path}: signal {name!r}: {exc}") from None
    return out
