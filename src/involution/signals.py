"""Binary signals: alternating transition lists, pulses, and trace files.

A signal is an initial Boolean value (conceptually a transition at time
minus infinity) followed by a finite, strictly increasing, strictly
alternating list of transitions.  Signals are immutable and safe to share
between concurrent workers.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, NamedTuple


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


class _Edge(NamedTuple):
    time: float
    value: int


class Transition(_Edge):
    """A single edge: (time, value).  A falling edge is (t, 0), a rising edge (t, 1).

    An immutable pair, built in bulk at C speed.  It equals only a Transition
    of equal time and value, hashes as that pair, and has no order.
    """

    __slots__ = ()

    def __eq__(self, other):
        if isinstance(other, tuple):  # a plain pair is no Transition
            return type(other) is Transition and tuple.__eq__(self, other)
        return NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def _unordered(self, other):
        return NotImplemented

    __hash__ = tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = _unordered


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

    @property
    def period(self) -> float:
        return self.up_time + self.down_time


_time_of = operator.attrgetter("time")
_value_of = operator.itemgetter(1)
_new_tuple = tuple.__new__


@dataclass(frozen=True)
class Signal:
    initial_value: int
    transitions: tuple[Transition, ...]
    _times: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_times", tuple(map(_time_of, self.transitions)))

    def __eq__(self, other):
        """Equal initial values, transition times and transition values."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.initial_value == other.initial_value
            and self._times == other._times
            and list(map(_value_of, self.transitions)) == list(map(_value_of, other.transitions))
        )

    @property
    def times(self) -> tuple[float, ...]:
        """The transition times, in order."""
        return self._times

    def value_at(self, t: float) -> int:
        """Value of the most recent transition at or before ``t`` (right-continuous)."""
        i = bisect_right(self._times, t)
        if i == 0:
            return self.initial_value
        return self.transitions[i - 1].value

    def values_at(self, times: Iterable[float]) -> list[int]:
        """``value_at`` of every time in ``times``, in one pass."""
        values = (self.initial_value, *map(_value_of, self.transitions))
        return list(map(values.__getitem__, map(bisect_right, repeat(self._times), times)))

    @property
    def is_zero(self) -> bool:
        return self.initial_value == 0 and not self.transitions

    def last_time(self) -> float:
        """Time of the last transition, or -inf for a constant signal."""
        return self._times[-1] if self._times else -math.inf

    def shifted(self, dt: float) -> "Signal":
        return Signal(self.initial_value, tuple(Transition(t.time + dt, t.value) for t in self.transitions))

    def truncated(self, horizon: float) -> "Signal":
        """Drop transitions strictly after ``horizon``."""
        n = bisect_right(self._times, horizon)
        return self if n == len(self._times) else Signal(self.initial_value, self.transitions[:n])


_BULK_FROM = 12  # below this many transitions the loop is faster


def make_signal(initial_value: int, transitions: Iterable[tuple[float, int]]) -> Signal:
    """Validate and build a signal from ``(time, value)`` pairs.

    Raises :class:`NonMonotoneTimes`, :class:`NonAlternatingValues`,
    :class:`NegativeTime` or :class:`NonFiniteTime` on the first violated
    structural rule.
    """
    if initial_value not in (0, 1):
        raise NonAlternatingValues(f"initial value must be 0 or 1, got {initial_value!r}")
    initial_value = int(initial_value)
    pairs = transitions if isinstance(transitions, list) else list(transitions)
    n = len(pairs)
    if n >= _BULK_FROM:
        # The whole list at once: values alternate from the initial value, and
        # 0 <= first time < ... < last time < inf (a NaN fails the comparisons).
        # Any failure goes to the loop below, which raises on the first violation.
        values = (1 - initial_value, initial_value) * (n // 2) + (1 - initial_value,) * (n % 2)
        try:
            times, given = zip(*pairs, strict=True)
            valid = (
                given == values
                and 0.0 <= times[0]
                and times[-1] < math.inf
                and all(map(operator.lt, times, times[1:]))
            )
        except Exception:
            valid = False
        if valid:
            edges = map(_new_tuple, repeat(Transition), zip(map(float, times), values))
            return Signal(initial_value, tuple(edges))
    inf = math.inf
    prev_time = -inf
    prev_value = initial_value
    out = []
    for time, value in pairs:
        if value not in (0, 1):
            raise NonAlternatingValues(f"transition value must be 0 or 1, got {value!r}")
        if not 0.0 <= time < inf:
            if math.isfinite(time):
                raise NegativeTime(f"transition at t={time} precedes time 0")
            raise NonFiniteTime(f"transition time {time} is not finite")
        if not time > prev_time:
            raise NonMonotoneTimes(f"transition times not strictly increasing at t={time}")
        if value == prev_value:
            raise NonAlternatingValues(f"transition at t={time} repeats value {value}")
        out.append(_new_tuple(Transition, (float(time), int(value))))
        prev_time, prev_value = time, value
    return Signal(initial_value, tuple(out))


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
    trs = s.transitions
    for i, tr in enumerate(trs):
        if tr.value != 1 or tr.time >= horizon:
            continue
        fall = trs[i + 1].time if i + 1 < len(trs) else None
        if fall is None:
            pulses.append(Pulse(tr.time, math.inf, math.inf))
            continue
        next_rise = trs[i + 2].time if i + 2 < len(trs) else None
        down = (next_rise - fall) if next_rise is not None else math.inf
        pulses.append(Pulse(tr.time, fall - tr.time, down))
    return pulses


def read_text(path, error: type[Exception]) -> str:
    """The UTF-8 text of the file ``path``; bytes that are not UTF-8 raise ``error`` naming it."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from None


# Trace file format: header "signal,time,value", rows sorted by (signal, time),
# the initial value encoded as a row with time field "-inf".

def write_trace(path, signals: dict[str, Signal]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("signal,time,value\r\n")
        for name in sorted(signals):
            s = signals[name]
            head = io.StringIO()
            csv.writer(head).writerow([name, "-inf", s.initial_value])
            row = head.getvalue()
            prefix = row[: -len(f",-inf,{s.initial_value}\r\n")]  # the name as csv quotes it
            fh.write(row + "".join([f"{prefix},{t!r},{v}\r\n" for t, v in s.transitions]))


def read_trace(path) -> dict[str, Signal]:
    raw: dict[str, list[tuple[float, int]]] = {}
    initials: dict[str, int] = {}
    r = csv.reader(io.StringIO(read_text(path, SignalError), newline=""))
    header = next(r, None)
    if header != ["signal", "time", "value"]:
        raise SignalError(f"{path}: line 1: bad trace header {header!r}")
    for row in r:
        try:
            name, time_s, value_s = row
            value = int(value_s)
            time = None if time_s.strip() == "-inf" else float(time_s)
        except ValueError as exc:
            raise SignalError(f"{path}: line {r.line_num}: bad trace row {row!r} ({exc})") from exc
        if time is None:
            initials[name] = value
            raw.setdefault(name, [])
        else:
            raw.setdefault(name, []).append((time, value))
    out = {}
    for name, transitions in raw.items():
        if name not in initials:
            raise SignalError(f"signal {name!r} has no -inf initial-value row")
        out[name] = make_signal(initials[name], transitions)
    return out
