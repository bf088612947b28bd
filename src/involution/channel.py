"""Delay channels: pure, inertial, involution and eta-involution.

``apply_channel`` implements the output transition generation algorithm.
With input transition times t_1 < t_2 < ... (t_0 = -inf, delta_0 = 0), the
n-th tentative output is scheduled at t_n + delta_n where

    delta_n = delta_up(max(t_n - t_{n-1} - delta_{n-1}, -d_inf_down)) + eta_n

for a rising transition (delta_down / -d_inf_up for a falling one).  The
max-guard maps an out-of-domain argument to delta_n = -inf, which forces
cancellation with the previous surviving pending transition.  Pending
transitions n < m cancel pairwise when t_n + delta_n >= t_m + delta_m
(ties cancel); the incremental form cancels a new pending transition
backward against the latest surviving one, which keeps the surviving list
strictly increasing and alternating.  The other kinds cancel in pairs
too, each in its own ``feed``: a pure delay where two inputs round onto one
output time, and an inertial delay where an input arrives within the window
of the newest surviving record; each keeps only that record pending.

The eta_n are adversarial perturbations within [-eta_minus, +eta_plus],
consumed one per input transition index (including transitions whose
output is later canceled).  An ``EtaSource`` holds each strategy as one
iterator per value bit, and ``EtaSource.starter`` builds a fresh one per run;
the runs of one circuit read a ``uniform_random`` channel's draws from one
stream.

The involution channel is the eta-involution channel with a zero budget
(``Involution(df)``).  Every channel kind is one incremental state, built
fresh per run from its spec alone by ``state_constructor``: ``feed``
processes an input transition and marks the records it cancels, and every
record it leaves standing is an output.  ``apply_channel`` and the engine in
``circuit`` both drive it and differ only in when they take a record as
final: the engine delivers a pure or inertial record at its output time,
skipping a canceled one, and decides an eta-involution record with
``commit`` at ``decide_at(record)``, on channels whose spec passed
``check_causal`` when their circuit was built.  ``apply_channel`` builds its
output signal from the records of ``_replay`` that are not canceled, which
the engine's self-check compares with a recorded signal directly.

Every arrival builds one record, what the engine and the audits read.  The
full per-transition log is opt-in (``log=True``) and only observes: a state
then builds each arrival as a :class:`TransitionRecord`, a :class:`Record`
that also keeps T, delta, eta and the canceled partner, and appends it to
its ``log``, the list that is the log.  ``apply_channel`` logs unless told
not to; the engine and the engine's self-check do not.

Commit rule of the involution channels
--------------------------------------
A pending output at time u is canceled only by a later input transition
whose output lands at or before u.  An input at t >= u that follows the
pending record directly has T = t - u >= 0, so its delay is at least
delta(0) - eta_minus, which is positive unless eta_minus >= delta(0) of that
edge; ``check_causal`` rejects such a spec up front.  So once simulation
time reaches u the output is final, and the engine decides it there: one ulp
before u (``decide_at``), after every other event of that instant and before
the deliveries at u.  Decisions then come in output order, so ``commit``
takes the oldest pending record.

When later inputs cancel each other in pairs, a further input measures its
T from a canceled record and can still land at or before an output already
committed; the channel function would cancel that output.  The state audits
instead of silently corrupting the trace: ``feed`` checks every arrival
against the last committed output, and ``commit`` checks that the decided
record is the oldest pending one and that its output does not lie before its
decision time (a surviving record with a negative delay).  Each raises a
``ChannelError``, which the engine reports as a ``CausalityFault``.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import deque
from dataclasses import dataclass
from itertools import chain, count, cycle, repeat
from typing import Union

import numpy as np

from .delay_model import DelayFunction
from .signals import Signal, make_signal, read_csv, write_csv


class ChannelError(ValueError):
    pass


@dataclass(frozen=True)
class EtaBounds:
    """Admissible perturbation interval [-eta_minus, +eta_plus]."""

    eta_minus: float = 0.0
    eta_plus: float = 0.0

    def __post_init__(self) -> None:
        if not (0 <= self.eta_minus < math.inf and 0 <= self.eta_plus < math.inf):
            raise ChannelError(f"eta bounds must be finite and non-negative, got {self}")


@dataclass(frozen=True)
class Zero:
    """Always chooses eta_n = 0 (reduces the channel to a plain involution)."""


@dataclass(frozen=True)
class WorstCaseShrink:
    """Rising transitions maximally late (+eta_plus), falling maximally early (-eta_minus).

    This choice minimizes the up-time of the next pulse in a feedback loop,
    producing the self-repeating worst-case pulse train.
    """


@dataclass(frozen=True)
class UniformRandom:
    """eta_n drawn uniformly from [-eta_minus, +eta_plus] with a named seed."""

    seed: int

    def __post_init__(self) -> None:
        if not self.seed >= 0:
            raise ChannelError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class FixedSequence:
    """Replay an explicit eta sequence; beyond its length yields 0."""

    etas: tuple[float, ...]


AdversaryStrategy = Union[Zero, WorstCaseShrink, UniformRandom, FixedSequence]


def worst_case_eta(value: int, bounds: EtaBounds) -> float:
    """The shrink-worst perturbation for a transition to ``value``: 1 -> +eta_plus, 0 -> -eta_minus."""
    return bounds.eta_plus if value else -bounds.eta_minus


_BLOCK = 1024  # uniform draws per block


class _UniformDraws:
    """The uniform draws of one seed within one budget, kept in blocks of 1024.

    Each iterator yields the whole stream from its first draw: the values
    that scalar draws of the seed's generator give, one by one.  A block is
    drawn once, when the first iterator reaches it, and then read by every
    iterator, from any thread: a drawn block is never modified, and a lock
    orders the draws.
    """

    def __init__(self, seed: int, bounds: EtaBounds):
        self._rng = np.random.default_rng(seed)
        self._low, self._high = -bounds.eta_minus, bounds.eta_plus
        self._blocks: list[list[float]] = []
        self._lock = threading.Lock()

    def _block(self, k: int) -> list[float]:
        blocks = self._blocks
        if k >= len(blocks):
            with self._lock:
                while len(blocks) <= k:
                    blocks.append(self._rng.uniform(self._low, self._high, size=_BLOCK).tolist())
        return blocks[k]

    def __iter__(self):
        return chain.from_iterable(map(self._block, count()))


class EtaSource:
    """Per-run consumable view of a strategy: one eta per input transition index.

    ``eta(value)`` takes the next value of ``streams[value]``; the
    strategies that do not look at the value read one stream for both.  A
    run's source comes from the strategy's ``starter``.
    """

    def __init__(self, streams):
        self._streams = streams  # by value bit

    @classmethod
    def starter(cls, strategy: AdversaryStrategy, bounds: EtaBounds):
        """A function of no arguments that returns a fresh source of ``strategy``.

        The strategy is read, and a fixed sequence checked against the
        bounds, once, here; the other strategies draw within the bounds by
        construction.  A ``repeat`` stream holds no position, so every
        source shares it; a uniform or fixed stream starts afresh at its
        first eta.  The sources of one starter read one ``_UniformDraws``.
        """
        if isinstance(strategy, UniformRandom):
            draws = _UniformDraws(strategy.seed, bounds)
            return lambda: cls((iter(draws),) * 2)
        if isinstance(strategy, FixedSequence):
            etas = strategy.etas
            lo, hi = -bounds.eta_minus - 1e-15, bounds.eta_plus + 1e-15
            # both passes are False on a NaN, which min and max would let through
            if not (all(map(operator.le, repeat(lo), etas)) and all(map(operator.le, etas, repeat(hi)))):
                e = next(e for e in etas if not lo <= e <= hi)
                raise ChannelError(f"eta={e} outside [{-bounds.eta_minus}, {bounds.eta_plus}]")
            return lambda: cls((chain(etas, repeat(0.0)),) * 2)
        if isinstance(strategy, Zero):
            streams = (repeat(0.0),) * 2
        elif isinstance(strategy, WorstCaseShrink):
            streams = (repeat(worst_case_eta(0, bounds)), repeat(worst_case_eta(1, bounds)))
        else:
            raise ChannelError(f"unknown strategy {strategy!r}")
        return lambda: cls(streams)

    def eta(self, value: int) -> float:
        return next(self._streams[value])


@dataclass(frozen=True)
class Pure:
    delay: float

    def __post_init__(self) -> None:
        if not self.delay >= 0:
            raise ChannelError(f"pure delay must be >= 0, got {self.delay}")
        if self.delay == math.inf:
            raise ChannelError(f"pure delay must be finite, got {self.delay}")


@dataclass(frozen=True)
class Inertial:
    """Constant delay that suppresses transitions followed by an opposite one less than ``window`` later."""

    delay: float
    window: float

    def __post_init__(self) -> None:
        for name, x in (("delay", self.delay), ("window", self.window)):
            if not x > 0:
                raise ChannelError(f"inertial {name} must be > 0, got {x}")
            if x == math.inf:
                raise ChannelError(f"inertial {name} must be finite, got {x}")


@dataclass(frozen=True)
class EtaInvolution:
    df: DelayFunction
    bounds: EtaBounds
    strategy: AdversaryStrategy = Zero()

    def __post_init__(self) -> None:
        if not (self.df.up(0.0) > 0 and self.df.down(0.0) > 0):
            raise ChannelError("involution channel must be strictly causal")


def Involution(df: DelayFunction) -> EtaInvolution:
    """The involution channel: the eta-involution channel with a zero budget."""
    return EtaInvolution(df, EtaBounds())


ChannelSpec = Union[Pure, Inertial, EtaInvolution]


@dataclass(slots=True)
class Record:
    """One input transition as a channel state keeps it: what the engine and the audits read."""

    index: int
    time: float
    value: int
    out_time: float
    canceled: bool = False

    @property
    def guard_hit(self) -> bool:
        """The max-guard forced the delay to -inf."""
        return self.out_time == -math.inf


@dataclass(slots=True)
class TransitionRecord(Record):
    """One input transition in the full per-transition log (``log=True``):
    its record, with T, delta and eta, and the index of the record it
    canceled with.  A pure or inertial channel has no T, and its delta is
    its delay."""

    T: float = math.nan
    delta: float = math.nan
    eta: float = 0.0
    canceled_with: int | None = None


class _State:
    """What every channel state keeps: ``fed``, the number of arrivals so far,
    and ``log``, with the log on the list of every arrival's
    TransitionRecord, else None.  Each kind's constructor sets these and what
    that kind keeps itself, once each."""

    def _record(self, t: float, value: int, T: float, delta: float, eta: float, out_time: float) -> Record:
        """The record of the next arrival, logged if the log is on."""
        self.fed = n = self.fed + 1
        if self.log is None:
            return Record(n, t, value, out_time)
        rec = TransitionRecord(n, t, value, out_time, False, T, delta, eta)
        self.log.append(rec)
        return rec


class _PureState(_State):
    """Incremental pure delay: every record survives, except that two records
    rounded onto one output time cancel, by the pair-cancellation rule of the
    involution channels.

    It keeps only its newest pending record: outputs t + d never decrease, so
    only the newest survivor can share a later output time, and once a pair
    cancels, every earlier survivor lies below every later output.
    """

    def __init__(self, delay: float, log: bool = False):
        self.delay = delay
        self.fed = 0
        self.log: list[TransitionRecord] | None = [] if log else None
        self.stack: deque[Record] = deque(maxlen=1)  # the newest pending record

    def feed(self, t: float, value: int) -> tuple[Record, Record | None]:
        """Process one input transition; returns (record, canceled partner or None).

        The record cancels with the newest pending survivor if that one's
        output is not earlier, and is kept pending otherwise.
        """
        rec = self._record(t, value, math.nan, self.delay, 0.0, t + self.delay)
        if self.stack and self.stack[-1].out_time >= rec.out_time:
            partner = self.stack.pop()
            partner.canceled = rec.canceled = True
            if self.log is not None:
                rec.canceled_with, partner.canceled_with = partner.index, rec.index
            return rec, partner
        self.stack.append(rec)
        return rec, None

    def decide_at(self, rec: Record) -> float | None:
        """When the engine decides ``rec``: the time after which it can no longer
        be canceled, or None to deliver it at its output time without a decision."""
        return None


class _InertialState(_PureState):
    """Incremental inertial delay: an arrival before ``last.time + window``,
    ``last`` the newest surviving record, cancels with it, and any other
    arrival becomes the new ``last``.  The window is half-open, like a VHDL
    reject limit.

    The pair is a suppressed record and the arrival that suppressed it, whose
    output would repeat the output value before them (it is coalesced).  A
    window of at most the delay (``check_causal``) puts every such arrival
    before the output time of the record it cancels, so the engine delivers
    each record at its output time and skips a canceled one, as for a pure
    delay.
    """

    def __init__(self, delay: float, window: float, log: bool = False):
        self.delay = delay
        self.window = window
        self.fed = 0
        self.log: list[TransitionRecord] | None = [] if log else None
        self.last: Record | None = None

    def feed(self, t: float, value: int) -> tuple[Record, Record | None]:
        rec = self._record(t, value, math.nan, self.delay, 0.0, t + self.delay)
        prev = self.last
        if prev is None or not t < prev.time + self.window:
            self.last = rec
            return rec, None
        prev.canceled = rec.canceled = True
        self.last = None
        if self.log is not None:
            rec.canceled_with, prev.canceled_with = prev.index, rec.index
        return rec, prev


class _InvolutionState(_State):
    """Incremental eta-involution channel (with a zero budget, the involution channel).

    ``feed`` runs an arrival in its own frame: it builds the record, runs the
    pair-cancellation step and audits a new survivor itself.  Records are
    decided oldest first, so every pending record lies above the
    last committed output; a new survivor at or before it raises.  ``etas``
    lists the eta drawn for every arrival, and ``commit_margin`` is the least
    distance of a surviving output above the last committed one.
    """

    def __init__(self, df: DelayFunction, source: EtaSource, log: bool = False):
        self.df = df
        self.source = source
        self.fed = 0
        self.log: list[TransitionRecord] | None = [] if log else None
        self.stack: deque[Record] = deque()  # every pending record, oldest first
        self.etas: list[float] = []
        self.prev_t = -math.inf
        self.prev_delta = 0.0
        self.committed_last = -math.inf
        self.commit_margin = math.inf

    def feed(self, t: float, value: int) -> tuple[Record, Record | None]:
        T = t - self.prev_t - self.prev_delta
        base = self.df.up(T) if value == 1 else self.df.down(T)
        eta = self.source.eta(value)
        self.etas.append(eta)
        delta = base + eta
        self.prev_t, self.prev_delta = t, delta
        self.fed = n = self.fed + 1
        if self.log is None:
            rec = Record(n, t, value, t + delta)
        else:
            rec = TransitionRecord(n, t, value, t + delta, False, T, delta, eta)
            self.log.append(rec)
        # cancel with the latest pending survivor whose output is not earlier, as a pure delay does
        if self.stack and self.stack[-1].out_time >= rec.out_time:
            partner = self.stack.pop()
            partner.canceled = rec.canceled = True
            if self.log is not None:
                rec.canceled_with, partner.canceled_with = partner.index, rec.index
            return rec, partner
        self.stack.append(rec)
        if rec.out_time == -math.inf:
            raise ChannelError(f"guard-canceled transition at t={t} has no surviving predecessor")
        margin = rec.out_time - self.committed_last
        if margin < self.commit_margin:
            self.commit_margin = margin
            if margin <= 0:
                raise ChannelError(f"arrival at t={t} would retro-cancel a committed output at {self.committed_last}")
        return rec, None

    def decide_at(self, rec: Record, nextafter=math.nextafter, down=-math.inf) -> float:
        # max(rec.time, one ulp below the output), ties to rec.time as max gives them;
        # the defaults bind the function and the direction once, not on every call
        at = nextafter(rec.out_time, down)
        t = rec.time
        return at if at > t else t

    def commit(self, rec: Record) -> bool:
        if rec.canceled:
            return False
        if not self.stack or self.stack[0] is not rec:
            raise ChannelError(f"released record {rec.index} is not the oldest pending one")
        if rec.out_time < rec.time:  # then the decision time is the input time
            raise ChannelError(f"committed output at {rec.out_time} lies before decision time {rec.time}")
        self.stack.popleft()
        self.committed_last = rec.out_time
        return True


def state_constructor(spec: ChannelSpec):
    """The constructor of a channel's fresh incremental states, called as ``new(log=False)``.

    ``log`` turns the full per-transition log on.  The spec is read, and an
    eta-involution channel's strategy checked, once, here.  Each kind's
    constructor builds only what that kind keeps, each attribute once; an
    inertial state has no pending stack.  No two states
    share anything a run changes, so the runs of one circuit can build their
    states from one constructor; a ``uniform_random`` channel's states read
    one stream of draws (see :meth:`EtaSource.starter`).
    """
    if isinstance(spec, Pure):
        return lambda log=False: _PureState(spec.delay, log)
    if isinstance(spec, Inertial):
        return lambda log=False: _InertialState(spec.delay, spec.window, log)
    if isinstance(spec, EtaInvolution):
        new_source = EtaSource.starter(spec.strategy, spec.bounds)
        return lambda log=False: _InvolutionState(spec.df, new_source(), log)
    raise ChannelError(f"unknown channel spec {spec!r}")


def check_causal(spec: ChannelSpec) -> None:
    """Raise ChannelError if the engine cannot decide a channel's records causally:
    an inertial window above its delay, or an eta_minus not below both delta(0)."""
    if isinstance(spec, Inertial) and spec.window > spec.delay:
        raise ChannelError("inertial window exceeds delay; not causally executable")
    if isinstance(spec, EtaInvolution) and spec.bounds.eta_minus >= min(spec.df.up(0.0), spec.df.down(0.0)):
        raise ChannelError("eta_minus is not below delta(0); pending outputs cannot be committed causally")


def apply_channel(
    spec: ChannelSpec, s: Signal, *, log: bool = True
) -> tuple[Signal, list[TransitionRecord] | None]:
    """Channel function: map an input signal to the output signal plus the
    per-transition log, or None in its place with ``log=False``."""
    survivors, records = _replay(spec, s, log)
    return make_signal(s.initial_value, [(r.out_time, r.value) for r in survivors]), records


def _replay(spec: ChannelSpec, s: Signal, log: bool = False) -> tuple[list[Record], list[TransitionRecord] | None]:
    """The output records of a fresh state of ``spec`` fed every transition of
    ``s``, in input order, and the state's log (None with ``log=False``)."""
    v0 = s.initial_value
    state = state_constructor(spec)(log)
    feed = state.feed
    fed = [feed(t, value)[0] for t, value in zip(s.times, cycle((1 - v0, v0)))]
    return [r for r in fed if not r.canceled], state.log


# eta-sequence file for FixedSequence strategies: header "n,eta", 1-based index.

def write_eta_sequence(path, etas) -> None:
    write_csv(path, ["n", "eta"], ([n, repr(e)] for n, e in enumerate(etas, start=1)))


def read_eta_sequence(path) -> list[float]:
    numbers = count(1)

    def parse(row: list[str]) -> float:
        n, e = row
        n, e = int(n), float(e)
        if n != next(numbers):
            raise ChannelError(f"rows must be numbered consecutively from 1, got n={n}")
        if not math.isfinite(e):
            raise ChannelError(f"eta {e} is not finite")
        return e

    return read_csv(path, ["n", "eta"], "eta-sequence", ChannelError, parse)
