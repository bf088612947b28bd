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
strictly increasing and alternating.

The eta_n are adversarial perturbations within [-eta_minus, +eta_plus],
consumed one per input transition index (including transitions whose
output is later canceled).

The involution channel is the eta-involution channel with a zero budget
(``Involution(df)``).  Every channel kind is one incremental state
(``channel_state``): ``feed`` processes an input transition, ``commit``
decides a record that can no longer be canceled, and ``survivors`` is the
output once the whole input has been fed.  ``apply_channel`` and the engine
in ``circuit`` both drive it and differ only in when they decide a record:
the engine first calls ``check_causal`` and then decides each record at
``decide_at(record)`` (None: deliver at once).

Commit rule of the involution channels
--------------------------------------
A pending output at time u is canceled only by a later input transition
whose output lands at or before u.  An input at t >= u that follows the
pending record directly has T = t - u >= 0, so its delay is at least
delta(0) - eta_minus, which is positive unless eta_minus >= delta(0) of that
edge; ``check_causal`` rejects such a budget up front.  So once simulation
time reaches u the output is final, and the engine decides it there: one ulp
before u (``decide_at``), after every other event of that instant and before
the deliveries at u.  Decisions then come in output order, so ``commit``
takes the oldest pending record.

When later inputs cancel each other in pairs, a further input measures its
T from a canceled record and can still land at or before an output already
committed; the channel function would cancel that output.  Every arrival is
audited against the last committed output and raises instead of silently
corrupting the trace.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Union

import numpy as np

from .delay_model import DelayFunction
from .signals import Signal, make_signal, read_text


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


_FIRST_BLOCK, _LAST_BLOCK = 4, 1024  # sizes of the first and the largest block of uniform draws


class EtaSource:
    """Per-run consumable view of a strategy: one eta per input transition index.

    Draws come from ``_block``, a list of the next values, last one first: a
    fixed sequence fills it once, uniform draws refill it block by block.  A
    draw on an empty block goes to ``_after_block``.  A fixed sequence is
    checked against the bounds once, here; the other strategies draw within
    the bounds by construction.
    """

    def __init__(self, strategy: AdversaryStrategy, bounds: EtaBounds):
        self.bounds = bounds
        self._block: list[float] = []
        # a plain function of (source, value): a bound method kept on the
        # instance would make every source a cycle that only gc.collect frees
        if isinstance(strategy, UniformRandom):
            self._rng = np.random.default_rng(strategy.seed)
            self._block_size = _FIRST_BLOCK
            self._after_block = EtaSource._draw_block
        elif isinstance(strategy, Zero):
            self._after_block = EtaSource._zero
        elif isinstance(strategy, WorstCaseShrink):
            self._after_block = EtaSource._worst_case
        elif isinstance(strategy, FixedSequence):
            etas = strategy.etas
            lo, hi = -bounds.eta_minus - 1e-15, bounds.eta_plus + 1e-15
            # both passes are False on a NaN, which min and max would let through
            if not (all(map(operator.le, repeat(lo), etas)) and all(map(operator.le, etas, repeat(hi)))):
                e = next(e for e in etas if not lo <= e <= hi)
                raise ChannelError(f"eta={e} outside [{-bounds.eta_minus}, {bounds.eta_plus}]")
            self._block = list(reversed(etas))
            self._after_block = EtaSource._zero
        else:
            raise ChannelError(f"unknown strategy {strategy!r}")

    def eta(self, value: int) -> float:
        block = self._block
        return block.pop() if block else self._after_block(self, value)

    def _draw_block(self, value: int) -> float:
        # Drawing n at once yields the same stream as n scalar draws; blocks
        # grow geometrically, so that short runs draw few values ahead.
        b = self.bounds
        self._block = self._rng.uniform(-b.eta_minus, b.eta_plus, size=self._block_size).tolist()
        self._block.reverse()
        self._block_size = min(2 * self._block_size, _LAST_BLOCK)
        return self._block.pop()

    def _zero(self, value: int) -> float:
        return 0.0

    def _worst_case(self, value: int) -> float:
        return worst_case_eta(value, self.bounds)


@dataclass(frozen=True)
class Pure:
    delay: float

    def __post_init__(self) -> None:
        if not self.delay >= 0:
            raise ChannelError(f"pure delay must be >= 0, got {self.delay}")


@dataclass(frozen=True)
class Inertial:
    """Constant delay that suppresses transitions followed by an opposite one less than ``window`` later."""

    delay: float
    window: float

    def __post_init__(self) -> None:
        if not self.delay > 0:
            raise ChannelError(f"inertial delay must be > 0, got {self.delay}")
        if not self.window > 0:
            raise ChannelError(f"inertial window must be > 0, got {self.window}")


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
class TransitionRecord:
    """Per-input-transition log entry of the channel algorithm."""

    index: int
    time: float
    value: int
    T: float
    delta: float
    eta: float
    out_time: float
    canceled: bool = False
    canceled_with: int | None = None
    guard_hit: bool = False


def _cancel_pair(earlier: TransitionRecord, later: TransitionRecord) -> None:
    earlier.canceled = later.canceled = True
    earlier.canceled_with, later.canceled_with = later.index, earlier.index


class _PureState:
    """Incremental pure delay: every record survives, except that two records
    rounded onto one output time cancel (the involution channels' tie rule)."""

    def __init__(self, delay: float):
        self.delay = delay
        self.log: list[TransitionRecord] = []
        self.last: TransitionRecord | None = None  # latest surviving record

    def _record(self, t: float, value: int) -> TransitionRecord:
        rec = TransitionRecord(len(self.log) + 1, t, value, math.nan, self.delay, 0.0, t + self.delay)
        self.log.append(rec)
        return rec

    def feed(self, t: float, value: int) -> tuple[TransitionRecord, TransitionRecord | None]:
        """Process one input transition; returns (record, canceled partner or None)."""
        rec = self._record(t, value)
        partner = self.last
        if partner is None or partner.out_time != rec.out_time:
            self.last = rec
            return rec, None
        _cancel_pair(partner, rec)
        self.last = next((r for r in reversed(self.log) if not r.canceled), None)
        return rec, partner

    def check_causal(self) -> None:
        """Raise ChannelError if the engine cannot decide this channel's records causally."""

    def decide_at(self, rec: TransitionRecord) -> float | None:
        """When the engine decides ``rec``: the time after which it can no longer
        be canceled, or None to deliver it at its output time without a decision."""
        return None

    def commit(self, rec: TransitionRecord) -> bool:
        """Decide a record that can no longer be canceled; True if it reaches the output."""
        return not rec.canceled

    def survivors(self) -> list[TransitionRecord]:
        """The output records once the whole input has been fed (batch use only)."""
        return [r for r in self.log if self.commit(r)]


class _InertialState(_PureState):
    """Incremental inertial delay: an arrival before ``prev.time + window``
    suppresses the previous record.  The window is half-open, like a VHDL
    reject limit: an arrival at exactly ``decide_at(prev)`` leaves the record
    standing, so the engine's decision there is final whichever of the two
    it processes first."""

    def __init__(self, delay: float, window: float, initial_value: int):
        super().__init__(delay)
        self.window = window
        self.value = initial_value

    def feed(self, t: float, value: int) -> tuple[TransitionRecord, TransitionRecord | None]:
        prev = self.log[-1] if self.log else None
        if prev is not None and not prev.canceled and t < prev.time + self.window:
            prev.canceled = True
        else:
            prev = None
        return self._record(t, value), prev

    def check_causal(self) -> None:
        if self.window > self.delay:
            raise ChannelError("inertial window exceeds delay; not causally executable")

    def decide_at(self, rec: TransitionRecord) -> float:
        return rec.time + self.window

    def commit(self, rec: TransitionRecord) -> bool:
        if rec.canceled:
            return False
        if rec.value == self.value:
            rec.canceled = True  # coalesced: output already at this value
            return False
        self.value = rec.value
        return True


class _InvolutionState:
    """Incremental eta-involution channel (with a zero budget, the involution channel).

    Records are decided oldest first, so every pending record lies above the
    last committed output; a new survivor at or before it raises.
    """

    def __init__(self, df: DelayFunction, source: EtaSource):
        self.df = df
        self.source = source
        self.prev_t = -math.inf
        self.prev_delta = 0.0
        self.index = 0
        self.stack: deque[TransitionRecord] = deque()  # pending survivors, oldest first
        self.log: list[TransitionRecord] = []
        self.committed_last = -math.inf
        self.commit_margin = math.inf

    def feed(self, t: float, value: int) -> tuple[TransitionRecord, TransitionRecord | None]:
        """Process one input transition; returns (record, canceled partner or None)."""
        self.index += 1
        T = t - self.prev_t - self.prev_delta
        base = self.df.up(T) if value == 1 else self.df.down(T)
        eta = self.source.eta(value)
        delta = base + eta
        rec = TransitionRecord(self.index, t, value, T, delta, eta, t + delta, False, None, base == -math.inf)
        self.log.append(rec)
        self.prev_t, self.prev_delta = t, delta
        partner = None
        if self.stack and self.stack[-1].out_time >= rec.out_time:
            partner = self.stack.pop()
            _cancel_pair(partner, rec)
        else:
            if rec.out_time == -math.inf:
                raise ChannelError(
                    f"guard-canceled transition at t={t} has no surviving predecessor"
                )
            self.stack.append(rec)
            margin = rec.out_time - self.committed_last
            if margin < self.commit_margin:
                self.commit_margin = margin
                if margin <= 0:
                    raise ChannelError(
                        f"arrival at t={t} would retro-cancel a committed output at {self.committed_last}"
                    )
        return rec, partner

    def check_causal(self) -> None:
        if self.source.bounds.eta_minus >= min(self.df.up(0.0), self.df.down(0.0)):
            raise ChannelError("eta_minus exceeds delta(0); pending outputs cannot be committed causally")

    def decide_at(self, rec: TransitionRecord) -> float:
        return max(rec.time, math.nextafter(rec.out_time, -math.inf))

    def commit(self, rec: TransitionRecord) -> bool:
        if rec.canceled:
            return False
        if not self.stack or self.stack[0] is not rec:
            raise ChannelError(f"released record {rec.index} is not the oldest pending one")
        self.stack.popleft()
        self.committed_last = rec.out_time
        return True

    def survivors(self) -> list[TransitionRecord]:
        return list(self.stack)


def channel_state(spec: ChannelSpec, initial_value: int):
    """The incremental state of a channel whose input starts at ``initial_value``."""
    if isinstance(spec, Pure):
        return _PureState(spec.delay)
    if isinstance(spec, Inertial):
        return _InertialState(spec.delay, spec.window, initial_value)
    if isinstance(spec, EtaInvolution):
        return _InvolutionState(spec.df, EtaSource(spec.strategy, spec.bounds))
    raise ChannelError(f"unknown channel spec {spec!r}")


def apply_channel(spec: ChannelSpec, s: Signal) -> tuple[Signal, list[TransitionRecord]]:
    """Channel function: map an input signal to the output signal plus a per-transition log."""
    state = channel_state(spec, s.initial_value)
    feed = state.feed
    value = s.initial_value
    for t in s.times:
        value ^= 1
        feed(t, value)
    out = make_signal(s.initial_value, [(r.out_time, r.value) for r in state.survivors()])
    return out, state.log


# eta-sequence file for FixedSequence strategies: header "n,eta", 1-based index.

def write_eta_sequence(path, etas) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "eta"])
        for n, e in enumerate(etas, start=1):
            w.writerow([n, repr(e)])


def read_eta_sequence(path) -> list[float]:
    out = []
    r = csv.reader(io.StringIO(read_text(path, ChannelError), newline=""))
    header = next(r, None)
    if header != ["n", "eta"]:
        raise ChannelError(f"{path}: line 1: bad eta-sequence header {header!r}")
    for row in r:
        try:
            n, e = row
            n, e = int(n), float(e)
        except ValueError as exc:
            raise ChannelError(f"{path}: line {r.line_num}: bad eta-sequence row {row!r} ({exc})") from exc
        if n != len(out) + 1:
            raise ChannelError(f"{path}: line {r.line_num}: rows must be numbered consecutively from 1, got n={n}")
        out.append(e)
    return out
