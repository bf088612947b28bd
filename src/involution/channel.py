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
A pending output at time u may still be canceled by a later input
transition at time t whenever t - u <= w, where w is the root of
S + delta(S) = eta_minus for the opposite-edge delay function (w >= -delta_min,
and w < 0 for any channel satisfying the faithfulness constraint).  For an
exp-channel the root has a closed form: a pending rising output is canceled
through delta_down, and

    w = tau * ln(1 + exp((eta_minus + d_inf_up - d_inf_down)/tau)) - d_inf_up,

with d_inf_up and d_inf_down swapped for a pending falling output.  The
engine therefore decides a pending output only once simulation time has
reached u + w; that never schedules into the past for w <= 0.  A channel
whose bounds force w > 0 cannot be executed causally and fails
``check_causal``.  Every arrival is audited against the committed frontier;
an arrival that could retro-cancel a committed output raises instead of
silently corrupting the trace.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .delay_model import DelayFunction, delta_min
from .rootfind import bisect_root
from .signals import Signal, make_signal


class ChannelError(ValueError):
    pass


class StrategyExhausted(ChannelError):
    """A strict fixed eta sequence ran out before the input signal did."""


@dataclass(frozen=True)
class EtaBounds:
    """Admissible perturbation interval [-eta_minus, +eta_plus]."""

    eta_minus: float = 0.0
    eta_plus: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta_minus) and math.isfinite(self.eta_plus)):
            raise ChannelError(f"eta bounds must be finite, got {self}")
        if self.eta_minus < 0 or self.eta_plus < 0:
            raise ChannelError(f"eta bounds must be non-negative, got {self}")


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


@dataclass(frozen=True)
class FixedSequence:
    """Replay an explicit eta sequence; beyond its length yields 0 (or raises in strict mode)."""

    etas: tuple[float, ...]
    strict: bool = False


AdversaryStrategy = Union[Zero, WorstCaseShrink, UniformRandom, FixedSequence]


def worst_case_eta(edge: str, bounds: EtaBounds) -> float:
    """The shrink-worst perturbation for one edge: rising -> +eta_plus, falling -> -eta_minus."""
    if edge == "rising":
        return bounds.eta_plus
    if edge == "falling":
        return -bounds.eta_minus
    raise ChannelError(f"edge must be 'rising' or 'falling', got {edge!r}")


class EtaSource:
    """Per-run consumable view of a strategy: one eta per input transition index."""

    def __init__(self, strategy: AdversaryStrategy, bounds: EtaBounds):
        self.strategy = strategy
        self.bounds = bounds
        self._rng = (
            np.random.default_rng(strategy.seed) if isinstance(strategy, UniformRandom) else None
        )
        self._count = 0

    def eta(self, value: int) -> float:
        s, b = self.strategy, self.bounds
        self._count += 1
        if isinstance(s, Zero):
            e = 0.0
        elif isinstance(s, WorstCaseShrink):
            e = worst_case_eta("rising" if value == 1 else "falling", b)
        elif isinstance(s, UniformRandom):
            e = float(self._rng.uniform(-b.eta_minus, b.eta_plus))
        elif isinstance(s, FixedSequence):
            if self._count <= len(s.etas):
                e = s.etas[self._count - 1]
            elif s.strict:
                raise StrategyExhausted(
                    f"fixed eta sequence of length {len(s.etas)} exhausted at transition {self._count}"
                )
            else:
                e = 0.0
        else:
            raise ChannelError(f"unknown strategy {s!r}")
        if not -b.eta_minus - 1e-15 <= e <= b.eta_plus + 1e-15:
            raise ChannelError(f"eta={e} outside [{-b.eta_minus}, {b.eta_plus}]")
        return e


@dataclass(frozen=True)
class Pure:
    delay: float

    def __post_init__(self) -> None:
        if not self.delay >= 0:
            raise ChannelError(f"pure delay must be >= 0, got {self.delay}")


@dataclass(frozen=True)
class Inertial:
    """Constant delay that suppresses transitions followed by an opposite one within ``window``."""

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


@dataclass
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
    """Incremental inertial delay: an arrival within ``window`` suppresses the previous record."""

    def __init__(self, delay: float, window: float, initial_value: int):
        super().__init__(delay)
        self.window = window
        self.value = initial_value

    def feed(self, t: float, value: int) -> tuple[TransitionRecord, TransitionRecord | None]:
        prev = self.log[-1] if self.log else None
        if prev is not None and not prev.canceled and t - prev.time <= self.window:
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


def _softplus(x: float) -> float:
    """ln(1 + e^x), without overflow for large x."""
    return x + math.log1p(math.exp(-x)) if x > 0 else math.log1p(math.exp(x))


def _release_window(df: DelayFunction, eta_minus: float, dmin: float, value: int) -> float:
    """Root w of S + delta(S) = eta_minus for the edge that could cancel a pending ``value``.

    Closed form for an exp-channel (see the module docstring); otherwise
    bisection above -``dmin``, where ``dmin`` is ``delta_min(df)``.  Rounded
    up by twice the root tolerance: releasing later than the exact window is
    safe, releasing earlier is not.
    """
    if df.params is not None:
        own, other = (df.delta_inf_up, df.delta_inf_down) if value == 1 else (df.delta_inf_down, df.delta_inf_up)
        tau = df.params.tau
        return tau * _softplus((eta_minus + own - other) / tau) - own + 2e-12
    f = df.down if value == 1 else df.up
    lo = -dmin * (1 + 1e-9) - 1e-12
    return bisect_root(lambda s: s + f(s) - eta_minus, lo, eta_minus + 1e-9) + 2e-12


class _InvolutionState:
    """Incremental eta-involution channel (with a zero budget, the involution channel).

    A survivor at or before a committed output raises.
    """

    def __init__(self, df: DelayFunction, source: EtaSource):
        self.df = df
        self.source = source
        self.windows = (math.nan, math.nan)  # release window of a pending 0 / 1; set by check_causal
        self.prev_t = -math.inf
        self.prev_delta = 0.0
        self.index = 0
        self.stack: list[TransitionRecord] = []
        self.log: list[TransitionRecord] = []
        self.committed_last = -math.inf
        self.commit_margin = math.inf

    def feed(self, t: float, value: int) -> tuple[TransitionRecord, TransitionRecord | None]:
        """Process one input transition; returns (record, canceled partner or None)."""
        self.index += 1
        T = t - self.prev_t - self.prev_delta
        base = self.df.delay(value == 1, T)
        guard_hit = base == -math.inf
        eta = self.source.eta(value)
        delta = base + eta
        rec = TransitionRecord(self.index, t, value, T, delta, eta, t + delta, guard_hit=guard_hit)
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
        dmin = delta_min(self.df)
        self.windows = tuple(_release_window(self.df, self.source.bounds.eta_minus, dmin, v) for v in (0, 1))
        if max(self.windows) > 0:
            raise ChannelError("eta_minus exceeds delta(0); pending outputs cannot be committed causally")

    def decide_at(self, rec: TransitionRecord) -> float:
        return max(rec.time, rec.out_time + self.windows[rec.value])

    def commit(self, rec: TransitionRecord) -> bool:
        if rec.canceled:
            return False
        try:
            self.stack.remove(rec)
        except ValueError as exc:
            raise ChannelError("released record not pending") from exc
        self.committed_last = max(self.committed_last, rec.out_time)
        return True

    def survivors(self) -> list[TransitionRecord]:
        return self.stack


def channel_state(spec: ChannelSpec, initial_value: int, strategy: AdversaryStrategy | None = None):
    """The incremental state of a channel whose input starts at ``initial_value``.

    ``strategy`` replaces an eta-involution channel's own adversary strategy.
    """
    if isinstance(spec, Pure):
        return _PureState(spec.delay)
    if isinstance(spec, Inertial):
        return _InertialState(spec.delay, spec.window, initial_value)
    if isinstance(spec, EtaInvolution):
        source = EtaSource(strategy if strategy is not None else spec.strategy, spec.bounds)
        return _InvolutionState(spec.df, source)
    raise ChannelError(f"unknown channel spec {spec!r}")


def apply_channel(spec: ChannelSpec, s: Signal) -> tuple[Signal, list[TransitionRecord]]:
    """Channel function: map an input signal to the output signal plus a per-transition log."""
    state = channel_state(spec, s.initial_value)
    for tr in s.transitions:
        state.feed(tr.time, tr.value)
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
    with open(path, newline="") as fh:
        r = csv.reader(fh)
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
