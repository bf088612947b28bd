"""Worst-case pulse-train analysis of the storage-loop pulse filter.

For a feedback channel with delay pair (delta_up, delta_down) and adversary
budget [-eta_minus, +eta_plus], the loop admits a self-repeating worst-case
pulse train provided the budget satisfies

    (C)   eta_plus + eta_minus < delta_down(-eta_plus) - delta_min.

Its period is the smallest positive fixed point tau of

    delta_down(eta_plus - tau) + delta_up(-eta_minus - tau) = tau,

its up-time is Delta = delta_down(eta_plus - tau) < delta_min, and its duty
cycle is gamma = Delta / tau.  Under the shrink-worst adversary the up-times
of successive loop pulses follow the one-dimensional map

    f(D) = delta_down(D - eta_plus - delta_up(-D)) + D - eta_minus - eta_plus - delta_up(-D),

which is expansive above its fixed point with rate at least
a = 1 + delta_up'(0); the critical input width tilde_delta0 is where the
first loop pulse lands exactly on the fixed point.  Input pulses of width
at most delta_inf_up - delta_min - eta_plus - eta_minus are filtered, and
widths of at least delta_inf_up + eta_plus lock the loop to constant 1.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import asdict, dataclass
from typing import Sequence

from . import channel as ch
from .circuit import execute, or_loop_circuit
from .delay_model import (
    DelayFunction,
    DomainViolation,
    ExpChannelParams,
    InvalidParams,
    delta_min,
    derivative_up,
    exp_channel,
)
from .rootfind import bisect_root, scan_sign_change
from .signals import Signal, decompose_pulses, make_signal, pulse


class AnalysisError(ValueError):
    pass


class ConstraintCViolated(AnalysisError):
    pass


class NoSignChange(AnalysisError):
    pass


class SearchFailed(AnalysisError):
    pass


def constraint_C(df: DelayFunction, bounds: ch.EtaBounds) -> tuple[bool, float]:
    """Margin of the admissible-non-determinism constraint (holds iff margin > 0)."""
    if not -bounds.eta_plus > -df.delta_inf_up:
        raise DomainViolation(f"-eta_plus={-bounds.eta_plus} outside delta_down domain")
    margin = df.down(-bounds.eta_plus) - delta_min(df) - (bounds.eta_plus + bounds.eta_minus)
    return margin > 0, margin


def _tau_bracket(df: DelayFunction, bounds: ch.EtaBounds) -> tuple[float, float]:
    lo = bounds.eta_plus + delta_min(df)
    hi = min(df.delta_inf_down - bounds.eta_minus, df.delta_inf_up + bounds.eta_plus)
    return lo, hi


def solve_tau(df: DelayFunction, bounds: ch.EtaBounds) -> float:
    """Smallest positive fixed point of the period equation.

    Bisection inside the guaranteed bracket; a 1000-point scan below the
    bracket asserts no earlier root (and takes it, with a warning, if one
    shows up).

    The scan can never fire.  h(t) = delta_down(eta_plus - t) +
    delta_up(-eta_minus - t) - t is strictly decreasing wherever it is
    defined, for any pair of non-decreasing delay functions: both arguments
    fall as t grows, so both delays are non-increasing in t, and -t is
    strictly decreasing.  Hence h(lo) > 0, checked below, gives h(t) > 0 for
    every t < lo, and no root lies below the bracket.
    """
    holds, margin = constraint_C(df, bounds)
    if not holds:
        raise ConstraintCViolated(f"eta budget infeasible, margin={margin}")

    def h(t: float) -> float:
        return df.down(bounds.eta_plus - t) + df.up(-bounds.eta_minus - t) - t

    lo, hi = _tau_bracket(df, bounds)
    if not h(lo) > 0:
        raise NoSignChange(f"h({lo})={h(lo)} not positive at bracket start")
    if not h(hi) < 0:
        raise NoSignChange(f"h({hi})={h(hi)} not negative at bracket end")
    early = scan_sign_change(h, lo * 1e-6, lo, 1000)
    if early is not None:
        warnings.warn(f"period equation has a root below the bracket in {early}", stacklevel=2)
        return bisect_root(h, early[0], early[1])
    return bisect_root(h, lo, hi)


class Regime(enum.Enum):
    PASS_THROUGH = "pass_through"
    LOCK = "lock"
    CRITICAL = "critical"


@dataclass(frozen=True)
class PulseTrainCharacterization:
    """Worst-case train constants of one (delay pair, eta budget) combination."""

    tau_star: float
    delta_up: float
    period: float
    duty: float
    constraint_margin: float
    tilde_delta0: float
    growth_rate: float
    pass_below: float
    lock_above: float
    eta_minus: float
    eta_plus: float
    delta_min: float

    def to_dict(self) -> dict:
        return asdict(self)


def f_map(df: DelayFunction, bounds: ch.EtaBounds, delta_prev: float) -> float:
    """Next worst-case up-time given the previous one."""
    if not -delta_prev > -df.delta_inf_down:
        raise DomainViolation(f"delta_prev={delta_prev} outside delta_up domain")
    du = df.up(-delta_prev)
    arg = delta_prev - bounds.eta_plus - du
    if not arg > -df.delta_inf_up:
        raise DomainViolation(f"f-map argument {arg} outside delta_down domain")
    return df.down(arg) + delta_prev - bounds.eta_minus - bounds.eta_plus - du


def tilde_delta0(df: DelayFunction, bounds: ch.EtaBounds) -> float:
    """Critical input width: the unique root of g(D0) = Delta.

    g is the first-pulse map D1 = g(D0) under the shrink-worst adversary.
    """
    tau = solve_tau(df, bounds)
    delta = df.down(bounds.eta_plus - tau)
    dinf = df.delta_inf_up
    dmin = delta_min(df)

    def g(d0: float) -> float:
        return df.down(d0 - bounds.eta_plus - dinf) + d0 - bounds.eta_minus - bounds.eta_plus - dinf

    lo = bounds.eta_plus + dinf - dmin
    hi = bounds.eta_minus + bounds.eta_plus + dinf
    return bisect_root(lambda x: g(x) - delta, lo, hi)


def characterize(df: DelayFunction, bounds: ch.EtaBounds) -> PulseTrainCharacterization:
    """All worst-case train constants, with the lemma invariants asserted."""
    holds, margin = constraint_C(df, bounds)
    if not holds:
        raise ConstraintCViolated(f"eta budget infeasible, margin={margin}")
    dmin = delta_min(df)
    tau = solve_tau(df, bounds)
    lo, hi = _tau_bracket(df, bounds)
    if not lo < tau < hi:
        raise AnalysisError(f"tau={tau} escaped its bracket ({lo}, {hi})")
    delta = df.down(bounds.eta_plus - tau)
    if not delta < dmin:
        raise AnalysisError(f"Delta={delta} not below delta_min={dmin}")
    duty = delta / tau
    if not duty < 1:
        raise AnalysisError(f"duty={duty} not below 1")
    # consistency: the period also equals delta_up(-Delta) + eta_plus
    alt_period = df.up(-delta) + bounds.eta_plus
    if abs(alt_period - tau) > 1e-8:
        warnings.warn(f"period identity residual {abs(alt_period - tau)}", stacklevel=2)
    return PulseTrainCharacterization(
        tau_star=tau,
        delta_up=delta,
        period=tau,
        duty=duty,
        constraint_margin=margin,
        tilde_delta0=tilde_delta0(df, bounds),
        growth_rate=1.0 + derivative_up(df, 0.0),
        pass_below=df.delta_inf_up - dmin - bounds.eta_plus - bounds.eta_minus,
        lock_above=df.delta_inf_up + bounds.eta_plus,
        eta_minus=bounds.eta_minus,
        eta_plus=bounds.eta_plus,
        delta_min=dmin,
    )


def classify_pulse(char: PulseTrainCharacterization, delta0: float) -> Regime:
    """Regime of an input pulse width against the lock/pass thresholds."""
    if delta0 >= char.lock_above:
        return Regime.LOCK
    if delta0 <= char.pass_below:
        return Regime.PASS_THROUGH
    return Regime.CRITICAL


def _periodic_train(up: float, period: float, count: int) -> Signal:
    transitions = []
    for n in range(count):
        transitions.append((n * period, 1))
        transitions.append((n * period + up, 0))
    return make_signal(0, transitions)


def _filters_to_zero(params: ExpChannelParams, stimulus: Signal) -> bool:
    out, _ = ch.apply_channel(ch.Involution(exp_channel(params)), stimulus)
    return out.is_zero


_MAX_DOUBLINGS = 40  # of the RC constant in dimension_ht_buffer's search


def dimension_ht_buffer(theta: float, gamma_cap: float) -> ExpChannelParams:
    """Exp-channel parameters that filter every pulse train with up-times
    at most ``theta`` and duty cycles at most ``gamma_cap``.

    The threshold is pinned above the duty cap at (1 + gamma_cap)/2 and the
    RC constant grows by doubling until direct simulation confirms that the
    worst-case periodic train and the single theta-pulse map to the zero
    signal while a step input still produces a rising transition.
    """
    if not theta > 0:
        raise InvalidParams(f"theta must be > 0, got {theta}")
    if not 0 <= gamma_cap < 1:
        raise InvalidParams(f"gamma_cap must lie in [0, 1), got {gamma_cap}")
    vth = (1.0 + gamma_cap) / 2.0
    t_p = theta / 10.0
    step = make_signal(0, [(0.0, 1)])
    tau_rc = theta
    for _ in range(_MAX_DOUBLINGS):
        params = ExpChannelParams(tau_rc, t_p, vth)
        ok = _filters_to_zero(params, pulse(0.0, theta))
        if ok and gamma_cap > 0:
            for up in (theta, theta / 2.0):
                ok = ok and _filters_to_zero(params, _periodic_train(up, up / gamma_cap, 60))
        if ok:
            out, _ = ch.apply_channel(ch.Involution(exp_channel(params)), step)
            ok = len(out.times) == 1 and out.initial_value == 0  # one rising edge
        if ok:
            return params
        tau_rc *= 2.0
    raise SearchFailed(f"no filtering exp-channel found after {_MAX_DOUBLINGS} doublings")


@dataclass
class SpfVerdict:
    f2_pass: bool
    f3_pass: bool
    f4_pass: bool
    f4_witnesses: list[tuple[int, str, float, float]]  # (run index, interval kind, start, length)

    @property
    def ok(self) -> bool:
        return self.f2_pass and self.f3_pass and self.f4_pass


def spf_check(
    outputs: Sequence[Signal],
    inputs_tested: Sequence[float | None],
    epsilon: float,
) -> SpfVerdict:
    """Check the pulse-filtration contract over a sweep of runs.

    ``inputs_tested[i]`` is the input pulse width of run i, or None for the
    zero-input run.  No generation: zero input gives zero output.
    Nontriviality: some input produces a non-zero output.  No short pulses:
    no output may contain an up- or down-interval shorter than ``epsilon``
    between transitions.
    """
    f2 = True
    f3 = False
    witnesses: list[tuple[int, str, float, float]] = []
    for i, (out, d0) in enumerate(zip(outputs, inputs_tested)):
        if d0 is None:
            f2 = f2 and out.is_zero
            continue
        if not out.is_zero:
            f3 = True
        ts = out.times
        for k, (a, b) in enumerate(zip(ts, ts[1:]), start=1):
            gap = b - a
            if gap < epsilon:
                kind = "up" if out.initial_value ^ k & 1 else "down"  # the k-th transition's value
                witnesses.append((i, kind, a, gap))
    return SpfVerdict(f2, f3, not witnesses, witnesses)


@dataclass
class SweepPoint:
    delta0: float | None
    strategy_label: str
    seed: int | None
    regime: str
    pulses_observed: int
    resolved_to: str
    stabilization_time: float
    or_signal: Signal
    out_signal: Signal


def run_spf_sweep(
    df: DelayFunction,
    bounds: ch.EtaBounds,
    char: PulseTrainCharacterization,
    ht_params: ExpChannelParams | None,
    delta0_grid: Sequence[float],
    strategies: dict[str, ch.AdversaryStrategy],
    *,
    horizon: float = 60.0,
    events_max: int = 10**6,
) -> list[SweepPoint]:
    """Execute the storage-loop circuit over a grid of input widths.

    One run per (width, strategy), plus one zero-input run per strategy that
    carries delta0=None.  The runs of a strategy share one circuit, whose
    loop channel ``c`` carries that strategy.  ``char`` is
    ``characterize(df, bounds)``, which classifies each width.
    """
    points: list[SweepPoint] = []
    for label, strategy in strategies.items():
        circuit = or_loop_circuit(ch.EtaInvolution(df, bounds, strategy), ht_params)
        seed = strategy.seed if isinstance(strategy, ch.UniformRandom) else None
        for delta0 in [None, *delta0_grid]:
            stimulus = make_signal(0, []) if delta0 is None else pulse(0.0, delta0)
            e = execute(circuit, {"i": stimulus}, horizon, events_max=events_max)
            or_sig, out_sig = e.vertex_signals["or1"], e.vertex_signals["o"]
            loop_pulses = max(0, len(decompose_pulses(or_sig, horizon)) - 1)
            resolved = "osc" if "c" in e.active_at_horizon or not e.stabilized["o"] else str(e.resolved_value["o"])
            regime = classify_pulse(char, delta0).value if delta0 is not None else "zero"
            points.append(
                SweepPoint(delta0, label, seed, regime, loop_pulses, resolved, or_sig.last_time(), or_sig, out_sig)
            )
    return points
