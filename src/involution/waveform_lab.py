"""Desk-scale analog surrogate for delay-model calibration experiments.

A first-order RC node is driven by the (pure-delay shifted) input signal:
it charges toward the supply rail when the drive is high and discharges
toward ground when low.  Digital transitions are the threshold crossings of
the node voltage.  With an undisturbed rail this physics generates exactly
the exp-channel delay pair, which makes the surrogate the master oracle for
the channel algorithm; adding a small sine disturbance on the rail yields
realistic jitter whose deviations from the model prediction feed the
eta-budget coverage analysis.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channel import Involution, apply_channel
from .delay_model import DelayFunction, ExpChannelParams, InvalidParams, delta_min
from .signals import Signal, make_signal, write_csv


class WaveformError(ValueError):
    pass


class EtaBudgetInvalid(WaveformError):
    pass


class FitDiverged(WaveformError):
    pass


@dataclass(frozen=True)
class Disturbance:
    """Sinusoidal supply-rail disturbance; above amplitude 0 each stimulus draws its phase."""

    amplitude_fraction: float = 0.0
    period: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude_fraction <= 0.2:
            raise InvalidParams(f"amplitude_fraction must lie in [0, 0.2], got {self.amplitude_fraction}")
        if not self.period > 0:
            raise InvalidParams(f"period must be > 0, got {self.period}")


@dataclass(frozen=True)
class DeviationSample:
    """One predicted transition paired with its reference crossing.

    ``value`` is the transition's value bit (1 rising, 0 falling); ``D`` is
    predicted minus actual output time; ``delay`` is the measured delay,
    crossing time minus input time, the fit's data point at ``T``.
    """

    T: float
    D: float
    value: int
    delay: float


# numpy and math may round sin/cos/exp differently in the last bit, so a grid
# value this close to the threshold is recomputed with math before its sign
# is read; the trajectory and threshold are O(1), so the gap is far below it.
# A charging segment's scan stops at its first grid point at or past t*, after
# which the node stays at least twice this guard above the threshold (see
# _scan_disturbed).
_SIGN_GUARD = 1e-9

# the charging segments on a disturbed rail are read on their grids in numpy,
# all stimuli together, in chunks of about this many points to bound the memory
_SCAN_CHUNK = 8192


def _charging_value(t: float, phase: float, offset: float, start: float, rail: tuple) -> float:
    """vp(t) + offset e^{-(t-start)/tau}: the node at ``t`` as it charges toward the rail (omega, alpha, beta, tau)."""
    omega, alpha, beta, tau = rail
    th = omega * t + phase
    return 1.0 + alpha * math.sin(th) + beta * math.cos(th) + offset * math.exp(-(t - start) / tau)


def _bisect_crossing(
    lo: float, hi: float, rising: bool, phase: float, offset: float, start: float, vth: float, rail: tuple
) -> tuple[float, int]:
    """The crossing through ``vth`` of the charging segment (phase, offset, start) in the grid cell [lo, hi].

    Returns a (time, value) pair.  Each step evaluates ``_charging_value``'s
    expression, written out so that a step makes no call.
    """
    omega, alpha, beta, tau = rail
    sin, cos, exp = math.sin, math.cos, math.exp
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # no float lies between them: the bracket cannot shrink, and its midpoint is mid
            return mid, int(rising)
        th = omega * mid + phase
        if ((1.0 + alpha * sin(th) + beta * cos(th) + offset * exp(-(mid - start) / tau) - vth) > 0) != rising:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14:
            break
    return 0.5 * (lo + hi), int(rising)


def _scan_disturbed(scans: list, vth: float, rail: tuple) -> None:
    """Append each scan's crossings to its list; a scan is (start, end, num, phase, offset v0 - vp(start), list).

    A scan's grid is linspace(start, end, num), read up to its first point at
    or past t*.  With A = hypot(alpha, beta) the node satisfies
    v(t) >= 1 - A - |offset| e^{-(t-start)/tau}, so from
    t* = start + tau ln(|offset| / (1 - A - vth - 2 _SIGN_GUARD)) on it lies at
    least 2 _SIGN_GUARD above vth: no later point changes side or falls within
    the guard.  Where that denominator is not positive, vth lies within the
    rail's ripple and the whole grid is read.  The cut is checked on t - start,
    the difference the node's value is computed from.  The grid points are
    linspace's, i * step + start with the last one the end, bit for bit; a grid
    whose step underflows to 0 is linspace's own.  A chunk holds the scans
    whose first point lies in one block of _SCAN_CHUNK points of all the read
    grids laid end to end.
    """
    omega, alpha, beta, tau = rail
    starts, ends_t, nums, phases, offsets, found = zip(*scans)
    start, end, num, offset = np.array(starts), np.array(ends_t), np.array(nums), np.array(offsets)
    step = (end - start) / (num - 1)
    keep = num  # the points read of each grid
    room = 1.0 - math.hypot(alpha, beta) - vth - 2.0 * _SIGN_GUARD
    if room > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):  # offset 0 cuts at -inf; step 0 cuts nothing
            d_star = tau * np.log(np.abs(offset) / room)  # t* - start
            last = np.clip(np.ceil(d_star / step), 0, num - 1)
            cut = (step > 0) & ((last * step + start) - start >= d_star)
        keep = np.where(cut, last + 1, num).astype(np.intp)

    firsts = np.cumsum(keep) - keep
    bounds = [0, *(np.flatnonzero(np.diff(firsts // _SCAN_CHUNK)) + 1).tolist(), len(scans)]
    for a, b in zip(bounds, bounds[1:]):
        k = keep[a:b]
        ends = np.cumsum(k)
        begin = ends - k
        t0 = np.repeat(start[a:b], k)
        ts = (np.arange(ends[-1], dtype=float) - np.repeat(begin, k)) * np.repeat(step[a:b], k) + t0
        whole = k == num[a:b]
        ts[ends[whole] - 1] = end[a:b][whole]
        for j in np.flatnonzero(step[a:b] == 0.0).tolist():
            ts[begin[j] : ends[j]] = np.linspace(starts[a + j], ends_t[a + j], nums[a + j])
        th = omega * ts + np.repeat(phases[a:b], k)
        s = 1.0 + alpha * np.sin(th) + beta * np.cos(th)
        s += np.repeat(offset[a:b], k) * np.exp(-(ts - t0) / tau)
        s -= vth
        for q in np.flatnonzero(np.abs(s) <= _SIGN_GUARD).tolist():
            j = a + bisect.bisect_right(ends, q)
            s[q] = _charging_value(float(ts[q]), phases[j], offsets[j], starts[j], rail) - vth
        above = s >= 0
        change = above[:-1] != above[1:]
        change[ends[:-1] - 1] = False  # the last point of one grid and the first of the next
        qs = np.flatnonzero(change)
        js = (np.searchsorted(ends, qs, side="right") + a).tolist()
        for j, lo, hi, rising in zip(js, ts[qs].tolist(), ts[qs + 1].tolist(), above[qs + 1].tolist()):
            found[j].append(_bisect_crossing(lo, hi, rising, phases[j], offsets[j], starts[j], vth, rail))


def synth_crossings(
    params: ExpChannelParams,
    disturbance: Disturbance,
    stimuli: Sequence[Signal],
    horizon: float,
    rng: np.random.Generator | None = None,
) -> list[list[tuple[float, int]]]:
    """Threshold crossings of the RC node driven by each of ``stimuli`` up to ``horizon``, one list per stimulus.

    The node has time constant ``params.tau`` and threshold
    ``params.vth_norm``, and its drive follows the input ``params.t_p``
    later: with an undisturbed rail it realizes exactly the exp-channel of
    ``params``.  Rising segments charge toward the disturbed rail, falling
    segments discharge toward undisturbed ground.  A monotone segment
    (discharging, or charging on an undisturbed rail) whose ends lie on
    opposite sides of the threshold (a point on it counts as above) crosses
    at the closed form t0 + tau ln((v0 - vp) / (vth - vp)), clamped to it.
    A disturbed charging segment is bracketed on a uniform grid and bisected.
    Its grid is read only up to its first point at or past
    t* = t0 + tau ln(|v0 - vp(t0)| / (1 - A - vth - 2 _SIGN_GUARD)), with A
    the amplitude of vp's ripple about 1, after which the node stays above
    the threshold; with the threshold inside the ripple (a denominator that
    is not positive) it is read in whole.  Above amplitude 0 each stimulus
    draws its rail's phase from ``rng``, in order.  Crossings are (time, value) pairs, value 1 upward, as
    ``Signal(initial_value, pairs)`` reads them.  A disturbed rail's period
    below 2*pi*max(tau, horizon)/2**53, or a tau whose grid step tau/50
    underflows, raises :class:`WaveformError`.
    """
    tau, vth, a = params.tau, params.vth_norm, disturbance.amplitude_fraction
    dt_cap = tau / 50.0  # the largest grid step
    if not dt_cap > 0.0:
        raise WaveformError(f"tau={tau!r} is too short for the surrogate's grid: its step tau/50 underflows to 0")
    if a > 0.0:
        period = disturbance.period
        # a float resolves the rail's phase 2*pi*t/period only below 2**53; the
        # rule also keeps (omega * tau)**2, every phase up to the horizon and
        # period / 50 finite and non-zero
        if not 2.0 * math.pi / period * max(tau, horizon) <= 2.0**53:
            raise WaveformError(
                f"--period {period!r} is too short for tau={tau!r} and horizon={horizon!r}:"
                " the disturbance period must be at least 2*pi*max(tau, horizon)/2**53"
            )
        dt_cap = min(dt_cap, period / 50.0)
        if rng is None:
            raise WaveformError("a disturbed rail draws its phase from an rng")
        # the charging node's particular solution vp(t) = 1 + alpha sin(omega t + phase) + beta cos(omega t + phase)
        omega = 2.0 * math.pi / period
        denom = 1.0 + (omega * tau) ** 2
        alpha, beta = a / denom, -a * omega * tau / denom
        rail = (omega, alpha, beta, tau)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=len(stimuli)).tolist()
    else:
        phases = itertools.repeat(0.0)

    per_stimulus = []  # per stimulus, one crossing list per segment
    scans = []  # the charging segments on a disturbed rail
    for stimulus, phase in zip(stimuli, phases):
        # drive switch times: input transitions shifted by the pure delay
        segments = []
        drive = stimulus.initial_value
        t0 = 0.0
        for t in stimulus.times:
            t_sw = t + params.t_p
            if t_sw > horizon:
                break
            if t_sw > t0:
                segments.append((t0, t_sw, drive))
            t0, drive = t_sw, 1 - drive
        if t0 < horizon:
            segments.append((t0, horizon, drive))

        founds: list[list[tuple[float, int]]] = []
        v0 = float(stimulus.initial_value)
        for seg_start, seg_end, seg_drive in segments:
            found: list[tuple[float, int]] = []
            founds.append(found)
            if seg_drive and a > 0.0:
                # a rising segment from (t0, v0) follows v(t) = vp(t) + (v0 - vp(t0)) e^{-(t-t0)/tau}
                n = max(8, math.ceil(min(20000.0, (seg_end - seg_start) / dt_cap)))  # min first: the ratio may be inf
                th = omega * seg_start + phase
                offset = v0 - (1.0 + alpha * math.sin(th) + beta * math.cos(th))
                scans.append((seg_start, seg_end, n + 1, phase, offset, found))
                v0 = _charging_value(seg_end, phase, offset, seg_start, rail)
            else:
                # v(t) = vp + (v0 - vp) e^{-(t-t0)/tau}, vp the drive itself, 0 or the undisturbed rail 1
                o = v0 - seg_drive
                first = seg_drive + o >= vth
                v0 = seg_drive + o * math.exp(-(seg_end - seg_start) / tau)
                if (v0 >= vth) != first:
                    t = seg_start + tau * math.log(o / (vth - seg_drive))
                    found.append((min(max(t, seg_start), seg_end), int(not first)))
        per_stimulus.append(founds)
    if scans:
        _scan_disturbed(scans, vth, rail)
    return [[c for found in founds for c in found] for founds in per_stimulus]


def calibration_stimuli(df: DelayFunction) -> list[Signal]:
    """Two-pulse stimuli spanning a range of previous-output-to-input delays."""
    dmin = delta_min(df)
    dinf = df.delta_inf_up
    if not math.isfinite(10.0 * dinf):  # the last transition lies below 9.5 dinf
        raise WaveformError(f"delta_inf_up={dinf} is too large for the calibration train")
    stimuli = []
    widths = np.linspace(1.2 * dinf, 4.0 * dinf, 12)
    gaps = np.linspace(0.3 * dmin, 4.0 * dinf, 12)
    if widths[-1] + gaps[0] == widths[-1]:
        raise WaveformError(
            f"--t-p={dmin} is too small next to delta_inf_up={dinf}: "
            "the calibration train's gaps vanish beside its pulse widths"
        )
    for w in widths:
        for g in gaps:
            w2 = 1.5 * dinf
            stimuli.append(
                make_signal(0, [(0.0, 1), (w, 0), (w + g, 1), (w + g + w2, 0)])
            )
    return stimuli


@dataclass
class DeviationResult:
    """Deviation samples judged against one eta budget [-eta_minus, +eta_plus]."""

    samples: list[DeviationSample]
    eta_minus: float
    eta_plus: float

    def covered(self, s: DeviationSample) -> bool:
        return -self.eta_minus <= s.D <= self.eta_plus

    @property
    def coverage(self) -> float:
        """Fraction of covered samples; 1 when there are none."""
        return sum(map(self.covered, self.samples)) / len(self.samples) if self.samples else 1.0


def eta_minus_for(df: DelayFunction, eta_plus: float) -> float:
    """Budget-exhausting eta_minus := delta_down(-eta_plus) - delta_min - eta_plus."""
    em = df.down(-eta_plus) - delta_min(df) - eta_plus
    if em < 0:
        raise EtaBudgetInvalid(f"eta_plus={eta_plus} leaves a negative eta_minus={em}")
    return em


def deviation_analysis(
    stimulus: Signal,
    reference_crossings: Sequence[tuple[float, int]],
    df: DelayFunction,
) -> list[DeviationSample]:
    """Deviation D = predicted - actual per transition.

    Predictions come from the channel algorithm on the same stimulus.  In
    log order, each prediction is paired with the nearest unused reference
    crossing of its value within delta_min/2, the later one in time on
    equal gaps, so the order of ``reference_crossings`` does not matter;
    predictions or crossings left without a partner are dropped.
    """
    _, log = apply_channel(Involution(df), stimulus)
    window = delta_min(df) / 2.0

    unused = [sorted(t for t, v in reference_crossings if v == value) for value in (0, 1)]
    samples: list[DeviationSample] = []
    for rec in log:
        if rec.canceled:
            continue
        times, p = unused[rec.value], rec.out_time
        # the nearest unused crossings are the neighbours times[i - 1] < p <= times[i]
        i = bisect.bisect_left(times, p)
        left = p - times[i - 1] if i > 0 else math.inf
        right = times[i] - p if i < len(times) else math.inf
        if min(left, right) > window:
            continue
        t_c = times.pop(i if right <= left else i - 1)
        samples.append(DeviationSample(rec.T, p - t_c, rec.value, t_c - rec.time))
    return samples


def bin_coverage(result: DeviationResult) -> list[tuple[float, float, int, float]]:
    """Coverage per T-quartile bin: list of (T_lo, T_hi, count, coverage).

    Samples with infinite T (first transitions after an idle channel) are
    excluded from the binning; without a finite T the list is empty.
    """
    finite = [s for s in result.samples if math.isfinite(s.T)]
    if not finite:
        return []
    ts = np.array([s.T for s in finite])
    edges = np.quantile(ts, np.linspace(0.0, 1.0, 5))
    out = []
    for k in range(4):
        lo, hi = float(edges[k]), float(edges[k + 1])
        if k < 3:
            members = [s for s in finite if lo <= s.T < hi]
        else:
            members = [s for s in finite if lo <= s.T <= hi]
        if not members:
            out.append((lo, hi, 0, 1.0))
            continue
        out.append((lo, hi, len(members), sum(map(result.covered, members)) / len(members)))
    return out


class _DelayResiduals:
    """Residuals of the exp pair against delay samples, and their Jacobian in (tau, t_p, vth).

    One residual per ``(T, delay, value)`` sample, in sample order.  The
    model value at T is tau ln(1 - e^{-z}) + d_inf_self with
    z = (T + d_inf_other) / tau; a value with z <= 0 lies outside the model's
    domain and gets the constant penalty 1e3 (1 + |T|).
    """

    def __init__(self, samples: Sequence[tuple[float, float, int]]):
        self.T, self.delay, value = np.array(samples, dtype=float).reshape(-1, 3).T.copy()
        self.side = (1 - value).astype(np.intp)  # 0: an up delay, 1: a down delay
        self.penalty = 1e3 * (1.0 + np.abs(self.T))

    def _z(self, x):
        """tau, vth, the (up, down) asymptotes, the in-domain value mask and z there."""
        tau, t_p, vth = (float(v) for v in x)
        d_inf = np.array([t_p - tau * math.log(1.0 - vth), t_p - tau * math.log(vth)])
        z = (self.T + d_inf[1 - self.side]) / tau
        inside = z > 0
        return tau, vth, d_inf, inside, z[inside]

    def __call__(self, x) -> np.ndarray:
        tau, _, d_inf, inside, z = self._z(x)
        r = self.penalty.copy()
        r[inside] = tau * np.log1p(-np.exp(-z)) + d_inf[self.side[inside]] - self.delay[inside]
        return r

    def jacobian(self, x) -> np.ndarray:
        """d/d(tau, t_p, vth) of each residual; with q = e^{-z}, d/dz ln(1 - q) = q / (1 - q)."""
        tau, vth, _, inside, z = self._z(x)
        d_tau = np.array([-math.log(1.0 - vth), -math.log(vth)])  # of (d_inf_up, d_inf_down)
        d_vth = np.array([tau / (1.0 - vth), -tau / vth])
        own, other = self.side[inside], 1 - self.side[inside]
        q = np.exp(-z)
        g = q / (1.0 - q)
        jac = np.zeros((len(self.T), 3))
        jac[inside, 0] = np.log1p(-q) + g * (d_tau[other] - z) + d_tau[own]
        jac[inside, 1] = g + 1.0
        jac[inside, 2] = g * d_vth[other] + d_vth[own]
        return jac


class ExpFit(NamedTuple):
    """A fitted exp-channel, its RMS residual and the residual evaluations over all starts."""

    params: ExpChannelParams
    rms: float
    nfev: int


def _fit_starts(residuals: _DelayResiduals) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Bounds (lo, hi) on (tau, t_p, vth) and three starts, all scaled by the median delay magnitude."""
    med = float(np.median(np.abs(residuals.delay)))
    if not med > 0.0:  # all delays zero, or one is NaN
        med = 1.0
    lo = np.array([1e-3 * med, 1e-3 * med, 0.05])
    hi = np.array([1e3 * med, 1e3 * med, 0.95])
    return lo, hi, [np.array([med, 0.3 * med, v]) for v in (0.3, 0.5, 0.7)]


# Levenberg-Marquardt stopping rules: a start has converged when the damped
# step predicts a cost decrease of at most _LM_FTOL of the cost, or when the
# damping reaches _LM_DAMPING_MAX without a step that lowers the cost; it stops
# after _LM_STEPS accepted steps in any case.
_LM_FTOL = 1e-12
_LM_DAMPING_MAX = 1e12
_LM_STEPS = 200


def _levenberg_marquardt(residuals: _DelayResiduals, x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Projected Levenberg-Marquardt descent from ``x`` within [lo, hi] (More 1978).

    Each step solves the 3x3 normal equations (J^T J + mu diag(J^T J)) p = -J^T r
    and clips x + p to the bounds; a step that does not lower the cost is
    retried with ten times the damping mu, an accepted one divides mu by ten.
    Returns (x, cost, nfev) with cost = |r|^2 / 2, or (None, inf, nfev) when
    the residuals at the start are not finite or a step's solve fails.
    """
    r = residuals(x)
    nfev = 1
    if not np.all(np.isfinite(r)):
        return None, math.inf, nfev
    cost = 0.5 * float(r @ r)
    mu = 1e-3
    for _ in range(_LM_STEPS):
        jac = residuals.jacobian(x)
        a, g = jac.T @ jac, jac.T @ r
        while True:
            try:
                p = np.linalg.solve(a + mu * np.diag(np.diag(a)), -g)
            except np.linalg.LinAlgError:
                return None, math.inf, nfev
            predicted = -float(g @ p) - 0.5 * float(p @ a @ p)
            if not predicted > _LM_FTOL * cost:
                return x, cost, nfev
            x_new = np.clip(x + p, lo, hi)
            r_new = residuals(x_new)
            nfev += 1
            cost_new = 0.5 * float(r_new @ r_new)
            if cost_new < cost:
                break
            mu *= 10.0
            if mu > _LM_DAMPING_MAX:
                return x, cost, nfev
        x, r, cost = x_new, r_new, cost_new
        mu /= 10.0
    return x, cost, nfev


def fit_exp_channel(samples: Sequence[tuple[float, float, int]]) -> ExpFit:
    """Least-squares fit of (tau, t_p, vth) to delay samples.

    ``samples`` are (T, delay, value) triples, value 1 a delta_up delay and 0
    a delta_down delay, as ``read_delay_samples`` returns them; up and down
    residuals are weighted equally.  Bounded Levenberg-Marquardt with the
    analytic Jacobian from each of the three starts of ``_fit_starts``; a start
    whose residuals are not finite or whose step solve fails is skipped.
    Returns the best parameters, their RMS residual and the residual
    evaluations made.
    """
    residuals = _DelayResiduals(samples)
    n_vals = len(residuals.delay)
    if n_vals < 5:
        raise FitDiverged(f"need at least 5 delay values, got {n_vals}")
    lo, hi, starts = _fit_starts(residuals)
    best_x, best_cost, nfev = None, math.inf, 0
    for x0 in starts:
        x, cost, n = _levenberg_marquardt(residuals, x0, lo, hi)
        nfev += n
        if x is not None and cost < best_cost:
            best_x, best_cost = x, cost
    if best_x is None:
        raise FitDiverged("no fit start converged")
    tau, t_p, vth = (float(v) for v in best_x)
    return ExpFit(ExpChannelParams(tau, t_p, vth), math.sqrt(2.0 * best_cost / n_vals), nfev)


# deviation CSV: header "edge,T,D,covered,delay"; fit report JSON.

def write_deviation_csv(path, result: DeviationResult) -> None:
    rows = (
        ["rising" if s.value else "falling", repr(s.T), repr(s.D), int(result.covered(s)), repr(s.delay)]
        for s in result.samples
    )
    write_csv(path, ["edge", "T", "D", "covered", "delay"], rows)


def write_fit_report(path, fit: ExpFit, n_samples: int) -> None:
    with open(path, "w") as fh:
        json.dump(
            {
                "tau": fit.params.tau,
                "t_p": fit.params.t_p,
                "vth_norm": fit.params.vth_norm,
                "rms_residual": fit.rms,
                "sample_count": n_samples,
                "nfev": fit.nfev,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
