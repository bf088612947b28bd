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
import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channel import Involution, apply_channel
from .delay_model import DelayFunction, ExpChannelParams, InvalidParams, delta_min
from .signals import Signal, make_signal


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


def _charging_trajectory(tau: float, disturbance: Disturbance, rng: np.random.Generator | None):
    """The particular solution vp(t, xp) of the node driven high toward the (possibly disturbed) rail.

    A rising segment from (t0, v0) follows v(t) = vp(t) + (v0 - vp(t0)) e^{-(t-t0)/tau}.
    ``xp`` is ``math`` for a float ``t`` or ``numpy`` for an array of times.
    A disturbed rail draws its phase from ``rng``, once per call; an
    undisturbed one leaves ``rng`` untouched.
    """
    a = disturbance.amplitude_fraction
    if a == 0.0:
        return lambda t, xp=math: 1.0
    if rng is None:
        raise WaveformError("a disturbed rail draws its phase from an rng")
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    omega = 2.0 * math.pi / disturbance.period
    denom = 1.0 + (omega * tau) ** 2
    alpha = a / denom
    beta = -a * omega * tau / denom

    def vp(t, xp=math):
        th = omega * t + phase
        return 1.0 + alpha * xp.sin(th) + beta * xp.cos(th)

    return vp


# numpy and math may round sin/cos/exp differently in the last bit, so a grid
# value this close to the threshold is recomputed with math before its sign
# is read; the trajectory and threshold are O(1), so the gap is far below it.
_SIGN_GUARD = 1e-9


def synth_crossings(
    params: ExpChannelParams,
    disturbance: Disturbance,
    stimulus: Signal,
    horizon: float,
    rng: np.random.Generator | None = None,
) -> list[tuple[float, int]]:
    """Threshold crossings of the RC node driven by ``stimulus`` up to ``horizon``.

    The node has time constant ``params.tau`` and threshold
    ``params.vth_norm``, and its drive follows the input ``params.t_p``
    later: with an undisturbed rail it realizes exactly the exp-channel of
    ``params``.  Rising segments charge toward the disturbed rail, falling
    segments discharge toward undisturbed ground.  Each segment's trajectory
    is evaluated on a uniform grid; neighbouring grid points on opposite
    sides of the threshold (a point on it counts as above) bracket a
    crossing, which scalar bisection on the analytic trajectory then
    locates.  Above amplitude 0 the rail's phase is drawn once from ``rng``.
    Each crossing is a (time, value) pair, value 1 upward and 0 downward,
    the pairs that ``Signal(initial_value, pairs)`` reads.
    """
    tau = params.tau
    vth = params.vth_norm
    vp = _charging_trajectory(tau, disturbance, rng)

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

    crossings: list[tuple[float, int]] = []
    v0 = float(stimulus.initial_value)
    for seg_start, seg_end, seg_drive in segments:
        if seg_drive:
            offset = v0 - vp(seg_start)

            def v(t, xp=math, _o=offset, _s=seg_start):
                return vp(t, xp) + _o * xp.exp(-(t - _s) / tau)

        else:
            def v(t, xp=math, _v0=v0, _s=seg_start):
                return _v0 * xp.exp(-(t - _s) / tau)

        dt_cap = tau / 50.0
        if disturbance.amplitude_fraction > 0.0:
            dt_cap = min(dt_cap, disturbance.period / 50.0)
        n = max(8, math.ceil(min(20000.0, (seg_end - seg_start) / dt_cap)))  # min first: the ratio may be inf
        ts = np.linspace(seg_start, seg_end, n + 1)
        s = v(ts, np) - vth
        for k in np.flatnonzero(np.abs(s) <= _SIGN_GUARD):
            s[k] = v(float(ts[k])) - vth
        above = s >= 0
        for k in np.flatnonzero(above[:-1] != above[1:]):
            rising = bool(above[k + 1])
            lo, hi = float(ts[k]), float(ts[k + 1])
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if ((v(mid) - vth) > 0) != rising:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-14:
                    break
            crossings.append((0.5 * (lo + hi), int(rising)))
        v0 = v(seg_end)
    return crossings


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

    One residual per delay value, up before down within a sample row.  The
    model value at T is tau ln(1 - e^{-z}) + d_inf_self with
    z = (T + d_inf_other) / tau; a value with z <= 0 lies outside the model's
    domain and gets the constant penalty 1e3 (1 + |T|).
    """

    def __init__(self, samples: Sequence[tuple[float, float | None, float | None]]):
        T, delay, side = [], [], []
        for t, du, dd in samples:
            for k, d in enumerate((du, dd)):
                if d is not None:
                    T.append(t)
                    delay.append(d)
                    side.append(k)
        self.T = np.array(T, dtype=float)
        self.delay = np.array(delay, dtype=float)
        self.side = np.array(side, dtype=np.intp)  # 0: an up delay, 1: a down delay
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


def fit_exp_channel(samples: Sequence[tuple[float, float | None, float | None]]) -> ExpFit:
    """Least-squares fit of (tau, t_p, vth) to delay samples.

    ``samples`` rows are (T, delta_up or None, delta_down or None); up and
    down residuals are weighted equally.  Bounded Levenberg-Marquardt with the
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
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["edge", "T", "D", "covered", "delay"])
        for s in result.samples:
            edge = "rising" if s.value else "falling"
            w.writerow([edge, repr(s.T), repr(s.D), int(result.covered(s)), repr(s.delay)])


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
