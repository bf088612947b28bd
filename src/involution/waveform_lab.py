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

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import Involution, apply_channel
from .delay_model import DelayFunction, ExpChannelParams, InvalidParams, delta_min
from .signals import Signal


class WaveformError(ValueError):
    pass


class EtaBudgetInvalid(WaveformError):
    pass


class FitDiverged(WaveformError):
    pass


@dataclass(frozen=True)
class Disturbance:
    """Sinusoidal supply-rail disturbance; ``phase=None`` means draw per stimulus."""

    amplitude_fraction: float = 0.0
    period: float = 1.0
    phase: float | None = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude_fraction <= 0.2:
            raise InvalidParams(f"amplitude_fraction must lie in [0, 0.2], got {self.amplitude_fraction}")
        if not self.period > 0:
            raise InvalidParams(f"period must be > 0, got {self.period}")


@dataclass(frozen=True)
class RcSurrogateParams:
    tau_rc: float
    vth_norm: float
    pure_delay: float
    vdd_disturbance: Disturbance = Disturbance()

    def __post_init__(self) -> None:
        if not self.tau_rc > 0:
            raise InvalidParams(f"tau_rc must be > 0, got {self.tau_rc}")
        if not 0 < self.vth_norm < 1:
            raise InvalidParams(f"vth_norm must lie in (0,1), got {self.vth_norm}")
        if self.pure_delay < 0:
            raise InvalidParams(f"pure_delay must be >= 0, got {self.pure_delay}")

    def matching_exp_channel(self) -> ExpChannelParams:
        """The exp-channel this surrogate realizes when the rail is undisturbed."""
        return ExpChannelParams(self.tau_rc, self.pure_delay, self.vth_norm)


@dataclass(frozen=True)
class DeviationSample:
    """One predicted transition paired with its reference crossing.

    ``D`` is predicted minus actual output time; ``delay`` is the measured
    delay, crossing time minus input time, the fit's data point at ``T``.
    """

    T: float
    D: float
    edge: str
    delay: float


def _charging_trajectory(params: RcSurrogateParams, phase: float):
    """The particular solution vp(t) of the node driven high toward the (possibly disturbed) rail.

    A rising segment from (t0, v0) follows v(t) = vp(t) + (v0 - vp(t0)) e^{-(t-t0)/tau}.
    """
    a = params.vdd_disturbance.amplitude_fraction
    tau = params.tau_rc
    if a == 0.0:
        return lambda t: 1.0
    omega = 2.0 * math.pi / params.vdd_disturbance.period
    denom = 1.0 + (omega * tau) ** 2
    alpha = a / denom
    beta = -a * omega * tau / denom

    def vp(t: float) -> float:
        th = omega * t + phase
        return 1.0 + alpha * math.sin(th) + beta * math.cos(th)

    return vp


def synth_crossings(
    params: RcSurrogateParams,
    stimulus: Signal,
    horizon: float,
    rng: np.random.Generator | None = None,
) -> list[tuple[float, str]]:
    """Threshold crossings of the RC node driven by ``stimulus`` up to ``horizon``.

    Rising segments charge toward the disturbed rail, falling segments
    discharge toward undisturbed ground; crossing times are located by
    bisection on the analytic trajectory of each segment.  ``rng`` supplies
    the per-stimulus random phase when the disturbance declares one.
    """
    dist = params.vdd_disturbance
    if dist.phase is None:
        if rng is None:
            raise WaveformError("random disturbance phase requires an rng")
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
    else:
        phase = dist.phase

    tau = params.tau_rc
    vth = params.vth_norm
    vp = _charging_trajectory(params, phase)

    # drive switch times: input transitions shifted by the pure delay
    switches = [(tr.time + params.pure_delay, tr.value) for tr in stimulus.transitions]
    segments = []
    drive = stimulus.initial_value
    t0 = 0.0
    for t_sw, v_sw in switches:
        if t_sw > horizon:
            break
        if t_sw > t0:
            segments.append((t0, t_sw, drive))
        t0, drive = t_sw, v_sw
    if t0 < horizon:
        segments.append((t0, horizon, drive))

    crossings: list[tuple[float, str]] = []
    v0 = float(stimulus.initial_value)
    for seg_start, seg_end, seg_drive in segments:
        if seg_drive:
            offset = v0 - vp(seg_start)

            def v(t: float, _o=offset, _s=seg_start) -> float:
                return vp(t) + _o * math.exp(-(t - _s) / tau)

        else:
            def v(t: float, _v0=v0, _s=seg_start) -> float:
                return _v0 * math.exp(-(t - _s) / tau)

        dt_cap = tau / 50.0
        if dist.amplitude_fraction > 0.0:
            dt_cap = min(dt_cap, dist.period / 50.0)
        n = min(20000, max(8, int(math.ceil((seg_end - seg_start) / dt_cap))))
        ts = np.linspace(seg_start, seg_end, n + 1)
        prev_t, prev_s = seg_start, v(seg_start) - vth
        for t in ts[1:]:
            s = v(float(t)) - vth
            if prev_s == 0.0:
                prev_s = -1e-300 if s > 0 else 1e-300
            if (prev_s > 0) != (s > 0):
                lo, hi = prev_t, float(t)
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    if ((v(mid) - vth) > 0) == (prev_s > 0):
                        lo = mid
                    else:
                        hi = mid
                    if hi - lo <= 1e-14:
                        break
                crossings.append((0.5 * (lo + hi), "rising" if s > 0 else "falling"))
            prev_t, prev_s = float(t), s
        v0 = v(seg_end)
    return crossings


@dataclass
class DeviationResult:
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
    reference_crossings: Sequence[tuple[float, str]],
    df: DelayFunction,
    eta_plus: float,
) -> DeviationResult:
    """Deviation D = predicted - actual per transition, against the eta budget.

    Predictions come from the channel algorithm on the same stimulus; each
    prediction is paired with the nearest same-edge reference crossing within
    delta_min/2, and predictions or crossings left without a partner are
    dropped.  Coverage is the fraction of deviations inside
    [-eta_minus, +eta_plus].
    """
    eta_minus = eta_minus_for(df, eta_plus)
    _, log = apply_channel(Involution(df), stimulus)
    window = delta_min(df) / 2.0

    used = [False] * len(reference_crossings)
    samples: list[DeviationSample] = []
    for rec in log:
        if rec.canceled:
            continue
        edge = "rising" if rec.value == 1 else "falling"
        best, best_gap = None, window
        for j, (t_a, e_a) in enumerate(reference_crossings):
            if used[j] or e_a != edge:
                continue
            gap = abs(t_a - rec.out_time)
            if gap <= best_gap:
                best, best_gap = j, gap
        if best is None:
            continue
        used[best] = True
        t_c = reference_crossings[best][0]
        samples.append(DeviationSample(rec.T, rec.out_time - t_c, edge, t_c - rec.time))
    return DeviationResult(samples, eta_minus, eta_plus)


def bin_coverage(result: DeviationResult, n_bins: int = 4) -> list[tuple[float, float, int, float]]:
    """Coverage per T-quantile bin: list of (T_lo, T_hi, count, coverage).

    Samples with infinite T (first transitions after an idle channel) are
    excluded from the binning.
    """
    finite = [s for s in result.samples if math.isfinite(s.T)]
    if not finite:
        return []
    ts = np.array([s.T for s in finite])
    edges = np.quantile(ts, np.linspace(0.0, 1.0, n_bins + 1))
    out = []
    for k in range(n_bins):
        lo, hi = float(edges[k]), float(edges[k + 1])
        if k < n_bins - 1:
            members = [s for s in finite if lo <= s.T < hi]
        else:
            members = [s for s in finite if lo <= s.T <= hi]
        if not members:
            out.append((lo, hi, 0, 1.0))
            continue
        out.append((lo, hi, len(members), sum(map(result.covered, members)) / len(members)))
    return out


_FIT_STARTS = 20  # three fixed starts plus log-uniform random ones


def fit_exp_channel(
    samples: Sequence[tuple[float, float | None, float | None]],
    *,
    seed: int = 0,
) -> tuple[ExpChannelParams, float]:
    """Least-squares fit of (tau, t_p, vth) to delay samples.

    ``samples`` rows are (T, delta_up or None, delta_down or None); up and
    down residuals are weighted equally.  Multi-start local search within
    parameter bounds; returns the best parameters and the RMS residual.
    """
    rows = [(t, du, dd) for t, du, dd in samples]
    n_vals = sum((du is not None) + (dd is not None) for _, du, dd in rows)
    if n_vals < 5:
        raise FitDiverged(f"need at least 5 delay values, got {n_vals}")
    from scipy.optimize import least_squares

    med = float(np.median([abs(v) for _, du, dd in rows for v in (du, dd) if v is not None]))
    if med == 0.0:
        med = 1.0
    lo = np.array([1e-3 * med, 1e-3 * med, 0.05])
    hi = np.array([1e3 * med, 1e3 * med, 0.95])

    def residuals(x):
        tau, t_p, vth = x
        d_inf_up = t_p - tau * math.log(1.0 - vth)
        d_inf_down = t_p - tau * math.log(vth)
        res = []

        def model(T, d_inf_self, d_inf_other):
            z = (T + d_inf_other) / tau
            if z <= 0:
                return None
            return tau * math.log1p(-math.exp(-z)) + d_inf_self

        for T, du, dd in rows:
            if du is not None:
                m = model(T, d_inf_up, d_inf_down)
                res.append(1e3 * (1.0 + abs(T)) if m is None else m - du)
            if dd is not None:
                m = model(T, d_inf_down, d_inf_up)
                res.append(1e3 * (1.0 + abs(T)) if m is None else m - dd)
        return np.array(res)

    rng = np.random.default_rng(seed)
    starts = [np.array([med, 0.3 * med, v]) for v in (0.3, 0.5, 0.7)]
    while len(starts) < _FIT_STARTS:
        starts.append(
            np.array(
                [
                    math.exp(rng.uniform(math.log(lo[0]), math.log(hi[0]))),
                    math.exp(rng.uniform(math.log(lo[1]), math.log(hi[1]))),
                    rng.uniform(0.1, 0.9),
                ]
            )
        )
    best = None
    for x0 in starts:
        try:
            sol = least_squares(residuals, np.clip(x0, lo, hi), bounds=(lo, hi))
        except Exception:
            continue
        if best is None or sol.cost < best.cost:
            best = sol
    if best is None or not np.all(np.isfinite(best.x)):
        raise FitDiverged("no fit start converged")
    tau, t_p, vth = (float(v) for v in best.x)
    rms = float(math.sqrt(2.0 * best.cost / n_vals))
    return ExpChannelParams(tau, t_p, vth), rms


# deviation CSV: header "edge,T,D,covered"; fit report JSON.

def write_deviation_csv(path, result: DeviationResult) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["edge", "T", "D", "covered"])
        for s in result.samples:
            w.writerow([s.edge, repr(s.T), repr(s.D), int(result.covered(s))])


def write_fit_report(path, params: ExpChannelParams, rms: float, n_samples: int) -> None:
    with open(path, "w") as fh:
        json.dump(
            {
                "tau": params.tau,
                "t_p": params.t_p,
                "vth_norm": params.vth_norm,
                "rms_residual": rms,
                "sample_count": n_samples,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
