"""Independent oracles used to freeze expected values.

Everything here is written directly from the closed forms, without going
through the package's delay-function or root-finding code, so the tests can
confirm library outputs against an implementation-independent path.
"""

import math


def exp_pair(tau, t_p, vth):
    """Closed-form (up, down) delay pair plus asymptotes for an RC stage."""
    d_inf_up = t_p - tau * math.log(1.0 - vth)
    d_inf_down = t_p - tau * math.log(vth)

    def up(T):
        return tau * math.log1p(-math.exp(-(T + d_inf_down) / tau)) + d_inf_up

    def down(T):
        return tau * math.log1p(-math.exp(-(T + d_inf_up) / tau)) + d_inf_down

    return up, down, d_inf_up, d_inf_down


def exp_derivatives(tau, t_p, vth, T):
    """(delta_up'(T), delta_down'(T)) of the exp pair.

    d/dT [tau*ln(1 - q) + d_inf] with q = exp(-(T + partner asymptote)/tau)
    is q/(1 - q).
    """
    _, _, d_inf_up, d_inf_down = exp_pair(tau, t_p, vth)
    q_up = math.exp(-(T + d_inf_down) / tau)
    q_down = math.exp(-(T + d_inf_up) / tau)
    return q_up / (1.0 - q_up), q_down / (1.0 - q_down)


def ref_delay(T):
    """REF channel (tau=1, T_p=0.5, vth=0.5) is symmetric: one delay function."""
    up, _, _, _ = exp_pair(1.0, 0.5, 0.5)
    return up(T)


REF_D_INF = 0.5 + math.log(2.0)


def plain_bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ref_tau_star():
    """Fixed point of 2*delta(-tau) = tau for the symmetric REF channel."""
    return plain_bisect(lambda t: 2.0 * ref_delay(-t) - t, 0.51, REF_D_INF - 1e-9)


def ref_fmap(d_prev):
    """Worst-case up-time map for REF with zero eta budget."""
    du = ref_delay(-d_prev)
    return ref_delay(d_prev - du) + d_prev - du


def ref_first_pulse(d0):
    """First loop pulse width g(d0) for REF with zero eta budget."""
    return ref_delay(d0 - REF_D_INF) + d0 - REF_D_INF


def cancellation_oracle(pending):
    """Surviving indices under exhaustive pairwise cancellation marking.

    Independent quadratic reference for the incremental stack rule: repeatedly
    mark the leftmost adjacent surviving pair (n, m) with
    pending[n] >= pending[m], until no such pair remains.
    """
    alive = [True] * len(pending)
    while True:
        prev = None
        hit = False
        for i, ok in enumerate(alive):
            if not ok:
                continue
            if prev is not None and pending[prev] >= pending[i]:
                alive[prev] = alive[i] = False
                hit = True
                break
            prev = i
        if not hit:
            return [i for i, ok in enumerate(alive) if ok]


def inertial_oracle(initial_value, transitions, delay, window):
    """Look-ahead inertial delay on ``(time, value)`` pairs.

    Returns the output pairs and one canceled flag per input transition.  A
    transition followed by the next one within ``window`` is suppressed; a
    remaining one that repeats the current output value is coalesced.
    """
    out, canceled = [], []
    value = initial_value
    for i, (t, v) in enumerate(transitions):
        gap = transitions[i + 1][0] - t if i + 1 < len(transitions) else math.inf
        if gap <= window or v == value:
            canceled.append(True)
        else:
            out.append((t + delay, v))
            value = v
            canceled.append(False)
    return out, canceled


def rc_crossings(params, stimulus, horizon, rng=None):
    """Threshold crossings of the RC surrogate by a scalar scan of each segment's grid.

    The reference for ``waveform_lab.synth_crossings``: the same segments,
    grid and bisection, evaluated point by point with ``math``.  A grid point
    exactly on the threshold is nudged to the opposite side of the next point,
    so it always opens a bracket.
    """
    import numpy as np

    dist = params.vdd_disturbance
    phase = float(rng.uniform(0.0, 2.0 * math.pi)) if dist.phase is None else dist.phase
    tau, vth, a = params.tau_rc, params.vth_norm, dist.amplitude_fraction
    omega = 2.0 * math.pi / dist.period
    denom = 1.0 + (omega * tau) ** 2
    alpha, beta = a / denom, -a * omega * tau / denom

    def vp(t):
        if a == 0.0:
            return 1.0
        th = omega * t + phase
        return 1.0 + alpha * math.sin(th) + beta * math.cos(th)

    segments = []
    drive, t0 = stimulus.initial_value, 0.0
    for tr in stimulus.transitions:
        t_sw = tr.time + params.pure_delay
        if t_sw > horizon:
            break
        if t_sw > t0:
            segments.append((t0, t_sw, drive))
        t0, drive = t_sw, tr.value
    if t0 < horizon:
        segments.append((t0, horizon, drive))

    crossings = []
    v0 = float(stimulus.initial_value)
    for seg_start, seg_end, seg_drive in segments:
        if seg_drive:
            offset = v0 - vp(seg_start)

            def v(t, _o=offset, _s=seg_start):
                return vp(t) + _o * math.exp(-(t - _s) / tau)

        else:

            def v(t, _v0=v0, _s=seg_start):
                return _v0 * math.exp(-(t - _s) / tau)

        dt_cap = tau / 50.0
        if a > 0.0:
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


def exp_fit_residuals(rows, x):
    """Residuals of the exp pair at ``x = (tau, t_p, vth)`` against (T, delta_up | None, delta_down | None) rows.

    One residual per delay value, up before down within a row; a row outside
    the model's domain (z <= 0) gives the penalty 1e3 * (1 + |T|).
    """
    tau, t_p, vth = x
    d_inf_up = t_p - tau * math.log(1.0 - vth)
    d_inf_down = t_p - tau * math.log(vth)

    def model(T, d_inf_self, d_inf_other):
        z = (T + d_inf_other) / tau
        if z <= 0:
            return None
        return tau * math.log1p(-math.exp(-z)) + d_inf_self

    res = []
    for T, du, dd in rows:
        if du is not None:
            m = model(T, d_inf_up, d_inf_down)
            res.append(1e3 * (1.0 + abs(T)) if m is None else m - du)
        if dd is not None:
            m = model(T, d_inf_down, d_inf_up)
            res.append(1e3 * (1.0 + abs(T)) if m is None else m - dd)
    return res


def greedy_pairing(log, crossings, window):
    """Pair surviving channel records with reference crossings, by exhaustive search.

    In log order, each surviving record takes the nearest unused same-edge
    crossing within ``window``; on equal gaps the later crossing in the list.
    Returns (T, predicted - actual, edge, actual - input time) per pair.
    """
    used = [False] * len(crossings)
    out = []
    for rec in log:
        if rec.canceled:
            continue
        edge = "rising" if rec.value == 1 else "falling"
        best, best_gap = None, window
        for j, (t_a, e_a) in enumerate(crossings):
            if used[j] or e_a != edge:
                continue
            gap = abs(t_a - rec.out_time)
            if gap <= best_gap:
                best, best_gap = j, gap
        if best is None:
            continue
        used[best] = True
        t_c = crossings[best][0]
        out.append((rec.T, rec.out_time - t_c, edge, t_c - rec.time))
    return out


# Values frozen after confirming them with the oracles above (see the
# assertions in test_acceptance.py, which recompute each one).
REF_TAU_STAR = 0.6491832629580262
REF_DELTA = 0.32459163147901304
REF_TILDE_D0 = 0.868555549080932
REF_GROWTH = 1.435266598393584
REF_D_UP_AT_0 = 0.8317965657511863
REF_DERIV_AT_0 = 0.43526659839358384
REF_MARGIN_ZERO_ETA = 0.3317965657511863
REF_PASS_BELOW = REF_D_INF - 0.5
REF_LOCK_ABOVE = REF_D_INF
