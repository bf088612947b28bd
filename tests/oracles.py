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
