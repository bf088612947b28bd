"""Involution delay-function pairs.

A delay channel is characterized by two strictly increasing, concave delay
functions with finite asymptotes whose negatives are mutually inverse:

    -delta_up(-delta_down(T)) = T    and    -delta_down(-delta_up(T)) = T.

``delta_up`` maps the previous-output-to-input time T of a rising input
transition to its input-to-output delay; ``delta_down`` does the same for
falling transitions.  The exp-channel is the closed-form special case of a
gate driving a first-order RC load with a switching threshold:

    delta_up(T)   = tau * ln(1 - exp(-(T + d_inf_down)/tau)) + d_inf_up
    delta_down(T) = tau * ln(1 - exp(-(T + d_inf_up)/tau))   + d_inf_down

with d_inf_up = T_p - tau*ln(1 - vth) and d_inf_down = T_p - tau*ln(vth).

Evaluation outside the open domain (T <= -partner asymptote) yields the
distinguished value -inf, which the channel algorithm treats as an
immediately-canceled output.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .rootfind import NoBracket, bisect_root
from .signals import read_csv, write_csv


class DelayModelError(ValueError):
    pass


class InvalidParams(DelayModelError):
    pass


class DomainViolation(DelayModelError):
    pass


@dataclass(frozen=True)
class ExpChannelParams:
    """RC constant, pure delay and normalized threshold of an exp-channel."""

    tau: float
    t_p: float
    vth_norm: float

    def __post_init__(self) -> None:
        if not 0 < self.tau < math.inf:
            raise InvalidParams(f"tau must be finite and > 0, got {self.tau}")
        if not 0 < self.t_p < math.inf:
            raise InvalidParams(f"t_p must be finite and > 0, got {self.t_p}")
        if not 0 < self.vth_norm < 1:
            raise InvalidParams(f"vth_norm must lie in (0,1), got {self.vth_norm}")

    def scaled(self, k: float) -> "ExpChannelParams":
        """Time-rescaled parameters; rescaling preserves the involution property."""
        return ExpChannelParams(self.tau * k, self.t_p * k, self.vth_norm)


@dataclass(frozen=True)
class DelayFunction:
    """A (delta_up, delta_down) pair with its asymptotes.

    ``up``/``down`` return -inf at and below the domain edge.  ``params`` is
    set exactly for an exp-channel; every closed form (delta_min, the
    derivatives) reads it.
    """

    delta_inf_up: float
    delta_inf_down: float
    _up: Callable[[float], float]
    _down: Callable[[float], float]
    params: ExpChannelParams | None = None

    def up(self, T: float) -> float:
        if T <= -self.delta_inf_down:
            return -math.inf
        return self._up(T)

    def down(self, T: float) -> float:
        if T <= -self.delta_inf_up:
            return -math.inf
        return self._down(T)


def exp_channel(p: ExpChannelParams) -> DelayFunction:
    """Closed-form exp-channel delay pair for the given RC parameters.

    Both asymptotes must exceed T_p by more than one ulp: closer, the delay
    pair degenerates to the pure delay T_p in floating point.
    """
    tau = p.tau
    d_inf_up = p.t_p - tau * math.log(1.0 - p.vth_norm)
    d_inf_down = p.t_p - tau * math.log(p.vth_norm)
    if min(d_inf_up, d_inf_down) <= math.nextafter(p.t_p, math.inf):
        raise InvalidParams(
            f"asymptotes delta_inf_up={d_inf_up!r}, delta_inf_down={d_inf_down!r} do not exceed t_p by more "
            f"than one ulp (tau={p.tau!r}, t_p={p.t_p!r}, vth_norm={p.vth_norm!r})"
        )

    # One ulp above the domain edge the exponential can round to 1: the delay is -inf there too.
    def up(T: float) -> float:
        q = math.exp(-(T + d_inf_down) / tau)
        return -math.inf if q == 1.0 else tau * math.log1p(-q) + d_inf_up

    def down(T: float) -> float:
        q = math.exp(-(T + d_inf_up) / tau)
        return -math.inf if q == 1.0 else tau * math.log1p(-q) + d_inf_down

    return DelayFunction(d_inf_up, d_inf_down, up, down, p)


def tabulated_channel(
    samples_up: Sequence[tuple[float, float]],
    samples_down: Sequence[tuple[float, float]],
    delta_inf_up: float,
    delta_inf_down: float,
) -> DelayFunction:
    """Delay pair interpolated from (T, delta) samples.

    Monotone piecewise-cubic (PCHIP) interpolation inside the sampled range,
    linear extrapolation outside with the interpolant's end slopes, clamped to
    the declared asymptote from above.  Sample times must be finite and
    distinct, delays finite and strictly increasing in T.
    """

    def build(samples, asymptote, edge):
        pts = sorted((float(t), float(d)) for t, d in samples)
        if len(pts) < 3:
            raise InvalidParams(f"delta_{edge} needs at least 3 samples")
        xs = [t for t, _ in pts]
        ys = [d for _, d in pts]
        if not all(map(math.isfinite, xs)) or not all(map(math.isfinite, ys)):
            raise InvalidParams(f"delta_{edge} samples must have finite T and delay")
        for a, b in zip(xs, xs[1:]):
            if a == b:
                raise InvalidParams(f"delta_{edge} samples repeat T={a!r}")
        if any(b <= a for a, b in zip(ys, ys[1:])):
            raise InvalidParams(f"delta_{edge} samples must be strictly increasing in T")
        interp, s0, s1 = _pchip(xs, ys)
        x0, x1 = xs[0], xs[-1]

        def f(T: float) -> float:
            if T < x0:
                v = ys[0] + s0 * (T - x0)
            elif T > x1:
                v = ys[-1] + s1 * (T - x1) if s1 else ys[-1]  # a flat end stays flat at T = inf, not 0 * inf
            else:
                v = interp(T)
            return min(v, asymptote)

        return f

    up, down = build(samples_up, delta_inf_up, "up"), build(samples_down, delta_inf_down, "down")
    return DelayFunction(delta_inf_up, delta_inf_down, up, down)


def _pchip(xs: list[float], ys: list[float]) -> tuple[Callable[[float], float], float, float]:
    """PCHIP interpolant through strictly increasing (xs, ys) on [xs[0], xs[-1]], and its two end slopes.

    Interior slopes are the weighted harmonic mean of the neighbouring secants,
    or 0 next to a zero secant (Fritsch & Carlson 1980, Fritsch & Butland 1984).
    An end slope is the three-point one-sided estimate, set to 0 where its sign
    differs from the end secant's (Moler, Numerical Computing with MATLAB, 3.6);
    the rule's other case, secants of opposite sign, cannot occur in increasing
    data.  Each value is computed in the order of SciPy's PchipInterpolator, so
    both agree bit for bit; the end slopes are its derivative at the two ends.
    """
    h = [b - a for a, b in zip(xs, xs[1:])]
    m = [(b - a) / hk for a, b, hk in zip(ys, ys[1:], h)]

    def end_slope(h0, h1, m0, m1):
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        return d if d > 0 else 0.0

    d = [end_slope(h[0], h[1], m[0], m[1])]
    for k in range(1, len(h)):
        w1, w2 = 2 * h[k] + h[k - 1], h[k] + 2 * h[k - 1]
        d.append(1.0 / ((w1 / m[k - 1] + w2 / m[k]) / (w1 + w2)) if m[k - 1] > 0 and m[k] > 0 else 0.0)
    d.append(end_slope(h[-1], h[-2], m[-1], m[-2]))

    # Hermite coefficients per interval, highest power first, as in SciPy's CubicHermiteSpline
    coeffs = []
    for k, (hk, mk) in enumerate(zip(h, m)):
        t = (d[k] + d[k + 1] - 2 * mk) / hk
        coeffs.append((t / hk, (mk - d[k]) / hk - t, d[k], ys[k]))
    last = len(h) - 1

    def interp(T: float) -> float:
        k = min(bisect.bisect_right(xs, T) - 1, last)  # T = xs[-1] lies in the last interval
        c3, c2, c1, c0 = coeffs[k]
        s = T - xs[k]
        return c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)

    c3, c2, c1, _ = coeffs[last]
    s = h[last]
    return interp, d[0], c1 + 2.0 * c2 * s + 3.0 * c3 * (s * s)


class InvolutionCheck(NamedTuple):
    max_residual: float
    passed: bool


def check_involution(df: DelayFunction, grid: Sequence[float], tol: float) -> InvolutionCheck:
    """Max residual of both involution identities over ``grid``.

    Raises :class:`DomainViolation` if a grid point falls outside the domain
    of the first-applied delay function.
    """
    worst = 0.0
    for T in grid:
        if T <= -df.delta_inf_up or T <= -df.delta_inf_down:
            raise DomainViolation(f"grid point T={T} outside delay-function domain")
        r1 = abs(-df.up(-df.down(T)) - T)
        r2 = abs(-df.down(-df.up(T)) - T)
        worst = max(worst, r1, r2)
    return InvolutionCheck(worst, worst <= tol)


def delta_min(df: DelayFunction) -> float:
    """The unique positive d with delta_up(-d) = d (= delta_down(-d)).

    For an exp-channel this is exactly T_p: delta_up(-T_p) = T_p.  Otherwise
    bracketed bisection on delta_up(-d) - d, which is positive at d=0 by
    strict causality and negative before the domain edge.
    """
    if df.params is not None:
        return df.params.t_p
    f0 = df.up(0.0)
    if not f0 > 0:
        raise NoBracket(f"delay function is not strictly causal: delta_up(0)={f0}")
    hi = min(f0, df.delta_inf_down * (1.0 - 1e-12))
    return bisect_root(lambda d: df.up(-d) - d, 0.0, hi)


def _central_diff(f: Callable[[float], float], T: float) -> float:
    h = max(1e-7, 1e-7 * abs(T))
    return (f(T + h) - f(T - h)) / (2.0 * h)


def _exp_derivative(tau: float, z: float) -> float:
    """d/dT of tau*ln(1 - exp(-z/tau)) + const at z = T + partner asymptote: q/(1 - q)."""
    q = math.exp(-z / tau)
    return q / (1.0 - q)


def derivative_up(df: DelayFunction, T: float) -> float:
    """delta_up'(T): closed form for exp channels, central difference otherwise."""
    if not T > -df.delta_inf_down:
        raise DomainViolation(f"T={T} not interior to delta_up domain")
    if df.params is not None:
        return _exp_derivative(df.params.tau, T + df.delta_inf_down)
    return _central_diff(df.up, T)


def derivative_down(df: DelayFunction, T: float) -> float:
    if not T > -df.delta_inf_up:
        raise DomainViolation(f"T={T} not interior to delta_down domain")
    if df.params is not None:
        return _exp_derivative(df.params.tau, T + df.delta_inf_up)
    return _central_diff(df.down, T)


# Delay-sample file: header "T,delta_up,delta_down"; either delta column may be empty.
# In memory a delay sample is a (T, delay, value) triple: value 1 is a delta_up
# delay, 0 a delta_down delay.

def write_delay_samples(path, samples: Sequence[tuple[float, float, int]]) -> None:
    """Write one row per ``(T, delay, value)`` sample, the delay in its value's column."""
    rows = ([repr(T), repr(delay), ""] if value else [repr(T), "", repr(delay)] for T, delay, value in samples)
    write_csv(path, ["T", "delta_up", "delta_down"], rows)


def read_delay_samples(path) -> list[tuple[float, float, int]]:
    """The ``(T, delay, value)`` samples of a delay-sample file, in file order, up before down within a row."""

    def parse(row: list[str]) -> list[tuple[float, float, int]]:
        T_s, du, dd = row
        T = float(T_s)
        return [(T, float(d), value) for d, value in ((du, 1), (dd, 0)) if d.strip()]

    rows = read_csv(path, ["T", "delta_up", "delta_down"], "delay-sample", DelayModelError, parse)
    return [sample for row in rows for sample in row]
