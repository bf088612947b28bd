"""Bracketed scalar root finding.

Every scalar root in this package without a closed form (the pulse train
period, the critical input width, and delta_min and the release windows of
tabulated and custom delay pairs) goes through the same bisection utility:
the bracketed functions are continuous and monotone, so bisection is
unconditionally safe.  An exp-channel's delta_min and release windows are
closed forms (``delay_model.delta_min``, ``channel._release_window``).
"""

from __future__ import annotations

import math
from typing import Callable


XTOL = 1e-12  # absolute tolerance of every bisected root
MAX_ITER = 200


class NoBracket(ArithmeticError):
    """No sign change on the supplied interval."""


def bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of ``f`` on ``[lo, hi]``, located to absolute tolerance ``XTOL``.

    ``f(lo)`` and ``f(hi)`` must have opposite signs; values of -inf/+inf at
    the endpoints count with their sign.  An endpoint that is already an
    exact zero is returned as is.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.isnan(flo) or math.isnan(fhi):
        raise NoBracket(f"NaN at bracket edge: f({lo})={flo}, f({hi})={fhi}")
    if (flo > 0) == (fhi > 0):
        raise NoBracket(f"no sign change: f({lo})={flo}, f({hi})={fhi}")
    for _ in range(MAX_ITER):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if hi - lo <= XTOL:
            break
    return 0.5 * (lo + hi)


def scan_sign_change(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    n: int,
) -> tuple[float, float] | None:
    """First subinterval of an ``n``-point grid on ``[lo, hi]`` with a sign change."""
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    prev_x, prev_f = xs[0], f(xs[0])
    for x in xs[1:]:
        fx = f(x)
        if prev_f == 0.0 or (prev_f > 0) != (fx > 0):
            return prev_x, x
        prev_x, prev_f = x, fx
    return None
