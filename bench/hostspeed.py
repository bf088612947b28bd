"""Host-speed reference: fixed pure-Python work timed next to every measurement.

On a shared machine the same command can take twice as long from one minute,
or one second, to the next, while other tenants come and go.  The benchmark
therefore times this loop, which never touches the package under test, between
blocks of commands and divides each command's wall time by the loop time
measured around it.  Multiplied by ``NOMINAL_S`` the result reads as seconds on
a nominal host where the loop takes ``NOMINAL_S``.  On a shared 2-core virtual
machine this cut the spread (interquartile range over median) of 20 s medians
of the same command from about 0.3 to about 0.06.

The loop mixes the kinds of interpreter work the package does: heap pushes and
pops of tuples, small-object creation and attribute access, a branchy
cancellation stack, and ``log1p``/``exp`` arithmetic.  It allocates only
short-lived objects, so the live heap a command leaves behind hardly changes
its time.
"""

from __future__ import annotations

import heapq
import math
import time

NOMINAL_S = 0.025  # seconds the loop takes on the nominal host: about its time on a 2-core VM with Python 3.11


class _Rec:
    __slots__ = ("t", "v", "canceled")

    def __init__(self, t: float, v: int):
        self.t = t
        self.v = v
        self.canceled = False


def _delay(T: float, tau: float = 1.0, d_inf: float = 1.19) -> float:
    if T <= -d_inf:
        return -math.inf
    return tau * math.log1p(-math.exp(-(T + d_inf) / tau)) + d_inf


def _heap_math(n: int) -> float:
    heap: list = []
    memo: dict = {}
    acc = 0.0
    for i in range(n):
        heapq.heappush(heap, (((i * 7919) % 1000) / 7.0, i))
        memo[i & 255] = acc
        if len(heap) > 64:
            t, j = heapq.heappop(heap)
            acc += math.log1p(math.exp(-t)) + memo.get(j & 255, 0.0) * 1e-9
    return acc


def _objects(n: int) -> int:
    heap: list = []
    stack: list = []
    out: list = []
    seq = 0
    prev = 0.0
    for i in range(n):
        t = i * 0.37 + ((i * 7919) % 101) * 0.003
        rec = _Rec(t + _delay(t - prev), i & 1)
        prev = t
        if stack and stack[-1].t >= rec.t:
            stack.pop().canceled = True
            rec.canceled = True
        else:
            stack.append(rec)
            seq += 1
            heapq.heappush(heap, (rec.t, seq, rec))
        while len(heap) > 16:
            _, _, q = heapq.heappop(heap)
            if not q.canceled:
                out.append((q.t, q.v))
        if len(stack) > 32:
            del stack[:16]
    return len(out)


def reference_seconds() -> float:
    """Wall seconds of one pass of the reference loop (about NOMINAL_S here)."""
    t0 = time.perf_counter()
    _heap_math(8000)
    _objects(5500)
    return time.perf_counter() - t0


def nominal(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference loop took ``reference``, on the nominal host."""
    return seconds * NOMINAL_S / reference
