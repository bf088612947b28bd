"""Span tracing of the involution package from outside it.

``Tracer.installed()`` replaces every public function of the package's modules
by a wrapper that records a span (name, start, end, parent), including the
aliases other modules import (``involution.analysis.execute`` is the same
function as ``involution.circuit.execute`` and gets the same wrapper).  Leaves
called more than about 1e5 times per command get counters instead of spans.
Leaving the ``with`` block puts every patched attribute back.

A span's self time is its duration minus the time its child spans and timed
leaves cover.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("cli", "circuit", "channel", "signals", "delay_model", "rootfind", "analysis", "waveform_lab")

# Span fields: name, start, end, parent index (-1 for a root), time covered by timed leaves.
NAME, START, END, PARENT, LEAF = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self._gc_start = 0.0

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, *, observe=None, count_arg=None):
        """Wrap ``fn`` so that each call records a span named ``name``.

        ``observe(result)`` sees every return value; ``count_arg`` names a
        counter incremented on every call of the callable passed as the first
        argument (root finders' function evaluations).
        """
        spans, stack, clock, counts = self.spans, self.stack, self.clock, self.counts

        def wrapper(*args, **kwargs):
            if count_arg is not None:
                f = args[0]

                def counted_f(x):
                    counts[count_arg] += 1
                    return f(x)

                args = (counted_f,) + args[1:]
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn, *, timed=False, observe=None):
        """Wrap a hot leaf: count its calls and, if ``timed``, accumulate its time.

        A timed leaf's time is charged to the enclosing span as covered by a
        child, so it leaves that span's self time.  Nothing a timed leaf calls
        may record a span.
        """
        counts, spans, stack, clock, leaf_s = self.counts, self.spans, self.stack, self.clock, self.leaf_s

        if not timed:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    leaf_s[name] += dt
                    if stack:
                        spans[stack[-1]][LEAF] += dt
                counts[name] += 1
                if observe is not None:
                    observe(result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- garbage collector ------------------------------------------------

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = self.clock()
        else:
            self.leaf_s["runtime.gc_pause"] += self.clock() - self._gc_start
            self.counts[f"runtime.gc_gen{info['generation']}_collections"] += 1

    # -- installation -----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch the package for the duration of the block, then restore every attribute."""
        modules = {layer: importlib.import_module(f"involution.{layer}") for layer in LAYERS}
        wrappers = self._wrappers(modules)
        patched: list[tuple[object, str, object]] = []
        try:
            for ns in [importlib.import_module("involution"), *modules.values()]:
                for attr, obj in list(vars(ns).items()):
                    wrapper = wrappers.get(id(obj))
                    if wrapper is not None:
                        patched.append((ns, attr, obj))
                        setattr(ns, attr, wrapper)
            for owner, attr, wrapped in self._method_wrappers(modules):
                patched.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapped)
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def _wrappers(self, modules) -> dict[int, object]:
        """id(original function) -> wrapper, for every public module function."""
        channel, signals = modules["channel"], modules["signals"]
        # value_at delegates to Signal.value_at, which is counted; worst_case_eta
        # runs inside the timed feed leaf, where no span may be recorded
        skipped = {id(signals.value_at), id(channel.worst_case_eta)}
        special = {
            "circuit.execute": dict(observe=self._observe_execution),
            "signals.make_signal": dict(observe=self._observe_signal),
            "rootfind.bisect_root": dict(count_arg="rootfind.f_evals"),
            "rootfind.scan_sign_change": dict(count_arg="rootfind.f_evals"),
        }
        out: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if id(obj) not in skipped:
                    name = f"{layer}.{attr}"
                    out[id(obj)] = self.span(name, obj, **special.get(name, {}))
        return out

    def _method_wrappers(self, modules):
        """(class, attribute, wrapper) for the hot leaves that are methods, plus the fit counter."""
        dm, channel, signals = modules["delay_model"], modules["channel"], modules["signals"]
        yield dm.DelayFunction, "up", self.counter("delay_model.evals", dm.DelayFunction.up)
        yield dm.DelayFunction, "down", self.counter("delay_model.evals", dm.DelayFunction.down)
        yield signals.Signal, "value_at", self.counter("signals.value_at.calls", signals.Signal.value_at)
        yield channel.EtaSource, "eta", self.counter("channel.eta_draws", channel.EtaSource.eta)
        yield (
            channel._InvolutionState,
            "feed",
            self.counter("channel.feed", channel._InvolutionState.feed, timed=True, observe=self._observe_feed),
        )
        optimize = importlib.import_module("scipy.optimize")
        yield optimize, "least_squares", self.counter(
            "waveform_lab.fit.calls", optimize.least_squares, observe=self._observe_fit
        )

    # -- observers --------------------------------------------------------

    def _observe_execution(self, e):
        self.counts["circuit.events"] += e.event_count

    def _observe_signal(self, s):
        self.counts["signals.transitions_built"] += len(s.transitions)

    def _observe_feed(self, result):
        rec, partner = result
        if partner is not None:
            self.counts["channel.canceled"] += 2
        if rec.guard_hit:
            self.counts["channel.guard_hits"] += 1

    def _observe_fit(self, sol):
        self.counts["waveform_lab.fit.nfev"] += int(sol.nfev)

    # -- results ----------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, dict[str, float]] = {}
        for i, rec in enumerate(self.spans):
            dur = rec[END] - rec[START]
            tot = out.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            tot["calls"] += 1
            tot["total_s"] += dur
            tot["self_s"] += dur - child[i] - rec[LEAF]
        return out

    def time_under(self, name_prefix: str, ancestor: str) -> float:
        """Seconds in spans named ``name_prefix``* that run beneath a span named ``ancestor``."""
        total = 0.0
        for rec in self.spans:
            if not rec[NAME].startswith(name_prefix):
                continue
            p = rec[PARENT]
            while p >= 0 and self.spans[p][NAME] != ancestor:
                p = self.spans[p][PARENT]
            if p >= 0:
                total += rec[END] - rec[START]
        return total

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics the benchmark reports, keyed by name (values without units)."""
        spans = self.span_totals()
        c = self.counts

        def total(name):
            return spans.get(name, {}).get("total_s", 0.0)

        def self_s(name):
            return spans.get(name, {}).get("self_s", 0.0)

        def calls(name):
            return spans.get(name, {}).get("calls", 0)

        arrivals = c["channel.feed"]
        return {
            "circuit.execute.self_s": self_s("circuit.execute"),
            "circuit.events": c["circuit.events"],
            "circuit.execute.rootfind_s": self.time_under("rootfind.", "circuit.execute"),
            "circuit.or_loop_circuit_s": total("circuit.or_loop_circuit"),
            "circuit.parse_circuit_s": total("circuit.parse_circuit"),
            "circuit.verify_execution.self_s": self_s("circuit.verify_execution"),
            "channel.feed.calls": arrivals,
            "channel.feed.self_s": self.leaf_s["channel.feed"],
            "channel.eta_draws": c["channel.eta_draws"],
            "channel.cancel_ratio": c["channel.canceled"] / arrivals if arrivals else 0.0,
            "channel.guard_hits": c["channel.guard_hits"],
            "channel.apply_channel_s": total("channel.apply_channel"),
            "signals.make_signal.calls": calls("signals.make_signal"),
            "signals.make_signal_s": total("signals.make_signal"),
            "signals.transitions_built": c["signals.transitions_built"],
            "signals.read_trace_s": total("signals.read_trace"),
            "signals.write_trace_s": total("signals.write_trace"),
            "signals.value_at.calls": c["signals.value_at.calls"],
            "delay_model.evals": c["delay_model.evals"],
            "delay_model.delta_min.calls": calls("delay_model.delta_min"),
            "rootfind.bisect_root.calls": calls("rootfind.bisect_root"),
            "rootfind.f_evals": c["rootfind.f_evals"],
            "rootfind.scan_sign_change.calls": calls("rootfind.scan_sign_change"),
            "analysis.characterize_s": total("analysis.characterize"),
            "analysis.solve_tau.calls": calls("analysis.solve_tau"),
            "analysis.dimension_ht_buffer_s": total("analysis.dimension_ht_buffer"),
            "analysis.run_spf_sweep.self_s": self_s("analysis.run_spf_sweep"),
            "waveform_lab.synth_crossings_s": total("waveform_lab.synth_crossings"),
            "waveform_lab.deviation_analysis_s": total("waveform_lab.deviation_analysis"),
            "waveform_lab.fit_exp_channel_s": total("waveform_lab.fit_exp_channel"),
            "waveform_lab.fit.nfev": c["waveform_lab.fit.nfev"],
            "cli.self_s": sum(v["self_s"] for k, v in spans.items() if k.startswith("cli.")),
            "runtime.gc_gen2_collections": c["runtime.gc_gen2_collections"],
            "runtime.gc_pause_s": self.leaf_s["runtime.gc_pause"],
        }

    def write_spans(self, path: str) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "start_s", "end_s", "parent", "leaf_s"])
            for i, (name, start, end, parent, leaf) in enumerate(self.spans):
                w.writerow([i, name, repr(start - t0), repr(end - t0), parent, repr(leaf)])
