"""The benchmark's workloads: seeded inputs, one timed command, and its checks.

Each workload is a closed loop of one caller: ``iterate`` runs the command once
through ``involution.cli.main`` (or, for ``chain_verify``, the library's
self-check), times it from outside, and checks the outputs outside the timed
region.  Module attributes are looked up at call time, so the tracer's patches
take effect.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import time

import gen
from involution import circuit, cli, signals

REF_ARGS = ["--tau", "1", "--t-p", "0.5", "--vth", "0.5"]
SWEEP_ETA = ["--eta-plus", "0.1", "--eta-minus", "0.05"]
SWEEP_STRATEGIES = ["--strategy", "zero", "--strategy", "worst", "--strategy", "random", "--seeds", "3"]
SWEEP_RUNS_PER_WIDTH = 5  # zero, worst and three random seeds
WAVEFORM_ARGS = ["--tau", "1", "--t-p", "0.5", "--vth", "0.6", "--amplitude", "0.01"]
WAVEFORM_SAMPLES = 552  # deviation samples of the default 144-stimulus calibration
WAVEFORM_TRUTH = {"tau": 1.0, "t_p": 0.5, "vth": 0.6}


@dataclasses.dataclass
class Sample:
    seconds: float  # wall time of the command
    work: float
    ok: bool
    digest: str
    reference: float = math.nan  # host-speed reference loop time around the command


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(hashlib.sha256(p).digest())
    return h.hexdigest()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _run_cli(argv: list[str]) -> tuple[float, int, str]:
    """Time one CLI call; returns (seconds, exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue()


class Workload:
    name = ""
    human = {}  # metric name in the workload's own terms -> (generic metric, unit, scale)
    collect_between = True  # release results and run gc.collect() between commands
    trace_iterations = 1

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        self._digests: dict[int, str] = {}

    def path(self, *names: str) -> str:
        return os.path.join(self.dir, *names)

    def setup(self) -> None:
        """Generate and write the inputs, then run one warm-up command."""

    def reference(self, run_phase) -> None:
        """Untimed preparation of what the checks compare against.

        ``run_phase("reference")`` runs ``reference_phase`` in a fresh process
        and returns its result.
        """

    def reference_phase(self) -> dict:
        raise NotImplementedError

    def iterate(self) -> Sample:
        raise NotImplementedError

    def output_digest(self) -> str:
        """One digest of every output checked so far, to compare two commits at one seed."""
        return _sha(*(f"{k}:{d}".encode() for k, d in sorted(self._digests.items())))

    def _stable(self, key: int, digest: str) -> bool:
        """True when ``digest`` matches the first digest seen for ``key``."""
        return self._digests.setdefault(key, digest) == digest


class _Chain(Workload):
    """Shared inputs of the two chain workloads."""

    def _write_inputs(self) -> float:
        """Write the chain and a 200-transition warm-up variant; returns the warm-up horizon."""
        self.horizon = gen.write_chain_inputs(self.seed, self.path("chain.json"), self.path("stim.csv"))
        return gen.write_chain_inputs(self.seed, self.path("warm.json"), self.path("warm.csv"), transitions=200)

    def _execution(self, netlist, stimulus, horizon):
        """The library's execution of the given inputs."""
        with open(self.path(netlist)) as fh:
            c = circuit.parse_circuit(fh.read(), base_dir=self.dir)
        return circuit.execute(c, signals.read_trace(self.path(stimulus)), horizon)


class InverterChain(_Chain):
    name = "inverter_chain"
    human = {"simulate_s": ("cmd_s", "s", 1), "events_per_s": ("work_per_s", "events/s", 1)}

    def _argv(self, netlist, stimulus, horizon, out):
        return ["simulate", self.path(netlist), self.path(stimulus), "--horizon", repr(horizon), "--out", self.path(out)]

    def setup(self):
        warm = self._write_inputs()
        _run_cli(self._argv("warm.json", "warm.csv", warm, "warm_out"))

    def reference(self, run_phase):
        self.ref = run_phase("reference")

    def reference_phase(self) -> dict:
        """The library's execution of the chain inputs, checked, as CSV digests.

        Runs in its own process so that its memory does not count towards the
        workload's peak.  Each signal is written with ``write_trace`` and read
        back; the CLI's files must then match these bytes.
        """
        e = self._execution("chain.json", "stim.csv", gen.chain_horizon(gen.chain_stimulus(self.seed)))
        report = circuit.verify_execution(e)
        all_signals = {**e.vertex_signals, **{f"chan_{k}": v for k, v in e.channel_signals.items()}}
        os.makedirs(self.path("ref"), exist_ok=True)
        digests, roundtrip = {}, True
        for name, sig in all_signals.items():
            p = self.path("ref", f"{name}.csv")
            signals.write_trace(p, {name: sig})
            roundtrip = roundtrip and signals.read_trace(p) == {name: sig}
            digests[f"{name}.csv"] = hashlib.sha256(_read(p)).hexdigest()
        return {"ok": report.ok and roundtrip, "event_count": e.event_count, "digests": digests}

    def iterate(self):
        dt, rc, _ = _run_cli(self._argv("chain.json", "stim.csv", self.horizon, "out"))
        ok = rc == 0
        events, digest = 0, ""
        if ok:
            out = self.path("out")
            names = sorted(n for n in os.listdir(out) if n.endswith(".csv"))
            got = {n: hashlib.sha256(_read(os.path.join(out, n))).hexdigest() for n in names}
            events = json.loads(_read(os.path.join(out, "manifest.json")))["event_count"]
            ok = self.ref["ok"] and got == self.ref["digests"] and events == self.ref["event_count"]
            digest = _sha(json.dumps(got, sort_keys=True).encode(), str(events).encode())
        return Sample(dt, events, ok and self._stable(0, digest), digest)


class ChainVerify(_Chain):
    """``verify_execution`` on the library execution of the inverter-chain inputs."""

    name = "chain_verify"
    human = {"verify_s": ("cmd_s", "s", 1), "verified_events_per_s": ("work_per_s", "events/s", 1)}

    def setup(self):
        warm = self._write_inputs()
        circuit.verify_execution(self._execution("warm.json", "warm.csv", warm))

    def reference(self, run_phase):
        self.e = self._execution("chain.json", "stim.csv", self.horizon)
        # Negative control: the check must notice a channel output that lost its last transition.
        name, sig = max(self.e.channel_signals.items(), key=lambda kv: len(kv[1].transitions))
        bad = dataclasses.replace(
            self.e,
            channel_signals={**self.e.channel_signals, name: signals.Signal(sig.initial_value, sig.transitions[:-1])},
        )
        self.control_ok = not circuit.verify_execution(bad).ok

    def iterate(self):
        t0 = time.perf_counter()
        report = circuit.verify_execution(self.e)
        dt = time.perf_counter() - t0
        digest = _sha(json.dumps([report.ok, report.mismatches]).encode())
        ok = self.control_ok and report.ok and not report.mismatches
        return Sample(dt, self.e.event_count, ok and self._stable(0, digest), digest)


class SpfSweep(Workload):
    name = "spf_sweep"
    human = {"sweep_s": ("cmd_s", "s", 1), "runs_per_s": ("work_per_s", "runs/s", 1)}

    def _argv(self, grid, out):
        return ["spf-sweep", *REF_ARGS, *SWEEP_ETA, *SWEEP_STRATEGIES, "--grid", *map(repr, grid), "--out", self.path(out)]

    def setup(self):
        self.grid = gen.sweep_grid(self.seed)
        with open(self.path("grid.json"), "w") as fh:
            json.dump(self.grid, fh)
        _run_cli(self._argv([0.1, 1.5, 0.1], "warm_out"))
        start, stop, step = self.grid
        widths = math.ceil((stop + 1e-12 - start) / step)
        self.expected_rows = SWEEP_RUNS_PER_WIDTH * (widths + 1)

    def iterate(self):
        dt, rc, _ = _run_cli(self._argv(self.grid, "out"))
        ok = rc == 0
        rows, digest = [], ""
        if ok:
            sweep = _read(self.path("out", "sweep.csv"))
            verdict = json.loads(_read(self.path("out", "spf_verdict.json")))
            rows = list(csv.DictReader(io.StringIO(sweep.decode())))
            ok = (
                verdict["f2_pass"]
                and verdict["f3_pass"]
                and verdict["f4_pass"]
                and len(rows) == self.expected_rows
                and all(r["resolved_to"] == "0" for r in rows if r["regime"] == "pass_through")
                and all(r["resolved_to"] == "1" for r in rows if r["regime"] == "lock")
            )
            digest = _sha(sweep, json.dumps(verdict, sort_keys=True).encode())
        return Sample(dt, len(rows), ok and self._stable(0, digest), digest)


class AnalyzeGrid(Workload):
    name = "analyze_grid"
    human = {"analyze_ms": ("cmd_s", "ms", 1000), "analyze_calls_per_s": ("work_per_s", "calls/s", 1)}
    collect_between = False  # each call leaves a few kilobytes
    trace_iterations = gen.ANALYZE_POINTS

    def setup(self):
        self.points = gen.analyze_points(self.seed)
        with open(self.path("points.json"), "w") as fh:
            json.dump(self.points, fh)
        _run_cli(self._argv(self.points[0]))
        self._count = 0

    @staticmethod
    def _argv(p):
        return [
            "analyze", "--tau", repr(p["tau"]), "--t-p", repr(p["t_p"]), "--vth", repr(p["vth"]),
            "--eta-plus", repr(p["eta_plus"]), "--eta-minus", repr(p["eta_minus"]),
        ]

    @staticmethod
    def _check(p, r) -> bool:
        """The report's invariants, and its constants against the exp-channel closed forms."""
        d_inf_up, _, up, down = gen.exp_delays(p["tau"], p["t_p"], p["vth"])
        ep, em, tau = p["eta_plus"], p["eta_minus"], r["tau_star"]
        close = lambda a, b: abs(a - b) <= 1e-9  # noqa: E731
        return (
            r["ok"] is True
            and 0 < r["duty"] < 1
            and r["pass_below"] < r["lock_above"]
            and r["constraint_margin"] > 0
            and close(r["delta_min"], p["t_p"])  # delta_min of an exp-channel is its pure delay
            and close(r["lock_above"], d_inf_up + ep)
            and close(r["pass_below"], d_inf_up - p["t_p"] - ep - em)
            and close(r["constraint_margin"], gen.constraint_c_margin(p["tau"], p["t_p"], p["vth"], ep, em))
            and close(down(ep - tau) + up(-em - tau), tau)  # tau_star solves the period equation
            and close(r["duty"] * tau, down(ep - tau))
        )

    def iterate(self):
        k = self._count % len(self.points)
        self._count += 1
        dt, rc, text = _run_cli(self._argv(self.points[k]))
        ok = rc == 0 and self._check(self.points[k], json.loads(text))
        digest = _sha(text.encode())
        return Sample(dt, 1, ok and self._stable(k, digest), digest)


class WaveformFit(Workload):
    name = "waveform_fit"
    human = {"waveform_s": ("cmd_s", "s", 1), "samples_per_s": ("work_per_s", "samples/s", 1)}

    def _argv(self, out, *extra):
        return ["waveform", *WAVEFORM_ARGS, "--seed", str(self.seed), "--out", self.path(out), *extra]

    def setup(self):
        # The warm-up fits a four-stimulus trace, which pays the lazy scipy.optimize import.
        with open(self.path("warm.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["signal", "time", "value"])
            for k in range(4):
                w.writerow([f"s{k}", "-inf", 0])
                for n, t in enumerate((0.0, 1.5 + 0.3 * k, 2.5 + 0.5 * k, 4.5 + 0.5 * k)):
                    w.writerow([f"s{k}", repr(t), 1 - n % 2])
        _run_cli(self._argv("warm_out", "--stimulus", self.path("warm.csv")))

    def iterate(self):
        dt, rc, text = _run_cli(self._argv("out"))
        ok = rc == 0
        digest, samples = "", 0
        if ok:
            r = json.loads(text)
            samples = r["samples"]
            fit = r["fit"]
            ok = (
                samples == WAVEFORM_SAMPLES
                and 0.0 <= r["coverage"] <= 1.0
                and all(abs(fit[k] - v) <= 0.01 * v for k, v in WAVEFORM_TRUTH.items())
            )
            digest = _sha(text.encode(), _read(self.path("out", "deviations.csv")), _read(self.path("out", "fit.json")))
        return Sample(dt, samples, ok and self._stable(0, digest), digest)


WORKLOADS = {w.name: w for w in (InverterChain, ChainVerify, SpfSweep, AnalyzeGrid, WaveformFit)}
