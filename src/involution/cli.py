"""Command-line entry point.

Subcommands
-----------
simulate   run a netlist against a stimulus trace and dump all signals
analyze    characterize a delay pair + eta budget (period, duty, thresholds)
spf-sweep  sweep input pulse widths through the storage-loop filter circuit
waveform   run the analog RC surrogate: crossings, deviations, exp fit

All times are seconds.  Every command writes a run manifest (seeds, digests,
tolerances) sufficient to reproduce the run.  Each output file is written to
a temporary name first, so a failure leaves neither a partial file nor the
temporary one.  New bytes are then renamed into place; bytes identical to
the existing file leave that file (and its inode) as it is and only set its
mtime to the end of the run.  ``manifest.json`` carries the run's timestamp,
so it is the output a build rule should depend on.

Exit codes: 0 ok, 2 usage, 3 input/parse error (or a closed standard
output), 4 model-constraint error, 5 engine error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import stat
import sys
import time

import numpy as np

from . import __version__
from . import analysis, channel as ch, waveform_lab as wl
from .circuit import EngineError, NetlistError, execute, parse_circuit
from .delay_model import DelayModelError, ExpChannelParams, delta_min, exp_channel
from .rootfind import XTOL, NoBracket
from .signals import SignalError, read_text, read_trace, write_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CONSTRAINT = 4
EXIT_ENGINE = 5


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _unchanged(path: str, tmp: str) -> bool:
    """True if ``path`` is a regular file holding exactly the bytes of ``tmp``.

    Compared chunk by chunk, not with ``filecmp``: its cache is keyed on
    (size, mtime), so a long-lived process could call a rewritten file equal.
    """
    try:
        st = os.lstat(path)
    except OSError:
        return False
    if not stat.S_ISREG(st.st_mode) or st.st_size != os.stat(tmp).st_size:
        return False
    with open(path, "rb") as old, open(tmp, "rb") as new:
        while True:
            chunk = old.read(65536)
            if chunk != new.read(65536):
                return False
            if not chunk:
                return True


def _atomic_write(path: str, writer) -> None:
    """Publish ``writer``'s output at ``path``; an unchanged file is only touched.

    ``writer`` writes ``path + ".tmp"``.  New bytes are renamed over ``path``
    (with the flush a rename onto an existing file costs); identical bytes
    leave ``path`` and its inode in place and set its mtime to now.  If
    anything fails, the temporary file is removed and ``path`` is untouched.
    """
    tmp = path + ".tmp"
    try:
        writer(tmp)
        if _unchanged(path, tmp):
            os.remove(tmp)
            os.utime(path)
        else:
            os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise


def _write_json(path: str, obj) -> None:
    def w(tmp):
        with open(tmp, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")

    _atomic_write(path, w)


def _manifest(out_dir: str, command: str, args: argparse.Namespace, inputs: list[str], extra: dict) -> None:
    doc = {
        "command": command,
        "argv": args.argv,
        "version": __version__,
        "inputs": {p: _sha256(p) for p in inputs},
        "horizon": getattr(args, "horizon", None),
        "seeds": extra.pop("seeds", {}),
        "tolerances": {"root_xtol": XTOL},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    doc.update(extra)
    _write_json(os.path.join(out_dir, "manifest.json"), doc)


# inputs outside what the model can characterize, such as a budget violating constraint (C)
_CONSTRAINT = (analysis.AnalysisError, DelayModelError, NoBracket, ch.ChannelError, wl.WaveformError)

# the one mapping from an exception to its error kind and exit code
_EXIT = (
    (EngineError, "engine", EXIT_ENGINE),  # HorizonExceeded and CausalityFault among them
    (OSError, "io", EXIT_PARSE),
    ((NetlistError, SignalError, json.JSONDecodeError), "parse", EXIT_PARSE),
    (_CONSTRAINT, "constraint", EXIT_CONSTRAINT),
)


def _error(kind: str, message: str, code: int) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _check_trace_names(circuit) -> None:
    """Reject, before anything is written, names whose trace files would leave ``--out`` or coincide."""
    owners: dict[str, str] = {}
    named = [("port", p, p) for p in [*circuit.input_ports, *circuit.output_ports]]
    named += [("gate", g, g) for g in circuit.gates] + [("channel", c, f"chan_{c}") for c in circuit.channels]
    for kind, name, stem in named:
        entry = f"{kind} {name!r}"
        if any(c in stem for c in "/\\\0"):
            raise NetlistError(f"{entry}: a name written as a trace file cannot hold '/', '\\' or NUL")
        if stem in owners:
            raise NetlistError(f"{owners[stem]} and {entry} would both write the trace file {stem + '.csv'!r}")
        owners[stem] = entry


def cmd_simulate(args) -> int:
    circuit = parse_circuit(
        read_text(args.netlist, NetlistError), base_dir=os.path.dirname(os.path.abspath(args.netlist))
    )
    _check_trace_names(circuit)
    stimuli = read_trace(args.stimulus)
    e = execute(circuit, stimuli, args.horizon, events_max=args.events_max)
    os.makedirs(args.out, exist_ok=True)
    for name, sig in {**e.vertex_signals, **{f"chan_{k}": v for k, v in e.channel_signals.items()}}.items():
        _atomic_write(os.path.join(args.out, f"{name}.csv"), lambda tmp, s=sig, n=name: write_trace(tmp, {n: s}))
    seeds = {  # the uniform-random channels that drew an eta; eta_sequences holds the eta-involution ones
        name: edge.spec.strategy.seed
        for name, edge in circuit.channels.items()
        if e.eta_sequences.get(name) and isinstance(edge.spec.strategy, ch.UniformRandom)
    }
    _manifest(
        args.out,
        "simulate",
        args,
        [args.netlist, args.stimulus, *circuit.files],
        {
            "event_count": e.event_count,
            "stabilized": e.stabilized,
            "resolved": e.resolved_value,
            "active_at_horizon": sorted(e.active_at_horizon),
            "seeds": seeds,
            "eta_sequences": e.eta_sequences,
        },
    )
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        df = exp_channel(ExpChannelParams(args.tau, args.t_p, args.vth))
        char = analysis.characterize(df, ch.EtaBounds(eta_minus=args.eta_minus, eta_plus=args.eta_plus))
        report = {"ok": True, "params": {"tau": args.tau, "t_p": args.t_p, "vth": args.vth}, **char.to_dict()}
    except _CONSTRAINT as exc:
        report = {"ok": False, "error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "characterization.json"), report)
        if report["ok"]:
            _manifest(args.out, "analyze", args, [], {"seeds": {}})
    return EXIT_OK if report["ok"] else EXIT_CONSTRAINT


def _strategy_set(names: list[str], seeds: int) -> dict[str, ch.AdversaryStrategy]:
    """The named strategies; argparse ``choices`` has already rejected unknown names."""
    out: dict[str, ch.AdversaryStrategy] = {}
    for name in names:
        if name == "zero":
            out["zero"] = ch.Zero()
        elif name == "worst":
            out["worst"] = ch.WorstCaseShrink()
        else:
            for s in range(seeds):
                out[f"random[{s}]"] = ch.UniformRandom(seed=s)
    return out


def cmd_spf_sweep(args) -> int:
    strategies = _strategy_set(args.strategy or ["zero"], args.seeds)
    if not strategies:
        return _error("usage", "no strategy to sweep: --strategy random needs --seeds >= 1", EXIT_USAGE)
    df = exp_channel(ExpChannelParams(args.tau, args.t_p, args.vth))
    bounds = ch.EtaBounds(eta_minus=args.eta_minus, eta_plus=args.eta_plus)
    char = analysis.characterize(df, bounds)
    epsilon = args.epsilon if args.epsilon is not None else char.delta_up / 2.0
    ht = analysis.dimension_ht_buffer(3.0 * char.tau_star, char.duty)
    # plain floats, so that sweep.csv writes each delta0 as a float literal
    grid = np.arange(args.grid[0], args.grid[1] + 1e-12, args.grid[2]).tolist()
    points = analysis.run_spf_sweep(
        df, bounds, char, ht, grid, strategies, horizon=args.horizon, events_max=args.events_max
    )

    verdict = analysis.spf_check(
        [p.out_signal for p in points], [p.delta0 for p in points], epsilon
    )
    os.makedirs(args.out, exist_ok=True)

    def write_csv(tmp):
        with open(tmp, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["delta0", "regime", "pulses_observed", "resolved_to", "stabilization_time"])
            for p in points:
                w.writerow(
                    [
                        "" if p.delta0 is None else repr(p.delta0),
                        p.regime,
                        p.pulses_observed,
                        p.resolved_to,
                        repr(p.stabilization_time) if math.isfinite(p.stabilization_time) else "-inf",
                    ]
                )

    _atomic_write(os.path.join(args.out, "sweep.csv"), write_csv)
    verdict_doc = {
        "epsilon": epsilon,
        "f2_pass": verdict.f2_pass,
        "f3_pass": verdict.f3_pass,
        "f4_pass": verdict.f4_pass,
        "f4_witnesses": verdict.f4_witnesses,
        "ht_params": {"tau": ht.tau, "t_p": ht.t_p, "vth": ht.vth_norm},
    }
    _write_json(os.path.join(args.out, "spf_verdict.json"), verdict_doc)
    random_seeds = [s.seed for s in strategies.values() if isinstance(s, ch.UniformRandom)]
    _manifest(
        args.out,
        "spf-sweep",
        args,
        [],
        {"seeds": {"random": random_seeds} if random_seeds else {}, "grid": args.grid, "epsilon": epsilon},
    )
    print(json.dumps({"f2": verdict.f2_pass, "f3": verdict.f3_pass, "f4": verdict.f4_pass}))
    return EXIT_OK


def _fit(out_dir: str, fit_rows: list) -> dict:
    """Fit the exp-channel to ``fit_rows`` and write ``fit.json``; a diverged fit is reported, not raised.

    A diverged fit removes any ``fit.json`` an earlier run left, which would pass for this run's.
    """
    path = os.path.join(out_dir, "fit.json")
    try:
        fit = wl.fit_exp_channel(fit_rows)
    except wl.FitDiverged as exc:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        return {"error": str(exc)}
    _atomic_write(path, lambda tmp: wl.write_fit_report(tmp, fit, len(fit_rows)))
    return {"tau": fit.params.tau, "t_p": fit.params.t_p, "vth": fit.params.vth_norm, "rms": fit.rms}


def cmd_waveform(args) -> int:
    params = ExpChannelParams(args.tau, args.t_p, args.vth)
    disturbance = wl.Disturbance(args.amplitude, args.period if args.period else args.tau)
    df = exp_channel(params)
    stimuli = list(read_trace(args.stimulus).values()) if args.stimulus else wl.calibration_stimuli(df)
    rng = np.random.default_rng(args.seed)
    eta_plus = args.eta_plus if args.eta_plus is not None else 0.02 * delta_min(df)
    eta_minus = wl.eta_minus_for(df, eta_plus)
    samples: list[wl.DeviationSample] = []
    for stim in stimuli:
        crossings = wl.synth_crossings(params, disturbance, stim, args.horizon, rng)
        samples.extend(wl.deviation_analysis(stim, crossings, df))
    result = wl.DeviationResult(samples, eta_minus, eta_plus)
    fit_rows = [
        (s.T, s.delay, None) if s.value else (s.T, None, s.delay) for s in samples if math.isfinite(s.T)
    ]
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "deviations.csv"), lambda tmp: wl.write_deviation_csv(tmp, result))
    fit_report = _fit(args.out, fit_rows)
    bins = wl.bin_coverage(result)
    _manifest(
        args.out,
        "waveform",
        args,
        [args.stimulus] if args.stimulus else [],
        {
            "seeds": {"phase": args.seed} if disturbance.amplitude_fraction > 0 and stimuli else {},
            "eta_plus": eta_plus,
            "eta_minus": eta_minus,
            "coverage": result.coverage,
            "bins": [{"T_lo": a, "T_hi": b, "n": n, "coverage": c} for a, b, n, c in bins],
        },
    )
    print(json.dumps({"coverage": result.coverage, "samples": len(samples), "fit": fit_report}))
    return EXIT_OK


def _checked(kind, ok, rule: str):
    """An argparse ``type=`` that parses with ``kind`` and rejects values failing ``ok``."""

    def parse(text: str):
        try:
            x = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {text!r}") from None
        if not ok(x):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return x

    return parse


class _GridAction(argparse.Action):
    """Checks START > 0, START <= STOP, STEP > 0 and fewer than 10^5 steps across ``--grid``."""

    def __call__(self, parser, namespace, values, option_string=None):
        start, stop, step = values
        if not start > 0:
            raise argparse.ArgumentError(self, f"START must be > 0, got {start}")
        if not step > 0:
            raise argparse.ArgumentError(self, f"STEP must be > 0, got {step}")
        if start > stop:
            raise argparse.ArgumentError(self, f"START {start} exceeds STOP {stop}")
        if (stop - start) / step >= 10**5:
            raise argparse.ArgumentError(self, "(STOP - START) / STEP must be below 100000")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="involution", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    positive = _checked(float, lambda x: math.isfinite(x) and x > 0, "finite and > 0")
    non_negative = _checked(float, lambda x: math.isfinite(x) and x >= 0, "finite and >= 0")
    unit = _checked(float, lambda x: 0 < x < 1, "in (0, 1)")

    def at_least(least: int):
        return _checked(int, lambda k: k >= least, f">= {least}")

    def run_args(p, events_max=True):
        p.add_argument("--horizon", type=positive, default=60.0, help="simulation horizon in seconds")
        if events_max:
            p.add_argument("--events-max", type=at_least(1), default=10**6, help="event budget per run")
        p.add_argument("--out", default="out", help="output directory")

    def delay_args(p):
        p.add_argument("--tau", type=positive, required=True, help="RC constant")
        p.add_argument("--t-p", dest="t_p", type=positive, required=True, help="pure delay")
        p.add_argument("--vth", type=unit, required=True, help="normalized threshold")

    def eta_args(p):
        p.add_argument("--eta-plus", dest="eta_plus", type=non_negative, default=0.0)
        p.add_argument("--eta-minus", dest="eta_minus", type=non_negative, default=0.0)

    # no abbreviations: "--seed" must not silently mean spf-sweep's "--seeds"
    p = sub.add_parser("simulate", help="run a netlist against a stimulus trace", allow_abbrev=False)
    p.add_argument("netlist", help="netlist JSON file")
    p.add_argument("stimulus", help="stimulus trace CSV (one signal per input port)")
    run_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="characterize a delay pair and eta budget", allow_abbrev=False)
    delay_args(p)
    eta_args(p)
    p.add_argument("--out", default=None, help="output directory (default: report on stdout only)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("spf-sweep", help="sweep pulse widths through the storage-loop filter", allow_abbrev=False)
    delay_args(p)
    eta_args(p)
    p.add_argument(
        "--grid",
        nargs=3,
        type=_checked(float, math.isfinite, "finite"),
        action=_GridAction,
        metavar=("START", "STOP", "STEP"),
        default=[0.1, 1.5, 0.05],
    )
    p.add_argument("--strategy", action="append", default=None, choices=["zero", "worst", "random"])
    p.add_argument("--seeds", type=at_least(0), default=3, help="number of random-strategy seeds")
    p.add_argument("--epsilon", type=positive, default=None, help="minimum legal output pulse width")
    run_args(p)
    p.set_defaults(func=cmd_spf_sweep)

    p = sub.add_parser("waveform", help="analog RC surrogate: crossings, deviations, fit", allow_abbrev=False)
    delay_args(p)
    amplitude = _checked(float, lambda x: 0 <= x <= 0.2, "in [0, 0.2]")
    p.add_argument("--amplitude", type=amplitude, default=0.0, help="rail disturbance fraction")
    p.add_argument("--period", type=positive, default=None, help="disturbance period (default: tau)")
    p.add_argument("--eta-plus", dest="eta_plus", type=non_negative)
    p.add_argument("--stimulus", default=None, help="stimulus trace CSV (default: calibration train)")
    p.add_argument("--seed", type=at_least(0), default=0, help="seed of the disturbance phases")
    run_args(p, events_max=False)
    p.set_defaults(func=cmd_waveform)

    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    args.argv = argv  # what the manifest records, not the host program's sys.argv
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Standard output is the only pipe written: output files get fresh
        # names.  Its reader has gone (``involution analyze | head``), which
        # is not worth a message; point stdout at devnull, so that the flush
        # at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARSE
    except Exception as exc:
        for types, kind, code in _EXIT:
            if isinstance(exc, types):
                return _error(kind, str(exc), code)
        raise


if __name__ == "__main__":
    sys.exit(main())
