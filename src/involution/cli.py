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

Exit codes: 0 ok, 2 usage, 3 input/parse error, 4 model-constraint error,
5 engine error.
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
from .circuit import CausalityFault, EngineError, HorizonExceeded, NetlistError, execute, parse_circuit
from .delay_model import DelayModelError, ExpChannelParams, delta_min, exp_channel
from .rootfind import XTOL, NoBracket
from .signals import Signal, SignalError, make_signal, read_trace, write_trace

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
        "argv": sys.argv[1:],
        "version": __version__,
        "inputs": {p: _sha256(p) for p in inputs},
        "horizon": getattr(args, "horizon", None),
        "seeds": extra.pop("seeds", {}),
        "tolerances": {"root_xtol": XTOL},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    doc.update(extra)
    _write_json(os.path.join(out_dir, "manifest.json"), doc)


def _error(kind: str, message: str, code: int) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _exp_params(args) -> ExpChannelParams:
    return ExpChannelParams(args.tau, args.t_p, args.vth)


def cmd_simulate(args) -> int:
    try:
        with open(args.netlist) as fh:
            circuit = parse_circuit(fh.read(), base_dir=os.path.dirname(os.path.abspath(args.netlist)))
        stimuli = read_trace(args.stimulus)
    except OSError as exc:
        return _error("io", str(exc), EXIT_PARSE)
    except (NetlistError, SignalError, json.JSONDecodeError, DelayModelError, ch.ChannelError, KeyError) as exc:
        return _error("parse", str(exc), EXIT_PARSE)
    try:
        e = execute(circuit, stimuli, args.horizon, events_max=args.events_max)
    except (HorizonExceeded, CausalityFault, EngineError) as exc:
        return _error("engine", str(exc), EXIT_ENGINE)
    os.makedirs(args.out, exist_ok=True)
    for name, sig in {**e.vertex_signals, **{f"chan_{k}": v for k, v in e.channel_signals.items()}}.items():
        _atomic_write(os.path.join(args.out, f"{name}.csv"), lambda tmp, s=sig, n=name: write_trace(tmp, {n: s}))
    seeds = {
        name: edge.spec.strategy.seed
        for name, edge in circuit.channels.items()
        if isinstance(edge.spec, ch.EtaInvolution) and isinstance(edge.spec.strategy, ch.UniformRandom)
    }
    _manifest(
        args.out,
        "simulate",
        args,
        [args.netlist, args.stimulus],
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
        df = exp_channel(_exp_params(args))
        bounds = ch.EtaBounds(eta_minus=args.eta_minus, eta_plus=args.eta_plus)
        char = analysis.characterize(df, bounds)
    except (analysis.ConstraintCViolated, analysis.NoSignChange, DelayModelError, NoBracket, ch.ChannelError) as exc:
        report = {"ok": False, "error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(report, indent=2))
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            _write_json(os.path.join(args.out, "characterization.json"), report)
        return EXIT_CONSTRAINT
    report = {
        "ok": True,
        "params": {"tau": args.tau, "t_p": args.t_p, "vth": args.vth},
        **char.to_dict(),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "characterization.json"), report)
        _manifest(args.out, "analyze", args, [], {"seeds": {}})
    return EXIT_OK


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
    strategies = _strategy_set(args.strategy, args.seeds)
    if not strategies:
        return _error("usage", "no strategy to sweep: --strategy random needs --seeds >= 1", EXIT_USAGE)
    try:
        df = exp_channel(_exp_params(args))
        bounds = ch.EtaBounds(eta_minus=args.eta_minus, eta_plus=args.eta_plus)
        char = analysis.characterize(df, bounds)
    except (analysis.AnalysisError, DelayModelError, ch.ChannelError) as exc:
        return _error("constraint", str(exc), EXIT_CONSTRAINT)
    epsilon = args.epsilon if args.epsilon is not None else char.delta_up / 2.0
    try:
        ht = analysis.dimension_ht_buffer(3.0 * char.tau_star, char.duty)
        # plain floats, so that sweep.csv writes each delta0 as a float literal
        grid = np.arange(args.grid[0], args.grid[1] + 1e-12, args.grid[2]).tolist()
        points = analysis.run_spf_sweep(
            df, bounds, ht, grid, strategies, horizon=args.horizon, events_max=args.events_max
        )
    except analysis.SearchFailed as exc:
        return _error("constraint", str(exc), EXIT_CONSTRAINT)
    except (HorizonExceeded, CausalityFault, EngineError) as exc:
        return _error("engine", str(exc), EXIT_ENGINE)

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
    _manifest(
        args.out,
        "spf-sweep",
        args,
        [],
        {"seeds": {"random": list(range(args.seeds))}, "grid": args.grid, "epsilon": epsilon},
    )
    print(json.dumps({"f2": verdict.f2_pass, "f3": verdict.f3_pass, "f4": verdict.f4_pass}))
    return EXIT_OK


def _calibration_stimuli(df) -> list[Signal]:
    """Two-pulse stimuli spanning a range of previous-output-to-input delays."""
    dmin = delta_min(df)
    dinf = df.delta_inf_up
    stimuli = []
    widths = np.linspace(1.2 * dinf, 4.0 * dinf, 12)
    gaps = np.linspace(0.3 * dmin, 4.0 * dinf, 12)
    for w in widths:
        for g in gaps:
            w2 = 1.5 * dinf
            stimuli.append(
                make_signal(0, [(0.0, 1), (w, 0), (w + g, 1), (w + g + w2, 0)])
            )
    return stimuli


def cmd_waveform(args) -> int:
    try:
        params = wl.RcSurrogateParams(
            tau_rc=args.tau,
            vth_norm=args.vth,
            pure_delay=args.t_p,
            vdd_disturbance=wl.Disturbance(
                amplitude_fraction=args.amplitude,
                period=args.period if args.period else args.tau,
                phase=None if args.amplitude > 0 else 0.0,
            ),
        )
        df = exp_channel(params.matching_exp_channel())
        if args.stimulus:
            stimuli = list(read_trace(args.stimulus).values())
        else:
            stimuli = _calibration_stimuli(df)
    except OSError as exc:
        return _error("io", str(exc), EXIT_PARSE)
    except (DelayModelError, SignalError) as exc:
        return _error("parse", str(exc), EXIT_PARSE)

    rng = np.random.default_rng(args.seed)
    eta_plus = args.eta_plus if args.eta_plus is not None else 0.02 * delta_min(df)
    all_samples: list[wl.DeviationSample] = []
    fit_rows: list[tuple[float, float | None, float | None]] = []
    try:
        eta_minus = wl.eta_minus_for(df, eta_plus)
        for stim in stimuli:
            crossings = wl.synth_crossings(params, stim, args.horizon, rng=rng)
            res = wl.deviation_analysis(stim, crossings, df, eta_plus)
            all_samples.extend(res.samples)
            _, log = ch.apply_channel(ch.Involution(df), stim)
            for rec, (t_c, edge) in zip([r for r in log if not r.canceled], crossings):
                if math.isfinite(rec.T):
                    fit_rows.append(
                        (rec.T, t_c - rec.time, None) if edge == "rising" else (rec.T, None, t_c - rec.time)
                    )
    except (wl.EtaBudgetInvalid, DelayModelError) as exc:
        return _error("constraint", str(exc), EXIT_CONSTRAINT)

    covered = sum(1 for s in all_samples if -eta_minus <= s.D <= eta_plus)
    coverage = covered / len(all_samples) if all_samples else 1.0
    result = wl.DeviationResult(all_samples, eta_minus, eta_plus, coverage, 0, 0)
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "deviations.csv"), lambda tmp: wl.write_deviation_csv(tmp, result))
    fit_report = {}
    try:
        fitted, rms = wl.fit_exp_channel(fit_rows, seed=args.seed)
        fit_report = {"tau": fitted.tau, "t_p": fitted.t_p, "vth": fitted.vth_norm, "rms": rms}
        _atomic_write(
            os.path.join(args.out, "fit.json"),
            lambda tmp: wl.write_fit_report(tmp, fitted, rms, len(fit_rows)),
        )
    except wl.FitDiverged as exc:
        fit_report = {"error": str(exc)}
    bins = wl.bin_coverage(all_samples, eta_minus, eta_plus)
    _manifest(
        args.out,
        "waveform",
        args,
        [args.stimulus] if args.stimulus else [],
        {
            "seeds": {"phase": args.seed},
            "eta_plus": eta_plus,
            "eta_minus": eta_minus,
            "coverage": coverage,
            "bins": [{"T_lo": a, "T_hi": b, "n": n, "coverage": c} for a, b, n, c in bins],
        },
    )
    print(json.dumps({"coverage": coverage, "samples": len(all_samples), "fit": fit_report}))
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
    """Checks START <= STOP and STEP > 0 across the three values of ``--grid``."""

    def __call__(self, parser, namespace, values, option_string=None):
        start, stop, step = values
        if not step > 0:
            raise argparse.ArgumentError(self, f"STEP must be > 0, got {step}")
        if start > stop:
            raise argparse.ArgumentError(self, f"START {start} exceeds STOP {stop}")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="involution", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    positive = _checked(float, lambda x: math.isfinite(x) and x > 0, "finite and > 0")

    def run_args(p, events_max=True):
        p.add_argument("--horizon", type=positive, default=60.0, help="simulation horizon in seconds")
        if events_max:
            p.add_argument(
                "--events-max", type=_checked(int, lambda k: k >= 1, ">= 1"), default=10**6, help="event budget per run"
            )
        p.add_argument("--out", default="out", help="output directory")

    def delay_args(p):
        p.add_argument("--tau", type=float, required=True, help="RC constant")
        p.add_argument("--t-p", dest="t_p", type=float, required=True, help="pure delay")
        p.add_argument("--vth", type=float, required=True, help="normalized threshold in (0,1)")

    def eta_args(p):
        p.add_argument("--eta-plus", dest="eta_plus", type=float, default=0.0)
        p.add_argument("--eta-minus", dest="eta_minus", type=float, default=0.0)

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
    p.add_argument(
        "--seeds", type=_checked(int, lambda k: k >= 0, ">= 0"), default=3, help="number of random-strategy seeds"
    )
    p.add_argument("--epsilon", type=positive, default=None, help="minimum legal output pulse width")
    run_args(p)
    p.set_defaults(func=cmd_spf_sweep)

    p = sub.add_parser("waveform", help="analog RC surrogate: crossings, deviations, fit", allow_abbrev=False)
    delay_args(p)
    p.add_argument("--amplitude", type=float, default=0.0, help="rail disturbance fraction [0, 0.2]")
    p.add_argument("--period", type=positive, default=None, help="disturbance period (default: tau)")
    p.add_argument(
        "--eta-plus", dest="eta_plus", type=_checked(float, lambda x: math.isfinite(x) and x >= 0, "finite and >= 0")
    )
    p.add_argument("--stimulus", default=None, help="stimulus trace CSV (default: calibration train)")
    p.add_argument("--seed", type=int, default=0, help="seed of the disturbance phases and the fit's random starts")
    run_args(p, events_max=False)
    p.set_defaults(func=cmd_waveform)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    if getattr(args, "strategy", None) is None and args.command == "spf-sweep":
        args.strategy = ["zero"]
    try:
        return args.func(args)
    except (HorizonExceeded, CausalityFault, EngineError) as exc:
        return _error("engine", str(exc), EXIT_ENGINE)
    except (NetlistError, SignalError, DelayModelError) as exc:
        return _error("parse", str(exc), EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
