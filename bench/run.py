#!/usr/bin/env python3
"""Benchmark of the involution command-line tool on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload inverter_chain --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload spf_sweep --seed 1 --trace 1

``--trace 0`` measures the workload's command for ``--seconds`` seconds and
reports the end-to-end metrics, with times in nominal-host seconds (see
hostspeed.py).  ``--trace 1`` runs a fixed amount of work once
untraced and once traced, and reports the per-layer metrics and the tracing
overhead.  ``--workload all`` runs every workload, each in its own process.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here: imports, inputs and the warm-up command

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS/OpenMP thread, so that a run stays within two cores

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

import hostspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("inverter_chain", "chain_verify", "spf_sweep", "analyze_grid", "waveform_fit")
SETUP_REPLICAS = 4  # fresh processes that repeat the set-up; setup_s is the median over them and this run
BLOCK_S = 0.25  # commands between two host-speed reference loops
PHASE_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ok/attempted",
    "cmd_s": "s",
    "work_per_s": "items/s",
}

# Per-layer metrics of the result line.  The traced run prints more, among them
# the seconds spent in each layer; those read exactly 0 on every workload that
# does not reach the layer, so the result line carries the counts, which repeat
# exactly for a seed, and only the times that no workload leaves at 0.
PER_LAYER = (
    "circuit.events",
    "channel.feed.calls",
    "channel.eta_draws",
    "channel.cancel_ratio",
    "channel.guard_hits",
    "signals.make_signal.calls",
    "signals.transitions_built",
    "signals.value_at.calls",
    "delay_model.evals",
    "delay_model.delta_min.calls",
    "rootfind.bisect_root.calls",
    "rootfind.f_evals",
    "rootfind.scan_sign_change.calls",
    "analysis.solve_tau.calls",
    "waveform_lab.fit.nfev",
    "runtime.gc_gen2_collections",
    "runtime.gc_pause_s",
    "trace.overhead_s",
)


class BenchError(RuntimeError):
    pass


def load_workloads():
    """Import the workloads against the package source of this checkout, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "involution", "__init__.py")):
        raise BenchError(f"package source not found under {SRC}")
    sys.path.insert(0, SRC)
    import involution
    import workloads

    if os.path.dirname(os.path.abspath(involution.__file__)) != os.path.join(SRC, "involution"):
        raise BenchError(f"imported involution from {involution.__file__}, not from {SRC}")
    return workloads


def run_phase(args, phase: str, work_dir: str) -> dict:
    """Run one phase of this workload in a fresh process; returns its JSON result."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--phase", phase, "--work", work_dir]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=PHASE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{phase} phase failed with exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def iterate_safely(wl):
    """One command of the closed loop; a command that raises counts as failed."""
    from workloads import Sample

    try:
        return wl.iterate()
    except Exception:  # the loop must go on and report the failure
        traceback.print_exc(file=sys.stderr)
        return Sample(float("nan"), 0, False, "")


def measure(wl, seconds: float) -> list:
    """Closed loop for ``seconds``, in blocks of commands with a reference loop between blocks."""
    samples = []
    before = hostspeed.reference_seconds()
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        block, busy = [], 0.0
        while busy < BLOCK_S:
            block.append(iterate_safely(wl))
            busy += block[-1].seconds
            if wl.collect_between:
                gc.collect()
        after = hostspeed.reference_seconds()
        for s in block:
            s.reference = (before + after) / 2
        samples += block
        before = after
    return samples


def timed_metrics(wl, samples, setups) -> tuple[dict, list[str]]:
    """End-to-end metrics; every time is in nominal-host seconds (see hostspeed.py)."""
    good = [s for s in samples if s.ok] or samples
    times = [hostspeed.nominal(s.seconds, s.reference) for s in good]
    failed = sum(not s.ok for s in samples)
    values = {
        "setup_s": statistics.median(nominal for nominal, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": (len(samples) - failed) / len(samples),
        "cmd_s": statistics.median(times),
        "work_per_s": statistics.median(s.work / t for s, t in zip(good, times)),
    }
    wall = {
        "setup_s": statistics.median(raw for _, raw in setups),
        "cmd_s": statistics.median(s.seconds for s in good),
        "work_per_s": statistics.median(s.work / s.seconds for s in good),
    }
    ref = statistics.median(s.reference for s in good)
    lines = [
        f"# {wl.name} seed={wl.seed}: {len(samples)} commands attempted, {failed} failed; "
        f"times in nominal-host seconds, wall seconds in brackets (reference loop median {ref:.6g} s)"
    ]
    for human, (key, unit, scale) in wl.human.items():
        lines.append(
            f"#   {human:<24} {values[key] * scale:.6g} {unit} [{wall[key] * scale:.6g}]  (median of {len(good)})"
        )
        if key == "cmd_s" and len(times) * 0.05 >= 10:
            p95 = statistics.quantiles(times, n=20, method="inclusive")[-1] * scale
            lines.append(f"#   {human + '.p95':<24} {p95:.6g} {unit}  ({int(len(times) * 0.05)} samples beyond)")
    lines.append(
        f"#   {'setup_s':<24} {values['setup_s']:.6g} s [{wall['setup_s']:.6g}]  (median of {len(setups)} set-ups)"
    )
    lines.append(f"#   {'peak_rss_mb':<24} {values['peak_rss_mb']:.6g} MB")
    lines.append(f"#   {'fail_ratio':<24} {failed}/{len(samples)}")
    lines.append(f"#   {'output_digest':<24} {wl.output_digest()}")
    return values, lines


def run_timed(args, wl, setup) -> dict:
    setups = [setup]
    for k in range(SETUP_REPLICAS):
        replica = os.path.join(wl.dir, f"setup{k}")
        result = run_phase(args, "setup", replica)
        setups.append((result["setup_s"], result["wall_s"]))
        shutil.rmtree(replica, ignore_errors=True)
    wl.reference(lambda phase: run_phase(args, phase, wl.dir))
    gc.collect()
    samples = measure(wl, args.seconds)
    values, lines = timed_metrics(wl, samples, setups)
    print("\n".join(lines))
    failed = sum(not s.ok for s in samples)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "canceled/arrival"
    return "count"


def run_traced(args, wl) -> dict:
    from tracer import Tracer

    wl.reference(lambda phase: run_phase(args, phase, wl.dir))
    tracer = Tracer()

    def fixed_pass(traced: bool) -> tuple[list, float]:
        """The fixed work once; returns its samples and its command time in nominal-host seconds."""
        gc.collect()
        before = hostspeed.reference_seconds()
        with tracer.installed() if traced else contextlib.nullcontext():
            samples = [iterate_safely(wl) for _ in range(wl.trace_iterations)]
        after = hostspeed.reference_seconds()
        return samples, hostspeed.nominal(sum(s.seconds for s in samples), (before + after) / 2)

    untraced, untraced_s = fixed_pass(False)
    traced, traced_s = fixed_pass(True)
    samples = untraced + traced
    values = tracer.layer_metrics()
    values["trace.overhead_s"] = traced_s - untraced_s
    os.makedirs(os.path.join(WORK_ROOT, "traces"), exist_ok=True)
    spans_path = os.path.join(WORK_ROOT, "traces", f"{wl.name}-s{wl.seed}.csv")
    tracer.write_spans(spans_path)
    failed = sum(not s.ok for s in samples)
    print(f"# {wl.name} seed={wl.seed}: {len(traced)} traced and {len(untraced)} untraced commands, {failed} failed")
    print(
        f"# commands took {untraced_s:.6g} s untraced and {traced_s:.6g} s traced (nominal-host seconds); "
        f"{len(tracer.spans)} spans written to {spans_path}"
    )
    for k, v in values.items():
        print(f"#   {k:<36} {v:.6g} {layer_unit(k)}")
    metrics = {k: {"value": values[k], "unit": layer_unit(k)} for k in PER_LAYER}
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process; prints their reports and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} failed with exit {proc.returncode}", file=sys.stderr)
            return 1
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0, help="length of the measured loop (--trace 0)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("setup", "reference"), help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        wl_module = load_workloads()
    except (BenchError, ImportError) as exc:
        print(f"cannot load the package under test: {exc}", file=sys.stderr)
        return 3
    work_dir = args.work or os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    wl = wl_module.WORKLOADS[args.workload](args.seed, work_dir)
    try:
        if args.phase == "reference":
            print(json.dumps(wl.reference_phase()))
            return 0
        wl.setup()
        wall = time.perf_counter() - T_START
        setup = (hostspeed.nominal(wall, hostspeed.reference_seconds()), wall)
        if args.phase == "setup":
            print(json.dumps({"setup_s": setup[0], "wall_s": wall}))
            return 0
        result = run_traced(args, wl) if args.trace else run_timed(args, wl, setup)
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    finally:
        if args.phase is None:
            shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
