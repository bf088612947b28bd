"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Expected values are confirmed against the independent oracles in
``oracles.py`` (closed forms and stand-alone bisection) before being
compared with the library outputs.
"""

import math
import time

import numpy as np
import pytest

from involution.analysis import (
    characterize,
    dimension_ht_buffer,
    f_map,
    run_spf_sweep,
    spf_check,
)
from involution.channel import (
    EtaBounds,
    EtaInvolution,
    FixedSequence,
    Involution,
    UniformRandom,
    WorstCaseShrink,
    Zero,
    apply_channel,
)
from involution.circuit import execute, or_loop_circuit
from involution.delay_model import (
    ExpChannelParams,
    check_involution,
    delta_min,
    derivative_up,
    exp_channel,
)
from involution.signals import decompose_pulses, make_signal, pulse
from involution.waveform_lab import (
    DeviationResult,
    Disturbance,
    bin_coverage,
    deviation_analysis,
    eta_minus_for,
    fit_exp_channel,
    synth_crossings,
)

import oracles
from oracles import cancellation_oracle


def report(num: int, text: str, passed: bool, extra: str = "") -> None:
    # visible with `pytest -s` (or in the -rA summary); asserted either way
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} - {text}"
    if extra:
        line += f" ({extra})"
    print(line, flush=True)
    assert passed, line


def random_triples(n, seed=2718):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        tau = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        t_p = tau * float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        vth = float(rng.uniform(0.1, 0.9))
        out.append(ExpChannelParams(tau, t_p, vth))
    return out


def representable_log_grid(df, n=200):
    # float64 squeezes the distance to the asymptote out of the mantissa for
    # very large T, so the grid stops where the composed identity is still
    # representable at the 1e-9 tolerance
    tau = df.params.tau
    dinf = max(df.delta_inf_up, df.delta_inf_down)
    edge = -0.9 * min(df.delta_inf_up, df.delta_inf_down)
    t_max = min(100.0 * tau, tau * math.log(1e-10 / float(np.spacing(dinf))) - dinf)
    t_max = max(t_max, 2.0 * tau)
    return edge + np.logspace(-6, np.log10(t_max - edge), n)


TRIPLES = random_triples(50)


def test_criterion_01_involution_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for p in TRIPLES:
        df = exp_channel(p)
        res = check_involution(df, representable_log_grid(df), 1e-9)
        worst = max(worst, res.max_residual)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "involution identity residual <= 1e-9 over 50 random exp-channels x 200 T-points",
        worst <= 1e-9 and elapsed < 1.0,
        f"max residual {worst:.3e}, {elapsed:.2f} s",
    )


def test_criterion_02_delta_min_equals_pure_delay():
    worst = 0.0
    for p in TRIPLES:
        worst = max(worst, abs(delta_min(exp_channel(p)) - p.t_p))
    report(2, "delta_min == T_p within 1e-9 for exp-channels", worst <= 1e-9, f"max |err| {worst:.3e}")


def test_criterion_03_reference_constants(ref, zero_eta):
    # confirm with the independent oracles first
    oracle_tau = oracles.ref_tau_star()
    oracle_delta = oracles.ref_delay(-oracle_tau)
    oracle_tilde = oracles.plain_bisect(
        lambda x: oracles.ref_first_pulse(x) - oracle_delta, oracles.REF_D_INF - 0.5 + 1e-12, oracles.REF_D_INF - 1e-12
    )
    assert oracle_tilde == pytest.approx(oracles.REF_D_INF - oracle_delta, abs=1e-9)  # symmetric identity
    q = math.exp(-oracles.REF_D_INF)
    oracle_a = 1.0 + q / (1.0 - q)

    char = characterize(ref, zero_eta)
    checks = [
        ("d_inf_up", ref.delta_inf_up, 1.19315, 1e-4, 0.5 + math.log(2)),
        ("delta_min", delta_min(ref), 0.5, 1e-9, 0.5),
        ("tau_star", char.tau_star, 0.6491, 5e-4, oracle_tau),
        ("Delta", char.delta_up, 0.3246, 5e-4, oracle_delta),
        ("gamma", char.duty, 0.5, 1e-6, 0.5),
        ("tilde_delta0", char.tilde_delta0, 0.8686, 5e-4, oracle_tilde),
        ("growth a", char.growth_rate, 1.4353, 1e-4, oracle_a),
    ]
    ok = True
    details = []
    for name, got, frozen, tol, oracle_value in checks:
        good = abs(got - frozen) <= tol and abs(got - oracle_value) <= max(tol * 1e-2, 1e-9)
        ok = ok and good
        details.append(f"{name}={got:.6f}{'' if good else '!'}")
    report(3, "reference-channel constants match oracles and frozen values", ok, ", ".join(details))


def test_criterion_04_regime_sweep(ref, zero_eta):
    t0 = time.perf_counter()
    char = characterize(ref, zero_eta)
    ht = dimension_ht_buffer(3.0 * char.tau_star, char.duty)
    circuit = or_loop_circuit(EtaInvolution(ref, zero_eta, Zero()), ht)
    failures = []
    for delta0 in np.arange(0.1, 1.5 + 1e-9, 0.01):
        d0 = float(round(delta0, 10))
        e = execute(circuit, {"i": pulse(0, d0)}, horizon=40.0)
        or_trs = [(t.time, t.value) for t in e.vertex_signals["or1"].transitions]
        out_trs = e.vertex_signals["o"].transitions
        if d0 <= char.pass_below:
            if or_trs != [(0.0, 1), (d0, 0)] or not e.vertex_signals["o"].is_zero:
                failures.append((d0, "pass-through violated"))
        elif d0 >= char.lock_above:
            if or_trs != [(0.0, 1)] or len(out_trs) != 1 or out_trs[0].value != 1:
                failures.append((d0, "lock violated"))
    elapsed = time.perf_counter() - t0
    report(
        4,
        "regime sweep over [0.1, 1.5] step 0.01: pass-through and lock exact, no exceptions",
        not failures and elapsed < 10.0,
        f"{len(failures)} failures, {elapsed:.2f} s",
    )


def test_criterion_05_engine_formula_tie(ref):
    bounds = EtaBounds(eta_minus=0.1, eta_plus=0.05)
    char = characterize(ref, bounds)
    circuit = or_loop_circuit(EtaInvolution(ref, bounds, WorstCaseShrink()))
    worst = 0.0
    compared = 0
    for delta0 in np.linspace(char.tilde_delta0 + 1e-3, char.tilde_delta0 + 0.05, 20):
        e = execute(circuit, {"i": pulse(0, float(delta0))}, horizon=60.0)
        observed = [
            p.up_time for p in decompose_pulses(e.vertex_signals["or1"], 60.0)[1:] if math.isfinite(p.up_time)
        ]
        expected = [
            ref.down(float(delta0) - bounds.eta_plus - ref.delta_inf_up)
            + float(delta0) - bounds.eta_minus - bounds.eta_plus - ref.delta_inf_up
        ]
        while len(expected) < len(observed):
            expected.append(f_map(ref, bounds, expected[-1]))
        assert observed
        for got, want in zip(observed, expected):
            worst = max(worst, abs(got - want))
            compared += 1
    report(
        5,
        "worst-case loop up-times match the one-step map iterates within 1e-9",
        worst <= 1e-9 and compared >= 20,
        f"{compared} pulses compared, max |err| {worst:.3e}",
    )


def test_criterion_06_lipschitz_growth(ref, zero_eta):
    char = characterize(ref, zero_eta)
    a = 1.0 + derivative_up(ref, 0.0)
    rng = np.random.default_rng(31)
    violations = 0
    for _ in range(100):
        d1 = char.delta_up + float(rng.uniform(1e-6, 0.9 * ref.delta_inf_down - char.delta_up))
        ratio = (f_map(ref, zero_eta, d1) - char.delta_up) / (d1 - char.delta_up)
        if ratio < a:
            violations += 1
    report(6, "expansion ratio >= 1 + delta_up'(0) for 100 random widths above the fixed point", violations == 0)


def test_criterion_07_train_bounds(ref):
    bounds = EtaBounds(eta_minus=0.1, eta_plus=0.05)
    char = characterize(ref, bounds)
    runs = []
    for seed in range(88):
        runs.append((0.6 + 0.55 * (seed % 8) / 8.0, UniformRandom(seed=seed)))
    for d0 in (char.tilde_delta0 - 0.02, char.tilde_delta0, char.tilde_delta0 + 0.02):
        runs.append((d0, WorstCaseShrink()))
    for d0 in (0.7, 0.8, 0.9, 1.0, 1.1, 1.15, 1.2, 0.75, 0.85):
        runs.append((d0, Zero()))
    assert len(runs) == 100
    trains = 0
    bad = []
    for d0, strategy in runs:
        circuit = or_loop_circuit(EtaInvolution(ref, bounds, strategy))
        e = execute(circuit, {"i": pulse(0, float(d0))}, horizon=60.0)
        pulses = decompose_pulses(e.vertex_signals["or1"], 60.0)[1:]
        if len(pulses) >= 2:
            trains += 1
        violated = any(
            (math.isfinite(p.up_time) and p.up_time > char.delta_up + 1e-9)
            or (math.isfinite(p.down_time) and p.down_time < char.period - char.delta_up - 1e-9)
            or (math.isfinite(p.down_time) and p.duty_cycle > char.duty + 1e-9)
            for p in pulses
        )
        if violated and e.resolved_value["o"] != 1:
            bad.append((d0, strategy))
    report(
        7,
        "train bounds (up-time, down-time, duty) hold or the run resolves to 1; 100 seeded runs",
        not bad and trains >= 10,
        f"{trains} runs with true trains",
    )


def test_criterion_08_cancellation_oracle(ref):
    rng = np.random.default_rng(8)
    big = EtaBounds(1e6, 1e6)
    disagreements = 0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        wanted = [float(u) for u in rng.uniform(0.0, 10.0, n)]
        times = [20.0 * (i + 1) for i in range(n)]
        etas, prev_t, prev_delta = [], -math.inf, 0.0
        for t, u in zip(times, wanted):
            etas.append(u - t - ref.up(t - prev_t - prev_delta))
            prev_t, prev_delta = t, u - t
        spec = EtaInvolution(ref, big, FixedSequence(tuple(etas)))
        s = make_signal(0, [(t, (i + 1) % 2) for i, t in enumerate(times)])
        _, log = apply_channel(spec, s)
        got = [r.index - 1 for r in log if not r.canceled]
        if got != cancellation_oracle([r.out_time for r in log]):
            disagreements += 1
    report(8, "incremental cancellation equals the quadratic oracle on 1000 random pending lists", disagreements == 0)


def test_criterion_09_spf_verdict(ref, zero_eta):
    runs = []
    configs = [
        (zero_eta, np.arange(0.1, 1.5 + 1e-9, 0.01), {"zero": Zero()}),
        (
            EtaBounds(eta_minus=0.1, eta_plus=0.05),
            np.arange(0.1, 1.5 + 1e-9, 0.05),
            {
                "zero": Zero(),
                "worst": WorstCaseShrink(),
                "r0": UniformRandom(seed=0),
                "r1": UniformRandom(seed=1),
                "r2": UniformRandom(seed=2),
            },
        ),
    ]
    ok = True
    details = []
    for bounds, grid, strategies in configs:
        char = characterize(ref, bounds)
        ht = dimension_ht_buffer(3.0 * char.tau_star, char.duty)
        points = run_spf_sweep(ref, bounds, char, ht, [float(d) for d in grid], strategies, horizon=60.0)
        verdict = spf_check([p.out_signal for p in points], [p.delta0 for p in points], char.delta_up / 2.0)
        ok = ok and verdict.f2_pass and verdict.f3_pass and verdict.f4_pass
        details.append(
            f"eta=({bounds.eta_minus},{bounds.eta_plus}): {len(points)} runs, "
            f"F2={verdict.f2_pass} F3={verdict.f3_pass} F4={verdict.f4_pass} "
            f"witnesses={len(verdict.f4_witnesses)}"
        )
    # planted violation: an epsilon/10 pulse must be flagged
    char = characterize(ref, zero_eta)
    eps = char.delta_up / 2.0
    planted = spf_check([make_signal(0, [(1.0, 1), (1.0 + eps / 10.0, 0)])], [0.9], eps)
    ok = ok and not planted.f4_pass and len(planted.f4_witnesses) == 1
    report(9, "pulse-filtration contract holds over the sweep; planted violation detected", ok, "; ".join(details))


def test_criterion_10_surrogate_oracle(ref):
    surrogate = ExpChannelParams(1.0, 0.5, 0.5)
    rng = np.random.default_rng(10)
    worst = 0.0
    mismatched = 0
    for _ in range(100):
        n = int(rng.integers(1, 10))
        t, times = 0.0, []
        for _ in range(n):
            t += 0.05 + float(rng.exponential(1.0))
            times.append(t)
        stim = make_signal(0, [(tt, (i + 1) % 2) for i, tt in enumerate(times)])
        crossings = synth_crossings(surrogate, Disturbance(), [stim], stim.last_time() + ref.delta_inf_up + 2.0)[0]
        out, _ = apply_channel(Involution(ref), stim)
        if len(crossings) != len(out.transitions):
            mismatched += 1
            continue
        for (t_c, value), tr in zip(crossings, out.transitions):
            if value != tr.value:
                mismatched += 1
                break
            worst = max(worst, abs(t_c - tr.time))
    ts = np.linspace(-0.8, 5.0, 40).tolist()
    samples = [(T, d, v) for T in ts for d, v in ((ref.up(T), 1), (ref.down(T), 0))]
    params = fit_exp_channel(samples).params
    fit_err = max(abs(params.tau - 1.0), abs(params.t_p - 0.5) / 0.5, abs(params.vth_norm - 0.5) / 0.5)
    report(
        10,
        "zero-disturbance surrogate equals the channel algorithm within 1e-9; self-fit within 1e-4",
        mismatched == 0 and worst <= 1e-9 and fit_err <= 1e-4,
        f"max crossing err {worst:.3e}, fit rel err {fit_err:.2e}",
    )


def test_criterion_11_eta_coverage_trend():
    params = ExpChannelParams(1.0, 0.5, 0.6)
    df = exp_channel(params)
    eta_plus = 0.02 * delta_min(df)
    eta_minus = eta_minus_for(df, eta_plus)
    disturbance = Disturbance(0.01, 2.0)
    rng = np.random.default_rng(7)
    samples = []
    for _ in range(8):
        for dT in -0.45 + np.logspace(np.log10(0.05), np.log10(4.45), 25):
            for stim in (
                make_signal(0, [(0.0, 1), (df.delta_inf_up + dT, 0)]),
                make_signal(1, [(0.0, 0), (df.delta_inf_down + dT, 1)]),
            ):
                crossings = synth_crossings(params, disturbance, [stim], 30.0, rng=rng)[0]
                samples.extend(s for s in deviation_analysis(stim, crossings, df) if math.isfinite(s.T))
    bins = bin_coverage(DeviationResult(samples, eta_minus, eta_plus))
    covs = [c for *_, c in bins]
    slope = float(np.polyfit(range(len(covs)), covs, 1)[0])
    ok = covs[0] == 1.0 and slope <= 0.0 and covs[-1] < covs[0]
    report(
        11,
        "lowest-T quartile fully covered; coverage trend non-increasing across T bins",
        ok,
        f"bins {[round(c, 4) for c in covs]}, slope {slope:.4f}",
    )
