import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from involution import analysis
from involution.analysis import (
    ConstraintCViolated,
    Regime,
    SearchFailed,
    SweepPoint,
    characterize,
    classify_pulse,
    constraint_C,
    dimension_ht_buffer,
    f_map,
    run_spf_sweep,
    solve_tau,
    spf_check,
    tilde_delta0,
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
    DomainViolation,
    ExpChannelParams,
    InvalidParams,
    delta_min,
    derivative_up,
    exp_channel,
)
from involution.signals import NonPositiveLength, decompose_pulses, make_signal, pulse

import oracles


class TestConstraintC:
    def test_ref_zero_eta(self, ref, zero_eta):
        holds, margin = constraint_C(ref, zero_eta)
        assert holds
        assert margin == pytest.approx(oracles.REF_MARGIN_ZERO_ETA, abs=1e-9)

    def test_maximal_eta_minus_budget(self, ref):
        # at eta_plus=0.05 the budget for eta_minus is delta_down(-0.05) - 0.55
        budget = oracles.ref_delay(-0.05) - 0.55
        assert budget == pytest.approx(0.2592271868955332, abs=1e-12)
        holds, margin = constraint_C(ref, EtaBounds(eta_minus=budget - 1e-6, eta_plus=0.05))
        assert holds and margin == pytest.approx(1e-6, abs=1e-9)

    def test_violation(self, ref):
        holds, margin = constraint_C(ref, EtaBounds(eta_minus=0.4, eta_plus=0.05))
        assert not holds and margin < 0


class TestSolveTau:
    def test_ref_zero_eta(self, ref, zero_eta):
        tau = solve_tau(ref, zero_eta)
        # independent oracle: bisection on the symmetric fixed point equation
        assert tau == pytest.approx(oracles.ref_tau_star(), abs=1e-10)
        assert tau == pytest.approx(oracles.REF_TAU_STAR, abs=1e-10)

    def test_bracket(self, ref, zero_eta):
        tau = solve_tau(ref, zero_eta)
        assert 0.5 < tau < oracles.REF_D_INF

    def test_symmetric_duty_is_half(self, ref, zero_eta):
        # symmetry forces delta_up = delta_down, so Delta = tau/2 exactly
        tau = solve_tau(ref, zero_eta)
        assert ref.down(-tau) == pytest.approx(tau / 2.0, abs=1e-10)

    def test_requires_constraint(self, ref):
        with pytest.raises(ConstraintCViolated):
            solve_tau(ref, EtaBounds(eta_minus=0.4, eta_plus=0.05))


class TestCharacterize:
    def test_ref_constants(self, ref, zero_eta):
        char = characterize(ref, zero_eta)
        assert char.tau_star == pytest.approx(oracles.REF_TAU_STAR, abs=1e-10)
        assert char.delta_up == pytest.approx(oracles.REF_DELTA, abs=1e-10)
        assert char.period == char.tau_star
        assert char.duty == pytest.approx(0.5, abs=1e-6)
        assert char.tilde_delta0 == pytest.approx(oracles.REF_TILDE_D0, abs=1e-9)
        assert char.growth_rate == pytest.approx(oracles.REF_GROWTH, abs=1e-12)
        assert char.pass_below == pytest.approx(oracles.REF_PASS_BELOW, abs=1e-12)
        assert char.lock_above == pytest.approx(oracles.REF_LOCK_ABOVE, abs=1e-12)

    def test_symmetric_identity_for_tilde(self, ref, zero_eta):
        # involution of the fixed point gives tilde_delta0 = d_inf - Delta
        char = characterize(ref, zero_eta)
        assert char.tilde_delta0 == pytest.approx(oracles.REF_D_INF - char.delta_up, abs=1e-9)

    def test_invariants_over_random_channels(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 50:
            tau = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
            p = ExpChannelParams(tau, tau * float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.2, 0.8)))
            df = exp_channel(p)
            dmin = delta_min(df)
            # admissible eta grid inside the constraint budget
            for frac_p, frac_m in ((0.0, 0.0), (0.3, 0.3), (0.1, 0.7)):
                eta_plus = frac_p * 0.2 * dmin
                budget = df.down(-eta_plus) - dmin - eta_plus
                if budget <= 0:
                    continue
                bounds = EtaBounds(eta_minus=frac_m * 0.9 * budget, eta_plus=eta_plus)
                holds, _ = constraint_C(df, bounds)
                if not holds:
                    continue
                char = characterize(df, bounds)
                lo = bounds.eta_plus + dmin
                hi = min(df.delta_inf_down - bounds.eta_minus, df.delta_inf_up + bounds.eta_plus)
                assert lo < char.tau_star < hi
                assert char.delta_up < dmin
                assert char.duty < 1.0
            done += 1


class TestFMap:
    def test_fixed_point(self, ref, zero_eta):
        char = characterize(ref, zero_eta)
        assert f_map(ref, zero_eta, char.delta_up) == pytest.approx(char.delta_up, abs=1e-9)
        # independent oracle for the map itself
        assert f_map(ref, zero_eta, 0.4) == pytest.approx(oracles.ref_fmap(0.4), abs=1e-12)

    def test_expansive_above_fixed_point(self, ref, zero_eta):
        char = characterize(ref, zero_eta)
        grown = f_map(ref, zero_eta, char.delta_up + 0.01)
        assert grown - char.delta_up >= (1 + oracles.REF_DERIV_AT_0) * 0.01 - 1e-12

    def test_shrinks_below_fixed_point(self, ref, zero_eta):
        char = characterize(ref, zero_eta)
        d = char.delta_up - 1e-3
        assert f_map(ref, zero_eta, d) < d

    def test_lipschitz_growth_100_random(self, ref, zero_eta):
        char = characterize(ref, zero_eta)
        a = 1 + derivative_up(ref, 0.0)
        rng = np.random.default_rng(23)
        for _ in range(100):
            d1 = char.delta_up + float(rng.uniform(1e-6, 0.9 * ref.delta_inf_down - char.delta_up))
            ratio = (f_map(ref, zero_eta, d1) - char.delta_up) / (d1 - char.delta_up)
            assert ratio >= a - 1e-9

    def test_domain_violation(self, ref, zero_eta):
        with pytest.raises(DomainViolation):
            f_map(ref, zero_eta, 2.0 * ref.delta_inf_down)
        # inside delta_up's domain, but a late rising edge pushes delta_down's argument past its edge
        with pytest.raises(DomainViolation, match="f-map argument .* outside delta_down domain"):
            f_map(ref, EtaBounds(0.0, 5.0), 0.4)


class TestTildeDelta0:
    def test_root_residual(self, ref, zero_eta):
        td = tilde_delta0(ref, zero_eta)
        char = characterize(ref, zero_eta)
        g = ref.down(td - oracles.REF_D_INF) + td - oracles.REF_D_INF
        assert abs(g - char.delta_up) <= 1e-10

    def test_between_thresholds(self, ref, zero_eta):
        char = characterize(ref, zero_eta)
        assert char.pass_below < char.tilde_delta0 < char.lock_above


class TestClassify:
    @pytest.mark.parametrize(
        "delta0, regime",
        [(1.5, Regime.LOCK), (0.5, Regime.PASS_THROUGH), (0.9, Regime.CRITICAL)],
    )
    def test_ref_examples(self, ref, zero_eta, delta0, regime):
        char = characterize(ref, zero_eta)
        assert classify_pulse(char, delta0) is regime

    def test_boundaries_inclusive(self, ref, zero_eta):
        char = characterize(ref, zero_eta)
        assert classify_pulse(char, char.lock_above) is Regime.LOCK
        assert classify_pulse(char, char.pass_below) is Regime.PASS_THROUGH


class TestDimensionHtBuffer:
    def test_filters_the_worst_case_train(self, ref, zero_eta):
        char = characterize(ref, zero_eta)
        ht = dimension_ht_buffer(3.0 * char.tau_star, char.duty)
        assert ht.vth_norm == pytest.approx((1 + char.duty) / 2)
        spec = Involution(exp_channel(ht))
        train = make_signal(
            0,
            [t for n in range(100) for t in ((n * char.period, 1), (n * char.period + char.delta_up, 0))],
        )
        out, _ = apply_channel(spec, train)
        assert out.is_zero

    def test_zero_duty_cap_filters_single_pulse(self):
        ht = dimension_ht_buffer(0.8, 0.0)
        out, _ = apply_channel(Involution(exp_channel(ht)), pulse(0, 0.8))
        assert out.is_zero

    def test_step_response_rises(self, ref, zero_eta):
        char = characterize(ref, zero_eta)
        ht = dimension_ht_buffer(3.0 * char.tau_star, char.duty)
        out, _ = apply_channel(Involution(exp_channel(ht)), make_signal(0, [(0.0, 1)]))
        assert [(t.value) for t in out.transitions] == [1]

    def test_search_bound_reported(self, monkeypatch):
        monkeypatch.setattr(analysis, "_MAX_DOUBLINGS", 0)
        with pytest.raises(SearchFailed):
            dimension_ht_buffer(1.0, 0.5)

    @pytest.mark.parametrize(
        "theta, gamma_cap, message",
        [
            (0.0, 0.5, "theta must be > 0, got 0.0"),
            (-1.0, 0.5, "theta must be > 0, got -1.0"),
            (1.0, -0.1, r"gamma_cap must lie in \[0, 1\), got -0.1"),
            (1.0, 1.0, r"gamma_cap must lie in \[0, 1\), got 1.0"),
        ],
    )
    def test_a_theta_of_zero_or_below_or_a_gamma_cap_outside_the_unit_interval_is_rejected(
        self, theta, gamma_cap, message
    ):
        with pytest.raises(InvalidParams, match=message):
            dimension_ht_buffer(theta, gamma_cap)


class TestSpfCheck:
    def test_f2_zero_input_zero_output(self):
        v = spf_check([make_signal(0, [])], [None], epsilon=0.1)
        assert v.f2_pass

    def test_f2_fails_on_generation(self):
        v = spf_check([pulse(1, 1)], [None], epsilon=0.1)
        assert not v.f2_pass

    def test_f3_requires_some_nonzero_output(self):
        lock_out = make_signal(0, [(2.0, 1)])
        v = spf_check([make_signal(0, []), lock_out], [None, 1.5], epsilon=0.1)
        assert v.f3_pass
        v = spf_check([make_signal(0, []), make_signal(0, [])], [None, 0.3], epsilon=0.1)
        assert not v.f3_pass

    def test_f4_detects_planted_short_pulse(self):
        eps = 0.2
        bad = make_signal(0, [(1.0, 1), (1.0 + eps / 10, 0)])
        v = spf_check([bad], [0.9], epsilon=eps)
        assert not v.f4_pass
        (run, kind, start, length) = v.f4_witnesses[0]
        assert run == 0 and kind == "up" and start == 1.0
        assert length == pytest.approx(eps / 10)

    def test_f4_checks_down_intervals_too(self):
        eps = 0.2
        bad = make_signal(0, [(1.0, 1), (2.0, 0), (2.0 + eps / 10, 1)])
        v = spf_check([bad], [0.9], epsilon=eps)
        assert not v.f4_pass and v.f4_witnesses[0][1] == "down"


BOUNDS = EtaBounds(eta_minus=0.1, eta_plus=0.05)


class TestEngineFormulaTie:
    def test_worst_case_up_times_match_f_iterates(self, ref):
        # starting widths just above the critical width: far above it the very
        # first loop pulse already locks (its falling edge cancels against the
        # next rising) and no closed pulse remains to compare
        char = characterize(ref, BOUNDS)
        circuit = or_loop_circuit(EtaInvolution(ref, BOUNDS, WorstCaseShrink()))
        for delta0 in np.linspace(char.tilde_delta0 + 1e-3, char.tilde_delta0 + 0.05, 20):
            e = execute(circuit, {"i": pulse(0, float(delta0))}, horizon=60.0)
            pulses = decompose_pulses(e.vertex_signals["or1"], 60.0)
            observed = [p.up_time for p in pulses[1:] if math.isfinite(p.up_time)]
            assert observed, f"no loop pulses at delta0={delta0}"
            # first loop pulse from the g-map, later ones from iterating f
            expected = [
                ref.down(float(delta0) - BOUNDS.eta_plus - ref.delta_inf_up)
                + float(delta0)
                - BOUNDS.eta_minus
                - BOUNDS.eta_plus
                - ref.delta_inf_up
            ]
            while len(expected) < len(observed):
                expected.append(f_map(ref, BOUNDS, expected[-1]))
            for got, want in zip(observed, expected):
                assert got == pytest.approx(want, abs=1e-9)

    def test_growth_makes_trains_die_or_lock(self, ref):
        char = characterize(ref, BOUNDS)
        circuit = or_loop_circuit(EtaInvolution(ref, BOUNDS, WorstCaseShrink()))
        e = execute(circuit, {"i": pulse(0, char.tilde_delta0 - 0.05)}, horizon=60.0)
        assert e.resolved_value["o"] == 0  # shrinking train cancels
        e = execute(circuit, {"i": pulse(0, char.tilde_delta0 + 0.05)}, horizon=60.0)
        assert e.resolved_value["o"] == 1  # growing train locks


class TestTrainBounds:
    def test_bounds_hold_or_run_locks(self, ref):
        char = characterize(ref, BOUNDS)
        runs = []
        for seed in range(88):
            delta0 = 0.6 + 0.55 * (seed % 8) / 8.0
            runs.append((delta0, UniformRandom(seed=seed)))
        for delta0 in (char.tilde_delta0 - 0.02, char.tilde_delta0, char.tilde_delta0 + 0.02):
            runs.append((delta0, WorstCaseShrink()))
        for delta0 in (0.7, 0.9, 1.1):
            runs.append((delta0, Zero()))

        interesting = 0
        for delta0, strategy in runs:
            circuit = or_loop_circuit(EtaInvolution(ref, BOUNDS, strategy))
            e = execute(circuit, {"i": pulse(0, float(delta0))}, horizon=60.0)
            pulses = decompose_pulses(e.vertex_signals["or1"], 60.0)[1:]
            if len(pulses) >= 2:
                interesting += 1
            violated = False
            for p in pulses:
                if math.isfinite(p.up_time) and p.up_time > char.delta_up + 1e-9:
                    violated = True
                if math.isfinite(p.down_time) and p.down_time < char.period - char.delta_up - 1e-9:
                    violated = True
                if math.isfinite(p.down_time) and p.duty_cycle > char.duty + 1e-9:
                    violated = True
            if violated:
                assert e.resolved_value["o"] == 1, (
                    f"bound violated but run did not lock (delta0={delta0}, {strategy})"
                )
        assert interesting >= 10  # the sweep must actually exercise trains


class TestPulseCountGrowth:
    def test_log_growth_near_critical(self, ref, zero_eta):
        # stabilization is logarithmic in 1/(delta0 - tilde_delta0): counts
        # rise by a constant increment per decade.  growth_rate is a lower
        # bound on the expansion of the up-time map, so it upper-bounds the
        # increment; the measured local rate at the fixed point predicts it.
        char = characterize(ref, zero_eta)
        circuit = or_loop_circuit(EtaInvolution(ref, zero_eta, Zero()))
        counts = []
        for eps in (1e-2, 1e-3, 1e-4):
            e = execute(circuit, {"i": pulse(0, char.tilde_delta0 + eps)}, horizon=40.0)
            pulses = decompose_pulses(e.vertex_signals["or1"], 40.0)
            counts.append(len(pulses) - 1)
            assert e.resolved_value["o"] == 1
        d1, d2 = counts[1] - counts[0], counts[2] - counts[1]
        assert abs(d1 - d2) <= 1  # constant increment per decade
        bound_per_decade = math.log(10) / math.log(char.growth_rate)
        assert d1 <= bound_per_decade + 1 and d2 <= bound_per_decade + 1
        h = 1e-6
        local_rate = (f_map(ref, zero_eta, char.delta_up + h) - char.delta_up) / h
        assert local_rate >= char.growth_rate
        predicted = math.log(10) / math.log(local_rate)
        assert d1 == pytest.approx(predicted, abs=1.0)
        assert d2 == pytest.approx(predicted, abs=1.0)


class TestSweepRunner:
    def test_one_circuit_equals_a_circuit_per_run(self, ref):
        # the sweep builds one circuit per strategy and runs every width on
        # it; building a circuit per run must give the same points
        char = characterize(ref, BOUNDS)
        strategies = {
            "zero": Zero(),
            "worst": WorstCaseShrink(),
            "random[4]": UniformRandom(seed=4),
            "fixed": FixedSequence((0.05, -0.1, 0.02, -0.03, 0.05)),
        }
        grid = [0.3, 0.9, char.tilde_delta0, 1.2, 1.6]
        horizon = 30.0
        for ht in (None, dimension_ht_buffer(3.0 * char.tau_star, char.duty)):
            want = []
            for label, strategy in strategies.items():
                for d0 in [None, *grid]:
                    circuit = or_loop_circuit(EtaInvolution(ref, BOUNDS, strategy), ht)
                    stimulus = make_signal(0, []) if d0 is None else pulse(0.0, d0)
                    e = execute(circuit, {"i": stimulus}, horizon)
                    or_sig, out_sig = e.vertex_signals["or1"], e.vertex_signals["o"]
                    if {"or1", "c"} & e.active_at_horizon or not e.stabilized["o"]:
                        resolved = "osc"
                    else:
                        resolved = str(out_sig.value_at(horizon))
                    want.append(
                        SweepPoint(
                            d0,
                            label,
                            "zero" if d0 is None else classify_pulse(char, d0).value,
                            max(0, len(decompose_pulses(or_sig, horizon)) - 1),
                            resolved,
                            or_sig.last_time(),
                            out_sig,
                        )
                    )
            assert run_spf_sweep(ref, BOUNDS, char, ht, grid, strategies, horizon=horizon) == want

    def test_runs_of_one_circuit_from_four_threads_equal_the_serial_runs(self, ref):
        # runs of one circuit may go on concurrently: four threads, with a short
        # switch interval, run the sweep's widths on one uniform-random storage
        # loop, each from another width; every execution is the serial run's
        char = characterize(ref, BOUNDS)
        ht = dimension_ht_buffer(3.0 * char.tau_star, char.duty)
        stimuli = [make_signal(0, []), *(pulse(0.0, d0) for d0 in np.arange(0.1, 1.6, 0.05).tolist())]
        horizon, workers = 60.0, 4

        def loop():
            return or_loop_circuit(EtaInvolution(ref, BOUNDS, UniformRandom(seed=5)), ht)

        alone, shared = loop(), loop()
        serial = [dataclasses.replace(execute(alone, {"i": s}, horizon), circuit=shared) for s in stimuli]
        go = threading.Barrier(workers)
        got = [None] * workers

        def work(k):
            go.wait(timeout=60)
            got[k] = [execute(shared, {"i": s}, horizon) for s in stimuli[k:] + stimuli[:k]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [serial[k:] + serial[:k] for k in range(workers)]

    @pytest.mark.parametrize("bad", [0.0, -0.4])
    def test_a_width_that_is_not_positive_raises_before_any_run(self, ref, monkeypatch, bad):
        runs = []

        def counted(*args, **kwargs):
            runs.append(args)
            return execute(*args, **kwargs)

        monkeypatch.setattr(analysis, "execute", counted)
        char = characterize(ref, BOUNDS)
        with pytest.raises(NonPositiveLength):
            run_spf_sweep(ref, BOUNDS, char, None, [0.3, bad, 0.9], {"zero": Zero(), "worst": WorstCaseShrink()})
        assert runs == []
        run_spf_sweep(ref, BOUNDS, char, None, [0.3], {"zero": Zero()}, horizon=10.0)
        assert len(runs) == 2  # the wrapper counts: the zero-input run and the one width

    def test_regimes_and_verdict(self, ref, zero_eta):
        char = characterize(ref, zero_eta)
        ht = dimension_ht_buffer(3.0 * char.tau_star, char.duty)
        grid = [0.3, 0.6, 1.3, 1.5]
        points = run_spf_sweep(ref, zero_eta, char, ht, grid, {"zero": Zero()}, horizon=40.0)
        by_d0 = {p.delta0: p for p in points}
        assert by_d0[None].out_signal.is_zero
        assert by_d0[0.3].regime == "pass_through" and by_d0[0.3].out_signal.is_zero
        assert by_d0[1.5].regime == "lock" and len(by_d0[1.5].out_signal.transitions) == 1
        verdict = spf_check([p.out_signal for p in points], [p.delta0 for p in points], char.delta_up / 2)
        assert verdict.ok, verdict.f4_witnesses
