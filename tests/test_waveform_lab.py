import math

import numpy as np
import pytest

from involution.channel import Involution, apply_channel
from involution.delay_model import ExpChannelParams, exp_channel, tabulated_channel
from involution.signals import make_signal, pulse
from involution.waveform_lab import (
    DeviationResult,
    DeviationSample,
    Disturbance,
    EtaBudgetInvalid,
    FitDiverged,
    RcSurrogateParams,
    bin_coverage,
    deviation_analysis,
    eta_minus_for,
    fit_exp_channel,
    synth_crossings,
    write_deviation_csv,
    write_fit_report,
)

import oracles

REF_SURROGATE = RcSurrogateParams(tau_rc=1.0, vth_norm=0.5, pure_delay=0.5)


def random_train(rng, n_max=10):
    n = int(rng.integers(1, n_max))
    t = 0.0
    times = []
    for _ in range(n):
        t += 0.05 + float(rng.exponential(1.0))
        times.append(t)
    return make_signal(0, [(t, (i + 1) % 2) for i, t in enumerate(times)])


class TestSynthCrossings:
    def test_single_edge_crossing_time(self):
        crossings = synth_crossings(REF_SURROGATE, make_signal(0, [(0.0, 1)]), horizon=10.0)
        assert len(crossings) == 1
        t, edge = crossings[0]
        assert edge == "rising"
        assert t == pytest.approx(0.5 + math.log(2), abs=1e-9)

    def test_short_pulse_never_crosses(self):
        crossings = synth_crossings(REF_SURROGATE, pulse(0, 0.1), horizon=10.0)
        assert crossings == []

    def test_extracted_delay_samples_reproduce_the_exp_pair(self, ref):
        # two-pulse stimuli: the second rising/falling crossing carries the
        # previous-output-to-input dependence of the delay pair
        for width in np.linspace(1.5, 4.0, 6):
            for gap in np.linspace(0.3, 3.0, 6):
                stim = make_signal(0, [(0.0, 1), (width, 0), (width + gap, 1), (width + gap + 2.0, 0)])
                crossings = synth_crossings(REF_SURROGATE, stim, horizon=30.0)
                out, log = apply_channel(Involution(ref), stim)
                assert len(crossings) == len(out.transitions)
                for (t_c, _), rec in zip(crossings, [r for r in log if not r.canceled]):
                    delta = t_c - rec.time
                    want = ref.up(rec.T) if rec.value == 1 else ref.down(rec.T)
                    assert delta == pytest.approx(want, abs=1e-6)

    def test_zero_amplitude_is_seed_independent(self):
        params = RcSurrogateParams(1.0, 0.5, 0.5, Disturbance(0.0, 1.0, None))
        stim = pulse(0, 2.0)
        a = synth_crossings(params, stim, 10.0, rng=np.random.default_rng(1))
        b = synth_crossings(params, stim, 10.0, rng=np.random.default_rng(2))
        assert a == b

    def test_master_oracle_matches_channel_algorithm(self, ref):
        # zero disturbance: the surrogate physics IS the exp channel
        rng = np.random.default_rng(77)
        for _ in range(100):
            stim = random_train(rng)
            horizon = stim.last_time() + ref.delta_inf_up + 2.0
            crossings = synth_crossings(REF_SURROGATE, stim, horizon)
            out, _ = apply_channel(Involution(ref), stim)
            expected = [(t.time, "rising" if t.value == 1 else "falling") for t in out.transitions]
            assert len(crossings) == len(expected)
            for (got_t, got_e), (want_t, want_e) in zip(crossings, expected):
                assert got_e == want_e
                assert got_t == pytest.approx(want_t, abs=1e-9)

    def test_disturbance_requires_rng_when_phase_random(self):
        params = RcSurrogateParams(1.0, 0.5, 0.5, Disturbance(0.01, 1.0, None))
        with pytest.raises(Exception):
            synth_crossings(params, pulse(0, 2.0), 10.0)

    def test_amplitude_bound_enforced(self):
        with pytest.raises(Exception):
            Disturbance(0.5, 1.0, 0.0)


class TestDeviationAnalysis:
    def test_model_against_itself_is_fully_covered(self, ref):
        rng = np.random.default_rng(5)
        for _ in range(10):
            stim = random_train(rng)
            crossings = synth_crossings(REF_SURROGATE, stim, stim.last_time() + 4.0)
            res = deviation_analysis(stim, crossings, ref, eta_plus=0.01)
            assert all(abs(s.D) <= 1e-9 for s in res.samples)
            assert res.coverage == 1.0

    def test_eta_minus_formula(self, ref):
        em = eta_minus_for(ref, 0.05)
        assert em == pytest.approx(oracles.ref_delay(-0.05) - 0.5 - 0.05, abs=1e-9)

    def test_eta_budget_invalid(self, ref):
        with pytest.raises(EtaBudgetInvalid):
            eta_minus_for(ref, 0.6)

    def test_process_variation_gives_one_sided_deviation(self, ref):
        # slower RC than the model: actual crossings late, D = predicted - actual < 0.
        # (for T < 0 the shallower discharge gives the node a head start that can
        # flip an individual sample, so the one-sidedness claim is for T >= 0)
        slow = RcSurrogateParams(1.1, 0.5, 0.5)
        fast = RcSurrogateParams(0.9, 0.5, 0.5)
        stim = make_signal(0, [(0.0, 1), (2.5, 0), (3.5, 1), (6.0, 0)])
        for params, sign in ((slow, -1), (fast, +1)):
            crossings = synth_crossings(params, stim, 12.0)
            res = deviation_analysis(stim, crossings, ref, eta_plus=0.01)
            assert res.samples
            assert all(math.copysign(1, s.D) == sign for s in res.samples if s.T >= 0)
            assert math.copysign(1, sum(s.D for s in res.samples)) == sign

    def test_sine_disturbance_hurts_high_T_coverage(self):
        # asymmetric threshold: the rising-edge crossing slope is shallow, so
        # supply jitter can exceed the eta budget, and it does so more often
        # the deeper the node discharges (large T).  Isolated single pulses of
        # both polarities give one settled finite-T sample each, emulating a
        # width sweep on real hardware.
        df = exp_channel(ExpChannelParams(1.0, 0.5, 0.6))
        eta_plus = 0.01
        params = RcSurrogateParams(1.0, 0.6, 0.5, Disturbance(0.01, 2.0, None))
        rng = np.random.default_rng(0)
        samples = []
        for _ in range(8):
            for dT in -0.45 + np.logspace(np.log10(0.05), np.log10(4.45), 25):
                for stim in (
                    make_signal(0, [(0.0, 1), (df.delta_inf_up + dT, 0)]),
                    make_signal(1, [(0.0, 0), (df.delta_inf_down + dT, 1)]),
                ):
                    crossings = synth_crossings(params, stim, 30.0, rng=rng)
                    res = deviation_analysis(stim, crossings, df, eta_plus)
                    samples.extend(s for s in res.samples if math.isfinite(s.T))
        bins = bin_coverage(DeviationResult(samples, eta_minus_for(df, eta_plus), eta_plus), n_bins=4)
        assert bins[0][3] == 1.0  # lowest-T quartile fully covered
        assert bins[-1][3] < 1.0  # the model stops applying for large T

    def test_bin_coverage_on_synthetic_samples(self):
        samples = [DeviationSample(T=float(t), D=0.0 if t < 5 else 1.0, edge="rising", delay=1.0) for t in range(10)]
        bins = bin_coverage(DeviationResult(samples, eta_minus=0.1, eta_plus=0.1), n_bins=2)
        assert bins[0][3] == 1.0 and bins[1][3] < 0.5
        assert bin_coverage(DeviationResult([], 0.1, 0.1)) == []


class TestFit:
    def make_samples(self, df, ts):
        return [(float(t), df.up(float(t)), df.down(float(t))) for t in ts]

    def test_self_fit_recovers_parameters(self, ref):
        samples = self.make_samples(ref, np.linspace(-0.8, 5.0, 40))
        params, rms = fit_exp_channel(samples)
        assert params.tau == pytest.approx(1.0, rel=1e-4)
        assert params.t_p == pytest.approx(0.5, rel=1e-4)
        assert params.vth_norm == pytest.approx(0.5, rel=1e-4)
        assert rms <= 1e-8

    def test_noisy_self_fit(self, ref):
        rng = np.random.default_rng(13)
        samples = [
            (t, du + float(rng.uniform(-1e-3, 1e-3)), dd + float(rng.uniform(-1e-3, 1e-3)))
            for t, du, dd in self.make_samples(ref, np.linspace(-0.8, 5.0, 60))
        ]
        params, rms = fit_exp_channel(samples)
        assert rms <= 2e-3
        assert params.tau == pytest.approx(1.0, rel=0.01)
        assert params.t_p == pytest.approx(0.5, rel=0.01)
        assert params.vth_norm == pytest.approx(0.5, rel=0.01)

    def test_single_edge_dataset(self, ref):
        samples = [(float(t), ref.up(float(t)), None) for t in np.linspace(-0.8, 5.0, 30)]
        params, rms = fit_exp_channel(samples)
        assert rms <= 1e-6
        # the partner function is pinned through the involution closed form
        fitted = exp_channel(params)
        for t in (-0.5, 0.0, 2.0):
            assert fitted.down(t) == pytest.approx(ref.down(t), abs=1e-3)

    def test_non_exp_involution_misfit_is_large_T_dominated(self):
        # blend of two RC shapes sharing both asymptotes: a valid involution
        # pair (the up side inverts the blended down side) but not an exp.
        # Sample density mirrors measured datasets: dense at low T, sparse at
        # high T, so the fit pins the low-T shape and the misfit concentrates
        # in the large-T samples.
        e1 = exp_channel(ExpChannelParams(0.6, 0.3 + 2.4 * math.log(2), 0.5))
        e2 = exp_channel(ExpChannelParams(3.0, 0.3, 0.5))
        dinf = e1.delta_inf_down
        assert dinf == pytest.approx(e2.delta_inf_down, abs=1e-12)
        ts = -dinf + np.logspace(-5, np.log10(20 + dinf), 4000)
        down_samples = [(float(t), 0.85 * e1.down(float(t)) + 0.15 * e2.down(float(t))) for t in ts]
        up_samples = [(-d, -t) for t, d in down_samples]
        df = tabulated_channel(up_samples, down_samples, dinf, dinf)

        eval_ts = -0.5 + np.logspace(-2, np.log10(8.5), 48)
        samples = self.make_samples(df, eval_ts)
        params, rms = fit_exp_channel(samples)
        assert rms > 1e-3  # genuinely not an exp channel

        fitted = exp_channel(params)
        resid = np.array(
            [abs(fitted.up(float(t)) - du) + abs(fitted.down(float(t)) - dd) for t, du, dd in samples]
        )
        quarter = len(eval_ts) // 4
        assert resid[-quarter:].mean() > resid[:quarter].mean()

    def test_scale_equivariance(self, ref):
        samples = self.make_samples(ref, np.linspace(-0.8, 5.0, 40))
        k = 7.0
        scaled = [(k * t, k * du, k * dd) for t, du, dd in samples]
        p1, _ = fit_exp_channel(samples)
        p2, _ = fit_exp_channel(scaled)
        assert p2.tau == pytest.approx(k * p1.tau, rel=1e-3)
        assert p2.t_p == pytest.approx(k * p1.t_p, rel=1e-3)
        assert p2.vth_norm == pytest.approx(p1.vth_norm, rel=1e-3)

    def test_too_few_samples(self):
        with pytest.raises(FitDiverged):
            fit_exp_channel([(0.0, 0.8, None), (1.0, 1.0, None)])


def test_output_files(tmp_path, ref):
    stim = make_signal(0, [(0.0, 1), (2.5, 0), (3.5, 1), (6.0, 0)])
    crossings = synth_crossings(REF_SURROGATE, stim, 12.0)
    res = deviation_analysis(stim, crossings, ref, eta_plus=0.01)
    dev_path = tmp_path / "dev.csv"
    write_deviation_csv(dev_path, res)
    lines = dev_path.read_text().splitlines()
    assert lines[0] == "edge,T,D,covered"
    assert len(lines) == 1 + len(res.samples)

    fit_path = tmp_path / "fit.json"
    write_fit_report(fit_path, ExpChannelParams(1.0, 0.5, 0.5), 1e-9, 40)
    import json

    doc = json.loads(fit_path.read_text())
    assert doc["tau"] == 1.0 and doc["sample_count"] == 40
