import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involution import cli, waveform_lab
from involution.channel import Involution, apply_channel
from involution.delay_model import ExpChannelParams, delta_min, exp_channel, tabulated_channel
from involution.signals import make_signal, pulse
from involution.waveform_lab import (
    DeviationResult,
    DeviationSample,
    Disturbance,
    EtaBudgetInvalid,
    ExpFit,
    FitDiverged,
    WaveformError,
    _DelayResiduals,
    bin_coverage,
    calibration_stimuli,
    deviation_analysis,
    eta_minus_for,
    fit_exp_channel,
    synth_crossings,
    write_deviation_csv,
    write_fit_report,
)

import oracles

REF_PARAMS = ExpChannelParams(1.0, 0.5, 0.5)
CLEAN = Disturbance()


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
        crossings = synth_crossings(REF_PARAMS, CLEAN, make_signal(0, [(0.0, 1)]), horizon=10.0)
        assert len(crossings) == 1
        t, value = crossings[0]
        assert value == 1
        assert t == pytest.approx(0.5 + math.log(2), abs=1e-9)

    def test_short_pulse_never_crosses(self):
        crossings = synth_crossings(REF_PARAMS, CLEAN, pulse(0, 0.1), horizon=10.0)
        assert crossings == []

    def test_extracted_delay_samples_reproduce_the_exp_pair(self, ref):
        # two-pulse stimuli: the second rising/falling crossing carries the
        # previous-output-to-input dependence of the delay pair
        for width in np.linspace(1.5, 4.0, 6):
            for gap in np.linspace(0.3, 3.0, 6):
                stim = make_signal(0, [(0.0, 1), (width, 0), (width + gap, 1), (width + gap + 2.0, 0)])
                crossings = synth_crossings(REF_PARAMS, CLEAN, stim, horizon=30.0)
                out, log = apply_channel(Involution(ref), stim)
                assert len(crossings) == len(out.transitions)
                for (t_c, _), rec in zip(crossings, [r for r in log if not r.canceled]):
                    delta = t_c - rec.time
                    want = ref.up(rec.T) if rec.value == 1 else ref.down(rec.T)
                    assert delta == pytest.approx(want, abs=1e-6)

    def test_zero_amplitude_is_seed_independent(self):
        stim = pulse(0, 2.0)
        a = synth_crossings(REF_PARAMS, CLEAN, stim, 10.0, rng=np.random.default_rng(1))
        b = synth_crossings(REF_PARAMS, CLEAN, stim, 10.0, rng=np.random.default_rng(2))
        assert a == b

    @pytest.mark.parametrize("amplitude, draws", [(0.0, 0), (1e-9, 1), (0.01, 1), (0.2, 1)])
    def test_each_stimulus_draws_one_phase_above_amplitude_zero(self, amplitude, draws):
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        for stim in (pulse(0, 2.0), make_signal(1, []), random_train(np.random.default_rng(6))):
            synth_crossings(REF_PARAMS, Disturbance(amplitude, 1.0), stim, 10.0, rng=rng)
            for _ in range(draws):
                twin.uniform(0.0, 2.0 * math.pi)
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_master_oracle_matches_channel_algorithm(self, ref):
        # zero disturbance: the surrogate physics IS the exp channel
        rng = np.random.default_rng(77)
        for _ in range(100):
            stim = random_train(rng)
            horizon = stim.last_time() + ref.delta_inf_up + 2.0
            crossings = synth_crossings(REF_PARAMS, CLEAN, stim, horizon)
            out, _ = apply_channel(Involution(ref), stim)
            expected = [(t.time, t.value) for t in out.transitions]
            assert len(crossings) == len(expected)
            for (got_t, got_v), (want_t, want_v) in zip(crossings, expected):
                assert got_v == want_v
                assert got_t == pytest.approx(want_t, abs=1e-9)

    @pytest.mark.parametrize("amplitude, seeds", [(0.01, (51, 52, 53)), (0.05, (54,)), (0.0, (51,))])
    def test_default_calibration_equals_the_scalar_scan(self, amplitude, seeds):
        params, disturbance = ExpChannelParams(1.0, 0.5, 0.6), Disturbance(amplitude, 1.0)
        stimuli = calibration_stimuli(exp_channel(params))
        assert len(stimuli) == 144
        for seed in seeds:
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for stim in stimuli:
                got = synth_crossings(params, disturbance, stim, 60.0, rng=got_rng)
                assert got == oracles.rc_crossings(params, disturbance, stim, 60.0, rng=want_rng)

    # One segment on the grid linspace(0.5, 10, 476) after the stimulus edge at 0:
    # v(t) = 1 - e^{-(t - 0.5)} rising from 0, or e^{-(t - 0.5)} falling from 1.
    # vth is set to v at a grid point, so the scalar scan reads an exact zero there.
    THRESHOLD_GRID = np.linspace(0.5, 10.0, 476)

    @staticmethod
    def segment_value(initial, t, xp):
        return 1.0 + -1.0 * xp.exp(-(t - 0.5) / 1.0) if initial == 0 else 1.0 * xp.exp(-(t - 0.5) / 1.0)

    @pytest.mark.parametrize("initial", [0, 1])
    def test_grid_point_on_the_threshold_opens_a_bracket(self, initial):
        grid = self.THRESHOLD_GRID
        v = self.segment_value
        exact = [k for k in range(1, 475) if v(initial, grid[k], np) == v(initial, float(grid[k]), math)]
        assert exact  # a point where numpy agrees with math, so the zero rule fires without the guard
        k = exact[0]
        params = ExpChannelParams(1.0, 0.5, v(initial, float(grid[k]), math))
        stim = make_signal(initial, [(0.0, 1 - initial)])
        want = oracles.rc_crossings(params, CLEAN, stim, 10.0)
        assert synth_crossings(params, CLEAN, stim, 10.0) == want
        # one passage through the threshold is one crossing, at the grid point
        assert len(want) == 1 and want[0][0] == pytest.approx(grid[k], abs=1e-13)

    @pytest.mark.parametrize("direction", [-1.0, 1.0])
    @pytest.mark.parametrize("initial", [0, 1])
    def test_sign_guard_hides_numpy_rounding(self, initial, direction, monkeypatch):
        # numpy's exp is moved one ulp off libm's at every grid point, so the grid
        # value at the threshold point is nonzero unless the guard recomputes it
        class OneUlpOff:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x):
                return np.nextafter(np.exp(x), direction * np.inf)

        grid, k = self.THRESHOLD_GRID, 10  # v near 0.2 or 0.8, where one ulp of exp shows in v
        vth = self.segment_value(initial, float(grid[k]), math)
        monkeypatch.setattr(waveform_lab, "np", OneUlpOff())
        assert self.segment_value(initial, grid[k], waveform_lab.np) != vth
        params = ExpChannelParams(1.0, 0.5, vth)
        stim = make_signal(initial, [(0.0, 1 - initial)])
        assert synth_crossings(params, CLEAN, stim, 10.0) == oracles.rc_crossings(params, CLEAN, stim, 10.0)

    def test_disturbance_requires_rng_when_phase_random(self):
        with pytest.raises(WaveformError, match="draws its phase from an rng"):
            synth_crossings(REF_PARAMS, Disturbance(0.01, 1.0), pulse(0, 2.0), 10.0)

    def test_amplitude_bound_enforced(self):
        with pytest.raises(Exception):
            Disturbance(0.5, 1.0)


class TestDeviationAnalysis:
    def test_model_against_itself_is_fully_covered(self, ref):
        rng = np.random.default_rng(5)
        for _ in range(10):
            stim = random_train(rng)
            crossings = synth_crossings(REF_PARAMS, CLEAN, stim, stim.last_time() + 4.0)
            res = DeviationResult(deviation_analysis(stim, crossings, ref), eta_minus_for(ref, 0.01), 0.01)
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
        slow = ExpChannelParams(1.1, 0.5, 0.5)
        fast = ExpChannelParams(0.9, 0.5, 0.5)
        stim = make_signal(0, [(0.0, 1), (2.5, 0), (3.5, 1), (6.0, 0)])
        for params, sign in ((slow, -1), (fast, +1)):
            crossings = synth_crossings(params, CLEAN, stim, 12.0)
            samples = deviation_analysis(stim, crossings, ref)
            assert samples
            assert all(math.copysign(1, s.D) == sign for s in samples if s.T >= 0)
            assert math.copysign(1, sum(s.D for s in samples)) == sign

    def test_sine_disturbance_hurts_high_T_coverage(self):
        # asymmetric threshold: the rising-edge crossing slope is shallow, so
        # supply jitter can exceed the eta budget, and it does so more often
        # the deeper the node discharges (large T).  Isolated single pulses of
        # both polarities give one settled finite-T sample each, emulating a
        # width sweep on real hardware.
        params = ExpChannelParams(1.0, 0.5, 0.6)
        df = exp_channel(params)
        eta_plus = 0.01
        disturbance = Disturbance(0.01, 2.0)
        rng = np.random.default_rng(0)
        samples = []
        for _ in range(8):
            for dT in -0.45 + np.logspace(np.log10(0.05), np.log10(4.45), 25):
                for stim in (
                    make_signal(0, [(0.0, 1), (df.delta_inf_up + dT, 0)]),
                    make_signal(1, [(0.0, 0), (df.delta_inf_down + dT, 1)]),
                ):
                    crossings = synth_crossings(params, disturbance, stim, 30.0, rng=rng)
                    samples.extend(s for s in deviation_analysis(stim, crossings, df) if math.isfinite(s.T))
        bins = bin_coverage(DeviationResult(samples, eta_minus_for(df, eta_plus), eta_plus))
        assert bins[0][3] == 1.0  # lowest-T quartile fully covered
        assert bins[-1][3] < 1.0  # the model stops applying for large T

    def test_equal_gaps_pair_with_the_later_crossing(self, ref):
        stim = make_signal(0, [(0.0, 1)])
        (rec,) = apply_channel(Involution(ref), stim)[1]
        p = rec.out_time
        early, late = (p - 0.125, 1), (p + 0.125, 1)
        for crossings in ([early, late], [late, early]):
            samples = deviation_analysis(stim, crossings, ref)
            assert [s.D for s in samples] == [p - (p + 0.125)] == [-0.125]

    @given(
        gaps=st.lists(st.integers(1, 96), min_size=1, max_size=8),
        offsets=st.lists(st.tuples(st.integers(-12, 12), st.booleans(), st.integers(0, 7), st.booleans()), max_size=40),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_pairing_equals_the_greedy_search(self, ref, gaps, offsets, data):
        # crossings sit at dyadic offsets from the predictions, some mirrored, so equal
        # gaps and duplicate times are common.  The search breaks ties by list position, so
        # it gets the time-ordered list that synth_crossings gives; the pairing
        # itself breaks them by time and must not depend on the order.
        times = np.cumsum(gaps) / 32.0
        stim = make_signal(0, [(float(t), (i + 1) % 2) for i, t in enumerate(times)])
        _, log = apply_channel(Involution(ref), stim)
        outs = [r.out_time for r in log if not r.canceled] or [1.0]
        crossings = sorted(
            (outs[j % len(outs)] + sign * k / 32.0, int(up))
            for k, up, j, mirrored in offsets
            for sign in ((1, -1) if mirrored else (1,))
        )
        got = deviation_analysis(stim, crossings, ref)
        want = oracles.greedy_pairing(log, crossings, delta_min(ref) / 2.0)
        assert [(s.T, s.D, s.value, s.delay) for s in got] == want
        for reordered in (crossings[::-1], data.draw(st.permutations(crossings))):
            assert deviation_analysis(stim, reordered, ref) == got

    def test_bin_coverage_on_synthetic_samples(self):
        samples = [DeviationSample(T=float(t), D=0.0 if t < 5 else 1.0, value=1, delay=1.0) for t in range(10)]
        bins = bin_coverage(DeviationResult(samples, eta_minus=0.1, eta_plus=0.1))
        assert [(n, c) for *_, n, c in bins] == [(3, 1.0), (2, 1.0), (2, 0.0), (3, 0.0)]
        assert bin_coverage(DeviationResult([], 0.1, 0.1)) == []


def calibration_rows(out, argv):
    """The fit rows of a `waveform` run with ``argv``, read back from its ``deviations.csv``."""
    assert cli.main(["waveform", *argv, "--out", str(out)]) == 0
    with open(out / "deviations.csv", newline="") as fh:
        return [
            (float(r["T"]), float(r["delay"]), None) if r["edge"] == "rising" else (float(r["T"]), None, float(r["delay"]))
            for r in csv.DictReader(fh)
            if math.isfinite(float(r["T"]))
        ]


def fit_configurations(n=10, seed=14):
    """(tau, t_p, vth, amplitude, seed, horizon) of ``n`` calibration runs, and one more.

    Amplitudes run evenly from 0 to 0.2; tau, t_p, vth and the seed are drawn
    from ``default_rng(seed)``, and the horizon holds the whole train.  The
    last run keeps the default horizon of 60, which pairs only 11 crossings:
    its cost valley is so flat that SciPy and the fit reach equal costs at
    parameters far apart.
    """
    rng = np.random.default_rng(seed)
    out = []
    for amplitude in np.linspace(0.0, 0.2, n).tolist():
        tau = float(np.exp(rng.uniform(np.log(0.1), np.log(20.0))))
        t_p = tau * float(rng.uniform(0.1, 2.0))
        out.append((tau, t_p, float(rng.uniform(0.2, 0.8)), amplitude, int(rng.integers(1000)), 60.0 * (tau + t_p)))
    return [*out, (12.4, 17.4, 0.49, 0.01, 0, 60.0)]


FIT_CONFIGURATIONS = fit_configurations()


class TestFit:
    def make_samples(self, df, ts):
        return [(float(t), df.up(float(t)), df.down(float(t))) for t in ts]

    def test_self_fit_recovers_parameters(self, ref):
        samples = self.make_samples(ref, np.linspace(-0.8, 5.0, 40))
        params, rms, _ = fit_exp_channel(samples)
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
        params, rms, _ = fit_exp_channel(samples)
        assert rms <= 2e-3
        assert params.tau == pytest.approx(1.0, rel=0.01)
        assert params.t_p == pytest.approx(0.5, rel=0.01)
        assert params.vth_norm == pytest.approx(0.5, rel=0.01)

    def test_single_edge_dataset(self, ref):
        samples = [(float(t), ref.up(float(t)), None) for t in np.linspace(-0.8, 5.0, 30)]
        params, rms, _ = fit_exp_channel(samples)
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
        params, rms, _ = fit_exp_channel(samples)
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
        p1 = fit_exp_channel(samples).params
        p2 = fit_exp_channel(scaled).params
        assert p2.tau == pytest.approx(k * p1.tau, rel=1e-3)
        assert p2.t_p == pytest.approx(k * p1.t_p, rel=1e-3)
        assert p2.vth_norm == pytest.approx(p1.vth_norm, rel=1e-3)

    def rows_and_points(self, ref):
        """Rows with some missing values, and seeded points across the fit's bounds."""
        rng = np.random.default_rng(21)
        rows = [
            (t, du if k % 3 else None, dd if k % 4 else None)
            for k, (t, du, dd) in enumerate(self.make_samples(ref, np.linspace(-0.9, 5.0, 50)))
        ]
        med = float(np.median([abs(v) for _, du, dd in rows for v in (du, dd) if v is not None]))
        points = [
            (
                math.exp(rng.uniform(math.log(1e-3 * med), math.log(1e3 * med))),
                math.exp(rng.uniform(math.log(1e-3 * med), math.log(1e3 * med))),
                rng.uniform(0.05, 0.95),
            )
            for _ in range(200)
        ]
        return rows, points

    def test_residuals_equal_the_scalar_loop(self, ref):
        rows, points = self.rows_and_points(ref)
        residuals = _DelayResiduals(rows)
        penalised = 0
        for x in points:
            want = np.array(oracles.exp_fit_residuals(rows, x))
            # a residual is a difference of terms of size ~max(tau, t_p): its rounding scales with them
            atol = 1e-12 * max(x[0], x[1])
            np.testing.assert_allclose(residuals(np.array(x)), want, rtol=1e-12, atol=atol)
            penalised += int(np.sum(want == residuals.penalty))
        assert penalised > 0  # penalty rows were compared too

    def test_jacobian_matches_central_differences(self, ref):
        # Each error is scaled by its parameter and compared with the row's largest
        # scaled entry, so that a relative step of each parameter is weighed alike.
        rows, points = self.rows_and_points(ref)
        residuals = _DelayResiduals(rows)
        for x in map(np.array, points):
            jac = residuals.jacobian(x)
            fd = np.empty_like(jac)
            smooth = np.ones(len(jac), dtype=bool)
            for k in range(3):
                step = np.eye(3)[k] * 1e-5 * x[k]
                plus, minus = residuals(x + step), residuals(x - step)
                fd[:, k] = (plus - minus) / (2.0 * step[k])
                # no row crosses the domain edge within the step
                smooth &= (plus == residuals.penalty) == (minus == residuals.penalty)
            scale = np.abs(jac * x).max(axis=1)
            err = (np.abs(jac - fd) * x).max(axis=1)
            assert np.all(err[smooth] <= 1e-6 * scale[smooth])
            assert np.all(jac[residuals(x) == residuals.penalty] == 0.0)

    def test_cost_is_no_worse_than_least_squares(self, tmp_path):
        # the fit rows of the default calibration as `waveform` writes them, then 20
        # copies with Gaussian noise of 1e-4 to 1e-2 on every delay
        argv = ["--tau", "1", "--t-p", "0.5", "--vth", "0.6", "--amplitude", "0.01", "--seed", "51"]
        calibration = calibration_rows(tmp_path, argv)
        rng = np.random.default_rng(1978)
        datasets = [calibration]
        for sigma in np.logspace(-4, -2, 20):

            def jitter(d, sigma=sigma):
                return None if d is None else d + float(rng.normal(0.0, sigma))

            datasets.append([(t, jitter(du), jitter(dd)) for t, du, dd in calibration])
        for rows in datasets:
            fit = fit_exp_channel(rows)
            residuals = _DelayResiduals(rows)
            r = residuals(np.array([fit.params.tau, fit.params.t_p, fit.params.vth_norm]))
            lo, hi, starts = oracles.twenty_fit_starts(residuals.delay, 51)
            assert 0.5 * float(r @ r) <= oracles.least_squares_cost(residuals, starts, lo, hi) * (1.0 + 1e-9)

    @pytest.mark.parametrize(
        "tau, t_p, vth, amplitude, seed, horizon",
        FIT_CONFIGURATIONS,
        ids=[f"run{k}" for k in range(len(FIT_CONFIGURATIONS))],
    )
    def test_three_starts_reach_the_cost_of_twenty(self, tmp_path, tau, t_p, vth, amplitude, seed, horizon):
        # the three fixed starts against SciPy from those three and 17 seeded random ones;
        # costs, not parameters: on a flat valley equal costs come with distant parameters
        argv = ["--tau", repr(tau), "--t-p", repr(t_p), "--vth", repr(vth), "--amplitude", repr(amplitude)]
        rows = calibration_rows(tmp_path, [*argv, "--seed", str(seed), "--horizon", repr(horizon)])
        fit = fit_exp_channel(rows)
        residuals = _DelayResiduals(rows)
        r = residuals(np.array([fit.params.tau, fit.params.t_p, fit.params.vth_norm]))
        lo, hi, starts = oracles.twenty_fit_starts(residuals.delay, seed)
        assert 0.5 * float(r @ r) <= oracles.least_squares_cost(residuals, starts, lo, hi) * (1.0 + 1e-9) + 1e-24

    def test_a_bug_in_a_start_propagates(self, ref, monkeypatch):
        samples = self.make_samples(ref, np.linspace(-0.8, 5.0, 10))

        def broken(self, x):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(_DelayResiduals, "__call__", broken)
        with pytest.raises(TypeError, match="unsupported operand"):
            fit_exp_channel(samples)

    def test_starts_that_fail_are_skipped(self, ref):
        # every row lies inside the model's domain at every start, so every start's residuals are NaN
        samples = [(t, math.nan, du) for t, du, _ in self.make_samples(ref, np.linspace(0.0, 5.0, 10))]
        with pytest.raises(FitDiverged, match="no fit start converged"):
            fit_exp_channel(samples)

    @pytest.mark.parametrize("failures", [1, math.inf])
    def test_starts_whose_solve_fails_are_skipped(self, ref, monkeypatch, failures):
        samples = self.make_samples(ref, np.linspace(-0.8, 5.0, 10))
        solve, calls = np.linalg.solve, []

        def failing(a, b):
            calls.append(None)
            if len(calls) <= failures:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing)
        if failures == math.inf:
            with pytest.raises(FitDiverged, match="no fit start converged"):
                fit_exp_channel(samples)
        else:  # the first start fails at its first step; the others still fit
            assert fit_exp_channel(samples).params.tau == pytest.approx(1.0, rel=1e-6)

    def test_too_few_samples(self):
        with pytest.raises(FitDiverged):
            fit_exp_channel([(0.0, 0.8, None), (1.0, 1.0, None)])


def test_output_files(tmp_path, ref):
    stim = make_signal(0, [(0.0, 1), (2.5, 0), (3.5, 1), (6.0, 0)])
    crossings = synth_crossings(REF_PARAMS, CLEAN, stim, 12.0)
    res = DeviationResult(deviation_analysis(stim, crossings, ref), eta_minus_for(ref, 0.01), 0.01)
    dev_path = tmp_path / "dev.csv"
    write_deviation_csv(dev_path, res)
    lines = dev_path.read_text().splitlines()
    assert lines[0] == "edge,T,D,covered,delay"
    assert len(lines) == 1 + len(res.samples)
    assert [float(line.split(",")[4]) for line in lines[1:]] == [s.delay for s in res.samples]

    fit_path = tmp_path / "fit.json"
    write_fit_report(fit_path, ExpFit(ExpChannelParams(1.0, 0.5, 0.5), 1e-9, 123), 40)
    import json

    doc = json.loads(fit_path.read_text())
    assert doc["tau"] == 1.0 and doc["sample_count"] == 40 and doc["nfev"] == 123
