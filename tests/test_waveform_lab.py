import bisect
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involution import cli, waveform_lab
from involution.channel import Involution, apply_channel
from involution.delay_model import (
    ExpChannelParams,
    InvalidParams,
    delta_min,
    exp_channel,
    read_delay_samples,
    tabulated_channel,
)
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


# At the calibration's thresholds, a monotone segment's closed-form crossing lies
# within this many ulps of the scalar trajectory's change of side.
CLOSED_FORM_ULPS = 2


def closed_form_slack(params, drive, t):
    """How far a closed-form crossing at ``t`` may lie from the scalar trajectory's change of side.

    CLOSED_FORM_ULPS ulps of t, plus the time the trajectory takes to move one
    ulp of vth at its slope (vth - drive) / tau there: the computed trajectory
    is exact to about one ulp of its value, and a charging node near vth = 1
    moves that little over many ulps of t.
    """
    vth = params.vth_norm
    return CLOSED_FORM_ULPS * math.ulp(t) + params.tau * math.ulp(vth) / abs(vth - drive)


def assert_matches_the_oracle(params, disturbance, stimuli, got, want):
    """``got`` (synth_crossings) against ``want`` (rc_crossings per stimulus), crossing by crossing.

    Both give the same count and value bits.  A crossing on a disturbed rail's
    charging segment is the same bisection in both, so its time matches bit for
    bit.  A monotone segment's crossing is the closed form in ``got``, so its
    time lies within the oracle's 1e-14 bisection bracket plus the closed form's
    slack.
    """
    assert len(got) == len(want) == len(stimuli)
    for stim, g, w in zip(stimuli, got, want):
        assert [v for _, v in g] == [v for _, v in w]
        switches = [t + params.t_p for t in stim.times]
        for (g_t, _), (w_t, _) in zip(g, w):
            drive = stim.initial_value ^ (bisect.bisect_left(switches, w_t) & 1)
            if disturbance.amplitude_fraction > 0.0 and drive:
                assert g_t == w_t
            else:
                assert abs(g_t - w_t) <= 1e-14 + closed_form_slack(params, drive, w_t)


def clean_segments(params, stimulus, horizon):
    """The undisturbed node's segments up to ``horizon`` as (start, end, v), v evaluated as rc_crossings does."""
    tau, segments = params.tau, []
    drive, start, v0 = stimulus.initial_value, 0.0, float(stimulus.initial_value)
    for end in [t + params.t_p for t in stimulus.times if t + params.t_p <= horizon] + [horizon]:
        if end > start:

            def v(t, _vp=float(drive), _o=v0 - drive, _s=start):
                return _vp + _o * math.exp(-(t - _s) / tau)

            segments.append((start, end, v))
            v0 = v(end)
        start, drive = end, 1 - drive
    return segments


class TestSynthCrossings:
    def test_single_edge_crossing_time(self):
        crossings = synth_crossings(REF_PARAMS, CLEAN, [make_signal(0, [(0.0, 1)])], horizon=10.0)[0]
        assert len(crossings) == 1
        t, value = crossings[0]
        assert value == 1
        assert t == pytest.approx(0.5 + math.log(2), abs=1e-9)

    def test_short_pulse_never_crosses(self):
        crossings = synth_crossings(REF_PARAMS, CLEAN, [pulse(0, 0.1)], horizon=10.0)[0]
        assert crossings == []

    def test_extracted_delay_samples_reproduce_the_exp_pair(self, ref):
        # two-pulse stimuli: the second rising/falling crossing carries the
        # previous-output-to-input dependence of the delay pair
        for width in np.linspace(1.5, 4.0, 6):
            for gap in np.linspace(0.3, 3.0, 6):
                stim = make_signal(0, [(0.0, 1), (width, 0), (width + gap, 1), (width + gap + 2.0, 0)])
                crossings = synth_crossings(REF_PARAMS, CLEAN, [stim], horizon=30.0)[0]
                out, log = apply_channel(Involution(ref), stim)
                assert len(crossings) == len(out.transitions)
                for (t_c, _), rec in zip(crossings, [r for r in log if not r.canceled]):
                    delta = t_c - rec.time
                    want = ref.up(rec.T) if rec.value == 1 else ref.down(rec.T)
                    assert delta == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan])
    def test_a_disturbance_period_of_zero_or_below_is_rejected(self, period):
        with pytest.raises(InvalidParams, match=f"period must be > 0, got {period}"):
            Disturbance(0.01, period)

    def test_zero_amplitude_is_seed_independent(self):
        stim = pulse(0, 2.0)
        a = synth_crossings(REF_PARAMS, CLEAN, [stim], 10.0, rng=np.random.default_rng(1))[0]
        b = synth_crossings(REF_PARAMS, CLEAN, [stim], 10.0, rng=np.random.default_rng(2))[0]
        assert a == b

    @pytest.mark.parametrize("amplitude, draws", [(0.0, 0), (1e-9, 1), (0.01, 1), (0.2, 1)])
    def test_each_stimulus_draws_one_phase_above_amplitude_zero(self, amplitude, draws):
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        for stim in (pulse(0, 2.0), make_signal(1, []), random_train(np.random.default_rng(6))):
            synth_crossings(REF_PARAMS, Disturbance(amplitude, 1.0), [stim], 10.0, rng=rng)[0]
            for _ in range(draws):
                twin.uniform(0.0, 2.0 * math.pi)
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_master_oracle_matches_channel_algorithm(self, ref):
        # zero disturbance: the surrogate physics IS the exp channel
        rng = np.random.default_rng(77)
        for _ in range(100):
            stim = random_train(rng)
            horizon = stim.last_time() + ref.delta_inf_up + 2.0
            crossings = synth_crossings(REF_PARAMS, CLEAN, [stim], horizon)[0]
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
                got = synth_crossings(params, disturbance, [stim], 60.0, rng=got_rng)
                want = [oracles.rc_crossings(params, disturbance, stim, 60.0, rng=want_rng)]
                assert_matches_the_oracle(params, disturbance, [stim], got, want)

    # One segment on the grid linspace(0.5, 10, 476) after the stimulus edge at 0:
    # v(t) = 1 - e^{-(t - 0.5)} rising from 0, or e^{-(t - 0.5)} falling from 1.
    THRESHOLD_GRID = np.linspace(0.5, 10.0, 476)

    @staticmethod
    def segment_value(initial, t):
        return 1.0 + -1.0 * math.exp(-(t - 0.5) / 1.0) if initial == 0 else 1.0 * math.exp(-(t - 0.5) / 1.0)

    @pytest.mark.parametrize("initial", [0, 1])
    def test_grid_point_on_the_threshold_opens_a_bracket(self, initial):
        # vth is v at a grid point, so the scalar scan reads an exact zero there and
        # the point counts as above: one crossing, in the cell that ends at the point
        grid = self.THRESHOLD_GRID
        stim = make_signal(initial, [(0.0, 1 - initial)])
        for k in (1, 10, 237, 474):
            params = ExpChannelParams(1.0, 0.5, self.segment_value(initial, float(grid[k])))
            got = synth_crossings(params, CLEAN, [stim], 10.0)
            assert_matches_the_oracle(params, CLEAN, [stim], got, [oracles.rc_crossings(params, CLEAN, stim, 10.0)])
            ((t, value),) = got[0]
            assert value == 1 - initial
            assert grid[k - 1] < t <= grid[k] + closed_form_slack(params, 1 - initial, grid[k])

    def test_a_crossing_where_the_drive_falls_stays_in_its_segment(self):
        # the drive falls at a grid point where the rising trajectory reads exactly vth;
        # the closed form can round past that point, and is clamped back into the segment
        grid, past_the_end = self.THRESHOLD_GRID, 0
        for k in range(1, 475):
            stim = make_signal(0, [(0.0, 1), (float(grid[k]) - 0.5, 0)])
            end = stim.times[1] + 0.5
            params = ExpChannelParams(1.0, 0.5, self.segment_value(0, end))
            past_the_end += 0.5 + math.log(-1.0 / (params.vth_norm - 1.0)) > end
            (up, up_value), (down, down_value) = synth_crossings(params, CLEAN, [stim], 12.0)[0]
            assert (up_value, down_value) == (1, 0) and up <= end == down
        assert past_the_end

    def test_amplitude_zero_touches_no_numpy(self, monkeypatch):
        # an undisturbed rail has monotone segments only, each crossed in closed form
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"synth_crossings read np.{name}")

        params = ExpChannelParams(1.0, 0.5, 0.6)
        stimuli = calibration_stimuli(exp_channel(params)) + [random_train(np.random.default_rng(6))]
        monkeypatch.setattr(waveform_lab, "np", NoNumpy())
        got = synth_crossings(params, CLEAN, stimuli, 60.0, rng=np.random.default_rng(1))
        want = [oracles.rc_crossings(params, CLEAN, s, 60.0) for s in stimuli]
        assert_matches_the_oracle(params, CLEAN, stimuli, got, want)

    @pytest.mark.parametrize("amplitude", [0.0, 0.01, 0.05, 0.2])
    def test_one_call_over_the_calibration_equals_the_oracle_per_stimulus(self, amplitude):
        params, disturbance = ExpChannelParams(1.0, 0.5, 0.6), Disturbance(amplitude, 1.0)
        stimuli = calibration_stimuli(exp_channel(params))
        for seed in (51, 52, 53):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = synth_crossings(params, disturbance, stimuli, 60.0, rng=got_rng)
            want = [oracles.rc_crossings(params, disturbance, s, 60.0, rng=want_rng) for s in stimuli]
            assert_matches_the_oracle(params, disturbance, stimuli, got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_one_call_over_random_trains_equals_the_oracle_per_stimulus(self):
        # 40 random surrogates, 5 random trains each.  Every fourth one puts vth inside
        # the ripple band 1 +- a / sqrt(1 + (omega tau)^2) of a settled node, so that one
        # charging segment on the disturbed rail crosses the threshold again and again.
        rng = np.random.default_rng(2024)
        most_in_one_charge = 0
        for case in range(40):
            tau, t_p, period = (float(x) for x in rng.uniform((0.3, 0.1, 0.3), (2.0, 1.0, 3.0)))
            amplitude = 0.0 if case % 5 == 0 else float(rng.uniform(0.01, 0.2))
            ripple = amplitude / math.hypot(1.0, 2.0 * math.pi / period * tau)
            if case % 4 == 1 and amplitude > 0.0:
                vth = 1.0 - ripple * float(rng.uniform(0.2, 0.8))
            else:
                vth = float(rng.uniform(0.1, 0.9))
            params, disturbance = ExpChannelParams(tau, t_p, vth), Disturbance(amplitude, period)
            stimuli = [random_train(rng, 6) for _ in range(5)]
            horizon = max(s.last_time() for s in stimuli) + 6.0 * tau
            seed = int(rng.integers(2**32))
            want_rng = np.random.default_rng(seed)
            want = [oracles.rc_crossings(params, disturbance, s, horizon, rng=want_rng) for s in stimuli]
            got = synth_crossings(params, disturbance, stimuli, horizon, rng=np.random.default_rng(seed))
            assert_matches_the_oracle(params, disturbance, stimuli, got, want)
            if amplitude > 0.0:
                for stim, crossings in zip(stimuli, want):
                    # the drive rises at the 1st, 3rd, ... switch and falls at the next one
                    switches = [t + t_p for t in stim.times] + [math.inf]
                    for start, end in zip(switches[::2], switches[1::2]):
                        count = sum(start < t <= end for t, _ in crossings)
                        most_in_one_charge = max(most_in_one_charge, count)
        assert most_in_one_charge >= 3

    def test_grids_longer_than_a_scan_chunk_equal_the_oracle(self):
        # each step's charging segment has 20001 grid points, more than one chunk holds,
        # and vth in the ripple band makes it cross on every period of the rail
        params, disturbance = ExpChannelParams(1.0, 0.5, 0.999), Disturbance(0.2, 1.0)
        stimuli = [make_signal(0, [(0.0, 1)]), pulse(0, 2.0), make_signal(0, [(0.0, 1)])]
        assert 20001 > waveform_lab._SCAN_CHUNK
        want_rng = np.random.default_rng(9)
        want = [oracles.rc_crossings(params, disturbance, s, 1000.0, rng=want_rng) for s in stimuli]
        assert len(want[0]) > 100
        got = synth_crossings(params, disturbance, stimuli, 1000.0, rng=np.random.default_rng(9))
        assert_matches_the_oracle(params, disturbance, stimuli, got, want)

    @pytest.mark.parametrize("initial", [0, 1])
    @pytest.mark.parametrize("cell", [0, -1])
    def test_a_monotone_crossing_in_the_first_or_last_grid_cell(self, initial, cell):
        # the stimulus's one edge starts a monotone segment on THRESHOLD_GRID; vth lies
        # halfway between v at the two ends of its first or its last cell
        grid = self.THRESHOLD_GRID
        lo, hi = (grid[0], grid[1]) if cell == 0 else (grid[-2], grid[-1])
        ends = [self.segment_value(initial, float(t)) for t in (lo, hi)]
        params = ExpChannelParams(1.0, 0.5, 0.5 * (ends[0] + ends[1]))
        stim = make_signal(initial, [(0.0, 1 - initial)])
        got = synth_crossings(params, CLEAN, [stim], 10.0)
        assert_matches_the_oracle(params, CLEAN, [stim], got, [oracles.rc_crossings(params, CLEAN, stim, 10.0)])
        ((t, value),) = got[0]
        assert value == 1 - initial and lo < t < hi

    @pytest.mark.parametrize(
        "params", [ExpChannelParams(1.0, 0.5, 0.6), ExpChannelParams(0.7, 0.3, 0.3), ExpChannelParams(2.0, 0.2, 0.8)]
    )
    def test_an_undisturbed_crossing_is_within_two_ulps_of_the_trajectory_changing_side(self, params):
        # a bisection to a 1e-14 bracket, as in rc_crossings, misses by tens of ulps where t is small
        stimuli = calibration_stimuli(exp_channel(params))
        got = synth_crossings(params, CLEAN, stimuli, 60.0)
        assert sum(map(len, got)) >= 3 * len(stimuli)
        vth = params.vth_norm
        for stim, crossings in zip(stimuli, got):
            segments = clean_segments(params, stim, 60.0)
            ends = [end for _, end, _ in segments]
            for t, value in crossings:
                _, _, v = segments[bisect.bisect_left(ends, t)]
                before, after = t - CLOSED_FORM_ULPS * math.ulp(t), t + CLOSED_FORM_ULPS * math.ulp(t)
                assert (v(before) >= vth, v(after) >= vth) == (not value, bool(value)), (t, value)

    def test_a_disturbed_crossing_past_t_64_stops_its_bisection_at_neighbouring_floats(self, monkeypatch):
        # one ulp of t exceeds the 1e-14 bracket width there, so the width never stops the
        # bisection; each of its steps reads math.sin once
        steps, bisections = [], []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def sin(self, x):
                steps.append(x)
                return math.sin(x)

        bisect_crossing = waveform_lab._bisect_crossing

        def counting(*args):
            steps.clear()
            crossing = bisect_crossing(*args)
            bisections.append((crossing[0], len(steps)))
            return crossing

        monkeypatch.setattr(waveform_lab, "_bisect_crossing", counting)
        monkeypatch.setattr(waveform_lab, "math", CountingMath())
        params, disturbance = ExpChannelParams(1.0, 0.5, 0.6), Disturbance(0.05, 1.0)
        stim = make_signal(0, [(66.0, 1), (70.0, 0), (72.0, 1)])
        got = synth_crossings(params, disturbance, [stim], 80.0, rng=np.random.default_rng(4))
        assert got == [oracles.rc_crossings(params, disturbance, stim, 80.0, rng=np.random.default_rng(4))]
        assert len(bisections) == 2 and all(t > 64.0 and 0 < n < 100 for t, n in bisections)

    @staticmethod
    def ripple(tau, disturbance):
        """hypot(alpha, beta) as synth_crossings computes it: the rail's ripple about 1 at the node."""
        a, omega = disturbance.amplitude_fraction, 2.0 * math.pi / disturbance.period
        denom = 1.0 + (omega * tau) ** 2
        return math.hypot(a / denom, -a * omega * tau / denom)

    @staticmethod
    def points_read(monkeypatch):
        """The grid points the disturbed scan reads from here on, counted at its np.sin."""
        read = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def sin(self, x):
                read.append(len(x))
                return np.sin(x)

        monkeypatch.setattr(waveform_lab, "np", CountingNumpy())
        return read

    def test_a_short_period_at_the_largest_amplitude_equals_the_oracle(self):
        # the grid step is period / 50 = 0.002, a fiftieth of tau / 50
        params, disturbance = ExpChannelParams(1.0, 0.5, 0.6), Disturbance(0.2, 0.1)
        stimuli = calibration_stimuli(exp_channel(params))[::12]
        got_rng, want_rng = np.random.default_rng(51), np.random.default_rng(51)
        got = synth_crossings(params, disturbance, stimuli, 20.0, rng=got_rng)
        want = [oracles.rc_crossings(params, disturbance, s, 20.0, rng=want_rng) for s in stimuli]
        assert_matches_the_oracle(params, disturbance, stimuli, got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("inside", [True, False])
    def test_a_threshold_at_the_ripple_edge_is_read_in_whole_inside_and_up_to_t_star_outside(self, inside, monkeypatch):
        # Settled, the node's lowest points lie at 1 - A.  A twentieth of A inside the ripple
        # it dips below vth on every period up to the horizon, and the whole grid is read.
        # 1e-6 below 1 - A - 2 guard it dips below only before t* = s + tau ln(|offset| / 1e-6),
        # about 14 after the edge, and the grid is read up to there.
        tau, disturbance = 1.0, Disturbance(0.2, 1.0)
        ripple = self.ripple(tau, disturbance)
        vth = 1.0 - 0.95 * ripple if inside else 1.0 - ripple - 2.0 * waveform_lab._SIGN_GUARD - 1e-6
        params = ExpChannelParams(tau, 0.5, vth)
        stim = make_signal(0, [(0.0, 1)])
        want = oracles.rc_crossings(params, disturbance, stim, 40.0, rng=np.random.default_rng(3))
        read = self.points_read(monkeypatch)
        assert synth_crossings(params, disturbance, [stim], 40.0, rng=np.random.default_rng(3)) == [want]
        grid = 1976  # the segment after the edge: 39.5 long, 1975 steps of tau / 50
        assert len(want) > 10
        if inside:
            assert want[-1][0] > 39.0 and sum(read) == grid
        else:
            assert want[-1][0] < 16.0 and sum(read) < grid * 0.45

    def test_a_charging_segment_that_starts_settled_reads_one_point(self, monkeypatch):
        # High from the start and again after a 1e-3 glitch: both charging segments start
        # within the ripple of the rail, where t* lies before their start, so each reads
        # only its first point.  The fall at 6.5 then crosses down.
        params, disturbance = ExpChannelParams(1.0, 0.5, 0.6), Disturbance(0.05, 1.0)
        stim = make_signal(1, [(2.0, 0), (2.001, 1), (6.0, 0)])
        want = [oracles.rc_crossings(params, disturbance, stim, 20.0, rng=np.random.default_rng(5))]
        read = self.points_read(monkeypatch)
        got = synth_crossings(params, disturbance, [stim], 20.0, rng=np.random.default_rng(5))
        assert_matches_the_oracle(params, disturbance, [stim], got, want)
        assert [v for _, v in got[0]] == [0] and sum(read) == 2

    def test_a_charging_segment_that_ends_before_t_star_is_read_to_its_end(self):
        # The fall ends the charge from 0.5 at 2.00644, 76 grid steps later, where 76 * step + 0.5
        # rounds an ulp off the end.  vth lies halfway between the node at the last two grid
        # points, so the crossing lies in the last cell and t* past the end: the whole grid is
        # read, and its last cell must end at the segment's end, as linspace's does.
        disturbance, seed, fall = Disturbance(0.2, 1.0), 0, 1.50644
        start, end = 0.5, fall + 0.5
        step = (end - start) / 76
        assert math.ceil((end - start) / 0.02) == 76 and 76 * step + start != end
        phase = float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi))
        omega = 2.0 * math.pi
        alpha, beta = 0.2 / (1.0 + omega**2), -0.2 * omega / (1.0 + omega**2)

        def v(t):  # the node charging from 0 at start, as synth_crossings computes it
            th, th0 = omega * t + phase, omega * start + phase
            offset = 0.0 - (1.0 + alpha * math.sin(th0) + beta * math.cos(th0))
            return 1.0 + alpha * math.sin(th) + beta * math.cos(th) + offset * math.exp(-(t - start) / 1.0)

        params = ExpChannelParams(1.0, 0.5, 0.5 * (v(75 * step + start) + v(end)))
        stim = make_signal(0, [(0.0, 1), (fall, 0)])
        want = [oracles.rc_crossings(params, disturbance, stim, 10.0, rng=np.random.default_rng(seed))]
        got = synth_crossings(params, disturbance, [stim], 10.0, rng=np.random.default_rng(seed))
        assert_matches_the_oracle(params, disturbance, [stim], got, want)
        assert got[0][0][1] == 1 and 75 * step + start < got[0][0][0] <= end

    def test_a_grid_step_that_underflows_is_linspaces_own(self, monkeypatch):
        # t_p = 1e-323 makes the first segment, charging from 1 toward a rail below it, two
        # subnormal floats long: its step 1e-323 / 8 underflows to 0, and linspace spreads the
        # grid over 0, 5e-324 and 1e-323.  vth lies where the node falls through it there.
        tau, disturbance, seed = 1e-321, Disturbance(0.2, 1.0), 0
        phase = float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi))
        rail = 1.0 + 0.2 * math.sin(phase)
        assert rail < 1.0
        params = ExpChannelParams(tau, 1e-323, 1.0 - 0.9 * (1.0 - rail) * (1.0 - math.exp(-1e-323 / tau)))
        stimuli = [make_signal(1, [(0.0, 0)]), make_signal(0, [(0.0, 1)])]
        want_rng = np.random.default_rng(seed)
        want = [oracles.rc_crossings(params, disturbance, s, 1e-319, rng=want_rng) for s in stimuli]
        linspaces, linspace = [], np.linspace
        monkeypatch.setattr(np, "linspace", lambda *args: linspaces.append(args) or linspace(*args))
        got = synth_crossings(params, disturbance, stimuli, 1e-319, rng=np.random.default_rng(seed))
        assert_matches_the_oracle(params, disturbance, stimuli, got, want)
        assert got[0][0] == (1e-323, 0) and linspaces == [(0.0, 1e-323, 9)]

    @pytest.mark.parametrize("amplitude", [0.0, 0.01])
    def test_one_phase_per_stimulus_in_order_and_none_for_no_stimulus(self, amplitude):
        stimuli = [pulse(0, 2.0), make_signal(1, []), random_train(np.random.default_rng(6))]
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        assert synth_crossings(REF_PARAMS, Disturbance(amplitude, 1.0), [], 10.0, rng=rng) == []
        assert rng.bit_generator.state == twin.bit_generator.state
        got = synth_crossings(REF_PARAMS, Disturbance(amplitude, 1.0), stimuli, 10.0, rng=rng)
        assert len(got) == len(stimuli)
        for _ in stimuli if amplitude > 0.0 else ():
            twin.uniform(0.0, 2.0 * math.pi)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("direction", [-1.0, 1.0])
    def test_sign_guard_hides_numpy_rounding_on_a_disturbed_rail(self, direction, monkeypatch):
        # The charging segment after the edge at 0 runs on the disturbed rail; vth is its
        # math value at a grid point, and numpy's sin and exp are moved one ulp off libm's.
        class OneUlpOff:
            def __getattr__(self, name):
                return getattr(np, name)

            def sin(self, x):
                return np.nextafter(np.sin(x), direction * np.inf)

            def exp(self, x):
                return np.nextafter(np.exp(x), direction * np.inf)

        amplitude, period = 0.2, 2.0
        phase = float(np.random.default_rng(3).uniform(0.0, 2.0 * math.pi))
        omega = 2.0 * math.pi / period
        denom = 1.0 + omega**2
        alpha, beta = amplitude / denom, -amplitude * omega / denom

        def v(t, xp):
            th = omega * t + phase
            th0 = omega * 0.5 + phase
            offset = 0.0 - (1.0 + alpha * math.sin(th0) + beta * math.cos(th0))
            return 1.0 + alpha * xp.sin(th) + beta * xp.cos(th) + offset * xp.exp(-(t - 0.5) / 1.0)

        grid, k = self.THRESHOLD_GRID, 10  # the grid step tau/50 is below period/50
        vth = v(float(grid[k]), math)
        monkeypatch.setattr(waveform_lab, "np", OneUlpOff())
        assert v(grid[k : k + 1], waveform_lab.np)[0] != vth
        params, disturbance = ExpChannelParams(1.0, 0.5, vth), Disturbance(amplitude, period)
        stim = make_signal(0, [(0.0, 1)])
        want = oracles.rc_crossings(params, disturbance, stim, 10.0, rng=np.random.default_rng(3))
        assert want[0][0] == pytest.approx(grid[k], abs=1e-13)
        assert synth_crossings(params, disturbance, [stim], 10.0, rng=np.random.default_rng(3)) == [want]

    def test_disturbance_requires_rng_when_phase_random(self):
        with pytest.raises(WaveformError, match="draws its phase from an rng"):
            synth_crossings(REF_PARAMS, Disturbance(0.01, 1.0), [pulse(0, 2.0)], 10.0)[0]

    @pytest.mark.parametrize(
        "tau, period, amplitude, message",
        [
            (1.0, 1e-154, 0.01, "--period 1e-154 is too short"),
            (1.0, 1e-310, 0.01, "--period 1e-310 is too short"),
            (1e-300, 5e-324, 0.01, "--period 5e-324 is too short"),
            (1.0, 60.0 * 2.0 * math.pi / 2.0**53 * 0.999, 0.2, "is too short for tau=1.0 and horizon=60.0"),
            (5e-324, 1.0, 0.0, "tau=5e-324 is too short for the surrogate's grid"),
        ],
    )
    def test_a_rail_or_grid_floats_cannot_resolve_is_a_waveform_error(self, tau, period, amplitude, message):
        params = ExpChannelParams(tau, 0.5, 0.6)
        with pytest.raises(WaveformError, match=message):
            synth_crossings(params, Disturbance(amplitude, period), [pulse(0, 2.0)], 60.0, np.random.default_rng(0))[0]

    def test_the_shortest_period_the_rail_resolves_is_accepted(self):
        period = 60.0 * 2.0 * math.pi / 2.0**53 * 1.001
        synth_crossings(REF_PARAMS, Disturbance(0.2, period), [pulse(0, 2.0)], 60.0, np.random.default_rng(0))[0]

    def test_amplitude_bound_enforced(self):
        with pytest.raises(Exception):
            Disturbance(0.5, 1.0)


class TestDeviationAnalysis:
    def test_model_against_itself_is_fully_covered(self, ref):
        rng = np.random.default_rng(5)
        for _ in range(10):
            stim = random_train(rng)
            crossings = synth_crossings(REF_PARAMS, CLEAN, [stim], stim.last_time() + 4.0)[0]
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
            crossings = synth_crossings(params, CLEAN, [stim], 12.0)[0]
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
                    crossings = synth_crossings(params, disturbance, [stim], 30.0, rng=rng)[0]
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
    """The fit samples of a `waveform` run with ``argv``, read back from its ``deviations.csv``."""
    assert cli.main(["waveform", *argv, "--out", str(out)]) == 0
    with open(out / "deviations.csv", newline="") as fh:
        return [
            (float(r["T"]), float(r["delay"]), int(r["edge"] == "rising"))
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
        """The (T, delay, value) samples of ``df`` at each of ``ts``, the up delay before the down delay."""
        return [(float(t), d, v) for t in ts for d, v in ((df.up(float(t)), 1), (df.down(float(t)), 0))]

    def test_self_fit_recovers_parameters(self, ref):
        samples = self.make_samples(ref, np.linspace(-0.8, 5.0, 40))
        params, rms, _ = fit_exp_channel(samples)
        assert params.tau == pytest.approx(1.0, rel=1e-4)
        assert params.t_p == pytest.approx(0.5, rel=1e-4)
        assert params.vth_norm == pytest.approx(0.5, rel=1e-4)
        assert rms <= 1e-8

    def test_a_delay_table_file_feeds_the_fit(self, tmp_path):
        # a netlist-style table, both delays on each row, of an asymmetric exp-channel:
        # a delay read with the other direction would fit vth = 0.65
        df = exp_channel(ExpChannelParams(2.0, 0.7, 0.35))
        path = tmp_path / "table.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["T", "delta_up", "delta_down"])
            for t in np.linspace(-1.2, 10.0, 40).tolist():
                w.writerow([repr(t), repr(df.up(t)), repr(df.down(t))])
        params, rms, _ = fit_exp_channel(read_delay_samples(path))
        assert params.tau == pytest.approx(2.0, rel=1e-4)
        assert params.t_p == pytest.approx(0.7, rel=1e-4)
        assert params.vth_norm == pytest.approx(0.35, rel=1e-4)
        assert rms <= 1e-8

    def test_noisy_self_fit(self, ref):
        rng = np.random.default_rng(13)
        clean = self.make_samples(ref, np.linspace(-0.8, 5.0, 60))
        samples = [(t, d + float(rng.uniform(-1e-3, 1e-3)), v) for t, d, v in clean]
        params, rms, _ = fit_exp_channel(samples)
        assert rms <= 2e-3
        assert params.tau == pytest.approx(1.0, rel=0.01)
        assert params.t_p == pytest.approx(0.5, rel=0.01)
        assert params.vth_norm == pytest.approx(0.5, rel=0.01)

    def test_single_edge_dataset(self, ref):
        samples = [(float(t), ref.up(float(t)), 1) for t in np.linspace(-0.8, 5.0, 30)]
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
        misfit = [abs((fitted.up if v else fitted.down)(t) - d) for t, d, v in samples]
        resid = np.array(misfit).reshape(-1, 2).sum(axis=1)  # up plus down at each T
        quarter = len(eval_ts) // 4
        assert resid[-quarter:].mean() > resid[:quarter].mean()

    def test_scale_equivariance(self, ref):
        samples = self.make_samples(ref, np.linspace(-0.8, 5.0, 40))
        k = 7.0
        scaled = [(k * t, k * d, v) for t, d, v in samples]
        p1 = fit_exp_channel(samples).params
        p2 = fit_exp_channel(scaled).params
        assert p2.tau == pytest.approx(k * p1.tau, rel=1e-3)
        assert p2.t_p == pytest.approx(k * p1.t_p, rel=1e-3)
        assert p2.vth_norm == pytest.approx(p1.vth_norm, rel=1e-3)

    def rows_and_points(self, ref):
        """Samples with some delays missing, and seeded points across the fit's bounds."""
        rng = np.random.default_rng(21)
        # every third T lacks its up delay and every fourth its down delay
        rows = [
            (t, d, v)
            for k, (t, d, v) in enumerate(self.make_samples(ref, np.linspace(-0.9, 5.0, 50)))
            if (k // 2) % (3 if v else 4)
        ]
        med = float(np.median([abs(d) for _, d, _ in rows]))
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
        # the fit samples of the default calibration as `waveform` writes them, then 20
        # copies with Gaussian noise of 1e-4 to 1e-2 on every delay
        argv = ["--tau", "1", "--t-p", "0.5", "--vth", "0.6", "--amplitude", "0.01", "--seed", "51"]
        calibration = calibration_rows(tmp_path, argv)
        rng = np.random.default_rng(1978)
        datasets = [calibration]
        for sigma in np.logspace(-4, -2, 20):
            datasets.append([(t, d + float(rng.normal(0.0, sigma)), v) for t, d, v in calibration])
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
        # every sample lies inside the model's domain at every start, so every start's residuals are NaN
        ts = np.linspace(0.0, 5.0, 10)
        samples = [(float(t), d, v) for t in ts for d, v in ((math.nan, 1), (ref.up(float(t)), 0))]
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
            fit_exp_channel([(0.0, 0.8, 1), (1.0, 1.0, 1)])


def test_output_files(tmp_path, ref):
    stim = make_signal(0, [(0.0, 1), (2.5, 0), (3.5, 1), (6.0, 0)])
    crossings = synth_crossings(REF_PARAMS, CLEAN, [stim], 12.0)[0]
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
