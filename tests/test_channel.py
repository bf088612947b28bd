import math
import sys
import threading
import weakref

import numpy as np
import pytest

from involution.analysis import f_map
from involution.channel import (
    ChannelError,
    EtaBounds,
    EtaInvolution,
    EtaSource,
    FixedSequence,
    Inertial,
    Involution,
    Pure,
    Record,
    UniformRandom,
    WorstCaseShrink,
    Zero,
    apply_channel,
    read_eta_sequence,
    state_constructor,
    worst_case_eta,
    write_eta_sequence,
)
from involution.delay_model import DelayFunction
from involution.signals import make_signal, pulse

import oracles
from oracles import cancellation_oracle


def random_alternating_signal(rng, max_transitions=20):
    n = int(rng.integers(0, max_transitions + 1))
    t = 0.0
    times = []
    for _ in range(n):
        # mix of short glitches and long gaps to exercise cancellation
        t += float(rng.exponential(0.3) if rng.random() < 0.5 else rng.exponential(3.0))
        times.append(t)
    return make_signal(0, [(t, (i + 1) % 2) for i, t in enumerate(times)])


class TestApplyInvolution:
    def test_single_rising_edge(self, ref):
        out, log = apply_channel(Involution(ref), make_signal(0, [(0.0, 1)]))
        assert [(t.time, t.value) for t in out.transitions] == [(ref.delta_inf_up, 1)]
        assert log[0].T == math.inf

    def test_short_pulse_cancels(self, ref):
        out, log = apply_channel(Involution(ref), pulse(0, 0.1))
        assert out.is_zero
        assert all(r.canceled for r in log)
        # hand-executed constants: delta_2 = delta_down(0.1 - d_inf) and the
        # pending pair is non-FIFO
        assert log[1].out_time == pytest.approx(0.1 + oracles.ref_delay(0.1 - oracles.REF_D_INF), abs=1e-12)
        assert log[1].out_time < log[0].out_time

    def test_long_pulse_passes(self, ref):
        out, _ = apply_channel(Involution(ref), pulse(0, 2.0))
        times = [(t.time, t.value) for t in out.transitions]
        assert times[0] == (pytest.approx(oracles.REF_D_INF, abs=1e-12), 1)
        assert times[1][0] == pytest.approx(2.0 + oracles.ref_delay(2.0 - oracles.REF_D_INF), abs=1e-12)

    def test_output_is_valid_signal(self, ref):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = random_alternating_signal(rng)
            out, _ = apply_channel(Involution(ref), s)
            ts = [t.time for t in out.transitions]
            assert ts == sorted(set(ts))
            for a, b in zip(out.transitions, out.transitions[1:]):
                assert a.value != b.value

    def test_zero_strategy_equals_plain_involution(self, ref):
        rng = np.random.default_rng(1)
        bounds = EtaBounds(0.05, 0.1)
        for _ in range(500):
            s = random_alternating_signal(rng)
            plain, _ = apply_channel(Involution(ref), s)
            eta, _ = apply_channel(EtaInvolution(ref, bounds, Zero()), s)
            assert plain.transitions == eta.transitions

    def test_max_guard_forces_cancellation(self, ref):
        # a short glitch after a long stable input, with the falling edge
        # pushed late beyond the glitch gap, exceeds the delay domain; the
        # guard cancels it with its predecessor
        bounds = EtaBounds(0.0, 0.5)
        spec = EtaInvolution(ref, bounds, FixedSequence((0.0, 0.05, 0.0, 0.0)))
        s = make_signal(0, [(0.0, 1), (50.0, 0), (50.01, 1), (50.02, 0)])
        out, log = apply_channel(spec, s)
        assert log[2].guard_hit
        assert log[2].canceled and log[1].canceled
        assert log[2].canceled_with == 2 and log[1].canceled_with == 3
        assert [t.value for t in out.transitions] == [1, 0]

    def test_an_eta_that_lands_an_output_on_the_pending_survivor_cancels_both(self, ref):
        # the falling edge's eta puts its output exactly on the rising edge's: ties cancel
        t = 0.7
        u = ref.up(math.inf)  # the first output, with eta 0
        base = ref.down(t - u)
        eta = (u - t) - base
        assert t + (base + eta) == u and abs(eta) < 0.05
        spec = EtaInvolution(ref, EtaBounds(0.05, 0.05), FixedSequence((0.0, eta)))
        out, log = apply_channel(spec, make_signal(0, [(0.0, 1), (t, 0), (3.0, 1)]))
        assert log[0].out_time == log[1].out_time == u
        assert [r.canceled for r in log] == [True, True, False]
        assert log[0].canceled_with == 2 and log[1].canceled_with == 1
        assert [(tr.time, tr.value) for tr in out.transitions] == [(log[2].out_time, 1)]

    def test_feed_returns_the_record_and_partner_the_benchmark_tracer_reads(self, ref, monkeypatch):
        # bench/tracer.py wraps feed, EtaSource.eta and DelayFunction.up/down, and
        # reads guard_hit and the partner from what feed returns; the input is
        # the guard-canceled one above
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for owner, attr in ((EtaSource, "eta"), (DelayFunction, "up"), (DelayFunction, "down")):
            monkeypatch.setattr(owner, attr, counted(attr, getattr(owner, attr)))
        spec = EtaInvolution(ref, EtaBounds(0.0, 0.5), FixedSequence((0.0, 0.05, 0.0, 0.0)))
        s = make_signal(0, [(0.0, 1), (50.0, 0), (50.01, 1), (50.02, 0)])
        fed = {}
        for log in (True, False):
            calls.clear()
            state = state_constructor(spec)(log)
            fed[log] = [state.feed(tr.time, tr.value) for tr in s.transitions]
            assert sorted(calls) == ["down", "down", "eta", "eta", "eta", "eta", "up", "up"]
            assert all(type(r) is tuple and len(r) == 2 for r in fed[log])
            assert [rec.guard_hit for rec, _ in fed[log]] == [False, False, True, False]
            assert [partner and partner.index for _, partner in fed[log]] == [None, None, 2, None]
        out, logged = apply_channel(spec, s)
        assert apply_channel(spec, s, log=False) == (out, None)
        for (rec, _), (on, _), want in zip(fed[False], fed[True], logged):
            assert (rec.out_time, rec.value, rec.canceled) == (want.out_time, want.value, want.canceled)
            assert (on.out_time, on.value, on.canceled, on.guard_hit) == (
                want.out_time, want.value, want.canceled, want.guard_hit
            )


class TestPureAndInertial:
    def test_pure_shifts(self):
        out, _ = apply_channel(Pure(1.0), pulse(0, 0.1))
        assert [(t.time, t.value) for t in out.transitions] == [(1.0, 1), (1.1, 0)]

    def test_nan_delays_rejected(self):
        # a NaN pure delay surfaced as "transition times not strictly increasing at t=nan";
        # an infinite one left the channel active forever, and an infinite window
        # failed only at execute, as a causality fault
        with pytest.raises(ChannelError, match="pure delay"):
            Pure(math.nan)
        with pytest.raises(ChannelError, match="inertial delay"):
            Inertial(math.nan, 0.1)
        with pytest.raises(ChannelError, match="pure delay must be finite, got inf"):
            Pure(math.inf)
        with pytest.raises(ChannelError, match="inertial delay must be finite, got inf"):
            Inertial(math.inf, 1.0)
        with pytest.raises(ChannelError, match="inertial window must be finite, got inf"):
            Inertial(1.0, math.inf)

    @pytest.mark.parametrize(
        "delay, window, message",
        [(0.0, 0.1, "inertial delay must be > 0, got 0.0"), (0.1, 0.0, "inertial window must be > 0, got 0.0")],
    )
    def test_an_inertial_delay_or_window_of_zero_is_rejected(self, delay, window, message):
        with pytest.raises(ChannelError, match=message):
            Inertial(delay, window)

    def test_pure_is_a_shift(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            s = random_alternating_signal(rng)
            d = float(rng.uniform(0.0, 2.0))
            out, log = apply_channel(Pure(d), s)
            assert out.initial_value == s.initial_value and out.times == tuple(t + d for t in s.times)
            assert not any(r.canceled for r in log)

    def test_pure_rounding_tie_cancels(self):
        # two inputs one ulp apart that the delay rounds onto one output time
        t1, t2 = 3.9043828960234284, 3.904382896023429
        assert t1 < t2 and t1 + 0.5306 == t2 + 0.5306
        s = make_signal(0, [(1.0, 1), (t1, 0), (t2, 1), (6.0, 0)])
        out, log = apply_channel(Pure(0.5306), s)
        assert [(t.time, t.value) for t in out.transitions] == [(1.0 + 0.5306, 1), (6.0 + 0.5306, 0)]
        assert [r.canceled for r in log] == [False, True, True, False]
        assert log[1].canceled_with == 3 and log[2].canceled_with == 2

    def test_inertial_suppresses_short_pulse(self):
        out, _ = apply_channel(Inertial(1.0, 0.2), pulse(0, 0.1))
        assert out.is_zero

    def test_inertial_passes_long_pulse(self):
        out, _ = apply_channel(Inertial(1.0, 0.2), pulse(0, 0.5))
        assert [(t.time, t.value) for t in out.transitions] == [(1.0, 1), (1.5, 0)]

    def test_inertial_window_is_half_open(self):
        out, _ = apply_channel(Inertial(1.0, 0.25), pulse(1.0, 0.25))
        assert out.times == (2.0, 2.25)
        out, _ = apply_channel(Inertial(1.0, 0.25), make_signal(0, [(1.0, 1), (math.nextafter(1.25, 0.0), 0)]))
        assert out.is_zero

    def test_inertial_removes_glitch_inside_train(self):
        s = make_signal(0, [(0.0, 1), (0.5, 0), (0.55, 1), (2.0, 0)])
        out, _ = apply_channel(Inertial(1.0, 0.2), s)
        assert [(t.time, t.value) for t in out.transitions] == [(1.0, 1), (3.0, 0)]

    @pytest.mark.parametrize("log", [False, True], ids=["unlogged", "logged"])
    def test_an_inertial_state_keeps_no_pending_stack(self, log):
        # only its newest record can be suppressed, so that record is all it keeps;
        # the glitch train above gives the same output
        state = state_constructor(Inertial(1.0, 0.2))(log)
        fed = [state.feed(t, v)[0] for t, v in [(0.0, 1), (0.5, 0), (0.55, 1), (2.0, 0)]]
        assert not hasattr(state, "stack")
        assert [(r.out_time, r.value) for r in fed if not r.canceled] == [(1.0, 1), (3.0, 0)]


class TestInertialOracle:
    WINDOW = 0.2

    def glitch_train(self, rng):
        """Gaps at, below and above the window, so suppressions run back to back."""
        initial = int(rng.integers(2))
        t, pairs = 0.0, []
        for i in range(int(rng.integers(0, 30))):
            r = rng.random()
            if r < 0.2:
                t += self.WINDOW
            elif r < 0.6:
                t += float(rng.uniform(0.0, self.WINDOW))
            else:
                t += float(rng.uniform(self.WINDOW, 3.0))
            pairs.append((t, (initial + i + 1) % 2))
        return make_signal(initial, pairs)

    def test_agrees_on_random_glitch_trains(self):
        rng = np.random.default_rng(7)
        coalesced = 0
        for _ in range(500):
            s = self.glitch_train(rng)
            pairs = [(tr.time, tr.value) for tr in s.transitions]
            out, log = apply_channel(Inertial(1.0, self.WINDOW), s)
            want, canceled = oracles.inertial_oracle(s.initial_value, pairs, 1.0, self.WINDOW)
            assert [(tr.time, tr.value) for tr in out.transitions] == want
            assert [r.canceled for r in log] == canceled
            assert [(r.time, r.value) for r in log] == pairs
            gaps = [b[0] - a[0] for a, b in zip(pairs, pairs[1:])] + [math.inf]
            coalesced += sum(c and g > self.WINDOW for c, g in zip(canceled, gaps))
        assert coalesced > 0  # the coalescing rule was exercised


class TestCancellationOracle:
    @pytest.mark.parametrize(
        "pending, surviving",
        [
            ([1.0, 2.0, 3.0], [0, 1, 2]),
            ([2.0, 1.0], []),
            ([3.0, 1.0, 2.0], [2]),
        ],
    )
    def test_examples(self, pending, surviving):
        assert cancellation_oracle(pending) == surviving

    def test_ties_cancel(self):
        assert cancellation_oracle([1.0, 1.0]) == []

    def test_incremental_agrees_on_random_lists(self, ref):
        # inject arbitrary pending times through the channel by choosing the
        # eta sequence that lands each output exactly on the wanted time
        rng = np.random.default_rng(2)
        big = EtaBounds(1e6, 1e6)
        for _ in range(1000):
            n = int(rng.integers(1, 21))
            wanted = [float(u) for u in rng.uniform(0.0, 10.0, n)]
            times = [20.0 * (i + 1) for i in range(n)]
            etas = []
            prev_t, prev_delta = -math.inf, 0.0
            for t, u in zip(times, wanted):
                base = ref.up(t - prev_t - prev_delta)  # symmetric pair
                eta = u - t - base
                etas.append(eta)
                prev_t, prev_delta = t, u - t
            spec = EtaInvolution(ref, big, FixedSequence(tuple(etas)))
            s = make_signal(0, [(t, (i + 1) % 2) for i, t in enumerate(times)])
            out, log = apply_channel(spec, s)
            # the realized pending times differ from `wanted` by eta rounding;
            # the equivalence claim is about the actual pending list
            actual = [r.out_time for r in log]
            got = [r.index - 1 for r in log if not r.canceled]
            assert got == cancellation_oracle(actual)
            assert [t.time for t in out.transitions] == [actual[i] for i in got]


class TestStrategies:
    def test_worst_case_eta_values(self):
        b = EtaBounds(eta_minus=0.1, eta_plus=0.05)
        assert worst_case_eta(1, b) == 0.05
        assert worst_case_eta(0, b) == -0.1
        assert worst_case_eta(1, EtaBounds(0, 0)) == 0.0

    def test_bounds_must_be_nonnegative(self):
        with pytest.raises(ChannelError):
            EtaBounds(-0.1, 0.0)

    @pytest.mark.parametrize("eta_minus, eta_plus", [(0.0, math.inf), (math.inf, 0.0)])
    def test_bounds_must_be_finite(self, eta_minus, eta_plus):
        with pytest.raises(ChannelError, match="finite and non-negative"):
            EtaBounds(eta_minus, eta_plus)

    @pytest.mark.parametrize("branch", ["up", "down"])
    def test_a_delay_of_zero_at_T_zero_is_not_strictly_causal(self, ref, branch):
        # the exp pair with one branch shifted down by its own delay at T = 0
        up = (lambda T: ref.up(T) - ref.up(0.0)) if branch == "up" else ref.up
        down = (lambda T: ref.down(T) - ref.down(0.0)) if branch == "down" else ref.down
        df = DelayFunction(ref.delta_inf_up, ref.delta_inf_down, up, down)
        assert min(df.up(0.0), df.down(0.0)) == 0.0 < max(df.up(0.0), df.down(0.0))
        with pytest.raises(ChannelError, match="strictly causal"):
            EtaInvolution(df, EtaBounds())

    def test_uniform_random_seed_must_be_non_negative(self):
        with pytest.raises(ChannelError, match="seed must be >= 0"):
            UniformRandom(seed=-1)

    def test_fixed_sequence_is_checked_before_any_draw(self, ref):
        spec = EtaInvolution(ref, EtaBounds(0.1, 0.1), FixedSequence((0.0, 0.5)))
        with pytest.raises(ChannelError, match=r"eta=0.5 outside \[-0.1, 0.1\]"):
            apply_channel(spec, make_signal(0, []))

    @pytest.mark.parametrize(
        "bad",
        # the last two lie one ulp beyond the 1e-15 slack that the bounds allow for rounding
        [math.nan, 0.5, -0.7, math.nextafter(0.1 + 1e-15, 1), math.nextafter(-0.1 - 1e-15, -1)],
    )
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_fixed_sequence_rejection_names_the_first_offender(self, bad, at):
        etas = [0.0, 0.1, -0.1, 0.05, 0.0]
        etas[at] = bad
        if at < 4:
            etas[4] = -0.9  # a second offender after the first
        with pytest.raises(ChannelError, match=rf"^eta={bad} outside \[-0.1, 0.1\]$"):
            EtaSource.starter(FixedSequence(tuple(etas)), EtaBounds(0.1, 0.1))

    @pytest.mark.parametrize(
        "etas",
        [(), (0.01,), (0.01, -0.02, 0.03), (0.01, -0.02, 0.03, -0.04, 0.05), (0.1 + 1e-15, -0.1 - 1e-15)],
    )
    @pytest.mark.parametrize("shared", [False, True])
    def test_fixed_sequence_draws(self, etas, shared):
        """The sequence, then zeros; a strategy shared by runs (as in ``run_spf_sweep``) restarts in each."""
        n = 3  # input transitions
        start = EtaSource.starter(FixedSequence(etas), EtaBounds(0.1, 0.1))
        if shared:  # an earlier run drew from the same starter
            earlier = start()
            for k in range(n):
                earlier.eta(k % 2)
        source = start()
        assert [source.eta(k % 2) for k in range(n)] == [*etas[:n], *[0.0] * (n - len(etas))]

    @pytest.mark.parametrize(
        "strategy",
        [Zero(), WorstCaseShrink(), UniformRandom(3), FixedSequence((0.01,)), FixedSequence(())],
    )
    def test_eta_source_is_freed_without_the_cycle_collector(self, strategy):
        source = EtaSource.starter(strategy, EtaBounds(0.05, 0.1))()
        source.eta(1)
        freed = weakref.ref(source)
        del source
        assert freed() is None

    def test_fixed_sequence_pads_with_zero(self, ref):
        spec = EtaInvolution(ref, EtaBounds(0.1, 0.1), FixedSequence((0.05,)))
        _, log = apply_channel(spec, pulse(0, 2.0))
        assert log[0].eta == 0.05 and log[1].eta == 0.0

    def test_uniform_random_is_seeded_and_bounded(self, ref):
        bounds = EtaBounds(0.08, 0.03)
        spec = EtaInvolution(ref, bounds, UniformRandom(seed=9))
        s = make_signal(0, [(float(i), (i + 1) % 2) for i in range(10)])
        _, log1 = apply_channel(spec, s)
        _, log2 = apply_channel(spec, s)
        assert [r.eta for r in log1] == [r.eta for r in log2]
        assert all(-0.08 <= r.eta <= 0.03 for r in log1)

    def test_eta_consumed_per_input_index_including_canceled(self, ref):
        etas = (0.01, -0.02, 0.03, -0.04)
        spec = EtaInvolution(ref, EtaBounds(0.1, 0.1), FixedSequence(etas))
        s = make_signal(0, [(0.0, 1), (0.1, 0), (3.0, 1), (6.0, 0)])
        _, log = apply_channel(spec, s)
        assert tuple(r.eta for r in log) == etas

    def test_worst_case_shrink_minimizes_next_up_time(self, ref):
        # generalized one-step map with free per-edge choices; the shrink-worst
        # choice must lower-bound 200 random draws
        bounds = EtaBounds(eta_minus=0.08, eta_plus=0.04)

        def next_up(d_prev, eta_r, eta_f):
            du = ref.up(-d_prev)
            return ref.down(d_prev - eta_r - du) + d_prev + eta_f - eta_r - du

        rng = np.random.default_rng(3)
        worst = f_map(ref, bounds, 0.4)
        assert worst == pytest.approx(next_up(0.4, 0.04, -0.08), abs=1e-12)
        for _ in range(200):
            eta_r = float(rng.uniform(-bounds.eta_minus, bounds.eta_plus))
            eta_f = float(rng.uniform(-bounds.eta_minus, bounds.eta_plus))
            assert next_up(0.4, eta_r, eta_f) >= worst - 1e-12


def test_eta_sequence_csv_roundtrip(tmp_path):
    path = tmp_path / "etas.csv"
    write_eta_sequence(path, [0.01, -0.02, 0.0])
    assert read_eta_sequence(path) == [0.01, -0.02, 0.0]


@pytest.mark.parametrize(
    "text, line",
    [("eta\n1,0.0\n", 1), ("n,eta\n1,0.0\n2,x\n", 3), ("n,eta\n1\n", 2), ("n,eta\n2,0.0\n", 2)],
    ids=["header", "value", "columns", "numbering"],
)
def test_malformed_eta_sequence_names_the_line(tmp_path, text, line):
    path = tmp_path / "etas.csv"
    path.write_text(text)
    with pytest.raises(ChannelError, match=f"line {line}:"):
        read_eta_sequence(path)


@pytest.mark.parametrize("seed", [0, 1, 51, 2**31 - 1])
@pytest.mark.parametrize("eta_minus, eta_plus", [(0.0, 0.0), (0.05, 0.1), (0.3, 0.0), (0.0, 0.2)])
def test_uniform_eta_stream_equals_scalar_draws(seed, eta_minus, eta_plus):
    # 3000 draws cross the boundaries between blocks after 1024 and 2048 draws
    n = 3000
    source = EtaSource.starter(UniformRandom(seed), EtaBounds(eta_minus, eta_plus))()
    got = [source.eta(k % 2) for k in range(n)]
    rng = np.random.default_rng(seed)
    expected = [float(rng.uniform(-eta_minus, eta_plus)) for _ in range(n)]
    assert [x.hex() for x in got] == [x.hex() for x in expected]


def test_sources_sharing_draws_across_threads_read_one_stream():
    # More threads than cores, with a short switch interval, start reading
    # one circuit's draws together, as concurrent runs of one circuit do; a
    # block drawn twice or out of order would give some source another stream.
    bounds, n, workers, rounds = EtaBounds(0.05, 0.1), 2100, 8, 100  # 2100 draws: blocks 0 to 2
    fresh = EtaSource.starter(UniformRandom(7), bounds)()
    want = [fresh.eta(k % 2) for k in range(n)]
    starters = [EtaSource.starter(UniformRandom(7), bounds) for _ in range(rounds)]
    go = threading.Barrier(workers)
    results = []

    def work():
        for start in starters:
            go.wait(timeout=60)
            source = start()
            results.append([source.eta(k % 2) for k in range(n)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == workers * rounds
    assert all(etas == want for etas in results)


_BIG = 2.0**53


@pytest.mark.parametrize(
    "time, out_time",
    [
        (1.5, 1.5),  # the output at the input time
        (1.5, math.nextafter(1.5, math.inf)),  # one ulp above it: a tie
        (1.5, 0.75),  # below it
        (0.0, 5e-324),  # one ulp below the output is 0.0: a tie with 0.0 and with -0.0
        (-0.0, 5e-324),
        (_BIG, _BIG + 2.0),  # the ulp above 2**53 is 2
        (_BIG - 1.0, _BIG),
        (_BIG, _BIG),
        (_BIG, _BIG + 4.0),
    ],
)
def test_decision_time_is_the_later_of_the_input_and_one_ulp_below_the_output(ref, time, out_time):
    state = state_constructor(Involution(ref))()
    got = state.decide_at(Record(1, time, 1, out_time))
    assert repr(got) == repr(max(time, math.nextafter(out_time, -math.inf)))


class TestAuditsAtEquality:
    """The involution state's audits at the boundary: an output exactly at the
    last committed one is a retro-cancel, one exactly at its input time is not
    before its decision."""

    def test_an_arrival_whose_output_equals_the_committed_output_raises(self, ref):
        # the second arrival lands at the first output, T = 0, and eta = -delta(0) gives it delay 0
        d0 = ref.down(0.0)
        state = state_constructor(EtaInvolution(ref, EtaBounds(d0, 0.0), FixedSequence((0.0, -d0))))()
        rec, _ = state.feed(0.0, 1)
        assert state.commit(rec)
        with pytest.raises(ChannelError) as exc_info:
            state.feed(rec.out_time, 0)
        u = rec.out_time
        assert str(exc_info.value) == f"arrival at t={u} would retro-cancel a committed output at {u}"

    def test_a_survivor_with_delay_zero_commits(self, ref):
        d_inf = ref.delta_inf_up
        state = state_constructor(EtaInvolution(ref, EtaBounds(d_inf, 0.0), FixedSequence((-d_inf,))))()
        rec, partner = state.feed(1.0, 1)
        assert partner is None and rec.out_time == rec.time == 1.0
        assert state.commit(rec)
        assert state.committed_last == 1.0
