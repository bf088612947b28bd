import math

import numpy as np
import pytest

from involution.delay_model import (
    DelayFunction,
    DelayModelError,
    DomainViolation,
    ExpChannelParams,
    InvalidParams,
    _pchip,
    check_involution,
    delta_min,
    derivative_down,
    derivative_up,
    exp_channel,
    read_delay_samples,
    tabulated_channel,
    write_delay_samples,
)
from involution.rootfind import NoBracket, bisect_root

import oracles


def random_params(rng):
    tau = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
    t_p = tau * float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
    vth = float(rng.uniform(0.1, 0.9))
    return ExpChannelParams(tau, t_p, vth)


def log_grid(df, n=200, safe=1e-10):
    """Log-spaced T grid from just inside the domain edge up to where 64-bit
    floats can still carry the identity.

    The composed residual grows like ulp(delta_inf) * exp((T + delta_inf)/tau)
    because the distance to the asymptote is squeezed out of the mantissa, so
    the grid is capped where that amplification reaches ``safe``; far beyond
    it the delay saturates exactly (see test_large_T_saturates).
    """
    tau = df.params.tau
    dinf = max(df.delta_inf_up, df.delta_inf_down)
    edge = -0.9 * min(df.delta_inf_up, df.delta_inf_down)
    ulp = float(np.spacing(dinf))
    t_max = min(100.0 * tau, tau * math.log(safe / ulp) - dinf)
    t_max = max(t_max, 2.0 * tau)
    offsets = np.logspace(-6, np.log10(t_max - edge), n)
    return edge + offsets


class TestExpChannel:
    def test_ref_asymptote(self, ref):
        assert ref.delta_inf_up == pytest.approx(0.5 + math.log(2), abs=1e-12)
        assert ref.delta_inf_down == ref.delta_inf_up  # symmetric threshold

    def test_ref_delta_min_point(self, ref):
        assert ref.up(-0.5) == pytest.approx(0.5, abs=1e-12)

    def test_ref_at_zero(self, ref):
        assert ref.up(0.0) == pytest.approx(oracles.REF_D_UP_AT_0, abs=1e-12)
        assert ref.up(0.0) == pytest.approx(oracles.ref_delay(0.0), abs=1e-15)

    def test_domain_guard_returns_neg_inf(self, ref):
        assert ref.up(-ref.delta_inf_down) == -math.inf
        assert ref.up(-ref.delta_inf_down - 1.0) == -math.inf

    def test_one_ulp_inside_the_domain_is_neg_inf_where_the_exponential_rounds_to_1(self):
        df = exp_channel(ExpChannelParams(2.4411016800340977, 0.21728129490157388, 0.0807739889154245))
        T = math.nextafter(-df.delta_inf_up, 0.0)
        assert math.exp(-(T + df.delta_inf_up) / df.params.tau) == 1.0
        assert df.down(T) == -math.inf

    def test_values_inside_the_domain_are_the_closed_form(self):
        # the rounding guard leaves every other value bit-identical
        rng = np.random.default_rng(7)
        for _ in range(200):
            df = exp_channel(random_params(rng))
            p = df.params
            for T in log_grid(df, n=20):
                T = float(T)
                assert df.up(T) == p.tau * math.log1p(-math.exp(-(T + df.delta_inf_down) / p.tau)) + df.delta_inf_up
                assert df.down(T) == p.tau * math.log1p(-math.exp(-(T + df.delta_inf_up) / p.tau)) + df.delta_inf_down

    def test_asymptote_at_infinite_T(self, ref):
        assert ref.up(math.inf) == ref.delta_inf_up

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            ExpChannelParams(0.0, 0.5, 0.5)
        with pytest.raises(InvalidParams):
            ExpChannelParams(1.0, -0.1, 0.5)
        with pytest.raises(InvalidParams):
            ExpChannelParams(1.0, 0.5, 1.0)

    @pytest.mark.parametrize("tau, t_p", [(math.inf, 0.5), (math.nan, 0.5), (1.0, math.inf), (1.0, math.nan)])
    def test_non_finite_params_rejected(self, tau, t_p):
        # non-finite parameters make the asymptotes and delays infinite or NaN
        with pytest.raises(InvalidParams, match="must be finite"):
            ExpChannelParams(tau, t_p, 0.5)


class TestInvolutionIdentity:
    def test_ref_grid(self, ref):
        res = check_involution(ref, [-0.4, 0.0, 1.0, 10.0], 1e-9)
        assert res.passed

    def test_pure_delay_pair_is_not_an_involution(self):
        d = 0.7
        df = DelayFunction(d, d, lambda T: d, lambda T: d)
        res = check_involution(df, [1.0, 2.0], tol=1e-9)
        # -down(T) = -d sits exactly on the declared domain edge of up, so the
        # composition collapses; constants are not involutions
        assert not res.passed
        assert res.max_residual > 1.0

    def test_tabulated_inverse_samples_pass(self, ref):
        # samples clustered toward the domain edge, where the delay is steep
        dinf = ref.delta_inf_down
        ts = -dinf + np.logspace(-4, np.log10(15 + dinf), 3000)
        down_samples = [(float(t), ref.down(float(t))) for t in ts]
        # the involution maps (T, d_down(T)) samples to d_up samples at -d_down(T)
        up_samples = [(-d, -t) for t, d in down_samples]
        df = tabulated_channel(up_samples, down_samples, ref.delta_inf_up, ref.delta_inf_down)
        grid = np.linspace(-0.9, 6.0, 50)
        res = check_involution(df, grid, 1e-6)
        assert res.passed, res

    def test_random_exp_channels(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(50):
            df = exp_channel(random_params(rng))
            res = check_involution(df, log_grid(df), 1e-9)
            worst = max(worst, res.max_residual)
            assert res.passed, (df.params, res)
        assert worst <= 1e-9

    def test_large_T_saturates(self, ref):
        # at 100 RC constants the distance to the asymptote is below 1 ulp
        assert ref.down(100.0) == ref.delta_inf_down

    def test_domain_violation_raised(self, ref):
        with pytest.raises(DomainViolation):
            check_involution(ref, [-ref.delta_inf_up], 1e-9)


class TestPchip:
    @staticmethod
    def random_table(rng):
        """3 to 160 strictly increasing (x, y) points, steps spread over five decades."""
        n = int(rng.integers(3, 161))
        xs = np.cumsum(10.0 ** rng.uniform(-3, 2, n)) + rng.uniform(-10, 10)
        ys = np.cumsum(10.0 ** rng.uniform(-3, 2, n)) + rng.uniform(-10, 10)
        assert np.all(np.diff(xs) > 0) and np.all(np.diff(ys) > 0)
        return [float(x) for x in xs], [float(y) for y in ys]

    def test_equals_scipy_bit_for_bit(self):
        rng = np.random.default_rng(1980)
        for _ in range(300):
            xs, ys = self.random_table(rng)
            interp, s0, s1 = _pchip(xs, ys)
            want, slope = oracles.scipy_pchip(xs, ys)
            for x in xs + [float(x) for x in rng.uniform(xs[0], xs[-1], 40)]:
                assert interp(x).hex() == float(want(x)).hex(), (xs, ys, x)
            assert s0.hex() == float(slope(xs[0])).hex()
            assert s1.hex() == float(slope(xs[-1])).hex()

    def test_tabulated_channel_extrapolates_with_the_end_slopes(self):
        xs, ys = [0.0, 1.0, 3.0, 3.5], [1.0, 1.5, 1.75, 2.0]
        _, s0, s1 = _pchip(xs, ys)
        df = tabulated_channel(list(zip(xs, ys)), list(zip(xs, ys)), math.inf, math.inf)
        assert df.up(-2.0) == 1.0 + s0 * -2.0 and df.down(5.0) == 2.0 + s1 * 1.5
        assert [df.up(x) for x in xs] == pytest.approx(ys, abs=1e-15)

    def test_a_flat_end_stays_flat_at_infinity(self, ref):
        # a coarse concave table: the end rule sets the last slope to 0, and the first
        # transition on an idle channel has T = inf, where 0 * inf used to give a NaN delay
        ts = [-0.9, -0.5, 0.0, 1.0, 3.0, 8.0]
        samples = [(t, ref.up(t)) for t in ts]
        assert _pchip(ts, [d for _, d in samples])[2] == 0.0
        df = tabulated_channel(samples, samples, ref.delta_inf_up, ref.delta_inf_down)
        assert df.up(math.inf) == df.up(100.0) == samples[-1][1]


class TestDeltaMin:
    def test_ref(self, ref):
        assert delta_min(ref) == pytest.approx(0.5, abs=1e-9)

    def test_other_params(self):
        df = exp_channel(ExpChannelParams(2.0, 0.3, 0.7))
        assert delta_min(df) == pytest.approx(0.3, abs=1e-9)

    def test_equals_t_p_for_random_params(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_params(rng)
            assert delta_min(exp_channel(p)) == pytest.approx(p.t_p, abs=1e-9)

    def test_exp_closed_form_is_exactly_t_p(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = random_params(rng)
            df = exp_channel(p)
            assert delta_min(df) == p.t_p
            assert df.up(-p.t_p) == pytest.approx(p.t_p, rel=1e-9)

    def test_down_agrees_at_root(self, ref):
        d = delta_min(ref)
        assert ref.down(-d) == pytest.approx(d, abs=1e-9)

    def test_rescaled_tabulated(self):
        # time rescale by 2: exp(2, 1.0, 0.7) sampled into a table; delta_min
        # doubles from the tau=1 parametrization
        src = exp_channel(ExpChannelParams(2.0, 1.0, 0.7))
        tu = -0.98 * src.delta_inf_down + np.logspace(-4, np.log10(16 + 0.98 * src.delta_inf_down), 1500)
        td = -0.98 * src.delta_inf_up + np.logspace(-4, np.log10(16 + 0.98 * src.delta_inf_up), 1500)
        up = [(float(t), src.up(float(t))) for t in tu]
        down = [(float(t), src.down(float(t))) for t in td]
        df = tabulated_channel(up, down, src.delta_inf_up, src.delta_inf_down)
        assert delta_min(df) == pytest.approx(1.0, abs=1e-6)

    def test_exp_rescale_equivariance(self):
        p = ExpChannelParams(0.7, 0.4, 0.3)
        assert delta_min(exp_channel(p.scaled(2.0))) == pytest.approx(2 * 0.4, abs=1e-9)

    def test_no_bracket_for_acausal(self):
        df = DelayFunction(1.0, 1.0, lambda T: -1.0, lambda T: -1.0)
        with pytest.raises(NoBracket):
            delta_min(df)


class TestDerivatives:
    def test_ref_at_zero(self, ref):
        assert derivative_up(ref, 0.0) == pytest.approx(oracles.REF_DERIV_AT_0, abs=1e-12)

    def test_reciprocal_identity_spot(self, ref):
        lhs = derivative_up(ref, -ref.down(1.0)) * derivative_down(ref, 1.0)
        assert lhs == pytest.approx(1.0, abs=1e-6)

    def test_reciprocal_identity_random(self, ref):
        rng = np.random.default_rng(11)
        for T in rng.uniform(-0.9, 10.0, 100):
            lhs = derivative_up(ref, -ref.down(float(T))) * derivative_down(ref, float(T))
            assert lhs == pytest.approx(1.0, abs=1e-6)

    def test_exp_closed_form_is_exact(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            p = random_params(rng)
            df = exp_channel(p)
            edge = -min(df.delta_inf_up, df.delta_inf_down)
            T = float(rng.uniform(0.999 * edge, 10.0 * p.tau))
            want = oracles.exp_derivatives(p.tau, p.t_p, p.vth_norm, T)
            assert (derivative_up(df, T), derivative_down(df, T)) == want

    def test_concavity_decreasing_derivative(self, ref):
        assert derivative_up(ref, 0.0) > derivative_up(ref, 1.0)

    def test_finite_difference_fallback_matches_analytic(self, ref):
        tab = DelayFunction(ref.delta_inf_up, ref.delta_inf_down, ref.up, ref.down)
        for T in (-0.4, 0.0, 1.0, 5.0):
            assert derivative_up(tab, T) == pytest.approx(derivative_up(ref, T), rel=1e-6)
            assert derivative_down(tab, T) == pytest.approx(derivative_down(ref, T), rel=1e-6)

    def test_domain_violation(self, ref):
        with pytest.raises(DomainViolation):
            derivative_up(ref, -ref.delta_inf_down)
        with pytest.raises(DomainViolation, match="delta_down domain"):
            derivative_down(ref, -ref.delta_inf_up)


class TestShapeInvariants:
    def test_monotone_and_concave_on_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            df = exp_channel(random_params(rng))
            ts = np.linspace(-0.9 * min(df.delta_inf_up, df.delta_inf_down), 8 * df.params.tau, 300)
            for f in (df.up, df.down):
                vals = np.array([f(float(t)) for t in ts])
                diffs = np.diff(vals)
                assert np.all(diffs > 0), "delay must be strictly increasing"
                assert np.all(np.diff(diffs) <= 1e-9), "delay must be concave"


def test_delay_sample_csv_roundtrip(tmp_path):
    samples = [(0.0, 0.8, 1), (1.0, 1.1, 0), (2.0, 1.15, 1), (2.0, 1.18, 0)]
    path = tmp_path / "samples.csv"
    write_delay_samples(path, samples)
    assert path.read_text().splitlines() == ["T,delta_up,delta_down", "0.0,0.8,", "1.0,,1.1", "2.0,1.15,", "2.0,,1.18"]
    assert read_delay_samples(path) == samples


def test_a_delay_sample_row_reads_as_one_sample_per_delay(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("T,delta_up,delta_down\n2.0,1.15,1.18\n0.0,0.8,\n1.0,,1.1\n")
    assert read_delay_samples(path) == [(2.0, 1.15, 1), (2.0, 1.18, 0), (0.0, 0.8, 1), (1.0, 1.1, 0)]


@pytest.mark.parametrize("row", ["0.5,abc,", "0.5,0.9", "x,0.9,1.0"])
def test_malformed_delay_sample_row_names_the_line(tmp_path, row):
    path = tmp_path / "samples.csv"
    path.write_text(f"T,delta_up,delta_down\n0.0,0.8,0.9\n{row}\n")
    with pytest.raises(DelayModelError, match="line 3:"):
        read_delay_samples(path)


def test_bisect_root_tolerance():
    root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0)
    assert root == pytest.approx(math.sqrt(2), abs=1e-11)
    with pytest.raises(NoBracket):
        bisect_root(lambda x: 1.0 + x * x, -1.0, 1.0)
    # an exact zero at an endpoint, or at the first midpoint, is returned as is
    assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0
    assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    assert bisect_root(lambda x: x - 1.0, 0.0, 2.0) == 1.0
    # a NaN at either edge has no sign to bracket with
    for lo_nan in (True, False):
        with pytest.raises(NoBracket, match="NaN at bracket edge"):
            bisect_root(lambda x: math.nan if (x < 0) == lo_nan else x, -1.0, 1.0)
