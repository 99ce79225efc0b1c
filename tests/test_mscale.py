import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssofr import MScaleConfig, ValidationError, m_scale, m_scale_info, tukey_loss, tukey_loss_norm
from ssofr.mscale import DEFAULT_MSCALE, _solve, _start, m_scale_columns


def bisect_root(f, lo, hi, iters=200):
    """1-D bisection oracle: f(lo) and f(hi) must bracket a sign change."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fixed_point_oracle(x, c=1.56, delta=0.5, tol=1e-13, max_iter=10_000):
    """The multiplicative fixed point sigma^2 <- sigma^2 mean(rho_norm) / delta
    from the normalized MAD start: linearly convergent, positive iterates.

    A linear iteration stopped at step tol is off by about tol r / (1 - r)
    at contraction rate r; at tol = 1e-10 that reached 1.3e-9 on Cauchy
    samples, so the oracle runs to 1e-13.
    """
    resid = x - np.median(x)
    sigma = 1.4826022185056018 * np.median(np.abs(resid))
    for _ in range(max_iter):
        new = sigma * np.sqrt(np.mean(tukey_loss_norm(resid / sigma, c)) / delta)
        if abs(new - sigma) <= tol * sigma:
            return new
        sigma = new
    raise AssertionError("oracle did not converge")


def equation_gap(x, sigma, config=DEFAULT_MSCALE):
    """|mean rho_norm((x - median) / sigma) - delta| at a returned scale."""
    u = (x - np.median(x)) / sigma
    return abs(float(np.mean(tukey_loss_norm(u, config.c))) - config.delta)


def heavy_tailed(seed, n, df):
    return np.random.default_rng(seed).standard_t(df, n)


class TestTukeyLoss:
    def test_zero(self):
        assert tukey_loss(0.0, 1.56) == 0.0

    def test_continuity_at_cutoff(self):
        c = 1.56
        assert tukey_loss(c, c) == pytest.approx(c**2 / 6, abs=1e-15)
        assert tukey_loss(-c, c) == pytest.approx(c**2 / 6, abs=1e-15)
        assert tukey_loss(c - 1e-9, c) == pytest.approx(c**2 / 6, abs=1e-8)

    def test_saturation(self):
        assert tukey_loss(10.0, 1.56) == pytest.approx(1.56**2 / 6)
        assert tukey_loss(10.0, 1.56) == pytest.approx(0.4056, abs=1e-10)

    def test_normalized_sup_is_one(self):
        assert tukey_loss_norm(100.0, 1.56) == pytest.approx(1.0)

    def test_rejects_bad_c(self):
        with pytest.raises(ValidationError):
            tukey_loss(1.0, -2.0)


class TestMScale:
    def test_constant_vector_degenerate(self):
        res = m_scale_info(np.full(10, 3.7))
        assert res.sigma == 0.0
        assert res.degenerate

    def test_two_point_sample_vs_bisection_oracle(self):
        # sigma solves rho_norm(1/sigma) = 1/2 for the sample {-1, +1}
        x = np.array([-1.0, 1.0])
        sigma = m_scale(x)
        oracle = 1.0 / bisect_root(
            lambda u: tukey_loss_norm(u, 1.56) - 0.5, 1e-6, 1.56
        )
        assert sigma == pytest.approx(oracle, abs=1e-8)

    def test_gaussian_consistency(self):
        draws = np.random.default_rng(12345).standard_normal(100_000)
        assert m_scale(draws) == pytest.approx(1.0, abs=0.02)

    def test_breakdown_under_contamination(self, rng):
        x = rng.standard_normal(101)
        clean = m_scale(x)
        y = x.copy()
        y[:30] = 1e9  # strictly fewer than n/2
        assert m_scale(y) < 10 * clean

    def test_iterate_gap_monotone_after_first_step(self, rng):
        x = rng.standard_normal(500) * 2.3 + 1.0
        res = m_scale_info(x)
        h = np.array(res.history)
        gaps = np.abs(np.diff(h))
        gaps = gaps[1:]
        assert np.all(np.diff(gaps) <= 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(-100, 100, allow_nan=False).filter(lambda v: abs(v) > 1e-6),
        b=st.floats(-100, 100, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_equivariance(self, a, b, seed):
        x = np.random.default_rng(seed).standard_normal(60)
        s = m_scale(x)
        assert m_scale(a * x) == pytest.approx(abs(a) * s, rel=1e-8, abs=1e-12)
        assert m_scale(x + b) == pytest.approx(s, rel=1e-8, abs=1e-12)

    def test_columnwise_matches_scalar(self, rng):
        x = rng.standard_normal((200, 7)) * np.linspace(0.5, 3.0, 7)
        cols = m_scale_columns(x)
        singles = np.array([m_scale(x[:, j]) for j in range(7)])
        assert np.abs(cols - singles).max() < 1e-13

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            MScaleConfig(delta=1.5)
        with pytest.raises(ValidationError):
            MScaleConfig(c=-1.0)

    def test_m_location_variant(self, rng):
        x = np.concatenate([rng.standard_normal(100), [50.0, 60.0]])
        cfg = MScaleConfig(location="m_location")
        assert m_scale(x, cfg) == pytest.approx(m_scale(x), rel=0.2)


class TestNewtonSolver:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(5, 400),
        df=st.sampled_from([1.0, 1.5, 3.0, 30.0]),
        scale=st.floats(1e-3, 1e3),
    )
    def test_matches_fixed_point_oracle(self, seed, n, df, scale):
        x = scale * heavy_tailed(seed, n, df)
        assert m_scale(x) == pytest.approx(fixed_point_oracle(x), rel=1e-9)

    def test_columns_match_fixed_point_oracle(self, rng):
        x = rng.standard_t(2.0, (300, 9)) * np.logspace(-2, 2, 9)
        oracle = np.array([fixed_point_oracle(col) for col in x.T])
        np.testing.assert_allclose(m_scale_columns(x), oracle, rtol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(5, 400),
        df=st.sampled_from([1.0, 1.5, 3.0, 30.0]),
    )
    def test_solves_equation_heavy_tailed(self, seed, n, df):
        x = heavy_tailed(seed, n, df)
        assert equation_gap(x, m_scale(x)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        half=st.integers(3, 100),
        delta=st.sampled_from([0.25, 0.4, 0.5]),
    )
    def test_solves_equation_with_ties(self, seed, half, delta):
        # (1 - delta) n values at the median: the most ties that are not
        # degenerate. Below delta = 0.5 they collapse the MAD, so the solver
        # starts from the root mean square.
        n = 2 * half
        n_tied = int(np.floor((1.0 - delta) * n))
        rest = np.abs(heavy_tailed(seed, n - n_tied, 3.0)) + 0.1
        signs = np.where(np.arange(rest.size) % 2 == 0, 1.0, -1.0)
        x = np.concatenate([np.zeros(n_tied), signs * rest])
        cfg = MScaleConfig(delta=delta)
        res = m_scale_info(x, cfg)
        assert not res.degenerate and res.sigma > 0
        assert equation_gap(x, res.sigma, cfg) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(5, 200))
    def test_saturated_start_falls_back_to_fixed_point(self, seed, n):
        # every nonzero residual beyond the cutoff: zero derivative, so the
        # first step cannot be a Newton step
        x = heavy_tailed(seed, n, 1.5)
        _, resid, degenerate, _ = _start(x[:, None], DEFAULT_MSCALE)
        assert not degenerate[0]
        r = np.abs(resid[resid != 0.0])
        start = r.min() / (10.0 * DEFAULT_MSCALE.c)
        assert np.all(r / start > DEFAULT_MSCALE.c)
        history = []
        solved, _ = _solve(resid, np.array([start]), DEFAULT_MSCALE, history)
        mean_rho = r.size / x.size  # rho_norm = 1 at every nonzero residual
        step = np.sqrt(mean_rho / DEFAULT_MSCALE.delta)
        assert history[1][0] == pytest.approx(step * start, rel=1e-15)
        assert equation_gap(x, solved[0]) <= 1e-12
        assert solved[0] == pytest.approx(m_scale(x), rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_few_iterations_on_gaussian_samples(self, seed):
        x = np.random.default_rng(seed).normal(0.0, 2.3, 500)
        assert m_scale_info(x).iterations <= 10
