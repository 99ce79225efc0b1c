import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ssofr.mscale
from ssofr import (
    BasisSpec, MScaleConfig, NonConvergenceError, SimSpec, ValidationError, m_scale,
    m_scale_info,
    project_curves, rfpc, simulate, tukey_loss, tukey_loss_norm,
)
from ssofr.mscale import (
    _BLOCK, DEFAULT_MSCALE, _solve, _start, m_scale_columns, m_scale_columns_below,
)

from conftest import (
    oracle_m_scale_columns, oracle_m_scale_info, oracle_start, vectorized_solve,
)


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


class TestTinyDelta:
    """Below delta ~ 1e-16, (1 - delta) n rounds to n; the degeneracy test
    reads the last sorted residual instead of one past it."""

    @pytest.mark.parametrize("delta", [1e-17, 1e-200])
    def test_columns_and_info_solve(self, delta):
        cfg = MScaleConfig(delta=delta)
        assert int(np.floor((1.0 - delta) * 50)) == 50
        x = np.random.default_rng(3).standard_normal((50, 3))
        x[:, 2] = 1.0
        cols = m_scale_columns(x, cfg)
        assert cols[2] == 0.0
        assert m_scale_info(x[:, 2], cfg).degenerate
        for j in range(2):
            # t = (r / (c sigma))^2 is ~delta, so the mean loss is 3 mean t
            q = ((x[:, j] - np.median(x[:, j])) / cfg.c) ** 2
            oracle = np.sqrt(3.0 * q.mean() / delta)
            res = m_scale_info(x[:, j], cfg)
            assert not res.degenerate
            assert res.sigma == cols[j] == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("delta", [0.01, 0.25, 0.5, 0.75, 0.99])
    @pytest.mark.parametrize("n", [2, 3, 7, 50, 301])
    def test_degenerate_flags_match_the_tie_count(self, n, delta):
        # 0 to n ties at 0 and distinct values elsewhere: the sorted-residual
        # index agrees with counting the values at the median
        cfg = MScaleConfig(delta=delta)
        spread = np.arange(1.0, n + 1.0) * np.where(np.arange(n) % 2, 1.0, -1.0)
        x = np.column_stack([np.r_[np.zeros(ties), spread[ties:]] for ties in range(n + 1)])
        _, degenerate, _ = oracle_start(x, cfg)
        np.testing.assert_array_equal(_start(x.T, cfg)[2], degenerate)


class TestExactlyDeltaNOffTheTies:
    """With exactly delta n residuals off a tie at the median, the mean loss
    equals delta on all of (0, sigma*], sigma* the smallest nonzero |r| / c:
    the M-scale is sigma*, reached at once."""

    @staticmethod
    def draw(seed, n=284, zeros=213):
        """zeros ties at 0 and t(3) values of alternating sign, which keep
        the median at 0, in random order."""
        rng = np.random.default_rng(seed)
        spread = np.abs(rng.standard_t(3.0, n - zeros))
        spread[1::2] *= -1.0
        return rng.permutation(np.r_[np.zeros(zeros), spread])

    def test_info_and_columns_return_the_interval_end(self):
        # n = 284 with 213 zeros at delta = 0.25: 14 of these 20 draws
        # used to creep toward sigma* and stop at the iteration cap
        # (NonConvergenceError)
        cfg = MScaleConfig(delta=0.25)
        x = np.column_stack([self.draw(seed) for seed in range(20)])
        ends = np.sort(np.abs(x), axis=0)[213] / cfg.c
        for j in range(x.shape[1]):
            res = m_scale_info(x[:, j], cfg)
            assert not res.degenerate and res.converged
            assert res.sigma == ends[j] and res.iterations == 1
            assert equation_gap(x[:, j], res.sigma, cfg) == 0.0
            assert equation_gap(x[:, j], 1.01 * res.sigma, cfg) > 0.0
        heavy = heavy_tailed(0, 284, 3.0)
        cols = m_scale_columns(np.column_stack([x, heavy]), cfg)
        np.testing.assert_array_equal(cols[:-1], ends)
        assert cols[-1] == m_scale(heavy, cfg)

    @pytest.mark.parametrize("n, delta", [(400, 0.5), (10, 0.5), (30, 0.4), (8, 0.75)])
    def test_other_fractions(self, n, delta):
        cfg = MScaleConfig(delta=delta)
        zeros = n - round(delta * n)
        x = self.draw(n, n, zeros)
        assert np.median(x) == 0.0
        res = m_scale_info(x, cfg)
        assert res.sigma == np.sort(np.abs(x))[zeros] / cfg.c
        assert equation_gap(x, res.sigma, cfg) == 0.0


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
        _, q, degenerate, _ = _start(x[None, :], DEFAULT_MSCALE)
        assert not degenerate[0]
        q_nz = q[q != 0.0]  # (|r| / c)^2 at the nonzero residuals r
        start = np.sqrt(q_nz.min()) / 10.0  # min |r| / (10 c)
        assert np.all(q_nz / start**2 > 1.0)
        history = []
        solved, _ = _solve(q, np.array([start]), DEFAULT_MSCALE, history)
        mean_rho = q_nz.size / x.size  # rho_norm = 1 at every nonzero residual
        step = np.sqrt(mean_rho / DEFAULT_MSCALE.delta)
        assert history[1][0] == pytest.approx(step * start, rel=1e-15)
        assert equation_gap(x, solved[0]) <= 1e-12
        assert solved[0] == pytest.approx(m_scale(x), rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_few_iterations_on_gaussian_samples(self, seed):
        x = np.random.default_rng(seed).normal(0.0, 2.3, 500)
        assert m_scale_info(x).iterations <= 10


def kernel_sample(seed, n, df, delta):
    """An n x 6 array of samples that take every path of the solver:
    heavy-tailed columns at three scales; ties at 0, as many as leave the
    root simple (beyond half the sample they collapse the MAD, so the start
    is the root mean square); one tie more than (1 - delta) n, and a
    constant, both degenerate.

    With exactly delta n values off the ties, the equation holds on a whole
    interval of sigma, whose end the solver meets where the mean loss has a
    third-order contact: there sigma is fixed only to about eps^(1/3) in
    either layout, and such samples are checked by the equation instead
    (`test_solves_equation_with_ties`).
    """
    rng = np.random.default_rng(seed)
    heavy = rng.standard_t(df, (n, 3)) * np.array([1e-3, 1.0, 1e3])
    spread = np.abs(rng.standard_t(3.0, n)) + 0.1
    spread[1::2] *= -1.0
    ties, over = spread.copy(), spread.copy()
    ties[:int(np.ceil((1.0 - delta) * n)) - 1] = 0.0
    over[:int(np.floor((1.0 - delta) * n)) + 1] = 0.0
    const = np.full(n, 2.5)
    return np.column_stack([heavy, rng.permutation(ties), rng.permutation(over), const])


class TestRowKernel:
    """The row-layout kernel against the column-layout oracle in conftest."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 300),
        df=st.sampled_from([1.0, 1.5, 3.0, 30.0]),
        delta=st.sampled_from([0.25, 0.5]),
    )
    @example(seed=0, n=2, df=1.5, delta=0.5)
    @example(seed=1, n=3, df=1.5, delta=0.5)
    @example(seed=2, n=4, df=1.5, delta=0.25)
    @example(seed=3, n=51, df=1.5, delta=0.25)
    @example(seed=4, n=52, df=1.5, delta=0.5)
    def test_matches_column_oracle(self, seed, n, df, delta):
        cfg = MScaleConfig(delta=delta)
        x = kernel_sample(seed, n, df, delta)
        oracle = oracle_m_scale_columns(x, cfg)
        np.testing.assert_allclose(m_scale_columns(x, cfg), oracle, rtol=1e-12, atol=0.0)
        for j in range(x.shape[1]):
            res = m_scale_info(x[:, j], cfg)
            sigma, iterations, degenerate = oracle_m_scale_info(x[:, j], cfg)
            assert res.degenerate == degenerate
            assert res.iterations == iterations
            assert res.sigma == pytest.approx(sigma, rel=1e-12, abs=0.0)
        assert oracle[-2] == oracle[-1] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 300),
        df=st.sampled_from([1.0, 1.5, 3.0, 30.0]),
    )
    def test_unit_order_invariance_is_exact(self, seed, n, df):
        x = kernel_sample(seed, n, df, 0.5)
        perm = np.random.default_rng(seed + 1).permutation(n)
        np.testing.assert_array_equal(m_scale_columns(x[perm]), m_scale_columns(x))
        for j in range(x.shape[1]):
            assert m_scale(x[perm, j]) == m_scale(x[:, j])


def candidate_rows(seed, n, m, df, delta):
    """m samples of n units in rfpc's row layout (a C-contiguous m x n
    array, one candidate per row): `kernel_sample`'s heavy-tailed, tied,
    degenerate and constant samples in turn."""
    cols = np.column_stack([kernel_sample(seed + k, n, df, delta) for k in range(-(-m // 6))])
    return np.ascontiguousarray(cols[:, :m].T)


class TestBatchIndependence:
    """A row's M-scale has the same bits whatever rows share its call: the
    blocks of `m_scale_columns` and the pre-check of rfpc's zoom batches,
    which solves only some rows of a batch, both rest on this."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 80),
        m=st.integers(1, 2 * _BLOCK + 10),
        df=st.sampled_from([1.0, 1.5, 3.0, 30.0]),
        delta=st.sampled_from([0.25, 0.5]),
        data=st.data(),
    )
    @example(seed=0, n=2, m=1, df=1.5, delta=0.5, data=None)
    def test_any_subset_order_and_block_size(self, seed, n, m, df, delta, data):
        cfg = MScaleConfig(delta=delta)
        rows = candidate_rows(seed, n, m, df, delta)
        whole = m_scale_columns(rows.T, cfg)
        if data is None:
            picked, block = [0], 1
        else:
            order = data.draw(st.permutations(range(m)))
            picked = order[:data.draw(st.integers(1, m))]
            block = data.draw(st.integers(1, m))
        got = np.concatenate([
            m_scale_columns(rows[picked[i:i + block]].T, cfg)
            for i in range(0, len(picked), block)
        ])
        np.testing.assert_array_equal(got.view(np.int64), whole[picked].view(np.int64))
        bound = float(np.median(whole))
        np.testing.assert_array_equal(
            m_scale_columns_below(rows[picked].T, bound, cfg),
            m_scale_columns_below(rows.T, bound, cfg)[picked],
        )


class TestBelowCheck:
    """`m_scale_columns_below` certifies a column only where the value that
    `m_scale_columns` returns lies below the bound."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 300),
        df=st.sampled_from([1.0, 1.5, 3.0, 30.0]),
        delta=st.sampled_from([0.25, 0.5]),
        rel=st.sampled_from([-1e-6, -1e-12, 0.0, 1e-12, 1e-9, 1e-8, 2e-8, 1e-6, 1.0]),
    )
    @example(seed=0, n=2, df=1.5, delta=0.5, rel=0.0)
    @example(seed=3, n=51, df=1.0, delta=0.25, rel=1e-8)
    def test_certified_columns_lie_below_the_bound(self, seed, n, df, delta, rel):
        cfg = MScaleConfig(delta=delta)
        x = kernel_sample(seed, n, df, delta)
        vals = m_scale_columns(x, cfg)
        for j, val in enumerate(vals):
            bound = val * (1.0 + rel) if val > 0.0 else 1e-300 + rel
            if m_scale_columns_below(x[:, [j]], bound, cfg)[0]:
                assert val < bound
        # never at the value itself; always, off the ties, at twice it
        for j in range(3):  # the heavy-tailed samples, continuous
            assert not m_scale_columns_below(x[:, [j]], vals[j], cfg)[0]
            assert m_scale_columns_below(x[:, [j]], 2.0 * vals[j], cfg)[0]

    def test_nothing_below_a_bound_of_zero_or_less(self):
        x = kernel_sample(7, 40, 3.0, 0.5)
        for bound in (0.0, -1.0, float("nan")):
            assert not m_scale_columns_below(x, bound).any()
        # a degenerate column's value is 0, below every positive bound
        assert m_scale_columns_below(x, 1e-300)[-1]


def solve_outcome(solve, q, sigma, cfg):
    """(sigma as int64 bits, iterations, history as int64 bits) of one
    solve, or the type of the error it raised."""
    history = []
    try:
        out, iterations = solve(q, sigma, cfg, history)
    except NonConvergenceError as exc:
        return type(exc)
    return out.view(np.int64).tolist(), iterations, [h.view(np.int64).tolist() for h in history]


class TestScalarStep:
    """The solver's per-row step on Python floats against the array step it
    replaced (`vectorized_solve` in conftest): the same bits."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 300),
        rows=st.integers(1, 24),
        df=st.sampled_from([1.0, 1.5, 3.0, 30.0]),
        delta=st.sampled_from([0.25, 0.5]),
        start=st.sampled_from([1.0, 1e-3, 1e3]),
    )
    @example(seed=5, n=400, rows=400, df=1.5, delta=0.5, start=1.0)
    def test_bit_identical_to_array_step(self, seed, n, rows, df, delta, start):
        # heavy-tailed columns at three scales and a tied one per sample;
        # a start far below or above the root takes fixed-point steps first
        cfg = MScaleConfig(delta=delta)
        x = np.column_stack([
            kernel_sample(seed + k, n, df, delta)[:, :4] for k in range(-(-rows // 4))
        ])[:, :rows]
        _, q, degenerate, sigma = _start(x.T, cfg)
        q, sigma = q[~degenerate], start * sigma[~degenerate]
        assert solve_outcome(_solve, q, sigma, cfg) == solve_outcome(
            vectorized_solve, q, sigma, cfg)


def bisection_scale(x, cfg):
    """The M-scale of one non-degenerate sample by bisection on sigma, to a
    relative bracket width of 1e-15. Below min |r| / (2c) every nonzero
    residual is past the cutoff, so the mean loss is at least delta; above
    1000 max |r| / c it is below 3e-6."""
    r = np.abs(x - np.median(x))
    lo, hi = r[r > 0.0].min() / (2.0 * cfg.c), 1e3 * r.max() / cfg.c
    while hi - lo > 1e-15 * lo:
        mid = 0.5 * (lo + hi)
        if np.mean(tukey_loss_norm(r / mid, cfg.c)) > cfg.delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStopRule:
    """A row stops right after the Newton step that its error model puts
    within 5e-13 of the root."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 300),
        df=st.sampled_from([1.0, 1.5, 3.0, 30.0]),
        delta=st.sampled_from([0.25, 0.5]),
    )
    @example(seed=0, n=2, df=1.5, delta=0.5)
    @example(seed=1, n=3, df=1.5, delta=0.5)
    @example(seed=2, n=4, df=1.5, delta=0.25)
    @example(seed=3, n=4, df=1.0, delta=0.5)
    def test_matches_bisection_oracle(self, seed, n, df, delta):
        cfg = MScaleConfig(delta=delta)
        x = kernel_sample(seed, n, df, delta)
        cols = m_scale_columns(x, cfg)
        for j in range(4):  # heavy-tailed at three scales, then tied
            oracle = bisection_scale(x[:, j], cfg)
            assert cols[j] == pytest.approx(oracle, rel=1e-12, abs=0.0)
            assert m_scale_info(x[:, j], cfg).sigma == pytest.approx(oracle, rel=1e-12, abs=0.0)
        assert cols[4] == cols[5] == 0.0

    def test_rfpc_takes_fewer_newton_steps(self, monkeypatch):
        # machine-independent work guard: on this draw a solver that took a
        # last step only to confirm convergence made 2,846 Newton steps over
        # rfpc's 711 calls, the stop rule 2,280. With the pre-check of the
        # zoom batches (`m_scale_columns_below`) 235 calls remain: the
        # 100-column candidate batches in blocks of 64 and 36, the start
        # values and lambdas, and the zoom rows that can beat the incumbent
        calls, steps = [], []
        solve = ssofr.mscale._solve

        def counted(*args, **kwargs):
            sigma, iterations = solve(*args, **kwargs)
            calls.append(sigma.size)
            steps.append(iterations)
            return sigma, iterations

        monkeypatch.setattr(ssofr.mscale, "_solve", counted)
        ds, _, _ = simulate(SimSpec(
            n=100, weights_scheme="inverse_distance", contamination_fraction=0.1,
            contamination_kind="leverage", seed=0,
        ))
        basis = BasisSpec().build(ds.grid)
        rfpc(project_curves(ds, basis), basis, 3)
        assert len(calls) == 235
        assert sum(calls) == 1129
        assert sum(steps) <= 0.32 * 2280
