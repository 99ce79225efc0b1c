import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, root
from scipy.special import ndtr
from scipy.stats import multivariate_normal

import ssofr.sar as sar
from ssofr import (
    MTuning,
    NonConvergenceError,
    NumericalError,
    SarDesign,
    SarParams,
    ValidationError,
    eta_ml,
    eta_robust,
    grid_contiguity,
    huber_psi,
    log_likelihood,
    m_fit,
    ml_fit,
    rho_tilde,
)
from ssofr.weights import _symmetrizer


def dense_rho_block(w, rho, y, wy, zt, sigma, tuning=MTuning()):
    """Oracle: the rho block of the robust equations with W (I - rho W)^{-1}
    applied by dense solves."""
    n = w.shape[0]
    a = np.eye(n) - rho * w
    psi3 = np.clip((y - rho * wy - zt) / sigma, -tuning.c3, tuning.c3)
    g_zt = w @ np.linalg.solve(a, zt)
    g_psi = w @ np.linalg.solve(a, psi3)
    trace = np.trace(w @ np.linalg.inv(a))
    return g_zt @ psi3 / sigma + g_psi @ psi3 - trace * rho_tilde(tuning.c3)


def make_design(seed=5, n_side=10, rho=0.3, sigma=0.8, K=2,
                theta=(1.0, 0.5, -0.3), kind="queen"):
    rng = np.random.default_rng(seed)
    w = grid_contiguity(n_side, n_side, kind)
    n = n_side * n_side
    Z = np.column_stack([np.ones(n), rng.standard_normal((n, K))])
    theta = np.asarray(theta, dtype=float)
    Y = np.linalg.solve(
        np.eye(n) - rho * w.w, Z @ theta + sigma * rng.standard_normal(n)
    )
    design = SarDesign(Y=Y, Z=Z, weights=w)
    params = SarParams(theta=theta, sigma=sigma, rho=rho)
    return design, params, w


class TestHuberPsi:
    def test_linear_zone(self):
        assert huber_psi(0.5, 1.4) == 0.5

    def test_saturation_and_oddness(self):
        assert huber_psi(3.0, 1.4) == 1.4
        assert huber_psi(-3.0, 1.4) == -1.4

    def test_large_cutoff_identity(self, rng):
        u = rng.standard_normal(100) * 100
        assert np.array_equal(huber_psi(u, 1e9), u)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValidationError):
            huber_psi(1.0, 0.0)


class TestRhoTilde:
    def test_limit_is_unit_variance(self):
        assert rho_tilde(1e9) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_cutoff(self):
        assert rho_tilde(1.4) < rho_tilde(2.4) < 1.0

    @pytest.mark.parametrize("c", [1.4, 1.65, 2.4])
    def test_monte_carlo_oracle(self, c):
        # oracle: 10^7-draw Monte Carlo of E[psi_c(U)^2]
        rng = np.random.default_rng(971)
        n = 10_000_000
        psisq = np.clip(rng.standard_normal(n), -c, c) ** 2
        mc, se = psisq.mean(), psisq.std(ddof=1) / np.sqrt(n)
        assert abs(rho_tilde(c) - mc) < 3 * se

    @staticmethod
    def with_scipy_ndtr(c):
        """The closed form with scipy's normal CDF in place of erfc."""
        phi_c = np.exp(-0.5 * c * c) / np.sqrt(2.0 * np.pi)
        Pi_c = float(ndtr(c))
        return 2.0 * c * c * (1.0 - Pi_c) - 2.0 * c * phi_c - 1.0 + 2.0 * Pi_c

    def test_tuning_defaults_match_scipy_bitwise(self):
        t = MTuning()
        for c in (t.c1, t.c2, t.c3):
            assert float(rho_tilde(c)).hex() == float(self.with_scipy_ndtr(c)).hex()

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(0.01, 10.0))
    def test_matches_scipy(self, c):
        assert rho_tilde(c) == pytest.approx(self.with_scipy_ndtr(c), rel=1e-13, abs=1e-15)


def recorded(f):
    """f, and the list of the points at which it is evaluated."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return g, xs


def brent_and_scipy(f, a, b, xtol):
    """(outcome, evaluated points) of `sar._brent` and of scipy's brentq at
    its default rtol and maxiter. The outcome is the root as int64 bits,
    "not converged" for the NonConvergenceError of the one and the
    RuntimeError of the other, or ValueError."""
    runs = []
    for solver in (lambda g: sar._brent(g, a, b, xtol), lambda g: brentq(g, a, b, xtol=xtol)):
        g, xs = recorded(f)
        try:
            out = np.float64(solver(g)).view(np.int64)
        except (NonConvergenceError, RuntimeError):
            out = "not converged"
        except ValueError:
            out = ValueError
        runs.append((out, xs))
    return runs


class TestBrent:
    """`sar._brent` against scipy's brentq, of which it is a port: the same
    root, to the bit, from the same evaluations."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["cubic", "tanh", "clipped", "step", "huge", "tiny"]),
        c=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        a=st.floats(-3.0, -1.01),
        b=st.floats(1.01, 3.0),
        log_xtol=st.floats(-14.0, 0.0),
    )
    # a wide xtol whose last steps compare the interpolation step with
    # 3 |sbis| - delta at |sbis| near delta
    @example(kind="cubic", c=[-0.8502530005934401, -0.8185556953469451, -0.3160847067314938],
             a=-2.274923374786984, b=2.8802911879889788, log_xtol=-0.6385)
    def test_matches_scipy(self, kind, c, a, b, log_xtol):
        # smooth roots, flat stretches and steps (where interpolation
        # divides by zero and bisects), and values that overflow or underflow
        f = {
            "cubic": lambda x: (x - c[0]) ** 3 + c[1] * (x - c[0]) + 0.1 * c[2],
            "tanh": lambda x: math.tanh(5.0 * (x - c[0])) + 0.01 * c[1],
            "clipped": lambda x: max(min(x - c[0], 0.1), -0.1 * (1.0 + c[1] ** 2)),
            "step": lambda x: -1.0 - c[1] ** 2 if x < c[0] else 1.0,
            "huge": lambda x: 1e300 * (x - c[0]) * (1.0 + abs(c[1])),
            "tiny": lambda x: 1e-320 * math.copysign(1.0, x - c[0]),
        }[kind]
        ours, theirs = brent_and_scipy(f, a, b, 10.0**log_xtol)
        assert ours == theirs

    @pytest.mark.parametrize("end", [0, 1])
    def test_exact_zero_at_an_end(self, end):
        ends = (-1.0, 2.0)
        ours, theirs = brent_and_scipy(lambda x: x - ends[end], *ends, 1e-12)
        assert ours == theirs
        assert ours[0] == np.float64(ends[end]).view(np.int64)
        assert ours[1] == list(ends)

    def test_same_sign_raises(self):
        ours, theirs = brent_and_scipy(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12)
        assert ours == theirs == (ValueError, [-1.0, 2.0])

    def test_step_cap(self):
        # bisection toward a step at 0 needs about 1000 halvings to reach
        # an xtol of 1e-300; both stop after 100 steps
        ours, theirs = brent_and_scipy(lambda x: -1.0 if x < 0.0 else 1.0, -1.0, 2.0, 1e-300)
        assert ours == theirs
        assert ours[0] == "not converged" and len(ours[1]) == 102

    def test_nan_raises_numerical_error(self):
        with pytest.raises(NumericalError, match="NaN"):
            sar._brent(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-12)


class TestLogLikelihood:
    def test_all_zero_case(self):
        _, _, w = make_design()
        n = w.n
        design = SarDesign(
            Y=np.zeros(n),
            Z=np.column_stack([np.ones(n), np.zeros((n, 0))]),
            weights=w,
        )
        p = SarParams(theta=np.zeros(1), sigma=1.0, rho=0.0)
        assert log_likelihood(p, design) == pytest.approx(-n / 2 * np.log(2 * np.pi))

    def test_rho_zero_is_ordinary_gaussian_regression(self):
        design, params, _ = make_design()
        p0 = SarParams(theta=params.theta, sigma=params.sigma, rho=0.0)
        r = design.Y - design.Z @ params.theta
        n = design.n
        expect = (
            -n / 2 * np.log(2 * np.pi)
            - n * np.log(params.sigma)
            - 0.5 * (r @ r) / params.sigma**2
        )
        assert log_likelihood(p0, design) == pytest.approx(expect, rel=1e-12)

    def test_matches_mvn_density_oracle(self):
        # oracle: direct evaluation of the reduced-form multivariate normal
        rng = np.random.default_rng(3)
        w = grid_contiguity(5, 6, "queen")
        n = 30
        Z = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        theta = np.array([1.0, 0.5, -0.3])
        rho, sigma = 0.3, 0.8
        a = np.eye(n) - rho * w.w
        Y = np.linalg.solve(a, Z @ theta + sigma * rng.standard_normal(n))
        design = SarDesign(Y=Y, Z=Z, weights=w)
        params = SarParams(theta=theta, sigma=sigma, rho=rho)
        mean = np.linalg.solve(a, Z @ theta)
        cov = sigma**2 * np.linalg.inv(a.T @ a)
        oracle = multivariate_normal.logpdf(Y, mean, cov)
        assert log_likelihood(params, design) == pytest.approx(oracle, abs=1e-8)

    def test_rho_outside_bounds(self):
        design, params, _ = make_design()
        with pytest.raises(NumericalError):
            log_likelihood(
                SarParams(theta=params.theta, sigma=1.0, rho=1.5), design
            )


class TestEtaMl:
    def test_matches_finite_difference_gradient(self):
        design, params, _ = make_design()
        rng = np.random.default_rng(17)
        for _ in range(10):
            theta = params.theta + 0.3 * rng.standard_normal(3)
            sigma = params.sigma * np.exp(0.2 * rng.standard_normal())
            rho = float(rng.uniform(-0.4, 0.7))
            p = SarParams(theta=theta, sigma=sigma, rho=rho)
            v0 = p.as_vector()
            grad = np.zeros_like(v0)
            h = 1e-6
            for i in range(v0.size):
                vp, vm = v0.copy(), v0.copy()
                vp[i] += h
                vm[i] -= h
                pp = SarParams(theta=vp[:-2], sigma=vp[-2], rho=vp[-1])
                pm = SarParams(theta=vm[:-2], sigma=vm[-2], rho=vm[-1])
                grad[i] = (log_likelihood(pp, design) - log_likelihood(pm, design)) / (2 * h)
            em = eta_ml(p, design)
            assert np.abs(em - grad).max() <= 1e-5 * max(1.0, np.abs(grad).max())


class TestMlFit:
    def test_noiseless_rho_zero_reduces_to_ols(self):
        rng = np.random.default_rng(8)
        w = grid_contiguity(8, 8, "queen")
        Z = np.column_stack([np.ones(64), rng.standard_normal((64, 2))])
        theta = np.array([2.0, 1.0, -1.0])
        Y = Z @ theta
        design = SarDesign(Y=Y, Z=Z, weights=w)
        fit = ml_fit(design)
        assert abs(fit.rho) < 1e-4
        ols, *_ = np.linalg.lstsq(Z, Y, rcond=None)
        assert np.abs(fit.theta - ols).max() < 1e-8

    def test_score_vanishes_at_optimum(self):
        design, _, _ = make_design()
        fit = ml_fit(design)
        assert fit.eta_norm < 1e-5 * design.n

    def test_profile_matches_grid_search_oracle(self):
        # oracle: brute-force profile maximization on a 1e-4 rho grid,
        # evaluated through the public log-likelihood
        design, _, w = make_design(seed=21)
        fit = ml_fit(design)
        lo, hi = w.rho_bounds
        grid = np.arange(lo + 1e-4, hi - 1e-4, 1e-4)
        Z, Y = design.Z, design.Y
        wy = w.w @ Y
        best_val, best_rho = -np.inf, None
        for rho in grid:
            yr = Y - rho * wy
            th, *_ = np.linalg.lstsq(Z, yr, rcond=None)
            rss = float(((yr - Z @ th) ** 2).sum())
            sig = np.sqrt(rss / design.n)
            val = log_likelihood(SarParams(theta=th, sigma=sig, rho=rho), design)
            if val > best_val:
                best_val, best_rho = val, rho
        assert abs(fit.rho - best_rho) <= 1e-4

    def test_monte_carlo_consistency(self):
        # data generated through the reduced form at rho = 0.3, n = 400
        w = grid_contiguity(20, 20, "queen")
        rng = np.random.default_rng(99)
        Z = np.column_stack([np.ones(400), rng.standard_normal((400, 2))])
        theta = np.array([5.0, 4.0, -2.5])
        a = np.eye(400) - 0.3 * w.w
        hits = 0
        reps = 100
        for _ in range(reps):
            Y = np.linalg.solve(a, Z @ theta + rng.standard_normal(400))
            fit = ml_fit(SarDesign(Y=Y, Z=Z, weights=w))
            hits += abs(fit.rho - 0.3) <= 0.05
        assert hits >= 0.9 * reps


class TestEtaRobust:
    def test_large_cutoff_reduction_to_ml(self):
        design, params, _ = make_design(seed=31)
        big = MTuning(c1=1e9, c2=1e9, c3=1e9)
        er = eta_robust(params, design, big)
        em = eta_ml(params, design)
        k = design.k
        assert np.abs(er[:k] - params.sigma * em[:k]).max() < 1e-8
        assert er[k] == pytest.approx(params.sigma * em[k], abs=1e-8)
        assert er[k + 1] == pytest.approx(em[k + 1], abs=1e-8)

    def test_zero_residual_values(self):
        rng = np.random.default_rng(4)
        w = grid_contiguity(6, 6, "queen")
        n = 36
        Z = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        theta = np.array([1.0, 0.5, -0.3])
        rho = 0.25
        Y = np.linalg.solve(np.eye(n) - rho * w.w, Z @ theta)
        design = SarDesign(Y=Y, Z=Z, weights=w)
        params = SarParams(theta=theta, sigma=1.0, rho=rho)
        t = MTuning()
        out = eta_robust(params, design, t)
        g = w.w @ np.linalg.inv(np.eye(n) - rho * w.w)
        assert np.abs(out[: design.k]).max() < 1e-10
        assert out[design.k] == pytest.approx(-n * rho_tilde(t.c2), rel=1e-12)
        assert out[design.k + 1] == pytest.approx(
            -np.trace(g) * rho_tilde(t.c3), rel=1e-10
        )

    def test_single_response_perturbation_bounded(self):
        design, params, w = make_design(seed=41)
        t = MTuning()
        base = eta_robust(params, design, t)
        y2 = design.Y.copy()
        y2[5] += 1e6
        pert = eta_robust(params, SarDesign(Y=y2, Z=design.Z, weights=w), t)
        # theta block: direct effect bounded by ||Z_5|| c1; indirect effects
        # enter through the other rows' residual shifts, all Huber-clipped
        z_norm_sum = np.abs(design.Z).sum(axis=0).max()
        bound = 2.0 * t.c1 * z_norm_sum
        assert np.abs(pert[: design.k] - base[: design.k]).max() <= bound
        n = design.n
        assert abs(pert[design.k] - base[design.k]) <= 2.0 * n * t.c2**2


def random_state(rng, w, scale=2.0):
    """Response, W Y, Z theta and sigma for evaluating the rho block."""
    y = scale * rng.standard_normal(w.n)
    return y, w.w @ y, rng.standard_normal(w.n), 0.7


class TestRhoBlockRoutes:
    """The spectral routes of `SpatialWeights` (logdet, trace_g and the rho
    block, whose solve is CG on the symmetrized system or dense LU) against
    dense oracles."""

    def test_defective_w_falls_back_to_dense(self):
        # nilpotent chain graph: W has no symmetrizer, so the rho block's
        # solve is dense LU
        from ssofr import from_matrix

        raw = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        w = from_matrix(raw, normalize=False)
        assert w._scaling is None
        rho = 0.4
        a = np.eye(3) - rho * w.w
        assert w.logdet(rho) == pytest.approx(np.linalg.slogdet(a)[1], abs=1e-12)
        assert w.trace_g(rho) == pytest.approx(
            np.trace(w.w @ np.linalg.inv(a)), abs=1e-12
        )
        y, zt = np.array([1.0, 2.0, 3.0]), np.array([0.5, -0.2, 0.1])
        wy = w.w @ y
        for sigma in (0.3, 2.0):
            for r in (rho, -0.7):
                got = sar._rho_block(w, r, y, wy, zt, sigma, MTuning())
                assert isinstance(got, float)
                assert got == pytest.approx(
                    dense_rho_block(w.w, r, y, wy, zt, sigma), abs=1e-12
                )

    @staticmethod
    def assert_rho_block_matches_dense(rng, w):
        for rho in (-0.5, 0.0, 0.3, 0.8):
            a = np.eye(w.n) - rho * w.w
            assert w.logdet(rho) == pytest.approx(np.linalg.slogdet(a)[1], abs=1e-10)
            assert w.trace_g(rho) == pytest.approx(
                np.trace(w.w @ np.linalg.inv(a)), abs=1e-9
            )
            y, wy, zt, sigma = random_state(rng, w)
            got = sar._rho_block(w, rho, y, wy, zt, sigma, MTuning())
            assert isinstance(got, float)
            assert got == pytest.approx(
                dense_rho_block(w.w, rho, y, wy, zt, sigma), abs=1e-9
            )

    def test_cg_route_matches_dense(self, rng):
        # a symmetric raw matrix, row-normalized: W has a symmetrizer
        from ssofr import row_normalize

        raw = rng.uniform(0, 1, (15, 15))
        w = row_normalize(raw + raw.T)
        assert w._scaling is not None
        self.assert_rho_block_matches_dense(rng, w)

    def test_lu_route_matches_dense(self, rng):
        # an asymmetric raw matrix, row-normalized: no symmetrizer
        from ssofr import row_normalize

        w = row_normalize(rng.uniform(0, 1, (15, 15)))
        assert w._scaling is None
        self.assert_rho_block_matches_dense(rng, w)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["cg", "lu"])
    def test_rho_outside_the_interval_is_refused(self, rng, symmetric):
        # I - rho W is singular at a bound (rho = 1 is a pole of the
        # resolvent of a row-normalized W): both sets of estimating
        # equations refuse each bound and any rho beyond it, as the
        # likelihood does, on fresh weights whose spectrum is still unknown
        from ssofr import row_normalize

        raw = rng.uniform(0, 1, (10, 10))
        if symmetric:
            raw = raw + raw.T
        y, z = rng.standard_normal(10), rng.standard_normal(10)
        lo, hi = row_normalize(raw).rho_bounds
        for rho in (lo, hi, lo - 0.1, hi + 0.1, 2.0 * lo, 2.0 * hi):
            for eta in (eta_ml, eta_robust):
                w = row_normalize(raw)
                assert (w._scaling is not None) == symmetric
                design = SarDesign(Y=y, Z=np.column_stack([np.ones(10), z]), weights=w)
                params = SarParams(theta=[0.5, 0.2], sigma=0.7, rho=rho)
                with pytest.raises(NumericalError, match="outside the admissible"):
                    eta(params, design)
        params = SarParams(theta=[0.5, 0.2], sigma=0.7, rho=0.5 * hi)
        for eta in (eta_ml, eta_robust):
            assert np.all(np.isfinite(eta(params, design)))


def theta_sigma_oracle(yr, Z, theta, sigma, tuning=MTuning()):
    """Oracle: theta and sigma that solve the first two blocks of the robust
    equations at fixed rho, Z' psi_{c1}(eps) = 0 and
    sum psi_{c2}(eps)^2 = n rho_tilde(c2) with eps = (yr - Z theta) / sigma,
    by a general nonlinear solver on sigma's logarithm."""
    n, k = Z.shape
    rt2 = rho_tilde(tuning.c2)

    def blocks(x):
        eps = (yr - Z @ x[:k]) / np.exp(x[k])
        psi2 = np.clip(eps, -tuning.c2, tuning.c2)
        return np.append(Z.T @ np.clip(eps, -tuning.c1, tuning.c1), psi2 @ psi2 - n * rt2)

    sol = root(blocks, np.append(theta, np.log(sigma)), method="lm", tol=1e-14)
    assert np.abs(blocks(sol.x)).max() <= 1e-12 * n
    return sol.x[:k], float(np.exp(sol.x[k]))


class TestThetaSigma:
    """The Newton theta/sigma solve at fixed rho against the general
    nonlinear solver of `theta_sigma_oracle`."""

    @staticmethod
    def contaminated(seed=61):
        design, params, w = make_design(seed=seed, n_side=12, rho=0.4, sigma=1.0)
        y = design.Y.copy()
        y[np.random.default_rng(8).choice(design.n, design.n // 10, replace=False)] += 20.0
        return y, design.Z, w, params

    @pytest.mark.parametrize("rho", [-0.6, 0.0, 0.2, 0.4, 0.7, 0.95])
    @pytest.mark.parametrize("sigma0", [1.0, 1e-6], ids=["start", "tiny-sigma"])
    def test_matches_oracle(self, rho, sigma0):
        # a start with sigma 1e-6 puts every residual outside the cutoffs:
        # the Jacobian is singular there and the safeguard's IRLS step runs
        y, Z, w, params = self.contaminated()
        yr = y - rho * (w.w @ y)
        tuning = MTuning()
        theta, sigma, steps, converged, singular = sar._theta_sigma(
            yr, Z, params.theta, sigma0, tuning, rho_tilde(tuning.c2)
        )
        assert converged and not singular
        assert steps <= 30
        ref_theta, ref_sigma = theta_sigma_oracle(yr, Z, params.theta, 1.0)
        assert np.abs(theta - ref_theta).max() <= 1e-9 * ref_sigma
        assert sigma == pytest.approx(ref_sigma, rel=1e-9)

    def test_inner_steps_per_fit(self, monkeypatch):
        # machine-independent work guard: the Newton steps of every
        # theta/sigma solve in one fit (57 when written; the Huber IRLS loop
        # it replaced took 159)
        calls = []
        solve = sar._theta_sigma

        def counted(*args, **kwargs):
            out = solve(*args, **kwargs)
            calls.append(out[2])
            return out

        monkeypatch.setattr(sar, "_theta_sigma", counted)
        fit = m_fit(make_design(seed=81)[0])
        assert fit.converged
        assert len(calls) == fit.iterations + 1
        assert sum(calls) <= 80


def patch_block(monkeypatch, b):
    """Replace the rho block by b(rho)."""
    monkeypatch.setattr(
        sar, "_rho_block", lambda weights, rho, *args, **kwargs: float(b(rho)),
    )


def forbidden(*args, **kwargs):
    raise AssertionError("this path must not run here")


def started_at(design, rho):
    """m_fit from the design's true theta and sigma and the given rho."""
    return m_fit(design, init=SarParams(theta=[1.0, 0.5, -0.3], sigma=0.8, rho=rho))


class TestProfiledRoot:
    """m_fit is the bracketed root of the profiled rho block g(rho) and
    ml_fit the root of the profile score."""

    @pytest.mark.parametrize("seed", [5, 13, 29])
    def test_root_of_dense_oracle_block(self, seed):
        design, _, w = make_design(seed=seed)
        fit = m_fit(design)
        assert fit.converged
        Y, Z = design.Y, design.Z
        wy = w.w @ Y

        def g(rho):
            theta, sigma = theta_sigma_oracle(Y - rho * wy, Z, fit.theta, fit.sigma)
            return dense_rho_block(w.w, rho, Y, wy, Z @ theta, sigma), theta, sigma

        g_hat, theta, sigma = g(fit.rho)
        assert np.abs(fit.theta - theta).max() <= 1e-8 * sigma
        assert fit.sigma == pytest.approx(sigma, rel=1e-8)
        assert g(fit.rho - 1e-8)[0] * g(fit.rho + 1e-8)[0] < 0.0
        assert abs(g_hat) <= 1e-6
        # started on its own root, where g is rounding noise
        refit = m_fit(design, init=fit.params)
        assert refit.converged
        assert refit.rho == pytest.approx(fit.rho, abs=1e-9)

    def test_multiple_roots_keep_the_nearest(self, monkeypatch):
        design, _, w = make_design()
        roots = (-0.4, 0.1, 0.6)
        lo, hi = w.rho_bounds
        assert lo < roots[0] and roots[-1] < hi
        patch_block(monkeypatch, lambda r: (r - roots[0]) * (r - roots[1]) * (r - roots[2]))
        for root_ in roots:
            for side in (-0.03, 0.03):
                fit = started_at(design, root_ + side)
                assert fit.converged
                assert fit.rho == pytest.approx(root_, abs=1e-10)

    def test_no_root_inside_the_bounds(self, monkeypatch):
        design, _, w = make_design()
        patch_block(monkeypatch, lambda r: (r - 0.2) ** 2 + 0.05)
        monkeypatch.setattr(sar, "_brent", forbidden)
        fit = started_at(design, 0.5)
        lo, hi = w.rho_bounds
        ends = (lo + 1e-8 * (hi - lo), hi - 1e-8 * (hi - lo))
        assert not fit.converged
        assert fit.boundary
        assert fit.events == ["rho block has no root inside the bounds"]
        assert fit.rho == pytest.approx(min(ends, key=lambda r: abs(r - 0.2)), abs=1e-12)

    def test_rho_block_evaluations_per_fit(self, monkeypatch):
        # machine-independent work guard: one rho block per evaluation of
        # g, and one more for the reported eta_norm
        design, _, _ = make_design(seed=81)
        calls = []
        block = sar._rho_block

        def counted(*args, **kwargs):
            calls.append(args[1])
            return block(*args, **kwargs)

        monkeypatch.setattr(sar, "_rho_block", counted)
        fit = m_fit(design)
        assert fit.converged
        assert calls[-1] == fit.rho
        assert len(calls) == fit.iterations + 1
        assert fit.iterations <= 18

    def test_ml_maximum_at_the_bound(self, monkeypatch):
        # Y on the eigenvector of W's smallest eigenvalue: (I - rho W) Y
        # vanishes at the lower bound, where the profile grows without limit
        # (W = D^{-1/2} S D^{1/2} with symmetric S, so S's eigenvector u
        # gives W's as u / sqrt(d))
        _, _, w = make_design()
        s = np.sqrt(_symmetrizer(w)[0])
        lam, U = np.linalg.eigh(w.w * s[:, None] / s)
        rng = np.random.default_rng(3)
        Z = np.column_stack([np.ones(w.n), rng.standard_normal((w.n, 2))])
        design = SarDesign(Y=U[:, np.argmin(lam)] / s, Z=Z, weights=w)
        monkeypatch.setattr(sar, "_brent", forbidden)
        fit = ml_fit(design)
        lo, hi = w.rho_bounds
        assert fit.rho == lo + 1e-8 * (hi - lo)
        assert fit.boundary
        assert "rho at interval boundary" in fit.events

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_converges_on_small_inverse_distance_designs(self, seed):
        # fpc + M with 10% leverage curves; the earlier outer fixed point
        # stopped after 100 iterations without converging on these
        from ssofr import BasisSpec, SimSpec, fit, simulate

        spec = SimSpec(n=100, weights_scheme="inverse_distance",
                       contamination_fraction=0.1, contamination_kind="leverage", seed=seed)
        dataset, weights, _ = simulate(spec)
        info = fit(dataset, weights, BasisSpec(kind="bspline", M=15), "fpc", 3, "m").fit_info
        assert info.converged
        assert info.eta_norm <= 1e-8

    @settings(max_examples=10, deadline=None)
    @given(perm=st.permutations(range(144)))
    def test_unit_permutation(self, perm):
        from ssofr import from_matrix

        perm = np.array(perm)
        design, _, w = make_design(seed=5, n_side=12)
        permuted = SarDesign(
            Y=design.Y[perm], Z=design.Z[perm],
            weights=from_matrix(w.w[np.ix_(perm, perm)], normalize=False),
        )
        for estimator in (ml_fit, m_fit):
            base, other = estimator(design), estimator(permuted)
            assert np.abs(other.params.as_vector() - base.params.as_vector()).max() <= 1e-10
            assert other.iterations == base.iterations
            assert other.converged == base.converged


class TestEigenWork:
    """Machine-independent work guard: eigendecompositions of W per fit
    (`eig_calls` in conftest.py)."""

    @staticmethod
    def asymmetric_design(seed=81, n=60):
        # a dense row-normalized W with no symmetrizer: the general route
        from ssofr import from_matrix

        rng = np.random.default_rng(seed)
        w = from_matrix(rng.uniform(0.0, 1.0, (n, n)))
        Z = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        Y = w.reduced_form(0.3, Z @ np.array([1.0, 0.5, -0.3]) + rng.standard_normal(n))
        return SarDesign(Y=Y, Z=Z, weights=w)

    def test_building_weights_makes_no_eigendecomposition(self, eig_calls):
        from ssofr import from_matrix, inverse_distance_weights
        from ssofr.weights import check_rho

        rng = np.random.default_rng(3)
        built = [
            grid_contiguity(6, 6, "rook"),
            inverse_distance_weights(rng.uniform(-5, 5, 20), rng.uniform(-5, 5, 20)),
            from_matrix(rng.uniform(0.0, 1.0, (8, 8)), normalize=False),
        ]
        for w in built:
            check_rho(0.1 / np.abs(w.w).sum(axis=1).max(), w)
        assert eig_calls == []

    def test_ml_fit_reads_the_eigenvalues_of_the_weights(self, eig_calls):
        design, _, _ = make_design(seed=81)
        assert eig_calls == []
        ml_fit(design)
        assert eig_calls == ["eigvalsh"]
        ml_fit(design)
        assert eig_calls == ["eigvalsh"]

    def test_m_fit_makes_one_eigvalsh(self, eig_calls):
        # the rho block solves by CG and reads only the eigenvalues
        design, _, _ = make_design(seed=81)
        m_fit(design)
        assert eig_calls == ["eigvalsh"]
        m_fit(design)
        assert eig_calls == ["eigvalsh"]

    def test_bipartite_w_takes_the_singular_values(self, eig_calls):
        # the rook W is bipartite: its spectrum is read from one SVD of the
        # off-diagonal block of S, by ML and M alike
        design, _, _ = make_design(seed=81, kind="rook")
        ml_fit(design)
        assert eig_calls == ["svd"]
        m_fit(design)
        assert eig_calls == ["svd"]
        design, _, _ = make_design(seed=81, kind="rook")
        m_fit(design)
        ml_fit(design)
        assert eig_calls == ["svd", "svd"]

    def test_asymmetric_w_takes_the_general_route(self, eig_calls):
        # general eigenvalues, and no symmetrizer: the rho block is a dense
        # LU solve per rho
        design = self.asymmetric_design()
        assert eig_calls == []
        ml_fit(design)
        assert eig_calls == ["eigvals"]
        m_fit(design)
        m_fit(design)
        assert eig_calls == ["eigvals"]


class TestMFit:
    def test_clean_agreement_with_ml(self):
        w = grid_contiguity(20, 20, "queen")
        rng = np.random.default_rng(55)
        Z = np.column_stack([np.ones(400), rng.standard_normal((400, 3))])
        theta = np.array([1.0, 0.8, -0.5, 0.3])
        Y = np.linalg.solve(
            np.eye(400) - 0.4 * w.w, Z @ theta + rng.standard_normal(400)
        )
        design = SarDesign(Y=Y, Z=Z, weights=w)
        ml, mf = ml_fit(design), m_fit(design)
        assert abs(ml.rho - mf.rho) < 0.02
        assert np.linalg.norm(mf.theta - ml.theta) / np.linalg.norm(ml.theta) < 0.05

    def test_vertical_outliers_shrink_scale(self):
        design, params, w = make_design(seed=61, n_side=12, rho=0.4, sigma=1.0)
        rng = np.random.default_rng(8)
        y2 = design.Y.copy()
        idx = rng.choice(design.n, design.n // 10, replace=False)
        y2[idx] += 20.0 * params.sigma
        contaminated = SarDesign(Y=y2, Z=design.Z, weights=w)
        ml, mf = ml_fit(contaminated), m_fit(contaminated)
        assert mf.sigma <= ml.sigma / 3.0

    def test_huge_cutoffs_recover_ml(self):
        design, _, _ = make_design(seed=71)
        ml = ml_fit(design)
        mf = m_fit(design, MTuning(c1=1e6, c2=1e6, c3=1e6))
        assert np.abs(mf.params.as_vector() - ml.params.as_vector()).max() < 1e-4

    def test_fixed_point_idempotent(self):
        design, _, _ = make_design(seed=81)
        t = MTuning()
        fit1 = m_fit(design, t)
        assert fit1.converged
        fit2 = m_fit(design, t, init=fit1.params)
        assert (
            np.linalg.norm(fit2.params.as_vector() - fit1.params.as_vector())
            < sar._STEP_TOL
        )

    @settings(max_examples=12, deadline=None)
    @given(log10_c=st.floats(-4.0, 4.0))
    def test_scale_equivariance(self, log10_c):
        # the stop rule measures the theta and sigma steps in units of sigma,
        # so a rescaled response takes the same path to the same estimates
        c = 10.0**log10_c
        design, _, w = make_design(seed=61, n_side=12, rho=0.4, sigma=1.0)
        y = design.Y.copy()
        y[np.random.default_rng(8).choice(design.n, design.n // 10, replace=False)] += 20.0
        base = m_fit(SarDesign(Y=y, Z=design.Z, weights=w))
        scaled = m_fit(SarDesign(Y=c * y, Z=design.Z, weights=w))
        assert scaled.iterations == base.iterations
        assert scaled.converged == base.converged
        assert scaled.rho == pytest.approx(base.rho, abs=1e-8)
        assert scaled.sigma / c == pytest.approx(base.sigma, rel=1e-8)
        assert np.allclose(scaled.theta / c, base.theta, rtol=1e-8, atol=0.0)

    def test_fit_keeps_no_weights_alive(self):
        # neither fit may leave a reference cycle holding the weights: W and
        # its spectrum would live until the next garbage collection
        for estimator in (m_fit, ml_fit):
            design, _, w = make_design(seed=81)
            w.eigvals
            ref = weakref.ref(w)
            gc.disable()
            try:
                estimator(design)
                del design, w
                assert ref() is None, estimator.__name__
            finally:
                gc.enable()

    def test_rho_strictly_inside_bounds(self):
        design, _, w = make_design(seed=91)
        fit = m_fit(design)
        lo, hi = w.rho_bounds
        assert lo < fit.rho < hi
        a = np.eye(design.n) - fit.rho * w.w
        assert np.isfinite(np.linalg.cond(a))

    def test_bounded_influence_sweep(self):
        # the robust estimate stabilizes as one response grows; ML diverges
        design, _, w = make_design(seed=9, n_side=10)
        base_ml = ml_fit(design).params.as_vector()
        results_m, results_ml = [], []
        for delta in (1e2, 1e4, 1e6):
            y2 = design.Y.copy()
            y2[3] += delta
            d2 = SarDesign(Y=y2, Z=design.Z, weights=w)
            results_m.append(m_fit(d2).params.as_vector())
            results_ml.append(ml_fit(d2).params.as_vector())
        step_m = np.linalg.norm(results_m[2] - results_m[1])
        assert step_m < 1e-3
        dev_ml = [np.linalg.norm(r - base_ml) for r in results_ml]
        assert dev_ml[1] > 10 * dev_ml[0]
        assert dev_ml[2] > 10 * dev_ml[1]

    def test_scale_calibration_on_standard_normal_residuals(self):
        rng = np.random.default_rng(7)
        eps = rng.standard_normal(100_000)
        for c in (1.4, 2.4):
            psisq = np.clip(eps, -c, c) ** 2
            assert psisq.mean() == pytest.approx(rho_tilde(c), abs=3 * psisq.std() / np.sqrt(eps.size))
