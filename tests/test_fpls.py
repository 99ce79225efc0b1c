import numpy as np
import pytest

from ssofr import (
    BasisSpec,
    HampelConfig,
    SimSpec,
    ValidationError,
    build_basis,
    fpls,
    hampel_weight,
    pls_regression_coefficients,
    rfpls,
    simulate,
)
from ssofr.functional import CoefficientMatrix, project_curves

from conftest import subspace_angle_deg


@pytest.fixture(scope="module")
def basis():
    return build_basis("fourier", 7, np.linspace(0, 1, 101))


def nipals_oracle(d, y, K):
    """Textbook PLS1 NIPALS with deflation of both blocks (data pre-centered)."""
    d = d - d.mean(axis=0)
    y = y - y.mean()
    ws, ts = [], []
    for _ in range(K):
        w = d.T @ y
        w = w / np.linalg.norm(w)
        t = d @ w
        p = d.T @ t / (t @ t)
        q = (y @ t) / (t @ t)
        d = d - np.outer(t, p)
        y = y - q * t
        ws.append(w)
        ts.append(t)
    return np.column_stack(ws), np.column_stack(ts)


def linear_sample(seed, n=150, sigma=0.5, bscale=1.0, basis=None):
    rng = np.random.default_rng(seed)
    sd = np.array([2.0, 1.5, 1.0, 0.7, 0.5, 0.3, 0.2])
    a = rng.standard_normal((n, 7)) * sd
    b_true = bscale * np.array([1.0, -0.8, 0.5, 0.0, 0.0, 0.0, 0.0])
    y = 1.0 + a @ basis.gram @ b_true + sigma * rng.standard_normal(n)
    return rng, a, b_true, y


class TestHampelWeight:
    def test_plateau_and_descent(self):
        cfg = HampelConfig()
        assert hampel_weight(0.0, cfg) == 1.0
        assert hampel_weight(cfg.a, cfg) == 1.0
        assert hampel_weight(cfg.b, cfg) == pytest.approx(cfg.a / cfg.b)
        assert hampel_weight(cfg.q + 1e-9, cfg) == 0.0
        assert hampel_weight(100.0, cfg) == 0.0

    def test_cutoff_ordering_enforced(self):
        with pytest.raises(ValidationError):
            HampelConfig(a=2.0, b=1.0, q=3.0)

    def test_default_cutoffs_are_normal_quantiles(self):
        # oracle: scipy's inverse normal CDF at 0.95, 0.975 and 0.999
        from scipy.special import ndtri

        cfg = HampelConfig()
        assert (cfg.a, cfg.b, cfg.q) == tuple(float(ndtri(p)) for p in (0.95, 0.975, 0.999))


class TestFpls:
    def test_single_direction_noiseless(self, basis, rng):
        a = rng.standard_normal((60, 7))
        g = np.array([1.0, 2.0, 0.0, 0.0, -1.0, 0.0, 0.5])
        y = a @ basis.gram @ g
        dec = fpls(CoefficientMatrix(a), basis, y, 1)
        state = dec.pls_state
        resid = (y - y.mean()) - state.loadings_q[0] * state.components[:, 0]
        # one component captures a one-direction signal only when the signal
        # is the first PLS direction; for generic g use full rank instead
        dec_full = fpls(CoefficientMatrix(a), basis, y, 7)
        _, beta = pls_regression_coefficients(dec_full, y)
        pred = dec_full.pls_state.y_center + (a - dec_full.center) @ basis.gram @ beta
        assert np.abs(pred - y).max() < 1e-8

    def test_rank_one_signal_single_component_exact(self, basis, rng):
        # curves vary along one direction only: K=1 gives a zero residual
        c = rng.standard_normal(50)
        coef = np.outer(c, np.array([1.0, 0.5, 0, 0, 0, 0, 0]))
        y = 2.0 + 3.0 * c
        dec = fpls(CoefficientMatrix(coef), basis, y, 1)
        gamma, beta = pls_regression_coefficients(dec, y)
        pred = dec.pls_state.y_center + dec.scores @ gamma
        assert np.abs(pred - y).max() < 1e-8

    def test_matches_nipals_oracle(self, basis):
        rng = np.random.default_rng(77)
        a = rng.standard_normal((60, 7))
        y = a @ rng.standard_normal(7) + 0.2 * rng.standard_normal(60)
        dec = fpls(CoefficientMatrix(a), basis, y, 3)
        d = (a - a.mean(axis=0)) @ basis.gram_sqrt
        w_o, t_o = nipals_oracle(d, y, 3)
        t = dec.pls_state.components
        sign = np.sign(np.sum(t * t_o, axis=0))
        assert np.abs(t - t_o * sign).max() < 1e-8
        assert np.abs(dec.pls_state.directions - w_o * sign).max() < 1e-8

    def test_identity_gram_equals_multivariate_pls(self, rng):
        # Fourier basis on a fine grid: Gram is the identity to quadrature
        # precision, so the method reduces to PLS directly on the coefficients
        fine = build_basis("fourier", 5, np.linspace(0, 1, 2001))
        a = rng.standard_normal((40, 5))
        y = a @ np.array([1.0, -1.0, 0.5, 0.0, 0.2]) + 0.1 * rng.standard_normal(40)
        dec = fpls(CoefficientMatrix(a), fine, y, 2)
        w_o, t_o = nipals_oracle(a, y, 2)
        sign = np.sign(np.sum(dec.pls_state.directions * w_o, axis=0))
        assert np.abs(dec.pls_state.directions - w_o * sign).max() < 1e-9

    def test_component_orthogonality(self, basis):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((80, 7))
        y = a @ rng.standard_normal(7) + rng.standard_normal(80)
        dec = fpls(CoefficientMatrix(a), basis, y, 4)
        t = dec.pls_state.components
        g = t.T @ t
        assert np.abs(g - np.diag(np.diag(g))).max() < 1e-8

    def test_rank_deficient_data_truncates_with_flag(self, basis, rng):
        c = rng.standard_normal(40)
        coef = np.outer(c, np.array([1.0, 0.5, 0, 0, 0, 0, 0]))
        y = 3.0 * c + 0.01 * rng.standard_normal(40)
        dec = fpls(CoefficientMatrix(coef), basis, y, 4)
        assert dec.truncated
        assert dec.K < 4

    def test_direction_orthonormality(self, basis):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((80, 7))
        y = a @ rng.standard_normal(7)
        dec = fpls(CoefficientMatrix(a), basis, y, 4)
        assert np.abs(dec.phi.T @ basis.gram @ dec.phi - np.eye(4)).max() < 1e-6


class TestRfpls:
    def test_unit_weights_equal_classical(self, basis):
        _, a, _, y = linear_sample(1, basis=basis)
        cm = CoefficientMatrix(a)
        huge = HampelConfig(a=1e9, b=2e9, q=3e9)
        dec_r = rfpls(cm, basis, y, 3, huge)
        dec_f = fpls(cm, basis, y, 3)
        assert np.abs(dec_r.pls_state.directions - dec_f.pls_state.directions).max() < 1e-8
        assert np.abs(dec_r.scores - dec_f.scores).max() < 1e-8

    def test_vertical_outlier_ab(self, basis):
        # fixture piloted at seed 105: contaminated classical direction swings
        # far from the clean one, the reweighted direction stays put
        rng, a, b_true, y = linear_sample(105, sigma=1.5, bscale=0.5, basis=basis)
        cm = CoefficientMatrix(a)
        _, beta_clean = pls_regression_coefficients(fpls(cm, basis, y, 2), y)
        y2 = y.copy()
        idx = rng.choice(150, 15, replace=False)
        y2[idx] += 20.0 * 1.5
        _, beta_f = pls_regression_coefficients(fpls(cm, basis, y2, 2), y2)
        dec_r = rfpls(cm, basis, y2, 2)
        _, beta_r = pls_regression_coefficients(dec_r, y2)
        assert subspace_angle_deg(beta_f, beta_clean, basis.gram) > 20.0
        assert subspace_angle_deg(beta_r, beta_clean, basis.gram) < 5.0

    def test_leverage_curve_downweighted(self, basis):
        rng, a, b_true, y = linear_sample(42, basis=basis)
        a = a.copy()
        a[7] *= 50.0
        dec = rfpls(CoefficientMatrix(a), basis, y, 2)
        assert dec.pls_state.weights[7] < 0.05

    def test_clean_weights_near_one(self, basis):
        _, a, _, y = linear_sample(3, basis=basis)
        dec = rfpls(CoefficientMatrix(a), basis, y, 2)
        w = dec.pls_state.weights
        assert np.all((w >= 0.0) & (w <= 1.0))
        assert w.mean() > 0.9

    def test_weighted_component_orthogonality(self, basis):
        _, a, _, y = linear_sample(4, basis=basis)
        dec = rfpls(CoefficientMatrix(a), basis, y, 3)
        t = dec.pls_state.components  # from the sqrt-weighted data
        g = t.T @ t
        assert np.abs(g - np.diag(np.diag(g))).max() < 1e-8

    @pytest.mark.parametrize("seed, kind", [(366, "vertical"), (6, "leverage")])
    def test_unsettled_reweighting_ignores_unit_order(self, seed, kind):
        # draws whose Hampel weights never settle: the first wanders and
        # amplifies rounding, the second cycles with period 6
        ds, _, _ = simulate(SimSpec(
            n=144, weights_scheme="queen", grid_shape=(12, 12), seed=seed,
            contamination_fraction=0.1, contamination_kind=kind,
        ))
        basis = BasisSpec().build(ds.grid)
        a = project_curves(ds, basis).coeffs
        perm = np.random.default_rng(0).permutation(ds.n)
        base = rfpls(CoefficientMatrix(a), basis, ds.response, 3)
        other = rfpls(CoefficientMatrix(a[perm]), basis, ds.response[perm], 3)
        assert not base.pls_state.converged
        assert other.pls_state.iterations == base.pls_state.iterations
        np.testing.assert_array_equal(other.pls_state.directions, base.pls_state.directions)
        np.testing.assert_array_equal(other.center, base.center)
        np.testing.assert_array_equal(other.pls_state.weights, base.pls_state.weights[perm])
        np.testing.assert_array_equal(other.pls_state.components,
                                      base.pls_state.components[perm])
        np.testing.assert_allclose(other.scores, base.scores[perm], rtol=0, atol=1e-12)


class TestRegressionCoefficients:
    def test_full_rank_noiseless_recovery(self, basis, rng):
        a = rng.standard_normal((60, 7))
        b_true = rng.standard_normal(7)
        y = 2.0 + a @ basis.gram @ b_true
        dec = fpls(CoefficientMatrix(a), basis, y, 7)
        _, beta = pls_regression_coefficients(dec, y)
        num = (beta - b_true) @ basis.gram @ (beta - b_true)
        den = b_true @ basis.gram @ b_true
        assert np.sqrt(num / den) < 1e-6

    def test_constant_response(self, basis, rng):
        a = rng.standard_normal((30, 7))
        y = np.full(30, 5.0)
        dec = fpls(CoefficientMatrix(a), basis, y + 1e-9 * rng.standard_normal(30), 2)
        gamma, beta = pls_regression_coefficients(dec, y)
        assert np.abs(gamma).max() < 1e-8
        assert np.abs(beta).max() < 1e-8

    def test_identity_gram_back_transform(self, rng):
        fine = build_basis("fourier", 5, np.linspace(0, 1, 2001))
        a = rng.standard_normal((40, 5))
        y = a @ np.array([0.5, 1.0, 0.0, -0.5, 0.0]) + 0.05 * rng.standard_normal(40)
        dec = fpls(CoefficientMatrix(a), fine, y, 3)
        gamma, beta = pls_regression_coefficients(dec, y)
        direct = dec.pls_state.directions @ gamma
        assert np.abs(fine.gram_inv_sqrt @ direct - beta).max() < 1e-12

    def test_back_transform_consistency(self, basis):
        _, a, _, y = linear_sample(9, basis=basis)
        dec = fpls(CoefficientMatrix(a), basis, y, 3)
        gamma, beta = pls_regression_coefficients(dec, y)
        pred_scores = dec.pls_state.y_center + dec.scores @ gamma
        pred_beta = dec.pls_state.y_center + (a - dec.center) @ basis.gram @ beta
        assert np.abs(pred_scores - pred_beta).max() < 1e-8
