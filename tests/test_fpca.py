import numpy as np
import pytest

import ssofr.fpca
from ssofr import DegenerateDataError, SimSpec, ValidationError, build_basis, fpc, rfpc, scores_for, simulate
from ssofr.functional import CoefficientMatrix, project_curves
from ssofr.mscale import tukey_loss_norm

from conftest import oracle_m_scale_columns, subspace_angle_deg


@pytest.fixture(scope="module")
def basis():
    return build_basis("fourier", 7, np.linspace(0, 1, 101))


def gaussian_coeffs(seed, n=200, sd=(3.0, 1.2, 0.6, 0.3, 0.15, 0.08, 0.04)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, len(sd))) * np.asarray(sd)


class TestFpc:
    def test_rank_one_data(self, basis, rng):
        c = rng.standard_normal(50)
        coef = np.zeros((50, 7))
        coef[:, 0] = c
        dec = fpc(CoefficientMatrix(coef), basis, 2)
        e1 = np.zeros(7)
        e1[0] = 1.0
        assert subspace_angle_deg(dec.phi[:, 0], e1, basis.gram) < 1e-6
        assert dec.lambdas[0] == pytest.approx(np.var(c, ddof=1), rel=1e-10)
        assert dec.lambdas[1] == pytest.approx(0.0, abs=1e-12)

    def test_eigenvalues_match_dense_covariance_oracle(self, basis):
        # oracle: eigendecomposition of the discretized covariance operator
        # (weighted by trapezoid quadrature) for curves in the basis span
        coef = gaussian_coeffs(7, n=150)[:, :2]
        full = np.zeros((150, 7))
        full[:, :2] = coef
        curves = full @ basis.eval.T
        dec = fpc(CoefficientMatrix(full), basis, 2)

        from ssofr.functional import trapezoid_weights

        q = trapezoid_weights(basis.grid)
        xc = curves - curves.mean(axis=0)
        cov = xc.T @ xc / (150 - 1)
        sq = np.sqrt(q)
        sym = sq[:, None] * cov * sq[None, :]
        vals = np.linalg.eigvalsh(sym)[::-1]
        assert np.abs(dec.lambdas - vals[:2]).max() < 1e-8

    def test_score_covariance_is_diagonal(self, basis):
        coef = gaussian_coeffs(8, n=120)
        dec = fpc(CoefficientMatrix(coef), basis, 4)
        cov = np.cov(dec.scores, rowvar=False, ddof=1)
        assert np.abs(cov - np.diag(dec.lambdas)).max() < 1e-8

    def test_orthonormality(self, basis):
        dec = fpc(CoefficientMatrix(gaussian_coeffs(9)), basis, 5)
        g = dec.phi.T @ basis.gram @ dec.phi
        assert np.abs(g - np.eye(5)).max() < 1e-6

    def test_lambdas_nonincreasing(self, basis):
        dec = fpc(CoefficientMatrix(gaussian_coeffs(10)), basis, 6)
        assert np.all(np.diff(dec.lambdas) <= 1e-12)

    def test_k_too_large(self, basis):
        with pytest.raises(ValidationError):
            fpc(CoefficientMatrix(gaussian_coeffs(1, n=5)), basis, 6)

    def test_zero_variance(self, basis):
        with pytest.raises(DegenerateDataError):
            fpc(CoefficientMatrix(np.ones((10, 7))), basis, 1)


class TestRfpc:
    def test_clean_agreement_with_fpc(self, basis):
        cm = CoefficientMatrix(gaussian_coeffs(1))
        f = fpc(cm, basis, 2)
        r = rfpc(cm, basis, 2)
        assert subspace_angle_deg(f.phi[:, 0], r.phi[:, 0], basis.gram) < 5.0

    def test_outlier_resistance_ab(self, basis):
        # 10% of curves replaced by a huge curve along a spurious direction:
        # classical FPC locks onto it, the robust direction barely moves
        a = gaussian_coeffs(1)
        cm = CoefficientMatrix(a)
        f_clean = fpc(cm, basis, 2)
        rng = np.random.default_rng(1)
        rng.standard_normal(a.shape)  # keep stream aligned with fixture draw
        a2 = a.copy()
        idx = rng.choice(200, 20, replace=False)
        spur = np.zeros(7)
        spur[5] = 1.0
        a2[idx] = 100.0 * spur
        cm2 = CoefficientMatrix(a2)
        ang_fpc = subspace_angle_deg(
            fpc(cm2, basis, 2).phi[:, 0], f_clean.phi[:, 0], basis.gram
        )
        ang_rfpc = subspace_angle_deg(
            rfpc(cm2, basis, 2).phi[:, 0], f_clean.phi[:, 0], basis.gram
        )
        assert ang_fpc > 30.0
        assert ang_rfpc < 10.0

    def test_rank_one_symmetric_lambda_vs_bisection_oracle(self, basis):
        c_amp = 2.5
        coef = np.zeros((40, 7))
        coef[:20, 1] = c_amp
        coef[20:, 1] = -c_amp
        dec = rfpc(CoefficientMatrix(coef), basis, 1)
        lo, hi = 1e-6, 1.56
        flo = tukey_loss_norm(1.0 / lo, 1.56) - 0.5
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (tukey_loss_norm(1.0 / mid, 1.56) - 0.5) * flo > 0:
                lo = mid
            else:
                hi = mid
        sstar = 0.5 * (lo + hi)
        assert dec.lambdas[0] == pytest.approx((c_amp * sstar) ** 2, rel=1e-6)

    def test_deflation_orthogonality(self, basis):
        dec = rfpc(CoefficientMatrix(gaussian_coeffs(3)), basis, 3)
        g = dec.phi.T @ basis.gram @ dec.phi
        assert np.abs(g - np.eye(3)).max() < 1e-8

    def test_lambda_monotone(self, basis):
        dec = rfpc(CoefficientMatrix(gaussian_coeffs(4)), basis, 3)
        assert np.all(np.diff(dec.lambdas) <= 1e-6 * dec.lambdas[0])

    def test_scale_equivariance(self, basis):
        cm = CoefficientMatrix(gaussian_coeffs(5))
        base = rfpc(cm, basis, 2)
        scaled = rfpc(CoefficientMatrix(3.0 * cm.coeffs), basis, 2)
        assert np.abs(scaled.lambdas - 9.0 * base.lambdas).max() < 1e-6 * base.lambdas[0]
        for k in range(2):
            assert subspace_angle_deg(scaled.phi[:, k], base.phi[:, k], basis.gram) < 1e-4

    def test_search_path_matches_column_oracle(self, monkeypatch):
        # the row-layout M-scale kernel and the column-layout oracle score
        # every candidate alike to rounding, so projection pursuit takes the
        # same zooms and sweeps and lands on the same components
        design, _, _ = simulate(SimSpec(
            n=100, weights_scheme="inverse_distance", contamination_fraction=0.1,
            contamination_kind="leverage", seed=1,
        ))
        lev_basis = build_basis("bspline", 15, design.grid)
        coeffs = project_curves(design, lev_basis)

        def run(m_scale_columns):
            calls = []

            def counted(x, config):
                calls.append(x.shape)
                return m_scale_columns(x, config)

            monkeypatch.setattr(ssofr.fpca, "m_scale_columns", counted)
            return rfpc(coeffs, lev_basis, 3), calls

        kernel, kernel_calls = run(ssofr.fpca.m_scale_columns)
        oracle, oracle_calls = run(oracle_m_scale_columns)
        assert kernel_calls == oracle_calls
        np.testing.assert_allclose(kernel.lambdas, oracle.lambdas, rtol=1e-12)
        for k in range(3):
            angle = subspace_angle_deg(kernel.phi[:, k], oracle.phi[:, k], lev_basis.gram)
            assert angle <= 1e-5

    def test_needs_enough_observations(self, basis):
        with pytest.raises(ValidationError):
            rfpc(CoefficientMatrix(gaussian_coeffs(6, n=3)), basis, 1)


class TestScoresFor:
    def test_center_curve_scores_zero(self, basis):
        cm = CoefficientMatrix(gaussian_coeffs(11))
        dec = fpc(cm, basis, 3)
        out = scores_for(dec, CoefficientMatrix(dec.center[None, :]), basis)
        assert np.abs(out).max() < 1e-10

    def test_center_plus_component(self, basis):
        cm = CoefficientMatrix(gaussian_coeffs(12))
        dec = fpc(cm, basis, 3)
        new = dec.center + dec.phi[:, 1]
        out = scores_for(dec, CoefficientMatrix(new[None, :]), basis)
        expect = np.zeros(3)
        expect[1] = 1.0
        assert np.abs(out[0] - expect).max() < 1e-6

    def test_training_scores_reproduced(self, basis):
        cm = CoefficientMatrix(gaussian_coeffs(13))
        dec = fpc(cm, basis, 4)
        out = scores_for(dec, cm, basis)
        assert np.abs(out - dec.scores).max() < 1e-10

    def test_basis_mismatch(self, basis):
        cm = CoefficientMatrix(gaussian_coeffs(14))
        dec = fpc(cm, basis, 2)
        other = build_basis("fourier", 7, np.linspace(0, 2, 101))
        with pytest.raises(ValidationError):
            scores_for(dec, cm, other)
