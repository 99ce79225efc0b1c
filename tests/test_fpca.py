import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ssofr.fpca
from ssofr import (
    BasisSpec, DegenerateDataError, SimSpec, ValidationError, build_basis, fpc, fpls, rfpc,
    rfpls, scores_for, simulate,
)
from ssofr.functional import CoefficientMatrix, project_curves
from ssofr.mscale import DEFAULT_MSCALE, tukey_loss_norm

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

    def test_sweep_cap_is_named_in_events(self, basis, monkeypatch):
        cm = CoefficientMatrix(gaussian_coeffs(21, n=60))
        assert rfpc(cm, basis, 2).events == ()
        monkeypatch.setattr(ssofr.fpca, "_REFINE_SWEEPS", 1)
        capped = rfpc(cm, basis, 2)
        assert capped.sweeps == (1, 1)
        assert capped.events == (
            "rfpc component 1 stopped at the 1-sweep cap",
            "rfpc component 2 stopped at the 1-sweep cap",
        )

    def test_needs_enough_observations(self, basis):
        with pytest.raises(ValidationError):
            rfpc(CoefficientMatrix(gaussian_coeffs(6, n=3)), basis, 1)


def plane_search_oracle(b, u, v, config=DEFAULT_MSCALE):
    """Rotation of u towards v by a 13-angle grid zoomed 6 times that scores
    every angle of every grid: the search `_rotate` makes with reuse."""
    v = v - (u @ v) * u
    v = v / np.linalg.norm(v)
    crit = float(ssofr.fpca.m_scale_columns((b @ u)[:, None], config)[0])
    lo, hi = -np.pi / 2, np.pi / 2
    best_theta, best_val = 0.0, crit
    for _ in range(6):
        thetas = np.linspace(lo, hi, 13)
        cand = np.outer(np.cos(thetas), u) + np.outer(np.sin(thetas), v)
        vals = ssofr.fpca.m_scale_columns((cand @ b.T).T, config)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_theta, best_val = float(thetas[i]), float(vals[i])
        step = thetas[1] - thetas[0]
        lo, hi = best_theta - step, best_theta + step
    return best_theta, best_val


def spy(monkeypatch, name):
    """A list that receives a copy of the array passed to `ssofr.fpca.<name>`
    on every call during the test."""
    calls = []
    real = getattr(ssofr.fpca, name)

    def counted(x, *args):
        calls.append(np.array(x))
        return real(x, *args)

    monkeypatch.setattr(ssofr.fpca, name, counted)
    return calls


@pytest.fixture()
def scored(monkeypatch):
    """Every array passed to `m_scale_columns` during the test: the columns
    solved."""
    return spy(monkeypatch, "m_scale_columns")


@pytest.fixture()
def screened(monkeypatch):
    """Every array passed to `m_scale_columns_below` during the test: each
    zoom batch of `_rotate` in full, before any column is solved."""
    return spy(monkeypatch, "m_scale_columns_below")


class TestProjectionPursuit:
    def planes(self):
        # a poor start u against each principal axis, the top one included,
        # whose best angle sits near the end of the first grid (-pi/2 or pi/2)
        b = gaussian_coeffs(21)
        b = b - np.median(b, axis=0)
        axes = np.linalg.eigh(b.T @ b)[1][:, ::-1]
        u = axes[:, -1] + 0.3 * axes[:, 1]
        u /= np.linalg.norm(u)
        return b, u, list(axes.T)

    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(-4.0, 4.0), hi=st.floats(-4.0, 4.0))
    @example(lo=-np.pi / 2, hi=np.pi / 2)
    def test_grid_is_linspace_bit_for_bit(self, lo, hi):
        assume(abs(hi - lo) > 1e-300)  # a step of 0 is never asked for
        got = ssofr.fpca._grid(lo, hi)
        expect = np.linspace(lo, hi, ssofr.fpca._GRID)
        np.testing.assert_array_equal(got.view(np.int64), expect.view(np.int64))

    def test_each_plane_scores_61_distinct_angles(self, screened, scored):
        # every angle reaches the pre-check; only the columns it cannot place
        # below the incumbent are solved, each once
        b, u, axes = self.planes()
        solved = []
        for v in axes + [np.ones(7)]:
            crit = float(ssofr.fpca.m_scale_columns((b @ u)[:, None], DEFAULT_MSCALE)[0])
            del screened[:], scored[:]
            ssofr.fpca._rotate(b, u, v, crit, DEFAULT_MSCALE)
            assert [x.shape[1] for x in screened] == [11, 10, 10, 10, 10, 10]
            v_perp = v - (u @ v) * u
            plane = np.column_stack([b @ u, b @ v_perp])
            coords = np.linalg.lstsq(plane, np.hstack(screened), rcond=None)[0]
            # directions up to sign, u itself (theta = 0) included
            thetas = np.sort(np.r_[0.0, np.arctan2(coords[1], coords[0]) % np.pi])
            gaps = np.diff(np.r_[thetas, thetas[0] + np.pi])
            assert gaps.min() > 1e-6
            plane_solved = [col.tobytes() for x in scored for col in x.T]
            assert set(plane_solved) <= {col.tobytes() for x in screened for col in x.T}
            solved += plane_solved
        assert len(solved) == len(set(solved))
        # 8 planes x 61 angles screened; all 488 were solved before the pre-check
        assert len(solved) == 181

    def test_plane_search_matches_rescoring_oracle(self, scored):
        b, u, axes = self.planes()
        for v in axes + [np.ones(7)]:
            crit = float(ssofr.fpca.m_scale_columns((b @ u)[:, None], DEFAULT_MSCALE)[0])
            theta, val = plane_search_oracle(b, u, v)
            got_u, got_val = ssofr.fpca._rotate(b, u, v, crit, DEFAULT_MSCALE)
            assert got_val == pytest.approx(val, rel=1e-12)
            v_perp = v - (u @ v) * u
            v_perp /= np.linalg.norm(v_perp)
            expect = np.cos(theta) * u + np.sin(theta) * v_perp
            expect /= np.linalg.norm(expect)
            # +-pi/2 tie up to rounding; the oracle may take either end
            assert np.abs(got_u - np.sign(got_u @ expect) * expect).max() < 1e-12

    @pytest.mark.parametrize("deflated", [0, 1, 2])
    def test_sweeps_search_kept_axes_then_a_pattern_move(self, screened, deflated):
        # a deflated direction leaves b^T b an eigenvalue of rounding size,
        # and its axis is not searched
        b, u, axes = self.planes()
        for w in axes[:deflated]:
            b = b - np.outer(b @ w, w)
            u = u - (u @ w) * w
        u /= np.linalg.norm(u)
        _, _, sweeps = ssofr.fpca._sphere_refine(b, u, DEFAULT_MSCALE)
        planes = sum(x.shape[1] == 11 for x in screened)
        per_sweep = 7 - deflated + 1
        # every sweep but the last moves u, so it has a displacement to search
        assert per_sweep * sweeps - 1 <= planes <= per_sweep * sweeps

    def test_rfpc_planes_score_61_columns(self, basis, screened, scored):
        cm = CoefficientMatrix(gaussian_coeffs(22))
        dec = rfpc(cm, basis, 3)
        # every zoom batch of every plane reaches the pre-check in full
        widths = [x.shape[1] for x in screened]
        assert len(widths) == 540  # 90 planes
        assert widths == [11, 10, 10, 10, 10, 10] * (len(widths) // 6)
        assert len(dec.sweeps) == 3
        # the solves: per component the candidate batch of n columns, the
        # start's value and lambda, then the zoom columns that the pre-check
        # left (all 5,490 columns of the 90 planes, in 540 calls, without it)
        n = cm.coeffs.shape[0]
        assert len(scored) == 9 + 167
        assert sum(x.shape[1] for x in scored) == 3 * n + 6 + 750

    def test_cost_does_not_depend_on_the_draw(self, scored):
        calls = []
        for seed in range(6):
            design, _, _ = simulate(SimSpec(
                n=100, weights_scheme="inverse_distance", contamination_fraction=0.1,
                contamination_kind="leverage", seed=seed,
            ))
            lev_basis = build_basis("bspline", 15, design.grid)
            del scored[:]
            rfpc(project_curves(design, lev_basis), lev_basis, 3)
            calls.append(len(scored))
        assert max(calls) <= 1000
        assert max(calls) <= 2 * min(calls)

    def test_elongated_sample_found_in_few_sweeps(self, basis):
        # Gaussian, 20 times wider along a non-coordinate axis than across it
        rng = np.random.default_rng(3)
        axis = np.array([1.0, -2.0, 0.5, 1.5, 0.0, -1.0, 0.7])
        axis /= np.linalg.norm(axis)
        frame, _ = np.linalg.qr(np.column_stack([axis, rng.standard_normal((7, 6))]))
        b = rng.standard_normal((400, 7)) * np.r_[20.0, np.ones(6)] @ frame.T
        dec = rfpc(CoefficientMatrix(b @ basis.gram_inv_sqrt), basis, 1)
        assert dec.sweeps[0] <= 3
        assert subspace_angle_deg(dec.phi[:, 0], basis.gram_inv_sqrt @ axis, basis.gram) < 1.0


def solve_every_row(monkeypatch):
    """Turn the pre-check of `_rotate` off: every zoom column is solved."""
    monkeypatch.setattr(
        ssofr.fpca, "m_scale_columns_below",
        lambda x, bound, config: np.zeros(x.shape[1], dtype=bool),
    )


def bits(*arrays):
    return [np.asarray(a, dtype=float).view(np.int64).tolist() for a in arrays]


class TestPreCheckIsExact:
    """The pre-check only drops zoom columns whose M-scale lies below the
    incumbent, so the search takes the same path as one that solves every
    column, to the bit."""

    def rotate_both(self, monkeypatch, b, u, v, crit):
        pruned = ssofr.fpca._rotate(b, u, v, crit, DEFAULT_MSCALE)
        with monkeypatch.context() as patch:
            solve_every_row(patch)
            full = ssofr.fpca._rotate(b, u, v, crit, DEFAULT_MSCALE)
        assert bits(*pruned) == bits(*full)
        return pruned

    def test_planes_whose_best_angle_sits_at_an_end(self, monkeypatch):
        b, u, axes = TestProjectionPursuit().planes()
        for v in axes + [np.ones(7)]:
            crit = float(ssofr.fpca.m_scale_columns((b @ u)[:, None], DEFAULT_MSCALE)[0])
            got_u, got_val = self.rotate_both(monkeypatch, b, u, v, crit)
            assert got_val >= crit

    def test_planes_where_no_angle_beats_the_start(self, monkeypatch, scored):
        # spread 1 along u and 1e-7 across it: a rotation by theta shrinks
        # the projections by cos(theta) and adds at most 1e-7 |sin(theta)|,
        # so no scored angle beats u; the finest zooms still have to be
        # solved, as they lie within the pre-check's margin of crit
        rng = np.random.default_rng(0)
        b = rng.standard_normal((200, 7)) * np.r_[1.0, np.full(6, 1e-7)]
        u = np.eye(7)[0]
        crit = float(ssofr.fpca.m_scale_columns((b @ u)[:, None], DEFAULT_MSCALE)[0])
        for v in np.eye(7)[1:]:
            del scored[:]
            got_u, got_val = self.rotate_both(monkeypatch, b, u, v, crit)
            assert got_val == crit and got_u is u
            # both runs: the full one solves all 61 columns
            assert 61 < sum(x.shape[1] for x in scored) < 2 * 61

    def test_a_start_whose_value_is_zero(self, monkeypatch):
        # 120 of 200 rows orthogonal to u: the start's projections are
        # degenerate and crit = 0, so the first zoom prunes nothing
        b, _, _ = TestProjectionPursuit().planes()
        u = np.eye(7)[0]
        b[:120, 0] = 0.0
        crit = float(ssofr.fpca.m_scale_columns((b @ u)[:, None], DEFAULT_MSCALE)[0])
        assert crit == 0.0
        for v in list(np.eye(7)[1:]) + [np.ones(7)]:
            _, got_val = self.rotate_both(monkeypatch, b, u, v, crit)
            assert got_val > 0.0

    @pytest.mark.parametrize("kind,M", [("bspline", 15), ("fourier", 7)])
    def test_rfpc_over_seeded_draws(self, monkeypatch, kind, M):
        for seed in range(4):
            for fraction in (0.0, 0.1, 0.2):
                ds, _, _ = simulate(SimSpec(
                    n=80, contamination_fraction=fraction, contamination_kind="leverage",
                    seed=seed,
                ))
                basis = build_basis(kind, M, ds.grid)
                coeffs = project_curves(ds, basis)
                pruned = rfpc(coeffs, basis, 4)
                with monkeypatch.context() as patch:
                    solve_every_row(patch)
                    full = rfpc(coeffs, basis, 4)
                assert bits(pruned.phi, pruned.lambdas) == bits(full.phi, full.lambdas)
                assert pruned.sweeps == full.sweeps


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


class TestFinish:
    """Every decomposition ends in the same step: signed unit directions,
    mapped to basis coefficients, and the curves scored against them."""

    @pytest.fixture(scope="class")
    def draw(self):
        ds, _, _ = simulate(SimSpec(n=64, weights_scheme="rook", grid_shape=(8, 8), seed=0,
                                    contamination_fraction=0.1))
        basis = BasisSpec().build(ds.grid)
        return ds, basis, project_curves(ds, basis)

    @pytest.mark.parametrize("method", ["fpc", "rfpc", "fpls", "rfpls"])
    def test_scores_and_signs(self, draw, method):
        ds, basis, coeffs = draw
        if method in ("fpc", "rfpc"):
            dec = {"fpc": fpc, "rfpc": rfpc}[method](coeffs, basis, 3)
        else:
            dec = {"fpls": fpls, "rfpls": rfpls}[method](coeffs, basis, ds.response, 3)
        assert np.array_equal(dec.scores, scores_for(dec, coeffs, basis))
        u = basis.gram_sqrt @ dec.phi
        assert np.all(u[np.argmax(np.abs(u), axis=0), np.arange(dec.K)] > 0)
        if dec.pls_state is not None:
            assert np.array_equal(basis.gram_inv_sqrt @ dec.pls_state.directions, dec.phi)
