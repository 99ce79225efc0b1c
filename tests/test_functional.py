import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from ssofr import (
    BasisSystem,
    FunctionalDataset,
    RankDeficiencyError,
    SingularGramError,
    ValidationError,
    build_basis,
    inner_product,
    project_curves,
    reconstruct_curves,
    trapezoid_weights,
)
from ssofr.functional import _bspline_eval


class TestInnerProduct:
    def test_constant_functions(self):
        grid = np.linspace(0, 1, 11)
        assert inner_product(np.ones(11), np.ones(11), grid) == pytest.approx(1.0)

    def test_sin_cos_orthogonal(self):
        grid = np.linspace(0, 1, 1001)
        f = np.sin(2 * np.pi * grid)
        g = np.cos(2 * np.pi * grid)
        assert abs(inner_product(f, g, grid)) < 1e-8

    def test_sin_squared_closed_form(self):
        # oracle: integral of sin^2(2 pi t) over [0,1] is exactly 1/2
        grid = np.linspace(0, 1, 1001)
        f = np.sin(2 * np.pi * grid)
        assert inner_product(f, f, grid) == pytest.approx(0.5, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            inner_product(np.ones(5), np.ones(6), np.linspace(0, 1, 5))

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_linearity(self, a, b, seed):
        r = np.random.default_rng(seed)
        grid = np.sort(r.uniform(0, 1, 20))
        grid[0], grid[-1] = 0.0, 1.0
        grid = np.unique(grid)
        if grid.size < 2:
            return
        f, g, h = r.standard_normal((3, grid.size))
        lhs = inner_product(a * f + b * g, h, grid)
        rhs = a * inner_product(f, h, grid) + b * inner_product(g, h, grid)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


class TestBuildBasis:
    def test_fourier_m1_unit_gram(self):
        grid = np.linspace(0, 1, 101)
        b = build_basis("fourier", 1, grid)
        assert b.gram.shape == (1, 1)
        assert b.gram[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_fourier_orthonormal(self):
        # oracle: dense quadrature of all pairwise products on the same grid
        grid = np.linspace(0, 1, 1001)
        b = build_basis("fourier", 5, grid)
        oracle = np.array(
            [
                [inner_product(b.eval[:, i], b.eval[:, j], grid) for j in range(5)]
                for i in range(5)
            ]
        )
        assert np.abs(b.gram - oracle).max() < 1e-12
        assert np.abs(b.gram - np.eye(5)).max() < 1e-6

    def test_bspline_banded(self):
        grid = np.linspace(0, 365, 365)
        b = build_basis("bspline", 10, grid, degree=3)
        for i in range(10):
            for j in range(10):
                if abs(i - j) > 3:
                    assert b.gram[i, j] == 0.0

    def test_gram_matches_weighted_cross_product(self):
        grid = np.linspace(0, 2, 97)
        b = build_basis("bspline", 8, grid)
        q = trapezoid_weights(grid)
        ref = b.eval.T @ np.diag(q) @ b.eval
        assert np.abs(b.gram - ref).max() < 1e-12

    def test_sqrt_identities(self):
        grid = np.linspace(0, 1, 120)
        b = build_basis("bspline", 9, grid)
        assert np.abs(b.gram_sqrt @ b.gram_sqrt - b.gram).max() < 1e-10
        assert np.abs(b.gram_inv_sqrt @ b.gram_sqrt - np.eye(9)).max() < 1e-8

    @settings(max_examples=300, deadline=None)
    @given(
        degree=st.integers(1, 5),
        data=st.data(),
        a=st.floats(-1e3, 1e3),
        width=st.one_of(st.floats(1e-6, 1e3), st.sampled_from([1e-9, 1e-3, 1.0, 365.0])),
        uniform=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bspline_design_matches_scipy(self, degree, data, a, width, uniform, seed):
        # oracle: scipy's sparse design matrix, bit for bit, on the same
        # clamped uniform knots; uniform and random grids, negative and
        # narrow intervals
        M = data.draw(st.integers(degree + 1, 30), label="M")
        p = data.draw(st.integers(M, 300), label="p")
        b = a + width
        if uniform:
            grid = np.linspace(a, b, p)
        else:
            inner = np.random.default_rng(seed).uniform(a, b, p - 2)
            grid = np.sort(np.concatenate([[a, b], inner]))
        assume(np.all(np.diff(grid) > 0))
        design, knots = _bspline_eval(grid, M, degree)
        lo, hi = grid[0], grid[-1]  # linspace turns a = -0.0 into +0.0
        expected_knots = np.concatenate([
            np.full(degree + 1, lo), np.linspace(lo, hi, M - degree + 1)[1:-1],
            np.full(degree + 1, hi),
        ])
        assert knots.tobytes() == expected_knots.tobytes()
        reference = BSpline.design_matrix(grid, knots, degree).toarray()
        assert design.shape == (p, M)
        assert design.tobytes() == reference.tobytes()

    def test_rejects_small_grid(self):
        with pytest.raises(ValidationError):
            build_basis("bspline", 10, np.linspace(0, 1, 5))

    def test_rejects_bad_kind(self):
        with pytest.raises(ValidationError):
            build_basis("chebyshev", 5, np.linspace(0, 1, 50))

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValidationError):
            build_basis("fourier", 3, np.array([0.0, 0.5, 0.4, 1.0]))


class TestProjectCurves:
    def test_exact_basis_function(self):
        grid = np.linspace(0, 1, 200)
        b = build_basis("bspline", 8, grid)
        curves = np.vstack([b.eval[:, 3], np.zeros(200)])
        ds = FunctionalDataset(grid=grid, curves=curves, response=np.zeros(2))
        cm = project_curves(ds, b)
        e3 = np.zeros(8)
        e3[3] = 1.0
        assert np.abs(cm.coeffs[0] - e3).max() < 1e-10
        assert np.abs(cm.coeffs[1]).max() < 1e-12

    def test_random_smooth_curve_reconstruction(self, rng):
        # oracle: normal equations at extended precision
        grid = np.linspace(0, 365, 365)
        b = build_basis("bspline", 15, grid)
        coef = rng.standard_normal(15)
        smooth = b.eval @ coef + 0.001 * np.sin(grid / 10.0)
        ds = FunctionalDataset(grid=grid, curves=smooth[None, :], response=np.zeros(1))
        cm = project_curves(ds, b)
        ev = b.eval.astype(np.longdouble)
        oracle = np.linalg.solve(
            np.asarray(ev.T @ ev, dtype=float), np.asarray(ev.T @ smooth.astype(np.longdouble), dtype=float)
        )
        assert np.abs(cm.coeffs[0] - oracle).max() < 1e-8
        recon = reconstruct_curves(cm, b)[0]
        rel = np.linalg.norm(recon - smooth) / np.linalg.norm(smooth)
        assert rel <= 1e-3

    def test_idempotent_on_span(self, rng):
        grid = np.linspace(0, 1, 80)
        b = build_basis("bspline", 7, grid)
        coef = rng.standard_normal((4, 7))
        curves = coef @ b.eval.T
        ds = FunctionalDataset(grid=grid, curves=curves, response=np.zeros(4))
        cm = project_curves(ds, b)
        assert np.abs(cm.coeffs - coef).max() < 1e-9
        ds2 = FunctionalDataset(
            grid=grid, curves=reconstruct_curves(cm, b), response=np.zeros(4)
        )
        cm2 = project_curves(ds2, b)
        assert np.abs(cm2.coeffs - cm.coeffs).max() < 1e-10

    def test_grid_mismatch(self, rng):
        b = build_basis("bspline", 7, np.linspace(0, 1, 80))
        ds = FunctionalDataset(
            grid=np.linspace(0, 2, 80),
            curves=rng.standard_normal((2, 80)),
            response=np.zeros(2),
        )
        with pytest.raises(ValidationError):
            project_curves(ds, b)


class TestProjector:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        kind=st.sampled_from(["bspline", "fourier"]),
        data=st.data(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_lstsq_and_is_built_once(self, linalg_calls, kind, data, seed):
        # oracle: LAPACK least squares on the same p x M evaluation matrix,
        # on uneven strictly increasing grids
        M = data.draw(st.integers(3, 20), label="M")
        p = data.draw(st.integers(M, 200), label="p")
        r = np.random.default_rng(seed)
        grid = np.concatenate([[0.0], np.cumsum(r.uniform(0.2, 1.0, p - 1))])
        try:
            b = build_basis(kind, M, grid, degree=min(3, M - 1))
        except SingularGramError:
            assume(False)
        curves = r.standard_normal((4, p)) + np.sin(grid / grid[-1] * 3.0)
        ds = FunctionalDataset(grid=grid, curves=curves, response=np.zeros(4))
        oracle = np.linalg.lstsq(b.eval, curves.T, rcond=None)[0].T
        projector = b.projector
        assert b.projector is projector
        linalg_calls.clear()
        cm = project_curves(ds, b)
        assert linalg_calls == []
        assert np.abs(cm.coeffs - oracle).max() <= 1e-11 * np.abs(oracle).max()

    def test_rank_deficient_eval_raises_typed_error(self):
        grid = np.linspace(0, 1, 30)
        ev = build_basis("bspline", 6, grid).eval
        ev = np.column_stack([ev, ev[:, 2]])
        b = BasisSystem(kind="bspline", M=7, grid=grid, eval=ev, gram=ev.T @ ev,
                        gram_sqrt=np.eye(7), gram_inv_sqrt=np.eye(7))
        ds = FunctionalDataset(grid=grid, curves=np.ones((2, 30)), response=np.zeros(2))
        for _ in range(2):  # a failed build is not cached
            with pytest.raises(RankDeficiencyError, match="rank deficient"):
                project_curves(ds, b)


class TestFunctionalDataset:
    def test_rejects_nonfinite(self):
        grid = np.linspace(0, 1, 5)
        curves = np.ones((2, 5))
        curves[0, 1] = np.nan
        with pytest.raises(ValidationError):
            FunctionalDataset(grid=grid, curves=curves, response=np.zeros(2))

    def test_rejects_bad_response_length(self):
        grid = np.linspace(0, 1, 5)
        with pytest.raises(ValidationError):
            FunctionalDataset(grid=grid, curves=np.ones((2, 5)), response=np.zeros(3))
