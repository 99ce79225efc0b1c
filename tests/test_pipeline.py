import functools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ssofr.fpca
from ssofr import (
    BasisSpec,
    FunctionalDataset,
    MTuning,
    NumericalError,
    SimSpec,
    ValidationError,
    fit,
    from_matrix,
    from_triplets,
    grid_contiguity,
    inner_product,
    model_from_json,
    model_to_json,
    predict,
    select_K,
    simulate,
)
from ssofr.fpls import HampelConfig
from ssofr.functional import project_curves
from ssofr.pipeline import _numerical_rank, _subset
from ssofr.weights import SpatialWeights


BS = BasisSpec(kind="fourier", M=5)


def sim(seed=3, n=100, rho=0.4, sigma=0.3, shape=(10, 10), **kw):
    spec = SimSpec(n=n, p=61, rho=rho, sigma=sigma, seed=seed,
                   weights_scheme="queen", grid_shape=shape, **kw)
    return simulate(spec)


class TestFit:
    def test_noiseless_round_trip_recovers_truth(self):
        ds, w, truth = sim(seed=1, sigma=0.0)
        model = fit(ds, w, BS, "fpc", K=5, estimator="ml")
        assert abs(model.rho - truth.rho) < 1e-3
        diff = model.beta_grid - truth.beta_on_grid
        rel = np.sqrt(
            inner_product(diff, diff, ds.grid)
            / inner_product(truth.beta_on_grid, truth.beta_on_grid, ds.grid)
        )
        assert rel < 1e-2
        assert abs(model.intercept_uncentered - truth.beta0) < 1e-2

    def test_robust_fit_matches_classical_on_clean_data(self):
        ds, w, truth = sim(seed=13, n=400, shape=(20, 20), sigma=0.3)
        m_ml = fit(ds, w, BS, "fpls", K=3, estimator="ml")
        m_rob = fit(ds, w, BS, "rfpls", K=3, estimator="m")
        assert abs(m_rob.rho - m_ml.rho) / abs(m_ml.rho) < 0.05
        assert m_rob.sigma == pytest.approx(m_ml.sigma, rel=0.05)
        diff = m_rob.beta_grid - m_ml.beta_grid
        rel = np.sqrt(
            inner_product(diff, diff, ds.grid)
            / inner_product(m_ml.beta_grid, m_ml.beta_grid, ds.grid)
        )
        assert rel < 0.05
        d0 = abs(m_rob.intercept_uncentered - m_ml.intercept_uncentered)
        assert d0 / abs(m_ml.intercept_uncentered) < 0.05

    def test_rho_zero_equals_nonspatial_fit(self):
        ds, w, truth = sim(seed=4, rho=0.0, sigma=0.01)
        model = fit(ds, w, BS, "fpc", K=5, estimator="ml")
        # non-spatial scalar-on-function fit: least squares on the scores
        Z = np.column_stack([np.ones(ds.n), model.decomposition.scores])
        coefs, *_ = np.linalg.lstsq(Z, ds.response, rcond=None)
        nonspatial = Z @ coefs
        rel = np.abs(model.fitted_values - nonspatial).max() / np.abs(ds.response).max()
        assert rel < 0.01

    def test_beta_curve_consistency(self):
        ds, w, _ = sim(seed=5)
        model = fit(ds, w, BS, "fpc", K=3)
        expect = model.decomposition.phi @ model.params.theta[1:]
        assert np.array_equal(model.beta_coeffs, expect)

    def test_beta_reconstruction_round_trip(self):
        ds, w, _ = sim(seed=6)
        model = fit(ds, w, BS, "fpc", K=3)
        # integral of beta(t) against each component recovers theta_k
        for k in range(3):
            phi_grid = model.basis.eval @ model.decomposition.phi[:, k]
            val = inner_product(model.beta_grid, phi_grid, ds.grid)
            assert val == pytest.approx(model.params.theta[1 + k], abs=1e-6)

    def test_reduced_form_identity(self):
        ds, w, _ = sim(seed=7)
        model = fit(ds, w, BS, "rfpc", K=2, estimator="m")
        Z = np.column_stack([np.ones(ds.n), model.decomposition.scores])
        lhs = (np.eye(ds.n) - model.rho * w.w) @ model.fitted_values
        assert np.abs(lhs - Z @ model.params.theta).max() < 1e-10

    def test_method_nesting_with_infinite_cutoffs(self):
        ds, w, _ = sim(seed=8, n=144, shape=(12, 12), sigma=0.4)
        classical = fit(ds, w, BS, "fpc", K=3, estimator="ml")
        relaxed = fit(
            ds, w, BS, "rfpc", K=3, estimator="m",
            tuning=MTuning(c1=1e6, c2=1e6, c3=1e6),
            hampel_config=HampelConfig(a=1e9, b=2e9, q=3e9),
        )
        assert abs(relaxed.rho - classical.rho) < 0.02
        assert relaxed.sigma == pytest.approx(classical.sigma, rel=0.05)

    def test_validation_errors(self):
        ds, w, _ = sim(seed=9)
        with pytest.raises(ValidationError):
            fit(ds, w, BS, "nope", K=2)
        with pytest.raises(ValidationError):
            fit(ds, w, BS, "fpc", K=2, estimator="map")
        w_small = grid_contiguity(3, 3, "rook")
        with pytest.raises(ValidationError):
            fit(ds, w_small, BS, "fpc", K=2)


    def test_rfpc_sweep_cap_is_reported(self, monkeypatch):
        ds, w, _ = sim(seed=5)
        model = fit(ds, w, BS, "rfpc", K=2)
        assert not any("sweep cap" in e for e in model.fit_info.events)
        monkeypatch.setattr(ssofr.fpca, "_REFINE_SWEEPS", 1)
        capped = fit(ds, w, BS, "rfpc", K=2)
        assert capped.decomposition.sweeps == (1, 1)
        assert [e for e in capped.fit_info.events if "sweep cap" in e] == [
            "rfpc component 1 stopped at the 1-sweep cap",
            "rfpc component 2 stopped at the 1-sweep cap",
        ]
        assert "sweep" not in model_to_json(capped)

    def test_rfpls_iteration_cap_is_reported(self):
        # on this leverage draw the Hampel reweighting cycles and stops at
        # its 50-iteration cap
        ds, w, _ = simulate(SimSpec(n=144, weights_scheme="queen", grid_shape=(12, 12),
                                    seed=6, contamination_fraction=0.1,
                                    contamination_kind="leverage"))
        model = fit(ds, w, BasisSpec(), "rfpls", K=3, estimator="m")
        assert model.decomposition.pls_state.converged is False
        assert model.decomposition.events == ("rfpls stopped at the 50-iteration cap",)
        assert "rfpls stopped at the 50-iteration cap" in model.fit_info.events
        settled = rook8_fit("rfpls", "m")
        assert settled.decomposition.pls_state.converged is True
        assert not any("iteration cap" in e for e in settled.fit_info.events)

    @pytest.mark.parametrize("estimator", ["ml", "m"])
    @pytest.mark.parametrize("method", ["fpc", "rfpc", "fpls", "rfpls"])
    def test_k_above_the_rank_is_truncated(self, method, estimator):
        # K = 6 on curves of rank 5: fpc and rfpc stop at the rank, as fpls
        # and rfpls stop where the covariance with Y vanishes
        ds, w, _ = simulate(SimSpec(n=36, weights_scheme="rook", grid_shape=(6, 6)))
        model = fit(ds, w, BasisSpec(), method, K=6, estimator=estimator)
        assert model.K == 5
        assert model.decomposition.truncated is True


class TestBsplineIntegration:
    def test_contaminated_fit_with_default_basis(self):
        ds, w, truth = sim(seed=44, n=144, shape=(12, 12), sigma=1.0,
                           rho=0.5, contamination_fraction=0.10,
                           contamination_kind="vertical")
        bs = BasisSpec(kind="bspline", M=12, degree=3)
        classical = fit(ds, w, bs, "fpc", K=3, estimator="ml")
        robust = fit(ds, w, bs, "rfpc", K=3, estimator="m")
        assert robust.fit_info.converged
        lo, hi = w.rho_bounds
        assert lo < robust.rho < hi
        assert robust.sigma < classical.sigma / 2
        assert abs(robust.rho - truth.rho) < abs(classical.rho - truth.rho)

    def test_bspline_beta_recovery_noiseless(self):
        ds, w, truth = sim(seed=45, sigma=0.0)
        bs = BasisSpec(kind="bspline", M=15, degree=3)
        model = fit(ds, w, bs, "fpc", K=5, estimator="ml")
        diff = model.beta_grid - truth.beta_on_grid
        rel = np.sqrt(
            inner_product(diff, diff, ds.grid)
            / inner_product(truth.beta_on_grid, truth.beta_on_grid, ds.grid)
        )
        assert rel < 5e-2
        assert abs(model.rho - truth.rho) < 5e-3


class TestPredict:
    def test_rho_zero_identity_resolvent(self):
        ds, w, _ = sim(seed=10, rho=0.0, sigma=0.2)
        model = fit(ds, w, BS, "fpc", K=3)
        object.__setattr__(model.params, "rho", 0.0)
        pred = predict(model, ds, w)
        A = model.decomposition.scores
        direct = model.params.theta[0] + A @ model.params.theta[1:]
        assert np.array_equal(pred, direct)

    def test_training_refeed_matches_fitted(self):
        ds, w, _ = sim(seed=11)
        model = fit(ds, w, BS, "fpls", K=3)
        pred = predict(model, ds, w)
        assert np.abs(pred - model.fitted_values).max() < 1e-12

    def test_noiseless_prediction_matches_simulated_response(self):
        ds, w, truth = sim(seed=12, sigma=0.0)
        model = fit(ds, w, BS, "fpc", K=5)
        spec2 = SimSpec(n=100, p=61, rho=truth.rho, sigma=0.0, seed=999,
                        weights_scheme="queen", grid_shape=(10, 10))
        ds2, w2, truth2 = simulate(spec2)
        pred = predict(model, ds2, w2)
        rel = np.abs(pred - ds2.response).max() / np.abs(ds2.response).max()
        assert rel < 1e-4

    def test_grid_mismatch_rejected(self):
        ds, w, _ = sim(seed=13)
        model = fit(ds, w, BS, "fpc", K=2)
        other = FunctionalDataset(
            grid=np.linspace(0, 2, ds.p), curves=ds.curves, response=ds.response
        )
        with pytest.raises(ValidationError):
            predict(model, other, w)

    def test_rho_outside_new_bounds_explained(self):
        ds, w, _ = sim(seed=14, rho=0.6)
        model = fit(ds, w, BS, "fpc", K=3)
        # the unnormalized rook adjacency: lambda_max = 4 cos(pi / 11) ~ 3.84,
        # so its admissible interval ends near 0.26, below rho_hat ~ 0.6
        bad = from_matrix(grid_contiguity(10, 10, "rook").w > 0.0, normalize=False)
        with pytest.raises(NumericalError, match="admissible"):
            predict(model, ds, bad)
        assert bad.rho_bounds[1] < 0.3 < model.rho


class TestOneSearch:
    """Machine-independent work guard: each `SpatialWeights` builds the
    nonzero pattern of W (`w != 0.0`) at most once, across its solves and
    its spectrum read. W is a view that counts the n x n patterns built
    from it, whichever function builds them."""

    @staticmethod
    def counted(weights, builds):
        class PatternCount(np.ndarray):
            def __ne__(self, other):
                if self.shape == weights.w.shape:
                    builds.append(self.shape[0])
                return np.asarray(self) != other

        return SpatialWeights(w=weights.w.view(PatternCount), scheme=weights.scheme)

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("estimator", ["ml", "m"])
    def test_fit_and_predict_each_search_once(self, estimator, normalize):
        ds = rook8()[0]
        rook = from_matrix(grid_contiguity(8, 8, "rook").w > 0.0, normalize=normalize)
        builds = []
        model = fit(ds, self.counted(rook, builds), BasisSpec(), "fpls", K=3,
                    estimator=estimator)
        assert builds == [64]
        builds.clear()
        predict(model, ds, self.counted(rook, builds))
        assert builds == [64]


class TestPredictFactorsNothing:
    """Machine-independent work guard: the basis projector is built once per
    basis system, and a predict with fresh weights of unknown spectrum needs
    no factorization (`check_rho` admits rho from the row sums, and the
    resolvent solve is iterative)."""

    @staticmethod
    def fresh(weights):
        return SpatialWeights(w=weights.w, scheme=weights.scheme)

    @pytest.mark.parametrize("method", ["fpc", "rfpc", "fpls", "rfpls"])
    def test_predict_after_fit(self, method, linalg_calls):
        ds, w, _ = rook8()
        model = fit(ds, w, BasisSpec(), method, K=3)
        linalg_calls.clear()
        predict(model, ds, self.fresh(w))
        assert linalg_calls == []

    def test_loaded_model_factors_its_basis_once(self, linalg_calls):
        ds, w, _ = rook8()
        model = model_from_json(model_to_json(rook8_fit("fpls", "m")))
        linalg_calls.clear()
        first = predict(model, ds, self.fresh(w))
        assert linalg_calls == ["svd"]
        assert np.array_equal(predict(model, ds, self.fresh(w)), first)
        assert linalg_calls == ["svd"]


class TestSelectK:
    def test_explained_variance_rank2(self):
        rng = np.random.default_rng(15)
        w = grid_contiguity(8, 8, "rook")
        grid = np.linspace(0, 1, 61)
        basis = BS.build(grid)
        coef = np.zeros((64, 5))
        coef[:, 0] = 3.0 * rng.standard_normal(64)
        coef[:, 1] = 1.5 * rng.standard_normal(64)
        curves = coef @ basis.eval.T
        ds = FunctionalDataset(grid=grid, curves=curves, response=rng.standard_normal(64))
        k = select_K(ds, w, BS, "fpc", rule="ev:0.95")
        assert k == 2

    def test_bic_pure_noise_prefers_small_k(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            ds, w, _ = sim(seed=seed + 300, sigma=1.0)
            noise_ds = FunctionalDataset(
                grid=ds.grid, curves=ds.curves,
                response=rng.standard_normal(ds.n),
            )
            k = select_K(noise_ds, w, BS, "fpc", rule="bic", K_max=4)
            hits += k == 1
        assert hits >= 18

    def test_cv_single_component_signal(self):
        picks = []
        for seed in range(5):
            rng = np.random.default_rng(2000 + seed)
            w = grid_contiguity(5, 10, "rook")
            grid = np.linspace(0, 1, 61)
            basis = BS.build(grid)
            coef = rng.standard_normal((50, 5)) * np.array([3.0, 0.3, 0.3, 0.3, 0.3])
            curves = coef @ basis.eval.T
            y = 1.0 * coef[:, 0] + 2.0 * rng.standard_normal(50)
            ds = FunctionalDataset(grid=grid, curves=curves, response=y)
            picks.append(select_K(ds, w, BS, "fpc", rule="cv:5", K_max=4))
        assert max(set(picks), key=picks.count) == 1

    def test_rule_validation(self):
        ds, w, _ = sim(seed=16)
        with pytest.raises(ValidationError):
            select_K(ds, w, BS, "fpc", rule="magic")
        with pytest.raises(ValidationError):
            select_K(ds, w, BS, "fpc", rule="cv:1")
        for bad in ("evil", "cvx", "ev:abc", "cv:2.5", "ev:", "bic:2", "BIC", ""):
            with pytest.raises(ValidationError, match="unknown selection rule"):
                select_K(ds, w, BS, "fpc", rule=bad)

    def test_cv_folds_leave_two_test_units(self):
        # folds are units i with i % folds == f, so the smallest test fold
        # holds n // folds units; one unit has no weights among its fold
        ds, w, _ = sim(seed=16, n=36, shape=(6, 6))
        for folds in (19, 36, 40):
            with pytest.raises(ValidationError, match=rf"cv:{folds} leaves .* at most cv:18"):
                select_K(ds, w, BS, "fpc", rule=f"cv:{folds}")
        assert 1 <= select_K(ds, w, BS, "fpc", rule="cv:18", K_max=2) <= 2

    def test_rule_parsing(self):
        from ssofr.pipeline import _parse_rule

        assert _parse_rule("bic") == ("bic",)
        assert _parse_rule("ev") == ("ev", 0.95)
        assert _parse_rule("ev:0.8") == ("ev", 0.8)
        assert _parse_rule("cv") == ("cv", 5)
        assert _parse_rule("cv:3") == ("cv", 3)

    def test_method_is_case_insensitive(self):
        ds, w, _ = sim(seed=16)
        assert select_K(ds, w, BS, "FPC", "ev:0.9") == select_K(ds, w, BS, "fpc", "ev:0.9")
        with pytest.raises(ValidationError, match="method must be one of"):
            select_K(ds, w, BS, "pca", "ev:0.9")

    @pytest.mark.parametrize("estimator", ["ml", "m"])
    @pytest.mark.parametrize("method", ["fpc", "rfpc", "fpls", "rfpls"])
    def test_every_rule_returns_a_k_on_simulated_curves(self, method, estimator):
        # simulated curves span 5 of the 15 B-spline directions, so the
        # default K_max of 15 is capped at 5: beyond it, scores are rounding
        # noise (fpc, fpls) or constant (rfpc, centred at the median) and
        # the design of the spatial model loses rank
        ds, w, _ = simulate(SimSpec(n=36, weights_scheme="rook", grid_shape=(6, 6)))
        basis = BasisSpec()
        system = basis.build(ds.grid)
        assert _numerical_rank(project_curves(ds, system), system) == 5
        for rule in ("ev:0.95", "bic", "cv:3"):
            k = select_K(ds, w, basis, method, rule=rule, estimator=estimator)
            assert 1 <= k <= 5
        assert 1 <= select_K(ds, w, basis, method, "bic", estimator, K_max=20) <= 5

    @pytest.mark.parametrize("method", ["fpc", "rfpc", "fpls", "rfpls"])
    def test_explained_variance_on_a_queen_draw(self, method):
        ds, w, _ = simulate(SimSpec(n=144, weights_scheme="queen", grid_shape=(12, 12), seed=7))
        assert 1 <= select_K(ds, w, BasisSpec(), method, "ev:0.95") <= 5

    @pytest.mark.parametrize("normalize, held", [
        (False, "dense"), (True, "dense"), (False, "csr"), (True, "csr"),
    ], ids=["False", "True", "False-csr", "True-csr"])
    def test_cv_folds_keep_the_scaling_of_w(self, normalize, held):
        # a binary W stays binary in every fold, as in the final fit; a
        # row-normalized W is normalized again among each fold's units; the
        # same holds for a W held in CSR form (a 12 x 12 queen grid given as
        # triplets), whose folds are cut from its entries
        side = 6 if held == "dense" else 12
        n = side * side
        ds, w, _ = sim(seed=16, n=n, shape=(side, side))
        if held == "dense":
            w = from_matrix(w.w > 0, w.scheme, normalize=normalize)
        else:
            rows, cols = np.nonzero(w.w)
            w = from_triplets(n, rows, cols, np.ones(rows.size), w.scheme, normalize=normalize)
        assert repr(w).endswith(f"held={held!r})")
        for f in range(3):
            units = np.arange(n) % 3 != f
            part, fold = _subset(ds, units), w.among(units)
            block = w.w[np.ix_(units, units)]
            assert part.n == fold.n == 2 * n // 3
            if normalize:
                sums = fold.w.sum(axis=1)
                assert np.all(np.abs(sums[sums != 0] - 1.0) <= 1e-15)
            else:
                assert np.array_equal(fold.w, block)
                assert fold.w.sum(axis=1).max() == 5.0

    @pytest.mark.parametrize("normalize", [False, True])
    def test_cv_folds_of_a_csr_w_build_no_dense_w(self, normalize, dense_builds):
        # the folds of a W held in CSR form are cut from its entries: the
        # same bits as the dense block of a grid W, and no n x n W on the way
        ds, _, _ = sim(seed=7, n=144, shape=(12, 12))

        def build():
            w = grid_contiguity(12, 12, "queen")
            rows, cols = w._csr.rows, w._csr.cols
            return w if normalize else from_triplets(
                w.n, rows, cols, np.ones(rows.size), w.scheme, normalize=False)

        ref = build().w
        dense_builds.clear()
        w = build()
        for f in range(3):
            units = np.arange(w.n) % 3 != f
            part, fold = _subset(ds, units), w.among(units)
            assert fold._csr is not None and part.n == fold.n == 96
            expected = from_matrix(ref[np.ix_(units, units)], w.scheme, normalize)
            assert np.array_equal(fold.isolated, expected.isolated)
            assert all(a is b is None or np.array_equal(a, b)
                       for a, b in zip(fold._csr, expected._csr))
        assert select_K(ds, build(), BasisSpec(), "fpc", "cv:3", K_max=3) >= 1
        assert dense_builds == []

    def test_select_k_builds_one_basis(self, monkeypatch):
        # machine-independent work guard: the candidate fits of every K and
        # fold, and their predicts, share the one basis built for the grid
        # and its one projector (13 of each before); the choice is as before
        import ssofr.pipeline
        from ssofr.functional import BasisSystem

        builds, projectors = [], []
        real_build = ssofr.pipeline.build_basis
        real_projector = BasisSystem.__dict__["projector"].func

        def build(*args, **kwargs):
            builds.append(args[0])
            return real_build(*args, **kwargs)

        def projector(basis):
            projectors.append(basis.M)
            return real_projector(basis)

        counted = functools.cached_property(projector)
        counted.__set_name__(BasisSystem, "projector")
        monkeypatch.setattr(ssofr.pipeline, "build_basis", build)
        monkeypatch.setattr(BasisSystem, "projector", counted)
        ds, w, _ = sim(seed=16)
        assert select_K(ds, w, BasisSpec(), "fpc", rule="cv:3", K_max=4) == 4
        assert select_K(ds, w, BasisSpec(), "fpc", rule="bic", K_max=4) == 4
        assert builds == ["bspline", "bspline"]
        assert projectors == [15, 15]

    def test_cv_builds_each_fold_once(self, eig_calls):
        # machine-independent work guard: the weights of each training fold
        # are built once and their eigenvalues read once, whatever K_max; the
        # test folds need none (`check_rho` admits rho from the row sums).
        # The `eigh` calls are the basis Gram roots and fpc's covariance.
        ds, w, _ = sim(seed=16)
        select_K(ds, w, BS, "fpc", rule="cv:3", estimator="ml", K_max=4)
        assert eig_calls.count("eigvalsh") == 3
        assert "eigvals" not in eig_calls


class TestSerialization:
    def test_round_trip_bit_exact(self):
        ds, w, _ = sim(seed=17)
        model = fit(ds, w, BS, "rfpls", K=3, estimator="m")
        text = model_to_json(model)
        loaded = model_from_json(text)
        assert np.array_equal(loaded.params.theta, model.params.theta)
        assert loaded.params.sigma == model.params.sigma
        assert loaded.params.rho == model.params.rho
        assert np.array_equal(loaded.beta_coeffs, model.beta_coeffs)
        assert np.array_equal(loaded.decomposition.phi, model.decomposition.phi)
        assert np.array_equal(loaded.decomposition.center, model.decomposition.center)
        assert np.array_equal(loaded.basis.grid, model.basis.grid)
        assert model_to_json(loaded) == text

    def test_loaded_model_predicts_identically(self):
        ds, w, _ = sim(seed=18)
        model = fit(ds, w, BS, "fpc", K=3)
        loaded = model_from_json(model_to_json(model))
        assert np.array_equal(predict(loaded, ds, w), predict(model, ds, w))

    def test_schema_version_checked(self):
        ds, w, _ = sim(seed=19)
        model = fit(ds, w, BS, "fpc", K=2)
        text = model_to_json(model).replace('"schema_version": 1', '"schema_version": 99')
        with pytest.raises(ValidationError):
            model_from_json(text)

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: "{not json", "not JSON"),
        (lambda doc: "[1, 2]", "not a JSON object"),
        (lambda doc: '{"schema_version": 1}', "lacks the field 'grid'"),
        (lambda doc: doc["params"].pop("rho"), "lacks the field 'params.rho'"),
        (lambda doc: doc.pop("decomposition"), "lacks the field 'decomposition.lambdas'"),
        (lambda doc: doc.update(grid=[[0.0], [1.0, 2.0]]), "bad field 'grid'"),
        (lambda doc: doc["params"].update(sigma="wide"), "bad field 'params.sigma'"),
        (lambda doc: doc.update(basis=[]), "bad field 'basis.kind'"),
        (lambda doc: doc["basis"].update(M="15"), "bad field 'basis'"),
        (lambda doc: doc["decomposition"]["phi"].pop(), "bad field 'decomposition.phi'"),
        (lambda doc: doc["params"]["theta"].append(0.0), "bad field 'params.theta'"),
    ], ids=["not json", "not an object", "schema only", "no rho", "no decomposition",
            "ragged grid", "text sigma", "basis a list", "text M", "phi short a row",
            "theta too long"])
    def test_bad_document_names_the_field(self, edit, match):
        doc = json.loads(model_to_json(rook8_fit("fpc", "ml")))
        text = edit(doc)
        with pytest.raises(ValidationError, match=match):
            model_from_json(text if isinstance(text, str) else json.dumps(doc))


@functools.lru_cache(maxsize=None)
def rook8():
    return simulate(SimSpec(n=64, weights_scheme="rook", grid_shape=(8, 8), seed=0))


@functools.lru_cache(maxsize=None)
def rook8_fit(method, estimator):
    ds, w, _ = rook8()
    return fit(ds, w, BasisSpec(), method, K=3, estimator=estimator)


class TestCurveShift:
    """Adding one function c(t) to every curve moves the centre of the
    curves and nothing else: the decompositions work on centred curves."""

    @pytest.mark.parametrize("estimator", ["ml", "m"])
    @pytest.mark.parametrize("method", ["fpc", "rfpc", "fpls", "rfpls"])
    @settings(max_examples=4, deadline=None)
    @given(
        level=st.floats(-3.0, 3.0),
        amplitude=st.floats(-2.0, 2.0),
        frequency=st.floats(1.0, 5.0),
    )
    @example(level=2.0, amplitude=1.0, frequency=3.0)
    def test_shift_leaves_beta_and_params(self, method, estimator, level, amplitude,
                                          frequency):
        ds, w, _ = rook8()
        base = rook8_fit(method, estimator)
        shift = level + amplitude * np.sin(frequency * ds.grid)
        shifted = FunctionalDataset(
            grid=ds.grid, curves=ds.curves + shift, response=ds.response,
        )
        model = fit(shifted, w, BasisSpec(), method, K=3, estimator=estimator)
        np.testing.assert_allclose(model.beta_coeffs, base.beta_coeffs, rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            model.params.as_vector(), base.params.as_vector(), rtol=0, atol=1e-10,
        )


class TestUnitPermutation:
    """The order of the units is arbitrary: fitting the same draw with its
    units permuted (curves, response and both axes of W) gives the same
    rho, sigma, theta and beta, for every method and estimator."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(["vertical", "leverage"]),
        perm_seed=st.integers(0, 2**32 - 1),
    )
    @example(seed=0, kind="vertical", perm_seed=1)
    @example(seed=0, kind="leverage", perm_seed=1)
    @example(seed=366, kind="vertical", perm_seed=0)
    def test_fit_is_invariant(self, seed, kind, perm_seed):
        ds, w, _ = simulate(SimSpec(
            n=144, weights_scheme="queen", grid_shape=(12, 12), seed=seed,
            contamination_fraction=0.1, contamination_kind=kind,
        ))
        perm = np.random.default_rng(perm_seed).permutation(ds.n)
        permuted = FunctionalDataset(
            grid=ds.grid, curves=ds.curves[perm], response=ds.response[perm],
        )
        for method in ("fpc", "rfpc", "fpls", "rfpls"):
            for estimator in ("ml", "m"):
                base, other = (
                    fit(data, from_matrix(wm, w.scheme, normalize=False), BasisSpec(),
                        method, K=3, estimator=estimator)
                    for data, wm in ((ds, w.w), (permuted, w.w[np.ix_(perm, perm)]))
                )
                for a, b in ((base.rho, other.rho), (base.sigma, other.sigma),
                             (base.params.theta, other.params.theta),
                             (base.beta_coeffs, other.beta_coeffs)):
                    a, b = np.atleast_1d(a), np.atleast_1d(b)
                    assert np.abs(a - b).max() <= 1e-10 * np.abs(a).max(), (method, estimator)


class TestScaleEquivariance:
    """Units are arbitrary: X -> a X and Y -> c Y give the same rho, sigma
    times c and beta times c / a, for every method and estimator, to
    rounding; a zero test of a decomposition that held an absolute floor
    failed this once the data were small enough."""

    @staticmethod
    def draw(seed, kind):
        return simulate(SimSpec(
            n=144, weights_scheme="queen", grid_shape=(12, 12), seed=seed,
            contamination_fraction=0.1, contamination_kind=kind,
        ))[:2]

    @staticmethod
    def assert_equivariant(ds, w, scalings):
        """scalings: (a, c, tol) triples, each fitted on (a X, c Y)."""
        def rel(a, b):
            a, b = np.atleast_1d(a), np.atleast_1d(b)
            return np.abs(a - b).max() / np.abs(a).max()

        for method in ("fpc", "rfpc", "fpls", "rfpls"):
            for estimator in ("ml", "m"):
                base = fit(ds, w, BasisSpec(), method, K=3, estimator=estimator)
                for a, c, tol in scalings:
                    data = FunctionalDataset(grid=ds.grid, curves=a * ds.curves,
                                             response=c * ds.response)
                    got = fit(data, w, BasisSpec(), method, K=3, estimator=estimator)
                    case = (method, estimator, a, c)
                    assert got.decomposition.K == base.decomposition.K, case
                    assert rel(base.rho, got.rho) <= tol, case
                    assert rel(base.sigma, got.sigma / c) <= tol, case
                    assert rel(base.beta_coeffs, got.beta_coeffs * a / c) <= tol, case

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(["vertical", "leverage"]),
        log_c=st.floats(-3.0, 3.0),
    )
    @example(seed=0, kind="vertical", log_c=3.0)
    @example(seed=1, kind="leverage", log_c=-3.0)
    def test_fit_is_equivariant(self, seed, kind, log_c):
        ds, w = self.draw(seed, kind)
        c = 10.0 ** log_c
        self.assert_equivariant(ds, w, [(1.0, c, 1e-12), (c, 1.0, 1e-11)])

    @pytest.mark.parametrize("scalings", [
        [(1e-7, 1e-7, 1e-11), (1e-9, 1e-9, 1e-11)],  # both blocks
        [(1.0, 1e-13, 1e-12), (1.0, 1e13, 1e-12)],  # the response alone
    ], ids=["joint", "response"])
    @pytest.mark.parametrize("kind", ["vertical", "leverage"])
    def test_extreme_units(self, kind, scalings):
        ds, w = self.draw(0, kind)
        self.assert_equivariant(ds, w, scalings)
