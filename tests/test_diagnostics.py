import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssofr import (
    DegenerateDataError,
    ValidationError,
    fit_metrics,
    from_matrix,
    from_triplets,
    global_moran,
    grid_contiguity,
    local_morans_i,
    row_normalize,
)


class TestLocalMoran:
    def test_constant_response_rejected(self):
        w = grid_contiguity(2, 2, "rook")
        with pytest.raises(DegenerateDataError):
            local_morans_i(np.ones(4), w)

    def test_checkerboard_dispersion_hand_oracle(self):
        # 2x2 rook with values (+1, -1, -1, +1): every deviation is +-1 and
        # every spatial lag is the opposite sign, so I_i = 4*1*(-1)/4 = -1
        w = grid_contiguity(2, 2, "rook")
        y = np.array([1.0, -1.0, -1.0, 1.0])
        rep = local_morans_i(y, w)
        assert np.allclose(rep.local_i, -1.0)
        assert np.all(rep.local_i < 0)
        assert set(rep.quadrant) == {"High-Low", "Low-High"}

    def test_hot_spot_high_low(self):
        # one hot unit amid equal-valued neighbors on a 3x3 grid
        w = grid_contiguity(3, 3, "queen")
        y = np.zeros(9)
        y[4] = 9.0
        rep = local_morans_i(y, w)
        assert rep.quadrant[4] == "High-Low"
        assert rep.local_i[4] < 0

    def test_local_sums_to_global(self, rng):
        raw = rng.uniform(0, 1, (15, 15))
        w = row_normalize(raw)
        y = rng.standard_normal(15)
        rep = local_morans_i(y, w)
        # independent textbook global computation with S0 normalization
        assert rep.local_i.sum() / 15 == pytest.approx(rep.global_moran, abs=1e-12)
        assert rep.local_i.sum() == pytest.approx(
            15 * global_moran(y, w), abs=1e-10
        )

    def test_clustered_data_positive_global(self):
        w = grid_contiguity(4, 4, "rook")
        y = np.array([i // 8 for i in range(16)], dtype=float)
        y += 0.01 * np.arange(16)
        rep = local_morans_i(y, w)
        assert rep.global_moran > 0
        assert sum(q in ("High-High", "Low-Low") for q in rep.quadrant) > 8

    @pytest.mark.parametrize("normalize", [True, False])
    def test_neighborless_unit_has_no_quadrant(self, normalize):
        # unit 15 is cut off: its lag is 0, which the sign rule would read
        # as a high neighbourhood (Low-High for its negative deviation)
        raw = grid_contiguity(4, 4, "rook").w > 0
        raw[15, :] = raw[:, 15] = False
        w = from_matrix(raw, normalize=normalize)
        y = np.random.default_rng(5).standard_normal(16)
        rep = local_morans_i(y, w)
        assert rep.deviation[15] < 0.0 and rep.spatial_lag[15] == 0.0
        assert rep.quadrant[15] == "Neighborless"
        assert set(rep.quadrant[:15]) <= {"High-High", "Low-Low", "High-Low", "Low-High"}
        assert rep.local_i[15] == 0.0

    def test_permutation_equivariance(self, rng):
        raw = rng.uniform(0, 1, (10, 10))
        w = row_normalize(raw)
        y = rng.standard_normal(10)
        rep = local_morans_i(y, w)
        perm = rng.permutation(10)
        w2 = row_normalize(raw[np.ix_(perm, perm)])
        rep2 = local_morans_i(y[perm], w2)
        assert np.abs(rep2.local_i - rep.local_i[perm]).max() < 1e-12
        assert rep2.global_moran == pytest.approx(rep.global_moran, abs=1e-12)


class TestGlobalMoran:
    """`local_morans_i` and `global_moran` report one value, (n / S0) times
    sum_ij w_ij d_i d_j / sum_i d_i^2, whatever W's total weight S0."""

    @pytest.mark.parametrize("kind", ["binary", "row-normalized", "isolated unit", "csr"])
    def test_one_value_with_s0(self, kind):
        # "csr": a binary 8 x 8 rook W, sparse enough to be held in CSR form,
        # whose S0 is summed over its entries with no dense W
        side = 8 if kind == "csr" else 4
        n = side * side
        raw = grid_contiguity(side, side, "rook").w > 0
        if kind == "isolated unit":
            raw[15, :] = raw[:, 15] = False
        if kind == "csr":
            w = from_triplets(n, *np.nonzero(raw), np.ones(np.count_nonzero(raw)),
                              normalize=False)
        else:
            w = from_matrix(raw, normalize=kind != "binary")
        y = np.random.default_rng(5).standard_normal(n)
        rep = local_morans_i(y, w)
        assert ("held='csr'" in repr(w)) == (kind == "csr")
        dev = y - y.mean()
        s0 = w.w.sum()
        textbook = n / s0 * (dev @ w.w @ dev) / (dev @ dev)
        assert rep.global_moran == global_moran(y, w)
        assert rep.global_moran == pytest.approx(textbook, rel=1e-12)
        assert rep.local_i.sum() == pytest.approx(s0 * rep.global_moran, rel=1e-12)

    def test_zero_total_weight_rejected(self):
        w = from_matrix(np.zeros((4, 4)))
        with pytest.raises(ValidationError, match="zero total weight"):
            local_morans_i(np.arange(4.0), w)


class TestFitMetrics:
    def test_perfect_fit(self):
        y = np.arange(10.0)
        for t in (0.0, 0.1, 0.3):
            rep = fit_metrics(y, y, t)
            assert rep.mse == 0.0
            assert rep.r2 == 1.0

    def test_mean_predictor_zero_r2(self):
        y = np.arange(10.0)
        rep = fit_metrics(y, np.full(10, y.mean()), 0.0)
        assert rep.r2 == pytest.approx(0.0, abs=1e-12)

    def test_trimming_drops_largest_residual(self):
        # one squared residual of 1e4 and nine of 1; 10% trim removes the big one
        y = np.zeros(10)
        yh = np.full(10, 1.0)
        yh[0] = 100.0
        rep = fit_metrics(y, yh, 0.1)
        assert rep.mse == pytest.approx(1.0)
        assert rep.trimmed_indices == (0,)
        assert rep.n_used == 9

    def test_untrimmed_dominates(self):
        y = np.zeros(10)
        yh = np.full(10, 1.0)
        yh[0] = 100.0
        assert fit_metrics(y, yh, 0.1).mse <= fit_metrics(y, yh, 0.0).mse

    def test_bad_trim_fraction(self):
        with pytest.raises(ValidationError):
            fit_metrics(np.zeros(4), np.zeros(4), 0.7)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_mse_monotone_in_trim(self, seed):
        r = np.random.default_rng(seed)
        y = r.standard_normal(40)
        yh = y + r.standard_normal(40)
        mses = [fit_metrics(y, yh, t).mse for t in (0.0, 0.05, 0.1, 0.2, 0.3)]
        assert all(b <= a + 1e-12 for a, b in zip(mses, mses[1:]))
