import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ssofr import (
    NumericalError,
    SarDesign,
    SimSpec,
    SpatialWeights,
    ValidationError,
    from_matrix,
    from_triplets,
    grid_contiguity,
    haversine_distance,
    inverse_distance_weights,
    m_fit,
    ml_fit,
    row_normalize,
    simulate,
)
import ssofr.simulation
from ssofr.weights import _CSR_FILL, _matvec, _symmetrizer, _to_csr, check_rho

from conftest import reference_from_matrix, reference_grid, reference_symmetrizer


def general_spectrum(w):
    """Reference for the general route: the nonsymmetric `eigvals` and the
    rho interval from its real eigenvalues."""
    eigs = np.linalg.eigvals(w)
    scale = max(1.0, float(np.abs(eigs).max()))
    real = eigs[np.abs(eigs.imag) <= 1e-9 * scale].real
    lam_min = float(real.min()) if real.size and real.min() < 0.0 else -1.0
    lam_max = float(real.max()) if real.size else 1.0
    upper = 1.0 / lam_max if lam_max > 1.0 + 1e-9 else 1.0
    return eigs, (-1.0 / abs(lam_min), upper)


def assert_symmetric_route_matches_general(w, row_normalized):
    assert _symmetrizer(w) is not None
    eigs, bounds = general_spectrum(w.w)
    scale = max(1.0, float(np.abs(eigs).max()))
    assert w.eigvals.dtype == np.float64
    assert np.all(np.diff(w.eigvals) >= 0.0)
    assert np.abs(eigs.imag).max() <= 1e-12 * scale
    assert np.abs(w.eigvals - np.sort(eigs.real)).max() <= 1e-12 * scale
    assert w.rho_bounds == pytest.approx(bounds, rel=1e-10, abs=1e-10)
    if row_normalized:
        assert w.rho_bounds[1] == 1.0
    lo, hi = w.rho_bounds
    eye = np.eye(w.n)
    for rho in (0.9 * lo, 0.3 * lo, 0.0, 0.5 * hi, 0.9 * hi):
        a = eye - rho * w.w
        assert w.logdet(rho) == pytest.approx(np.linalg.slogdet(a)[1], rel=1e-10, abs=1e-10)
        assert w.trace_g(rho) == pytest.approx(
            np.trace(w.w @ np.linalg.inv(a)), rel=1e-10, abs=1e-10
        )


class TestHaversine:
    def test_identical_points(self):
        assert haversine_distance(40.0, -75.0, 40.0, -75.0) == 0.0

    def test_antipodal_half_circumference(self):
        assert haversine_distance(0.0, 0.0, 0.0, 180.0) == pytest.approx(
            np.pi * 6371.0, abs=1e-6
        )

    def test_quarter_great_circle(self):
        assert haversine_distance(0.0, 0.0, 0.0, 90.0) == pytest.approx(
            np.pi * 6371.0 / 2, abs=1e-6
        )

    def test_symmetry_and_triangle(self, rng):
        for _ in range(20):
            lat = rng.uniform(-80, 80, 3)
            lon = rng.uniform(-170, 170, 3)
            d01 = haversine_distance(lat[0], lon[0], lat[1], lon[1])
            d10 = haversine_distance(lat[1], lon[1], lat[0], lon[0])
            d02 = haversine_distance(lat[0], lon[0], lat[2], lon[2])
            d12 = haversine_distance(lat[1], lon[1], lat[2], lon[2])
            assert d01 == d10
            assert d01 <= d02 + d12 + 1e-9

    def test_latitude_validation(self):
        with pytest.raises(ValidationError):
            haversine_distance(95.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("args, what", [
        ((np.nan, 0.0, 0.0, 0.0), "latitude"),
        ((0.0, 0.0, [0.0, np.nan], 0.0), "latitude"),
        ((0.0, np.nan, 0.0, 0.0), "longitude"),
        ((0.0, 0.0, 0.0, [np.nan, 1.0]), "longitude"),
    ])
    def test_nan_is_rejected(self, args, what):
        with pytest.raises(ValidationError, match=f"^{what} outside .* or not a number$"):
            haversine_distance(*args)


class TestInverseDistanceWeights:
    def test_two_points(self):
        w = inverse_distance_weights([0.0, 0.0], [0.0, 1.0])
        assert np.allclose(w.w, [[0, 1], [1, 0]])
        assert w.lambda_min == pytest.approx(-1.0, abs=1e-12)
        assert w.rho_bounds[0] == pytest.approx(-1.0, abs=1e-10)
        assert w.rho_bounds[1] == 1.0

    def test_three_collinear_hand_oracle(self):
        # equator points at lon 0, 1, 3: distances proportional to 1, 2, 3,
        # so row 0 is (0, (1/1)/(1/1+1/3), (1/3)/(1/1+1/3)) = (0, 0.75, 0.25)
        w = inverse_distance_weights([0.0, 0.0, 0.0], [0.0, 1.0, 3.0])
        assert w.w[0] == pytest.approx([0.0, 0.75, 0.25], abs=1e-12)
        assert w.w[1] == pytest.approx([2 / 3, 0.0, 1 / 3], abs=1e-12)
        assert w.w[2] == pytest.approx([0.4, 0.6, 0.0], abs=1e-9)

    def test_equilateral_triangle(self):
        # two equator points 90 degrees apart plus the pole: all pairwise
        # great-circle distances equal a quarter circumference
        lat = [0.0, 0.0, 90.0]
        lon = [0.0, 90.0, 0.0]
        w = inverse_distance_weights(lat, lon)
        off = w.w[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5, atol=1e-9)

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ValidationError):
            inverse_distance_weights([1.0, 1.0], [2.0, 2.0])

    @pytest.mark.parametrize("lat, lon, pair", [
        ([10.0, 10.0, 20.0], [180.0, -180.0, 0.0], (0, 1)),
        ([20.0, 10.0, 10.0], [0.0, -180.0, 180.0], (1, 2)),
        ([90.0, 0.0, 90.0], [10.0, 0.0, -30.0], (0, 2)),
        ([0.0, -90.0, 5.0, -90.0], [0.0, 180.0, 5.0, -180.0], (1, 3)),
        # the first pair in row-major order, as the d == 0 test names it
        ([5.0, 1.0, 5.0, 1.0, 1.0], [0.0, 2.0, 0.0, 2.0, 2.0], (0, 2)),
        ([1.0, 5.0, 3.0, 5.0, 1.0], [2.0, 0.0, 7.0, 0.0, 2.0], (0, 4)),
    ])
    def test_one_place_written_two_ways_is_a_duplicate(self, lat, lon, pair):
        with pytest.raises(ValidationError,
                           match=f"^duplicate coordinates for units {pair[0]} and {pair[1]}$"):
            inverse_distance_weights(lat, lon)

    def test_underflowing_distance_is_a_duplicate(self):
        # distinct longitudes whose difference underflows in sin(dv / 2)^2
        with pytest.raises(ValidationError, match="^duplicate coordinates for units 0 and 2$"):
            inverse_distance_weights([0.0, 1.0, 0.0], [0.0, 1.0, 1e-300])

    @pytest.mark.parametrize("lat, lon, what", [
        ([0.0, np.nan, 2.0], [0.0, 1.0, 2.0], "latitude"),
        ([0.0, 1.0, 2.0], [0.0, 1.0, np.nan], "longitude"),
    ])
    def test_nan_coordinate_is_rejected(self, lat, lon, what):
        with pytest.raises(ValidationError, match=f"^{what} outside .* or not a number$"):
            inverse_distance_weights(lat, lon)


def broadcast_idw(lat, lon):
    """Reference for `inverse_distance_weights`: d from one broadcast
    `haversine_distance` over all n^2 pairs, which must be exactly
    symmetric, with an infinite diagonal, and W = row_normalize(1 / d)."""
    lat, lon = np.asarray(lat, dtype=float), np.asarray(lon, dtype=float)
    d = haversine_distance(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
    assert np.array_equal(d, d.T)
    np.fill_diagonal(d, np.inf)
    return row_normalize(1.0 / d).w


def one_place(point):
    """(lat, lon) with longitude -180 written 180 and any longitude at a
    pole written 0: equal for one place written two ways."""
    lat, lon = point
    return lat, 0.0 if abs(lat) == 90.0 else 180.0 if lon == -180.0 else lon


class TestRowBlockedDistances:
    """The row blocks over the upper triangle give the broadcast's W bit
    for bit: one block (n = 181 at 32768 entries a block), two blocks whose
    last has two rows (n = 182), and many."""

    @pytest.mark.parametrize("n", [2, 3, 181, 182, 400, 901])
    def test_bits_match_the_broadcast(self, n):
        rng = np.random.default_rng(n)
        lat, lon = rng.uniform(-5.0, 5.0, (2, n))
        got = inverse_distance_weights(lat, lon).w
        np.testing.assert_array_equal(got.view(np.int64), broadcast_idw(lat, lon).view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.one_of(st.floats(-90.0, 90.0), st.sampled_from([-90.0, -89.999999, 89.5, 90.0])),
            st.one_of(st.floats(-180.0, 180.0),
                      st.sampled_from([-180.0, -179.999999, 179.999999, 180.0])),
        ),
        min_size=2, max_size=40, unique_by=one_place,
    ))
    def test_bits_match_the_broadcast_on_any_globe(self, points):
        lat, lon = np.array(points).T
        d = haversine_distance(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
        assume(np.count_nonzero(d == 0.0) == lat.size)
        got = inverse_distance_weights(lat, lon).w
        np.testing.assert_array_equal(got.view(np.int64), broadcast_idw(lat, lon).view(np.int64))


class TestGridContiguity:
    def test_2x2_rook(self):
        w = grid_contiguity(2, 2, "rook")
        assert np.allclose(w.w.sum(axis=1), 1.0)
        for i in range(4):
            assert np.sum(w.w[i] > 0) == 2
            assert np.allclose(w.w[i][w.w[i] > 0], 0.5)

    def test_3x3_queen_center(self):
        w = grid_contiguity(3, 3, "queen")
        center = 4
        assert np.sum(w.w[center] > 0) == 8
        assert np.allclose(w.w[center][w.w[center] > 0], 0.125)

    def test_1x5_rook_chain(self):
        w = grid_contiguity(1, 5, "rook")
        assert np.allclose(w.w[2][[1, 3]], 0.5)
        assert w.w[0, 1] == 1.0
        assert w.w[4, 3] == 1.0

    @pytest.mark.parametrize("rows, cols", [(2.5, 2), (3, 4.0), ("3", 3), (None, 2)])
    def test_non_integer_sides_rejected(self, rows, cols):
        with pytest.raises(ValidationError, match="rows and cols must be integers"):
            grid_contiguity(rows, cols)

    def test_numpy_integer_sides(self):
        w = grid_contiguity(np.int64(3), np.int32(4), "queen")
        assert w.n == 12
        assert np.array_equal(w.w, grid_contiguity(3, 4, "queen").w)


class TestRhoBounds:
    def test_two_point_bounds(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        lo, hi = from_matrix(w, normalize=False).rho_bounds
        assert lo == pytest.approx(-1.0)
        assert hi == 1.0

    def test_upper_bound_of_unnormalized_matrix(self):
        # eigenvalues +-sqrt(6): I - rho W is singular at rho = 1/sqrt(6)
        w = from_matrix([[0.0, 2.0], [3.0, 0.0]], normalize=False)
        lo, hi = w.rho_bounds
        assert lo == pytest.approx(-1 / np.sqrt(6), abs=1e-12)
        assert hi == pytest.approx(1 / np.sqrt(6), abs=1e-12)
        assert abs(np.linalg.det(np.eye(2) - hi * w.w)) < 1e-12
        for rho in np.linspace(lo, hi, 9)[1:-1]:
            assert abs(np.linalg.det(np.eye(2) - rho * w.w)) > 0.1
        # W is not D^{-1} A with symmetric A, but diag(3, 2) W is symmetric
        assert_symmetric_route_matches_general(w, row_normalized=False)

    @pytest.mark.parametrize("build", [
        lambda: grid_contiguity(4, 5, "rook"),
        lambda: grid_contiguity(4, 5, "queen"),
        lambda: inverse_distance_weights([0.0, 1.0, 2.0, 5.0], [0.0, 3.0, 1.0, 2.0]),
        lambda: row_normalize(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])),
    ])
    def test_row_normalized_upper_bound_is_one(self, build):
        assert build().rho_bounds[1] == 1.0

    def test_queen_grid_vs_dense_eigen_oracle(self):
        w = grid_contiguity(3, 3, "queen")
        eigs = np.linalg.eigvals(w.w)
        real = eigs[np.abs(eigs.imag) < 1e-9].real
        oracle_min = real.min()
        assert w.lambda_min == pytest.approx(oracle_min, abs=1e-10)
        assert w.rho_bounds[0] == pytest.approx(-1 / abs(oracle_min), abs=1e-10)

    def test_transpose_invariance_for_symmetric_raw(self, rng):
        raw = rng.uniform(0, 1, (6, 6))
        raw = raw + raw.T
        w1 = row_normalize(raw)
        w2 = row_normalize(raw.T)
        assert w1.rho_bounds[0] == pytest.approx(w2.rho_bounds[0], abs=1e-9)

    def test_invertibility_inside_bounds(self, rng):
        raw = rng.uniform(0, 1, (12, 12))
        w = row_normalize(raw)
        lo, hi = w.rho_bounds
        width = hi - lo
        for rho in np.linspace(lo + 0.005 * width, hi - 0.005 * width, 20):
            a = np.eye(12) - rho * w.w
            assert np.isfinite(np.linalg.cond(a))
            assert np.linalg.cond(a) < 1e12


class TestRowNormalize:
    def test_row_stochastic(self, rng):
        raw = rng.uniform(0, 2, (9, 9))
        w = row_normalize(raw)
        assert np.abs(w.w.sum(axis=1) - 1.0).max() < 1e-12
        assert np.all(np.diag(w.w) == 0.0)

    def test_isolated_unit_flagged(self):
        raw = np.zeros((3, 3))
        raw[0, 1] = raw[1, 0] = 1.0
        w = row_normalize(raw)
        assert w.isolated.tolist() == [False, False, True]
        assert np.all(w.w[2] == 0.0)

    def test_no_normalize_keeps_rows(self):
        raw = np.array([[0.0, 2.0], [3.0, 0.0]])
        w = from_matrix(raw, normalize=False)
        assert np.allclose(w.w, raw)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            row_normalize(np.ones((2, 3)))

    @pytest.mark.parametrize("normalize", [True, False])
    def test_rejects_negative_weights(self, normalize):
        # the row (0, 1, -1) sums to 0 and would pass as an isolated unit
        raw = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValidationError, match=r"negative weight at \(0, 2\)"):
            from_matrix(raw, normalize=normalize)

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(1, 1), (0, 2), (2, 0)])
    def test_rejects_non_finite_weights(self, normalize, bad, at):
        # also on the diagonal, which is zeroed before the row sums are
        # taken, and before the negative weight at (0, 2) is named
        raw = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        raw[at] = bad
        with pytest.raises(ValidationError, match="non-finite values"):
            from_matrix(raw, normalize=normalize)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        normalize=st.booleans(),
        layout=st.sampled_from(["C", "F", "int", "list"]),
        huge=st.booleans(),
    )
    def test_matches_the_reference(self, n, seed, normalize, layout, huge):
        # the same bits of W and isolated as the copy-and-mask version,
        # C-ordered, for sparse rows, all-zero rows, integer and Fortran
        # input, and rows whose finite entries sum to inf
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.0, 3.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.5)
        raw[rng.integers(n)] = 0.0
        if huge and layout != "int":
            raw[rng.integers(n)] = 1e308
        if layout == "int":
            raw = np.rint(raw).astype(int)
        elif layout == "F":
            raw = np.asfortranarray(raw)
        elif layout == "list":
            raw = raw.tolist()
        with np.errstate(over="ignore"):
            w = from_matrix(raw, normalize=normalize)
            ref_w, ref_isolated = reference_from_matrix(raw, normalize=normalize)
        assert w.w.flags.c_contiguous
        assert w.w.tobytes() == ref_w.tobytes()
        assert np.array_equal(w.isolated, ref_isolated)


class TestSpectrum:
    def test_replace_shares_the_eigenvalues(self):
        import dataclasses

        w = grid_contiguity(3, 3, "queen")
        copy = dataclasses.replace(w, w=w.w.copy())
        assert copy.eigvals is w.eigvals
        assert copy.rho_bounds == w.rho_bounds
        assert copy.lambda_min == w.lambda_min

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 10),
        seed=st.integers(0, 2**32 - 1),
        normalize=st.booleans(),
        symmetric=st.booleans(),
        frac=st.floats(-1.2, 1.2),
    )
    def test_check_rho_without_the_spectrum_agrees_with_the_bounds(
        self, n, seed, normalize, symmetric, frac
    ):
        # rho at frac / max(1, s), s the largest row sum of W: a fresh
        # object, whose spectrum is unknown, is admitted or refused exactly as
        # the interval from the eigenvalues decides
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.0, 3.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        if symmetric:
            raw = raw + raw.T
        isolated = rng.uniform(size=n) < 0.2
        raw[isolated] = 0.0
        raw[:, isolated] = 0.0
        exact = from_matrix(raw, normalize=normalize)
        assume(abs(abs(frac) - 1.0) > 1e-9)
        rho = frac / max(1.0, np.abs(exact.w).sum(axis=1).max())
        lo, hi = exact.rho_bounds
        fresh = from_matrix(raw, normalize=normalize)
        assert "eigvals" not in fresh.__dict__
        if lo < rho < hi:
            check_rho(rho, fresh)
        else:
            with pytest.raises(NumericalError, match="admissible"):
                check_rho(rho, fresh)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 9),
        seed=st.integers(0, 2**32 - 1),
        frac=st.floats(-0.9, 0.9),
    )
    def test_unit_permutation(self, n, seed, frac):
        # the spectrum of W, and so everything built on it, does not depend
        # on the order of the units
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0, 1, (n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        raw = raw + raw.T
        perm = rng.permutation(n)
        w = row_normalize(raw)
        wp = row_normalize(raw[np.ix_(perm, perm)])
        assert wp.rho_bounds == pytest.approx(w.rho_bounds, rel=1e-10, abs=1e-10)
        lo, hi = w.rho_bounds
        rho = frac * (hi if frac > 0 else -lo)
        assert wp.logdet(rho) == pytest.approx(w.logdet(rho), rel=1e-10, abs=1e-10)
        assert wp.trace_g(rho) == pytest.approx(w.trace_g(rho), rel=1e-10, abs=1e-10)
        mu = rng.standard_normal(n)
        y = w.reduced_form(rho, mu)
        assert np.allclose(wp.reduced_form(rho, mu[perm]), y[perm], rtol=1e-10, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    def test_symmetric_route_matches_general_route(self, n, seed):
        # W = D^{-1} A with symmetric A, reached four ways: row-normalized with
        # isolated units, the same W again with normalize=False, a
        # re-normalized sub-block, and the unnormalized A itself
        rng = np.random.default_rng(seed)
        raw = np.triu(rng.uniform(0.1, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.5), 1)
        raw = raw + raw.T
        isolated = rng.uniform(size=n) < 0.2
        raw[isolated] = 0.0
        raw[:, isolated] = 0.0
        w = row_normalize(raw)
        sub = np.sort(rng.permutation(n)[: max(2, n - 2)])
        assert_symmetric_route_matches_general(w, row_normalized=True)
        assert_symmetric_route_matches_general(
            from_matrix(w.w, normalize=False), row_normalized=True
        )
        assert_symmetric_route_matches_general(
            row_normalize(w.w[np.ix_(sub, sub)]), row_normalized=True
        )
        assert_symmetric_route_matches_general(
            from_matrix(raw, normalize=False), row_normalized=False
        )

    @pytest.mark.parametrize("kind", ["rook", "queen", "idw"])
    def test_symmetric_w_has_the_unit_symmetrizer(self, kind):
        # every built-in scheme's unnormalized adjacency is exactly
        # symmetric: d = 1
        w = solve_weights(kind, normalize=False, size=5, seed=3)
        assert np.array_equal(w.w, w.w.T)
        assert np.array_equal(_symmetrizer(w)[0], np.ones(w.n))

    @pytest.mark.parametrize("raw, normalize", [
        # W_01 > 0 but W_10 = 0
        (np.array([[0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0.0]]), True),
        # symmetric pattern, but the weight ratios around the cycle 0-1-2
        # multiply to 2, not 1
        (np.array([[0, 1, 1], [1, 0, 1], [1, 2, 0.0]]), False),
    ])
    def test_non_symmetrizable_w_takes_the_general_route(self, raw, normalize):
        w = from_matrix(raw, normalize=normalize)
        assert _symmetrizer(w) is None
        eigs, bounds = general_spectrum(w.w)
        assert np.array_equal(w.eigvals, eigs)
        assert w.rho_bounds == bounds
        b = np.arange(1.0, w.n + 1.0)
        assert np.array_equal(w.solve(0.3, b), np.linalg.solve(np.eye(w.n) - 0.3 * w.w, b))


def assert_bipartite_route(raw, normalize, seed):
    """W from `raw` and the same W with its units in random order: both
    have colour classes that no nonzero entry of W joins to themselves,
    take the singular values of the off-diagonal block, match `eigvalsh` of
    S = D^{1/2} W D^{-1/2} to 1e-12 of max(1, max |lambda|), and give ML
    fits whose rho agrees to 1e-12."""
    rng = np.random.default_rng(seed)
    n = raw.shape[0]
    perm = rng.permutation(n)
    Z = np.column_stack([np.ones(n), rng.standard_normal(n)])
    e = rng.standard_normal(n)
    rhos = []
    for order in (np.arange(n), perm):
        w = from_matrix(raw[np.ix_(order, order)], normalize=normalize)
        d, classes = w._scaling
        assert classes is not None
        ref_d, ref_classes = reference_symmetrizer(w.w)
        assert _same_bits(d, ref_d) and all(map(_same_bits, classes, ref_classes))
        p, q = classes
        assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(n))
        assert not w.w[np.ix_(p, p)].any() and not w.w[np.ix_(q, q)].any()
        s = np.sqrt(d)
        ref = scipy.linalg.eigvalsh(w.w * s[:, None] / s)
        tol = 1e-12 * max(1.0, float(np.abs(ref).max()))
        lam_min = float(ref.min()) if ref.min() < 0.0 else -1.0
        lam_max = float(ref.max()) if ref.max() > 1.0 + 1e-9 else 1.0
        assert w.eigvals.dtype == np.float64
        assert np.all(np.diff(w.eigvals) >= 0.0)
        assert np.abs(w.eigvals - ref).max() <= tol
        assert abs(w.lambda_min - lam_min) <= tol
        # the bounds are the reciprocals of lambda_min and max(1, lambda_max)
        assert np.abs(1.0 / np.array(w.rho_bounds) - [lam_min, lam_max]).max() <= tol
        mu = Z[order] @ np.array([1.0, 0.5]) + e[order]
        design = SarDesign(Y=w.reduced_form(0.4 * w.rho_bounds[1], mu), Z=Z[order], weights=w)
        rhos.append(ml_fit(design).rho)
    assert abs(rhos[1] - rhos[0]) <= 1e-12


def solve_weights(kind, normalize, size, seed):
    """Weights of one kind: rook or queen contiguity on a grid, inverse
    distances, or a dense random matrix (no symmetrizer), row-normalized or
    raw."""
    rng = np.random.default_rng(seed)
    if kind in ("rook", "queen"):
        raw = (grid_contiguity(size, size + 1, kind).w > 0.0).astype(float)
    elif kind == "idw":
        lat, lon = rng.uniform(-5.0, 5.0, (2, 4 * size))
        d = haversine_distance(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
        raw = 1.0 / (d + np.eye(d.shape[0]))  # from_matrix zeroes the diagonal
    else:
        raw = rng.uniform(0.0, 1.0, (4 * size, 4 * size))
    return from_matrix(raw, normalize=normalize)


class TestSolve:
    """`solve` and `reduced_form` against dense LU: CG on the symmetrized
    system, the LU it falls back to near the bounds, and LU for a W with no
    symmetrizer."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["rook", "queen", "idw", "asymmetric"]),
        normalize=st.booleans(),
        size=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        t=st.floats(0.0, 1.0),
    )
    def test_matches_dense_solve(self, kind, normalize, size, seed, t):
        w = solve_weights(kind, normalize, size, seed)
        assert (w._scaling is None) == (kind == "asymmetric")
        b = np.random.default_rng(seed).standard_normal(w.n)
        lo, hi = w.rho_bounds
        margin = 1e-8 * (hi - lo)
        eye = np.eye(w.n)
        for rho in (lo + margin, lo + margin + t * (hi - lo - 2.0 * margin), hi - margin):
            x = w.solve(rho, b)
            ref = np.linalg.solve(eye - rho * w.w, b)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
            assert np.array_equal(w.reduced_form(rho, b), x) or rho == 0.0
        assert w.reduced_form(0.0, b) is b

    def test_lu_takes_over_near_the_bounds(self):
        # CG solves inside the interval; within 1e-8 of its width from a
        # bound, the solution is dominated by the near-null direction of
        # I - rho W, the recomputed residual fails and dense LU answers
        w = grid_contiguity(6, 7, "queen")
        b = np.random.default_rng(5).standard_normal(w.n)
        lo, hi = w.rho_bounds
        margin = 1e-8 * (hi - lo)
        eye = np.eye(w.n)
        for rho, dense in ((0.5, False), (-0.9, False), (lo + margin, True), (hi - margin, True)):
            events = []
            x = w.solve(rho, b, events=events)
            assert events == ([f"dense solve at rho={rho:.6g}"] if dense else [])
            ref = np.linalg.solve(eye - rho * w.w, b)
            if dense:
                assert np.array_equal(x, ref)
            else:
                assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def _uniform_w(n):
    """Row-normalized uniform random weights: a full, so symmetric, pattern
    and no symmetrizer."""
    return row_normalize(np.random.default_rng(n).uniform(0.0, 1.0, (n, n)))


def _skewed_cycle():
    """A 4-cycle among 16 units (12 of them isolated), held in CSR form,
    whose weight ratios W_ij / W_ji multiply to 2 around the cycle: a
    symmetric pattern and no symmetrizer."""
    i = [0, 1, 1, 2, 2, 3, 3, 0]
    j = [1, 0, 2, 1, 3, 2, 0, 3]
    return from_triplets(16, i, j, [1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0], normalize=False)


class TestSolveRoute:
    """`solve` runs CG on the d of the pattern search before anything
    checks that d: its recomputed residual certifies each answer. The
    value check runs on the first spectrum read, or once after the first
    CG failure on an object, and then decides the object's route."""

    @pytest.fixture()
    def mismatches(self, monkeypatch):
        """Sizes of the blocks that the value check compares."""
        calls = []

        def counted(entry, mirror, _real=ssofr.weights._mismatch):
            calls.append(entry.size)
            return _real(entry, mirror)

        monkeypatch.setattr(ssofr.weights, "_mismatch", counted)
        return calls

    @pytest.fixture()
    def cg_failures(self, monkeypatch):
        """The failed CG solves of each weights object, by its id."""
        failures = {}

        def counted(matvec, s, rho, b, _real=ssofr.weights._cg):
            x = _real(matvec, s, rho, b)
            if x is None:
                key = id(matvec.__self__)
                failures[key] = failures.get(key, 0) + 1
            return x

        monkeypatch.setattr(ssofr.weights, "_cg", counted)
        return failures

    @pytest.mark.parametrize("build", [
        lambda: inverse_distance_weights(*np.random.default_rng(8).uniform(-5.0, 5.0, (2, 400))),
        lambda: row_normalize(_uniform_w(400).w + _uniform_w(400).w.T),
    ], ids=["idw 400", "symmetrized uniform 400"])
    def test_symmetrizable_dense_w_solves_without_the_value_check(self, build, mismatches):
        w = build()
        assert w._csr is None
        b = np.random.default_rng(9).standard_normal(w.n)
        check_rho(0.5, w)
        x = w.solve(0.5, b)
        assert mismatches == []
        assert "_scaling" not in w.__dict__ and "eigvals" not in w.__dict__
        known = build()
        known.eigvals
        assert mismatches and known._scaling is not None
        assert _same_bits(known.solve(0.5, b), x)

    @pytest.mark.parametrize("build", [lambda: _uniform_w(36), lambda: _uniform_w(400),
                                       _skewed_cycle],
                             ids=["uniform 36", "uniform 400", "skewed 4-cycle"])
    def test_w_without_a_symmetrizer(self, build, eig_calls, cg_failures):
        # CG on the search's d passes its residual test at |rho| <= 0.3 on
        # these W and fails at rho = 0.4; the first failure runs the value
        # check, and LU answers from then on
        w = build()
        assert w._forest is not None  # a finite, positive d for CG to try
        assert (w._csr is not None) == (build is _skewed_cycle)
        rng = np.random.default_rng(w.n)
        b = rng.standard_normal(w.n)
        eye = np.eye(w.n)
        for k, rho in enumerate((0.2, 0.4, -0.3, 0.2, 0.4)):
            x = w.solve(rho, b)
            ref = np.linalg.solve(eye - rho * w.w, b)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
            assert ("_scaling" in w.__dict__) == (k > 0)
            if k > 1:
                assert _same_bits(x, ref)
        assert w._scaling is None
        assert list(cg_failures.values()) == [1]
        eig_calls.clear()
        w.eigvals
        assert eig_calls == ["eigvals"]
        # an M fit on fresh weights fails CG at most once
        Z = np.column_stack([np.ones(w.n), rng.standard_normal(w.n)])
        y = np.linalg.solve(eye - 0.2 * w.w, Z @ [1.0, 0.5] + rng.standard_normal(w.n))
        cg_failures.clear()
        fit = m_fit(SarDesign(Y=y, Z=Z, weights=build()))
        assert np.isfinite(fit.rho)
        assert max(cg_failures.values(), default=0) <= 1


class TestBipartiteSpectrum:
    """A bipartite pattern takes the singular values of the off-diagonal
    block of S; any other pattern takes `eigvalsh`."""

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(2, 12),
        cols=st.integers(2, 12),
        normalize=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rook_grids(self, rows, cols, normalize, seed):
        raw = (grid_contiguity(rows, cols, "rook").w > 0.0).astype(float)
        assert_bipartite_route(raw, normalize, seed)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(["path", "tree", "even cycle"]),
        size=st.integers(3, 20),
        isolated=st.integers(0, 3),
        normalize=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # the two unit orders gave ML rho 1.0002e-12 apart while Brent stopped
    # at 1e-12 of the interval
    @example(shape="path", size=3, isolated=0, normalize=True, seed=2759)
    def test_random_weights_on_forests_and_even_cycles(
        self, shape, size, isolated, normalize, seed
    ):
        rng = np.random.default_rng(seed)
        m = 2 * size if shape == "even cycle" else size
        n = m + isolated
        parent = np.arange(-1, m - 1) if shape != "tree" else [
            -1, *(rng.integers(0, i) for i in range(1, m))
        ]
        raw = np.zeros((n, n))
        for i in range(1, m):
            raw[i, parent[i]] = raw[parent[i], i] = rng.uniform(0.1, 2.0)
        if shape == "even cycle":
            raw[0, m - 1] = raw[m - 1, 0] = rng.uniform(0.1, 2.0)
        assert_bipartite_route(raw, normalize, seed)

    @pytest.mark.parametrize("build", [
        lambda: from_matrix(np.ones((3, 3)), normalize=False),
        lambda: row_normalize(
            np.roll(np.eye(5), 1, axis=1) + np.roll(np.eye(5), -1, axis=1)
        ),
        lambda: grid_contiguity(5, 6, "queen"),
        lambda: inverse_distance_weights([0.0, 1.0, 2.0, 5.0], [0.0, 3.0, 1.0, 2.0]),
    ], ids=["triangle", "5-cycle", "queen", "inverse distance"])
    def test_odd_cycles_take_eigvalsh(self, build, eig_calls):
        w = build()
        assert w._scaling is not None
        d, classes = w._scaling
        assert classes is None
        ref_d, ref_classes = reference_symmetrizer(w.w)
        assert _same_bits(d, ref_d) and ref_classes is None
        s = np.sqrt(d)
        eig_calls.clear()
        eigs = w.eigvals
        assert eig_calls == ["eigvalsh"]
        ref = scipy.linalg.eigvalsh(w.w * s[:, None] / s)
        assert np.abs(eigs - ref).max() <= 1e-12 * max(1.0, float(np.abs(ref).max()))

    def test_no_edges_has_zero_eigenvalues(self, eig_calls):
        w = from_matrix(np.zeros((5, 5)))
        assert w.isolated.all()
        assert np.array_equal(w.eigvals, np.zeros(5))
        assert w.rho_bounds == (-1.0, 1.0)
        assert eig_calls == []


def grid_with_isolated(rows, cols, kind, where, normalize, seed):
    """Binary rook or queen contiguity on a rows x cols grid with its units
    in random order, then isolated units (zero rows and columns) first, in
    the middle, last or at all three, as `where` names; then `from_matrix`."""
    n = rows * cols
    grid = np.zeros((1, 1)) if n == 1 else (grid_contiguity(rows, cols, kind).w > 0.0) * 1.0
    order = np.random.default_rng(seed).permutation(n)
    at = {"none": [], "first": [0], "middle": [n // 2], "last": [n], "all": [0, n // 2, n]}
    at = np.array(at[where], dtype=int)
    grid = np.insert(np.insert(grid[np.ix_(order, order)], at, 0.0, axis=0), at, 0.0, axis=1)
    return from_matrix(grid, normalize=normalize)


def perturbed(w, off):
    """Copies of w with one mirror entry W_ji of a nonzero W_ij scaled by
    1 + off (off = -1 removes it from the pattern): one near the first
    entry, one mid-way, one near the last."""
    nz = np.argwhere(w != 0.0)
    out = []
    for i, j in nz[[0, len(nz) // 2, -1]]:
        v = w.copy()
        v[j, i] *= 1.0 + off
        out.append(v)
    return out


class TestCsr:
    """The CSR form of W that the search of its pattern keeps when the
    pattern is sparse: the matvec it serves, and the value check that reads
    it."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 30),
        cols=st.integers(1, 30),
        kind=st.sampled_from(["rook", "queen"]),
        where=st.sampled_from(["none", "first", "middle", "last", "all"]),
        normalize=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matvec_matches_dense_product(self, rows, cols, kind, where, normalize, seed):
        assume(rows * cols + (where != "none") >= 2)
        w = grid_with_isolated(rows, cols, kind, where, normalize, seed)
        x = np.random.default_rng(seed).standard_normal(w.n)
        ref = w.w @ x
        tol = 1e-15 * max(1.0, float((np.abs(w.w) @ np.abs(x)).max()))
        csr = _to_csr(w.w, w.w != 0.0)
        assert np.abs(_matvec(csr, x) - ref).max() <= tol
        assert np.abs(w.matvec(x) - ref).max() <= tol

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_no_edges(self, n):
        w = from_matrix(np.zeros((n, n)))
        csr = w._csr
        assert csr is not None and csr.data.size == 0
        x = np.arange(1.0, n + 1.0)
        assert np.array_equal(w.matvec(x), np.zeros(n))

    def test_empty_rows_at_both_ends_and_inside(self):
        # reduceat over all rows would give an empty row the next row's
        # first product, and clipping a trailing empty row's offset would
        # cut the last nonempty row short
        raw = np.zeros((6, 6))
        for i, j in ((1, 2), (2, 4), (1, 4)):
            raw[i, j] = raw[j, i] = 1.0 + i + j
        csr = _to_csr(raw, raw != 0.0)
        assert np.array_equal(csr.heads, [1, 2, 4])
        x = np.array([1e3, 1.0, 2.0, 1e5, 4.0, 1e7])
        assert np.array_equal(_matvec(csr, x), raw @ x)

    @pytest.mark.parametrize("build, sparse", [
        (lambda: grid_contiguity(20, 20, "queen"), True),
        (lambda: grid_contiguity(30, 30, "rook"), True),
        (lambda: grid_contiguity(12, 13, "queen"), True),
        (lambda: from_matrix(grid_contiguity(9, 10, "rook").w > 0.0, normalize=False), True),
        (lambda: grid_contiguity(5, 6, "queen"), False),
        (lambda: inverse_distance_weights(
            *np.random.default_rng(3).uniform(-5.0, 5.0, (2, 400))), False),
    ], ids=["queen 20x20", "rook 30x30", "queen 12x13", "binary rook 9x10",
            "queen 5x6", "idw 400"])
    def test_sparse_patterns_keep_csr(self, build, sparse):
        w = build()
        csr = w._csr
        assert (csr is not None) == sparse
        assert sparse == (np.count_nonzero(w.w) <= _CSR_FILL * w.n**2)
        if sparse:
            assert csr.heads is None
            assert np.array_equal(csr.data, w.w[w.w != 0.0])

    @pytest.mark.parametrize("build, symmetrizable", [
        (lambda: grid_contiguity(20, 20, "queen"), True),
        (lambda: grid_contiguity(9, 10, "rook"), True),
        (lambda: grid_with_isolated(12, 12, "queen", "all", True, 7), True),
        (lambda: from_matrix(_random_weights_on(grid_contiguity(12, 13, "queen").w, 11),
                             normalize=True), True),
        (lambda: from_matrix(_random_weights_on(grid_contiguity(10, 10, "rook").w, 12),
                             normalize=False), True),
        (lambda: inverse_distance_weights(*np.random.default_rng(4).uniform(-5.0, 5.0, (2, 60))),
         True),
        (lambda: from_matrix(grid_contiguity(20, 20, "queen").w > 0.0, normalize=False), True),
        (lambda: from_matrix(grid_contiguity(30, 30, "rook").w > 0.0, normalize=False), True),
        (lambda: from_matrix(_random_weights_on(np.ones((60, 60)), 13), normalize=False), True),
        (lambda: from_matrix(_one_way(_random_weights_on(np.ones((60, 60)), 14), 14)), False),
        (lambda: from_matrix(_one_way(grid_contiguity(12, 12, "queen").w, 15)), False),
    ], ids=["queen 20x20", "rook 9x10", "queen isolated", "weighted queen",
            "weighted rook raw", "idw 60", "binary queen 20x20", "binary rook 30x30",
            "dense exactly symmetric", "dense asymmetric pattern",
            "sparse asymmetric pattern"])
    def test_value_check_decides_as_the_row_block_check(self, build, symmetrizable):
        w = build().w
        for off, accepted in ((0.0, True), (5e-13, True), (2e-12, False), (-1.0, False)):
            for v in perturbed(w, off) if off else [w]:
                new, ref = _symmetrizer(SpatialWeights(w=v, scheme="custom")), reference_symmetrizer(v)
                assert (new is not None) == (ref is not None) == (accepted and symmetrizable)
                if ref is not None:
                    assert np.array_equal(new[0], ref[0])
                    assert (new[1] is None) == (ref[1] is None)
                    if ref[1] is not None:
                        assert all(map(np.array_equal, new[1], ref[1]))


def _one_way(w, seed):
    """A copy of w with the mirrors of a few of its entries removed, so that
    its nonzero pattern is not symmetric."""
    nz = np.argwhere(np.triu(w) != 0.0)
    v = w.copy()
    for i, j in nz[np.random.default_rng(seed).choice(len(nz), 3, replace=False)]:
        v[j, i] = 0.0
    return v


def _random_weights_on(pattern, seed):
    """Symmetric random weights in [0.1, 2) on the nonzero pattern given."""
    rng = np.random.default_rng(seed)
    a = np.triu(rng.uniform(0.1, 2.0, pattern.shape) * (pattern != 0.0), 1)
    return a + a.T


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSparseFirst:
    """W built in CSR form (`grid_contiguity`, `from_triplets`) against the
    same W given dense (`from_matrix` of the grid filled cell by cell): bit
    for bit, and with no dense W made on the way when W is sparse."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.integers(1, 50),
        cols=st.integers(1, 50),
        kind=st.sampled_from(["rook", "queen"]),
        normalize=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=50, cols=50, kind="rook", normalize=True, seed=0)
    @example(rows=1, cols=2, kind="queen", normalize=False, seed=0)
    def test_csr_built_matches_dense_built(self, rows, cols, kind, normalize, seed,
                                           dense_builds):
        assume(rows * cols >= 2)
        raw = reference_grid(rows, cols, kind)
        n = raw.shape[0]
        dense = from_matrix(raw, scheme=kind, normalize=normalize)
        dense_builds.clear()
        if normalize:
            sparse = grid_contiguity(rows, cols, kind)
        else:
            i, j = np.nonzero(raw)
            sparse = from_triplets(n, i, j, raw[i, j], scheme=kind, normalize=False)
        sparse_form = np.count_nonzero(raw) <= _CSR_FILL * n * n
        assert (sparse._csr is not None) == (dense._csr is not None) == sparse_form
        if sparse_form:
            assert all(a is b is None or _same_bits(a, b)
                       for a, b in zip(sparse._csr, dense._csr))
        assert _same_bits(sparse.isolated, dense.isolated)
        (d, classes), (ref_d, ref_classes) = sparse._scaling, dense._scaling
        assert _same_bits(d, ref_d)
        assert (classes is None) == (ref_classes is None)
        if classes is not None:
            assert all(map(_same_bits, classes, ref_classes))
        x = np.random.default_rng(seed).standard_normal(n)
        assert _same_bits(sparse.matvec(x), dense.matvec(x))
        rho = 0.9 / dense.w.sum(axis=1).max()
        check_rho(rho, sparse)
        assert _same_bits(sparse.solve(rho, x), dense.solve(rho, x))
        assert _same_bits(sparse.eigvals, dense.eigvals)
        assert sparse.rho_bounds == dense.rho_bounds
        assert dense_builds == ([] if sparse_form else [n])
        assert _same_bits(sparse.w, dense.w)

    @pytest.mark.parametrize("kind, shape", [("queen", (20, 20)), ("rook", (9, 11)),
                                             ("rook", (3, 4))])
    def test_simulate_matches_the_dense_grid(self, kind, shape, monkeypatch, dense_builds):
        spec = SimSpec(n=shape[0] * shape[1], p=31, weights_scheme=kind, grid_shape=shape,
                       contamination_fraction=0.1, seed=4)
        data, weights, truth = simulate(spec)
        builds = list(dense_builds)
        monkeypatch.setattr(ssofr.simulation, "grid_contiguity",
                            lambda r, c, k: row_normalize(reference_grid(r, c, k), scheme=k))
        ref_data, _, ref_truth = simulate(spec)
        assert builds == ([] if weights._csr is not None else [spec.n])
        for a, b in ((data.curves, ref_data.curves), (data.response, ref_data.response),
                     (truth.clean_response, ref_truth.clean_response)):
            assert _same_bits(a, b)

    def test_grid_w_is_read_without_a_dense_w(self, dense_builds):
        w = grid_contiguity(20, 20, "queen")
        x = np.random.default_rng(1).standard_normal(w.n)
        check_rho(0.5, w)
        w.matvec(x)
        w.solve(0.5, x)
        w.eigvals
        assert dense_builds == []
        assert w.w is w.w
        assert dense_builds == [400]

    def test_repr_leaves_the_dense_w_unbuilt(self, dense_builds):
        w = grid_contiguity(50, 50, "queen")
        assert repr(w) == "SpatialWeights(n=2500, scheme='queen', held='csr')"
        assert dense_builds == []
        w.w
        assert repr(w) == "SpatialWeights(n=2500, scheme='queen', held='dense')"
        assert repr(from_matrix(reference_grid(3, 4, "rook"), scheme="rook")) == (
            "SpatialWeights(n=12, scheme='rook', held='dense')")

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        integer=st.booleans(),
        normalize=st.booleans(),
        faults=st.lists(st.sampled_from(["negative", "nan", "inf", "negative diagonal",
                                         "inf diagonal"]), max_size=2),
    )
    def test_triplets_build_what_the_dense_matrix_builds(
        self, n, seed, integer, normalize, faults
    ):
        # the same errors in the same order, and the same W: bit for bit
        # where the row sums are exact (integer weights) or not used
        rng = np.random.default_rng(seed)
        raw = np.where(rng.uniform(size=(n, n)) < 0.4,
                       rng.integers(1, 4, (n, n)) if integer else rng.uniform(0.1, 2.0, (n, n)),
                       0.0)
        raw[rng.uniform(size=n) < 0.2] = 0.0
        for fault in faults:
            i, j = rng.integers(0, n, 2)
            if "diagonal" in fault:
                j = i
            raw[i, j] = {"negative": -1.0, "nan": np.nan, "inf": np.inf}[fault.split()[0]]
        given_ = (raw != 0.0) | (rng.uniform(size=(n, n)) < 0.1)  # with explicit zeros
        i, j = np.nonzero(given_)
        order = rng.permutation(i.size)
        i, j = i[order], j[order]

        def outcome(build):
            try:
                return build()
            except ValidationError as exc:
                return str(exc)

        ref = outcome(lambda: from_matrix(raw, normalize=normalize))
        new = outcome(lambda: from_triplets(n, i, j, raw[i, j], normalize=normalize))
        if isinstance(ref, str):
            assert new == ref
            return
        assert _same_bits(new.isolated, ref.isolated)
        if integer or not normalize:
            assert _same_bits(new.w, ref.w)
        else:
            assert np.abs(new.w - ref.w).max() <= 1e-15

    def test_no_matrix_rejected(self):
        with pytest.raises(ValidationError, match="needs the matrix w"):
            SpatialWeights(w=None, scheme="custom")

    def test_triplet_index_and_repeat_errors(self):
        with pytest.raises(ValidationError, match="outside the 3 units"):
            from_triplets(3, [0, 3], [1, 0], [1.0, 1.0])
        with pytest.raises(ValidationError, match=r"more than one entry at \(1, 0\)"):
            from_triplets(3, [1, 0, 1], [0, 1, 0], [1.0, 1.0, 2.0])
        with pytest.raises(ValidationError, match="at least 2 units"):
            from_triplets(1, [], [], [])
