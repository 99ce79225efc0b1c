import csv
import io
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (
    reference_read_coords,
    reference_read_curves_long,
    reference_read_curves_wide,
    reference_read_response,
    reference_read_weights_matrix,
)
from ssofr import (
    BasisSpec,
    FunctionalDataset,
    SimSpec,
    ValidationError,
    fit,
    fit_metrics,
    from_matrix,
    predict,
    model_from_json,
    simulate,
)
import ssofr.fpca
from ssofr.cli import main
from ssofr import io as sio


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def simulated_dir(tmp_path):
    out = tmp_path / "sim"
    code = run_cli(
        "simulate", "--n", 64, "--p", 41, "--rho", "0.35", "--sigma", "0.6",
        "--weights-scheme", "queen", "--grid-shape", 8, 8,
        "--contamination-fraction", "0.1", "--contamination-kind", "vertical",
        "--seed", 5, "--out", out,
    )
    assert code == 0
    return out


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSimulateCommand:
    def test_outputs_exist(self, simulated_dir):
        for name in ("curves.csv", "response.csv", "weights_matrix.csv", "truth.json"):
            assert os.path.exists(simulated_dir / name)

    def test_deterministic_artifacts(self, simulated_dir, tmp_path):
        out2 = tmp_path / "sim2"
        run_cli(
            "simulate", "--n", 64, "--p", 41, "--rho", "0.35", "--sigma", "0.6",
            "--weights-scheme", "queen", "--grid-shape", 8, 8,
            "--contamination-fraction", "0.1", "--contamination-kind", "vertical",
            "--seed", 5, "--out", out2,
        )
        for name in ("curves.csv", "response.csv", "weights_matrix.csv", "truth.json"):
            assert read_bytes(simulated_dir / name) == read_bytes(out2 / name)

    def test_round_trip_matches_library(self, simulated_dir):
        spec = SimSpec(n=64, p=41, rho=0.35, sigma=0.6, seed=5,
                       weights_scheme="queen", grid_shape=(8, 8),
                       contamination_fraction=0.1, contamination_kind="vertical")
        ds, w, _ = simulate(spec)
        ids, grid, curves = sio.read_curves_long(str(simulated_dir / "curves.csv"))
        assert np.array_equal(grid, ds.grid)
        assert np.array_equal(curves, ds.curves)
        _, y = sio.read_response(str(simulated_dir / "response.csv"))
        assert np.array_equal(y, ds.response)
        _, wm = sio.read_weights_matrix(str(simulated_dir / "weights_matrix.csv"))
        assert np.array_equal(wm, w.w)

    def test_bad_beta_coeff_exits_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--beta-coeffs", "1,x", "--n", 16, "--out", tmp_path / "s")
        assert code == 2
        assert "--beta-coeffs: cannot parse 'x' as a number" in capsys.readouterr().err


class TestFitCommand:
    def test_fit_and_reports(self, simulated_dir, tmp_path):
        out = tmp_path / "fit"
        code = run_cli(
            "fit", "--curves", simulated_dir / "curves.csv",
            "--response", simulated_dir / "response.csv",
            "--weights-matrix", simulated_dir / "weights_matrix.csv",
            "--no-normalize",
            "--basis", "fourier", "--num-basis", 5,
            "--method", "rfpls", "--estimator", "m", "--num-components", 3,
            "--out", out,
        )
        assert code == 0
        report = json.loads(read_bytes(out / "fit_report.json"))
        lo, hi = -1.0, 1.0
        assert lo < report["rho"] < hi
        assert report["converged"] is True
        assert set(report["metrics"].keys()) == {"0.0", "0.05", "0.1"}
        model = model_from_json(read_bytes(out / "model.json").decode())
        assert model.method == "rfpls"

    def test_fit_matches_library_bitwise(self, simulated_dir, tmp_path):
        out = tmp_path / "fit"
        run_cli(
            "fit", "--curves", simulated_dir / "curves.csv",
            "--response", simulated_dir / "response.csv",
            "--weights-matrix", simulated_dir / "weights_matrix.csv",
            "--no-normalize",
            "--basis", "fourier", "--num-basis", 5,
            "--method", "fpc", "--estimator", "ml", "--num-components", 3,
            "--out", out,
        )
        ids, grid, curves = sio.read_curves_long(str(simulated_dir / "curves.csv"))
        _, y = sio.read_response(str(simulated_dir / "response.csv"))
        _, wm = sio.read_weights_matrix(str(simulated_dir / "weights_matrix.csv"))
        ds = FunctionalDataset(grid=grid, curves=curves, response=y, ids=tuple(ids))
        w = from_matrix(wm, normalize=False)
        model = fit(ds, w, BasisSpec(kind="fourier", M=5), "fpc", 3, "ml")
        report = json.loads(read_bytes(out / "fit_report.json"))
        assert report["rho"] == model.params.rho
        assert report["sigma"] == model.params.sigma
        assert report["theta"] == model.params.theta.tolist()

    def test_sweep_cap_in_fit_report(self, simulated_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(ssofr.fpca, "_REFINE_SWEEPS", 1)
        out = tmp_path / "fit"
        code = run_cli(
            "fit", "--curves", simulated_dir / "curves.csv",
            "--response", simulated_dir / "response.csv",
            "--weights-matrix", simulated_dir / "weights_matrix.csv",
            "--basis", "fourier", "--num-basis", 5,
            "--method", "rfpc", "--estimator", "ml", "--num-components", 2,
            "--out", out,
        )
        assert code == 0
        report = json.loads(read_bytes(out / "fit_report.json"))
        assert "rfpc component 2 stopped at the 1-sweep cap" in report["events"]
        assert b"sweep" not in read_bytes(out / "model.json")

    def test_missing_file_exit_2(self, simulated_dir, tmp_path, capsys):
        code = run_cli(
            "fit", "--curves", tmp_path / "nope.csv",
            "--response", tmp_path / "nope2.csv",
            "--coords", tmp_path / "c.csv", "--out", tmp_path / "o",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "nope.csv" in err
        # a file that is not UTF-8, and a directory, are named as unreadable
        # before anything is written
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"id,y\nu0000,\xff\n")
        response = simulated_dir / "response.csv"
        matrix = ("--weights-matrix", simulated_dir / "weights_matrix.csv")
        for path, args in [
            (bad, ("--response", bad, *matrix)),
            (tmp_path, ("--response", tmp_path, *matrix)),
            (tmp_path, ("--response", response, "--coords", tmp_path)),
        ]:
            code = run_cli("fit", "--curves", simulated_dir / "curves.csv", *args,
                           "--out", tmp_path / "o")
            assert code == 2
            assert f"error: cannot read {path}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_deterministic_model_json(self, simulated_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(
                "fit", "--curves", simulated_dir / "curves.csv",
                "--response", simulated_dir / "response.csv",
                "--weights-matrix", simulated_dir / "weights_matrix.csv",
                "--basis", "fourier", "--num-basis", 5,
                "--method", "rfpc", "--estimator", "m", "--num-components", 2,
                "--out", out,
            )
            outs.append(read_bytes(out / "model.json"))
        assert outs[0] == outs[1]

    def test_select_rule(self, simulated_dir, tmp_path):
        out = tmp_path / "fit_sel"
        code = run_cli(
            "fit", "--curves", simulated_dir / "curves.csv",
            "--response", simulated_dir / "response.csv",
            "--weights-matrix", simulated_dir / "weights_matrix.csv",
            "--basis", "fourier", "--num-basis", 5,
            "--method", "fpc", "--select", "ev:0.9",
            "--out", out,
        )
        assert code == 0
        report = json.loads(read_bytes(out / "fit_report.json"))
        assert 1 <= report["K"] <= 5

    @pytest.mark.parametrize("method", ["fpc", "rfpc"])
    def test_bic_on_low_rank_simulated_curves_exits_0(self, tmp_path, method):
        # the default simulation spans 5 of the 15 default B-spline
        # directions; components beyond that rank made Z rank deficient
        sim = tmp_path / "sim"
        assert run_cli(
            "simulate", "--weights-scheme", "rook", "--grid-shape", 6, 6,
            "--n", 36, "--out", sim,
        ) == 0
        out = tmp_path / "fit_bic"
        code = run_cli(
            "fit", "--curves", sim / "curves.csv", "--response", sim / "response.csv",
            "--weights-matrix", sim / "weights_matrix.csv",
            "--method", method, "--select", "bic", "--out", out,
        )
        assert code == 0
        report = json.loads(read_bytes(out / "fit_report.json"))
        assert 1 <= report["K"] <= 5

    def test_more_components_than_the_rank_exits_0(self, tmp_path):
        # the curves have rank 5: fpc stops there and says so
        sim = tmp_path / "sim"
        assert run_cli(
            "simulate", "--weights-scheme", "rook", "--grid-shape", 6, 6,
            "--n", 36, "--out", sim,
        ) == 0
        out = tmp_path / "fit_k6"
        code = run_cli(
            "fit", "--curves", sim / "curves.csv", "--response", sim / "response.csv",
            "--weights-matrix", sim / "weights_matrix.csv",
            "--method", "fpc", "--num-components", 6, "--out", out,
        )
        assert code == 0
        assert json.loads(read_bytes(out / "fit_report.json"))["K"] == 5
        assert model_from_json(read_bytes(out / "model.json").decode()).decomposition.truncated

    @pytest.mark.parametrize("rule", ["ev:abc", "evil"])
    def test_bad_select_rule_exits_2(self, simulated_dir, tmp_path, capsys, rule):
        code = run_cli(
            "fit", "--curves", simulated_dir / "curves.csv",
            "--response", simulated_dir / "response.csv",
            "--weights-matrix", simulated_dir / "weights_matrix.csv",
            "--basis", "fourier", "--num-basis", 5,
            "--method", "fpc", "--select", rule,
            "--out", tmp_path / "fit_bad",
        )
        assert code == 2
        assert "unknown selection rule" in capsys.readouterr().err
        assert not (tmp_path / "fit_bad").exists()

    def test_too_many_cv_folds_exits_2(self, simulated_dir, tmp_path, capsys):
        # 64 units: cv:33 would leave a test fold of one unit
        code = run_cli(
            "fit", "--curves", simulated_dir / "curves.csv",
            "--response", simulated_dir / "response.csv",
            "--weights-matrix", simulated_dir / "weights_matrix.csv",
            "--basis", "fourier", "--num-basis", 5,
            "--method", "fpc", "--select", "cv:33",
            "--out", tmp_path / "fit_bad",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cv:33 leaves a test fold with fewer than 2 units" in err
        assert "64 units allow at most cv:32" in err
        assert not (tmp_path / "fit_bad").exists()


    def test_rfpc_with_a_tiny_mscale_delta(self, simulated_dir, tmp_path):
        # (1 - delta) n rounds to n at delta = 1e-17
        code = run_cli(
            "fit", "--curves", simulated_dir / "curves.csv",
            "--response", simulated_dir / "response.csv",
            "--weights-matrix", simulated_dir / "weights_matrix.csv",
            "--basis", "fourier", "--num-basis", 5,
            "--method", "rfpc", "--num-components", 2, "--mscale-delta", "1e-17",
            "--out", tmp_path / "fit",
        )
        assert code == 0
        assert (tmp_path / "fit" / "fit_report.json").exists()

    def test_tuning_defaults_come_from_the_dataclasses(self):
        from ssofr import MTuning
        from ssofr.cli import build_parser
        from ssofr.mscale import DEFAULT_MSCALE

        args = build_parser().parse_args(
            ["fit", "--curves", "c.csv", "--response", "y.csv", "--out", "o"]
        )
        tuning = MTuning()
        assert (args.c1, args.c2, args.c3) == (tuning.c1, tuning.c2, tuning.c3)
        assert (args.mscale_c, args.mscale_delta) == (DEFAULT_MSCALE.c, DEFAULT_MSCALE.delta)


class TestPredictCommand:
    def test_predict_training_refeed(self, simulated_dir, tmp_path):
        fit_out = tmp_path / "fit"
        run_cli(
            "fit", "--curves", simulated_dir / "curves.csv",
            "--response", simulated_dir / "response.csv",
            "--weights-matrix", simulated_dir / "weights_matrix.csv",
            "--no-normalize",
            "--basis", "fourier", "--num-basis", 5,
            "--method", "fpc", "--estimator", "ml", "--num-components", 3,
            "--out", fit_out,
        )
        pred_out = tmp_path / "pred"
        code = run_cli(
            "predict", "--model", fit_out / "model.json",
            "--curves", simulated_dir / "curves.csv",
            "--response", simulated_dir / "response.csv",
            "--weights-matrix", simulated_dir / "weights_matrix.csv",
            "--no-normalize", "--out", pred_out,
        )
        assert code == 0
        report = json.loads(read_bytes(fit_out / "fit_report.json"))
        rows = read_bytes(pred_out / "predictions.csv").decode().strip().split("\n")[1:]
        yhat = np.array([float(r.split(",")[1]) for r in rows])
        assert np.abs(yhat - np.array(report["fitted_values"])).max() < 1e-12
        pr = json.loads(read_bytes(pred_out / "predict_report.json"))
        assert "0.05" in pr["metrics"]

    def test_predict_metrics_match_library(self, simulated_dir, tmp_path):
        fit_out = tmp_path / "fit"
        run_cli(
            "fit", "--curves", simulated_dir / "curves.csv",
            "--response", simulated_dir / "response.csv",
            "--weights-matrix", simulated_dir / "weights_matrix.csv",
            "--no-normalize", "--basis", "fourier", "--num-basis", 5,
            "--method", "fpls", "--estimator", "ml", "--num-components", 2,
            "--out", fit_out,
        )
        pred_out = tmp_path / "pred"
        run_cli(
            "predict", "--model", fit_out / "model.json",
            "--curves", simulated_dir / "curves.csv",
            "--response", simulated_dir / "response.csv",
            "--weights-matrix", simulated_dir / "weights_matrix.csv",
            "--no-normalize", "--out", pred_out,
        )
        ids, grid, curves = sio.read_curves_long(str(simulated_dir / "curves.csv"))
        _, y = sio.read_response(str(simulated_dir / "response.csv"))
        _, wm = sio.read_weights_matrix(str(simulated_dir / "weights_matrix.csv"))
        ds = FunctionalDataset(grid=grid, curves=curves, response=y)
        w = from_matrix(wm, normalize=False)
        model = model_from_json(read_bytes(fit_out / "model.json").decode())
        yhat = predict(model, ds, w)
        rep = json.loads(read_bytes(pred_out / "predict_report.json"))
        m = fit_metrics(y, yhat, 0.05)
        assert rep["metrics"]["0.05"]["mspe"] == m.mse
        assert rep["metrics"]["0.05"]["r2_p"] == m.r2
        # a trim fraction outside [0, 0.5) exits 2 and writes no file
        bad_out = tmp_path / "pred_bad_trim"
        code = run_cli(
            "predict", "--model", fit_out / "model.json",
            "--curves", simulated_dir / "curves.csv",
            "--response", simulated_dir / "response.csv",
            "--weights-matrix", simulated_dir / "weights_matrix.csv",
            "--no-normalize", "--trim", "0.7", "--out", bad_out,
        )
        assert code == 2
        assert not (bad_out / "predictions.csv").exists()

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read model file"),
        ("{not json", "not JSON"),
        ('{"schema_version": 1}', "lacks the field 'grid'"),
    ], ids=["missing", "not json", "schema only"])
    def test_bad_model_file_exits_2(self, simulated_dir, tmp_path, capsys, content, message):
        model = tmp_path / "model.json"
        if content is not None:
            model.write_text(content)
        code = run_cli(
            "predict", "--model", model, "--curves", simulated_dir / "curves.csv",
            "--weights-matrix", simulated_dir / "weights_matrix.csv", "--out", tmp_path / "p",
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "p").exists()


class TestEigenWork:
    def test_predict_makes_no_eigendecomposition_of_w(self, tmp_path, eig_calls):
        # the reduced form needs rho_hat and one solve; the row sums of W
        # admit rho_hat without its spectrum. A fit reads the spectrum once:
        # the singular values of the off-diagonal block of the bipartite rook
        # W, `eigvalsh` for the queen W. Every command also takes one `eigh`
        # of the 5 x 5 basis Gram matrix.
        for scheme, spectrum in (("rook", "svd"), ("queen", "eigvalsh")):
            sim_out, fit_out = tmp_path / f"sim_{scheme}", tmp_path / f"fit_{scheme}"
            run_cli(
                "simulate", "--n", 36, "--p", 21, "--weights-scheme", scheme,
                "--grid-shape", 6, 6, "--seed", 3, "--out", sim_out,
            )
            common = (
                "--curves", sim_out / "curves.csv",
                "--weights-matrix", sim_out / "weights_matrix.csv",
            )
            eig_calls.clear()
            code = run_cli(
                "fit", *common, "--response", sim_out / "response.csv",
                "--basis", "fourier", "--num-basis", 5, "--method", "fpls",
                "--estimator", "ml", "--out", fit_out,
            )
            assert code == 0 and eig_calls == ["eigh", spectrum], scheme
            eig_calls.clear()
            code = run_cli(
                "predict", "--model", fit_out / "model.json", *common,
                "--out", tmp_path / f"pred_{scheme}",
            )
            assert code == 0 and eig_calls == ["eigh"], scheme


class TestPredictRhoZero:
    def test_rho_zero_model_ignores_weights(self, simulated_dir, tmp_path):
        fit_out = tmp_path / "fit"
        run_cli(
            "fit", "--curves", simulated_dir / "curves.csv",
            "--response", simulated_dir / "response.csv",
            "--weights-matrix", simulated_dir / "weights_matrix.csv",
            "--basis", "fourier", "--num-basis", 5,
            "--method", "fpc", "--estimator", "ml", "--num-components", 2,
            "--out", fit_out,
        )
        doc = json.loads(read_bytes(fit_out / "model.json"))
        doc["params"]["rho"] = 0.0
        model0 = tmp_path / "model0.json"
        with open(model0, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
        # two very different weight matrices: queen grid vs a ring
        import numpy as np
        from ssofr import grid_contiguity
        ids = [f"u{i:04d}" for i in range(64)]
        ring = np.zeros((64, 64))
        for i in range(64):
            ring[i, (i + 1) % 64] = 1.0
            ring[i, (i - 1) % 64] = 1.0
        w_ring = tmp_path / "ring.csv"
        sio.write_weights_matrix(str(w_ring), ids, ring / 2.0)
        preds = []
        for tag, wpath in (("a", simulated_dir / "weights_matrix.csv"), ("b", w_ring)):
            out = tmp_path / f"pred_{tag}"
            assert run_cli(
                "predict", "--model", model0,
                "--curves", simulated_dir / "curves.csv",
                "--weights-matrix", wpath, "--no-normalize", "--out", out,
            ) == 0
            preds.append(read_bytes(out / "predictions.csv"))
        assert preds[0] == preds[1]


class TestPredictGridMismatch:
    def test_grid_mismatch_exit_3(self, simulated_dir, tmp_path, capsys):
        fit_out = tmp_path / "fit"
        run_cli(
            "fit", "--curves", simulated_dir / "curves.csv",
            "--response", simulated_dir / "response.csv",
            "--weights-matrix", simulated_dir / "weights_matrix.csv",
            "--basis", "fourier", "--num-basis", 5,
            "--method", "fpc", "--estimator", "ml", "--num-components", 2,
            "--out", fit_out,
        )
        # curves on a shifted grid: same ids, different t values
        ids, grid, curves = sio.read_curves_long(str(simulated_dir / "curves.csv"))
        shifted = tmp_path / "shifted.csv"
        sio.write_curves_long(str(shifted), ids, grid + 1.0, curves)
        code = run_cli(
            "predict", "--model", fit_out / "model.json",
            "--curves", shifted,
            "--weights-matrix", simulated_dir / "weights_matrix.csv",
            "--out", tmp_path / "pred",
        )
        assert code == 3


class TestDiagnoseCommand:
    def test_checkerboard_quadrants(self, tmp_path):
        resp = tmp_path / "resp.csv"
        wmat = tmp_path / "w.csv"
        ids = ["a", "b", "c", "d"]
        sio.write_response(str(resp), ids, [1.0, -1.0, -1.0, 1.0])
        from ssofr import grid_contiguity

        w = grid_contiguity(2, 2, "rook")
        sio.write_weights_matrix(str(wmat), ids, w.w)
        out = tmp_path / "diag"
        code = run_cli(
            "diagnose", "--response", resp, "--weights-matrix", wmat,
            "--no-normalize", "--out", out,
        )
        assert code == 0
        rows = read_bytes(out / "moran.csv").decode().strip().split("\n")[1:]
        quads = {r.split(",")[4] for r in rows}
        assert quads == {"High-Low", "Low-High"}
        rep = json.loads(read_bytes(out / "moran_report.json"))
        assert rep["global_moran"] < 0

    def test_clustered_positive_global(self, tmp_path):
        resp = tmp_path / "resp.csv"
        wmat = tmp_path / "w.csv"
        from ssofr import grid_contiguity

        w = grid_contiguity(4, 4, "rook")
        ids = [f"u{i}" for i in range(16)]
        y = [float(i // 8) + 0.01 * i for i in range(16)]
        sio.write_response(str(resp), ids, y)
        sio.write_weights_matrix(str(wmat), ids, w.w)
        out = tmp_path / "diag"
        assert run_cli(
            "diagnose", "--response", resp, "--weights-matrix", wmat,
            "--no-normalize", "--out", out,
        ) == 0
        rep = json.loads(read_bytes(out / "moran_report.json"))
        assert rep["global_moran"] > 0
        hh = rep["quadrant_counts"].get("High-High", 0)
        ll = rep["quadrant_counts"].get("Low-Low", 0)
        assert hh + ll > 8

    def test_constant_response_exit_3(self, tmp_path, capsys):
        resp = tmp_path / "resp.csv"
        wmat = tmp_path / "w.csv"
        from ssofr import grid_contiguity

        ids = ["a", "b", "c", "d"]
        sio.write_response(str(resp), ids, [2.0, 2.0, 2.0, 2.0])
        sio.write_weights_matrix(str(wmat), ids, grid_contiguity(2, 2, "rook").w)
        code = run_cli(
            "diagnose", "--response", resp, "--weights-matrix", wmat,
            "--out", tmp_path / "d",
        )
        assert code == 3


class TestWeightsCommand:
    def test_grid_weights_report(self, tmp_path):
        out = tmp_path / "w"
        assert run_cli("weights", "--grid", 3, 3, "--scheme", "queen", "--out", out) == 0
        rep = json.loads(read_bytes(out / "weights_report.json"))
        assert rep["n"] == 9
        assert rep["rho_upper"] == 1.0
        assert rep["rho_lower"] < 0

    def test_coords_weights(self, tmp_path):
        coords = tmp_path / "coords.csv"
        sio.write_coords(str(coords), ["a", "b", "c"], [0.0, 0.0, 0.0], [0.0, 1.0, 3.0])
        out = tmp_path / "w"
        assert run_cli("weights", "--coords", coords, "--out", out) == 0
        ids, wm = sio.read_weights_matrix(str(out / "weights_matrix.csv"))
        assert wm[0, 1] == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("lat, lon, what", [
        ([0.0, float("nan"), 0.0], [0.0, 1.0, 3.0], "latitude"),
        ([0.0, 0.0, 0.0], [0.0, 1.0, float("nan")], "longitude"),
    ])
    def test_nan_coordinate_exits_2(self, tmp_path, capsys, lat, lon, what):
        coords = tmp_path / "coords.csv"
        sio.write_coords(str(coords), ["a", "b", "c"], lat, lon)
        assert run_cli("weights", "--coords", coords, "--out", tmp_path / "w") == 2
        assert f"error: {what} outside" in capsys.readouterr().err


    def test_negative_weight_exit_2(self, tmp_path, capsys):
        wmat = tmp_path / "w.csv"
        raw = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        sio.write_weights_matrix(str(wmat), ["a", "b", "c"], raw)
        code = run_cli("weights", "--weights-matrix", wmat, "--out", tmp_path / "w")
        assert code == 2
        assert "negative weight" in capsys.readouterr().err


class TestIdAlignment:
    def test_response_reordered_by_id(self, tmp_path):
        resp = tmp_path / "resp.csv"
        sio.write_response(str(resp), ["b", "a", "c"], [2.0, 1.0, 3.0])
        ids, y = sio.read_response(str(resp))
        aligned = sio.align_to(["a", "b", "c"], ids, y, "resp")
        assert aligned.tolist() == [1.0, 2.0, 3.0]

    def test_mismatched_ids_rejected(self, tmp_path):
        resp = tmp_path / "resp.csv"
        sio.write_response(str(resp), ["x", "y"], [1.0, 2.0])
        ids, y = sio.read_response(str(resp))
        with pytest.raises(Exception):
            sio.align_to(["a", "b"], ids, y, "resp")

    def test_weights_matrix_alignment_permutes_both_axes(self, tmp_path):
        import numpy as np
        w = np.array([[0.0, 0.7, 0.3], [0.5, 0.0, 0.5], [0.2, 0.8, 0.0]])
        path = tmp_path / "w.csv"
        sio.write_weights_matrix(str(path), ["b", "a", "c"], w)
        ids, got = sio.read_weights_matrix(str(path))
        aligned = sio.align_to(["a", "b", "c"], ids, got, "w")
        perm = [1, 0, 2]
        assert np.array_equal(aligned, w[np.ix_(perm, perm)])


    @pytest.mark.parametrize("values", [np.array([1.0, 2.0, 3.0]), np.eye(3)])
    def test_values_in_order_are_not_copied(self, values):
        assert sio.align_to(["a", "b", "c"], ["a", "b", "c"], values, "f.csv") is values

    def test_ids_in_order_still_checked_for_repeats(self):
        with pytest.raises(ValidationError, match=r"^w\.csv: id 'a' is given more than once"):
            sio.align_to(["a", "a", "b"], ["a", "a", "b"], np.eye(3), "w.csv")


class TestLongFormatValidation:
    def test_inconsistent_grids_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        sio.write_csv(
            str(path), ("id", "t", "value"),
            [("a", "0.0", "1.0"), ("a", "1.0", "2.0"),
             ("b", "0.0", "1.0"), ("b", "0.5", "2.0")],
        )
        with pytest.raises(Exception, match="different grids"):
            sio.read_curves_long(str(path))

    @pytest.mark.parametrize("rows, message", [
        ([("a", "0", "1"), ("a", "1")], r"short row \['a', '1'\]"),
        ([("a", "0", "1"), ("a", "x", "2")], "cannot parse 'x' as a number"),
        ([("a", "0", "1"), ("a", "1", "2"), ("b", "0", "y")], "cannot parse 'y' as a number"),
        ([("a", "0", "1"), ("b", "0", "1"), ("b", "0.0", "2")], r"pair \(b, 0\.0\)"),
        ([("a", "0", "1"), ("a", "1", "2"), ("b", "0", "3")], "different grids"),
        ([], "different grids"),
    ])
    def test_error_names_the_fault(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        sio.write_csv(str(path), ("id", "t", "value"), rows)
        with pytest.raises(ValidationError, match=message):
            sio.read_curves_long(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        sio.write_csv(str(path), ("unit", "time", "val"), [("a", "0", "1")])
        with pytest.raises(Exception, match="header"):
            sio.read_curves_long(str(path))


class TestShortRows:
    @pytest.mark.parametrize("header, rows, command", [
        (("id", "y"), [("a", "1.0"), ("b",)], ("diagnose", "--coords", "unread.csv", "--response")),
        (("id", "lat", "lon"), [("a", "0", "0"), ("b", "1")], ("weights", "--coords")),
        (("i", "j", "w"), [("a", "b", "1"), ("b", "a")], ("weights", "--weights-matrix")),
    ])
    def test_short_row_exit_2(self, tmp_path, capsys, header, rows, command):
        path = tmp_path / "in.csv"
        sio.write_csv(str(path), header, rows)
        code = run_cli(*command, path, "--out", tmp_path / "out")
        assert code == 2
        assert f"{path}: short row ['b'" in capsys.readouterr().err


class TestWriters:
    def test_bytes_match_csv_writer_of_repr(self, tmp_path):
        def oracle(header, rows):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            for cid, *values in rows:
                writer.writerow([cid] + [repr(float(x)) for x in values])
            return buf.getvalue().encode()

        # ids that csv.writer quotes (comma, quote, newline, a lone quote, a
        # quoted comma) and ones it leaves bare (empty, spaces, a tab,
        # numbers); an id holding a carriage return is quoted where csv.writer
        # leaves it bare (test_carriage_return_ids_read_back)
        ids = ["a", "b,c", 'q"d', "e\nf", '"', 'x,"y"', "", " g h ", "i\tj", 7, 2.5]
        values = np.array([-0.0, 5e-324, 1e300, 1.0 / 3.0, 2.5, -1e-7, 123456789.0,
                           float("inf"), 0.1, -3.0, 1e-310])
        grid = values[:3]
        curves = np.outer(values, [1.0, -2.0, 0.1])
        w = np.outer(values, [0.5, 2.0, -1.0, 3.0, -2.0, 1.5, -0.5, 4.0, 0.25, 1e-3, 7.0])
        cases = [
            (sio.write_curves_long, (ids, grid, curves), ("id", "t", "value"),
             [(cid, t, v) for cid, row in zip(ids, curves) for t, v in zip(grid, row)]),
            (sio.write_response, (ids, values), ("id", "y"), list(zip(ids, values))),
            (sio.write_coords, (ids, values, -values), ("id", "lat", "lon"),
             list(zip(ids, values, -values))),
            (sio.write_weights_matrix, (ids, w), ["id"] + ids,
             [(cid, *row) for cid, row in zip(ids, w)]),
        ]
        for writer, args, header, rows in cases:
            path = tmp_path / f"{writer.__name__}.csv"
            writer(str(path), *args)
            assert read_bytes(path) == oracle(header, rows), writer.__name__

    def test_carriage_return_ids_read_back(self, tmp_path):
        # csv.writer under a "\n" line end leaves a lone "\r" bare, and
        # csv.reader then ends the row there
        path = tmp_path / "response.csv"
        sio.write_response(str(path), ["a\rb", "c"], [1.0, 2.0])
        assert read_bytes(path) == b'id,y\n"a\rb",1.0\nc,2.0\n'
        ids = ["a\rb", "c\r\nd", "e\nf", 'g"h', "i,j", "k"]
        values = np.array([0.1, -2.5, 1e300, 5e-324, 3.0, -0.0])
        grid = values[:2]
        curves = np.outer(values, [1.0, -2.0])
        w = np.outer(values, [0.5, 2.0, -1.0, 3.0, -2.0, 1.5])
        sio.write_response(str(path), ids, values)
        assert sio.read_response(str(path))[0] == ids
        assert np.array_equal(sio.read_response(str(path))[1], values)
        path = tmp_path / "coords.csv"
        sio.write_coords(str(path), ids, values, -values)
        got_ids, lat, lon = sio.read_coords(str(path))
        assert got_ids == ids and np.array_equal(lat, values) and np.array_equal(lon, -values)
        path = tmp_path / "curves.csv"
        sio.write_curves_long(str(path), ids, grid, curves)
        got_ids, got_grid, got_curves = sio.read_curves_long(str(path))
        assert got_ids == ids
        assert np.array_equal(got_grid, np.sort(grid))
        assert np.array_equal(got_curves, curves[:, np.argsort(grid)])
        path = tmp_path / "weights.csv"
        sio.write_weights_matrix(str(path), ids, w)
        got_ids, got_w = sio.read_weights_matrix(str(path))
        assert got_ids == ids and np.array_equal(got_w, w)


_READERS = {
    "long": (sio.read_curves_long, reference_read_curves_long),
    "wide": (sio.read_curves_wide, reference_read_curves_wide),
    "response": (sio.read_response, reference_read_response),
    "coords": (sio.read_coords, reference_read_coords),
    "dense": (sio.read_weights_matrix, reference_read_weights_matrix),
    "triplet": (sio.read_weights_matrix, reference_read_weights_matrix),
}

_ID = st.one_of(
    st.text(st.sampled_from('ab7 ,"\n.-'), max_size=4),
    st.text(st.sampled_from("ab7 .\r\x00"), max_size=3),
    st.integers(-99, 999),
    st.floats(allow_nan=False, width=16),
)
_VALUE = st.floats(width=64).map(repr)


@st.composite
def csv_tables(draw):
    """(kind, text): a random table for one reader, in any of the layouts
    csv.writer makes, with or without faults."""
    kind = draw(st.sampled_from(sorted(_READERS)))
    n = draw(st.integers(0, 5))
    ids = draw(st.lists(_ID, min_size=n, max_size=n))
    p = draw(st.integers(1, 4))
    grid = [repr(t) for t in draw(st.lists(
        st.floats(-1e3, 1e3), min_size=p, max_size=p, unique=True))]

    def values(k):
        return draw(st.lists(_VALUE, min_size=k, max_size=k))

    if kind == "long":
        header = ["id", "t", "value"]
        rows = [[cid, t, v] for cid in ids for t, v in zip(grid, values(p))]
    elif kind == "wide":
        header = ["id", *grid]
        rows = [[cid, *values(p)] for cid in ids]
    elif kind == "response":
        header = ["id", "y"]
        rows = [[cid, *values(1)] for cid in ids]
    elif kind == "coords":
        header = ["id", "lat", "lon"]
        rows = [[cid, *values(2)] for cid in ids]
    elif kind == "dense":
        header = ["id", *ids]
        rows = [[cid, *values(n)] for cid in ids]
    else:
        header = ["i", "j", "w"]
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=8)) if n else []
        rows = [[ids[a], ids[b], *values(1)] for a, b in pairs]

    for fault in draw(st.lists(st.sampled_from(["short", "extra", "blank", "repeat"]),
                               max_size=2)):
        if not rows:
            break
        r = draw(st.integers(0, len(rows) - 1))
        if fault == "short":
            rows[r] = rows[r][:-1]
        elif fault == "extra":
            rows[r] = rows[r] + values(1)
        elif fault == "blank":
            rows.insert(r, [])
        else:
            rows.append(list(rows[r]))

    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=line_end,
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if draw(st.booleans()):
        text = text.removesuffix(line_end)
    return kind, text


def _outcome(reader, path):
    try:
        return reader(path)
    except Exception as exc:  # the error itself is compared
        return exc


class TestColumnarReaders:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table=csv_tables())
    # a lone carriage return in an id splits its row: the first fault met
    # row by row is the unparsable '' of an earlier row, not the length
    @example(table=("dense", "id,\r,\n\r,0.0,0.0\n,0.0,0.0\n"))
    def test_readers_match_the_row_based_reference(self, tmp_path_factory, table):
        kind, text = table
        path = str(tmp_path_factory.mktemp("table") / f"{kind}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        reader, reference = _READERS[kind]
        got, want = _outcome(reader, path), _outcome(reference, path)
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            return
        assert not isinstance(got, Exception), got
        assert len(got) == len(want)
        for g, w in zip(got, want):
            if isinstance(w, np.ndarray):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g.view(np.int64), w.view(np.int64))
            else:
                assert g == w

    def test_benchmark_sized_files_match_the_reference(self, tmp_path):
        # a 30 x 30 rook draw written as the CLI benchmark writes it: long
        # curves and i,j,w triplets, which take the bulk split
        train, weights, _ = simulate(SimSpec(n=900, p=61, weights_scheme="rook",
                                             grid_shape=(30, 30), seed=1))
        ids = [f"u{i:04d}" for i in range(train.n)]
        rows, cols = np.nonzero(weights.w)
        cases = [
            ("curves.csv", sio.read_curves_long, reference_read_curves_long,
             lambda p: sio.write_curves_long(p, ids, train.grid, train.curves)),
            ("weights.csv", sio.read_weights_matrix, reference_read_weights_matrix,
             lambda p: sio.write_csv(p, ("i", "j", "w"), [
                 (ids[i], ids[j], repr(float(weights.w[i, j]))) for i, j in zip(rows, cols)])),
        ]
        for name, reader, reference, write in cases:
            path = str(tmp_path / name)
            write(path)
            got, want = reader(path), reference(path)
            assert got[0] == want[0]
            for g, w in zip(got[1:], want[1:]):
                assert g.shape == w.shape
                assert np.array_equal(g.view(np.int64), w.view(np.int64))


class TestTripletWeights:
    def test_triplet_round_trip(self, tmp_path):
        import numpy as np
        path = tmp_path / "w.csv"
        sio.write_csv(
            str(path), ("i", "j", "w"),
            [("a", "b", "0.5"), ("b", "a", "1.0"), ("a", "c", "0.5"), ("c", "a", "1.0")],
        )
        ids, w = sio.read_weights_matrix(str(path))
        assert ids == ["a", "b", "c"]
        assert w[0, 1] == 0.5 and w[0, 2] == 0.5
        assert w[1, 0] == 1.0 and w[2, 0] == 1.0
        assert w[1, 2] == 0.0

    def test_repeated_pair_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        sio.write_csv(
            str(path), ("i", "j", "w"),
            [("a", "b", "1.0"), ("b", "a", "1.0"), ("a", "b", "5.0")],
        )
        with pytest.raises(ValidationError, match=r"pair \(a, b\)"):
            sio.read_weights_matrix(str(path))

    @staticmethod
    def write_both(directory, ids, w, zero=None):
        """W as the dense file and as `i,j,w` triplets of its nonzero
        entries, listed column by column (so the file's ids come in another
        order than the curves'), plus an explicit zero triplet at `zero`."""
        dense, triplets = directory / "w_dense.csv", directory / "w_triplets.csv"
        sio.write_weights_matrix(str(dense), ids, w)
        cols, rows = np.nonzero(w.T)
        entries = [(ids[i], ids[j], repr(float(w[i, j]))) for i, j in zip(rows, cols)]
        if zero is not None:
            entries.append((ids[zero[0]], ids[zero[1]], "0"))
        sio.write_csv(str(triplets), ("i", "j", "w"), entries)
        return dense, triplets

    @pytest.mark.parametrize("case", ["rook 8x8", "queen 12x12", "rook 6x6", "isolated unit"])
    def test_triplets_give_the_dense_artifacts(self, tmp_path, case):
        # with --no-normalize both files carry the same W, so fit and
        # predict write the same bytes; W is held in CSR form from the
        # triplets, and from the dense file once it is read (rook 6 x 6 is
        # too full for a CSR form either way)
        kind, shape = ("rook", (8, 8)) if case == "isolated unit" else (
            case.split()[0], tuple(map(int, case.split()[1].split("x"))))
        n = shape[0] * shape[1]
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--n", n, "--p", 21, "--weights-scheme", kind,
                       "--grid-shape", *shape, "--contamination-fraction", "0.1",
                       "--seed", 11, "--out", sim) == 0
        ids, w = sio.read_weights_matrix(str(sim / "weights_matrix.csv"))
        zero = None
        if case == "isolated unit":
            w[n - 1] = w[:, n - 1] = 0.0
            zero = (n - 1, 0)
        dense, triplets = self.write_both(tmp_path, ids, w, zero)
        outputs = []
        for name, path in (("dense", dense), ("triplets", triplets)):
            common = ("--curves", sim / "curves.csv", "--weights-matrix", path,
                      "--no-normalize")
            assert run_cli("fit", *common, "--response", sim / "response.csv",
                           "--basis", "fourier", "--num-basis", 5, "--method", "rfpls",
                           "--estimator", "m", "--num-components", 3,
                           "--out", tmp_path / f"fit_{name}") == 0
            assert run_cli("predict", *common, "--model", tmp_path / f"fit_{name}/model.json",
                           "--out", tmp_path / f"pred_{name}") == 0
            outputs.append([read_bytes(tmp_path / f"fit_{name}" / f) for f in
                            ("fit_report.json", "model.json")]
                           + [read_bytes(tmp_path / f"pred_{name}" / "predictions.csv")])
        assert outputs[0] == outputs[1]

    def test_predict_and_diagnose_make_no_dense_w(self, tmp_path, dense_builds):
        sim = tmp_path / "sim"
        run_cli("simulate", "--n", 144, "--p", 21, "--weights-scheme", "queen",
                "--grid-shape", 12, 12, "--seed", 2, "--out", sim)
        ids, w = sio.read_weights_matrix(str(sim / "weights_matrix.csv"))
        _, triplets = self.write_both(tmp_path, ids, (w > 0.0) * 1.0)
        common = ("--curves", sim / "curves.csv", "--weights-matrix", triplets)
        assert run_cli("fit", *common, "--response", sim / "response.csv",
                       "--basis", "fourier", "--num-basis", 5, "--out", tmp_path / "fit") == 0
        dense_builds.clear()
        assert run_cli("predict", *common, "--model", tmp_path / "fit/model.json",
                       "--out", tmp_path / "pred") == 0
        assert run_cli("diagnose", "--response", sim / "response.csv",
                       "--weights-matrix", triplets, "--out", tmp_path / "diag") == 0
        assert dense_builds == []


class TestRepeatedRows:
    def test_repeated_curve_pair_rejected(self, tmp_path):
        path = tmp_path / "curves.csv"
        sio.write_csv(
            str(path), ("id", "t", "value"),
            [("a", "1", "2"), ("a", "2", "3"), ("a", "1", "5")],
        )
        with pytest.raises(ValidationError, match=r"pair \(a, 1\)"):
            sio.read_curves_long(str(path))

    def test_repeated_response_id_rejected(self, tmp_path, capsys):
        # wide curves a, a, b against a response a, a, b: each value must
        # belong to one unit, never to the last row with its id
        grid = np.linspace(0.0, 1.0, 5)
        curves_path, response_path = tmp_path / "wide.csv", tmp_path / "y.csv"
        sio.write_csv(
            str(curves_path), ["id"] + [repr(float(t)) for t in grid],
            [[cid] + [repr(float(v)) for v in row]
             for cid, row in zip("aab", np.arange(15.0).reshape(3, 5))],
        )
        sio.write_csv(str(response_path), ("id", "y"), [("a", "10"), ("a", "20"), ("b", "30")])
        ids, _, _ = sio.read_curves_wide(str(curves_path))
        rids, y = sio.read_response(str(response_path))
        with pytest.raises(ValidationError, match=r"y\.csv: id 'a' is given more than once"):
            sio.align_to(ids, rids, y, str(response_path))
        code = run_cli(
            "fit", "--curves", str(curves_path), "--wide", "--response", str(response_path),
            "--coords", str(response_path), "--out", str(tmp_path / "run"),
        )
        assert code == 2
        assert "id 'a' is given more than once" in capsys.readouterr().err

    def test_repeated_curve_id_rejected(self):
        with pytest.raises(ValidationError, match=r"units aligned with w\.csv: id 'a'"):
            sio.align_to(["a", "a", "b"], ["a", "b", "c"], np.eye(3), "w.csv")


class TestDenseRows:
    @pytest.mark.parametrize("reader, header", [
        (sio.read_weights_matrix, ("id", "a", "b")),
        (sio.read_curves_wide, ("id", "0.0", "1.0")),
    ])
    def test_first_bad_token_is_named(self, tmp_path, reader, header):
        path = tmp_path / "dense.csv"
        sio.write_csv(str(path), header, [("a", "0.0", "1.5"), ("b", "x", "y")])
        with pytest.raises(ValidationError, match=r"dense\.csv: cannot parse 'x' as a number"):
            reader(str(path))

    def test_values_parse_exactly(self, tmp_path):
        w = np.array([[0.0, -0.0, 5e-324], [1e300, 0.1, -2.5], [1 / 3, 7.0, 1e-310]])
        path = tmp_path / "w.csv"
        sio.write_weights_matrix(str(path), ["a", "b", "c"], w)
        ids, got = sio.read_weights_matrix(str(path))
        assert ids == ["a", "b", "c"]
        assert got.tobytes() == w.tobytes()


class TestWideFormat:
    def test_wide_round_trip(self, tmp_path):
        grid = np.linspace(0.0, 1.0, 5)
        curves = np.arange(10.0).reshape(2, 5)
        path = tmp_path / "wide.csv"
        sio.write_csv(
            str(path),
            ["id"] + [sio._fmt(t) for t in grid],
            [["a"] + [sio._fmt(v) for v in curves[0]],
             ["b"] + [sio._fmt(v) for v in curves[1]]],
        )
        ids, g, c = sio.read_curves_wide(str(path))
        assert ids == ["a", "b"]
        assert np.array_equal(g, grid)
        assert np.array_equal(c, curves)
