"""Command-line interface: fit, predict, simulate, diagnose, weights.

Validation problems exit with code 2, numerical failures with code 3; all
artifacts are written atomically and are byte-identical across reruns of the
same seeded command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io as sio
from .diagnostics import fit_metrics, local_morans_i
from .exceptions import NumericalError, SsofrError, ValidationError
from .functional import FunctionalDataset
from .mscale import DEFAULT_MSCALE, MScaleConfig
from .pipeline import (
    DECOMPOSITION_METHODS,
    DEFAULT_TRIM_GRID,
    ESTIMATORS,
    SCHEMA_VERSION,
    BasisSpec,
    fit,
    model_from_json,
    model_to_json,
    predict,
    select_K,
)
from .sar import MTuning
from .simulation import SimSpec, simulate
from .weights import from_matrix, from_triplets, grid_contiguity, inverse_distance_weights


def _json_dump(obj) -> str:
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(obj)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _load_curves(args):
    if args.wide:
        return sio.read_curves_wide(args.curves)
    return sio.read_curves_long(args.curves)


def _load_weights(args, ids):
    if getattr(args, "coords", None):
        cids, lat, lon = sio.read_coords(args.coords)
        lat = sio.align_to(ids, cids, lat, args.coords)
        lon = sio.align_to(ids, cids, lon, args.coords)
        return inverse_distance_weights(lat, lon)
    if getattr(args, "weights_matrix", None):
        wids, w = sio.read_weights(args.weights_matrix)
        w = sio.align_to(ids, wids, w, args.weights_matrix)
        return _file_weights(len(ids), w, args)
    raise ValidationError("one of --coords or --weights-matrix is required")


def _file_weights(n, w, args):
    """SpatialWeights of n units from a weights file's dense matrix or its
    `Triplets`, which build W in CSR form."""
    if isinstance(w, sio.Triplets):
        return from_triplets(n, *w, normalize=not args.no_normalize)
    return from_matrix(w, normalize=not args.no_normalize)


def _tuning(args) -> MTuning:
    return MTuning(c1=args.c1, c2=args.c2, c3=args.c3)


def _mscale_config(args) -> MScaleConfig:
    return MScaleConfig(c=args.mscale_c, delta=args.mscale_delta)


def cmd_fit(args) -> int:
    ids, grid, curves = _load_curves(args)
    rids, y = sio.read_response(args.response)
    y = sio.align_to(ids, rids, y, args.response)
    weights = _load_weights(args, ids)
    dataset = FunctionalDataset(grid=grid, curves=curves, response=y, ids=tuple(ids))
    basis_spec = BasisSpec(kind=args.basis, M=args.num_basis, degree=args.degree)
    trim_grid = tuple(args.trim) if args.trim else DEFAULT_TRIM_GRID

    kwargs = dict(tuning=_tuning(args), m_scale_config=_mscale_config(args))
    if args.select:
        K = select_K(
            dataset, weights, basis_spec, args.method, args.select,
            args.estimator, **kwargs,
        )
    else:
        K = args.num_components
    model = fit(
        dataset, weights, basis_spec, args.method, K, args.estimator,
        trim_grid=trim_grid, **kwargs,
    )

    os.makedirs(args.out, exist_ok=True)
    sio.atomic_write_text(os.path.join(args.out, "model.json"), model_to_json(model) + "\n")
    sio.write_csv(
        os.path.join(args.out, "beta_curve.csv"), ("t", "beta"),
        zip(sio._fmt_all(grid), sio._fmt_all(model.beta_grid)),
    )
    report = {
        "method": model.method,
        "estimator": model.estimator,
        "K": model.K,
        "rho": model.params.rho,
        "sigma": model.params.sigma,
        "theta": model.params.theta.tolist(),
        "intercept_uncentered": model.intercept_uncentered,
        "converged": bool(model.fit_info.converged),
        "iterations": int(model.fit_info.iterations),
        "boundary": bool(model.fit_info.boundary),
        "events": list(model.fit_info.events),
        "fitted_values": model.fitted_values.tolist(),
        "metrics": {
            sio._fmt(t): {"mse": m.mse, "r2": m.r2, "n_used": m.n_used}
            for t, m in model.insample_metrics.items()
        },
    }
    sio.atomic_write_text(os.path.join(args.out, "fit_report.json"), _json_dump(report))
    return 0


def cmd_predict(args) -> int:
    try:
        with open(args.model, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read model file {args.model}: {exc}") from None
    model = model_from_json(text)
    ids, grid, curves = _load_curves(args)
    weights = _load_weights(args, ids)
    y = None
    if args.response:
        rids, y = sio.read_response(args.response)
        y = sio.align_to(ids, rids, y, args.response)
    dataset = FunctionalDataset(
        grid=grid, curves=curves,
        response=np.zeros(len(ids)) if y is None else y, ids=tuple(ids),
    )
    try:
        yhat = predict(model, dataset, weights)
    except ValidationError as exc:
        # a grid/basis mismatch at prediction time is a numerical-stage
        # failure of this command, not a malformed input file
        raise NumericalError(str(exc)) from exc
    # the metrics come before any file, so a bad trim fraction writes none
    trim_grid = tuple(args.trim) if args.trim else DEFAULT_TRIM_GRID
    report = None if y is None else {
        "metrics": {
            sio._fmt(t): (lambda m: {"mspe": m.mse, "r2_p": m.r2, "n_used": m.n_used})(
                fit_metrics(y, yhat, t)
            )
            for t in trim_grid
        }
    }

    os.makedirs(args.out, exist_ok=True)
    sio.write_csv(
        os.path.join(args.out, "predictions.csv"), ("id", "y_hat"),
        zip(ids, sio._fmt_all(yhat)),
    )
    if report is not None:
        sio.atomic_write_text(
            os.path.join(args.out, "predict_report.json"), _json_dump(report)
        )
    return 0


def cmd_simulate(args) -> int:
    beta_coeffs = tuple(
        sio._parse_float(v, "--beta-coeffs") for v in args.beta_coeffs.split(",")
    )
    spec = SimSpec(
        n=args.n, p=args.p, interval=(args.interval[0], args.interval[1]),
        beta0=args.beta0, sigma=args.sigma, rho=args.rho,
        beta_coeffs=beta_coeffs,
        weights_scheme=args.weights_scheme,
        grid_shape=tuple(args.grid_shape) if args.grid_shape else None,
        contamination_fraction=args.contamination_fraction,
        contamination_kind=args.contamination_kind,
        vertical_magnitude=args.vertical_magnitude,
        leverage_amplitude=args.leverage_amplitude,
        seed=args.seed,
    )
    dataset, weights, truth = simulate(spec)
    ids = [f"u{i:04d}" for i in range(spec.n)]

    os.makedirs(args.out, exist_ok=True)
    sio.write_curves_long(os.path.join(args.out, "curves.csv"), ids, dataset.grid, dataset.curves)
    sio.write_response(os.path.join(args.out, "response.csv"), ids, dataset.response)
    sio.write_weights_matrix(os.path.join(args.out, "weights_matrix.csv"), ids, weights.w)
    truth_doc = {
        "beta0": truth.beta0,
        "sigma": truth.sigma,
        "rho": truth.rho,
        "beta_coeffs": truth.beta_coeffs.tolist(),
        "beta_on_grid": truth.beta_on_grid.tolist(),
        "curve_coeffs": truth.curve_coeffs.tolist(),
        "eps": truth.eps.tolist(),
        "clean_response": truth.clean_response.tolist(),
        "vertical_indices": list(truth.vertical_indices),
        "leverage_indices": list(truth.leverage_indices),
        "seed": truth.seed,
        "streams": "seed -> (curves, noise, contamination, coords)",
    }
    sio.atomic_write_text(os.path.join(args.out, "truth.json"), _json_dump(truth_doc))
    return 0


def cmd_diagnose(args) -> int:
    ids, y = sio.read_response(args.response)
    weights = _load_weights(args, ids)
    report = local_morans_i(y, weights)
    os.makedirs(args.out, exist_ok=True)
    sio.write_csv(
        os.path.join(args.out, "moran.csv"),
        ("id", "deviation", "spatial_lag", "local_i", "quadrant"),
        [
            (i, sio._fmt(d), sio._fmt(l), sio._fmt(m), q)
            for i, d, l, m, q in zip(
                ids, report.deviation, report.spatial_lag,
                report.local_i, report.quadrant,
            )
        ],
    )
    counts = {q: report.quadrant.count(q) for q in sorted(set(report.quadrant))}
    doc = {
        "global_moran": report.global_moran,
        "n": len(ids),
        "quadrant_counts": counts,
    }
    sio.atomic_write_text(os.path.join(args.out, "moran_report.json"), _json_dump(doc))
    return 0


def cmd_weights(args) -> int:
    if args.grid:
        rows, cols = args.grid
        weights = grid_contiguity(rows, cols, args.scheme)
        ids = [f"u{i:04d}" for i in range(weights.n)]
    elif args.coords:
        ids, lat, lon = sio.read_coords(args.coords)
        weights = inverse_distance_weights(lat, lon)
    elif args.weights_matrix:
        ids, w = sio.read_weights(args.weights_matrix)
        weights = _file_weights(len(ids), w, args)
    else:
        raise ValidationError("provide --coords, --weights-matrix, or --grid")
    os.makedirs(args.out, exist_ok=True)
    sio.write_weights_matrix(os.path.join(args.out, "weights_matrix.csv"), ids, weights.w)
    doc = {
        "scheme": weights.scheme,
        "n": weights.n,
        "lambda_min": weights.lambda_min,
        "rho_lower": weights.rho_bounds[0],
        "rho_upper": weights.rho_bounds[1],
        "n_isolated": int(weights.isolated.sum()),
    }
    sio.atomic_write_text(os.path.join(args.out, "weights_report.json"), _json_dump(doc))
    return 0


def _add_weights_args(p):
    p.add_argument("--coords", help="coordinates CSV (id,lat,lon)")
    p.add_argument("--weights-matrix", help="dense or triplet weight-matrix CSV")
    p.add_argument("--no-normalize", action="store_true",
                   help="skip row normalization of a custom weight matrix")


def _add_tuning_args(p):
    tuning = MTuning()
    p.add_argument("--mscale-c", type=float, default=DEFAULT_MSCALE.c)
    p.add_argument("--mscale-delta", type=float, default=DEFAULT_MSCALE.delta)
    p.add_argument("--c1", type=float, default=tuning.c1)
    p.add_argument("--c2", type=float, default=tuning.c2)
    p.add_argument("--c3", type=float, default=tuning.c3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssofr",
        description="Robust spatial scalar-on-function regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model")
    p.add_argument("--curves", required=True)
    p.add_argument("--wide", action="store_true", help="curves CSV is wide format")
    p.add_argument("--response", required=True)
    _add_weights_args(p)
    p.add_argument("--basis", choices=("bspline", "fourier"), default="bspline")
    p.add_argument("--num-basis", type=int, default=15)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--method", choices=DECOMPOSITION_METHODS, default="fpc")
    p.add_argument("--estimator", choices=ESTIMATORS, default="ml")
    p.add_argument("--num-components", type=int, default=2)
    p.add_argument("--select", help="K selection rule: ev:TAU, bic, or cv:FOLDS")
    p.add_argument("--trim", type=float, action="append",
                   help="trim fraction for reported metrics (repeatable)")
    _add_tuning_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict from a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--curves", required=True)
    p.add_argument("--wide", action="store_true")
    p.add_argument("--response", help="optional true responses for metrics")
    _add_weights_args(p)
    p.add_argument("--trim", type=float, action="append")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="generate synthetic data")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--p", type=int, default=101)
    p.add_argument("--interval", type=float, nargs=2, default=(0.0, 1.0))
    p.add_argument("--beta0", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--rho", type=float, default=0.4)
    p.add_argument("--beta-coeffs", default="1,0.5,-0.5,0.25,0")
    p.add_argument("--weights-scheme",
                   choices=("inverse_distance", "rook", "queen"),
                   default="inverse_distance")
    p.add_argument("--grid-shape", type=int, nargs=2)
    p.add_argument("--contamination-kind",
                   choices=("vertical", "leverage", "both"), default="vertical")
    p.add_argument("--contamination-fraction", type=float, default=0.0)
    p.add_argument("--vertical-magnitude", type=float, default=20.0)
    p.add_argument("--leverage-amplitude", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("diagnose", help="local Moran's I diagnostics")
    p.add_argument("--response", required=True)
    _add_weights_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("weights", help="build and inspect a weight matrix")
    _add_weights_args(p)
    p.add_argument("--grid", type=int, nargs=2, help="rows cols for contiguity")
    p.add_argument("--scheme", choices=("rook", "queen"), default="rook")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_weights)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SsofrError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
