"""End-to-end model fitting and prediction.

fit() wires the pieces together: basis construction, curve projection, the
chosen decomposition, and ML or robust M estimation of the autoregressive
parameters. Prediction applies the reduced form, solving (I - rho W) y = mu
so no observed responses are needed for new units. Models serialize to a
versioned JSON document that round-trips exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import fit_metrics
from .exceptions import NumericalError, ValidationError
from .fpca import Decomposition, _check_k, fpc, rfpc, scores_for
from .fpls import HampelConfig, fpls, rfpls
from .functional import (
    BasisSystem,
    FunctionalDataset,
    build_basis,
    project_curves,
)
from .mscale import DEFAULT_MSCALE, MScaleConfig
from .sar import MTuning, SarDesign, SarFit, SarParams, m_fit, ml_fit
from .weights import SpatialWeights, check_rho

SCHEMA_VERSION = 1
DECOMPOSITION_METHODS = ("fpc", "fpls", "rfpc", "rfpls")
ESTIMATORS = ("ml", "m")
# trim fractions of the in-sample metrics, and of the CLI's reports
DEFAULT_TRIM_GRID = (0.0, 0.05, 0.10)


@dataclass(frozen=True)
class BasisSpec:
    kind: str = "bspline"
    M: int = 15
    degree: int = 3

    def build(self, grid) -> BasisSystem:
        return build_basis(self.kind, self.M, grid, degree=self.degree)


@dataclass
class FittedModel:
    """A fitted spatial scalar-on-function regression."""

    basis: BasisSystem
    decomposition: Decomposition
    params: SarParams
    fit_info: SarFit
    beta_coeffs: np.ndarray
    beta_grid: np.ndarray
    method: str
    estimator: str
    K: int
    fitted_values: np.ndarray
    insample_metrics: dict = field(default_factory=dict)

    @property
    def rho(self) -> float:
        return self.params.rho

    @property
    def sigma(self) -> float:
        return self.params.sigma

    @property
    def intercept_uncentered(self) -> float:
        """Intercept of the model written against uncentered curves."""
        c = self.decomposition.center
        return float(self.params.theta[0] - c @ self.basis.gram @ self.beta_coeffs)


def _choice(value: str, allowed: tuple, what: str) -> str:
    """value in lower case, which must be one of `allowed`."""
    value = value.lower()
    if value not in allowed:
        raise ValidationError(f"{what} must be one of {allowed}")
    return value


def _decompose(method, coeffs, basis, Y, K, m_scale_config, hampel_config):
    """The decomposition of `method`, one of DECOMPOSITION_METHODS.

    fpc and rfpc return at most as many components as the curves' numerical
    rank (`_numerical_rank`), with `truncated` set when that is fewer than
    K, as fpls and rfpls stop where the covariance with Y vanishes.
    """
    if method in ("fpc", "rfpc"):
        _check_k(K, *coeffs.coeffs.shape)
        k = max(1, min(K, _numerical_rank(coeffs, basis)))
        decomp = fpc(coeffs, basis, k) if method == "fpc" else rfpc(coeffs, basis, k, m_scale_config)
        return replace(decomp, truncated=True) if k < K else decomp
    if method == "fpls":
        return fpls(coeffs, basis, Y, K)
    return rfpls(coeffs, basis, Y, K, hampel_config, m_scale_config)


def fit(
    dataset: FunctionalDataset,
    weights: SpatialWeights,
    basis_spec: BasisSpec,
    decomposition_method: str = "fpc",
    K: int = 2,
    estimator: str = "ml",
    tuning: MTuning = MTuning(),
    m_scale_config: MScaleConfig = DEFAULT_MSCALE,
    hampel_config: HampelConfig = HampelConfig(),
    trim_grid: tuple = DEFAULT_TRIM_GRID,
) -> FittedModel:
    """Fit the spatial scalar-on-function model."""
    return _fit(dataset, weights, basis_spec.build, decomposition_method, K, estimator,
                tuning, m_scale_config, hampel_config, trim_grid)


def _fit(
    dataset, weights, build, decomposition_method, K, estimator,
    tuning=MTuning(), m_scale_config=DEFAULT_MSCALE, hampel_config=HampelConfig(),
    trim_grid=DEFAULT_TRIM_GRID,
):
    """`fit` with the basis from build(grid): `select_K` passes one that
    returns the basis it built for the grid, so its candidate fits build
    no basis and factor no projector of their own."""
    method = _choice(decomposition_method, DECOMPOSITION_METHODS, "method")
    est = _choice(estimator, ESTIMATORS, "estimator")
    if dataset.n != weights.n:
        raise ValidationError("dataset and weights have different unit counts")

    basis = build(dataset.grid)
    coeffs = project_curves(dataset, basis)
    decomp = _decompose(
        method, coeffs, basis, dataset.response, K, m_scale_config, hampel_config
    )
    Z = np.column_stack([np.ones(dataset.n), decomp.scores])
    design = SarDesign(Y=dataset.response, Z=Z, weights=weights)
    info = ml_fit(design) if est == "ml" else m_fit(design, tuning)
    info.events.extend(decomp.events)

    beta_coeffs = decomp.phi @ info.params.theta[1:]
    beta_grid = basis.eval @ beta_coeffs
    fitted = weights.reduced_form(info.params.rho, Z @ info.params.theta)
    metrics = {t: fit_metrics(dataset.response, fitted, t) for t in trim_grid}
    return FittedModel(
        basis=basis, decomposition=decomp, params=info.params, fit_info=info,
        beta_coeffs=beta_coeffs, beta_grid=beta_grid, method=method,
        estimator=est, K=decomp.K, fitted_values=fitted,
        insample_metrics=metrics,
    )


def predict(
    model: FittedModel,
    new_dataset: FunctionalDataset,
    weights_full: SpatialWeights,
) -> np.ndarray:
    """Reduced-form predictions for curves observed on the training grid."""
    if new_dataset.grid.shape != model.basis.grid.shape or not np.array_equal(
        new_dataset.grid, model.basis.grid
    ):
        raise ValidationError("new curves are not on the training grid")
    if weights_full.n != new_dataset.n:
        raise ValidationError("weights size must match prediction units")
    try:
        check_rho(model.params.rho, weights_full)
    except NumericalError as exc:
        raise NumericalError(
            f"fitted {exc} of the supplied weight matrix; "
            "predictions through (I - rho W)^{-1} would not be defined"
        ) from exc
    coeffs = project_curves(new_dataset, model.basis)
    scores = scores_for(model.decomposition, coeffs, model.basis)
    mu = model.params.theta[0] + scores @ model.params.theta[1:]
    return weights_full.reduced_form(model.params.rho, mu)


def _parse_rule(rule):
    """("bic",), ("ev", tau) or ("cv", folds) from "bic", "ev", "ev:TAU",
    "cv" or "cv:FOLDS"; tau defaults to 0.95 and folds to 5."""
    name, colon, arg = str(rule).partition(":")
    try:
        if name == "bic" and not colon:
            return ("bic",)
        if name == "ev":
            return ("ev", float(arg) if colon else 0.95)
        if name == "cv":
            return ("cv", int(arg) if colon else 5)
    except ValueError:
        pass
    raise ValidationError(
        f"unknown selection rule {rule!r}: use bic, ev, ev:TAU, cv or cv:FOLDS"
    )


def _subset(dataset, units):
    """The dataset restricted to a boolean mask of units; the weights among
    them are `SpatialWeights.among`."""
    return FunctionalDataset(
        grid=dataset.grid, curves=dataset.curves[units], response=dataset.response[units],
    )


def _numerical_rank(coeffs, basis) -> int:
    """Numerical rank of the Gram-scaled, mean-centred coefficients: the
    eigenvalues of their scatter above 1e-12 times the largest. Components
    beyond it have scores that are rounding noise or constant across units,
    so the design of the spatial model loses rank."""
    a = coeffs.coeffs
    s = np.linalg.svd((a - a.mean(axis=0)) @ basis.gram_sqrt, compute_uv=False)
    return int(np.count_nonzero(s * s > 1e-12 * s[0] * s[0]))


def select_K(
    dataset: FunctionalDataset,
    weights: SpatialWeights,
    basis_spec: BasisSpec,
    decomposition_method: str = "fpc",
    rule="ev:0.95",
    estimator: str = "ml",
    K_max: int | None = None,
    **fit_kwargs,
) -> int:
    """Choose the truncation level by explained variance, BIC, or CV.

    K_max, given or by default min(n - 1, M, 20), is capped at the numerical
    rank of the centred curves (`_numerical_rank`), so no candidate K asks
    for components the curves do not have.
    """
    parsed = _parse_rule(rule)
    method = _choice(decomposition_method, DECOMPOSITION_METHODS, "method")
    basis = basis_spec.build(dataset.grid)

    def fit_k(data, w, k):
        return _fit(data, w, lambda grid: basis, method, k, estimator, **fit_kwargs)

    coeffs = project_curves(dataset, basis)
    if K_max is None:
        K_max = min(dataset.n - 1, basis.M, 20)
    K_max = max(1, min(K_max, _numerical_rank(coeffs, basis)))

    if parsed[0] == "ev":
        tau = parsed[1]
        if not 0.0 < tau < 1.0:
            raise ValidationError("explained-variance threshold must be in (0,1)")
        decomp = _decompose(
            method, coeffs, basis, dataset.response, K_max,
            fit_kwargs.get("m_scale_config", DEFAULT_MSCALE),
            fit_kwargs.get("hampel_config", HampelConfig()),
        )
        lam = np.asarray(decomp.lambdas, dtype=float)
        total = lam.sum()
        if total <= 0:
            return 1
        frac = np.cumsum(lam) / total
        return int(np.argmax(frac >= tau) + 1)

    if parsed[0] == "bic":
        best_k, best_bic = 1, np.inf
        n = dataset.n
        for k in range(1, K_max + 1):
            model = fit_k(dataset, weights, k)
            resid = (
                dataset.response
                - model.params.rho * weights.matvec(dataset.response)
                - model.params.theta[0]
                - model.decomposition.scores @ model.params.theta[1:]
            )
            rss = float(resid @ resid)
            bic = n * np.log(max(rss, 1e-300) / n) + (k + 2) * np.log(n)
            if bic < best_bic:
                best_k, best_bic = k, bic
        return best_k

    folds = parsed[1]
    if folds < 2:
        raise ValidationError("cv needs at least 2 folds")
    if folds > dataset.n // 2:
        raise ValidationError(
            f"cv:{folds} leaves a test fold with fewer than 2 units; "
            f"{dataset.n} units allow at most cv:{dataset.n // 2}"
        )
    assignment = np.arange(dataset.n) % folds
    splits = [
        [(_subset(dataset, units), weights.among(units))
         for units in (assignment != f, assignment == f)]
        for f in range(folds) if np.any(assignment == f)
    ]
    best_k, best_mspe = 1, np.inf
    for k in range(1, K_max + 1):
        errors = []
        for (d_train, w_train), (d_test, w_test) in splits:
            if d_train.n <= k + 2:
                continue
            try:
                model = fit_k(d_train, w_train, k)
                pred = predict(model, d_test, w_test)
            except (NumericalError, ValidationError):
                errors.append(np.inf)
                continue
            errors.append(float(np.mean((d_test.response - pred) ** 2)))
        mspe = float(np.mean(errors)) if errors else np.inf
        if mspe < best_mspe:
            best_k, best_mspe = k, mspe
    return best_k


def model_to_json(model: FittedModel) -> str:
    """Serialize to a versioned JSON document (exact float round-trip)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "method": model.method,
        "estimator": model.estimator,
        "K": model.K,
        "basis": {
            "kind": model.basis.kind,
            "M": model.basis.M,
            "degree": model.basis.degree,
        },
        "grid": model.basis.grid.tolist(),
        "decomposition": {
            "method": model.decomposition.method,
            "phi": model.decomposition.phi.tolist(),
            "lambdas": model.decomposition.lambdas.tolist(),
            "center": model.decomposition.center.tolist(),
            "truncated": bool(model.decomposition.truncated),
        },
        "params": {
            "theta": model.params.theta.tolist(),
            "sigma": model.params.sigma,
            "rho": model.params.rho,
        },
        "beta_coeffs": model.beta_coeffs.tolist(),
        "fit": {
            "converged": bool(model.fit_info.converged),
            "iterations": int(model.fit_info.iterations),
            "boundary": bool(model.fit_info.boundary),
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def model_from_json(text: str) -> FittedModel:
    """Rebuild a fitted model from its JSON document. Text that is not a
    JSON object, another schema version, and a missing or malformed field
    raise `ValidationError`, which names the field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("model file is not a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported model schema version {doc.get('schema_version')!r}"
        )

    def get(path, convert=lambda value: value):
        value = doc
        try:
            for key in path.split("."):
                value = value[key]
            return convert(value)
        except KeyError:
            raise ValidationError(f"model file lacks the field {path!r}") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"model file has a bad field {path!r}: {exc}") from None

    def floats(value):
        return np.asarray(value, dtype=float)

    def array(path, shape):
        value = get(path, floats)
        if value.shape != shape:
            raise ValidationError(
                f"model file has a bad field {path!r}: shape {value.shape}, expected {shape}"
            )
        return value

    grid = get("grid", floats)
    kind, M, degree = get("basis.kind"), get("basis.M"), get("basis.degree")
    try:
        basis = build_basis(kind, M, grid, degree=degree or 3)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"model file has a bad field 'basis': {exc}") from None
    lambdas = get("decomposition.lambdas", floats)
    m, k = basis.eval.shape[1], lambdas.size
    decomp = Decomposition(
        phi=array("decomposition.phi", (m, k)),
        lambdas=lambdas,
        scores=np.zeros((0, k)),
        method=get("decomposition.method"),
        center=array("decomposition.center", (m,)),
        basis=basis,
        truncated=get("decomposition.truncated"),
    )
    params = SarParams(
        theta=array("params.theta", (k + 1,)), sigma=get("params.sigma", float),
        rho=get("params.rho", float),
    )
    beta_coeffs = array("beta_coeffs", (m,))
    info = SarFit(
        params=params, method=get("estimator", str.upper),
        converged=get("fit.converged"), iterations=get("fit.iterations"),
        boundary=get("fit.boundary"),
    )
    return FittedModel(
        basis=basis, decomposition=decomp, params=params, fit_info=info,
        beta_coeffs=beta_coeffs, beta_grid=basis.eval @ beta_coeffs,
        method=get("method"), estimator=get("estimator"), K=get("K"),
        fitted_values=np.array([]), insample_metrics={},
    )
