"""Contamination-aware data generator for the spatial functional model.

Responses are generated through the reduced form

    Y = (I - rho W)^{-1} (beta0 1 + integral(X beta) + eps),

with curves drawn as random Fourier combinations. Vertical outliers shift
selected responses after generation; leverage outliers scale selected curves
before generation. Randomness is split into independent, seedable streams
(curves / noise / contamination / coordinates) so switching contamination on
never perturbs the clean draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .functional import FunctionalDataset, build_basis, trapezoid_weights
from .weights import SpatialWeights, check_rho, grid_contiguity, inverse_distance_weights

_STREAMS = {"curves": 0, "noise": 1, "contamination": 2, "coords": 3}


@dataclass(frozen=True)
class SimSpec:
    n: int = 100
    p: int = 101
    interval: tuple = (0.0, 1.0)
    beta0: float = 1.0
    sigma: float = 1.0
    rho: float = 0.4
    beta_coeffs: tuple = (1.0, 0.5, -0.5, 0.25, 0.0)
    n_curve_basis: int = 5
    weights_scheme: str = "inverse_distance"
    grid_shape: tuple = None
    contamination_fraction: float = 0.0
    contamination_kind: str = "vertical"     # vertical | leverage | both
    vertical_magnitude: float = 20.0         # in units of sigma
    leverage_amplitude: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 4 or self.p < 4:
            raise ValidationError("n and p must be at least 4")
        if not 0.0 <= self.contamination_fraction <= 0.45:
            raise ValidationError("contamination fraction must be in [0, 0.45]")
        if self.contamination_kind not in ("vertical", "leverage", "both"):
            raise ValidationError("unknown contamination kind")
        if self.weights_scheme not in ("inverse_distance", "rook", "queen"):
            raise ValidationError("unknown weights scheme")
        if self.sigma < 0:
            raise ValidationError("sigma must be nonnegative")


@dataclass(frozen=True, eq=False)
class SimTruth:
    """Ground truth for scoring a simulated draw."""

    beta0: float
    sigma: float
    rho: float
    beta_coeffs: np.ndarray
    beta_on_grid: np.ndarray
    curve_coeffs: np.ndarray
    eps: np.ndarray
    clean_response: np.ndarray
    vertical_indices: tuple
    leverage_indices: tuple
    seed: int


def _stream(seed: int, name: str) -> np.random.Generator:
    child = np.random.SeedSequence(seed).spawn(len(_STREAMS))[_STREAMS[name]]
    return np.random.Generator(np.random.PCG64(child))


def _make_weights(spec: SimSpec) -> SpatialWeights:
    if spec.weights_scheme == "inverse_distance":
        rng = _stream(spec.seed, "coords")
        lat = rng.uniform(25.0, 48.0, spec.n)
        lon = rng.uniform(-122.0, -70.0, spec.n)
        return inverse_distance_weights(lat, lon)
    shape = spec.grid_shape
    if shape is None:
        rows = int(np.floor(np.sqrt(spec.n)))
        if rows * (spec.n // rows) != spec.n:
            raise ValidationError("provide grid_shape for non-rectangular n")
        shape = (rows, spec.n // rows)
    if shape[0] * shape[1] != spec.n:
        raise ValidationError("grid_shape does not match n")
    return grid_contiguity(shape[0], shape[1], spec.weights_scheme)


def simulate(spec: SimSpec):
    """Draw one dataset; returns (FunctionalDataset, SpatialWeights, SimTruth)."""
    grid = np.linspace(spec.interval[0], spec.interval[1], spec.p)
    basis = build_basis("fourier", max(spec.n_curve_basis, len(spec.beta_coeffs)), grid)

    weights = _make_weights(spec)
    check_rho(spec.rho, weights)

    rng_curves = _stream(spec.seed, "curves")
    scale = 1.0 / np.arange(1, spec.n_curve_basis + 1)
    coef = rng_curves.standard_normal((spec.n, spec.n_curve_basis)) * scale
    curves = coef @ basis.eval[:, : spec.n_curve_basis].T

    rng_cont = _stream(spec.seed, "contamination")
    n_cont = int(np.floor(spec.contamination_fraction * spec.n))
    vertical_idx: np.ndarray = np.array([], dtype=int)
    leverage_idx: np.ndarray = np.array([], dtype=int)
    if n_cont > 0 and spec.contamination_kind in ("vertical", "both"):
        vertical_idx = np.sort(rng_cont.choice(spec.n, size=n_cont, replace=False))
    if n_cont > 0 and spec.contamination_kind in ("leverage", "both"):
        leverage_idx = np.sort(rng_cont.choice(spec.n, size=n_cont, replace=False))
    if leverage_idx.size:
        curves = curves.copy()
        curves[leverage_idx] *= spec.leverage_amplitude

    beta_c = np.asarray(spec.beta_coeffs, dtype=float)
    beta_on_grid = basis.eval[:, : beta_c.size] @ beta_c
    q = trapezoid_weights(grid)
    signal = curves @ (q * beta_on_grid)

    rng_noise = _stream(spec.seed, "noise")
    eps = rng_noise.standard_normal(spec.n) * spec.sigma

    rhs = spec.beta0 + signal + eps
    y_clean = weights.reduced_form(spec.rho, rhs)

    y = y_clean.copy()
    if vertical_idx.size:
        y[vertical_idx] += spec.vertical_magnitude * spec.sigma

    dataset = FunctionalDataset(grid=grid, curves=curves, response=y)
    truth = SimTruth(
        beta0=spec.beta0, sigma=spec.sigma, rho=spec.rho,
        beta_coeffs=beta_c, beta_on_grid=beta_on_grid,
        curve_coeffs=coef, eps=eps,
        clean_response=y_clean,
        vertical_indices=tuple(int(i) for i in vertical_idx),
        leverage_indices=tuple(int(i) for i in leverage_idx),
        seed=spec.seed,
    )
    return dataset, weights, truth
