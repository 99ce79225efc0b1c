"""Robust spatial scalar-on-function regression.

A scalar response observed on a lattice is regressed on a functional
predictor while a spatially lagged response term captures dependence between
neighboring units. Dimension reduction (classical or robust functional
principal components / partial least squares) turns the functional problem
into a finite spatial autoregression, estimated by maximum likelihood or by
a bounded-influence M-estimator.
"""

from .diagnostics import MetricsReport, MoranReport, fit_metrics, global_moran, local_morans_i
from .exceptions import (
    DegenerateDataError,
    NonConvergenceError,
    NumericalError,
    RankDeficiencyError,
    SingularGramError,
    SsofrError,
    ValidationError,
)
from .fpca import Decomposition, fpc, rfpc, scores_for
from .fpls import HampelConfig, PlsState, fpls, hampel_weight, pls_regression_coefficients, rfpls
from .functional import (
    BasisSystem,
    CoefficientMatrix,
    FunctionalDataset,
    build_basis,
    inner_product,
    project_curves,
    reconstruct_curves,
    trapezoid_weights,
)
from .mscale import MScaleConfig, MScaleResult, m_scale, m_scale_info, tukey_loss, tukey_loss_norm
from .pipeline import (
    BasisSpec,
    FittedModel,
    fit,
    model_from_json,
    model_to_json,
    predict,
    select_K,
)
from .sar import (
    MTuning,
    SarDesign,
    SarFit,
    SarParams,
    eta_ml,
    eta_robust,
    huber_psi,
    log_likelihood,
    m_fit,
    ml_fit,
    rho_tilde,
)
from .simulation import SimSpec, SimTruth, simulate
from .weights import (
    SpatialWeights,
    from_matrix,
    from_triplets,
    grid_contiguity,
    haversine_distance,
    inverse_distance_weights,
    row_normalize,
)

__version__ = "0.1.0"
