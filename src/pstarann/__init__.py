"""
pstarann: simulation and maximum-likelihood estimation of space-time
autoregressive panels with an additive sigmoid neural-network component
(PSTAR-ANN(p) models).

The pieces compose bottom-up:

    weights      spatial weight matrices, the log-det backends (spectrum,
                 Chebyshev series), A0 = I - phi0 W algebra
    densities    unit-variance error families (normal, scaled t, Laplace)
    model        parameter vector, panel checks, causality, canonical form
    simulate     panel generation and the panel CSV wire format
    likelihood   residuals, exact conditional log-likelihood, analytic
                 score/Hessian
    estimate     multi-start MLE (trust-region Newton on the box for every
                 family; Laplace on a pseudo-Huber smoothing homotopy),
                 sandwich covariance, LR test
    diagnostics  Moran's I, residual diagnostics, heatmap grids
    cli          reproducible simulate / fit / replicate commands
"""

from .densities import ErrorDensity, density_from_config, laplace, normal, scaled_t
from .diagnostics import heatmap_grid, morans_i, residual_diagnostics
from .estimate import (
    FitError,
    FitResult,
    default_bounds,
    fit,
    initial_points,
    likelihood_ratio_test,
    sandwich_covariance,
)
from .likelihood import LikelihoodWorkspace, NumericalError, log_likelihood
from .model import (
    CausalityCheck,
    ModelSpec,
    PanelData,
    ParameterVector,
    canonicalize,
    check_causal,
    param_names,
    psi_expansion,
    sigmoid,
)
from .simulate import generate_covariates, read_panel_csv, simulate, write_panel_csv
from .weights import WeightMatrix, build_queen_lattice, from_adjacency, read_adjacency_csv

__version__ = "0.1.0"

__all__ = [
    "WeightMatrix", "build_queen_lattice", "from_adjacency", "read_adjacency_csv",
    "ErrorDensity", "normal", "scaled_t", "laplace", "density_from_config",
    "ModelSpec", "ParameterVector", "PanelData", "CausalityCheck",
    "sigmoid",
    "check_causal", "psi_expansion", "canonicalize", "param_names",
    "generate_covariates", "simulate", "write_panel_csv", "read_panel_csv",
    "LikelihoodWorkspace", "NumericalError", "log_likelihood",
    "FitResult", "FitError", "default_bounds",
    "fit", "initial_points", "sandwich_covariance", "likelihood_ratio_test",
    "morans_i", "residual_diagnostics", "heatmap_grid",
]
