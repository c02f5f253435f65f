"""Finite random-series (B-spline) priors for Bayesian nonparametrics.

Submodules:
    basis       B-spline construction, evaluation, integrals, grid
                approximation fitting.
    priors      truncated priors on the series length; coefficient
                hyperparameters are plain values of the builders.
    density     MCMC-free posterior moments for density estimation.
    regression  conjugate Gaussian (g-prior), binary (Beta), and Poisson
                (Gamma) series regression.
    rates       contraction-rate exponents and sieve certification.
    harness     reference densities, simulation experiments, metrics, CSV I/O.
    cli         command-line interface (series-prior).
"""

from .basis import (
    Basis,
    SimplexInfeasibleError,
    eval_basis,
    eval_normalized,
    fit_coefficients,
    make_basis,
    simplex_coefficients,
)
from .density import (
    DensityDataset,
    EnumerationCapError,
    PosteriorSummary,
    bases_for_prior,
    credible_band,
    exact_moment,
    mc_moment,
)
from .priors import ModelSizePrior
from .rates import RateProblem, RateResult, SieveConstants, rate_exponents, solve_sieve
from .regression import (
    FunctionalDataset,
    GaussianPosterior,
    RegressionDataset,
    binary_moment,
    design_matrix,
    design_matrices,
    gaussian_fit,
    gaussian_function_moments,
    gaussian_predict,
    poisson_moment,
)

__version__ = "0.1.0"
