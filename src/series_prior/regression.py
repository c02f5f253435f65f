"""Conjugate series-regression posteriors.

Three likelihoods share the random-series setup f(z) = theta' B(z) on the
plain (unnormalized) basis:

* Gaussian responses with a Zellner g-prior on theta and an inverse-gamma
  prior on the noise variance: closed-form per-dimension posteriors and
  marginal likelihoods, mixed over the dimension prior.
* Binary responses with an identity link and independent Beta priors: the
  partition of unity turns both likelihood factors into sums of basis terms,
  so the same active-set expansion as the density engine applies.
* Poisson counts with an identity link and independent Gamma priors: the
  exponential factor collapses coordinatewise; each observation contributes
  X_i expansion slots.

binary_builder and poisson_builder give each dimension's slots and
coefficient family. Their hyperparameters are plain values (a, b), each a
positive finite scalar, repeated once per basis function, or a length-J
vector; a bad value is refused when the builder is made. binary_moment and
poisson_moment hand the builders to the shared
driver _engine.posterior_moments, which returns the same PosteriorSummary as
the density module; its docstring states the rules of ``mode``. The exact
recursion runs over the success/failure or count state of the open basis
functions, and each sampled assignment contributes its exact posterior
moments given its counts, so a sampled success probability stays in [0, 1].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import _engine
from ._engine import PosteriorSummary, lgamma, logsumexp
from .basis import Basis, curve_operators, eval_basis, grid_columns
from .priors import ModelSizePrior, _hyperparameter, _per_basis


@dataclass(frozen=True)
class RegressionDataset:
    """Scalar covariates in [0, 1] with real, binary, or count responses."""

    covariates: np.ndarray
    responses: np.ndarray
    kind: str = "gaussian"  # gaussian | binary | poisson

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.covariates, dtype=float))
        x = np.atleast_1d(np.asarray(self.responses, dtype=float))
        if z.shape != x.shape or z.ndim != 1:
            raise ValueError("covariates and responses must be equal-length vectors")
        _check_finite(covariates=z, responses=x)
        if z.size and (z.min() < 0.0 or z.max() > 1.0):
            raise ValueError("covariates must lie in [0, 1]")
        if self.kind == "binary" and not np.all(np.isin(x, (0.0, 1.0))):
            raise ValueError("binary responses must be 0 or 1")
        if self.kind == "poisson" and (np.any(x < 0) or np.any(x != np.round(x))):
            raise ValueError("poisson responses must be nonnegative integers")
        if self.kind not in ("gaussian", "binary", "poisson"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        object.__setattr__(self, "covariates", z)
        object.__setattr__(self, "responses", x)

    @property
    def n(self) -> int:
        return self.covariates.size


@dataclass(frozen=True)
class FunctionalDataset:
    """Curves sampled on a common grid, with scalar responses."""

    grid: np.ndarray
    curves: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.grid, dtype=float))
        Z = np.atleast_2d(np.asarray(self.curves, dtype=float))
        x = np.atleast_1d(np.asarray(self.responses, dtype=float))
        if g.size < 2:
            raise ValueError("curve grid needs at least 2 points")
        _check_finite(grid=g, curves=Z, responses=x)
        if np.any(np.diff(g) <= 0) or g.min() < 0.0 or g.max() > 1.0:
            raise ValueError("curve grid must be strictly increasing inside [0, 1]")
        if Z.shape[1] != g.size:
            raise ValueError("curve rows must match the grid length")
        if x.shape != (Z.shape[0],):
            raise ValueError("one response per curve required")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "curves", Z)
        object.__setattr__(self, "responses", x)

    @property
    def n(self) -> int:
        return self.curves.shape[0]


def design_matrix(data, basis: Basis) -> np.ndarray:
    """n x J design: basis values at scalar covariates, or trapezoid integrals
    of curve times basis for functional data.

    The functional integrals refine the curve grid with the basis knots
    (curves linearly interpolated, knot values taken one-sided), so the
    quadrature error is O(grid step^2) even for bases that jump at knots.
    That quadrature is linear in the curve, so the design is
    data.curves @ W for basis.curve_operators's W of (basis, grid). This
    keys the one basis; design_matrices keeps every dimension's operator
    on a grid as one memo entry.
    """
    return design_matrices(data, {basis.dimension: basis})[basis.dimension]


def design_matrices(data, bases: Mapping[int, Basis]) -> dict[int, np.ndarray]:
    """design_matrix(data, bases[j]) for every j, with the same bits.

    For functional data the operators come from one
    basis.curve_operators(bases, grid) entry, so a training set, its test
    set and every later fit on that grid share them, for as many
    dimensions as fit that memo's size cap (sum(J) up to about 10,000 on a
    100-point grid).
    """
    if isinstance(data, RegressionDataset):
        return {j: eval_basis(basis, data.covariates) for j, basis in bases.items()}
    if isinstance(data, FunctionalDataset):
        ops = curve_operators(bases, data.grid)
        return {j: data.curves @ ops[j] for j in bases}
    raise ValueError(f"unsupported dataset type {type(data).__name__}")


@dataclass(frozen=True)
class GaussianPosterior:
    """Per-dimension conjugate posteriors under the g-prior, mixed over J.

    coef_mean[j] is the shrunk least-squares solution g/(1+g) * theta_hat;
    coef_cov_base[j] times a draw of sigma^2 is the coefficient covariance;
    sigma^2 | X, j is inverse-gamma(sigma2_shape, sigma2_scale[j]).
    """

    j_values: np.ndarray
    j_weights: np.ndarray
    log_marginals: np.ndarray
    coef_mean: dict[int, np.ndarray]
    coef_cov_base: dict[int, np.ndarray]
    sigma2_shape: float
    sigma2_scale: dict[int, float]
    g: float
    infeasible: tuple[int, ...] = ()


def gaussian_fit(
    designs: Mapping[int, np.ndarray],
    responses,
    model_prior: ModelSizePrior,
    g: float | None = None,
    a: float = 1.0,
    b: float = 1.0,
) -> GaussianPosterior:
    """Closed-form g-prior update for every dimension in the truncation range.

    g=None uses the unit-information default g = n. Non-finite responses or
    design entries are refused. Each design is factorized once, by a thin
    SVD W = U diag(s) V', and everything else is read from that:

    * the rank, by np.linalg.matrix_rank's rule: the count of singular
      values above s_max * max(W.shape) * eps. A design of lower rank than
      its column count is excluded from the model average with a warning;
    * the posterior mean g/(1+g) V (U'x / s);
    * the fitted norm ||W theta_hat||^2 = ||U'x||^2 in the marginal likelihood;
    * coef_cov_base = g/(1+g) V diag(s^-2) V', never (W'W)^-1, whose
      normal equations square the condition number of W.
    """
    x = np.atleast_1d(np.asarray(responses, dtype=float))
    _check_finite(responses=x)
    n = x.size
    if g is None:
        g = float(n)
    for name, value in (("g", g), ("a", a), ("b", b)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    shrink = g / (1.0 + g)
    j_values = np.asarray(sorted(designs), dtype=int)
    missing = set(model_prior.support) - set(designs)
    if missing:
        raise ValueError(f"no design supplied for dimensions {sorted(missing)}")
    eps = np.finfo(float).eps
    logml, means, covs, scales, feasible = [], {}, {}, {}, []
    for j in j_values:
        W = np.asarray(designs[j], dtype=float)
        if W.shape[0] != n:
            raise ValueError(f"design for J={j} has {W.shape[0]} rows, expected {n}")
        _check_finite(**{f"design for J={j}": W})
        ncol = W.shape[1]
        U, s, Vt = np.linalg.svd(W, full_matrices=False)
        if np.count_nonzero(s > s.max(initial=0.0) * max(W.shape) * eps) < ncol:
            warnings.warn(
                f"design for J={j} is rank deficient; dimension excluded from the average"
            )
            continue
        ux = U.T @ x
        quad = float(x @ x - shrink * ux @ ux)
        lm = (
            -0.5 * n * np.log(2.0 * np.pi)
            - 0.5 * ncol * np.log1p(g)
            + a * np.log(b)
            - lgamma(a)
            + lgamma(a + 0.5 * n)
            - (a + 0.5 * n) * np.log(b + 0.5 * quad)
        )
        v_over_s = Vt.T / s  # V diag(1/s)
        feasible.append(int(j))
        logml.append(float(lm))
        means[int(j)] = shrink * (v_over_s @ ux)
        covs[int(j)] = shrink * (v_over_s @ v_over_s.T)
        scales[int(j)] = b + 0.5 * quad
    if not feasible:
        raise ValueError("every dimension was rank deficient; nothing to average")
    j_arr = np.asarray(feasible, dtype=int)
    logml = np.asarray(logml)
    log_post = model_prior.log_pmf(j_arr) + logml
    weights = np.exp(log_post - logsumexp(log_post))
    return GaussianPosterior(
        j_values=j_arr,
        j_weights=weights,
        log_marginals=logml,
        coef_mean=means,
        coef_cov_base=covs,
        sigma2_shape=a + 0.5 * n,
        sigma2_scale=scales,
        g=g,
        infeasible=tuple(int(j) for j in j_values if int(j) not in feasible),
    )


def gaussian_function_moments(
    post: GaussianPosterior, designs: Mapping[int, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Model-averaged posterior mean and variance of theta' row for each row.

    Within dimension J the variance is E[sigma^2 | J] * row' Sigma_J row; the
    spread of the per-dimension means around the average is added to it.
    """
    return _mixed_moments(post, designs, 0.0)


def gaussian_predict(
    post: GaussianPosterior, new_designs: Mapping[int, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Model-averaged predictive means and variances of a new response per row.

    The variance is that of gaussian_function_moments plus the noise: within
    dimension J it is E[sigma^2 | J] * (1 + row' Sigma_J row).
    """
    return _mixed_moments(post, new_designs, 1.0)


def _mixed_moments(post: GaussianPosterior, designs, noise: float):
    """Mix over J the mean and variance of theta' row plus noise times sigma^2."""
    if post.sigma2_shape <= 1.0:
        raise ValueError("posterior sigma^2 mean undefined (shape <= 1); need more data")
    acc_mean = acc_m2 = 0.0
    for j, wt in zip(post.j_values, post.j_weights):
        W = np.asarray(designs[int(j)], dtype=float)
        if W.shape[1] != post.coef_mean[int(j)].size:
            raise ValueError(f"design for J={j} has the wrong column count")
        mu = W @ post.coef_mean[int(j)]
        s2 = post.sigma2_scale[int(j)] / (post.sigma2_shape - 1.0)
        qform = np.einsum("ij,jk,ik->i", W, post.coef_cov_base[int(j)], W)
        acc_mean = acc_mean + wt * mu
        acc_m2 = acc_m2 + wt * (s2 * (noise + qform) + mu**2)
    return acc_mean, acc_m2 - acc_mean**2


def _params_for(params):
    """J -> (a, b) of independent Beta or Gamma priors at dimension J; params is checked here, once."""
    a, b = params
    a, b = _hyperparameter(a, "a"), _hyperparameter(b, "b")
    return lambda J: (_per_basis(a, J, "a"), _per_basis(b, J, "b"))


def _check_finite(**arrays) -> None:
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")


def binary_builder(data: RegressionDataset, bases: Mapping[int, Basis], beta_params, z_grid):
    """The per-dimension (slots, family, eval_cols) builder of the binary model.

    beta_params is (a, b) of the independent Beta priors, each a positive
    finite scalar or a length-J vector. Each observation contributes one
    slot; successes and failures update the two Beta count groups through
    the expansion of theta'B and (1-theta)'B.
    Rows are sorted by response, then covariate: group-major, so that the
    rows of one window (group, first index, width) are adjacent, and the
    sampler draws and counts a window's rows together, not row by row.
    Every dimension's slots come from one de Boor pass per spline order
    (_engine.dimension_slots). Its grid columns are basis.grid_columns's,
    made once per (bases, grid) in the process and shared by every fit.
    """
    if data.kind != "binary":
        raise ValueError("binary_moment needs a binary dataset")
    order = np.lexsort((data.covariates, data.responses))
    z = data.covariates[order]
    groups = np.where(data.responses[order] == 1.0, 0, 1)
    params_for = _params_for(beta_params)
    cols = grid_columns(bases, z_grid)
    tables = {j: slots for j, slots, _, _ in _engine.dimension_slots(bases, z, groups=groups)}

    def build(j):
        return tables[j], _engine.BetaFamily(*params_for(bases[j].dimension)), cols[j]

    return build


def poisson_builder(data: RegressionDataset, bases: Mapping[int, Basis], gamma_params, z_grid):
    """The per-dimension (slots, family, eval_cols) builder of the Poisson model.

    gamma_params is (a, b) of the independent Gamma(a, b) priors (rate b),
    each a positive finite scalar or a length-J vector. The exponential
    likelihood factor contributes the per-coordinate tilt c_k = sum_i B_k(Z_i);
    each observation then adds X_i expansion slots for the monomial part
    (ordered tuples carry the multinomial multiplicities). The slots and
    the tilt come from one de Boor pass per spline order
    (_engine.dimension_slots): c_k is a weighted bincount of the local
    values, in observation order. The grid columns are basis.grid_columns's,
    made once per (bases, grid) in the process and shared by every fit.
    """
    if data.kind != "poisson":
        raise ValueError("poisson_moment needs a poisson dataset")
    order = np.lexsort((data.responses, data.covariates))
    z = data.covariates[order]
    x = data.responses[order].astype(int)
    params_for = _params_for(gamma_params)
    cols = grid_columns(bases, z_grid)
    parts = {}
    for j, slots, first, values in _engine.dimension_slots(bases, z, repeats=x):
        index = first[:, None] + np.arange(values.shape[1])
        parts[j] = slots, np.bincount(index.ravel(), weights=values.ravel(), minlength=bases[j].dimension)

    def build(j):
        slots, tilt = parts[j]
        return slots, _engine.GammaFamily(*params_for(bases[j].dimension), tilt), cols[j]

    return build


def binary_moment(
    data: RegressionDataset,
    bases: Mapping[int, Basis],
    beta_params,
    model_prior: ModelSizePrior,
    z_grid,
    m: int = 2,
    mode: str = "auto",
    n_terms: int = 3000,
    seed=0,
) -> PosteriorSummary:
    """Posterior moments of the success probability f(z) = theta' B(z)."""
    _engine.check_mode(mode, n_terms, seed)  # before the builder evaluates any basis
    build = binary_builder(data, bases, beta_params, z_grid)
    return _engine.posterior_moments(build, bases, model_prior, z_grid, m, mode, n_terms, seed)


def poisson_moment(
    data: RegressionDataset,
    bases: Mapping[int, Basis],
    gamma_params,
    model_prior: ModelSizePrior,
    z_grid,
    m: int = 2,
    mode: str = "auto",
    n_terms: int = 3000,
    seed=0,
) -> PosteriorSummary:
    """Posterior moments of the Poisson rate f(z) = theta' B(z)."""
    _engine.check_mode(mode, n_terms, seed)  # before the builder evaluates any basis
    build = poisson_builder(data, bases, gamma_params, z_grid)
    return _engine.posterior_moments(build, bases, model_prior, z_grid, m, mode, n_terms, seed)
