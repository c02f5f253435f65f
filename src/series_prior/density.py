"""MCMC-free posterior moments for random-series density estimation.

The density is modeled as p(x) = sum_k theta_k B*_k(x) with normalized
B-splines, a Dirichlet prior on theta given the dimension J, and a truncated
prior on J. The posterior mean and second moment at any point are finite
sums over active-set index assignments.

density_builder(bases, grid, a) has the shape of every model's builder: it
checks the Dirichlet parameter ``a`` (a positive finite scalar or a
length-J vector), makes each dimension's Dirichlet family, evaluates no
basis, and returns an _engine.Builder, the one copy of the bases and grid
that the fit reads. Its for_data(data) reads the grid columns from
basis.grid_columns, made once per (bases, grid) in the process, and makes
the dataset's one slot table from one de Boor pass over the observations
(_engine.dimension_slots). Every posterior-moment entry point of the
package (exact_moment, mc_moment, harness.fit_density and the regression
module's binary_moment and poisson_moment) hands its builder and data to
_engine.posterior_moments, which checks every argument before it calls
for_data, and whose docstring states the rules of the mode and the term cap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Mapping

import numpy as np

from . import _engine
from ._engine import EnumerationCapError, PosteriorSummary
from .basis import Basis, grid_columns, make_basis
from .priors import ModelSizePrior, _hyperparameter, _per_basis

__all__ = [
    "DensityDataset",
    "PosteriorSummary",
    "EnumerationCapError",
    "bases_for_prior",
    "density_builder",
    "exact_moment",
    "mc_moment",
    "credible_band",
]


@dataclass(frozen=True)
class DensityDataset:
    """Observations on [0, 1]."""

    observations: np.ndarray

    def __post_init__(self):
        obs = np.atleast_1d(np.asarray(self.observations, dtype=float))
        if obs.ndim != 1:
            raise ValueError("observations must be one-dimensional")
        if not np.all(np.isfinite(obs)):
            raise ValueError("observations must be finite")
        if obs.size and (obs.min() < 0.0 or obs.max() > 1.0):
            raise ValueError(
                "observations must lie in [0, 1]; pass rescale=True to from_array "
                "to min-max rescale"
            )
        object.__setattr__(self, "observations", obs)

    @staticmethod
    def from_array(x, rescale: bool = False) -> "DensityDataset":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if rescale and x.size and np.all(np.isfinite(x)):  # non-finite values are rejected below
            lo, hi = x.min(), x.max()
            if hi > lo:
                x = (x - lo) / (hi - lo)
            else:
                x = np.full_like(x, 0.5)
        return DensityDataset(x)

    @property
    def n(self) -> int:
        return self.observations.size


def bases_for_prior(q: int, model_prior: ModelSizePrior) -> dict[int, Basis]:
    """One basis per dimension in the truncation range (J = q + K - 1)."""
    if model_prior.j_min < q:
        raise ValueError(
            f"truncation range [{model_prior.j_min}, {model_prior.j_max}] contains "
            f"dimensions below the spline order q={q}; need J >= q"
        )
    return {j: make_basis(q, j - q + 1) for j in model_prior.support}


def density_builder(bases: Mapping[int, Basis], grid, a=1.0):
    """The _engine.Builder of densities on these bases and grid, for _engine.posterior_moments.

    a is the Dirichlet parameter: a positive finite scalar, repeated once
    per basis function, or a length-J vector. It is checked here, and each
    dimension's Dirichlet family, which depends only on (bases, a), is made
    here, once; no basis is evaluated. for_data(data) refuses data that is
    not a DensityDataset, reads the grid columns from basis.grid_columns
    (made once per (bases, grid) in the process), makes the dataset's one
    slot table in one de Boor pass over the sorted observations, so that
    outputs do not depend on their order (_engine.dimension_slots), and
    maps each j of bases to (family, grid columns).
    """
    a = _hyperparameter(a, "a")
    families = {j: _engine.DirichletFamily(_per_basis(a, basis.dimension, "a")) for j, basis in bases.items()}

    def for_data(data: DensityDataset):
        if not isinstance(data, DensityDataset):
            raise ValueError(f"a density fit needs a DensityDataset, got {type(data).__name__}")
        cols = grid_columns(bases, grid, normalized=True)
        slots, _, _ = _engine.dimension_slots(bases, np.sort(data.observations), normalized=True)
        return slots, {j: (families[j], cols[j]) for j in bases}

    return _engine.Builder(bases, grid, for_data)


def exact_moment(
    data: DensityDataset,
    grid,
    bases: Mapping[int, Basis],
    model_prior: ModelSizePrior,
    a=1.0,
    m: int = 2,
) -> PosteriorSummary:
    """Exact posterior moments: every assignment, summed by the engine's
    forward-backward recursion rather than listed one by one.

    m=1 computes the mean only; m=2 also the pointwise second moment. This is
    mode "exact" of _engine.posterior_moments, so the term cap applies.
    """
    return _engine.posterior_moments(density_builder(bases, grid, a), data, model_prior, m=m, mode="exact")


def mc_moment(
    data: DensityDataset,
    grid,
    bases: Mapping[int, Basis],
    model_prior: ModelSizePrior,
    a=1.0,
    m: int = 2,
    n_terms: int = 3000,
    seed=0,
) -> PosteriorSummary:
    """Posterior moments by uniform sampling of N assignments per dimension.

    Each draw contributes its weight and its exact posterior moments given
    its counts, so the mean is a weighted average of densities and
    integrates to 1. The draws are shared between numerator and denominator
    (the ratio estimator has O(1/N) bias); mc_se is the delta-method
    standard error of the mean. It sees only the spread of the sampled
    terms, so from moderate n on, where a few dominant assignments are
    rarely drawn, it understates the error (README, "Computation modes").
    Reproducible for a given seed regardless of scheduling: each dimension
    uses a generator derived from (seed, j).
    """
    builder = density_builder(bases, grid, a)
    return _engine.posterior_moments(builder, data, model_prior, m=m, mode="mc", n_terms=n_terms, seed=seed)


def _band_z(level: float) -> float:
    """The normal quantile z of a central band of probability level, which must lie in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    return NormalDist().inv_cdf(0.5 + level / 2.0)


def credible_band(summary: PosteriorSummary, level: float = 0.95) -> PosteriorSummary:
    """Pointwise mean +/- z(level) * sd bands, floored at zero and capped at summary.upper.

    sd comes from the first two posterior moments; requires second_moment.
    The cap is 1 for a success probability, so a binary band stays in [0, 1].
    """
    z = _band_z(level)
    if summary.second_moment is None:
        raise ValueError("second_moment not populated; rerun with m=2")
    sd = np.sqrt(np.maximum(summary.second_moment - summary.mean**2, 0.0))
    low = np.maximum(summary.mean - z * sd, 0.0)
    high = np.minimum(summary.mean + z * sd, summary.upper)
    return replace(summary, band_low=low, band_high=high)
