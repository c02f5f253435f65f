#!/usr/bin/env python3
"""Conjugate series regression: binary responses with Beta priors, counts
with Gamma priors, and scalar-on-function Gaussian regression with a g-prior."""

import numpy as np

from series_prior import (
    FunctionalDataset,
    ModelSizePrior,
    RegressionDataset,
    bases_for_prior,
    binary_moment,
    design_matrices,
    gaussian_fit,
    gaussian_predict,
    poisson_moment,
)

rng = np.random.default_rng(1)
zgrid = (np.arange(50) + 0.5) / 50

print("=== binary regression, identity link ===")
z = rng.random(40)
truth = 0.2 + 0.6 * z
x = (rng.random(40) < truth).astype(float)
prior = ModelSizePrior.geometric(0.5, 4, 8)
summary = binary_moment(
    RegressionDataset(z, x, kind="binary"), bases_for_prior(2, prior),
    (1.0, 1.0), prior, zgrid,
)
err = np.abs(summary.mean - (0.2 + 0.6 * zgrid)).mean()
print(f"n=40: mean absolute error of P(X=1|z) {err:.3f}; "
      f"estimates within [0,1]: {bool((summary.mean >= 0).all() and (summary.mean <= 1).all())}")

print("\n=== poisson regression, identity link ===")
zp = rng.random(30)
rate = 1.0 + 3.0 * zp**2
xp = rng.poisson(rate).astype(float)
summary = poisson_moment(
    RegressionDataset(zp, xp, kind="poisson"), bases_for_prior(2, prior),
    (1.0, 1.0), prior, zgrid, mode="mc", n_terms=3000, seed=5,
)
err = np.abs(summary.mean - (1.0 + 3.0 * zgrid**2)).mean()
print(f"n=30: mean absolute error of the rate {err:.3f} "
      f"(max mc standard error {summary.mc_se.max():.3f})")

print("\n=== functional linear regression with a g-prior ===")
grid = np.linspace(0, 1, 80)
beta_true = np.sin(2 * np.pi * grid) + 1.0
harmonics = np.cos(np.pi * np.arange(16)[:, None] * grid[None, :])
curves = rng.standard_normal((60, 16)) @ harmonics  # rich enough for J up to 15
responses = np.trapezoid(curves * beta_true, grid, axis=1) + 0.1 * rng.standard_normal(60)
train = FunctionalDataset(grid, curves[:45], responses[:45])
test = FunctionalDataset(grid, curves[45:], responses[45:])
prior_f = ModelSizePrior.geometric(0.5, 5, 15)
bases = bases_for_prior(3, prior_f)
post = gaussian_fit(design_matrices(train, bases), train.responses, prior_f)
pred, var = gaussian_predict(post, design_matrices(test, bases))
rmse = float(np.sqrt(np.mean((pred - test.responses) ** 2)))
print(f"45 train / 15 test curves: prediction RMSE {rmse:.3f} (noise level 0.1)")
print("posterior weight by dimension:",
      {int(j): round(float(w), 3) for j, w in zip(post.j_values, post.j_weights) if w > 0.01})
