#!/usr/bin/env python3
"""Density estimation without MCMC: exact moments by the forward-backward
recursion at q=1, sampled terms at q=3, credible bands, and the posterior
over the series length."""

import numpy as np

from series_prior import (
    DensityDataset,
    ModelSizePrior,
    bases_for_prior,
    credible_band,
    exact_moment,
    mc_moment,
)
from series_prior.harness import grid_metrics, metric_grid, mixture_51, sample_density

density = mixture_51()
data = sample_density(density, 100, seed=42)
prior = ModelSizePrior.geometric(0.9, 5, 25)
grid = metric_grid(100)

print("=== exact posterior mean, q=1 (posterior-averaged histogram) ===")
summary = exact_moment(data, grid, bases_for_prior(1, prior), prior, a=1.0)
summary = credible_band(summary, 0.95)
l1, l2 = grid_metrics(summary.mean, density, grid)
print(f"n=100: l1 {l1:.3f}, l2 {l2:.3f} against the true mixture")
top = np.argsort(summary.j_weights)[-3:][::-1]
print("most probable series lengths:",
      {int(summary.j_values[i]): round(float(summary.j_weights[i]), 3) for i in top})

print("\n=== sampled terms, q=3 (N = 3000 per dimension) ===")
summary3 = mc_moment(data, grid, bases_for_prior(3, prior), prior, n_terms=3000, seed=7)
summary3 = credible_band(summary3, 0.95)
l1, l2 = grid_metrics(summary3.mean, density, grid)
width = float(np.mean(summary3.band_high - summary3.band_low))
print(f"n=100: l1 {l1:.3f}, l2 {l2:.3f}, mean band width {width:.3f}")
print(f"max Monte-Carlo standard error on the grid: {summary3.mc_se.max():.4f}")

print("\n=== bands narrow as data accumulate (3 paired replications) ===")
widths = {100: [], 500: []}
for rep in range(3):
    full = sample_density(density, 500, seed=np.random.SeedSequence([31, rep]))
    for n in (100, 500):
        d = DensityDataset(full.observations[:n])
        s = credible_band(mc_moment(d, grid, bases_for_prior(3, prior), prior,
                                    n_terms=3000, seed=rep))
        widths[n].append(float(np.mean(s.band_high - s.band_low)))
for n in (100, 500):
    print(f"n={n}: mean band width {np.mean(widths[n]):.3f}")
