"""Independent oracles used by the test suite.

Everything here recomputes posterior quantities by a route disjoint from the
library's exact engine: enumeration of every index assignment, direct
quadrature over the coefficient space, importance sampling from the prior, or
closed-form histogram algebra. Slots are read from the columns of
_engine.SlotTable. _counts_for and _assignment_terms also give
the Monte-Carlo engine's reference: the weight and conditional moments of
each sampled assignment, from the coefficient family's parameters alone.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy.special import betaln, gammaln, logsumexp, roots_laguerre

from series_prior import _engine
from series_prior._engine import BetaFamily, DirichletFamily, assignment_count
from series_prior.basis import eval_basis, eval_normalized, make_basis


def _counts_for(slots, digits, J, n_groups):
    """Per-assignment count matrices, one per group; digits is (n_slots, C), offsets into each row's window."""
    C = digits.shape[1]
    picked = slots.first[:, None] + digits
    counts = []
    for g in range(n_groups):
        flat = (np.arange(C) * J + picked[slots.group == g]).ravel()
        counts.append(np.bincount(flat, minlength=C * J).reshape(C, J).astype(float))
    return counts


def _log_values_for(slots, digits):
    """The summed log basis values of each assignment column of digits, row after row."""
    picked = np.take_along_axis(slots.log_values, digits, axis=1)
    return sum(picked, np.zeros(digits.shape[1]))


def _assignment_terms(family, counts, eval_cols):
    """Log weight, E[theta'b | counts] and E[(theta'b)^2 | counts] of each assignment row.

    Computed from the family's parameters alone, with none of the family's
    methods, so the enumeration and the sampler's reference share no formula
    with the engines they check.
    """
    if isinstance(family, DirichletFamily):
        alpha = family.a + counts[0]
        s = family.a0 + counts[0].sum(axis=-1)
        log_w = family.log_norm + gammaln(alpha).sum(axis=-1) - gammaln(s)
        lin = alpha @ eval_cols
        return log_w, lin / s[:, None], (lin**2 + alpha @ eval_cols**2) / (s * (s + 1.0))[:, None]
    if isinstance(family, BetaFamily):
        A, B = family.a + counts[0], family.b + counts[1]
        log_w = (betaln(A, B) - betaln(family.a, family.b)).sum(axis=-1)
        mean, var = A / (A + B), A * B / ((A + B) ** 2 * (A + B + 1.0))
    else:
        A = family.a + counts[0]
        log_w = (family.a * np.log(family.b) - gammaln(family.a) + gammaln(A) - A * np.log(family.rate)).sum(axis=-1)
        mean, var = A / family.rate, A / family.rate**2
    lin = mean @ eval_cols
    return log_w, lin, lin**2 + var @ eval_cols**2


def enumerate_mixture(slots, family, J: int, eval_cols, second: bool = False, chunk: int = 8192):
    """Log sums over every one of the q^n assignments: the reference for _engine.exact_mixture.

    Same arguments. Returns (log_den, log_num1, log_num2): the log sum of the
    assignment weights and the log sums of the weights times each
    assignment's first and second grid moments. exact_mixture returns
    (log_den, f1, f2) with the moments given J, so log_num_m is
    log_den + log(f_m).
    """
    ks = slots.width.astype(np.int64)
    total = assignment_count(slots)
    strides = np.ones(len(slots), dtype=np.int64)
    for s in range(len(slots) - 2, -1, -1):
        strides[s] = strides[s + 1] * ks[s + 1]
    den, num1, num2 = [], [], []
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (ids[None, :] // strides[:, None]) % ks[:, None]
        counts = _counts_for(slots, digits, J, family.n_groups)
        log_w, m1, m2 = _assignment_terms(family, counts, eval_cols)
        log_w = log_w + _log_values_for(slots, digits)
        den.append(logsumexp(log_w))
        with np.errstate(divide="ignore"):
            num1.append(logsumexp(log_w[:, None] + np.log(m1), axis=0))
            num2.append(logsumexp(log_w[:, None] + np.log(m2), axis=0))
    log_den = float(logsumexp(den))
    return log_den, logsumexp(np.stack(num1), axis=0), logsumexp(np.stack(num2), axis=0) if second else None


def mix_log_numerators(per_j, log_prior):
    """The mixture over J in the log domain: the reference for _engine.combine_exact.

    per_j holds (log_den, log_num1, log_num2) per dimension, log_num_m being
    log_den + log E[f^m | data, J] (None if absent). Each moment is
    exp(logsumexp_J(log prior + log_num_m) - logsumexp_J(log prior + log_den)).
    Returns (mean, second, j_weights_log) as combine_exact does, through the
    library's logsumexp, so that the J weights follow the same formula.
    """
    log_prior = np.asarray(log_prior, dtype=float)
    log_den_j = np.array([p[0] for p in per_j]) + log_prior
    log_den = _engine.logsumexp(log_den_j)
    mean = second = None
    if per_j[0][1] is not None:
        log_num1 = _engine.logsumexp(np.stack([p[1] for p in per_j]) + log_prior[:, None], axis=0)
        mean = np.exp(log_num1 - log_den)
    if per_j[0][2] is not None:
        log_num2 = _engine.logsumexp(np.stack([p[2] for p in per_j]) + log_prior[:, None], axis=0)
        second = np.exp(log_num2 - log_den)
    return mean, second, log_den_j - log_den


@lru_cache(maxsize=32)
def _stick_breaking_rule(J: int, nodes: int):
    """Quadrature grid over the probability simplex via the stick-breaking map.

    Tensor Gauss-Legendre on [0,1]^(J-1); polynomial integrands (all-ones
    Dirichlet likelihood products) are integrated exactly.
    """
    x, w = leggauss(nodes)
    x = (x + 1.0) / 2.0
    w = w / 2.0
    mesh = np.meshgrid(*([x] * (J - 1)), indexing="ij")
    wmesh = np.meshgrid(*([w] * (J - 1)), indexing="ij")
    V = np.stack([m.ravel() for m in mesh], axis=1)
    W = np.prod(np.stack([m.ravel() for m in wmesh], axis=1), axis=1)
    theta = np.empty((V.shape[0], J))
    rem = np.ones(V.shape[0])
    jac = np.ones(V.shape[0])
    for k in range(J - 1):
        theta[:, k] = V[:, k] * rem
        jac *= rem
        rem = rem * (1.0 - V[:, k])
    theta[:, J - 1] = rem
    return theta, W * jac


def simplex_quadrature_mean(obs, x_grid, q: int, J: int, nodes: int = 12):
    """Posterior mean of the density at x_grid under Dirichlet(1,...,1), fixed J."""
    basis = make_basis(q, J - q + 1)
    theta, W = _stick_breaking_rule(J, nodes)
    like = np.prod(theta @ eval_normalized(basis, np.asarray(obs)).T, axis=1) if len(obs) else np.ones(theta.shape[0])
    den = W @ like
    px = theta @ eval_normalized(basis, np.asarray(x_grid)).T
    return (W * like) @ px / den


def importance_sampling_mean_given(theta, obs, x_grid, q: int, J: int):
    """Importance estimate of the posterior density mean from given prior
    draws, with delta-method standard errors of the ratio."""
    n_draws = theta.shape[0]
    basis = make_basis(q, J - q + 1)
    like = (
        np.prod(theta @ eval_normalized(basis, np.asarray(obs)).T, axis=1)
        if len(obs)
        else np.ones(n_draws)
    )
    px = theta @ eval_normalized(basis, np.asarray(x_grid)).T
    num_terms = px * like[:, None]
    num = num_terms.mean(axis=0)
    den = like.mean()
    ratio = num / den
    var_num = num_terms.var(axis=0, ddof=1) / n_draws
    var_den = like.var(ddof=1) / n_draws
    cov = (num_terms * like[:, None]).mean(axis=0) - num * den
    cov = cov * n_draws / (n_draws - 1) / n_draws
    rel = var_num / num**2 + var_den / den**2 - 2.0 * cov / (num * den)
    se = np.abs(ratio) * np.sqrt(np.maximum(rel, 0.0))
    return ratio, se


def importance_sampling_mean(obs, x_grid, q: int, J: int, n_draws: int, seed):
    """Prior-draw importance estimate of the posterior density mean."""
    theta = np.random.default_rng(seed).dirichlet(np.ones(J), size=n_draws)
    return importance_sampling_mean_given(theta, obs, x_grid, q, J)


def union_breakpoint_rule(bases, total_points=10_000):
    """Simpson rule aligned to every knot of every supplied basis."""
    points = np.unique(np.concatenate([b.breakpoints() for b in bases.values()]))
    from series_prior.quadrature import simpson_panel_rule

    return simpson_panel_rule(points, total_points)


def histogram_posterior_mean(obs, grid, j_min: int, j_max: int, p: float):
    """Closed-form q=1 posterior mean: geometric-weighted Dirichlet-multinomial
    histograms with all-ones prior, bin edges at multiples of 1/J."""
    obs = np.asarray(obs, dtype=float)
    grid = np.asarray(grid, dtype=float)
    n = obs.size
    log_post = []
    means = []
    for J in range(j_min, j_max + 1):
        bins = np.minimum(np.floor(obs * J).astype(int), J - 1)
        counts = np.bincount(bins, minlength=J)
        log_ml = (
            gammaln(J)
            + gammaln(1.0 + counts).sum()
            - gammaln(J + n)
            + n * np.log(J)
        )
        log_post.append((J - 1) * np.log1p(-p) + log_ml)
        gbins = np.minimum(np.floor(grid * J).astype(int), J - 1)
        means.append((1.0 + counts[gbins]) / (J + n) * J)
    log_post = np.asarray(log_post)
    weights = np.exp(log_post - log_post.max())
    weights /= weights.sum()
    return weights @ np.stack(means)


def binary_quadrature_mean(z, x, q: int, J: int, a: float, b: float, z_grid, nodes: int = 16):
    """Posterior mean of the success probability by tensor Gauss-Legendre over (0,1)^J."""
    basis = make_basis(q, J - q + 1)
    B = eval_basis(basis, np.asarray(z))
    Bg = eval_basis(basis, np.asarray(z_grid))
    t, w = leggauss(nodes)
    t = (t + 1.0) / 2.0
    w = w / 2.0
    mesh = np.meshgrid(*([t] * J), indexing="ij")
    wmesh = np.meshgrid(*([w] * J), indexing="ij")
    theta = np.stack([m.ravel() for m in mesh], axis=1)
    W = np.prod(np.stack([m.ravel() for m in wmesh], axis=1), axis=1)
    prior = np.prod(theta ** (a - 1.0) * (1.0 - theta) ** (b - 1.0), axis=1)
    fz = theta @ B.T
    like = np.prod(np.where(np.asarray(x) == 1.0, fz, 1.0 - fz), axis=1)
    den = W @ (prior * like)
    num = (W * prior * like) @ (theta @ Bg.T)
    return num / den


def poisson_quadrature_mean(z, x, q: int, J: int, a: float, b: float, z_grid, nodes: int = 40):
    """Posterior mean of the Poisson rate by scaled tensor Gauss-Laguerre over (0,inf)^J."""
    basis = make_basis(q, J - q + 1)
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    B = eval_basis(basis, z)
    Bg = eval_basis(basis, np.asarray(z_grid))
    scale = b + B.sum(axis=0)  # per-coordinate exponential decay rate of the integrand
    u, w = roots_laguerre(nodes)
    mesh = np.meshgrid(*([u] * J), indexing="ij")
    wmesh = np.meshgrid(*([w] * J), indexing="ij")
    U = np.stack([m.ravel() for m in mesh], axis=1)
    W = np.prod(np.stack([m.ravel() for m in wmesh], axis=1), axis=1)
    theta = U / scale
    log_g = (
        ((a - 1.0) * np.log(theta) - b * theta).sum(axis=1)
        - (theta @ B.T).sum(axis=1)
        + (np.log(theta @ B.T) * x).sum(axis=1)
        + U.sum(axis=1)
    )
    g = np.exp(log_g - log_g.max())
    den = W @ g
    num = (W * g) @ (theta @ Bg.T)
    return num / den


def gaussian_marginal_quadrature(w, x, g: float, a: float, b: float):
    """log marginal likelihood at J=1 by nested numeric integration over
    the coefficient and the noise variance."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    n = x.size
    wtw = float(w @ w)
    scale = float(np.abs(x).max() / np.sqrt(wtw) * 10.0 + 10.0)

    def inner(s2):
        def f(theta):
            resid = x - w * theta
            return (
                np.exp(-0.5 * resid @ resid / s2)
                / (2.0 * np.pi * s2) ** (n / 2.0)
                * np.exp(-0.5 * theta**2 * wtw / (g * s2))
                / np.sqrt(2.0 * np.pi * g * s2 / wtw)
            )

        val, _ = integrate.quad(f, -scale, scale, epsabs=1e-13, epsrel=1e-11, limit=200)
        return val * b**a / np.exp(gammaln(a)) * s2 ** (-a - 1.0) * np.exp(-b / s2)

    val, _ = integrate.quad(inner, 1e-6, 200.0, epsabs=1e-13, epsrel=1e-10, limit=400)
    return float(np.log(val))
