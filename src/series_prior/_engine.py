"""Shared machinery for MCMC-free posterior moments.

The supported likelihoods expand into sums over index assignments: each
observation "slot" picks one basis function from its active set, and given
the assignment the coefficient integral has a closed conjugate form. The
engine enumerates all assignments (exact mode) or samples them uniformly
from the active-set product (Monte-Carlo mode), accumulating numerator and
denominator sums in log space. Posterior moments of the series value
f(x) = theta' b(x) come out of per-assignment posterior-moment identities,
so the evaluation-point index never has to be enumerated explicitly.

posterior_moments is the one driver every model goes through: it picks the
mode, runs the per-dimension sums and mixes them over J. Everything here is
pure given its inputs; the Monte-Carlo generator of dimension J is derived
from (seed, J), so results do not depend on scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.special import betaln, gammaln, logsumexp

#: Largest per-dimension assignment count that exact enumeration accepts.
DEFAULT_TERM_CAP = 10_000_000


class EnumerationCapError(RuntimeError):
    """Exact enumeration would exceed the configured term cap.

    Callers should fall back to the Monte-Carlo mode (mc_moment) instead.
    """

    def __init__(self, total: int, cap: int, j: int):
        super().__init__(
            f"exact enumeration needs {total} terms at J={j} (cap {cap}); use the "
            f"Monte-Carlo mode instead"
        )
        self.total = total
        self.cap = cap
        self.j = j


class Slot(NamedTuple):
    """One expansion slot: the active basis indices and log basis values at its point."""

    indices: np.ndarray
    log_values: np.ndarray
    group: int = 0


def assignment_count(slots: Sequence[Slot]) -> int:
    return prod(len(s.indices) for s in slots) if slots else 1


def slots_for(values: np.ndarray, groups=None, repeats=None) -> list[Slot]:
    """Slots from basis values at the observations, one row per observation.

    groups gives each observation's count group (default 0); repeats the
    number of slots it contributes (default 1).
    """
    active = values > 0.0
    cols = np.nonzero(active)[1]
    logs = np.log(values[active])
    ends = np.cumsum(np.count_nonzero(active, axis=1)).tolist()
    slots = []
    start = 0
    for i, end in enumerate(ends):
        slot = Slot(cols[start:end], logs[start:end], 0 if groups is None else int(groups[i]))
        slots.extend([slot] * (1 if repeats is None else int(repeats[i])))
        start = end
    return slots


class DirichletFamily:
    """Dirichlet(a) coefficient integrals; counts live in one group.

    Log weights include the prior normalizer Gamma(sum a)/prod Gamma(a_k),
    which depends on the dimension and must not be dropped when mixing over J.
    """

    n_groups = 1

    def __init__(self, a: np.ndarray):
        self.a = np.asarray(a, dtype=float)
        self.a0 = float(self.a.sum())
        self.log_norm = float(gammaln(self.a0) - gammaln(self.a).sum())

    def log_weight(self, counts):
        c = counts[0]
        n = c.sum(axis=-1)
        return self.log_norm + gammaln(self.a + c).sum(axis=-1) - gammaln(self.a0 + n)

    def coord_mean(self, counts):
        c = counts[0]
        return (self.a + c) / (self.a0 + c.sum(axis=-1, keepdims=True))

    def pair_mean(self, counts, k, l):
        c = counts[0]
        rows = np.arange(c.shape[0])
        alpha = self.a + c
        s = self.a0 + c.sum(axis=-1)
        ak = alpha[rows, k]
        al = alpha[rows, l] + (k == l)
        return ak * al / (s * (s + 1.0))

    def mixture_mean(self, counts, eval_cols):
        alpha = self.a + counts[0]
        s = self.a0 + counts[0].sum(axis=-1)
        return (alpha @ eval_cols) / s[:, None]

    def mixture_second(self, counts, eval_cols):
        alpha = self.a + counts[0]
        s = self.a0 + counts[0].sum(axis=-1)
        lin = alpha @ eval_cols
        quad = alpha @ (eval_cols**2)
        return (lin**2 + quad) / (s * (s + 1.0))[:, None]


class BetaFamily:
    """Independent Beta(a_k, b_k) integrals; group 0 counts successes, group 1 failures."""

    n_groups = 2

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.log_norm = -betaln(self.a, self.b)

    def _post(self, counts):
        A = self.a + counts[0]
        B = self.b + counts[1]
        return A, B

    def log_weight(self, counts):
        A, B = self._post(counts)
        return (betaln(A, B) + self.log_norm).sum(axis=-1)

    def coord_mean(self, counts):
        A, B = self._post(counts)
        return A / (A + B)

    def _second_diag(self, counts):
        A, B = self._post(counts)
        S = A + B
        return A * (A + 1.0) / (S * (S + 1.0))

    def pair_mean(self, counts, k, l):
        rows = np.arange(counts[0].shape[0])
        e = self.coord_mean(counts)
        e2 = self._second_diag(counts)
        same = k == l
        out = e[rows, k] * e[rows, l]
        out[same] = e2[rows[same], k[same]]
        return out

    def mixture_mean(self, counts, eval_cols):
        return self.coord_mean(counts) @ eval_cols

    def mixture_second(self, counts, eval_cols):
        e = self.coord_mean(counts)
        var = self._second_diag(counts) - e**2
        return (e @ eval_cols) ** 2 + var @ (eval_cols**2)


class GammaFamily:
    """Independent Gamma(a_k, b_k) integrals tilted by exp(-theta'c); one count group.

    c_k is the summed basis value of function k over all observations; the
    posterior given counts m is Gamma(a + m, b + c) coordinatewise.
    """

    n_groups = 1

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.rate = self.b + np.asarray(c, dtype=float)
        self.log_norm = self.a * np.log(self.b) - gammaln(self.a)

    def log_weight(self, counts):
        A = self.a + counts[0]
        return (self.log_norm + gammaln(A) - A * np.log(self.rate)).sum(axis=-1)

    def coord_mean(self, counts):
        return (self.a + counts[0]) / self.rate

    def pair_mean(self, counts, k, l):
        rows = np.arange(counts[0].shape[0])
        A = self.a + counts[0]
        ak = A[rows, k]
        al = A[rows, l] + (k == l)
        return ak * al / (self.rate[k] * self.rate[l])

    def mixture_mean(self, counts, eval_cols):
        return self.coord_mean(counts) @ eval_cols

    def mixture_second(self, counts, eval_cols):
        e = self.coord_mean(counts)
        var = (self.a + counts[0]) / self.rate**2
        return (e @ eval_cols) ** 2 + var @ (eval_cols**2)


def _counts_for(slots, digits, J, n_groups):
    """Per-assignment count matrices, one per group; digits is (n_slots, C)."""
    C = digits.shape[1]
    counts = []
    rows = np.arange(C)
    for g in range(n_groups):
        cols = [s.indices[d] for s, d in zip(slots, digits) if s.group == g]
        if cols:
            flat = (rows[:, None] * J + np.stack(cols, axis=1)).ravel()
            counts.append(np.bincount(flat, minlength=C * J).reshape(C, J).astype(float))
        else:
            counts.append(np.zeros((C, J)))
    return counts


def exact_mixture(
    slots: Sequence[Slot],
    family,
    J: int,
    eval_cols: np.ndarray | None,
    second: bool = False,
    chunk: int = 8192,
    grid_block: int = 256,
):
    """Log-sum over every assignment.

    Returns (log_den, log_num1, log_num2): the log marginal sum, and the log
    numerator sums for the first and second posterior moments of theta'b at
    each evaluation column (None if not requested).
    """
    ks = np.array([len(s.indices) for s in slots], dtype=np.int64)
    total = assignment_count(slots)
    strides = np.ones(len(slots), dtype=np.int64)
    for s in range(len(slots) - 2, -1, -1):
        strides[s] = strides[s + 1] * ks[s + 1]
    den_parts = []
    num1_parts = []
    num2_parts = []
    G = 0 if eval_cols is None else eval_cols.shape[1]
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (
            (ids[None, :] // strides[:, None]) % ks[:, None]
            if len(slots)
            else np.zeros((0, ids.size), dtype=np.int64)
        )
        counts = _counts_for(slots, digits, J, family.n_groups)
        logb = np.zeros(ids.size)
        for s, d in zip(slots, digits):
            logb += s.log_values[d]
        logw = family.log_weight(counts) + logb
        den_parts.append(logsumexp(logw))
        if eval_cols is not None:
            row1 = np.empty(G)
            row2 = np.empty(G) if second else None
            for g0 in range(0, G, grid_block):
                cols = eval_cols[:, g0 : g0 + grid_block]
                m1 = family.mixture_mean(counts, cols)
                row1[g0 : g0 + cols.shape[1]] = logsumexp(logw[:, None] + np.log(m1), axis=0)
                if second:
                    m2 = family.mixture_second(counts, cols)
                    row2[g0 : g0 + cols.shape[1]] = logsumexp(logw[:, None] + np.log(m2), axis=0)
            num1_parts.append(row1)
            if second:
                num2_parts.append(row2)
    log_den = float(logsumexp(np.array(den_parts)))
    log_num1 = logsumexp(np.stack(num1_parts), axis=0) if num1_parts else None
    log_num2 = logsumexp(np.stack(num2_parts), axis=0) if num2_parts else None
    return log_den, log_num1, log_num2


@dataclass
class McPiece:
    """Sampled sums for a single dimension J, in shifted log form.

    Every estimator of a sum S is ``scale * mean(u) * exp(shift)`` where u are
    the max-shifted term values; variances are sample variances (ddof=1).
    """

    log_scale_den: float
    shift_den: float
    mean_u_den: float
    var_u_den: float
    log_scale_num: np.ndarray
    shift_num: np.ndarray
    mean_u_num: np.ndarray
    var_u_num: np.ndarray
    cov_u: np.ndarray
    log_scale_num2: np.ndarray | None
    shift_num2: np.ndarray | None
    mean_u_num2: np.ndarray | None
    n_draws: int


def mc_mixture(
    slots: Sequence[Slot],
    family,
    J: int,
    eval_cols: np.ndarray,
    n_draws: int,
    rng: np.random.Generator,
    second: bool = False,
) -> McPiece:
    """Uniform active-set sampling of assignments, shared between numerator and denominator.

    The i_1..i_n slot draws are reused for every evaluation column; only the
    evaluation-point index is redrawn per column. Estimates of each sum are
    (product of active-set sizes) times the sample mean of term values.
    """
    N = int(n_draws)
    if N < 2:
        raise ValueError(f"need at least 2 sampled terms, got {N}")
    ks = [len(s.indices) for s in slots]
    digits = np.stack(
        [rng.integers(0, k, N) for k in ks], axis=0
    ) if slots else np.zeros((0, N), dtype=np.int64)
    counts = _counts_for(slots, digits, J, family.n_groups)
    logb = np.zeros(N)
    for s, d in zip(slots, digits):
        logb += s.log_values[d]
    lt_den = family.log_weight(counts) + logb
    shift_den = float(np.max(lt_den))
    u_den = np.exp(lt_den - shift_den)
    mean_u_den = float(np.mean(u_den))
    var_u_den = float(np.var(u_den, ddof=1))
    log_scale_den = float(np.sum(np.log(ks))) if ks else 0.0

    G = eval_cols.shape[1]
    e = family.coord_mean(counts)
    rows = np.arange(N)
    lt_num = np.empty((N, G))
    log_k0 = np.empty(G)
    i0_all = np.empty((N, G), dtype=np.int64)
    for g in range(G):
        act = np.flatnonzero(eval_cols[:, g] > 0.0)
        log_k0[g] = np.log(len(act))
        i0 = act[rng.integers(0, len(act), N)]
        i0_all[:, g] = i0
        lt_num[:, g] = lt_den + np.log(eval_cols[i0, g]) + np.log(e[rows, i0])
    shift_num = lt_num.max(axis=0)
    u_num = np.exp(lt_num - shift_num)
    mean_u_num = u_num.mean(axis=0)
    var_u_num = u_num.var(axis=0, ddof=1)
    cov_u = (u_num * u_den[:, None]).sum(axis=0) / (N - 1) - mean_u_num * mean_u_den * N / (N - 1)
    log_scale_num = log_scale_den + log_k0

    log_scale_num2 = shift_num2 = mean_u_num2 = None
    if second:
        lt_num2 = np.empty((N, G))
        for g in range(G):
            act = np.flatnonzero(eval_cols[:, g] > 0.0)
            i0 = i0_all[:, g]
            i0b = act[rng.integers(0, len(act), N)]
            pm = family.pair_mean(counts, i0, i0b)
            lt_num2[:, g] = (
                lt_den + np.log(eval_cols[i0, g]) + np.log(eval_cols[i0b, g]) + np.log(pm)
            )
        shift_num2 = lt_num2.max(axis=0)
        u2 = np.exp(lt_num2 - shift_num2)
        mean_u_num2 = u2.mean(axis=0)
        log_scale_num2 = log_scale_den + 2.0 * log_k0

    return McPiece(
        log_scale_den=log_scale_den,
        shift_den=shift_den,
        mean_u_den=mean_u_den,
        var_u_den=var_u_den,
        log_scale_num=log_scale_num,
        shift_num=shift_num,
        mean_u_num=mean_u_num,
        var_u_num=var_u_num,
        cov_u=cov_u,
        log_scale_num2=log_scale_num2,
        shift_num2=shift_num2,
        mean_u_num2=mean_u_num2,
        n_draws=N,
    )


def combine_exact(per_j, log_prior):
    """Mix per-dimension exact sums by the model prior.

    per_j: list of (log_den, log_num1, log_num2); log_prior: matching array.
    Returns (mean, second, j_weights_log) where second is None if absent.
    """
    log_prior = np.asarray(log_prior, dtype=float)
    log_den_j = np.array([p[0] for p in per_j]) + log_prior
    log_den = logsumexp(log_den_j)
    mean = second = None
    if per_j[0][1] is not None:
        log_num1 = logsumexp(np.stack([p[1] for p in per_j]) + log_prior[:, None], axis=0)
        mean = np.exp(log_num1 - log_den)
    if per_j[0][2] is not None:
        log_num2 = logsumexp(np.stack([p[2] for p in per_j]) + log_prior[:, None], axis=0)
        second = np.exp(log_num2 - log_den)
    return mean, second, log_den_j - log_den


def combine_mc(pieces: Sequence[McPiece], log_prior):
    """Ratio estimator and its delta-method standard error across dimensions.

    Draws are independent across dimensions; within a dimension the numerator
    and denominator share slot draws, so their covariance enters the ratio
    variance with a negative sign.
    """
    log_prior = np.asarray(log_prior, dtype=float)
    n = pieces[0].n_draws
    with np.errstate(divide="ignore"):
        log_D = np.array(
            [lp + p.log_scale_den + p.shift_den + np.log(p.mean_u_den) for lp, p in zip(log_prior, pieces)]
        )
        log_varD = np.array(
            [
                2.0 * (lp + p.log_scale_den + p.shift_den) + np.log(p.var_u_den) - np.log(n)
                for lp, p in zip(log_prior, pieces)
            ]
        )
        log_N = np.stack(
            [lp + p.log_scale_num + p.shift_num + np.log(p.mean_u_num) for lp, p in zip(log_prior, pieces)]
        )
        log_varN = np.stack(
            [
                2.0 * (lp + p.log_scale_num + p.shift_num) + np.log(np.maximum(p.var_u_num, 0.0)) - np.log(n)
                for lp, p in zip(log_prior, pieces)
            ]
        )
    s_D = np.max(log_D)
    Dt = np.sum(np.exp(log_D - s_D))
    varD_rel = np.sum(np.exp(log_varD - 2.0 * s_D))
    s_N = log_N.max(axis=0)
    Nt = np.exp(log_N - s_N).sum(axis=0)
    varN_rel = np.exp(log_varN - 2.0 * s_N).sum(axis=0)
    cov_rel = np.zeros_like(Nt)
    for lp, p in zip(log_prior, pieces):
        fac = np.exp(
            2.0 * lp + p.log_scale_num + p.log_scale_den + p.shift_num + p.shift_den
            - s_N - s_D - np.log(n)
        )
        cov_rel += fac * p.cov_u
    mean = np.exp(s_N - s_D) * Nt / Dt
    rel_var = varN_rel / Nt**2 + varD_rel / Dt**2 - 2.0 * cov_rel / (Nt * Dt)
    se = mean * np.sqrt(np.maximum(rel_var, 0.0))

    second = None
    if pieces[0].mean_u_num2 is not None:
        with np.errstate(divide="ignore"):
            log_N2 = np.stack(
                [
                    lp + p.log_scale_num2 + p.shift_num2 + np.log(p.mean_u_num2)
                    for lp, p in zip(log_prior, pieces)
                ]
            )
        second = np.exp(logsumexp(log_N2, axis=0) - (s_D + np.log(Dt)))
    j_weights_log = log_D - (s_D + np.log(Dt))
    return mean, se, second, j_weights_log


@dataclass(frozen=True)
class PosteriorSummary:
    """Grid summary of the posterior over the estimated function.

    mc_se is zero in exact mode. j_weights are the posterior probabilities
    of each dimension in the truncation range (j_values aligned).
    """

    grid: np.ndarray
    mean: np.ndarray
    second_moment: np.ndarray | None
    band_low: np.ndarray | None
    band_high: np.ndarray | None
    mc_se: np.ndarray
    j_values: np.ndarray
    j_weights: np.ndarray
    mode: str


def posterior_moments(
    build: Callable[[int], tuple[Sequence[Slot], object, np.ndarray]],
    bases: Mapping,
    model_prior,
    grid,
    m: int = 2,
    mode: str = "auto",
    n_terms: int = 3000,
    seed=0,
    term_cap: int = DEFAULT_TERM_CAP,
) -> PosteriorSummary:
    """Posterior moments at the grid points, mixed over every dimension in bases.

    build(j) returns (slots, family, eval_cols) for dimension j, where
    eval_cols holds the basis values at the grid points (J x G). m=1 computes
    the mean only; m=2 also the pointwise second moment. mode "exact"
    enumerates every assignment and raises EnumerationCapError at the first
    dimension that needs more than term_cap terms; "mc" samples n_terms
    assignments per dimension; "auto" is exact when every dimension is within
    the cap, sampled otherwise. Dimensions are built, used and dropped one at
    a time.
    """
    if m not in (1, 2):
        raise ValueError(f"moment order must be 1 or 2, got {m}")
    if mode not in ("auto", "exact", "mc"):
        raise ValueError(f"mode must be auto, exact, or mc, got {mode!r}")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    j_values = np.asarray(sorted(bases), dtype=int)
    if j_values.size == 0:
        raise ValueError("empty truncation range")
    missing = set(model_prior.support) - set(bases)
    if missing:
        raise ValueError(f"no basis supplied for dimensions {sorted(missing)}")
    log_prior = model_prior.log_pmf(j_values)
    if mode == "auto":
        worst = max(assignment_count(build(j)[0]) for j in j_values)
        mode = "exact" if worst <= term_cap else "mc"
    per_j = []
    for j in j_values:
        slots, family, eval_cols = build(j)
        J = bases[j].dimension
        if mode == "exact":
            total = assignment_count(slots)
            if total > term_cap:
                raise EnumerationCapError(total, term_cap, int(j))
            per_j.append(exact_mixture(slots, family, J, eval_cols, second=(m == 2)))
        else:
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(j)]))
            per_j.append(mc_mixture(slots, family, J, eval_cols, n_terms, rng, second=(m == 2)))
    if mode == "exact":
        mean, second, j_w_log = combine_exact(per_j, log_prior)
        se = np.zeros_like(mean)
    else:
        mean, se, second, j_w_log = combine_mc(per_j, log_prior)
        if second is not None:
            second = np.maximum(second, mean**2)  # sampling noise may undershoot
    return PosteriorSummary(
        grid=grid,
        mean=mean,
        second_moment=second,
        band_low=None,
        band_high=None,
        mc_se=se,
        j_values=j_values,
        j_weights=np.exp(j_w_log),
        mode=mode,
    )
