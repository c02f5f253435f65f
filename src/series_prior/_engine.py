"""Shared machinery for MCMC-free posterior moments.

The supported likelihoods expand into sums over index assignments: each
observation "slot" picks one basis function from its active set, and given
the assignment the coefficient integral has a closed conjugate form.

Every active set is a run of at most q consecutive indices, so four numbers
describe a slot: its first index, its width, its count group and its log
basis values. A dimension's slots are one SlotTable, a frozen table with
those four columns (log_values is n x q, 0 past each row's width), built by
slots_for from the basis values with whole-array operations. The engines
read the columns; there is no per-slot Python object.

The exact mode (exact_mixture) sums every assignment without listing them.
An assignment's log weight separates per basis index into a factor of that
basis's counts, and every active set is a run of at most q consecutive
indices, so the sum is a chain: one forward-backward recursion whose state
is the joint count of the open basis functions (the Polya-urn count form).
Its cost grows with the number of slots, J and the size of that count state,
not with the q^n assignments; slots with a single active index cost nothing.
It keeps one count state per basis closing, the backward message and at
most band tilted messages (band + 1: the widest active set of a grid column).
The Monte-Carlo mode (mc_mixture) samples assignments uniformly from the
active-set product. Given a sampled assignment's counts, the moments of the
series value f(x) = theta' b(x) are closed forms of the coefficient moments
E[theta_k] and E[theta_k theta_l], so the sampled posterior moments are
weighted averages of exact per-draw moments.

Each coefficient family (Dirichlet, Beta, Gamma) is n_groups, the number of
count groups, plus four closed forms, and both engines use only these. For
basis index k (or an index array or slice) and per-group counts c:
log_close(k, c), the log factor of basis k in an assignment's weight;
moments(k, c, n), E[theta_k] and E[theta_k^2] given the counts of n slots;
cross(n), the ratio E[theta_k theta_l] / (E[theta_k] E[theta_l]) for k != l;
and log_global(n), the log factor every assignment shares. An assignment's
log weight is log_global(n) plus log_close summed over the bases. The
recursion applies these to count states; the sampler to one row of counts
per sampled assignment.

posterior_moments is the one driver every model goes through: it picks the
mode, runs the per-dimension sums and mixes them over J, and its docstring
is the one statement of the mode rules. Everything here is pure given its
inputs; the Monte-Carlo generator of dimension J is derived from (seed, J),
so results do not depend on scheduling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import prod
from typing import Callable, Mapping, Sequence

import numpy as np

#: Largest per-dimension assignment count that the exact mode accepts.
DEFAULT_TERM_CAP = 10_000_000


class EnumerationCapError(RuntimeError):
    """A dimension has more index assignments than the term cap, so exact mode refuses it.

    The cap counts the q^n assignments, not the recursion's work. Callers
    should use the Monte-Carlo mode (mode="mc", or "auto") instead.
    """

    def __init__(self, total: int, cap: int, j: int):
        super().__init__(
            f"dimension J={j} has {total} assignments, more than the term cap of {cap}; "
            f"use the Monte-Carlo mode instead"
        )
        self.total = total
        self.cap = cap
        self.j = j


def check_mode(mode: str, n_terms: int, seed) -> None:
    """Refuse an unknown mode, fewer than 2 sampled terms or a negative seed, in any mode."""
    if mode not in ("auto", "exact", "mc"):
        raise ValueError(f"mode must be auto, exact, or mc, got {mode!r}")
    if int(n_terms) < 2:
        raise ValueError(f"need at least 2 sampled terms, got {n_terms}")
    if int(seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


@dataclass(frozen=True, eq=False)
class SlotTable:
    """The expansion slots of one dimension, one row per slot, as columns.

    Row i picks one basis index from its active window
    first[i] .. first[i] + width[i] - 1, a run of consecutive indices;
    log_values[i, o] is the log basis value of index first[i] + o, and 0
    past width[i]. group[i] is the row's count group. len() is the row count.
    """

    first: np.ndarray
    width: np.ndarray
    group: np.ndarray
    log_values: np.ndarray

    def __len__(self):
        return self.first.shape[0]

    def take(self, rows) -> SlotTable:
        """The table of the given rows (an index array, mask or slice), in that order."""
        return SlotTable(self.first[rows], self.width[rows], self.group[rows], self.log_values[rows])


def assignment_count(slots: SlotTable) -> int:
    """The number of index assignments, the product of the widths, as an exact int."""
    return prod(w**c for w, c in enumerate(np.bincount(slots.width).tolist()))


def slots_for(values: np.ndarray, groups=None, repeats=None) -> SlotTable:
    """The slot table of the basis values at the observations, one value row per observation.

    A row's active window is the run of its positive values: first is its
    first column, width its length, and log_values the logs of its values.
    groups gives each observation's count group (default 0); repeats the
    number of rows it contributes, in place (default 1, 0 drops it). A row
    with no positive value, or whose positive values are not consecutive,
    raises ValueError.
    """
    values = np.asarray(values, dtype=float)
    active = values > 0.0
    width = np.count_nonzero(active, axis=1)
    if not np.all(width > 0):
        raise ValueError(f"observation {int(np.argmin(width))} has no active basis")
    first = active.argmax(axis=1)
    q = int(width.max(initial=1))  # one log-value column even with no rows
    cols = np.minimum(first[:, None] + np.arange(q), values.shape[1] - 1)
    inside = np.arange(q) < width[:, None]
    window = np.where(inside, np.take_along_axis(values, cols, axis=1), 1.0)
    if not np.all(window > 0.0):
        raise ValueError("an observation's active basis indices are not consecutive")
    group = np.zeros(len(values), dtype=np.intp) if groups is None else np.asarray(groups, dtype=np.intp)
    table = SlotTable(first, width, group, np.log(window))
    return table if repeats is None else table.take(np.repeat(np.arange(len(values)), repeats))


def lgamma(x):
    """log Gamma(x) for each element of x (math.lgamma), as a float array of x's shape."""
    x = np.asarray(x, dtype=float)
    return np.array(list(map(math.lgamma, x.ravel().tolist()))).reshape(x.shape)


def _lgamma_counts(a, counts):
    """lgamma(a + counts) for whole-number counts, a broadcasting against counts.

    A count array of more than 64 rows whose values span fewer integers than
    it has rows, such as the sampler's (N, J) counts, reads column j's
    lgamma(a_j + c) from a table over that span. The table holds the floats
    the per-element path computes, so both paths give the same bits.
    """
    if counts.ndim == 2 and counts.shape[0] > 64 and np.ndim(a) <= 1:
        lo, hi = counts.min(), counts.max()
        if hi - lo < counts.shape[0]:
            table = lgamma(np.broadcast_to(a, counts.shape[1:])[:, None] + np.arange(lo, hi + 1.0))
            return table[np.arange(counts.shape[1]), (counts - lo).astype(np.intp)]
    return lgamma(a + counts)


def logsumexp(x, axis=None):
    """log(sum(exp(x))) over axis (every element by default), with that axis reduced away."""
    out = _lse(np.asarray(x, dtype=float), axis)
    return float(out.item()) if axis is None else np.squeeze(out, axis=axis)


class DirichletFamily:
    """Dirichlet(a) coefficient integrals; counts live in one group.

    Log weights include the prior normalizer Gamma(sum a)/prod Gamma(a_k),
    which depends on the dimension and must not be dropped when mixing over J.
    """

    n_groups = 1

    def __init__(self, a: np.ndarray):
        self.a = np.asarray(a, dtype=float)
        self.a0 = float(self.a.sum())
        self.log_norm = math.lgamma(self.a0) - float(lgamma(self.a).sum())

    def log_global(self, n):
        return self.log_norm - math.lgamma(self.a0 + n)

    def log_close(self, k, counts):
        return _lgamma_counts(self.a[k], counts[0])

    def moments(self, k, counts, n):
        s = self.a0 + n
        alpha = self.a[k] + counts[0]
        return alpha / s, alpha * (alpha + 1.0) / (s * (s + 1.0))

    def cross(self, n):
        s = self.a0 + n
        return s / (s + 1.0)


class BetaFamily:
    """Independent Beta(a_k, b_k) integrals; group 0 counts successes, group 1 failures."""

    n_groups = 2

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.ab = self.a + self.b
        self.log_norm = lgamma(self.ab) - lgamma(self.a) - lgamma(self.b)

    def log_global(self, n):
        return 0.0

    def log_close(self, k, counts):
        log_beta = (
            _lgamma_counts(self.a[k], counts[0])
            + _lgamma_counts(self.b[k], counts[1])
            - _lgamma_counts(self.ab[k], counts[0] + counts[1])
        )
        return log_beta + self.log_norm[k]

    def moments(self, k, counts, n):
        A = self.a[k] + counts[0]
        S = A + (self.b[k] + counts[1])
        return A / S, A * (A + 1.0) / (S * (S + 1.0))

    def cross(self, n):
        return 1.0


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
        self.log_norm = self.a * np.log(self.b) - lgamma(self.a)

    def log_global(self, n):
        return 0.0

    def log_close(self, k, counts):
        A = self.a[k] + counts[0]
        return self.log_norm[k] + _lgamma_counts(self.a[k], counts[0]) - A * np.log(self.rate[k])

    def moments(self, k, counts, n):
        A = self.a[k] + counts[0]
        return A / self.rate[k], A * (A + 1.0) / self.rate[k] ** 2

    def cross(self, n):
        return 1.0


def _lse(x, axis=None):
    """log(sum(exp(x))) over axis, keeping the reduced axes; -inf where a slice is all -inf."""
    m = x.max(axis=axis, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(x - m).sum(axis=axis, keepdims=True)) + m


def _assign(state, axes, log_values):
    """Add one slot to the count state: it may raise any one of its candidate axes by one."""
    shape = list(state.shape)
    for ax in axes:
        shape[ax] += 1
    out = np.full(shape, -np.inf)
    for ax, lv in zip(axes, log_values):
        idx = [slice(None)] * state.ndim
        for other in axes:
            idx[other] = slice(0, state.shape[other])
        idx[ax] = slice(1, None)
        view = out[tuple(idx)]
        np.logaddexp(view, state + lv, out=view)
    return out


def _assign_back(beta, axes, log_values):
    """Adjoint of _assign: the backward message before the slot from the one after it."""
    out = None
    for ax, lv in zip(axes, log_values):
        idx = [slice(None)] * beta.ndim
        for other in axes:
            idx[other] = slice(0, beta.shape[other] - 1)
        idx[ax] = slice(1, None)
        term = beta[tuple(idx)] + lv
        out = term if out is None else np.logaddexp(out, term)
    return out


def _close(state, log_factor, G):
    """Apply the closing factor of the oldest open basis, sum its counts out, open a new basis."""
    out = _lse(state + log_factor, tuple(range(G)))
    return out.reshape(state.shape[G:] + (1,) * G)


def _run_moments(run, family, fixed, n, band, mean=None, pair=None):
    """Forward-backward sums over one run of bases that multi-index slots couple.

    run is a SlotTable of rows sorted by window whose windows chain into the
    bases start..stop-1, and no other row reaches those bases except through
    the folded counts in fixed. The state is the joint count, per group, of
    the open bases: axis o*G + g counts the group-g rows assigned to basis
    (oldest open) + o. Rows enter when the oldest open basis reaches their
    window's first index; a basis closes, with its log factor at its final
    count, once every row that may pick it has entered.

    Returns (start, stop, log_z), log_z being the log sum of the run's terms.
    If given, mean[k] receives E[theta_k] for the run's bases and pair[d, k]
    E[theta_k theta_{k+d}] for d <= band and k + d inside the run. The
    forward pass keeps one rolling state and the state before each closing;
    one backward sweep carries the backward message and at most band tilted
    messages, one per later closing within the band, weighted by its
    E[theta], and meets them with each kept state to take the moments.
    """
    G = family.n_groups
    first, widths = run.first.tolist(), run.width.tolist()
    start = first[0]
    stop = int((run.first + run.width).max())
    width = max(widths)
    ops = []  # (axes, log values) to add a row, or the basis index to close
    pos = 0
    for k in range(start, stop):
        while pos < len(first) and first[pos] == k:
            w = widths[pos]
            ops.append((np.arange(w) * G + run.group[pos], run.log_values[pos, :w]))
            pos += 1
        ops.append(k)

    x = np.zeros((1,) * (width * G))
    closing = {}  # op position -> (state before it, counts on its leading axes, log factor broadcast to it)
    for i, op in enumerate(ops):
        if isinstance(op, tuple):
            x = _assign(x, *op)
            continue
        counts = tuple(
            np.arange(x.shape[g]).reshape((-1,) + (1,) * (G - 1 - g)) + fixed[g, op] for g in range(G)
        )
        factor = np.broadcast_to(family.log_close(op, counts), x.shape[:G])
        closing[i] = (x, counts, factor.reshape(x.shape[:G] + (1,) * (x.ndim - G)))
        x = _close(x, closing[i][2], G)
    log_z = float(x.item())
    if mean is None:
        return start, stop, log_z

    cross = family.cross(n)
    b, live = np.zeros_like(x), []  # live: (basis, log mass, tilted message) of later closings
    for i in range(len(ops) - 1, first.count(start) - 1, -1):
        op = ops[i]
        if isinstance(op, tuple):
            b = _assign_back(b, *op)
            live = [(k, m, _assign_back(t, *op)) for k, m, t in live]
            continue
        state, counts, factor = closing[i]
        after = b.reshape((1,) * G + b.shape[:-G])
        joint = state + factor + after
        log_mass = float(_lse(joint).item())
        w = np.exp(joint - log_mass).sum(axis=tuple(range(G, joint.ndim)))
        e1, e2 = family.moments(op, counts, n)
        mean[op] = np.sum(w * e1)
        b = factor + after
        if pair is not None:
            pair[0, op] = np.sum(w * e2)
        if pair is None or band == 0:
            continue
        with np.errstate(divide="ignore"):
            tilt = np.log(np.broadcast_to(e1, w.shape)).reshape(factor.shape)
        tilted = state + factor + tilt
        kept = []
        for k, m, t in live:
            t = t.reshape((1,) * G + t.shape[:-G])
            pair[k - op, op] = np.exp(float(_lse(tilted + t).item()) - m) * cross
            if k - op < band:
                kept.append((k, m, factor + t))
        live = kept + [(op, log_mass, tilt + b)]
    return start, stop, log_z


def exact_mixture(
    slots: SlotTable,
    family,
    J: int,
    eval_cols: np.ndarray | None,
    second: bool = False,
):
    """Exact sums over every assignment, by a banded forward-backward recursion.

    Returns (log_den, log_num1, log_num2): the log marginal sum, and the log
    numerator sums for the first and second posterior moments of theta'b at
    each evaluation column (None if not requested).

    The log weight of an assignment separates per basis index into a closing
    factor of that basis's counts, and every row's active window is a run of
    consecutive indices. The width-1 rows of the slot table are folded into
    fixed counts (one bincount) and an exact sum of their log values. The
    other rows are sorted by window with one lexsort on (first, last, group,
    log values) and split into runs of bases that their windows chain
    together, where the first index passes the running maximum of the last;
    each run is one forward-backward recursion whose state is the joint
    count of the open bases (_run_moments). Bases no run touches, and pairs
    of bases in different runs, are independent given the data and take
    closed forms. The grid moments then come from E[theta_k] and the band of
    E[theta_k theta_l] for |k - l| up to the widest active set of an
    evaluation column, times eval_cols.
    """
    n = len(slots)
    G = family.n_groups
    single = slots.width == 1
    cells = slots.group[single] * J + slots.first[single]
    fixed = np.bincount(cells, minlength=G * J).reshape(G, J).astype(float)
    chained = slots.take(~single)
    last = chained.first + chained.width - 1
    order = np.lexsort((*chained.log_values.T[::-1], chained.group, last, chained.first))
    chained, last = chained.take(order), last[order]
    # A run starts at each row whose first index passes every earlier row's last.
    starts = np.flatnonzero(chained.first > np.maximum.accumulate(np.r_[-1, last])[:-1])
    edges = [*starts.tolist(), len(chained)]

    moments = eval_cols is not None and eval_cols.shape[1] > 0
    band = 0
    if moments and second:
        active = eval_cols != 0.0
        first = active.argmax(axis=0)
        final = J - 1 - active[::-1].argmax(axis=0)
        band = int((final - first)[active.any(axis=0)].max(initial=0))
    ks = np.arange(J)
    mean, sq = family.moments(ks, tuple(fixed), n)  # exact for the bases no run touches
    pair = np.full((band + 1, J), np.nan)
    pair[0] = sq
    free = np.ones(J, dtype=bool)
    parts = [family.log_global(n), math.fsum(slots.log_values[single, 0].tolist())]
    for a, b in itertools.pairwise(edges):
        start, stop, log_z = _run_moments(
            chained.take(slice(a, b)), family, fixed, n, band, mean if moments else None, pair if second else None
        )
        free[start:stop] = False
        parts.append(log_z)
    log_den = float(math.fsum(parts) + family.log_close(ks, tuple(fixed))[free].sum())
    if eval_cols is None:
        return log_den, None, None
    with np.errstate(divide="ignore"):
        log_num1 = log_den + np.log(mean @ eval_cols)
        if not second:
            return log_den, log_num1, None
        f2 = pair[0] @ eval_cols**2
        cross = family.cross(n)
        for d in range(1, band + 1):
            row = pair[d, : J - d]
            apart = np.isnan(row)
            row[apart] = (mean[: J - d] * mean[d:] * cross)[apart]
            f2 += 2.0 * row @ (eval_cols[: J - d] * eval_cols[d:])
        log_num2 = log_den + np.log(f2)
    return log_den, log_num1, log_num2


@dataclass
class McPiece:
    """Sampled sums of one dimension J, in shifted form.

    Draw i has log weight lt_i and, given its counts, the conditional grid
    moments f1_i = E[f | counts_i] and f2_i = E[f^2 | counts_i]. With
    u_i = exp(lt_i - shift), the denominator sum is estimated by
    exp(log_scale + shift) * mean(u), and the first and second moment
    numerators by the same factor times mean(u f1) and mean(u f2).
    var_u_den is the sample variance (ddof=1) of u; var_u_num and cov_u are
    the sample variance of u (f1 - r) and its covariance with u, where
    r = mean_u_num / mean_u_den is the dimension's own ratio. The grid
    fields are projected once per dimension from the draws' coefficient
    moments (mc_mixture); no per-draw grid values are formed.
    """

    log_scale: float
    shift: float
    mean_u_den: float
    var_u_den: float
    mean_u_num: np.ndarray
    var_u_num: np.ndarray
    cov_u: np.ndarray
    mean_u_num2: np.ndarray | None
    n_draws: int


def _col_sq_norms(r, eval_cols):
    """||r @ x||^2 for each column x of eval_cols: a sum of squares, so never negative."""
    y = r @ eval_cols
    return np.einsum("jg,jg->g", y, y)


def mc_mixture(
    slots: SlotTable,
    family,
    J: int,
    eval_cols: np.ndarray,
    n_draws: int,
    rng: np.random.Generator,
    second: bool = False,
) -> McPiece:
    """Uniform active-set sampling of assignments, with each draw's grid moments in closed form.

    A draw's counts fix the conjugate coefficient posterior, so its grid
    moments are exact given the draw (Rao-Blackwellization): with
    e, e2 = family.moments(...) and c = family.cross(n),
    E[f | counts] = e @ eval_cols and
    E[f^2 | counts] = c (e @ eval_cols)^2 + (e2 - c e^2) @ eval_cols^2.
    One set of draws serves the denominator and every grid column, so the
    sampled posterior moments are weighted averages of per-draw moments.

    Every per-draw grid quantity is a linear or quadratic form of the J
    coefficient moments, so the sums over draws are taken in coefficient
    space and projected onto the grid once per dimension. With
    v_i = u_i (e_i - e_bar), e_bar the u-weighted mean of the e_i, the draw
    deviations are u_i (f1_i - r) = v_i @ eval_cols, and their sample
    variance is ||R @ eval_cols||^2 / (N - 1) column by column, R being the
    triangular QR factor of the centered v; likewise the sum of
    u_i (e_i @ eval_cols)^2 is ||R2 @ eval_cols||^2, R2 the factor of the
    rows sqrt(u_i) e_i. The work is O(N J^2), not O(N J G).

    The draw order is the reproducibility contract: the stream of one
    rng.integers(0, width[i], N) call per row i of the slot table, in row
    order, from rng, the generator of (seed, J); nothing else is drawn. A
    block of m consecutive rows that share a window (a group, a first index
    and a width k) takes its part in one rng.integers(0, k, (m, N)) call,
    which gives the same picks and leaves the generator in the same state
    (test_engine checks this). A pick is an offset into the row's window,
    so the counts are taken per block, right after its call: the block's
    picks of each offset are added to that basis's column of the group's
    counts, and no pick is kept past its block. Counts are whole numbers, so
    their sums do not depend on how the rows are cut into blocks. log_scale,
    the log of the active-set product, is the sum of log(width).
    """
    N = int(n_draws)
    if N < 2:
        raise ValueError(f"need at least 2 sampled terms, got {N}")
    n = len(slots)
    # A block is a run of rows that share a window, of at most 2^16 picks, so
    # its arrays stay small; its log values are added row by row, in row order.
    logb = np.zeros(N)
    counts = [np.zeros((N, J)) for _ in range(family.n_groups)]
    window = np.stack([slots.group, slots.first, slots.width])
    starts = np.flatnonzero(np.any(np.diff(window, prepend=-1), axis=0)).tolist()
    per_block = max(1, 2**16 // N)  # rows
    blocks = [b for lo, hi in itertools.pairwise(starts + [n]) for b in range(lo, hi, per_block)] + [n]
    for lo, hi in itertools.pairwise(blocks):
        g, first, k = window[:, lo].tolist()
        d = rng.integers(0, k, (hi - lo, N))
        for values, row in zip(slots.log_values[lo:hi], d):
            logb += values[row]
        d = d.astype(np.min_scalar_type(k))  # byte-sized compares
        small = np.min_scalar_type(hi - lo)  # no offset is picked more often than the block has rows
        rest = hi - lo  # the last offset takes the picks no other one took
        for o in range(k - 1):
            picked = (d == o).sum(axis=0, dtype=small)
            counts[g][:, first + o] += picked
            rest = rest - picked
        counts[g][:, first + k - 1] += rest
    lt = family.log_close(slice(None), counts).sum(axis=-1) + family.log_global(n) + logb
    shift = float(np.max(lt))
    u = np.exp(lt - shift)
    mean_u = float(np.mean(u))

    e, e2 = family.moments(slice(None), counts, n)  # every row's counts total n
    ue = u @ e
    mean_u_num = (ue / N) @ eval_cols
    # The spread is taken about the dimension's own ratio, so that a dominant
    # draw leaves no difference of nearly equal variances for combine_mc, and
    # about the first draw, so that equal terms give a variance of exactly 0.
    v = u[:, None] * (e - ue / np.sum(u))
    v -= v[0]
    v -= v.mean(axis=0)
    du = u - u[0]
    du -= du.mean()
    mean_u_num2 = None
    if second:
        c = family.cross(n)
        r2 = np.linalg.qr(np.sqrt(u)[:, None] * e, mode="r")
        mean_u_num2 = (c * _col_sq_norms(r2, eval_cols) + (u @ (e2 - c * e**2)) @ eval_cols**2) / N
    return McPiece(
        log_scale=float(np.sum(np.log(slots.width))),
        shift=shift,
        mean_u_den=mean_u,
        var_u_den=float(np.var(u, ddof=1)),
        mean_u_num=mean_u_num,
        var_u_num=_col_sq_norms(np.linalg.qr(v, mode="r"), eval_cols) / (N - 1),
        cov_u=(du @ v / (N - 1)) @ eval_cols,
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
    """Self-normalized average of the draws of every dimension, and its delta-method standard error.

    Returns (mean, se, second, j_weights_log); second is None if absent. Draw
    i of dimension J weighs a_J u_i, with a_J = prior(J) exp(log_scale + shift).
    The ratio's delta-method variance is that of sum a_J mean(u (f1 - mean)),
    over the denominator squared. Draws are independent across dimensions,
    and within one u (f1 - mean) = u (f1 - r) + (r - mean) u, r being the
    dimension's own ratio.
    """
    log_a = np.asarray(log_prior, dtype=float) + np.array([p.log_scale + p.shift for p in pieces])
    log_D = log_a + np.log([p.mean_u_den for p in pieces])
    s = np.max(log_D)
    a = np.exp(log_a - s)
    Dt = np.sum(np.exp(log_D - s))
    mean = a @ np.stack([p.mean_u_num for p in pieces]) / Dt
    var = np.zeros_like(mean)
    for ai, p in zip(a, pieces):
        d = p.mean_u_num / p.mean_u_den - mean
        var += ai**2 * (p.var_u_num + 2.0 * d * p.cov_u + d**2 * p.var_u_den)
    se = np.sqrt(np.maximum(var / pieces[0].n_draws, 0.0)) / Dt
    second = None
    if pieces[0].mean_u_num2 is not None:
        second = a @ np.stack([p.mean_u_num2 for p in pieces]) / Dt
    return mean, se, second, log_D - (s + np.log(Dt))


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
    build: Callable[[int], tuple[SlotTable, object, np.ndarray]],
    bases: Mapping,
    model_prior,
    grid,
    m: int = 2,
    mode: str = "auto",
    n_terms: int = 3000,
    seed=0,
) -> PosteriorSummary:
    """Posterior moments at the grid points, mixed over every dimension in bases.

    build(j) returns (slots, family, eval_cols) for dimension j, where
    slots is the dimension's SlotTable and eval_cols holds the basis values
    at the grid points (J x G). m=1 computes the mean only; m=2 also the
    pointwise second moment. An unknown mode, n_terms below 2 or a negative
    seed is refused before any work, in every mode. Then every dimension is
    built once, before the engine is chosen, and the engine is chosen from
    all of them: mode "exact" sums every assignment by exact_mixture's
    forward-backward recursion, whose cost does not grow with the assignment
    count, and raises EnumerationCapError naming the first dimension that
    has more than DEFAULT_TERM_CAP assignments; "mc" samples n_terms
    assignments per dimension; "auto" is exact when every dimension is
    within the cap, sampled otherwise.
    """
    if m not in (1, 2):
        raise ValueError(f"moment order must be 1 or 2, got {m}")
    check_mode(mode, n_terms, seed)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    j_values = np.asarray(sorted(bases), dtype=int)
    if j_values.size == 0:
        raise ValueError("empty truncation range")
    missing = set(model_prior.support) - set(bases)
    if missing:
        raise ValueError(f"no basis supplied for dimensions {sorted(missing)}")
    log_prior = model_prior.log_pmf(j_values)
    with_second = m == 2

    built = {int(j): build(j) for j in j_values}
    totals = {} if mode == "mc" else {j: assignment_count(b[0]) for j, b in built.items()}
    over = [j for j, total in totals.items() if total > DEFAULT_TERM_CAP]
    if over and mode == "exact":
        raise EnumerationCapError(totals[over[0]], DEFAULT_TERM_CAP, over[0])
    engine = "mc" if mode == "mc" or over else "exact"
    if engine == "exact":
        per_j = [exact_mixture(s, f, bases[j].dimension, cols, with_second) for j, (s, f, cols) in built.items()]
        mean, second, j_w_log = combine_exact(per_j, log_prior)
        se = np.zeros_like(mean)
    else:
        per_j = []
        for j, (s, f, cols) in built.items():
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), j]))
            per_j.append(mc_mixture(s, f, bases[j].dimension, cols, n_terms, rng, with_second))
        mean, se, second, j_w_log = combine_mc(per_j, log_prior)
    return PosteriorSummary(
        grid=grid,
        mean=mean,
        second_moment=second,
        band_low=None,
        band_high=None,
        mc_se=se,
        j_values=j_values,
        j_weights=np.exp(j_w_log),
        mode=engine,
    )
