"""Shared machinery for MCMC-free posterior moments.

The supported likelihoods expand into sums over index assignments: each
observation "slot" picks one basis function from its active set, and given
the assignment the coefficient integral has a closed conjugate form.

Every active set is a run of at most q consecutive indices, so four numbers
describe a slot: its first index, its width, its count group and its log
basis values. A SlotTable is a frozen table with those four columns
(log_values is n x q, 0 past each row's width), built by slots_for with
whole-array operations from each observation's local basis window. A
dataset has one: dimension_slots makes every dimension's rows, in equal
blocks, from one de Boor pass (basis.local_values), so no n x J basis matrix
is formed. exact_fit reads the table in place, the sampler and the cap count
each dimension's block (SlotTable.split); there is no per-slot Python object.

The exact mode sums every assignment without listing them, in one pass per
fit (exact_fit; exact_mixture is its one-dimension case). An assignment's
log weight separates per basis index into a factor of that basis's counts,
and every active set is a run of at most q consecutive indices, so the sum
is a chain: a forward-backward recursion per run of chained bases, whose
state is the joint count of the open basis functions (the Polya-urn count
form). Its cost grows with the number of slots, J and the size of that
count state, not with the q^n assignments; slots with a single active index
cost nothing. Each dimension's closing factors and coefficient moments are
read from tables made by one family.log_close and one family.moments call
on its count grid, so the recursion calls no family method. Runs with the
same row pattern (each row's first index relative to the run's, width and
group), from any dimension, have count states of one shape at every step,
and are stepped together along a leading batch axis; every batched step
acts on each run alone, so a dimension's bits do not depend on its company.
The recursion walks the bases and keeps one count state per basis, with
that basis's closing factor already added (the forward pass sums the basis
out of it, the backward pass takes the moments from it), the backward
message and at most band tilted messages (band + 1 bounds the widest active
set of a grid column: the spline order, as posterior_moments passes it).
Per dimension it returns (log_den, f1, f2): the log marginal likelihood of J
and the grid moments given J, E[f | data, J] and E[f^2 | data, J]. The
estimator is their mixture over J (combine_exact): the posterior weights
p(J | data), proportional to prior(J) exp(log_den_J) and normalized by one
logsumexp, average the moments, sum_J p(J | data) E[f^m | data, J].
The Monte-Carlo mode (mc_mixture) samples assignments uniformly from the
active-set product. Given a sampled assignment's counts, the moments of the
series value f(x) = theta' b(x) are closed forms of the coefficient moments
E[theta_k] and E[theta_k theta_l], so the sampled posterior moments are
weighted averages of exact per-draw moments.

Each coefficient family (Dirichlet, Beta, Gamma) is n_groups, the number of
count groups, upper, the top of the range of f = theta'B (1 for Beta, inf
otherwise), and four closed forms, and both engines use only these. For
basis index k (or an index array or slice) and per-group counts c:
log_close(k, c), the log factor of basis k in an assignment's weight;
moments(k, c, n), E[theta_k] and E[theta_k^2] given the counts of n slots;
cross(n), the ratio E[theta_k theta_l] / (E[theta_k] E[theta_l]) for k != l;
and log_global(n), the log factor every assignment shares. An assignment's
log weight is log_global(n) plus log_close summed over the bases. The
exact mode applies these once per dimension to every count each basis
can reach; the sampler to one row of counts per sampled assignment.

posterior_moments is the one driver every model goes through: it checks
the fit's arguments and its Builder's bases and grid, only then calls
for_data on the data, picks the mode, runs the sums (one exact pass for the
fit, or one sampled sum per dimension, on a thread pool when they are heavy
enough), and mixes them over J; its docstring is the one statement of the
mode and pool rules. Everything here is pure given its inputs; the
Monte-Carlo generator of dimension J is derived from (seed, J), and the
dimensions are mixed in J order, so results do not depend on scheduling or
on the thread count.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import prod
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .basis import Basis, is_integer, local_values

#: Largest per-dimension assignment count that the exact mode accepts.
DEFAULT_TERM_CAP = 10_000_000

#: Sampled terms per dimension from which the pool beats the calling thread
#: (2-core VM, q=3, n=500: 2 workers lost at N=3000 and won from N=10,000).
_POOL_MIN_TERMS = 10_000


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


def worker_count(tasks: int) -> int:
    """Pool threads for tasks units of work: SERIES_PRIOR_THREADS caps them (0 = one per core)."""
    raw = os.environ.get("SERIES_PRIOR_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"SERIES_PRIOR_THREADS must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ValueError("SERIES_PRIOR_THREADS must be >= 0")
    if cap == 0:
        cap = os.cpu_count() or 1
    return max(1, min(cap, tasks))


def check_mode(mode: str, n_terms: int, seed) -> None:
    """Refuse, in any mode, an unknown mode, an n_terms that is not an integer >= 2 or a seed not an integer >= 0."""
    if mode not in ("auto", "exact", "mc"):
        raise ValueError(f"mode must be auto, exact, or mc, got {mode!r}")
    if not (is_integer(n_terms) and n_terms >= 2):
        raise ValueError(f"need an integer count of at least 2 sampled terms, got {n_terms!r}")
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True, eq=False)
class SlotTable:
    """Expansion slots as columns, one row per slot: one dimension's, or a dataset's in equal blocks.

    Row i picks one basis index of its dimension from its active window
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

    def split(self, parts: int) -> list[SlotTable]:
        """The table cut into parts equal blocks of consecutive rows, in order, as views."""
        rows = len(self) // parts
        return [self.take(slice(d * rows, (d + 1) * rows)) for d in range(parts)]


def assignment_count(slots: SlotTable) -> int:
    """The number of index assignments, the product of the widths, as an exact int."""
    return prod(w**c for w, c in enumerate(np.bincount(slots.width).tolist()))


def slots_for(values: np.ndarray, groups=None, offset=0) -> SlotTable:
    """The slot table of the basis values at the observations, one value row per observation.

    values[i, c] is the value of basis index offset[i] + c at observation i:
    a dense n x J matrix with offset 0, or each observation's local window
    (basis.local_values) with its first index as offset. A row's active
    window is the run of its positive values: first is its first index,
    width its length, and log_values the logs of its values. groups gives
    each observation's count group (default 0). A row with no positive
    value, or whose positive values are not consecutive, raises ValueError.
    """
    values = np.asarray(values, dtype=float)
    active = values > 0.0
    width = np.count_nonzero(active, axis=1)
    if not np.all(width > 0):
        raise ValueError(f"observation {int(np.argmin(width))} has no active basis")
    start = active.argmax(axis=1)
    q = int(width.max(initial=1))  # one log-value column even with no rows
    cols = np.minimum(start[:, None] + np.arange(q), values.shape[1] - 1)
    inside = np.arange(q) < width[:, None]
    window = np.where(inside, np.take_along_axis(values, cols, axis=1), 1.0)
    if not np.all(window > 0.0):
        raise ValueError("an observation's active basis indices are not consecutive")
    group = np.zeros(len(values), dtype=np.intp) if groups is None else np.asarray(groups, dtype=np.intp)
    return SlotTable(start + offset, width, group, np.log(window))


def dimension_slots(bases: Mapping[int, Basis], x, groups=None, repeats=None, normalized=False):
    """(slots, first, values) of every dimension of bases at the points x, from one de Boor pass.

    first (D, P) and values (D, P, q) are the local windows at x of the
    bases, which share their order (basis.local_values, normalized or not).
    slots holds their rows in equal blocks, in the order of bases: block d
    is slots_for of the d-th dense basis matrix with these groups, row i
    repeated in place repeats[i] times (default once, 0 drops it), with
    log_values as wide as the widest window at x. SlotTable.split cuts it.
    """
    first, values = local_values(list(bases.values()), x, normalized)
    D, P, q = values.shape
    groups = None if groups is None else np.tile(groups, D)
    slots = slots_for(values.reshape(D * P, q), groups=groups, offset=first.ravel())
    if repeats is not None:
        slots = slots.take((np.arange(D)[:, None] * P + np.repeat(np.arange(P), repeats)).ravel())
    return slots, first, values


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
    with np.errstate(divide="ignore"):
        out = _lse(np.asarray(x, dtype=float), axis)
    return float(out.item()) if axis is None else np.squeeze(out, axis=axis)


class DirichletFamily:
    """Dirichlet(a) coefficient integrals; counts live in one group.

    Log weights include the prior normalizer Gamma(sum a)/prod Gamma(a_k),
    which depends on the dimension and must not be dropped when mixing over J.
    """

    n_groups = 1
    upper = np.inf

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
    upper = 1.0

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
    upper = np.inf

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
    """log(sum(exp(x))) over axis, keeping the reduced axes; -inf where a slice is all -inf.

    The caller ignores divide-by-zero (np.errstate), which the log of an all
    -inf slice's zero sum raises.
    """
    m = x.max(axis=axis, keepdims=True)
    finite = np.isfinite(m)
    if not finite.all():
        m[~finite] = 0.0
    return np.log(np.exp(x - m).sum(axis=axis, keepdims=True)) + m


def _assign(state, axes, log_values):
    """Add one slot to the count state: it may raise any one of its candidate axes by one.

    The first candidate writes its block of the -inf output directly, which
    gives what logaddexp into -inf gives; the others are logaddexp'ed in.
    """
    shape = list(state.shape)
    idx = [slice(None)] * state.ndim
    for ax in axes:
        shape[ax] += 1
        idx[ax] = slice(0, state.shape[ax])
    out = np.full(shape, -np.inf)
    for i, (ax, lv) in enumerate(zip(axes, log_values)):
        at = idx.copy()
        at[ax] = slice(1, None)
        view = out[tuple(at)]
        if i == 0:
            np.add(state, lv, out=view)
        else:
            np.logaddexp(view, state + lv, out=view)
    return out


def _assign_back(beta, axes, log_values):
    """Adjoint of _assign: the backward message before the slot from the one after it."""
    idx = [slice(None)] * beta.ndim
    for ax in axes:
        idx[ax] = slice(0, beta.shape[ax] - 1)
    out = None
    for ax, lv in zip(axes, log_values):
        at = idx.copy()
        at[ax] = slice(1, None)
        term = beta[tuple(at)] + lv
        out = term if out is None else np.logaddexp(out, term, out=out)
    return out


def _chain(entering, log_values, base, G, tables, band, cross, second):
    """Forward-backward sums over B runs that share one row pattern, stepped together.

    The runs have the same rows relative to their first basis, so their
    count states have the same shape at every step; axis 0 of a state is
    the run, and axis 1 + o*G + g counts the group-g rows assigned to basis
    (oldest open) + o. entering[p] lists the (axes, row) of the rows whose
    window starts at the run's basis p (entering[P] is empty), and
    log_values[row][o] holds each run's log basis value of window offset o,
    shaped to broadcast against a state. tables holds the flat
    closing-factor, E[theta] and E[theta^2] tables of the runs' dimensions,
    and base[:, p] the start of each run's block for its basis p: that
    basis's count grid in C order, which has the shape of the state's
    leading count axes when the basis closes. So the recursion reads one
    slice of each table per closing and calls no family method.

    The forward pass keeps one rolling state and, per basis, the state plus
    its closing factor. The backward pass walks the bases in reverse with the
    backward message and at most band tilted messages, one per later basis
    within the band, weighted by its E[theta]. A basis's count posterior is
    exp(closed + after - log_z) summed over the other axes and normalized by
    its own sum: the joint's total is the run's marginal at every basis.
    Returns log_z (B,), mean (B, P) and, if second, pair (band + 1, B, P):
    pair[d, :, p] is E[theta_p theta_{p+d}] where p + d < P, and NaN past the
    run. The caller ignores divide-by-zero and underflow (np.errstate).
    """
    log_close, e1_table, e2_table = tables
    B, P = base.shape
    D = log_values.ndim - 3  # count axes of a state
    lead = tuple(range(1, G + 1))
    x = np.zeros((B,) + (1,) * D)
    closing = []  # per basis: (state + closing factor, that factor, its table index)
    for p in range(P):
        for axes, row in entering[p]:
            x = _assign(x, axes, log_values[row])
        at = base[:, p].reshape((B,) + (1,) * G) + np.arange(prod(x.shape[1 : G + 1])).reshape(x.shape[1 : G + 1])
        factor = log_close[at].reshape(x.shape[: G + 1] + (1,) * (D - G))
        x = x + factor
        closing.append((x, factor, at))
        x = _lse(x, lead).reshape((B,) + x.shape[G + 1 :] + (1,) * G)
    log_z = x

    mean = np.empty((B, P))
    pair = np.full((band + 1, B, P), np.nan) if second else None
    b, live = np.zeros_like(x), []  # live: (basis, log normalizer, tilted message) of later bases
    for p in range(P - 1, -1, -1):
        for axes, row in reversed(entering[p + 1]):
            b = _assign_back(b, axes, log_values[row])
            live = [(later, m, _assign_back(t, axes, log_values[row])) for later, m, t in live]
        closed, factor, at = closing[p]
        after = b.reshape((B,) + (1,) * G + b.shape[1 : D + 1 - G])
        w = np.exp(closed + after - log_z).sum(axis=tuple(range(G + 1, D + 1)))
        norm = w.sum(axis=lead, keepdims=True)
        w /= norm
        e1 = e1_table[at]
        mean[:, p] = (w * e1).sum(axis=lead)
        b = factor + after
        if not second:
            continue
        pair[0, :, p] = (w * e2_table[at]).sum(axis=lead)
        if band == 0:
            continue
        tilt = np.log(e1).reshape(factor.shape)
        tilted = closed + tilt
        kept = []
        for later, m, t in live:
            t = t.reshape((B,) + (1,) * G + t.shape[1 : D + 1 - G])
            pair[later - p, :, p] = np.exp(tilted + t - m).sum(axis=tuple(range(1, D + 1))) * cross
            if later - p < band:
                kept.append((later, m, factor + t))
        live = kept + [(p, log_z + np.log(norm).reshape(log_z.shape), tilt + b)]
    return log_z.reshape(B), mean, pair


def exact_fit(slots: SlotTable, dims, second: bool = False):
    """Exact sums over every assignment of each dimension of a fit, in one pass.

    slots holds every dimension's rows in equal blocks (dimension_slots),
    and dims the (family, J, eval_cols, band) of each block, as
    exact_mixture takes them; the result is the list of their (log_den, f1,
    f2), in that order. A dimension's result has the same bits whether it
    is solved alone, with other dimensions, or in another order: every
    batched step acts on each run alone.

    The table is read in place: each first index is moved to a global
    basis index (its dimension's offset plus the index), so one pass serves
    the fit. The width-1 rows are folded into fixed counts (one
    bincount) and, per dimension, an exact sum of their log values. The
    other rows are sorted by window with one lexsort on (first, last, group,
    log values), which makes the result independent of the row order, and
    split into runs of bases that their windows chain together, where the
    first index passes the running maximum of the last; no run spans two
    dimensions. Two bincounts over the windows and a cumsum give the rows
    covering each basis, per group, so a basis's counts run from its fixed
    ones up by that many; its table block is that count grid in C order
    (one entry where no row covers it). One family.log_close and one
    family.moments call on a dimension's blocks give its closing-factor,
    E[theta] and E[theta^2] tables.

    A run's row pattern is the tuple of (first - run start, width, group)
    over its sorted rows. Runs of one pattern, from any dimension, have
    count states of one shape at every step, so each pattern is one
    forward-backward recursion with a leading batch axis (_chain), whose
    closing factors and moments are gathers from each run's own tables.
    Bases no run touches, and pairs of bases in different runs, are
    independent given the data and take the tables' values at the fixed
    counts.
    """
    dims = list(dims)
    Js = [int(J) for _, J, _, _ in dims]
    n = len(slots) // len(dims)  # each dimension's rows
    offset = np.cumsum([0] + Js)
    offsets = offset.tolist()
    total = offsets[-1]
    G = max(family.n_groups for family, *_ in dims)
    first = slots.first + np.repeat(offset[:-1], n)
    width, group = slots.width, slots.group
    single = width == 1
    every = bool(single.all())  # no row is chained, so none need masking out
    folded = slice(None) if every else single
    fixed = np.bincount(group[folded] * total + first[folded], minlength=G * total).reshape(G, total)
    lv0 = slots.log_values[:, 0].reshape(len(dims), n)
    singles = [math.fsum(v[s].tolist()) for v, s in zip(lv0, single.reshape(len(dims), n))]  # exact, per dimension

    # The chained rows, sorted by window and split into runs: a run starts at
    # each row whose first index passes every earlier row's last. Each basis's
    # count span per group is one more than the chained rows covering it.
    starts = run_dim = np.zeros(0, dtype=np.intp)
    patterns: dict[tuple, list[int]] = {}  # (groups, row pattern) -> its runs
    if not every:
        chained = np.flatnonzero(~single)
        c_log_values = slots.log_values[chained]
        last = first[chained] + width[chained] - 1
        order = np.lexsort((*c_log_values.T[::-1], group[chained], last, first[chained]))
        chained, last, c_log_values = chained[order], last[order], c_log_values[order]
        c_first, c_width, c_group = first[chained], width[chained], group[chained]
        starts = np.flatnonzero(c_first > np.maximum.accumulate(np.concatenate(([-1], last)))[:-1])
        edge = c_group * (total + 1)  # +1 where a window opens, -1 past its end
        cover = np.bincount(edge + c_first, minlength=G * (total + 1)) - np.bincount(edge + last + 1, minlength=G * (total + 1))
        span = 1 + np.cumsum(cover.reshape(G, total + 1), axis=1)[:, :total]
        run_start = c_first[starts]
        run_dim = np.searchsorted(offset, run_start, side="right") - 1
        rel = c_first - np.repeat(run_start, np.diff(np.append(starts, len(chained))))
        row_keys = list(zip(rel.tolist(), c_width.tolist(), c_group.tolist()))
        for r, (d, lo, hi) in enumerate(zip(run_dim.tolist(), starts.tolist(), [*starts[1:].tolist(), len(chained)])):
            patterns.setdefault((dims[d][0].n_groups, tuple(row_keys[lo:hi])), []).append(r)
        inner = np.ones_like(span)  # step of group g's count within a block
        for g in range(G - 1, 0, -1):
            inner[g - 1] = inner[g] * span[g]
        size = inner[0] * span[0]
        edges = np.concatenate(([0], np.cumsum(size)))
        base = edges[:-1]  # each basis's block, whose first entry is at its fixed counts
        basis_of = np.repeat(np.arange(total), size)
        within = np.arange(edges[-1]) - base[basis_of]
        counts = (fixed[:, basis_of] + within // inner[:, basis_of] % span[:, basis_of]).astype(float)
        local = basis_of - np.repeat(offset[:-1], np.diff(edges[offset]))  # each entry's basis in its dimension
    else:  # no row is chained: one entry per basis, at its fixed counts
        edges = np.arange(total + 1)
        base = edges[:-1]
        counts = fixed.astype(float)
        local = base - np.repeat(offset[:-1], Js)
    # The closing-factor, E[theta] and E[theta^2] tables, one row each.
    tables, cross, edges = np.empty((3, edges[-1])), [], edges.tolist()
    for (family, *_), o, J in zip(dims, offsets, Js):
        lo, hi = edges[o], edges[o + J]
        own = tuple(counts[: family.n_groups, lo:hi])
        k = local[lo:hi]
        tables[0, lo:hi] = family.log_close(k, own)
        tables[1, lo:hi], tables[2, lo:hi] = family.moments(k, own, n)
        cross.append(family.cross(n))
    log_free, mean, sq = tables[:, base]  # exact for the bases no run touches
    band_max = max(band for *_, band in dims)
    pair = np.full((band_max + 1, total), np.nan)
    pair[0] = sq
    free = np.ones(total, dtype=bool)

    log_z = np.empty(len(starts))
    # log(0) of an empty sum is -inf, and terms far below the largest underflow
    # to 0, as may grid products; neither is an error, whatever the caller's errstate.
    with np.errstate(divide="ignore", under="ignore"):
        for (g, pattern), runs in patterns.items():
            runs = np.array(runs)
            R = len(pattern)
            P = max(r + w for r, w, _ in pattern)
            D = max(w for _, w, _ in pattern) * g
            entering = [[] for _ in range(P + 1)]
            for i, (r, w, h) in enumerate(pattern):
                entering[r].append((tuple(range(1 + h, 1 + w * g, g)), i))
            lv = c_log_values[starts[runs] + np.arange(R)[:, None]].transpose(0, 2, 1)  # (R, Q, B)
            lv = lv.reshape(lv.shape + (1,) * D)
            ks = run_start[runs][:, None] + np.arange(P)
            of = run_dim[runs].tolist()
            group_band = max(dims[d][3] for d in of) if second else 0
            run_cross = np.array([cross[d] for d in of])
            lz, run_mean, run_pair = _chain(entering, lv, base[ks], g, tables, group_band, run_cross, second)
            log_z[runs] = lz
            mean[ks] = run_mean
            free[ks] = False
            if second:
                for d in range(min(group_band, P - 1) + 1):
                    pair[d, ks[:, : P - d]] = run_pair[d, :, : P - d]

        out = []
        run_cut = np.searchsorted(run_dim, np.arange(len(dims) + 1)).tolist()
        for i, ((family, J, eval_cols, band), o) in enumerate(zip(dims, offsets)):
            part = slice(o, o + J)
            parts = [family.log_global(n), singles[i]]
            parts += log_z[run_cut[i] : run_cut[i + 1]].tolist()
            log_den = float(math.fsum(parts) + log_free[part][free[part]].sum())
            e1 = mean[part]
            f1 = e1 @ eval_cols
            if not second:
                out.append((log_den, f1, None))
                continue
            f2 = pair[0, part] @ eval_cols**2
            for d in range(1, band + 1):
                row = pair[d, o : o + J - d]
                apart = np.isnan(row)
                row[apart] = (e1[: J - d] * e1[d:] * cross[i])[apart]
                f2 += 2.0 * row @ (eval_cols[: J - d] * eval_cols[d:])
            out.append((log_den, f1, f2))
    return out


def exact_mixture(
    slots: SlotTable,
    family,
    J: int,
    eval_cols: np.ndarray,
    band: int,
    second: bool = False,
):
    """Exact sums over every assignment of one dimension, by a banded forward-backward recursion.

    Returns (log_den, f1, f2): log_den is the log of the sum of every
    assignment's weight, the marginal likelihood of dimension J; f1 and f2
    are the posterior moments given J, E[theta'b | data, J] and
    E[(theta'b)^2 | data, J], at each evaluation column (f2 None unless
    second). combine_exact mixes them over J.

    This is exact_fit of the one dimension, with the same bits as that
    dimension's result in any fit. The log weight of an assignment separates
    per basis index into a closing factor of that basis's counts, and every
    row's active window is a run of consecutive indices, so the rows split
    into runs of chained bases, each summed by a recursion whose state is
    the joint count of the open bases; bases no run touches take closed
    forms. The grid moments then come from E[theta_k] and the band of
    E[theta_k theta_l] for |k - l| <= band, times eval_cols. band bounds the
    widest active set of an evaluation column, less one; posterior_moments
    passes the basis order less one. A band past the columns' own adds only
    products of zero grid values, so it does not change the result.
    """
    return exact_fit(slots, [(family, J, eval_cols, band)], second)[0]


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
    """Mix the per-dimension exact moments over J by its posterior.

    per_j: one exact_mixture result (log_den, f1, f2) per dimension, f1 and
    f2 being E[f | data, J] and E[f^2 | data, J] at the grid points (f2 None
    if absent); log_prior: the matching log prior of J. The posterior of J is
    p(J | data) = prior(J) exp(log_den_J) / sum_J' prior(J') exp(log_den_J'),
    and each moment is the weighted average sum_J p(J | data) E[f^m | data, J].
    Returns (mean, second, j_weights_log) where second is None if absent.
    """
    log_den_j = np.array([p[0] for p in per_j]) + np.asarray(log_prior, dtype=float)
    j_weights_log = log_den_j - logsumexp(log_den_j)
    w = np.exp(j_weights_log)
    mean = w @ np.stack([p[1] for p in per_j])
    second = None if per_j[0][2] is None else w @ np.stack([p[2] for p in per_j])
    return mean, second, j_weights_log


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
    of each dimension in the truncation range (j_values aligned). upper is
    the upper end of the function's range (1 for a success probability),
    at which density.credible_band caps band_high.
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
    upper: float = np.inf


class Builder(NamedTuple):
    """A model's bases and grid, the one copy of both that a fit reads, and its for_data.

    for_data(data) returns (slots, built): dimension_slots of bases at the
    data, its blocks in the order of bases, and built[j] = (family,
    eval_cols) for each j of bases, eval_cols the basis values at the grid.
    """

    bases: Mapping[int, Basis]
    grid: object
    for_data: Callable[[object], tuple[SlotTable, Mapping[int, tuple[object, np.ndarray]]]]


def posterior_moments(
    builder: Builder,
    data,
    model_prior,
    m: int = 2,
    mode: str = "auto",
    n_terms: int = 3000,
    seed=0,
) -> PosteriorSummary:
    """Posterior moments of data at the builder's grid, mixed over every dimension of its bases.

    m=1 computes the mean only; m=2 also the pointwise second moment. A bad
    m, mode, n_terms or seed (check_mode), a grid that is not
    one-dimensional, a basis not keyed by its dimension or a dimension of
    the prior's support with no basis is refused first, in every mode,
    before builder.for_data(data) evaluates any basis. Then every dimension
    is built once, before the engine is chosen, and the engine is chosen
    from all of them: mode "exact" sums every assignment of every dimension
    in one exact_fit call on the table, whose cost does not grow with the
    assignment count; it raises EnumerationCapError naming the first
    dimension that has more than DEFAULT_TERM_CAP assignments; "mc" samples
    n_terms assignments per dimension from its block; "auto" is exact when
    every dimension is within the cap, sampled otherwise.

    A sampled fit with n_terms >= _POOL_MIN_TERMS runs its dimensions on a
    pool of worker_count(dimensions) threads (SERIES_PRIOR_THREADS caps it);
    every other fit, and every exact fit, runs in the calling thread, since
    lighter dimensions are many small numpy calls, which two threads run
    more slowly than one. Each dimension draws from its own (seed, J)
    generator and the results are mixed in J order, so they are the same
    for every thread count and every order of bases. A dimension that
    raises drops the queued ones.

    The exact engine gets band = order - 1 for each dimension: eval_cols
    are the basis's values at the grid points, so no column has more than
    order active functions.
    """
    if m not in (1, 2):
        raise ValueError(f"moment order must be 1 or 2, got {m}")
    check_mode(mode, n_terms, seed)
    bases = builder.bases
    grid = np.atleast_1d(np.asarray(builder.grid, dtype=float))
    if grid.ndim != 1:
        raise ValueError(f"grid must be one-dimensional, got shape {grid.shape}")
    miskeyed = [j for j, basis in bases.items() if basis.dimension != j]
    if miskeyed:
        raise ValueError(f"bases must be keyed by their dimension; keys {miskeyed} are not")
    j_values = sorted(map(int, bases))
    if not j_values:
        raise ValueError("empty truncation range")
    missing = set(model_prior.support) - set(bases)
    if missing:
        raise ValueError(f"no basis supplied for dimensions {sorted(missing)}")
    log_prior = model_prior.log_pmf(np.asarray(j_values, dtype=int))
    with_second = m == 2

    slots, built = builder.for_data(data)
    tables = dict(zip(bases, slots.split(len(bases))))
    totals = {} if mode == "mc" else {j: assignment_count(tables[j]) for j in j_values}
    over = [j for j, total in totals.items() if total > DEFAULT_TERM_CAP]
    if over and mode == "exact":
        raise EnumerationCapError(totals[over[0]], DEFAULT_TERM_CAP, over[0])
    engine = "mc" if mode == "mc" or over else "exact"
    if engine == "exact":
        dims = [(built[j][0], j, built[j][1], basis.order - 1) for j, basis in bases.items()]
        by_j = dict(zip(bases, exact_fit(slots, dims, with_second)))
        mean, second, j_w_log = combine_exact([by_j[j] for j in j_values], log_prior)
        se = np.zeros_like(mean)
    else:

        def piece(j):
            f, cols = built[j]
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), j]))
            return mc_mixture(tables[j], f, j, cols, n_terms, rng, with_second)

        workers = worker_count(len(bases)) if n_terms >= _POOL_MIN_TERMS else 1
        pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
        try:
            per_j = list(map(piece, j_values) if pool is None else pool.map(piece, j_values))
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
        mean, se, second, j_w_log = combine_mc(per_j, log_prior)
    return PosteriorSummary(
        grid=grid,
        mean=mean,
        second_moment=second,
        band_low=None,
        band_high=None,
        mc_se=se,
        j_values=np.asarray(j_values, dtype=int),
        j_weights=np.exp(j_w_log),
        mode=engine,
        upper=min(f.upper for f, _ in built.values()),
    )
