import dataclasses
import math
import tempfile
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from oracles import (
    _assignment_terms,
    _counts_for,
    _log_values_for,
    enumerate_mixture,
    mix_log_numerators,
    union_breakpoint_rule,
)

from series_prior import _engine
from series_prior._engine import EnumerationCapError, assignment_count, posterior_moments
from series_prior.basis import eval_basis, eval_normalized, make_basis
from series_prior.cli import cli
from series_prior.density import DensityDataset, bases_for_prior, density_builder, exact_moment
from series_prior.harness import fit_density, metric_grid, mixture_51, sample_density
from series_prior.priors import ModelSizePrior
from series_prior.regression import (
    RegressionDataset,
    binary_builder,
    binary_moment,
    poisson_builder,
    poisson_moment,
)

GRID = (np.arange(20) + 0.5) / 20


def _density_case():
    mp = ModelSizePrior.geometric(0.5, 4, 7)
    bases = bases_for_prior(2, mp)
    data = DensityDataset(np.random.default_rng(2).random(5))
    return density_builder(bases, GRID)(data), bases, mp


def _binary_case():
    mp = ModelSizePrior.geometric(0.5, 4, 7)
    bases = bases_for_prior(2, mp)
    rng = np.random.default_rng(3)
    data = RegressionDataset(rng.random(6), (rng.random(6) < 0.5).astype(float), "binary")
    return binary_builder(data, bases, (1.0, 1.0), GRID), bases, mp


def _assert_same(a, b):
    for field in ("mean", "second_moment", "mc_se", "j_values", "j_weights"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


class TestAutoMode:
    @pytest.mark.parametrize("case", [_density_case, _binary_case])
    def test_exact_at_cap_mc_above(self, case, monkeypatch):
        build, bases, mp = case()
        worst = max(assignment_count(build(j)[0]) for j in bases)
        assert worst > 1
        monkeypatch.setattr(_engine, "DEFAULT_TERM_CAP", worst)
        at_cap = posterior_moments(build, bases, mp, GRID, mode="auto")
        assert at_cap.mode == "exact"
        _assert_same(at_cap, posterior_moments(build, bases, mp, GRID, mode="exact"))
        monkeypatch.setattr(_engine, "DEFAULT_TERM_CAP", worst - 1)
        over = posterior_moments(build, bases, mp, GRID, mode="auto", n_terms=200, seed=5)
        assert over.mode == "mc"
        _assert_same(over, posterior_moments(build, bases, mp, GRID, mode="mc", n_terms=200, seed=5))

    def test_fit_density_auto_equals_exact_moment(self):
        mp = ModelSizePrior.geometric(0.6, 5, 9)
        data = DensityDataset(np.random.default_rng(8).random(7))
        fit = fit_density(data, 2, mp, grid=GRID, mode="auto")
        exact = exact_moment(data, GRID, bases_for_prior(2, mp), mp)
        assert fit.mode == "exact"
        _assert_same(fit, exact)

    def test_auto_builds_each_dimension_once_within_cap(self):
        build, bases, mp = _density_case()
        calls = []

        def counted(j):
            calls.append(int(j))
            return build(j)

        assert posterior_moments(counted, bases, mp, GRID, mode="auto").mode == "exact"
        assert calls == sorted(bases)

    @pytest.mark.parametrize("mode", ["exact", "mc", "auto"])
    def test_every_mode_builds_each_dimension_once(self, mode, monkeypatch):
        # J=5 needs one term (every point is a J=5 knot), J=6 is the first over a cap of 4;
        # exact mode runs within the cap, auto past it.
        mp = ModelSizePrior.geometric(0.5, 5, 8)
        bases = bases_for_prior(2, mp)
        build = density_builder(bases, GRID)(DensityDataset(np.array([0.25, 0.5, 0.75])))
        calls = []

        def counted(j):
            calls.append(int(j))
            return build(j)

        if mode == "auto":
            monkeypatch.setattr(_engine, "DEFAULT_TERM_CAP", 4)
        fit = posterior_moments(counted, bases, mp, GRID, mode=mode, n_terms=50, seed=3)
        assert calls == [5, 6, 7, 8]
        assert fit.mode == ("exact" if mode == "exact" else "mc")
        if mode == "auto":
            _assert_same(fit, posterior_moments(build, bases, mp, GRID, mode="mc", n_terms=50, seed=3))


class TestExactCap:
    def test_names_first_dimension_over_cap(self, monkeypatch):
        # Points on the J=5 knots (0.25, 0.5, 0.75) have one active hat each, so
        # J=5 needs a single term and the first dimension over a cap of 4 is J=6.
        mp = ModelSizePrior.geometric(0.5, 5, 8)
        bases = bases_for_prior(2, mp)
        build = density_builder(bases, GRID)(DensityDataset(np.array([0.25, 0.5, 0.75])))
        counts = {j: assignment_count(build(j)[0]) for j in sorted(bases)}
        assert counts[5] == 1 and counts[6] > 4
        monkeypatch.setattr(_engine, "DEFAULT_TERM_CAP", 4)
        with pytest.raises(EnumerationCapError, match="J=6") as err:
            posterior_moments(build, bases, mp, GRID, mode="exact")
        assert err.value.j == 6 and err.value.total == counts[6]


class TestValidation:
    def test_unknown_mode_rejected_everywhere(self):
        mp = ModelSizePrior.geometric(0.5, 4, 6)
        bases = bases_for_prior(2, mp)
        z = np.array([0.2, 0.7])
        calls = [
            lambda: fit_density(DensityDataset(z), 2, mp, grid=GRID, mode="fast"),
            lambda: binary_moment(RegressionDataset(z, [0.0, 1.0], "binary"), bases, (1.0, 1.0), mp, GRID, mode="fast"),
            lambda: poisson_moment(RegressionDataset(z, [1.0, 2.0], "poisson"), bases, (1.0, 1.0), mp, GRID, mode="fast"),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="mode must be"):
                call()

    @pytest.mark.parametrize("mode", ["auto", "exact", "mc"])
    def test_too_few_sampled_terms_rejected_in_every_mode(self, mode):
        # auto picks exact here, so the sampled term count would go unused.
        mp = ModelSizePrior.geometric(0.6, 5, 9)
        data = DensityDataset(np.random.default_rng(8).random(7))
        assert fit_density(data, 2, mp, grid=GRID, mode="auto").mode == "exact"
        with pytest.raises(ValueError, match="at least 2 sampled terms"):
            fit_density(data, 2, mp, grid=GRID, mode=mode, n_terms=1)

    def test_moment_order_checked(self):
        build, bases, mp = _density_case()
        with pytest.raises(ValueError, match="moment order"):
            posterior_moments(build, bases, mp, GRID, m=3)


unit = st.floats(0.0, 1.0)
shape = st.floats(0.3, 3.0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_slots_for_groups_and_repeats(data):
    q, K = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    basis = make_basis(q, K)
    points = st.one_of(unit, st.sampled_from(basis.breakpoints().tolist()))
    x = np.array(data.draw(st.lists(points, max_size=8)), dtype=float)
    values = data.draw(st.sampled_from([eval_basis, eval_normalized]))(basis, x)
    n = x.size
    groups = data.draw(st.none() | st.lists(st.integers(0, 1), min_size=n, max_size=n))
    repeats = data.draw(st.none() | st.lists(st.integers(0, 3), min_size=n, max_size=n))
    table = _engine.slots_for(values, groups=groups, repeats=repeats)
    want = []  # (first, width, group, log values) of each row, repeats expanded in place
    for i, row in enumerate(values):
        active = np.flatnonzero(row > 0.0)
        np.testing.assert_array_equal(active, np.arange(active[0], active[-1] + 1))
        g = 0 if groups is None else groups[i]
        want += [(active[0], active.size, g, np.log(row[active]))] * (1 if repeats is None else repeats[i])
    assert len(table) == len(want)
    for r, (first, width, g, logs) in enumerate(want):
        assert (table.first[r], table.width[r], table.group[r]) == (first, width, g)
        np.testing.assert_array_equal(table.log_values[r, :width], logs)
        assert not np.any(table.log_values[r, width:])
    assert assignment_count(table) == math.prod(int(width) for _, width, *_ in want)
    at = data.draw(st.integers(0, n))
    with pytest.raises(ValueError, match="no active basis"):
        _engine.slots_for(np.insert(values, at, 0.0, axis=0))
    if basis.dimension >= 3:
        gap = np.zeros(basis.dimension)
        gap[[0, 2]] = 0.5
        with pytest.raises(ValueError, match="not consecutive"):
            _engine.slots_for(np.insert(values, at, gap, axis=0))


def test_assignment_count_is_exact_past_the_cap():
    table = _engine.slots_for(np.full((500, 3), 1.0 / 3.0))
    assert assignment_count(table) == 3**500 > _engine.DEFAULT_TERM_CAP
    assert assignment_count(_engine.slots_for(np.zeros((0, 3)))) == 1


@st.composite
def chain_cases(draw, max_points=6):
    """Slots, family, evaluation columns and band (order - 1) of one dimension; the default size can be enumerated."""
    q, K = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    basis = make_basis(q, K)
    J = basis.dimension
    points = st.one_of(unit, st.sampled_from(basis.breakpoints().tolist()))
    x = np.array(draw(st.lists(points, max_size=max_points)))
    grid = np.array(draw(st.lists(points, max_size=5)))
    a = np.array(draw(st.lists(shape, min_size=J, max_size=J)))
    b = np.array(draw(st.lists(shape, min_size=J, max_size=J)))
    kind = draw(st.sampled_from(["dirichlet", "beta", "gamma"]))
    if kind == "dirichlet":
        slots = _engine.slots_for(eval_normalized(basis, x))
        return slots, _engine.DirichletFamily(a), J, eval_normalized(basis, grid).T, q - 1
    vals = eval_basis(basis, x)
    if kind == "beta":
        groups = draw(st.lists(st.integers(0, 1), min_size=x.size, max_size=x.size))
        slots = _engine.slots_for(vals, groups=groups)
        return slots, _engine.BetaFamily(a, b), J, eval_basis(basis, grid).T, q - 1
    repeats = draw(st.lists(st.integers(0, 3), min_size=x.size, max_size=x.size))
    slots = _engine.slots_for(vals, repeats=repeats)
    return slots, _engine.GammaFamily(a, b, vals.sum(axis=0)), J, eval_basis(basis, grid).T, q - 1


def _assert_log_close(got, want):
    if want is None:
        assert got is None
        return
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * np.maximum(np.abs(want[finite]), 1.0))


@settings(max_examples=150, deadline=None)
@given(chain_cases(), st.booleans(), st.randoms(use_true_random=False))
def test_exact_mixture_equals_enumeration(case, second, rnd):
    slots, family, J, eval_cols, band = case
    assume(assignment_count(slots) <= 5000)
    got = _engine.exact_mixture(slots, family, J, eval_cols, band, second)
    want = enumerate_mixture(slots, family, J, eval_cols, second)
    log_den = got[0]
    with np.errstate(divide="ignore"):
        logs = [log_den] + [None if f is None else log_den + np.log(f) for f in got[1:]]
    for g, w in zip(logs, want):
        _assert_log_close(g, w)
    perm = list(range(len(slots)))
    rnd.shuffle(perm)
    for g, w in zip(_engine.exact_mixture(slots.take(perm), family, J, eval_cols, band, second), got):
        np.testing.assert_array_equal(g, w)


@settings(max_examples=100, deadline=None)
@given(chain_cases(), st.booleans())
def test_exact_mixture_keeps_the_callers_errstate(case, second):
    # The recursion ignores divide-by-zero and underflow in one errstate of
    # its own; it must neither need a laxer caller nor change the caller's.
    slots, family, J, eval_cols, band = case
    want = _engine.exact_mixture(slots, family, J, eval_cols, band, second)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = _engine.exact_mixture(slots, family, J, eval_cols, band, second)
        assert np.geterr() == {"divide": "raise", "over": "raise", "under": "raise", "invalid": "raise"}
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


@settings(max_examples=150, deadline=None)
@given(chain_cases(), st.booleans(), st.integers(0, 3))
def test_exact_mixture_band_past_the_grid_changes_no_bit(case, second, extra):
    # posterior_moments passes band = order - 1; a band past the grid
    # columns' own adds only zero grid products, so every bit stays.
    slots, family, J, eval_cols, band = case
    want = _engine.exact_mixture(slots, family, J, eval_cols, band, second)
    active = eval_cols != 0.0
    own = max([int(np.ptp(np.flatnonzero(col))) for col in active.T if col.any()], default=0)
    got = _engine.exact_mixture(slots, family, J, eval_cols, min(own + extra, J - 1), second)
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


@st.composite
def fit_cases(draw, max_points=12):
    """The (slots, family, J, eval_cols, band) of several dimensions of one fit.

    The dimensions share one order, family kind and data set, and have
    their own knot count (often repeated) and hyperparameters, so one row
    pattern recurs across dimensions with other fixed counts and tables.
    """
    q = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["dirichlet", "beta", "gamma"]))
    points = st.one_of(unit, st.sampled_from([0.2, 0.25, 0.5, 0.75, 1.0 / 3.0]))
    x = np.array(draw(st.lists(points, max_size=max_points // 2 if kind == "gamma" else max_points)))
    grid = np.array(draw(st.lists(points, max_size=5)))
    groups = draw(st.lists(st.integers(0, 1), min_size=x.size, max_size=x.size))
    repeats = draw(st.lists(st.integers(0, 2), min_size=x.size, max_size=x.size))
    dims = []
    for K in draw(st.lists(st.integers(1, 8), min_size=1, max_size=5)):
        basis = make_basis(q, K)
        J = basis.dimension
        a = np.array(draw(st.lists(shape, min_size=J, max_size=J)))
        b = np.array(draw(st.lists(shape, min_size=J, max_size=J)))
        if kind == "dirichlet":
            dims.append((_engine.slots_for(eval_normalized(basis, x)), _engine.DirichletFamily(a), J, eval_normalized(basis, grid).T, q - 1))
            continue
        vals, cols = eval_basis(basis, x), eval_basis(basis, grid).T
        if kind == "beta":
            dims.append((_engine.slots_for(vals, groups=groups), _engine.BetaFamily(a, b), J, cols, q - 1))
        else:
            dims.append((_engine.slots_for(vals, repeats=repeats), _engine.GammaFamily(a, b, vals.sum(axis=0)), J, cols, q - 1))
    return dims


def _bits(result):
    return [None if f is None else np.asarray(f).tobytes() for f in result]


@settings(max_examples=300, deadline=None)
@given(fit_cases(), st.booleans(), st.randoms(use_true_random=False))
def test_exact_fit_gives_each_dimension_the_bits_it_has_alone(dims, second, rnd):
    # Runs of one row pattern are stepped together whichever dimension they
    # come from; no dimension's result may depend on its company or place.
    fit = _engine.exact_fit(dims, second)
    order = list(range(len(dims)))
    rnd.shuffle(order)
    shuffled = _engine.exact_fit([dims[i] for i in order], second)
    for i, dim in enumerate(dims):
        alone = _bits(_engine.exact_mixture(*dim, second))
        assert _bits(fit[i]) == alone
        assert _bits(shuffled[order.index(i)]) == alone


@st.composite
def per_j_moments(draw):
    """exact_mixture results of several dimensions and their log prior.

    The log marginals lie up to 1,000 nats below the largest, one dimension
    may have no prior mass, and grid moments may be exactly 0.
    """
    n_j, n_grid = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    top = draw(st.floats(-20.0, 20.0))
    log_den = [top - draw(st.floats(0.0, 1000.0)) for _ in range(n_j)]
    log_prior = [draw(st.floats(-5.0, 0.0)) for _ in range(n_j)]
    if n_j > 1 and draw(st.booleans()):
        log_prior[draw(st.integers(0, n_j - 1))] = -np.inf
    moment = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    f1 = np.array(draw(st.lists(moment, min_size=n_j * n_grid, max_size=n_j * n_grid))).reshape(n_j, n_grid)
    f2 = f1**2 + np.array(draw(st.lists(moment, min_size=n_j * n_grid, max_size=n_j * n_grid))).reshape(n_j, n_grid)
    return [(d, a, b) for d, a, b in zip(log_den, f1, f2)], np.array(log_prior)


@settings(max_examples=300, deadline=None)
@given(per_j_moments(), st.booleans())
def test_combine_exact_equals_log_domain_mixing(case, second):
    per_j, log_prior = case
    if not second:
        per_j = [(d, f1, None) for d, f1, _ in per_j]
    with np.errstate(divide="ignore"):
        logged = [(d, *(None if f is None else d + np.log(f) for f in fs)) for d, *fs in per_j]
    got = _engine.combine_exact(per_j, log_prior)
    want = mix_log_numerators(logged, log_prior)
    assert got[2].tobytes() == want[2].tobytes()
    # Both routes exponentiate log values of up to |log_den| + 20 nats, and each
    # rounding of a log value x moves the result by up to eps |x| / 2 relative.
    # Where only a far lighter J has a nonzero moment that dominates: the two
    # differed by 1.5e-13 with log values near 640. Below the normal range a
    # float keeps too few bits for any relative bound.
    rtol = 1e-13 + 4.0 * np.finfo(float).eps * (max(abs(d) for d, *_ in per_j) + 20.0)
    for g, w in zip(got[:2], want[:2]):
        if w is None:
            assert g is None
            continue
        assert np.all(np.abs(g - w) <= rtol * np.abs(w) + np.finfo(float).tiny)


def test_logsumexp_of_no_mass_is_minus_inf_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _engine.logsumexp(np.full(3, -np.inf)) == -np.inf


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_mixture_ignores_row_order(seed):
    # 30 rows on 2 knot intervals: many rows share a window, so the rows'
    # order within a window decides the recursion's rounding unless the sort
    # on log values fixes it.
    rng = np.random.default_rng(seed)
    basis = make_basis(3, 2)
    slots = _engine.slots_for(eval_normalized(basis, rng.random(30)))
    family = _engine.DirichletFamily(np.ones(basis.dimension))
    eval_cols = eval_normalized(basis, GRID).T
    want = _engine.exact_mixture(slots, family, basis.dimension, eval_cols, basis.order - 1, True)
    got = _engine.exact_mixture(
        slots.take(rng.permutation(len(slots))), family, basis.dimension, eval_cols, basis.order - 1, True
    )
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_exact_recursion_keeps_no_per_step_messages():
    # q=3, n=100, J=8: one run of 8 bases whose largest count state has 57k
    # cells (0.44 MiB). A recursion that keeps one forward state and one
    # backward message per step traces a peak of about 19 MiB; keeping one
    # state per basis closing, the backward message and the band's tilted
    # messages traces about 5 MiB. 10 MiB lies between the two, with room
    # either way.
    basis = make_basis(3, 6)
    J = basis.dimension
    slots = _engine.slots_for(eval_normalized(basis, np.random.default_rng(0).random(100)))
    family = _engine.DirichletFamily(np.ones(J))
    eval_cols = eval_normalized(basis, GRID).T
    tracemalloc.start()
    try:
        _engine.exact_mixture(slots, family, J, eval_cols, basis.order - 1, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def _assert_rel(got, want, scale=0.0):
    """Equal to 1e-12 relative, or relative to scale where cancellation can make want small."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), scale))


def _sampled_terms(slots, family, J, eval_cols, n_draws, seed):
    """Log weight, E[f | counts] and E[f^2 | counts] of each draw of mc_mixture.

    The same slot digits from an equal generator; weights and conditional
    moments from the family parameters alone (_assignment_terms).
    """
    rng = np.random.default_rng(seed)
    digits = np.array([rng.integers(0, k, n_draws) for k in slots.width.tolist()], dtype=np.int64)
    digits = digits.reshape(len(slots), n_draws)
    log_w, m1, m2 = _assignment_terms(family, _counts_for(slots, digits, J, family.n_groups), eval_cols)
    return log_w + _log_values_for(slots, digits), m1, m2


def _assert_matches_reference(got, slots, family, J, eval_cols, n_draws, seed, second):
    """mc_mixture's fields against grid-space sums over the same draws.

    Each draw's grid moments are formed here, one (N, G) array per moment,
    and the spreads are sums over draws of their deviations.
    """
    log_w, m1, m2 = _sampled_terms(slots, family, J, eval_cols, n_draws, seed)
    u = np.exp(log_w - log_w.max())
    ratio = (u @ m1) / u.sum()
    dev = u[:, None] * (m1 - ratio)
    du, ddev = u - u.mean(), dev - dev.mean(axis=0)
    dev_scale = np.mean((u[:, None] * (np.abs(m1) + np.abs(ratio))) ** 2, axis=0)
    assert [f.name for f in dataclasses.fields(got)] == [
        "log_scale", "shift", "mean_u_den", "var_u_den", "mean_u_num", "var_u_num", "cov_u", "mean_u_num2", "n_draws"
    ]
    assert got.n_draws == n_draws
    _assert_log_close(got.log_scale, np.log(np.prod(slots.width.astype(float))))
    _assert_log_close(got.shift, log_w.max())
    _assert_rel(got.mean_u_den, u.mean())
    _assert_rel(got.var_u_den, du @ du / (n_draws - 1), np.mean(u**2))
    _assert_rel(got.mean_u_num, (u[:, None] * m1).mean(axis=0))
    _assert_rel(got.var_u_num, (ddev**2).sum(axis=0) / (n_draws - 1), dev_scale)
    _assert_rel(got.cov_u, du @ ddev / (n_draws - 1), np.sqrt(np.mean(u**2) * dev_scale))
    if second:
        _assert_rel(got.mean_u_num2, (u[:, None] * m2).mean(axis=0))
    else:
        assert got.mean_u_num2 is None


@settings(max_examples=150, deadline=None)
@given(
    chain_cases(max_points=40),
    st.booleans(),
    st.sampled_from([2, 3, 64]),
    st.integers(0, 2**32 - 1),
)
def test_mc_mixture_equals_reference(case, second, n_draws, seed):
    slots, family, J, eval_cols, _ = case
    got = _engine.mc_mixture(slots, family, J, eval_cols, n_draws, np.random.default_rng(seed), second)
    _assert_matches_reference(got, slots, family, J, eval_cols, n_draws, seed, second)


@settings(max_examples=50, deadline=None)
@given(chain_cases(max_points=40), st.integers(0, 2**32 - 1))
def test_mc_mixture_draws_the_stream_of_one_call_per_row(case, seed):
    slots, family, J, eval_cols, _ = case
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    _engine.mc_mixture(slots, family, J, eval_cols, 7, rng)
    for k in slots.width.tolist():
        ref.integers(0, k, 7)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("k", [1, 2, 3, 5, 300, 2**32 + 5])
@pytest.mark.parametrize("n_draws", [1, 2, 7, 999, 3000])
def test_one_call_per_block_draws_the_stream_of_one_call_per_row(k, n_draws):
    # mc_mixture draws each block of equal-width rows with one call; its draw
    # contract is the stream of one call per row, which holds only while numpy
    # fills an (m, N) request row after row from the same stream.
    per_row, batched = np.random.default_rng(11), np.random.default_rng(11)
    want = np.array([per_row.integers(0, k, n_draws) for _ in range(4)])
    np.testing.assert_array_equal(batched.integers(0, k, (4, n_draws)), want)
    assert batched.bit_generator.state == per_row.bit_generator.state


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 7.0])
def test_lgamma_matches_scipy_gammaln(a):
    x = a + np.arange(2001.0)
    want = gammaln(x)
    got = _engine.lgamma(x)
    assert got.shape == x.shape
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1.0))


def test_log_close_count_table_equals_per_element():
    # A family's log_close reads a large count array from a table, and a
    # small one element by element; both give the same bits.
    rng = np.random.default_rng(2)
    a = np.array([0.5, 1.0, 2.5, 7.0, 0.3])
    counts = tuple(rng.integers(0, 40, (500, a.size)).astype(float) + g for g in (0, 3))
    np.testing.assert_array_equal(_engine._lgamma_counts(a, counts[0]), _engine.lgamma(a + counts[0]))
    for family in (_engine.DirichletFamily(a), _engine.BetaFamily(a, a[::-1]), _engine.GammaFamily(a, a, a)):
        own = counts[: family.n_groups]
        whole = family.log_close(slice(None), own)
        rows = [family.log_close(slice(None), tuple(c[i] for c in own)) for i in range(500)]
        np.testing.assert_array_equal(whole, np.array(rows))


def test_mc_mixture_with_dominant_draw():
    # J=25 of a density-mc fit (q=3, n=500 mixture-51 draws, N=3000): one
    # draw carries nearly all the weight, the regime of the paper's sizes
    # that chain_cases does not reach.
    mp = ModelSizePrior.geometric(0.9, 5, 25)
    bases = bases_for_prior(3, mp)
    data = sample_density(mixture_51(), 500, 7)
    slots, family, eval_cols = density_builder(bases, metric_grid())(data)(25)
    J, N, seed = bases[25].dimension, 3000, 1
    got = _engine.mc_mixture(slots, family, J, eval_cols, N, np.random.default_rng(seed), True)
    sum_u, sum_u2 = N * got.mean_u_den, (N - 1) * got.var_u_den + N * got.mean_u_den**2
    assert sum_u**2 / sum_u2 < 1.01  # Kish effective sample size
    _assert_matches_reference(got, slots, family, J, eval_cols, N, seed, True)
    assert np.all(got.var_u_num >= 0.0)
    mean, _, second, _ = _engine.combine_mc([got], [0.0])
    assert np.all(second >= mean**2 * (1.0 - 1e-12))


@settings(max_examples=100, deadline=None)
@given(
    chain_cases(max_points=40),
    st.lists(st.tuples(st.integers(0, 2**32 - 1), st.floats(-5.0, 5.0)), min_size=1, max_size=3),
)
def test_combine_mc_equals_pooled_draws(case, parts):
    # Pieces of one case from independent generators stand in for dimensions.
    # The reference pools every draw, weighted by prior x active-set product x
    # exp(log weight), and takes the delta-method variance from each draw's
    # deviation from the pooled mean.
    slots, family, J, eval_cols, _ = case
    N = 64
    log_scale = np.log(np.prod(slots.width.astype(float)))
    pieces, log_ws, m1s, m2s = [], [], [], []
    for seed, lp in parts:
        pieces.append(_engine.mc_mixture(slots, family, J, eval_cols, N, np.random.default_rng(seed), True))
        log_w, m1, m2 = _sampled_terms(slots, family, J, eval_cols, N, seed)
        log_ws.append(lp + log_scale + log_w)
        m1s.append(m1)
        m2s.append(m2)
    mean, se, second, j_log = _engine.combine_mc(pieces, [lp for _, lp in parts])
    top = max(lw.max() for lw in log_ws)
    W = [np.exp(lw - top) for lw in log_ws]
    total = sum(w.sum() for w in W)
    want_mean = sum(w @ m1 for w, m1 in zip(W, m1s)) / total
    dev = [w[:, None] * (m1 - want_mean) for w, m1 in zip(W, m1s)]
    dev_scale = sum(np.mean((w[:, None] * (np.abs(m1) + np.abs(want_mean))) ** 2, axis=0) for w, m1 in zip(W, m1s))
    _assert_rel(mean, want_mean)
    _assert_rel(second, sum(w @ m2 for w, m2 in zip(W, m2s)) / total)
    _assert_rel(np.exp(j_log), [w.sum() / total for w in W])
    _assert_rel(se**2, sum(d.var(axis=0, ddof=1) for d in dev) * N / total**2, dev_scale * N / total**2)


knot_or_unit = st.one_of(unit, st.sampled_from([0.2, 0.25, 0.5, 0.75, 1.0 / 3.0]))


@pytest.mark.parametrize("mode", ["exact", "mc"])
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.lists(knot_or_unit, max_size=8), st.floats(0.2, 0.95))
def test_density_mean_integrates_to_one(mode, q, x, p):
    # The mean is piecewise polynomial of degree q - 1 <= 2 between the knots
    # of the union of the bases, where Simpson panels are exact. A sampled mean
    # is a weighted average of per-draw posterior densities, so it integrates
    # to 1 as well.
    mp = ModelSizePrior.geometric(p, q, q + 5)
    bases = bases_for_prior(q, mp)
    pts, wts = union_breakpoint_rule(bases, total_points=400)
    build = density_builder(bases, pts)(DensityDataset(np.array(x)))
    mean = posterior_moments(build, bases, mp, pts, m=1, mode=mode, n_terms=100).mean
    assert abs(wts @ mean - 1.0) <= 1e-10


def _binreg(rows, *flags):
    """binreg's mean, band_low and band_high for (z, x) rows."""
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp) / "zx.txt", Path(tmp) / "bin.csv"
        inp.write_text("".join(f"{zi!r},{int(xi)}\n" for zi, xi in rows))
        assert cli(["binreg", "--input", str(inp), *flags, "--output", str(out)]) == 0
        csv = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    return csv[:, 1], csv[:, 3], csv[:, 4]


def _assert_unit_band(mean, low, high):
    assert np.all((mean >= 0.0) & (mean <= 1.0))
    assert np.all((low >= 0.0) & (low <= mean) & (mean <= high) & (high <= 1.0))


@pytest.mark.parametrize("mode", ["exact", "mc"])
@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.tuples(knot_or_unit, st.integers(0, 1)), min_size=1, max_size=8),
    st.sampled_from([0.5, 1.0, 2.0]),
)
def test_binary_mean_and_band_in_unit_interval(mode, q, rows, b):
    # Through binreg, which caps the band at 1. B-splines sum to 1, so every
    # per-assignment mean, and any weighted average of them, lies in [0, 1].
    flags = ["--q", str(q), "--b", str(b), "--mode", mode, "--N", "300", "--jmin", "4", "--jmax", "8"]
    _assert_unit_band(*_binreg(rows, *flags, "--grid", "20"))


def test_sampled_binary_mean_in_unit_interval_at_defaults():
    # 10 Bernoulli points on which a sampler that drew one basis index per grid
    # point gave posterior means up to 1.55.
    z = [0.64, 0.27, 0.04, 0.02, 0.81, 0.91, 0.61, 0.73, 0.54, 0.94]
    x = [0, 1, 0, 1, 0, 1, 0, 0, 1, 1]
    _assert_unit_band(*_binreg(zip(z, x), "--q", "3", "--mode", "mc", "--N", "300"))


@pytest.mark.parametrize("kind", ["density", "binary", "poisson"])
def test_sampled_second_moment_at_least_mean_squared(kind):
    # Each draw's E[f^2 | counts] is at least E[f | counts]^2, so by Jensen's
    # inequality the weighted average of the former is at least the square of
    # the weighted average of the latter: combine_mc needs no clamp.
    mp = ModelSizePrior.geometric(0.9, 5, 15)
    bases = bases_for_prior(3, mp)
    rng = np.random.default_rng(6)
    z = rng.random(60)
    if kind == "density":
        build = density_builder(bases, GRID)(DensityDataset(z))
    elif kind == "binary":
        data = RegressionDataset(z, (rng.random(60) < z).astype(float), kind)
        build = binary_builder(data, bases, (1.0, 1.0), GRID)
    else:
        data = RegressionDataset(z, rng.poisson(1.0 + 2.0 * z).astype(float), kind)
        build = poisson_builder(data, bases, (1.0, 1.0), GRID)
    pieces = []
    for j in sorted(bases):
        slots, family, eval_cols = build(j)
        rng_j = np.random.default_rng(j)
        pieces.append(_engine.mc_mixture(slots, family, bases[j].dimension, eval_cols, 500, rng_j, second=True))
    mean, _, second, _ = _engine.combine_mc(pieces, mp.log_pmf(np.array(sorted(bases))))
    assert np.all(second >= mean**2 * (1.0 - 1e-12))


@pytest.mark.parametrize("mode", ["exact", "mc", "pool"])
@pytest.mark.parametrize("kind", ["density", "binary", "poisson"])
def test_regression_ignores_observation_order(kind, mode, monkeypatch):
    # "pool" samples on a pool of 2 threads, so order and thread count are checked together.
    mp = ModelSizePrior.geometric(0.5, 4, 7)
    bases = bases_for_prior(3, mp)
    rng = np.random.default_rng(4)
    z = np.append(rng.random(8), 0.5)  # 0.5 is a knot of the J=5 basis
    x = (rng.random(9) < 0.5).astype(float) if kind == "binary" else rng.integers(0, 3, 9).astype(float)
    perm = rng.permutation(9)
    pools, pooled = [], mode == "pool"
    if pooled:
        monkeypatch.setenv("SERIES_PRIOR_THREADS", "2")
        monkeypatch.setattr(_engine, "_POOL_MIN_TERMS", 2)
        mode = "mc"

    def recorded(max_workers):
        pools.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(_engine, "ThreadPoolExecutor", recorded)

    def fit(order):
        if kind == "density":
            return fit_density(DensityDataset(z[order]), 3, mp, grid=GRID, mode=mode, n_terms=200, seed=6)
        moment = binary_moment if kind == "binary" else poisson_moment
        return moment(RegressionDataset(z[order], x[order], kind), bases, (1.0, 1.0), mp, GRID, mode=mode, n_terms=200, seed=6)

    runs = [fit(order) for order in (np.arange(9), perm)]
    assert runs[0].mode == mode
    assert pools == ([2, 2] if pooled else [])
    _assert_same(*runs)
