import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import enumerate_mixture, reference_mc_mixture, union_breakpoint_rule

from series_prior import _engine
from series_prior._engine import EnumerationCapError, assignment_count, posterior_moments
from series_prior.basis import eval_basis, eval_normalized, make_basis
from series_prior.cli import cli
from series_prior.density import DensityDataset, bases_for_prior, density_builder, exact_moment
from series_prior.harness import fit_density
from series_prior.priors import ModelSizePrior
from series_prior.regression import (
    RegressionDataset,
    binary_builder,
    binary_moment,
    poisson_moment,
)

GRID = (np.arange(20) + 0.5) / 20


def _density_case():
    mp = ModelSizePrior.geometric(0.5, 4, 7)
    bases = bases_for_prior(2, mp)
    data = DensityDataset(np.random.default_rng(2).random(5))
    return density_builder(data, bases, GRID), bases, mp


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
    def test_exact_at_cap_mc_above(self, case):
        build, bases, mp = case()
        worst = max(assignment_count(build(j)[0]) for j in bases)
        assert worst > 1
        at_cap = posterior_moments(build, bases, mp, GRID, mode="auto", term_cap=worst)
        assert at_cap.mode == "exact"
        _assert_same(at_cap, posterior_moments(build, bases, mp, GRID, mode="exact", term_cap=worst))
        over = posterior_moments(build, bases, mp, GRID, mode="auto", n_terms=200, seed=5, term_cap=worst - 1)
        assert over.mode == "mc"
        _assert_same(over, posterior_moments(build, bases, mp, GRID, mode="mc", n_terms=200, seed=5))

    def test_fit_density_auto_equals_exact_moment(self):
        mp = ModelSizePrior.geometric(0.6, 5, 9)
        data = DensityDataset(np.random.default_rng(8).random(7))
        fit = fit_density(data, 2, mp, grid=GRID, mode="auto")
        exact = exact_moment(data, GRID, bases_for_prior(2, mp), mp)
        assert fit.mode == "exact"
        _assert_same(fit, exact)


class TestExactCap:
    def test_names_first_dimension_over_cap(self):
        # Points on the J=5 knots (0.25, 0.5, 0.75) have one active hat each, so
        # J=5 needs a single term and the first dimension over a cap of 4 is J=6.
        mp = ModelSizePrior.geometric(0.5, 5, 8)
        bases = bases_for_prior(2, mp)
        build = density_builder(DensityDataset(np.array([0.25, 0.5, 0.75])), bases, GRID)
        counts = {j: assignment_count(build(j)[0]) for j in sorted(bases)}
        assert counts[5] == 1 and counts[6] > 4
        with pytest.raises(EnumerationCapError, match="J=6") as err:
            posterior_moments(build, bases, mp, GRID, mode="exact", term_cap=4)
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

    def test_moment_order_checked(self):
        build, bases, mp = _density_case()
        with pytest.raises(ValueError, match="moment order"):
            posterior_moments(build, bases, mp, GRID, m=3)


def test_slots_for_groups_and_repeats():
    values = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0]])
    slots = _engine.slots_for(values, groups=[1, 0], repeats=[1, 3])
    assert [s.group for s in slots] == [1, 0, 0, 0]
    np.testing.assert_array_equal(slots[0].indices, [1, 2])
    np.testing.assert_array_equal(slots[3].log_values, [0.0])


unit = st.floats(0.0, 1.0)
shape = st.floats(0.3, 3.0)


@st.composite
def chain_cases(draw, max_points=6):
    """Slots, family and evaluation columns of one dimension; the default size can be enumerated."""
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
        return slots, _engine.DirichletFamily(a), J, eval_normalized(basis, grid).T
    vals = eval_basis(basis, x)
    if kind == "beta":
        groups = draw(st.lists(st.integers(0, 1), min_size=x.size, max_size=x.size))
        slots = _engine.slots_for(vals, groups=groups)
        return slots, _engine.BetaFamily(a, b), J, eval_basis(basis, grid).T
    repeats = draw(st.lists(st.integers(0, 3), min_size=x.size, max_size=x.size))
    slots = _engine.slots_for(vals, repeats=repeats)
    return slots, _engine.GammaFamily(a, b, vals.sum(axis=0)), J, eval_basis(basis, grid).T


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
    slots, family, J, eval_cols = case
    assume(assignment_count(slots) <= 5000)
    got = _engine.exact_mixture(slots, family, J, eval_cols, second)
    want = enumerate_mixture(slots, family, J, eval_cols, second)
    for g, w in zip(got, want):
        _assert_log_close(g, w)
    shuffled = list(slots)
    rnd.shuffle(shuffled)
    for g, w in zip(_engine.exact_mixture(shuffled, family, J, eval_cols, second), got):
        np.testing.assert_array_equal(g, w)


@settings(max_examples=150, deadline=None)
@given(
    chain_cases(max_points=40),
    st.booleans(),
    st.sampled_from([2, 3, 64]),
    st.integers(0, 2**32 - 1),
)
def test_mc_mixture_equals_loop_reference(case, second, n_draws, seed):
    slots, family, J, eval_cols = case
    got = _engine.mc_mixture(slots, family, J, eval_cols, n_draws, np.random.default_rng(seed), second)
    want = reference_mc_mixture(slots, family, J, eval_cols, n_draws, np.random.default_rng(seed), second)
    for field in dataclasses.fields(_engine.McPiece):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if w is None:
            assert g is None, field.name
        else:
            assert np.array_equal(g, w), field.name


knot_or_unit = st.one_of(unit, st.sampled_from([0.2, 0.25, 0.5, 0.75, 1.0 / 3.0]))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.lists(knot_or_unit, max_size=8), st.floats(0.2, 0.95))
def test_exact_density_mean_integrates_to_one(q, x, p):
    # The mean is piecewise polynomial of degree q - 1 <= 2 between the knots
    # of the union of the bases, where Simpson panels are exact.
    mp = ModelSizePrior.geometric(p, q, q + 5)
    bases = bases_for_prior(q, mp)
    pts, wts = union_breakpoint_rule(bases, total_points=400)
    mean = exact_moment(DensityDataset(np.array(x)), pts, bases, mp, m=1).mean
    assert abs(wts @ mean - 1.0) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.tuples(knot_or_unit, st.integers(0, 1)), min_size=1, max_size=8),
    st.sampled_from([0.5, 1.0, 2.0]),
)
def test_exact_binary_mean_and_band_in_unit_interval(q, rows, b):
    # Through binreg, which caps the band at 1. Exact mode only: the sampled
    # ratio estimator is no mixture of per-assignment means, so nothing keeps
    # it inside [0, 1].
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp) / "zx.txt", Path(tmp) / "bin.csv"
        inp.write_text("".join(f"{zi!r},{int(xi)}\n" for zi, xi in rows))
        argv = ["binreg", "--input", str(inp), "--q", str(q), "--b", str(b), "--mode", "exact"]
        assert cli(argv + ["--jmin", "4", "--jmax", "8", "--grid", "20", "--output", str(out)]) == 0
        csv = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    mean, low, high = csv[:, 1], csv[:, 3], csv[:, 4]
    assert np.all((mean >= 0.0) & (mean <= 1.0))
    assert np.all((low >= 0.0) & (low <= mean) & (mean <= high) & (high <= 1.0))


@pytest.mark.parametrize("kind", ["binary", "poisson"])
def test_exact_regression_ignores_observation_order(kind):
    mp = ModelSizePrior.geometric(0.5, 4, 7)
    bases = bases_for_prior(3, mp)
    rng = np.random.default_rng(4)
    z = np.append(rng.random(8), 0.5)  # 0.5 is a knot of the J=5 basis
    x = (rng.random(9) < 0.5).astype(float) if kind == "binary" else rng.integers(0, 3, 9).astype(float)
    fit = binary_moment if kind == "binary" else poisson_moment
    perm = rng.permutation(9)
    runs = [
        fit(RegressionDataset(z[order], x[order], kind), bases, (1.0, 1.0), mp, GRID, mode="exact")
        for order in (np.arange(9), perm)
    ]
    assert runs[0].mode == "exact"
    _assert_same(*runs)
