import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline
from scipy.stats import beta as beta_dist

from series_prior import _engine
from series_prior import basis as basis_mod
from series_prior.basis import (
    Basis,
    SimplexInfeasibleError,
    eval_basis,
    eval_normalized,
    fit_coefficients,
    grid_columns,
    local_values,
    make_basis,
    quadrature_integrals,
    simplex_coefficients,
)
from series_prior.quadrature import simpson_panel_rule


class TestConstruction:
    def test_dimension_identity(self):
        assert make_basis(1, 10).dimension == 10
        assert make_basis(3, 23).dimension == 25

    def test_piecewise_constant_integrals(self):
        b = make_basis(1, 10)
        np.testing.assert_allclose(b.integrals, 0.1, rtol=0, atol=1e-15)

    def test_integrals_sum_to_one(self):
        for q, K in [(1, 3), (2, 7), (3, 8), (4, 64)]:
            assert abs(make_basis(q, K).integrals.sum() - 1.0) < 1e-12

    def test_integrals_match_quadrature(self):
        b = make_basis(3, 8)
        err = np.abs(quadrature_integrals(b) - b.integrals).max()
        assert err < 1e-10

    @pytest.mark.parametrize("q,K", [(0, 5), (-1, 5), (3, 0), (2.5, 4)])
    def test_invalid_arguments(self, q, K):
        with pytest.raises(ValueError):
            make_basis(q, K)

    def test_knot_structure(self):
        b = make_basis(3, 4)
        np.testing.assert_allclose(
            b.knots, [0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1]
        )


class TestEvaluation:
    def test_bin_indicator(self):
        np.testing.assert_array_equal(eval_basis(make_basis(1, 4), 0.3), [0, 1, 0, 0])

    def test_order_two_hand_value(self):
        # knots 0,0,0.5,1,1; at 0.25 the two hat functions split evenly
        np.testing.assert_allclose(eval_basis(make_basis(2, 2), 0.25), [0.5, 0.5, 0.0])

    def test_partition_of_unity_random_scan(self):
        rng = np.random.default_rng(101)
        for q, K in [(1, 5), (2, 13), (3, 10), (4, 31)]:
            x = rng.random(10_000)
            vals = eval_basis(make_basis(q, K), x)
            assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-12
            assert vals.min() >= 0.0

    def test_local_support(self):
        rng = np.random.default_rng(7)
        for q, K in [(2, 9), (3, 12), (4, 6)]:
            vals = eval_basis(make_basis(q, K), rng.random(2000))
            assert (vals > 0).sum(axis=1).max() <= q

    def test_endpoints(self):
        b = make_basis(3, 5)
        left = eval_basis(b, 0.0)
        right = eval_basis(b, 1.0)
        assert left[0] == 1.0 and np.all(left[1:] == 0.0)
        assert right[-1] == 1.0 and np.all(right[:-1] == 0.0)

    def test_domain_error(self):
        b = make_basis(2, 4)
        for x in (-0.01, 1.01):
            with pytest.raises(ValueError):
                eval_basis(b, x)

    def test_matches_scipy_design_matrix(self):
        rng = np.random.default_rng(3)
        for q, K in [(1, 6), (2, 5), (3, 11), (4, 8)]:
            b = make_basis(q, K)
            x = rng.random(500)
            ours = eval_basis(b, x)
            theirs = BSpline.design_matrix(x, b.knots, q - 1).toarray()
            np.testing.assert_allclose(ours, theirs, atol=1e-13)


class TestNormalized:
    def test_scaled_indicator(self):
        np.testing.assert_array_equal(eval_normalized(make_basis(1, 4), 0.3), [0, 4, 0, 0])

    def test_each_integrates_to_one(self):
        b = make_basis(3, 10)
        pts, wts = simpson_panel_rule(b.breakpoints(), 10_000)
        integrals = wts @ eval_normalized(b, pts)
        assert np.abs(integrals - 1.0).max() < 1e-8

    def test_clamped_left_endpoint(self):
        b = make_basis(3, 6)
        vals = eval_normalized(b, 0.0)
        assert vals[0] == 1.0 / b.integrals[0]
        assert np.all(vals[1:] == 0.0)


class TestActiveSet:
    @staticmethod
    def _active(basis, x):
        return np.flatnonzero(eval_basis(basis, x) > 0).tolist()

    def test_single_bin(self):
        assert self._active(make_basis(1, 10), 0.05) == [0]

    def test_interior_window(self):
        assert self._active(make_basis(3, 10), 0.55) == [5, 6, 7]


def _scatter(first, values, J):
    """The dense (P, J) matrix of one basis's local window."""
    out = np.zeros((first.size, J))
    np.put_along_axis(out, first[:, None] + np.arange(values.shape[1]), values, axis=1)
    return out


@st.composite
def stacked_points(draw, q):
    """Bases of order q on 1-30 intervals, and points on [0, 1] that hit their knots and the ulps beside them."""
    bases = [make_basis(q, K) for K in draw(st.lists(st.integers(1, 30), min_size=1, max_size=6))]
    knots = np.unique(np.concatenate([b.knots for b in bases]))
    near = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
    near = near[(near >= 0.0) & (near <= 1.0)].tolist()
    points = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0] + near))
    return bases, np.array(draw(st.lists(points, max_size=40)), dtype=float)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stacked_pass_equals_per_basis_evaluation(data):
    q = data.draw(st.integers(1, 4))
    bases, x = data.draw(stacked_points(q))
    first, values = local_values(bases, x)
    first_n, values_n = local_values(bases, x, normalized=True)
    assert first.shape == (len(bases), x.size) and values.shape == (len(bases), x.size, q)
    np.testing.assert_array_equal(first_n, first)
    for d, b in enumerate(bases):
        span = np.clip(np.searchsorted(b.knots, x, side="right") - 1, q - 1, q + b.intervals - 2)
        np.testing.assert_array_equal(first[d], span - (q - 1))
        dense = eval_basis(b, x)
        assert np.array_equal(_scatter(first[d], values[d], b.dimension), dense)
        assert np.array_equal(_scatter(first[d], values_n[d], b.dimension), eval_normalized(b, x))
        # The single-basis pass is the same as the stacked one.
        assert np.array_equal(local_values([b], x)[1][0], values[d])
    empty_first, empty_values = local_values(bases, np.empty(0))
    assert empty_first.shape == (len(bases), 0) and empty_values.shape == (len(bases), 0, q)


def test_stacked_pass_refuses_mixed_orders_and_no_bases():
    with pytest.raises(ValueError, match="share their order"):
        local_values([make_basis(2, 3), make_basis(3, 3)], [0.5])
    with pytest.raises(ValueError, match="at least one basis"):
        local_values([], [0.5])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        local_values([make_basis(2, 3)], [1.5])


def _same_table(got, want):
    for column in ("first", "width", "group", "log_values"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.shape == b.shape and np.array_equal(a, b), column


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dimension_slots_equal_slots_of_the_dense_matrix(data):
    orders = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
    drawn = [data.draw(stacked_points(q)) for q in orders]
    bases = {b.dimension * 10 + b.order: b for group, _ in drawn for b in group}  # keys need not be J
    x = np.concatenate([points for _, points in drawn])
    n = x.size
    groups = data.draw(st.none() | st.lists(st.integers(0, 1), min_size=n, max_size=n))
    repeats = data.draw(st.none() | st.lists(st.integers(0, 3), min_size=n, max_size=n))
    normalized = data.draw(st.booleans())
    evaluate = eval_normalized if normalized else eval_basis
    seen = []
    for j, slots, first, values in _engine.dimension_slots(bases, x, groups, repeats, normalized):
        basis = bases[j]
        _same_table(slots, _engine.slots_for(evaluate(basis, x), groups=groups, repeats=repeats))
        assert np.array_equal(_scatter(first, values, basis.dimension), evaluate(basis, x))
        # One basis on its own gives the same table as the mixed-order mapping.
        (_, alone, _, _), = _engine.dimension_slots({j: basis}, x, groups, repeats, normalized)
        _same_table(slots, alone)
        seen.append(j)
    assert sorted(seen) == sorted(bases)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_local_sums_equal_dense_column_sums(data):
    # The Poisson tilt c_k = sum_i B_k(z_i), as a weighted bincount of the
    # local values, has the bits of the dense matrix's column sums.
    q = data.draw(st.integers(1, 4))
    bases, x = data.draw(stacked_points(q))
    first, values = local_values(bases, x)
    for d, b in enumerate(bases):
        index = first[d][:, None] + np.arange(q)
        tilt = np.bincount(index.ravel(), weights=values[d].ravel(), minlength=b.dimension)
        assert np.array_equal(tilt, eval_basis(b, x).sum(axis=0))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_grid_columns_are_the_dense_columns(data):
    # The memo's columns have the values and the F-ordered layout of
    # eval_basis(b, x).T and eval_normalized(b, x).T, for bases of mixed orders.
    orders = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
    drawn = [data.draw(stacked_points(q)) for q in orders]
    bases = {b.dimension * 10 + b.order: b for group, _ in drawn for b in group}
    x = np.concatenate([points for _, points in drawn])
    for normalized, evaluate in ((False, eval_basis), (True, eval_normalized)):
        cols = grid_columns(bases, x, normalized)
        assert sorted(cols) == sorted(bases)
        for j, basis in bases.items():
            want = evaluate(basis, x).T
            got = cols[j]
            assert got.shape == want.shape and got.strides == want.strides
            assert got.flags.f_contiguous and want.flags.f_contiguous
            assert got.tobytes() == want.tobytes()


def test_grid_columns_cannot_be_written():
    cols = grid_columns({4: make_basis(2, 3), 5: make_basis(2, 4)}, np.linspace(0.0, 1.0, 6))
    for view in (cols[4], cols[4].T, cols[5][1:]):
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 1.0
    with pytest.raises(TypeError):
        cols[4] = np.zeros((4, 6))
    with pytest.raises(TypeError):
        del cols[5]


def test_grid_columns_key_holds_every_value():
    basis = make_basis(3, 4)
    x = np.linspace(0.0, 1.0, 9)
    plain = grid_columns({6: basis}, x)
    assert grid_columns({6: make_basis(3, 4)}, x.copy()) is plain  # equal values share an entry
    normalized = grid_columns({6: basis}, x, normalized=True)
    assert normalized is not plain
    assert np.array_equal(normalized[6], eval_normalized(basis, x).T)
    moved = x.copy()
    moved[3] = np.nextafter(moved[3], 1.0)  # one ulp off: another grid of the same length
    assert grid_columns({6: basis}, moved) is not plain
    # The memo keeps no reference to the caller's grid: changing it after
    # the call leaves the entry under the values it was made for.
    mine = x.copy()
    kept = grid_columns({6: basis}, mine)
    mine[3] = 0.77
    assert grid_columns({6: basis}, x) is kept
    assert grid_columns({6: basis}, mine) is not kept
    # Same (order, intervals, integrals), other knots: its own entry, with
    # its own values.
    knots = np.array([0.0, 0.0, 0.0, 0.1, 0.5, 0.6, 1.0, 1.0, 1.0])
    uneven = Basis(order=3, intervals=4, knots=knots, integrals=basis.integrals)
    other = grid_columns({6: uneven}, x)
    assert other is not plain
    assert np.array_equal(other[6], eval_basis(uneven, x).T)
    assert not np.array_equal(other[6], plain[6])
    # Same knots, other integrals: the plain values agree, the normalized ones do not.
    scaled = Basis(order=3, intervals=4, knots=basis.knots, integrals=2.0 * basis.integrals)
    assert grid_columns({6: scaled}, x, normalized=True) is not normalized
    assert np.array_equal(grid_columns({6: scaled}, x, normalized=True)[6], eval_normalized(scaled, x).T)


def test_grid_memos_keep_no_entry_past_the_size_cap(monkeypatch):
    # An entry whose arrays would pass the cap is made on every call, with
    # the same values, and not kept; one within it is kept.
    bases = {4: make_basis(2, 3), 5: make_basis(2, 4)}
    x = np.linspace(0.0, 1.0, 7)
    fits, short = 8 * x.size * 9, 8 * x.size * 9 - 1  # sum(J) = 9
    for fill, memo in ((grid_columns, basis_mod._grid_columns), (basis_mod.curve_operators, basis_mod._curve_operators)):
        memo.cache_clear()
        monkeypatch.setattr(basis_mod, "_ENTRY_BYTES", short)
        first, again = fill(bases, x), fill(bases, x)
        assert first is not again and memo.cache_info().currsize == 0
        assert all(np.array_equal(first[j], again[j]) for j in bases)
        monkeypatch.setattr(basis_mod, "_ENTRY_BYTES", fits)
        assert fill(bases, x) is fill(bases, x) and memo.cache_info().currsize == 1
        assert all(np.array_equal(fill(bases, x)[j], first[j]) for j in bases)
    assert np.array_equal(grid_columns(bases, x)[5], eval_basis(bases[5], x).T)


class TestFitting:
    def test_constant_is_exact(self):
        theta, err = fit_coefficients(lambda t: np.full_like(t, 2.5), make_basis(3, 7))
        assert err < 1e-12
        np.testing.assert_allclose(theta, 2.5, atol=1e-10)

    def test_linear_reproduced_for_q_at_least_two(self):
        for q in (2, 3, 4):
            _, err = fit_coefficients(lambda t: 3.0 * t - 0.7, make_basis(q, 9))
            assert err < 1e-10

    def test_polynomial_reproduction_below_order(self):
        for q in (1, 2, 3, 4):
            for deg in range(q):
                _, err = fit_coefficients(lambda t, d=deg: t**d, make_basis(q, 8))
                assert err < 1e-9

    @pytest.mark.parametrize("q", [2, 3])
    def test_sine_error_slope(self, q):
        dims = np.array([8, 16, 32, 64, 128])
        errs = [
            fit_coefficients(lambda t: np.sin(2 * np.pi * t), make_basis(q, J - q + 1)).error
            for J in dims
        ]
        slope = np.polyfit(np.log(dims), np.log(errs), 1)[0]
        assert -q - 0.4 <= slope <= -q + 0.4

    def test_l2_norm_reported(self):
        res_inf = fit_coefficients(np.sin, make_basis(2, 6), norm="linf")
        res_l2 = fit_coefficients(np.sin, make_basis(2, 6), norm="l2")
        assert res_l2.error <= res_inf.error
        with pytest.raises(ValueError):
            fit_coefficients(np.sin, make_basis(2, 6), norm="l1")


class TestSimplexCoefficients:
    def test_uniform_density_exact(self):
        for K in (4, 9):
            theta, err = simplex_coefficients(lambda t: np.ones_like(t), make_basis(1, K))
            np.testing.assert_allclose(theta, 1.0 / K, atol=1e-12)
            assert err < 1e-10

    def test_beta22_on_simplex(self):
        b = make_basis(3, 23)
        theta, err = simplex_coefficients(lambda t: beta_dist.pdf(t, 2, 2), b)
        assert theta.sum() == 1.0
        assert theta.min() >= 0.0
        _, err_free = fit_coefficients(lambda t: beta_dist.pdf(t, 2, 2), b)
        assert err <= max(4.0 * err_free, 1e-12)

    def test_error_decays_like_unconstrained(self):
        # a strictly positive smooth density: constrained error within 4x
        f = lambda t: (1.2 + np.sin(2 * np.pi * t)) / 1.2
        for J in (10, 20, 40):
            b = make_basis(3, J - 2)
            _, err_free = fit_coefficients(f, b)
            _, err_simplex = simplex_coefficients(f, b)
            assert err_simplex <= 4.0 * err_free

    def test_mixture_integrates_to_one(self):
        b = make_basis(3, 10)
        rng = np.random.default_rng(5)
        theta = rng.dirichlet(np.ones(b.dimension))
        pts, wts = simpson_panel_rule(b.breakpoints(), 10_000)
        total = wts @ (eval_normalized(b, pts) @ theta)
        assert abs(total - 1.0) < 1e-8

    def test_infeasible_reported(self):
        # a sharp spike forces negative side lobes at small J
        f = lambda t: 0.02 + np.exp(-((t - 0.5) ** 2) / 2e-4)
        with pytest.raises(SimplexInfeasibleError):
            simplex_coefficients(f, make_basis(3, 6))


class TestTensor:
    def test_anisotropic_error_decay(self):
        # additive decay in the per-axis dimensions for a smooth product
        # target; preasymptotic slopes run steeper than -q, never shallower
        def tensor_sup_error(j1, j2, q=3, grid=100):
            G1 = eval_basis(make_basis(q, j1 - q + 1), np.linspace(0, 1, grid))
            G2 = eval_basis(make_basis(q, j2 - q + 1), np.linspace(0, 1, grid))
            t1 = np.sin(2 * np.pi * np.linspace(0, 1, grid))
            t2 = np.cos(2 * np.pi * np.linspace(0, 1, grid))
            T = t1[:, None] * t2[None, :]
            A = np.linalg.lstsq(G1, T, rcond=None)[0]
            C = np.linalg.lstsq(G2, A.T, rcond=None)[0].T
            return np.abs(G1 @ C @ G2.T - T).max()

        dims = [12, 24, 48]
        errs = [tensor_sup_error(J, J) for J in dims]
        slope = np.polyfit(np.log(dims), np.log(errs), 1)[0]
        assert -4.5 <= slope <= -2.6
        # growing one axis with the other held fine: same per-axis order
        errs = [tensor_sup_error(J, 64) for J in (8, 16, 32)]
        slope = np.polyfit(np.log([8, 16, 32]), np.log(errs), 1)[0]
        assert -4.5 <= slope <= -2.6
