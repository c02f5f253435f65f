import numpy as np
import pytest

from oracles import (
    binary_quadrature_mean,
    gaussian_marginal_quadrature,
    poisson_quadrature_mean,
)
from series_prior import _engine
from series_prior import basis as basis_mod
from series_prior.basis import eval_basis, local_values, make_basis
from series_prior.density import DensityDataset, _band_z, bases_for_prior, credible_band, density_builder, exact_moment
from series_prior.harness import fit_density
from series_prior.priors import ModelSizePrior
from series_prior.rates import SieveConstants
from series_prior.regression import (
    FunctionalDataset,
    RegressionDataset,
    binary_builder,
    binary_moment,
    design_matrices,
    design_matrix,
    gaussian_fit,
    gaussian_function_moments,
    gaussian_predict,
    poisson_builder,
    poisson_moment,
)


NAN = float("nan")
INF = float("inf")
Z95 = _band_z(0.95)


def _sd(s):
    return np.sqrt(np.maximum(s.second_moment - s.mean**2, 0.0))


@pytest.mark.parametrize(
    "make",
    [
        lambda: DensityDataset([0.2, NAN]),
        lambda: DensityDataset.from_array([0.2, NAN, 3.0], rescale=True),
        lambda: RegressionDataset([0.2, NAN], [0.0, 1.0]),
        lambda: RegressionDataset([0.2, 0.4], [0.0, INF]),
        lambda: RegressionDataset([0.2, 0.4], [NAN, 1.0], kind="binary"),
        lambda: FunctionalDataset([0.0, 1.0], [[1.0, NAN]], [1.0]),
        lambda: FunctionalDataset([0.0, 1.0], [[1.0, 2.0]], [NAN]),
        lambda: FunctionalDataset([0.0, NAN, 1.0], [[1.0, 2.0, 3.0]], [1.0]),
        lambda: eval_basis(make_basis(2, 3), [NAN]),
        lambda: gaussian_fit({1: np.ones((3, 1))}, [0.1, NAN, 0.9], ModelSizePrior.geometric(0.5, 1, 1)),
        lambda: gaussian_fit({1: np.ones((3, 1))}, [0.1, INF, 0.9], ModelSizePrior.geometric(0.5, 1, 1)),
        lambda: gaussian_fit({1: [[1.0], [-INF], [1.0]]}, [0.1, 0.5, 0.9], ModelSizePrior.geometric(0.5, 1, 1)),
        lambda: gaussian_fit({1: [[1.0], [NAN], [1.0]]}, [0.1, 0.5, 0.9], ModelSizePrior.geometric(0.5, 1, 1)),
    ],
    ids=[
        "density", "density-rescaled", "regression-covariate", "regression-response",
        "binary-response", "functional-curve", "functional-response", "functional-grid", "eval-basis",
        "gaussian-fit-nan-response", "gaussian-fit-inf-response", "gaussian-fit-inf-design",
        "gaussian-fit-nan-design",
    ],
)
def test_non_finite_input_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


_DESIGN = {1: np.ones((3, 1))}
_MP1 = ModelSizePrior.geometric(0.5, 1, 1)
_BASES3 = {3: make_basis(1, 3)}


@pytest.mark.parametrize("value", [NAN, INF, -INF])
@pytest.mark.parametrize(
    "make, name",
    [
        (lambda v: density_builder(_BASES3, [0.5], v), "hyperparameter a"),
        (lambda v: density_builder(_BASES3, [0.5], [1.0, v, 2.0]), "hyperparameter a"),
        (lambda v: binary_builder(_BASES3, [0.5], (1.0, v)), "hyperparameter b"),
        (lambda v: poisson_builder(_BASES3, [0.5], (v, 1.0)), "hyperparameter a"),
        (lambda v: ModelSizePrior.poisson(v, 1, 5), "lambda"),
        (lambda v: ModelSizePrior.negative_binomial(v, 0.5, 1, 5), "r="),
        (lambda v: gaussian_fit(_DESIGN, [0.1, 0.5, 0.9], _MP1, g=v), "g "),
        (lambda v: gaussian_fit(_DESIGN, [0.1, 0.5, 0.9], _MP1, a=v), "a "),
        (lambda v: gaussian_fit(_DESIGN, [0.1, 0.5, 0.9], _MP1, b=v), "b "),
        (lambda v: SieveConstants(c1=v), "c1"),
        (lambda v: SieveConstants(b=v), "constant b"),
    ],
)
def test_non_finite_hyperparameter_refused(make, name, value):
    with pytest.raises(ValueError, match=f"{name}.*finite|finite.*{name}"):
        make(value)


class TestDatasets:
    def test_binary_values_validated(self):
        with pytest.raises(ValueError):
            RegressionDataset([0.1, 0.2], [0.0, 2.0], kind="binary")

    def test_poisson_values_validated(self):
        with pytest.raises(ValueError):
            RegressionDataset([0.1], [1.5], kind="poisson")
        with pytest.raises(ValueError):
            RegressionDataset([0.1], [-1.0], kind="poisson")

    def test_covariate_domain(self):
        with pytest.raises(ValueError):
            RegressionDataset([1.5], [0.0])

    def test_functional_grid_validated(self):
        with pytest.raises(ValueError):
            FunctionalDataset([0.5], [[1.0]], [1.0])
        with pytest.raises(ValueError):
            FunctionalDataset([0.5, 0.2], [[1.0, 1.0]], [1.0])


class TestDesignMatrix:
    def test_scalar_indicators(self):
        data = RegressionDataset([0.05, 0.55], [0.0, 0.0])
        W = design_matrix(data, make_basis(1, 4))
        np.testing.assert_array_equal(W, [[1, 0, 0, 0], [0, 0, 1, 0]])

    def test_constant_curve_gives_integrals(self):
        g = np.linspace(0, 1, 101)
        data = FunctionalDataset(g, np.ones((1, g.size)), [0.0])
        b = make_basis(2, 5)
        W = design_matrix(data, b)
        np.testing.assert_allclose(W[0], b.integrals, atol=1e-5)

    def test_linear_curve_half_bins(self):
        g = np.linspace(0, 1, 2001)
        data = FunctionalDataset(g, g[None, :], [0.0])
        W = design_matrix(data, make_basis(1, 2))
        np.testing.assert_allclose(W[0], [0.125, 0.375], atol=1e-6)

    def test_doubling_converges_quadratically(self):
        b = make_basis(3, 5)

        def w_at(points):
            g = np.linspace(0, 1, points)
            return design_matrix(
                FunctionalDataset(g, (np.sin(2 * np.pi * g) + 1.2)[None, :], [0.0]), b
            )

        ref = w_at(40_001)
        ratio = np.abs(w_at(101) - ref).max() / np.abs(w_at(201) - ref).max()
        assert 3.0 <= ratio <= 5.0

    @pytest.mark.parametrize(
        "grid",
        [
            np.linspace(0.0, 1.0, 21),  # every knot of make_basis(3, 5) on a grid point
            np.linspace(0.0, 1.0, 17),  # every inner knot between grid points
            np.sort(np.random.default_rng(4).uniform(0.05, 0.95, 30)),  # uneven, inside (0, 1)
        ],
    )
    def test_row_interpolation_is_np_interp(self, grid):
        # design_matrix applies one (grid x J) operator to the curves. The
        # reference interpolates each row with np.interp at the refined points
        # (the grid, its last point too, the inner knots and the floats just
        # below them) and applies the trapezoid weights of those points.
        b = make_basis(3, 5)
        inner = b.breakpoints()
        inner = inner[(inner > grid[0]) & (inner < grid[-1])]
        x = np.unique(np.concatenate([grid, inner, np.nextafter(inner, -np.inf)]))
        dw = np.zeros_like(x)
        dw[:-1] += np.diff(x) / 2.0
        dw[1:] += np.diff(x) / 2.0
        curves = 3.0 + np.cumsum(np.random.default_rng(5).normal(size=(7, grid.size)), axis=1)
        want = (np.vstack([np.interp(x, grid, row) for row in curves]) * dw) @ eval_basis(b, x)
        got = design_matrix(FunctionalDataset(grid, curves, np.zeros(7)), b)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_operators_made_once_per_bases_and_grid(self, monkeypatch):
        # A training set and its test set on one grid share every basis's
        # operator, for more dimensions than the memo has entries; another
        # grid gets its own. design_matrix keys one basis and gives the same
        # bits. The operators are read-only.
        evaluated = []

        def counted(basis, points):
            evaluated.append(basis.dimension)
            return eval_basis(basis, points)

        bases = bases_for_prior(2, ModelSizePrior.geometric(0.5, 2, 40))  # made before counting
        monkeypatch.setattr(basis_mod, "eval_basis", counted)
        basis_mod._curve_operators.cache_clear()
        rng = np.random.default_rng(6)
        grid = np.linspace(0.0, 1.0, 12)
        train, test = (FunctionalDataset(grid, rng.random((n, grid.size)), np.zeros(n)) for n in (5, 3))
        designs = [design_matrices(data, bases) for data in (train, test, train)]
        assert evaluated == list(range(2, 41))
        for j, basis in bases.items():
            assert design_matrix(train, basis).tobytes() == designs[0][j].tobytes()
            assert design_matrix(test, basis).tobytes() == designs[1][j].tobytes()
        assert designs[2][7] is not designs[0][7] and designs[2][7].tobytes() == designs[0][7].tobytes()
        del evaluated[:]
        design_matrices(FunctionalDataset(grid[1:], train.curves[:, 1:], np.zeros(5)), {4: bases[4]})
        assert evaluated == [4]
        ops = basis_mod.curve_operators(bases, grid)
        assert not ops[4].flags.writeable
        with pytest.raises(TypeError):
            ops[4] = np.zeros((grid.size, 4))
        with pytest.raises(ValueError, match="strictly increasing"):
            basis_mod.curve_operators(bases, grid[::-1])


class TestGaussian:
    @staticmethod
    def toy(n=20, seed=3, q=2, j_min=4, j_max=7):
        rng = np.random.default_rng(seed)
        z = rng.random(n)
        x = np.sin(2 * np.pi * z) + 0.2 * rng.standard_normal(n)
        mp = ModelSizePrior.geometric(0.5, j_min, j_max)
        designs = {
            j: design_matrix(RegressionDataset(z, x), make_basis(q, j - q + 1))
            for j in mp.support
        }
        return designs, x, mp

    def test_shrinkage_identity(self):
        designs, x, mp = self.toy()
        post = gaussian_fit(designs, x, mp, g=50.0)
        for j in post.j_values:
            ols = np.linalg.lstsq(designs[int(j)], x, rcond=None)[0]
            np.testing.assert_allclose(post.coef_mean[int(j)], (50.0 / 51.0) * ols, rtol=1e-10)

    def test_large_g_noiseless_interpolates(self):
        rng = np.random.default_rng(1)
        z = np.sort(rng.random(30))
        b = make_basis(2, 5)
        theta_true = rng.standard_normal(b.dimension)
        W = eval_basis(b, z)
        x = W @ theta_true
        mp = ModelSizePrior.geometric(0.5, b.dimension, b.dimension)
        post = gaussian_fit({b.dimension: W}, x, mp, g=1e12)
        np.testing.assert_allclose(post.coef_mean[b.dimension], theta_true, atol=1e-6)

    def test_marginal_likelihood_against_quadrature(self):
        rng = np.random.default_rng(12)
        w = rng.random(5) + 0.5
        x = 0.8 * w + 0.5 * rng.standard_normal(5)
        mp = ModelSizePrior.geometric(0.5, 1, 1)
        post = gaussian_fit({1: w[:, None]}, x, mp, g=5.0, a=1.0, b=1.0)
        lm_quad = gaussian_marginal_quadrature(w, x, g=5.0, a=1.0, b=1.0)
        assert abs(post.log_marginals[0] - lm_quad) < 1e-4

    def test_marginal_invariant_under_permutation(self):
        designs, x, mp = self.toy()
        post = gaussian_fit(designs, x, mp)
        perm = np.random.default_rng(0).permutation(x.size)
        post_p = gaussian_fit({j: W[perm] for j, W in designs.items()}, x[perm], mp)
        np.testing.assert_allclose(post.log_marginals, post_p.log_marginals, rtol=1e-10)
        assert abs(post.j_weights.sum() - 1.0) < 1e-12

    def test_rank_deficient_excluded_with_warning(self):
        x = np.array([1.0, 2.0, 3.0])
        designs = {2: np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), 1: np.ones((3, 1))}
        mp = ModelSizePrior.geometric(0.5, 1, 2)
        with pytest.warns(UserWarning, match="rank deficient"):
            post = gaussian_fit(designs, x, mp)
        assert post.j_values.tolist() == [1]
        assert post.infeasible == (2,)

    def test_collinear_curves_variance_from_one_svd(self):
        # Smooth, strongly collinear curves, as spectra are: the designs at
        # J=10..15 have condition numbers 4e8 to 7e12, so (W'W)^-1 keeps no
        # digit; formed from it, the mixed variance of beta(t) is negative at
        # 34 of the 100 grid points.
        rng = np.random.default_rng(3)
        t = np.linspace(0.0, 1.0, 100)
        k = np.arange(30)
        curves = 3.0 + (rng.standard_normal((172, 30)) * 0.15**k) @ np.cos(np.pi * np.outer(k, t))
        integrand = curves * (1.0 + np.sin(2.0 * np.pi * t))
        x = (integrand[:, 1:] + integrand[:, :-1]) @ np.diff(t) / 2.0
        x += 0.05 * rng.standard_normal(172)
        mp = ModelSizePrior.geometric(0.9, 10, 15)
        bases = bases_for_prior(3, mp)
        data = FunctionalDataset(t, curves, x)
        designs = {j: design_matrix(data, b) for j, b in bases.items()}
        grid = (np.arange(100) + 0.5) / 100
        rows = {j: eval_basis(b, grid) for j, b in bases.items()}
        post = gaussian_fit(designs, x, mp)
        assert post.j_values.tolist() == list(mp.support)
        mean, var = gaussian_function_moments(post, rows)
        # Reference from a fresh SVD W = U diag(s) V' per dimension: the
        # within-J variance s2 g/(1+g) ||row V diag(1/s)||^2 and the spread
        # of the per-J means, both sums of squares.
        shrink = post.g / (1.0 + post.g)
        within, mus = 0.0, []
        for j, wt in zip(post.j_values.tolist(), post.j_weights):
            U, s, Vt = np.linalg.svd(designs[j], full_matrices=False)
            s2 = post.sigma2_scale[j] / (post.sigma2_shape - 1.0)
            within = within + wt * s2 * shrink * np.sum((rows[j] @ (Vt.T / s)) ** 2, axis=1)
            mus.append(rows[j] @ (shrink * (Vt.T @ (U.T @ x / s))))
        mus = np.asarray(mus)
        ref_mean = post.j_weights @ mus
        ref = within + post.j_weights @ (mus - ref_mean) ** 2
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-10)
        assert np.all(var >= 0.0)
        np.testing.assert_allclose(var, ref, rtol=1e-10)

    def test_predict_single_model_reduces(self):
        designs, x, mp = self.toy(j_min=5, j_max=5)
        post = gaussian_fit(designs, x, mp, g=25.0)
        mean, var = gaussian_predict(post, designs)
        np.testing.assert_allclose(mean, designs[5] @ post.coef_mean[5], rtol=1e-12)
        assert np.all(var > 0.0)
        # theta' row has variance E[sigma^2] row' Sigma row; a new response adds E[sigma^2]
        f_mean, f_var = gaussian_function_moments(post, designs)
        np.testing.assert_array_equal(f_mean, mean)
        s2 = post.sigma2_scale[5] / (post.sigma2_shape - 1.0)
        qform = np.einsum("ij,jk,ik->i", designs[5], post.coef_cov_base[5], designs[5])
        atol = 1e-12 * np.max(mean**2)
        np.testing.assert_allclose(f_var, s2 * qform, rtol=1e-9, atol=atol)
        np.testing.assert_allclose(var, s2 * (1.0 + qform), rtol=1e-9, atol=atol)

    def test_predict_null_truth_scale(self):
        rng = np.random.default_rng(44)
        n = 200
        z = rng.random(n)
        sigma = 0.7
        x = sigma * rng.standard_normal(n)
        mp = ModelSizePrior.geometric(0.5, 4, 8)
        designs = {
            j: design_matrix(RegressionDataset(z, x), make_basis(2, j - 1)) for j in mp.support
        }
        post = gaussian_fit(designs, x, mp)
        mean, _ = gaussian_predict(post, designs)
        assert np.mean(mean**2) <= 3.0 * sigma**2 * mp.j_max / n


@pytest.mark.parametrize("kind", ["binary", "poisson"])
def test_builder_makes_grid_columns_and_slots_once(kind, monkeypatch):
    # The grid columns are one stacked de Boor pass over the grid per
    # (bases, grid) in the process: a second builder on the same bases and
    # grid, as a repeat fit makes, reads them. Each builder evaluates its data
    # in one stacked pass, which makes every dimension's slots.
    rng = np.random.default_rng(4)
    z, z_grid = rng.random(9), np.linspace(0.0, 1.0, 6)
    x = (rng.random(9) < 0.5).astype(float) if kind == "binary" else rng.integers(0, 3, 9).astype(float)
    bases = bases_for_prior(2, ModelSizePrior.geometric(0.5, 4, 6))
    grid_passes, passes = [], []

    def counted_grid(pass_bases, points, normalized=False):
        grid_passes.append(([b.dimension for b in pass_bases], np.array_equal(points, z_grid), normalized))
        return local_values(pass_bases, points, normalized)

    def counted_pass(pass_bases, points, normalized=False):
        passes.append([b.dimension for b in pass_bases])
        return local_values(pass_bases, points, normalized)

    monkeypatch.setattr(basis_mod, "local_values", counted_grid)
    monkeypatch.setattr(_engine, "local_values", counted_pass)
    basis_mod._grid_columns.cache_clear()
    builder = binary_builder if kind == "binary" else poisson_builder
    for _ in range(2):
        slots, built = builder(bases, z_grid, (1.0, 1.0)).for_data(RegressionDataset(z, x, kind))
        assert list(built) == list(bases) and len(slots) == len(bases) * (9 if kind == "binary" else x.sum())
    assert grid_passes == [([4, 5, 6], True, False)]
    assert passes == [[4, 5, 6]] * 2


@pytest.mark.parametrize("fit, kind", [(binary_moment, "poisson"), (poisson_moment, "binary")])
def test_wrong_dataset_kind_refused(fit, kind):
    mp = ModelSizePrior.geometric(0.5, 2, 3)
    data = RegressionDataset([0.2, 0.7], [1.0, 0.0], kind)
    with pytest.raises(ValueError, match="needs a (binary|poisson) dataset"):
        fit(data, bases_for_prior(1, mp), (1.0, 1.0), mp, [0.5])
    with pytest.raises(ValueError, match="needs a (binary|poisson) dataset"):
        fit(DensityDataset([0.2, 0.7]), bases_for_prior(1, mp), (1.0, 1.0), mp, [0.5])


@pytest.mark.parametrize("kind", ["gaussian", "binary", "poisson"])
def test_density_fit_refuses_a_regression_dataset(kind):
    mp = ModelSizePrior.geometric(0.5, 2, 3)
    data = RegressionDataset([0.2, 0.7], [1.0, 0.0], kind)
    with pytest.raises(ValueError, match="needs a DensityDataset, got RegressionDataset"):
        fit_density(data, 1, mp, grid=[0.5])
    with pytest.raises(ValueError, match="needs a DensityDataset"):
        exact_moment(data, [0.5], bases_for_prior(1, mp), mp)


class TestBinary:
    def test_prior_mean_linear_in_basis(self):
        mp = ModelSizePrior.geometric(0.5, 3, 5)
        bases = bases_for_prior(1, mp)
        data = RegressionDataset([], [], kind="binary")
        s = binary_moment(data, bases, (2.0, 6.0), mp, np.array([0.1, 0.9]))
        np.testing.assert_allclose(s.mean, 0.25, atol=1e-12)

    def test_single_success_conjugate_update(self):
        mp = ModelSizePrior.geometric(0.5, 2, 2)
        data = RegressionDataset([0.25], [1.0], kind="binary")
        s = binary_moment(data, {2: make_basis(1, 2)}, (1.0, 1.0), mp, np.array([0.2, 0.7]))
        np.testing.assert_allclose(s.mean, [2.0 / 3.0, 0.5], atol=1e-13)

    def test_exact_matches_tensor_quadrature(self):
        rng = np.random.default_rng(6)
        z = np.sort(rng.random(4))
        x = np.array([1.0, 0.0, 1.0, 1.0])
        q, J = 2, 4
        zgrid = np.linspace(0.05, 0.95, 7)
        mp = ModelSizePrior.geometric(0.5, J, J)
        s = binary_moment(
            RegressionDataset(z, x, kind="binary"), {J: make_basis(q, J - q + 1)},
            (1.0, 1.0), mp, zgrid,
        )
        quad = binary_quadrature_mean(z, x, q, J, 1.0, 1.0, zgrid)
        np.testing.assert_allclose(s.mean, quad, rtol=1e-4)

    def test_mean_stays_in_unit_interval(self):
        rng = np.random.default_rng(15)
        z = rng.random(12)
        x = (rng.random(12) < 0.7).astype(float)
        mp = ModelSizePrior.geometric(0.5, 4, 7)
        bases = bases_for_prior(2, mp)
        s = binary_moment(
            RegressionDataset(z, x, kind="binary"), bases, (1.0, 1.0), mp,
            np.linspace(0, 1, 41),
        )
        assert np.all(s.mean >= 0.0) and np.all(s.mean <= 1.0)

    def test_mc_agrees_with_exact(self):
        rng = np.random.default_rng(9)
        z = rng.random(8)
        x = (rng.random(8) < 0.5).astype(float)
        mp = ModelSizePrior.geometric(0.5, 4, 6)
        bases = bases_for_prior(2, mp)
        grid = np.linspace(0.05, 0.95, 20)
        data = RegressionDataset(z, x, kind="binary")
        ex = binary_moment(data, bases, (1.0, 1.0), mp, grid, mode="exact")
        mc = binary_moment(data, bases, (1.0, 1.0), mp, grid, mode="mc", n_terms=4000, seed=2)
        assert np.all(np.abs(mc.mean - ex.mean) <= 4.0 * np.maximum(mc.mc_se, 1e-12))

    @pytest.mark.parametrize("q, mode, n_terms", [(2, "exact", 3000), (3, "mc", 300)])
    def test_band_stays_in_unit_interval(self, q, mode, n_terms):
        # mean + 1.96 sd passes 1 at the high end of z; the band itself must not.
        rng = np.random.default_rng(0)
        z = rng.random(10)
        x = (rng.random(10) < 0.2 + 0.6 * z).astype(float)
        mp = ModelSizePrior.geometric(0.9, 5, 15)
        s = binary_moment(
            RegressionDataset(z, x, kind="binary"), bases_for_prior(q, mp), (1.0, 1.0), mp,
            (np.arange(100) + 0.5) / 100, mode=mode, n_terms=n_terms,
        )
        banded = credible_band(s)
        assert s.upper == 1.0 and np.any(s.mean + Z95 * _sd(s) > 1.0)
        assert np.all(banded.band_low >= 0.0) and np.all(banded.band_high <= 1.0)
        np.testing.assert_array_equal(banded.band_high, np.minimum(s.mean + Z95 * _sd(s), 1.0))

    def test_kind_checked(self):
        mp = ModelSizePrior.geometric(0.5, 2, 2)
        with pytest.raises(ValueError):
            binary_moment(
                RegressionDataset([0.5], [1.0], kind="poisson"),
                {2: make_basis(1, 2)}, (1.0, 1.0), mp, np.array([0.5]),
            )


class TestPoisson:
    def test_prior_mean(self):
        mp = ModelSizePrior.geometric(0.5, 3, 5)
        bases = bases_for_prior(1, mp)
        data = RegressionDataset([], [], kind="poisson")
        s = poisson_moment(data, bases, (2.0, 4.0), mp, np.array([0.3, 0.8]))
        np.testing.assert_allclose(s.mean, 0.5, atol=1e-12)

    def test_count_three_conjugate_update(self):
        mp = ModelSizePrior.geometric(0.5, 2, 2)
        data = RegressionDataset([0.25], [3.0], kind="poisson")
        s = poisson_moment(data, {2: make_basis(1, 2)}, (1.0, 1.0), mp, np.array([0.2, 0.7]))
        np.testing.assert_allclose(s.mean, [2.0, 1.0], atol=1e-13)

    def test_exact_matches_laguerre_quadrature(self):
        rng = np.random.default_rng(21)
        z = np.sort(rng.random(3))
        x = np.array([1.0, 0.0, 2.0])
        q, J = 2, 4
        zgrid = np.linspace(0.05, 0.95, 7)
        mp = ModelSizePrior.geometric(0.5, J, J)
        s = poisson_moment(
            RegressionDataset(z, x, kind="poisson"), {J: make_basis(q, J - q + 1)},
            (1.0, 1.0), mp, zgrid,
        )
        quad = poisson_quadrature_mean(z, x, q, J, 1.0, 1.0, zgrid)
        np.testing.assert_allclose(s.mean, quad, rtol=1e-4)

    def test_mean_nonnegative(self):
        rng = np.random.default_rng(33)
        z = rng.random(10)
        x = rng.poisson(2.0, 10).astype(float)
        mp = ModelSizePrior.geometric(0.5, 4, 6)
        bases = bases_for_prior(2, mp)
        s = poisson_moment(
            RegressionDataset(z, x, kind="poisson"), bases, (1.0, 1.0), mp,
            np.linspace(0, 1, 31), mode="mc", n_terms=2000, seed=5,
        )
        assert np.all(s.mean >= 0.0)

    def test_second_moment_with_counts(self):
        mp = ModelSizePrior.geometric(0.5, 3, 4)
        bases = bases_for_prior(2, mp)
        data = RegressionDataset([0.4, 0.6], [2.0, 1.0], kind="poisson")
        s = poisson_moment(data, bases, (1.0, 1.0), mp, np.linspace(0, 1, 11), m=2)
        assert np.all(s.second_moment >= s.mean**2 - 1e-9)

    def test_band_is_not_capped(self):
        mp = ModelSizePrior.geometric(0.5, 3, 4)
        data = RegressionDataset([0.4, 0.6], [9.0, 7.0], kind="poisson")
        s = poisson_moment(data, bases_for_prior(2, mp), (1.0, 1.0), mp, np.linspace(0, 1, 11))
        assert s.upper == INF
        np.testing.assert_array_equal(credible_band(s).band_high, s.mean + Z95 * _sd(s))
