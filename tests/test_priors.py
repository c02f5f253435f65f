import numpy as np
import pytest

from series_prior._engine import DirichletFamily
from series_prior.basis import make_basis
from series_prior.density import DensityDataset, density_builder, exact_moment
from series_prior.priors import ModelSizePrior
from series_prior.regression import RegressionDataset, binary_builder, poisson_builder


class TestModelSizePrior:
    def test_geometric_head(self):
        prior = ModelSizePrior.geometric(0.5, 1, 10**6)
        assert abs(prior.log_pmf(1) - np.log(0.5)) < 1e-12

    @pytest.mark.parametrize(
        "prior",
        [
            ModelSizePrior.geometric(0.3, 5, 25),
            ModelSizePrior.geometric(0.9, 5, 25),
            ModelSizePrior.poisson(8.0, 2, 40),
            ModelSizePrior.negative_binomial(2.0, 0.4, 3, 60),
        ],
    )
    def test_truncated_normalization(self, prior):
        total = np.exp(prior.log_pmf(prior.support)).sum()
        assert abs(total - 1.0) < 1e-12

    def test_outside_truncation_is_impossible(self):
        prior = ModelSizePrior.geometric(0.5, 5, 25)
        assert prior.log_pmf(4) == -np.inf
        assert prior.log_pmf(26) == -np.inf
        assert prior.log_pmf(5) > -np.inf

    def test_memoryless_ratio_survives_truncation(self):
        prior = ModelSizePrior.geometric(0.3, 5, 25)
        pmf = np.exp(prior.log_pmf(prior.support))
        ratios = pmf[1:] / pmf[:-1]
        np.testing.assert_allclose(ratios, 0.7, atol=1e-12)

    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_tail_sandwich_scan(self, p):
        # exp(-c1 j) <= pmf(j) <= exp(-c2 j) for the untruncated geometric
        j = np.arange(1, 1001)
        log_pmf = np.log(p) + (j - 1) * np.log1p(-p)
        c1 = -np.log(p * (1.0 - p))
        c2 = -np.log1p(-p) / 2.0
        assert np.all(-c1 * j <= log_pmf)
        assert np.all(log_pmf <= -c2 * j)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ModelSizePrior.geometric(1.5, 5, 25)
        with pytest.raises(ValueError):
            ModelSizePrior.geometric(0.5, 0, 25)
        with pytest.raises(ValueError):
            ModelSizePrior.geometric(0.5, 10, 5)
        with pytest.raises(ValueError):
            ModelSizePrior.poisson(-1.0, 1, 5)


class TestCoefficientHyperparameters:
    def test_vector_hyperparameters(self):
        data = RegressionDataset([0.2, 0.7], [1.0, 0.0], kind="binary")
        bases = {3: make_basis(1, 3), 4: make_basis(1, 4)}
        build = binary_builder(data, bases, (np.array([1.0, 2.0, 3.0]), 1.0), [0.5])
        family = build(3)[1]
        np.testing.assert_array_equal(family.a, [1, 2, 3])
        np.testing.assert_array_equal(family.b, [1, 1, 1])
        with pytest.raises(ValueError, match="a must be scalar or length-4"):
            build(4)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError, match="hyperparameter a must be positive"):
            density_builder({2: make_basis(1, 2)}, [0.5], 0.0)
        data = RegressionDataset([0.5], [1.0], kind="poisson")
        with pytest.raises(ValueError, match="hyperparameter b must be positive"):
            poisson_builder(data, {2: make_basis(1, 2)}, (1.0, -2.0), [0.5])


class TestDirichletNormalizer:
    def test_known_values(self):
        assert abs(DirichletFamily([1.0, 1.0]).log_norm) < 1e-14
        assert abs(DirichletFamily([1.0, 1.0, 1.0]).log_norm - np.log(2.0)) < 1e-14
        assert abs(DirichletFamily([0.5, 0.5]).log_norm + np.log(np.pi)) < 1e-14

    def test_invalid(self):
        # the density entry points reject the parameters before any family is built
        data, bases = DensityDataset(np.array([0.5])), {2: make_basis(1, 2)}
        mp = ModelSizePrior.geometric(0.5, 2, 2)
        for a in ([1.0, 0.0], [], [1.0, 1.0, 1.0]):
            with pytest.raises(ValueError):
                exact_moment(data, np.array([0.5]), bases, mp, a=a)
