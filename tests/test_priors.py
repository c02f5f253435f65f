import numpy as np
import pytest

from series_prior._engine import DirichletFamily
from series_prior.basis import make_basis
from series_prior.density import DensityDataset, exact_moment
from series_prior.priors import CoefficientPrior, ModelSizePrior, sample_coefficients


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

    def test_tail_exponents(self):
        assert ModelSizePrior.geometric(0.5, 1, 5).tail_exponents == (0, 0)
        assert ModelSizePrior.poisson(3.0, 1, 5).tail_exponents == (1, 1)
        assert ModelSizePrior.negative_binomial(2.0, 0.5, 1, 5).tail_exponents == (0, 0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ModelSizePrior.geometric(1.5, 5, 25)
        with pytest.raises(ValueError):
            ModelSizePrior.geometric(0.5, 0, 25)
        with pytest.raises(ValueError):
            ModelSizePrior.geometric(0.5, 10, 5)
        with pytest.raises(ValueError):
            ModelSizePrior.poisson(-1.0, 1, 5)


class TestCoefficientPrior:
    def test_dirichlet_uniform_moments(self):
        draws = np.stack(
            [sample_coefficients(CoefficientPrior.dirichlet(1.0), 3, seed) for seed in range(2000)]
        )
        assert np.abs(draws.sum(axis=1) - 1.0).max() < 1e-12
        assert draws.min() >= 0.0
        big = np.random.default_rng(0).dirichlet(np.ones(3), size=100_000)
        se = big.std(axis=0, ddof=1) / np.sqrt(big.shape[0])
        assert np.all(np.abs(big.mean(axis=0) - 1.0 / 3.0) < 3.0 * se)

    def test_beta_uniform_marginal(self):
        rng_draws = np.stack(
            [sample_coefficients(CoefficientPrior.beta(1.0, 1.0), 4, s) for s in range(500)]
        )
        assert rng_draws.min() > 0.0 and rng_draws.max() < 1.0
        assert abs(rng_draws.mean() - 0.5) < 3.0 * rng_draws.std(ddof=1) / np.sqrt(rng_draws.size)

    def test_gamma_rate_parametrization(self):
        draws = np.concatenate(
            [sample_coefficients(CoefficientPrior.gamma(2.0, 4.0), 50, s) for s in range(200)]
        )
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) < 3.0 * se

    def test_seed_reproducibility(self):
        a = sample_coefficients(CoefficientPrior.dirichlet(2.0), 6, 123)
        b = sample_coefficients(CoefficientPrior.dirichlet(2.0), 6, 123)
        np.testing.assert_array_equal(a, b)

    def test_vector_hyperparameters(self):
        prior = CoefficientPrior.beta(np.array([1.0, 2.0, 3.0]), 1.0)
        a, b = prior.params_for(3)
        np.testing.assert_array_equal(a, [1, 2, 3])
        with pytest.raises(ValueError):
            prior.params_for(4)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            CoefficientPrior.dirichlet(0.0)
        with pytest.raises(ValueError):
            CoefficientPrior.gamma(1.0, -2.0)


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
