import dataclasses

import numpy as np
import pytest
from scipy.special import logsumexp, ndtri

from oracles import (
    _stick_breaking_rule,
    enumerate_mixture,
    histogram_posterior_mean,
    importance_sampling_mean,
    simplex_quadrature_mean,
    union_breakpoint_rule,
)
from series_prior import _engine
from series_prior.basis import eval_normalized, make_basis
from series_prior.density import (
    DensityDataset,
    EnumerationCapError,
    bases_for_prior,
    credible_band,
    density_builder,
    exact_moment,
    mc_moment,
)
from series_prior.priors import ModelSizePrior


class TestDataset:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DensityDataset(np.array([0.5, 1.2]))

    def test_rescale_flag(self):
        data = DensityDataset.from_array([-2.0, 0.0, 6.0], rescale=True)
        np.testing.assert_allclose(data.observations, [0.0, 0.25, 1.0])

    def test_empty_allowed(self):
        assert DensityDataset(np.array([])).n == 0


class TestLogTerm:
    """The log sum of every expansion term of one dimension: its marginal likelihood."""

    @staticmethod
    def _log_marginal(obs, basis, a=1.0):
        J = basis.dimension
        slots, built = density_builder({J: basis}, np.empty(0), a).for_data(DensityDataset(np.asarray(obs)))
        family, cols = built[J]
        return _engine.exact_mixture(slots, family, J, cols, basis.order - 1)[0]

    def test_empty_data_term_is_one(self):
        assert abs(self._log_marginal([], make_basis(1, 2), (1.0, 1.0))) < 1e-14

    def test_hand_value_single_observation(self):
        # B*_0(0.25) = 2 and E[theta_0] = 1/2 under Dirichlet(1, 1)
        val = self._log_marginal([0.25], make_basis(1, 2), (1.0, 1.0))
        assert abs(np.exp(val) - 1.0) < 1e-14

    def test_sum_over_terms_matches_quadrature_marginal(self):
        # the exponentiated term sum is the marginal likelihood of the data
        rng = np.random.default_rng(1)
        obs = np.sort(rng.random(3))
        q, J = 2, 3
        b = make_basis(q, J - q + 1)
        log_marginal = self._log_marginal(obs, b)
        # independent route: quadrature of the likelihood against the prior
        theta, W = _stick_breaking_rule(J, 12)
        like = np.prod(theta @ eval_normalized(b, obs).T, axis=1)
        dirichlet_density = float(np.prod(np.arange(1, J)))  # (J-1)! for the all-ones prior
        marginal = float(W @ like) * dirichlet_density
        assert abs(np.exp(log_marginal) - marginal) < 1e-4 * marginal


class TestExactMoment:
    def test_prior_mean_histogram_is_flat(self):
        mp = ModelSizePrior.geometric(0.5, 5, 10)
        bases = bases_for_prior(1, mp)
        s = exact_moment(DensityDataset(np.array([])), np.linspace(0.01, 0.99, 17), bases, mp)
        np.testing.assert_allclose(s.mean, 1.0, atol=1e-12)

    def test_single_observation_conjugate_update(self):
        mp = ModelSizePrior.geometric(0.5, 2, 2)
        s = exact_moment(
            DensityDataset(np.array([0.25])), np.array([0.2, 0.7]), {2: make_basis(1, 2)}, mp
        )
        np.testing.assert_allclose(s.mean, [4.0 / 3.0, 2.0 / 3.0], atol=1e-13)

    def test_matches_full_term_enumeration(self):
        rng = np.random.default_rng(42)
        obs = np.sort(rng.random(4))
        data = DensityDataset(obs)
        mp = ModelSizePrior.geometric(0.4, 3, 5)
        bases = bases_for_prior(2, mp)
        grid = np.array([0.15, 0.5, 0.85])

        slots, built = density_builder(bases, grid).for_data(data)
        log_den, log_num = [], []
        for j, part in zip(built, slots.split(len(built))):
            family, eval_cols = built[j]
            den, num, _ = enumerate_mixture(part, family, bases[j].dimension, eval_cols)
            log_den.append(mp.log_pmf(int(j)) + den)
            log_num.append(mp.log_pmf(int(j)) + num)
        expected = np.exp(logsumexp(log_num, axis=0) - logsumexp(log_den))
        s = exact_moment(data, grid, bases, mp)
        np.testing.assert_allclose(s.mean, expected, rtol=1e-12)

    @pytest.mark.parametrize("n,q,J", [(3, 2, 4), (4, 3, 5), (2, 1, 3), (5, 2, 6)])
    def test_oracle_pair_fixed_dimension(self, n, q, J):
        rng = np.random.default_rng(n * 100 + q * 10 + J)
        obs = np.sort(rng.random(n))
        grid = np.linspace(0.05, 0.95, 10)
        mp = ModelSizePrior.geometric(0.5, J, J)
        s = exact_moment(DensityDataset(obs), grid, {J: make_basis(q, J - q + 1)}, mp)
        quad = simplex_quadrature_mean(obs, grid, q, J)
        np.testing.assert_allclose(s.mean, quad, atol=1e-3)
        est, se = importance_sampling_mean(obs, grid, q, J, 200_000, seed=9)
        assert np.all(np.abs(est - s.mean) <= 3.0 * se)

    def test_second_moment_dominates_mean_squared(self):
        rng = np.random.default_rng(8)
        obs = np.sort(rng.random(6))
        mp = ModelSizePrior.geometric(0.5, 4, 7)
        bases = bases_for_prior(2, mp)
        s = exact_moment(DensityDataset(obs), np.linspace(0, 1, 50), bases, mp, m=2)
        assert np.all(s.second_moment >= s.mean**2 - 1e-9)

    def test_exchangeability_bit_identical(self):
        rng = np.random.default_rng(17)
        obs = rng.random(5)
        mp = ModelSizePrior.geometric(0.5, 3, 6)
        bases = bases_for_prior(2, mp)
        grid = np.linspace(0, 1, 21)
        s1 = exact_moment(DensityDataset(obs), grid, bases, mp)
        s2 = exact_moment(DensityDataset(obs[::-1].copy()), grid, bases, mp)
        assert np.array_equal(s1.mean, s2.mean)
        assert np.array_equal(s1.second_moment, s2.second_moment)
        assert np.array_equal(s1.j_weights, s2.j_weights)

    def test_normalization_by_quadrature(self):
        rng = np.random.default_rng(23)
        obs = np.sort(rng.random(12))
        mp = ModelSizePrior.geometric(0.9, 5, 12)
        bases = bases_for_prior(1, mp)
        pts, wts = union_breakpoint_rule(bases)
        s = exact_moment(DensityDataset(obs), pts, bases, mp, m=1)
        assert abs(wts @ s.mean - 1.0) < 1e-6

    def test_histogram_reduction_matches_closed_form(self):
        rng = np.random.default_rng(31)
        obs = rng.random(40)
        mp = ModelSizePrior.geometric(0.7, 5, 15)
        bases = bases_for_prior(1, mp)
        grid = (np.arange(100) + 0.5) / 100
        s = exact_moment(DensityDataset(obs), grid, bases, mp)
        closed = histogram_posterior_mean(obs, grid, 5, 15, 0.7)
        np.testing.assert_allclose(s.mean, closed, rtol=1e-10)

    def test_cap_exceeded_instructs_mc(self):
        # 30 points with 3 active cubic B-splines each: 3^30 assignments, over the 10M cap
        rng = np.random.default_rng(4)
        obs = rng.random(30)
        mp = ModelSizePrior.geometric(0.5, 6, 8)
        bases = bases_for_prior(3, mp)
        with pytest.raises(EnumerationCapError, match="Monte-Carlo"):
            exact_moment(DensityDataset(obs), np.array([0.5]), bases, mp)

    def test_empty_truncation_rejected(self):
        mp = ModelSizePrior.geometric(0.5, 5, 6)
        with pytest.raises(ValueError):
            exact_moment(DensityDataset(np.array([0.5])), np.array([0.5]), {}, mp)

    def test_dimension_below_order_rejected(self):
        with pytest.raises(ValueError):
            bases_for_prior(3, ModelSizePrior.geometric(0.5, 2, 6))


class TestMcMoment:
    def test_within_reported_se_of_exact(self):
        rng = np.random.default_rng(7)
        obs = np.sort(rng.random(10))
        mp = ModelSizePrior.geometric(0.5, 5, 10)
        bases = bases_for_prior(3, mp)
        grid = np.linspace(0.005, 0.995, 100)
        ex = exact_moment(DensityDataset(obs), grid, bases, mp)
        mc = mc_moment(DensityDataset(obs), grid, bases, mp, n_terms=3000, seed=11)
        assert np.all(np.abs(mc.mean - ex.mean) <= 4.0 * mc.mc_se)
        assert np.all(mc.mc_se > 0.0)

    def test_se_shrinks_at_root_n(self):
        rng = np.random.default_rng(7)
        obs = np.sort(rng.random(10))
        mp = ModelSizePrior.geometric(0.5, 5, 10)
        bases = bases_for_prior(3, mp)
        grid = np.linspace(0.005, 0.995, 50)
        se_small = mc_moment(DensityDataset(obs), grid, bases, mp, n_terms=3000, seed=11).mc_se
        se_big = mc_moment(DensityDataset(obs), grid, bases, mp, n_terms=30_000, seed=11).mc_se
        ratio = se_small.mean() / se_big.mean()
        assert 2.4 <= ratio <= 4.2

    def test_order_one_degenerates_to_exact(self):
        rng = np.random.default_rng(5)
        obs = np.sort(rng.random(15))
        mp = ModelSizePrior.geometric(0.5, 5, 10)
        bases = bases_for_prior(1, mp)
        grid = np.linspace(0, 1, 30)
        ex = exact_moment(DensityDataset(obs), grid, bases, mp)
        mc = mc_moment(DensityDataset(obs), grid, bases, mp, n_terms=50, seed=3)
        np.testing.assert_allclose(mc.mean, ex.mean, rtol=1e-12)
        assert np.all(mc.mc_se == 0.0)

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(2)
        obs = np.sort(rng.random(8))
        mp = ModelSizePrior.geometric(0.5, 5, 8)
        bases = bases_for_prior(2, mp)
        grid = np.linspace(0, 1, 11)
        a = mc_moment(DensityDataset(obs), grid, bases, mp, n_terms=500, seed=42)
        b = mc_moment(DensityDataset(obs), grid, bases, mp, n_terms=500, seed=42)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.mc_se, b.mc_se)

    def test_needs_two_draws(self):
        mp = ModelSizePrior.geometric(0.5, 5, 6)
        bases = bases_for_prior(2, mp)
        with pytest.raises(ValueError):
            mc_moment(DensityDataset(np.array([0.5])), np.array([0.5]), bases, mp, n_terms=1)

    def test_moment_ordering_held_under_sampling_noise(self):
        rng = np.random.default_rng(77)
        obs = np.sort(rng.beta(2.0, 2.0, 60))
        mp = ModelSizePrior.geometric(0.9, 5, 25)
        bases = bases_for_prior(3, mp)
        grid = np.linspace(0.005, 0.995, 100)
        s = mc_moment(DensityDataset(obs), grid, bases, mp, n_terms=1000, seed=1)
        assert np.all(s.second_moment >= s.mean**2 - 1e-9)


class TestCredibleBand:
    def test_zero_spread_collapses(self):
        mp = ModelSizePrior.geometric(0.5, 2, 2)
        s = exact_moment(
            DensityDataset(np.array([])), np.array([0.3]), {2: make_basis(1, 2)}, mp, m=2
        )
        banded = credible_band(s)
        assert banded.band_low is not None

    def test_hand_band(self):
        mp = ModelSizePrior.geometric(0.5, 2, 2)
        s = exact_moment(
            DensityDataset(np.array([0.25])), np.array([0.2]), {2: make_basis(1, 2)}, mp, m=2
        )
        sd = np.sqrt(s.second_moment - s.mean**2)
        banded = credible_band(s, 0.95)
        np.testing.assert_allclose(banded.band_high, s.mean + 1.959963984540054 * sd, rtol=1e-12)
        assert banded.band_low[0] >= 0.0

    def test_band_quantile_matches_scipy_ndtri(self):
        # The band's z(level) comes from statistics.NormalDist; scipy's ndtri is the cross-check.
        mp = ModelSizePrior.geometric(0.5, 2, 2)
        s = exact_moment(
            DensityDataset(np.array([0.25])), np.array([0.2]), {2: make_basis(1, 2)}, mp, m=2
        )
        s = dataclasses.replace(s, mean=np.zeros(1), second_moment=np.ones(1))  # band_high is z itself
        levels = np.concatenate([np.linspace(0.001, 0.999, 999), [0.9, 0.95, 0.99, 0.999, 1.0 - 1e-9]])
        z = np.array([credible_band(s, level).band_high[0] for level in levels])
        want = ndtri(0.5 + levels / 2.0)
        assert np.all(np.abs(z - want) <= 1e-14 * want)

    def test_level_validated(self):
        mp = ModelSizePrior.geometric(0.5, 2, 2)
        s = exact_moment(
            DensityDataset(np.array([])), np.array([0.3]), {2: make_basis(1, 2)}, mp, m=2
        )
        with pytest.raises(ValueError):
            credible_band(s, 1.5)

    def test_requires_second_moment(self):
        mp = ModelSizePrior.geometric(0.5, 2, 2)
        s = exact_moment(
            DensityDataset(np.array([])), np.array([0.3]), {2: make_basis(1, 2)}, mp, m=1
        )
        with pytest.raises(ValueError):
            credible_band(s)


class TestJPosterior:
    def test_no_data_returns_prior(self):
        mp = ModelSizePrior.geometric(0.6, 5, 12)
        bases = bases_for_prior(1, mp)
        s = exact_moment(DensityDataset(np.array([])), np.empty(0), bases, mp, m=1)
        j_values, weights = s.j_values, s.j_weights
        np.testing.assert_allclose(weights, np.exp(mp.log_pmf(j_values)), atol=1e-12)
        assert abs(weights.sum() - 1.0) < 1e-12

    def test_bimodal_data_moves_mass_up(self):
        rng = np.random.default_rng(19)
        obs = np.concatenate([0.05 + 0.08 * rng.random(10), 0.85 + 0.08 * rng.random(10)])
        mp = ModelSizePrior.geometric(0.5, 5, 15)
        bases = bases_for_prior(1, mp)
        s = exact_moment(DensityDataset(obs), np.empty(0), bases, mp, m=1)
        j_values, weights = s.j_values, s.j_weights
        prior_mean_j = np.exp(mp.log_pmf(j_values)) @ j_values
        posterior_mean_j = weights @ j_values
        assert posterior_mean_j > prior_mean_j
