import numpy as np
import pytest

from cachegame import (CoverageProfile, Placement, PopularityDist,
                       adversary_rate, best_response, legit_rate, total_rate,
                       zipf_popularity)


def make_inputs(q, cache=None, gamma=(0.25, 0.25, 0.25, 0.25), probs=None):
    q = np.asarray(q, dtype=float)
    placement = Placement(q=q, cache_size=cache if cache is not None else q.sum() + 1)
    coverage = CoverageProfile(gamma=gamma)
    if probs is None:
        probs = np.full(q.size, 1.0 / q.size)
    return placement, PopularityDist(probs=probs), coverage


class TestLegitRate:
    def test_full_cache_is_free(self):
        pl, p, cov = make_inputs([1.0, 1.0, 1.0])
        assert legit_rate(pl, p, cov) == 0.0

    def test_empty_cache_costs_one_file(self):
        pl, p, cov = make_inputs([0.0, 0.0, 0.0])
        assert legit_rate(pl, p, cov) == pytest.approx(1.0)

    def test_uniform_tenth_placement(self):
        # 0.25 * (0.9 + 0.8 + 0.7 + 0.6) regardless of the popularity
        pl, p, cov = make_inputs([0.1] * 5, probs=zipf_popularity(5, 1.3).probs)
        assert legit_rate(pl, p, cov) == pytest.approx(0.75)

    @pytest.mark.parametrize("n", [1, 200, 20_000])
    def test_same_bits_as_the_out_of_place_expression(self, n):
        rng = np.random.default_rng(n)
        for s in (1, 4):
            q, weights = rng.random(n), rng.dirichlet(np.ones(n))
            gamma = rng.dirichlet(np.ones(s))
            d = np.arange(1, s + 1, dtype=float)
            expected = float(gamma @ np.maximum(1.0 - np.outer(d, q), 0.0) @ weights)
            assert legit_rate(Placement(q=q, cache_size=n), PopularityDist(probs=weights),
                              CoverageProfile(gamma=gamma)) == expected

    def test_dimension_mismatch(self):
        pl, _, cov = make_inputs([0.5, 0.5])
        with pytest.raises(ValueError):
            legit_rate(pl, PopularityDist(probs=[0.5, 0.3, 0.2]), cov)


class TestAdversaryRate:
    def test_popularity_strategy_recovers_legit_rate(self):
        # a mixed strategy that requests by the popularity, as a mixture of targets
        pl, p, cov = make_inputs([0.3, 0.1, 0.6], probs=[0.5, 0.2, 0.3])
        mixed = sum(w * adversary_rate(pl, cov, j) for j, w in enumerate(p.probs))
        assert mixed == pytest.approx(legit_rate(pl, p, cov))

    def test_constant_placement_ignores_strategy(self):
        pl, _, cov = make_inputs([0.2, 0.2, 0.2])
        d = np.arange(1, 5)
        expected = float(cov.gamma @ np.maximum(1 - d * 0.2, 0.0))
        for target in range(3):
            assert adversary_rate(pl, cov, target) == pytest.approx(expected)
        strat = PopularityDist(probs=[0.1, 0.6, 0.3])
        assert legit_rate(pl, strat, cov) == pytest.approx(expected)

    def test_single_coverage_point_mass(self):
        pl, _, cov = make_inputs([0.5, 0.2], gamma=[1.0])
        assert adversary_rate(pl, cov, 1) == pytest.approx(0.8)

    @pytest.mark.parametrize("target", [-1, 3])
    def test_point_mass_target_out_of_range(self, target):
        # a negative target must not wrap round to the last file
        pl, _, cov = make_inputs([0.5, 0.2, 0.1])
        with pytest.raises(ValueError, match="out of range"):
            adversary_rate(pl, cov, target)

    def test_one_hot_deficit_rate_within_two_ulps(self):
        rng = np.random.default_rng(1313)
        for _ in range(2000):
            n, s = int(rng.integers(1, 40)), int(rng.integers(1, 5))
            q = rng.random(n) * rng.choice([0.3, 1.0])
            gamma = rng.dirichlet(np.ones(s))
            target = int(rng.integers(n))
            one_hot = np.zeros(n)
            one_hot[target] = 1.0
            placement = Placement(q=q, cache_size=n)
            coverage = CoverageProfile(gamma=gamma)
            expected = legit_rate(placement, PopularityDist(probs=one_hot), coverage)
            got = adversary_rate(placement, coverage, target)
            assert abs(got - expected) <= 2 * np.spacing(expected), (n, s, target)


class TestTotalRate:
    @pytest.mark.parametrize("alpha,expected", [(0.0, 0.3), (1.0, 0.9), (0.5, 0.6)])
    def test_mixes_linearly(self, alpha, expected):
        breakdown = total_rate(alpha, 0.3, 0.9)
        assert breakdown.r_total == pytest.approx(expected)
        assert breakdown.r_total == pytest.approx(
            alpha * breakdown.r_adv + (1 - alpha) * breakdown.r_legit, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            total_rate(1.5, 0.3, 0.9)
        with pytest.raises(ValueError):
            total_rate(0.5, -0.1, 0.9)


def random_instance(rng, size=None):
    size = size or int(rng.integers(1, 12))
    s = int(rng.integers(1, 5))
    gamma = rng.dirichlet(np.ones(s))
    probs = rng.dirichlet(np.ones(size))
    q = rng.random(size)
    pl = Placement(q=q, cache_size=q.sum() + 0.1)
    return pl, PopularityDist(probs=probs), CoverageProfile(gamma=gamma)


class TestProperties:
    def test_monotone_in_placement(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            pl, p, cov = random_instance(rng)
            bigger = Placement(q=np.minimum(pl.q + rng.random(pl.num_files) * 0.2, 1.0),
                               cache_size=pl.num_files)
            assert legit_rate(bigger, p, cov) <= legit_rate(pl, p, cov) + 1e-12
            assert (adversary_rate(bigger, cov, best_response(bigger))
                    <= adversary_rate(pl, cov, best_response(pl)) + 1e-12)

    def test_best_response_dominates_legit(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            pl, p, cov = random_instance(rng)
            j_star = best_response(pl)
            assert isinstance(j_star, int)
            assert adversary_rate(pl, cov, j_star) >= legit_rate(pl, p, cov) - 1e-12

    def test_objective_convex_in_placement(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            pl, p, cov = random_instance(rng)
            q2 = rng.random(pl.num_files)
            pl2 = Placement(q=q2, cache_size=pl.num_files)
            alpha = rng.random()
            lam = rng.random()
            mid = Placement(q=lam * pl.q + (1 - lam) * q2, cache_size=pl.num_files)

            def obj(placement):
                return total_rate(alpha, legit_rate(placement, p, cov),
                                  adversary_rate(placement, cov,
                                                 best_response(placement))).r_total

            assert obj(mid) <= lam * obj(pl) + (1 - lam) * obj(pl2) + 1e-12

    def test_rates_bounded(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            pl, p, cov = random_instance(rng)
            assert 0.0 <= legit_rate(pl, p, cov) <= 1.0
            assert 0.0 <= adversary_rate(pl, cov, best_response(pl)) <= 1.0
