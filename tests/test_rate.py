import dataclasses
import math
import tracemalloc

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
        # legit_rate is the curve's values dotted with p, bit for bit; the
        # S x N expression sums the S terms of h instead of interpolating,
        # so it differs by rounding (on about one draw in six here), and
        # the gap is bounded as between the curve's knots: the weights sum
        # to 1
        for seed in (n, *range(100, 140)):
            rng = np.random.default_rng(seed)
            for s in (1, 4):
                q, weights = rng.random(n), rng.dirichlet(np.ones(n))
                gamma = rng.dirichlet(np.ones(s))
                cov = CoverageProfile(gamma=gamma)
                got = legit_rate(Placement(q=q, cache_size=n),
                                 PopularityDist(probs=weights), cov)
                assert got == float(cov.deficit(q) @ weights), (seed, s)
                d = np.arange(1, s + 1, dtype=float)
                out_of_place = gamma @ np.maximum(1.0 - np.outer(d, q), 0.0) @ weights
                assert abs(got - out_of_place) <= TestDeficitCurve.BETWEEN_KNOTS, (
                    seed, s)

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


    def test_one_hot_deficit_rate_exact(self):
        # the instances of the test above: both rates read the one curve
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
            assert (adversary_rate(placement, coverage, target)
                    == legit_rate(placement, PopularityDist(probs=one_hot), coverage)
                    ), (n, s, target)

    @pytest.mark.parametrize("target", [1.5, 1.0, True, np.True_, "1"])
    def test_non_integral_target(self, target):
        pl, _, cov = make_inputs([0.5, 0.2, 0.1])
        with pytest.raises(ValueError, match="integer"):
            adversary_rate(pl, cov, target)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_target(self, kind):
        pl, _, cov = make_inputs([0.5, 0.2, 0.1])
        assert adversary_rate(pl, cov, kind(1)) == adversary_rate(pl, cov, 1)


def direct_deficit(gamma, x):
    """h(x) = sum_d gamma_d max(1 - d x, 0), the S products summed by fsum."""
    return math.fsum([g * (1.0 - d * x) for d, g in enumerate(gamma.tolist(), start=1)
                      if d * x < 1.0])


def random_gamma(rng):
    gamma = rng.dirichlet(np.ones(int(rng.integers(1, 5))))
    if gamma.size > 1 and rng.random() < 0.5:
        gamma[rng.integers(gamma.size)] = 0.0
        gamma /= gamma.sum()
    return gamma


class TestDeficitCurve:
    # between knots h is interpolated, not summed: two ulps of 1 apart at most
    BETWEEN_KNOTS = 2.0**-51

    def test_knots_are_the_fsum_formula(self):
        rng = np.random.default_rng(2301)
        for _ in range(500):
            gamma = random_gamma(rng)
            cov = CoverageProfile(gamma=gamma)
            knots = [0.0, *(1.0 / k for k in range(gamma.size, 0, -1))]
            for x in knots:
                assert cov.deficit(x) == direct_deficit(cov.gamma, x), (gamma, x)
            assert cov.deficit(np.array(knots)).tolist() == [
                direct_deficit(cov.gamma, x) for x in knots]

    def test_between_knots_within_rounding(self):
        rng = np.random.default_rng(2302)
        for _ in range(500):
            cov = CoverageProfile(gamma=random_gamma(rng))
            q = np.concatenate(([0.0, 1.0], 1.0 / np.arange(1, 6), rng.random(40),
                                rng.random(10) / cov.max_coverage))
            got = cov.deficit(q)
            for x, h in zip(q.tolist(), got.tolist()):
                assert abs(h - direct_deficit(cov.gamma, x)) <= self.BETWEEN_KNOTS, (
                    cov.gamma, x)
                assert cov.deficit(x) == h

    def test_one_point_has_the_bits_of_np_interp(self):
        # S = 1..5, at every knot, one ulp either side of each, at 0 and 1
        # and at 2 000 random points
        rng = np.random.default_rng(2304)
        for k in range(300):
            gamma = rng.dirichlet(np.ones(k % 5 + 1))
            if gamma.size > 1 and k % 3 == 0:
                gamma[0] = 0.0
                gamma /= gamma.sum()
            cov = CoverageProfile(gamma=gamma)
            knots, values, _ = map(np.array, cov._curve)
            points = np.concatenate((knots, np.nextafter(knots, -np.inf),
                                     np.nextafter(knots, np.inf), [0.0, 1.0],
                                     rng.random(2000)))
            want = np.interp(points, knots, values).tolist()
            got = [cov.deficit_at(x) for x in points.tolist()]
            assert got == want, gamma
            assert all(type(h) is float for h in got)

    def test_one_point_at_the_ends(self):
        cov = CoverageProfile(gamma=[0.5, 0.3, 0.2])
        # np.interp holds the first and the last value past either end
        for x in (-1.0, -0.0, 0.0, 1.0, 1.5, math.inf, -math.inf):
            assert cov.deficit_at(x) == float(cov.deficit(x)), x
        assert math.isnan(cov.deficit_at(math.nan))

    def test_curve_is_read_only_and_not_a_field(self):
        cov = CoverageProfile(gamma=[0.5, 0.3, 0.2])
        assert [f.name for f in dataclasses.fields(CoverageProfile)] == ["gamma"]
        assert repr(cov) == f"CoverageProfile(gamma={cov.gamma!r})"
        # tuples of floats all the way down: nothing in the curve can change
        assert type(cov._curve) is tuple and len(cov._curve) == 3
        for part in cov._curve:
            assert type(part) is tuple and all(type(v) is float for v in part)
            with pytest.raises(TypeError):
                part[0] = 0.5

    def test_replace_rebuilds_the_curve(self):
        cov = CoverageProfile(gamma=[0.5, 0.5])
        assert cov.deficit(0.25) == direct_deficit(cov.gamma, 0.25)
        point = dataclasses.replace(cov, gamma=[1.0])
        assert point._curve[0] == (0.0, 1.0)
        assert point.deficit(0.25) == 0.75
        assert cov.deficit(0.25) == direct_deficit(cov.gamma, 0.25)

    def test_legit_rate_allocates_no_s_by_n_matrix(self):
        n, s = 100_000, 4
        rng = np.random.default_rng(2303)
        pl = Placement(q=rng.random(n), cache_size=n)
        p = PopularityDist(probs=rng.dirichlet(np.ones(n)))
        cov = CoverageProfile(gamma=rng.dirichlet(np.ones(s)))
        tracemalloc.start()
        try:
            legit_rate(pl, p, cov)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the S x N float64 deficit matrix alone would take 8 S N bytes
        assert peak < 8 * s * n


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
        with pytest.raises(ValueError):
            total_rate(0.5, 0.3, 1.5)


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
