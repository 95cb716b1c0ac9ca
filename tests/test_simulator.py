import dataclasses

import numpy as np
import pytest
from scipy.stats import chi2

from cachegame import (CoverageProfile, GameConfig,
                       LibraryConfig, NetworkGeometry, Placement,
                       PopularityDist, adversary_rate, best_response,
                       coverage_profile, equilibrium_placement, evaluate,
                       legit_rate, quantize_placement, simulate, total_rate,
                       zipf_popularity)
from cachegame import cli
from coverage_oracle import coverage_areas_unit_cell
from request_simulator import simulate_requests

GAMMA_R45 = np.array([0.290706, 0.659095, 0.043004, 0.007196])
GAMMA_R45 = GAMMA_R45 / GAMMA_R45.sum()


def make_config(alpha, num_files=20, cache=4.0, gamma=GAMMA_R45, z=0.7):
    return GameConfig(
        alpha=alpha,
        library=LibraryConfig(num_files=num_files),
        popularity=zipf_popularity(num_files, z),
        coverage=CoverageProfile(gamma=gamma),
        cache_size=cache,
    )


def analytic_total(placement, cfg, target):
    """The rates mixed by alpha, the adversaries all requesting `target`."""
    return total_rate(
        cfg.alpha,
        legit_rate(placement, cfg.popularity, cfg.coverage),
        adversary_rate(placement, cfg.coverage, target),
    ).r_total


def chi_square_pvalue(counts, probs):
    """p-value of observed counts against probs; an empty cell must stay empty."""
    counts = np.asarray(counts, dtype=float)
    support = probs > 0
    assert not counts[~support].any()
    if np.count_nonzero(support) == 1:
        return 1.0
    expected = counts.sum() * probs[support]
    stat = float(((counts[support] - expected) ** 2 / expected).sum())
    return float(chi2.sf(stat, np.count_nonzero(support) - 1))


class TestSimulate:
    def test_full_cache_costs_nothing(self):
        cfg = make_config(0.3, num_files=4, cache=3.9)
        pl = Placement(q=[1.0, 1.0, 1.0, 0.9], cache_size=3.9)
        m = quantize_placement(pl, 10, cfg.popularity)
        report = simulate(m, cfg, 10, 5_000, seed=1)
        assert report.backhaul_fraction_mean < 0.05

    def test_empty_cache_costs_one_file(self):
        cfg = make_config(0.3)
        report = simulate(np.zeros(20, dtype=int), cfg, 100, 5_000, seed=2)
        assert report.backhaul_fraction_mean == 1.0
        assert report.backhaul_fraction_stderr == 0.0

    def test_seed_determinism(self):
        cfg = make_config(0.5)
        pl = Placement(q=np.linspace(0.8, 0.0, 20), cache_size=8.0)
        m = quantize_placement(pl, 100, cfg.popularity)
        a = simulate(m, cfg, 100, 20_000, seed=33)
        b = simulate(m, cfg, 100, 20_000, seed=33)
        assert a.backhaul_fraction_mean == b.backhaul_fraction_mean
        assert np.array_equal(a.per_coverage_counts, b.per_coverage_counts)

    def test_coverage_counts_partition_requests(self):
        cfg = make_config(0.2)
        pl = Placement(q=np.linspace(0.6, 0.0, 20), cache_size=6.0)
        m = quantize_placement(pl, 50, cfg.popularity)
        report = simulate(m, cfg, 50, 10_000, seed=4)
        assert report.per_coverage_counts.sum() == 10_000

    def test_draws_distributions_within_tolerance(self):
        # the model accepts a popularity that sums to 1 within 1e-9; with no
        # user covered 4 times, the excess cannot go to the last cell
        probs = zipf_popularity(20, 0.7).probs * (1 + 9e-10)
        cfg = dataclasses.replace(
            make_config(0.5, gamma=np.array([0.3, 0.6, 0.1, 0.0])),
            popularity=PopularityDist(probs=probs))
        pl = Placement(q=np.linspace(0.4, 0.0, 20), cache_size=4.0)
        m = quantize_placement(pl, 10, cfg.popularity)
        assert simulate(m, cfg, 10, 1_000, seed=3).requests == 1_000

    def test_rejects_zero_requests(self):
        cfg = make_config(0.2)
        # one request has no standard error either
        for num_requests in (0, 1):
            with pytest.raises(ValueError, match="two requests"):
                simulate(np.zeros(20, dtype=int), cfg, 100, num_requests, seed=1)

    @pytest.mark.parametrize("packets", [
        np.full(19, 5), np.full((20, 1), 5), np.full(20, 5.0),
        np.full(20, True), np.r_[np.full(19, 5), -1], np.r_[np.full(19, 5), 101],
    ], ids=["short", "2d", "float", "bool", "negative", "above_n"])
    def test_rejects_bad_packet_counts(self, packets):
        with pytest.raises(ValueError, match="one integer count in \\[0, n\\]"):
            simulate(packets, make_config(0.2), 100, 1_000, seed=1)

    def test_rejects_an_n_whose_deficit_would_wrap(self):
        # at n = 3 * 2**60, n - d*m_j wrapped for d = 4 and cost 7/3 files
        cfg = make_config(0.5)
        largest = (2**63 - 1) // cfg.coverage.max_coverage
        for n in (0, largest + 1, 3 * 2**60):
            with pytest.raises(ValueError, match="n must lie in"):
                simulate(np.zeros(20, dtype=int), cfg, n, 1_000, seed=1)

    def test_largest_n_runs(self):
        cfg = make_config(0.5)
        n = (2**63 - 1) // cfg.coverage.max_coverage
        # half the files hold all n packets, the rest none: a request costs
        # 1 or 0 exactly, so the mean is the share of the empty files
        m = np.where(np.arange(20) % 2 == 0, n, 0)
        report = simulate(m, cfg, n, 100_000, seed=7)
        p = (1 - cfg.alpha) * cfg.popularity.probs
        p[1] += cfg.alpha
        expected = p[1::2].sum()
        assert abs(report.backhaul_fraction_mean - expected) <= (
            4 * report.backhaul_fraction_stderr)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_agrees_with_analytic_rate(self, alpha):
        n = 100
        cfg = make_config(alpha, num_files=50, cache=8.0)
        rng = np.random.default_rng(60)
        q = np.sort(rng.random(50))[::-1] * 0.9
        pl = Placement(q=q, cache_size=q.sum() + 0.01)
        m = quantize_placement(pl, n, cfg.popularity)
        report = simulate(m, cfg, n, 100_000, seed=61)
        expected = evaluate(Placement(q=m / n, cache_size=pl.cache_size), cfg).r_total
        tol = max(4 * report.backhaul_fraction_stderr, 1e-12)
        assert abs(report.backhaul_fraction_mean - expected) <= tol

    def test_adversary_targets_least_cached_deployed_file(self):
        # criterion 8's instance at alpha = 0.5, M = 20: argmin q is file 20
        # (0-based), deployed with m = 6, while the capacity repair leaves
        # files such as 121 at m = 5
        n = 100
        geom = NetworkGeometry(mbs_radius=500.0, sbs_spacing=60.0,
                               sbs_radius=45.0, user_density=0.05)
        areas, _ = coverage_areas_unit_cell(geom, 1_000_000, seed=1)
        gamma = coverage_profile(areas).gamma
        cfg = make_config(0.5, num_files=200, cache=20.0, gamma=gamma)
        res = equilibrium_placement(cfg)
        m = quantize_placement(res.q_star, n, cfg.popularity)
        assert (res.j_star, m[res.j_star], m[121], m.min()) == (20, 6, 5, 5)
        deployed = Placement(q=m / n, cache_size=cfg.cache_size)
        target = int(np.argmin(m))
        report = simulate(m, cfg, n, 100_000, seed=805)
        expected = analytic_total(deployed, cfg, target)
        assert abs(report.backhaul_fraction_mean - expected) <= (
            4 * report.backhaul_fraction_stderr)

    def test_quantization_gap_is_lipschitz_bounded(self):
        rng = np.random.default_rng(71)
        cov = CoverageProfile(gamma=GAMMA_R45)
        for _ in range(50):
            size = int(rng.integers(2, 30))
            n = int(rng.integers(10, 200))
            q = rng.random(size)
            pl = Placement(q=q, cache_size=q.sum() + 0.2)
            cfg = GameConfig(alpha=0.5, library=LibraryConfig(num_files=size),
                             popularity=zipf_popularity(size, 0.7), coverage=cov,
                             cache_size=min(q.sum() + 0.2, size - 0.01))
            m = quantize_placement(pl, n, cfg.popularity)
            quantized = Placement(q=m / n, cache_size=pl.cache_size)
            # the same target on both sides: q's least cached file
            j_star = best_response(pl)
            gap = abs(analytic_total(pl, cfg, j_star)
                      - analytic_total(quantized, cfg, j_star))
            assert gap <= cov.max_coverage / n + 1e-12

    def test_a_trillion_requests(self):
        n, requests = 100, 10**12
        cfg = make_config(0.5, num_files=200, cache=20.0)
        m = quantize_placement(equilibrium_placement(cfg).q_star, n, cfg.popularity)
        report = simulate(m, cfg, n, requests, seed=1012)
        assert report.per_coverage_counts.sum() == requests
        expected = evaluate(Placement(q=m / n, cache_size=20.0), cfg).r_total
        assert abs(report.backhaul_fraction_mean - expected) <= (
            4 * report.backhaul_fraction_stderr)

    def test_request_cap_is_what_the_draw_takes(self):
        cfg = make_config(0.5)
        pl = Placement(q=np.linspace(0.4, 0.0, 20), cache_size=4.0)
        m = quantize_placement(pl, 10, cfg.popularity)
        report = simulate(m, cfg, 10, cli.MAX_REQUESTS, seed=5)
        assert report.per_coverage_counts.sum() == cli.MAX_REQUESTS
        with pytest.raises(OverflowError):
            simulate(m, cfg, 10, cli.MAX_REQUESTS + 1, seed=5)


class TestAgainstRequestOracle:
    """Both simulators draw files from p = (1 - alpha) popularity +
    alpha e_j*, j* = argmin m, and coverage counts from gamma."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_counts_follow_p_times_gamma(self, alpha, monkeypatch):
        n, requests = 50, 200_000
        cfg = make_config(alpha)
        # the least cached file sits in the middle of the library
        q = np.linspace(0.5, 0.1, 20)
        q[7] = 0.02
        m = quantize_placement(Placement(q=q, cache_size=q.sum()), n, cfg.popularity)
        target = np.zeros(20)
        target[np.argmin(m)] = 1.0
        p = (1 - alpha) * cfg.popularity.probs + alpha * target
        gamma = cfg.coverage.gamma

        # both simulators serve the same deployment
        oracle, oracle_files = simulate_requests(m, cfg, n, requests, seed=90)
        drawn = []
        default_rng = np.random.default_rng

        class Recorder:
            """The simulator's generator, keeping the cell counts it draws."""

            def __init__(self, seed):
                self.rng = default_rng(seed)

            def multinomial(self, *args):
                drawn.append(self.rng.multinomial(*args))
                return drawn[-1]
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", Recorder)
            report = simulate(m, cfg, n, requests, seed=91)
        files = drawn[0].reshape(20, gamma.size).sum(axis=1)

        for counts, probs in ((oracle.per_coverage_counts, gamma),
                              (oracle_files, p),
                              (report.per_coverage_counts, gamma),
                              (files, p)):
            assert counts.sum() == requests
            assert chi_square_pvalue(counts, probs) > 1e-6
        expected = evaluate(Placement(q=m / n, cache_size=q.sum()), cfg).r_total
        for run in (oracle, report):
            assert abs(run.backhaul_fraction_mean - expected) <= (
                4 * run.backhaul_fraction_stderr)
