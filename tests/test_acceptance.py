"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Shared heavy artifacts (coverage profiles, the 101-point alpha
sweep) are computed once per session.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from cachegame import (CoverageProfile, GameConfig,
                       LibraryConfig, NetworkGeometry, Placement,
                       PopularityDist, adversary_rate, best_response,
                       coverage_profile, deployment_counts, detect_thresholds,
                       equilibrium_placement, evaluate, legit_rate,
                       no_adversary_placement, quantize_placement, simulate,
                       sweep_equilibria, worst_case_rate, zipf_popularity)

from coverage_oracle import coverage_areas_unit_cell
from test_game import brute_force_value, make_config
from test_geometry import independent_coverage_mc


@contextlib.contextmanager
def criterion(name):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"\nFAIL {name} ({time.monotonic() - start:.1f}s)")
        raise
    print(f"\nPASS {name} ({time.monotonic() - start:.1f}s)")


def geometry_at(radius):
    return NetworkGeometry(mbs_radius=500.0, sbs_spacing=60.0,
                           sbs_radius=radius, user_density=0.05)


@pytest.fixture(scope="session")
def gamma_r45():
    areas, _ = coverage_areas_unit_cell(geometry_at(45.0), 1_000_000, seed=1)
    return coverage_profile(areas)


@pytest.fixture(scope="session")
def reference_config(gamma_r45):
    return GameConfig(alpha=0.0, library=LibraryConfig(num_files=200),
                      popularity=zipf_popularity(200, 0.7),
                      coverage=gamma_r45, cache_size=20.0)


@pytest.fixture(scope="session")
def sweep101(reference_config):
    alphas = np.round(np.arange(0, 1.0001, 0.01), 9)
    start = time.monotonic()
    results = sweep_equilibria(reference_config, alphas)
    return alphas, results, time.monotonic() - start


def reference_rate(placement, cfg, alpha):
    return evaluate(placement, cfg.with_alpha(alpha)).r_total


def test_criterion_1_uniform_extreme():
    with criterion("criterion 1: uniform placement at alpha=1 (exact)"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        for _ in range(20):
            n = int(rng.integers(5, 300))
            cache = float(rng.uniform(1.0, n - 1.0))
            gamma = rng.dirichlet(np.ones(4))
            cfg = make_config(1.0, rng.dirichlet(np.ones(n)), gamma, cache)
            res = equilibrium_placement(cfg)
            assert res.solver_status == "optimal"
            assert np.max(np.abs(res.q_star.q - cache / n)) <= 1e-7
            assert abs(res.rates.r_total - worst_case_rate(cfg)) <= 1e-7
        assert time.monotonic() - start < 5.0


def test_criterion_2_brute_force_equivalence():
    with criterion("criterion 2: brute-force oracle equivalence (50 instances)"):
        start = time.monotonic()
        rng = np.random.default_rng(2026)
        for k in range(50):
            n = int(rng.integers(2, 5))
            s = int(rng.integers(1, 3))
            probs = rng.dirichlet(np.ones(n))
            gamma = rng.dirichlet(np.ones(s))
            cache = float(rng.integers(1, min(3, n)))  # whole files, M < N
            alpha = [0.0, 0.3, 0.7, 1.0][k % 4]
            cfg = make_config(alpha, probs, gamma, cache)
            lp = equilibrium_placement(cfg).rates.r_total
            brute = brute_force_value(probs, gamma, cache, alpha)
            assert lp <= brute + 1e-9
            assert abs(lp - brute) <= 0.02
        assert time.monotonic() - start < 30.0


def greedy_marginal_segment(probs, gamma, cache):
    """Partially filled segment of the alpha = 0 fractional-knapsack greedy.

    File j's deficit is convex piecewise linear in q_j with breakpoints
    1/S, ..., 1/2, 1; on the segment [1/(k+1), 1/k] it falls at the rate
    p_j * sum_{d<=k} d*gamma_d.  Filling segments in order of that rate up
    to the capacity is optimal.  Returns (file, lo, hi) of the segment the
    capacity ends inside, or None when it ends on a segment boundary.
    """
    s = gamma.size
    k = np.arange(s, 0, -1)                      # segments in increasing q
    hi = 1.0 / k
    lo = np.append(0.0, hi[:-1])
    weight = np.cumsum(np.arange(1, s + 1) * gamma)[k - 1]
    order = np.argsort(-np.outer(probs, weight).ravel(), kind="stable")
    filled = np.cumsum(np.tile(hi - lo, probs.size)[order])
    i = int(np.searchsorted(filled, cache))
    if i == filled.size or math.isclose(filled[i], cache, abs_tol=1e-9):
        return None
    j, seg = divmod(int(order[i]), s)
    return j, float(lo[seg]), float(hi[seg])


def test_criterion_3_regular_structure(reference_config):
    with criterion("criterion 3: regular placement structure at alpha=0"):
        start = time.monotonic()
        cfg = reference_config
        q = no_adversary_placement(cfg).q
        assert q[0] >= 0.98
        assert q[-1] <= 0.02
        # every file sits on a level except at most the one marginal file
        # that absorbs the capacity left after the last whole segment
        levels = np.append(1.0 / np.arange(1, cfg.coverage.max_coverage + 1), 0.0)
        dist = np.abs(q[:, None] - levels[None, :]).min(axis=1)
        off = np.flatnonzero(dist > 1e-6)
        marginal = greedy_marginal_segment(cfg.popularity.probs,
                                           cfg.coverage.gamma, cfg.cache_size)
        assert off.size <= 1, (
            f"{off.size} entries off-level at files {off.tolist()}, "
            f"q={q[off].round(6).tolist()}; greedy marginal segment {marginal}"
        )
        if off.size:
            assert marginal is not None and off[0] == marginal[0], (
                f"file {off[0]} off-level at q={q[off[0]]:.6f}, "
                f"greedy marginal segment {marginal}"
            )
            assert marginal[1] < q[off[0]] < marginal[2]
        assert abs(q.sum() - cfg.cache_size) <= 1e-6
        assert np.all(np.diff(q) <= 1e-9)
        assert time.monotonic() - start < 10.0


def test_criterion_4_thresholds(reference_config, sweep101):
    with criterion("criterion 4: branching/gathering thresholds"):
        alphas, results, elapsed = sweep101
        detection = detect_thresholds(reference_config, alphas, results=list(results))
        assert detection.alpha_thr_1 is not None
        assert detection.alpha_thr_2 is not None
        assert 0.24 <= detection.alpha_thr_1 <= 0.40
        assert 0.85 <= detection.alpha_thr_2 <= 0.99
        q_ref = no_adversary_placement(reference_config).q
        q_uni = Placement.uniform(200, 20.0).q
        for alpha, res in zip(alphas, results):
            if alpha < detection.alpha_thr_1:
                assert np.max(np.abs(res.q_star.q - q_ref)) <= 1e-3
            if alpha > detection.alpha_thr_2:
                assert np.max(np.abs(res.q_star.q - q_uni)) <= 1e-3
        assert elapsed < 180.0
        print(f"\n  alpha_thr_1 = {detection.alpha_thr_1:.2f}, "
              f"alpha_thr_2 = {detection.alpha_thr_2:.2f}")


def test_criterion_5_rate_vs_radius_slope():
    with criterion("criterion 5: equilibrium rate slope vs SBS radius"):
        start = time.monotonic()
        radii = [45.0, 50.0, 55.0, 60.0]
        rates = []
        for radius in radii:
            areas, _ = coverage_areas_unit_cell(geometry_at(radius), 1_000_000, seed=5)
            cfg = GameConfig(alpha=0.0, library=LibraryConfig(num_files=200),
                             popularity=zipf_popularity(200, 0.7),
                             coverage=coverage_profile(areas), cache_size=20.0)
            rates.append(equilibrium_placement(cfg).rates.r_total)
        slope = np.polyfit(radii, rates, 1)[0]
        assert time.monotonic() - start < 60.0
        print(f"\n  slope = {slope:.4f} per meter")
        # The bound cannot be reached in this model.  The least-squares
        # slope is sum_i w_i * rate_i with weights (-0.06, -0.02, 0.02, 0.06)
        # on r = 45..60.  Coverage grows with r, so rate(50) <= rate(45);
        # no user is covered more than 4 times, so no rate falls below
        # 1 - P(top 4M files), the cost of covering every user 4 times.
        # Hence slope >= -0.08 * (rate(45) - that floor) = -0.0193 per
        # meter for any placement and any coverage.  Deterministic
        # coverage geometry gives -0.00919, so Monte Carlo noise is not
        # the cause; the bound or the rate normalization differs from the
        # paper's system model, which the repository does not hold.
        top = np.sort(zipf_popularity(200, 0.7).probs)[::-1][:int(4 * 20.0)]
        reachable = -0.08 * (rates[0] - (1.0 - top.sum()))
        assert -0.06 <= slope <= -0.02, (
            f"r_total at r={radii}: {np.round(rates, 4).tolist()}; "
            f"slope {slope:.5f} per meter; the model's reachable floor "
            f"is {reachable:.4f} per meter, outside [-0.06, -0.02]"
        )


def test_criterion_6_monotone_concave(sweep101):
    with criterion("criterion 6: equilibrium rate monotone and concave in alpha"):
        _, results, _ = sweep101
        values = np.array([res.rates.r_total for res in results])
        assert np.all(np.diff(values) >= -1e-9)
        mid = values[1:-1]
        assert np.all(mid >= (values[:-2] + values[2:]) / 2 - 1e-6)


def test_criterion_7_sandwich(reference_config, sweep101):
    with criterion("criterion 7: equilibrium below both reference placements"):
        alphas, results, _ = sweep101
        cfg = reference_config
        q_ref = no_adversary_placement(cfg)
        q_uni = Placement.uniform(200, 20.0)
        for alpha, res in zip(alphas, results):
            assert res.rates.r_total <= reference_rate(q_ref, cfg, alpha) + 1e-9
            assert res.rates.r_total <= reference_rate(q_uni, cfg, alpha) + 1e-9


def test_criterion_8_simulation_agreement(gamma_r45):
    with criterion("criterion 8: simulator matches analytic rates"):
        start = time.monotonic()
        n = 100
        cases = [(a, m) for a in (0.0, 0.5, 1.0) for m in (10.0, 20.0, 40.0)]
        cases.append((0.25, 20.0))
        for i, (alpha, cache) in enumerate(cases):
            cfg = GameConfig(alpha=alpha, library=LibraryConfig(num_files=200),
                             popularity=zipf_popularity(200, 0.7),
                             coverage=gamma_r45, cache_size=cache)
            res = equilibrium_placement(cfg)
            report = simulate(res.q_star, cfg, n, 100_000, seed=800 + i)
            m = quantize_placement(res.q_star, n, cfg.popularity)
            # the adversaries target the least cached deployed file
            analytic_q = res.rates.r_total
            analytic_mn = evaluate(Placement(q=m / n, cache_size=cache), cfg).r_total
            tol = max(4 * report.backhaul_fraction_stderr, 1e-12)
            assert abs(report.backhaul_fraction_mean - analytic_mn) <= tol
            assert abs(analytic_q - analytic_mn) <= gamma_r45.max_coverage / n
        assert time.monotonic() - start < 60.0


def test_criterion_9_geometry_sanity():
    with criterion("criterion 9: coverage profile and deployment counts"):
        radii = [45.0, 52.5, 60.0]
        profiles = []
        for radius in radii:
            samples = 10_000_000
            areas, hits = coverage_areas_unit_cell(geometry_at(radius), samples, seed=9)
            # exact bucket partition: every sample lands in one count bucket
            assert hits.sum() == samples
            assert areas.sum() == pytest.approx(60.0**2, rel=1e-12)
            gamma = coverage_profile(areas).gamma
            oracle = independent_coverage_mc(60.0, radius, 10_000_000, seed=909)
            assert np.max(np.abs(gamma - oracle)) <= 1e-3
            profiles.append(gamma)
        stderr = 0.5 / math.sqrt(10_000_000)
        for smaller, larger in zip(profiles, profiles[1:]):
            assert larger[3] >= smaller[3] - 3 * stderr
            assert larger[0] <= smaller[0] + 3 * stderr
        num_sbs, num_users = deployment_counts(geometry_at(45.0))
        assert abs(num_users - 39270) <= 1
        assert 200 <= num_sbs <= 360
        print(f"\n  deployed SBS count = {num_sbs} (grid points within "
              "D + r of the center)")


def test_criterion_10_dominance():
    with criterion("criterion 10: best-response rate dominates legitimate rate"):
        rng = np.random.default_rng(1010)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            s = int(rng.integers(1, 5))
            q = rng.random(n)
            pl = Placement(q=q, cache_size=q.sum() + 0.01)
            pop = PopularityDist(probs=rng.dirichlet(np.ones(n)))
            cov = CoverageProfile(gamma=rng.dirichlet(np.ones(s)))
            j_star = best_response(pl)
            assert adversary_rate(pl, cov, j_star) >= legit_rate(pl, pop, cov) - 1e-12
