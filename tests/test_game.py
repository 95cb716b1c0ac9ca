import ast
import dataclasses
import itertools
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from greedy_oracle import greedy_placement
from lp_oracle import lp_equilibrium
import cachegame
from cachegame import game, geometry, rate, simulator
from cachegame import (CoverageProfile, GameConfig, LibraryConfig, Placement,
                       PopularityDist, adversary_rate, best_response,
                       detect_thresholds, equilibrium_placement, evaluate,
                       legit_rate, no_adversary_placement, sweep_equilibria,
                       total_rate, worst_case_rate, zipf_popularity)
from cachegame.game import DISTANCE_TOL

# coverage profile of the 60 m grid with r = 45 m, frozen from a 1e7-sample
# Monte Carlo run; small perturbations do not change any assertion below
GAMMA_R45 = np.array([0.290706, 0.659095, 0.043004, 0.007196])
GAMMA_R45 = GAMMA_R45 / GAMMA_R45.sum()


def make_config(alpha, probs, gamma, cache):
    probs = np.asarray(probs, dtype=float)
    return GameConfig(
        alpha=alpha,
        library=LibraryConfig(num_files=probs.size),
        popularity=PopularityDist(probs=probs),
        coverage=CoverageProfile(gamma=gamma),
        cache_size=cache,
    )


def reference_config(alpha=0.0):
    return make_config(alpha, zipf_popularity(200, 0.7).probs, GAMMA_R45, 20.0)


def tie_heavy_configs():
    """144 tie-heavy instances: uniform and repeated popularities, zero
    entries in gamma, M an integer or N/k, alpha at 0 and 1."""
    cases = []
    for probs, gamma, alpha in itertools.product(
            [zipf_popularity(6, 0.0).probs, np.array([3, 3, 2, 2, 2, 1]) / 13,
             np.array([2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1]) / 15],
            [[0.0, 0.5, 0.5], [0.3, 0.0, 0.7], [0.0, 0.0, 1.0]],
            [0.0, 0.25, 0.5, 1.0]):
        for cache in (1.0, 2.0, probs.size / 3, probs.size / 2):
            cases.append(make_config(alpha, probs, gamma, cache))
    return cases


def tiny_alpha_config():
    """x_a rounds to p_min: every file is heavy on the bottom level, whose
    heavy length does not reach M, so the floor lies on the next level."""
    return make_config(1e-20, [0.9, 0.1], [0.1, 0.9], 1.5)


def brute_force_value(probs, gamma, cache, alpha, step=0.02):
    """Exhaustive grid search over the feasible placements.

    Independent of the solver: enumerates every q on the grid via
    broadcasting and evaluates the deficit objective directly.
    """
    probs = np.asarray(probs, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    n, s = probs.size, gamma.size
    grid = np.round(np.arange(0.0, 1.0 + step / 2, step), 9)
    d = np.arange(1, s + 1, dtype=float)
    per_value = gamma @ np.maximum(1.0 - np.outer(d, grid), 0.0)

    legit = np.zeros((1,) * n)
    qsum = np.zeros((1,) * n)
    qmin = None
    for j in range(n):
        shape = [1] * n
        shape[j] = grid.size
        axis = grid.reshape(shape)
        legit = legit + probs[j] * per_value.reshape(shape)
        qsum = qsum + axis
        qmin = axis if qmin is None else np.minimum(qmin, axis)
    adv = np.tensordot(gamma, np.maximum(1.0 - np.multiply.outer(d, qmin), 0.0),
                       axes=(0, 0))
    objective = (1.0 - alpha) * legit + alpha * adv
    return float(objective[qsum <= cache + 1e-9].min())


class TestBestResponse:
    def test_unique_argmin(self):
        pl = Placement(q=[0.5, 0.2, 0.9], cache_size=2.0)
        j = best_response(pl)
        assert j == 1 and type(j) is int

    def test_tie_breaks_to_lowest_index(self):
        pl = Placement(q=[0.3, 0.3], cache_size=1.0)
        assert best_response(pl) == 0

    def test_rate_invariant_under_tie_choice(self):
        pl = Placement(q=[0.25, 0.25, 0.25, 0.25], cache_size=1.0)
        cov = CoverageProfile(gamma=[0.5, 0.5])
        rates = [adversary_rate(pl, cov, j) for j in range(4)]
        assert max(rates) - min(rates) < 1e-15


class TestEquilibriumPlacement:
    def test_all_adversaries_play_uniform(self):
        cfg = make_config(1.0, zipf_popularity(10, 1.0).probs,
                          [0.25, 0.25, 0.25, 0.25], 2.0)
        res = equilibrium_placement(cfg)
        assert res.solver_status == "optimal"
        np.testing.assert_allclose(res.q_star.q, 0.2, atol=1e-8)
        assert res.rates.r_total == pytest.approx(worst_case_rate(cfg), abs=1e-8)

    def test_no_adversaries_two_files(self):
        cfg = make_config(0.0, [0.9, 0.1], [1.0], 1.0)
        res = equilibrium_placement(cfg)
        np.testing.assert_allclose(res.q_star.q, [1.0, 0.0], atol=1e-8)
        assert res.rates.r_total == pytest.approx(0.1, abs=1e-8)

    def test_even_split_two_files(self):
        cfg = make_config(0.5, [0.9, 0.1], [1.0], 1.0)
        res = equilibrium_placement(cfg)
        np.testing.assert_allclose(res.q_star.q, [0.5, 0.5], atol=1e-7)
        assert res.rates.r_total == pytest.approx(0.5, abs=1e-7)

    @pytest.mark.parametrize("cfg, q, j_star, r_total", [
        # V is flat on [0, 1/4]: the uniform 0.25 gives R_total 0.55 too
        (make_config(0.25, np.array([2, 2, 1, 1]) / 6, [0.2, 0.8], 1.0),
         [0.5, 0.5, 0.0, 0.0], 2, 0.55),
        # gamma_1 = 0, so h is flat above 1/2: the uniform 0.75 gives 0 too
        (make_config(1.0, [0.4, 0.3, 0.2, 0.1], [0.0, 1.0], 3.0),
         [1.0, 1.0, 0.5, 0.5], 2, 0.0),
    ], ids=["flat_value", "flat_top_segment"])
    def test_ties_take_the_smallest_floor(self, cfg, q, j_star, r_total):
        res = equilibrium_placement(cfg)
        assert res.q_star.q.tolist() == q
        assert res.j_star == j_star
        assert res.rates.r_total == pytest.approx(r_total, abs=1e-12)

    def test_result_internally_consistent(self):
        cfg = reference_config(alpha=0.4)
        res = equilibrium_placement(cfg)
        q = res.q_star.q
        assert res.j_star in np.flatnonzero(q == q.min())
        # the solver's own rate evaluation and `evaluate` must not drift apart
        assert evaluate(res.q_star, cfg) == res.rates
        assert res.rates.r_adv >= res.rates.r_legit - 1e-12

    def test_matches_brute_force_on_small_instances(self):
        rng = np.random.default_rng(17)
        for k in range(10):
            n = int(rng.integers(2, 5))
            s = int(rng.integers(1, 3))
            probs = rng.dirichlet(np.ones(n))
            gamma = rng.dirichlet(np.ones(s))
            cache = float(rng.uniform(0.2, min(2.0, n - 0.1)))
            alpha = [0.0, 0.3, 0.7, 1.0][k % 4]
            cfg = make_config(alpha, probs, gamma, cache)
            value = equilibrium_placement(cfg).rates.r_total
            brute = brute_force_value(probs, gamma, cache, alpha)
            assert value <= brute + 1e-9
            # grid projection moves each entry by at most one step while
            # keeping the capacity, so the gap is bounded by S * step
            assert abs(value - brute) <= s * 0.02 + 1e-9

    def test_feasibility_and_saturation(self):
        for alpha in (0.0, 0.2, 0.6, 1.0):
            res = equilibrium_placement(reference_config(alpha))
            q = res.q_star.q
            assert np.all(q >= -1e-6) and np.all(q <= 1 + 1e-6)
            assert q.sum() == pytest.approx(20.0, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.30, 0.35])
    def test_matches_lp_oracle_where_default_tolerance_stops_early(self, alpha):
        # HiGHS at its default tolerance 1e-7 reports `optimal` here while
        # 2.7e-8 (alpha 0.30) and 4.7e-8 (alpha 0.35) above the optimum
        cfg = make_config(alpha, zipf_popularity(2000, 0.7).probs, GAMMA_R45, 200.0)
        _, oracle = lp_equilibrium(cfg, tol=1e-9)
        assert abs(equilibrium_placement(cfg).rates.r_total - oracle) <= 1e-12

    def test_matches_lp_oracle_on_random_instances(self):
        rng = np.random.default_rng(300)
        cases = []
        for k in range(300):
            n = int(rng.integers(2, 401))
            s = int(rng.integers(1, 5))
            probs = rng.dirichlet(np.ones(n) * rng.uniform(0.2, 3.0))
            gamma = rng.dirichlet(np.ones(s))
            cache = float(rng.uniform(0.05, n - 0.05))
            alpha = [0.0, 1.0, float(rng.random())][k % 3]
            cases.append(make_config(alpha, probs, gamma, cache))
        # tied popularities; and gamma_1 = 0, so the top segment weighs 0 in
        # every file and the segments tie across files out of popularity order
        cases.append(make_config(0.4, [0.1, 0.3, 0.1, 0.3, 0.2], [0.5, 0.3, 0.2], 2.3))
        cases.append(make_config(0.3, [0.1, 0.2, 0.7, 0.0], [0.0, 0.5, 0.5], 2.7))
        cases += tie_heavy_configs()
        cases.append(tiny_alpha_config())
        for k, cfg in enumerate(cases):
            _, oracle = lp_equilibrium(cfg, tol=1e-9)
            res = equilibrium_placement(cfg)
            assert abs(res.rates.r_total - oracle) <= 1e-12, (k, cfg.alpha, cfg.cache_size)
            assert evaluate(res.q_star, cfg) == res.rates, k
            # non-increasing in popularity order, ties in index order
            by_popularity = np.argsort(-cfg.popularity.probs, kind="stable")
            assert np.all(np.diff(res.q_star.q[by_popularity]) <= 0.0), k

    def test_lp_oracle_limit_just_past_a_segment_boundary(self):
        # with M = N/2 + 1e-9 the oracle at tolerance 1e-9 can stop up to
        # about 1.6e-10 above the optimum, so a 1e-12 comparison would fail
        # on the oracle; the greedy is never above it
        rng = np.random.default_rng(909)
        cases = [make_config(0.6889, zipf_popularity(3, 2.0).probs,
                             [0.54036753, 0.45963247], 1.500000001)]
        for _ in range(100):
            n = int(rng.integers(2, 41))
            probs = zipf_popularity(n, float(rng.uniform(0.0, 2.0))).probs
            gamma = rng.dirichlet(np.ones(int(rng.integers(1, 5))))
            cases.append(make_config(float(rng.random()), probs, gamma, n / 2 + 1e-9))
        for k, cfg in enumerate(cases):
            _, oracle = lp_equilibrium(cfg, tol=1e-9)
            value = equilibrium_placement(cfg).rates.r_total
            assert value <= oracle + 1e-12, k
            assert oracle - value <= 1e-9, k

    def test_large_library(self):
        cfg = make_config(0.5, zipf_popularity(20_000, 0.7).probs, GAMMA_R45, 2000.0)
        start = time.perf_counter()
        res = equilibrium_placement(cfg)
        q0 = no_adversary_placement(cfg)
        elapsed = time.perf_counter() - start
        q = res.q_star.q
        assert q.sum() <= cfg.cache_size + 1e-6
        assert np.all(np.diff(q) <= 0.0)
        for reference in (q0, Placement.uniform(20_000, 2000.0)):
            assert res.rates.r_total <= evaluate(reference, cfg).r_total + 1e-12
        assert elapsed < 5.0

    def test_import_leaves_scipy_out(self):
        src = Path(__file__).resolve().parent.parent / "src"
        subprocess.run(
            [sys.executable, "-c",
             "import cachegame, sys; assert 'scipy' not in sys.modules"],
            check=True, env={**os.environ, "PYTHONPATH": str(src)})

    def test_layering(self):
        path = Path(__file__).resolve().parent.parent / "src" / "cachegame"

        def imports(module):
            """(module, name) pairs a cachegame module imports, read with ast."""
            pairs = set()
            for node in ast.walk(ast.parse((path / f"{module}.py").read_text())):
                if isinstance(node, ast.ImportFrom) and node.module:
                    pairs |= {(node.module.split(".")[-1], a.name) for a in node.names}
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    # `import x.y` or `from . import y`
                    pairs |= {(a.name.split(".")[-1], None) for a in node.names}
            return pairs

        # the CLI rates placements only through game
        assert not [pair for pair in imports("cli") if pair[0] == "rate"]
        # rate uses only model's public names
        assert not [name for source, name in imports("rate")
                    if source == "model" and name.startswith("_")]
        # only the simulator draws random numbers: the coverage profile is
        # exact, and its Monte Carlo estimate is a test oracle
        for module in sorted(path.glob("*.py")):
            if module.stem == "simulator":
                continue
            names = set()
            for node in ast.walk(ast.parse(module.read_text())):
                if isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names |= {a.name for a in node.names} | {getattr(node, "module", None)}
            assert not names & {"random", "default_rng", "numpy.random"}, module.stem
        assert not {"coverage_areas_unit_cell", "CoverageAreas"} & (
            set(vars(cachegame)) | set(cachegame.__all__) | set(vars(geometry)))
        # the simulator serves the packet counts its caller deployed: it
        # imports only model, and does not hand the counts back
        modules = {module.stem for module in path.glob("*.py")}
        assert {source for source, _ in imports("simulator")} & modules == {"model"}
        assert "packets" not in {f.name for f in dataclasses.fields(simulator.SimReport)}
        # legit_rate is the one deficit sum
        assert not hasattr(rate, "deficit_rate")


class TestSegmentTable:
    def test_one_sort_per_sweep(self):
        game._segments.clear()
        sweep_equilibria(reference_config(), np.linspace(0, 1, 21))
        assert (game._segments.misses, game._segments.hits) == (1, 20)

    def test_alternating_instances_match_cold_solves(self):
        libraries = [zipf_popularity(200, z).probs for z in (0.7, 0.8)]
        profiles = [GAMMA_R45, np.array([0.4, 0.3, 0.2, 0.1])]
        # consecutive cases change the library, the profile or both; each is
        # solved twice in a row, so the table is both rebuilt and reused
        cases = [make_config(alpha, libraries[i], profiles[j], cache)
                 for alpha in (0.0, 0.3, 0.6, 0.95, 1.0) for cache in (5.0, 20.0, 150.0)
                 for i, j in ((0, 0), (1, 0), (1, 1), (0, 1), (1, 0))]
        warm = [[equilibrium_placement(cfg).q_star.q for _ in range(2)]
                for cfg in cases]
        for cfg, qs in zip(cases, warm):
            game._library.clear()
            game._segments.clear()
            cold = equilibrium_placement(cfg).q_star.q
            assert all(np.array_equal(q, cold) for q in qs)

    def test_radius_sweep_keeps_the_popularity_part(self):
        game._library.clear()
        game._segments.clear()
        profiles = [GAMMA_R45, np.array([0.4, 0.3, 0.2, 0.1])]
        for gamma in profiles * 3:
            cfg = make_config(0.3, zipf_popularity(200, 0.7).probs, gamma, 20.0)
            equilibrium_placement(cfg)
        assert game._segments.misses == 6
        assert (game._library.hits, game._library.misses) == (5, 1)

    def test_arrays_are_read_only(self):
        cfg = reference_config()
        table = game._segments(cfg.popularity.probs.tobytes(),
                               cfg.coverage.gamma.tobytes())
        fields = {**vars(table), **vars(table.library)}
        del fields["library"]
        for name, value in fields.items():
            # tuples, read-only memoryviews and read-only arrays refuse a write
            with pytest.raises((TypeError, ValueError)):
                value[0] = 0
        assert table.columns.readonly

    def test_exact_ends_and_widths(self):
        for s in range(1, 9):
            gamma = np.full(s, 1.0 / s)
            t = game._segments(zipf_popularity(5, 0.7).probs.tobytes(), gamma.tobytes())
            widths = np.subtract(t.hi, t.lo).tolist()
            # each integer over scale is exactly its float, so the floor's
            # sum has no rounding before its one division
            assert [Fraction(v, t.scale) for v in t.hi_exact] == list(map(Fraction, t.hi))
            assert [Fraction(v, t.scale) for v in t.width_exact] == list(map(Fraction, widths))

    def test_a_hit_needs_equal_bytes(self):
        cfg = reference_config()
        game._segments.clear()
        equilibrium_placement(cfg)
        # the same content in fresh arrays hits, one changed bit misses
        probs = cfg.popularity.probs.copy()
        equilibrium_placement(dataclasses.replace(
            cfg, popularity=PopularityDist(probs=probs)))
        assert (game._segments.hits, game._segments.misses) == (1, 1)
        probs[[0, 1]] = np.nextafter(probs[0], 1.0), np.nextafter(probs[1], 0.0)
        equilibrium_placement(dataclasses.replace(
            cfg, popularity=PopularityDist(probs=probs)))
        assert (game._segments.hits, game._segments.misses) == (1, 2)


class TestGreedyOracle:
    """The greedy returns the bits of the vectorised greedy it replaced."""

    @staticmethod
    def random_configs():
        rng = np.random.default_rng(1212)
        cases = []
        for k in range(400):
            n = int(rng.integers(2, 300)) if k % 20 else int(rng.integers(1000, 4000))
            s = int(rng.integers(1, 6))
            kind = k % 4
            if kind == 0:
                probs = rng.dirichlet(np.ones(n) * rng.uniform(0.2, 3.0))
            elif kind == 1:
                probs = np.full(n, 1.0 / n)
            elif kind == 2:
                probs = zipf_popularity(n, float(rng.uniform(0.0, 2.0))).probs
            else:
                # rounded weights: many popularities tie exactly
                weights = rng.integers(0, 4, n).astype(float)
                weights[0] += 1.0
                probs = weights / weights.sum()
            gamma = rng.dirichlet(np.ones(s))
            if k % 3 == 0 and s > 1:
                gamma[0] = 0.0          # gamma_1 = 0: the top level weighs 0
                gamma /= gamma.sum()
            cache = [float(rng.uniform(0.05, n - 0.05)), n / 2 + 1e-9,
                     float(rng.integers(1, n))][k % 3]
            alpha = [0.0, 1.0, round(float(rng.random()), 2), float(rng.random()),
                     1e-20][k % 5]
            cases.append(make_config(alpha, probs, gamma, cache))
        return cases

    @staticmethod
    def fused_sum_configs():
        # the floor adds three products here, and a BLAS dot that fuses the
        # multiply-adds (an FMA) and a plain float sum round them differently;
        # the exact sum, rounded once, depends on neither
        return [make_config(alpha, zipf_popularity(n, z).probs, gamma, cache)
                for n, z, gamma, alpha, cache in [
                    (46, 1.177451094397185,
                     [0.7060945549243567, 0.07937362229091267, 0.09315889765478162,
                      0.12137292512994918], 0.29418192737388793, 13.853762155192108),
                    (25, 1.6337682896411023,
                     [0.003324221461041934, 0.3351992242511213, 0.09837502135557089,
                      0.5631015329322658], 0.03252425905753916, 5.693803651638614)]]

    @pytest.mark.parametrize("source", ["random", "tie_heavy", "tiny_alpha", "fused_sum"])
    def test_bit_identical(self, source):
        cases = {"random": self.random_configs, "tie_heavy": tie_heavy_configs,
                 "tiny_alpha": lambda: [tiny_alpha_config()],
                 "fused_sum": self.fused_sum_configs}[source]()
        for k, cfg in enumerate(cases):
            args = (cfg.popularity.probs, cfg.coverage.gamma, cfg.alpha, cfg.cache_size)
            assert np.array_equal(game._greedy_placement(*args),
                                  greedy_placement(*args)), (source, k)

    def test_segment_order_is_one_stable_sort_by_file(self):
        for cfg in tie_heavy_configs()[::4] + [reference_config()]:
            probs, gamma = cfg.popularity.probs, cfg.coverage.gamma
            t = game._segments(probs.tobytes(), gamma.tobytes())
            s = gamma.size
            c = np.cumsum(np.arange(1, s + 1) * gamma)[::-1]
            by_popularity = np.argsort(-probs, kind="stable")
            order = np.argsort(np.outer(-c, probs[by_popularity]).T.ravel(),
                               kind="stable")
            assert np.array_equal(t.owner, by_popularity[order // s])
            assert np.array_equal(t.segment, np.append(s, order % s))


class TestNoAdversaryPlacement:
    def test_regular_structure(self):
        q = no_adversary_placement(reference_config()).q
        levels = np.array([1.0, 1 / 2, 1 / 3, 1 / 4, 0.0])
        dist = np.abs(q[:, None] - levels[None, :]).min(axis=1)
        # at the exact optimum one marginal file absorbs the residual
        # capacity and sits between two levels; all others are on-level
        assert np.count_nonzero(dist > 1e-6) <= 1
        assert q[0] >= 0.98
        assert q[-1] <= 0.02
        assert np.all(np.diff(q) <= 1e-9)

    def test_small_instance_against_brute_force(self):
        probs = [0.6, 0.3, 0.1]
        gamma = [0.5, 0.5]
        cfg = make_config(0.0, probs, gamma, 1.0)
        value = equilibrium_placement(cfg).rates.r_total
        brute = brute_force_value(probs, gamma, 1.0, 0.0)
        assert abs(value - brute) <= 0.02


class TestWorstCaseRate:
    def test_quarter_coverage(self):
        cfg = make_config(1.0, zipf_popularity(10, 0.5).probs,
                          [0.25, 0.25, 0.25, 0.25], 1.0)
        assert worst_case_rate(cfg) == pytest.approx(0.75)

    def test_saturating_coverage(self):
        cfg = make_config(1.0, zipf_popularity(2, 0.5).probs, [0, 0, 0, 1.0], 1.0)
        assert worst_case_rate(cfg) == 0.0

    def test_agrees_with_lp_at_alpha_one(self):
        cfg = reference_config(alpha=1.0)
        res = equilibrium_placement(cfg)
        assert res.rates.r_total == pytest.approx(worst_case_rate(cfg), abs=1e-7)


class TestSweepAndThresholds:
    def test_sandwich_and_monotone(self):
        cfg = reference_config()
        alphas = np.linspace(0, 1, 11)
        results = sweep_equilibria(cfg, alphas)
        q0 = no_adversary_placement(cfg)
        uni = Placement.uniform(200, 20.0)
        values = []
        for alpha, res in zip(alphas, results):
            for reference in (q0, uni):
                ref_rate = evaluate(reference, cfg.with_alpha(alpha)).r_total
                assert res.rates.r_total <= ref_rate + 1e-9
            values.append(res.rates.r_total)
        assert np.all(np.diff(values) >= -1e-9)

    @pytest.mark.parametrize("cfg, threshold", [
        (reference_config(), 0.932143),
        (make_config(0.0, zipf_popularity(2000, 0.7).probs, GAMMA_R45, 200.0), 0.985089),
        (make_config(0.0, zipf_popularity(200, 0.0).probs, GAMMA_R45, 20.0), 0.0),
    ], ids=["default", "n2000", "zipf0"])
    def test_gathering_threshold(self, cfg, threshold):
        # q* turns uniform where the water level x_a reaches p_max
        n = cfg.library.num_files
        closed_form = 1.0 - 1.0 / (n * cfg.popularity.probs.max())
        assert closed_form == pytest.approx(threshold, abs=1e-6)
        uniform = cfg.cache_size / n

        def distance(alpha):
            q = equilibrium_placement(cfg.with_alpha(alpha)).q_star.q
            return np.max(np.abs(q - uniform))
        assert distance(closed_form + 1e-6) <= 1e-12
        if threshold > 0:
            assert distance(closed_form - 1e-6) > DISTANCE_TOL

    def test_degenerate_grid_reports_absent(self):
        cfg = reference_config()
        detection = detect_thresholds(cfg, [0.0], sweep_equilibria(cfg, [0.0]))
        assert detection.alpha_thr_1 is None
        assert detection.alpha_thr_2 is None

    def test_three_regimes_on_coarse_grid(self):
        cfg = reference_config()
        alphas = np.round(np.arange(0, 1.001, 0.05), 9)
        detection = detect_thresholds(cfg, alphas, sweep_equilibria(cfg, alphas))
        assert detection.alpha_thr_1 is not None
        assert detection.alpha_thr_2 is not None
        assert 0.0 < detection.alpha_thr_1 < detection.alpha_thr_2 <= 1.0

    def test_uniform_distance_is_bit_identical(self):
        rng = np.random.default_rng(1515)
        for _ in range(500):
            a, n = int(rng.integers(1, 8)), int(rng.integers(1, 40))
            uniform = float(rng.random() * rng.choice([1.0, 1e-6, 1e3]))
            qs = uniform + rng.normal(size=(a, n)) * rng.choice([1.0, 1e-9, 1e-17])
            qs[0] = uniform                         # a row equal to uniform
            qs[-1, :n // 2] = uniform
            q_ref = rng.random(n)
            expected = (np.abs(qs - q_ref).max(axis=1), np.abs(qs - uniform).max(axis=1))
            # bytes, so that -0.0 and 0.0 differ
            assert [d.tobytes() for d in game._distances(qs, q_ref, uniform)] == \
                [d.tobytes() for d in expected]

    def test_each_placement_is_classified_by_its_distances(self):
        cfg = reference_config()
        n, cache = cfg.library.num_files, cfg.cache_size
        q_ref = no_adversary_placement(cfg).q
        uniform = cache / n
        base = equilibrium_placement(cfg)
        rng = np.random.default_rng(1616)
        rows = [q_ref, np.full(n, uniform)]
        for _ in range(300):
            # within a few DISTANCE_TOL of either reference, each side at a
            # depth either within DISTANCE_TOL or past it; few enough entries
            # go up that the capacity holds
            centre = q_ref if rng.random() < 0.5 else uniform
            down, up = rng.choice([0.5, 3.0], 2) * DISTANCE_TOL
            offset = np.where(rng.random(n) < 0.8 * down / (down + up), up, -down)
            q = np.clip(centre + offset * rng.random(n), 0.0, 1.0)
            rows.append(q * min(1.0, cache / q.sum()))
        for q in rows:
            result = dataclasses.replace(base, q_star=Placement(q=q, cache_size=cache))
            detection = detect_thresholds(cfg, [0.0], [result])
            branched = np.abs(q - q_ref).max() > DISTANCE_TOL
            gathered = np.abs(q - uniform).max() <= DISTANCE_TOL
            assert (detection.alpha_thr_1 == 0.0) == branched
            assert (detection.alpha_thr_2 == 0.0) == gathered

    @pytest.mark.parametrize("grid, match", [
        ([], "non-empty"), ([0.5, 0.0], "sorted"), ([-0.1, 0.5], r"\[0, 1\]"),
        ([0.5, 1.5], r"\[0, 1\]"), ([0.0, 0.5], "do not match"),
    ], ids=["empty", "unsorted", "below_zero", "above_one", "results_length"])
    def test_rejects_bad_grid_or_results(self, grid, match):
        cfg = reference_config()
        with pytest.raises(ValueError, match=match):
            detect_thresholds(cfg, grid, sweep_equilibria(cfg, [0.0]))

    def test_sorting_improves_rate(self):
        rng = np.random.default_rng(23)
        cov = CoverageProfile(gamma=[0.3, 0.4, 0.2, 0.1])
        probs = zipf_popularity(12, 0.9)
        for _ in range(100):
            q = rng.random(12) * 0.8
            pl = Placement(q=q, cache_size=q.sum())
            sorted_pl = Placement(q=np.sort(q)[::-1], cache_size=q.sum())
            alpha = rng.random()

            def value(placement):
                return total_rate(alpha, legit_rate(placement, probs, cov),
                                  adversary_rate(placement, cov,
                                                 best_response(placement))).r_total

            assert value(sorted_pl) <= value(pl) + 1e-12
