import __future__
import ast
import dataclasses
import itertools
import math
import operator
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from greedy_oracle import eager_fill, greedy_placement, water_level
from lp_oracle import lp_equilibrium
import cachegame
from cachegame import cli, game, geometry, rate, simulator
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


@pytest.fixture
def builds(monkeypatch):
    """Each half of a segment table built from here on, recorded by wrapping
    game._popularity_half (`popularity`) and game._segments (`coverage`:
    every table built, so each coverage half); the solve slot starts empty."""
    built = types.SimpleNamespace(popularity=[], coverage=[])
    for name, halves in (("_popularity_half", built.popularity),
                         ("_segments", built.coverage)):
        def record(*args, build=getattr(game, name), halves=halves):
            halves.append(build(*args))
            return halves[-1]
        monkeypatch.setattr(game, name, record)
    game._last_solve.clear()
    return built


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


def assert_rates_match_evaluate(res, cfg):
    """The solve's rates against `evaluate` of its placement: the best
    response and the adversary rate bit for bit; the solve reads the legit
    rate off the runs of q*, so it and the total within 2 N 2^-53."""
    rates, bound = evaluate(res.q_star, cfg), 2 * cfg.library.num_files * 2.0**-53
    assert (best_response(res.q_star), rates.r_adv) == (res.j_star, res.rates.r_adv)
    assert abs(rates.r_legit - res.rates.r_legit) <= bound
    assert abs(rates.r_total - res.rates.r_total) <= bound


def exact_sum(values):
    """The exact sum of floats or Fractions with power-of-two denominators,
    as a Fraction, added in integers over the largest denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max((den for _, den in ratios), default=1)
    return Fraction(sum(num * (scale // den) for num, den in ratios), scale)


def exact_legit_rate(q, probs, gamma):
    """sum_j p_j h(q_j) in exact arithmetic, h(x) = sum_d gamma_d max(1 - d x, 0)
    from the float gamma, grouped by the distinct entries of q."""
    total = Fraction(0)
    for value in np.unique(q).tolist():
        x = Fraction(value)
        h = exact_sum([Fraction(g) * (1 - d * x)
                       for d, g in enumerate(gamma.tolist(), start=1) if d * x < 1])
        total += h * exact_sum(probs[q == value].tolist())
    return total


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

    def test_accepted_sums_at_the_tolerance_solve(self):
        # popularity and coverage each sum to 1 + 0.99e-9, which their checks
        # accept; the legitimate rate weighs by both, so it passes 1 + PROB_TOL
        p = np.full(4, 0.25)
        p[0] += 0.99e-9
        res = equilibrium_placement(make_config(0.0, p, [1 + 0.99e-9], 1e-12))
        assert res.rates.r_legit == 1.0

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

    def test_cross_level_ties_fill_level_by_level(self):
        # gamma_1 = gamma_2 = 0: both upper levels weigh 0 for every file, so
        # the budget left above 1/3 fills the level [1/3, 1/2] of all six
        # files before any file reaches [1/2, 1]; h is 0 from 1/3 on
        cfg = make_config(0.0, zipf_popularity(6, 0.0).probs, [0.0, 0.0, 1.0], 3.0)
        res = equilibrium_placement(cfg)
        assert np.all(np.abs(res.q_star.q - 0.5) <= 1e-12)
        assert (res.rates.r_legit, res.rates.r_adv) == (0.0, 0.0)

    def test_result_internally_consistent(self):
        cfg = reference_config(alpha=0.4)
        res = equilibrium_placement(cfg)
        q = res.q_star.q
        assert res.j_star in np.flatnonzero(q == q.min())
        # the solver's own rate evaluation and `evaluate` must not drift apart
        assert_rates_match_evaluate(res, cfg)
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
            assert_rates_match_evaluate(res, cfg)
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

    def test_one_cache(self):
        # the solve slot is the only mutable state of the module, and the
        # config holds no cache: a further one would be a third key to keep
        constant = (type, types.ModuleType, types.FunctionType, int, float, str, tuple)
        state = [name for name, value in vars(game).items()
                 if not name.startswith("__") and value is not __future__.annotations
                 and not isinstance(value, constant)]
        assert state == ["_last_solve"]
        assert set(vars(game._last_solve)) == {"record", "hits", "misses"}
        assert [f.name for f in dataclasses.fields(GameConfig)] == [
            "alpha", "library", "popularity", "coverage", "cache_size"]

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
    def test_one_sort_per_sweep(self, builds):
        sweep_equilibria(reference_config(), np.linspace(0, 1, 21))
        assert (len(builds.popularity), len(builds.coverage)) == (1, 1)

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
            game._last_solve.clear()
            cold = equilibrium_placement(cfg).q_star.q
            assert all(np.array_equal(q, cold) for q in qs)

    def test_a_profile_change_rebuilds_only_the_coverage_half(self, builds):
        base = make_config(0.3, zipf_popularity(200, 0.7).probs, GAMMA_R45, 20.0)
        profiles = [base.coverage, CoverageProfile(gamma=[0.4, 0.3, 0.2, 0.1])]
        for coverage in profiles * 3:
            equilibrium_placement(dataclasses.replace(base, coverage=coverage))
        # one popularity under alternating profiles: each change of profile
        # builds a coverage half on the same popularity-half object
        assert (len(builds.popularity), len(builds.coverage)) == (1, 6)
        assert all(t.popularity is builds.popularity[0] for t in builds.coverage)
        # a new popularity object builds both halves, and the next profile
        # change keeps the new popularity half
        other = dataclasses.replace(base, popularity=zipf_popularity(200, 0.8))
        equilibrium_placement(other)
        equilibrium_placement(dataclasses.replace(other, coverage=profiles[1]))
        assert (len(builds.popularity), len(builds.coverage)) == (2, 8)
        assert [t.popularity for t in builds.coverage[-2:]] == [builds.popularity[1]] * 2

    def test_arrays_are_read_only(self):
        cfg = reference_config()
        table = game._segments(cfg.popularity.probs, cfg.coverage.gamma)
        half = table.popularity
        assert isinstance(half, game._PopularityHalf)
        for name, value in [*table._asdict().items(), *half._asdict().items()]:
            if value is half:
                continue
            # tuples, read-only memoryviews and read-only arrays refuse a write
            with pytest.raises((TypeError, ValueError)):
                value[0] = 0
        assert table.columns.readonly
        # the N-long arrays that place a file in its run, give the best
        # response and the last file above a floor
        for array in (half.order, half.rank, half.least, half.greatest):
            assert array.shape == (200,) and not array.flags.writeable

    def test_the_build_holds_few_s_by_n_arrays(self):
        # the weights, the one sort's result and the levels, plus N-long
        # arrays (order, rank, least and the sums): no S*N copy of the
        # sorted weights or of file positions
        n, s = 20_000, 4
        probs = zipf_popularity(n, 0.7).probs
        tracemalloc.start()
        try:
            table = game._segments(probs, GAMMA_R45)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * s * n * 8
        half = table.popularity
        assert [a.size for a in (half.order, half.rank, half.least, half.greatest)] == [n] * 4

    def test_a_coverage_rebuild_holds_no_n_long_array(self):
        # on a kept popularity half the build holds at most the weights and
        # their levels, S*N + 1 words each: no N-long array beside them
        n, s = 20_000, 4
        probs = zipf_popularity(n, 0.7).probs
        half = game._segments(probs, GAMMA_R45).popularity
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = game._segments(probs, np.array([0.4, 0.3, 0.2, 0.1]), half)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = 2 * (s * n + 1) * 8
        assert kept <= current - before and peak - before < kept + n * 8
        assert table.popularity is half

    def test_exact_ends_and_widths(self):
        for s in range(1, 9):
            gamma = np.full(s, 1.0 / s)
            t = game._segments(zipf_popularity(5, 0.7).probs, gamma)
            widths = np.subtract(t.hi, t.lo).tolist()
            # each integer over scale is exactly its float, so the floor's
            # sum has no rounding before its one division
            assert [Fraction(v, t.scale) for v in t.hi_exact] == list(map(Fraction, t.hi))
            assert [Fraction(v, t.scale) for v in t.width_exact] == list(map(Fraction, widths))

    def test_a_hit_needs_equal_bytes(self, builds):
        # equal bytes are not enough: only the same objects reuse the table
        cfg = reference_config()
        first = equilibrium_placement(cfg)
        equilibrium_placement(cfg.with_alpha(0.5))
        assert (len(builds.popularity), len(builds.coverage)) == (1, 1)
        fresh = equilibrium_placement(dataclasses.replace(
            cfg, popularity=PopularityDist(probs=cfg.popularity.probs)))
        assert (len(builds.popularity), len(builds.coverage)) == (2, 2)
        assert fresh.q_star.q.tobytes() == first.q_star.q.tobytes()

    def test_a_replaced_coverage_gets_its_own_table(self, builds):
        # sweep-r replaces the coverage and sweep-cache the cache size
        base = reference_config(0.3)
        equilibrium_placement(base)
        equilibrium_placement(dataclasses.replace(base, cache_size=50.0))
        assert (len(builds.popularity), len(builds.coverage)) == (1, 1)
        gamma = [0.4, 0.3, 0.2, 0.1]
        warm = equilibrium_placement(dataclasses.replace(
            base, coverage=CoverageProfile(gamma=gamma)))
        assert (len(builds.popularity), len(builds.coverage)) == (1, 2)
        cold = equilibrium_placement(make_config(0.3, base.popularity.probs, gamma, 20.0))
        assert TestSolveSlot.bits(warm) == TestSolveSlot.bits(cold)


class TestWaterLevel:
    """The water level is read at the first rank whose step reaches
    a/(1-a), within rounding of the exact minimum over all N values."""

    @staticmethod
    def full_minimum(probs, alpha):
        cumprobs = np.cumsum(np.sort(probs))
        return float(np.min((alpha / (1.0 - alpha) + cumprobs)
                            / np.arange(1.0, probs.size + 1)))

    @staticmethod
    def exact_minimum(probs, a):
        """min_m (a + P_m) / m as a Fraction of the float a and probs: the
        sums are exact integers over one power-of-two denominator."""
        ratios = [v.as_integer_ratio() for v in [a, *np.sort(probs).tolist()]]
        scale = max(den for _, den in ratios)
        a_num, *nums = (num * (scale // den) for num, den in ratios)
        return min(Fraction(a_num + total, m) for m, total
                   in enumerate(itertools.accumulate(nums), start=1)) / scale

    @staticmethod
    def random_tables(kinds=range(5)):
        rng = np.random.default_rng(2020)
        for k in range(300):
            n = int(rng.choice([1, 2, 3, 10, 200, 2000, 20_000]))
            kind = k % 5
            if kind == 0:
                probs = zipf_popularity(n, float(rng.uniform(0.0, 2.0))).probs
            elif kind == 1:
                probs = rng.dirichlet(np.ones(n) * rng.uniform(0.05, 3.0))
            elif kind == 2:
                # three popularity values, many ties
                weights = rng.choice([1.0, 2.0, 5.0], n)
                probs = weights / weights.sum()
            elif kind == 3:
                probs = np.full(n, 1.0 / n)
            else:
                # heavy-tailed, some popularities zero
                weights = np.floor(rng.pareto(0.5, n))
                weights[0] += 1.0
                probs = weights / weights.sum()
            alphas = np.concatenate((rng.random(8), 10.0 ** -rng.uniform(0, 300, 4),
                                     1.0 - 10.0 ** -rng.uniform(0, 16, 3)))
            if kind in kinds:
                yield probs, alphas

    @staticmethod
    def adversarial_tables():
        tiny = [1e-300, 1e-20, 1e-12, 1 - 1e-16, 0.5]
        yield np.full(2000, 1 / 2000), tiny
        yield np.repeat([3.0, 1.0], [700, 1300]) / 3400, tiny
        yield np.array([1.0]), tiny
        yield np.array([0.5, 0.5]), tiny
        yield np.array([0.75, 0.25]), tiny
        yield np.array([1.0, 0.0]), [5e-324, *tiny]

    @pytest.mark.parametrize("source", ["random", "adversarial"])
    def test_bits_of_the_first_rank(self, source):
        tables = self.random_tables() if source == "random" else self.adversarial_tables()
        for probs, alphas in tables:
            t = game._segments(probs, GAMMA_R45)
            for alpha in map(float, alphas):
                assert game._water_level(t, alpha) == water_level(probs, alpha), \
                    (probs.size, alpha)

    def test_bits_of_the_full_minimum(self):
        # Zipf, Dirichlet and heavy-tailed tables: no ties within rounding
        for probs, alphas in self.random_tables(kinds=(0, 1, 4)):
            t = game._segments(probs, GAMMA_R45)
            for alpha in map(float, alphas):
                if 0.0 < alpha < 1.0:
                    assert game._water_level(t, alpha) == self.full_minimum(probs, alpha), \
                        (probs.size, alpha)
        probs = zipf_popularity(2000, 0.7).probs
        t = game._segments(probs, GAMMA_R45)
        for alpha in np.linspace(0.0, 1.0, 1001)[1:-1].tolist():
            assert game._water_level(t, alpha) == self.full_minimum(probs, alpha), alpha

    def test_within_rounding_of_the_exact_minimum(self):
        tables = itertools.chain(
            ((probs, alphas) for probs, alphas in self.random_tables() if probs.size <= 200),
            self.adversarial_tables())
        for probs, alphas in tables:
            t = game._segments(probs, GAMMA_R45)
            bound = Fraction(probs.size + 2, 2**53)
            for alpha in map(float, alphas):
                if 0.0 < alpha < 1.0:
                    exact = self.exact_minimum(probs, alpha / (1.0 - alpha))
                    error = abs(Fraction(game._water_level(t, alpha)) - exact)
                    assert error <= bound * exact, (probs.size, alpha)

    def test_a_subnormal_level(self):
        # x_a = a/(1-a) = 5e-324 at the zero popularity
        t = game._segments(np.array([1.0, 0.0]), GAMMA_R45)
        assert game._water_level(t, 5e-324) == 5e-324


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

    @staticmethod
    def large_configs():
        # at alpha = 0 every segment is heavy, and the fill stops at the budget
        probs = zipf_popularity(20_000, 0.7).probs
        return [make_config(alpha, probs, GAMMA_R45, 2000.0)
                for alpha in (0.0, 0.1, 0.5)]

    @staticmethod
    def window_configs():
        # at alpha = 0 the fill cuts 190 of 200 and 700 of 800 heavy
        # segments, so its window of N segments doubles twice
        return [make_config(0.0, zipf_popularity(n, 0.7).probs, GAMMA_R45, cache)
                for n, cache in ((50, 45.0), (200, 150.0))]

    @staticmethod
    def n2000_configs():
        # the benchmark's sweep: N = 2 000, M = 200 on the 0.05 alpha grid
        probs = zipf_popularity(2000, 0.7).probs
        return [make_config(round(0.05 * k, 12), probs, GAMMA_R45, 200.0)
                for k in range(21)]

    @classmethod
    def cases(cls, source):
        return {"random": cls.random_configs, "tie_heavy": tie_heavy_configs,
                "tiny_alpha": lambda: [tiny_alpha_config()],
                "fused_sum": cls.fused_sum_configs, "large": cls.large_configs,
                "window": cls.window_configs, "n2000": cls.n2000_configs}[source]()

    @staticmethod
    def fill(t, cfg):
        """_fill's runs of cfg's solve on the segment table t."""
        return game._fill(t, *game._floor(t, cfg.alpha, cfg.cache_size), cfg.cache_size)

    SOURCES = ["random", "tie_heavy", "tiny_alpha", "fused_sum", "large", "window"]

    @pytest.mark.parametrize("source", SOURCES)
    def test_bit_identical(self, source):
        cases = self.cases(source)
        for k, cfg in enumerate(cases):
            probs, gamma = cfg.popularity.probs, cfg.coverage.gamma
            t = game._segments(probs, gamma)
            values, counts, _, _, _ = self.fill(t, cfg)
            assert np.array_equal(eager_fill(t.popularity.order, values, counts),
                                  greedy_placement(probs, gamma, cfg.alpha,
                                                   cfg.cache_size)), (source, k)

    def test_uniform_popularity_at_a_tiny_alpha_plays_uniform(self):
        # any alpha > 0 makes the uniform placement the exact optimum under
        # uniform popularity; the water level lies at rank N, not at rank 1
        cfg = self.random_configs()[149]
        probs = cfg.popularity.probs
        assert (probs.size, cfg.cache_size, cfg.alpha) == (21, 11.0, 1e-20)
        assert np.all(probs == probs[0])
        assert equilibrium_placement(cfg).q_star.q.tolist() == [11 / 21] * 21

    def test_segment_order_fills_ties_level_by_level(self):
        configs = tie_heavy_configs()[::4] + self.random_configs()[::25]
        for k, cfg in enumerate(configs + [reference_config()]):
            probs, gamma = cfg.popularity.probs, cfg.coverage.gamma
            t = game._segments(probs, gamma)
            n, s = probs.size, gamma.size
            assert np.array_equal(t.popularity.order, np.argsort(-probs, kind="stable"))
            assert t.segment[0] == s
            levels = t.segment[1:].tolist()
            assert sorted(levels) == [l for l in range(s) for _ in range(n)], k
            # the table keeps only levels: each level's segments appear in
            # popularity order, so the r-th segment of level l is file order[r]
            rank, seen = [], [0] * s
            for l in levels:
                rank.append(seen[l])
                seen[l] += 1
            c = t.c
            descending = probs[t.popularity.order].tolist()
            weights = [c[l] * descending[r] for l, r in zip(levels, rank)]
            assert all(a >= b for a, b in zip(weights, weights[1:])), k
            # on bit-equal weights the level never decreases
            assert all(l1 <= l2 for w1, w2, l1, l2
                       in zip(weights, weights[1:], levels, levels[1:]) if w1 == w2), k
            # together: the weights descending, ties by level, then popularity
            segments = sorted(itertools.product(range(s), range(n)),
                              key=lambda lr: (-(c[lr[0]] * descending[lr[1]]), *lr))
            assert segments == list(zip(levels, rank)), k

    def test_the_window_grows_past_n(self):
        for cfg in self.window_configs():
            t = game._segments(cfg.popularity.probs, cfg.coverage.gamma)
            mu, heavy, count, k = game._floor(t, cfg.alpha, cfg.cache_size)
            assert mu == t.lo[k]
            cut = game._fill(t, mu, heavy, count, k, cfg.cache_size)[4]
            assert 2 * cfg.library.num_files < cut < heavy

    @pytest.mark.parametrize("source", SOURCES)
    def test_runs_of_the_fill(self, source):
        """q* in popularity order is a staircase of at most S + 2 values; on
        a floor strictly inside its level every file sits at mu or at mu
        plus whole level lengths, and the files at or above level l's value
        are its heavy segments."""
        interior = 0
        for k, cfg in enumerate(self.cases(source)):
            t = game._segments(cfg.popularity.probs, cfg.coverage.gamma)
            mu, heavy, count, level = game._floor(t, cfg.alpha, cfg.cache_size)
            values, counts, ends, masses, _ = game._fill(t, mu, heavy, count, level,
                                                         cfg.cache_size)
            q = eager_fill(t.popularity.order, values, counts)
            s, n = cfg.coverage.max_coverage, cfg.library.num_files
            # at most S + 2 runs, none empty, that cover every file once
            assert len(values) == len(counts) == len(masses) <= s + 2, (source, k)
            assert min(counts) > 0 and sum(counts) == n, (source, k)
            # in the form Placement._from_runs keeps them: tuples, with the
            # running file counts
            assert {type(x) for x in (values, counts, ends, masses)} == {tuple}
            assert ends == tuple(itertools.accumulate(counts)), (source, k)
            staircase = q[t.popularity.order]
            assert np.all(np.diff(staircase) <= 0.0), (source, k)
            assert list(values) == sorted(values, reverse=True), (source, k)
            if not t.lo[level] < mu < t.hi[level]:
                continue
            interior += 1
            lengths = [t.hi[level] - mu, *np.subtract(t.hi, t.lo)[level + 1:].tolist()]
            tops = [mu + v for v in itertools.accumulate(lengths)]
            assert set(q.tolist()) <= {mu, *tops}, (source, k)
            for l, top in zip(range(level, s), tops):
                assert np.count_nonzero(q >= top) == count[l], (source, k, l)
        assert interior > 0 or source in ("tiny_alpha", "window")

    @pytest.mark.parametrize("source", SOURCES)
    def test_legit_rate_with_and_without_runs(self, source):
        # both within N 2^-53 of the exact sum of p_j h(q_j)
        for k, cfg in enumerate(self.cases(source)):
            probs, gamma = cfg.popularity.probs, cfg.coverage.gamma
            t = game._segments(probs, gamma)
            values, counts, _, masses, _ = self.fill(t, cfg)
            placement = Placement(q=eager_fill(t.popularity.order, values, counts),
                                  cache_size=cfg.cache_size)
            exact = exact_legit_rate(placement.q, probs, gamma)
            bound = Fraction(probs.size, 2**53)
            runs = list(zip(values, masses))
            for got in (legit_rate(placement, cfg.popularity, cfg.coverage, runs),
                        legit_rate(placement, cfg.popularity, cfg.coverage)):
                assert abs(Fraction(got) - exact) <= bound, (source, k)

    def test_the_table_holds_no_file_index_per_segment(self):
        for cfg in self.random_configs()[::40] + [reference_config()]:
            probs, gamma = cfg.popularity.probs, cfg.coverage.gamma
            t = game._segments(probs, gamma)
            n, s = probs.size, gamma.size
            # the coverage half's one integer array of S N entries holds
            # levels, not files; the popularity half's are N long
            arrays = {name: value for name, value
                      in [*t._asdict().items(), *t.popularity._asdict().items()]
                      if isinstance(value, np.ndarray) and value.dtype.kind in "iu"}
            assert sorted(arrays) == ["greatest", "least", "order", "rank", "segment"]
            assert [arrays[name].size
                    for name in ("greatest", "least", "order", "rank")] == [n] * 4
            assert arrays["segment"].size == s * n + 1
            assert int(arrays["segment"].max()) <= s
            # rank inverts order; least[i] = min(order[i:]) and greatest[i] =
            # max(order[:i + 1]) by their recurrences
            half = t.popularity
            order = half.order
            assert np.array_equal(half.rank[order], np.arange(n))
            assert half.least[-1] == order[-1] and half.greatest[0] == order[0]
            assert np.array_equal(half.least[:-1], np.minimum(order[:-1], half.least[1:]))
            assert np.array_equal(half.greatest[1:], np.maximum(order[1:], half.greatest[:-1]))

    @pytest.mark.parametrize("source", SOURCES)
    def test_q_mu_matches_the_array_path(self, source):
        # the last entry above a floor, read off the popularity half's
        # prefix maximum of the order, and off q for the same entries
        for k, cfg in enumerate(self.cases(source)):
            placement = equilibrium_placement(cfg).q_star
            copy = Placement(q=placement.q.copy(), cache_size=cfg.cache_size)
            for floor in (-1.0, 0.0, 1e-9, *placement._runs.values):
                assert placement._last_above(floor) == copy._last_above(floor), \
                    (source, k, floor)

    @pytest.mark.parametrize("source", [*SOURCES, "n2000"])
    def test_the_placement_is_built_on_first_read(self, source):
        """The solve keeps q* as its runs: q is built on first read, once,
        read-only, with the bits of the fill written out, and j_star and
        every entry read off the runs are those of q."""
        for k, cfg in enumerate(self.cases(source)):
            game._last_solve.clear()
            res = equilibrium_placement(cfg)
            t = game._last_solve.record.table
            placement, n = res.q_star, cfg.library.num_files
            entries = [placement._entry(j) for j in range(n)]
            assert placement.num_files == n
            assert "q" not in vars(placement), (source, k)
            values, counts, _, _, _ = self.fill(t, cfg)
            eager = Placement(q=eager_fill(t.popularity.order, values, counts),
                              cache_size=cfg.cache_size).q
            q = placement.q
            assert q is placement.q and (q.dtype, q.flags.writeable) == (np.float64, False)
            assert np.array_equal(q, eager), (source, k)
            assert res.j_star == int(q.argmin()), (source, k)
            assert entries == q.tolist(), (source, k)


class TestSolveSlot:
    """equilibrium_placement reuses its last solve when the floor repeats."""

    @staticmethod
    def alphas(points):
        # pieces many points wide, and points next to a piece's end
        return np.concatenate((np.linspace(0.0, 1.0, points), [1e-20, 0.5 + 1e-12, 1 - 1e-9]))

    @staticmethod
    def cold(cfg):
        game._last_solve.clear()
        return equilibrium_placement(cfg)

    @staticmethod
    def bits(res):
        return res.q_star.q.tobytes(), res.j_star, res.rates

    @pytest.mark.parametrize("source", ["random", "tie_heavy", "tiny_alpha", "fused_sum"])
    def test_a_hit_equals_a_cold_solve(self, source):
        rng = np.random.default_rng(19)
        hits = 0
        # 21 points keep the 400 random configs to about 30 000 solves
        alphas = self.alphas(21 if source == "random" else 81)
        for k, cfg in enumerate(TestGreedyOracle.cases(source)):
            grid = np.append(alphas, cfg.alpha)
            game._last_solve.clear()
            warm = [(a, equilibrium_placement(cfg.with_alpha(float(a))))
                    for order in (np.sort(grid), rng.permutation(grid)) for a in order]
            hits += game._last_solve.hits
            cold = {a: self.bits(self.cold(cfg.with_alpha(float(a)))) for a in grid}
            assert all(self.bits(res) == cold[a] for a, res in warm), (source, k)
        assert hits > 0

    def test_a_cache_sweep_hit_equals_a_cold_solve(self):
        base = reference_config()
        # dataclasses.replace shares the popularity and the coverage, as
        # sweep-cache does; shuffled, consecutive caches differ and miss
        configs = [dataclasses.replace(base, alpha=float(a), cache_size=cache)
                   for cache in (5.0, 20.0, 150.0) for a in self.alphas(81)]
        configs += [configs[i] for i in np.random.default_rng(19).permutation(len(configs))]
        game._last_solve.clear()
        warm = [self.bits(equilibrium_placement(cfg)) for cfg in configs]
        assert game._last_solve.hits > 0
        assert warm == [self.bits(self.cold(cfg)) for cfg in configs]

    def test_hits_on_the_default_sweep(self):
        game._last_solve.clear()
        sweep_equilibria(reference_config(), cli.parse_grid("0:1:0.01"))
        assert (game._last_solve.hits, game._last_solve.misses) == (47, 54)

    def test_hits_on_the_n2000_sweep(self):
        cfg = make_config(0.0, zipf_popularity(2000, 0.7).probs, GAMMA_R45, 200.0)
        game._last_solve.clear()
        sweep_equilibria(cfg, [round(0.05 * k, 12) for k in range(21)])
        assert (game._last_solve.hits, game._last_solve.misses) == (5, 16)

    def test_results_compare_and_hash(self):
        # a placement compares and hashes by identity, so a hit's result,
        # which holds the same placement, equals the miss's
        cfg = reference_config(0.3)
        first = self.cold(cfg)
        again = equilibrium_placement(cfg)
        assert game._last_solve.hits == 1
        assert again == first and hash(again) == hash(first)
        assert first.q_star == first.q_star and hash(first.q_star) == hash(first.q_star)
        cold = self.cold(cfg)
        assert cold != first and cold.q_star != first.q_star
        assert TestSolveSlot.bits(cold) == TestSolveSlot.bits(first)

    def test_the_no_adversary_solve_is_kept(self):
        cfg = reference_config()
        game._last_solve.clear()
        results = sweep_equilibria(cfg, np.linspace(0.0, 1.0, 11))
        hits, misses = game._last_solve.hits, game._last_solve.misses
        # the last solve is alpha = 1; alpha = 0 hits the second entry
        repeat = no_adversary_placement(cfg)
        assert (game._last_solve.hits, game._last_solve.misses) == (hits + 1, misses)
        assert repeat is results[0].q_star
        assert repeat.q.tobytes() == self.cold(cfg).q_star.q.tobytes()

    def test_the_record_is_read_by_field(self, builds):
        cfg = reference_config()
        results = sweep_equilibria(cfg, [0.0, 0.5, 1.0])
        record = game._last_solve.record
        assert isinstance(record, tuple)
        assert record.popularity is cfg.popularity and record.coverage is cfg.coverage
        assert record.table is builds.coverage[0]
        assert (len(builds.popularity), len(builds.coverage)) == (1, 1)
        # the last solve is alpha = 1, the no-adversary one alpha = 0
        assert record.last.placement is results[-1].q_star
        assert record.noadv.placement is results[0].q_star
        assert record.last.j_star == results[-1].j_star

    def test_clear_empties_both_entries(self, builds):
        cfg = reference_config()
        sweep_equilibria(cfg, [0.0, 1.0])
        game._last_solve.clear()
        assert game._last_solve.record is None
        # the table goes with the solves, so the same objects build it again
        equilibrium_placement(cfg)
        assert (game._last_solve.hits, game._last_solve.misses) == (0, 1)
        assert (len(builds.popularity), len(builds.coverage)) == (2, 2)

    def test_threads_solving_different_configs(self):
        configs = [make_config(0.0, zipf_popularity(50, z).probs, gamma, 7.0)
                   for z, gamma in ((0.7, [0.3, 0.6, 0.05, 0.05]), (1.1, [0.4, 0.3, 0.2, 0.1]))]
        alphas = [0.0, 0.2, 0.4, 0.6, 0.8]
        cold = [[self.cold(cfg.with_alpha(a)).q_star.q.tobytes() for a in alphas]
                for cfg in configs]
        # a solve that read the other config's table or entries would show
        assert all(map(operator.ne, *cold))
        solved = [[], []]

        def solve(k):
            for i in range(3000):
                res = equilibrium_placement(configs[k].with_alpha(alphas[i % 5]))
                solved[k].append(res.q_star.q.tobytes())

        # switch threads as often as the interpreter allows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(k,)) for k in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        wrong = [sum(map(operator.ne, got, want * 600)) for got, want in zip(solved, cold)]
        assert (list(map(len, solved)), wrong) == ([3000, 3000], [0, 0])

    def test_only_the_same_objects_hit(self, monkeypatch):
        calls = []
        for name in ("legit_rate", "adversary_rate"):
            monkeypatch.setattr(game, name, lambda *args, func=getattr(game, name), name=name:
                                calls.append(name) or func(*args))
        cfg = reference_config()
        equilibrium_placement(cfg)
        calls.clear()
        hits, misses = game._last_solve.hits, game._last_solve.misses
        equilibrium_placement(cfg.with_alpha(0.0))
        assert (game._last_solve.hits, calls) == (hits + 1, [])
        # equal bytes in fresh objects miss, and the rates are computed again
        equilibrium_placement(reference_config())
        assert game._last_solve.misses == misses + 1
        assert sorted(calls) == ["adversary_rate", "legit_rate"]


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
            uniform = float(rng.random() * rng.choice([1.0, 1e-6, 1e-3]))
            qs = np.clip(uniform + rng.normal(size=(a, n)) * rng.choice([1.0, 1e-9, 1e-17]),
                         0.0, 1.0)
            qs[0] = uniform                         # a row equal to uniform
            qs[-1, :n // 2] = uniform
            q_ref = rng.random(n)
            ref = Placement(q=q_ref, cache_size=n)
            for q in qs:
                expected = [np.abs(q - q_ref).max(), np.abs(q - uniform).max()]
                # the dist_noadv and dist_uniform cells; bytes, so that -0.0
                # and 0.0 differ
                cells = cli._threshold_cells(Placement(q=q, cache_size=n), ref, uniform)[3:]
                assert [np.float64(d).tobytes() for d in cells] == \
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
        ([0.5, 1.5], r"\[0, 1\]"), ([0.0, math.nan, 1.0], r"\[0, 1\]"),
        ([math.nan], r"\[0, 1\]"), ([0.0, 0.5], "do not match"),
    ], ids=["empty", "unsorted", "below_zero", "above_one", "nan_inside", "all_nan",
            "results_length"])
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


def stacked_thresholds(cfg, alpha_grid, results):
    """detect_thresholds computed on every placement at once, one row each
    of a rows x N matrix: the reference of the streaming scan."""
    alphas = np.asarray(alpha_grid, dtype=float)
    if alphas.size == 0:
        raise ValueError("alpha grid must be non-empty")
    if not np.all((alphas >= 0) & (alphas <= 1)):
        raise ValueError("alpha grid must lie in [0, 1]")
    if np.any(np.diff(alphas) < 0):
        raise ValueError("alpha grid must be sorted")
    if len(results) != alphas.size:
        raise ValueError("results do not match the alpha grid")
    qs = np.array([res.q_star.q for res in results])
    q_ref = no_adversary_placement(cfg).q
    uniform = min(cfg.cache_size / cfg.library.num_files, 1.0)
    dist_uniform = np.maximum(qs.max(axis=1) - uniform, uniform - qs.min(axis=1))
    dist_noadv = np.abs(qs - q_ref).max(axis=1)
    branched = np.flatnonzero(dist_noadv > DISTANCE_TOL)
    gathered = np.flatnonzero(dist_uniform <= DISTANCE_TOL)
    return game.ThresholdResult(
        alpha_thr_1=float(alphas[branched[0]]) if branched.size else None,
        alpha_thr_2=float(alphas[gathered[0]]) if gathered.size else None)


def threshold_instances():
    """Seeded (cfg, grid) pairs: Zipf, Dirichlet and tied popularities,
    grids that start at 0 or above it, a third with repeated alphas."""
    rng = np.random.default_rng(2401)
    cases = []
    for kind in ("zipf", "dirichlet", "tied"):
        for _ in range(15):
            n = int(rng.integers(1, 300))
            if kind == "zipf":
                probs = zipf_popularity(n, float(rng.choice([0.0, 0.4, 0.7, 1.2]))).probs
            elif kind == "dirichlet":
                probs = rng.dirichlet(np.full(n, float(rng.choice([0.3, 1.0, 5.0]))))
            else:
                counts = rng.integers(1, 4, n).astype(float)
                probs = counts / counts.sum()
            gamma = rng.dirichlet(np.ones(int(rng.integers(1, 5))))
            cache = float(rng.uniform(0.02, 1.0) * n)
            start = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.9))
            grid = np.round(np.sort(rng.uniform(start, 1.0, int(rng.integers(1, 25)))), 3)
            if start == 0.0:
                grid[0] = 0.0
            if rng.random() < 0.5:
                grid = np.append(grid, 1.0)
            if rng.random() < 0.3:
                grid = np.repeat(grid, rng.integers(1, 4, grid.size))
            cases.append((make_config(0.0, probs, gamma, cache), grid.tolist()))
    cfg = reference_config()
    cases += [(cfg, [0.0]), (cfg, [0.5]), (cfg, [1.0]), (cfg, [0.0, 0.0, 0.0]),
              (cfg, [0.0, 0.01, 0.02]), (cfg, [0.5, 0.5, 0.9, 0.95, 0.95, 1.0])]
    # caches so small that every placement is within DISTANCE_TOL of the
    # uniform one: gathering without branching
    cases += [(dataclasses.replace(cfg, cache_size=cache), [0.0, 0.5, 1.0])
              for cache in (1e-5, 1e-4)]
    cases += [(c, [0.0, 0.25, 0.25, 0.5, 1.0]) for c in tie_heavy_configs()[::4]]
    return cases


class TestThresholdScan:
    """The streaming detect_thresholds against the stacked reference."""

    @staticmethod
    def assert_same(cfg, grid, results):
        expected = stacked_thresholds(cfg, grid, results)
        for form in (list, tuple, np.array):
            # repr, so that the types and -0.0 count
            assert repr(detect_thresholds(cfg, form(grid), results)) == repr(expected)
        return expected

    def test_matches_the_stacked_reference(self):
        outcomes = set()
        for cfg, grid in threshold_instances():
            expected = self.assert_same(cfg, grid, sweep_equilibria(cfg, grid))
            outcomes.add((expected.alpha_thr_1 is None, expected.alpha_thr_2 is None))
        # branching and gathering each found and absent, in all four pairs
        assert outcomes == set(itertools.product([False, True], repeat=2))

    def test_shared_and_copied_rows(self):
        for cfg, grid in threshold_instances()[::3]:
            results = sweep_equilibria(cfg, grid)
            # one Placement object in every row, then equal arrays in
            # distinct objects
            for res in (results[0], results[-1]):
                self.assert_same(cfg, grid, [res] * len(grid))
            copies = [dataclasses.replace(res, q_star=Placement(
                q=res.q_star.q.copy(), cache_size=res.q_star.cache_size))
                for res in results]
            self.assert_same(cfg, grid, copies)

    def test_rows_near_the_tolerance(self):
        cfg = reference_config()
        n, cache = cfg.library.num_files, cfg.cache_size
        q_ref = no_adversary_placement(cfg).q
        base = equilibrium_placement(cfg)
        rng = np.random.default_rng(2402)
        for _ in range(60):
            rows = []
            for _ in range(int(rng.integers(1, 8))):
                centre = q_ref if rng.random() < 0.5 else cache / n
                # each row reaches about 0.5, 1 or 3 DISTANCE_TOL from its centre
                depth = rng.choice([0.5, 0.999, 1.0, 1.001, 3.0]) * DISTANCE_TOL
                q = np.clip(centre + rng.choice([-1.0, 1.0], n) * depth * rng.random(n),
                            0.0, 1.0)
                rows.append(dataclasses.replace(base, q_star=Placement(
                    q=q * min(1.0, cache / q.sum()), cache_size=cache)))
            grid = np.sort(rng.random(len(rows))).tolist()
            self.assert_same(cfg, grid, rows)

    def test_stops_at_the_second_threshold(self):
        class Unread:
            @property
            def q_star(self):
                raise AssertionError("read past the second threshold")

        cfg = reference_config()
        grid = [0.0, 0.5, 0.95, 0.97, 0.99]
        results = sweep_equilibria(cfg, grid)
        detection = detect_thresholds(cfg, grid, [*results[:3], Unread(), Unread()])
        assert detection == stacked_thresholds(cfg, grid, results)
        assert detection == game.ThresholdResult(alpha_thr_1=0.5, alpha_thr_2=0.95)

    @pytest.mark.parametrize("grid", [
        [], [0.5, 0.0], [-0.1, 0.5], [0.5, 1.5], [0.0, math.nan, 1.0], [math.nan],
        [0.0, 0.5], [0.0, 0.0]])
    def test_errors_match_the_reference(self, grid):
        cfg = reference_config()
        results = sweep_equilibria(cfg, [0.0])
        with pytest.raises(ValueError) as expected:
            stacked_thresholds(cfg, grid, results)
        for form in (list, tuple, np.array):
            with pytest.raises(ValueError) as got:
                detect_thresholds(cfg, form(grid), results)
            assert str(got.value) == str(expected.value)

    def test_runs_and_arrays_agree(self):
        # rows and references kept as runs, and the same ones copied to
        # plain arrays, in all four pairings: the same bits
        def copy(placement):
            return Placement(q=placement.q.copy(), cache_size=placement.cache_size)

        for cfg, grid in threshold_instances():
            results = sweep_equilibria(cfg, grid)
            ref = no_adversary_placement(cfg)
            for res in results:
                row = res.q_star
                spreads = {repr(a._spread(b)) for a in (row, copy(row))
                           for b in (ref, copy(ref))}
                assert len(spreads) == 1, (cfg, grid)

    def test_a_sweep_and_its_thresholds_build_no_placement(self):
        n = 20_000
        cfg = make_config(0.0, zipf_popularity(n, 0.7).probs, GAMMA_R45, n / 10)
        grid = np.linspace(0.0, 1.0, 101)
        game._last_solve.clear()
        equilibrium_placement(cfg.with_alpha(0.5))      # the table, built outside
        tracemalloc.start()
        try:
            results = sweep_equilibria(cfg, grid)
            detection = detect_thresholds(cfg, grid, results)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the fill's window (a gather and its running sums) at a time; the
        # 101 placements written out would take 16 MB
        assert peak < 4 * n * 8
        assert not any("q" in vars(res.q_star) for res in results)
        assert detection == stacked_thresholds(cfg, grid, results)

    def test_stacks_no_rows(self):
        n = 20_000
        cfg = make_config(0.0, zipf_popularity(n, 0.7).probs, GAMMA_R45, n / 10)
        grid = np.linspace(0.0, 1.0, 101)
        results = sweep_equilibria(cfg, grid)
        tracemalloc.start()
        try:
            detection = detect_thresholds(cfg, grid, results)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert detection == stacked_thresholds(cfg, grid, results)
        # a few N-vectors at a time; the 101 rows stacked take 16 MB
        assert peak < 8 * n * 8
