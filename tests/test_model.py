import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from cachegame import (CoverageProfile, GameConfig, LibraryConfig, Placement,
                       PopularityDist, quantize_placement, simulate,
                       zipf_popularity)
from cachegame.model import CONFIG_KEYS, MAX_FRAGMENTS, load_config

# head probability of the Zipf law for N=200, z=0.7, frozen from a
# 50-digit summation of the normalizing series (mpmath)
P1_N200_Z07 = 0.07368415812143838084


class TestZipfPopularity:
    def test_single_file(self):
        assert zipf_popularity(1, 0.7).probs.tolist() == [1.0]

    def test_zero_exponent_is_uniform(self):
        np.testing.assert_allclose(zipf_popularity(4, 0.0).probs, 0.25)

    def test_head_probability_matches_extended_precision_oracle(self):
        p = zipf_popularity(200, 0.7)
        assert p.probs[0] == pytest.approx(P1_N200_Z07, abs=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            zipf_popularity(0, 0.7)
        with pytest.raises(ValueError):
            zipf_popularity(10, -0.1)
        with pytest.raises(ValueError):
            zipf_popularity(10, float("nan"))

    @pytest.mark.parametrize("z", [True, False, None, "1", 1j, [0.7]],
                             ids=["true", "false", "none", "str", "complex", "list"])
    def test_rejects_an_exponent_that_is_no_real_number(self, z):
        # a bool is no exponent; the others are named, not met by a TypeError
        match = f"^Zipf exponent must be a real number, got {re.escape(repr(z))}$"
        with pytest.raises(ValueError, match=match):
            zipf_popularity(5, z)

    @pytest.mark.parametrize("z", [1, np.float64(0.7), np.int64(2), np.float32(0.5)])
    def test_numpy_and_integer_exponents_pass(self, z):
        expected = zipf_popularity(5, float(z)).probs
        assert zipf_popularity(5, z).probs.tolist() == expected.tolist()

    @pytest.mark.parametrize("z", [134.0, 150.0, 1e6])
    def test_large_exponent_leaves_the_tail_at_zero(self, z):
        # j^z overflows to inf for the tail files; that is weight 0, not a warning
        p = zipf_popularity(200, z).probs
        assert p[0] == 1.0 and p[-1] == 0.0
        assert np.all(np.diff(p) <= 0)

    @pytest.mark.parametrize("n,z", [(10, 0.0), (1000, 0.7), (100_000, 3.0)])
    def test_sums_to_one(self, n, z):
        assert zipf_popularity(n, z).probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_non_increasing(self):
        for z in (0.0, 0.3, 1.0, 2.5):
            p = zipf_popularity(500, z).probs
            assert np.all(np.diff(p) <= 0)


class TestQuantizePlacement:
    def test_exact_multiples(self):
        pl = Placement(q=[1.0, 0.5, 0.0], cache_size=1.5)
        assert quantize_placement(pl, 4, zipf_popularity(3, 1.0)).tolist() == [4, 2, 0]

    def test_exact_third(self):
        pl = Placement(q=[1 / 3], cache_size=1.0)
        assert quantize_placement(pl, 3, zipf_popularity(1, 1.0)).tolist() == [1]

    def test_capacity_repair(self):
        # rounding puts 5 packets on each file (15 total) but capacity is 14;
        # the least popular file (highest index) gives one back
        pl = Placement(q=[0.49, 0.49, 0.49], cache_size=1.47)
        m = quantize_placement(pl, 10, zipf_popularity(3, 1.0))
        assert m.tolist() == [5, 5, 4]
        assert m.sum() <= 14
        assert np.all(np.abs(m - 4.9) <= 1.1)

    def test_repair_uses_popularity_order(self):
        pl = Placement(q=[0.49, 0.49, 0.49], cache_size=1.47)
        pop = PopularityDist(probs=[0.2, 0.2, 0.6])
        m = quantize_placement(pl, 10, pop)
        # ties among the two least popular files break to the higher index
        assert m.tolist() == [5, 4, 5]

    def test_rejects_zero_fragments(self):
        with pytest.raises(ValueError):
            quantize_placement(Placement(q=[0.5], cache_size=1.0), 0,
                               zipf_popularity(1, 1.0))
        # 2.5 fragments rounded to [1, 1] packets
        with pytest.raises(ValueError, match="n must be an integer"):
            quantize_placement(Placement(q=[0.5, 0.5], cache_size=1.0), 2.5,
                               zipf_popularity(2, 1.0))

    @pytest.mark.parametrize("n", [MAX_FRAGMENTS + 1, 3 * 2**60, 10**20])
    def test_rejects_an_n_beyond_exact_rounding(self, n):
        # at 1e20 the int64 cast of the counts was invalid
        with pytest.raises(ValueError, match="n must lie in"):
            quantize_placement(Placement(q=[1.0, 0.5], cache_size=1.5), n,
                               zipf_popularity(2, 1.0))

    def test_largest_n_keeps_every_count_within_n(self):
        # at n = 2**61 - 1, a full file rounded to 2**61 packets
        pl = Placement(q=[1.0, 0.5, 0.25, 0.0], cache_size=1.75)
        m = quantize_placement(pl, MAX_FRAGMENTS, zipf_popularity(4, 1.0))
        assert m.tolist() == [MAX_FRAGMENTS, 2**51, 2**50, 0]

    def test_capacity_holds_for_a_total_beyond_int64(self):
        # every file rounds 2**49 + 0.75 packets up, and the 20 000 files
        # hold more than 2**63 packets, which int64 wrapped to a negative sum
        size, n = 20_000, 2**50
        q = np.full(size, (2**49 + 0.75) / n)
        pl = Placement(q=q, cache_size=q.sum())
        m = quantize_placement(pl, n, zipf_popularity(size, 1.0))
        assert sum(m.tolist()) > 2**63
        assert sum(m.tolist()) <= int(np.floor(pl.cache_size * n + 1e-9))
        assert set(m.tolist()) == {2**49, 2**49 + 1}

    def test_repair_takes_what_rounding_did_not_put_on(self):
        # within the capacity tolerance, sum q exceeds M by 5e-7, which at
        # n = 1e8 is 50 packets more than any rounding put on; the least
        # popular file gives them back
        pl = Placement(q=[0.5, 0.5], cache_size=1.0 - 5e-7)
        m = quantize_placement(pl, 10**8, zipf_popularity(2, 1.0))
        assert m.tolist() == [50_000_000, 49_999_950]
        assert sum(m.tolist()) == int(np.floor(pl.cache_size * 10**8 + 1e-9))

    def test_rejects_popularity_of_another_size(self):
        with pytest.raises(ValueError, match="popularity size"):
            quantize_placement(Placement(q=[0.5, 0.5], cache_size=1.0), 4,
                               zipf_popularity(3, 1.0))

    def test_never_exceeds_capacity_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            size = rng.integers(1, 20)
            q = rng.random(size)
            cache = q.sum() + rng.random() * 2
            n = int(rng.integers(1, 60))
            m = quantize_placement(Placement(q=q, cache_size=cache), n,
                                   zipf_popularity(size, 1.0))
            assert m.sum() <= int(np.floor(cache * n + 1e-9))
            assert np.all(np.abs(m / n - q) <= 2.0 / n + 1e-12)

    def test_round_trip_fixed_point(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            q = rng.random(8)
            pl = Placement(q=q, cache_size=q.sum() + 0.5)
            n = int(rng.integers(1, 40))
            pop = zipf_popularity(8, 1.0)
            m = quantize_placement(pl, n, pop)
            again = quantize_placement(Placement(q=m / n, cache_size=pl.cache_size), n, pop)
            assert np.array_equal(m, again)


class TestTypes:
    def test_popularity_must_normalize(self):
        with pytest.raises(ValueError):
            PopularityDist(probs=[0.5, 0.4])
        with pytest.raises(ValueError):
            PopularityDist(probs=[1.2, -0.2])

    def test_placement_bounds(self):
        with pytest.raises(ValueError):
            Placement(q=[1.2], cache_size=2.0)
        with pytest.raises(ValueError):
            Placement(q=[0.9, 0.9], cache_size=1.0)
        with pytest.raises(ValueError):
            Placement(q=[np.nan], cache_size=1.0)
        with pytest.raises(ValueError):
            Placement(q=[0.5], cache_size=np.nan)
        # M / N divided by zero; then it is NaN or negative, and the cache
        # size is at fault
        with pytest.raises(ValueError, match="^num_files must be >= 1, got 0$"):
            Placement.uniform(0, 5.0)
        for num_files, cache in [(4, np.nan), (3, -1.0)]:
            with pytest.raises(ValueError, match="cache size must be positive"):
                Placement.uniform(num_files, cache)
        # an infinite cache, or a cache size that is no real number, is
        # named as the fault, not met by the comparison's TypeError
        for cache in [np.inf, None, "3", [1.0], True, 1j]:
            match = f"^cache size must be positive and finite, got {re.escape(repr(cache))}$"
            with pytest.raises(ValueError, match=match):
                Placement(q=[0.5], cache_size=cache)
            with pytest.raises(ValueError, match=match):
                Placement.uniform(4, cache)
        # numpy's numbers pass
        for cache in [np.float64(1.5), np.int64(2), np.float32(0.5)]:
            assert Placement(q=[0.5], cache_size=cache).cache_size == cache

    @staticmethod
    def runs(values, counts, cache_size=2.0):
        """A placement of the runs over three files, popularity order 2, 0, 1."""
        order = np.array([2, 0, 1])
        return Placement._from_runs(values, counts, tuple(itertools.accumulate(counts)),
                                    order, np.argsort(order),
                                    np.minimum.accumulate(order[::-1])[::-1],
                                    np.maximum.accumulate(order), cache_size)

    def test_runs_placement(self):
        values, counts = (1.0, 0.25), (1, 2)
        placement = self.runs(values, counts)
        # the tuples are kept as given, not copied
        assert placement._runs.values is values and placement._runs.counts is counts
        # num_files and single entries are read off the runs; q is built on
        # first read, once, read-only
        assert placement.num_files == 3
        assert [placement._entry(j) for j in range(3)] == [0.25, 0.25, 1.0]
        assert placement._argmin() == 0
        assert "q" not in vars(placement)
        q = placement.q
        assert q.tolist() == [0.25, 0.25, 1.0] and not q.flags.writeable
        assert placement.q is q
        with pytest.raises(AttributeError, match="'Placement' object has no attribute 'p'"):
            placement.p
        # entries within PROB_TOL of the box are clipped as q's are
        assert self.runs((1 + 1e-10, -1e-10), (2, 1)).q.tolist() == [1.0, 0.0, 1.0]

    @pytest.mark.parametrize("values, counts, cache, match", [
        ((1.2, 0.0), (1, 2), 2.0, r"\[0, 1\]"),
        ((1.0, -0.1), (1, 2), 2.0, r"\[0, 1\]"),
        ((1.0, np.nan), (1, 2), 2.0, r"\[0, 1\]"),
        ((np.nan, 0.5), (1, 2), 2.0, r"\[0, 1\]"),
        # min and max step over it; the capacity sum does not
        ((1.0, np.nan, 0.5), (1, 1, 1), 2.0, r"\[0, 1\]"),
        # 1 + 2 * 0.5 + 2e-6 > M + CAPACITY_TOL
        ((1.0, 0.5 + 1e-6), (1, 2), 2.0, "exceeds cache capacity"),
        ((1.0, 0.5), (1, 1), 2.0, "cover every file once"),
        ((1.0, 0.5, 0.0), (1, 2, 0), 2.0, "cover every file once"),
        ((1.0,), (1, 2), 2.0, "cover every file once"),
        ((1.0, 0.5), (1, 2), np.inf, "cache size must be positive and finite"),
    ], ids=["above_one", "below_zero", "nan_last", "nan_first", "nan_in_middle",
            "over_capacity",
            "too_few_files", "an_empty_run", "fewer_values", "infinite_cache"])
    def test_runs_placement_rejects(self, values, counts, cache, match):
        with pytest.raises(ValueError, match=match):
            self.runs(values, counts, cache)

    @pytest.mark.parametrize("q", [
        [0.5, np.nan, 0.5], [0.2, 0.3, np.nan], [0.5, np.inf], [0.5, -np.inf],
        [0.5, 1 + 2e-9],
    ], ids=["nan_in_middle", "nan_last", "plus_inf", "minus_inf", "past_one"])
    def test_placement_rejects(self, q):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Placement(q=q, cache_size=3.0)

    @pytest.mark.parametrize("q", [[], [[0.1]]], ids=["empty", "2d"])
    def test_placement_must_be_a_nonempty_vector(self, q):
        with pytest.raises(ValueError, match="non-empty vector"):
            Placement(q=q, cache_size=1.0)

    @pytest.mark.parametrize("raw", [
        [-1e-10, 0.5, 1 + 1e-10, -0.0], [-0.0, 0.25, 1.0], [0.0, 1.0],
    ], ids=["outside", "minus_zero_inside", "inside"])
    def test_placement_stores_the_clipped_entries(self, raw):
        q = Placement(q=raw, cache_size=3.0).q
        clipped = np.clip(raw, 0.0, 1.0)
        assert q.tolist() == clipped.tolist()
        assert np.signbit(q).tolist() == np.signbit(clipped).tolist()
        if raw[0] == -1e-10:
            assert q.tolist() == [0.0, 0.5, 1.0, 0.0]

    def test_popularity_rejects_nan_between_masses(self):
        with pytest.raises(ValueError):
            PopularityDist(probs=[0.5, np.nan, 0.5])

    def test_library_validation(self):
        with pytest.raises(ValueError):
            LibraryConfig(num_files=0)

    @pytest.mark.parametrize("build", [
        lambda n: LibraryConfig(num_files=n), lambda n: zipf_popularity(n, 0.7),
    ], ids=["library", "zipf"])
    @pytest.mark.parametrize("size", [2.5, 3.0, True, np.float64(3.0), "3"])
    def test_library_size_must_be_an_integer(self, build, size):
        with pytest.raises(ValueError, match="num_files must be an integer"):
            build(size)

    @pytest.mark.parametrize("size", [3, np.int64(3), np.uint8(3)])
    def test_numpy_integer_library_sizes_pass(self, size):
        assert LibraryConfig(num_files=size).num_files == 3
        assert zipf_popularity(size, 0.7).num_files == 3

    @pytest.mark.parametrize("alpha, cache, num_probs, match", [
        (-0.1, 2.0, 4, "alpha"), (1.1, 2.0, 4, "alpha"), (0.5, 0.0, 4, "0 < M < N"),
        (0.5, 4.0, 4, "0 < M < N"), (0.5, 2.0, 5, "popularity size"),
    ], ids=["alpha_below_zero", "alpha_above_one", "no_cache", "cache_holds_library",
            "popularity_size"])
    def test_game_config_validation(self, alpha, cache, num_probs, match):
        fields = dict(library=LibraryConfig(num_files=4),
                      popularity=zipf_popularity(num_probs, 0.7),
                      coverage=CoverageProfile(gamma=[1.0]))
        with pytest.raises(ValueError, match=match):
            GameConfig(alpha=alpha, cache_size=cache, **fields)
        if match == "alpha":
            # with_alpha goes through the same checks
            with pytest.raises(ValueError, match=match):
                GameConfig(alpha=0.5, cache_size=cache, **fields).with_alpha(alpha)

    @pytest.mark.parametrize("field, value, match", [
        ("cache_size", True, "cache size"), ("cache_size", "3", "cache size"),
        ("cache_size", None, "cache size"), ("cache_size", math.nan, "cache size"),
        ("alpha", True, "alpha must be a real number"), ("alpha", np.True_, "alpha"),
        ("alpha", "0.5", "alpha must be a real number"), ("alpha", None, "alpha"),
        ("alpha", math.nan, "alpha must lie"),
    ])
    def test_game_config_field_types(self, field, value, match):
        cfg = GameConfig(alpha=0.5, library=LibraryConfig(num_files=4),
                         popularity=zipf_popularity(4, 0.7),
                         coverage=CoverageProfile(gamma=[1.0]), cache_size=2.0)
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(cfg, **{field: value})
        # numpy's numbers and Python ints pass
        for alpha, cache in [(np.float64(0.5), np.int64(2)), (np.float32(0.25), 3),
                             (0, np.float32(1.5)), (1, 2)]:
            assert dataclasses.replace(cfg, alpha=alpha, cache_size=cache).alpha == alpha

    def test_placements_compare_and_hash_by_identity(self):
        # comparing the entries of two placements is comparing their q arrays
        a = Placement(q=[0.5, 0.25], cache_size=1.0)
        b = Placement(q=[0.5, 0.25], cache_size=1.0)
        runs = self.runs((1.0, 0.25), (1, 2))
        assert a == a and a != b and runs == runs
        assert hash(a) == hash(a) and len({a, b, runs}) == 3

    def test_types_are_immutable(self):
        p = zipf_popularity(5, 1.0)
        with pytest.raises(ValueError):
            p.probs[0] = 0.9


def _simulated(n=3, num_requests=3, seed=3):
    """The report of a 3-file simulation as plain numbers."""
    cfg = GameConfig(alpha=0.5, library=LibraryConfig(num_files=3),
                     popularity=zipf_popularity(3, 0.7),
                     coverage=CoverageProfile(gamma=[0.5, 0.5]), cache_size=1.5)
    report = simulate(np.array([2, 1, 0]), cfg, n, num_requests, seed=seed)
    return (report.requests, report.backhaul_fraction_mean,
            report.per_coverage_counts.tolist())


# every integer count the library takes, by the name its errors give it;
# each gives a plain value to compare at the count 3
COUNT_INPUTS = {
    "library_num_files": ("num_files", lambda v: LibraryConfig(num_files=v).num_files),
    "zipf_num_files": ("num_files", lambda v: zipf_popularity(v, 0.7).probs.tolist()),
    "uniform_num_files": ("num_files", lambda v: Placement.uniform(v, 1.5).q.tolist()),
    "quantize_n": ("n", lambda v: quantize_placement(
        Placement(q=[0.5, 0.5, 0.5], cache_size=1.5), v,
        zipf_popularity(3, 0.7)).tolist()),
    "simulate_n": ("n", lambda v: _simulated(n=v)),
    "simulate_num_requests": ("num_requests", lambda v: _simulated(num_requests=v)),
    "simulate_seed": ("seed", lambda v: _simulated(seed=v)),
}


@pytest.mark.parametrize("name, call", COUNT_INPUTS.values(), ids=COUNT_INPUTS.keys())
class TestCountContract:
    # True served one fragment per file and seeded the simulator with 1;
    # a float seed raised numpy's TypeError
    @pytest.mark.parametrize("value", [True, np.True_, 2.5, np.float64(3.0), "3"],
                             ids=["bool", "numpy_bool", "float", "numpy_float", "str"])
    def test_rejects_what_is_not_an_integer(self, name, call, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(value)

    @pytest.mark.parametrize("value", [np.int64(3), np.uint8(3)],
                             ids=["int64", "uint8"])
    def test_numpy_integers_pass(self, name, call, value):
        assert call(value) == call(3)

    def test_range_message_names_the_value(self, name, call):
        with pytest.raises(ValueError, match=f"^{name} must .*, got -1$"):
            call(-1)


# a mixed strategy of the adversaries is a PopularityDist too, rated by legit_rate
@pytest.mark.parametrize("cls, field", [
    (PopularityDist, "probs"), (CoverageProfile, "gamma"), (PopularityDist, "probs"),
], ids=["popularity", "coverage", "strategy"])
class TestProbabilityVector:
    def test_accepts_a_distribution_read_only(self, cls, field):
        arr = getattr(cls(**{field: [0.25, 0.75]}), field)
        assert arr.tolist() == [0.25, 0.75]
        assert not arr.flags.writeable

    @pytest.mark.parametrize("values", [
        [np.nan], [1.0, np.nan], [1.2, -0.2], [0.5, 0.4], [], [[0.5, 0.5]],
    ], ids=["nan", "nan_after_mass", "negative", "sum_below_one", "empty", "2d"])
    def test_rejects(self, cls, field, values):
        with pytest.raises(ValueError):
            cls(**{field: values})


class TestConfigFile:
    def test_schema_types_and_order(self):
        # the schema is read off the defaults: a default written as `20`
        # would silently turn cache_size into an int key
        assert list(CONFIG_KEYS.items()) == [
            ("num_files", int), ("zipf_exponent", float), ("cache_size", float),
            ("alpha", float), ("fragments_per_file", int), ("mbs_radius_m", float),
            ("sbs_spacing_m", float), ("sbs_radius_m", float),
            ("user_density_per_m2", float), ("seed", int),
        ]

    def test_defaults_without_file(self):
        cfg = load_config()
        assert cfg["num_files"] == 200
        assert cfg["zipf_exponent"] == 0.7

    def test_parse_and_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment setup\n"
            "num_files = 50\n"
            "alpha: 0.4\n"
            "sbs_radius_m = 50\n"
        )
        cfg = load_config(path, overrides={"alpha": 0.9})
        assert cfg["num_files"] == 50
        assert cfg["alpha"] == 0.9
        assert cfg["sbs_radius_m"] == 50.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("radius = 3\n")
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize("line, match", [
        ("num_files 50", "expected 'key = value'"), ("num_files = 2.5", "bad value"),
    ], ids=["no_separator", "bad_value"])
    def test_malformed_line_names_path_and_line(self, tmp_path, line, match):
        path = tmp_path / "run.cfg"
        path.write_text(f"# header\n{line}\n")
        with pytest.raises(ValueError, match=match) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}:2: ")

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown config key 'radius'"):
            load_config(overrides={"radius": 3.0})
