import argparse
import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cachegame import cli, game, model, simulator
from cachegame.cli import PARSER, build_game_config, main, parse_grid
from cachegame.model import Placement, load_config, zipf_popularity


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text(
        "num_files = 40\n"
        "zipf_exponent = 0.7\n"
        "cache_size = 6\n"
        "alpha = 0.3\n"
        "fragments_per_file = 50\n"
        "sbs_radius_m = 45\n"
        "seed = 11\n"
    )
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


@pytest.fixture
def calls(monkeypatch):
    """Call counts of equilibrium_placement, no_adversary_placement,
    evaluate, quantize_placement and zipf_popularity, and of the solver's
    table builds: _popularity_half builds a popularity half and _segments
    a coverage half."""
    counts = {"equilibrium_placement": 0, "no_adversary_placement": 0,
              "evaluate": 0, "quantize_placement": 0, "zipf_popularity": 0,
              "_popularity_half": 0, "_segments": 0}

    def count(name, *modules):
        # patch every namespace that may hold the function, so a call
        # through an import in another module is counted too
        original = getattr(modules[0], name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)

    count("equilibrium_placement", game)
    count("no_adversary_placement", game)
    count("evaluate", game)
    count("quantize_placement", model, simulator, cli)
    count("zipf_popularity", model, cli)
    count("_popularity_half", game)
    count("_segments", game)
    return counts


class TestParseGrid:
    def test_range_form(self):
        assert parse_grid("0:1:0.5") == [0.0, 0.5, 1.0]

    def test_list_form(self):
        assert parse_grid("45,50,55,60") == [45.0, 50.0, 55.0, 60.0]

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            parse_grid("1:0:0.5")
        with pytest.raises(ValueError):
            parse_grid("3,2,1")

    @pytest.mark.parametrize("text, grid", [
        ("0:1:0.6", [0.0, 0.6]),
        ("45:60:10", [45.0, 55.0]),
        ("10:40:18", [10.0, 28.0]),
        ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
        ("0:1:0.33333333334", [0.0, 0.33333333334, 0.66666666668, 1.0]),
    ])
    def test_range_never_passes_its_stop(self, text, grid):
        assert parse_grid(text) == grid

    @pytest.mark.parametrize("text", [
        "0,nan,1", "0,1,inf", "nan", "nan:1:0.5", "0:inf:0.5", "-inf:0:0.5",
        "0:1:nan",
    ])
    def test_rejects_non_finite_entries(self, text):
        with pytest.raises(ValueError):
            parse_grid(text)

    @pytest.mark.parametrize("text", ["0:1", "0:1:0.5:2", ","])
    def test_rejects_malformed_grids(self, text):
        with pytest.raises(ValueError):
            parse_grid(text)

    @pytest.mark.parametrize("text", [
        "0:1e300:1e-300", "0:1:1e-320", "0:1000000:1",
    ])
    def test_caps_the_number_of_points(self, text):
        with pytest.raises(ValueError, match="more than 1000000 points"):
            parse_grid(text)

    def test_largest_grid(self):
        assert len(parse_grid("0:999999:1")) == cli.MAX_GRID_POINTS

    def test_defaults_are_parsed_once(self, monkeypatch, capsys):
        calls = []

        def counting(text):
            calls.append(text)
            return parse_grid(text)
        monkeypatch.setattr(cli, "parse_grid", counting)
        assert main(["gamma"]) == 0
        assert calls == []

    def test_string_defaults_are_parsed(self):
        # argparse applies `type` to a string default
        args = PARSER.parse_args(["sweep-alpha"])
        assert len(args.alpha_grid) == 101
        assert all(isinstance(a, float) for a in args.alpha_grid)
        assert args.r_grid == [45.0, 50.0, 55.0, 60.0]
        assert args.cache_grid == [10.0, 20.0, 30.0, 40.0]


class TestGamma:
    def test_schema(self, config_path, tmp_path):
        out = tmp_path / "gamma.csv"
        assert main(["gamma", "--config", str(config_path), "--out", str(out),
                     "--samples", "50000"]) == 0
        rows = read_csv(out)
        assert rows[0] == ["d", "area_m2", "gamma"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4"]
        total = sum(float(r[2]) for r in rows[1:])
        assert total == pytest.approx(1.0, abs=1e-5)


class TestPlacement:
    def test_row_layout(self, config_path, tmp_path):
        out = tmp_path / "placement.csv"
        assert main(["placement", "--config", str(config_path), "--out", str(out),
                     "--samples", "50000"]) == 0
        rows = read_csv(out)
        assert rows[0][:5] == ["alpha", "R_total", "R_legit", "R_adv", "j_star"]
        assert rows[0][5:] == [f"q_{j}" for j in range(1, 41)]
        assert len(rows) == 2
        assert float(rows[1][0]) == 0.3


class TestSweepAlpha:
    def test_endpoints_and_sandwich(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-alpha", "--config", str(config_path), "--out", str(out),
                     "--samples", "50000", "--alpha-grid", "0:1:0.25"]) == 0
        rows = read_csv(out)
        header = rows[0]
        assert header == ["alpha", "R_total", "R_legit", "R_adv", "j_star",
                          "R_ref_noadv", "R_ref_uniform"]
        data = rows[1:]
        assert len(data) == 5
        first, last = data[0], data[-1]
        # endpoint consistency with the reference columns
        assert float(first[1]) == pytest.approx(float(first[5]), abs=1e-6)
        assert float(last[1]) == pytest.approx(float(last[6]), abs=1e-6)
        for row in data:
            assert float(row[1]) <= float(row[5]) + 1e-6
            assert float(row[1]) <= float(row[6]) + 1e-6

    def test_base_is_rated_once(self, config_path, calls):
        # the alpha = 0 base is off the grid: one extra solve, whose own
        # rates R_ref_noadv mixes, and no second rating
        assert main(["sweep-alpha", "--config", str(config_path),
                     "--alpha-grid", "0.2:1:0.1"]) == 0
        assert calls["evaluate"] == 0
        assert calls["equilibrium_placement"] == 9 + 1

    def test_deterministic_bytes(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep-alpha", "--config", str(config_path), "--samples", "50000",
                "--alpha-grid", "0:1:0.5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSweepR:
    def test_rate_decreases_with_radius(self, config_path, tmp_path):
        out = tmp_path / "radii.csv"
        assert main(["sweep-r", "--config", str(config_path), "--out", str(out),
                     "--samples", "100000", "--r-grid", "45,60"]) == 0
        rows = read_csv(out)
        assert rows[0][0] == "r_m"
        rates = [float(r[5]) for r in rows[1:]]
        assert rates[1] < rates[0]

    def test_every_radius_is_checked_before_solving(self, capsys, calls):
        # at the default spacing of 60 m, radii past 60 m are invalid
        assert main(["sweep-r", "--r-grid", "45:100:5"]) == 2
        assert capsys.readouterr().err.startswith("error: sbs_radius")
        assert calls["equilibrium_placement"] == 0

    def test_one_popularity_per_sweep(self, capsys, calls):
        assert main(["sweep-r", "--r-grid", "43:60:0.5"]) == 0
        assert calls["zipf_popularity"] == 1
        assert calls["equilibrium_placement"] == 35
        # each radius builds only the coverage half of its segment table
        assert (calls["_popularity_half"], calls["_segments"]) == (1, 35)

    def test_one_level_grid_per_sweep(self, capsys, calls):
        # the level grid depends on S alone: the 35 coverage profiles and the
        # 35 coverage halves of the sweep derive it once and share it
        model._level_grid.cache_clear()
        assert main(["sweep-r", "--r-grid", "43:60:0.5"]) == 0
        assert calls["_segments"] == 35
        info = model._level_grid.cache_info()
        assert (info.misses, info.hits) == (1, 69)

    def test_config_radius_is_never_read(self, capsys):
        # the grid sets every radius, so an invalid config radius is unused
        assert main(["sweep-r", "--r-grid", "45,50"]) == 0
        expected = capsys.readouterr()
        assert main(["sweep-r", "--sbs_radius_m", "-5", "--r-grid", "45,50"]) == 0
        assert capsys.readouterr() == expected


class TestSweepCache:
    def test_rate_decreases_with_cache(self, config_path, tmp_path):
        out = tmp_path / "cache.csv"
        assert main(["sweep-cache", "--config", str(config_path), "--out", str(out),
                     "--samples", "50000", "--cache-grid", "4,8,16"]) == 0
        rows = read_csv(out)
        rates = [float(r[1]) for r in rows[1:]]
        assert rates == sorted(rates, reverse=True)

    def test_every_cache_size_is_checked_before_solving(self, capsys, calls):
        # the default library has 200 files, so M = 200 and beyond are invalid
        assert main(["sweep-cache", "--cache-grid", "10:300:10"]) == 2
        assert capsys.readouterr().err.startswith("error: cache size")
        assert calls["equilibrium_placement"] == 0
        # the first grid point too
        assert main(["sweep-cache", "--cache-grid", "0,10"]) == 2
        assert capsys.readouterr().err.startswith("error: cache size")
        assert calls["equilibrium_placement"] == 0

    def test_config_cache_size_is_never_read(self, capsys):
        # the grid sets every cache size, so the default M = 20, too large
        # for a 3-file library, is unused
        assert main(["sweep-cache", "--num_files", "3", "--cache-grid", "1,2"]) == 0
        expected = capsys.readouterr()
        assert main(["sweep-cache", "--num_files", "3", "--cache_size", "1",
                     "--cache-grid", "1,2"]) == 0
        assert capsys.readouterr() == expected


class TestThresholds:
    def test_summary_and_trajectories(self, config_path, tmp_path, capsys):
        out = tmp_path / "thr.csv"
        assert main(["thresholds", "--config", str(config_path), "--out", str(out),
                     "--samples", "50000", "--alpha-grid", "0:1:0.1"]) == 0
        printed = capsys.readouterr().out
        assert "alpha_thr_1" in printed and "alpha_thr_2" in printed
        rows = read_csv(out)
        assert rows[0] == ["alpha", "q_min", "q_max", "q_mu", "dist_noadv",
                           "dist_uniform", "R_total"]
        first, last = rows[1], rows[-1]
        assert float(first[1]) == 0.0  # q_min at alpha = 0
        uniform = 6 / 40
        assert float(last[1]) == pytest.approx(uniform, abs=1e-4)
        assert float(last[2]) == pytest.approx(uniform, abs=1e-4)

    def test_three_points_make_five_solves(self, tmp_path, calls):
        assert main(["thresholds", "--alpha-grid", "0,0.5,1",
                     "--out", str(tmp_path / "thr.csv")]) == 0
        # three grid solves plus the no-adversary solve in detect_thresholds
        # and the one in cmd_thresholds
        assert calls["equilibrium_placement"] == 5
        assert calls["no_adversary_placement"] == 2

    def test_three_points_rate_three_placements(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(game, "legit_rate", lambda *args, func=game.legit_rate:
                            calls.append(1) or func(*args))
        assert main(["thresholds", "--alpha-grid", "0,0.5,1",
                     "--out", str(tmp_path / "thr.csv")]) == 0
        # both no-adversary solves reuse the grid's alpha = 0 solve
        assert len(calls) == 3

    def test_one_point_grid_has_no_thresholds(self, config_path, tmp_path, capsys):
        assert main(["thresholds", "--config", str(config_path), "--out",
                     str(tmp_path / "thr.csv"), "--samples", "10000",
                     "--alpha-grid", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "alpha_thr_1: no branching on the grid",
            "alpha_thr_2: no gathering on the grid",
        ]


def threshold_rows_oracle(qs, q_ref, q_uni):
    """The q_min, q_max, q_mu, dist_noadv and dist_uniform of each placement,
    one row at a time, as cmd_thresholds computed them before it stacked the
    placements."""
    rows = []
    for q in qs:
        nonzero = np.nonzero(q > 1e-9)[0]
        q_mu = q[nonzero[-1]] if nonzero.size else 0.0
        rows.append([q.min(), q.max(), q_mu, np.max(np.abs(q - q_ref)),
                     np.max(np.abs(q - q_uni))])
    return rows


def threshold_cells(qs, q_ref, uniform):
    """cli._threshold_cells of each row of qs, all wrapped in placements."""
    cache = qs.shape[1]
    ref = Placement(q=q_ref, cache_size=cache)
    return [cli._threshold_cells(Placement(q=q, cache_size=cache), ref, uniform)
            for q in qs]


class TestThresholdColumns:
    @staticmethod
    def random_stacks():
        rng = np.random.default_rng(1414)
        for _ in range(200):
            a, n = int(rng.integers(1, 12)), int(rng.integers(1, 60))
            qs = rng.random((a, n)) * rng.choice([1.0, 1e-8, 1e-3])
            # exact zeros, entries at the 1e-9 cut-off and a row with nothing
            # above it
            qs[rng.random((a, n)) < 0.3] = 0.0
            qs[rng.random((a, n)) < 0.1] = 1e-9
            qs[int(rng.integers(a))] *= 1e-10
            uniform = float(rng.choice([qs.mean(), rng.random(), 1e-9, 0.0]))
            yield qs, rng.random(n), uniform

    def test_match_the_row_loop(self):
        for qs, q_ref, uniform in self.random_stacks():
            expected = threshold_rows_oracle(qs, q_ref, np.full(qs.shape[1], uniform))
            rows = threshold_cells(qs, q_ref, uniform)
            assert rows == [[float(v) for v in row] for row in expected]
            assert [[cli._fmt(v) for v in row] for row in rows] == \
                [[cli._fmt(v) for v in row] for row in expected]

    def test_a_row_with_nothing_above_the_cut_off_has_q_mu_0(self):
        qs = np.array([[1e-9, 0.0, 5e-10], [0.3, 1e-9, 0.2]])
        assert [row[2] for row in threshold_cells(qs, np.zeros(3), 0.1)] == [0.0, 0.2]
        # the same rows kept as runs, popularity order 0, 2, 1: the last file
        # above the cut-off is the largest index in a prefix of the order
        order = np.array([0, 2, 1])
        runs = [Placement._from_runs(values, counts, (1, 2, 3), order, np.argsort(order),
                                     np.minimum.accumulate(order[::-1])[::-1],
                                     np.maximum.accumulate(order), 1.0)
                for values, counts in (((1e-9, 5e-10, 0.0), (1, 1, 1)),
                                       ((0.3, 0.2, 1e-9), (1, 1, 1)))]
        assert [placement._last_above(1e-9) for placement in runs] == [0.0, 0.2]

    def test_runs_rows_match_their_arrays(self):
        # the solver's placements are kept as runs; the same ones copied to
        # arrays take the other path of every cell, with the same bits
        def copy(placement):
            return Placement(q=placement.q.copy(), cache_size=placement.cache_size)

        base = build_game_config(load_config())
        for cfg in (base, dataclasses.replace(base, cache_size=1e-8),
                    dataclasses.replace(base, popularity=zipf_popularity(200, 0.0))):
            alphas = parse_grid("0:1:0.01")
            ref = game.no_adversary_placement(cfg)
            uniform = cfg.cache_size / cfg.library.num_files
            for res in game.sweep_equilibria(cfg, alphas):
                cells = cli._threshold_cells(res.q_star, ref, uniform)
                assert repr(cells) == repr(cli._threshold_cells(copy(res.q_star), copy(ref),
                                                                uniform))

    def test_q_mu_0_branch_keeps_its_bytes(self, capsys):
        # the cache is so small that no file holds more than 1e-9
        assert main(["thresholds", "--cache_size", "1e-8", "--alpha-grid", "0,1"]) == 0
        assert capsys.readouterr().out == (
            "alpha_thr_1: no branching on the grid\n"
            "alpha_thr_2 = 0.000000\n"
            "alpha,q_min,q_max,q_mu,dist_noadv,dist_uniform,R_total\n"
            "0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,1.000000\n"
            "1.000000,0.000000,0.000000,0.000000,0.000000,0.000000,1.000000\n")


class TestSimulate:
    def test_z_scores_small(self, config_path, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(config_path), "--out", str(out),
                     "--samples", "50000", "--alpha-grid", "0,0.5,1",
                     "--requests", "20000"]) == 0
        rows = read_csv(out)
        assert rows[0][:4] == ["alpha", "requests", "mean", "stderr"]
        for row in rows[1:]:
            assert abs(float(row[-1])) <= 4.0

    def test_one_request_is_rejected(self, config_path, capsys):
        assert main(["simulate", "--config", str(config_path),
                     "--alpha-grid", "0.5", "--requests", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --requests must lie in [2, ")
        assert err.rstrip().endswith("got 1")

    @pytest.mark.parametrize("requests", ["1", "9223372036854775808"])
    def test_request_count_is_checked_before_solving(self, config_path, capsys,
                                                     calls, requests):
        assert main(["simulate", "--config", str(config_path),
                     "--alpha-grid", "0,0.5", "--requests", requests]) == 2
        assert capsys.readouterr().err.startswith("error: --requests")
        assert calls["equilibrium_placement"] == 0

    @pytest.mark.parametrize("key, value", [
        ("fragments_per_file", "0"), ("seed", "-1"),
        # past 2**52 rounding the packet counts in float64 can exceed n; at
        # 3 * 2**60 the simulator's int64 deficit wrapped, at 1e20 the
        # counts' int64 cast did
        ("fragments_per_file", str(model.MAX_FRAGMENTS + 1)),
        ("fragments_per_file", str(3 * 2**60)),
        ("fragments_per_file", str(10**20)),
    ])
    def test_simulator_inputs_are_checked_before_solving(self, config_path, capsys,
                                                         calls, key, value):
        assert main(["simulate", "--config", str(config_path),
                     "--alpha-grid", "0,0.5", f"--{key}", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must ")
        assert err.rstrip().endswith(f"got {value}")
        assert calls["equilibrium_placement"] == 0

    def test_largest_fragment_count_runs(self, config_path, capsys):
        assert main(["simulate", "--config", str(config_path), "--alpha-grid",
                     "0,0.3,1", "--fragments_per_file", str(model.MAX_FRAGMENTS)]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 3
        for row in rows:
            # n packets per file deploy q* to within 1/n
            assert row["analytic_mn"] == row["analytic_q"]
            assert abs(float(row["z_score"])) <= 4.0

    def test_fragment_count_past_the_rounding_runs(self, capsys):
        # sum q* exceeds M by more packets than rounding puts on at this n
        assert main(["simulate", "--cache_size", "10", "--zipf_exponent", "1.2",
                     "--fragments_per_file", "4503599627370496",
                     "--alpha-grid", "0"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [row["analytic_mn"] for row in rows] == [rows[0]["analytic_q"]]

    # with half a file of cache and one fragment per file nothing is
    # deployed, so every request costs 1 and the standard error is 0
    EMPTY_CACHE = ["--cache_size", "0.5", "--fragments_per_file", "1",
                   "--alpha-grid", "0,1", "--requests", "100"]

    def test_zero_stderr_and_exact_match(self, config_path, capsys):
        assert main(["simulate", "--config", str(config_path),
                     *self.EMPTY_CACHE]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        for row in rows[1:]:
            assert (row[2], row[3], row[-2], row[-1]) == (
                "1.000000", "0.000000", "1.000000", "0.000000")

    def test_zero_stderr_and_a_gap(self, config_path, capsys, monkeypatch):
        simulate = simulator.simulate

        def off_by_half(*args, **kwargs):
            report = simulate(*args, **kwargs)
            return dataclasses.replace(report, backhaul_fraction_mean=0.5)
        monkeypatch.setattr(simulator, "simulate", off_by_half)
        assert main(["simulate", "--config", str(config_path),
                     *self.EMPTY_CACHE]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert [row[-1] for row in rows[1:]] == ["-inf", "-inf"]


class TestErrors:
    def test_invalid_config_file(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus_key = 1\n")
        assert main(["placement", "--config", str(bad)]) == 2

    def test_invalid_override(self, config_path):
        assert main(["placement", "--config", str(config_path),
                     "--sbs_radius_m", "10"]) == 2

    def test_invalid_alpha_grid(self, config_path):
        assert main(["sweep-alpha", "--config", str(config_path),
                     "--alpha-grid", "0:2:0.5"]) == 2

    @pytest.mark.parametrize("command", ["sweep-alpha", "thresholds", "simulate"])
    def test_config_alpha_is_never_read(self, capsys, command):
        # these commands take every alpha from the grid, so an invalid config
        # alpha is unused
        argv = [command, "--alpha-grid", "0,1", "--requests", "100"]
        assert main(argv) == 0
        expected = capsys.readouterr()
        for alpha in ("1.5", "nan"):
            assert main([*argv, "--alpha", alpha]) == 0
            assert capsys.readouterr() == expected
        # placement reads it
        assert main(["placement", "--alpha", "1.5"]) == 2
        assert "alpha must lie in [0, 1]" in capsys.readouterr().err

    def test_grid_step_not_dividing_the_range(self, config_path, capsys):
        assert main(["sweep-alpha", "--config", str(config_path), "--samples",
                     "10000", "--alpha-grid", "0:1:0.6"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.000000", "0.600000"]

    @pytest.mark.parametrize("key, name", [
        ("mbs_radius_m", "mbs_radius"), ("sbs_spacing_m", "sbs_spacing"),
        ("user_density_per_m2", "user_density"), ("zipf_exponent", "Zipf exponent"),
    ])
    def test_nan_override_names_the_input(self, config_path, capsys, key, name):
        assert main(["placement", "--config", str(config_path), "--samples",
                     "10000", f"--{key}", "nan"]) == 2
        assert f"error: {name} " in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["missing/x.csv", "."], ids=["no_dir", "a_dir"])
    def test_unwritable_out(self, config_path, tmp_path, capsys, calls, out):
        # rejected before any work, so nothing that looks like a result shows
        assert main(["thresholds", "--config", str(config_path),
                     "--alpha-grid", "0:1:0.5", "--out", str(tmp_path / out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert calls["equilibrium_placement"] == 0

    def test_out_without_write_access(self, config_path, tmp_path, capsys, calls,
                                      monkeypatch):
        # a chmod'd directory stays writable to root, so access is denied here
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        assert main(["thresholds", "--config", str(config_path),
                     "--alpha-grid", "0:1:0.5", "--out", str(tmp_path / "x.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --out")
        assert "not writable" in captured.err
        assert calls["equilibrium_placement"] == 0

    def test_library_too_large_for_memory(self, capsys, monkeypatch):
        def no_memory(num_files, exponent):
            raise MemoryError(f"Unable to allocate {8 * num_files} bytes")
        monkeypatch.setattr(cli, "zipf_popularity", no_memory)
        assert main(["placement", "--num_files", "3000000000",
                     "--cache_size", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate")


class TestSolveCounts:
    def test_no_repeated_solves_or_quantization(self, config_path, calls):
        common = ["--config", str(config_path), "--samples", "20000",
                  "--alpha-grid", "0,0.5,1"]
        # the alpha = 0 grid point is the R_ref_noadv base
        assert main(["sweep-alpha", *common]) == 0
        assert calls["equilibrium_placement"] == 3
        # the analytic reference rates the packets the simulator deployed
        assert main(["simulate", *common, "--requests", "1000"]) == 0
        assert calls["quantize_placement"] == 3

    def test_thresholds_build_one_table(self, calls):
        assert main(["thresholds", "--alpha-grid", "0,0.5,1"]) == 0
        assert (calls["_popularity_half"], calls["_segments"]) == (1, 1)


class TestExactCoverage:
    SUBCOMMANDS = [
        ["gamma"], ["placement"], ["sweep-alpha", "--alpha-grid", "0,1"],
        ["sweep-r", "--r-grid", "43,60"], ["sweep-cache", "--cache-grid", "10"],
        ["thresholds", "--alpha-grid", "0,1"],
        ["simulate", "--alpha-grid", "0.5", "--requests", "100"],
    ]

    # the library has no coverage Monte Carlo (the layering test pins that);
    # every subcommand runs cleanly on the closed form
    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
    def test_no_monte_carlo(self, config_path, capsys, argv):
        assert main([*argv, "--config", str(config_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_gamma_ignores_samples_and_seed(self, config_path, capsys):
        outputs = []
        for extra in ([], ["--samples", "10000"], ["--samples", "5"],
                      ["--seed", "12345"]):
            assert main(["gamma", "--config", str(config_path), *extra]) == 0
            outputs.append(capsys.readouterr().out.encode())
        assert all(out == outputs[0] for out in outputs)


class TestParser:
    def test_options_before_and_after_the_command(self):
        options = ["--alpha-grid", "0,0.5", "--seed", "3", "--num_files", "50",
                   "--samples", "10000"]
        after = PARSER.parse_args(["thresholds", *options])
        before = PARSER.parse_args([*options, "thresholds"])
        assert vars(before) == vars(after)
        assert after.command == "thresholds" and after.seed == 3
        assert after.alpha_grid == [0.0, 0.5] and after.samples == 10_000

    def test_main_builds_no_parser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in (["gamma"], ["--seed", "2", "gamma"],
                     ["sweep-cache", "--cache-grid", "10"]):
            assert main(argv) == 0
        assert built == []

    def test_grid_defaults_are_parsed_lists(self):
        # a string default would be parsed again in every call
        for dest in ("alpha_grid", "r_grid", "cache_grid"):
            assert isinstance(PARSER.get_default(dest), list)

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep-radius"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--seed", "1"])
        assert exit_info.value.code == 2

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in cli.COMMANDS)
        assert len(cli.COMMANDS) == 7


# the argv of the benchmark's CLI workload, each run with --seed 1
GOLDEN_ARGV = {
    "gamma": [],
    "placement": ["--alpha", "0.4"],
    "sweep-alpha": ["--alpha-grid", "0:1:0.01"],
    "sweep-r": ["--r-grid", "43:60:0.5"],
    "sweep-cache": ["--cache-grid", "10:40:5"],
    "thresholds": ["--alpha-grid", "0:1:0.01"],
    "simulate": ["--alpha-grid", "0,0.5,1"],
}
GOLDEN = Path(__file__).resolve().parent / "golden"


class TestGoldenBytes:
    """The CLI's stdout and CSV bytes, recorded in tests/golden.

    A change that means to alter these bytes updates the golden files in
    the same commit and says so.
    """

    @pytest.mark.parametrize("name", GOLDEN_ARGV)
    def test_bytes(self, name, tmp_path, capsys):
        out = tmp_path / f"{name}.csv"
        stdout = (GOLDEN / f"{name}.stdout").read_bytes()
        table = (GOLDEN / f"{name}.csv").read_bytes()
        argv = [name, *GOLDEN_ARGV[name], "--seed", "1"]
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out.encode() == stdout
        assert out.read_bytes() == table
        # without --out the table follows the same lines on stdout
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == stdout + table

    def test_module_runs_as_a_program(self):
        # sys.exit(main()) hands main's exit code to the shell
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "cachegame.cli", *argv],
                                  capture_output=True, env=env, check=False)
        gamma = run("gamma")
        assert gamma.returncode == 0
        assert gamma.stdout == (GOLDEN / "gamma.csv").read_bytes()
        rejected = run("placement", "--alpha", "2")
        assert rejected.returncode == 2
        assert rejected.stdout == b""
        assert rejected.stderr.startswith(b"error: alpha must lie in [0, 1]")
