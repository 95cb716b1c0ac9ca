import csv

import pytest

from cachegame import cli, game, model, simulator
from cachegame.cli import build_parser, main, parse_grid


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

    def test_string_defaults_are_parsed(self):
        # argparse applies `type` to a string default
        args = build_parser().parse_args(["sweep-alpha"])
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


class TestSweepCache:
    def test_rate_decreases_with_cache(self, config_path, tmp_path):
        out = tmp_path / "cache.csv"
        assert main(["sweep-cache", "--config", str(config_path), "--out", str(out),
                     "--samples", "50000", "--cache-grid", "4,8,16"]) == 0
        rows = read_csv(out)
        rates = [float(r[1]) for r in rows[1:]]
        assert rates == sorted(rates, reverse=True)


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


class TestSimulate:
    def test_z_scores_small(self, config_path, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(config_path), "--out", str(out),
                     "--samples", "50000", "--alpha-grid", "0,0.5,1",
                     "--requests", "20000"]) == 0
        rows = read_csv(out)
        assert rows[0][:4] == ["alpha", "requests", "mean", "stderr"]
        for row in rows[1:]:
            assert abs(float(row[-2])) <= 4.0


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


class TestSolveCounts:
    def test_no_repeated_solves_or_quantization(self, config_path, monkeypatch):
        calls = {"equilibrium_placement": 0, "quantize_placement": 0}

        def count(name, *modules):
            # patch every namespace that may hold the function, so a call
            # through an import in another module is counted too
            original = getattr(modules[0], name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)

        count("equilibrium_placement", game)
        count("quantize_placement", model, simulator, cli)
        common = ["--config", str(config_path), "--samples", "20000",
                  "--alpha-grid", "0,0.5,1"]
        # the alpha = 0 grid point is the R_ref_noadv base
        assert main(["sweep-alpha", *common]) == 0
        assert calls["equilibrium_placement"] == 3
        # the analytic reference rates the packets the simulator deployed
        assert main(["simulate", *common, "--requests", "1000"]) == 0
        assert calls["quantize_placement"] == 3
