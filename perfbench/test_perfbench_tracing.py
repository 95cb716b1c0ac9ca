"""Tests of the benchmark's tracer; run with the repository's test suite."""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
from cachegame import cli, game, rate  # noqa: E402


def test_thresholds_on_three_points_makes_five_solves(tmp_path):
    tracer = tracing.Tracer()
    argv = ["thresholds", "--alpha-grid", "0,0.5,1", "--samples", "10000",
            "--out", str(tmp_path / "thr.csv")]
    with tracer.patch(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
    names = [span.name for span in tracer.spans]
    # three grid solves plus the no-adversary solve in detect_thresholds and
    # the one in cmd_thresholds
    assert names.count("game.equilibrium_placement") == 5
    assert names.count("game.no_adversary_placement") == 2
    assert names.count("cli.cmd_thresholds") == 1
    # rate functions imported by name into game are traced there too
    solve = names.index("game.equilibrium_placement")
    children = [s.name for s in tracer.spans if s.parent == solve]
    assert "rate.legit_rate" in children and "rate.adversary_rate" in children


def test_patch_is_undone():
    before = (game.legit_rate, rate.legit_rate, cli.COMMANDS["thresholds"])
    with tracing.Tracer().patch():
        assert game.legit_rate is not before[0]
        assert cli.COMMANDS["thresholds"] is not before[2]
    assert (game.legit_rate, rate.legit_rate, cli.COMMANDS["thresholds"]) == before


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span("cli.main", 0.0, 10.0, None, 1),
        tracing.Span("game.equilibrium_placement", 1.0, 7.0, 0, 1),
        tracing.Span("rate.legit_rate", 2.0, 3.0, 1, 1),
        tracing.Span("rate.deficit_rate", 2.5, 3.0, 2, 1),
    ]
    assert tracing.self_times(spans) == [4.0, 5.0, 0.5, 0.5]
    assert tracing.layer_entries(spans, "rate") == [spans[2]]
