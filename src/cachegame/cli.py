"""Command-line driver: builds instances from a config file and emits CSV.

Commands: gamma, placement, sweep-alpha, sweep-r, sweep-cache, thresholds,
simulate; the options may come before or after the command.  A grid is
'a:b:step' (a, a + step, ... up to and never past b) or a comma list; it
must be sorted and finite.  A command that sweeps a grid builds its game
at the grid's first point, and never reads the config's value of that key.
The coverage profile is exact, so `--samples` is accepted but ignored.
Exit codes: 0 success, 2 invalid configuration (a NaN or infinite value
included, or a library too large for memory).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import game, geometry, simulator
from .model import (CONFIG_KEYS, MAX_FRAGMENTS, GameConfig, LibraryConfig,
                    Placement, _check_count, load_config, quantize_placement,
                    zipf_popularity)

EXIT_OK = 0
EXIT_CONFIG = 2
# the most points an 'a:b:step' grid may have
MAX_GRID_POINTS = 1_000_000


def parse_grid(text: str) -> list[float]:
    """Parse a sweep grid: either 'a:b:step' or a comma list 'a,b,c'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be 'a:b:step', got {text!r}")
        start, stop, step = (float(p) for p in parts)
        # written so that NaN and infinite bounds fail the test
        if not (-math.inf < start <= stop < math.inf and step > 0):
            raise ValueError(f"bad grid range {text!r}")
        # the tolerance keeps a stop a whole number of steps away (0:0.3:0.1);
        # min() pulls back a last point that the tolerance left just past stop
        steps = (stop - start) / step + 1e-9
        if steps >= MAX_GRID_POINTS:
            raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
        count = math.floor(steps)
        grid = [min(round(start + k * step, 12), stop) for k in range(count + 1)]
    else:
        grid = [float(p) for p in text.split(",") if p.strip()]
    if not grid:
        raise ValueError("grid must be non-empty")
    if not all(math.isfinite(v) for v in grid):
        raise ValueError(f"grid entries must be finite, got {text!r}")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be sorted")
    return grid


# f"{value:.6f}" as a bound method: no Python frame per CSV cell
_fmt = "{:.6f}".format


RATE_HEADER = ("R_total", "R_legit", "R_adv", "j_star")


def _rate_cells(res: game.EquilibriumResult) -> list[str]:
    """The RATE_HEADER cells of one equilibrium; j_star is 1-based."""
    return [_fmt(res.rates.r_total), _fmt(res.rates.r_legit),
            _fmt(res.rates.r_adv), str(res.j_star + 1)]


def _coverage_areas(cfg: dict) -> np.ndarray:
    return geometry.coverage_areas(geometry.NetworkGeometry(
        mbs_radius=cfg["mbs_radius_m"], sbs_spacing=cfg["sbs_spacing_m"],
        sbs_radius=cfg["sbs_radius_m"], user_density=cfg["user_density_per_m2"]))


def build_game_config(cfg: dict, samples: int | None = None) -> GameConfig:
    """The game instance of a config; the coverage profile is exact.

    `samples` is ignored: it only keeps working the callers that still pass
    the Monte Carlo sample count the coverage profile used to need.
    """
    return GameConfig(
        alpha=cfg["alpha"], library=LibraryConfig(num_files=cfg["num_files"]),
        popularity=zipf_popularity(cfg["num_files"], cfg["zipf_exponent"]),
        coverage=geometry.coverage_profile(_coverage_areas(cfg)),
        cache_size=cfg["cache_size"])


def cmd_gamma(cfg: dict, args) -> tuple[list[list[str]], list[str]]:
    areas = _coverage_areas(cfg)
    gamma = geometry.coverage_profile(areas).gamma
    rows = [[str(d), _fmt(area), _fmt(g)] for d, (area, g)
            in enumerate(zip(areas.tolist(), gamma.tolist()), start=1)]
    return rows, ["d", "area_m2", "gamma"]


def cmd_placement(cfg: dict, args):
    gcfg = build_game_config(cfg)
    res = game.equilibrium_placement(gcfg)
    row = [_fmt(gcfg.alpha), *_rate_cells(res),
           *[_fmt(v) for v in res.q_star.q.tolist()]]
    header = ["alpha", *RATE_HEADER,
              *[f"q_{j}" for j in range(1, gcfg.popularity.num_files + 1)]]
    return [row], header


def cmd_sweep_alpha(cfg: dict, args):
    gcfg = build_game_config(dict(cfg, alpha=args.alpha_grid[0]))
    alphas = args.alpha_grid
    results = game.sweep_equilibria(gcfg, alphas)
    # R_ref_noadv mixes the rates of the alpha = 0 solve, a grid point when
    # the grid starts at 0: alpha enters neither rate of a fixed placement
    ref = (results[0] if alphas[0] == 0
           else game.equilibrium_placement(gcfg.with_alpha(0.0))).rates
    uniform = game.worst_case_rate(gcfg)
    rows = [[
        _fmt(alpha), *_rate_cells(res),
        _fmt(game.total_rate(alpha, ref.r_legit, ref.r_adv).r_total),
        _fmt(uniform),
    ] for alpha, res in zip(alphas, results)]
    header = ["alpha", *RATE_HEADER, "R_ref_noadv", "R_ref_uniform"]
    return rows, header


def cmd_sweep_r(cfg: dict, args):
    # only the coverage changes with the radius, so the rest is built once,
    # and the solver builds only the coverage half of each radius's segment
    # table; every radius is checked before the first solve
    first, *rest = args.r_grid
    base = build_game_config(dict(cfg, sbs_radius_m=first))
    profiles = (geometry.coverage_profile(_coverage_areas(dict(cfg, sbs_radius_m=r)))
                for r in rest)
    configs = [base, *(GameConfig(base.alpha, base.library, base.popularity, coverage,
                                  base.cache_size) for coverage in profiles)]
    rows = [[_fmt(r), *[_fmt(g) for g in gcfg.coverage.gamma.tolist()],
             *_rate_cells(game.equilibrium_placement(gcfg))]
            for r, gcfg in zip(args.r_grid, configs)]
    header = ["r_m", *[f"gamma_{d}" for d in range(1, geometry.MAX_COVERAGE + 1)],
              *RATE_HEADER]
    return rows, header


def cmd_sweep_cache(cfg: dict, args):
    # every cache size is checked before the first solve
    first, *rest = args.cache_grid
    base = build_game_config(dict(cfg, cache_size=first))
    configs = [base, *(GameConfig(base.alpha, base.library, base.popularity,
                                  base.coverage, c) for c in rest)]
    rows = [[_fmt(sub.cache_size), *_rate_cells(game.equilibrium_placement(sub))]
            for sub in configs]
    header = ["cache_size", *RATE_HEADER]
    return rows, header


def _threshold_cells(placement: Placement, ref: Placement, uniform: float) -> list[float]:
    """The q_min, q_max, q_mu, dist_noadv and dist_uniform cells of one
    placement, ref being the no-adversary one; q_mu is its last entry
    above 1e-9 in index order, or 0.0 when there is none."""
    low, top, distance = placement._spread(ref)
    # max |q - uniform| bit for bit: rounding is monotone and symmetric
    return [low, top, placement._last_above(1e-9), distance,
            max(top - uniform, uniform - low)]


def cmd_thresholds(cfg: dict, args):
    gcfg = build_game_config(dict(cfg, alpha=args.alpha_grid[0]))
    alphas = args.alpha_grid
    results = game.sweep_equilibria(gcfg, alphas)
    detection = game.detect_thresholds(gcfg, alphas, results)
    ref = game.no_adversary_placement(gcfg)
    uniform = gcfg.cache_size / gcfg.popularity.num_files
    # one placement at a time: no rows x N matrix is built
    rows = [[_fmt(v) for v in (alpha, *_threshold_cells(res.q_star, ref, uniform),
                               res.rates.r_total)]
            for alpha, res in zip(alphas, results)]
    header = ["alpha", "q_min", "q_max", "q_mu",
              "dist_noadv", "dist_uniform", "R_total"]
    for name, thr, event in (("alpha_thr_1", detection.alpha_thr_1, "branching"),
                             ("alpha_thr_2", detection.alpha_thr_2, "gathering")):
        print(f"{name}: no {event} on the grid" if thr is None else f"{name} = {_fmt(thr)}")
    return rows, header


def cmd_simulate(cfg: dict, args):
    _check_count(args.requests, "--requests", 2, simulator.MAX_REQUESTS)
    n = _check_count(cfg["fragments_per_file"], "fragments_per_file", 1, MAX_FRAGMENTS)
    _check_count(cfg["seed"], "seed", 0)
    gcfg = build_game_config(dict(cfg, alpha=args.alpha_grid[0]))
    rows = []
    for i, alpha in enumerate(args.alpha_grid):
        sub = gcfg.with_alpha(alpha)
        res = game.equilibrium_placement(sub)
        # the row's one deployment, simulated and rated alike: the
        # adversaries target its least cached file
        m = quantize_placement(res.q_star, n, sub.popularity)
        report = simulator.simulate(m, sub, n, args.requests, cfg["seed"] + i)
        analytic_mn = game.evaluate(
            Placement(q=m / n, cache_size=gcfg.cache_size), sub).r_total
        stderr = report.backhaul_fraction_stderr
        gap = report.backhaul_fraction_mean - analytic_mn
        # equal costs give stderr 0: only an exact match is then no deviation
        z = (gap / stderr if stderr > 0
             else math.copysign(math.inf, gap) if gap else 0.0)
        rows.append([
            _fmt(alpha), str(report.requests),
            _fmt(report.backhaul_fraction_mean), _fmt(stderr),
            *[str(c) for c in report.per_coverage_counts.tolist()],
            _fmt(res.rates.r_total), _fmt(analytic_mn), _fmt(z),
        ])
    header = (["alpha", "requests", "mean", "stderr"]
              + [f"count_d{d}" for d in range(1, gcfg.coverage.max_coverage + 1)]
              + ["analytic_q", "analytic_mn", "z_score"])
    return rows, header


COMMANDS = {
    "gamma": cmd_gamma,
    "placement": cmd_placement,
    "sweep-alpha": cmd_sweep_alpha,
    "sweep-r": cmd_sweep_r,
    "sweep-cache": cmd_sweep_cache,
    "thresholds": cmd_thresholds,
    "simulate": cmd_simulate,
}


# built once per process, at import; each grid default is parsed here, as a
# list, since argparse runs `type` on a string default in every parse
PARSER = argparse.ArgumentParser(
    prog="cachegame",
    description="Adversary-robust coded cache placement experiments",
)
PARSER.add_argument("command", choices=COMMANDS, help="what to compute")
PARSER.add_argument("--config", type=Path, help="key = value config file")
PARSER.add_argument("--out", type=Path, help="output CSV path (default stdout)")
PARSER.add_argument("--samples", type=int, default=1_000_000,
                    help="ignored: the coverage profile is exact; accepted "
                         "so that older command lines still run")
for flag, text, what in (
        ("--alpha-grid", "0:1:0.01", "alpha sweep grid, a:b:step or comma list"),
        ("--r-grid", "45:60:5", "SBS radius grid in meters"),
        ("--cache-grid", "10:40:10", "cache size grid in files")):
    PARSER.add_argument(flag, type=parse_grid, default=parse_grid(text),
                        help=f"{what} (default {text})")
PARSER.add_argument("--requests", type=int, default=100_000,
                    help="requests per simulated row")
for key, typ in CONFIG_KEYS.items():
    PARSER.add_argument(f"--{key}", type=typ, dest=key, default=None,
                        help=f"override config key {key}")
del flag, text, what, key, typ


def _check_writable(path: Path) -> None:
    """Raise OSError unless path names a file that can be written.

    Checked before the subcommand runs, so that a run which cannot save its
    table does no work and prints nothing.
    """
    if path.is_dir():
        raise IsADirectoryError(f"--out {path} is a directory")
    if not path.parent.is_dir():
        raise FileNotFoundError(f"--out directory {path.parent} does not exist")
    if not os.access(path if path.exists() else path.parent, os.W_OK):
        raise PermissionError(f"--out {path} is not writable")


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        overrides = {key: getattr(args, key) for key in CONFIG_KEYS}
        cfg = load_config(args.config, overrides)
        if any(a < 0 or a > 1 for a in args.alpha_grid):
            raise ValueError("alpha grid must lie in [0, 1]")
        if args.out is not None:
            _check_writable(args.out)
        rows, header = COMMANDS[args.command](cfg, args)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        if args.out is None:
            sys.stdout.write(buf.getvalue())
        else:
            args.out.write_text(buf.getvalue())
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
