"""Command-line driver: builds instances from a config file and emits CSV.

Subcommands: gamma, placement, sweep-alpha, sweep-r, sweep-cache,
thresholds, simulate.  A grid is 'a:b:step' (a, a + step, ... up to and
never past b) or a comma list; it must be sorted and finite.  Exit codes:
0 success, 2 invalid configuration (a NaN or infinite value included).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import sys
from pathlib import Path

import numpy as np

from . import game, geometry, rate, simulator
from .model import (CONFIG_KEYS, GameConfig, LibraryConfig, Placement,
                    load_config, zipf_popularity)

EXIT_OK = 0
EXIT_CONFIG = 2


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
        count = math.floor((stop - start) / step + 1e-9)
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


def _fmt(value: float) -> str:
    return f"{value:.6f}"


RATE_HEADER = ("R_total", "R_legit", "R_adv", "j_star")


def _rate_cells(res: game.EquilibriumResult) -> list[str]:
    """The RATE_HEADER cells of one equilibrium; j_star is 1-based."""
    return [_fmt(res.rates.r_total), _fmt(res.rates.r_legit),
            _fmt(res.rates.r_adv), str(res.j_star + 1)]


def _coverage_areas(cfg: dict, samples: int) -> geometry.CoverageAreas:
    geom = geometry.NetworkGeometry(
        mbs_radius=cfg["mbs_radius_m"],
        sbs_spacing=cfg["sbs_spacing_m"],
        sbs_radius=cfg["sbs_radius_m"],
        user_density=cfg["user_density_per_m2"],
    )
    return geometry.coverage_areas_unit_cell(geom, samples, cfg["seed"])


def build_game_config(cfg: dict, samples: int) -> GameConfig:
    return GameConfig(
        alpha=cfg["alpha"],
        library=LibraryConfig(num_files=cfg["num_files"]),
        popularity=zipf_popularity(cfg["num_files"], cfg["zipf_exponent"]),
        coverage=geometry.coverage_profile(_coverage_areas(cfg, samples)),
        cache_size=cfg["cache_size"],
    )


def cmd_gamma(cfg: dict, args) -> tuple[list[list[str]], list[str]]:
    areas = _coverage_areas(cfg, args.samples)
    gamma = geometry.coverage_profile(areas).gamma
    rows = [[str(d + 1), _fmt(areas.areas[d]), _fmt(gamma[d])]
            for d in range(gamma.size)]
    return rows, ["d", "area_m2", "gamma"]


def cmd_placement(cfg: dict, args):
    gcfg = build_game_config(cfg, args.samples)
    res = game.equilibrium_placement(gcfg)
    row = [_fmt(gcfg.alpha), *_rate_cells(res), *[_fmt(v) for v in res.q_star.q]]
    header = ["alpha", *RATE_HEADER,
              *[f"q_{j}" for j in range(1, gcfg.library.num_files + 1)]]
    return [row], header


def cmd_sweep_alpha(cfg: dict, args):
    gcfg = build_game_config(cfg, args.samples)
    alphas = args.alpha_grid
    results = game.sweep_equilibria(gcfg, alphas)
    # R_ref_noadv rates the alpha = 0 equilibrium, a grid point when it starts at 0
    base = (results[0] if alphas[0] == 0
            else game.equilibrium_placement(gcfg.with_alpha(0.0))).rates
    uniform = game.worst_case_rate(gcfg)
    rows = [[
        _fmt(alpha), *_rate_cells(res),
        _fmt(rate.total_rate(alpha, base.r_legit, base.r_adv).r_total),
        _fmt(uniform),
    ] for alpha, res in zip(alphas, results)]
    header = ["alpha", *RATE_HEADER, "R_ref_noadv", "R_ref_uniform"]
    return rows, header


def cmd_sweep_r(cfg: dict, args):
    rows = []
    for r in args.r_grid:
        sub = dict(cfg, sbs_radius_m=r)
        gcfg = build_game_config(sub, args.samples)
        res = game.equilibrium_placement(gcfg)
        rows.append([_fmt(r), *[_fmt(g) for g in gcfg.coverage.gamma],
                     *_rate_cells(res)])
    header = ["r_m", "gamma_1", "gamma_2", "gamma_3", "gamma_4", *RATE_HEADER]
    return rows, header


def cmd_sweep_cache(cfg: dict, args):
    gcfg = build_game_config(cfg, args.samples)
    rows = []
    for cache in args.cache_grid:
        res = game.equilibrium_placement(dataclasses.replace(gcfg, cache_size=cache))
        rows.append([_fmt(cache), *_rate_cells(res)])
    header = ["cache_size", *RATE_HEADER]
    return rows, header


def cmd_thresholds(cfg: dict, args):
    gcfg = build_game_config(cfg, args.samples)
    alphas = args.alpha_grid
    detection = game.detect_thresholds(gcfg, alphas)
    q_ref = game.no_adversary_placement(gcfg).q
    q_uni = Placement.uniform(gcfg.library.num_files, gcfg.cache_size).q
    rows = []
    for alpha, res in zip(alphas, detection.results):
        q = res.q_star.q
        nonzero = np.nonzero(q > 1e-9)[0]
        q_mu = q[nonzero[-1]] if nonzero.size else 0.0
        rows.append([
            _fmt(alpha), _fmt(q.min()), _fmt(q.max()), _fmt(q_mu),
            _fmt(np.max(np.abs(q - q_ref))), _fmt(np.max(np.abs(q - q_uni))),
            _fmt(res.rates.r_total),
        ])
    header = ["alpha", "q_min", "q_max", "q_mu",
              "dist_noadv", "dist_uniform", "R_total"]
    if detection.alpha_thr_1 is not None:
        print(f"alpha_thr_1 = {detection.alpha_thr_1:.6f}")
    else:
        print("alpha_thr_1: no branching on the grid")
    if detection.alpha_thr_2 is not None:
        print(f"alpha_thr_2 = {detection.alpha_thr_2:.6f}")
    else:
        print("alpha_thr_2: no gathering on the grid")
    return rows, header


def cmd_simulate(cfg: dict, args):
    gcfg = build_game_config(cfg, args.samples)
    n = cfg["fragments_per_file"]
    rows = []
    for i, alpha in enumerate(args.alpha_grid):
        sub = gcfg.with_alpha(alpha)
        res = game.equilibrium_placement(sub)
        report = simulator.simulate(res.q_star, sub, n, args.requests,
                                    cfg["seed"] + i)
        # the simulated adversaries target the least cached deployed file
        analytic_mn = game.evaluate(
            Placement(q=report.packets / n, cache_size=gcfg.cache_size), sub).r_total
        stderr = report.backhaul_fraction_stderr
        z = ((report.backhaul_fraction_mean - analytic_mn) / stderr
             if stderr > 0 else 0.0)
        rows.append([
            _fmt(alpha), str(report.requests),
            _fmt(report.backhaul_fraction_mean), _fmt(stderr),
            *[str(c) for c in report.per_coverage_counts],
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="key = value config file")
    common.add_argument("--out", type=Path, help="output CSV path (default stdout)")
    common.add_argument("--samples", type=int, default=1_000_000,
                        help="Monte Carlo samples for the coverage profile")
    common.add_argument("--alpha-grid", type=parse_grid, default="0:1:0.01",
                        help="alpha sweep grid, a:b:step or comma list")
    common.add_argument("--r-grid", type=parse_grid, default="45:60:5",
                        help="SBS radius grid in meters")
    common.add_argument("--cache-grid", type=parse_grid, default="10:40:10",
                        help="cache size grid in files")
    common.add_argument("--requests", type=int, default=100_000,
                        help="requests per simulated row")
    for key, typ in CONFIG_KEYS.items():
        common.add_argument(f"--{key}", type=typ, dest=key, default=None,
                            help=f"override config key {key}")

    parser = argparse.ArgumentParser(
        prog="cachegame",
        description="Adversary-robust coded cache placement experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {key: getattr(args, key) for key in CONFIG_KEYS}
        cfg = load_config(args.config, overrides)
        if any(a < 0 or a > 1 for a in args.alpha_grid):
            raise ValueError("alpha grid must lie in [0, 1]")
        rows, header = COMMANDS[args.command](cfg, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    if args.out is None:
        sys.stdout.write(buf.getvalue())
    else:
        args.out.write_text(buf.getvalue())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
