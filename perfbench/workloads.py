"""The three benchmark workloads: inputs, one timed pass, and its checks.

Each workload puts a different cachegame module at the centre of the work:

- alpha_sweep_n2000: `game` (21 large LP solves, then threshold detection);
- cli_figures_n200: `cli` driving many small solves (`game`) and coverage
  Monte Carlo runs (`geometry`), as when the paper's figures are made;
- simulate_1e7: `simulator` (five 1e7-request simulations).  It is not
  listed in BENCHMARK.json, whose workloads must pass their checks: the
  simulator aims the adversary at argmin q rather than at the deployed
  argmin m, so its z check fails at some alphas.  It runs by hand and
  reports that failure.

A workload is built from its seed by `setup`, warmed by `warm_up`, timed by
`run_pass` and checked by `verify`.  `run_pass` makes the same top-level
operations in the same order on every pass, each through `ops.time(func,
*args)`, which times it from the caller, and calls `new_op` where a new user
request starts, so the tracer can group spans by request.  `op_ms_p50`
summarises the operations of kind `op_name` with `op_stat`.  Library
calls go through module attributes (``game.equilibrium_placement``) so that
the tracer's patches apply to them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import statistics
import tempfile
from pathlib import Path

import numpy as np

from cachegame import cli, game, geometry, model, rate, simulator

# coverage profile of the 60 m grid at r = 45 m (GAMMA_R45 of the game tests)
GAMMA_R45 = np.array([0.290706, 0.659095, 0.043004, 0.007196])
GAMMA_R45 = GAMMA_R45 / GAMMA_R45.sum()

OUT_DIR = Path(".bench_out")  # scratch space inside the checkout

ALPHAS_N2000 = [round(0.05 * k, 12) for k in range(21)]
# R_total per grid alpha at N = 2000, recorded from the HiGHS LP and rounded
# to the six decimals the CLI prints; the rounding keeps rate_err_max above
# solver-tolerance noise, so only real drift moves it
R_TOTAL_N2000 = [
    0.484315, 0.510099, 0.535883, 0.561667, 0.587452, 0.613236, 0.638959,
    0.662995, 0.684894, 0.704930, 0.723287, 0.740102, 0.755457, 0.769411,
    0.781988, 0.793163, 0.802908, 0.811117, 0.817591, 0.821930, 0.823331,
]
THRESHOLDS_N2000 = (0.3, 1.0)
RATE_TOL = 1e-6          # six-decimal references plus LP tolerance
ORDER_TOL = 1e-9         # slack of an exact inequality between two rates
Z_LIMIT = 4.0
# the paper's regime bands (acceptance criterion 4)
THRESHOLD_BANDS = ((0.24, 0.40), (0.85, 0.99))


class Checks:
    """Correctness checks of one pass; every failure is kept by name."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []
        self.rate_err_max = 0.0

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def rate(self, name: str, value: float, reference: float, tol: float) -> None:
        err = abs(value - reference)
        self.rate_err_max = max(self.rate_err_max, err)
        self.expect(name, err <= tol)


class AlphaSweepN2000:
    """21 equilibrium solves at N = 2000, M = 200, then threshold detection.

    The coverage profile is frozen, so the inputs do not depend on the seed;
    it measures scaling of the solver in N with `geometry` idle.
    """

    op_name = "equilibrium_placement"
    op_stat = staticmethod(statistics.median)

    def setup(self, seed: int) -> None:
        self.cfg = model.GameConfig(
            alpha=0.0,
            library=model.LibraryConfig(num_files=2000),
            popularity=model.zipf_popularity(2000, 0.7),
            coverage=model.CoverageProfile(gamma=GAMMA_R45),
            cache_size=200.0,
        )

    def warm_up(self) -> None:
        for alpha in (0.0, 0.5, 1.0):
            game.equilibrium_placement(self.cfg.with_alpha(alpha))

    def run_pass(self, ops, new_op) -> tuple:
        new_op()
        results = [ops.time(game.equilibrium_placement, self.cfg.with_alpha(a))
                   for a in ALPHAS_N2000]
        thresholds = ops.time(game.detect_thresholds, self.cfg, ALPHAS_N2000,
                              results=results)
        return results, thresholds

    def verify(self, output, checks: Checks) -> None:
        results, thresholds = output
        base = results[0].rates  # alpha = 0 is the no-adversary optimum
        uniform = game.worst_case_rate(self.cfg)
        for alpha, res, ref in zip(ALPHAS_N2000, results, R_TOTAL_N2000):
            r = res.rates.r_total
            checks.expect(f"status[alpha={alpha}]", res.solver_status == "optimal")
            checks.rate(f"r_total_vs_seed[alpha={alpha}]", r, ref, RATE_TOL)
            checks.expect(f"capacity[alpha={alpha}]",
                          res.q_star.q.sum() <= self.cfg.cache_size + model.CAPACITY_TOL)
            noadv = alpha * base.r_adv + (1.0 - alpha) * base.r_legit
            checks.expect(f"below_noadv[alpha={alpha}]", r <= noadv + ORDER_TOL)
            checks.expect(f"below_uniform[alpha={alpha}]", r <= uniform + ORDER_TOL)
        checks.rate("alpha1_is_worst_case", results[-1].rates.r_total, uniform, RATE_TOL)
        checks.expect("thresholds_vs_seed",
                      (thresholds.alpha_thr_1, thresholds.alpha_thr_2) == THRESHOLDS_N2000)


CLI_SUBCOMMANDS = (
    ("gamma", []),
    ("placement", ["--alpha", "0.4"]),
    ("sweep-alpha", ["--alpha-grid", "0:1:0.01"]),
    ("sweep-r", ["--r-grid", "43:60:0.5"]),
    ("sweep-cache", ["--cache-grid", "10:40:5"]),
    ("thresholds", ["--alpha-grid", "0:1:0.01"]),
    ("simulate", ["--alpha-grid", "0,0.5,1"]),
)

# every subcommand once on a small grid: first-call costs without a full pass
WARM_UP_ARGV = (
    ["gamma"], ["placement"], ["sweep-alpha", "--alpha-grid", "0,1"],
    ["sweep-r", "--r-grid", "45"], ["sweep-cache", "--cache-grid", "20"],
    ["thresholds", "--alpha-grid", "0,1"], ["simulate", "--alpha-grid", "0"],
)


class CliFiguresN200:
    """Every CLI subcommand at the default config, in one process.

    Hundreds of small solves, where per-call overhead matters more than
    scaling in N, plus 41 coverage Monte Carlo runs: the only workload where
    `geometry` and `cli` do real work.  The seed is the config seed, which
    seeds the coverage Monte Carlo and the simulator.
    """

    # the subcommands differ 50-fold in run time, so their latencies are not
    # pooled into a median: the op latency is the mean of the seven calls
    op_name = "main"
    op_stat = staticmethod(statistics.fmean)

    def setup(self, seed: int) -> None:
        self.seed = seed
        OUT_DIR.mkdir(exist_ok=True)
        self.first, self.first_err = None, 0.0

    def warm_up(self) -> None:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            for argv in WARM_UP_ARGV:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main([*argv, "--seed", str(self.seed),
                              "--out", str(Path(tmp) / "warm_up.csv")])

    def run_pass(self, ops, new_op) -> dict:
        output = {}
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            for name, extra in CLI_SUBCOMMANDS:
                out = Path(tmp) / f"{name}.csv"
                argv = [name, *extra, "--seed", str(self.seed), "--out", str(out)]
                stdout = io.StringIO()
                new_op()
                with contextlib.redirect_stdout(stdout):
                    code = ops.time(cli.main, argv)
                csv_text = out.read_text() if out.exists() else ""
                output[name] = (code, csv_text, stdout.getvalue())
        return output

    def verify(self, output, checks: Checks) -> None:
        for name, (code, _, _) in output.items():
            checks.expect(f"exit_code[{name}]", code == cli.EXIT_OK)
        if self.first is not None:
            # passes are deterministic: later passes must repeat the first
            for name in output:
                checks.expect(f"same_output[{name}]", output[name] == self.first[name])
            checks.rate_err_max = self.first_err
            return
        self.first = output
        tables = {name: list(csv.DictReader(io.StringIO(text)))
                  for name, (_, text, _) in output.items()}
        for name, rows in tables.items():
            for i, row in enumerate(rows):
                if "status" in row:
                    checks.expect(f"status[{name}:{i}]", row["status"] == "optimal")
        self._verify_sweep_alpha(tables["sweep-alpha"], checks)
        stdout = output["thresholds"][2]
        for k, (lo, hi) in enumerate(THRESHOLD_BANDS, start=1):
            value = None
            for line in stdout.splitlines():
                if line.startswith(f"alpha_thr_{k} = "):
                    value = float(line.split("=", 1)[1])
            checks.expect(f"threshold_{k}_in_band",
                          value is not None and lo <= value <= hi)
        self.first_err = checks.rate_err_max

    def _verify_sweep_alpha(self, rows: list[dict], checks: Checks) -> None:
        """Printed rates against a full-precision library solve of each row."""
        cfg = cli.build_game_config(model.load_config(overrides={"seed": self.seed}),
                                    1_000_000)
        base = game.equilibrium_placement(cfg.with_alpha(0.0)).rates
        uniform = game.worst_case_rate(cfg)
        previous = -math.inf
        for row in rows:
            alpha = float(row["alpha"])
            r = float(row["R_total"])
            ref_noadv = float(row["R_ref_noadv"])
            ref_uniform = float(row["R_ref_uniform"])
            exact = game.equilibrium_placement(cfg.with_alpha(alpha)).rates.r_total
            checks.rate(f"sweep_alpha_r_total[alpha={alpha}]", r, exact, RATE_TOL)
            checks.rate(f"sweep_alpha_ref_noadv[alpha={alpha}]", ref_noadv,
                        alpha * base.r_adv + (1.0 - alpha) * base.r_legit, RATE_TOL)
            checks.rate(f"sweep_alpha_ref_uniform[alpha={alpha}]", ref_uniform,
                        uniform, RATE_TOL)
            checks.expect(f"sweep_alpha_sandwich[alpha={alpha}]",
                          r <= min(ref_noadv, ref_uniform) + RATE_TOL)
            checks.expect(f"sweep_alpha_monotone[alpha={alpha}]",
                          r >= previous - RATE_TOL)
            previous = r


class Simulate1e7:
    """One small solve, then a 1e7-request simulation, for five alphas.

    gamma comes from a 1e6-sample coverage run seeded by the workload seed;
    the simulator seeds are seed + i.  Nearly all the time is in `simulate`.
    """

    op_name = "simulate"
    op_stat = staticmethod(statistics.median)
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    fragments = 100
    requests = 10_000_000

    def setup(self, seed: int) -> None:
        self.seed = seed
        geom = geometry.NetworkGeometry(mbs_radius=500.0, sbs_spacing=60.0,
                                        sbs_radius=45.0, user_density=0.05)
        areas = geometry.coverage_areas_unit_cell(geom, 1_000_000, seed)
        self.cfg = model.GameConfig(
            alpha=0.0,
            library=model.LibraryConfig(num_files=200),
            popularity=model.zipf_popularity(200, 0.7),
            coverage=geometry.coverage_profile(areas),
            cache_size=20.0,
        )

    def warm_up(self) -> None:
        res = game.equilibrium_placement(self.cfg.with_alpha(0.5))
        simulator.simulate(res.q_star, self.cfg.with_alpha(0.5), self.fragments,
                           self.requests, self.seed)

    def run_pass(self, ops, new_op) -> list:
        new_op()
        output = []
        for i, alpha in enumerate(self.alphas):
            sub = self.cfg.with_alpha(alpha)
            res = ops.time(game.equilibrium_placement, sub)
            report = ops.time(simulator.simulate, res.q_star, sub,
                              self.fragments, self.requests, self.seed + i)
            output.append((alpha, res, report))
        return output

    def verify(self, output, checks: Checks) -> None:
        cfg, n = self.cfg, self.fragments
        for alpha, res, report in output:
            checks.expect(f"status[alpha={alpha}]", res.solver_status == "optimal")
            m = model.quantize_placement(res.q_star, n, cfg.popularity)
            checks.expect(f"capacity_deployed[alpha={alpha}]",
                          int(m.sum()) <= math.floor(cfg.cache_size * n + 1e-9))
            # analytic rate of the deployed m/n, the adversary on argmin m
            deployed = model.Placement(q=m / n, cache_size=cfg.cache_size)
            target = rate.AdversaryStrategy.point_mass(m.size, int(np.argmin(m)))
            analytic = rate.total_rate(
                alpha, rate.legit_rate(deployed, cfg.popularity, cfg.coverage),
                rate.adversary_rate(deployed, cfg.coverage, target)).r_total
            stderr = report.backhaul_fraction_stderr
            checks.rate(f"simulate_z_deployed[alpha={alpha}]",
                        report.backhaul_fraction_mean, analytic,
                        Z_LIMIT * stderr)


WORKLOADS = {
    "alpha_sweep_n2000": AlphaSweepN2000,
    "cli_figures_n200": CliFiguresN200,
    "simulate_1e7": Simulate1e7,
}
