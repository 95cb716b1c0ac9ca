"""cachegame benchmark: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  BLAS and OpenMP run one thread unless the environment says
otherwise.  After set-up and a warm-up, whole passes of the workload run
back to back for S seconds (at least three passes), and every pass is
checked.  A pass is a fixed sequence of timed operations.  Every time is
scaled to a reference host speed read from a calibration kernel timed
between operations (see `Calibration`); ``wall_s`` adds up each
operation's median scaled time over the passes.
With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics come from the
traced ones.  Every metric is printed by name with its unit, then the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
MIN_PASSES = 3
WARM_UP_S = 3.0  # the first seconds of a fresh process run slow
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# one caller, one thread: BLAS and OpenMP pools are capped before numpy loads
# (the set-up probes inherit this); a variable already set is kept
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "op_ms_p50": "ms",
    "checks_passed_frac": "fraction", "rate_err_max": "files/request",
}


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


class Calibration:
    """Reads the host's current speed from a fixed kernel.

    On a shared virtual machine the same code can run up to 1.6 times slower
    for seconds to minutes (README, Host speed).  The kernel mixes the program's
    kinds of work (a small HiGHS LP, a numpy sort and a Python loop) but no
    cachegame code, so a change to the program cannot move it.  A time
    multiplied by `REFERENCE_S` / (kernel seconds next to it) is that time at
    the speed where the kernel takes `REFERENCE_S`.
    """

    # about the 5th percentile of the kernel (best of three) over 40 s on a
    # 2-vCPU Xeon VM with Python 3.11, numpy 2.4 and scipy 1.17
    REFERENCE_S = 6.0e-3

    def __init__(self):
        import numpy as np
        from scipy.optimize import linprog

        rng = np.random.default_rng(0)
        a, c = rng.random((40, 80)), -rng.random(80)
        self._lp = lambda: linprog(c, A_ub=a, b_ub=a.sum(1), bounds=(0, 1),
                                   method="highs")
        self._sort = np.sort
        self._sample = rng.random(200_000)
        self._once()  # first-call costs

    def _once(self) -> float:
        start = time.perf_counter()
        self._lp()
        self._sort(self._sample).sum()
        (self._sample < 0.5).sum()
        total = 0
        for i in range(30_000):
            total += i * i % 7
        return time.perf_counter() - start

    def __call__(self) -> float:
        """Kernel seconds, best of three."""
        return min(self._once() for _ in range(3))


class Ops(list):
    """Timed top-level operations of one pass, as (kind, seconds, kernel s).

    The kernel is timed between operations; each operation gets the mean of
    the readings just before and just after it.
    """

    def __init__(self, calibration: Calibration):
        super().__init__()
        self._calibration = calibration
        self._kernel = calibration()

    def time(self, func, *args, **kwargs):
        start = time.perf_counter()
        result = func(*args, **kwargs)
        seconds = time.perf_counter() - start
        kernel = self._calibration()
        self.append((func.__name__, seconds, (self._kernel + kernel) / 2))
        self._kernel = kernel
        return result


def at_reference(seconds: float, kernel: float) -> float:
    """`seconds` at the reference speed, the kernel having taken `kernel`."""
    return seconds * Calibration.REFERENCE_S / kernel


def measure_setup(workload: str, seed: int, calibration: Calibration) -> list[float]:
    """Set-up seconds of fresh interpreters at the reference speed, the kernel
    timed before and after each; the first, which may compile bytecode and
    fill the file cache, is discarded."""
    samples = []
    kernel = calibration()
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        after = calibration()
        samples.append(at_reference(float(proc.stdout.strip().splitlines()[-1]),
                                    (kernel + after) / 2))
        kernel = after
    return samples[1:]


def typical_ops(passes: list[Ops]) -> list[tuple[str, float]]:
    """Each timed operation of a pass with its median time over the passes,
    at the reference speed.  Every pass makes the same operations in the
    same order."""
    return [(kind, statistics.median(at_reference(*ops[i][1:]) for ops in passes))
            for i, (kind, _, _) in enumerate(passes[0])]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans, setup_spans, subcommands) -> dict:
    """Per-layer metrics of one traced pass (and, for zipf, its set-up)."""
    own = tracing.self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(selected):
        return sum(s.duration for s in selected)

    solves = named("game.equilibrium_placement")
    by_op: dict[int, list] = {}
    for s in solves:
        by_op.setdefault(s.op, []).append(s.note)
    distinct = sum(len(set(keys)) for keys in by_op.values())
    coverage = named("geometry.coverage_areas_unit_cell")
    sims = named("simulator.simulate")
    quantize = named("model.quantize_placement")
    rates = tracing.layer_entries(spans, "rate")
    zipf = [s for s in spans + setup_spans if s.name == "model.zipf_popularity"]
    metrics = {
        "game.solve.calls": (len(solves), "count"),
        "game.solve.busy_s": (busy(solves), "s"),
        "game.solve.self_s": (sum(t for s, t in zip(spans, own)
                                  if s.name == "game.equilibrium_placement"), "s"),
        "game.solve_ms_p50": (1e3 * percentile([s.duration for s in solves], 50), "ms"),
        "game.solve_ms_p90": (1e3 * percentile([s.duration for s in solves], 90), "ms"),
        "game.thresholds.busy_s": (busy(named("game.detect_thresholds")), "s"),
        "game.useful_solve_ratio": (distinct / len(solves) if solves else 0.0, "ratio"),
        "geometry.coverage.calls": (len(coverage), "count"),
        "geometry.coverage.busy_s": (busy(coverage), "s"),
        "geometry.coverage.msamples_per_s": (
            sum(s.note for s in coverage) / busy(coverage) / 1e6 if coverage else 0.0,
            "Msamples/s"),
        "rate.calls": (len(rates), "count"),
        "rate.busy_s": (busy(rates), "s"),
        "model.quantize.calls": (len(quantize), "count"),
        "model.quantize.busy_s": (busy(quantize), "s"),
        "model.zipf.busy_s": (busy(zipf), "s"),
        "simulator.simulate.busy_s": (busy(sims), "s"),
        "simulator.mreq_per_s": (
            sum(s.note for s in sims) / busy(sims) / 1e6 if sims else 0.0, "Mreq/s"),
    }
    # a subcommand's time is that of the `main` call that dispatched it
    sub_s = {f"cli.{name.replace('-', '_')}_s": 0.0 for name in subcommands}
    for s in spans:
        if s.name.startswith("cli.cmd_") and s.parent is not None:
            sub_s[f"cli.{s.name[len('cli.cmd_'):]}_s"] += spans[s.parent].duration
    metrics.update({name: (seconds, "s") for name, seconds in sub_s.items()})
    metrics["cli.self_s"] = (sum(t for s, t in zip(spans, own) if s.layer == "cli"), "s")
    return metrics


def write_trace(path: Path, spans) -> None:
    path.write_text(json.dumps([
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
        for s in spans]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cachegame" / "__init__.py").is_file():
        print(f"error: no cachegame sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    calibration = Calibration()
    setup_samples = ([] if args.trace
                     else measure_setup(args.workload, args.seed, calibration))
    workloads.OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    setup_tracer = tracing.Tracer()
    with setup_tracer.patch() if args.trace else contextlib.nullcontext():
        workload.setup(args.seed)
    t0 = time.perf_counter()
    while True:
        workload.warm_up()
        warm_up_s = time.perf_counter() - t0
        if warm_up_s >= WARM_UP_S:
            break

    walls = {False: [], True: []}
    passes = {False: [], True: []}  # per pass, its timed operations
    errs, failed, attempted = [], [], 0
    layer_runs = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        tracer = tracing.Tracer()
        ops = Ops(calibration)
        t0 = time.perf_counter()
        with tracer.patch() if traced else contextlib.nullcontext():
            output = workload.run_pass(ops, tracer.next_op)
        walls[traced].append(time.perf_counter() - t0)
        passes[traced].append(ops)
        checks = workloads.Checks()
        workload.verify(output, checks)
        attempted += checks.attempted
        failed += checks.failed
        errs.append(checks.rate_err_max)
        if traced:
            layer_runs.append(layer_metrics(
                tracer.spans, setup_tracer.spans,
                [name for name, _ in workloads.CLI_SUBCOMMANDS]))
            last_spans = tracer.spans
        done = walls[False] + walls[True]
        # stop before a pass that would end past the deadline
        if (time.perf_counter() - start + statistics.median(done) > args.seconds
                and len(done) >= MIN_PASSES and (walls[True] or not args.trace)):
            break

    typical = typical_ops(passes[False])
    wall = sum(seconds for _, seconds in typical)
    op_s = [seconds for kind, seconds in typical if kind == workload.op_name]
    if args.trace:
        metrics = {name: (statistics.median(run[name][0] for run in layer_runs), unit)
                   for name, (_, unit) in layer_runs[0].items()}
        traced_wall = sum(seconds for _, seconds in typical_ops(passes[True]))
        overhead = (traced_wall - wall) / wall
        metrics["trace.overhead_frac"] = (overhead, "fraction")
        write_trace(workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                    setup_tracer.spans + last_spans)
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op_ms_p50": 1e3 * workload.op_stat(op_s),
            "checks_passed_frac": (attempted - len(failed)) / attempted,
            "rate_err_max": statistics.median(errs),
        }
        metrics = {name: (value, UNITS[name]) for name, value in metrics.items()}

    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"warm-up {warm_up_s:.4f} s")
    print("pass walls untraced " + " ".join(f"{w:.4f}" for w in walls[False])
          + (" traced " + " ".join(f"{w:.4f}" for w in walls[True]) if args.trace else "")
          + " (unscaled, calibration included)")
    print("operations per pass untraced " + " ".join(
        f"{sum(op[1] for op in ops):.4f}" for ops in passes[False]) + " (unscaled)")
    kernel = [op[2] for ops in passes[False] for op in ops]
    print(f"calibration kernel {1e3 * min(kernel):.3f} / {1e3 * statistics.median(kernel):.3f}"
          f" / {1e3 * max(kernel):.3f} ms (min / median / max; reference "
          f"{1e3 * Calibration.REFERENCE_S:.3f} ms)")
    print("setup probes " + " ".join(f"{s:.4f}" for s in setup_samples) + " (scaled)")
    print(f"median pass of {len(passes[False])} {wall:.4f} s (scaled)")
    ops = [seconds for ops in passes[False] for kind, seconds, _ in ops
           if kind == workload.op_name]
    print(f"ops {len(ops)} ({workload.op_name}), p50 {1e3 * percentile(ops, 50):.3f} ms, "
          f"p90 {1e3 * percentile(ops, 90):.3f} ms (unscaled)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"checks attempted {attempted}, failed {len(failed)}")
    for name in sorted(set(failed)):
        print(f"FAILED {name} (x{failed.count(name)})")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
