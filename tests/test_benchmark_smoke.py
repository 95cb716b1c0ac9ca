"""One untimed pass of each benchmark workload, with the benchmark's own checks.

`perfbench/workloads.py` is frozen with the benchmark and reads the library's
API (`solver_status`, `LibraryConfig`, `detect_thresholds(..., results=)`,
`build_game_config(cfg, samples)`); a change that breaks it fails here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Untimed:
    """The `ops` of a benchmark pass, without the clock."""

    @staticmethod
    def time(func, *args, **kwargs):
        return func(*args, **kwargs)


BENCHMARKED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", BENCHMARKED)
def test_one_pass_passes_its_checks(name, tmp_path, monkeypatch):
    # the CLI workload writes its scratch directory under the cwd
    monkeypatch.chdir(tmp_path)
    workloads = load_workloads()
    workload = workloads.WORKLOADS[name]()
    workload.setup(1)
    workload.warm_up()
    output = workload.run_pass(Untimed, lambda: None)
    checks = workloads.Checks()
    workload.verify(output, checks)
    assert checks.attempted > 0
    assert checks.failed == []
