"""Time one benchmark set-up in a fresh interpreter and print it in seconds.

Set-up is importing cachegame (with numpy and scipy) and building the
workload's inputs from its seed.  Usage:

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports cachegame)

workloads.WORKLOADS[sys.argv[1]]().setup(int(sys.argv[2]))
print(time.perf_counter() - start)
