"""Set-up probe: one fresh interpreter that imports resodec, loads one
workload's configuration files and builds its inputs, timing each step.

    python3 perfbench/setup_probe.py <workload> <seed> <tiny: 0|1>

Prints one JSON object with ``import_s``, ``config_load_s``,
``build_s`` and their sum ``setup_s``.  ``run.py`` starts several of
these per run and reports the medians.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
import resodec  # noqa: E402,F401  (the import being timed)
imported = time.perf_counter()

import workloads  # noqa: E402

name, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
root = Path(__file__).resolve().parent.parent
t0 = time.perf_counter()
cfgs = workloads.load_configs(name, root)
t1 = time.perf_counter()
workloads.build(name, cfgs, seed, tiny, root)
t2 = time.perf_counter()
print(json.dumps({"import_s": imported - start, "config_load_s": t1 - t0,
                  "build_s": t2 - t1,
                  "setup_s": (imported - start) + (t2 - t0)}))
