"""Smoke check of the benchmark itself.

Runs every workload of ``BENCHMARK.json`` at a tiny size, untraced and
traced, and checks that each run exits 0, passes its output checks,
prints ``failed_ops`` and prints every end-to-end (untraced) or
per-layer (traced) metric by name with its unit, and that the last
line of output is the result object and nothing else.

    python3 perfbench/smoke.py        # from the repository root

Takes about a minute on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def smoke_run(bench, workload: str, trace: int) -> list:
    label = f"{workload} trace {trace}"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = "\n".join(lines[:-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("attempted", 0) < 1:
        problems.append(f"{label}: {result.get('failed')} of "
                        f"{result.get('attempted')} operations failed")
    expected = bench["per_layer" if trace else "end_to_end"]
    if set(result.get("metrics", {})) != {m["name"] for m in expected}:
        problems.append(f"{label}: metrics {sorted(result['metrics'])}")
    for m in expected:
        got = result.get("metrics", {}).get(m["name"])
        if got is None or got.get("unit") != m["unit"] \
                or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: bad metric {m['name']}: {got}")
        if f"\n{m['name']} = " not in "\n" + printed:
            problems.append(f"{label}: {m['name']} not printed")
    if "failed_ops = " not in printed:
        problems.append(f"{label}: failed_ops not printed")
    print(f"{label}: {'ok' if not problems else 'PROBLEMS'} "
          f"({result.get('attempted')} operations)")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            problems += smoke_run(bench, workload["name"], trace)
    for problem in problems:
        print(problem)
    print("smoke check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
