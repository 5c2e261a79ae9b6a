#!/usr/bin/env python3
"""Smoke run of the benchmark at the tiny size, in under a minute.

    python3 perfbench/smoke.py

Runs every workload untraced and traced at ``--size tiny`` on the golden
seed, so the golden-digest checks, the output checks and the traced mode
all run; checks that each prints a correct result line with exactly the
metrics BENCHMARK.json names. Then copies only BENCHMARK.json and the
benchmark's files into an empty directory and checks that the benchmark
refuses to run there. Exits non-zero on the first problem.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 120


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            what = f"{workload} trace {trace}"
            proc = bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0.3",
                         "--trace", trace, "--size", "tiny")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            names = sorted(m["name"] for m in wanted)
            if proc.returncode != 0 or result.get("correct") is not True:
                problems.append(f"{what}: exit {proc.returncode}\n{proc.stderr}")
            elif sorted(result["metrics"]) != names:
                problems.append(f"{what}: metrics {sorted(result['metrics'])} != {names}")
            else:
                print(f"ok {what}: attempted {result['attempted']}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, "--workload", "replay_week", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok without the program: exit {proc.returncode}")

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
