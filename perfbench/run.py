#!/usr/bin/env python3
"""The quickroutes benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload firmware_day --seed 0 --seconds 30 --trace 0

It sets up five times (a fresh interpreter importing the library, input
generation from ``--seed`` and a tiny warm-up run whose outputs must match
the stored golden digests) and reports the median as ``setup_s``. Then it
runs the workload back to back, one caller in a closed loop, for
``--seconds`` seconds, checking every run's outputs; ``run_s`` is the
median run. With ``--trace 1`` the runs alternate untraced and traced (see
``tracing.py``); the per-layer metrics are medians over the traced runs,
in plain wall time.

Set-up and run times are corrected for the host's speed. On a shared host
with few cores, the speed of the same code drops by up to 40% for a
minute or more at a time, and no median over the runs of one process
evens that out. So a fixed reference computation that does not use the
program is timed before the first set-up and after every set-up and every
run, and each wall time is scaled by ``REFERENCE_S`` over the mean of the
two reference times around it: the times read as on a host that runs the
reference in ``REFERENCE_S``. The raw wall times and the reference times
go to the result file.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json, or its per-layer
metrics with ``--trace 1``). Results, the environment and the spans of the
last traced run go to ``perfbench/out/``. The exit code is 0 only when
every output check passed.

The full-size golden digests in ``golden.json`` hold for the golden seed
0, the default, so only seed-0 runs check them; every run checks the
tiny warm-up against its goldens. The result file holds the digests of
the first timed run.
"""

import os

# One BLAS thread: the benchmark measures one caller on one core.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The benchmark measures the program of this checkout, never an installed copy.
if not (SRC / "quickroutes").is_dir():
    print(f"no program to benchmark: {SRC / 'quickroutes'} is missing", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN_SEED = 0
SETUP_REPEATS = 5
OUT = HERE / "out"
IMPORT_LIBRARY = "import quickroutes." + ", quickroutes.".join(
    ["cluster", "config", "features", "ingest", "preprocess", "simulate"])

# The reference computation mixes the three kinds of work the library does:
# a pure-Python float loop (as in the firmware simulation), many numpy calls
# on tiny arrays (as in the feature-count sweep) and a few on large arrays
# (as in replay_week). REFERENCE_S is about its time on an unloaded 2-vCPU
# host; it only sets the scale and must stay fixed.
REFERENCE_S = 0.4
_rng = np.random.default_rng(0)
REF_TINY = _rng.standard_normal((40, 12))
REF_MATRIX = _rng.standard_normal((400, 60))
REF_VECTOR = _rng.standard_normal(200_000)


def reference_s() -> float:
    """Wall time of the reference computation, in seconds."""
    t = time.perf_counter()
    acc = 0.0
    for i in range(480_000):
        acc += math.exp(-i * 1e-5) * math.sin(i * 0.01)
    for _ in range(6400):
        acc += ((REF_TINY[:, None, :] - REF_TINY[None, :3, :]) ** 2).sum(-1).argmin(1).sum()
    for _ in range(48):
        acc += np.sort(REF_VECTOR).sum() + (REF_MATRIX @ REF_MATRIX.T).sum()
    return time.perf_counter() - t


class HostSpeed:
    """Corrects wall times for the host's speed at the time they were taken."""

    def __init__(self):
        self.references = [reference_s()]

    def correct(self, wall: float) -> float:
        """``wall`` of the measurement that just ended, in reference-host seconds."""
        self.references.append(reference_s())
        return wall * REFERENCE_S / statistics.fmean(self.references[-2:])


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "seed": seed,
        "git_commit": _git_commit(),
    }


class Checker:
    """Counts attempted and failed runs and says why each failure happened."""

    def __init__(self, workload: str, seed: int, size: str, golden: dict):
        self.workload, self.seed, self.size = workload, seed, size
        self.golden = golden
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digests: dict | None = None

    def run(self, fn, inputs, what: str):
        """Run once; returns the outcome, or None when the run raised."""
        self.attempted += 1
        try:
            return fn(inputs)
        except Exception:  # a failed run is counted, and the benchmark goes on
            self.failures.append(f"{what}: raised\n{traceback.format_exc()}")
            return None

    def check(self, outcome, what: str, expected_digests: dict | None = None,
              ari_floor: float | None = None) -> bool:
        problems = list(outcome.problems)
        if ari_floor is not None and not outcome.ari >= ari_floor:
            problems.append(f"ARI {outcome.ari} below the floor {ari_floor}")
        if expected_digests is not None:
            for key, want in expected_digests.items():
                if outcome.digests.get(key) != want:
                    problems.append(f"{key} digest {outcome.digests.get(key)} != golden {want}")
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))
        return not problems

    def check_timed(self, outcome, what: str) -> bool:
        """Checks of a timed run: same outputs as the first run, goldens, ARI floor."""
        if self.first_digests is None:
            self.first_digests = outcome.digests
            golden = self.golden["digests"][self.workload][self.size]
            expected = golden if self.seed == GOLDEN_SEED else None
        else:
            expected = self.first_digests
        floor = self.golden["ari_floor"][self.workload] if self.size == "full" else None
        return self.check(outcome, what, expected, floor)


def setup(workload: str, seed: int, size: str, checker: Checker):
    """Import the library in a fresh interpreter, generate the inputs and
    warm up on the tiny golden case; returns (inputs, seconds)."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_LIBRARY], cwd=ROOT, check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})
    inputs = workloads.prepare(workload, seed, size, OUT)
    tiny = workloads.prepare(workload, GOLDEN_SEED, "tiny", OUT)
    outcome = checker.run(workloads.RUNS[workload], tiny, "warm-up")
    if outcome is not None:
        checker.check(outcome, "warm-up", checker.golden["digests"][workload]["tiny"])
    return inputs, time.perf_counter() - t


def timed_runs(workload, inputs, checker, speed: HostSpeed, until: float, trace: bool):
    """Run back to back while a typical run still ends before ``until``,
    timing the reference after each run.

    With ``trace`` the runs alternate untraced and traced, so that slow
    drift of the host's speed cancels out of the tracing overhead. Returns
    the (untraced, traced) runs whose outputs passed the checks, each as
    (corrected seconds, outcome, tracer or None), and every run's wall
    time. A traced run is the tracer's first span, so the layers' spans are
    its children.
    """
    fn = workloads.RUNS[workload]
    runs: dict[bool, list] = {False: [], True: []}
    walls = []
    while True:
        gc.collect()
        n = checker.attempted
        traced = trace and len(walls) % 2 == 1
        if traced:
            tracer = tracing.Tracer()
            with tracing.patched(tracer):
                outcome = checker.run(tracer.wrap("run", fn), inputs, f"traced run {n}")
            wall = tracer.ends[0] - tracer.starts[0]
        else:
            t = time.perf_counter()
            outcome = checker.run(fn, inputs, f"run {n}")
            wall = time.perf_counter() - t
            tracer = None
        seconds = speed.correct(wall)
        if outcome is not None and checker.check_timed(outcome, f"run {n}"):
            runs[traced].append((seconds, outcome, tracer))
        walls.append(wall)
        enough = len(walls) >= (2 if trace else 1)
        next_end = time.perf_counter() + statistics.median(walls) + speed.references[-1]
        if enough and next_end > until:
            return runs[False], runs[True], walls


def end_to_end(runs, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    run_s = statistics.median(seconds for seconds, *_ in runs)
    outcome = runs[0][1]
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "climbs_per_s": outcome.n_climbs / run_s,
        "peak_rss_mb": peak_rss_mb,
        "ari": statistics.median(o.ari for _, o, _ in runs),
        "events_per_climb": outcome.n_events / outcome.n_climbs,
    }


def per_layer(traced, untraced) -> dict[str, float]:
    layers = [tracing.layer_metrics(tracer) for _, _, tracer in traced]
    values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    # Each traced run minus the untraced run just before it, so that slow
    # drift of the host's speed cancels out.
    values["trace.overhead_s"] = statistics.median(
        t - u for (t, *_), (u, *_) in zip(traced, untraced))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.RUNS), required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the warm-up size, for a smoke run")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())
    checker = Checker(args.workload, args.seed, args.size, golden)

    speed = HostSpeed()
    setup_walls, setup_seconds = [], []
    for _ in range(SETUP_REPEATS):
        inputs, wall = setup(args.workload, args.seed, args.size, checker)
        setup_walls.append(wall)
        setup_seconds.append(speed.correct(wall))
    setup_s = statistics.median(setup_seconds)

    untraced, traced, run_walls = timed_runs(
        args.workload, inputs, checker, speed,
        time.perf_counter() + args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = len(checker.failures)
    correct = failed == 0 and bool(untraced) and (bool(traced) or not args.trace)
    for failure in checker.failures:
        print(f"FAILED {failure}", file=sys.stderr)

    values = {}
    if untraced:
        values.update(end_to_end(untraced, setup_s, peak_rss_mb))
    if traced and untraced:
        values.update(per_layer(traced, untraced))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    # Not gated end-to-end metrics: fail_frac is 0 on correct code and
    # sweep_min_ari exists on feature_sweep only.
    extra = {
        "fail_frac": failed / max(checker.attempted, 1),
        "sweep_min_ari": next((o.sweep_min_ari for _, o, _ in untraced + traced), None),
        "labels_used_for_selection": workloads.LABELS_USED[args.workload],
        "timed_runs": len(untraced),
        "run_wall_s_median": statistics.median(run_walls),
        "host_speed": REFERENCE_S / statistics.fmean(speed.references),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in sorted(values.items()):
        print(f"{name} {value!r} {units.get(name, '')}")
    for name, value in extra.items():
        print(f"{name} {value!r}")

    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed),
        "correct": correct, "attempted": checker.attempted, "failed": failed,
        "failures": checker.failures,
        "digests": checker.first_digests,
        "metrics": values, **extra,
        "setup_walls_s": setup_walls,
        "run_walls_s": run_walls,
        "run_s_all": [s for s, *_ in untraced],
        "traced_run_s_all": [s for s, *_ in traced],
        "reference_s_all": speed.references,
        "spans": traced[-1][2].aggregate() if traced else None,
        "layer_map": tracing.LAYER_MAP,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if traced:
        traced[-1][2].write(OUT / f"spans-{stem}.tsv")

    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
