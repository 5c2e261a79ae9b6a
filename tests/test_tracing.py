"""The benchmark's traced mode finds every name it wraps, and the
workloads call every name it wraps but the two that wait for deletion.

``perfbench/tracing.py`` looks each traced attribute up with
``owner.__dict__[attr]``, so deleting or renaming one of them breaks the
traced benchmark. This guard fails first; the benchmark files are only
read. A wrapped name that no workload calls makes its per-layer metrics
read 0."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def test_every_trace_point_is_patched_and_restored():
    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracing.TRACE_POINTS]
    with tracing.patched(tracing.Tracer()):
        for (owner, attr, _, _), fn in zip(tracing.TRACE_POINTS, originals):
            assert owner.__dict__[attr] is not fn
    assert [owner.__dict__[attr] for owner, attr, _, _ in tracing.TRACE_POINTS] == originals


# wrapped names that no run path calls; ROADMAP item 2 deletes both
NEVER_CALLED = {"sensor.step", "cluster.repeated_kmeans"}


def test_the_workloads_call_every_trace_point_but_the_ones_awaiting_deletion(workloads, tmp_path):
    with tracing.patched(tracing.Tracer()) as tracer:
        for workload, run in workloads.RUNS.items():
            run(workloads.prepare(workload, 0, "tiny", tmp_path))
    called = set(tracer.names)
    assert {name for _, _, name, _ in tracing.TRACE_POINTS} - called == NEVER_CALLED
