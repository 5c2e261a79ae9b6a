"""The tiny and full-size runs of the three benchmark workloads at the
golden seed give the digests stored in ``perfbench/golden.json``: event
bytes, feature matrix and K-Means assignments. A guard on the bit identity
of the whole pipeline, at the size the benchmark times, that takes a few
seconds; the benchmark files are only read."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("workload", sorted(GOLDEN["digests"]))
def test_tiny_run_matches_golden_digests(workload, tmp_path):
    inputs = workloads.prepare(workload, GOLDEN["seed"], "tiny", tmp_path)
    outcome = workloads.RUNS[workload](inputs)
    assert outcome.problems == []
    assert outcome.digests == GOLDEN["digests"][workload]["tiny"]


@pytest.mark.parametrize("workload", sorted(GOLDEN["digests"]))
def test_full_run_matches_golden_digests(workload, tmp_path):
    inputs = workloads.prepare(workload, GOLDEN["seed"], "full", tmp_path)
    outcome = workloads.RUNS[workload](inputs)
    assert outcome.problems == []
    assert outcome.ari >= GOLDEN["ari_floor"][workload]
    assert outcome.digests == GOLDEN["digests"][workload]["full"]
