"""The tiny and full-size runs of the three benchmark workloads at the
golden seed give the digests stored in ``perfbench/golden.json``: event
bytes, feature matrix and K-Means assignments. A guard on the bit identity
of the whole pipeline, at the size the benchmark times, that takes a few
seconds; the benchmark files are only read."""

import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(GOLDEN["digests"]))
def test_tiny_run_matches_golden_digests(workloads, workload, tmp_path):
    inputs = workloads.prepare(workload, GOLDEN["seed"], "tiny", tmp_path)
    outcome = workloads.RUNS[workload](inputs)
    assert outcome.problems == []
    assert outcome.digests == GOLDEN["digests"][workload]["tiny"]


@pytest.mark.parametrize("workload", sorted(GOLDEN["digests"]))
def test_full_run_matches_golden_digests(workloads, workload, tmp_path):
    inputs = workloads.prepare(workload, GOLDEN["seed"], "full", tmp_path)
    outcome = workloads.RUNS[workload](inputs)
    assert outcome.problems == []
    assert outcome.ari >= GOLDEN["ari_floor"][workload]
    assert outcome.digests == GOLDEN["digests"][workload]["full"]
