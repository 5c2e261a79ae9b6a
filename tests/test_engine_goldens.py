"""The restart engine at the size the benchmark times, pinned bit for bit:
every one of ``kmeans_restarts(X, 8, range(100))`` on replay_week's
feature matrix at seed 0 (assignments, center bytes, inertia, rounds), and
the feature-count sweep's labelings and ``chosen_k`` on feature_sweep at
seeds 0 and 517. The digests in ``engine_goldens.json`` were written by
``python tests/test_engine_goldens.py`` on the engine that kept explicit
centers every round; any later engine must reproduce them. The benchmark
files are only read."""

import hashlib
import json
import struct
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from quickroutes import cluster, config, preprocess

GOLDENS = Path(__file__).resolve().with_name("engine_goldens.json")
SWEEP_SEEDS = (0, 517)


def prepared(workloads, workload, seed, tmp_path):
    """The parsed config, scaled feature matrix and scores of one full-size workload."""
    inputs = workloads.prepare(workload, seed, "full", tmp_path)
    pc = config.parse_config(inputs.config_text, origin=f"{workload}.ini")
    _, records = workloads._read_and_segment(pc, inputs.events_path)
    matrix, scaled, scores = workloads._scale_and_score(pc, records)
    return pc, matrix, scaled, scores


def restart_digests(workloads, tmp_path):
    """One digest per restart of replay_week's ``best_kmeans`` batch, in seed order."""
    pc, matrix, scaled, scores = prepared(workloads, "replay_week", 0, tmp_path)
    X = scaled.select(preprocess.select_k_best(scores, matrix.n_features)).values
    p = pc.pipeline
    digests = []
    for r in cluster.kmeans_restarts(X, p.n_clusters, range(p.seed0, p.seed0 + p.restarts)):
        digest = hashlib.sha256(r.assignments.astype(np.int64).tobytes())
        digest.update(r.centers.tobytes())
        digest.update(struct.pack("<dq", r.inertia, r.iterations))
        digests.append(digest.hexdigest())
    return digests


def sweep_digest(workloads, seed, tmp_path):
    """The digest of every labeling the sweep scores, and its ``chosen_k``."""
    pc, _, scaled, scores = prepared(workloads, "feature_sweep", seed, tmp_path)
    p = pc.pipeline
    scored = []
    real = cluster._rand_indices

    def rand(truth, labelings, adjusted):
        scored.append(np.asarray(labelings, dtype=np.int64).tobytes())
        return real(truth, labelings, adjusted)

    with mock.patch.object(cluster, "_rand_indices", rand):
        curve = cluster.sweep_feature_count(
            scaled.values, scaled.names, pc.labels, scores, n_clusters=p.n_clusters,
            restarts=p.restarts, seed0=p.seed0, adjusted=p.rand_adjusted,
            max_features=p.max_features)
    (labelings,) = scored
    return {"labelings": hashlib.sha256(labelings).hexdigest(), "chosen_k": curve.chosen_k}


def test_replay_week_restarts_match_goldens(workloads, tmp_path):
    expected = json.loads(GOLDENS.read_text(encoding="utf-8"))["replay_week_restarts"]
    assert restart_digests(workloads, tmp_path) == expected


def test_replay_week_best_kmeans_runs_57_then_43_restarts(workloads, tmp_path):
    # 2**18 floats hold the (restarts, 8, 571) blocks of 57 restarts
    pc, matrix, scaled, scores = prepared(workloads, "replay_week", 0, tmp_path)
    X = scaled.select(preprocess.select_k_best(scores, matrix.n_features)).values
    p = pc.pipeline
    assert (X.shape, p.n_clusters, p.restarts) == ((200, 571), 8, 100)
    with mock.patch.object(cluster, "_lloyd", wraps=cluster._lloyd) as engine:
        cluster.best_kmeans(X, p.n_clusters, p.restarts, p.seed0)
    assert [len(call.args[3]) for call in engine.call_args_list] == [57, 43]


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_feature_sweep_matches_goldens(workloads, seed, tmp_path):
    expected = json.loads(GOLDENS.read_text(encoding="utf-8"))["feature_sweep"][str(seed)]
    assert sweep_digest(workloads, seed, tmp_path) == expected


if __name__ == "__main__":
    # rewrite the goldens from the engine of this checkout
    import importlib.util
    import tempfile

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    with tempfile.TemporaryDirectory() as tmp:
        goldens = {
            "replay_week_restarts": restart_digests(module, Path(tmp)),
            "feature_sweep": {str(s): sweep_digest(module, s, Path(tmp)) for s in SWEEP_SEEDS},
        }
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
