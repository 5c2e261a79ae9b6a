"""Scenarios in which clip timing alone cannot identify a route, so the
accelerometer statistics must do the work (ROADMAP item 18's ladder).

The tempo rung: three routes of the benchmark's wall, each climbed only
in a slow and a fast variant (``dt_scale`` 1.3 and 0.77, ``base`` the wall
route, whose label they inherit). A climb's clip deltas then say more
about its tempo than about its route. The tests pin facts, not scores:
the temporal block alone stays far from the routes, and the statistics
alone find them exactly.
"""

import numpy as np
import pytest

from quickroutes import cluster, config, features, ingest, preprocess, simulate

TEMPO_VARIANTS = {"slow": 1.3, "fast": 0.77}


def _csv(values):
    return ", ".join(f"{v:.4f}" for v in values)


def tempo_rung_config(workloads, seed, ie=12, n_routes=3, climbs=30, restarts=100):
    """INI text of one day on the tempo rung: ``climbs`` climbs in
    ``climb_order``, each on a variant of its route drawn from ``seed``."""
    routes = workloads.wall_routes(ie, n_routes)
    rng = np.random.default_rng([seed, 1])
    order = workloads.climb_order(rng, n_routes, climbs)
    variants = list(TEMPO_VARIANTS)
    names = [f"{routes[i].name}.{variants[rng.integers(len(variants))]}" for i in order]
    lines = [
        "[line]", f"ie = {ie}", "gap_s = 120.0", "",
        "[simulate]", f"seed = {seed}", "climbs = " + ", ".join(names),
        "climb_spacing_s = 240.0", "",
        "[pipeline]", f"restarts = {restarts}", f"n_clusters = {n_routes}", "",
    ]
    for r in routes:
        lines += [
            f"[route:{r.name}]",
            "clip_times = " + _csv(np.cumsum(r.deltas_s)),
            "amplitudes = " + _csv(r.amplitudes_g),
            "durations = " + _csv(r.durations_s),
            f"freq_hz = {r.freq_hz:.4f}",
            "",
        ]
        for variant, scale in TEMPO_VARIANTS.items():
            lines += [f"[route:{r.name}.{variant}]", f"base = {r.name}", f"dt_scale = {scale}", ""]
    return "\n".join(lines)


def ari_by_column_set(text):
    """ARI of the best of the config's K-Means restarts on the scaled
    temporal block and on the scaled accelerometer statistics."""
    pc = config.parse_config(text, origin="tempo_rung.ini")
    sim = simulate.simulate_line(pc.line, pc.require_profile(), pc.seed, pc.sensor)
    records = ingest.segment_climbs(sim.streams, pc.line, pc.pipeline.gap_s)
    ingest.attach_labels(records, pc.labels)
    matrix = features.build_feature_matrix(records, pc.line, pc.sensor)
    scaled = preprocess.fit_quantile(matrix).transform(matrix)
    temporal = [name for name in scaled.names if name.startswith("t.")]
    statistics = [name for name in scaled.names if not name.startswith("t.")]
    p = pc.pipeline
    ari = {}
    for key, names in (("temporal", temporal), ("statistics", statistics)):
        best = cluster.best_kmeans(scaled.select(names).values, p.n_clusters,
                                   restarts=p.restarts, seed0=p.seed0)
        ari[key] = cluster.rand_index(pc.labels, best.assignments.tolist())
    return len(records), pc.labels, ari


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tempo_rung_timing_alone_cannot_identify_routes(workloads, seed):
    n_climbs, labels, ari = ari_by_column_set(tempo_rung_config(workloads, seed))
    assert n_climbs == 30
    assert set(labels) == {"r0", "r1", "r2"}  # variants carry their route's label
    assert ari["temporal"] < 0.5
    assert ari["statistics"] == 1.0
