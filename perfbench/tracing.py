"""Traced mode: spans and counts recorded from outside the library.

The library looks most of its collaborators up as module attributes at
call time (``simulate`` calls ``step``, ``cluster.best_kmeans`` calls
``kmeans``, ``features.assemble`` calls ``stat_features``). Replacing those
attributes with timing wrappers for the length of one run therefore sees
every call, nested ones included, without a line of tracing in the
library. The benchmark calls the top-level functions through their
modules too, so the same wrappers give the top-level spans.

A span is (name, parent, start, end); spans live in flat arrays while the
run goes on and are written out when the benchmark ends. A layer's self
time is its spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import tracemalloc
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from quickroutes import cluster, config, features, ingest, preprocess, simulate

# Which end-to-end metric each layer's metrics should move, and where.
LAYER_MAP = {
    "sensor": "run_s and climbs_per_s on firmware_day, nothing elsewhere; "
              "sensor.events_per_step must not change",
    "simulate": "run_s on firmware_day",
    "config": "setup_s and run_s on firmware_day (negligible)",
    "ingest": "run_s on replay_week (a small share)",
    "features": "run_s on replay_week (large share) and feature_sweep (about 4%)",
    "preprocess": "run_s on replay_week",
    "cluster (sweep path)": "run_s on feature_sweep",
    "cluster (large-n path)": "run_s on replay_week",
    "cluster (silhouette)": "run_s and peak_rss_mb on replay_week",
}


class Tracer:
    """Spans of one run plus counts taken from return values."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result`` adds counts."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.ends) - np.frombuffer(self.starts)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Calls, total time and self time per span name."""
        dur = self.durations()
        parents = np.frombuffer(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        keys, inverse = np.unique(np.array(self.names), return_inverse=True)
        calls = np.bincount(inverse, minlength=keys.size)
        total = np.bincount(inverse, weights=dur, minlength=keys.size)
        self_s = np.bincount(inverse, weights=own, minlength=keys.size)
        return {
            str(k): {"calls": int(c), "total_s": float(t), "self_s": float(s)}
            for k, c, t, s in zip(keys, calls, total, self_s)
        }

    def coverage(self) -> float:
        """Share of the first (root) span that its direct children cover."""
        dur = self.durations()
        parents = np.frombuffer(self.parents, dtype=np.int64)
        return float(dur[parents == 0].sum() / dur[0])

    def write(self, path: Path) -> None:
        """All spans as TSV, times in seconds from the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(f"{sid}\t{parent}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\n")


def _count_step(counts, args, kwargs, result):
    counts["sensor.events"] += len(result[1])


def _count_simulate(counts, args, kwargs, result):
    # simulated sensor time: every position runs until the line's end time
    counts["simulate.sensor_s"] += result.end_time * len(result.streams)


def _count_read(counts, args, kwargs, result):
    counts["ingest.events"] += sum(len(stream) for stream in result.values())


def _count_matrix(counts, args, kwargs, result):
    counts["features.climbs"] += result.n_climbs


def _count_kmeans(counts, args, kwargs, result):
    max_iter = args[3] if len(args) > 3 else kwargs.get("max_iter", cluster.DEFAULT_MAX_ITER)
    counts["cluster.kmeans.iterations"] += result.iterations
    counts["cluster.kmeans.max_iter_hits"] += result.iterations >= max_iter


def _count_gmm(counts, args, kwargs, result):
    counts["cluster.gmm.iterations"] += result.iterations


def _peak_memory(counts, key, fn):
    """``fn`` with its peak traced allocation, in MiB, kept under ``key``."""

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            counts[key] = max(counts[key], tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    return measured


# (owner, attribute, span name, counter): every call the traced run wraps.
TRACE_POINTS = [
    (config, "parse_config", "config.parse_config", None),
    (simulate, "simulate_line", "simulate.simulate_line", _count_simulate),
    (simulate, "step", "sensor.step", _count_step),
    (ingest, "write_events", "ingest.write_events", None),
    (ingest, "read_events", "ingest.read_events", _count_read),
    (ingest, "segment_climbs", "ingest.segment_climbs", None),
    (ingest, "attach_labels", "ingest.attach_labels", None),
    (features, "build_feature_matrix", "features.build_feature_matrix", _count_matrix),
    (features, "axis_sets", "features.axis_sets", None),
    (features, "stat_features", "features.stat_features", None),
    (features.FeatureMatrix, "select", "features.select", None),
    (preprocess, "fit_quantile", "preprocess.fit_quantile", None),
    (preprocess.QuantileScaler, "transform", "preprocess.transform", None),
    (preprocess, "score_features", "preprocess.score_features", None),
    (preprocess, "select_k_best", "preprocess.select_k_best", None),
    (cluster, "kmeans", "cluster.kmeans", _count_kmeans),
    (cluster, "best_kmeans", "cluster.best_kmeans", None),
    (cluster, "repeated_kmeans", "cluster.repeated_kmeans", None),
    (cluster, "rand_index", "cluster.rand_index", None),
    (cluster, "sweep_feature_count", "cluster.sweep_feature_count", None),
    (cluster, "pca_fit", "cluster.pca_fit", None),
    (cluster, "pca_project", "cluster.pca_project", None),
    (cluster, "gmm_em", "cluster.gmm_em", _count_gmm),
    (cluster, "silhouette", "cluster.silhouette", None),
    (cluster, "count_misassigned", "cluster.count_misassigned", None),
]
MEMORY_POINTS = {"cluster.silhouette": "cluster.silhouette.peak_mb"}


@contextmanager
def patched(tracer: Tracer):
    """Route every TRACE_POINTS call through ``tracer`` inside the block."""
    saved = []
    try:
        for owner, attr, name, on_result in TRACE_POINTS:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            if name in MEMORY_POINTS:
                fn = _peak_memory(tracer.counts, MEMORY_POINTS[name], fn)
            setattr(owner, attr, tracer.wrap(name, fn, on_result))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, by name."""
    agg = tracer.aggregate()
    counts = tracer.counts

    def total(name):
        return agg.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    step_s, sim_s = total("sensor.step"), total("simulate.simulate_line")
    kmeans_s, read_s = total("cluster.kmeans"), total("ingest.read_events")
    matrix_s = total("features.build_feature_matrix")
    return {
        "sensor.step.calls": calls("sensor.step"),
        "sensor.step_s": step_s,
        "sensor.step_us": ratio(step_s * 1e6, calls("sensor.step")),
        "sensor.events_per_step": ratio(counts["sensor.events"], calls("sensor.step")),
        "simulate.simulate_line_s": sim_s,
        "simulate.self_s": agg.get("simulate.simulate_line", {}).get("self_s", 0.0),
        "simulate.sensor_s_per_host_s": ratio(counts["simulate.sensor_s"], sim_s),
        "config.parse_config_s": total("config.parse_config"),
        "ingest.write_events_s": total("ingest.write_events"),
        "ingest.read_events_s": read_s,
        "ingest.segment_climbs_s": total("ingest.segment_climbs"),
        "ingest.events": counts["ingest.events"],
        "ingest.events_per_s": ratio(counts["ingest.events"], read_s),
        "features.build_feature_matrix_s": matrix_s,
        "features.ms_per_climb": ratio(matrix_s * 1e3, counts["features.climbs"]),
        "features.stat_features.calls": calls("features.stat_features"),
        "features.stat_features_s": total("features.stat_features"),
        "features.axis_sets_s": total("features.axis_sets"),
        "preprocess.fit_quantile_s": total("preprocess.fit_quantile"),
        "preprocess.transform_s": total("preprocess.transform"),
        "preprocess.score_features_s": total("preprocess.score_features"),
        "cluster.sweep_feature_count_s": total("cluster.sweep_feature_count"),
        "cluster.kmeans.calls": calls("cluster.kmeans"),
        "cluster.kmeans_s": kmeans_s,
        "cluster.kmeans_us_per_call": ratio(kmeans_s * 1e6, calls("cluster.kmeans")),
        "cluster.kmeans.iterations": counts["cluster.kmeans.iterations"],
        "cluster.kmeans.max_iter_hits": counts["cluster.kmeans.max_iter_hits"],
        "cluster.rand_index.calls": calls("cluster.rand_index"),
        "cluster.rand_index_s": total("cluster.rand_index"),
        "cluster.best_kmeans_s": total("cluster.best_kmeans"),
        "cluster.count_misassigned_s": total("cluster.count_misassigned"),
        "cluster.pca_fit_s": total("cluster.pca_fit"),
        "cluster.gmm_em_s": total("cluster.gmm_em"),
        "cluster.gmm.iterations": counts["cluster.gmm.iterations"],
        "cluster.silhouette_s": total("cluster.silhouette"),
        "cluster.silhouette.peak_mb": counts["cluster.silhouette.peak_mb"],
        "trace.coverage": tracer.coverage(),
    }
