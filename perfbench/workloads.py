"""The benchmark's workloads: seeded inputs, the pipeline each one runs,
and the checks on its outputs.

Every workload is a closed loop of one caller: the pipeline runs start to
finish, then the next run starts. Each pipeline composes the public calls
of the ``quickroutes`` modules itself and looks them up through the module
(``cluster.kmeans``, not a local name), so that the tracer in
``tracing.py`` can wrap them from outside.

Workloads, and why each exists:

- ``firmware_day``: an INI config goes through the firmware simulation
  and the whole pipeline. It is the only workload that runs ``sensor`` and
  ``simulate``, whose sleep and active phases dominate its time.
- ``replay_week``: a large generated event file, never simulated. Feature
  extraction, one large K-Means, PCA/GMM, the n^2*d silhouette and the
  factorial ``count_misassigned`` (8 routes) carry its time and memory.
- ``feature_sweep``: a small generated input and the full feature-count
  sweep: thousands of tiny ``kmeans`` + ``rand_index`` calls, the
  opposite use of ``cluster.kmeans`` to ``replay_week``.

Route tables come from a fixed wall (``WALL_SEED``): the same routes every
run, as on a real wall. ``--seed`` draws what changes from day to day: the
order of climbs and every jitter and noise term.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from quickroutes import cluster, config, features, ingest, preprocess, simulate

WALL_SEED = 2211
TICK_HZ = 50          # active sample rate of the firmware's defaults
WINDOW_TICKS = 8      # one averaged event per 8 samples
REST_COUNTS = np.array([0.0, 0.0, 63.5])  # 1 g on z, in counts
BURST_DIRECTION = np.array(simulate.BURST_DIRECTION)
MAX_COUNTS = 127

# Sizes of each workload. "tiny" is the warm-up of every run and the smoke
# run; "full" is what the benchmark times. A full run takes 3-5 s on a
# 2-vCPU host, so that a 30 s window holds 6-8 runs for the median; the
# host's speed changes for tens of seconds at a time, and a few long runs
# let one slow stretch move the median. replay_week keeps 100 restarts:
# with 20, K-Means on 8 routes stops short of the ARI floor on some seeds.
SIZES = {
    "firmware_day": {
        "full": dict(ie=12, routes=3, climbs=6, spacing_s=240.0, gap_s=120.0,
                     restarts=100, max_features=60),
        "tiny": dict(ie=5, routes=2, climbs=4, spacing_s=90.0, gap_s=50.0,
                     restarts=10, max_features=20),
    },
    "replay_week": {
        "full": dict(ie=12, routes=8, climbs=200, gap_s=120.0, restarts=100),
        "tiny": dict(ie=6, routes=3, climbs=9, gap_s=60.0, restarts=5),
    },
    "feature_sweep": {
        "full": dict(ie=12, routes=3, climbs=60, gap_s=120.0, restarts=5),
        "tiny": dict(ie=6, routes=3, climbs=6, gap_s=60.0, restarts=3,
                     max_features=20),
    },
}


# Which reported numbers consumed the ground-truth labels before scoring.
LABELS_USED = {
    "firmware_day": "ari: ANOVA picks the clustered columns",
    "replay_week": "no: ari clusters every column",
    "feature_sweep": "sweep_min_ari: ANOVA ranking and chosen_k; ari: no",
}


@dataclass(frozen=True)
class RouteTable:
    """One route of the wall: per-position clip deltas, amplitudes, burst lengths."""

    name: str
    deltas_s: np.ndarray      # clip-to-clip time before each position, (ie,)
    amplitudes_g: np.ndarray  # (ie,)
    durations_s: np.ndarray   # (ie,)
    freq_hz: float


def wall_routes(ie: int, n_routes: int) -> list[RouteTable]:
    """The fixed routes of the benchmark's wall, independent of ``--seed``."""
    rng = np.random.default_rng([WALL_SEED, ie, n_routes])
    return [
        RouteTable(
            name=f"r{i}",
            deltas_s=rng.uniform(3.0, 8.0, size=ie),
            amplitudes_g=rng.uniform(0.9, 1.6, size=ie),
            durations_s=rng.uniform(2.5, 4.0, size=ie),
            freq_hz=float(rng.uniform(1.0, 2.0)),
        )
        for i in range(n_routes)
    ]


def climb_order(rng: np.random.Generator, n_routes: int, n_climbs: int) -> np.ndarray:
    """Route index per climb: every route about equally often, shuffled."""
    reps = -(-n_climbs // n_routes)
    return rng.permutation(np.tile(np.arange(n_routes), reps)[:n_climbs])


def _csv(values) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def firmware_config(seed: int, size: dict) -> str:
    """INI text of one simulated day on the wall."""
    routes = wall_routes(size["ie"], size["routes"])
    order = climb_order(np.random.default_rng([seed, 1]), size["routes"], size["climbs"])
    lines = [
        "[line]",
        f"ie = {size['ie']}",
        f"gap_s = {size['gap_s']}",
        "",
        "[simulate]",
        f"seed = {seed}",
        "climbs = " + ", ".join(routes[i].name for i in order),
        f"climb_spacing_s = {size['spacing_s']}",
        "",
        "[pipeline]",
        f"restarts = {size['restarts']}",
        f"n_clusters = {size['routes']}",
        f"max_features = {size['max_features']}",
        "",
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
    return "\n".join(lines)


@dataclass
class Replay:
    """A generated event stream in wire format plus its ground truth."""

    text: str
    labels: list[str]
    clip_times: list[dict[int, float]]  # per climb, position -> clip time


def replay_events(
    routes: list[RouteTable], order: np.ndarray, ie: int, gap_s: float,
    rng: np.random.Generator,
) -> Replay:
    """Synthesize transmitted events of many climbs, without the firmware.

    Times sit on the 50 Hz sample grid, one averaged event per 8 samples,
    so they print exactly with millisecond precision. Each position's
    events fall before the next position's clip, every position 1..ie is
    present, and each climb starts more than ``gap_s`` after the previous
    climb's last event. Event counts per position follow the route's
    amplitude; clip deltas and burst shapes follow the route.
    """
    gap_ticks = int(np.ceil(gap_s * TICK_HZ))
    cols: list[np.ndarray] = []  # per climb: (n, 5) rows of position, tick, x, y, z
    clips_out: list[dict[int, float]] = []
    next_start = 10 * TICK_HZ
    for r_idx in order:
        route = routes[r_idx]
        n_ev = np.clip(np.rint(route.amplitudes_g * 6 + rng.normal(0, 0.7, ie)), 2, 12)
        n_ev = n_ev.astype(np.int64)
        steps = np.rint(route.deltas_s[1:] * (1 + rng.normal(0, 0.04, ie - 1)) * TICK_HZ)
        # each window must end before the next position clips
        steps = np.maximum(steps.astype(np.int64), WINDOW_TICKS * (n_ev[:-1] + 1))
        clip = next_start + np.concatenate(([0], np.cumsum(steps)))
        pos = np.repeat(np.arange(1, ie + 1), n_ev)
        k = np.concatenate([np.arange(n) for n in n_ev])
        tick = np.repeat(clip, n_ev) + WINDOW_TICKS * k
        dt = WINDOW_TICKS * k / TICK_HZ
        amp = np.repeat(route.amplitudes_g * (1 + rng.normal(0, 0.05, ie)), n_ev)
        tau = np.repeat(route.durations_s / 3.0, n_ev)
        swing = amp * np.exp(-dt / tau) * np.sin(2 * np.pi * route.freq_hz * dt + 0.8)
        counts = (REST_COUNTS + 63.5 * swing[:, None] * BURST_DIRECTION
                  + rng.normal(0, 1.2, (pos.size, 3)))
        counts = np.clip(np.rint(counts), -MAX_COUNTS, MAX_COUNTS).astype(np.int64)
        cols.append(np.column_stack([pos, tick, counts]))
        clips_out.append({p: float(clip[p - 1] / TICK_HZ) for p in range(1, ie + 1)})
        next_start = int(tick.max()) + gap_ticks + int(rng.integers(10, 60)) * TICK_HZ
    rows = np.concatenate(cols)
    rows = rows[np.lexsort((rows[:, 0], rows[:, 1]))]
    text = "".join(
        f"{p}\t{t / TICK_HZ:.3f}\t{x}\t{y}\t{z}\n" for p, t, x, y, z in rows.tolist()
    )
    labels = [routes[i].name for i in order]
    return Replay(text=text, labels=labels, clip_times=clips_out)


def replay_config(size: dict, labels: list[str]) -> str:
    lines = [
        "[line]",
        f"ie = {size['ie']}",
        f"gap_s = {size['gap_s']}",
        "labels = " + ", ".join(labels),
        "",
        "[pipeline]",
        f"restarts = {size['restarts']}",
        f"n_clusters = {size['routes']}",
        "pca_dims = 2",
    ]
    if "max_features" in size:
        lines.append(f"max_features = {size['max_features']}")
    return "\n".join(lines) + "\n"


@dataclass
class Inputs:
    """What one workload run receives: a config and, for replays, an event file."""

    config_text: str
    events_path: Path      # firmware_day writes it; replays read it
    truth_clips: Optional[list[dict[int, float]]] = None


@dataclass
class Outcome:
    """What one workload run produced, kept for the output checks."""

    n_climbs: int
    n_events: int
    ari: float
    digests: dict[str, str]
    sweep_min_ari: Optional[float] = None
    problems: list[str] = field(default_factory=list)


def prepare(workload: str, seed: int, size_name: str, outdir: Path) -> Inputs:
    """Generate the inputs of one workload from ``seed``."""
    size = SIZES[workload][size_name]
    events_path = outdir / f"{workload}-{size_name}-seed{seed}.events"
    if workload == "firmware_day":
        return Inputs(firmware_config(seed, size), events_path)
    routes = wall_routes(size["ie"], size["routes"])
    rng = np.random.default_rng([seed, 2])
    order = climb_order(rng, size["routes"], size["climbs"])
    replay = replay_events(routes, order, size["ie"], size["gap_s"], rng)
    events_path.write_text(replay.text, encoding="utf-8")
    return Inputs(replay_config(size, replay.labels), events_path, replay.clip_times)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _matrix_digest(matrix) -> str:
    return digest(repr(matrix.values.shape).encode() + matrix.values.tobytes())


def _assignment_digest(assignments) -> str:
    return digest(np.asarray(assignments, dtype=np.int64).tobytes())


def _clips_match(records, truth: list[dict[int, float]]) -> list[str]:
    if len(records) != len(truth):
        return [f"segmented {len(records)} climbs, expected {len(truth)}"]
    bad = [r.climb_id for r, t in zip(records, truth) if r.clip_times != t]
    return [f"clip times differ from truth in climbs {bad[:5]}"] if bad else []


def _scale_and_score(pc, records):
    matrix = features.build_feature_matrix(records, pc.line, pc.sensor)
    scaler = preprocess.fit_quantile(matrix)
    scaled = scaler.transform(matrix)
    scores = preprocess.score_features(scaled)
    return matrix, scaled, scores


def _final_kmeans(pc, scaled, scores, n_features: int):
    """Best-of-restarts K-Means on the top ``n_features`` scored columns."""
    columns = preprocess.select_k_best(scores, n_features)
    X = scaled.select(columns).values
    p = pc.pipeline
    best = cluster.best_kmeans(X, p.n_clusters, restarts=p.restarts, seed0=p.seed0)
    ari = cluster.rand_index(pc.labels, best.assignments.tolist(), adjusted=p.rand_adjusted)
    return X, best, ari


def _read_and_segment(pc, path: Path):
    streams = ingest.read_events(path, ie=pc.line.ie)
    records = ingest.segment_climbs(streams, pc.line, pc.pipeline.gap_s)
    ingest.attach_labels(records, pc.labels)
    return streams, records


def run_firmware_day(inp: Inputs) -> Outcome:
    pc = config.parse_config(inp.config_text, origin="firmware_day.ini")
    sim = simulate.simulate_line(pc.line, pc.require_profile(), pc.seed, pc.sensor)
    ingest.write_events(str(inp.events_path), sim.all_events())
    streams, records = _read_and_segment(pc, inp.events_path)
    matrix, scaled, scores = _scale_and_score(pc, records)
    n_features = min(pc.pipeline.max_features or matrix.n_features, matrix.n_features)
    _, best, ari = _final_kmeans(pc, scaled, scores, n_features)

    # segment_climbs must recover the simulator's clip times, as written
    truth = [
        {p: float(f"{t:.3f}") for p, t in climb.clip_times.items() if t is not None}
        for climb in sim.truth
    ]
    return Outcome(
        n_climbs=len(records),
        n_events=sum(len(s) for s in streams.values()),
        ari=ari,
        digests={
            "events": digest(inp.events_path.read_bytes()),
            "matrix": _matrix_digest(matrix),
            "assignments": _assignment_digest(best.assignments),
        },
        problems=_clips_match(records, truth),
    )


def run_replay_week(inp: Inputs) -> Outcome:
    pc = config.parse_config(inp.config_text, origin="replay_week.ini")
    streams, records = _read_and_segment(pc, inp.events_path)
    matrix, scaled, scores = _scale_and_score(pc, records)
    X, best, ari = _final_kmeans(pc, scaled, scores, matrix.n_features)
    p = pc.pipeline
    pca = cluster.pca_fit(X, p.pca_dims)
    gmm = cluster.gmm_em(cluster.pca_project(pca, X), p.n_clusters, seed=p.seed0)
    sil = cluster.silhouette(X, best.assignments)
    wrong = cluster.count_misassigned(pc.labels, best.assignments.tolist())

    problems = _clips_match(records, inp.truth_clips)
    if not -1.0 <= sil.mean <= 1.0:
        problems.append(f"silhouette mean {sil.mean} outside [-1, 1]")
    if not np.allclose(gmm.responsibilities.sum(axis=1), 1.0):
        problems.append("GMM responsibilities do not sum to 1")
    if (wrong == 0) != (ari == 1.0):
        problems.append(f"{wrong} misassigned climbs but ARI {ari}")
    return Outcome(
        n_climbs=len(records),
        n_events=sum(len(s) for s in streams.values()),
        ari=ari,
        digests={
            "matrix": _matrix_digest(matrix),
            "assignments": _assignment_digest(best.assignments),
        },
        problems=problems,
    )


def run_feature_sweep(inp: Inputs) -> Outcome:
    pc = config.parse_config(inp.config_text, origin="feature_sweep.ini")
    streams, records = _read_and_segment(pc, inp.events_path)
    matrix, scaled, scores = _scale_and_score(pc, records)
    p = pc.pipeline
    curve = cluster.sweep_feature_count(
        scaled.values, scaled.names, pc.labels, scores,
        n_clusters=p.n_clusters, restarts=p.restarts, seed0=p.seed0,
        adjusted=p.rand_adjusted, max_features=p.max_features,
    )
    _, best, ari = _final_kmeans(pc, scaled, scores, matrix.n_features)

    problems = _clips_match(records, inp.truth_clips)
    expected = min(p.max_features or matrix.n_features, matrix.n_features)
    if len(curve.entries) != expected:
        problems.append(f"sweep has {len(curve.entries)} entries, expected {expected}")
    return Outcome(
        n_climbs=len(records),
        n_events=sum(len(s) for s in streams.values()),
        ari=ari,
        digests={
            "matrix": _matrix_digest(matrix),
            "assignments": _assignment_digest(best.assignments),
        },
        sweep_min_ari=curve.chosen_entry.stats.minimum,
        problems=problems,
    )


RUNS: dict[str, Callable[[Inputs], Outcome]] = {
    "firmware_day": run_firmware_day,
    "replay_week": run_replay_week,
    "feature_sweep": run_feature_sweep,
}
