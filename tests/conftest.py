import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from quickroutes.ingest import EventColumns, LineConfig, attach_labels, segment_climbs
from quickroutes.sensor import SensorConfig
from quickroutes.simulate import RouteProfile, RouteSpec, simulate_line


def columns(events):
    """``SampleEvent`` objects, or anything with their fields, as
    ``EventColumns``, in their order."""
    events = list(events)
    return EventColumns(
        np.array([e.position for e in events], dtype=np.int64),
        np.array([e.t for e in events], dtype=float),
        np.array([e.counts for e in events], dtype=np.int64).reshape(len(events), 3),
    )


def rows(events):
    """``EventColumns`` as comparable (position, t, x, y, z) tuples, each
    timestamp by its bits."""
    return [
        (p, t.hex(), x, y, z)
        for p, t, (x, y, z) in zip(events.position.tolist(), events.t.tolist(), events.counts.tolist())
    ]


@pytest.fixture(scope="session")
def cfg():
    return SensorConfig()


@pytest.fixture(scope="session")
def small_line():
    return LineConfig(ie=8)


@pytest.fixture(scope="session")
def small_profile():
    route = RouteSpec(
        name="easy",
        clip_times=(5.0, 14.0, 24.0, 35.0, 47.0, 60.0, 74.0, 89.0),
        amplitudes=(0.8,) * 8,
        durations=(4.0,) * 8,
    )
    return RouteProfile(
        routes={"easy": route},
        climbs=["easy"] * 3,
        climb_spacing_s=220.0,
        start_s=40.0,
    )


@pytest.fixture(scope="session")
def small_sim(small_line, small_profile):
    return simulate_line(small_line, small_profile, seed=7)


@pytest.fixture(scope="session")
def small_records(small_sim, small_line):
    records = segment_climbs(small_sim.streams, small_line, gap_s=120.0)
    return attach_labels(records, [t.route for t in small_sim.truth])


@pytest.fixture(scope="session")
def workloads():
    """``perfbench/workloads.py``, loaded from its file; the benchmark
    files are only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module
