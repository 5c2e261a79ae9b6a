"""One human-editable INI file drives simulation and the pipeline.

Sections::

    [line]      ie, gap_s, labels (optional per-climb ground truth)
    [sensor]    firmware constant overrides (all optional)
    [simulate]  seed, schedule and jitter levels, climbs = route names
    [route:X]   per-route tables: clip_times, amplitudes, durations, ...
    [pipeline]  restarts, seed0, rand, n_clusters, max_features, pca_dims

A ``[route:X.variant]`` section may set ``base = X`` to inherit another
route's tables and rescale them (amp_scale, dt_scale); its ground-truth
label defaults to the name before the first dot, so session variants of
one route share a label.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .errors import ConfigError
from .ingest import DEFAULT_GAP_S, LineConfig
from .sensor import SensorConfig
from .simulate import RouteProfile, RouteSpec

ROUTE_PREFIX = "route:"


@dataclass
class PipelineConfig:
    """Knobs of the end-to-end run; CLI flags override file values."""

    gap_s: float = DEFAULT_GAP_S
    restarts: int = 100
    seed0: int = 0
    rand_adjusted: bool = True
    n_clusters: int = 3
    max_features: Optional[int] = None
    pca_dims: int = 2

    def validate(self):
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.n_clusters < 1:
            raise ConfigError("n_clusters must be >= 1")
        if self.pca_dims < 1:
            raise ConfigError("pca_dims must be >= 1")
        if self.max_features is not None and self.max_features < 1:
            raise ConfigError("max_features must be >= 1")
        if self.gap_s <= 0:
            raise ConfigError("gap_s must be positive")


@dataclass
class ProjectConfig:
    line: LineConfig
    sensor: SensorConfig
    pipeline: PipelineConfig
    profile: Optional[RouteProfile] = None
    seed: int = 0
    labels: Optional[list[str]] = None  # per-climb ground truth, climb order

    def require_profile(self) -> RouteProfile:
        if self.profile is None:
            raise ConfigError("config has no [simulate] section / route tables")
        return self.profile


def _floats(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(v.strip()) for v in raw.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {raw!r}") from exc


def _strings(raw: str) -> list[str]:
    return [v.strip() for v in raw.split(",") if v.strip()]


def _resolve_route(
    name: str,
    raw_sections: dict[str, dict[str, str]],
    resolving: set[str],
) -> RouteSpec:
    if name in resolving:
        raise ConfigError(f"route {name}: circular base reference")
    section = raw_sections.get(name)
    if section is None:
        raise ConfigError(f"route {name} referenced but not defined")

    if "base" in section:
        base = _resolve_route(section["base"], raw_sections, resolving | {name})
        clip_times = list(base.clip_times)
        amplitudes = list(base.amplitudes)
        durations = list(base.durations)
        freq_hz = base.freq_hz
        label = base.route_label
        amp_fatigue = base.amp_fatigue
        dt_fatigue = base.dt_fatigue
    else:
        clip_times = amplitudes = durations = None
        freq_hz = 2.0
        label = None
        amp_fatigue = dt_fatigue = 0.0

    if "clip_times" in section:
        clip_times = list(_floats(section["clip_times"]))
    if "amplitudes" in section:
        amplitudes = list(_floats(section["amplitudes"]))
    if "durations" in section:
        durations = list(_floats(section["durations"]))
    if clip_times is None or amplitudes is None or durations is None:
        raise ConfigError(
            f"route {name}: clip_times, amplitudes and durations are required"
        )
    if "freq_hz" in section:
        freq_hz = float(section["freq_hz"])
    if "label" in section:
        label = section["label"]
    if "amp_fatigue" in section:
        amp_fatigue = float(section["amp_fatigue"])
    if "dt_fatigue" in section:
        dt_fatigue = float(section["dt_fatigue"])
    if "dt_scale" in section:
        clip_times = [t * float(section["dt_scale"]) for t in clip_times]
    if "amp_scale" in section:
        amplitudes = [a * float(section["amp_scale"]) for a in amplitudes]

    if label is None:
        label = name.split(".")[0]
    return RouteSpec(
        name=name,
        clip_times=tuple(clip_times),
        amplitudes=tuple(amplitudes),
        durations=tuple(durations),
        freq_hz=freq_hz,
        label=label,
        amp_fatigue=amp_fatigue,
        dt_fatigue=dt_fatigue,
    )


def parse_config(text: str, origin: str = "<config>") -> ProjectConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc

    if "line" not in parser:
        raise ConfigError(f"{origin}: missing [line] section")
    line_sec = parser["line"]
    try:
        ie = line_sec.getint("ie")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{origin}: [line] ie must be an integer") from exc
    if ie is None:
        raise ConfigError(f"{origin}: [line] needs ie")
    explicit_labels = (
        _strings(line_sec["labels"]) if "labels" in line_sec else None
    )
    line = LineConfig(ie=ie)

    sensor_kwargs = {}
    if "sensor" in parser:
        sec = parser["sensor"]
        for key, cast in (
            ("full_scale_g", float),
            ("sleep_rate_hz", float),
            ("active_rate_hz", float),
            ("output_bits", int),
            ("change_threshold_counts", int),
            ("averaging_window", int),
            ("inactive_grace_s", float),
            ("sleep_after_s", float),
            ("group_size", int),
        ):
            if key in sec:
                sensor_kwargs[key] = cast(sec[key])
    sensor = SensorConfig(**sensor_kwargs)

    pipeline = PipelineConfig()
    if "line" in parser and "gap_s" in parser["line"]:
        pipeline.gap_s = float(parser["line"]["gap_s"])
    if "pipeline" in parser:
        sec = parser["pipeline"]
        if "restarts" in sec:
            pipeline.restarts = int(sec["restarts"])
        if "seed0" in sec:
            pipeline.seed0 = int(sec["seed0"])
        if "rand" in sec:
            variant = sec["rand"].strip().lower()
            if variant not in ("adjusted", "unadjusted"):
                raise ConfigError(f"{origin}: rand must be adjusted or unadjusted")
            pipeline.rand_adjusted = variant == "adjusted"
        if "n_clusters" in sec:
            pipeline.n_clusters = int(sec["n_clusters"])
        if "max_features" in sec:
            pipeline.max_features = int(sec["max_features"])
        if "pca_dims" in sec:
            pipeline.pca_dims = int(sec["pca_dims"])
    pipeline.validate()

    raw_routes = {
        section[len(ROUTE_PREFIX):]: dict(parser[section])
        for section in parser.sections()
        if section.startswith(ROUTE_PREFIX)
    }

    profile = None
    seed = 0
    labels = explicit_labels
    if "simulate" in parser:
        sec = parser["simulate"]
        if "climbs" not in sec:
            raise ConfigError(f"{origin}: [simulate] needs a climbs list")
        climbs = _strings(sec["climbs"])
        routes = {
            name: _resolve_route(name, raw_routes, set()) for name in raw_routes
        }
        kwargs = {}
        for key, cast in (
            ("climb_spacing_s", float),
            ("start_s", float),
            ("clip_jitter_s", float),
            ("amp_jitter", float),
            ("noise_g", float),
        ):
            if key in sec:
                kwargs[key] = cast(sec[key])
        if "rest_g" in sec:
            rest = _floats(sec["rest_g"])
            if len(rest) != 3:
                raise ConfigError(f"{origin}: rest_g needs exactly 3 components")
            kwargs["rest_g"] = rest
        profile = RouteProfile(routes=routes, climbs=climbs, **kwargs)
        seed = sec.getint("seed", 0)
        if labels is None:
            labels = profile.labels()
    elif raw_routes:
        raise ConfigError(f"{origin}: route tables present but no [simulate] section")

    return ProjectConfig(
        line=line,
        sensor=sensor,
        pipeline=pipeline,
        profile=profile,
        seed=seed,
        labels=labels,
    )


def load_config(path: Union[str, Path]) -> ProjectConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, origin=str(path))
