"""One human-editable INI file drives simulation and the pipeline.

Sections and the keys each accepts::

    [line]      ie (required), gap_s, labels (per-climb ground truth)
    [sensor]    full_scale_g, sleep_rate_hz, active_rate_hz, output_bits,
                change_threshold_counts, averaging_window, inactive_grace_s,
                sleep_after_s, group_size (firmware constants)
    [simulate]  seed, climbs (required), climb_spacing_s, start_s,
                clip_jitter_s, amp_jitter, noise_g, rest_g (3 numbers)
    [pipeline]  restarts, seed0, rand (adjusted or unadjusted), n_clusters,
                max_features, pca_dims
    [route:X]   clip_times, amplitudes, durations (required), freq_hz, label,
                amp_fatigue, dt_fatigue, base, dt_scale, amp_scale

With ``base = Y`` a route starts from route Y's tables and label; its own
keys override them, then dt_scale and amp_scale rescale clip_times and
amplitudes. Without a base the label defaults to the name before the
first dot, so session variants ``[route:X.v1]`` of one route share it.

Any other section or key, a key under ``[DEFAULT]``, an unparsable value
and a non-finite number raise ``ConfigError`` naming file, section and key.
A value out of range (``ie = 1``, ``restarts = 0``, a negative rate) raises
the ``ConfigError`` of the object built from its section, prefixed with
file and section.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Union

from .cluster import DEFAULT_RESTARTS
from .errors import ConfigError, require_finite
from .ingest import DEFAULT_GAP_S, LineConfig
from .sensor import SensorConfig
from .simulate import RouteProfile, RouteSpec

ROUTE_PREFIX = "route:"


@dataclass
class PipelineConfig:
    """Knobs of the end-to-end run: ``[line] gap_s`` and ``[pipeline]``."""

    gap_s: float = DEFAULT_GAP_S
    restarts: int = DEFAULT_RESTARTS
    seed0: int = 0
    rand_adjusted: bool = True
    n_clusters: int = 3
    max_features: Optional[int] = None
    pca_dims: int = 2

    def __post_init__(self):
        require_finite(self)
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.seed0 < 0:
            raise ConfigError("seed0 must be >= 0")
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


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(_float(v.strip()) for v in raw.split(",") if v.strip())


def _strings(raw: str) -> list[str]:
    return [v.strip() for v in raw.split(",") if v.strip()]


def _rest_g(raw: str) -> tuple[float, ...]:
    rest = _floats(raw)
    if len(rest) != 3:
        raise ValueError("needs exactly 3 components")
    return rest


def _rand_adjusted(raw: str) -> bool:
    variant = raw.strip().lower()
    if variant not in ("adjusted", "unadjusted"):
        raise ValueError("must be adjusted or unadjusted")
    return variant == "adjusted"


# the keys each section accepts, and the parser of each key's value
SECTIONS = {
    "line": {"ie": int, "gap_s": _float, "labels": _strings},
    "sensor": {f.name: {float: _float, int: int}[type(f.default)] for f in fields(SensorConfig)},
    "simulate": {
        "seed": int, "climbs": _strings, "climb_spacing_s": _float, "start_s": _float,
        "clip_jitter_s": _float, "amp_jitter": _float, "noise_g": _float, "rest_g": _rest_g,
    },
    "pipeline": {
        "restarts": int, "seed0": int, "rand": _rand_adjusted, "n_clusters": int,
        "max_features": int, "pca_dims": int,
    },
    ROUTE_PREFIX: {
        "clip_times": _floats, "amplitudes": _floats, "durations": _floats,
        "freq_hz": _float, "label": str, "amp_fatigue": _float, "dt_fatigue": _float,
        "base": str, "dt_scale": _float, "amp_scale": _float,
    },
}


def _read(parser: configparser.ConfigParser, section: str, table: dict, origin: str) -> dict:
    """The parsed values of one section's keys; {} if the section is absent."""
    if section not in parser:
        return {}
    values = {}
    for key, raw in parser[section].items():
        where = f"{origin}: [{section}] {key}"
        if key not in table:
            raise ConfigError(f"{where}: unknown key (accepted: {', '.join(table)})")
        try:
            values[key] = table[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return values


def _build(make, origin: str, section: str, *args, **kwargs):
    """``make(*args, **kwargs)``, its range errors naming file and section."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{origin}: [{section}] {exc}") from exc


def _resolve_route(name: str, tables: dict, origin: str, resolving=frozenset()) -> RouteSpec:
    if name in resolving:
        raise ConfigError(f"{origin}: route {name}: circular base reference")
    if name not in tables:
        raise ConfigError(f"{origin}: route {name} referenced but not defined")
    own = dict(tables[name])
    base, dt_scale, amp_scale = (own.pop(k, None) for k in ("base", "dt_scale", "amp_scale"))
    if base is None:
        spec = {"label": name.split(".")[0]}
    else:
        inherited = _resolve_route(base, tables, origin, resolving | {name})
        spec = {f.name: getattr(inherited, f.name) for f in fields(RouteSpec)}
    spec.update(own, name=name)
    if not {"clip_times", "amplitudes", "durations"} <= spec.keys():
        raise ConfigError(f"{origin}: route {name} needs clip_times, amplitudes and durations")
    if dt_scale is not None:
        spec["clip_times"] = tuple(t * dt_scale for t in spec["clip_times"])
    if amp_scale is not None:
        spec["amplitudes"] = tuple(a * amp_scale for a in spec["amplitudes"])
    return _build(RouteSpec, origin, ROUTE_PREFIX + name, **spec)


def parse_config(text: str, origin: str = "<config>") -> ProjectConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc
    if parser.defaults():
        raise ConfigError(f"{origin}: [DEFAULT] {', '.join(parser.defaults())}: needs a section")
    for section in parser.sections():
        if section not in SECTIONS and not section.startswith(ROUTE_PREFIX):
            raise ConfigError(f"{origin}: unknown section [{section}]")
    if "line" not in parser:
        raise ConfigError(f"{origin}: missing [line] section")

    line = _read(parser, "line", SECTIONS["line"], origin)
    if "ie" not in line:
        raise ConfigError(f"{origin}: [line] needs ie")
    pipeline = _read(parser, "pipeline", SECTIONS["pipeline"], origin)
    if "rand" in pipeline:
        pipeline["rand_adjusted"] = pipeline.pop("rand")
    pipeline = _build(PipelineConfig, origin, "pipeline", **pipeline)
    if "gap_s" in line:  # a pipeline knob set in [line], so its errors name [line]
        pipeline = _build(replace, origin, "line", pipeline, gap_s=line["gap_s"])
    route_tables = {
        section[len(ROUTE_PREFIX):]: _read(parser, section, SECTIONS[ROUTE_PREFIX], origin)
        for section in parser.sections() if section.startswith(ROUTE_PREFIX)
    }
    simulate = _read(parser, "simulate", SECTIONS["simulate"], origin)
    seed = simulate.pop("seed", 0)
    if seed < 0:
        raise ConfigError(f"{origin}: [simulate] seed must be >= 0")

    profile = None
    labels = line.get("labels")
    if "simulate" in parser:
        if "climbs" not in simulate:
            raise ConfigError(f"{origin}: [simulate] needs a climbs list")
        routes = {name: _resolve_route(name, route_tables, origin) for name in route_tables}
        profile = _build(RouteProfile, origin, "simulate", routes=routes, **simulate)
        if labels is None:
            labels = profile.labels()
    elif route_tables:
        raise ConfigError(f"{origin}: route tables present but no [simulate] section")

    sensor = _read(parser, "sensor", SECTIONS["sensor"], origin)
    return ProjectConfig(
        line=_build(LineConfig, origin, "line", ie=line["ie"]),
        sensor=_build(SensorConfig, origin, "sensor", **sensor),
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
