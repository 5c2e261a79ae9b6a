"""The INI config reader: sections, route inheritance and errors."""

import textwrap

import pytest

from quickroutes import cluster, config
from quickroutes.config import PipelineConfig, load_config, parse_config
from quickroutes.errors import ConfigError

ROUTE_A = """
[route:a]
clip_times = 1, 2, 3, 4, 5
amplitudes = 1.0, 1.1, 1.2, 1.3, 1.4
durations = 2, 2, 2, 2, 2
freq_hz = 1.5
amp_fatigue = 0.01
dt_fatigue = 0.02
"""

DAY = textwrap.dedent("""
[line]
ie = 5
gap_s = 60

[simulate]
seed = 4
climbs = a, a, a

[pipeline]
restarts = 7
""") + ROUTE_A

# a variant chain: overrides, rescaling, inherited and explicit labels
VARIANTS = textwrap.dedent("""
[line]
ie = 5
gap_s = 60

[simulate]
seed = 4
climbs = a, a.tired, a.tired.late, b, c

[pipeline]
rand = Unadjusted
""") + ROUTE_A + """
[route:a.tired]
base = a
amplitudes = 2, 2, 2, 2, 2
dt_scale = 1.5

[route:a.tired.late]
base = a.tired
amp_scale = 0.5
freq_hz = 2.5

[route:b]
base = a
clip_times = 10, 20, 30, 40, 50
dt_scale = 2
amp_scale = 3
label = B

[route:c]
base = b
"""


def with_line(text, section, line):
    """``text`` with ``line`` at the top of ``[section]``, in place of that
    key's own line there; the section is added if missing."""
    key = line.split("=")[0].strip()
    head = f"[{section}]\n"
    if head not in text:
        return text + "\n" + head + line + "\n"
    before, after = text.split(head, 1)
    body, sep, rest = after.partition("\n[")
    kept = [row for row in body.split("\n") if row.split("=")[0].strip() != key]
    return before + head + line + "\n" + "\n".join(kept) + sep + rest


class TestParse:
    def test_day_sections(self):
        pc = parse_config(DAY)
        assert pc.line.ie == 5
        assert pc.seed == 4
        assert pc.pipeline == PipelineConfig(gap_s=60.0, restarts=7)
        route = pc.require_profile().routes["a"]
        assert route.clip_times == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert (route.freq_hz, route.amp_fatigue, route.dt_fatigue) == (1.5, 0.01, 0.02)
        assert route.label == "a"
        assert pc.labels == ["a", "a", "a"]

    def test_defaults_without_optional_sections(self):
        pc = parse_config("[line]\nie = 6\n")
        assert pc.pipeline == PipelineConfig()
        assert pc.profile is None and pc.labels is None and pc.seed == 0
        with pytest.raises(ConfigError, match="no \\[simulate\\]"):
            pc.require_profile()

    def test_sensor_and_simulate_overrides(self):
        text = DAY + "\n[sensor]\ngroup_size = 3\nsleep_after_s = 5.5\n"
        text = with_line(text, "simulate", "rest_g = 0, 0.5, 1\nnoise_g = 0")
        pc = parse_config(text)
        assert (pc.sensor.group_size, pc.sensor.sleep_after_s) == (3, 5.5)
        assert pc.profile.rest_g == (0.0, 0.5, 1.0)
        assert pc.profile.noise_g == 0.0

    def test_chained_bases_rescale_after_overrides(self):
        routes = parse_config(VARIANTS).profile.routes
        tired, late = routes["a.tired"], routes["a.tired.late"]
        assert tired.amplitudes == (2.0,) * 5
        assert tired.clip_times == tuple(t * 1.5 for t in (1.0, 2.0, 3.0, 4.0, 5.0))
        assert tired.durations == routes["a"].durations
        assert (tired.freq_hz, tired.amp_fatigue, tired.dt_fatigue) == (1.5, 0.01, 0.02)
        # the chain inherits a.tired's rescaled tables and rescales them again
        assert late.clip_times == tired.clip_times
        assert late.amplitudes == (1.0,) * 5
        assert late.freq_hz == 2.5

    def test_dt_scale_applies_to_the_routes_own_clip_times(self):
        b = parse_config(VARIANTS).profile.routes["b"]
        assert b.clip_times == (20.0, 40.0, 60.0, 80.0, 100.0)
        assert b.amplitudes == tuple(a * 3 for a in (1.0, 1.1, 1.2, 1.3, 1.4))

    def test_labels_default_to_the_base_and_may_be_set(self):
        pc = parse_config(VARIANTS)
        labels = {name: r.label for name, r in pc.profile.routes.items()}
        assert labels == {"a": "a", "a.tired": "a", "a.tired.late": "a", "b": "B", "c": "B"}
        assert pc.labels == ["a", "a", "a", "B", "B"]

    def test_label_without_base_is_the_name_stem(self):
        text = DAY.replace("[route:a]", "[route:a.v1]").replace("climbs = a, a, a", "climbs = a.v1")
        assert parse_config(text).labels == ["a"]

    def test_line_labels_override_the_profile(self):
        text = with_line(DAY, "line", "labels = x, y, x")
        assert parse_config(text).labels == ["x", "y", "x"]
        assert parse_config("[line]\nie = 5\nlabels = p, q\n").labels == ["p", "q"]

    @pytest.mark.parametrize("spelling, adjusted", [
        ("adjusted", True), ("Adjusted", True), ("unadjusted", False), ("UNADJUSTED", False),
    ])
    def test_rand_in_both_spellings(self, spelling, adjusted):
        text = with_line(DAY, "pipeline", f"rand = {spelling}")
        assert parse_config(text).pipeline.rand_adjusted is adjusted

    def test_routes_keep_section_order(self):
        routes = parse_config(VARIANTS).profile.routes
        assert list(routes) == ["a", "a.tired", "a.tired.late", "b", "c"]

    def test_load_config_reads_a_file(self, tmp_path):
        path = tmp_path / "day.ini"
        path.write_text(DAY, encoding="utf-8")
        assert repr(load_config(path)) == repr(parse_config(DAY))

    def test_load_config_on_a_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.ini")


class TestBenchmarkConfigs:
    """The benchmark's INI texts parse, so a stricter reader fails here
    before it fails the benchmark."""

    @pytest.mark.parametrize("size", ["tiny", "full"])
    @pytest.mark.parametrize("seed", [0, 1, 301])
    def test_firmware_config(self, workloads, size, seed):
        spec = workloads.SIZES["firmware_day"][size]
        pc = parse_config(workloads.firmware_config(seed, spec), origin="firmware_day.ini")
        assert pc.pipeline.restarts == spec["restarts"]
        assert len(pc.labels) == spec["climbs"]

    @pytest.mark.parametrize("workload", ["replay_week", "feature_sweep"])
    @pytest.mark.parametrize("size", ["tiny", "full"])
    def test_replay_config(self, workloads, workload, size):
        spec = workloads.SIZES[workload][size]
        labels = [f"r{i % spec['routes']}" for i in range(spec["climbs"])]
        pc = parse_config(workloads.replay_config(spec, labels), origin=f"{workload}.ini")
        assert pc.labels == labels
        assert pc.pipeline.max_features == spec.get("max_features")


class TestErrors:
    def test_missing_line_section(self):
        with pytest.raises(ConfigError, match="missing \\[line\\]"):
            parse_config("[pipeline]\nrestarts = 3\n")

    def test_line_needs_ie(self):
        with pytest.raises(ConfigError, match="needs ie"):
            parse_config("[line]\ngap_s = 10\n")

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="<config>"):
            parse_config("[line]\nie\n")

    @pytest.mark.parametrize("bases", [
        {"a": "a"},
        {"a": "b", "b": "a"},
        {"a": "b", "b": "c", "c": "a"},
    ])
    def test_circular_base(self, bases):
        text = "[line]\nie = 5\n[simulate]\nclimbs = a\n"
        for name, base in bases.items():
            text += f"[route:{name}]\nbase = {base}\n"
        with pytest.raises(ConfigError, match="circular base"):
            parse_config(text)

    def test_undefined_base(self):
        text = VARIANTS + "\n[route:d]\nbase = nowhere\n"
        with pytest.raises(ConfigError, match="nowhere referenced but not defined"):
            parse_config(text)

    def test_undefined_climb(self):
        with pytest.raises(ConfigError, match="undefined routes"):
            parse_config(DAY.replace("climbs = a, a, a", "climbs = a, z"))

    def test_route_without_tables(self):
        text = DAY.replace("durations = 2, 2, 2, 2, 2\n", "")
        with pytest.raises(ConfigError, match="needs clip_times, amplitudes and durations"):
            parse_config(text)

    def test_route_tables_without_simulate(self):
        with pytest.raises(ConfigError, match="no \\[simulate\\] section"):
            parse_config("[line]\nie = 5\n" + ROUTE_A)

    def test_simulate_without_climbs(self):
        with pytest.raises(ConfigError, match="climbs"):
            parse_config(DAY.replace("climbs = a, a, a\n", ""))

    def test_rand_must_be_a_known_variant(self):
        with pytest.raises(ConfigError, match="adjusted or unadjusted"):
            parse_config(with_line(DAY, "pipeline", "rand = both"))

    def test_rest_g_needs_three_components(self):
        with pytest.raises(ConfigError, match="3 components"):
            parse_config(with_line(DAY, "simulate", "rest_g = 0, 1"))

    @pytest.mark.parametrize("section, line", [
        ("pipeline", "restarts = 0"),
        ("pipeline", "n_clusters = 0"),
        ("pipeline", "pca_dims = 0"),
        ("pipeline", "max_features = 0"),
        ("line", "gap_s = -1"),
    ])
    def test_pipeline_values_out_of_range(self, section, line):
        with pytest.raises(ConfigError, match="must be"):
            parse_config(with_line("[line]\nie = 5\n", section, line))

    @pytest.mark.parametrize("section, key, value", [
        ("simulate", "clip_jitter_s", "-0.1"),
        ("simulate", "amp_jitter", "-0.1"),
        ("simulate", "noise_g", "-0.1"),
        ("sensor", "sleep_rate_hz", "0"),
        ("sensor", "sleep_after_s", "-1"),
        ("sensor", "inactive_grace_s", "-0.1"),
        ("sensor", "change_threshold_counts", "-3"),
    ])
    def test_negative_rates_and_spreads_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(with_line(DAY, section, f"{key} = {value}"))

    @pytest.mark.parametrize("section, line, message", [
        ("sensor", "change_threshold_counts = -3", "change_threshold_counts must be >= 0"),
        ("sensor", "sleep_rate_hz = 60", "sleep rate must be below active rate"),
        ("line", "ie = 1", "a line needs at least 5 positions, got ie=1"),
        ("line", "gap_s = -1", "gap_s must be positive"),
        ("pipeline", "restarts = 0", "restarts must be >= 1"),
        ("pipeline", "seed0 = -1", "seed0 must be >= 0"),
        ("simulate", "seed = -3", "seed must be >= 0"),
        ("simulate", "climb_spacing_s = 0", "climb_spacing_s must be positive"),
        ("simulate", "climbs = a, z", "climbs reference undefined routes"),
        ("route:a", "durations = 2, 2, 0, 2, 2", "route a: durations must be positive"),
    ])
    def test_range_errors_name_file_and_section(self, section, line, message):
        with pytest.raises(ConfigError, match=f"^day.ini: \\[{section}\\] {message}"):
            parse_config(with_line(DAY, section, line), origin="day.ini")

    @pytest.mark.parametrize("kwargs", [
        dict(restarts=0), dict(n_clusters=0), dict(pca_dims=0), dict(max_features=0),
        dict(gap_s=0.0), dict(gap_s=float("nan")), dict(gap_s=float("inf")), dict(seed0=-1),
    ])
    def test_pipeline_config_validates_on_construction(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)

    def test_pipeline_restarts_default_to_the_engines(self):
        assert PipelineConfig().restarts == cluster.DEFAULT_RESTARTS

    @pytest.mark.parametrize("section, line", [
        ("pipeline", "restart = 5"),
        ("simulate", "noise = 0.5"),
        ("line", "gap = 30"),
        ("sensor", "groupsize = 3"),
        ("route:a", "clip_time = 1, 2, 3, 4, 5"),
    ])
    def test_unknown_key(self, section, line):
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=f"day.ini: \\[{section}\\] {key}: unknown key"):
            parse_config(with_line(DAY, section, line), origin="day.ini")

    @pytest.mark.parametrize("section", ["pipline", "Line", "route", "routes:a", "report"])
    def test_unknown_section(self, section):
        with pytest.raises(ConfigError, match=f"day.ini: unknown section \\[{section}\\]"):
            parse_config(DAY + f"\n[{section}]\n", origin="day.ini")

    @pytest.mark.parametrize("line", ["seed = 3", "restarts = 5", "gap_s = 30"])
    def test_default_section_keys(self, line):
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=f"day.ini: \\[DEFAULT\\] {key}"):
            parse_config(f"[DEFAULT]\n{line}\n" + DAY, origin="day.ini")

    @pytest.mark.parametrize("section, line", [
        ("line", "ie = five"),
        ("line", "gap_s = long"),
        ("sensor", "group_size = two"),
        ("sensor", "full_scale_g = big"),
        ("simulate", "seed = x"),
        ("simulate", "climb_spacing_s = 4 min"),
        ("pipeline", "restarts = five"),
        ("pipeline", "max_features = 2.5"),
        ("route:a", "freq_hz = fast"),
        ("route:a", "dt_scale = twice"),
        ("route:a", "amplitudes = 1, 1, x, 1, 1"),
    ])
    def test_unparsable_value(self, section, line):
        key = line.split(" =")[0]
        text = DAY.replace("ie = 5\n", "") if line.startswith("ie ") else DAY
        with pytest.raises(ConfigError, match=f"day.ini: \\[{section}\\] {key}: "):
            parse_config(with_line(text, section, line), origin="day.ini")

    @pytest.mark.parametrize("section, line", [
        ("line", "gap_s = nan"),
        ("sensor", "sleep_after_s = inf"),
        ("sensor", "inactive_grace_s = -inf"),
        ("simulate", "climb_spacing_s = inf"),
        ("simulate", "noise_g = nan"),
        ("simulate", "rest_g = 0, 0, NaN"),
        ("route:a", "clip_times = 1, 2, 3, 4, nan"),
        ("route:a", "freq_hz = Infinity"),
        ("route:a", "amp_scale = inf"),
    ])
    def test_non_finite_number(self, section, line):
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=f"day.ini: \\[{section}\\] {key}: .*finite"):
            parse_config(with_line(DAY, section, line), origin="day.ini")


def test_docstring_lists_every_accepted_key():
    doc = config.__doc__
    for section, table in config.SECTIONS.items():
        head = "[route:X]" if section == config.ROUTE_PREFIX else f"[{section}]"
        block = doc.split(head, 1)[1].split("\n    [", 1)[0]
        listed = {word.strip(" ,()") for word in block.split()}
        assert set(table) <= listed, section
