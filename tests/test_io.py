import dataclasses
import hashlib
import io
import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freightsim.config import (ConfigError, ScenarioConfig, config_to_json,
                               load_config, resolve_registry)
from freightsim.evolution import run_scenario
from freightsim.report import (PlotSpec, _ramp_rgb, cost_axis_value,
                               cost_axis_values, ramp_color,
                               render_scatter_svg, write_records_csv)
from freightsim import cli
from test_golden_digest import CONFIGS, GOLDEN


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config('{"enabled_modes": ["ocean"]}')
        assert cfg.start_year == 2018
        assert cfg.end_year == 2050
        assert cfg.end_year - cfg.start_year + 1 == 33
        assert cfg.iterations == 1000
        assert cfg.trip_distance_km == 10000
        assert cfg.freight_tonnes == 50000
        assert cfg.min_leg_km == 100
        assert cfg.handling_mean_usd_per_tonne == 4.59
        assert cfg.handling_stdev_fraction == 0.25
        assert cfg.cost_stdev_fraction == 0.25
        assert cfg.rate_stdev_fraction == 0.5
        assert cfg.evolution_policy == "per-replicate"

    def test_end_year_before_start_year(self):
        with pytest.raises(ConfigError, match="end_year"):
            load_config('{"enabled_modes": ["ocean"], "end_year": 2010}')

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="iterattions"):
            load_config('{"enabled_modes": ["ocean"], "iterattions": 5}')

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            load_config("{not json")

    def test_integer_past_the_digit_limit(self):
        # json.loads raises a plain ValueError past 4300 digits.
        with pytest.raises(ConfigError):
            load_config('{"enabled_modes": ["ocean"], "seed": '
                        + "9" * 5000 + "}")

    def test_empty_enabled_modes(self):
        with pytest.raises(ConfigError, match="enabled_modes"):
            load_config('{"enabled_modes": []}')

    def test_unknown_mode_field(self):
        with pytest.raises(ConfigError, match="rate"):
            load_config(json.dumps({
                "enabled_modes": ["ocean"],
                "modes": [{"id": "ocean", "rate": 0.1}]}))

    def test_scenario1_shape(self):
        cfg = load_config(json.dumps({
            "name": "scenario-1", "seed": 42,
            "enabled_modes": ["air", "ocean", "truck", "rail", "iwt",
                              "auto_air", "auto_ocean", "auto_truck",
                              "auto_rail", "auto_iwt"]}))
        n_years = cfg.end_year - cfg.start_year + 1
        assert cfg.iterations * n_years == 33_000
        assert len(resolve_registry(cfg)) == 10

    def test_round_trip_identity(self):
        cfg = load_config(json.dumps({
            "enabled_modes": ["ocean", "auto_ocean"], "seed": 9,
            "iterations": 17, "evolution_policy": "shared",
            "modes": [{"id": "ocean", "cost_stdev_fraction": 0.1}]}))
        again = load_config(config_to_json(cfg))
        assert again == cfg

    def test_config_level_fractions_apply_to_registry(self):
        cfg = load_config(json.dumps({
            "enabled_modes": ["ocean", "rail", "barge"],
            "cost_stdev_fraction": 0.1, "rate_stdev_fraction": 0.2,
            "modes": [{"id": "rail", "cost_stdev_fraction": 0.4},
                      {"id": "barge", "base_cost_mean": 0.05,
                       "base_year": 2018, "improvement_rate_mean": 0.01}]}))
        reg = resolve_registry(cfg)
        assert reg.get("ocean").cost_stdev_fraction == 0.1
        assert reg.get("ocean").rate_stdev_fraction == 0.2
        assert reg.get("rail").cost_stdev_fraction == 0.4
        assert reg.get("barge").cost_stdev_fraction == 0.1
        assert reg.get("barge").rate_stdev_fraction == 0.2


def small_results(**kw):
    defaults = dict(enabled_modes=["ocean", "rail"], seed=6, iterations=3,
                    start_year=2018, end_year=2020)
    defaults.update(kw)
    return run_scenario(ScenarioConfig(**defaults))


def one_year(costs, fractions):
    """A one-year ResultSet of two modes: trip i costs ``costs[i]`` and puts
    ``fractions[i]`` of its distance on ocean and the rest on rail."""
    ocean = np.array(fractions, dtype=float)
    return dataclasses.replace(
        small_results(iterations=1, end_year=2018),
        cost=np.array([costs], dtype=float),
        n_legs=np.ones((1, len(costs)), dtype=np.int64),
        frac=np.stack([ocean, 1.0 - ocean], axis=-1)[None])


class RecordingSink:
    """A text sink that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


# The extremes of the float range, and two values with no short decimal.
CSV_NUMBERS = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               1e16, 0.1, 1 / 3]


class TestCsv:
    def test_header_and_line_count(self):
        results = small_results()
        buf = io.StringIO()
        write_records_csv(results, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == ("scenario,year,replicate,trip_cost_usd,n_legs,"
                            "frac_ocean,frac_rail")
        assert lines[-1] == ""
        assert len(lines) - 2 == len(results.records)

    def test_single_record_two_lines(self):
        results = small_results(enabled_modes=["ocean"], iterations=1,
                                end_year=2018)
        buf = io.StringIO()
        write_records_csv(results, buf)
        assert len(buf.getvalue().rstrip("\n").split("\n")) == 2

    def test_byte_identical_reruns(self):
        first, second = io.StringIO(), io.StringIO()
        write_records_csv(small_results(), first)
        write_records_csv(small_results(), second)
        assert first.getvalue() == second.getvalue()

    def test_fraction_columns_sum_to_one(self):
        buf = io.StringIO()
        write_records_csv(small_results(), buf)
        for line in buf.getvalue().splitlines()[1:]:
            parts = line.split(",")
            assert math.fsum(float(x) for x in parts[5:]) == pytest.approx(
                1.0, abs=1e-9)

    def test_floats_round_trip(self):
        results = small_results()
        buf = io.StringIO()
        write_records_csv(results, buf)
        row = buf.getvalue().splitlines()[1].split(",")
        assert float(row[3]) == results.records[0].trip_cost

    def test_extreme_numbers_round_trip_in_repr_digits(self):
        buf = io.StringIO()
        write_records_csv(one_year(CSV_NUMBERS, CSV_NUMBERS), buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        for x, row in zip(CSV_NUMBERS, rows):
            for text, want in ((row[3], x), (row[5], x), (row[6], 1.0 - x)):
                assert float(text) == want
                assert text == format(want, ".17g")


def svg_fills(fractions):
    """The fill of each circle the SVG draws for trips at ``fractions``."""
    buf = io.StringIO()
    render_scatter_svg(one_year([1e7] * len(fractions), fractions),
                       PlotSpec(focus_mode="ocean"), buf)
    return re.findall(r'<circle [^>]* fill="(#[0-9A-F]{6})"', buf.getvalue())


class TestSvg:
    def test_well_formed_xml(self):
        buf = io.StringIO()
        render_scatter_svg(small_results(), PlotSpec(focus_mode="ocean"), buf)
        root = ET.fromstring(buf.getvalue())
        assert root.tag.endswith("svg")
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) == 9

    def test_ramp_endpoints_and_midpoint(self):
        assert ramp_color(1.0) == "#FDE725"
        assert ramp_color(0.0) == "#440154"
        assert ramp_color(0.5) == "#21918C"
        assert ramp_color(2.0) == "#FDE725"  # clamped
        assert ramp_color(-1.0) == "#440154"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=40))
    @example([0.0, 0.5, math.nextafter(0.5, -1), math.nextafter(0.5, 1),
              1.0, 1.0000000000000002, 5e-324])
    def test_circle_fills_follow_ramp_color(self, fractions):
        assert svg_fills(fractions) == [ramp_color(f) for f in fractions]

    def test_vector_ramp_matches_ramp_color_on_a_dense_grid(self):
        edges = [math.nextafter(x, d) for x in (0.0, 0.5, 1.0)
                 for d in (-math.inf, math.inf)]
        fractions = np.concatenate([
            np.linspace(-1.0, 2.0, 200_001),
            [*edges, 0.5, 5e-324, -0.0, math.nan, math.inf, -math.inf]])
        assert ["#%06X" % c for c in _ramp_rgb(fractions).tolist()] == [
            ramp_color(f) for f in fractions.tolist()]

    def test_full_fraction_record_filled_yellow(self):
        results = small_results(enabled_modes=["ocean"], iterations=1,
                                end_year=2018)
        buf = io.StringIO()
        render_scatter_svg(results, PlotSpec(focus_mode="ocean"), buf)
        assert 'fill="#FDE725"' in buf.getvalue()

    def test_cost_axis_value(self):
        assert cost_axis_value(10_029_500.0) == pytest.approx(
            math.log10(10.0295), rel=1e-12)
        assert cost_axis_value(10_029_500.0) == pytest.approx(1.0013, abs=1e-4)

    def test_cost_axis_values_are_cost_axis_value_bit_for_bit(self):
        costs = np.geomspace(2.2e-308, 1e300, 200_000).reshape(1000, 200)
        want = [cost_axis_value(c).hex() for c in costs.ravel().tolist()]
        got = cost_axis_values(costs)
        assert got.shape == costs.shape
        assert [v.hex() for v in got.ravel().tolist()] == want

    def test_deterministic_bytes(self):
        first, second = io.StringIO(), io.StringIO()
        render_scatter_svg(small_results(), PlotSpec(focus_mode="rail"), first)
        render_scatter_svg(small_results(), PlotSpec(focus_mode="rail"), second)
        assert first.getvalue() == second.getvalue()

    def test_rejects_unknown_focus_mode(self):
        with pytest.raises(ValueError):
            render_scatter_svg(small_results(), PlotSpec(focus_mode="air"),
                               io.StringIO())

    @pytest.mark.parametrize("results,focus", [
        (small_results(), "air"),
        (one_year([], []), "ocean"),
    ], ids=["unknown-focus", "empty"])
    def test_nothing_written_before_an_error(self, results, focus):
        sink = RecordingSink()
        with pytest.raises(ValueError):
            render_scatter_svg(results, PlotSpec(focus_mode=focus), sink)
        assert sink.writes == []


# Each printed nan or inf, or ended in a traceback: an OverflowError for an
# infinite cost multiple and for a 401-digit year, a ZeroDivisionError for a
# rate delta too small to change 1 - rate.
BAD_NUMBERS = [
    ["sensitivity", "--multiples", "inf"],
    ["sensitivity", "--deltas", "1e-17"],
    ["calibrate", "--value", "nan", "--rate", "0.05", "--from", "2018",
     "--to", "2030"],
    ["calibrate", "--value", "inf", "--rate", "0.05", "--from", "2018",
     "--to", "2030"],
    ["calibrate", "--value", "1.766", "--rate", "0.055", "--from", "2016",
     "--to", "9" * 401],
    # A cost that underflows to 0 printed 0 and exited 0.
    ["calibrate", "--value", "1", "--rate", "0.5", "--from", "2018",
     "--to", "5000"],
]


class TestWritesOneYearAtATime:
    """Each write holds at most one year of rows or circles, beside the
    fixed header block, and the writes add up to the pinned bytes."""

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_writes_stay_within_one_year(self, name):
        cfg = ScenarioConfig(**CONFIGS[name])
        results = run_scenario(cfg)
        csv, svg = RecordingSink(), RecordingSink()
        write_records_csv(results, csv)
        render_scatter_svg(results, PlotSpec(focus_mode=cfg.enabled_modes[0]),
                           svg)
        header = csv.writes[0]
        assert header.startswith("scenario,year,") and header.count("\n") == 1
        assert max(w.count("\n") for w in csv.writes[1:]) <= cfg.iterations
        assert max(w.count("<circle") for w in svg.writes) <= cfg.iterations
        assert tuple(
            hashlib.sha256("".join(sink.writes).encode("utf-8")).hexdigest()
            for sink in (csv, svg)) == GOLDEN[name]


class TestCli:
    def write_config(self, tmp_path, **kw):
        doc = dict(enabled_modes=["ocean", "auto_ocean"], seed=42,
                   iterations=3, end_year=2020)
        doc.update(kw)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_modes_list(self, capsys):
        assert cli.main(["modes", "list"]) == 0
        out = capsys.readouterr().out
        for mode_id in ("ocean", "auto_air", "iwt"):
            assert mode_id in out
        assert "Hummels" in out  # provenance shown

    def test_calibrate(self, capsys):
        rc = cli.main(["calibrate", "--value", "1.766", "--rate", "0.055",
                       "--from", "2016", "--to", "2017"])
        assert rc == 0
        assert float(capsys.readouterr().out) == pytest.approx(1.669, abs=5e-4)

    def test_calibrate_backward_fails(self, capsys):
        rc = cli.main(["calibrate", "--value", "1.0", "--rate", "0.05",
                       "--from", "2020", "--to", "2019"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_sensitivity_defaults(self, capsys):
        assert cli.main(["sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "2025" in out
        assert "1.5x" in out

    def test_simulate_writes_artifacts(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        csv_path = tmp_path / "out.csv"
        svg_path = tmp_path / "out.svg"
        rc = cli.main(["simulate", "--config", cfg,
                       "--out-csv", str(csv_path),
                       "--out-svg", str(svg_path), "--focus", "auto_ocean"])
        assert rc == 0
        assert csv_path.read_text().startswith("scenario,year,replicate")
        ET.fromstring(svg_path.read_text())

    def test_simulate_identical_bytes_across_runs(self, tmp_path):
        cfg = self.write_config(tmp_path)
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert cli.main(["simulate", "--config", cfg,
                             "--out-csv", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_simulate_missing_config(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                       "--out-csv", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_crossover_json(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, iterations=30, end_year=2030)
        rc = cli.main(["crossover", "--config", cfg, "--mode", "ocean",
                       "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "ocean"
        assert doc["auto_mode"] == "auto_ocean"
        assert doc["deterministic_year"] == 2024

    def test_crossover_human_readable(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, iterations=20, end_year=2026)
        rc = cli.main(["crossover", "--config", cfg, "--mode", "ocean"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "deterministic year: 2024" in out

    def test_simulate_unknown_focus_writes_nothing(self, tmp_path, capsys):
        # The CSV and an empty SVG were written before the focus was checked.
        cfg = self.write_config(tmp_path, enabled_modes=["ocean"])
        csv_path, svg_path = tmp_path / "o.csv", tmp_path / "o.svg"
        rc = cli.main(["simulate", "--config", cfg,
                       "--out-csv", str(csv_path),
                       "--out-svg", str(svg_path), "--focus", "air"])
        captured = capsys.readouterr()
        assert rc == 1
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "air" in lines[0]
        assert captured.out == ""
        assert not csv_path.exists() and not svg_path.exists()

    def test_bad_flags_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--no-such-flag"])
        assert exc.value.code != 0

    @pytest.mark.parametrize("argv", BAD_NUMBERS)
    def test_bad_numbers_fail_with_one_error_line(self, capsys, argv):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert captured.out == ""

    def test_crossover_of_rates_equal_after_rounding_fails(self, tmp_path,
                                                           capsys):
        # 1 - r rounds to the same float for both modes: a
        # ZeroDivisionError traceback.
        cfg = self.write_config(tmp_path, modes=[
            {"id": "auto_ocean", "improvement_rate_mean": 0.02100000000000001}])
        assert cli.main(["crossover", "--config", cfg, "--mode", "ocean"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "rounds to 1" in lines[0]


MALFORMED_VALUES = [
    ("iterations", "3"),
    ("iterations", 2.5),
    ("iterations", True),
    ("seed", None),
    ("trip_distance_km", float("nan")),
    ("trip_distance_km", True),
    ("min_leg_km", float("inf")),
    ("trip_distance_km", 10**400),
    ("cost_stdev_fraction", "0.25"),
    ("enabled_modes", "ocean"),
    ("enabled_modes", ["ocean", 3]),
    ("modes", 5),
    ("modes", [{"id": "ocean", "base_cost_mean": "1"}]),
    ("modes", [{"id": "ocean", "base_year": 2018.5}]),
    ("modes", [{"id": "ocean", "autonomous": "yes"}]),
    ("modes", [{"id": "ocean", "improvement_rate_mean": float("nan")}]),
    ("modes", [{"id": "ocean", "provenance": 7}]),
    ("modes", [{"id": 7, "base_cost_mean": 1.0}]),
    # The start-year cost overflowed (a 401-digit base year) or underflowed
    # to 0; a base year after start_year was a ValueError from the engine.
    ("modes", [{"id": "ocean", "base_year": -10**400}]),
    ("modes", [{"id": "ocean", "base_year": -1000000}]),
    ("modes", [{"id": "ocean", "base_year": 2030}]),
    # The name is written unquoted into every CSV row.
    ("name", 5),
    ("name", "a,b"),
    ("name", 'say "hi"'),
    ("name", "a\nb"),
    # Two overrides of one mode: the last one silently won.
    ("modes", [{"id": "ocean", "base_cost_mean": 1.0},
               {"id": "ocean", "base_cost_mean": 2.0}]),
    # The trip costs overflowed to inf in the CSV, then the SVG renderer
    # ended in an OverflowError traceback.
    ("trip_distance_km", 1e308),
    # Subnormal trip costs were written to the CSV, then the SVG renderer
    # ended in "math domain error" from log10(0).
    ("freight_tonnes", 1e-320),
    # A run too large to allocate (240 TiB per array, past the address
    # space) ended in a numpy MemoryError traceback; under per-replicate the
    # trajectories were drawn first, growing memory without bound.  A dict
    # value sets several fields at once; the error must still name `field`.
    ("iterations", {"iterations": 10**12, "end_year": 2050}),
    ("iterations", {"iterations": 10**12, "end_year": 2050,
                    "evolution_policy": "shared"}),
    # No log-normal matches the cost, handling or rate moments: a stdev
    # whose square overflows, or a mean whose square underflows.  Each was a
    # bare ValueError whose message named no field.
    ("cost_stdev_fraction", 1e200),
    ("handling_stdev_fraction", 1e200),
    ("rate_stdev_fraction", 1e200),
    ("modes", [{"id": "ocean", "base_cost_mean": 1e-200}]),
    ("handling_mean_usd_per_tonne", 1e-320),
    ("modes", [{"id": "ocean", "improvement_rate_mean": 1e-320}]),
    # A mean and a stdev whose squares both overflow: inf / inf printed a
    # numpy RuntimeWarning before the error line.
    ("handling_mean_usd_per_tonne", 1e308),
    ("modes", [{"id": "ocean", "base_cost_mean": 1e308}]),
]


class TestMalformedConfigValues:
    @pytest.mark.parametrize("field,value", MALFORMED_VALUES)
    def test_simulate_fails_with_one_error_line_and_no_output(
            self, tmp_path, capsys, field, value):
        doc = dict(enabled_modes=["ocean"], seed=1, iterations=2,
                   end_year=2019)
        doc.update(value if isinstance(value, dict) else {field: value})
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))  # NaN and Infinity as JSON literals
        csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
        rc = cli.main(["simulate", "--config", str(cfg),
                       "--out-csv", str(csv_path), "--out-svg", str(svg_path)])
        captured = capsys.readouterr()
        assert rc == 1
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert field in lines[0] and "must be" in lines[0]
        assert captured.out == ""
        assert not csv_path.exists() and not svg_path.exists()

    def test_integral_float_fields_still_accept_ints(self):
        cfg = load_config(json.dumps({"enabled_modes": ["ocean"],
                                      "trip_distance_km": 5000,
                                      "min_leg_km": 50}))
        assert cfg.trip_distance_km == 5000
        assert isinstance(cfg.trip_distance_km, int)


class TestOverflowingSquares:
    # pytest captures warnings, so capsys alone does not see them on stderr.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fields", [
        {"handling_mean_usd_per_tonne": 1e308},
        {"modes": [{"id": "ocean", "base_cost_mean": 1e308}]}])
    def test_simulate_warns_nothing(self, tmp_path, capsys, fields):
        doc = dict(enabled_modes=["ocean"], seed=1, iterations=2,
                   end_year=2019, **fields)
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))
        rc = cli.main(["simulate", "--config", str(cfg),
                       "--out-csv", str(tmp_path / "out.csv")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(lines) == 1 and "must be finite" in lines[0]


# A mean whose square underflows to 0 once drove lognormal_from_moments into
# a ZeroDivisionError traceback.
UNDERFLOWING_MEANS = [
    {"modes": [{"id": "ocean", "improvement_rate_mean": 5e-324,
                "rate_stdev_fraction": 1}]},
    {"handling_mean_usd_per_tonne": 5e-324, "handling_stdev_fraction": 1},
]


class TestUnderflowingMeans:
    @pytest.mark.parametrize("fields", UNDERFLOWING_MEANS)
    def test_simulate_fails_with_one_error_line_and_no_output(
            self, tmp_path, capsys, fields):
        doc = dict(enabled_modes=["ocean"], seed=1, iterations=2,
                   end_year=2019, **fields)
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))
        csv_path = tmp_path / "out.csv"
        rc = cli.main(["simulate", "--config", str(cfg),
                       "--out-csv", str(csv_path)])
        captured = capsys.readouterr()
        assert rc == 1
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "underflows" in lines[0]
        assert not csv_path.exists()


# Every top-level field and every mode-override field, each either a value
# of the right type (in or out of range) or junk.
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400]))
_fractions = st.floats(-1.0, 5.0)
_years = st.integers(1900, 2100)
TOP_LEVEL = {
    "name": st.sampled_from(["scenario", "s 1", "a,b"]),
    "seed": st.integers(0, 2**64),
    "start_year": _years,
    "end_year": _years,
    "iterations": st.integers(-1, 10**9),
    "trip_distance_km": st.floats(-1.0, 1e5),
    "freight_tonnes": st.floats(-1.0, 1e6),
    "min_leg_km": st.floats(-1.0, 1e4),
    "handling_mean_usd_per_tonne": st.floats(-1.0, 10.0),
    "handling_stdev_fraction": _fractions,
    "cost_stdev_fraction": _fractions,
    "rate_stdev_fraction": _fractions,
    "evolution_policy": st.sampled_from(["per-replicate", "shared", "other"]),
    "enabled_modes": st.lists(
        st.sampled_from(["ocean", "rail", "auto_air", "barge"]),
        min_size=1, max_size=3, unique=True),
}
MODE_OVERRIDE = {
    "id": st.sampled_from(["ocean", "rail", "barge"]),
    "base_cost_mean": st.floats(-1.0, 1e308),
    "base_year": st.one_of(st.integers(1900, 2100),
                           st.integers(-10**7, 10**7),
                           st.sampled_from([-10**400, 10**400])),
    "improvement_rate_mean": st.floats(-0.5, 1.5),
    "cost_stdev_fraction": _fractions,
    "rate_stdev_fraction": _fractions,
    "autonomous": st.booleans(),
    "provenance": st.text(max_size=4),
}


def _mostly(valid):
    """``valid`` seven times in eight, else junk."""
    return st.integers(0, 7).flatmap(lambda i: valid if i else JUNK)


def _document(fields, required=()):
    return st.fixed_dictionaries(
        {k: _mostly(fields[k]) for k in required},
        optional={k: _mostly(v) for k, v in fields.items()
                  if k not in required})


TOP_LEVEL["modes"] = st.lists(_mostly(_document(MODE_OVERRIDE)), max_size=3)
# Half the documents must name their modes, so the mode checks get reached.
CONFIG_DOCUMENTS = st.one_of(_document(TOP_LEVEL),
                             _document(TOP_LEVEL, required=("enabled_modes",)))


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(doc=CONFIG_DOCUMENTS)
    def test_document_loads_or_raises_config_error(self, doc):
        try:
            resolve_registry(load_config(json.dumps(doc)))
        except ConfigError:
            pass
