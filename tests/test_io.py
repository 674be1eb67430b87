import io
import json
import math
import xml.etree.ElementTree as ET

import pytest

from freightsim.config import (ConfigError, ScenarioConfig, config_to_json,
                               load_config, resolve_registry)
from freightsim.evolution import run_scenario
from freightsim.report import (PlotSpec, cost_axis_value, ramp_color,
                               render_scatter_svg, write_records_csv)
from freightsim import cli


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
            "enabled_modes": ["ocean", "rail"],
            "cost_stdev_fraction": 0.1, "rate_stdev_fraction": 0.2,
            "modes": [{"id": "rail", "cost_stdev_fraction": 0.4}]}))
        reg = resolve_registry(cfg)
        assert reg.get("ocean").cost_stdev_fraction == 0.1
        assert reg.get("ocean").rate_stdev_fraction == 0.2
        assert reg.get("rail").cost_stdev_fraction == 0.4


def small_results(**kw):
    defaults = dict(enabled_modes=["ocean", "rail"], seed=6, iterations=3,
                    start_year=2018, end_year=2020)
    defaults.update(kw)
    return run_scenario(ScenarioConfig(**defaults))


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

    def test_deterministic_bytes(self):
        first, second = io.StringIO(), io.StringIO()
        render_scatter_svg(small_results(), PlotSpec(focus_mode="rail"), first)
        render_scatter_svg(small_results(), PlotSpec(focus_mode="rail"), second)
        assert first.getvalue() == second.getvalue()

    def test_rejects_unknown_focus_mode(self):
        with pytest.raises(ValueError):
            render_scatter_svg(small_results(), PlotSpec(focus_mode="air"),
                               io.StringIO())


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

    def test_bad_flags_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--no-such-flag"])
        assert exc.value.code != 0


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
]


class TestMalformedConfigValues:
    @pytest.mark.parametrize("field,value", MALFORMED_VALUES)
    def test_simulate_fails_with_one_error_line_and_no_output(
            self, tmp_path, capsys, field, value):
        doc = dict(enabled_modes=["ocean"], seed=1, iterations=2,
                   end_year=2019)
        doc[field] = value
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
