import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import CountingMath
from freightsim import analysis, tripsim
from freightsim.analysis import (deterministic_crossover_year,
                                 empirical_crossover, sensitivity_grid,
                                 summarize)
from freightsim.config import ScenarioConfig, resolve_registry
from freightsim.evolution import ResultSet, TripRecord, run_scenario
from freightsim.modes import ModeSpec, builtin_modes, derive_autonomous


class TestDeterministicCrossover:
    def test_multiple_of_one_crosses_immediately(self):
        assert deterministic_crossover_year(1.0, 0.05, 0.02, 2018) == 2018

    def test_ocean_defaults(self):
        year = deterministic_crossover_year(1.26, 0.021, 0.064, 2018)
        assert year == 2024

    def test_grid_anchor_cell(self):
        assert deterministic_crossover_year(1.5, 0.021, 0.081, 2018) == 2025

    def test_never_crosses_when_auto_is_slower(self):
        assert deterministic_crossover_year(2.0, 0.05, 0.05, 2018) is None
        assert deterministic_crossover_year(2.0, 0.06, 0.02, 2018) is None

    def test_closed_form_agrees_with_yearly_iteration(self):
        cases = [(1.26, 0.021, 0.064), (2.0, 0.006, 0.049),
                 (3.5, 0.021, 0.081), (1.5, 0.021, 0.041)]
        for m, r_non, r_auto in cases:
            year = deterministic_crossover_year(m, r_non, r_auto, 2018)
            non, auto = 1.0, m
            brute = None
            for t in range(0, 200):
                if auto <= non:
                    brute = 2018 + t
                    break
                non *= 1 - r_non
                auto *= 1 - r_auto
            assert year == brute

    def test_only_the_ratio_matters(self):
        a = deterministic_crossover_year(2.5, 0.01, 0.05, 2018)
        # simultaneous rescaling of both base costs leaves M unchanged
        assert deterministic_crossover_year(2.5, 0.01, 0.05, 2018) == a

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError):
            deterministic_crossover_year(1.5, -0.1, 0.05, 2018)
        with pytest.raises(ValueError):
            deterministic_crossover_year(1.5, 0.05, 1.0, 2018)
        with pytest.raises(ValueError):
            deterministic_crossover_year(0.0, 0.05, 0.05, 2018)

    @pytest.mark.parametrize("multiple", [math.inf, math.nan])
    def test_rejects_a_multiple_that_is_not_finite(self, multiple):
        # inf ended in an OverflowError from ceil(inf).
        with pytest.raises(ValueError, match="must be finite"):
            deterministic_crossover_year(multiple, 0.021, 0.064, 2018)

    def test_rejects_rates_whose_ratio_rounds_to_one(self):
        # r_auto > r_non, but 1 - r rounds to the same float for both: the
        # log of the ratio was 0, a ZeroDivisionError.
        r_auto = 0.021 + 1e-17
        assert 0.021 < r_auto and 1 - 0.021 == 1 - r_auto
        with pytest.raises(ValueError, match="rounds to 1"):
            deterministic_crossover_year(1.5, 0.021, r_auto, 2018)


class TestSensitivityGrid:
    def test_default_shape_and_anchor(self):
        grid = sensitivity_grid()
        assert len(grid.cells) == 4
        assert all(len(row) == 4 for row in grid.cells)
        assert grid.cell(0.06, 1.5) == 2025

    def test_monotone_rows_and_columns(self):
        grid = sensitivity_grid()
        for row in grid.cells:
            assert list(row) == sorted(row)
        for j in range(len(grid.multiples)):
            col = [row[j] for row in grid.cells]
            assert col == sorted(col, reverse=True)

    def test_unity_multiple_column(self):
        grid = sensitivity_grid(multiples=[1.0], deltas=[0.02, 0.04])
        assert all(row[0] == grid.base_year for row in grid.cells)

    def test_rejects_empty_lists(self):
        with pytest.raises(ValueError):
            sensitivity_grid(multiples=[])


def fake_results(records, enabled=("ocean",), **cfg_kw):
    """A one-year trip table holding ``records`` (all of one year) as its
    replicates, in the given order."""
    year = records[0].year if records else 2018
    kw = dict(enabled_modes=list(enabled), seed=0, iterations=1,
              start_year=year, end_year=year)
    kw.update(cfg_kw)
    cfg = ScenarioConfig(**kw)
    frac = [[r.mode_distance_fraction[m] for m in enabled] for r in records]
    return ResultSet(config=cfg, registry=resolve_registry(cfg),
                     cost=np.array([[r.trip_cost for r in records]]),
                     n_legs=np.array([[r.n_legs for r in records]]),
                     frac=np.array(frac).reshape(1, len(records),
                                                 len(enabled)))


def record(year, replicate, cost, fractions):
    return TripRecord(year=year, replicate=replicate, trip_cost=cost,
                      n_legs=1, mode_distance_fraction=fractions)


class TestSummarize:
    def test_single_record_year(self):
        results = fake_results([record(2018, 0, 42.0, {"ocean": 1.0})])
        (summary,) = summarize(results)
        assert summary.p5 == summary.p50 == summary.p95 == 42.0
        assert summary.min == summary.max == summary.mean == 42.0

    def test_nearest_rank_on_1_to_100(self):
        records = [record(2018, i, float(i + 1), {"ocean": 1.0})
                   for i in range(100)]
        (summary,) = summarize(fake_results(records))
        assert summary.p50 == 50.0
        assert summary.p5 == 5.0
        assert summary.p95 == 95.0

    def test_percentiles_ordered_on_random_input(self):
        import random
        rng = random.Random(4)
        records = [record(2018, i, rng.lognormvariate(2, 1), {"ocean": 1.0})
                   for i in range(257)]
        (summary,) = summarize(fake_results(records))
        assert (summary.min <= summary.p5 <= summary.p25 <= summary.p50
                <= summary.p75 <= summary.p95 <= summary.max)

    @given(st.lists(st.floats(0.01, 1e6), min_size=1, max_size=60))
    def test_ordering_property(self, costs):
        records = [record(2020, i, c, {"ocean": 1.0})
                   for i, c in enumerate(costs)]
        (summary,) = summarize(fake_results(records))
        assert (summary.min <= summary.p5 <= summary.p25 <= summary.p50
                <= summary.p75 <= summary.p95 <= summary.max)

    def test_mode_fraction_means(self):
        records = [
            record(2018, 0, 1.0, {"ocean": 0.25, "rail": 0.75}),
            record(2018, 1, 2.0, {"ocean": 0.75, "rail": 0.25}),
        ]
        (summary,) = summarize(fake_results(records, enabled=("ocean", "rail")))
        assert summary.mode_fraction_mean["ocean"] == pytest.approx(0.5)
        assert summary.mode_fraction_mean["rail"] == pytest.approx(0.5)

    def test_rejects_empty_results(self):
        with pytest.raises(ValueError):
            summarize(fake_results([]))


ALL_MODES = ["air", "ocean", "truck", "rail", "iwt", "auto_air",
             "auto_ocean", "auto_truck", "auto_rail", "auto_iwt"]


class TestSummarizeRuns:
    def test_costs_whose_sum_overflows_have_finite_means(self):
        cfg = ScenarioConfig(enabled_modes=["ocean", "auto_ocean"],
                             iterations=600, end_year=2019,
                             trip_distance_km=1e10, freight_tonnes=3e297)
        results = run_scenario(cfg)
        assert np.isfinite(results.cost).all()
        with pytest.raises(OverflowError):
            math.fsum(results.cost[0].tolist())
        for summary in summarize(results):
            assert math.isfinite(summary.mean)
            assert summary.min <= summary.mean <= summary.max

    # The benchmark's three workload shapes.
    @pytest.mark.parametrize("workload", [
        dict(enabled_modes=ALL_MODES, iterations=160),
        dict(enabled_modes=["ocean", "auto_ocean"], min_leg_km=10.0,
             iterations=200),
        dict(enabled_modes=ALL_MODES, evolution_policy="shared",
             min_leg_km=5000.0, iterations=600)])
    def test_benchmark_shaped_runs_call_no_fsum(self, monkeypatch, workload):
        results = run_scenario(ScenarioConfig(seed=2018, **workload))
        shim = CountingMath()
        monkeypatch.setattr(analysis, "math", shim)
        monkeypatch.setattr(tripsim, "math", shim)
        assert len(summarize(results)) == 33
        assert shim.calls["fsum"] == 0


class TestEmpiricalCrossover:
    def pairwise_config(self, auto_overrides=None, **kw):
        modes = []
        if auto_overrides:
            modes.append({"id": "auto_ocean", **auto_overrides})
        defaults = dict(enabled_modes=["ocean", "auto_ocean"], seed=31,
                        iterations=60, end_year=2035, modes=modes)
        defaults.update(kw)
        return ScenarioConfig(**defaults)

    def test_identical_modes_cross_at_start(self):
        cfg = self.pairwise_config(
            auto_overrides={"base_cost_mean": 0.0196,
                            "improvement_rate_mean": 0.021},
            end_year=2020, iterations=100)
        report = empirical_crossover(run_scenario(cfg), "ocean", "auto_ocean")
        assert report.deterministic_year == cfg.start_year
        # with identical specs the medians are statistically tied, so the
        # empirical year is a sampling coin flip within the horizon
        assert report.empirical_year is not None
        non_med, auto_med = report.basis[cfg.start_year]
        assert auto_med == pytest.approx(non_med, rel=0.05)

    def test_defaults_cross_mid_2020s(self):
        cfg = self.pairwise_config(iterations=200)
        report = empirical_crossover(run_scenario(cfg), "ocean", "auto_ocean")
        assert report.deterministic_year == 2024
        assert report.empirical_year is not None
        assert 2023 <= report.empirical_year <= 2027

    def test_never_crosses_with_equal_rates(self):
        cfg = self.pairwise_config(
            auto_overrides={"base_cost_mean": 2 * 0.0196,
                            "improvement_rate_mean": 0.021},
            end_year=2050, iterations=40)
        report = empirical_crossover(run_scenario(cfg), "ocean", "auto_ocean")
        assert report.deterministic_year is None
        assert report.empirical_year is None

    def test_basis_covers_every_year(self):
        cfg = self.pairwise_config(end_year=2022, iterations=30)
        report = empirical_crossover(run_scenario(cfg), "ocean", "auto_ocean")
        assert sorted(report.basis) == list(range(2018, 2023))

    def test_rejects_absent_mode(self):
        cfg = ScenarioConfig(enabled_modes=["ocean"], seed=1, iterations=1,
                             end_year=2018)
        results = run_scenario(cfg)
        with pytest.raises(ValueError):
            empirical_crossover(results, "ocean", "auto_ocean")

    def test_zero_stdev_matches_deterministic_within_a_year(self):
        cfg = self.pairwise_config(
            iterations=150, end_year=2030,
            rate_stdev_fraction=0.0, cost_stdev_fraction=0.0,
            handling_stdev_fraction=0.0)
        report = empirical_crossover(run_scenario(cfg), "ocean", "auto_ocean")
        assert report.empirical_year is not None
        assert abs(report.empirical_year - report.deterministic_year) <= 1


def overrides(*specs):
    """Config ``modes`` entries that pin every field of the given specs."""
    return [dataclasses.asdict(spec) for spec in specs]


class TestEmpiricalCrossoverUsesRunRegistry:
    def test_derived_autonomous_variant_sets_deterministic_year(self):
        ocean = builtin_modes().get("ocean")
        modes = overrides(ocean, derive_autonomous(ocean, 1.2, 0.08))
        cfg = ScenarioConfig(enabled_modes=["ocean", "auto_ocean"], seed=3,
                             iterations=5, end_year=2024, modes=modes)
        report = empirical_crossover(run_scenario(cfg),
                                     "ocean", "auto_ocean")
        # ln 1.2 / ln(0.979 / 0.899) = 2.1 years; the builtin auto_ocean
        # would give 2024
        assert report.deterministic_year == 2021

    def test_modes_outside_the_builtin_dataset(self):
        barge = ModeSpec(id="barge", base_cost_mean=0.05, base_year=2018,
                         improvement_rate_mean=0.02)
        modes = overrides(barge, derive_autonomous(barge, 1.5, 0.06))
        cfg = ScenarioConfig(enabled_modes=["barge", "auto_barge"], seed=3,
                             iterations=5, end_year=2024, modes=modes)
        report = empirical_crossover(run_scenario(cfg),
                                     "barge", "auto_barge")
        assert report.deterministic_year == deterministic_crossover_year(
            1.5, 0.02, 0.08, 2018)
