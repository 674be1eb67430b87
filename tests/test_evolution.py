import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freightsim.config import ScenarioConfig, resolve_registry
from freightsim.evolution import (RateModel, compute_shared_means,
                                  evolve_mode_state, run_replicate,
                                  run_scenario)
from freightsim.modes import ModeRegistry, ModeSpec
from freightsim.stochastics import (derive_stream, lognormal_from_moments,
                                    sample_lognormal)

from conftest import StubStream


def one_mode_rates(rate, rate_stdev_fraction=0.5):
    spec = ModeSpec(id="m", base_cost_mean=1.0, base_year=2018,
                    improvement_rate_mean=rate,
                    rate_stdev_fraction=rate_stdev_fraction)
    return RateModel.from_registry(ModeRegistry([spec]))


def evolve_one(cost, rates, stream):
    return evolve_mode_state(np.array([cost]), rates, stream)[0]


class TestEvolveModeState:
    def test_air_worked_example(self):
        # stdev 0 pins the sampled rate to its mean of 5.5%
        rates = one_mode_rates(0.055, rate_stdev_fraction=0.0)
        evolved = evolve_one(1.766, rates, derive_stream(0, ["x"]))
        assert evolved == pytest.approx(1.669, abs=0.0005)

    def test_zero_rate_leaves_cost_unchanged(self):
        rates = one_mode_rates(0.0)
        assert evolve_one(0.5, rates, derive_stream(0, ["x"])) == 0.5

    def test_mean_of_evolved_costs(self):
        # E[c(1-r)] = c(1-E[r]) since r is sampled around its mean
        rates = one_mode_rates(0.05, rate_stdev_fraction=0.5)
        stream = derive_stream(21, ["evolve-mean"])
        costs = [evolve_one(1.0, rates, stream) for _ in range(100_000)]
        assert np.mean(costs) == pytest.approx(0.95, rel=0.01)

    def test_costs_stay_positive_under_extreme_stdev(self):
        rates = one_mode_rates(0.5, rate_stdev_fraction=3.0)
        stream = derive_stream(8, ["extreme"])
        for _ in range(5000):
            assert 0 < evolve_one(1.0, rates, stream) <= 1.0


def scalar_evolve(cost, spec, stream):
    """The per-mode scalar step the vector step replaced: the reference the
    vector step must match bit for bit, draw for draw."""
    if spec.improvement_rate_mean == 0.0:
        return cost
    params = lognormal_from_moments(
        spec.improvement_rate_mean,
        spec.rate_stdev_fraction * spec.improvement_rate_mean)
    r = sample_lognormal(params, stream)
    attempts = 0
    while r >= 1.0 and attempts < 100:
        r = sample_lognormal(params, stream)
        attempts += 1
    if r >= 1.0:
        r = 0.99
    return cost * (1.0 - r)


mode_specs = st.lists(
    st.builds(
        ModeSpec,
        id=st.just("m"),
        base_cost_mean=st.floats(0.001, 10.0),
        base_year=st.just(2018),
        improvement_rate_mean=st.one_of(st.just(0.0), st.floats(1e-6, 0.9)),
        rate_stdev_fraction=st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
    min_size=1, max_size=6)


class TestVectorStepMatchesScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(specs=mode_specs, seed=st.integers(0, 2**32 - 1))
    def test_same_costs_and_same_stream_position(self, specs, seed):
        rates = RateModel.from_registry(ModeRegistry(specs))
        costs = np.array([s.base_cost_mean for s in specs])
        expected = [s.base_cost_mean for s in specs]
        for step in range(8):
            vector_stream = derive_stream(seed, ["step", step])
            scalar_stream = derive_stream(seed, ["step", step])
            costs = evolve_mode_state(costs, rates, vector_stream)
            expected = [scalar_evolve(c, s, scalar_stream)
                        for c, s in zip(expected, specs)]
            assert costs.tolist() == expected
            assert vector_stream.normal() == scalar_stream.normal()

    def test_redraw_takes_the_next_batched_normal(self):
        # A rate >= 1 for the first mode is redrawn from the normal the
        # batch drew for the second mode, as the scalar loop did.
        specs = [ModeSpec(id=m, base_cost_mean=1.0, base_year=2018,
                          improvement_rate_mean=0.5, rate_stdev_fraction=0.5)
                 for m in ("a", "b")]
        params = lognormal_from_moments(0.5, 0.25)
        stream = StubStream(normals=[10.0, 0.0, 1.0])
        costs = evolve_mode_state(np.ones(2),
                                  RateModel.from_registry(ModeRegistry(specs)),
                                  stream)
        assert costs.tolist() == [1.0 - np.exp(params.mu),
                                  1.0 - np.exp(params.mu + params.sigma)]


def ocean_only_config(**kw):
    defaults = dict(enabled_modes=["ocean"], seed=11, iterations=4,
                    start_year=2018, end_year=2021,
                    cost_stdev_fraction=0.0, rate_stdev_fraction=0.0,
                    handling_stdev_fraction=0.0)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestRunReplicate:
    def test_closed_form_with_zero_stdevs(self):
        cfg = ocean_only_config(end_year=2024)
        reg = resolve_registry(cfg)
        records, means = run_replicate(cfg, reg, 0)
        for t, rec in enumerate(records):
            expected_mean = 0.0196 * (1 - 0.021) ** t
            assert means[(2018 + t, 0)]["ocean"] == pytest.approx(
                expected_mean, rel=1e-12)
            distance_cost = 10_000.0 * 50_000.0 * expected_mean
            handling_cost = rec.n_legs * 50_000.0 * 4.59
            assert rec.trip_cost == pytest.approx(
                distance_cost + handling_cost, rel=1e-9)

    def test_repeat_run_is_identical(self):
        cfg = ScenarioConfig(enabled_modes=["ocean", "rail"], seed=5,
                             iterations=4, end_year=2022)
        reg = resolve_registry(cfg)
        first, _ = run_replicate(cfg, reg, 3)
        second, _ = run_replicate(cfg, reg, 3)
        assert first == second

    def test_single_year_single_record(self):
        cfg = ocean_only_config(end_year=2018)
        records, _ = run_replicate(cfg, resolve_registry(cfg), 0)
        assert len(records) == 1


class TestRunScenario:
    def test_record_count(self):
        cfg = ScenarioConfig(enabled_modes=["ocean"], seed=1, iterations=10,
                             start_year=2018, end_year=2020)
        results = run_scenario(cfg)
        assert len(results.records) == 30

    def test_full_scale_record_count_shape(self):
        # 1000 iterations across 2018-2050 means 33,000 records; checked at
        # reduced scale with the same arithmetic
        cfg = ScenarioConfig(enabled_modes=["ocean"], seed=1, iterations=3)
        results = run_scenario(cfg)
        n_years = cfg.end_year - cfg.start_year + 1
        assert n_years == 33
        assert len(results.records) == 3 * 33
        assert 1000 * n_years == 33_000

    def test_single_record(self):
        cfg = ocean_only_config(iterations=1, end_year=2018)
        results = run_scenario(cfg)
        assert len(results.records) == 1

    def test_records_sorted(self):
        cfg = ScenarioConfig(enabled_modes=["ocean"], seed=2, iterations=5,
                             end_year=2021)
        results = run_scenario(cfg)
        keys = [(r.year, r.replicate) for r in results.records]
        assert keys == sorted(keys)

    def test_worker_count_does_not_change_results(self):
        cfg = ScenarioConfig(enabled_modes=["ocean", "auto_ocean"], seed=7,
                             iterations=8, end_year=2024)
        serial = run_scenario(cfg, workers=1)
        parallel = run_scenario(cfg, workers=4)
        assert serial.records == parallel.records
        assert serial.mode_means == parallel.mode_means

    def test_strictly_decreasing_trajectories(self):
        cfg = ScenarioConfig(enabled_modes=["ocean", "air"], seed=13,
                             iterations=20, end_year=2030)
        results = run_scenario(cfg)
        for rep in range(cfg.iterations):
            for mode in cfg.enabled_modes:
                path = [results.mode_means[(y, rep)][mode]
                        for y in range(cfg.start_year, cfg.end_year + 1)]
                assert all(b < a for a, b in zip(path, path[1:]))

    def test_zero_rate_stdev_matches_compound_decay(self):
        cfg = ScenarioConfig(enabled_modes=["ocean"], seed=3, iterations=3,
                             end_year=2030, rate_stdev_fraction=0.0)
        results = run_scenario(cfg)
        for (year, rep), means in results.mode_means.items():
            expected = 0.0196 * (1 - 0.021) ** (year - 2018)
            assert means["ocean"] == pytest.approx(expected, rel=1e-12)


class TestEvolutionPolicies:
    def test_shared_policy_aligns_replicates(self):
        cfg = ScenarioConfig(enabled_modes=["ocean", "rail"], seed=19,
                             iterations=6, end_year=2025,
                             evolution_policy="shared")
        results = run_scenario(cfg)
        for year in range(cfg.start_year, cfg.end_year + 1):
            per_rep = [results.mode_means[(year, rep)]
                       for rep in range(cfg.iterations)]
            assert all(m == per_rep[0] for m in per_rep)

    def test_shared_means_are_reused_verbatim(self):
        cfg = ScenarioConfig(enabled_modes=["ocean"], seed=19, iterations=2,
                             end_year=2022, evolution_policy="shared")
        reg = resolve_registry(cfg)
        shared = compute_shared_means(cfg, reg)
        results = run_scenario(cfg, reg)
        for (year, _), means in results.mode_means.items():
            assert means == shared[year]

    def test_per_replicate_variance_grows(self):
        cfg = ScenarioConfig(enabled_modes=["ocean"], seed=23, iterations=200,
                             end_year=2040)
        results = run_scenario(cfg)
        variances = []
        for year in range(cfg.start_year, cfg.end_year + 1):
            vals = [results.mode_means[(year, rep)]["ocean"]
                    for rep in range(cfg.iterations)]
            variances.append(statistics.pvariance(vals))
        assert variances[0] == 0.0
        assert all(v > 0 for v in variances[1:])
        # compounding independent rate draws: dispersion trends upward
        rising = sum(b >= a for a, b in zip(variances[1:], variances[2:]))
        assert rising / (len(variances) - 2) >= 0.8
        assert variances[-1] > variances[1]


class TestInitialStates:
    def test_pre_start_base_year_is_rolled_forward(self):
        cfg = ScenarioConfig(
            enabled_modes=["old"], seed=1, iterations=1, end_year=2018,
            rate_stdev_fraction=0.0, cost_stdev_fraction=0.0,
            modes=[{"id": "old", "base_cost_mean": 1.766, "base_year": 2016,
                    "improvement_rate_mean": 0.055}])
        results = run_scenario(cfg)
        assert results.mode_means[(2018, 0)]["old"] == pytest.approx(
            1.766 * 0.945 ** 2, rel=1e-12)

    def test_future_base_year_rejected(self):
        cfg = ScenarioConfig(
            enabled_modes=["new"], seed=1, iterations=1, end_year=2018,
            modes=[{"id": "new", "base_cost_mean": 1.0, "base_year": 2030,
                    "improvement_rate_mean": 0.01}])
        with pytest.raises(ValueError):
            run_scenario(cfg)
