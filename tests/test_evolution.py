import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freightsim import evolution, stochastics
from freightsim.config import ConfigError, ScenarioConfig, resolve_registry
from freightsim.evolution import (RateModel, _path_texts, _scenario_paths,
                                  compute_shared_means, evolve_mode_state,
                                  run_replicate, run_scenario)
from freightsim.modes import ModeRegistry, ModeSpec
from freightsim.stochastics import (_CHUNK, _path_text, derive_lanes,
                                    derive_stream, lognormal_from_moments)

import oracle
from conftest import StubStream
from test_tripsim import CountingMath


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
            expected = oracle.rate_step(expected, specs, scalar_stream)
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


class TestRateModel:
    def test_matches_per_mode_lognormal_from_moments(self):
        # A rate-0 mode, a zero fraction, a fraction whose stdev squared
        # underflows (zero log-space spread) and two drawing modes.
        shapes = [("still", 0.0, 0.5), ("flat", 0.03, 0.0),
                  ("a", 0.021, 0.5), ("thin", 0.05, 1e-200),
                  ("b", 0.064, 1.5)]
        specs = [ModeSpec(id=m, base_cost_mean=1.0, base_year=2018,
                          improvement_rate_mean=rate,
                          rate_stdev_fraction=fraction)
                 for m, rate, fraction in shapes]
        params = [lognormal_from_moments(rate, fraction * rate)
                  if rate else None for _, rate, fraction in shapes]
        rates = RateModel.from_registry(ModeRegistry(specs))
        assert rates.fixed.tolist() == [0.0, math.exp(params[1].mu), 0.0,
                                        math.exp(params[3].mu), 0.0]
        assert params[3].sigma == 0.0
        assert rates.drawn.tolist() == [2, 4]
        assert rates.mu.tolist() == [params[2].mu, params[4].mu]
        assert rates.sigma.tolist() == [params[2].sigma, params[4].sigma]


# The second of two modes has moments no log-normal matches; the error
# names it, with the text of its own failed match.
UNMATCHED_SECOND_MODE = [
    ({"improvement_rate_mean": 1e-320},
     "modes['rail']: improvement_rate_mean and rate_stdev_fraction must be "
     "such that a log-normal with finite parameters matches them: mean "
     "1e-320 is too small: its square underflows to 0"),
    ({"cost_stdev_fraction": 1e200},
     "modes['rail']: base_cost_mean and cost_stdev_fraction must be such "
     "that a log-normal with finite parameters matches them: log-normal "
     "parameters must be finite"),
]


@pytest.mark.parametrize("policy", ["per-replicate", "shared"])
@pytest.mark.parametrize("override,message", UNMATCHED_SECOND_MODE)
def test_unmatched_second_mode_is_named(policy, override, message):
    cfg = ScenarioConfig(enabled_modes=["ocean", "rail"], seed=1,
                         iterations=2, end_year=2019,
                         evolution_policy=policy,
                         modes=[{"id": "rail", **override}])
    with pytest.raises(ConfigError) as info:
        run_scenario(cfg)
    assert str(info.value) == message


def ocean_only_config(**kw):
    defaults = dict(enabled_modes=["ocean"], seed=11, iterations=4,
                    start_year=2018, end_year=2021,
                    cost_stdev_fraction=0.0, rate_stdev_fraction=0.0,
                    handling_stdev_fraction=0.0)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def handling_params(cfg):
    """The run's handling-cost log-normal parameters."""
    return lognormal_from_moments(
        cfg.handling_mean_usd_per_tonne,
        cfg.handling_stdev_fraction * cfg.handling_mean_usd_per_tonne)


def trip_streams(cfg, replicate):
    """The trip streams of one replicate, as one block of lanes."""
    return next(derive_lanes(cfg.seed, (
        ("scenario", year, replicate, "trip")
        for year in range(cfg.start_year, cfg.end_year + 1))))


class TestRunReplicate:
    def test_closed_form_with_zero_stdevs(self):
        cfg = ocean_only_config(end_year=2024)
        means = run_scenario(cfg).mode_means[0]
        trips = run_replicate(cfg, resolve_registry(cfg), means,
                              handling_params(cfg), trip_streams(cfg, 0))
        for t, (cost, n_legs) in enumerate(zip(*trips[:2])):
            expected_mean = 0.0196 * (1 - 0.021) ** t
            assert means[t, 0] == pytest.approx(
                expected_mean, rel=1e-12)
            distance_cost = 10_000.0 * 50_000.0 * expected_mean
            handling_cost = n_legs * 50_000.0 * 4.59
            assert cost == pytest.approx(
                distance_cost + handling_cost, rel=1e-9)

    def test_repeat_run_is_identical(self):
        cfg = ScenarioConfig(enabled_modes=["ocean", "rail"], seed=5,
                             iterations=4, end_year=2022)
        reg = resolve_registry(cfg)
        means = run_scenario(cfg).mode_means[3]
        first = run_replicate(cfg, reg, means, handling_params(cfg),
                              trip_streams(cfg, 3))
        second = run_replicate(cfg, reg, means, handling_params(cfg),
                               trip_streams(cfg, 3))
        assert all(map(np.array_equal, first, second))

    def test_single_year_single_record(self):
        cfg = ocean_only_config(end_year=2018)
        records = run_replicate(cfg, resolve_registry(cfg),
                                run_scenario(cfg).mode_means[0],
                                handling_params(cfg), trip_streams(cfg, 0))
        assert all(len(column) == 1 for column in records)


class TestSharedTableCostsEachCellOnce:
    def test_math_log_at_most_once_per_trajectory_cell(self, monkeypatch):
        # 13 years x 100 replicates: two trip blocks, one fixed-cost mode.
        cfg = ScenarioConfig(enabled_modes=["ocean", "rail", "auto_ocean"],
                             evolution_policy="shared", seed=7,
                             iterations=100, end_year=2030, min_leg_km=10,
                             modes=[{"id": "rail",
                                     "cost_stdev_fraction": 0}])
        shim = CountingMath()
        monkeypatch.setattr(stochastics, "math", shim)
        blocks = []
        real = evolution.run_replicate

        def counted(*args):
            before = shim.calls["log"]
            out = real(*args)
            blocks.append(shim.calls["log"] - before)
            return out

        monkeypatch.setattr(evolution, "run_replicate", counted)
        run_scenario(cfg)
        assert len(blocks) == 2
        assert sum(blocks) <= 13 * 3
        # The second block meets no cell the first did not.
        assert blocks[1] == 0


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

    def test_records_view_reads_the_trip_table(self):
        cfg = ScenarioConfig(enabled_modes=["ocean", "rail"], seed=2,
                             iterations=3, end_year=2021)
        results = run_scenario(cfg)
        assert results.cost.shape == results.n_legs.shape == (4, 3)
        assert results.frac.shape == (4, 3, 2)
        records = results.records
        assert len(records) == 12
        rec = records[7]  # 2020, replicate 1
        assert (rec.year, rec.replicate) == (2020, 1)
        assert rec.trip_cost == results.cost[2, 1]
        assert rec.n_legs == results.n_legs[2, 1]
        assert rec.mode_distance_fraction == {
            "ocean": results.frac[2, 1, 0], "rail": results.frac[2, 1, 1]}
        assert records[-1] == records[11]
        with pytest.raises(IndexError):
            records[12]
        with pytest.raises(TypeError):
            records[0] = rec

    def test_config_is_the_only_run_input(self):
        # A second positional argument was once a registry that replaced
        # the config's modes under an unchanged fingerprint.
        cfg = ocean_only_config(iterations=2, end_year=2019)
        with pytest.raises(TypeError):
            run_scenario(cfg, resolve_registry(cfg))

    def test_worker_count_does_not_change_results(self):
        cfg = ScenarioConfig(enabled_modes=["ocean", "auto_ocean"], seed=7,
                             iterations=8, end_year=2024)
        serial = run_scenario(cfg, workers=1)
        parallel = run_scenario(cfg, workers=4)
        for name in ("cost", "n_legs", "frac", "mode_means"):
            assert np.array_equal(getattr(serial, name),
                                  getattr(parallel, name))

    def test_strictly_decreasing_trajectories(self):
        cfg = ScenarioConfig(enabled_modes=["ocean", "air"], seed=13,
                             iterations=20, end_year=2030)
        results = run_scenario(cfg)
        for rep in range(cfg.iterations):
            for i in range(len(cfg.enabled_modes)):
                path = results.mode_means[rep, :, i].tolist()
                assert all(b < a for a, b in zip(path, path[1:]))

    def test_zero_rate_stdev_matches_compound_decay(self):
        cfg = ScenarioConfig(enabled_modes=["ocean"], seed=3, iterations=3,
                             end_year=2030, rate_stdev_fraction=0.0)
        results = run_scenario(cfg)
        for trajectory in results.mode_means:
            for t, means in enumerate(trajectory):
                expected = 0.0196 * (1 - 0.021) ** t
                assert means[0] == pytest.approx(expected, rel=1e-12)


class TestEvolutionPolicies:
    def test_shared_policy_aligns_replicates(self):
        cfg = ScenarioConfig(enabled_modes=["ocean", "rail"], seed=19,
                             iterations=6, end_year=2025,
                             evolution_policy="shared")
        results = run_scenario(cfg)
        for year in range(cfg.start_year, cfg.end_year + 1):
            per_rep = [results.mode_means[rep, year - cfg.start_year].tolist()
                       for rep in range(cfg.iterations)]
            assert all(m == per_rep[0] for m in per_rep)

    def test_shared_mode_means_are_one_read_only_trajectory(self):
        cfg = ScenarioConfig(enabled_modes=["ocean", "rail"], seed=19,
                             iterations=3, end_year=2022,
                             evolution_policy="shared")
        means = run_scenario(cfg).mode_means
        assert means.shape == (3, 5, 2)
        assert means.strides[0] == 0
        with pytest.raises(ValueError):
            means[0, 0, 0] = 1.0

    def test_shared_means_are_reused_verbatim(self):
        cfg = ScenarioConfig(enabled_modes=["ocean"], seed=19, iterations=2,
                             end_year=2022, evolution_policy="shared")
        reg = resolve_registry(cfg)
        shared = compute_shared_means(cfg, reg, derive_lanes(cfg.seed, (
            ("scenario", year, "shared-rates")
            for year in range(cfg.start_year, cfg.end_year))))
        results = run_scenario(cfg)
        for means in results.mode_means:
            assert means.tolist() == shared.tolist()

    def test_per_replicate_variance_grows(self):
        cfg = ScenarioConfig(enabled_modes=["ocean"], seed=23, iterations=200,
                             end_year=2040)
        results = run_scenario(cfg)
        variances = []
        for year in range(cfg.start_year, cfg.end_year + 1):
            vals = results.mode_means[:, year - cfg.start_year, 0].tolist()
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
        assert results.mode_means[0, 0, 0] == pytest.approx(
            1.766 * 0.945 ** 2, rel=1e-12)

    def test_future_base_year_rejected(self):
        cfg = ScenarioConfig(
            enabled_modes=["new"], seed=1, iterations=1, end_year=2018,
            modes=[{"id": "new", "base_cost_mean": 1.0, "base_year": 2030,
                    "improvement_rate_mean": 0.01}])
        with pytest.raises(ValueError):
            run_scenario(cfg)


class TestBatchedStreamsMatchOneByOne:
    @pytest.mark.parametrize("policy", ["per-replicate", "shared"])
    def test_path_texts_are_the_label_paths(self, policy):
        cfg = ScenarioConfig(enabled_modes=["ocean"], seed=-12, iterations=3,
                             end_year=2021, evolution_policy=policy)
        assert list(_path_texts(cfg)) == [_path_text(cfg.seed, p)
                                          for p in _scenario_paths(cfg)]

    # 12 rate steps and 13 trips per replicate: 2,500 paths per-replicate,
    # 2,612 shared.
    @pytest.mark.parametrize("policy,iterations",
                             [("per-replicate", 100), ("shared", 200)])
    def test_chunk_edges_inside_replicates(self, policy, iterations):
        cfg = ScenarioConfig(enabled_modes=["ocean", "rail", "air"], seed=29,
                             iterations=iterations, end_year=2030,
                             evolution_policy=policy)
        paths = list(_scenario_paths(cfg))
        edges = range(_CHUNK, len(paths), _CHUNK)
        assert len(edges) >= 2
        # Each edge falls between two paths of one replicate's rates or
        # trips.
        assert all(len(paths[e]) == 4 and paths[e - 1][2:] == paths[e][2:]
                   for e in edges)
        results = run_scenario(cfg)
        expected = oracle.run(cfg)
        for name, want in zip(("cost", "n_legs", "frac", "mode_means"),
                              expected):
            assert np.array_equal(getattr(results, name), want), name
