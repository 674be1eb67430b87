import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freightsim import evolution, stochastics, tripsim
from freightsim.config import ConfigError, ScenarioConfig, resolve_registry
from freightsim.lanes import Lanes
from freightsim.evolution import (RateModel, compute_shared_means,
                                  evolve_mode_state, replicate_trajectories,
                                  run_replicate, run_scenario)
from freightsim.modes import ModeRegistry, ModeSpec
from freightsim.stochastics import (_CHUNK, _path_text, derive_stream,
                                    lognormal_from_moments, seed_lanes)

import oracle
from conftest import StubStream
from test_oracle import assert_matches_oracle
from test_tripsim import CountingMath, one_lane


def one_mode_rates(rate, rate_stdev_fraction=0.5):
    spec = ModeSpec(id="m", base_cost_mean=1.0, base_year=2018,
                    improvement_rate_mean=rate,
                    rate_stdev_fraction=rate_stdev_fraction)
    return RateModel.from_registry(ModeRegistry([spec]))


def evolve_one(cost, rates, stream):
    return cost * evolve_mode_state(rates, stream)[0, 0]


def lane_generator(lanes, i=0):
    """numpy's generator in the state of lane ``i`` of ``lanes``."""
    bits = np.random.PCG64(0)
    bits.state = lanes.bit_generator_state(i)
    return np.random.Generator(bits)


class TestEvolveModeState:
    def test_air_worked_example(self):
        # stdev 0 pins the sampled rate to its mean of 5.5%
        rates = one_mode_rates(0.055, rate_stdev_fraction=0.0)
        evolved = evolve_one(1.766, rates, one_lane(0, ["x"]))
        assert evolved == pytest.approx(1.669, abs=0.0005)

    def test_zero_rate_leaves_cost_unchanged(self):
        rates = one_mode_rates(0.0)
        assert evolve_one(0.5, rates, one_lane(0, ["x"])) == 0.5

    def test_mean_of_evolved_costs(self):
        # E[c(1-r)] = c(1-E[r]) since r is sampled around its mean
        rates = one_mode_rates(0.05, rate_stdev_fraction=0.5)
        # One step on each of 100,000 lanes, in one block.
        costs = evolve_mode_state(rates, seed_lanes(
            _path_text(21, ("evolve-mean", i)) for i in range(100_000)))[:, 0]
        assert costs.size == 100_000
        assert np.mean(costs) == pytest.approx(0.95, rel=0.01)

    def test_costs_stay_positive_under_extreme_stdev(self):
        rates = one_mode_rates(0.5, rate_stdev_fraction=3.0)
        stream = one_lane(8, ["extreme"])
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
            vector_lanes = one_lane(seed, ["step", step])
            scalar_stream = derive_stream(seed, ["step", step])
            costs = costs * evolve_mode_state(rates, vector_lanes)[0]
            expected = oracle.rate_step(expected, specs, scalar_stream)
            assert costs.tolist() == expected
            vector_stream = lane_generator(vector_lanes)
            assert vector_stream.normal() == scalar_stream.normal()

    def test_redraw_takes_the_next_batched_normal(self):
        # A rate >= 1 for the first mode is redrawn from the normal the
        # batch drew for the second mode, as the scalar loop did.
        specs = [ModeSpec(id=m, base_cost_mean=1.0, base_year=2018,
                          improvement_rate_mean=0.5, rate_stdev_fraction=0.5)
                 for m in ("a", "b")]
        params = lognormal_from_moments(0.5, 0.25)
        stream = StubStream(normals=[10.0, 0.0, 1.0])
        costs = evolve_mode_state(
            RateModel.from_registry(ModeRegistry(specs)), stream)[0]
        assert costs.tolist() == [1.0 - np.exp(params.mu),
                                  1.0 - np.exp(params.mu + params.sigma)]


class CountingGenerator:
    """A numpy generator that counts the normals drawn from it."""

    def __init__(self, gen):
        self.gen, self.normals = gen, 0

    def normal(self):
        self.normals += 1
        return self.gen.normal()


class TestRedrawsOnLanes:
    # A rate >= 1 about one draw in six, and one in fifteen.
    SPECS = [ModeSpec(id="wild", base_cost_mean=1.0, base_year=2018,
                      improvement_rate_mean=0.9, rate_stdev_fraction=5.0),
             ModeSpec(id="edge", base_cost_mean=1.0, base_year=2018,
                      improvement_rate_mean=0.999999,
                      rate_stdev_fraction=100.0)]

    # No lane of the block reaches the clamp after 100 redraws; after one,
    # some do.
    @pytest.mark.parametrize("max_redraws", [100, 1])
    def test_each_lane_steps_and_ends_as_its_generator(self, monkeypatch,
                                                       max_redraws):
        monkeypatch.setattr(evolution, "_MAX_RATE_REDRAWS", max_redraws)
        monkeypatch.setattr(oracle, "MAX_RATE_REDRAWS", max_redraws)
        paths = [("redraws", i) for i in range(256)]
        lanes = seed_lanes(_path_text(3, p) for p in paths)
        steps = evolve_mode_state(
            RateModel.from_registry(ModeRegistry(self.SPECS)), lanes)
        after = lanes.normals(np.ones(len(paths), dtype=np.intp))
        draws, clamped = set(), 0
        for i, path in enumerate(paths):
            gen = CountingGenerator(derive_stream(3, path))
            expected = oracle.rate_step([1.0, 1.0], self.SPECS, gen)
            assert steps[i].tolist() == expected, path
            assert after[i] == gen.gen.normal(), path
            draws.add(gen.normals)
            clamped += (1.0 - oracle.RATE_CLAMP) in expected
        # Lanes settle after different numbers of draws, some past the two
        # of their batch.
        assert len(draws) >= 3 and max(draws) > 3
        assert (clamped > 0) == (max_redraws == 1)


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
    return seed_lanes(
        _path_text(cfg.seed, ("scenario", year, replicate, "trip"))
        for year in range(cfg.start_year, cfg.end_year + 1))


def own_table(reg, means):
    """The cost table of one ``(years, modes)`` trajectory ``means``, and
    the rows its trips, one a year, are costed with."""
    return evolution._cost_table(reg, means), np.arange(len(means))


class TestRunReplicate:
    def test_closed_form_with_zero_stdevs(self):
        cfg = ocean_only_config(end_year=2024)
        reg = resolve_registry(cfg)
        means = replicate_trajectories(cfg, reg, range(1))[0]
        table, rows = own_table(reg, means)
        trips = run_replicate(cfg, table, handling_params(cfg),
                              trip_streams(cfg, 0), rows)
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
        table, rows = own_table(
            reg, replicate_trajectories(cfg, reg, range(3, 4))[0])
        first = run_replicate(cfg, table, handling_params(cfg),
                              trip_streams(cfg, 3), rows)
        second = run_replicate(cfg, table, handling_params(cfg),
                               trip_streams(cfg, 3), rows)
        assert all(map(np.array_equal, first, second))

    def test_single_year_single_record(self):
        cfg = ocean_only_config(end_year=2018)
        reg = resolve_registry(cfg)
        table, rows = own_table(
            reg, replicate_trajectories(cfg, reg, range(1))[0])
        records = run_replicate(cfg, table, handling_params(cfg),
                                trip_streams(cfg, 0), rows)
        assert all(len(column) == 1 for column in records)


class TestSharedTableCostsEachCellOnce:
    def test_math_log_at_most_once_per_trajectory_cell(self, monkeypatch):
        # 13 years x 100 replicates per 1,024 paths of block width: two
        # trip blocks, one fixed-cost mode.
        cfg = ScenarioConfig(enabled_modes=["ocean", "rail", "auto_ocean"],
                             evolution_policy="shared", seed=7,
                             iterations=100 * _CHUNK // 1024, end_year=2030,
                             min_leg_km=10,
                             modes=[{"id": "rail",
                                     "cost_stdev_fraction": 0}])
        shim = CountingMath()
        monkeypatch.setattr(stochastics, "math", shim)
        blocks, runs = [], []
        real_block, real_run = evolution.run_replicate, evolution.cost_trips

        def block(*args):
            blocks.append(len(args[3]))
            return real_block(*args)

        def run(*args):
            before = shim.calls["log"]
            out = real_run(*args)
            runs.append(shim.calls["log"] - before)
            return out

        monkeypatch.setattr(evolution, "run_replicate", block)
        monkeypatch.setattr(evolution, "cost_trips", run)
        run_scenario(cfg)
        assert len(blocks) == 2
        # A cost run costs each cell it meets once, and keeps none.
        assert len(runs) > len(blocks)
        assert all(0 < n <= 13 * 3 for n in runs)


def counted_normals(monkeypatch):
    """Record each ``Lanes.normals`` call as its lane count and its count
    of normals, in call order."""
    calls = []
    real = Lanes.normals

    def normals(self, counts):
        calls.append((len(self), int(np.sum(counts))))
        return real(self, counts)
    monkeypatch.setattr(Lanes, "normals", normals)
    return calls


def counted_cost_runs(monkeypatch):
    """Record the trip count of each cost run ``run_replicate`` makes."""
    runs = []
    real = evolution.cost_trips

    def cost_trips(trips, *args):
        runs.append(len(trips.n_legs))
        return real(trips, *args)
    monkeypatch.setattr(evolution, "cost_trips", cost_trips)
    return runs


class TestBlockNormals:
    """A trip block's cost normals are counted from the cells its legs use
    and drawn in one ``Lanes.normals`` call; each cost run reads its own
    trips' slice of them."""

    # 48 replicates of 4 years at a block width of 64 trip paths: three
    # groups of 16 replicates, whose rates (mean 0.021 and 0.0105, stdev
    # half the mean) never reach 1, so no group redraws.
    PAIR = dict(enabled_modes=["ocean", "auto_ocean"], seed=3, iterations=48,
                end_year=2021, min_leg_km=10.0)

    @pytest.mark.parametrize("policy", ["per-replicate", "shared"])
    def test_a_group_draws_each_stage_in_one_call(self, monkeypatch, policy):
        monkeypatch.setattr(stochastics, "_CHUNK", 64)
        cfg = ScenarioConfig(**self.PAIR, evolution_policy=policy)
        calls = counted_normals(monkeypatch)
        run_scenario(cfg)
        lanes = [n for n, _ in calls]
        if policy == "shared":
            # The shared trajectory's 3 steps, then one call per group.
            assert lanes == [3, 64, 64, 64]
        else:
            # Per group: its 16 replicates' 48 rate steps, then its trips.
            assert lanes == [48, 64] * 3

    # 10 replicates of 4 years, about 7 legs a trip, costed in runs of
    # about 64 legs: one block of at least three cost runs.
    @pytest.mark.parametrize("policy", ["per-replicate", "shared"])
    def test_a_block_of_many_cost_runs_matches_the_oracle(self, monkeypatch,
                                                          policy):
        monkeypatch.setattr(tripsim, "_LEG_SLICE", 64)
        cfg = ScenarioConfig(**{**self.PAIR, "iterations": 10},
                             evolution_policy=policy)
        calls = counted_normals(monkeypatch)
        runs = counted_cost_runs(monkeypatch)
        results = assert_matches_oracle(cfg)
        assert len(runs) >= 3 and sum(runs) == results.cost.size
        # The run's rate steps, then the block's one call: two normals a
        # leg, its operational and its handling cost.  The oracle check's
        # trajectories draw after them.
        assert calls[1] == (results.cost.size, 2 * results.n_legs.sum())

    # No cost, rate or handling spread: the block's one call draws no
    # normal, and each cost run reads an empty slice.
    @pytest.mark.parametrize("policy", ["per-replicate", "shared"])
    def test_a_block_that_draws_nothing_matches_the_oracle(self, monkeypatch,
                                                           policy):
        monkeypatch.setattr(tripsim, "_LEG_SLICE", 64)
        cfg = ScenarioConfig(**{**self.PAIR, "iterations": 10},
                             evolution_policy=policy, cost_stdev_fraction=0.0,
                             rate_stdev_fraction=0.0,
                             handling_stdev_fraction=0.0)
        calls = counted_normals(monkeypatch)
        runs = counted_cost_runs(monkeypatch)
        results = assert_matches_oracle(cfg)
        assert len(runs) >= 3
        # No rate draws, so the block's call is the only one.
        assert calls == [(results.cost.size, 0)]


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
        for name in ("cost", "n_legs", "frac"):
            assert np.array_equal(getattr(serial, name),
                                  getattr(parallel, name))

    def test_strictly_decreasing_trajectories(self):
        cfg = ScenarioConfig(enabled_modes=["ocean", "air"], seed=13,
                             iterations=20, end_year=2030)
        means = replicate_trajectories(cfg, resolve_registry(cfg),
                                       range(cfg.iterations))
        for rep in range(cfg.iterations):
            for i in range(len(cfg.enabled_modes)):
                path = means[rep, :, i].tolist()
                assert all(b < a for a, b in zip(path, path[1:]))

    def test_zero_rate_stdev_matches_compound_decay(self):
        cfg = ScenarioConfig(enabled_modes=["ocean"], seed=3, iterations=3,
                             end_year=2030, rate_stdev_fraction=0.0)
        for trajectory in replicate_trajectories(cfg, resolve_registry(cfg),
                                                 range(cfg.iterations)):
            for t, means in enumerate(trajectory):
                expected = 0.0196 * (1 - 0.021) ** t
                assert means[0] == pytest.approx(expected, rel=1e-12)


class TestEvolutionPolicies:
    def test_shared_policy_aligns_replicates(self):
        cfg = ScenarioConfig(enabled_modes=["ocean", "rail"], seed=19,
                             iterations=6, end_year=2025,
                             evolution_policy="shared")
        means = replicate_trajectories(cfg, resolve_registry(cfg),
                                       range(cfg.iterations))
        for year in range(cfg.start_year, cfg.end_year + 1):
            per_rep = [means[rep, year - cfg.start_year].tolist()
                       for rep in range(cfg.iterations)]
            assert all(m == per_rep[0] for m in per_rep)

    def test_shared_mode_means_are_one_read_only_trajectory(self):
        cfg = ScenarioConfig(enabled_modes=["ocean", "rail"], seed=19,
                             iterations=3, end_year=2022,
                             evolution_policy="shared")
        means = replicate_trajectories(cfg, resolve_registry(cfg),
                                       range(cfg.iterations))
        assert means.shape == (3, 5, 2)
        assert means.strides[0] == 0
        with pytest.raises(ValueError):
            means[0, 0, 0] = 1.0

    def test_shared_means_are_reused_verbatim(self):
        cfg = ScenarioConfig(enabled_modes=["ocean"], seed=19, iterations=2,
                             end_year=2022, evolution_policy="shared")
        reg = resolve_registry(cfg)
        shared = compute_shared_means(cfg, reg)
        assert shared.tolist() == oracle.trajectory(
            cfg, list(reg), lambda year: ("scenario", year, "shared-rates"))
        for means in replicate_trajectories(cfg, reg, range(cfg.iterations)):
            assert means.tolist() == shared.tolist()

    def test_per_replicate_variance_grows(self):
        cfg = ScenarioConfig(enabled_modes=["ocean"], seed=23, iterations=200,
                             end_year=2040)
        means = replicate_trajectories(cfg, resolve_registry(cfg),
                                       range(cfg.iterations))
        variances = []
        for year in range(cfg.start_year, cfg.end_year + 1):
            vals = means[:, year - cfg.start_year, 0].tolist()
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
        means = replicate_trajectories(cfg, resolve_registry(cfg), range(1))
        assert means[0, 0, 0] == pytest.approx(
            1.766 * 0.945 ** 2, rel=1e-12)

    def test_future_base_year_rejected(self):
        cfg = ScenarioConfig(
            enabled_modes=["new"], seed=1, iterations=1, end_year=2018,
            modes=[{"id": "new", "base_cost_mean": 1.0, "base_year": 2030,
                    "improvement_rate_mean": 0.01}])
        with pytest.raises(ValueError):
            run_scenario(cfg)


def seeded_texts(monkeypatch):
    """The path texts of each block ``evolution`` seeds, recorded as a run
    seeds them."""
    blocks = []

    def recorded(texts, seed=evolution.seed_lanes):
        blocks.append(list(texts))
        return seed(blocks[-1])

    monkeypatch.setattr(evolution, "seed_lanes", recorded)
    return blocks


class TestBatchedStreamsMatchOneByOne:
    @pytest.mark.parametrize("policy", ["per-replicate", "shared"])
    def test_path_texts_are_the_label_paths(self, monkeypatch, policy):
        # One group: its rate paths (the shared trajectory's, shared) as one
        # block, then its trip paths, replicate by replicate.
        cfg = ScenarioConfig(enabled_modes=["ocean"], seed=-12, iterations=3,
                             end_year=2021, evolution_policy=policy)
        blocks = seeded_texts(monkeypatch)
        run_scenario(cfg)
        steps = range(cfg.start_year, cfg.end_year)
        years = range(cfg.start_year, cfg.end_year + 1)
        reps = range(cfg.iterations)
        if policy == "shared":
            rates = [("scenario", year, "shared-rates") for year in steps]
        else:
            rates = [("scenario", year, rep, "rates")
                     for rep in reps for year in steps]
        trips = [("scenario", year, rep, "trip")
                 for rep in reps for year in years]
        assert blocks == [[_path_text(cfg.seed, p) for p in paths]
                          for paths in (rates, trips)]

    # 12 rate steps and 13 trips per replicate: 630 replicates a group, so
    # two groups per-replicate and three shared, scaled with the block width
    # from 2,500 paths per-replicate and 2,612 shared per 1,024 paths.
    @pytest.mark.parametrize("policy,iterations",
                             [("per-replicate", 100), ("shared", 200)])
    def test_chunk_edges_inside_replicates(self, policy, iterations):
        cfg = ScenarioConfig(enabled_modes=["ocean", "rail", "air"], seed=29,
                             iterations=iterations * _CHUNK // 1024,
                             end_year=2030, evolution_policy=policy)
        assert cfg.iterations > _CHUNK // 13
        assert_matches_oracle(cfg)


# Three modes: a rate mean near 1 with a wide spread (rate redraws), a fixed
# cost and a rate of 0, and a cost that draws; 12 rate steps and 13 trips per
# replicate.
_WIDTH_MODES = [
    {"id": "m0", "base_cost_mean": 0.02, "base_year": 2018,
     "improvement_rate_mean": 0.95, "rate_stdev_fraction": 5.0},
    {"id": "m1", "base_cost_mean": 0.05, "base_year": 2018,
     "improvement_rate_mean": 0.0, "cost_stdev_fraction": 0.0},
    {"id": "m2", "base_cost_mean": 0.03, "base_year": 2018,
     "improvement_rate_mean": 0.02}]


def path_count(cfg):
    """The label paths a run of ``cfg`` seeds: its rate steps and trips."""
    years = cfg.end_year - cfg.start_year + 1
    rates = years - 1 if cfg.evolution_policy == "shared" else (
        cfg.iterations * (years - 1))
    return rates + cfg.iterations * years


class TestBlockWidth:
    # 360 replicates: 9,000 paths per-replicate; 700: 9,112 shared.  Both
    # run in two or three replicate groups at 4,096 paths and dozens at 128.
    @pytest.mark.parametrize("policy,iterations",
                             [("per-replicate", 360), ("shared", 700)])
    def test_block_width_does_not_change_results(self, monkeypatch, policy,
                                                 iterations):
        cfg = ScenarioConfig(
            enabled_modes=["m0", "m1", "m2"], modes=_WIDTH_MODES, seed=41,
            iterations=iterations, end_year=2030, min_leg_km=1000.0,
            evolution_policy=policy)
        widths = [128, 1024, 4096]
        assert path_count(cfg) > 2 * max(widths)
        names = ("cost", "n_legs", "frac")
        runs = []
        for width in widths:
            monkeypatch.setattr(stochastics, "_CHUNK", width)
            results = run_scenario(cfg)
            runs.append([getattr(results, name).tobytes() for name in names])
        for width, run in zip(widths[1:], runs[1:]):
            for name, want, got in zip(names, runs[0], run):
                assert got == want, (name, width)


class TestReplicateGroups:
    """``run_scenario`` runs its replicates in ``ceil(reps / (_CHUNK //
    years))`` balanced groups, one trip block each, and costs each group's
    trips against its own trajectories."""

    # Four years, so groups of at most 16 replicates at a width of 64
    # paths: one replicate below, at and above a group's size, three groups
    # of 11, a width below a replicate's 4 trip paths (and its 3 rate
    # steps), and a single-year run, which has no rate paths.
    CASES = [(64, 2021, 15, 1), (64, 2021, 16, 1), (64, 2021, 17, 2),
             (64, 2021, 33, 3), (3, 2021, 5, 5), (64, 2018, 70, 2)]

    @pytest.mark.parametrize("policy", ["per-replicate", "shared"])
    @pytest.mark.parametrize("width,end_year,iterations,groups", CASES)
    def test_groups_match_the_oracle(self, monkeypatch, policy, width,
                                     end_year, iterations, groups):
        monkeypatch.setattr(stochastics, "_CHUNK", width)
        cfg = ScenarioConfig(
            enabled_modes=["m0", "m1", "m2"], modes=_WIDTH_MODES, seed=43,
            iterations=iterations, end_year=end_year, min_leg_km=1000.0,
            evolution_policy=policy)
        years = end_year - cfg.start_year + 1
        sizes = []
        real = evolution.run_replicate

        def counted(config, table, handling, lanes, rows):
            sizes.append(len(lanes))
            return real(config, table, handling, lanes, rows)

        monkeypatch.setattr(evolution, "run_replicate", counted)
        assert_matches_oracle(cfg)
        edges = [iterations * i // groups for i in range(groups + 1)]
        assert sizes == [years * (b - a) for a, b in zip(edges, edges[1:])]

    @pytest.mark.parametrize("policy", ["per-replicate", "shared"])
    def test_any_replicates_give_their_trajectories(self, policy):
        cfg = ScenarioConfig(
            enabled_modes=["m0", "m1", "m2"], modes=_WIDTH_MODES, seed=43,
            iterations=9, end_year=2021, evolution_policy=policy)
        reg = resolve_registry(cfg)
        want = oracle.run(cfg)[3]
        for reps in (range(9), range(4, 9), range(3, 4), range(0)):
            got = replicate_trajectories(cfg, reg, reps)
            assert got.shape == (len(reps), 4, 3)
            assert got.tobytes() == want[reps.start:reps.stop].tobytes()


class TestPeakMemory:
    # Scenario 1's ten modes at 2,000 per-replicate replicates: a trip table
    # of 6.3 MB.  Its peak measured 9.7 MB (3.4 MB over the table) with one
    # group's trajectories held at a time, and 13.8 MB (7.5 MB over) when
    # every replicate's trajectory (5.3 MB) was held for the whole run.
    MARGIN = 5.4e6

    def test_peak_is_the_trip_table_and_one_group(self):
        cfg = ScenarioConfig(
            enabled_modes=["air", "ocean", "truck", "rail", "iwt",
                           "auto_air", "auto_ocean", "auto_truck",
                           "auto_rail", "auto_iwt"],
            seed=2018, iterations=2000, start_year=2018, end_year=2050)
        tracemalloc.start()
        try:
            results = run_scenario(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = sum(getattr(results, name).nbytes
                    for name in ("cost", "n_legs", "frac"))
        assert peak < table + self.MARGIN, (peak, table)
