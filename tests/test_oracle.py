"""``run_scenario`` against the plain scalar engine in ``oracle.py``, bit for
bit, on generated configs."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from conftest import CountingMath
from freightsim import tripsim
from freightsim.config import ScenarioConfig
from freightsim.evolution import _scenario_paths, run_scenario
from freightsim.stochastics import _CHUNK

# Rate means from 0 to near 1, spreads from none to wide: 0.95 with a
# fraction of 5 redraws about one rate in six.
RATES = [0.0, 0.02, 0.3, 0.95, 0.999]
RATE_FRACTIONS = [0.0, 0.5, 5.0]
COST_FRACTIONS = [0.0, 0.25, 1.5]


@st.composite
def modes(draw):
    """One to four inline modes."""
    n = draw(st.integers(1, 4))
    return [{"id": f"m{i}", "base_year": 2018,
             "base_cost_mean": draw(st.floats(1e-3, 10.0)),
             "improvement_rate_mean": draw(st.sampled_from(RATES)),
             "rate_stdev_fraction": draw(st.sampled_from(RATE_FRACTIONS)),
             "cost_stdev_fraction": draw(st.sampled_from(COST_FRACTIONS))}
            for i in range(n)]


@st.composite
def configs(draw):
    """Small configs of either policy.  Most are a few replicates; some run
    past the first seeding chunk of label paths."""
    specs = draw(modes())
    years = draw(st.integers(0, 4))
    iterations = draw(st.one_of(st.integers(1, 4), st.integers(200, 260)))
    return ScenarioConfig(
        enabled_modes=[m["id"] for m in specs], modes=specs,
        seed=draw(st.integers(0, 2**32 - 1)), iterations=iterations,
        start_year=2018, end_year=2018 + years,
        evolution_policy=draw(st.sampled_from(["per-replicate", "shared"])),
        trip_distance_km=draw(st.sampled_from([0.5, 150.0, 10_000.0])),
        min_leg_km=draw(st.one_of(st.sampled_from([1.0, 100.0, 5_000.0]),
                                    st.floats(1.0, 5_000.0))),
        handling_stdev_fraction=draw(st.sampled_from([0.0, 0.25])))


def assert_matches_oracle(cfg):
    results = run_scenario(cfg)
    names = ("cost", "n_legs", "frac", "mode_means")
    for name, want in zip(names, oracle.run(cfg)):
        got = getattr(results, name)
        assert got.shape == want.shape, name
        assert got.tobytes() == want.astype(got.dtype).tobytes(), name


EDGE = ScenarioConfig(
    enabled_modes=["m0", "m1"], seed=5, iterations=300, start_year=2018,
    end_year=2021, min_leg_km=100.0, handling_stdev_fraction=0.0,
    modes=[{"id": "m0", "base_cost_mean": 0.02, "base_year": 2018,
            "improvement_rate_mean": 0.95, "rate_stdev_fraction": 5.0},
           {"id": "m1", "base_cost_mean": 0.05, "base_year": 2018,
            "improvement_rate_mean": 0.0, "cost_stdev_fraction": 0.0}])


class TestRunScenarioMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(cfg=configs())
    @example(cfg=EDGE)
    def test_bit_for_bit(self, cfg):
        assert_matches_oracle(cfg)

    # EDGE's 300 replicates, scaled with the block width: 7 paths a
    # replicate per-replicate and 4 shared, so more than one block either way.
    @pytest.mark.parametrize("policy", ["per-replicate", "shared"])
    def test_runs_across_the_chunk_edge(self, policy):
        cfg = ScenarioConfig(**{**vars(EDGE), "evolution_policy": policy,
                                "iterations": 300 * _CHUNK // 1024})
        assert sum(1 for _ in _scenario_paths(cfg)) > _CHUNK
        assert_matches_oracle(cfg)

    # Cost runs a few legs long, so most of their edges fall inside a trip,
    # some inside a block's last trip; leg sums over groups of a few trips.
    @pytest.mark.parametrize("policy", ["per-replicate", "shared"])
    @pytest.mark.parametrize("size", [1, 4, 7])
    def test_cost_runs_cut_inside_trips(self, monkeypatch, policy, size):
        monkeypatch.setattr(tripsim, "_LEG_SLICE", size)
        monkeypatch.setattr(tripsim, "_SUM_TRIPS", size)
        cfg = ScenarioConfig(**{**vars(EDGE), "evolution_policy": policy,
                                "iterations": 40})
        assert (run_scenario(cfg).n_legs > size).any()
        assert_matches_oracle(cfg)

    # Legs from 1 km in 1e15 km trips: about 33 legs a trip, whose
    # exponents span about 48 bits, too wide for the exact split of the
    # legs' sums, which then take math.fsum.
    @pytest.mark.parametrize("policy", ["per-replicate", "shared"])
    def test_wide_trips_sum_by_fsum(self, monkeypatch, policy):
        shim = CountingMath()
        monkeypatch.setattr(tripsim, "math", shim)
        cfg = ScenarioConfig(**{**vars(EDGE), "evolution_policy": policy,
                                "iterations": 3, "trip_distance_km": 1e15,
                                "min_leg_km": 1.0})
        assert run_scenario(cfg).n_legs.mean() > 25
        assert shim.calls["fsum"] > 0
        assert_matches_oracle(cfg)

    def test_short_trips_are_one_leg(self):
        cfg = ScenarioConfig(**{**vars(EDGE), "iterations": 3,
                                "trip_distance_km": 50.0})
        assert (run_scenario(cfg).n_legs == 1).all()
        assert_matches_oracle(cfg)
