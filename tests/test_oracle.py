"""``run_scenario`` against the plain scalar engine in ``oracle.py``, bit for
bit, on generated configs, and ``summarize`` against its one-year-at-a-time
form there."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from conftest import CountingMath
from freightsim import analysis, stochastics, tripsim
from freightsim.config import ScenarioConfig, resolve_registry
from freightsim.evolution import (ResultSet, replicate_trajectories,
                                  run_scenario)
from freightsim.stochastics import _CHUNK
from test_io import FALLBACK_CONFIGS

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
    """Small configs of either policy: most of a few replicates, some of
    200-260.  At the default widths even the larger ones are one replicate
    group and one cost run; ``test_bit_for_bit`` runs them at small
    widths (``widths``), where they cross group and cost-run edges."""
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
    """``run_scenario``'s trip table, and the trajectories its trips were
    costed with, bit for bit the oracle's; returns the run's results."""
    results = run_scenario(cfg)
    names = ("cost", "n_legs", "frac", "mode_means")
    means = replicate_trajectories(cfg, results.registry,
                                   range(cfg.iterations))
    for name, want in zip(names, oracle.run(cfg)):
        got = means if name == "mode_means" else getattr(results, name)
        assert got.shape == want.shape, name
        assert got.tobytes() == want.astype(got.dtype).tobytes(), name
    return results


@st.composite
def widths(draw):
    """A block width (``stochastics._CHUNK``, trip paths per replicate
    group) and a width of the runs trips are costed and summed in
    (``tripsim._LEG_SLICE``, legs), small enough that a config of a few
    hundred replicates crosses the edges of each, and large enough that it
    runs in a few hundred calls."""
    return draw(st.integers(64, 1024)), draw(st.integers(32, 1024))


EDGE = ScenarioConfig(
    enabled_modes=["m0", "m1"], seed=5, iterations=300, start_year=2018,
    end_year=2021, min_leg_km=100.0, handling_stdev_fraction=0.0,
    modes=[{"id": "m0", "base_cost_mean": 0.02, "base_year": 2018,
            "improvement_rate_mean": 0.95, "rate_stdev_fraction": 5.0},
           {"id": "m1", "base_cost_mean": 0.05, "base_year": 2018,
            "improvement_rate_mean": 0.0, "cost_stdev_fraction": 0.0}])


class TestRunScenarioMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(cfg=configs(), widths=widths())
    @example(cfg=EDGE, widths=(stochastics._CHUNK, tripsim._LEG_SLICE))
    @example(cfg=EDGE, widths=(64, 32))
    def test_bit_for_bit(self, cfg, widths):
        chunk, leg_slice = widths
        with mock.patch.object(stochastics, "_CHUNK", chunk), \
                mock.patch.object(tripsim, "_LEG_SLICE", leg_slice):
            assert_matches_oracle(cfg)

    # EDGE's 300 replicates, scaled with the block width: 4 trip paths a
    # replicate, so more than one replicate group either way.
    @pytest.mark.parametrize("policy", ["per-replicate", "shared"])
    def test_runs_across_the_chunk_edge(self, policy):
        cfg = ScenarioConfig(**{**vars(EDGE), "evolution_policy": policy,
                                "iterations": 300 * _CHUNK // 1024})
        years = cfg.end_year - cfg.start_year + 1
        assert cfg.iterations * years > _CHUNK
        assert_matches_oracle(cfg)

    # Cost and leg-sum runs a few legs long, so most of their edges fall
    # inside a trip, some inside a block's last trip.
    @pytest.mark.parametrize("policy", ["per-replicate", "shared"])
    @pytest.mark.parametrize("size", [1, 4, 7])
    def test_cost_runs_cut_inside_trips(self, monkeypatch, policy, size):
        monkeypatch.setattr(tripsim, "_LEG_SLICE", size)
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


def tiny_spread_config(kind, fraction, policy):
    """Three modes whose every cost, rate and handling spread is wide,
    but for one: the ``kind`` spread of m0 (or the handling spread) is
    ``fraction``.  m0 comes first in registry order and every leg's
    handling cost follows its operational cost, so whether that one cell
    draws a normal moves the normals drawn after it."""
    specs = [{"id": f"m{i}", "base_year": 2018, "base_cost_mean": mean,
              "improvement_rate_mean": 0.02, "rate_stdev_fraction": 0.5,
              "cost_stdev_fraction": 0.25}
             for i, mean in enumerate([0.0196, 0.046, 0.03])]
    if kind != "handling":
        specs[0][f"{kind}_stdev_fraction"] = fraction
    return ScenarioConfig(
        enabled_modes=["m0", "m1", "m2"], modes=specs, seed=23,
        iterations=12, start_year=2018, end_year=2021,
        evolution_policy=policy, min_leg_km=1_000.0,
        handling_stdev_fraction=fraction if kind == "handling" else 0.25)


class TestTinySpreadsMatchOracle:
    """A spread of 1e-160 of the mean squares to a subnormal ratio, so its
    sigma is not 0 and the cell draws a normal (which leaves its value at
    exp(mu)); one of 1e-162 squares to a ratio of 0 and draws nothing.
    The engine must draw exactly where the oracle does."""

    @pytest.mark.parametrize("policy", ["per-replicate", "shared"])
    @pytest.mark.parametrize("fraction", [1e-160, 1e-162])
    @pytest.mark.parametrize("kind", ["cost", "rate", "handling"])
    def test_the_cell_draws_where_the_oracle_does(self, kind, fraction,
                                                  policy):
        cfg = tiny_spread_config(kind, fraction, policy)
        spec = resolve_registry(cfg).get("m0")
        mean, stdev = {
            "cost": (spec.base_cost_mean,
                     spec.cost_stdev_fraction * spec.base_cost_mean),
            "rate": (spec.improvement_rate_mean,
                     spec.rate_stdev_fraction * spec.improvement_rate_mean),
            "handling": (cfg.handling_mean_usd_per_tonne,
                         cfg.handling_stdev_fraction
                         * cfg.handling_mean_usd_per_tonne)}[kind]
        assert (oracle.lognormal(mean, stdev)[1] != 0.0) == (fraction
                                                             == 1e-160)
        assert_matches_oracle(cfg)


def assert_same_summaries(got, want):
    """Every field of every summary equal, floats bit for bit (so a NaN
    matches a NaN and -0.0 does not match 0.0)."""
    def bits(value):
        if isinstance(value, dict):
            return {k: v.hex() for k, v in value.items()}
        return value.hex() if isinstance(value, float) else value
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in dataclasses.fields(b):
            assert bits(getattr(a, f.name)) == bits(getattr(b, f.name)), f.name


# The CI's config whose trips are too wide for the exact leg-sum kernel.
WIDE_LEGS = dict(enabled_modes=["ocean", "auto_ocean"], seed=15,
                 iterations=20, end_year=2020, trip_distance_km=1e15,
                 min_leg_km=1)


class TestSummarizeMatchesOracle:
    """``summarize`` takes runs of whole years through one sort and one
    ``group_fsums`` call each; where the runs are cut changes no field,
    and no call takes more values than the bound unless a year does."""

    @staticmethod
    def check(results, bound, monkeypatch):
        years, trips, modes = results.frac.shape
        year = trips * (modes + 1)
        size = {"value": 1, "year": year, "table": years * year,
                "default": analysis._SUMMARY_RUN}[bound]
        monkeypatch.setattr(analysis, "_SUMMARY_RUN", size)
        calls = []

        def recorded(x, n, kernel=tripsim.group_fsums):
            calls.append(len(x))
            return kernel(x, n)
        monkeypatch.setattr(analysis, "group_fsums", recorded)
        assert_same_summaries(analysis.summarize(results),
                              oracle.summarize(results))
        assert sum(calls) == years * year
        assert all(c <= size or c == year for c in calls)
        if bound == "table":
            assert calls == [years * year]

    @settings(max_examples=25, deadline=None)
    @given(cfg=configs(),
           bound=st.sampled_from(["value", "year", "table", "default"]))
    @example(cfg=EDGE, bound="default")
    def test_generated_configs(self, cfg, bound):
        with pytest.MonkeyPatch.context() as patch:
            self.check(run_scenario(cfg), bound, patch)

    @pytest.mark.parametrize("bound", ["value", "year", "table", "default"])
    @pytest.mark.parametrize("name", [*sorted(FALLBACK_CONFIGS),
                                      "wide-legs"])
    def test_fallback_configs(self, name, bound, monkeypatch):
        cfg = {**FALLBACK_CONFIGS, "wide-legs": WIDE_LEGS}[name]
        self.check(run_scenario(ScenarioConfig(**cfg)), bound, monkeypatch)


ODD_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 1e308, -1e308, 5e-324]))


@st.composite
def hand_built_results(draw):
    """A trip table of 1-3 years of 1-12 trips of 1-3 modes, whose costs
    and fractions are any doubles: negative, NaN and infinite ones too."""
    years = draw(st.integers(1, 3))
    trips = draw(st.integers(1, 12))
    cfg = ScenarioConfig(enabled_modes=["ocean", "rail", "air"][
        :draw(st.integers(1, 3))], iterations=trips, end_year=2017 + years)
    modes = len(cfg.enabled_modes)
    cost = draw(st.lists(ODD_VALUES, min_size=years * trips,
                         max_size=years * trips))
    frac = draw(st.lists(st.one_of(ODD_VALUES, st.floats(0.0, 1.0)),
                         min_size=years * trips * modes,
                         max_size=years * trips * modes))
    return ResultSet(config=cfg, registry=resolve_registry(cfg),
                     cost=np.array(cost).reshape(years, trips),
                     n_legs=np.ones((years, trips), dtype=np.int64),
                     frac=np.array(frac).reshape(years, trips, modes))


def holds_inf_and_minus_inf(values, axis):
    return (np.isposinf(values).any(axis) & np.isneginf(values).any(axis)).any()


class TestSummarizeHandBuiltResults:
    @settings(max_examples=120, deadline=None)
    @given(results=hand_built_results(),
           bound=st.sampled_from(["value", "year", "default"]))
    def test_same_summaries_or_error(self, results, bound):
        if (holds_inf_and_minus_inf(results.cost, 1)
                or holds_inf_and_minus_inf(results.frac, 1)):
            with pytest.raises(ValueError, match="inf"):
                analysis.summarize(results)
            return
        try:
            oracle.summarize(results)
        except OverflowError:
            # A sum past the largest double: summarize scales it instead.
            for s in analysis.summarize(results):
                if np.isfinite([s.min, s.max]).all():
                    assert s.min <= s.mean <= s.max
            return
        with pytest.MonkeyPatch.context() as patch:
            TestSummarizeMatchesOracle.check(results, bound, patch)
