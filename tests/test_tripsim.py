import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freightsim.stochastics import (LogNormalParams, derive_lanes,
                                    derive_stream, lognormal_from_moments)
from freightsim.tripsim import (CostTable, assign_modes, cost_trips,
                                generate_leg_distances, leg_cost,
                                simulate_trip)

import oracle
from conftest import FullLegStream, MidpointStream, StubStream


class TestGenerateLegDistances:
    def test_trip_equals_minimum(self, midpoint_stream):
        assert generate_leg_distances(100.0, 100.0, midpoint_stream) == [100.0]

    def test_short_remainder_appended_to_last_leg(self, midpoint_stream):
        # first draw is the midpoint 175; the 75 km remainder is below the
        # 100 km minimum, so it folds into the only leg
        assert generate_leg_distances(250.0, 100.0, midpoint_stream) == [250.0]

    def test_midpoint_trace_multiple_legs(self, midpoint_stream):
        legs = generate_leg_distances(1000.0, 100.0, midpoint_stream)
        # draws: 550, then midpoint of [100, 450] = 275, remainder 175,
        # then midpoint of [100, 175] = 137.5, remainder 37.5 folds in
        assert legs == [550.0, 275.0, 175.0]
        assert math.fsum(legs) == 1000.0

    def test_sum_and_minimum_over_many_seeds(self):
        for seed in range(10_000):
            stream = derive_stream(seed, ["legs"])
            legs = generate_leg_distances(10_000.0, 100.0, stream)
            assert math.fsum(legs) == pytest.approx(10_000.0, abs=1e-6)
            assert all(d >= 100.0 for d in legs)

    def test_rejects_nonpositive_inputs(self, midpoint_stream):
        with pytest.raises(ValueError):
            generate_leg_distances(0.0, 100.0, midpoint_stream)
        with pytest.raises(ValueError):
            generate_leg_distances(100.0, 0.0, midpoint_stream)


class TestAssignModes:
    def test_singleton_mode(self):
        stream = StubStream(integers=[0] * 5)
        assert assign_modes(5, ["ocean"], stream) == ["ocean"] * 5

    def test_rejects_empty_enabled(self):
        with pytest.raises(ValueError):
            assign_modes(3, [], StubStream())

    def test_uniform_frequencies(self):
        stream = derive_stream(17, ["modes"])
        n = 100_000
        picks = assign_modes(n, ["a", "b"], stream)
        assert picks.count("a") / n == pytest.approx(0.5, abs=0.01)

    def test_golden_assignment(self):
        modes = [f"m{i}" for i in range(10)]
        stream = derive_stream(40, ["golden-assign"])
        assert assign_modes(3, modes, stream) == ["m7", "m1", "m4"]


class TestLegCost:
    def test_ocean_leg(self):
        assert leg_cost(1000.0, 50_000.0, 0.0196, 4.59) == pytest.approx(
            1_209_500.0, rel=1e-12)

    def test_air_leg(self):
        assert leg_cost(100.0, 1.0, 1.669, 4.59) == pytest.approx(
            171.49, rel=1e-12)

    def test_zero_costs(self):
        assert leg_cost(123.0, 456.0, 0.0, 0.0) == 0.0

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            leg_cost(-1.0, 1.0, 1.0, 1.0)

    def test_arrays_cost_each_leg_as_a_scalar_call(self):
        distances, op_costs = [1000.0, 100.0, 123.0], [0.0196, 1.669, 0.0]
        costs = leg_cost(np.array(distances), 50_000.0, np.array(op_costs),
                         4.59)
        assert costs.tolist() == [leg_cost(d, 50_000.0, op, 4.59)
                                  for d, op in zip(distances, op_costs)]
        with pytest.raises(ValueError):
            leg_cost(np.array(distances), 1.0, np.array([1.0, -1e-9, 1.0]),
                     4.59)


def simulate_and_cost(trip_distance, weight, mode_cost_means,
                      cost_stdev_fractions, handling_params, stream,
                      min_leg=100.0):
    """Draw one trip with ``simulate_trip`` and cost it with ``cost_trips``:
    its cost, leg count and per-mode distance fractions."""
    table = CostTable.from_means(np.array([mode_cost_means], dtype=float),
                                 np.array(cost_stdev_fractions, dtype=float))
    trip = simulate_trip(trip_distance, table.drawn[0],
                         handling_params.sigma != 0.0, stream, min_leg=min_leg)
    cost, n_legs, fractions = cost_trips(trip, table, handling_params,
                                         weight)
    return float(cost[0]), int(n_legs[0]), fractions[0].tolist()


class TestSimulateTrip:
    HANDLING_EXACT = lognormal_from_moments(4.59, 0.0)

    def test_single_leg_degenerate(self):
        cost, n_legs, fractions = simulate_and_cost(
            10_000.0, 50_000.0, [0.0196], [0.0], self.HANDLING_EXACT,
            FullLegStream(integers=[0]))
        assert cost == pytest.approx(10_029_500.0, rel=1e-12)
        assert n_legs == 1
        assert fractions == [1.0]

    def test_two_leg_trace(self):
        stream = StubStream(uniforms=[4000.0, 6000.0], integers=[0, 1])
        cost, _, fractions = simulate_and_cost(
            10_000.0, 50_000.0, [0.0196, 0.046], [0.0, 0.0],
            self.HANDLING_EXACT, stream)
        assert cost == pytest.approx(18_179_000.0, rel=1e-12)
        assert fractions[0] == pytest.approx(0.4)
        assert fractions[1] == pytest.approx(0.6)

    def test_fractions_sum_to_one(self):
        means = [0.0196, 0.046, 0.227]
        fractions = [0.25] * len(means)
        handling = lognormal_from_moments(4.59, 0.25 * 4.59)
        for seed in range(200):
            stream = derive_stream(seed, ["fractions"])
            cost, _, mode_fractions = simulate_and_cost(
                10_000.0, 50_000.0, means, fractions, handling, stream)
            assert math.fsum(mode_fractions) == pytest.approx(1.0, abs=1e-9)
            assert cost > 0

    def test_handling_charged_once_per_leg(self):
        # zero operational cost isolates the per-leg handling term
        stream = StubStream(uniforms=[4000.0, 3000.0, 3000.0],
                            integers=[0, 0, 0])
        cost, n_legs, _ = simulate_and_cost(
            10_000.0, 50_000.0, [1e-300], [0.0], self.HANDLING_EXACT, stream)
        assert n_legs == 3
        assert cost == pytest.approx(3 * 50_000.0 * 4.59, rel=1e-9)

    def test_deterministic_given_zero_stdevs(self):
        means = [0.0196, 0.046]
        fractions = [0.0, 0.0]
        costs = set()
        for _ in range(2):
            stream = derive_stream(9, ["det"])
            cost, _, _ = simulate_and_cost(10_000.0, 50_000.0, means,
                                           fractions, self.HANDLING_EXACT,
                                           stream)
            costs.add(cost)
        assert len(costs) == 1

    def test_raising_a_mode_mean_never_cheapens_the_plan(self):
        # same stream -> same plan and same z-draws; only the mean rises
        fractions = [0.25, 0.25]
        handling = lognormal_from_moments(4.59, 0.25 * 4.59)
        for seed in range(50):
            base, _, _ = simulate_and_cost(
                10_000.0, 50_000.0, [0.0196, 0.046], fractions, handling,
                derive_stream(seed, ["mono"]))
            bumped, _, _ = simulate_and_cost(
                10_000.0, 50_000.0, [0.0392, 0.046], fractions, handling,
                derive_stream(seed, ["mono"]))
            assert bumped >= base

    def test_parameter_table_is_lognormal_from_moments_per_year_and_mode(
            self):
        means = np.array([[0.0196, 0.046, 0.03], [0.018, 0.045, 0.0291]])
        fractions = np.array([0.25, 0.0, 0.5])
        table = CostTable.from_means(means, fractions)
        for t, row in enumerate(means.tolist()):
            for m, mean in enumerate(row):
                p = lognormal_from_moments(mean, fractions[m] * mean)
                assert (table.mu[t, m], table.sigma[t, m]) == (p.mu, p.sigma)
                assert table.drawn[t][m] == (p.sigma != 0.0)
                if p.sigma == 0.0:
                    assert table.exp_mu[t, m] == math.exp(p.mu)
        # A table is used as it stands: exp(0) = 1 per tonne-km.
        ones = CostTable(mu=np.zeros((1, 3)), sigma=np.zeros((1, 3)),
                         exp_mu=np.ones((1, 3)), drawn=[[False] * 3])
        stream = derive_stream(0, ["cache"])
        trip = simulate_trip(10_000.0, ones.drawn[0], False, stream)
        cost, n_legs, _ = cost_trips(trip, ones, self.HANDLING_EXACT,
                                     50_000.0)
        assert cost[0] == pytest.approx(n_legs[0] * 50_000.0 * 4.59
                                        + 10_000.0 * 50_000.0, rel=1e-9)


class RecordingStream(StubStream):
    """Records the size of every normal draw."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.normal_sizes = []

    def normal(self, size=None):
        self.normal_sizes.append(size)
        return super().normal(size)


class TestSimulateTripDrawOrder:
    MEANS = [0.0196, 0.046]  # ocean, rail
    FRACTIONS = [0.25, 0.5]

    def test_normals_pair_with_operational_then_handling_per_leg(self):
        handling = lognormal_from_moments(4.59, 0.25 * 4.59)
        ocean = lognormal_from_moments(0.0196, 0.25 * 0.0196)
        rail = lognormal_from_moments(0.046, 0.5 * 0.046)
        stream = RecordingStream(uniforms=[4000.0, 6000.0], integers=[0, 1],
                                 normals=[0.5, -1.0, 1.5, 0.25])
        cost, _, _ = simulate_and_cost(10_000.0, 50_000.0, self.MEANS,
                                       self.FRACTIONS, handling, stream)
        expected = (
            4000.0 * 50_000.0 * math.exp(ocean.mu + ocean.sigma * 0.5)
            + 50_000.0 * math.exp(handling.mu + handling.sigma * -1.0)
            + 6000.0 * 50_000.0 * math.exp(rail.mu + rail.sigma * 1.5)
            + 50_000.0 * math.exp(handling.mu + handling.sigma * 0.25))
        assert cost == pytest.approx(expected, rel=1e-12)
        assert stream.normal_sizes == [4]

    def test_zero_sigma_slots_draw_nothing(self):
        # Fixed handling: only the two operational costs draw, in leg order.
        rail = lognormal_from_moments(0.046, 0.5 * 0.046)
        stream = RecordingStream(uniforms=[4000.0, 6000.0], integers=[1, 1],
                                 normals=[-0.5, 2.0])
        cost, _, _ = simulate_and_cost(10_000.0, 50_000.0, self.MEANS,
                                       self.FRACTIONS,
                                       TestSimulateTrip.HANDLING_EXACT, stream)
        expected = (
            4000.0 * 50_000.0 * math.exp(rail.mu + rail.sigma * -0.5)
            + 6000.0 * 50_000.0 * math.exp(rail.mu + rail.sigma * 2.0)
            + 2 * 50_000.0 * 4.59)
        assert cost == pytest.approx(expected, rel=1e-12)
        assert stream.normal_sizes == [2]

    def test_all_zero_sigmas_make_no_normal_draw(self):
        stream = RecordingStream(uniforms=[4000.0, 6000.0], integers=[0, 1])
        simulate_and_cost(10_000.0, 50_000.0, self.MEANS, [0.0, 0.0],
                          TestSimulateTrip.HANDLING_EXACT, stream)
        assert stream.normal_sizes == []


def check_columnar_costing(seed, trip_distances, means, fractions,
                           handling_fraction, weight):
    """Draw and cost one trip per row of ``means`` both ways, assert the
    two agree bit for bit, and return the trips' leg counts."""
    handling = lognormal_from_moments(4.59, handling_fraction * 4.59)
    table = CostTable.from_means(np.array(means), np.array(fractions))
    lanes = next(derive_lanes(seed, [["oracle", t]
                                     for t in range(len(trip_distances))]))
    trips = simulate_trip(np.array(trip_distances), table.drawn,
                          handling.sigma != 0.0, lanes, min_leg=1.0)
    cost, n_legs, frac = cost_trips(trips, table, handling, weight)
    for t, (distance, row) in enumerate(zip(trip_distances, means)):
        want = oracle.trip(distance, 1.0, weight, row, fractions,
                           (handling.mu, handling.sigma),
                           derive_stream(seed, ["oracle", t]))
        assert (cost[t].hex(), n_legs[t], frac[t].tolist()) == (
            want[0].hex(), want[1], want[2])
    return n_legs.tolist()


@st.composite
def replicates(draw):
    """A replicate of 1-6 trips over 1-4 modes: trip lengths from 0.5 km
    (one leg at a 1 km minimum) to 10^12 km (about 28 legs), yearly means,
    and zero and non-zero cost and handling spreads."""
    n_trips = draw(st.integers(1, 6))
    n_modes = draw(st.integers(1, 4))
    distances = draw(st.lists(st.floats(-0.3, 12.0).map(lambda e: 10.0 ** e),
                              min_size=n_trips, max_size=n_trips))
    means = draw(st.lists(st.lists(st.floats(1e-3, 10.0), min_size=n_modes,
                                   max_size=n_modes),
                          min_size=n_trips, max_size=n_trips))
    fractions = draw(st.lists(st.sampled_from([0.0, 0.25, 0.3, 1.5]),
                              min_size=n_modes, max_size=n_modes))
    return distances, means, fractions


class TestColumnarCostingMatchesScalarLoop:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), replicate=replicates(),
           handling_fraction=st.sampled_from([0.0, 0.25, 0.7]),
           weight=st.sampled_from([50_000.0, 1.0, 37.3]))
    @example(seed=3, replicate=([0.5, 1e12], [[0.0196, 0.046]] * 2,
                                [0.0, 0.25]),
             handling_fraction=0.25, weight=50_000.0)
    def test_cost_and_fractions_bit_for_bit(self, seed, replicate,
                                            handling_fraction, weight):
        check_columnar_costing(seed, *replicate, handling_fraction, weight)

    def test_examples_cover_one_and_twenty_legs(self):
        n_legs = check_columnar_costing(
            3, [0.5, 1e12], [[0.0196, 0.046]] * 2, [0.0, 0.25], 0.0,
            50_000.0)
        assert n_legs[0] == 1 and n_legs[1] >= 20


# Means whose math.log differs from numpy's in the last bit, on an x86-64
# build of numpy 2.4 with AVX-512.
LOG_SENSITIVE_MEANS = [0.9962625036100411, 1.0399585869502883,
                       0.997283163217933, 0.16465840517487387,
                       1.2822808941705544, 0.9864620082412674]


class TestCostTable:
    def test_entries_are_the_scalar_math(self):
        means = np.array(LOG_SENSITIVE_MEANS).reshape(2, 3)
        fractions = np.array([0.0, 0.25, 0.3])
        table = CostTable.from_means(means, fractions)
        for (t, m), mean in np.ndenumerate(means):
            want = LogNormalParams(*oracle.lognormal(mean,
                                                     fractions[m] * mean))
            assert (table.mu[t, m], table.sigma[t, m]) == (want.mu,
                                                           want.sigma)
            assert lognormal_from_moments(mean, fractions[m] * mean) == want

    def test_an_unused_entry_that_cannot_be_matched_is_rejected(self):
        means = np.array([[0.0196, 0.046], [0.018, 1e-200]])
        with pytest.raises(ValueError, match="underflows"):
            CostTable.from_means(means, np.array([0.25, 0.25]))
