import math

import pytest

from freightsim.stochastics import derive_stream, lognormal_from_moments
from freightsim.tripsim import (assign_modes, generate_leg_distances, leg_cost,
                                simulate_trip)

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


class TestSimulateTrip:
    HANDLING_EXACT = lognormal_from_moments(4.59, 0.0)

    def test_single_leg_degenerate(self):
        rec = simulate_trip(
            10_000.0, 50_000.0, ["ocean"], {"ocean": 0.0196},
            self.HANDLING_EXACT, {"ocean": 0.0}, 2018, 0,
            FullLegStream(integers=[0]))
        assert rec.trip_cost == pytest.approx(10_029_500.0, rel=1e-12)
        assert rec.n_legs == 1
        assert rec.mode_distance_fraction == {"ocean": 1.0}

    def test_two_leg_trace(self):
        stream = StubStream(uniforms=[4000.0, 6000.0], integers=[0, 1])
        rec = simulate_trip(
            10_000.0, 50_000.0, ["ocean", "rail"],
            {"ocean": 0.0196, "rail": 0.046},
            self.HANDLING_EXACT, {"ocean": 0.0, "rail": 0.0}, 2018, 0, stream)
        assert rec.trip_cost == pytest.approx(18_179_000.0, rel=1e-12)
        assert rec.mode_distance_fraction["ocean"] == pytest.approx(0.4)
        assert rec.mode_distance_fraction["rail"] == pytest.approx(0.6)

    def test_fractions_sum_to_one(self):
        means = {"ocean": 0.0196, "rail": 0.046, "truck": 0.227}
        fractions = {m: 0.25 for m in means}
        handling = lognormal_from_moments(4.59, 0.25 * 4.59)
        for seed in range(200):
            stream = derive_stream(seed, ["fractions"])
            rec = simulate_trip(10_000.0, 50_000.0, list(means), means,
                                handling, fractions, 2018, 0, stream)
            assert math.fsum(rec.mode_distance_fraction.values()) == \
                pytest.approx(1.0, abs=1e-9)
            assert rec.trip_cost > 0

    def test_handling_charged_once_per_leg(self):
        # zero operational cost isolates the per-leg handling term
        stream = StubStream(uniforms=[4000.0, 3000.0, 3000.0],
                            integers=[0, 0, 0])
        rec = simulate_trip(
            10_000.0, 50_000.0, ["ocean"], {"ocean": 1e-300},
            self.HANDLING_EXACT, {"ocean": 0.0}, 2018, 0, stream)
        assert rec.n_legs == 3
        assert rec.trip_cost == pytest.approx(3 * 50_000.0 * 4.59, rel=1e-9)

    def test_deterministic_given_zero_stdevs(self):
        means = {"ocean": 0.0196, "rail": 0.046}
        fractions = {"ocean": 0.0, "rail": 0.0}
        costs = set()
        for _ in range(2):
            stream = derive_stream(9, ["det"])
            rec = simulate_trip(10_000.0, 50_000.0, list(means), means,
                                self.HANDLING_EXACT, fractions, 2018, 0, stream)
            costs.add(rec.trip_cost)
        assert len(costs) == 1

    def test_raising_a_mode_mean_never_cheapens_the_plan(self):
        # same stream -> same plan and same z-draws; only the mean rises
        fractions = {"ocean": 0.25, "rail": 0.25}
        handling = lognormal_from_moments(4.59, 0.25 * 4.59)
        for seed in range(50):
            base = simulate_trip(
                10_000.0, 50_000.0, ["ocean", "rail"],
                {"ocean": 0.0196, "rail": 0.046}, handling, fractions,
                2018, 0, derive_stream(seed, ["mono"]))
            bumped = simulate_trip(
                10_000.0, 50_000.0, ["ocean", "rail"],
                {"ocean": 0.0392, "rail": 0.046}, handling, fractions,
                2018, 0, derive_stream(seed, ["mono"]))
            assert bumped.trip_cost >= base.trip_cost


class RecordingStream(StubStream):
    """Records the size of every normal draw."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.normal_sizes = []

    def normal(self, size=None):
        self.normal_sizes.append(size)
        return super().normal(size)


class TestSimulateTripDrawOrder:
    MEANS = {"ocean": 0.0196, "rail": 0.046}
    FRACTIONS = {"ocean": 0.25, "rail": 0.5}

    def test_normals_pair_with_operational_then_handling_per_leg(self):
        handling = lognormal_from_moments(4.59, 0.25 * 4.59)
        ocean = lognormal_from_moments(0.0196, 0.25 * 0.0196)
        rail = lognormal_from_moments(0.046, 0.5 * 0.046)
        stream = RecordingStream(uniforms=[4000.0, 6000.0], integers=[0, 1],
                                 normals=[0.5, -1.0, 1.5, 0.25])
        rec = simulate_trip(10_000.0, 50_000.0, ["ocean", "rail"], self.MEANS,
                            handling, self.FRACTIONS, 2018, 0, stream)
        expected = (
            4000.0 * 50_000.0 * math.exp(ocean.mu + ocean.sigma * 0.5)
            + 50_000.0 * math.exp(handling.mu + handling.sigma * -1.0)
            + 6000.0 * 50_000.0 * math.exp(rail.mu + rail.sigma * 1.5)
            + 50_000.0 * math.exp(handling.mu + handling.sigma * 0.25))
        assert rec.trip_cost == pytest.approx(expected, rel=1e-12)
        assert stream.normal_sizes == [4]

    def test_zero_sigma_slots_draw_nothing(self):
        # Fixed handling: only the two operational costs draw, in leg order.
        rail = lognormal_from_moments(0.046, 0.5 * 0.046)
        stream = RecordingStream(uniforms=[4000.0, 6000.0], integers=[1, 1],
                                 normals=[-0.5, 2.0])
        rec = simulate_trip(10_000.0, 50_000.0, ["ocean", "rail"], self.MEANS,
                            TestSimulateTrip.HANDLING_EXACT, self.FRACTIONS,
                            2018, 0, stream)
        expected = (
            4000.0 * 50_000.0 * math.exp(rail.mu + rail.sigma * -0.5)
            + 6000.0 * 50_000.0 * math.exp(rail.mu + rail.sigma * 2.0)
            + 2 * 50_000.0 * 4.59)
        assert rec.trip_cost == pytest.approx(expected, rel=1e-12)
        assert stream.normal_sizes == [2]

    def test_all_zero_sigmas_make_no_normal_draw(self):
        stream = RecordingStream(uniforms=[4000.0, 6000.0], integers=[0, 1])
        simulate_trip(10_000.0, 50_000.0, ["ocean", "rail"], self.MEANS,
                      TestSimulateTrip.HANDLING_EXACT,
                      {"ocean": 0.0, "rail": 0.0}, 2018, 0, stream)
        assert stream.normal_sizes == []
