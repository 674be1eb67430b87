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
        cost, n_legs, fractions = simulate_trip(
            10_000.0, 50_000.0, [0.0196], [0.0], self.HANDLING_EXACT,
            FullLegStream(integers=[0]))
        assert cost == pytest.approx(10_029_500.0, rel=1e-12)
        assert n_legs == 1
        assert fractions == [1.0]

    def test_two_leg_trace(self):
        stream = StubStream(uniforms=[4000.0, 6000.0], integers=[0, 1])
        cost, _, fractions = simulate_trip(
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
            cost, _, mode_fractions = simulate_trip(
                10_000.0, 50_000.0, means, fractions, handling, stream)
            assert math.fsum(mode_fractions) == pytest.approx(1.0, abs=1e-9)
            assert cost > 0

    def test_handling_charged_once_per_leg(self):
        # zero operational cost isolates the per-leg handling term
        stream = StubStream(uniforms=[4000.0, 3000.0, 3000.0],
                            integers=[0, 0, 0])
        cost, n_legs, _ = simulate_trip(
            10_000.0, 50_000.0, [1e-300], [0.0], self.HANDLING_EXACT, stream)
        assert n_legs == 3
        assert cost == pytest.approx(3 * 50_000.0 * 4.59, rel=1e-9)

    def test_deterministic_given_zero_stdevs(self):
        means = [0.0196, 0.046]
        fractions = [0.0, 0.0]
        costs = set()
        for _ in range(2):
            stream = derive_stream(9, ["det"])
            cost, _, _ = simulate_trip(10_000.0, 50_000.0, means, fractions,
                                       self.HANDLING_EXACT, stream)
            costs.add(cost)
        assert len(costs) == 1

    def test_raising_a_mode_mean_never_cheapens_the_plan(self):
        # same stream -> same plan and same z-draws; only the mean rises
        fractions = [0.25, 0.25]
        handling = lognormal_from_moments(4.59, 0.25 * 4.59)
        for seed in range(50):
            base, _, _ = simulate_trip(
                10_000.0, 50_000.0, [0.0196, 0.046], fractions, handling,
                derive_stream(seed, ["mono"]))
            bumped, _, _ = simulate_trip(
                10_000.0, 50_000.0, [0.0392, 0.046], fractions, handling,
                derive_stream(seed, ["mono"]))
            assert bumped >= base

    def test_parameter_cache_is_filled_and_reused(self):
        means, fractions = [0.0196, 0.046, 0.03], [0.25, 0.25, 0.25]
        handling = lognormal_from_moments(4.59, 0.25 * 4.59)
        cache = [None] * 3
        for seed in range(20):
            fresh = simulate_trip(10_000.0, 50_000.0, means, fractions,
                                  handling, derive_stream(seed, ["cache"]))
            cached = simulate_trip(10_000.0, 50_000.0, means, fractions,
                                   handling, derive_stream(seed, ["cache"]),
                                   op_params=cache)
            assert cached == fresh
        assert cache == [lognormal_from_moments(m, f * m)
                         for m, f in zip(means, fractions)]
        # A filled slot is used as it stands.
        cache[:] = [lognormal_from_moments(1.0, 0.0)] * 3
        cost, n_legs, _ = simulate_trip(
            10_000.0, 50_000.0, means, [0.0] * 3, self.HANDLING_EXACT,
            derive_stream(0, ["cache"]), op_params=cache)
        assert cost == pytest.approx(n_legs * 50_000.0 * 4.59
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
        cost, _, _ = simulate_trip(10_000.0, 50_000.0, self.MEANS,
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
        cost, _, _ = simulate_trip(10_000.0, 50_000.0, self.MEANS,
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
        simulate_trip(10_000.0, 50_000.0, self.MEANS, [0.0, 0.0],
                      TestSimulateTrip.HANDLING_EXACT, stream)
        assert stream.normal_sizes == []
