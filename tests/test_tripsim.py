import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freightsim import stochastics
from freightsim.config import ConfigError, ScenarioConfig
from freightsim.evolution import run_scenario
from freightsim.stochastics import (LogNormalParams, _path_text,
                                    derive_stream, lognormal_from_moments,
                                    lognormal_ratios, seed_lanes)
from freightsim import tripsim
from freightsim.tripsim import (CostTable, TripDraws, assign_modes,
                                cost_trips, generate_leg_distances, leg_cost,
                                simulate_trip)

import oracle
from conftest import (CountingMath, FullLegStream, MidpointStream,
                      StubStream)


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


def one_lane(seed, labels):
    """The lane of one label path: the draws of ``derive_stream``'s."""
    return seed_lanes([_path_text(seed, labels)])


def draw_and_cost(trips, lanes, table, handling_params, weight, rows):
    """Cost the trips ``simulate_trip`` drew from ``lanes`` as
    ``run_replicate`` does: their cost normals, drawn from the lanes in one
    call, then ``cost_trips`` of all of them."""
    z = lanes.normals(trips.op_draws + trips.n_legs * handling_params.draws)
    return cost_trips(trips, table, handling_params, weight, rows, z)


def simulate_and_cost(trip_distance, weight, mode_cost_means,
                      cost_stdev_fractions, handling_params, stream,
                      min_leg=100.0):
    """Draw one trip with ``simulate_trip`` and cost it with ``cost_trips``:
    its cost, leg count and per-mode distance fractions."""
    table = CostTable(np.array([mode_cost_means], dtype=float),
                      np.array(cost_stdev_fractions, dtype=float))
    trip = simulate_trip(trip_distance, table.drawn, stream,
                         min_leg=min_leg)
    cost, n_legs, fractions = draw_and_cost(trip, stream, table,
                                            handling_params, weight,
                                            np.zeros(1, dtype=np.intp))
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
            stream = one_lane(seed, ["fractions"])
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
            stream = one_lane(9, ["det"])
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
                one_lane(seed, ["mono"]))
            bumped, _, _ = simulate_and_cost(
                10_000.0, 50_000.0, [0.0392, 0.046], fractions, handling,
                one_lane(seed, ["mono"]))
            assert bumped >= base

    def test_parameter_table_is_lognormal_from_moments_per_year_and_mode(
            self):
        means = np.array([[0.0196, 0.046, 0.03], [0.018, 0.045, 0.0291]])
        fractions = np.array([0.25, 0.0, 0.5])
        table = CostTable(means, fractions)
        mu, sigma, exp_mu = (x.reshape(means.shape)
                             for x in table.at(np.arange(means.size)))
        for t, row in enumerate(means.tolist()):
            for m, mean in enumerate(row):
                p = lognormal_from_moments(mean, fractions[m] * mean)
                assert (mu[t, m], sigma[t, m]) == (p.mu, p.sigma)
                if p.sigma == 0.0:
                    assert exp_mu[t, m] == math.exp(p.mu)
        # A table is used as it stands: exp(0) = 1 per tonne-km.
        ones = CostTable(np.ones((1, 3)), np.zeros(3))
        stream = one_lane(0, ["cache"])
        trip = simulate_trip(10_000.0, ones.drawn, stream)
        cost, n_legs, _ = draw_and_cost(trip, stream, ones,
                                        self.HANDLING_EXACT, 50_000.0,
                                        np.zeros(1, dtype=np.intp))
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


@st.composite
def flagged_blocks(draw):
    """A block of 1-6 trips over 1-4 modes, from 0.5 km (one leg at a 1 km
    minimum) to 10^12 km (about 28 legs), and each trip's flags of which
    modes' operational costs draw, not all one row where there are two
    trips or more."""
    n_trips = draw(st.integers(1, 6))
    n_modes = draw(st.integers(1, 4))
    distances = draw(st.lists(st.floats(-0.3, 12.0).map(lambda e: 10.0 ** e),
                              min_size=n_trips, max_size=n_trips))
    flags = draw(st.lists(st.tuples(*[st.booleans()] * n_modes),
                          min_size=n_trips, max_size=n_trips).filter(
        lambda rows: len(rows) == 1 or len(set(rows)) > 1))
    return distances, np.array(flags, dtype=bool)


class TestModeRoundsCountDraws:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), block=flagged_blocks())
    # One mode: every leg of the 10^12 km trip draws.
    @example(seed=3, block=([1e12], np.array([[True]])))
    # Rows that differ: a count read from the first trip's row is wrong.
    @example(seed=5, block=([1e12, 1e12],
                            np.array([[True, False], [False, True]])))
    def test_each_trip_counts_the_flags_of_its_modes(self, seed, block):
        distances, flags = block

        def draw(drawn):
            lanes = seed_lanes(_path_text(seed, ["flags", t])
                               for t in range(len(distances)))
            return simulate_trip(np.array(distances), drawn, lanes,
                                 min_leg=1.0)

        trips, every = draw(flags), draw(np.ones_like(flags))
        modes = np.split(trips.modes, np.cumsum(trips.n_legs)[:-1])
        assert trips.op_draws.tolist() == [
            int(flags[i, m].sum()) for i, m in enumerate(modes)]
        # The flags move no draw.
        assert trips.n_legs.tolist() == every.n_legs.tolist()
        assert trips.distances.tolist() == every.distances.tolist()
        assert trips.modes.tolist() == every.modes.tolist()
        assert every.op_draws.tolist() == every.n_legs.tolist()


class TestLegSumsAfterTheCorrection:
    # The last leg takes up the rounding of the legs' sum: last += D -
    # fsum(legs).  That does not make the legs sum to D.
    LEGS = [94.09234225345777, 5.59040196356456, 1227.1243881562368]
    DISTANCE = 1326.807132373259

    def test_corrected_legs_can_sum_one_ulp_below_the_trip(self):
        table = CostTable(np.array([[0.0196, 0.046, 0.03]]), np.zeros(3))
        stream = StubStream(uniforms=self.LEGS, integers=[0, 1, 2])
        trips = simulate_trip(self.DISTANCE, table.drawn, stream, min_leg=1.0)
        legs = trips.distances.tolist()
        assert legs == [*self.LEGS[:2], 1227.1243881562366]
        span = math.fsum(legs)
        assert span == 1326.8071323732588 == np.nextafter(self.DISTANCE, 0)
        # So the fractions' denominator is the legs' sum, not the trip's
        # distance, which would give other bits.
        _, _, frac = draw_and_cost(trips, stream, table,
                                   TestSimulateTrip.HANDLING_EXACT,
                                   50_000.0, np.zeros(1, dtype=np.intp))
        assert frac[0].tolist() == [d / span for d in legs]
        assert frac[0].tolist() != [d / self.DISTANCE for d in legs]


@st.composite
def trip_lists(draw):
    """1-3 trips of 1-64 positive finite legs, made from a drawn seed: any
    doubles up to 2^1017 by their bits, subnormals among them, or integers
    of 1-53 bits times powers of two in a window of 0-60 bits from any
    exponent, so that sums on a coarse grid fall half-way between two
    doubles and wide windows are too wide for the exact split."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_legs = draw(st.lists(st.integers(1, 64), min_size=1, max_size=3))
    if draw(st.booleans()):
        bits = rng.integers(1, 2040 << 52, sum(n_legs), dtype=np.uint64,
                            endpoint=True)
        legs = bits.view(float)
    else:
        largest = 2 ** draw(st.integers(1, 53))
        low = draw(st.integers(-1074, 1017 - 53 - 60))
        window = draw(st.integers(0, 60))
        legs = np.ldexp(rng.integers(1, largest, sum(n_legs), endpoint=True),
                        low + rng.integers(0, window, sum(n_legs),
                                           endpoint=True))
    return np.split(legs, np.cumsum(n_legs)[:-1])


# Three legs of one binade whose sum lies half-way between two doubles.
TIE = [2.0 ** 53 - 1, 2.0 ** 53 - 1, 2.0 ** 53 - 4]


class TestTripSumsAreFsum:
    def test_each_trip_sums_as_fsum(self, monkeypatch):
        shim = CountingMath()
        monkeypatch.setattr(tripsim, "math", shim)
        reached = set()

        @settings(max_examples=2000, deadline=None)
        @given(trips=trip_lists())
        @example(trips=[np.array(TIE), np.array([5e-324] * 3),
                        np.array([5e-324, 2.0 ** -1022, 1e-310])])
        def check(trips):
            n_legs = np.array([len(t) for t in trips], dtype=np.intp)
            shim.calls.clear()
            sums = tripsim._trip_sums(np.concatenate(trips), n_legs)
            assert [x.hex() for x in sums.tolist()] == [
                math.fsum(t.tolist()).hex() for t in trips]
            fsums = shim.calls["fsum"]
            if fsums:
                reached.add("fallback")
            if fsums < (n_legs > 1).sum():
                reached.add("kernel")

        check()
        assert reached == {"kernel", "fallback"}

    def test_the_tie_is_summed_by_the_kernel(self, monkeypatch):
        shim = CountingMath()
        monkeypatch.setattr(tripsim, "math", shim)
        # Doubles from 2^54 to 2^55 are 4 apart.
        exact = sum(map(int, TIE))
        assert 2 ** 54 <= exact < 2 ** 55 and exact % 4 == 2
        assert tripsim._trip_sums(np.array(TIE), np.array([3])).tolist() == [
            math.fsum(TIE)]
        assert shim.calls["fsum"] == 0

    @pytest.mark.parametrize("workload", [
        dict(enabled_modes=["ocean", "auto_ocean"], min_leg_km=10.0),
        dict(enabled_modes=["air", "ocean", "truck", "rail", "iwt",
                            "auto_air", "auto_ocean", "auto_truck",
                            "auto_rail", "auto_iwt"])])
    def test_benchmark_shaped_runs_call_no_fsum(self, monkeypatch, workload):
        shim = CountingMath()
        monkeypatch.setattr(tripsim, "math", shim)
        cfg = ScenarioConfig(seed=2018, iterations=200, start_year=2018,
                             end_year=2050, **workload)
        assert run_scenario(cfg).n_legs.mean() > 4
        assert shim.calls["fsum"] == 0


@st.composite
def value_groups(draw):
    """1-3 groups of 1-700 doubles, each made from a drawn seed in one of
    three ways: any finite non-negative doubles by their bits, subnormals
    among them; integers of 1-53 bits times powers of two in a window of
    0-60 bits from any exponent, so that sums fall half-way between two
    doubles and wide windows are too wide for the exact split; or doubles
    from 2^1000 up to the largest, so that sums and splits overflow.  Zeros
    are mixed in, and a group may hold a negative or non-finite value."""
    groups = []
    for size in draw(st.lists(st.integers(1, 700), min_size=1, max_size=3)):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        kind = draw(st.sampled_from(["bits", "grid", "huge"]))
        if kind == "bits":
            values = rng.integers(0, 0x7FEF_FFFF_FFFF_FFFF, size,
                                  dtype=np.uint64, endpoint=True).view(float)
        elif kind == "grid":
            largest = 2 ** draw(st.integers(1, 53))
            low = draw(st.integers(-1074, 1023 - 53 - 60))
            window = draw(st.integers(0, 60))
            values = np.ldexp(
                rng.integers(1, largest, size, endpoint=True),
                low + rng.integers(0, window, size, endpoint=True))
        else:
            values = np.ldexp(rng.uniform(0.5, 1.0, size),
                              rng.integers(1001, 1024, size, endpoint=True))
        values[rng.random(size) < draw(st.sampled_from([0.0, 0.2, 0.95]))] = 0
        odd = draw(st.sampled_from([None] * 4 + [-1.0, -0.0, math.inf,
                                                 -math.inf, math.nan]))
        if odd is not None:
            at = rng.integers(size)
            values[at] = -(values[at] or 1.0) if odd == -1.0 else odd
        groups.append(values)
    return groups


def fsum_or_error(values):
    try:
        return math.fsum(values.tolist()).hex()
    except (OverflowError, ValueError) as exc:
        return exc


class TestGroupFsums:
    def test_each_group_sums_as_fsum(self, monkeypatch):
        shim = CountingMath()
        monkeypatch.setattr(tripsim, "math", shim)
        reached = set()

        def kernel(groups):
            return tripsim.group_fsums(
                np.concatenate(groups),
                np.array([len(g) for g in groups], dtype=np.intp))

        def sums(groups):
            shim.calls.clear()
            got = kernel(groups)
            if shim.calls["fsum"]:
                reached.add("fallback")
            if shim.calls["fsum"] < len(groups):
                reached.add("kernel")
            return [x.hex() for x in got.tolist()]

        @settings(max_examples=400, deadline=None)
        @given(groups=value_groups())
        @example(groups=[np.array(TIE), np.array([0.0]),
                         np.array([0.0, 5e-324, 0.0])])
        # Exponents 52 apart, past 52 - 2t = 48 for two values: split, the
        # p's 2^-51 + 1.5 * 2^-52 - 2^-104 round up to 3.5 * 2^-52, a tie
        # once added to the q's 1, where fsum rounds down to 1 + 3 * 2^-52.
        @example(groups=[np.array([1 + 2.0 ** -51,
                                   1.5 * 2.0 ** -52 - 2.0 ** -104])])
        # 2^(e + t) = 2^1024 for one value from 2^1022.
        @example(groups=[np.array([1.5 * 2.0 ** 1022])])
        def check(groups):
            want = [fsum_or_error(g) for g in groups]
            errors = [w for w in want if isinstance(w, Exception)]
            if errors:
                with pytest.raises(type(errors[0])):
                    kernel(groups)
            summed = [g for g, w in zip(groups, want) if isinstance(w, str)]
            if summed:
                assert sums(summed) == [w for w in want if isinstance(w, str)]

        check()
        assert reached == {"kernel", "fallback"}

    def test_zeros_are_not_the_lowest_exponent(self, monkeypatch):
        shim = CountingMath()
        monkeypatch.setattr(tripsim, "math", shim)
        values = np.array([0.0, 1.0, 0.0, 0.75, 0.0, 0.0])
        sums = tripsim.group_fsums(values, np.array([4, 2]))
        assert sums.tolist() == [1.75, 0.0]
        assert shim.calls["fsum"] == 0

    def test_negative_zeros_take_fsum(self, monkeypatch):
        shim = CountingMath()
        monkeypatch.setattr(tripsim, "math", shim)
        sums = tripsim.group_fsums(np.array([-0.0, -0.0]), np.array([2]))
        assert sums[0].hex() == math.fsum([-0.0, -0.0]).hex()
        assert shim.calls["fsum"] == 1


class ThirtyFivePercentStream(StubStream):
    """Each leg is 35 % of the way from the minimum to the remaining
    distance."""

    def uniform(self, low, high):
        return low + (high - low) * 0.35


class TestLegRoundingPastTheLastLeg:
    """A trip about 2^52 minimum legs long or longer: the rounding of its
    legs' sum, which the last leg takes up, can leave that leg below 0."""

    def test_scalar_legs_raise_a_config_error(self):
        with pytest.raises(ConfigError, match="trip_distance_km.*min_leg_km"):
            generate_leg_distances(1e18, 100.0, ThirtyFivePercentStream())
        legs = generate_leg_distances(1e17, 100.0, ThirtyFivePercentStream())
        assert min(legs) > 0

    def test_block_legs_raise_a_config_error(self):
        with pytest.raises(ConfigError, match="trip_distance_km.*min_leg_km"):
            simulate_trip(1e18, np.ones((1, 1), dtype=bool),
                          ThirtyFivePercentStream())

    def test_run_raises_a_config_error(self):
        cfg = ScenarioConfig(enabled_modes=["ocean"], iterations=50,
                             end_year=2019, trip_distance_km=1e20,
                             min_leg_km=100)
        with pytest.raises(ConfigError, match="trip_distance_km.*min_leg_km"):
            run_scenario(cfg)


class TestCostRuns:
    @staticmethod
    def cuts(n_legs):
        n_legs = np.array(n_legs, dtype=np.intp)
        return TripDraws(n_legs, None, None, None).cuts()

    # Leg 4 is the second leg of the last trip, which starts no run.
    def test_a_run_edge_inside_the_last_trip_adds_no_run(self, monkeypatch):
        monkeypatch.setattr(tripsim, "_LEG_SLICE", 4)
        assert self.cuts([3, 3]) == [0, 2]
        assert self.cuts([3, 3, 1]) == [0, 2, 3]
        assert self.cuts([9]) == [0, 1]

    @settings(max_examples=300, deadline=None)
    @given(n_legs=st.lists(st.integers(1, 12), min_size=1, max_size=30),
           size=st.integers(1, 20))
    def test_a_trip_is_in_the_run_of_its_first_leg(self, n_legs, size):
        firsts = np.cumsum(n_legs) - n_legs
        run = (firsts // size).tolist()
        want = [i for i in range(len(run)) if i == 0 or run[i] != run[i - 1]]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tripsim, "_LEG_SLICE", size)
            assert self.cuts(n_legs) == [*want, len(n_legs)]


def check_columnar_costing(seed, trip_distances, means, fractions,
                           handling_fraction, weight):
    """Draw and cost one trip per row of ``means`` both ways, assert the
    two agree bit for bit, and return the trips' leg counts."""
    handling = lognormal_from_moments(4.59, handling_fraction * 4.59)
    table = CostTable(np.array(means), np.array(fractions))
    lanes = seed_lanes(_path_text(seed, ["oracle", t])
                       for t in range(len(trip_distances)))
    trips = simulate_trip(np.array(trip_distances), table.drawn, lanes,
                          min_leg=1.0)
    cost, n_legs, frac = draw_and_cost(trips, lanes, table, handling, weight,
                                       np.arange(len(trip_distances)))
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

    # Every leg draws a handling normal, the one-leg first trip's too.  Of
    # three trips, the last reads its normals after the second's, which a
    # second lane that drew the first trip's count as well would shift.
    def test_examples_draw_handling_from_the_first_leg(self):
        n_legs = check_columnar_costing(
            3, [0.5, 0.5, 1e12], [[0.0196, 0.046]] * 3, [0.25, 0.25], 0.25,
            50_000.0)
        assert n_legs[0] == 1 and n_legs[-1] > 10


# Means whose math.log differs from numpy's in the last bit, on an x86-64
# build of numpy 2.4 with AVX-512.
LOG_SENSITIVE_MEANS = [0.9962625036100411, 1.0399585869502883,
                       0.997283163217933, 0.16465840517487387,
                       1.2822808941705544, 0.9864620082412674]


class TestCostTable:
    def test_entries_are_the_scalar_math(self):
        means = np.array(LOG_SENSITIVE_MEANS).reshape(2, 3)
        fractions = np.array([0.0, 0.25, 0.3])
        table = CostTable(means, fractions)
        mu, sigma, _ = table.at(np.arange(means.size))
        for (t, m), mean in np.ndenumerate(means):
            want = LogNormalParams(*oracle.lognormal(mean,
                                                     fractions[m] * mean))
            cell = t * means.shape[1] + m
            assert (mu[cell], sigma[cell]) == (want.mu, want.sigma)
            assert lognormal_from_moments(mean, fractions[m] * mean) == want

    def test_an_unused_entry_that_cannot_be_matched_is_rejected(self):
        means = np.array([[0.0196, 0.046], [0.018, 1e-200]])
        with pytest.raises(ValueError, match="underflows"):
            CostTable(means, np.array([0.25, 0.25]))


@st.composite
def mean_tables(draw):
    """A table of 1-5 rows over 1-4 modes whose means repeat (each is one
    of at most six values, tiny ones among them) and whose stdev fractions
    include 0 and one whose stdev squared underflows at the tiny means,
    then 1-4 lists of cells to ask for, with repeats."""
    n_rows, n_modes = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    pool = draw(st.lists(st.one_of(
        st.floats(1e-3, 1e3), st.sampled_from([5e-160, 1e-154, 1.0])),
        min_size=1, max_size=6))
    means = draw(st.lists(st.sampled_from(pool), min_size=n_rows * n_modes,
                          max_size=n_rows * n_modes))
    fractions = draw(st.lists(st.sampled_from([0.0, 1e-5, 0.25, 0.3, 1.5]),
                              min_size=n_modes, max_size=n_modes))
    calls = draw(st.lists(st.lists(st.integers(0, n_rows * n_modes - 1),
                                   max_size=8), min_size=1, max_size=4))
    return (np.array(means).reshape(n_rows, n_modes), np.array(fractions),
            calls)


class TestCostTableCostsUsedCells:
    @settings(max_examples=200, deadline=None)
    @given(table=mean_tables())
    def test_any_cells_in_any_order_are_lognormal_from_moments(self, table):
        means, fractions, calls = table
        n_modes = means.shape[1]
        want = [lognormal_from_moments(m, fractions[i % n_modes] * m)
                for i, m in enumerate(means.ravel().tolist())]
        table = CostTable(means, fractions)
        for cells in calls:
            mu, sigma, exp_mu = table.at(np.array(cells, dtype=np.intp))
            for i, c in enumerate(cells):
                p = want[c]
                assert (mu[i].hex(), sigma[i].hex()) == (p.mu.hex(),
                                                         p.sigma.hex())
                assert exp_mu[i] == (math.exp(p.mu) if p.sigma == 0.0
                                     else 0.0)

    def test_a_cell_is_costed_once(self, monkeypatch):
        means = np.array([[0.0196, 0.046, 0.03], [0.018, 0.045, 0.0291]])
        table = CostTable(means, np.array([0.25, 0.0, 0.25]))
        shim = CountingMath()
        monkeypatch.setattr(stochastics, "math", shim)
        cells = np.array([0, 4, 5, 4, 0])
        first = table.at(cells)
        # One log per distinct cell; one log1p per distinct ratio.
        assert shim.calls["log"] == 3
        assert shim.calls["log1p"] <= 3
        calls = shim.calls.copy()
        shim.calls.clear()
        # A table keeps nothing: a second call costs its cells again.
        again = table.at(cells)
        assert shim.calls == calls
        assert all(map(np.array_equal, first, again))

    # The last 50 rows of a 100,000-row table: the window starts at the
    # lowest cell asked for, so ``at`` works in arrays of the 150 cells'
    # span.  A window from cell 0 works in arrays of the whole table's
    # 300,000 cells, a peak of about 5 MB.
    PEAK_BOUND = 48 * 1024

    def test_a_late_window_takes_the_memory_of_its_span(self):
        means = np.linspace(0.01, 2.0, 300_000).reshape(100_000, 3)
        table = CostTable(means, np.array([0.25, 0.0, 0.3]))
        cells = np.arange(299_850, 300_000)[::-1].copy()
        tracemalloc.start()
        try:
            mu, _, _ = table.at(cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_BOUND
        want = lognormal_from_moments(means[-1, 2], 0.3 * means[-1, 2])
        assert mu[0] == want.mu

    # The two 1,000-entry tables differ only in their entries; the ratio
    # f**2 * m**2 / m**2 of each mode takes a handful of values.
    def test_log1p_once_per_distinct_ratio(self, monkeypatch):
        means = np.linspace(0.01, 2.0, 1000).reshape(500, 2)
        fractions = np.array([0.25, 0.3])
        table = CostTable(means, fractions)
        distinct = np.unique(lognormal_ratios(means, fractions * means)).size
        shim = CountingMath()
        monkeypatch.setattr(stochastics, "math", shim)
        table.at(np.arange(means.size))
        assert shim.calls["log"] == 1000
        assert shim.calls["log1p"] == distinct < 20

    @pytest.mark.parametrize("bad,fraction", [
        (float("nan"), 0.25), (0.0, 0.25), (-1.0, 0.0), (1.0, -0.5),
        (1e-200, 0.25), (1e308, 0.25), (1e-160, 1e160)])
    def test_a_bad_cell_no_leg_uses_is_rejected(self, bad, fraction):
        means = np.array([[0.0196, bad], [0.018, 0.046]])
        with pytest.raises(ValueError) as expected:
            lognormal_from_moments(bad, fraction * bad)
        with pytest.raises(ValueError, match=re.escape(
                str(expected.value))):
            CostTable(means, np.array([0.25, fraction]))
