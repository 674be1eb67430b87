import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freightsim.lanes import Lanes
from freightsim.stochastics import (LogNormalParams, _path_entropy,
                                    _path_text, _state_words, derive_stream,
                                    lognormal_from_moments, sample_lognormal,
                                    seed_lanes)


class TestMomentMatching:
    def test_mean_two_stdev_two(self):
        # hand oracle: v/m^2 = 1, so sigma^2 = ln 2 and mu = ln(2/sqrt(2))
        p = lognormal_from_moments(2.0, 2.0)
        assert p.mu == pytest.approx(math.log(math.sqrt(2.0)), rel=1e-12)
        assert p.sigma ** 2 == pytest.approx(math.log(2.0), rel=1e-12)

    def test_handling_cost_inputs(self):
        # 4.59 per tonne with stdev 25% of mean
        p = lognormal_from_moments(4.59, 0.25 * 4.59)
        assert p.sigma ** 2 == pytest.approx(math.log(1.0625), rel=1e-12)
        # hand oracle: ln(4.59) - ln(1.0625)/2
        assert p.mu == pytest.approx(1.4935677, abs=1e-6)

    def test_zero_stdev_degenerates(self):
        p = lognormal_from_moments(7.5, 0.0)
        assert p.mu == pytest.approx(math.log(7.5), rel=1e-15)
        assert p.sigma == 0.0

    @pytest.mark.parametrize("mean", [1e-3, 1e-1, 1.0, 10.0, 1e3])
    @pytest.mark.parametrize("ratio", [0.0, 0.25, 0.5, 1.0])
    def test_moment_round_trip_grid(self, mean, ratio):
        stdev = ratio * mean
        p = lognormal_from_moments(mean, stdev)
        back_mean = math.exp(p.mu + p.sigma ** 2 / 2.0)
        back_var = (math.exp(p.sigma ** 2) - 1.0) * math.exp(
            2.0 * p.mu + p.sigma ** 2)
        assert back_mean == pytest.approx(mean, rel=1e-12)
        assert back_var == pytest.approx(stdev ** 2, rel=1e-12, abs=1e-24)

    @given(mean=st.floats(1e-3, 1e3), ratio=st.floats(0.0, 2.0))
    def test_moment_round_trip_property(self, mean, ratio):
        p = lognormal_from_moments(mean, ratio * mean)
        assert math.exp(p.mu + p.sigma ** 2 / 2.0) == pytest.approx(
            mean, rel=1e-11)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            lognormal_from_moments(0.0, 1.0)
        with pytest.raises(ValueError):
            lognormal_from_moments(1.0, -0.1)
        with pytest.raises(ValueError):
            lognormal_from_moments(float("nan"), 1.0)

    def test_rejects_mean_whose_square_underflows(self):
        with pytest.raises(ValueError, match="underflows"):
            lognormal_from_moments(5e-324, 5e-324)
        with pytest.raises(ValueError, match="underflows"):
            lognormal_from_moments(1e-170, 0.25e-170)
        # with no spread the square is never formed
        assert lognormal_from_moments(5e-324, 0.0).mu == math.log(5e-324)

    def test_params_reject_negative_sigma(self):
        with pytest.raises(ValueError):
            LogNormalParams(mu=0.0, sigma=-1.0)


class TestSampling:
    def test_zero_sigma_is_exact(self):
        p = LogNormalParams(mu=1.25, sigma=0.0)
        stream = derive_stream(1, ["x"])
        assert sample_lognormal(p, stream) == math.exp(1.25)

    def test_golden_value(self):
        # frozen once against this implementation's fixed stream
        p = lognormal_from_moments(2.0, 1.0)
        value = sample_lognormal(p, derive_stream(12345, ["golden"]))
        assert value == pytest.approx(1.545286511462459, rel=1e-12)

    def test_large_sample_mean(self):
        p = lognormal_from_moments(2.0, 2.0)
        draws = sample_lognormal(p, derive_stream(7, ["mean-test"]),
                                 size=1_000_000)
        assert np.mean(draws) == pytest.approx(2.0, rel=0.01)

    def test_samples_strictly_positive_and_finite(self):
        p = lognormal_from_moments(0.02, 0.01)
        draws = sample_lognormal(p, derive_stream(3, ["pos"]), size=10_000_000)
        assert np.all(draws > 0)
        assert np.all(np.isfinite(draws))


class TestStreamDerivation:
    def test_same_path_reproduces(self):
        a = derive_stream(99, ["scenario", 2020, 5, "trip"])
        b = derive_stream(99, ["scenario", 2020, 5, "trip"])
        assert [a.uniform(0, 1) for _ in range(100)] == \
               [b.uniform(0, 1) for _ in range(100)]

    def test_distinct_labels_differ(self):
        a = derive_stream(99, [2020, 5])
        b = derive_stream(99, [2020, 6])
        assert [a.uniform(0, 1) for _ in range(10)] != \
               [b.uniform(0, 1) for _ in range(10)]

    def test_distinct_seeds_differ(self):
        a = derive_stream(1, ["x"])
        b = derive_stream(2, ["x"])
        assert a.uniform(0, 1) != b.uniform(0, 1)

    def test_uniformity_chi_square(self):
        stream = derive_stream(2024, ["uniformity"])
        n, bins = 100_000, 100
        counts = np.bincount(
            [int(stream.uniform(0, 1) * bins) for _ in range(n)],
            minlength=bins)
        expected = n / bins
        stat = float(np.sum((counts - expected) ** 2 / expected))
        # chi-square critical value, 99 dof, alpha = 0.001
        assert stat < 148.23

    def test_sibling_streams_uncorrelated(self):
        a = derive_stream(5, ["scenario", 2020, 1, "trip"])
        b = derive_stream(5, ["scenario", 2020, 2, "trip"])
        n = 100_000
        xs = np.array([a.uniform(0, 1) for _ in range(n)])
        ys = np.array([b.uniform(0, 1) for _ in range(n)])
        assert abs(np.corrcoef(xs, ys)[0, 1]) < 0.01

    def test_integers_in_range(self):
        stream = derive_stream(11, ["ints"])
        draws = {stream.integers(4) for _ in range(200)}
        assert draws == {0, 1, 2, 3}


def oracle_words(entropy):
    return np.random.SeedSequence(entropy).generate_state(4, np.uint64).tolist()


def first_draws(gen):
    """The first normal, uniform and integer draws of a Generator."""
    return gen.normal(), gen.uniform(2.0, 5.0), int(gen.integers(1000))


def lane_first_draws(lanes):
    """``first_draws`` of every lane of ``lanes``, in lane order."""
    sel = np.arange(len(lanes))
    normals = lanes.normals(np.ones(len(lanes), dtype=np.intp))
    return list(zip(normals.tolist(), lanes.uniforms(sel, 2.0, 5.0).tolist(),
                    lanes.indices(sel, 1000).tolist()))


def batched_generator(words):
    bits = np.random.PCG64(0)
    bits.state = Lanes.from_seed_words(
        np.array([words])).bit_generator_state(0)
    return np.random.Generator(bits)


def digests(entropies):
    """Each entropy as the 32-byte big-endian digest it is read from."""
    return b"".join(e.to_bytes(32, "big") for e in entropies)


# Entropies below 2**224 have a top 32-bit word of 0; numpy coerces them to
# fewer words, so they must go through SeedSequence itself.
SHORT_ENTROPIES = [0, 1, 2**32 - 1, 2**32, 2**128 + 5, 2**224 - 1]


class TestBatchedSeedingMatchesSeedSequence:
    @settings(max_examples=300, deadline=None)
    @given(entropies=st.lists(st.integers(0, 2**256 - 1), min_size=1,
                              max_size=8))
    def test_state_words_and_first_draws(self, entropies):
        words = _state_words(digests(entropies))
        assert words.tolist() == [oracle_words(e) for e in entropies]
        for e, w in zip(entropies, words):
            gen = batched_generator(w)
            oracle = np.random.default_rng(np.random.SeedSequence(e))
            assert gen.bit_generator.state == oracle.bit_generator.state
            assert first_draws(gen) == first_draws(oracle)

    def test_short_entropies_take_the_fallback(self, monkeypatch):
        full = 2**256 - 1
        expected = [oracle_words(e) for e in [full, *SHORT_ENTROPIES, full]]
        seen = []

        class CountingSeedSequence(np.random.SeedSequence):
            def __init__(self, entropy=None, **kw):
                seen.append(entropy)
                super().__init__(entropy, **kw)

        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        assert _state_words(digests([full, *SHORT_ENTROPIES, full])).tolist() \
            == expected
        assert seen == SHORT_ENTROPIES


class TestDeriveStreams:
    def test_each_stream_draws_as_derive_stream(self):
        # Lane i of the block draws as the generator of path i.
        paths = [("scenario", 2020 + i % 7, i, "trip") for i in range(37)]
        lanes = seed_lanes(_path_text(31, path) for path in paths)
        assert lane_first_draws(lanes) == \
            [first_draws(derive_stream(31, path)) for path in paths]

    def test_entropy_is_the_sha256_of_the_path(self):
        stream = derive_stream(2018, ["scenario", 2030, 4, "rates"])
        oracle = np.random.default_rng(np.random.SeedSequence(
            _path_entropy(2018, ("scenario", 2030, 4, "rates"))))
        assert stream.normal(size=4).tolist() == oracle.normal(size=4).tolist()

    def test_labels_are_hashed_as_their_str(self):
        # A bool label is "True", not the "1" of a %d template.
        assert _path_text(-3, ["x", True, 2.5]) == b"-3\x1fx\x1fTrue\x1f2.5"
        assert first_draws(derive_stream(0, [True])) != \
            first_draws(derive_stream(0, [1]))


# n = 2**31 + 1 rejects about half of the first 32-bit draws; 2**32 takes
# them whole.  ``Lanes.indices`` takes n from 2.
STREAM_NS = [2, 10, 2**31 + 1, 2**32]
_bounds = st.floats(-1e9, 1e9)
# Equal bounds in order, -0.0 before 0.0: numpy refuses a uniform from 0.0
# to -0.0 (high - low is -0.0), as TestStreamMatchesGenerator checks apart.
_ordered = st.tuples(_bounds, _bounds).map(
    lambda b: sorted(b, key=lambda x: (x, math.copysign(1.0, x))))
# Bounds past 2**53 that numpy rounds to doubles before subtracting.
_int_bounds = st.integers(-2**62, 2**62)
STREAM_CALLS = st.one_of(
    st.tuples(st.just("uniform"), _ordered),
    st.tuples(st.just("uniform"),
              st.tuples(_int_bounds, _int_bounds).map(sorted)),
    st.tuples(st.just("uniform"), _bounds.map(lambda x: (x, x))),
    st.tuples(st.just("integers"), st.sampled_from(STREAM_NS).map(
        lambda n: (n,))),
    st.tuples(st.just("normal"), st.sampled_from([None, 1, 5]).map(
        lambda size: (size,))),
)
LABELS = st.lists(st.one_of(st.integers(-10**6, 10**6), st.text(max_size=6)),
                  max_size=4)
_LANE = np.zeros(1, dtype=np.intp)


def stream_and_oracle(seed, labels):
    """The one-lane ``Lanes`` of a label path and the numpy Generator it
    must draw as."""
    oracle = np.random.default_rng(np.random.SeedSequence(
        _path_entropy(seed, tuple(labels))))
    return seed_lanes([_path_text(seed, labels)]), oracle


def draw(gen, method, args):
    """One call on a Generator, or its lane counterpart on a one-lane
    ``Lanes``, as plain Python values.  A normal's one argument is its
    size (the Generator's first is loc); the lane takes a uniform's bounds
    as the doubles numpy rounds them to."""
    if not isinstance(gen, Lanes):
        out = (gen.normal(size=args[0]) if method == "normal"
               else getattr(gen, method)(*args))
        return out.tolist() if isinstance(out, np.ndarray) else out
    if method == "uniform":
        return gen.uniforms(_LANE, *map(float, args))[0].item()
    if method == "integers":
        return gen.indices(_LANE, *args)[0].item()
    size, = args
    out = gen.normals(np.array([1 if size is None else size]))
    return out[0].item() if size is None else out.tolist()


def bit_generator_state(stream):
    """The lane's PCG64 state, in numpy's ``bit_generator.state`` form."""
    return stream.bit_generator_state(0)


class TestStreamMatchesGenerator:
    @settings(max_examples=300, deadline=None)
    @given(labels=LABELS, calls=st.lists(STREAM_CALLS, max_size=40))
    @example(labels=["hand-off"],
             calls=[("integers", (10,)), ("normal", (None,)),
                    ("integers", (10,)), ("integers", (2**31 + 1,)),
                    ("normal", (5,)), ("uniform", (0.0, 1.0))])
    @example(labels=["int-bounds"],
             calls=[("uniform", (1765361027151260729, 3684652229583422894))]
             * 6)
    def test_every_draw_and_the_final_state(self, labels, calls):
        stream, oracle = stream_and_oracle(2018, labels)
        for method, args in calls:
            assert draw(stream, method, args) == draw(oracle, method, args)
        assert bit_generator_state(stream) == oracle.bit_generator.state

    def test_buffered_uint32_crosses_the_numpy_hand_off(self):
        # One 32-bit draw buffers the high half of a 64-bit output; the
        # normal after it must not lose it.
        stream, oracle = stream_and_oracle(7, ["buffer"])
        assert draw(stream, "integers", (10,)) == \
            draw(oracle, "integers", (10,))
        assert oracle.bit_generator.state["has_uint32"] == 1
        calls = [("normal", (None,)), ("integers", (10,)),
                 ("integers", (10,))]
        assert [draw(stream, m, a) for m, a in calls] == \
            [draw(oracle, m, a) for m, a in calls]
        assert bit_generator_state(stream) == oracle.bit_generator.state

    @pytest.mark.parametrize("method,args", [
        ("uniform", (1.0, 0.0)),
        ("uniform", (0.0, -0.0)),
        ("uniform", (-math.inf, math.inf)),
        ("uniform", (0.0, math.nan)),
        ("uniform", (-1e308, 1e308)),
        ("integers", (0,)),
        ("integers", (-3,)),
        ("integers", (2**64,)),
    ])
    def test_errors_are_numpys_and_draw_nothing(self, method, args):
        # derive_stream's generator refuses what numpy refuses, and a
        # refused call leaves its state where the oracle's is.
        stream = derive_stream(3, ["errors"])
        _, oracle = stream_and_oracle(3, ["errors"])
        with pytest.raises(Exception) as expected:
            getattr(oracle, method)(*args)
        with pytest.raises(type(expected.value)):
            getattr(stream, method)(*args)
        assert draw(stream, "uniform", (0.0, 1.0)) == \
            draw(oracle, "uniform", (0.0, 1.0))
        assert stream.bit_generator.state == oracle.bit_generator.state
