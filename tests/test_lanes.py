"""Lane draws against numpy's ``Generator`` on random states: the committed
ziggurat tables, normals on the fast path and off it, uniforms and
Lemire indices."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from freightsim import _ziggurat
from freightsim.lanes import Lanes, padded

MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK128 = (1 << 128) - 1
MULT_INV = pow(MULT, -1, 1 << 128)


def state_before(word, inc=1):
    """The PCG64 state whose next output is the 64-bit ``word``: the step
    lands on high word 0 and low word ``word``, which XSL-RR outputs as
    it is."""
    return ((word - inc) * MULT_INV) & MASK128


def generator_of(state, inc=1, has_uint32=0, uinteger=0):
    """numpy's ``Generator`` in a PCG64 state."""
    bits = np.random.PCG64(0)
    bits.state = {"bit_generator": "PCG64",
                  "state": {"state": state, "inc": inc},
                  "has_uint32": has_uint32, "uinteger": uinteger}
    return np.random.Generator(bits)


def numpy_normal(state, inc=1, has_uint32=0, uinteger=0, size=None):
    """``Generator.normal(size=size)`` from a PCG64 state, and the state
    after it."""
    gen = generator_of(state, inc, has_uint32, uinteger)
    return gen.normal(size=size), gen.bit_generator.state


def probe_tables():
    """Read numpy's ``wi`` and ``ki`` back from ``standard_normal``.

    A word of layer i, sign 0 and ``rabs`` 1 gives ``wi[i]`` itself.  A
    draw on the fast path takes exactly one step, so ``ki[i]``, the first
    ``rabs`` off it, is found by bisection.  Layer 1 has no fast path; its
    ``rabs`` 1 passes the ``fi`` test, which returns the same ``x``.
    """
    wi, ki = [], []
    for layer in range(256):
        z, _ = numpy_normal(state_before(1 << 9 | layer))
        wi.append(abs(z))
        lo, hi = 0, 1 << 52
        while lo < hi:
            mid = (lo + hi) // 2
            word = mid << 9 | layer
            _, after = numpy_normal(state_before(word))
            if after["state"]["state"] == word:
                lo = mid + 1
            else:
                hi = mid
        ki.append(lo)
    return wi, ki


def test_committed_tables_are_numpys():
    wi, ki = probe_tables()
    assert _ziggurat.WI.tolist() == wi
    assert _ziggurat.KI.tolist() == ki
    assert [layer for layer, k in enumerate(ki) if k == 0] == [1]


def lanes_of(states):
    """A ``Lanes`` in the given (state, inc, has_uint32, uinteger) states."""
    state, inc, has_uint32, uinteger = (list(c) for c in zip(*states))
    words = np.array([[s >> 64, s & (2**64 - 1), i >> 64, i & (2**64 - 1)]
                      for s, i in zip(state, inc)], dtype=np.uint64)
    return Lanes(*words.T.copy(), np.array(has_uint32, dtype=bool),
                 np.array(uinteger, dtype=np.uint64))


def forced(layer, rabs, sign=0):
    """The state, inc 1, whose next normal reads layer, sign and rabs."""
    return state_before(rabs << 9 | sign << 8 | layer)


def fi_rejection():
    """A state whose first normal fails the ``fi`` test of layer 200 and
    draws again: it takes more than the two steps of a decided draw."""
    for rabs in range((1 << 52) - 1, 0, -(1 << 40)):
        state = forced(200, rabs)
        _, after = numpy_normal(state)
        two_steps = (((rabs << 9 | 200) * MULT + 1) & MASK128)
        if rabs >= _ziggurat.KI[200] and after["state"]["state"] != two_steps:
            return state
    raise AssertionError("no fi rejection found")


lane_states = st.tuples(
    st.integers(0, 2**128 - 1),
    st.integers(0, 2**127 - 1).map(lambda i: 2 * i + 1),
    st.integers(0, 1), st.integers(0, 2**32 - 1))

FORCED = [
    (forced(0, (1 << 52) - 1), 1, 0, 0),    # the tail of layer 0
    (forced(1, 12345, sign=1), 1, 0, 0),    # layer 1: KI is 0
    (forced(7, 1), 1, 1, 0xDEADBEEF),       # fast path, buffered uint32
]


class TestLaneNormalsMatchGenerator:
    @settings(max_examples=200, deadline=None)
    @given(states=st.lists(lane_states, min_size=1, max_size=12),
           counts=st.lists(st.integers(0, 6), min_size=12, max_size=12))
    @example(states=FORCED, counts=[3, 2, 4])
    @example(states=[(fi_rejection(), 1, 0, 0)], counts=[2])
    def test_values_and_final_states(self, states, counts):
        counts = counts[:len(states)]
        lanes = lanes_of(states)
        got = lanes.normals(counts).tolist()
        want = []
        for i, ((state, inc, has_uint32, uinteger), n) in enumerate(
                zip(states, counts)):
            z, after = numpy_normal(state, inc, has_uint32, uinteger, size=n)
            want.extend(z.tolist())
            assert lanes.bit_generator_state(i) == after
        assert got == want


# n = 2**31 + 1 rejects about half of the 32-bit draws; 2**32 takes them
# whole.
LANE_NS = [2, 3, 10, 2**31 + 1, 2**32]


class TestLaneUniformsAndIndicesMatchGenerator:
    @settings(max_examples=200, deadline=None)
    @given(states=st.lists(lane_states, min_size=1, max_size=12),
           rounds=st.lists(st.tuples(st.sampled_from(["uniform", "index"]),
                                     st.sampled_from(LANE_NS),
                                     st.lists(st.booleans(), min_size=12,
                                              max_size=12)),
                           max_size=8))
    def test_values_and_final_states(self, states, rounds):
        lanes = lanes_of(states)
        gens = [generator_of(*s) for s in states]
        for kind, n, chosen in rounds:
            # A padded set repeats lanes; each lane still draws once.
            lanes_drawn = np.flatnonzero(chosen[:len(states)])
            sel = padded(lanes_drawn)
            if kind == "uniform":
                high = 1.0 + sel * 1e8
                got = lanes.uniforms(sel, 0.5, high).tolist()
                want = {i: gens[i].uniform(0.5, 1.0 + i * 1e8)
                        for i in lanes_drawn.tolist()}
            else:
                got = lanes.indices(sel, n).tolist()
                want = {i: int(gens[i].integers(n))
                        for i in lanes_drawn.tolist()}
            assert got == [want[i] for i in sel.tolist()]
        for i, gen in enumerate(gens):
            assert lanes.bit_generator_state(i) == gen.bit_generator.state
