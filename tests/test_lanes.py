"""Lane draws against numpy's ``Generator`` on random states: the committed
ziggurat tables, normals on the fast path and off it, uniforms and
Lemire indices."""

import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from freightsim import _ziggurat
from freightsim.config import ScenarioConfig, resolve_registry
from freightsim.evolution import replicate_trajectories, run_scenario
from freightsim.lanes import _SLICE, Lanes, _jump, _lcg
from freightsim.stochastics import _CHUNK

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
            lanes_drawn = np.flatnonzero(chosen[:len(states)])
            sel = lanes_drawn
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


# The flat normals: jump-ahead, slices, the slow path on the lanes, and the
# tables it reads.

MASK64 = 2**64 - 1


def output_after(state, inc=1):
    """PCG64's next 64-bit output from ``state``, and the state it leaves."""
    state = (state * MULT + inc) & MASK128
    hi, lo = state >> 64, state & MASK64
    x, rot = hi ^ lo, hi >> 58
    return (x >> rot | x << (64 - rot)) & MASK64, state


def random_states(n, seed):
    """n lane states drawn from a seeded generator."""
    gen = np.random.default_rng(seed)
    return [(int.from_bytes(gen.bytes(16), "big"),
             int.from_bytes(gen.bytes(16), "big") | 1,
             int(gen.integers(2)), int(gen.integers(2**32)))
            for _ in range(n)]


def assert_normals_match(states, counts):
    lanes = lanes_of(states)
    got = lanes.normals(counts)
    want = []
    for i, (s, n) in enumerate(zip(states, counts)):
        z, after = numpy_normal(*s, size=n)
        want.extend(z.tolist())
        assert lanes.bit_generator_state(i) == after
    assert got.tolist() == want


def tail_rejection():
    """A state whose first normal takes the tail of layer 0 and rejects
    its first tail try (yy + yy <= xx * xx), so it draws a second."""
    for rabs in range((1 << 52) - 1, int(_ziggurat.KI[0]), -(1 << 32)):
        state = forced(0, rabs)
        _, after = numpy_normal(state)
        three_steps = state
        for _ in range(3):
            _, three_steps = output_after(three_steps)
        if after["state"]["state"] != three_steps:
            return state
    raise AssertionError("no tail rejection found")


def wedge_rejection_into_tail():
    """A state whose first normal fails the ``fi`` test of layer 200 and
    whose fresh output then lands in layer 0 off the fast path."""
    for rabs in range((1 << 52) - 1, int(_ziggurat.KI[200]), -(1 << 24)):
        state = forced(200, rabs)
        _, s = output_after(state)
        _, s = output_after(s)
        fresh, _ = output_after(s)
        if fresh & 0xFF or fresh >> 9 & ((1 << 52) - 1) < _ziggurat.KI[0]:
            continue
        _, after = numpy_normal(state)
        if after["state"]["state"] != s:
            return state
    raise AssertionError("no wedge rejection into the tail found")


class TestFlatNormals:
    def test_no_lane_is_handed_to_numpy(self):
        assert_normals_match(FORCED, [3, 2, 4])
        assert_normals_match([(fi_rejection(), 1, 0, 0)], [2])
        # A scenario 1 run of 32 replicates per 1,024 paths of block width:
        # two replicate groups of 128, each a rate block of 4,096 steps of
        # all ten modes and a trip block of 4,224 trips.
        cfg = ScenarioConfig(
            enabled_modes=["air", "ocean", "truck", "rail", "iwt", "auto_air",
                           "auto_ocean", "auto_truck", "auto_rail",
                           "auto_iwt"],
            seed=2018, iterations=32 * _CHUNK // 1024, start_year=2018,
            end_year=2050)
        results = run_scenario(cfg)
        means = replicate_trajectories(cfg, resolve_registry(cfg),
                                       range(cfg.iterations))
        for name, want in zip(("cost", "n_legs", "frac", "mode_means"),
                              oracle.run(cfg)):
            got = means if name == "mode_means" else getattr(results, name)
            assert np.array_equal(got, want), name

    def test_tail_rejection_draws_a_second_try(self):
        state = tail_rejection()
        assert_normals_match([(state, 1, 0, 0), *random_states(2, 1)],
                             [3, 2, 1])

    def test_wedge_rejection_redraws_into_the_tail(self):
        state = wedge_rejection_into_tail()
        assert_normals_match([(state, 1, 1, 7), *random_states(2, 2)],
                             [1, 4, 2])
        assert_normals_match([(state, 1, 0, 0)], [3])

    @pytest.mark.parametrize("counts", [
        [0, 5000, 0, 3],
        [_SLICE - 1, 2, 1],
        [_SLICE, _SLICE + 1, 0],
        [1] * (_SLICE + 5),
    ])
    def test_counts_across_the_slice_edge(self, counts):
        assert_normals_match(random_states(len(counts), len(counts)), counts)

    # 81,920 normals in one call: each slice's work arrays hold about
    # _SLICE outputs, a peak of 815 KiB past the output at 4,096 outputs a
    # slice (numpy 2.4, x86-64).  One slice of the whole call works in
    # arrays of every output, about 12 MiB.
    PEAK_BOUND = 1024 * 1024

    def test_a_wide_call_works_in_slices(self):
        words = np.random.default_rng(7).integers(
            0, 2**64, size=(8192, 4), dtype=np.uint64)
        lanes = Lanes.from_seed_words(words)
        counts = np.full(8192, 10)
        # The jump table, grown past 10 rows.
        Lanes.from_seed_words(words[:1]).normals(counts[:1])
        tracemalloc.start()
        try:
            out = lanes.normals(counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.size == counts.sum()
        assert peak - out.nbytes <= self.PEAK_BOUND

    def test_jump_is_k_lcg_steps(self):
        ks = [0, 1, 2, 63, 64, 65, 2049]
        states = random_states(len(ks), 3)
        words = np.array([[s >> 64, s & MASK64, i >> 64, i & MASK64]
                          for s, i, _, _ in states], dtype=np.uint64).T
        hi, lo = _jump(*words, np.array(ks))
        for j, k in enumerate(ks):
            step_hi, step_lo = words[0, j:j + 1], words[1, j:j + 1]
            for _ in range(k):
                step_hi, step_lo = _lcg(step_hi, step_lo, words[2, j:j + 1],
                                        words[3, j:j + 1])
            assert (hi[j], lo[j]) == (step_hi[0], step_lo[0]), k


def archive_members(path):
    """The members of a GNU ``ar`` archive, by name."""
    data = path.read_bytes()
    assert data[:8] == b"!<arch>\n"
    members, names, at = {}, b"", 8
    while at < len(data):
        header = data[at:at + 60]
        name, size = header[:16].decode().rstrip(), int(header[48:58])
        body = data[at + 60:at + 60 + size]
        if name == "//":
            names = body
        elif name[:1] == "/" and name[1:].isdigit():
            start = int(name[1:])
            name = names[start:names.index(b"/\n", start)].decode()
        members[name.rstrip("/")] = body
        at += 60 + size + size % 2
    return members


def elf_symbols(obj, wanted):
    """The bytes of the named symbols of a little-endian ELF64 object."""
    assert obj[:4] == b"\x7fELF" and obj[4] == 2 and obj[5] == 1
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shnum, = struct.unpack_from("<H", obj, 0x3C)
    sections = [struct.unpack_from("<IIQQQQIIQQ", obj, shoff + 64 * i)
                for i in range(shnum)]
    symtab = next(s for s in sections if s[1] == 2)  # SHT_SYMTAB
    strtab = sections[symtab[6]][4]
    found = {}
    for at in range(symtab[4], symtab[4] + symtab[5], 24):
        name_at, _, _, shndx, value, size = struct.unpack_from("<IBBHQQ",
                                                               obj, at)
        name = obj[strtab + name_at:obj.index(b"\0", strtab + name_at)]
        if name.decode() in wanted:
            start = sections[shndx][4] + value
            found[name.decode()] = obj[start:start + size]
    return found


def test_committed_tables_are_numpys_fi_wi_ki():
    archive = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
    if not archive.exists():
        pytest.skip("numpy ships no libnpyrandom.a here")
    obj = archive_members(archive)["src_distributions_distributions.c.o"]
    tables = elf_symbols(obj, {"fi_double", "wi_double", "ki_double"})
    assert tables["fi_double"] == _ziggurat.FI.tobytes()
    assert tables["wi_double"] == _ziggurat.WI.tobytes()
    assert tables["ki_double"] == _ziggurat.KI.tobytes()
