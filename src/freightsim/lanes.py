"""PCG64 streams stepped together as numpy uint64 lanes.

A :class:`Lanes` holds many independent streams, each in the state numpy's
``PCG64`` would hold, and takes the k-th draw of any set of them at once,
each lane once, with numpy's own arithmetic.  Normals are drawn flat:
every normal a call needs, from the state jump-ahead gives for its output,
with numpy's whole ziggurat on the lanes.  ``freightsim.stochastics``
seeds the lanes from label paths; the engine draws through them alone.
Ragged work is cut into runs of whole items by one rule, ``cuts``.
"""

from __future__ import annotations

import math

import numpy as np

from ._ziggurat import FI as _FI, KI as _KI, WI as _WI

_MASK32 = 0xFFFFFFFF
_MASK52 = (1 << 52) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# PCG64's 128-bit multiplier.
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_RANGE32 = 1 << 32
# numpy's next_double scale: a 53-bit integer times 2**-53 is in [0, 1).
_TO_UNIT = 1.0 / 9007199254740992.0
# Where the ziggurat's tail starts, and its inverse, as numpy's C source
# writes them.
_TAIL_R = 3.6541528853610087963519472518
_TAIL_INV_R = 0.27366123732975827203338247596
# Outputs per slice of a ``Lanes.normals`` pass, cut at whole lanes: the
# pass's work arrays stay at a few hundred KiB however many normals a call
# takes.
_SLICE = 4096
# What ``Lanes._pass`` returns when no lane stops.
_NO_STOPS = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
             np.empty(0, dtype=np.uint64))


def cuts(sizes: np.ndarray, width: int) -> list[int]:
    """The first item of each run of items taken at once, then the item
    count (``[0]`` for no items): an item whose first unit is unit u of all
    the items' is in run u // ``width``, and a run that no item starts in
    is left out."""
    firsts = np.cumsum(sizes) - sizes
    starts = firsts.searchsorted(np.arange(0, sizes.sum(), width))
    return sorted({*starts.tolist(), len(firsts)})


def _words(value: int) -> tuple[int, int, int, int]:
    """A 128-bit int as ``_mul`` takes a multiplier: its high word, its
    low word and the low word's 32-bit halves."""
    return (value >> 64, value & _MASK64, value & _MASK32,
            value >> 32 & _MASK32)


_MULT_WORDS = _words(_MULT)


def _mul(a, b_hi: np.ndarray, b_lo: np.ndarray
         ) -> tuple[np.ndarray, np.ndarray]:
    """``a * b mod 2**128`` on (high, low) uint64 words, with ``a`` in the
    form of ``_words`` (Python ints, or arrays like ``b``'s).  The low
    words' 128-bit product is built from 32-bit halves; uint64 arrays wrap
    silently."""
    a_hi, a_lo, a0, a1 = a
    b0, b1 = b_lo & _MASK32, b_lo >> 32
    # The high word of the low words' product: p11 + the high halves of
    # t = p01 + (p00 >> 32) and of u = p10 + the low half of t, none of
    # which can wrap.  In place, to keep few arrays alive.
    t = a0 * b1
    t += a0 * b0 >> 32
    u = a1 * b0
    u += t & _MASK32
    high = a1 * b1
    high += t >> 32
    high += u >> 32
    high += a_lo * b_hi
    high += a_hi * b_lo
    return high, a_lo * b_lo


def _lcg(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
         inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step of PCG64's 128-bit LCG, state * MULT + inc mod 2**128, on
    uint64 (high, low) word arrays."""
    hi, lo = _mul(_MULT_WORDS, hi, lo)
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo
    return hi, lo


# Row k of the first table holds the words of MULT**k, and of the second
# those of C_k = 1 + MULT + ... + MULT**(k-1), mod 2**128: k steps of the
# LCG take a state s with increment inc to MULT**k * s + C_k * inc (Brown,
# Trans. Am. Nucl. Soc. 71, 1994).  Grown on demand by _jump.
_JUMPS = np.empty((2, 0, 4), dtype=np.uint64)


def _jump(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
          inc_lo: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The LCG states ``k[i]`` steps after state i, for uint64 (high, low)
    word arrays and an array of step counts."""
    global _JUMPS
    if k.size and k.max() >= _JUMPS.shape[1]:
        size = max(int(k.max()) + 1, 2 * _JUMPS.shape[1], 64)
        powers, sums, power, total = [], [], 1, 0
        for _ in range(size):
            powers.append(_words(power))
            sums.append(_words(total))
            power, total = power * _MULT & _MASK128, (total + power) & _MASK128
        _JUMPS = np.array([powers, sums], dtype=np.uint64)
    # Each table's rows are taken as they are used, to keep few alive.
    hi, lo = _mul(_JUMPS[0].take(k, axis=0).T, hi, lo)
    c_hi, c_lo = _mul(_JUMPS[1].take(k, axis=0).T, inc_hi, inc_lo)
    lo += c_lo
    hi += c_hi
    hi += lo < c_lo
    return hi, lo


def _signed(x: np.ndarray, word: np.ndarray) -> np.ndarray:
    """The floats ``x`` (none of them negative) with the sign bit of each
    set to bit 8 of ``word``: ``-x`` where that bit is set, in place."""
    sign = word & 0x100
    sign <<= 55
    x.view(np.uint64)[...] |= sign
    return x


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``f``, a ``math`` function, of every float of ``x``: the C library's
    result, which numpy's vector routines do not always reproduce."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output for the stepped state: the xor of its halves rotated
    right by its top six bits."""
    x = hi ^ lo
    rot = hi >> 58
    return x >> rot | x << ((64 - rot) & 63)


class Lanes:
    """Independent PCG64 streams, stepped together as numpy uint64 lanes.

    Lane i holds the state numpy's ``PCG64`` would: the 128-bit ``state``
    and ``inc`` as (high, low) word arrays, and the upper half of a 64-bit
    output that ``next_uint32`` keeps for its next call.  Each lane draws
    as ``np.random.default_rng(np.random.SeedSequence(entropy))`` of its
    path would, value for value (O'Neill, HMC-CS-2014-0905).

    The draws act on the lanes an index array ``sel`` names, each lane
    once: ``uniforms`` and ``indices`` give one value per lane, ``normals``
    any count per lane.  ``normals`` takes all of a call's normals in flat
    passes over (lane, k) positions, each state found by jump-ahead, and
    draws the rare normal off the ziggurat's fast path on the lane itself,
    as numpy's C code does; no lane is handed to numpy.
    """

    def __init__(self, hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
                 inc_lo: np.ndarray, has_uint32: np.ndarray,
                 uinteger: np.ndarray):
        self.hi, self.lo = hi, lo
        self.inc_hi, self.inc_lo = inc_hi, inc_lo
        self.has_uint32, self.uinteger = has_uint32, uinteger

    def __len__(self) -> int:
        return len(self.hi)

    @classmethod
    def from_seed_words(cls, words: np.ndarray) -> "Lanes":
        """The lanes ``PCG64`` seeds from SeedSequence state words, one
        row of ``generate_state(4, np.uint64)`` per lane.

        ``PCG64`` starts in ``(inc + initstate) * MULT + inc`` with ``inc =
        initseq << 1 | 1``, where the four words are ``initstate`` (the
        first two) and ``initseq`` (the last two).
        """
        w0, w1, w2, w3 = words.T
        inc_hi = w2 << 1 | w3 >> 63
        inc_lo = w3 << 1 | 1
        lo = inc_lo + w1
        hi, lo = _lcg(inc_hi + w0 + (lo < inc_lo), lo, inc_hi, inc_lo)
        return cls(hi, lo, inc_hi, inc_lo, np.zeros(len(words), dtype=bool),
                   np.zeros(len(words), dtype=np.uint64))

    def bit_generator_state(self, i: int) -> dict:
        """Lane ``i``'s state in the form of numpy's ``PCG64.state``."""
        return {"bit_generator": "PCG64",
                "state": {"state": int(self.hi[i]) << 64 | int(self.lo[i]),
                          "inc": int(self.inc_hi[i]) << 64
                          | int(self.inc_lo[i])},
                "has_uint32": int(self.has_uint32[i]),
                "uinteger": int(self.uinteger[i])}

    def _draw64(self, sel: np.ndarray) -> np.ndarray:
        """numpy's ``next_uint64`` of every lane of ``sel``."""
        hi, lo = _lcg(self.hi[sel], self.lo[sel], self.inc_hi[sel],
                      self.inc_lo[sel])
        self.hi[sel], self.lo[sel] = hi, lo
        return _xsl_rr(hi, lo)

    def _draw32(self, sel: np.ndarray) -> np.ndarray:
        """numpy's ``next_uint32`` of every lane of ``sel``: the buffered
        high half of the lane's last 64-bit output if it holds one, else
        the low half of a fresh output, whose high half it then holds."""
        buffered = self.has_uint32[sel]
        fresh = ~buffered
        out = self.uinteger[sel]
        if fresh.any():
            x = self._draw64(sel[fresh])
            out[fresh] = x & _MASK32
            self.uinteger[sel[fresh]] = x >> 32
        self.has_uint32[sel] = fresh
        return out

    def uniforms(self, sel: np.ndarray, low, high) -> np.ndarray:
        """``Generator.uniform(low, high)`` on every lane of ``sel``, for
        float bounds (scalars, or one per lane) with 0 <= high - low < inf:
        ``low + (high - low) * next_double``."""
        return low + (high - low) * ((self._draw64(sel) >> 11) * _TO_UNIT)

    def indices(self, sel: np.ndarray, n: int) -> np.ndarray:
        """``Generator.integers(n)`` on every lane of ``sel``, for
        2 <= n <= 2**32: Lemire's method on 32-bit draws (ACM TOMACS 29(1),
        2019), redrawing the lanes that land below the threshold."""
        m = self._draw32(sel) * n
        threshold = (_RANGE32 - n) % n
        redo = np.flatnonzero(m & _MASK32 < threshold)
        while redo.size:
            m[redo] = self._draw32(sel[redo]) * n
            redo = redo[m[redo] & _MASK32 < threshold]
        return m >> 32

    def normals(self, counts: np.ndarray) -> np.ndarray:
        """``Generator.normal(size=counts[i])`` of every lane i, concatenated
        in lane order: numpy's ziggurat (Marsaglia and Tsang, J. Stat.
        Softw. 5(8), 2000), each lane on its own stream.

        A pass takes every normal the lanes still need, whole lanes at a
        time, from the states jump-ahead (``_jump``) gives their outputs.
        An output gives a layer (its low byte), a sign and a 52-bit
        ``rabs``, and the normal is ``0.0 + 1.0 * ±rabs * WI[layer]``.
        A lane stops at its first output with ``rabs >= KI[layer]``, off
        the fast path; ``_off_path`` finishes that normal on all stopped
        lanes together, and their remaining normals go to the next pass.
        """
        counts = np.asarray(counts, dtype=np.intp)
        ends = np.cumsum(counts)
        out = np.empty(ends[-1] if counts.size else 0)
        lanes = np.flatnonzero(counts)
        need = counts[lanes]
        first = ends[lanes] - need
        del ends
        while lanes.size:
            stopped, k, r = self._pass(lanes, need, first, out)
            lanes = lanes[stopped]
            slot = first[stopped] + k - 1
            z, done = self._off_path(lanes, r)
            z += 0.0
            out[slot[done]] = z[done]
            # A rejected draw starts again from a fresh output: the slot
            # goes to the next pass with the lane's remaining normals.
            need = need[stopped] - k + ~done
            more = need > 0
            lanes, need, first = lanes[more], need[more], (slot + done)[more]
        return out

    def _pass(self, lanes: np.ndarray, need: np.ndarray, first: np.ndarray,
              out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Write ``need[i]`` fast-path normals of lane ``lanes[i]`` to
        ``out[first[i]:]``, the lanes of each run of ``cuts(need, _SLICE)``
        at once.  A lane stops at its first output off the fast path and is
        left in the state of that output, or of its last; returns the
        positions in ``lanes`` of the lanes that stop, in order, and each
        one's stop count k and output.  No array of every lane is made:
        the rest of a lane's bookkeeping lives in its slice."""
        stops = []
        edges = cuts(need, _SLICE)
        for l0, l1 in zip(edges, edges[1:]):
            n = need[l0:l1]
            ends = np.cumsum(n)
            starts = ends - n
            # Output g of the slice is output k = g + 1 - starts of its
            # lane, written to out[first + k - 1].
            j = np.repeat(np.arange(l0, l1), n)
            g = np.arange(ends[-1])
            k = g + 1
            k -= np.repeat(starts, n)
            # Each output's lane state and increment words, gathered per
            # slice: no array of every lane's words is held.
            lane = lanes.take(j)
            hi, lo = _jump(self.hi.take(lane), self.lo.take(lane),
                           self.inc_hi.take(lane), self.inc_lo.take(lane), k)
            r = _xsl_rr(hi, lo)
            layer = (r & 0xFF).astype(np.intp)
            rabs = r >> 9 & _MASK52
            x = _signed(rabs * _WI[layer], r)
            # numpy returns 0.0 + 1.0 * x, which only turns -0.0 into 0.0.
            x += 0.0
            g += np.repeat(first[l0:l1] - starts, n)
            out[g] = x
            at = ends - 1  # each lane's last output
            slow = np.flatnonzero(rabs >= _KI[layer])
            if slow.size:
                js = j[slow]
                head = np.ones(slow.size, dtype=bool)
                np.not_equal(js[1:], js[:-1], out=head[1:])
                slow, js = slow[head], js[head]
                stops.append((js, k[slow], r[slow]))
                at[js - l0] = slow
            sel = lanes[l0:l1]
            self.hi[sel], self.lo[sel] = hi[at], lo[at]
            # Free this slice's arrays before the next slice builds its own.
            del j, g, k, lane, hi, lo, r, layer, rabs, x
        if not stops:
            return _NO_STOPS
        return tuple(map(np.concatenate, zip(*stops)))

    def _off_path(self, sel: np.ndarray, r: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """The normals that lanes ``sel`` were drawing when their last
        outputs, ``r``, missed the ziggurat's fast path, carried on as
        numpy's ``random_standard_normal`` does, and whether each was
        decided.

        A layer above 0 keeps ``x`` when ``(FI[l-1] - FI[l]) * u + FI[l] <
        exp(-0.5 * x * x)`` for ``u = next_double``; otherwise the normal
        is undecided and numpy starts again from a fresh output.  Layer 0
        is decided by ``_tail``.  ``exp`` is ``math``'s, the C library's,
        as numpy's is.
        """
        layer = (r & 0xFF).astype(np.intp)
        rabs = r >> 9 & _MASK52
        z = _signed(rabs * _WI[layer], r)
        done = np.ones(sel.size, dtype=bool)
        tail = layer == 0
        if tail.any():
            z[tail] = self._tail(sel[tail], rabs[tail])
        wedge = np.flatnonzero(~tail)
        if wedge.size:
            layer, x = layer[wedge], z[wedge]
            bound = _libm(math.exp, -0.5 * x * x)
            u = self._doubles(sel[wedge])
            fi = _FI[layer]
            done[wedge] = (_FI[layer - 1] - fi) * u + fi < bound
        return z, done

    def _tail(self, sel: np.ndarray, rabs: np.ndarray) -> np.ndarray:
        """The tail draws of numpy's ziggurat past ``_TAIL_R``, one per
        lane of ``sel``, signed by bit 8 of each lane's ``rabs``."""
        z = np.empty(sel.size)
        at = np.arange(sel.size)
        while at.size:
            xx = _libm(math.log1p, -self._doubles(sel[at]))
            xx *= -_TAIL_INV_R
            yy = -_libm(math.log1p, -self._doubles(sel[at]))
            done = yy + yy > xx * xx
            z[at[done]] = _TAIL_R + xx[done]
            at = at[~done]
        return _signed(z, rabs)

    def _doubles(self, sel: np.ndarray) -> np.ndarray:
        """numpy's ``next_double`` of every lane of ``sel``."""
        return (self._draw64(sel) >> 11) * _TO_UNIT

