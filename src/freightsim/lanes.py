"""PCG64 streams stepped together as numpy uint64 lanes.

A :class:`Lanes` holds many independent streams, each in the state numpy's
``PCG64`` would hold, and takes the k-th draw of all of them at once with
numpy's own arithmetic; :class:`RngStream` is one lane drawn a value at a
time.  ``freightsim.stochastics`` seeds them from label paths.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._ziggurat import KI as _KI, WI as _WI

_MASK32 = 0xFFFFFFFF
_MASK52 = (1 << 52) - 1
_MASK64 = (1 << 64) - 1
# PCG64's 128-bit multiplier: its high and low words, and the low word's
# 32-bit halves for the 64x64 -> 128-bit product.
_MULT_HI = 0x2360ED051FC65DA4
_MULT_LO = 0x4385DF649FCCF645
_MULT_LO_0 = _MULT_LO & _MASK32
_MULT_LO_1 = _MULT_LO >> 32
_RANGE32 = 1 << 32
# numpy's next_double scale: a 53-bit integer times 2**-53 is in [0, 1).
_TO_UNIT = 1.0 / 9007199254740992.0
_INF = math.inf


def _lcg(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
         inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step of PCG64's 128-bit LCG, state * MULT + inc mod 2**128, on
    uint64 (high, low) word arrays.  The low words' 128-bit product is
    built from 32-bit halves; uint64 arrays wrap silently."""
    a0, a1 = lo & _MASK32, lo >> 32
    p01, p10 = a0 * _MULT_LO_1, a1 * _MULT_LO_0
    # mid = (p00 >> 32) + low halves of p01 and p10; high = p11 + high
    # halves of p01, p10 and mid.  In place, to keep few arrays alive.
    mid = a0
    mid *= _MULT_LO_0
    mid >>= 32
    mid += p01 & _MASK32
    mid += p10 & _MASK32
    high = a1
    high *= _MULT_LO_1
    high += p01 >> 32
    high += p10 >> 32
    mid >>= 32
    high += mid
    high += hi * _MULT_LO
    high += lo * _MULT_HI
    new_lo = lo * _MULT_LO
    new_lo += inc_lo
    high += inc_hi
    high += new_lo < inc_lo
    return high, new_lo


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output for the stepped state: the xor of its halves rotated
    right by its top six bits."""
    x = hi ^ lo
    rot = hi >> 58
    return x >> rot | x << ((64 - rot) & 63)


# numpy keeps freed arrays of under 1 KiB for reuse, up to seven of each
# byte size.  Lockstep loops whose lane sets shrink one lane at a time would
# leave arrays of every small size held, so they draw sets padded to a
# multiple of this many lanes.
_PAD = 128


def padded(sel: np.ndarray) -> np.ndarray:
    """``sel`` repeated to the next multiple of ``_PAD`` lanes.  A repeated
    lane takes the same draws from the same state and writes the same
    values again, so drawing a padded set draws each lane once."""
    size = -(-sel.size // _PAD) * _PAD
    return sel if size == sel.size else np.resize(sel, size)


class Lanes:
    """Independent PCG64 streams, stepped together as numpy uint64 lanes.

    Lane i holds the state numpy's ``PCG64`` would: the 128-bit ``state``
    and ``inc`` as (high, low) word arrays, and the upper half of a 64-bit
    output that ``next_uint32`` keeps for its next call.  Each lane draws
    as ``np.random.default_rng(np.random.SeedSequence(entropy))`` of its
    path would, value for value (O'Neill, HMC-CS-2014-0905).

    The draws act on the lanes an index array ``sel`` names, each lane
    once: ``uniforms`` and ``indices`` give one value per lane, ``normals``
    any count per lane.  A normal off numpy's ziggurat fast path hands its
    lane to numpy's ``Generator``, which draws that lane's remaining normals
    and hands the state back.  A slice of a ``Lanes`` is a view: drawing
    from it advances the parent's lanes.
    """

    def __init__(self, hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
                 inc_lo: np.ndarray, has_uint32: np.ndarray,
                 uinteger: np.ndarray, labels: Sequence | None = None):
        self.hi, self.lo = hi, lo
        self.inc_hi, self.inc_lo = inc_hi, inc_lo
        self.has_uint32, self.uinteger = has_uint32, uinteger
        self.labels = labels
        self._gen: np.random.Generator | None = None

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (self.hi, self.lo, self.inc_hi, self.inc_lo, self.has_uint32,
                self.uinteger)

    def __len__(self) -> int:
        return len(self.hi)

    def __getitem__(self, index: slice) -> "Lanes":
        return Lanes(*(a[index] for a in self._arrays()),
                     labels=None if self.labels is None
                     else self.labels[index])

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

    def stream(self, i: int) -> "RngStream":
        """Lane ``i`` as a one-lane stream; its draws advance this lane."""
        return RngStream(*(a[i:i + 1] for a in self._arrays()),
                         labels=None if self.labels is None
                         else self.labels[i])

    def bit_generator_state(self, i: int) -> dict:
        """Lane ``i``'s state in the form of numpy's ``PCG64.state``."""
        return {"bit_generator": "PCG64",
                "state": {"state": int(self.hi[i]) << 64 | int(self.lo[i]),
                          "inc": int(self.inc_hi[i]) << 64
                          | int(self.inc_lo[i])},
                "has_uint32": int(self.has_uint32[i]),
                "uinteger": int(self.uinteger[i])}

    def _to_numpy(self, i: int) -> np.random.Generator:
        """numpy's ``Generator`` in lane ``i``'s state; ``_from_numpy``
        takes the state back after the draws."""
        if self._gen is None:
            self._gen = np.random.Generator(np.random.PCG64(0))
        self._gen.bit_generator.state = self.bit_generator_state(i)
        return self._gen

    def _from_numpy(self, i: int) -> None:
        st = self._gen.bit_generator.state
        state = st["state"]["state"]
        self.hi[i], self.lo[i] = state >> 64, state & _MASK64
        self.has_uint32[i], self.uinteger[i] = st["has_uint32"], st["uinteger"]

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
        in lane order.

        The k-th normals of all lanes are taken at once, on numpy's
        ziggurat fast path (Marsaglia and Tsang, J. Stat. Softw. 5(8),
        2000): a 64-bit output gives a layer (its low byte), a sign and a
        52-bit ``rabs``, and the normal is ``0.0 + 1.0 * ±rabs * WI[layer]``
        when ``rabs < KI[layer]``.  A lane off that path goes back to its
        state before that output and hands it to numpy, which draws the
        lane's remaining normals.
        """
        counts = np.asarray(counts, dtype=np.intp)
        ends = np.cumsum(counts)
        starts = ends - counts
        out = np.empty(ends[-1] if counts.size else 0)
        active = np.flatnonzero(counts)
        k = 0
        while active.size:
            active = padded(active)
            hi0, lo0 = self.hi[active], self.lo[active]
            hi, lo = _lcg(hi0, lo0, self.inc_hi[active], self.inc_lo[active])
            self.hi[active], self.lo[active] = hi, lo
            r = _xsl_rr(hi, lo)
            layer = (r & 0xFF).astype(np.intp)
            rabs = r >> 9 & _MASK52
            x = rabs * _WI[layer]
            x[(r & 0x100) != 0] *= -1.0
            out[starts[active] + k] = 0.0 + 1.0 * x
            fast = rabs < _KI[layer]
            k += 1
            if not fast.all():
                slow = np.flatnonzero(~fast)
                _, first = np.unique(active[slow], return_index=True)
                for j in slow[first].tolist():
                    i = active[j]
                    self.hi[i], self.lo[i] = hi0[j], lo0[j]
                    out[starts[i] + k - 1:ends[i]] = self._to_numpy(i).normal(
                        size=counts[i] - k + 1)
                    self._from_numpy(i)
                active = active[fast]
            active = active[counts[active] > k]
        return out


_ONE = np.zeros(1, dtype=np.intp)


class RngStream(Lanes):
    """One lane, drawn one value at a time: the stream of the label path
    ``labels``.

    ``uniform``, ``integers`` and ``normal`` return what numpy's
    ``Generator`` of the path returns, and raise its errors.  ``uniform``
    and ``integers`` step the lane; ``normal``, and ``integers`` past the
    32-bit range, are numpy's own calls on the handed-off state.
    """

    def uniform(self, low: float, high: float) -> float:
        """``Generator.uniform(low, high)``, with its exceptions."""
        span = high - low
        if type(span) is not float or not 0.0 < span < _INF:
            # numpy subtracts the bounds as doubles; two ints subtract
            # exactly and would round once, after.
            low, high = float(low), float(high)
            span = high - low
            if not math.isfinite(span):
                raise OverflowError("high - low range exceeds valid bounds")
            if math.copysign(1.0, span) < 0.0:
                raise ValueError("high - low < 0")
        return float(self.uniforms(_ONE, low, high)[0])

    def integers(self, n: int) -> int:
        """A uniform integer in [0, n): ``Generator.integers(n)``.

        n == 1 draws nothing; 2 <= n <= 2**32 is ``indices``.  Any other
        n is numpy's, values and errors alike.
        """
        if type(n) is int and 1 <= n <= _RANGE32:
            return 0 if n == 1 else int(self.indices(_ONE, n)[0])
        try:
            return int(self._to_numpy(0).integers(n))
        finally:
            self._from_numpy(0)

    def normal(self, size: int | None = None):
        """``Generator.normal(size=size)``: a float, or an array."""
        try:
            out = self._to_numpy(0).normal(size=size)
        finally:
            self._from_numpy(0)
        return float(out) if size is None else out

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(labels={self.labels!r})"
