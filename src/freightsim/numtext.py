"""Exact number text by numpy kernels: ``"%.17g"`` and ``"%.2f"`` of whole
float64 arrays, as little-endian uint64 words of ASCII bytes.

A number's text fills a fixed-width slot of words; the bytes it leaves
unused hold ``PAD``, which never occurs in UTF-8 text, so a writer that
lays slots out in a byte matrix drops them with one mask.
"""

from __future__ import annotations

import math

import numpy as np

from .lanes import _MASK52, _mul


PAD = 0xFF  # never a byte of UTF-8 text
ALL = (1 << 64) - 1  # a word of PAD
WORD = np.dtype("<u8")


# The two upper-case hex digits of 0..255, as a word's two low bytes.
_HEX = np.array(list(b"0123456789ABCDEF"), dtype=np.uint64)
HEX2 = _HEX[np.arange(256) >> 4] | _HEX[np.arange(256) & 15] << 8
_ASCII_ZEROS = 0x3030303030303030


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """The eight zero-padded decimal digits of each v < 10**8 (a uint64
    array, which is consumed), as words: v is split into lanes of the word,
    two of four digits, then four of two, then eight of one (a * 5243 >> 19
    is a // 100 for a < 43,699, and a * 103 >> 10 is a // 10 for a < 179)."""
    high = v // 10 ** 4
    v -= high * 10 ** 4
    v <<= 32
    v |= high
    high = v * 5243 >> 19 & 0x0000007F0000007F
    v -= high * 100
    v <<= 16
    v |= high
    high = v * 103 >> 10 & 0x000F000F000F000F
    v -= high * 10
    v <<= 8
    v |= high
    v |= _ASCII_ZEROS
    return v


def four_digits(n: np.ndarray) -> np.ndarray:
    """The digits of each n < 10**4 (a uint64 array, which is consumed) in
    a word's four low bytes, leading zeros as ``PAD``."""
    zeros = 3 - (n >= 10) - (n >= 100) - (n >= 1000)
    return _eight_digits(n) >> 32 | ALL << (8 * zeros).view(np.uint64) ^ ALL


def _shift_round(hi, lo: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``(hi * 2**64 + lo) / 2**r`` rounded half to even, elementwise on
    uint64 arrays, for shifts ``0 <= r < 64`` and quotients below 2**64
    (numpy shifts a uint64 by 64 or more to 0)."""
    quotient = hi << (64 - r)
    quotient |= lo >> r
    one = np.left_shift(1, r)
    twice = lo & one - 1
    twice <<= 1  # twice the remainder, against one = 2**r
    up = twice == one
    up &= quotient & 1 == 1
    up |= twice > one
    quotient += up
    return quotient


def _at_least_pow10(k: int) -> float:
    """The least double >= 10**k: ``x >= _at_least_pow10(k)`` is then
    exactly ``x >= 10**k``.  Python's int to float conversion and int
    division round correctly."""
    if k >= 0:
        return float(10 ** k)
    x = 1 / 10 ** -k
    num, den = x.as_integer_ratio()
    return x if num * 10 ** -k >= den else math.nextafter(x, math.inf)


# The float kernel's fast range, [1e-9, 1e17): a double there is m * 2**q
# with 2**52 <= m < 2**53 and a decimal exponent e in [-9, 16], so that
# m * 2**4 * 5**(16 - e) is a 128-bit product of two 64-bit words, to be
# shifted right by 40 - (q + 52) + e, which is in [0, 61].
_E_MIN, _E_MAX = -9, 16
_FAST = np.array([_at_least_pow10(_E_MIN), 1e17]).view(np.uint64)
_ONE_BITS = np.array(1.0).view(np.uint64)
# Tables indexed by a decimal exponent in [_E_MIN, _E_MAX + 1], minus _E_MIN.
_EXPS = range(_E_MIN, _E_MAX + 2)
_AT_LEAST_POW10 = np.array([_at_least_pow10(k) for k in _EXPS])
_FIVES = np.array([5 ** max(16 - e, 0) for e in _EXPS], dtype=np.uint64)
# "%.17g" writes 17 significant digits d0..d16 at decimal exponent e in
# fixed notation for -4 <= e < 17, else as d0.d1..d16 and an exponent of at
# least two digits; trailing zeros of the fraction, then a bare point, are
# dropped.  A slot is four words: a prefix ("0.000" for e = -4), d0, d1..d16
# with the point among them, the exponent, then two bytes for the caller's
# separator.
SLOT_WORDS = 4
_PREFIX = np.array([int.from_bytes(b"0.000"[:1 - e].ljust(8, b"\xff"),
                                   "little") if -4 <= e < 0 else ALL
                    for e in _EXPS], dtype=np.uint64)
# The digits of d1..d16 written before the point (16 also when the point
# is never written: it then goes last, where no digit is kept after it).
_POINT = np.array([e if 0 <= e < 16 else 0 if e < -4 else 16 for e in _EXPS])
# Digits written even when zero: d0, and those before a fixed point.
_INT_DIGITS = np.array([max(e + 1, 1) for e in _EXPS])
_SUFFIX = np.array([int.from_bytes((b"e%+03d" % e if e < -4 else b"\xff" * 4)
                                   + b"\xff\xff", "little") << 16
                    for e in _EXPS], dtype=np.uint64)


def format_g17(x: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` for each v of the 1-D float64 array ``x``, as slots
    of ``SLOT_WORDS`` words padded with ``PAD``.

    A double in the fast range is m * 2**q, and its 17 digits are
    N = m * 5**s * 2**(q+s), s = 16 - e, rounded half to even: the product
    is exact in 128 bits, so N is correctly rounded, as Gay's dtoa rounds.
    Every value outside the fast range (zeros, negatives, subnormals, inf,
    nan) takes Python's own format, one value at a time.
    """
    bits = x.view(np.uint64)
    slow = (bits < _FAST[0]) | (bits >= _FAST[1])
    bits = np.where(slow, _ONE_BITS, bits)
    # floor(log10 x) is floor(E * log10 2) or one more, for E = floor(log2 x)
    # (78913 / 2**18 is log10 2 close enough for |E| < 1650).
    biased = (bits >> 52).view(np.int64)  # E + 1023
    e = (biased - 1023) * 78913 >> 18
    e += bits.view(np.float64) >= _AT_LEAST_POW10[e + (1 - _E_MIN)]
    five = _FIVES[e - _E_MIN]
    bits &= _MASK52
    bits |= 1 << 52
    bits <<= 4
    hi, lo = _mul((0, five, five & 0xFFFFFFFF, five >> 32), 0, bits)
    # Work arrays are freed as soon as they are spent: together they are
    # the output stage's peak memory.
    del five, bits
    biased -= e
    n = _shift_round(hi, lo, (1063 - biased).view(np.uint64))
    del hi, lo, biased
    carry = n == 10 ** 17  # rounded up to the next power of ten
    np.copyto(n, 10 ** 16, where=carry)
    e += carry
    e -= _E_MIN
    lead = n // 10 ** 16
    n -= lead * 10 ** 16
    high = n // 10 ** 8
    n -= high * 10 ** 8
    u = _eight_digits(high)  # d1..d8
    v = _eight_digits(n)  # d9..d16
    # The last non-zero digit, from the highest non-zero byte of the digits
    # less "0": a byte is at most 9, so its float's exponent is exact.
    in_v = v != _ASCII_ZEROS
    top = np.where(in_v, v, u)
    top ^= _ASCII_ZEROS
    kept = (top.astype(np.float64).view(np.int64) >> 52) - 1023 >> 3
    kept += 2
    kept += 8 * in_v
    np.maximum(kept, _INT_DIGITS[e], out=kept)  # digits written, d0 included
    # d1..d16 with the point after j of them, as 17 bytes in three words:
    # the bytes at and after the point move up one.
    point = _POINT[e]
    at = (8 * point).view(np.uint64)
    moved = u & ALL << at
    u ^= moved
    u |= moved << 8
    u |= np.left_shift(ord("."), at)
    top = moved >> 56
    moved = v & ALL << np.maximum(at, 64) - 64
    v ^= moved
    v |= moved << 8
    v |= top
    v |= np.left_shift(ord("."), at - 64)  # wraps to >= 64 below 64
    top = moved >> 56
    top |= np.left_shift(ord("."), at - 128)
    del moved
    # Pad all after the last kept digit, and the point if no digit follows.
    kept -= kept <= point + 1
    kept <<= 3
    cut = kept.view(np.uint64)
    u |= ALL << cut
    v |= ALL << np.maximum(cut, 64) - 64
    np.copyto(top, PAD, where=cut <= 128)
    del point, at, kept, cut
    out = np.empty(x.shape + (SLOT_WORDS,), np.uint64)
    out[:, 0] = _PREFIX[e]
    out[:, 1] = lead + ord("0") | u << 8
    out[:, 2] = u >> 56 | v << 8
    top <<= 8
    top |= v >> 56
    top |= _SUFFIX[e]
    out[:, 3] = top
    for i in np.flatnonzero(slow).tolist():
        text = ("%.17g" % x[i]).encode()  # at most 24 bytes
        out[i] = np.frombuffer(text.ljust(8 * SLOT_WORDS, b"\xff"), WORD)
    return out


# format_f2's range holds the pixel rows of the SVG chart, 30 to 550.
_F2_FAST = np.array([1.0, 1e4]).view(np.uint64)


def format_f2(x: np.ndarray) -> np.ndarray:
    """``"%.2f" % v`` for each v in [1, 10**4) of the float64 array ``x``,
    as words padded with ``PAD``: v is m * 2**q, and m * 100 * 2**q
    rounded half to even is exact in one uint64."""
    bits = x.view(np.uint64)
    if not ((bits >= _F2_FAST[0]) & (bits < _F2_FAST[1])).all():
        raise ValueError("a value to write with 2 decimals is outside [1, 1e4)")
    cents = _shift_round(0, (bits & _MASK52 | 1 << 52) * 100,
                         (1075 - (bits >> 52).view(np.int64)).view(np.uint64))
    whole = cents // 100
    cents -= whole * 100
    return (four_digits(whole) | ord(".") << 32
            | _eight_digits(cents) >> 48 << 40 | PAD << 56)
