"""Log-normal moment matching, sampling, and deterministic random substreams.

Every random draw in the simulator comes through an :class:`RngStream`, and
every stream is fully determined by a master seed plus a label path.  That is
what makes whole scenario runs reproducible byte-for-byte regardless of how
replicates are scheduled.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class LogNormalParams:
    """Log-space (mu, sigma) pair; sigma >= 0, both finite."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("log-normal parameters must be finite")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")


def lognormal_from_moments(mean: float, stdev: float) -> LogNormalParams:
    """Match a log-normal to a target arithmetic mean and standard deviation.

    mu = ln(m / sqrt(1 + v/m^2)), sigma^2 = ln(1 + v/m^2) with v = stdev^2.
    The round trip exp(mu + sigma^2/2) == mean holds to machine precision.
    A mean whose square underflows to 0 with a non-zero stdev is rejected.
    """
    (mu,), (sigma,) = lognormal_arrays(np.array([mean], dtype=float),
                                       np.array([stdev], dtype=float))
    return LogNormalParams(mu=float(mu), sigma=float(sigma))


def lognormal_arrays(means: np.ndarray,
                     stdevs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``lognormal_from_moments`` elementwise: the ``(mu, sigma)`` arrays
    matching float arrays of means and stdevs, with its ``ValueError`` for
    the first entry that cannot be matched.

    Products, quotients and square roots are numpy's, correctly rounded as
    Python's are; ``log`` and ``log1p`` are ``math``'s, whose results numpy's
    vector routines do not always reproduce.  A zero stdev gives
    mu = ln(m) and sigma = 0.
    """
    if not (np.isfinite(means).all() and np.isfinite(stdevs).all()):
        raise ValueError("mean and stdev must be finite")
    if not (means > 0).all():
        raise ValueError(
            f"mean must be > 0, got {means[means <= 0][0].item()}")
    if (stdevs < 0).any():
        raise ValueError(
            f"stdev must be >= 0, got {stdevs[stdevs < 0][0].item()}")
    spread = stdevs != 0
    with np.errstate(over="ignore"):
        mean_sq = means * means
        tiny = spread & (mean_sq == 0.0)
        if tiny.any():
            raise ValueError(f"mean {means[tiny][0].item()!r} is too small: "
                             f"its square underflows to 0")
        ratio = np.divide(stdevs * stdevs, mean_sq, out=np.zeros_like(means),
                          where=spread)
    sigma2 = np.array(list(map(math.log1p, ratio.ravel().tolist())))
    log_mean = np.array(list(map(math.log, means.ravel().tolist())))
    mu = (log_mean - 0.5 * sigma2).reshape(means.shape)
    sigma = np.sqrt(sigma2).reshape(means.shape)
    if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
        raise ValueError("log-normal parameters must be finite")
    return mu, sigma


def _path_entropy(master_seed: int, labels: Sequence[object]) -> int:
    # Hash the label path so any mix of strings and integers yields a
    # well-spread, platform-independent seed.
    path = "\x1f".join([str(int(master_seed)), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(path.encode()).digest(), "big")


# The constants of numpy's SeedSequence (pool size 4) and of PCG64's seeding
# step.  They follow O'Neill, "Developing a seed_seq Alternative" (2015), and
# O'Neill, PCG, HMC-CS-2014-0905.
_INIT_A = 0x43b0d7e5
_MULT_A = 0x931e8875
_INIT_B = 0x8b51f9dd
_MULT_B = 0x58f38ded
_MIX_MULT_L = 0xca01f9dd
_MIX_MULT_R = 0x4973f715
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_RANGE32 = 1 << 32
# numpy's next_double scale: a 53-bit integer times 2**-53 is in [0, 1).
_TO_UNIT = 1.0 / 9007199254740992.0
_INF = math.inf

# Label paths whose seeds ``derive_streams`` computes together: enough to
# amortise numpy's per-call overhead over the array operations, few enough
# that no run-sized list of paths is held.
_CHUNK = 1024


def _state_words(entropies: Sequence[int]) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` of every entropy e
    in [0, 2**256), one row each.

    An entropy of eight 32-bit words (e >= 2**224) is mixed with numpy's
    ``hashmix``/``mix`` arithmetic, run as uint32 array operations over all
    the entropies at once.  numpy coerces a smaller entropy to fewer words,
    which mixes differently, so those go through ``SeedSequence`` itself.
    """
    data = np.frombuffer(b"".join(e.to_bytes(32, "little") for e in entropies),
                         dtype="<u4").reshape(-1, 8).astype(np.uint32)
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> 16

    pool = [hashmix(data[:, i]) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(4, 8):
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(data[:, i_src]))

    state = np.empty_like(data)
    hash_const = _INIT_B
    for i_dst in range(8):
        value = pool[i_dst % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state[:, i_dst] = value ^ value >> 16
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    for i, e in enumerate(entropies):
        if e >> 224 == 0:
            words[i] = np.random.SeedSequence(e).generate_state(4, np.uint64)
    return words


def _pcg64_state(words: Iterable[int]) -> tuple[int, int]:
    """The ``(state, inc)`` that ``PCG64(seed_sequence)`` starts in when the
    sequence's ``generate_state(4, np.uint64)`` is ``words``: the first two
    words are the initial state, the last two the stream."""
    w0, w1, w2, w3 = map(int, words)
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    return ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128, inc


class RngStream:
    """An independent pseudo-random substream keyed by (master_seed, labels).

    Identical (seed, labels) pairs reproduce identical sequences; distinct
    label paths give statistically independent sequences.  The draws are
    those of ``np.random.default_rng(np.random.SeedSequence(entropy))``,
    with the entropy hashed from the seed and the labels.  ``RngStream``
    holds no state until ``derive_streams`` seeds it for a label path.

    The stream holds numpy's PCG64 state (O'Neill's XSL-RR generator) as
    Python ints: the 128-bit ``state`` and ``inc``, and the buffered upper
    half of a 64-bit output that ``next_uint32`` keeps for its next call.
    ``uniform`` and most ``integers`` step that state with numpy's own
    arithmetic, which is cheaper than a scalar numpy call.  ``normal`` runs
    numpy's ``Generator``: the state moves into the stream's ``PCG64`` at
    the first normal, and back at the next Python draw.
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        # PCG64(0) is a placeholder; _to_numpy sets the stream's state.
        self._bits = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bits)

    def _reseed(self, labels: tuple, state_inc: tuple[int, int]) -> None:
        """Become the stream of ``labels``, whose seeded PCG64 ``(state,
        inc)`` is ``state_inc``."""
        self.labels = labels
        self._state, self._inc = state_inc
        self._has_uint32 = self._uinteger = 0
        self._in_numpy = False

    def _to_numpy(self) -> None:
        """Hand the state to the numpy generator, unless it holds it."""
        if not self._in_numpy:
            self._bits.state = {
                "bit_generator": "PCG64",
                "state": {"state": self._state, "inc": self._inc},
                "has_uint32": self._has_uint32, "uinteger": self._uinteger}
            self._in_numpy = True

    def _from_numpy(self) -> None:
        """Take the state back from the numpy generator."""
        st = self._bits.state
        self._state, self._inc = st["state"]["state"], st["state"]["inc"]
        self._has_uint32, self._uinteger = st["has_uint32"], st["uinteger"]
        self._in_numpy = False

    def _next64(self) -> int:
        """numpy's ``next_uint64``: step the LCG, then rotate the xor of
        the new state's halves right by its top six bits."""
        if self._in_numpy:
            self._from_numpy()
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((s >> 64) ^ s) & _MASK64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next_uint32(self) -> int:
        """numpy's ``next_uint32``: the low half of a fresh 64-bit output,
        buffering the high half for the next call."""
        if self._in_numpy:
            self._from_numpy()
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        x = self._next64()
        self._has_uint32, self._uinteger = 1, x >> 32
        return x & _MASK32

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
        # _next64, inlined: a method call costs about a tenth of the draw.
        if self._in_numpy:
            self._from_numpy()
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((s >> 64) ^ s) & _MASK64
        rot = s >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        return low + span * ((x >> 11) * _TO_UNIT)

    def normal(self, size: int | None = None):
        self._to_numpy()
        out = self._gen.normal(size=size)
        return float(out) if size is None else out

    def integers(self, n: int) -> int:
        """A uniform integer in [0, n): ``Generator.integers(n)``.

        For 1 <= n <= 2**32 this is numpy's Lemire method on 32-bit
        draws (Lemire, ACM TOMACS 29(1), 2019); n == 1 draws nothing.
        Any other n is numpy's, values and errors alike.
        """
        if type(n) is not int or not 1 <= n <= _RANGE32:
            self._to_numpy()
            return int(self._gen.integers(n))
        if n == 1:
            return 0
        m = self._next_uint32() * n
        if m & _MASK32 < n:
            threshold = (_RANGE32 - n) % n
            while m & _MASK32 < threshold:
                m = self._next_uint32() * n
        return m >> 32

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.master_seed}, labels={self.labels!r})"


def derive_stream(master_seed: int, labels: Iterable[object]) -> RngStream:
    """Derive the substream identified by a label path such as
    ("scenario", year, replicate, "trip").  The stream owns its generator."""
    return next(derive_streams(master_seed, [labels]))


def derive_streams(master_seed: int,
                   paths: Iterable[Iterable[object]]) -> Iterator[RngStream]:
    """Derive the substreams of ``paths`` in order; this is the one place
    a stream is seeded.

    The paths are read lazily and seeded ``_CHUNK`` at a time.  Every stream
    yielded is one generator, reseeded for each path, so a stream is valid
    only until the next one is taken.
    """
    stream = RngStream(master_seed)
    paths = iter(paths)
    while chunk := [tuple(p) for p in itertools.islice(paths, _CHUNK)]:
        words = _state_words([_path_entropy(stream.master_seed, p)
                              for p in chunk])
        for labels, state_words in zip(chunk, words.tolist()):
            stream._reseed(labels, _pcg64_state(state_words))
            yield stream


def sample_lognormal(params: LogNormalParams, stream: RngStream,
                     size: int | None = None):
    """Draw exp(mu + sigma*Z) from the stream; always strictly positive.

    With sigma == 0 the draw is exactly exp(mu) and consumes no randomness.
    """
    if params.sigma == 0.0:
        value = math.exp(params.mu)
        return value if size is None else np.full(size, value)
    z = stream.normal(size=size)
    out = np.exp(params.mu + params.sigma * z)
    return float(out) if size is None else out
