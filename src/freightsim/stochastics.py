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
    if not (math.isfinite(mean) and math.isfinite(stdev)):
        raise ValueError("mean and stdev must be finite")
    if mean <= 0:
        raise ValueError(f"mean must be > 0, got {mean}")
    if stdev < 0:
        raise ValueError(f"stdev must be >= 0, got {stdev}")
    if stdev == 0:
        return LogNormalParams(mu=math.log(mean), sigma=0.0)
    mean_sq = mean * mean
    if mean_sq == 0.0:
        raise ValueError(f"mean {mean!r} is too small: its square underflows "
                         f"to 0")
    sigma2 = math.log1p((stdev * stdev) / mean_sq)
    mu = math.log(mean) - 0.5 * sigma2
    return LogNormalParams(mu=mu, sigma=math.sqrt(sigma2))


def _path_entropy(master_seed: int, labels: Sequence[object]) -> int:
    # Hash the label path so any mix of strings and integers yields a
    # well-spread, platform-independent seed.
    h = hashlib.sha256()
    h.update(str(int(master_seed)).encode("utf-8"))
    for label in labels:
        h.update(b"\x1f")
        h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


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
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

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


def _seed_pcg64(bit_generator: np.random.PCG64, words: np.ndarray) -> None:
    """Put ``bit_generator`` in the state ``PCG64(seed_sequence)`` starts in
    when the sequence's ``generate_state(4, np.uint64)`` is ``words``: the
    first two words are the initial state, the last two the stream."""
    w0, w1, w2, w3 = words.tolist()
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}


class RngStream:
    """An independent pseudo-random substream keyed by (master_seed, labels).

    Identical (seed, labels) pairs reproduce identical sequences; distinct
    label paths give statistically independent sequences.  The draws are
    those of ``np.random.default_rng(np.random.SeedSequence(entropy))``,
    with the entropy hashed from the seed and the labels.
    """

    def __init__(self, master_seed: int, labels: Iterable[object]):
        self.master_seed = int(master_seed)
        # PCG64(0) is a placeholder state; _reseed sets the path's own.
        self._bits = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bits)
        labels = tuple(labels)
        [words] = _state_words([_path_entropy(self.master_seed, labels)])
        self._reseed(labels, words)

    def _reseed(self, labels: tuple, words: np.ndarray) -> None:
        """Become the stream of ``labels``, whose state words are
        ``words``."""
        self.labels = labels
        _seed_pcg64(self._bits, words)

    def uniform(self, low: float, high: float) -> float:
        return float(self._gen.uniform(low, high))

    def normal(self, size: int | None = None):
        out = self._gen.normal(size=size)
        return float(out) if size is None else out

    def integers(self, n: int) -> int:
        """A uniform integer in [0, n)."""
        return int(self._gen.integers(n))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.master_seed}, labels={self.labels!r})"


def derive_stream(master_seed: int, labels: Iterable[object]) -> RngStream:
    """Derive the substream identified by a label path such as
    ("scenario", year, replicate, "trip").  The stream owns its generator."""
    return RngStream(master_seed, labels)


def derive_streams(master_seed: int,
                   paths: Iterable[Iterable[object]]) -> Iterator[RngStream]:
    """Derive the substreams of ``paths`` in order, each drawing exactly what
    ``derive_stream(master_seed, path)`` draws.

    The paths are read lazily and seeded ``_CHUNK`` at a time.  Every stream
    yielded is one generator, reseeded for each path, so a stream is valid
    only until the next one is taken.
    """
    master_seed = int(master_seed)
    paths = iter(paths)
    stream = None
    while chunk := [tuple(p) for p in itertools.islice(paths, _CHUNK)]:
        words = _state_words([_path_entropy(master_seed, p) for p in chunk])
        if stream is None:
            stream = RngStream(master_seed, chunk[0])
        for labels, state_words in zip(chunk, words):
            stream._reseed(labels, state_words)
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
