"""Log-normal moment matching, sampling, and deterministic random substreams.

Every random draw in the simulator comes from a stream fully determined by a
master seed plus a label path.  That is what makes whole scenario runs
reproducible byte-for-byte regardless of how replicates are scheduled.  The
streams of up to ``_CHUNK`` paths are seeded together, as the numpy uint64
lanes of ``freightsim.lanes``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .lanes import Lanes, RngStream


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
    sigma2 = np.fromiter(map(math.log1p, ratio.flat), float, ratio.size)
    log_mean = np.fromiter(map(math.log, means.flat), float, means.size)
    mu = (log_mean - 0.5 * sigma2).reshape(means.shape)
    sigma = np.sqrt(sigma2).reshape(means.shape)
    if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
        raise ValueError("log-normal parameters must be finite")
    return mu, sigma


def _path_text(master_seed: int, labels: Sequence[object]) -> bytes:
    """The text a label path's seed is hashed from: the seed and the
    labels, each as ``str``, joined by unit separators."""
    return "\x1f".join([str(int(master_seed)), *map(str, labels)]).encode()


def _path_entropy(master_seed: int, labels: Sequence[object]) -> int:
    """The path's SeedSequence entropy, as one int: the scalar form of what
    ``seed_lanes`` reads from each digest."""
    return int.from_bytes(hashlib.sha256(_path_text(master_seed,
                                                    labels)).digest(), "big")


# The constants of numpy's SeedSequence (pool size 4), after O'Neill,
# "Developing a seed_seq Alternative" (2015).
_INIT_A = 0x43b0d7e5
_MULT_A = 0x931e8875
_INIT_B = 0x8b51f9dd
_MULT_B = 0x58f38ded
_MIX_MULT_L = 0xca01f9dd
_MIX_MULT_R = 0x4973f715
_MASK32 = 0xFFFFFFFF

# Label paths whose streams are seeded and stepped together: enough to
# amortise numpy's per-call overhead over the array operations, few enough
# that no run-sized list of paths or lanes is held.
_CHUNK = 1024


def _state_words(digests: bytes) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` of the entropy e of
    every 32-byte big-endian digest in ``digests``, one row each.

    An entropy of eight 32-bit words (e >= 2**224) is mixed with numpy's
    ``hashmix``/``mix`` arithmetic, run as uint32 array operations over all
    the entropies at once.  numpy coerces a smaller entropy to fewer words,
    which mixes differently, so those go through ``SeedSequence`` itself.
    """
    rows = np.frombuffer(digests, dtype=np.uint8).reshape(-1, 32)
    # The little-endian bytes of each entropy are its digest reversed.
    data = rows[:, ::-1].copy().view("<u4").astype(np.uint32)
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
    for i in np.flatnonzero(~rows[:, :4].any(axis=1)):
        entropy = int.from_bytes(rows[i].tobytes(), "big")
        words[i] = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
    return words


def seed_lanes(texts: Sequence[bytes]) -> Lanes:
    """The lanes of the label paths whose ``_path_text`` is ``texts``, in
    order: each seeded as ``PCG64(SeedSequence(entropy))``, the entropy
    the path's SHA-256 digest read as a big-endian int."""
    return Lanes.from_seed_words(_state_words(
        b"".join([hashlib.sha256(t).digest() for t in texts])))


def seed_chunks(texts: Iterable[bytes]) -> Iterator[Lanes]:
    """``seed_lanes`` of ``texts``, read lazily, ``_CHUNK`` at a time."""
    texts = iter(texts)
    while chunk := list(itertools.islice(texts, _CHUNK)):
        yield seed_lanes(chunk)


def derive_lanes(master_seed: int,
                 paths: Iterable[Iterable[object]]) -> Iterator[Lanes]:
    """The lanes of the label paths ``paths``, in order, ``_CHUNK`` at a
    time; lane i of a chunk carries its path as ``labels[i]``."""
    paths = iter(paths)
    while chunk := [tuple(p) for p in itertools.islice(paths, _CHUNK)]:
        lanes = seed_lanes([_path_text(master_seed, p) for p in chunk])
        lanes.labels = chunk
        yield lanes


def derive_streams(master_seed: int,
                   paths: Iterable[Iterable[object]]) -> Iterator[RngStream]:
    """The one-lane stream of each label path of ``paths``, in order."""
    for lanes in derive_lanes(master_seed, paths):
        for i in range(len(lanes)):
            yield lanes.stream(i)


def derive_stream(master_seed: int, labels: Iterable[object]) -> RngStream:
    """Derive the substream identified by a label path such as
    ("scenario", year, replicate, "trip")."""
    return next(derive_streams(master_seed, [labels]))


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
