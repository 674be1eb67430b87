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
    means = np.array([mean], dtype=float)
    ratios = lognormal_ratios(means, np.array([stdev], dtype=float))
    (mu,), (sigma,) = lognormal_params(means, ratios)
    return LogNormalParams(mu=float(mu), sigma=float(sigma))


def lognormal_ratios(means: np.ndarray, stdevs: np.ndarray) -> np.ndarray:
    """The ratios v/m^2 of ``lognormal_from_moments`` elementwise, for
    float arrays of means and stdevs, with its ``ValueError`` for the first
    entry that cannot be matched; 0 where the stdev is 0.

    Every check is made here, with no libm call: ``lognormal_params`` of
    finite positive means and finite ratios is finite.  Products and
    quotients are numpy's, correctly rounded as Python's are.
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
    # A square that overflows gives an infinite or NaN ratio (inf / inf),
    # rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        mean_sq = means * means
        tiny = spread & (mean_sq == 0.0)
        if tiny.any():
            raise ValueError(f"mean {means[tiny][0].item()!r} is too small: "
                             f"its square underflows to 0")
        ratios = np.divide(stdevs * stdevs, mean_sq,
                           out=np.zeros_like(means), where=spread)
    if not np.isfinite(ratios).all():
        raise ValueError("log-normal parameters must be finite")
    return ratios


def lognormal_params(means: np.ndarray,
                     ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(mu, sigma)`` arrays of float arrays of means and their
    ``lognormal_ratios``: mu = ln(m) - sigma^2 / 2, sigma^2 = ln(1 + ratio).

    ``log`` and ``log1p`` are ``math``'s, whose results numpy's vector
    routines do not always reproduce; ``log1p`` is called once per distinct
    ratio (by bit pattern).  A zero ratio gives mu = ln(m) and sigma = 0.
    """
    keys, inverse = np.unique(ratios.reshape(-1).view(np.uint64),
                              return_inverse=True)
    sigma2 = np.fromiter(map(math.log1p, keys.view(float).tolist()), float,
                         keys.size)[inverse]
    # One float at a time: a list of every mean's Python float costs
    # resident memory.
    log_mean = np.fromiter(map(math.log, means.flat), float, means.size)
    mu = (log_mean - 0.5 * sigma2).reshape(means.shape)
    return mu, np.sqrt(sigma2).reshape(means.shape)


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


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The constants of n successive ``hashmix`` calls, one row per call:
    the one it xors in, then the one it multiplies by (the next in turn).
    They do not depend on the data mixed."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array([consts[:-1], consts[1:]], dtype=np.uint32).T.copy()


# The 32 hashmix calls that mix eight entropy words into the pool, and the
# 8 that draw the output words from it.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 32)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix`` of each row of ``values`` with its own constants,
    a row of ``consts``."""
    values = values ^ consts[:, :1]
    values *= consts[:, 1:]
    values ^= values >> 16
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's ``mix`` of ``x`` and ``y``."""
    result = x * _MIX_MULT_L
    result -= y * _MIX_MULT_R
    result ^= result >> 16
    return result


def _state_words(digests: bytes) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` of the entropy e of
    every 32-byte big-endian digest in ``digests``, one row each.

    An entropy of eight 32-bit words (e >= 2**224) is mixed with numpy's
    ``hashmix``/``mix`` arithmetic, a pool or entropy word as a uint32 row
    of all the entropies at once.  A call's constants do not depend on the
    data, so the calls that do not feed each other run as one operation.
    numpy coerces a smaller entropy to fewer words, which mixes
    differently, so those go through ``SeedSequence`` itself.
    """
    rows = np.frombuffer(digests, dtype=np.uint8).reshape(-1, 32)
    # The little-endian bytes of each entropy are its digest reversed.
    data = np.ascontiguousarray(rows[:, ::-1].copy().view("<u4").T,
                                dtype=np.uint32)
    pool = _hashmix(data[:4], _HASH_A[:4])
    # Each pool word mixes a hash of itself into the other three, in turn.
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashes = _hashmix(pool[src], _HASH_A[4 + 3 * src:7 + 3 * src])
        pool[dst] = _mix(pool[dst], hashes)
    # Entropy words 4 to 7 each mix a hash of themselves into all four.
    hashes = _hashmix(np.repeat(data[4:], 4, axis=0), _HASH_A[16:])
    for src in range(4):
        pool = _mix(pool, hashes[4 * src:4 * src + 4])
    state = _hashmix(np.concatenate((pool, pool)), _HASH_B)
    # Output words 2i and 2i + 1 are the low and high halves of uint64 i.
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(
        np.uint64)
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
