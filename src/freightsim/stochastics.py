"""Log-normal moment matching, sampling, and deterministic random substreams.

Every random draw in the simulator comes through an :class:`RngStream`, and
every stream is fully determined by a master seed plus a label path.  That is
what makes whole scenario runs reproducible byte-for-byte regardless of how
replicates are scheduled.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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


class RngStream:
    """An independent pseudo-random substream keyed by (master_seed, labels).

    Identical (seed, labels) pairs reproduce identical sequences; distinct
    label paths give statistically independent sequences.
    """

    def __init__(self, master_seed: int, labels: Iterable[object]):
        self.master_seed = int(master_seed)
        self.labels = tuple(labels)
        entropy = _path_entropy(self.master_seed, self.labels)
        self._gen = np.random.default_rng(np.random.SeedSequence(entropy))

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
    ("scenario", year, replicate, "trip")."""
    return RngStream(master_seed, labels)


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
