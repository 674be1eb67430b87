"""Host-speed calibration for the end-to-end times.

On a shared virtual machine the CPU runs at very different speeds for
minutes at a time: on the 2-vCPU Xeon VM the baseline was recorded on, the
same pipeline ran 1.5-1.8x faster in some stretches than in others, and
within a stretch it switched between a fast and a slow state every fraction
of a second to a few seconds.  Wall-clock figures from two such stretches cannot be compared.

So the benchmark times a fixed reference workload next to every timed
operation and rescales each measured time to the speed at which the
reference takes ``REFERENCE_S`` seconds:

    scaled_time = measured_time * REFERENCE_S / reference_time

The reference shares no code with freightsim (it uses only the interpreter,
hashlib and numpy, in the mix the pipeline uses), so a change to freightsim
moves the scaled time by the same factor as the wall time.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

# About the duration of reference_seconds() on the machine the baseline was
# recorded on, in its slower state.  Any fixed value works; it only sets the
# scale of the reported figures.
REFERENCE_S = 0.05

_ROUNDS = 1200


def reference_seconds() -> float:
    """Wall time of one fixed, deterministic reference workload."""
    t0 = time.perf_counter()
    acc = 0.0
    rows = []
    for i in range(_ROUNDS):
        digest = hashlib.sha256(str(i).encode("utf-8")).digest()
        gen = np.random.default_rng(
            np.random.SeedSequence(int.from_bytes(digest, "big")))
        for _ in range(8):
            acc += math.exp(0.1 * float(gen.normal()))
        record = {"cost": acc, "index": i}
        rows.append(",".join((format(record["cost"], ".17g"),
                              str(record["index"]))))
    return time.perf_counter() - t0


def scaled(measured_s: float, reference_s: float) -> float:
    """A measured time rescaled to the reference speed."""
    return measured_s * REFERENCE_S / reference_s
