"""Random-walk trip generation and per-leg costing.

A trip is split into legs by repeatedly drawing a uniform leg length, each leg
is assigned a mode uniformly at random, and each leg is costed as
distance * weight * operational_cost + weight * handling_cost with both unit
costs sampled from log-normal distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .modes import ModeId
from .stochastics import LogNormalParams, RngStream, lognormal_from_moments


@dataclass(frozen=True)
class TripPlan:
    """Ordered (distance_km, mode) legs; distances sum to the trip distance."""

    legs: tuple[tuple[float, ModeId], ...]

    @property
    def total_distance(self) -> float:
        return math.fsum(d for d, _ in self.legs)


@dataclass(frozen=True)
class TripRecord:
    """Costed outcome of one simulated trip."""

    year: int
    replicate: int
    trip_cost: float
    n_legs: int
    mode_distance_fraction: dict[ModeId, float]


def generate_leg_distances(trip_distance: float, min_leg: float,
                           stream: RngStream) -> list[float]:
    """Split a trip into leg lengths.

    While the remaining distance is at least ``min_leg``, draw the next leg
    uniformly from [min_leg, remaining].  A final remainder shorter than
    ``min_leg`` is appended to the previous leg so no transfer occurs; trips
    shorter than ``min_leg`` degrade to a single leg.
    """
    if trip_distance <= 0:
        raise ValueError(f"trip_distance must be > 0, got {trip_distance}")
    if min_leg <= 0:
        raise ValueError(f"min_leg must be > 0, got {min_leg}")
    legs: list[float] = []
    remaining = trip_distance
    while remaining >= min_leg:
        d = stream.uniform(min_leg, remaining)
        legs.append(d)
        remaining -= d
    if not legs:
        return [trip_distance]
    if remaining > 0:
        legs[-1] += remaining
    # Kill accumulated floating error so the plan sums exactly.
    legs[-1] += trip_distance - math.fsum(legs)
    return legs


def assign_modes(n_legs: int, enabled: Sequence[ModeId],
                 stream: RngStream) -> list[ModeId]:
    """Pick a mode for each leg, independently and uniformly."""
    if not enabled:
        raise ValueError("enabled mode list must be non-empty")
    if n_legs < 1:
        raise ValueError(f"n_legs must be >= 1, got {n_legs}")
    return [enabled[stream.integers(len(enabled))] for _ in range(n_legs)]


def leg_cost(distance: float, weight: float, op_cost: float,
             handling: float) -> float:
    """Cost of one leg: distance*weight*op_cost plus one handling charge."""
    if min(distance, weight, op_cost, handling) < 0:
        raise ValueError("leg cost inputs must be >= 0")
    return distance * weight * op_cost + weight * handling


def simulate_trip(trip_distance: float,
                  weight: float,
                  enabled: Sequence[ModeId],
                  mode_cost_means: Mapping[ModeId, float],
                  handling_params: LogNormalParams,
                  cost_stdev_fractions: Mapping[ModeId, float],
                  year: int,
                  replicate: int,
                  stream: RngStream,
                  min_leg: float = 100.0) -> TripRecord:
    """Simulate and cost one intermodal trip.

    Each leg samples its own operational cost (mean = the mode's current
    mean, stdev = fraction * mean) and its own handling cost; the trip cost
    is the sum of the leg costs.  Handling is charged once per leg,
    including the first.  Once the legs and modes are drawn, every cost
    normal of the trip comes from one draw and is used in (operational,
    handling) order leg by leg; a cost with zero log-space spread draws
    nothing and is exp(mu), as in ``sample_lognormal``.
    """
    distances = generate_leg_distances(trip_distance, min_leg, stream)
    leg_modes = assign_modes(len(distances), enabled, stream)

    op_params: dict[ModeId, LogNormalParams] = {}
    for mode in leg_modes:
        if mode not in op_params:
            mean = mode_cost_means[mode]
            op_params[mode] = lognormal_from_moments(
                mean, cost_stdev_fractions[mode] * mean)
    n_draws = sum(op_params[m].sigma != 0.0 for m in leg_modes)
    if handling_params.sigma != 0.0:
        n_draws += len(leg_modes)
    z = iter(stream.normal(size=n_draws).tolist() if n_draws else ())

    # One scalar np.exp per value: the arithmetic of sample_lognormal, and
    # cheaper than an array call over a trip's few values.
    exp = np.exp
    h = handling_params
    total = 0.0
    per_mode_km = dict.fromkeys(enabled, 0.0)
    for d, mode in zip(distances, leg_modes):
        p = op_params[mode]
        op = (float(exp(p.mu + p.sigma * next(z))) if p.sigma != 0.0
              else math.exp(p.mu))
        handling = (float(exp(h.mu + h.sigma * next(z))) if h.sigma != 0.0
                    else math.exp(h.mu))
        total += leg_cost(d, weight, op, handling)
        per_mode_km[mode] += d

    span = math.fsum(distances)
    fractions = {m: km / span for m, km in per_mode_km.items()}
    return TripRecord(year=year, replicate=replicate, trip_cost=total,
                      n_legs=len(distances), mode_distance_fraction=fractions)
