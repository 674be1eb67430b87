"""Random-walk trip generation and per-leg costing.

A trip is split into legs by repeatedly drawing a uniform leg length, each leg
is assigned a mode uniformly at random, and each leg is costed as
distance * weight * operational_cost + weight * handling_cost with both unit
costs sampled from log-normal distributions.  Trips are drawn one by one
(``simulate_trip``); the legs of a replicate's trips are then costed together,
as columns (``cost_trips``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TypeVar

import numpy as np

from .stochastics import LogNormalParams, RngStream, lognormal_arrays

_T = TypeVar("_T")


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


def assign_modes(n_legs: int, enabled: Sequence[_T],
                 stream: RngStream) -> list[_T]:
    """Pick one of ``enabled`` (mode ids, or mode indices) for each leg,
    independently and uniformly."""
    if not enabled:
        raise ValueError("enabled mode list must be non-empty")
    if n_legs < 1:
        raise ValueError(f"n_legs must be >= 1, got {n_legs}")
    return [enabled[stream.integers(len(enabled))] for _ in range(n_legs)]


def leg_cost(distance, weight, op_cost, handling):
    """Cost of one leg, or of every leg of equal-shaped arrays:
    distance*weight*op_cost plus one handling charge."""
    if min(np.min(distance), weight, np.min(op_cost), np.min(handling)) < 0:
        raise ValueError("leg cost inputs must be >= 0")
    return distance * weight * op_cost + weight * handling


@dataclass(frozen=True)
class CostTable:
    """Log-normal parameters of a table of means indexed ``[row, mode]``,
    such as the operational costs of one cost trajectory (a row per year)
    or the improvement rates of a run (one row): ``mu``, ``sigma``,
    ``exp_mu`` (exp(mu) where sigma is 0, the value of a slot that draws
    nothing) and ``drawn``, the rows of ``sigma != 0`` as lists for
    ``simulate_trip``."""

    mu: np.ndarray
    sigma: np.ndarray
    exp_mu: np.ndarray
    drawn: list[list[bool]]

    @classmethod
    def from_means(cls, means: np.ndarray,
                   stdev_fractions: np.ndarray) -> "CostTable":
        """The table of ``(rows, modes)`` means whose stdev is each mode's
        fraction of its mean; raises ``lognormal_from_moments``'
        ``ValueError`` if any entry cannot be matched."""
        mu, sigma = lognormal_arrays(means, stdev_fractions * means)
        fixed = sigma == 0.0
        exp_mu = np.zeros_like(mu)
        exp_mu[fixed] = list(map(math.exp, mu[fixed].tolist()))
        return cls(mu=mu, sigma=sigma, exp_mu=exp_mu,
                   drawn=(~fixed).tolist())


# A trip's draws: leg lengths, leg modes and its cost normals (None when no
# cost of the trip draws).
TripDraws = tuple[list[float], list[int], "np.ndarray | None"]


def simulate_trip(trip_distance: float, drawn: Sequence[bool],
                  handling_drawn: bool, stream: RngStream,
                  min_leg: float = 100.0) -> TripDraws:
    """Draw one intermodal trip over modes given in registry order: its leg
    lengths, each leg's mode, and every cost normal of the trip in one draw.

    ``drawn[m]`` says whether mode m's operational cost has a non-zero
    log-space spread this year, and ``handling_drawn`` whether the handling
    cost has one.  The normals are used in (operational, handling) order
    leg by leg, one per cost that draws; ``cost_trips`` costs the legs.
    """
    distances = generate_leg_distances(trip_distance, min_leg, stream)
    leg_modes = assign_modes(len(distances), range(len(drawn)), stream)
    n_draws = [drawn[m] for m in leg_modes].count(True)
    if handling_drawn:
        n_draws += len(leg_modes)
    return (distances, leg_modes,
            stream.normal(size=n_draws) if n_draws else None)


def cost_trips(trips: Sequence[TripDraws], table: CostTable,
               handling_params: LogNormalParams, weight: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cost the trips ``simulate_trip`` drew, trip i with row i of ``table``
    and its ``drawn`` flags; return each trip's cost, leg count and
    per-mode distance fractions (registry order).

    Each leg samples its own operational cost (mean = the mode's mean that
    year, stdev = fraction * mean) and its own handling cost, exp(mu +
    sigma * z), or exp(mu) for a cost that draws nothing, as in
    ``sample_lognormal``; handling is charged once per leg, including the
    first.  A trip's cost and each mode's kilometres are summed left to
    right in leg order: ``np.add.at`` adds one index at a time, in index
    order, where numpy's pairwise reductions would round a trip of 8 or
    more legs differently.
    """
    n_legs = np.array([len(trip_legs) for trip_legs, _, _ in trips])
    distances = np.array([d for trip_legs, _, _ in trips for d in trip_legs])
    modes = np.array([m for _, leg_modes, _ in trips for m in leg_modes])
    n_modes = table.sigma.shape[1]
    trip = np.repeat(np.arange(len(trips)), n_legs)
    cell = trip * n_modes + modes
    sigma = table.sigma.take(cell)
    drawn = sigma != 0.0
    handling_drawn = handling_params.sigma != 0.0
    # The first of each leg's normals in the trips' concatenated draws.
    slots = drawn.astype(np.intp) + handling_drawn
    first = np.cumsum(slots) - slots
    normals = [z for _, _, z in trips if z is not None]
    z = np.concatenate(normals) if normals else None

    # A cost that overflows is inf, as in Python float arithmetic; the
    # caller rejects it.
    with np.errstate(over="ignore"):
        op_cost = table.exp_mu.take(cell)
        if drawn.any():
            op_cost[drawn] = np.exp(table.mu.take(cell[drawn])
                                    + sigma[drawn] * z[first[drawn]])
        h = handling_params
        handling = (np.exp(h.mu + h.sigma * z[first + drawn])
                    if handling_drawn else math.exp(h.mu))
        cost = np.zeros(len(trips))
        np.add.at(cost, trip, leg_cost(distances, weight, op_cost, handling))
    per_mode_km = np.zeros(table.sigma.shape)
    np.add.at(per_mode_km.reshape(-1), cell, distances)
    span = np.array([math.fsum(trip_legs) for trip_legs, _, _ in trips])
    return cost, n_legs, per_mode_km / span[:, None]
