"""Random-walk trip generation and per-leg costing.

A trip is split into legs by repeatedly drawing a uniform leg length, each leg
is assigned a mode uniformly at random, and each leg is costed as
distance * weight * operational_cost + weight * handling_cost with both unit
costs sampled from log-normal distributions.  A block of trips is drawn at
once, one trip per stream lane (``simulate_trip``); their legs are then
costed together, as columns (``cost_trips``).  ``generate_leg_distances``
and ``assign_modes`` draw one trip from any stream with ``uniform`` and
``integers``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, TypeVar

import numpy as np

from .lanes import RngStream, padded
from .stochastics import LogNormalParams, lognormal_arrays

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
    nothing) and ``drawn``, where sigma is not 0."""

    mu: np.ndarray
    sigma: np.ndarray
    exp_mu: np.ndarray
    drawn: np.ndarray

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
        return cls(mu=mu, sigma=sigma, exp_mu=exp_mu, drawn=~fixed)

    def rows(self, index: np.ndarray) -> "CostTable":
        """The table of rows ``index`` of this one."""
        return CostTable(mu=self.mu[index], sigma=self.sigma[index],
                         exp_mu=self.exp_mu[index], drawn=self.drawn[index])


class TripDraws(NamedTuple):
    """The draws of a block of trips, as columns: each trip's leg count,
    every leg's length and mode (trip by trip, in leg order), and every
    cost normal of the block (trip by trip, in leg order)."""

    n_legs: np.ndarray
    distances: np.ndarray
    modes: np.ndarray
    normals: np.ndarray


def _trip_sums(distances: np.ndarray, starts: np.ndarray,
               ends: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each trip's legs ``distances[starts[i]:ends[i]]``.
    One leg is its own sum and two legs one correctly rounded addition, as
    fsum's; longer trips call fsum."""
    sums = distances[starts]
    n_legs = ends - starts
    two = n_legs == 2
    sums[two] += distances[starts[two] + 1]
    many = np.flatnonzero(n_legs > 2)
    if many.size:
        legs = distances.tolist()
        sums[many] = [math.fsum(legs[a:b]) for a, b in
                      zip(starts[many].tolist(), ends[many].tolist())]
    return sums


def simulate_trip(trip_distance, drawn, handling_drawn: bool, lanes,
                  min_leg: float = 100.0) -> TripDraws:
    """Draw a block of intermodal trips, trip i from lane i of ``lanes``:
    its leg lengths, each leg's mode, then every cost normal of the trip.

    A trip is drawn as ``generate_leg_distances`` and ``assign_modes``
    draw it, all trips at once: the k-th leg of every trip still at least
    ``min_leg`` from its end, then the k-th mode of every trip with a k-th
    leg.  ``trip_distance`` is one float, or one per trip.  ``drawn[m]``
    (or ``drawn[i, m]``, a row per trip) says whether mode m's operational
    cost has a non-zero log-space spread, and ``handling_drawn`` whether
    the handling cost has one.  The normals are used in (operational,
    handling) order leg by leg, one per cost that draws; ``cost_trips``
    costs the legs.
    """
    n = len(lanes)
    distance = np.broadcast_to(np.asarray(trip_distance, dtype=float), n)
    drawn = np.broadcast_to(np.asarray(drawn, dtype=bool),
                            (n, np.shape(drawn)[-1]))
    remaining = distance.copy()
    rounds = []
    active = np.flatnonzero(remaining >= min_leg)
    while active.size:
        active = padded(active)
        d = lanes.uniforms(active, min_leg, remaining[active])
        rounds.append((active, d))
        remaining[active] -= d
        active = active[remaining[active] >= min_leg]

    # A trip shorter than min_leg is one leg of the whole distance.
    n_drawn = np.zeros(n, dtype=np.intp)
    for active, _ in rounds:
        n_drawn[active] += 1
    n_legs = np.maximum(n_drawn, 1)
    ends = np.cumsum(n_legs)
    starts = ends - n_legs
    distances = np.empty(ends[-1] if n else 0)
    whole = n_drawn == 0
    distances[starts[whole]] = distance[whole]
    for k, (active, d) in enumerate(rounds):
        distances[starts[active] + k] = d
    del rounds
    # The remainder joins the last leg, which then takes up the rounding
    # of the legs' sum.
    split = np.flatnonzero(~whole)
    last = ends[split] - 1
    rest = remaining[split]
    distances[last] = np.where(rest > 0, distances[last] + rest,
                               distances[last])
    distances[last] += distance[split] - _trip_sums(distances, starts[split],
                                                    ends[split])

    n_modes = drawn.shape[1]
    modes = np.zeros(len(distances), dtype=np.intp)
    if n_modes > 1:
        active = np.arange(n)
        for k in range(int(n_legs.max(initial=0))):
            active = padded(active[n_legs[active] > k])
            modes[starts[active] + k] = lanes.indices(active, n_modes)
    slots = drawn[np.repeat(np.arange(n), n_legs), modes] + np.intp(
        handling_drawn)
    counts = np.add.reduceat(slots, starts) if n else slots
    del slots
    return TripDraws(n_legs, distances, modes, lanes.normals(counts))


def cost_trips(trips: TripDraws, table: CostTable,
               handling_params: LogNormalParams, weight: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cost the trips ``simulate_trip`` drew, trip i with row i of ``table``;
    return each trip's cost, leg count and per-mode distance fractions
    (registry order).

    Each leg samples its own operational cost (mean = the mode's mean that
    year, stdev = fraction * mean) and its own handling cost, exp(mu +
    sigma * z), or exp(mu) for a cost that draws nothing, as in
    ``sample_lognormal``; handling is charged once per leg, including the
    first.  A trip's cost and each mode's kilometres are summed left to
    right in leg order: ``np.add.at`` adds one index at a time, in index
    order, where numpy's pairwise reductions would round a trip of 8 or
    more legs differently.
    """
    n_legs, distances, modes, z = trips
    n_modes = table.sigma.shape[1]
    trip = np.repeat(np.arange(len(n_legs)), n_legs)
    cell = trip * n_modes
    cell += modes
    drawn = table.sigma.take(cell) != 0.0
    handling_drawn = handling_params.sigma != 0.0
    # The first of each leg's normals in the trips' concatenated draws.
    first = np.cumsum(drawn + np.intp(handling_drawn))
    first -= drawn
    first -= handling_drawn

    # A cost that overflows is inf, as in Python float arithmetic; the
    # caller rejects it.  exp(mu + sigma * z) is formed in place, in the
    # array of z.
    with np.errstate(over="ignore"):
        op_cost = table.exp_mu.take(cell)
        if drawn.any():
            at = cell[drawn]
            x = z[first[drawn]]
            x *= table.sigma.take(at)
            x += table.mu.take(at)
            op_cost[drawn] = np.exp(x, out=x)
        h = handling_params
        if handling_drawn:
            first += drawn
            handling = z[first]
            handling *= h.sigma
            handling += h.mu
            np.exp(handling, out=handling)
        else:
            handling = math.exp(h.mu)
        del first
        cost = np.zeros(len(n_legs))
        np.add.at(cost, trip, leg_cost(distances, weight, op_cost, handling))
    per_mode_km = np.zeros(table.sigma.shape)
    np.add.at(per_mode_km.reshape(-1), cell, distances)
    ends = np.cumsum(n_legs)
    span = _trip_sums(distances, ends - n_legs, ends)
    return cost, n_legs, per_mode_km / span[:, None]
