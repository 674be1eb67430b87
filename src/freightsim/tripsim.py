"""Random-walk trip generation and per-leg costing.

A trip is split into legs by repeatedly drawing a uniform leg length, each leg
is assigned a mode uniformly at random, and each leg is costed as
distance * weight * operational_cost + weight * handling_cost with both unit
costs sampled from log-normal distributions.  A block of trips is drawn at
once, one trip per stream lane (``simulate_trip``), which counts each
trip's drawing operational costs as it draws the modes; the caller draws
the block's cost normals in one call, and the legs are costed together, as
columns, a run of trips at a time, each run from its own slice of the
normals (``cost_trips``).  The last leg's rounding correction and the
distance fractions' denominator are each trip's legs summed as
``math.fsum`` sums them, by one error-free split of the legs into two
parts whose sums are exact (``_trip_sums``, by ``group_fsums``, which
``analysis.summarize`` also uses), with no Python call per trip.  Costs
and sums take runs of whole trips of about ``_LEG_SLICE`` legs (``cuts``).
``generate_leg_distances`` and ``assign_modes`` draw one trip from any
stream with ``uniform`` and ``integers``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, TypeVar

import numpy as np

from .config import ConfigError
from .lanes import cuts
from .stochastics import LogNormalParams, lognormal_params, lognormal_ratios

_T = TypeVar("_T")

# Legs whose work arrays are alive together: a block's legs are costed and
# summed, and a cost table's cells checked, about this many at a time, so
# those arrays stay the same size however wide the block.
_LEG_SLICE = 8192
# The exponent field's place in a double's bits, and a one, as uint64.
_FIELD = np.uint64(52)
_ONE = np.uint64(1)


def generate_leg_distances(trip_distance: float, min_leg: float,
                           stream: np.random.Generator) -> list[float]:
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
    if legs[-1] < 0:
        raise _rounding_error(trip_distance, min_leg)
    return legs


def _rounding_error(trip_distance: float, min_leg: float) -> ConfigError:
    """The error for a trip whose legs' rounding, taken up by its last leg,
    leaves that leg below 0."""
    return ConfigError(
        f"trip_distance_km must be well below 2^52 x min_leg_km: the "
        f"rounding of the legs of a {trip_distance!r} km trip with legs of "
        f"at least {min_leg!r} km exceeds its last leg")


def assign_modes(n_legs: int, enabled: Sequence[_T],
                 stream: np.random.Generator) -> list[_T]:
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


class CostTable:
    """Log-normal parameters of a table of means indexed ``[row, mode]``,
    such as the operational costs of one or more cost trajectories (a row
    per year) or the improvement rates of a run (one row).

    Every entry is checked when the table is made, ``_LEG_SLICE`` cells
    at a time, and nothing is written after that.  The check keeps, in
    ``drawn``, whether each cell draws a normal: whether its ratio v/m^2
    is not 0 (1 byte a cell), the one test of which cells draw.  That is
    whether its sigma, sqrt(log1p(ratio)), is not 0, since that is above
    0 for every positive ratio, subnormals included.  ``at`` computes the
    ``mu``, ``sigma`` and ``exp_mu`` (exp(mu) where the cell draws
    nothing, its value; 0 elsewhere) of the cells it is asked for, each
    distinct cell once per call, and keeps none of them.
    """

    def __init__(self, means: np.ndarray, stdev_fractions: np.ndarray):
        """The table of ``(rows, modes)`` means whose stdev is each mode's
        fraction of its mean; raises ``lognormal_from_moments``'
        ``ValueError`` if any entry cannot be matched."""
        self.means = means
        self.stdev_fractions = stdev_fractions
        self.drawn = np.empty(means.shape, dtype=bool)
        step = max(1, _LEG_SLICE // max(1, means.shape[-1]))
        for a in range(0, len(means), step):
            rows = means[a:a + step]
            ratios = lognormal_ratios(rows, stdev_fractions * rows)
            self.drawn[a:a + step] = ratios != 0.0

    def at(self, cells: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``mu``, ``sigma`` and ``exp_mu`` of the cells ``cells``, indices
        into the table's flattened ``[row, mode]`` order.  Each distinct
        cell is computed once, in a window from the lowest cell asked for
        to the highest, so the work arrays are the size of that span."""
        low = cells.min(initial=self.means.size)
        cells = cells - low
        wanted = np.zeros(cells.max(initial=0) + 1, dtype=bool)
        wanted[cells] = True
        used = np.flatnonzero(wanted)
        # Each cell's place among the distinct cells, in table order.
        place = np.cumsum(wanted, dtype=np.intp)
        place -= 1
        cells = place.take(cells)
        del wanted, place
        used += low
        means = self.means.take(used)
        fractions = self.stdev_fractions.take(used % self.means.shape[-1])
        mu, sigma = lognormal_params(
            means, lognormal_ratios(means, fractions * means))
        exp_mu = np.zeros_like(mu)
        fixed = ~self.drawn.take(used)
        exp_mu[fixed] = list(map(math.exp, mu[fixed].tolist()))
        return mu.take(cells), sigma.take(cells), exp_mu.take(cells)


class TripDraws(NamedTuple):
    """A block of trips as ``simulate_trip`` draws them, as columns: each
    trip's leg count, every leg's length and mode (trip by trip, in leg
    order), and each trip's count of legs whose operational cost draws a
    normal.  Their cost normals come after, from the trips' lanes."""

    n_legs: np.ndarray
    distances: np.ndarray
    modes: np.ndarray
    op_draws: np.ndarray

    def cuts(self) -> list[int]:
        """The first trip of each run of trips that ``cost_trips`` takes at
        once, then the trip count: ``cuts`` of the legs by
        ``_LEG_SLICE``."""
        return cuts(self.n_legs, _LEG_SLICE)

    def part(self, a: int, b: int) -> "TripDraws":
        """Trips a to b, as views."""
        first = int(self.n_legs[:a].sum())
        last = first + int(self.n_legs[a:b].sum())
        return TripDraws(self.n_legs[a:b], self.distances[first:last],
                         self.modes[first:last], self.op_draws[a:b])


def group_fsums(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each group of ``x``, whose values are stored group
    by group, ``n[i]`` (at least 1) of them for group i.

    fsum rounds the exact sum once, so any exact method gives its bits.
    Each value x of a group whose values are non-negative, below 2^e and
    number at most 2^(t - 1) splits into q = (x + 2^(e + t)) - 2^(e + t)
    and p = x - q with no rounding (Rump, Ogita and Oishi, SIAM J. Sci.
    Comput. 31(1), 2008).  The q's are multiples of 2^(e + t - 52) below
    2^(e + t) in sum, so they add exactly in any order; the p's are
    multiples of the ulp of the group's smallest non-zero value below
    2^(e + 2t - 54) in sum, so they do too where the exponents of the
    non-zero values span at most 52 - 2t.  Q + P then rounds once.  A group
    with a negative or non-finite value, a wider span, or a 2^(e + t) that
    overflows calls fsum, and so raises fsum's error where fsum does."""
    starts = np.add.accumulate(n)
    starts -= n
    # The bits of non-negative doubles order as the doubles do; a zero's
    # bits less 1 wrap to the largest, so the lowest is that of the
    # smallest non-zero value.  A value whose exponent field is b
    # (b >= 2047 for a negative or non-finite value) is below 2^(b - 1022)
    # and a multiple of 2^(max(b, 1) - 1075).
    bits = x.view(np.uint64)
    top = np.maximum.reduceat(bits, starts)
    top >>= _FIELD
    top = top.view(np.int64)
    low = np.minimum.reduceat(bits - _ONE, starts)
    low += _ONE
    low >>= _FIELD
    low = np.maximum(low.view(np.int64), 1)
    t = np.frexp(n + n - 1)[1]  # 2^t >= 2n
    top += t
    low -= t
    exact = top - low <= 52  # the span, plus 2t
    top -= 1022  # 2^top is 2^(e + t)
    exact &= top <= 1023  # so finite, and b < 2047
    # A group that calls fsum splits by NaN, which raises no warning where
    # its sums would overflow or take inf - inf.
    split = np.repeat(np.ldexp(np.where(exact, 1.0, np.nan), top), n)
    q = x + split
    q -= split
    p = np.subtract(x, q, out=split)
    sums = np.add.reduceat(q, starts)
    sums += np.add.reduceat(p, starts)
    if not exact.all():
        for i in np.flatnonzero(~exact).tolist():
            sums[i] = math.fsum(x[starts[i]:starts[i] + n[i]].tolist())
    return sums


def _trip_sums(distances: np.ndarray, n_legs: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each trip's legs, stored trip by trip, ``n_legs[i]``
    of them for trip i, by ``group_fsums`` on each run of ``cuts(n_legs,
    _LEG_SLICE)``, unless every trip is one leg, its own sum."""
    if len(distances) == len(n_legs):
        return distances.copy()
    ends = np.cumsum(n_legs)
    edges = cuts(n_legs, _LEG_SLICE)
    return np.concatenate([
        group_fsums(distances[ends[a] - n_legs[a]:ends[b - 1]], n_legs[a:b])
        for a, b in zip(edges, edges[1:])])


def _legs(distance: np.ndarray, min_leg: float,
          lanes) -> tuple[np.ndarray, np.ndarray]:
    """Each trip's leg count and every leg's length, trip by trip, as
    ``simulate_trip`` draws them: trip i, of length ``distance[i]``, from
    lane i of ``lanes``."""
    n = len(lanes)
    remaining = distance.copy()
    n_drawn = np.zeros(n, dtype=np.intp)
    # Round k draws the k-th leg of the trips whose n_drawn ends above k,
    # in lane order, so each round keeps its lengths only.
    rounds = []
    active = np.flatnonzero(remaining >= min_leg)
    while active.size:
        d = lanes.uniforms(active, min_leg, remaining[active])
        rounds.append(d)
        n_drawn[active] += 1
        remaining[active] -= d
        active = active[remaining[active] >= min_leg]

    # A trip shorter than min_leg is one leg of the whole distance.
    n_legs = np.maximum(n_drawn, 1)
    ends = np.cumsum(n_legs)
    starts = ends - n_legs
    distances = np.empty(ends[-1] if n else 0)
    whole = n_drawn == 0
    distances[starts[whole]] = distance[whole]
    for k, d in enumerate(rounds):
        distances[starts[n_drawn > k] + k] = d
    del rounds
    # The remainder joins the last leg, which then takes up the rounding
    # of the legs' sum.
    split = np.flatnonzero(~whole)
    last = ends[split] - 1
    rest = remaining[split]
    distances[last] = np.where(rest > 0, distances[last] + rest,
                               distances[last])
    distances[last] += distance[split] - _trip_sums(distances, n_legs)[split]
    below = np.flatnonzero(distances[last] < 0)
    if below.size:
        raise _rounding_error(float(distance[split[below[0]]]), min_leg)
    return n_legs, distances


def simulate_trip(trip_distance, drawn: np.ndarray, lanes,
                  min_leg: float = 100.0) -> TripDraws:
    """Draw a block of intermodal trips, trip i from lane i of ``lanes``:
    its leg lengths, each leg's mode, one of the ``drawn.shape[1]``, and
    its count of legs whose operational cost draws, ``drawn[i, mode]``
    (a ``(trips, modes)`` bool array).

    A trip is drawn as ``generate_leg_distances`` and ``assign_modes``
    draw it, all trips at once: the k-th leg of every trip still at least
    ``min_leg`` from its end, then the k-th mode of every trip with a k-th
    leg, which is counted as it is drawn.  ``trip_distance`` is one float,
    or one per trip.  The flags move no draw; the cost normals come after,
    from the same lanes.
    """
    n = len(lanes)
    n_modes = drawn.shape[1]
    n_legs, distances = _legs(
        np.broadcast_to(np.asarray(trip_distance, dtype=float), n), min_leg,
        lanes)
    modes = np.zeros(len(distances), dtype=np.min_scalar_type(n_modes - 1))
    if n_modes > 1:
        op_draws = np.zeros(n, dtype=np.intp)
        starts = np.cumsum(n_legs)
        starts -= n_legs
        active = np.arange(n)
        for k in range(int(n_legs.max(initial=0))):
            active = active[n_legs[active] > k]
            m = lanes.indices(active, n_modes)
            modes[starts[active] + k] = m
            op_draws[active] += drawn[active, m]
    else:
        op_draws = n_legs * drawn[:, 0]
    return TripDraws(n_legs, distances, modes, op_draws)


def cost_trips(trips: TripDraws, table: CostTable,
               handling_params: LogNormalParams, weight: float,
               rows: np.ndarray, z: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cost the trips ``simulate_trip`` drew, trip i with row ``rows[i]``
    of ``table``, from ``z``, their cost normals, trip by trip (its
    ``op_draws``, plus one a leg if handling draws); return each trip's
    cost, leg count and per-mode distance fractions (registry order).

    Each leg samples its own operational cost (mean = the mode's mean that
    year, stdev = fraction * mean) and its own handling cost, exp(mu +
    sigma * z), or exp(mu) for a cost whose sigma is 0, which draws
    nothing, as in ``sample_lognormal``; handling is charged once per leg,
    including the first.  A trip takes one normal per cost that draws, in
    (operational, handling) order leg by leg.  Only the table cells the
    legs use are costed, each once per call (``CostTable.at``).  A trip's
    cost and each mode's kilometres are summed left to right in leg order:
    ``np.add.at`` adds one index at a time, in index order, where numpy's
    pairwise reductions would round a trip of 8 or more legs differently.
    """
    n_legs, distances, modes, _ = trips
    n_modes = table.means.shape[1]
    # Each leg's trip and cell of the table: its trip's row, its own mode.
    trip = np.repeat(np.arange(len(n_legs)), n_legs)
    cell = rows.take(trip)
    cell *= n_modes
    cell += modes
    drawn = table.drawn.take(cell)
    mu, sigma, op_cost = table.at(cell)
    del cell
    h = handling_params
    # The first of each leg's normals in z: those of the legs before it.
    first = np.cumsum(drawn + np.intp(h.draws))
    first -= drawn
    first -= h.draws

    # A cost that overflows is inf, as in Python float arithmetic; the
    # caller rejects it.  exp(mu + sigma * z) is formed in place, in a
    # copy of the normals.  Each leg-sized array is freed once it is used.
    with np.errstate(over="ignore"):
        if drawn.any():
            x = z[first[drawn]]
            x *= sigma[drawn]
            x += mu[drawn]
            op_cost[drawn] = np.exp(x, out=x)
            del x
        del mu, sigma
        if h.draws:
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
        del op_cost, handling
    per_mode_km = np.zeros((len(n_legs), n_modes))
    trip *= n_modes
    trip += modes
    np.add.at(per_mode_km.reshape(-1), trip, distances)
    del trip
    per_mode_km /= _trip_sums(distances, n_legs)[:, None]
    return cost, n_legs, per_mode_km
