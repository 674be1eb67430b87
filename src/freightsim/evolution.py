"""Annual cost evolution and the Monte-Carlo scenario engine.

Each replicate simulates one trip per year with the modes' mean costs from a
cost trajectory: its own, or one shared by all replicates.  A trajectory
compounds every mode's cost down by a sampled improvement rate each year.
All randomness flows through substreams derived from the scenario seed and
(year, replicate) labels, so results are independent of the order the
replicates run in.  ``run_scenario`` runs the replicates in groups: each
group's trajectories are drawn just before its trips, and only the trip
table outlives a group (``replicate_trajectories`` draws any replicates'
trajectories again).
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .config import (ConfigError, ScenarioConfig, config_fingerprint,
                     resolve_registry)
from . import stochastics
from .modes import ModeId, ModeRegistry, ModeSpec, adjust_reference_cost
# derive_stream, which the engine does not call, stays bound here: the
# benchmark's self-test checks that tracing restores it in this module.
from .lanes import Lanes
from .stochastics import (LogNormalParams, derive_stream,  # noqa: F401
                          lognormal_from_moments, lognormal_ratios,
                          seed_lanes)
from .tripsim import CostTable, cost_trips, simulate_trip

_MAX_RATE_REDRAWS = 100
_RATE_CLAMP = 0.99


def _unmatched(fields: str, exc: ValueError) -> ConfigError:
    """The error for config ``fields`` that no log-normal matches."""
    return ConfigError(f"{fields} must be such that a log-normal with finite "
                       f"parameters matches them: {exc}")


def _param_table(specs: Sequence[ModeSpec], means: np.ndarray,
                 mean_field: str, fraction_field: str) -> CostTable:
    """The log-normal table of ``means`` (one column per spec of ``specs``),
    each mode's stdev its ``fraction_field`` share of its mean.  Every entry
    is checked; one that no log-normal matches is a ConfigError naming the
    first such mode and its ``mean_field`` and ``fraction_field``."""
    fractions = np.array([getattr(s, fraction_field) for s in specs])
    try:
        return CostTable(means, fractions)
    except ValueError:
        # Find the mode: the error path alone pays for a call per mode.
        for spec, fraction, column in zip(specs, fractions, means.T):
            try:
                lognormal_ratios(column, fraction * column)
            except ValueError as exc:
                raise _unmatched(f"modes[{spec.id!r}]: {mean_field} and "
                                 f"{fraction_field}", exc) from None
        raise


@dataclass(frozen=True)
class RateModel:
    """Improvement-rate distributions of a registry's modes, in registry
    order, computed once per run.

    ``fixed`` holds the rate of every mode that draws nothing (rate mean 0,
    or a zero log-space spread, as its ``CostTable.drawn`` says) and 0 for
    the others; ``drawn`` indexes the modes that draw, with their
    log-normal parameters in ``mu`` and ``sigma``.
    """

    fixed: np.ndarray
    drawn: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    @classmethod
    def from_registry(cls, registry: ModeRegistry) -> "RateModel":
        rated = np.array([s.improvement_rate_mean != 0.0 for s in registry],
                         dtype=bool)
        specs = [s for s, r in zip(registry, rated) if r]
        table = _param_table(
            specs, np.array([[s.improvement_rate_mean for s in specs]]),
            "improvement_rate_mean", "rate_stdev_fraction")
        mu, sigma, exp_mu = table.at(np.arange(len(specs)))
        spread = table.drawn[0]
        fixed = np.zeros(len(registry))
        # A redraw of a fixed rate gives the same value, so a rate >= 1
        # ends at the clamp; exp_mu is 0 for the modes that draw.
        fixed[rated] = np.where(exp_mu < 1.0, exp_mu, _RATE_CLAMP)
        return cls(fixed=fixed, drawn=np.flatnonzero(rated)[spread],
                   mu=mu[spread], sigma=sigma[spread])


def _redraw_rates(rates: RateModel, z: np.ndarray, sampled: np.ndarray,
                  lanes: Lanes) -> None:
    """Redraw in place every rate >= 1 of ``sampled``, row i on lane i:
    each mode in turn, in registry order, draws again until its rate is
    below 1 or it has redrawn ``_MAX_RATE_REDRAWS`` times, when it takes
    the clamp.  A row takes its normals in order: the rest of its batch
    ``z`` (the columns after its first rate >= 1), then its lane's next.

    Each round draws one normal for the current mode of every row still
    redrawing: from ``z``, or from one ``Lanes.normals`` call for the rows
    whose batch is used up.  A row's modes before its first rate >= 1 keep
    their rates."""
    k = z.shape[1]
    rows = np.flatnonzero((sampled >= 1.0).any(axis=1))
    mode = (sampled[rows] >= 1.0).argmax(axis=1)
    rate = sampled[rows, mode]
    # Normals each row has taken, and redraws of its current mode.
    used, tries = mode + 1, np.zeros(rows.size, dtype=np.intp)
    counts = np.zeros(len(lanes), dtype=np.intp)
    while True:
        settled = (rate < 1.0) | (tries >= _MAX_RATE_REDRAWS)
        sampled[rows[settled], mode[settled]] = np.where(
            rate[settled] < 1.0, rate[settled], _RATE_CLAMP)
        # A settled row's next normal is its next mode's first draw.
        mode[settled] += 1
        tries[settled] = -1
        more = mode < k
        if not more.any():
            return
        rows, mode, used, tries = (a[more] for a in (rows, mode, used, tries))
        z_row = np.empty(rows.size)
        batched = used < k
        z_row[batched] = z[rows[batched], used[batched]]
        fresh = rows[~batched]
        if fresh.size:
            counts[fresh] = 1
            z_row[~batched] = lanes.normals(counts)
            counts[fresh] = 0
        used += 1
        tries += 1
        rate = rates.sigma[mode] * z_row
        rate += rates.mu[mode]
        np.exp(rate, out=rate)


def evolve_mode_state(rates: RateModel, lanes: Lanes) -> np.ndarray:
    """One year's factors 1 - r of every mode on each lane of a block, a
    ``(lanes, modes)`` array in the order of the registry ``rates`` was
    built from, each mode's r sampled log-normally around its improvement
    rate.

    Each lane's drawing modes take one normal each, in registry order, in a
    single draw.  Sampled rates are strictly positive, so every factor is
    below 1 whenever the mean rate is positive.  A draw >= 1 (possible only
    for extreme user configurations) is re-drawn, then clamped to 0.99 as a
    last resort, from that lane alone (``_redraw_rates``).
    """
    n = len(lanes)
    k = rates.drawn.size
    if k:
        z = lanes.normals(np.full(n, k)).reshape(n, k)
        # exp(mu + sigma * z), formed in place.
        sampled = rates.sigma * z
        sampled += rates.mu
        np.exp(sampled, out=sampled)
        if (sampled >= 1.0).any():
            _redraw_rates(rates, z, sampled, lanes)
        # The normals are freed before the steps are laid out.
        del z
    step = np.tile(1.0 - rates.fixed, (n, 1))
    if k:
        step[:, rates.drawn] = np.subtract(1.0, sampled, out=sampled)
    return step


@dataclass(frozen=True)
class TripRecord:
    """One simulated trip, as ``ResultSet.records`` presents it."""

    year: int
    replicate: int
    trip_cost: float
    n_legs: int
    mode_distance_fraction: dict[ModeId, float]


@dataclass
class ResultSet:
    """A run's registry and trip table, indexed ``[year - start_year,
    replicate]``: ``cost``, ``n_legs`` and ``frac[..., mode]`` (each mode's
    share of the trip distance, in registry order).
    ``replicate_trajectories`` gives the mean costs each trip was costed
    with."""

    config: ScenarioConfig
    registry: ModeRegistry
    cost: np.ndarray
    n_legs: np.ndarray
    frac: np.ndarray

    @property
    def fingerprint(self) -> str:
        """The ``config_fingerprint`` of the config that was run."""
        return config_fingerprint(self.config)

    @property
    def records(self) -> "_RecordsView":
        """The trips as TripRecords, built on access."""
        return _RecordsView(self)


@dataclass(frozen=True, eq=False)
class _RecordsView(Sequence):
    """Read-only sequence of a ResultSet's trips; index i is the trip of
    year ``start_year + i // iterations`` and replicate ``i % iterations``."""

    results: ResultSet

    def __len__(self) -> int:
        return self.results.cost.size

    def __getitem__(self, index: int) -> TripRecord:
        r = self.results
        t, rep = divmod(range(len(self))[index], r.cost.shape[1])
        return TripRecord(
            year=r.config.start_year + t, replicate=rep,
            trip_cost=float(r.cost[t, rep]), n_legs=int(r.n_legs[t, rep]),
            mode_distance_fraction=dict(zip(r.registry.ids(),
                                            r.frac[t, rep].tolist())))


def _seed_paths(config: ScenarioConfig, years: range,
                tails: Iterable[bytes]) -> Lanes:
    """The lanes of the label paths ``("scenario", year, *tail)`` for each
    tail of ``tails`` and, within it, each year of ``years``, seeded as one
    block.  A path's ``_path_text`` is its year's head, formatted once per
    year, and its tail (its replicate and kind, as text); the texts are
    formed as they are hashed, so no list of them is held."""
    prefix = b"%d\x1fscenario\x1f" % config.seed
    heads = [prefix + b"%d\x1f" % year for year in years]
    return seed_lanes(head + tail for tail in tails for head in heads)


def _trajectories(config: ScenarioConfig, registry: ModeRegistry,
                  tails: Iterable[bytes], out: np.ndarray) -> np.ndarray:
    """Fill and return ``out``, the ``[trajectory, year, mode]`` mean costs
    of one or more trajectories, one per rate-path tail of ``tails``, each
    stepped once per year in [start, end) on the lane of its path of that
    year.  The steps are drawn as one block: each lane's factors 1 - r are
    written in their year's slot, then multiplied up from the start year's
    costs.  A single-year run has no steps and seeds no lanes."""
    steps = out.shape[1] - 1
    rates = RateModel.from_registry(registry)
    out[:, 0] = [adjust_reference_cost(s.base_cost_mean,
                                       s.improvement_rate_mean, s.base_year,
                                       config.start_year) for s in registry]
    if steps:
        lanes = _seed_paths(config, range(config.start_year,
                                          config.end_year), tails)
        q = np.arange(len(lanes))
        out.reshape(-1, out.shape[2])[q + q // steps + 1] = (
            evolve_mode_state(rates, lanes))
    return np.multiply.accumulate(out, axis=1, out=out)


def compute_shared_means(config: ScenarioConfig,
                         registry: ModeRegistry) -> np.ndarray:
    """The one ``(years, modes)`` cost trajectory all replicates share,
    stepped on the lanes of its ``"shared-rates"`` paths."""
    years = config.end_year - config.start_year + 1
    return _trajectories(config, registry, [b"shared-rates"],
                         np.empty((1, years, len(registry))))[0]


def replicate_trajectories(config: ScenarioConfig, registry: ModeRegistry,
                           replicates: range) -> np.ndarray:
    """The ``[replicate, year - start_year, mode]`` mean costs each trip of
    the replicates ``replicates`` is costed with, in registry order.

    Per-replicate, each is the replicate's own trajectory, stepped on the
    lanes of its ``"rates"`` paths, seeded for all of ``replicates`` as one
    block; shared, each is a read-only broadcast of the one trajectory
    (``compute_shared_means``).  A path's stream does not depend on the
    block it is seeded in, so any replicates give the rows ``run_scenario``
    costs their trips with."""
    if config.evolution_policy == "shared":
        trajectory = compute_shared_means(config, registry)
        return np.broadcast_to(trajectory,
                               (len(replicates), *trajectory.shape))
    years = config.end_year - config.start_year + 1
    return _trajectories(config, registry,
                         (b"%d\x1frates" % rep for rep in replicates),
                         np.empty((len(replicates), years, len(registry))))


def _cost_table(registry: ModeRegistry, means: np.ndarray) -> CostTable:
    """The parameter table of the ``(years, modes)`` trajectory ``means``."""
    return _param_table(list(registry), means, "base_cost_mean",
                        "cost_stdev_fraction")


def run_replicate(config: ScenarioConfig,
                  table: CostTable,
                  handling_params: LogNormalParams,
                  lanes: Lanes,
                  rows: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate a block of trips, trip i from lane i of ``lanes`` with the
    mode means of row ``rows[i]`` of ``table``, and return their ``cost``,
    ``n_legs`` and ``frac`` columns.

    A block is any run of trips: one replicate's years, with ``table`` its
    ``(years, modes)`` trajectory, or a replicate group's trip paths, with
    ``table`` the group's trajectories or the one shared trajectory.  The
    block's legs and modes are drawn at once, each trip's drawing
    operational costs counted from its row of ``CostTable.drawn`` as its
    modes are drawn.  Every trip's cost normals, those and one a leg if
    handling draws, are then drawn in one ``Lanes.normals`` call for the
    block, and its legs are costed one run of trips at a time
    (``TripDraws.cuts``), each run with ``table``, its own trips' rows and
    its own trips' slice of the normals.
    """
    trips = simulate_trip(config.trip_distance_km,
                          table.drawn.take(rows, axis=0), lanes,
                          min_leg=config.min_leg_km)
    counts = trips.op_draws + trips.n_legs * handling_params.draws
    z = lanes.normals(counts)
    # Trip i's normals end at ends[i].
    ends = np.cumsum(counts)
    n = len(lanes)
    cost, n_legs, frac = (np.empty(n), np.empty(n, dtype=np.intp),
                          np.empty((n, table.means.shape[1])))
    cuts = trips.cuts()
    for a, b in zip(cuts, cuts[1:]):
        cost[a:b], n_legs[a:b], frac[a:b] = cost_trips(
            trips.part(a, b), table, handling_params, config.freight_tonnes,
            rows[a:b], z[ends[a] - counts[a]:ends[b - 1]])
    return cost, n_legs, frac


def run_scenario(config: ScenarioConfig, *, workers: int = 1) -> ResultSet:
    """Run every replicate of the config into the trip table.  ``workers``
    is accepted for old callers and ignored.

    The trip table is allocated before any stream is drawn, so a run too
    large for memory fails at once.  The replicates then run in balanced
    groups of at most ``stochastics._CHUNK // years`` replicates (8,192
    trip paths), or of one replicate if its years are more.  Per-replicate,
    a group's rate paths are seeded as one block of lanes and its
    trajectories stepped (``replicate_trajectories``); then its trip paths
    are seeded as one block and costed against them (``run_replicate``),
    and both are freed before the next group.  Shared, the one trajectory
    and its cost table are made once, and the trips run in the same
    groups.  A path's stream is keyed by its labels alone, so the groups
    change no value.
    """
    config.validate()
    registry = resolve_registry(config)
    try:
        handling_params = lognormal_from_moments(
            config.handling_mean_usd_per_tonne,
            config.handling_stdev_fraction
            * config.handling_mean_usd_per_tonne)
    except ValueError as exc:
        raise _unmatched("handling_mean_usd_per_tonne and "
                         "handling_stdev_fraction", exc) from None
    shape = (config.end_year - config.start_year + 1, config.iterations)
    try:
        cost = np.empty(shape)
        n_legs = np.empty(shape, dtype=np.int64)
        frac = np.empty((*shape, len(registry)))
    except (MemoryError, ValueError):
        # numpy raises ValueError for a size past the address space.
        raise ConfigError(
            f"iterations x (end_year - start_year + 1) must be small enough "
            f"for the run to fit in memory: {config.iterations} x "
            f"{shape[0]} trips do not") from None
    years, reps = shape
    trip_years = range(config.start_year, config.end_year + 1)
    shared = config.evolution_policy == "shared"
    if shared:
        # Every replicate is costed with the same trajectory, so its
        # parameter table is checked once for the run.
        table = _cost_table(registry, compute_shared_means(config, registry))
    groups = -(-reps // max(1, stochastics._CHUNK // years))
    for i in range(groups):
        a, b = reps * i // groups, reps * (i + 1) // groups
        # Trip path q of a group is replicate a + q // years in year
        # q % years: per-replicate, row q of the group's trajectories.
        if shared:
            group_table, rows = table, np.tile(np.arange(years), b - a)
        else:
            group_table = _cost_table(registry, replicate_trajectories(
                config, registry, range(a, b)).reshape(-1, len(registry)))
            rows = np.arange(years * (b - a))
        block = _seed_paths(config, trip_years,
                            (b"%d\x1ftrip" % rep for rep in range(a, b)))
        group_cost, group_legs, group_frac = run_replicate(
            config, group_table, handling_params, block, rows)
        cost[:, a:b] = group_cost.reshape(b - a, years).T
        n_legs[:, a:b] = group_legs.reshape(b - a, years).T
        frac[:, a:b] = group_frac.reshape(b - a, years, -1).swapaxes(0, 1)
        # The group's lanes, trajectories and draws are freed before the
        # next group's paths are seeded.
        del block, group_table, group_cost, group_legs, group_frac
    if not np.isfinite(cost).all():
        raise ConfigError(
            "trip costs overflow a float: trip_distance_km x freight_tonnes "
            "x mode cost must be below 1.8e308")
    if not (cost >= sys.float_info.min).all():
        raise ConfigError(
            "trip costs underflow a normal float: trip_distance_km x "
            "freight_tonnes x mode cost must be at least 2.2e-308")
    return ResultSet(config=config, registry=registry, cost=cost,
                     n_legs=n_legs, frac=frac)
