"""Annual cost evolution and the Monte-Carlo scenario engine.

Each replicate simulates one trip per year with the modes' mean costs from a
cost trajectory: its own, or one shared by all replicates.  A trajectory
compounds every mode's cost down by a sampled improvement rate each year.
All randomness flows through substreams derived from the scenario seed and
(year, replicate) labels, so results are independent of the order the
replicates run in.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .config import (ConfigError, ScenarioConfig, config_fingerprint,
                     resolve_registry)
from .modes import ModeId, ModeRegistry, ModeSpec, adjust_reference_cost
# derive_stream, which the engine does not call, stays bound here: the
# benchmark's self-test checks that tracing restores it in this module.
from .lanes import Lanes
from .stochastics import (LogNormalParams, derive_stream,  # noqa: F401
                          lognormal_from_moments, lognormal_ratios,
                          seed_chunks)
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
    or a zero log-space spread) and 0 for the others; ``drawn`` indexes the
    modes that draw, with their log-normal parameters in ``mu`` and
    ``sigma``.
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


def evolve_mode_state(costs, rates: RateModel, lanes: Lanes) -> np.ndarray:
    """Advance every mode one year on each lane of a block: cost * (1 - r),
    with each mode's r sampled log-normally around its improvement rate.

    ``costs`` broadcasts against one row of mode costs per lane, in the
    order of the registry ``rates`` was built from; a 1-D row with a
    one-lane block gives a 1-D row, and 1.0 gives each lane's factors
    1 - r.  Each lane's drawing modes take one normal each, in registry
    order, in a single draw.  Sampled rates are strictly positive, so costs
    strictly decrease whenever the mean rate is positive.  A draw >= 1
    (possible only for extreme user configurations) is re-drawn, then
    clamped to 0.99 as a last resort, from that lane alone
    (``_redraw_rates``).
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
    step *= costs
    return step.reshape(np.shape(costs)) if np.ndim(costs) == 1 else step


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
    share of the trip distance, in registry order).  ``mode_means[replicate,
    year - start_year, mode]`` is the mean cost each trip was costed with (a
    read-only broadcast of one trajectory under the shared policy)."""

    config: ScenarioConfig
    fingerprint: str
    registry: ModeRegistry
    cost: np.ndarray
    n_legs: np.ndarray
    frac: np.ndarray
    mode_means: np.ndarray

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


def _scenario_paths(config: ScenarioConfig) -> Iterator[tuple]:
    """Every label path of a run, in the order ``run_scenario`` draws from
    them: the rate steps of the shared trajectory, or of every replicate's,
    then the trips, replicate by replicate."""
    steps = range(config.start_year, config.end_year)
    if config.evolution_policy == "shared":
        for year in steps:
            yield ("scenario", year, "shared-rates")
    else:
        for rep in range(config.iterations):
            for year in steps:
                yield ("scenario", year, rep, "rates")
    for rep in range(config.iterations):
        for year in range(config.start_year, config.end_year + 1):
            yield ("scenario", year, rep, "trip")


def _path_texts(config: ScenarioConfig) -> Iterator[bytes]:
    """The ``_path_text`` of every path of ``_scenario_paths(config)``, in
    order: each the concatenation of its year's head, formatted once per
    year, and its replicate's tail, formatted once per replicate."""
    prefix = b"%d\x1fscenario\x1f" % config.seed
    steps = range(config.start_year, config.end_year)
    if config.evolution_policy == "shared":
        yield from (prefix + b"%d\x1fshared-rates" % year for year in steps)
    else:
        heads = [prefix + b"%d\x1f" % year for year in steps]
        for rep in range(config.iterations):
            tail = b"%d\x1frates" % rep
            yield from (head + tail for head in heads)
    heads = [prefix + b"%d\x1f" % year
             for year in range(config.start_year, config.end_year + 1)]
    for rep in range(config.iterations):
        tail = b"%d\x1ftrip" % rep
        yield from (head + tail for head in heads)


class _LaneFeed:
    """A run's lanes in path order, handed out one phase at a time."""

    def __init__(self, chunks: Iterator[Lanes]):
        self._chunks = chunks
        self._rest: Lanes | None = None

    def take(self, n: int) -> Iterator[Lanes]:
        """The next ``n`` lanes, as blocks cut at the chunk edges and at
        the end of the phase."""
        while n:
            block = self._rest if self._rest is not None else next(
                self._chunks)
            self._rest = block[n:] if len(block) > n else None
            block = block[:n]
            n -= len(block)
            yield block
            # The next chunk is seeded with no lanes of this one held.
            del block


def _trajectories(config: ScenarioConfig, registry: ModeRegistry,
                  blocks: Iterable[Lanes], out: np.ndarray) -> np.ndarray:
    """Fill and return ``out``, the ``[trajectory, year, mode]`` mean costs
    of one or more trajectories, each stepped once per year in [start,
    end).  The steps draw from the lanes of ``blocks``, trajectory by
    trajectory and year by year: each lane's factors 1 - r are written in
    their year's slot, then multiplied up from the start year's costs."""
    steps = out.shape[1] - 1
    rates = RateModel.from_registry(registry)
    flat = out.reshape(-1, out.shape[2])
    done = 0
    for block in blocks:
        q = np.arange(done, done + len(block))
        flat[q + q // steps + 1] = evolve_mode_state(1.0, rates, block)
        done += len(block)
        del block
    out[:, 0] = [adjust_reference_cost(s.base_cost_mean,
                                       s.improvement_rate_mean, s.base_year,
                                       config.start_year) for s in registry]
    for t in range(steps):
        np.multiply(out[:, t], out[:, t + 1], out=out[:, t + 1])
    return out


def compute_shared_means(config: ScenarioConfig, registry: ModeRegistry,
                         blocks: Iterable[Lanes]) -> np.ndarray:
    """The one ``(years, modes)`` cost trajectory all replicates share,
    drawn from the next ``end_year - start_year`` lanes of ``blocks`` (the
    ``"shared-rates"`` paths)."""
    years = config.end_year - config.start_year + 1
    return _trajectories(config, registry, blocks,
                         np.empty((1, years, len(registry))))[0]


def _cost_table(registry: ModeRegistry, means: np.ndarray) -> CostTable:
    """The parameter table of the ``(years, modes)`` trajectory ``means``."""
    return _param_table(list(registry), means, "base_cost_mean",
                        "cost_stdev_fraction")


def run_replicate(config: ScenarioConfig,
                  registry: ModeRegistry,
                  table: CostTable | np.ndarray,
                  handling_params: LogNormalParams,
                  lanes: Lanes,
                  rows: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate a block of trips, trip i from lane i of ``lanes`` with the
    mode means of row ``rows[i]`` of ``table`` (row i if ``rows`` is None),
    and return their ``cost``, ``n_legs`` and ``frac`` columns.

    A block is any run of trips: one replicate's years, with ``table`` its
    ``(years, modes)`` trajectory, or a chunk of a run's trip paths.
    ``table`` is the ``CostTable`` of the mode means, or the means it is
    built from.  The block's legs and modes are drawn at once; its cost
    normals are then drawn and its legs costed one run of trips at a time
    (``TripDraws.cuts``), with the run's handling-cost parameters and,
    where ``rows`` is None, a table of the run's own rows.
    """
    if not isinstance(table, CostTable):
        table = _cost_table(registry, table)
    trips = simulate_trip(config.trip_distance_km,
                          table.drawn if rows is None else table.drawn[rows],
                          handling_params.sigma != 0.0, lanes,
                          min_leg=config.min_leg_km)
    n = len(lanes)
    cost, n_legs, frac = (np.empty(n), np.empty(n, dtype=np.intp),
                          np.empty((n, len(registry))))
    cuts = trips.cuts()
    for a, b in zip(cuts, cuts[1:]):
        if rows is None:
            part_table, part_rows = table.rows(a, b), None
        else:
            part_table, part_rows = table, rows[a:b]
        cost[a:b], n_legs[a:b], frac[a:b] = cost_trips(
            trips.part(a, b), part_table, handling_params,
            config.freight_tonnes, part_rows)
    return cost, n_legs, frac


def run_scenario(config: ScenarioConfig, *, workers: int = 1) -> ResultSet:
    """Run every replicate of the config into the trip table.  ``workers``
    is accepted for old callers and ignored.

    The trip table and the per-replicate trajectories are allocated before
    any stream is drawn, so a run too large for memory fails at once.  The
    streams of the run's paths, in ``_scenario_paths(config)`` order, are
    seeded ``stochastics._CHUNK`` (4,096) at a time as lanes and drawn block
    by block: first every rate step, then every trip.  A block is cut at
    the chunk edges and at the end of a phase; each trip block's legs are
    costed in runs of about ``tripsim._LEG_SLICE`` legs
    (``run_replicate``).
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
    shared = config.evolution_policy == "shared"
    try:
        cost = np.empty(shape)
        n_legs = np.empty(shape, dtype=np.int64)
        frac = np.empty((*shape, len(registry)))
        mode_means = (None if shared else
                      np.empty((shape[1], shape[0], len(registry))))
    except (MemoryError, ValueError):
        # numpy raises ValueError for a size past the address space.
        raise ConfigError(
            f"iterations x (end_year - start_year + 1) must be small enough "
            f"for the run to fit in memory: {config.iterations} x "
            f"{shape[0]} trips do not") from None
    lanes = _LaneFeed(seed_chunks(_path_texts(config)))
    years, reps = shape
    if shared:
        trajectory = compute_shared_means(config, registry,
                                          lanes.take(years - 1))
        mode_means = np.broadcast_to(trajectory, (reps, *trajectory.shape))
        # Every replicate is costed with the same trajectory, so its
        # parameter table is built once for the run and keeps the cells
        # the blocks have costed.
        table = _cost_table(registry, trajectory)
    else:
        _trajectories(config, registry, lanes.take(reps * (years - 1)),
                      mode_means)
        trip_means = mode_means.reshape(-1, len(registry))
    done = 0
    for block in lanes.take(reps * years):
        # Trip path q is replicate q // years in year q % years.
        rep, t = np.divmod(np.arange(done, done + len(block)), years)
        if shared:
            block_table, rows = table, t
        else:
            block_table, rows = _cost_table(
                registry, trip_means[done:done + len(block)]), None
        done += len(block)
        cells = t * reps + rep
        (cost.reshape(-1)[cells], n_legs.reshape(-1)[cells],
         frac.reshape(-1, len(registry))[cells]) = run_replicate(
            config, registry, block_table, handling_params, block, rows)
        # A block's lanes and, per-replicate, its table are freed before
        # the next block's lanes are seeded.
        del block, block_table
    if not np.isfinite(cost).all():
        raise ConfigError(
            "trip costs overflow a float: trip_distance_km x freight_tonnes "
            "x mode cost must be below 1.8e308")
    if not (cost >= sys.float_info.min).all():
        raise ConfigError(
            "trip costs underflow a normal float: trip_distance_km x "
            "freight_tonnes x mode cost must be at least 2.2e-308")
    return ResultSet(config=config, fingerprint=config_fingerprint(config),
                     registry=registry, cost=cost, n_legs=n_legs, frac=frac,
                     mode_means=mode_means)
