"""Annual cost evolution and the Monte-Carlo scenario engine.

Each replicate walks the horizon year by year: simulate one trip with the
modes' current mean costs, then compound every mode's cost down by a sampled
improvement rate.  All randomness flows through substreams derived from the
scenario seed and (year, replicate) labels, so results are independent of
scheduling order and worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig, config_fingerprint, resolve_registry
from .modes import ModeId, ModeRegistry, adjust_reference_cost
from .stochastics import (LogNormalParams, RngStream, derive_stream,
                          lognormal_from_moments, sample_lognormal)
from .tripsim import TripRecord, simulate_trip

_MAX_RATE_REDRAWS = 100
_RATE_CLAMP = 0.99


@dataclass(frozen=True)
class RateModel:
    """Improvement-rate distributions of a registry's modes, in registry
    order, computed once per run.

    ``fixed`` holds the rate of every mode that draws nothing (rate mean 0,
    or a zero log-space spread) and 0 for the others; ``drawn`` indexes the
    modes that draw, with their log-normal parameters in ``params``, ``mu``
    and ``sigma``.
    """

    fixed: np.ndarray
    drawn: np.ndarray
    params: tuple[LogNormalParams, ...]
    mu: np.ndarray
    sigma: np.ndarray

    @classmethod
    def from_registry(cls, registry: ModeRegistry) -> "RateModel":
        fixed = np.zeros(len(registry))
        drawn: list[int] = []
        params: list[LogNormalParams] = []
        for i, spec in enumerate(registry):
            if spec.improvement_rate_mean == 0.0:
                continue
            p = lognormal_from_moments(
                spec.improvement_rate_mean,
                spec.rate_stdev_fraction * spec.improvement_rate_mean)
            if p.sigma == 0.0:
                # A redraw of a fixed rate gives the same value, so a rate
                # >= 1 ends at the clamp.
                rate = math.exp(p.mu)
                fixed[i] = rate if rate < 1.0 else _RATE_CLAMP
            else:
                drawn.append(i)
                params.append(p)
        return cls(fixed=fixed, drawn=np.array(drawn, dtype=np.intp),
                   params=tuple(params),
                   mu=np.array([p.mu for p in params]),
                   sigma=np.array([p.sigma for p in params]))


def _redraw_rates(params: tuple[LogNormalParams, ...], z: np.ndarray,
                  stream: RngStream) -> list[float]:
    """The per-mode redraw loop: a mode whose rate is >= 1 draws again, up
    to ``_MAX_RATE_REDRAWS`` times, then takes the clamp.  The normals in
    ``z`` were drawn first, so they feed the loop before the stream does;
    the stream is consumed exactly as by one scalar draw per attempt."""
    pending = iter(z.tolist())

    def draw(p: LogNormalParams) -> float:
        zi = next(pending, None)
        if zi is None:
            return sample_lognormal(p, stream)
        return float(np.exp(p.mu + p.sigma * zi))

    rates = []
    for p in params:
        r = draw(p)
        attempts = 0
        while r >= 1.0 and attempts < _MAX_RATE_REDRAWS:
            r = draw(p)
            attempts += 1
        rates.append(r if r < 1.0 else _RATE_CLAMP)
    return rates


def evolve_mode_state(costs: np.ndarray, rates: RateModel,
                      stream: RngStream) -> np.ndarray:
    """Advance every mode one year: cost * (1 - r), with each mode's r
    sampled log-normally around its improvement rate.

    ``costs`` holds one current mean cost per mode, in the order of the
    registry ``rates`` was built from.  The drawing modes take one normal
    each, in registry order, in a single draw.  Sampled rates are strictly
    positive, so costs strictly decrease whenever the mean rate is positive.
    A draw >= 1 (possible only for extreme user configurations) is re-drawn,
    then clamped to 0.99 as a last resort.
    """
    r = rates.fixed
    if rates.params:
        z = stream.normal(size=len(rates.params))
        sampled = np.exp(rates.mu + rates.sigma * z)
        if (sampled >= 1.0).any():
            sampled = _redraw_rates(rates.params, z, stream)
        r = r.copy()
        r[rates.drawn] = sampled
    return costs * (1.0 - r)


@dataclass
class ResultSet:
    """Year x replicate table of trip records plus the mode-mean trajectories
    that produced them."""

    config: ScenarioConfig
    fingerprint: str
    records: list[TripRecord]
    mode_means: dict[tuple[int, int], dict[ModeId, float]]


def _initial_costs(config: ScenarioConfig,
                   registry: ModeRegistry) -> np.ndarray:
    """Every mode's mean cost rolled forward to the start year, in registry
    order."""
    costs = []
    for spec in registry:
        if spec.base_year > config.start_year:
            raise ValueError(
                f"mode {spec.id!r} base_year {spec.base_year} is after "
                f"start_year {config.start_year}")
        costs.append(adjust_reference_cost(
            spec.base_cost_mean, spec.improvement_rate_mean,
            spec.base_year, config.start_year))
    return np.array(costs, dtype=np.float64)


def compute_shared_means(config: ScenarioConfig,
                         registry: ModeRegistry) -> dict[int, dict[ModeId, float]]:
    """One sampled cost trajectory per mode, shared by all replicates."""
    ids = registry.ids()
    rates = RateModel.from_registry(registry)
    costs = _initial_costs(config, registry)
    means: dict[int, dict[ModeId, float]] = {}
    for year in range(config.start_year, config.end_year + 1):
        means[year] = dict(zip(ids, costs.tolist()))
        stream = derive_stream(config.seed, ("scenario", year, "shared-rates"))
        costs = evolve_mode_state(costs, rates, stream)
    return means


def run_replicate(config: ScenarioConfig,
                  registry: ModeRegistry,
                  replicate: int,
                  shared_means: dict[int, dict[ModeId, float]] | None = None,
                  rates: RateModel | None = None,
                  ) -> tuple[list[TripRecord], dict[tuple[int, int], dict[ModeId, float]]]:
    """Simulate one replicate across the whole horizon, returning one trip
    record per year and the mode means each trip saw.

    Under the per-replicate policy each replicate evolves its own cost
    trajectory with ``rates`` (built from ``registry`` when not given);
    under the shared policy all replicates read the single trajectory in
    ``shared_means``.
    """
    shared = config.evolution_policy == "shared"
    if shared and shared_means is None:
        shared_means = compute_shared_means(config, registry)
    if not shared and rates is None:
        rates = RateModel.from_registry(registry)

    enabled = registry.ids()
    stdev_fractions = {s.id: s.cost_stdev_fraction for s in registry}
    handling_params = lognormal_from_moments(
        config.handling_mean_usd_per_tonne,
        config.handling_stdev_fraction * config.handling_mean_usd_per_tonne)

    costs = None if shared else _initial_costs(config, registry)
    records: list[TripRecord] = []
    means_seen: dict[tuple[int, int], dict[ModeId, float]] = {}
    for year in range(config.start_year, config.end_year + 1):
        if shared:
            current = shared_means[year]
        else:
            current = dict(zip(enabled, costs.tolist()))
        means_seen[(year, replicate)] = dict(current)

        trip_stream = derive_stream(
            config.seed, ("scenario", year, replicate, "trip"))
        records.append(simulate_trip(
            config.trip_distance_km, config.freight_tonnes, enabled,
            current, handling_params, stdev_fractions, year, replicate,
            trip_stream, min_leg=config.min_leg_km))

        if not shared:
            rate_stream = derive_stream(
                config.seed, ("scenario", year, replicate, "rates"))
            costs = evolve_mode_state(costs, rates, rate_stream)
    return records, means_seen


def run_scenario(config: ScenarioConfig,
                 registry: ModeRegistry | None = None,
                 workers: int = 1) -> ResultSet:
    """Run every replicate and collect the sorted ResultSet.

    The output is byte-identical for any ``workers`` value: each replicate
    draws only from its own derived streams and records are sorted
    (year, replicate) afterwards.
    """
    config.validate()
    if registry is None:
        registry = resolve_registry(config)

    shared_means = rates = None
    if config.evolution_policy == "shared":
        shared_means = compute_shared_means(config, registry)
    else:
        rates = RateModel.from_registry(registry)

    def one(rep: int):
        return run_replicate(config, registry, rep, shared_means, rates)

    replicates = range(config.iterations)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, replicates))
    else:
        parts = [one(rep) for rep in replicates]

    records: list[TripRecord] = []
    mode_means: dict[tuple[int, int], dict[ModeId, float]] = {}
    for recs, means in parts:
        records.extend(recs)
        mode_means.update(means)
    records.sort(key=lambda r: (r.year, r.replicate))
    return ResultSet(config=config, fingerprint=config_fingerprint(config),
                     records=records, mode_means=mode_means)
