"""The scenario engine written a second time, plainly, as its specification.

Every label path draws from numpy's own generator,
``np.random.default_rng(SeedSequence(int.from_bytes(sha256(path), "big")))``,
one scalar call per draw.  Log-normal parameters come from ``math``; a
sample is ``np.exp(mu + sigma * z)``, or ``math.exp(mu)`` for a zero spread.
Each rate step runs the per-mode redraw loop and the clamp; each trip runs
the per-leg loop; every sum runs left to right.  Nothing here reuses the
engine's streams, tables or array code: only the config and the resolved
mode registry are shared with it.  ``summarize`` is the year summaries
made one year at a time, one ``math.fsum`` per mean.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from freightsim.analysis import YearSummary
from freightsim.config import ScenarioConfig, resolve_registry
from freightsim.modes import adjust_reference_cost

MAX_RATE_REDRAWS = 100
RATE_CLAMP = 0.99


def generator(seed, labels):
    """numpy's generator for the label path ``labels`` under ``seed``."""
    path = "\x1f".join([str(seed), *map(str, labels)])
    entropy = int.from_bytes(hashlib.sha256(path.encode()).digest(), "big")
    return np.random.default_rng(np.random.SeedSequence(entropy))


def lognormal(mean, stdev):
    """(mu, sigma) of the log-normal with this mean and stdev."""
    if stdev == 0:
        return math.log(mean), 0.0
    sigma2 = math.log1p((stdev * stdev) / (mean * mean))
    return math.log(mean) - 0.5 * sigma2, math.sqrt(sigma2)


def sample(params, gen):
    """One log-normal sample; a zero spread draws nothing."""
    mu, sigma = params
    if sigma == 0.0:
        return math.exp(mu)
    return float(np.exp(mu + sigma * gen.normal()))


def rate_step(costs, specs, gen):
    """Every mode's cost one year on: cost * (1 - r), r sampled per mode in
    registry order, redrawn while >= 1, then clamped."""
    out = []
    for cost, spec in zip(costs, specs):
        rate = spec.improvement_rate_mean
        if rate == 0.0:
            out.append(cost)
            continue
        params = lognormal(rate, spec.rate_stdev_fraction * rate)
        r = sample(params, gen)
        attempts = 0
        while r >= 1.0 and attempts < MAX_RATE_REDRAWS:
            r = sample(params, gen)
            attempts += 1
        if r >= 1.0:
            r = RATE_CLAMP
        out.append(cost * (1.0 - r))
    return out


def trajectory(cfg, specs, rate_labels):
    """The mean costs of every year, one rate step per year in [start, end)."""
    means = [[adjust_reference_cost(s.base_cost_mean, s.improvement_rate_mean,
                                    s.base_year, cfg.start_year)
              for s in specs]]
    for year in range(cfg.start_year, cfg.end_year):
        means.append(rate_step(means[-1], specs,
                               generator(cfg.seed, rate_labels(year))))
    return means


def leg_distances(trip_distance, min_leg, gen):
    """Uniform legs while at least ``min_leg`` remains; the remainder joins
    the last leg, and the last leg absorbs the rounding of the sum."""
    legs = []
    remaining = trip_distance
    while remaining >= min_leg:
        d = gen.uniform(min_leg, remaining)
        legs.append(d)
        remaining -= d
    if not legs:
        return [trip_distance]
    if remaining > 0:
        legs[-1] += remaining
    legs[-1] += trip_distance - math.fsum(legs)
    return legs


def trip(distance, min_leg, weight, means, fractions, handling, gen):
    """One trip of ``distance`` km carrying ``weight`` tonnes, mode m's
    operational cost with mean ``means[m]`` and stdev ``fractions[m]`` of
    it: the trip's cost, leg count and per-mode distance fractions."""
    legs = leg_distances(distance, min_leg, gen)
    modes = [int(gen.integers(len(means))) for _ in legs]
    cost = 0.0
    km = [0.0] * len(means)
    for d, m in zip(legs, modes):
        op = sample(lognormal(means[m], fractions[m] * means[m]), gen)
        h = sample(handling, gen)
        cost += d * weight * op + weight * h
        km[m] += d
    span = math.fsum(legs)
    return cost, len(legs), [k / span for k in km]


def run(cfg: ScenarioConfig):
    """``cost``, ``n_legs``, ``frac`` and ``mode_means`` of ``cfg``, shaped
    as ``run_scenario``'s."""
    specs = list(resolve_registry(cfg))
    handling = lognormal(cfg.handling_mean_usd_per_tonne,
                         cfg.handling_stdev_fraction
                         * cfg.handling_mean_usd_per_tonne)
    if cfg.evolution_policy == "shared":
        shared = trajectory(cfg, specs,
                            lambda year: ("scenario", year, "shared-rates"))
        mode_means = [shared] * cfg.iterations
    else:
        mode_means = [trajectory(cfg, specs,
                                 lambda year: ("scenario", year, rep, "rates"))
                      for rep in range(cfg.iterations)]
    years = range(cfg.start_year, cfg.end_year + 1)
    fractions = [s.cost_stdev_fraction for s in specs]
    trips = [[trip(cfg.trip_distance_km, cfg.min_leg_km, cfg.freight_tonnes,
                   mode_means[rep][t], fractions, handling,
                   generator(cfg.seed, ("scenario", year, rep, "trip")))
              for rep in range(cfg.iterations)]
             for t, year in enumerate(years)]
    cost = np.array([[c for c, _, _ in row] for row in trips])
    n_legs = np.array([[n for _, n, _ in row] for row in trips])
    frac = np.array([[f for _, _, f in row] for row in trips])
    return cost, n_legs, frac, np.array(mode_means)


def _nearest_rank(sorted_values, pct):
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(results):
    """``analysis.summarize`` one year at a time: one YearSummary per year,
    percentiles by nearest rank, each mean by ``math.fsum``."""
    if not results.cost.size:
        raise ValueError("cannot summarize an empty result set")

    mode_ids = results.registry.ids()
    summaries = []
    for t, (year_costs, year_frac) in enumerate(zip(results.cost,
                                                    results.frac)):
        costs = np.sort(year_costs).tolist()
        frac_mean = {m: math.fsum(col) / len(costs)
                     for m, col in zip(mode_ids, year_frac.T.tolist())}
        summaries.append(YearSummary(
            year=results.config.start_year + t,
            p5=_nearest_rank(costs, 5), p25=_nearest_rank(costs, 25),
            p50=_nearest_rank(costs, 50), p75=_nearest_rank(costs, 75),
            p95=_nearest_rank(costs, 95),
            min=costs[0], max=costs[-1],
            mean=math.fsum(costs) / len(costs),
            mode_fraction_mean=frac_mean))
    return summaries
