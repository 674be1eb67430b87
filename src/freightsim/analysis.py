"""Post-processing: crossover dates, the sensitivity grid, and per-year
distribution summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evolution import ResultSet
from .modes import ModeId, adjust_reference_cost
from .tripsim import group_fsums


@dataclass(frozen=True)
class YearSummary:
    """Nearest-rank percentiles and extremes of trip cost for one year."""

    year: int
    p5: float
    p25: float
    p50: float
    p75: float
    p95: float
    min: float
    max: float
    mean: float
    mode_fraction_mean: dict[ModeId, float]


@dataclass(frozen=True)
class SensitivityGrid:
    """Crossover calendar year by cost multiple (columns) and improvement
    rate delta (rows); None means the costs never cross."""

    multiples: tuple[float, ...]
    deltas: tuple[float, ...]
    base_rate: float
    base_year: int
    cells: tuple[tuple[int | None, ...], ...]  # rows indexed by delta

    def cell(self, delta: float, multiple: float) -> int | None:
        return self.cells[self.deltas.index(delta)][self.multiples.index(multiple)]


@dataclass(frozen=True)
class CrossoverReport:
    """Crossover analysis for a (conventional, autonomous) mode pair."""

    mode: ModeId
    auto_mode: ModeId
    deterministic_year: int | None
    empirical_year: int | None
    # year -> (conventional median $/t-km, autonomous median $/t-km);
    # a side is None when no trip was dominated by that mode.
    basis: dict[int, tuple[float | None, float | None]]


def deterministic_crossover_year(cost_multiple: float, r_non: float,
                                 r_auto: float, base_year: int) -> int | None:
    """First calendar year the autonomous cost M*(1-r_auto)^t drops to the
    conventional cost (1-r_non)^t; None if it never does.

    Solves t* = ln M / ln((1-r_non)/(1-r_auto)) and reports
    base_year + ceil(t*).  Rates so close that the ratio rounds to 1 have
    no finite t* and are rejected.
    """
    if not (math.isfinite(cost_multiple) and cost_multiple > 0):
        raise ValueError(
            f"cost_multiple must be finite and > 0, got {cost_multiple}")
    for name, r in (("r_non", r_non), ("r_auto", r_auto)):
        if not 0 <= r < 1:
            raise ValueError(f"{name} must be in [0, 1), got {r}")
    if cost_multiple <= 1:
        return base_year
    if r_auto <= r_non:
        return None
    ratio = (1 - r_non) / (1 - r_auto)
    if ratio == 1.0:
        raise ValueError(f"r_auto {r_auto!r} must differ from r_non "
                         f"{r_non!r} by more than rounding: (1 - r_non) / "
                         f"(1 - r_auto) rounds to 1")
    t_star = math.log(cost_multiple) / math.log(ratio)
    return base_year + math.ceil(t_star)


DEFAULT_MULTIPLES = (1.5, 2.5, 3.5, 4.5)
DEFAULT_DELTAS = (0.02, 0.04, 0.06, 0.08)
DEFAULT_BASE_RATE = 0.021
DEFAULT_BASE_YEAR = 2018


def sensitivity_grid(multiples: Sequence[float] = DEFAULT_MULTIPLES,
                     deltas: Sequence[float] = DEFAULT_DELTAS,
                     base_rate: float = DEFAULT_BASE_RATE,
                     base_year: int = DEFAULT_BASE_YEAR) -> SensitivityGrid:
    """Crossover year for every (rate delta, cost multiple) combination."""
    if not multiples or not deltas:
        raise ValueError("multiples and deltas must be non-empty")
    cells = tuple(
        tuple(deterministic_crossover_year(m, base_rate, base_rate + d, base_year)
              for m in multiples)
        for d in deltas)
    return SensitivityGrid(multiples=tuple(multiples), deltas=tuple(deltas),
                           base_rate=base_rate, base_year=base_year,
                           cells=cells)


# Values (costs and fractions) whose summaries are made at once: years are
# taken in runs of whole years of at most this many values, and a year
# larger than the bound is a run of its own.
_SUMMARY_RUN = 16384
# The values of a row whose fsum overflows are scaled by 2^-64, so that
# the sum of even 2^63 of them is below 2^1023.
_SCALE = 2.0 ** 64


def _mean(values: list[float]) -> float:
    """``math.fsum(values) / len(values)``, or where that sum overflows,
    the mean of the values scaled by 2^-64, scaled back: the same value
    wherever both are in range."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        return (math.fsum([v / _SCALE for v in values]) / len(values)
                * _SCALE)


def summarize(results: ResultSet) -> list[YearSummary]:
    """One YearSummary per simulated year, percentiles by nearest rank.

    The years are summarized a run of ``_SUMMARY_RUN`` values at a time:
    one sort of the run's costs gives every year's percentiles and
    extremes, and one ``group_fsums`` call sums each year's costs and each
    of its modes' fractions, as ``math.fsum`` sums them."""
    if not results.cost.size:
        raise ValueError("cannot summarize an empty result set")

    years, trips = results.cost.shape
    mode_ids = results.registry.ids()
    ranks = [max(1, math.ceil(pct / 100.0 * trips)) - 1
             for pct in (5, 25, 50, 75, 95)] + [0, trips - 1]
    width = len(mode_ids) + 1
    step = max(1, _SUMMARY_RUN // (trips * width))  # years a run
    # Per year of a run, its sorted costs, then each mode's fractions.
    values = np.empty((min(step, years), width, trips))
    counts = np.full(values.shape[0] * width, trips)
    summaries = []
    for y0 in range(0, years, step):
        run = values[:min(step, years - y0)]
        costs = run[:, 0]
        costs[...] = results.cost[y0:y0 + step]
        costs.sort()
        run[:, 1:] = results.frac[y0:y0 + step].transpose(0, 2, 1)
        picks = costs[:, ranks].tolist()
        groups = run.reshape(-1, trips)
        try:
            means = (group_fsums(groups.reshape(-1), counts[:len(groups)])
                     / trips).tolist()
        except OverflowError:
            means = [_mean(row) for row in groups.tolist()]
        for t, (p5, p25, p50, p75, p95, lo, hi) in enumerate(picks):
            year_means = means[t * width:(t + 1) * width]
            summaries.append(YearSummary(
                year=results.config.start_year + y0 + t,
                p5=p5, p25=p25, p50=p50, p75=p75, p95=p95, min=lo, max=hi,
                mean=year_means[0],
                mode_fraction_mean=dict(zip(mode_ids, year_means[1:]))))
    return summaries


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """The smallest value whose weight, summed in ascending value order
    (ties in input order), reaches half the total weight."""
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    k = np.searchsorted(cum, math.fsum(weights.tolist()) / 2.0)
    return float(values[order[min(k, len(order) - 1)]])


def empirical_crossover(results: ResultSet, mode: ModeId,
                        auto_mode: ModeId) -> CrossoverReport:
    """Locate the crossover empirically from a pairwise scenario.

    For each year, trips dominated by a mode (distance fraction > 0.5)
    contribute their per-tonne-km cost, weighted by that fraction; the
    empirical crossover is the first year the autonomous median is no higher
    than the conventional one.  Medians are used for robustness against the
    log-normal tails.
    """
    for m in (mode, auto_mode):
        if m not in results.registry:
            raise ValueError(f"mode {m!r} not present in results")

    config = results.config
    per_tkm = results.cost / (config.trip_distance_km * config.freight_tonnes)
    columns = [results.registry.ids().index(m) for m in (mode, auto_mode)]
    basis: dict[int, tuple[float | None, float | None]] = {}
    empirical_year: int | None = None
    for t, (year_cost, year_frac) in enumerate(zip(per_tkm, results.frac)):
        medians: list[float | None] = []
        for col in columns:
            frac = year_frac[:, col]
            dominated = frac > 0.5
            medians.append(_weighted_median(year_cost[dominated],
                                            frac[dominated])
                           if dominated.any() else None)
        non_med, auto_med = medians
        year = config.start_year + t
        basis[year] = (non_med, auto_med)
        if (empirical_year is None and non_med is not None
                and auto_med is not None and auto_med <= non_med):
            empirical_year = year

    base = results.registry.get(mode)
    auto = results.registry.get(auto_mode)
    start = config.start_year
    base_cost = adjust_reference_cost(
        base.base_cost_mean, base.improvement_rate_mean, base.base_year, start)
    auto_cost = adjust_reference_cost(
        auto.base_cost_mean, auto.improvement_rate_mean, auto.base_year, start)
    det = deterministic_crossover_year(
        auto_cost / base_cost, base.improvement_rate_mean,
        auto.improvement_rate_mean, start)
    return CrossoverReport(mode=mode, auto_mode=auto_mode,
                           deterministic_year=det,
                           empirical_year=empirical_year, basis=basis)

