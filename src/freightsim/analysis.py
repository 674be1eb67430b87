"""Post-processing: crossover dates, the sensitivity grid, and per-year
distribution summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evolution import ResultSet
from .modes import ModeId, adjust_reference_cost


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


def _nearest_rank(sorted_values: list[float], pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(results: ResultSet) -> list[YearSummary]:
    """One YearSummary per simulated year, percentiles by nearest rank."""
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

