"""Acceptance suite: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they print.
"""

import io
import json
import math
import time

import numpy as np
import pytest

from freightsim.analysis import empirical_crossover, sensitivity_grid
from freightsim.config import ScenarioConfig
from freightsim.evolution import replicate_trajectories, run_scenario
from freightsim.modes import adjust_reference_cost, builtin_modes, derive_autonomous
from freightsim.report import PlotSpec, render_scatter_svg, write_records_csv
from freightsim.stochastics import (derive_stream, lognormal_from_moments,
                                    sample_lognormal)
from freightsim.tripsim import generate_leg_distances

ALL_MODES = ["air", "ocean", "truck", "rail", "iwt",
             "auto_air", "auto_ocean", "auto_truck", "auto_rail", "auto_iwt"]

DESK_REPLICATES = 200


def conclude(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    detail = f" ({'; '.join(failures)})" if failures else ""
    print(f"[criterion {number}] {status}: {description}{detail}")
    assert not failures, f"criterion {number}: {failures}"


@pytest.fixture(scope="module")
def scenario1():
    cfg = ScenarioConfig(name="scenario-1", enabled_modes=ALL_MODES, seed=2018,
                         iterations=DESK_REPLICATES)
    start = time.perf_counter()
    results = run_scenario(cfg)
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def scenario2():
    cfg = ScenarioConfig(name="scenario-2",
                         enabled_modes=["truck", "auto_truck"], seed=2018,
                         iterations=DESK_REPLICATES)
    return run_scenario(cfg)


def test_criterion_1_moment_matching_round_trip():
    failures = []
    start = time.perf_counter()
    for mean in (1e-3, 1e-1, 1.0, 10.0, 1e3):
        for ratio in (0.0, 0.25, 0.5, 1.0):
            p = lognormal_from_moments(mean, ratio * mean)
            back_mean = math.exp(p.mu + p.sigma ** 2 / 2.0)
            back_var = (math.exp(p.sigma ** 2) - 1.0) * math.exp(
                2.0 * p.mu + p.sigma ** 2)
            if abs(back_mean - mean) > 1e-12 * mean:
                failures.append(f"mean round-trip m={mean} s/m={ratio}")
            target_var = (ratio * mean) ** 2
            if abs(back_var - target_var) > 1e-12 * max(target_var, 1e-24):
                failures.append(f"variance round-trip m={mean} s/m={ratio}")
    draws = sample_lognormal(lognormal_from_moments(2.0, 2.0),
                             derive_stream(1, ["acceptance-mean"]),
                             size=1_000_000)
    if abs(float(np.mean(draws)) - 2.0) > 0.01 * 2.0:
        failures.append(f"sample mean {float(np.mean(draws)):.4f}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    conclude(1, "log-normal moment round-trip and empirical mean", failures)


def test_criterion_2_calibration_reproduction():
    cases = [
        ((1.766, 0.055, 2016, 2017), 1.669, 0.0005),
        ((0.241, 0.006, 2007, 2017), 0.227, 0.001),
        ((0.058, 0.019, 2005, 2017), 0.046, 0.001),
    ]
    failures = []
    for args, expected, tol in cases:
        got = adjust_reference_cost(*args)
        if abs(got - expected) > tol:
            failures.append(f"{args} -> {got:.5f}, want {expected}±{tol}")
    conclude(2, "reference-year cost calibration", failures)


def test_criterion_3_autonomous_derivation():
    reg = builtin_modes()
    cost_targets = {
        # mode: (multiple, accepted published values)
        "air": (4.0, (6.767, 6.676)),
        "ocean": (1.26, (0.0249,)),
        "truck": (2.0, (0.454,)),
        "rail": (1.8, (0.0828,)),
        # published IWT value is tied to the inconsistent base cost; the
        # target follows the adopted base
        "iwt": (1.26, (1.26 * reg.get("iwt").base_cost_mean,)),
    }
    rate_targets = {"air": 0.098, "ocean": 0.064, "truck": 0.049,
                    "rail": 0.062, "iwt": 0.047}
    failures = []
    for mode_id, (multiple, accepted) in cost_targets.items():
        auto = derive_autonomous(reg.get(mode_id), multiple, 0.043)
        if not any(abs(auto.base_cost_mean - v) <= 0.01 * v for v in accepted):
            failures.append(f"{mode_id} cost {auto.base_cost_mean:.4g} "
                            f"not within 1% of {accepted}")
        if abs(auto.improvement_rate_mean - rate_targets[mode_id]) > 1e-12:
            failures.append(f"{mode_id} rate {auto.improvement_rate_mean}")
    conclude(3, "autonomous cost table within 1%, rate table exact", failures)


def test_criterion_4_ocean_crossover_default():
    from freightsim.analysis import deterministic_crossover_year
    year = deterministic_crossover_year(1.26, 0.021, 0.064, 2018)
    failures = [] if year is not None and 2023 <= year <= 2026 else [
        f"crossover {year} outside [2023, 2026]"]
    conclude(4, "deterministic ocean crossover in the mid-2020s", failures)


PRINTED_GRID = {
    0.02: {1.5: 2039, 2.5: 2067, 3.5: 2086, 4.5: 2098},
    0.04: {1.5: 2028, 2.5: 2043, 3.5: 2052, 4.5: 2059},
    0.06: {1.5: 2025, 2.5: 2035, 3.5: 2041, 4.5: 2045},
    0.08: {1.5: 2024, 2.5: 2031, 3.5: 2036, 4.5: 2037},
}


def test_criterion_5_sensitivity_grid():
    failures = []
    start = time.perf_counter()
    grid = sensitivity_grid()
    for delta, row in PRINTED_GRID.items():
        for multiple, printed in row.items():
            got = grid.cell(delta, multiple)
            if got is None or abs(got - printed) > 8:
                failures.append(
                    f"cell ({delta:.0%}, {multiple}x) = {got}, "
                    f"printed {printed}")
    for row in grid.cells:
        if list(row) != sorted(row):
            failures.append("row not non-decreasing in multiple")
    for j in range(len(grid.multiples)):
        col = [row[j] for row in grid.cells]
        if col != sorted(col, reverse=True):
            failures.append("column not non-increasing in delta")
    if grid.cell(0.06, 1.5) != 2025:
        failures.append(f"anchor cell {grid.cell(0.06, 1.5)} != 2025")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    conclude(5, "sensitivity grid within ±8 years, monotone, anchor exact",
             failures)


def _trajectories(results):
    """The mean costs every trip of ``results`` was costed with."""
    return replicate_trajectories(results.config, results.registry,
                                  range(results.config.iterations))


def _median_mode_means(results, year, means):
    cfg = results.config
    out = {}
    for i, mode in enumerate(cfg.enabled_modes):
        vals = means[:, year - cfg.start_year, i]
        out[mode] = float(np.median(vals))
    return out


def test_criterion_6a_mode_cost_ordering(scenario1):
    results, _ = scenario1
    means = _trajectories(results)
    failures = []
    for year in range(2018, 2051):
        medians = _median_mode_means(results, year, means)
        cheapest = min(medians, key=medians.get)
        if cheapest not in ("ocean", "auto_ocean"):
            failures.append(f"{year}: cheapest is {cheapest}")
        if year <= 2045:
            dearest = max(medians, key=medians.get)
            if dearest not in ("air", "auto_air"):
                failures.append(f"{year}: most expensive is {dearest}")
    conclude("6a", "ocean modes cheapest, air modes most expensive", failures)


def test_criterion_6b_ocean_only_median_2018():
    cfg = ScenarioConfig(name="ocean-only", enabled_modes=["ocean"],
                         seed=2018, iterations=DESK_REPLICATES,
                         start_year=2018, end_year=2018)
    results = run_scenario(cfg)
    median = float(np.median([r.trip_cost for r in results.records]))
    failures = [] if 10.0e6 <= median <= 12.5e6 else [
        f"median ${median / 1e6:.2f}M outside [$10.0M, $12.5M]"]
    conclude("6b", "ocean-only 2018 median trip cost around $10M", failures)


def test_criterion_6c_extreme_2018_cost(scenario1):
    results, _ = scenario1
    top = max(r.trip_cost for r in results.records if r.year == 2018)
    failures = [] if top > 1e9 else [f"max 2018 cost ${top:.3g}"]
    conclude("6c", "2018 all-modes maximum trip cost exceeds $1B", failures)


def test_criterion_6d_spread_narrows(scenario1):
    results, _ = scenario1
    def spread(year):
        costs = [r.trip_cost for r in results.records if r.year == year]
        return max(costs) - min(costs)
    s18, s50 = spread(2018), spread(2050)
    failures = [] if s50 <= s18 / 10.0 else [
        f"spread 2050 ${s50:.3g} vs 2018 ${s18:.3g}"]
    conclude("6d", "2050 cost spread at least 10x narrower than 2018", failures)


def test_criterion_6_runtime(scenario1):
    _, elapsed = scenario1
    failures = [] if elapsed < 60.0 else [f"runtime {elapsed:.1f}s >= 60s"]
    conclude("6-runtime", "desk-scale scenario 1 under 60 s", failures)


def test_criterion_7_truck_crossover(scenario2):
    report = empirical_crossover(scenario2, "truck", "auto_truck")
    failures = []
    year = report.empirical_year
    if year is None or not 2025 <= year <= 2040:
        failures.append(f"empirical crossover {year} outside [2025, 2040]")
    else:
        for y, (non_med, auto_med) in sorted(report.basis.items()):
            if y <= year or non_med is None or auto_med is None:
                continue
            if auto_med > non_med:
                failures.append(f"{y}: autonomous median back above")
    conclude(7, "truck crossover exists and is permanent", failures)


def test_criterion_8_determinism():
    cfg = ScenarioConfig(name="det", enabled_modes=["ocean", "auto_ocean"],
                         seed=77, iterations=20, end_year=2026)
    artifacts = []
    for workers in (1, 3, 1):
        results = run_scenario(cfg, workers=workers)
        csv_buf, svg_buf = io.StringIO(), io.StringIO()
        write_records_csv(results, csv_buf)
        render_scatter_svg(results, PlotSpec(focus_mode="auto_ocean"), svg_buf)
        artifacts.append((csv_buf.getvalue(), svg_buf.getvalue()))
    failures = []
    if not artifacts[0] == artifacts[1] == artifacts[2]:
        failures.append("artifacts differ across runs/worker counts")
    conclude(8, "byte-identical CSV and SVG across runs and worker counts",
             failures)


def test_criterion_9_property_suite(scenario1):
    results, _ = scenario1
    failures = []
    bad_sum = bad_min = 0
    for seed in range(10_000):
        stream = derive_stream(seed, ["acceptance-legs"])
        legs = generate_leg_distances(10_000.0, 100.0, stream)
        if abs(math.fsum(legs) - 10_000.0) > 1e-6:
            bad_sum += 1
        if any(d < 100.0 for d in legs):
            bad_min += 1
    if bad_sum:
        failures.append(f"{bad_sum} trips with wrong leg sum")
    if bad_min:
        failures.append(f"{bad_min} trips violating the 100 km minimum")
    if not all(r.trip_cost > 0 for r in results.records):
        failures.append("non-positive trip cost")
    cfg = results.config
    means = _trajectories(results)
    for rep in range(cfg.iterations):
        for i, mode in enumerate(cfg.enabled_modes):
            path = means[rep, :, i].tolist()
            if not all(b < a for a, b in zip(path, path[1:])):
                failures.append(f"non-decreasing trajectory: {mode} rep {rep}")
                break
    conclude(9, "leg invariants, positive costs, decreasing trajectories",
             failures)


def test_figure_artifacts_render():
    # the full point clouds are stochastic; acceptance is that rendering the
    # chart artifacts succeeds on real output
    cfg = ScenarioConfig(name="figures", enabled_modes=ALL_MODES, seed=4,
                         iterations=25, end_year=2030)
    results = run_scenario(cfg)
    for focus in ("air", "auto_ocean"):
        buf = io.StringIO()
        render_scatter_svg(results, PlotSpec(focus_mode=focus), buf)
        assert buf.getvalue().startswith("<?xml")
