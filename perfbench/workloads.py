"""Workload configs, the user pipeline, and the output check.

The pipeline is the one ``freightsim simulate`` and ``freightsim crossover``
run: config text -> load_config -> run_scenario -> summarize ->
empirical_crossover -> CSV file -> SVG file.  Every freightsim function is
looked up on the package at call time, so a tracer that rebinds the package
attributes sees these calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 2018
CROSSOVER_PAIR = ("ocean", "auto_ocean")
ALL_MODES = ["air", "ocean", "truck", "rail", "iwt",
             "auto_air", "auto_ocean", "auto_truck", "auto_rail", "auto_iwt"]

# Replicate counts are sized so that one pipeline takes 1.5-2.5 s on a
# 2-vCPU virtual machine: a 35 s run then holds 15-20 pipelines.
WORKLOADS: dict[str, dict] = {
    # The headline scenario: per-replicate rate evolution of ten modes and
    # per-leg parameter work (about 5.0 legs per trip) dominate.
    "scenario1": {"enabled_modes": ALL_MODES,
                  "evolution_policy": "per-replicate",
                  "iterations": 160},
    # The shape of `freightsim crossover`: two modes, short legs (about 7.3
    # per trip), so leg draws and costing dominate and rate evolution is small.
    "pair-legs": {"enabled_modes": list(CROSSOVER_PAIR),
                  "evolution_policy": "per-replicate",
                  "min_leg_km": 10.0,
                  "iterations": 200},
    # One leg per trip and one shared trajectory: stream derivation, result
    # assembly, post-processing, CSV/SVG and memory dominate.
    "shared-bulk": {"enabled_modes": ALL_MODES,
                    "evolution_policy": "shared",
                    "min_leg_km": 5000.0,
                    "iterations": 600},
}


def make_config(workload: str, seed: int = DEFAULT_SEED) -> str:
    """The workload's scenario config as JSON text; a pure function of
    (workload, seed)."""
    doc = {"name": workload, "seed": int(seed), "start_year": 2018,
           "end_year": 2050, **WORKLOADS[workload]}
    return json.dumps(doc, sort_keys=True)


class NullSpans:
    """Stage-span recorder that records nothing (untraced runs)."""

    def span(self, name: str):
        return contextlib.nullcontext()


@dataclass
class Outcome:
    """What one pipeline produced, for the output check."""

    results: object
    summaries: list
    csv_path: Path
    svg_path: Path
    wall_s: float

    @property
    def trips(self) -> int:
        return len(self.results.records)


def run_pipeline(fs, config_text: str, out_dir: Path, name: str,
                 workers: int = 1, spans=NullSpans()) -> Outcome:
    """Run the user pipeline once, writing ``<name>-w<workers>.csv`` and
    ``.svg`` into ``out_dir``; return its outputs and wall time."""
    csv_path = out_dir / f"{name}-w{workers}.csv"
    svg_path = out_dir / f"{name}-w{workers}.svg"
    t0 = time.perf_counter()
    with spans.span("pipeline"):
        with spans.span("load_config"):
            cfg = fs.load_config(config_text)
        with spans.span("run_scenario"):
            results = fs.run_scenario(cfg, workers=workers)
        with spans.span("summarize"):
            summaries = fs.summarize(results)
        if all(m in cfg.enabled_modes for m in CROSSOVER_PAIR):
            with spans.span("empirical_crossover"):
                fs.empirical_crossover(results, *CROSSOVER_PAIR)
        with spans.span("write_csv"):
            with open(csv_path, "w", encoding="utf-8", newline="\n") as f:
                fs.write_records_csv(results, f)
        with spans.span("render_svg"):
            with open(svg_path, "w", encoding="utf-8", newline="\n") as f:
                fs.render_scatter_svg(
                    results, fs.PlotSpec(focus_mode=cfg.enabled_modes[0]), f)
    wall = time.perf_counter() - t0
    return Outcome(results, summaries, csv_path, svg_path, wall)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class OutputCheck:
    """Checks every pipeline of one run and counts the failures.

    A pipeline fails when its records or summaries break an invariant, or
    when its CSV or SVG digest differs from the first pipeline of the run
    (any worker count) or from ``golden`` when one is given.
    """

    def __init__(self, golden: dict | None = None):
        self.golden = golden
        self.reference: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, out: Outcome) -> bool:
        self.attempted += 1
        problems = invariant_problems(out)
        digests = {"csv_sha256": sha256_file(out.csv_path),
                   "svg_sha256": sha256_file(out.svg_path)}
        if self.reference is None:
            self.reference = digests
        for key, want in (self.golden or {}).items():
            if digests[key] != want:
                problems.append(f"{key} differs from the recorded golden value")
        for key, want in self.reference.items():
            if digests[key] != want:
                problems.append(f"{key} differs from the run's first pipeline")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def invariant_problems(out: Outcome) -> list[str]:
    cfg = out.results.config
    years = cfg.end_year - cfg.start_year + 1
    problems = []
    if out.trips != years * cfg.iterations:
        problems.append(f"{out.trips} records, want {years * cfg.iterations}")
    for rec in out.results.records:
        if not (math.isfinite(rec.trip_cost) and rec.trip_cost > 0):
            problems.append(f"bad cost {rec.trip_cost!r} at "
                            f"({rec.year}, {rec.replicate})")
            break
        if abs(math.fsum(rec.mode_distance_fraction.values()) - 1.0) > 1e-9:
            problems.append(f"fractions do not sum to 1 at "
                            f"({rec.year}, {rec.replicate})")
            break
    summary_years = [s.year for s in out.summaries]
    if summary_years != list(range(cfg.start_year, cfg.end_year + 1)):
        problems.append("summarize did not give one row per year")
    if any(not (s.p5 <= s.p50 <= s.p95) for s in out.summaries):
        problems.append("summarize percentiles out of order")
    return problems
