"""freightsim benchmark: run the user pipeline on one workload and report.

    python3 perfbench/run.py --workload scenario1 --seed 2018 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # every workload, a table

``--trace 0`` reports the end-to-end metrics: pipeline throughput at one
worker, peak RSS, and set-up time in fresh interpreters.  ``--trace 1``
reports the per-layer metrics from a traced run, which also times the
pipeline at two workers.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The freightsim
sources are imported from ``src/`` next to this directory; nothing is
installed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from calibrate import REFERENCE_S, reference_seconds, scaled
from tracing import Spans, Tracer
from workloads import (DEFAULT_SEED, WORKLOADS, OutputCheck, make_config,
                       run_pipeline)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench-out"
GOLDEN_FILE = BENCH_DIR / "golden.json"

SETUP_PROBES = 7
MIN_SAMPLES = 3  # per timed series, even when --seconds has run out

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import freightsim
freightsim.resolve_registry(freightsim.load_config(sys.argv[2]))
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
from calibrate import reference_seconds
print(repr(setup), repr(reference_seconds()))
"""


def import_freightsim():
    """Import freightsim from this checkout's ``src/``, or return None."""
    package = ROOT / "src" / "freightsim"
    if not (package / "__init__.py").is_file():
        print(f"error: no freightsim sources at {package}", file=sys.stderr)
        return None
    sys.path.insert(0, str(package.parent))
    import freightsim
    if Path(freightsim.__file__).resolve().parent != package.resolve():
        print(f"error: imported freightsim from {freightsim.__file__}, "
              f"not from {package}", file=sys.stderr)
        return None
    return freightsim


def setup_seconds(config_text: str) -> tuple[float, float]:
    """import + load_config + resolve_registry, timed in a fresh interpreter,
    and the reference workload's time in the same interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE,
         str(ROOT / "src"), config_text, str(BENCH_DIR)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    setup, reference = proc.stdout.split()
    return float(setup), float(reference)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def describe(name: str, value: float, unit: str, samples: list[float]) -> str:
    """One report line: the metric, then quartiles of its per-sample values."""
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (f"{name:<16} {value:>12.6g} {unit:<6} n={len(samples)}  "
            f"per sample q1 {q1:.6g} median {statistics.median(samples):.6g} "
            f"q3 {q3:.6g}")


def timed_run(fs, workload: str, config_text: str, seconds: float,
              check: OutputCheck) -> dict:
    probes = [setup_seconds(config_text) for _ in range(SETUP_PROBES)]
    deadline = time.perf_counter() + seconds
    # The first pipeline warms caches and the allocator; it is checked but
    # not timed.
    check.check(run_pipeline(fs, config_text, OUT_DIR, workload))
    walls: list[float] = []
    references = [reference_seconds()]
    while time.perf_counter() < deadline or len(walls) < MIN_SAMPLES:
        out = run_pipeline(fs, config_text, OUT_DIR, workload)
        check.check(out)
        walls.append(out.wall_s)
        trips = out.trips
        del out  # free the results before the next pipeline runs
        references.append(reference_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # All trips over all pipeline time, rescaled by the mean reference time
    # of the run.  Both sums weight each CPU speed state by the time spent
    # in it, which a median of per-pipeline rates does not.
    wall_s = math.fsum(walls)
    trips_per_s = trips * len(walls) / scaled(wall_s,
                                              statistics.fmean(references))
    # One reference sample per probe is noisy; their mean is steadier.
    probe_reference = statistics.fmean(r for _, r in probes)
    setups = [scaled(setup, probe_reference) for setup, _ in probes]
    setup_s = statistics.median(setups)
    print(describe("trips_per_s", trips_per_s, "1/s",
                   [trips / scaled(w, statistics.fmean(references))
                    for w in walls]))
    print(describe("setup_s", setup_s, "s", setups))
    print(f"{'peak_rss_mb':<16} {peak_rss_mb:>12.6g} MB")
    print(f"unscaled: trips_per_s {trips * len(walls) / wall_s:.6g} 1/s, "
          f"setup_s {statistics.median(s for s, _ in probes):.6g} s; "
          f"reference median {statistics.median(references):.6g} s "
          f"(nominal {REFERENCE_S} s)")
    return {"trips_per_s": metric(trips_per_s, "1/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "setup_s": metric(setup_s, "s")}


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def traced_run(fs, workload: str, seed: int, config_text: str,
               seconds: float, check: OutputCheck) -> dict:
    deadline = time.perf_counter() + seconds
    check.check(run_pipeline(fs, config_text, OUT_DIR, workload))
    spans = Spans()
    untraced: list[float] = []
    traced: list[float] = []
    two_workers: list[float] = []
    tracers: list[Tracer] = []
    while time.perf_counter() < deadline or len(tracers) < MIN_SAMPLES:
        out = run_pipeline(fs, config_text, OUT_DIR, workload)
        check.check(out)
        untraced.append(out.wall_s)
        out = run_pipeline(fs, config_text, OUT_DIR, workload, workers=2)
        check.check(out)
        two_workers.append(out.wall_s)
        with Tracer() as tracer:
            out = run_pipeline(fs, config_text, OUT_DIR, workload,
                               spans=spans)
        check.check(out)
        traced.append(out.wall_s)
        tracers.append(tracer)

    # Memory per trip, in a pass of its own: tracemalloc slows every
    # allocation, so it must not overlap the timed passes.
    cfg = fs.load_config(config_text)
    tracemalloc.start()
    try:
        results = fs.run_scenario(cfg)
        alloc_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    trips = len(results.records)
    del results

    per_fn = [t.by_function() for t in tracers]
    first = per_fn[0]

    def self_s(qual: str) -> float:
        return statistics.median(p[qual]["self_s"] for p in per_fn)

    metrics = {}
    for qual in ("stochastics.derive_stream",
                 "stochastics.lognormal_from_moments",
                 "stochastics.sample_lognormal",
                 "tripsim.simulate_trip", "tripsim.generate_leg_distances",
                 "tripsim.assign_modes", "tripsim.leg_cost",
                 "evolution.evolve_mode_state",
                 "evolution.compute_shared_means",
                 "analysis.summarize", "analysis.empirical_crossover",
                 "report.write_records_csv", "report.render_scatter_svg"):
        metrics[f"{qual}.calls"] = metric(first[qual]["calls"], "count")
        metrics[f"{qual}.self_s"] = metric(self_s(qual), "s")
    metrics["tripsim.legs_per_trip"] = metric(
        first["tripsim.leg_cost"]["calls"]
        / first["tripsim.simulate_trip"]["calls"], "legs/trip")
    rate_draws = tracers[0].calls["freightsim.evolution.sample_lognormal"]
    metrics["evolution.rate_draws_per_step"] = metric(
        rate_draws / first["evolution.evolve_mode_state"]["calls"],
        "draws/step")
    replicate_ms = [ns / 1e6 for t in tracers
                    for ns in t.durations_ns["evolution.run_replicate"]]
    metrics["evolution.run_replicate.p50_ms"] = metric(
        nearest_rank(replicate_ms, 50), "ms")
    metrics["evolution.run_replicate.p99_ms"] = metric(
        nearest_rank(replicate_ms, 99), "ms")
    metrics["evolution.assemble_s"] = metric(
        self_s("evolution.run_scenario"), "s")
    metrics["evolution.bytes_per_trip"] = metric(alloc_peak / trips, "B/trip")
    metrics["report.csv_bytes"] = metric(out.csv_path.stat().st_size, "B")
    metrics["report.svg_bytes"] = metric(out.svg_path.stat().st_size, "B")
    metrics["config.load_config.self_s"] = metric(
        self_s("config.load_config"), "s")
    metrics["config.resolve_registry.calls"] = metric(
        first["config.resolve_registry"]["calls"], "count")
    metrics["modes.builtin_modes.calls"] = metric(
        first["modes.builtin_modes"]["calls"], "count")
    metrics["evolution.trips_per_s_2w"] = metric(
        trips * len(two_workers) / math.fsum(two_workers), "1/s")
    metrics["evolution.workers2_speedup"] = metric(
        math.fsum(untraced) / math.fsum(two_workers), "ratio")
    metrics["trace.overhead_ratio"] = metric(
        statistics.median(traced) / statistics.median(untraced), "ratio")

    trace_file = OUT_DIR / f"trace-{workload}-{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload, "seed": seed, "traced_pipelines": len(tracers),
        "untraced_wall_s": untraced, "traced_wall_s": traced,
        "two_workers_wall_s": two_workers,
        "lookups": tracers[0].snapshot(), "functions": first,
        "spans": spans.records}, indent=1))
    print(f"trace written to {trace_file.relative_to(ROOT)} "
          f"({len(tracers)} traced pipelines)")
    for name, m in metrics.items():
        print(f"{name:<42} {m['value']:>14.6g} {m['unit']}")
    return metrics


def run_workload(args) -> int:
    fs = import_freightsim()
    if fs is None:
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    config_text = make_config(args.workload, args.seed)
    golden = None
    if args.seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN_FILE.read_text())["workloads"][args.workload]
    check = OutputCheck(golden)
    if args.trace:
        metrics = traced_run(fs, args.workload, args.seed, config_text,
                             args.seconds, check)
    else:
        metrics = timed_run(fs, args.workload, config_text, args.seconds,
                            check)
    for problem in check.problems:
        print(f"check failed: {problem}")
    print(f"failed_ratio {check.failed / check.attempted:.6g} "
          f"({check.failed} of {check.attempted} pipelines)")
    print(json.dumps({"correct": check.failed == 0,
                      "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of every metric."""
    rows = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        print(f"== {workload}")
        print(proc.stdout, end="", flush=True)
        rows[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("== summary")
    for workload, row in rows.items():
        print(f"{workload}: attempted {row['attempted']}, "
              f"failed {row['failed']}")
        for name, m in row["metrics"].items():
            print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    return 0 if all(row["correct"] for row in rows.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
