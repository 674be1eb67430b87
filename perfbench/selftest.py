"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They run small pipelines (a few replicates) and check the config generator,
the output check, the tracer's install/restore, and the exact call counts the
traced run reports.  The file is not named ``test_*`` so that the project's
own test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest

from run import OUT_DIR, ROOT, import_freightsim
from tracing import TARGETS, Tracer
from workloads import (WORKLOADS, OutputCheck, make_config, run_pipeline)

fs = import_freightsim()
if fs is None:
    sys.exit(2)
OUT_DIR.mkdir(exist_ok=True)


def small_config(workload: str, replicates: int, seed: int = 5) -> str:
    doc = json.loads(make_config(workload, seed))
    doc["iterations"] = replicates
    return json.dumps(doc, sort_keys=True)


class ConfigGenerator(unittest.TestCase):
    def test_same_seed_same_config(self):
        for workload in WORKLOADS:
            self.assertEqual(make_config(workload, 11), make_config(workload, 11))
            self.assertNotEqual(make_config(workload, 11),
                                make_config(workload, 12))
            cfg = fs.load_config(make_config(workload, 11))
            self.assertEqual(cfg.seed, 11)


class OutputCheckCounts(unittest.TestCase):
    def test_one_byte_csv_corruption_is_a_failure(self):
        text = small_config("scenario1", 2)
        check = OutputCheck()
        self.assertTrue(check.check(run_pipeline(fs, text, OUT_DIR, "selftest")))
        out = run_pipeline(fs, text, OUT_DIR, "selftest")
        data = bytearray(out.csv_path.read_bytes())
        data[len(data) // 2] ^= 0x01
        out.csv_path.write_bytes(bytes(data))
        self.assertFalse(check.check(out))
        self.assertEqual((check.attempted, check.failed), (2, 1))

    def test_golden_mismatch_is_a_failure(self):
        text = small_config("pair-legs", 2)
        check = OutputCheck(golden={"csv_sha256": "0" * 64})
        self.assertFalse(check.check(run_pipeline(fs, text, OUT_DIR, "selftest")))
        self.assertEqual(check.failed, 1)

    def test_worker_counts_agree(self):
        text = small_config("scenario1", 3)
        check = OutputCheck()
        for workers in (1, 2):
            check.check(run_pipeline(fs, text, OUT_DIR, "selftest", workers))
        self.assertEqual(check.failed, 0, check.problems)


def bindings():
    """Every (module, attribute, value) that binds a traced function."""
    originals = {id(getattr(sys.modules[f"freightsim.{home}"], name))
                 for home, name in TARGETS}
    return {(mod_name, attr): value
            for mod_name, mod in sys.modules.items()
            if mod_name == "freightsim" or mod_name.startswith("freightsim.")
            for attr, value in vars(mod).items() if id(value) in originals}


class TracerRestores(unittest.TestCase):
    def test_untraced_pass_after_traced_pass_is_unwrapped(self):
        before = bindings()
        text = small_config("shared-bulk", 2)
        with Tracer() as tracer:
            self.assertNotEqual(bindings(), before)
            run_pipeline(fs, text, OUT_DIR, "selftest")
        counted = dict(tracer.calls)
        self.assertGreater(sum(counted.values()), 0)
        self.assertEqual(bindings(), before)
        self.assertFalse(hasattr(fs.evolution.derive_stream, "__wrapped__"))
        run_pipeline(fs, text, OUT_DIR, "selftest")
        self.assertEqual(dict(tracer.calls), counted)


def traced_counts(workload: str, replicates: int):
    text = small_config(workload, replicates)
    with Tracer() as tracer:
        out = run_pipeline(fs, text, OUT_DIR, "selftest")
    return out, tracer.by_function(), tracer


class ExactCallCounts(unittest.TestCase):
    def test_per_replicate_workloads(self):
        for workload in ("scenario1", "pair-legs"):
            out, fns, tracer = traced_counts(workload, 3)
            trips = out.trips
            modes = len(out.results.config.enabled_modes)
            legs = sum(r.n_legs for r in out.results.records)
            self.assertEqual(fns["stochastics.derive_stream"]["calls"],
                             2 * trips)
            self.assertEqual(fns["evolution.evolve_mode_state"]["calls"],
                             modes * trips)
            self.assertEqual(fns["tripsim.simulate_trip"]["calls"], trips)
            self.assertEqual(fns["tripsim.leg_cost"]["calls"], legs)
            self.assertEqual(fns["evolution.compute_shared_means"]["calls"], 0)
            self.assertEqual(
                tracer.calls["freightsim.evolution.sample_lognormal"],
                modes * trips)
            self.assertEqual(fns["config.resolve_registry"]["calls"], 2)
            self.assertEqual(fns["modes.builtin_modes"]["calls"], 2)

    def test_shared_bulk(self):
        out, fns, _ = traced_counts("shared-bulk", 3)
        years = 2050 - 2018 + 1
        self.assertEqual(out.trips, 3 * years)
        self.assertEqual(fns["stochastics.derive_stream"]["calls"],
                         out.trips + years)
        self.assertEqual(fns["evolution.evolve_mode_state"]["calls"],
                         10 * years)
        self.assertEqual(fns["evolution.compute_shared_means"]["calls"], 1)
        self.assertEqual(fns["tripsim.leg_cost"]["calls"], out.trips)


class WithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_printing_a_result(self):
        bare = OUT_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "scenario1",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
