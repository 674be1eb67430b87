"""Mutation checks: each mutant breaks one fragment of ``src/`` in a copy,
and the tests named for it must then fail.

Run from anywhere with ``python3 tests/mutants.py``.  For each mutant
the runner copies ``src/`` to a temporary directory, replaces the
mutant's fragment, which must occur exactly once in its file, and runs
the mutant's tests against the copy.  It prints one line per mutant and
exits non-zero if a fragment is missing or not unique, if a test id is
not found, or if a mutant survives: a test it names passes.  pytest does
not collect this file.

A mutant that no test kills is a line whose change the tests cannot see;
add a test that fails on it, not a weaker mutant.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/freightsim/
    fragment: str
    replacement: str
    tests: tuple[str, ...]  # test ids, each of which must fail


TINY = "tests/test_oracle.py::TestTinySpreadsMatchOracle::" \
       "test_the_cell_draws_where_the_oracle_does"
COLUMNAR = "tests/test_tripsim.py::TestColumnarCostingMatchesScalarLoop::" \
           "test_cost_and_fractions_bit_for_bit"
HANDLING_EXAMPLE = "tests/test_tripsim.py::" \
                   "TestColumnarCostingMatchesScalarLoop::" \
                   "test_examples_draw_handling_from_the_first_leg"
GOLDEN = "tests/test_golden_digest.py::" \
         "test_output_bytes_match_recorded_digests"
LANE_NORMALS = "tests/test_lanes.py::TestLaneNormalsMatchGenerator::" \
               "test_values_and_final_states"
FLAT = "tests/test_lanes.py::TestFlatNormals::"
CONFIG_ERROR = "tests/test_io.py::TestUnreachedConfigErrors::" \
               "test_simulate_fails_with_one_error_line_and_no_output"
BLOCK = "tests/test_evolution.py::TestBlockNormals::"
COUNTS = "tests/test_tripsim.py::TestModeRoundsCountDraws::" \
         "test_each_trip_counts_the_flags_of_its_modes"

MUTANTS = [
    # A spread too small to move the cost still draws a normal, which moves
    # the draws after it; skipping it shifts them.  One test decides which
    # cells of a cost or rate table draw: a subnormal ratio, sigma about
    # 1e-160, must draw.
    Mutant("drawn-ratio-floor", "tripsim.py",
           "self.drawn[a:a + step] = ratios != 0.0",
           "self.drawn[a:a + step] = ratios >= 1e-300",
           (f"{TINY}[cost-1e-160-per-replicate]",
            f"{TINY}[cost-1e-160-shared]",
            f"{TINY}[rate-1e-160-per-replicate]",
            f"{TINY}[rate-1e-160-shared]")),
    Mutant("handling-sigma-floor", "stochastics.py",
           "return self.sigma != 0.0", "return self.sigma >= 1e-150",
           (f"{TINY}[handling-1e-160-per-replicate]",
            f"{TINY}[handling-1e-160-shared]")),
    # Each leg takes its handling normal before its operational one.
    Mutant("handling-before-operational", "tripsim.py",
           "x = z[first[drawn]]", "x = z[first[drawn] + h.draws]",
           ("tests/test_tripsim.py::TestSimulateTripDrawOrder::"
            "test_normals_pair_with_operational_then_handling_per_leg",
            HANDLING_EXAMPLE, f"{GOLDEN}[all-modes-per-replicate]")),
    # A one-mode trip counts one drawn operational cost, not one a leg.
    Mutant("one-mode-counts-one-leg", "tripsim.py",
           "n_legs * drawn[:, 0]", "drawn[:, 0]",
           (COUNTS,)),
    # Every trip of a mode round counts from the first active trip's row.
    Mutant("count-reads-first-trip", "tripsim.py",
           "drawn[active, m]", "drawn[active[:1], m]",
           (COUNTS,)),
    # The block's counts leave out the handling normals, which its cost
    # runs then read past the end of the draws.  Every run that draws a
    # handling cost fails; no test module runs the engine while pytest
    # collects it, so the named tests fail, not their modules' collection.
    Mutant("block-counts-without-handling", "evolution.py",
           " + trips.n_legs * handling_params.draws", "",
           (f"{BLOCK}test_a_block_of_many_cost_runs_matches_the_oracle"
            "[per-replicate]",
            f"{GOLDEN}[all-modes-per-replicate]")),
    # Every cost run reads the normals from the block's start, not from its
    # own first trip's.
    Mutant("cost-run-reads-block-start", "evolution.py",
           "z[ends[a] - counts[a]:ends[b - 1]]",
           "z[:ends[b - 1] - ends[a] + counts[a]]",
           (f"{BLOCK}test_a_block_of_many_cost_runs_matches_the_oracle"
            "[per-replicate]",
            f"{BLOCK}test_a_block_of_many_cost_runs_matches_the_oracle"
            "[shared]")),
    # The product runs across trajectories instead of along the years.
    Mutant("accumulate-across-trajectories", "evolution.py",
           "np.multiply.accumulate(out, axis=1, out=out)",
           "np.multiply.accumulate(out, axis=0, out=out)",
           ("tests/test_evolution.py::TestRunScenario::"
            "test_zero_rate_stdev_matches_compound_decay",
            "tests/test_oracle.py::TestRunScenarioMatchesOracle::"
            "test_short_trips_are_one_leg")),
    # A table no longer checks the cells no leg uses.
    Mutant("table-unchecked", "tripsim.py",
           "ratios = lognormal_ratios(rows, stdev_fractions * rows)",
           "ratios = stdev_fractions * rows",
           ("tests/test_tripsim.py::TestCostTable::"
            "test_an_unused_entry_that_cannot_be_matched_is_rejected",)),
    # An item that starts on a run's first unit joins the run before, so
    # the first lane or trip is in no run.
    Mutant("cuts-right", "lanes.py",
           "starts = firsts.searchsorted(np.arange(0, sizes.sum(), width))",
           "starts = firsts.searchsorted(np.arange(0, sizes.sum(), width), "
           "\"right\")",
           ("tests/test_tripsim.py::TestCostRuns::"
            "test_a_run_edge_inside_the_last_trip_adds_no_run",
            f"{FLAT}test_counts_across_the_slice_edge[counts1]")),
    # A stopped lane is left in the state of its slice's last output, not
    # of its stop, so the slow path draws from the wrong state.
    Mutant("stop-state-unpointed", "lanes.py",
           "                at[js - l0] = slow\n", "",
           (LANE_NORMALS,
            f"{FLAT}test_counts_across_the_slice_edge[counts0]")),
    # The mask marks each lane's last output off the fast path, not its
    # first, so a lane with two in one pass keeps the later one.
    Mutant("later-stop", "lanes.py",
           "np.not_equal(js[1:], js[:-1], out=head[1:])",
           "np.not_equal(js[1:], js[:-1], out=head[:-1])",
           (f"{FLAT}test_counts_across_the_slice_edge[counts0]",
            f"{FLAT}test_wedge_rejection_redraws_into_the_tail")),
    # Every wedge draw is kept: no rejected normal starts again.
    Mutant("every-wedge-accepted", "lanes.py",
           "done[wedge] = (_FI[layer - 1] - fi) * u + fi < bound",
           "done[wedge] = True",
           (LANE_NORMALS,
            f"{FLAT}test_wedge_rejection_redraws_into_the_tail")),
    # A pass takes the whole call as one slice: its work arrays grow with
    # the call.
    Mutant("one-slice", "lanes.py",
           "edges = cuts(need, _SLICE)", "edges = [0, lanes.size]",
           (f"{FLAT}test_a_wide_call_works_in_slices",)),
    # Output paths compared resolved only: hard links get through.
    Mutant("hard-links-by-resolve", "cli.py",
           "return a == b or a.samefile(b)", "return a == b",
           ("tests/test_io.py::TestCli::"
            "test_simulate_csv_hard_linked_to_the_config_writes_nothing",
            "tests/test_io.py::TestCli::"
            "test_simulate_hard_linked_outputs_write_nothing")),
    # A negative mode cost spread passes the registry check and fails later
    # as an unmatched log-normal, under another message.
    Mutant("registry-cost-stdev-unchecked", "modes.py",
           "        if spec.cost_stdev_fraction < 0:\n"
           "            violations.append(f\"{spec.id}: cost_stdev_fraction "
           "must be >= 0\")\n", "",
           (f"{CONFIG_ERROR}[negative-mode-cost-stdev]",)),
    # A new mode without all its fields ends in a TypeError traceback from
    # ModeSpec, not in one error line.
    Mutant("missing-fields-unchecked", "config.py",
           "            if missing:\n", "            if False:\n",
           (f"{CONFIG_ERROR}[new-mode-missing-fields]",)),
    # A span past 120 years is labelled every 10 years, not every 20.
    Mutant("year-ticks-capped-at-10", "report.py",
           "    return 20\n", "    return 10\n",
           ("tests/test_io.py::TestSvg::"
            "test_year_labels_step_past_120_years[152-years]",)),
]


def run(mutant: Mutant) -> tuple[bool, str]:
    """Apply ``mutant`` to a copy of ``src/`` and run its tests there;
    whether it was killed, and a line saying how."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "freightsim" / mutant.file
        text = path.read_text("utf-8")
        found = text.count(mutant.fragment)
        if found != 1:
            return False, f"fragment found {found} times in {mutant.file}"
        path.write_text(text.replace(mutant.fragment, mutant.replacement),
                        "utf-8")
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
    failed = set(re.findall(r"^FAILED (\S+)", proc.stdout, re.M))
    if proc.returncode not in (0, 1):
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
        return False, f"pytest exited {proc.returncode}: {' '.join(tail)}"
    passed = [t for t in mutant.tests if t not in failed]
    if passed:
        return False, f"survived: {len(passed)} test(s) passed, " \
                      f"first {passed[0]}"
    return True, f"killed by {len(mutant.tests)} test(s)"


def main() -> int:
    ok = True
    for mutant in MUTANTS:
        killed, how = run(mutant)
        ok &= killed
        print(f"{'ok  ' if killed else 'FAIL'} {mutant.name}: {how}",
              flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
