"""Record the CSV and SVG digests of every workload at the default seed.

    python3 perfbench/record_golden.py

writes ``perfbench/golden.json``.  The benchmark compares each pipeline run
on the default seed against these digests, so a code change that alters the
output bytes fails the benchmark's check.  Re-record only when an output
change is intended, and say so.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN_FILE, OUT_DIR, import_freightsim
from workloads import (DEFAULT_SEED, WORKLOADS, make_config, run_pipeline,
                       sha256_file)


def main() -> int:
    fs = import_freightsim()
    if fs is None:
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    digests = {}
    for workload in WORKLOADS:
        out = run_pipeline(fs, make_config(workload, DEFAULT_SEED), OUT_DIR,
                           workload)
        digests[workload] = {"csv_sha256": sha256_file(out.csv_path),
                             "svg_sha256": sha256_file(out.svg_path)}
    GOLDEN_FILE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "workloads": digests}, indent=2) + "\n")
    print(f"wrote {GOLDEN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
