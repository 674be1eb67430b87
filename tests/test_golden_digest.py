"""Pinned SHA-256 digests of the CSV and SVG for a few fixed configs.

Criterion 8 compares runs of one code version with each other; these digests
compare every code version with the one that recorded them, so a refactor of
the draw engine cannot change the output bytes silently.  Re-record a digest
only for an intended output change, and say so.
"""

import hashlib
import io

import pytest

from freightsim.config import ScenarioConfig
from freightsim.evolution import run_scenario
from freightsim.report import PlotSpec, render_scatter_svg, write_records_csv

ALL_MODES = ["air", "ocean", "truck", "rail", "iwt",
             "auto_air", "auto_ocean", "auto_truck", "auto_rail", "auto_iwt"]

CONFIGS = {
    "all-modes-per-replicate": dict(
        enabled_modes=ALL_MODES, seed=2018, iterations=20, end_year=2030,
        evolution_policy="per-replicate"),
    "all-modes-shared": dict(
        enabled_modes=ALL_MODES, seed=2018, iterations=20, end_year=2030,
        evolution_policy="shared"),
    # Rare paths of the rate step: a mode with zero spreads (no draws), a
    # mode with rate 0 (cost unchanged), and a mode whose sampled rate is
    # >= 1 about one step in six, so the redraw path runs.
    "rare-rate-paths": dict(
        enabled_modes=["ocean", "rail", "flat", "wild"], seed=7,
        iterations=20, end_year=2030,
        modes=[{"id": "rail", "cost_stdev_fraction": 0.0,
                "rate_stdev_fraction": 0.0},
               {"id": "flat", "base_cost_mean": 0.1, "base_year": 2018,
                "improvement_rate_mean": 0.0},
               {"id": "wild", "base_cost_mean": 0.5, "base_year": 2018,
                "improvement_rate_mean": 0.9, "rate_stdev_fraction": 5.0}]),
    # Fixed handling cost (a zero-sigma slot between drawn ones) and short
    # legs, so trips carry many normal draws.
    "pair-fixed-handling": dict(
        enabled_modes=["ocean", "auto_ocean"], seed=11, iterations=20,
        end_year=2030, handling_stdev_fraction=0.0, min_leg_km=10.0),
}

GOLDEN = {
    "all-modes-per-replicate": (
        "2e3e594f8bbab54b3f1ead17ea7b73d64e0ea6d804c7c9ab053053cf02bf46a3",
        "66368120bdf0e6fb5383a2bceddbb5183d1a51b9ecebac777acc44a710ea3df8"),
    "all-modes-shared": (
        "8186c0f8706622def1b1b3d5e2ce0b4e4cbef9496719d1ad385fe9f4c8815550",
        "05e9352c065935dc4eebfc3f853bdbcd7378e33bc1798307838b96511137b670"),
    "rare-rate-paths": (
        "63a311705800739daa3fd52876bc1627191ca1caab267f8007ac897f5fb48ccb",
        "cf0428f32baa2e92665587bc0f62518ec8b08f15d621ec774ab02ecd9d080a29"),
    "pair-fixed-handling": (
        "fcc04739fc7f89e49c620ff13e77695c5d0d184c82d44fe2079fc90336daa76d",
        "7636ac2714de3e65506c304638fff09a00ab40973d67a7c1fa9a3c1f068f034a"),
}


def digests(name):
    cfg = ScenarioConfig(**CONFIGS[name])
    results = run_scenario(cfg)
    csv, svg = io.StringIO(), io.StringIO()
    write_records_csv(results, csv)
    render_scatter_svg(results, PlotSpec(focus_mode=cfg.enabled_modes[0]), svg)
    return tuple(hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
                 for buf in (csv, svg))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_bytes_match_recorded_digests(name):
    assert digests(name) == GOLDEN[name]
