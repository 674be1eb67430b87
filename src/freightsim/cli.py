"""Command-line surface: mode listing, scenario runs, crossover analysis,
the sensitivity grid, and reference-year calibration."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .analysis import (DEFAULT_BASE_RATE, DEFAULT_BASE_YEAR, DEFAULT_DELTAS,
                       DEFAULT_MULTIPLES, empirical_crossover, sensitivity_grid)
from .config import load_config
from .evolution import run_scenario
from .modes import adjust_reference_cost, builtin_modes
from .report import PlotSpec, render_scatter_svg, write_records_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freightsim",
        description="Seeded Monte-Carlo simulation of intermodal freight "
                    "transport costs under technological improvement.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_modes = sub.add_parser("modes", help="inspect the builtin mode dataset")
    modes_sub = p_modes.add_subparsers(dest="modes_command", required=True)
    modes_sub.add_parser("list", help="print the builtin modes with provenance")

    p_sim = sub.add_parser("simulate", help="run a scenario and write artifacts")
    p_sim.add_argument("--config", required=True, help="scenario JSON file")
    p_sim.add_argument("--out-csv", required=True, help="CSV output path")
    p_sim.add_argument("--out-svg", help="optional SVG scatter output path")
    p_sim.add_argument("--focus", help="mode whose distance fraction colors "
                                       "the SVG points (default: first enabled)")

    p_cross = sub.add_parser("crossover",
                             help="pairwise autonomous-vs-conventional crossover")
    p_cross.add_argument("--config", required=True, help="scenario JSON file")
    p_cross.add_argument("--mode", required=True,
                         help="conventional mode id (pairs with auto_<mode>)")
    p_cross.add_argument("--json", action="store_true",
                         help="emit the report as JSON")

    p_sens = sub.add_parser("sensitivity",
                            help="crossover-year grid over cost multiples "
                                 "and rate deltas")
    p_sens.add_argument("--multiples", type=float, nargs="+",
                        default=list(DEFAULT_MULTIPLES))
    p_sens.add_argument("--deltas", type=float, nargs="+",
                        default=list(DEFAULT_DELTAS))
    p_sens.add_argument("--base-rate", type=float, default=DEFAULT_BASE_RATE)
    p_sens.add_argument("--base-year", type=int, default=DEFAULT_BASE_YEAR)

    p_cal = sub.add_parser("calibrate",
                           help="roll a reference cost forward in time")
    p_cal.add_argument("--value", type=float, required=True)
    p_cal.add_argument("--rate", type=float, required=True)
    p_cal.add_argument("--from", dest="from_year", type=int, required=True)
    p_cal.add_argument("--to", dest="to_year", type=int, required=True)

    return parser


def _cmd_modes_list(_args: argparse.Namespace) -> int:
    print(f"{'id':<12} {'$/t-km':>10} {'base yr':>8} {'rate/yr':>8} {'auto':>5}")
    for spec in builtin_modes():
        print(f"{spec.id:<12} {spec.base_cost_mean:>10.4g} "
              f"{spec.base_year:>8} {spec.improvement_rate_mean:>8.3f} "
              f"{str(spec.autonomous).lower():>5}")
        print(f"    {spec.provenance}")
    return 0


def _same_file(a: Path, b: Path) -> bool:
    """Whether two resolved paths name one file: the same path, or two
    existing hard links of one file."""
    try:
        return a == b or a.samefile(b)
    except OSError:
        return False


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(Path(args.config).read_text("utf-8"))
    focus = args.focus or cfg.enabled_modes[0]
    if focus not in cfg.enabled_modes:
        raise ValueError(f"focus mode {focus!r} not in scenario")
    outputs = {"--out-csv": args.out_csv, "--out-svg": args.out_svg}
    resolved = {flag: Path(path).resolve()
                for flag, path in outputs.items() if path}
    if len(resolved) == 2 and _same_file(*resolved.values()):
        raise ValueError(f"--out-csv and --out-svg name the same file "
                         f"{args.out_csv}")
    config = Path(args.config).resolve()
    for flag, path in resolved.items():
        if _same_file(path, config):
            raise ValueError(f"{flag} {outputs[flag]} names the --config "
                             f"file {args.config}")
        if not path.parent.is_dir():
            raise ValueError(f"{flag} {outputs[flag]}: directory "
                             f"{path.parent} does not exist")
        if path.is_dir():
            raise ValueError(f"{flag} {outputs[flag]} is a directory")
    results = run_scenario(cfg)
    with open(args.out_csv, "w", encoding="utf-8", newline="\n") as f:
        write_records_csv(results, f)
    print(f"wrote {results.cost.size} records to {args.out_csv}")
    if args.out_svg:
        with open(args.out_svg, "w", encoding="utf-8", newline="\n") as f:
            render_scatter_svg(results, PlotSpec(focus_mode=focus), f)
        print(f"wrote scatter chart to {args.out_svg}")
    return 0


def _cmd_crossover(args: argparse.Namespace) -> int:
    cfg = load_config(Path(args.config).read_text("utf-8"))
    auto_mode = f"auto_{args.mode}"
    cfg = dataclasses.replace(cfg, enabled_modes=[args.mode, auto_mode])
    results = run_scenario(cfg)
    report = empirical_crossover(results, args.mode, auto_mode)
    if args.json:
        print(json.dumps({
            "mode": report.mode,
            "auto_mode": report.auto_mode,
            "deterministic_year": report.deterministic_year,
            "empirical_year": report.empirical_year,
            "basis": {str(y): {"median_cost_per_tkm": m,
                               "auto_median_cost_per_tkm": a}
                      for y, (m, a) in report.basis.items()},
        }, indent=2))
        return 0
    det = report.deterministic_year if report.deterministic_year is not None else "never"
    emp = report.empirical_year if report.empirical_year is not None else "none"
    print(f"crossover {report.mode} vs {report.auto_mode}")
    print(f"  deterministic year: {det}")
    print(f"  empirical year:     {emp}")
    print(f"  {'year':>6} {report.mode + ' $/t-km':>18} {report.auto_mode + ' $/t-km':>18}")
    for year, (m, a) in sorted(report.basis.items()):
        ms = f"{m:.6g}" if m is not None else "-"
        as_ = f"{a:.6g}" if a is not None else "-"
        print(f"  {year:>6} {ms:>18} {as_:>18}")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    grid = sensitivity_grid(args.multiples, args.deltas,
                            args.base_rate, args.base_year)
    print(f"crossover year by cost multiple (columns) and rate delta (rows); "
          f"base rate {grid.base_rate:.3%}/yr, base year {grid.base_year}")
    print("".join([f"{'':>8}"] + [f"{m:>8.2g}x" for m in grid.multiples]))
    for delta, row in zip(grid.deltas, grid.cells):
        cells = [f"{(y if y is not None else 'never'):>9}" for y in row]
        print(f"{delta:>7.0%} " + "".join(cells))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    value = adjust_reference_cost(args.value, args.rate,
                                  args.from_year, args.to_year)
    if value == 0.0:
        raise ValueError(f"the cost rolled to {args.to_year} underflows to 0")
    print(f"{value:.6g}")
    return 0


_COMMANDS = {
    "modes": _cmd_modes_list,
    "simulate": _cmd_simulate,
    "crossover": _cmd_crossover,
    "sensitivity": _cmd_sensitivity,
    "calibrate": _cmd_calibrate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry_point()
