"""Command-line interface.

Subcommands:
    simulate  run one scenario, emit spectrum.csv and report.json
    sweep     run a Gaussian-pattern scenario at each of a list of HPBWs
              in one pass over the trials, emit sweep.csv and report.json
    fit       score the simulated spectrum against empirical data (LSE)
    taps      extract delay taps from a raw PDP CSV

All outputs are deterministic for a fixed scenario and seed.  Failures
print a machine-readable JSON error record to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import operator
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .estimation import lse
from .geometry import _DEG, _US
from .scenario import (
    DEFAULT_PATHS_PER_TAP,
    DEFAULT_PROMINENCE_DB,
    ScenarioConfig,
    extract_taps,
    hpbw_sweep,
    run_simulation,
)


def _load_config(args):
    config = ScenarioConfig.from_file(args.scenario)
    overrides = {"trials": args.trials, "bins": args.bins, "master_seed": args.seed}
    return replace(config, **{name: value for name, value in overrides.items()
                              if value is not None})


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_spectrum_csv(path, spectrum):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["angle_deg", "pdf_per_deg"])
        for center, density in zip(spectrum.bin_centers, spectrum.density):
            writer.writerow([repr(float(center) / _DEG), repr(float(density) * _DEG)])


def _number(field):
    try:
        return float(field)
    except ValueError:
        return None


def _read_csv_pairs(path):
    """The (x, y) rows of a two-column CSV of numbers.

    Blank rows and rows whose first field starts with # are skipped, and
    so is the first other row if its first field is not a number (a
    header).  Every other row must be exactly two numbers.
    """
    rows, first = [], True
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            values = [_number(field) for field in row]
            header, first = first and values[0] is None, False
            if header:
                continue
            if len(values) != 2 or None in values:
                raise ValueError(f"malformed CSV row {reader.line_num} in {path}: {row!r} "
                                 "(expected two numbers)")
            rows.append(tuple(values))
    if not rows:
        raise ValueError(f"no numeric rows found in {path}")
    return rows


def _cmd_simulate(args):
    config = _load_config(args)
    report = run_simulation(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = report.to_json_dict()
    payload["version"] = __version__
    if args.per_path_spread:
        spreads = report.per_path_spreads.tolist()
        payload["per_path_spread_deg"] = [s / _DEG for s in spreads]
        # Added left to right, whatever the Python version's sum() does.
        total = functools.reduce(operator.add, spreads, 0.0)
        payload["per_path_spread_mean_deg"] = total / len(spreads) / _DEG
    _write_spectrum_csv(out / "spectrum.csv", report.averaged_spectrum)
    _write_json(out / "report.json", payload)
    print(
        f"angle spread: {report.angle_spread / _DEG:.3f} deg "
        f"({config.trials} trials, {config.bins} bins)"
    )
    return 0


def _cmd_sweep(args):
    config = _load_config(args)
    hpbws = [float(tok) for tok in args.hpbw.split(",") if tok.strip()]
    points = hpbw_sweep(config, hpbws)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hpbw_deg", "as_deg"])
        for point in points:
            writer.writerow([repr(point.hpbw_deg), repr(point.angle_spread / _DEG)])
    payload = {
        "version": __version__,
        "scenario": config.to_json_dict(),
        "points": [
            {
                "hpbw_deg": point.hpbw_deg,
                "angle_spread_deg": point.angle_spread / _DEG,
                "report": point.report.to_json_dict(),
            }
            for point in points
        ],
    }
    _write_json(out / "report.json", payload)
    for point in points:
        print(f"hpbw {point.hpbw_deg:7.1f} deg -> angle spread {point.angle_spread / _DEG:.3f} deg")
    return 0


def _cmd_fit(args):
    config = _load_config(args)
    report = run_simulation(config)
    empirical_deg = _read_csv_pairs(args.empirical)
    # CSV columns are angle_deg, density_per_deg; convert to per-radian.
    empirical = [(a * _DEG, d / _DEG) for a, d in empirical_deg]
    value = lse(report.averaged_spectrum, empirical)
    result = {
        "lse": value,
        "points": len(empirical),
        "trials": config.trials,
        "bins": config.bins,
        "angle_spread_deg": report.angle_spread / _DEG,
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_taps(args):
    samples_us = _read_csv_pairs(args.pdp)
    profile = extract_taps(
        [(d * _US, p) for d, p in samples_us],
        min_prominence_db=args.prominence,
        paths_per_tap=args.paths,
    )
    payload = {
        "taps": [tap.to_json() for tap in profile.taps],
        "rms_delay_spread_us": profile.rms_delay_spread() / _US,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _add_run_options(parser):
    parser.add_argument("--trials", type=int, default=None, help="override trial count")
    parser.add_argument("--bins", type=int, default=None, help="override histogram bin count")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; has no effect (trials run serially)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="aoasim",
        description="Monte Carlo simulator for multipath arrival-angle distributions",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario and emit spectrum data")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    _add_run_options(p)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--per-path-spread", action="store_true",
                   help="also report the unbinned per-trial angle spread")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sweep", help="angle spread versus HPBW for a Gaussian pattern")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--hpbw", required=True, help="comma-separated HPBW list in degrees")
    _add_run_options(p)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("fit", help="least-square error against empirical spectrum data")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--empirical", required=True,
                   help="CSV with columns angle_deg, density_per_deg")
    _add_run_options(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("taps", help="extract delay taps from a PDP CSV")
    p.add_argument("--pdp", required=True, help="CSV with columns delay_us, power_linear")
    p.add_argument("--prominence", type=float, default=DEFAULT_PROMINENCE_DB,
                   help="peak prominence threshold in dB")
    p.add_argument("--paths", type=int, default=DEFAULT_PATHS_PER_TAP,
                   help="path count assigned to each extracted tap")
    p.add_argument("--out", default=None, help="write the tap JSON here instead of stdout")
    p.set_defaults(handler=_cmd_taps)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, TypeError, KeyError, OSError, MemoryError) as exc:
        record = {"error": str(exc), "type": type(exc).__name__, "command": args.command}
        sys.stderr.write(json.dumps(record) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
