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
import io
import json
import sys
from dataclasses import replace

from . import __version__, writers
from .estimation import lse
from .inputs import (_COUNT_RANGES, _DEG, _US, _check_count, _check_hpbw, _check_nonnegative,
                     _check_profile, _read_text)
from .scenario import (DEFAULT_PATHS_PER_TAP, DEFAULT_PROMINENCE_DB, ScenarioConfig,
                       _extract_taps, hpbw_sweep, run_simulation)


def _load_config(args):
    # Each override is checked under its option's name, before the file is read.
    options = (("trials", "--trials", args.trials), ("bins", "--bins", args.bins),
               ("master_seed", "--seed", args.seed))
    overrides = {name: _check_count(value, option, *_COUNT_RANGES[name])
                 for name, option, value in options if value is not None}
    return replace(ScenarioConfig.from_file(args.scenario), **overrides)


def _number(field):
    try:
        return float(field)
    except ValueError:
        return None


def _hpbw_deg(token):
    """One entry of --hpbw: a number of degrees in (0, 360]."""
    value = _number(token)
    if value is None:
        raise ValueError(f"--hpbw must be comma-separated numbers of degrees, got {token.strip()!r}")
    return _check_hpbw(value, "--hpbw", degrees=True)


def _read_csv_pairs(path):
    """The (x, y) rows of a two-column CSV of numbers.

    Blank rows and rows whose first field starts with # are skipped, and
    so is the first other row if its first field is not a number (a
    header).  Every other row must be exactly two numbers.
    """
    rows, first = [], True
    reader = csv.reader(io.StringIO(_read_text(path, newline=""), newline=""))
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
    report = run_simulation(config, per_path_spread=args.per_path_spread)
    doc = writers.write_simulate(args.out, report)
    print(f"angle spread: {doc['angle_spread_deg']:.3f} deg "
          f"({doc['trials']} trials, {doc['bins']} bins)")
    return 0


def _cmd_sweep(args):
    config = _load_config(args)
    hpbws = [_hpbw_deg(token) for token in args.hpbw.split(",") if token.strip()]
    if not hpbws:
        raise ValueError("--hpbw must list at least one beamwidth")
    points = hpbw_sweep(config, hpbws)
    doc = writers.write_sweep(args.out, config, points)
    for p in doc["points"]:
        print(f"hpbw {p['hpbw_deg']:7.1f} deg -> angle spread "
              f"{p['report']['angle_spread_deg']:.3f} deg")
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
    print(writers.json_text(result))
    return 0


def _cmd_taps(args):
    # The options are checked under their own names, before the file is read.
    min_prominence_db = _check_nonnegative(args.prominence, "--prominence")
    paths_per_tap = _check_count(args.paths, "--paths", 1)
    samples_us = _read_csv_pairs(args.pdp)
    # Named as a scenario's pdp rows: row i of the file's numbers is pdp[i].
    _check_profile(samples_us, "pdp[{}][{}]".format, _US)
    profile = _extract_taps([(d * _US, p) for d, p in samples_us], "pdp", min_prominence_db,
                            paths_per_tap)
    payload = {
        "taps": [tap.to_json() for tap in profile.taps],
        "rms_delay_spread_us": profile.rms_delay_spread() / _US,
    }
    if args.out:
        writers.write_json(args.out, payload)
    else:
        print(writers.json_text(payload))
    return 0


def _add_run_options(parser):
    parser.add_argument("--trials", type=int, default=None, help="override trial count")
    parser.add_argument("--bins", type=int, default=None, help="override histogram bin count")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; has no effect (trials run serially)")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (and so each subcommand's) whose usage errors raise for main."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


# Built on the first main call and kept for the process: parse_args leaves
# the parser as it was, so repeated calls in one process build it once.
@functools.cache
def _build_parser():
    parser = _Parser(
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
    # The subcommand is set on args as soon as it is parsed, so a usage
    # error in its options names it.
    args = argparse.Namespace(command=None)
    try:
        _build_parser().parse_args(argv, namespace=args)
        return args.handler(args)
    except argparse.ArgumentError as exc:
        record, status = {"error": str(exc), "type": "UsageError"}, 2
    except (ValueError, TypeError, KeyError, OSError, MemoryError) as exc:
        record, status = {"error": str(exc), "type": type(exc).__name__}, 1
    if args.command is not None:
        record["command"] = args.command
    sys.stderr.write(json.dumps(record) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
