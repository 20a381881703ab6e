"""What the package writes, and how: json_text, the float columns, the CSV
writer and the two report.json forms, simulate's and sweep's, the only place
the package version enters an output.  No output carries a timing."""

from __future__ import annotations

import json
import operator
from functools import cached_property, lru_cache, reduce
from pathlib import Path

from . import __version__
from .estimation import _bins
from .inputs import _DEG


class _FloatList(tuple):
    """Floats whose reprs are taken once, on the first read, however many files
    carry them.  A tuple, so an edit raises instead of leaving stale reprs."""

    @cached_property
    def reprs(self):
        return list(map(float.__repr__, self))


def _float_reprs(values):
    """float.__repr__ of each of values: a TypeError if one is not a float."""
    return values.reprs if isinstance(values, _FloatList) else list(map(float.__repr__, values))


@lru_cache(maxsize=8)
def _centers_deg(count):
    # The angle_deg column of every spectrum of count bins.
    return _FloatList((_bins(count).centers / _DEG).tolist())


def spectrum_columns(spectrum):
    """angle_deg and pdf_per_deg, the columns spectrum.csv and report.json both carry."""
    return _centers_deg(spectrum.bin_count), _FloatList((spectrum.density * _DEG).tolist())


def json_text(value, pad=""):
    """json.dumps(value, indent=2, sort_keys=True), byte for byte.

    The one writer of the package's indented JSON (pad is the indent of
    the line value starts on).  A list or tuple of finite floats is one
    join of float reprs, taken once for a _FloatList; dicts and other
    sequences are walked here; every other value goes to json.dumps.
    Keys must be str: any other key is a TypeError, where json.dumps
    would turn a number into a string.
    """
    inner = pad + "  "
    separator = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
        body = separator.join(f"{json.dumps(key)}: {json_text(value[key], inner)}"
                              for key in sorted(value))
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            body = separator.join(_float_reprs(value))
        except TypeError:  # not all floats
            body = None
        # Only nan and inf have an n in their repr; JSON spells them otherwise.
        if body is None or "n" in body:
            body = separator.join(json_text(item, inner) for item in value)
        return f"[\n{inner}{body}\n{pad}]"
    return json.dumps(value)


def write_json(path, value):
    """value as json_text and a line end, in the file at path."""
    Path(path).write_text(json_text(value) + "\n", encoding="utf-8")


def write_csv(path, header, first, second):
    """Two columns of floats as csv.writer writes their reprs, in one join."""
    rows = "".join(f"{a},{b}\r\n" for a, b in zip(_float_reprs(first), _float_reprs(second)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{header}\r\n{rows}")


def _run_fields(report):
    # A RunReport's fields: simulate's report.json but the version, and
    # each sweep point's "report".
    angle_deg, pdf_per_deg = spectrum_columns(report.averaged_spectrum)
    doc = {
        "angle_spread_deg": report.angle_spread / _DEG,
        "angle_spread_rad": report.angle_spread,
        "point_mass_at_zero": report.averaged_spectrum.point_mass_at_zero,
        "bins": report.averaged_spectrum.bin_count,
        "trials": report.scenario_echo.trials,
        "per_trial_spread_deg": (report.per_trial_spreads / _DEG).tolist(),
        "spectrum": {"angle_deg": angle_deg, "pdf_per_deg": pdf_per_deg},
        "scenario": report.scenario_echo.to_json_dict(),
    }
    if report.per_path_spreads is not None:
        spreads = report.per_path_spreads.tolist()
        doc["per_path_spread_deg"] = [s / _DEG for s in spreads]
        # Added left to right, whatever the Python version's sum() does.
        total = reduce(operator.add, spreads, 0.0)
        doc["per_path_spread_mean_deg"] = total / len(spreads) / _DEG
    return doc


def _versioned(fields):
    return {**fields, "version": __version__}


def simulate_report(report):
    """simulate's report.json of a RunReport; the per-path fields are there
    exactly when its spreads are."""
    return _versioned(_run_fields(report))


def sweep_report(config, points):
    """sweep's report.json: the scenario and one entry per hpbw_sweep point."""
    return _versioned({"scenario": config.to_json_dict(), "points": [
        {"hpbw_deg": point.hpbw_deg, "report": _run_fields(point.report)} for point in points]})


def write_simulate(out, report):
    """simulate_report(report), returned, and the spectrum.csv and report.json
    rendered from it, in the directory out (made if missing)."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    doc = simulate_report(report)
    spectrum = doc["spectrum"]
    write_csv(out / "spectrum.csv", ",".join(spectrum), *spectrum.values())
    write_json(out / "report.json", doc)
    return doc


def write_sweep(out, config, points):
    """sweep_report(config, points), returned, and the sweep.csv and report.json
    rendered from it, in the directory out (made if missing)."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    doc = sweep_report(config, points)
    write_csv(out / "sweep.csv", "hpbw_deg,as_deg", [p["hpbw_deg"] for p in doc["points"]],
              [p["report"]["angle_spread_deg"] for p in doc["points"]])
    write_json(out / "report.json", doc)
    return doc
