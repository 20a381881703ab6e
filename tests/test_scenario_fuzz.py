"""Property test of scenario loading through the command line.

Generated scenario documents, small enough to run in milliseconds, give
their taps as a list or as a raw PDP (with or without prominence_db) and
mix valid fields with wrong types, non-finite numbers, unknown keys, a
prominence_db beside a tap list, and edge values (one-path taps, kappa 0,
mu 0).  Whatever the document, `aoasim simulate` must either write a
normalized report or fail with exactly one JSON error record, never a
traceback.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from aoasim.cli import main

# Values that no field accepts, or that fail its range check.
_BAD = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
    st.sampled_from([math.nan, math.inf, -math.inf, -1, 0, 0.5, 2.7, 1e308]),
)


def _number(lo, hi):
    return st.one_of(st.floats(lo, hi), st.integers(int(math.ceil(lo)), int(hi)))


def _pattern():
    tabulated_samples = st.lists(st.floats(0.0, 2.0), min_size=8, max_size=12).map(
        lambda amps: [[-170.0 + 340.0 * k / len(amps), g] for k, g in enumerate(amps)])
    return st.one_of(
        st.just({"kind": "omni"}),
        st.fixed_dictionaries({"kind": st.just("gaussian"), "hpbw_deg": _number(1.0, 360.0)}),
        st.fixed_dictionaries({"kind": st.just("tabulated"), "samples": tabulated_samples}),
    )


@st.composite
def _valid_scenario(draw):
    delay, taps = 0.0, []
    for index in range(draw(st.integers(1, 3))):
        if index:
            delay += draw(st.floats(0.01, 3.0))
        tap = {"delay_us": delay, "power": draw(_number(0.001, 2.0))}
        if draw(st.booleans()):
            tap["paths"] = draw(st.integers(1, 5))
        taps.append(tap)
    doc = {
        "distance_m": draw(_number(0.0, 5000.0)),
        "kappa": draw(st.one_of(st.just(0.0), _number(0.0, 5.0))),
        "mu": draw(st.one_of(st.just(0), _number(0.0, 50.0))),
        "pattern": draw(_pattern()),
        "taps": taps,
    }
    if draw(st.booleans()):
        # the raw-PDP form instead: taps extracted at load, above a prominence
        del doc["taps"]
        powers = draw(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=8))
        doc["pdp"] = [[0.5 * k, power] for k, power in enumerate(powers)]
        if draw(st.booleans()):
            doc["prominence_db"] = draw(_number(0.0, 10.0))
    optional = {
        "trials": st.integers(1, 3),
        "bins": st.integers(8, 64),
        "seed": st.integers(0, 2 ** 64 - 1),
        "paths_per_tap": st.integers(1, 5),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            doc[key] = draw(values)
    if "paths_per_tap" not in doc:
        doc["paths_per_tap"] = 5  # the default of 50 is larger than these runs need
    return doc


def _leaves(doc, path=()):
    # (path, value) of every entry, containers included, below the root
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))


@st.composite
def _scenario(draw):
    """A valid scenario with up to three fields spoiled: replaced, removed or misspelled.

    A tap list may also carry a prominence_db, which only a PDP reads.
    """
    doc = draw(_valid_scenario())
    if "taps" in doc and draw(st.integers(0, 3)) == 0:
        doc["prominence_db"] = draw(_number(0.0, 10.0))
    for _ in range(draw(st.integers(0, 3))):
        paths = [path for path, _ in _leaves(doc)]
        *parents, last = draw(st.sampled_from(paths))
        owner = doc
        for key in parents:
            owner = owner[key]
        action = draw(st.sampled_from(["replace", "remove", "misspell"]))
        if action == "replace":
            owner[last] = draw(_BAD)
        elif isinstance(owner, dict):
            value = owner.pop(last)
            if action == "misspell":
                owner[f"{last}_"] = value
    return doc


@settings(max_examples=60, deadline=None)
@given(_scenario())
def test_simulate_writes_a_normalized_report_or_one_error_record(doc):
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])

        event(f"exit {code}")
        if code == 0:
            assert stderr.getvalue() == ""
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            bins = report["bins"]
            density = report["spectrum"]["pdf_per_deg"]
            assert len(density) == bins == report["scenario"]["bins"]
            assert len(report["per_trial_spread_deg"]) == report["trials"]
            assert all(value >= 0.0 for value in density)
            total = math.fsum(density) * (360.0 / bins) + report["point_mass_at_zero"]
            assert abs(total - 1.0) <= 1e-9
            if "prominence_db" in doc:
                assert "pdp" in doc and 0.0 <= doc["prominence_db"] < math.inf
        else:
            assert code == 1
            assert stdout.getvalue() == ""
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1
            record = json.loads(lines[0])
            assert set(record) == {"error", "type", "command"}
            assert record["command"] == "simulate"
            assert not out.exists()
