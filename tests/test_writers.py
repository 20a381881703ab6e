"""The package's output writers (aoasim.writers) against the standard library routes.

Every indented JSON the package writes goes through writers.json_text,
and the CSV files through one join of float reprs.  Both must give the
bytes of the routes they replace, which are kept here as the reference:
json.dumps(value, indent=2, sort_keys=True), and a csv.writer loop over
the repr of each value.  The float columns take their reprs once, and
the report forms are built from a RunReport alone.
"""

import csv
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoasim import writers
from aoasim.angular import GaussianPattern
from aoasim.cli import main
from aoasim.estimation import AngularSpectrum, _bins
from aoasim.inputs import _DEG
from aoasim.scenario import ScenarioConfig, run_simulation
from aoasim.writers import json_text, simulate_report, spectrum_columns, write_csv

from helpers import make_profile


def _reference_json(value):
    return json.dumps(value, indent=2, sort_keys=True)


def _reference_spectrum_csv(path, spectrum):
    # the spectrum.csv writer as it was: one csv.writer row per bin
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["angle_deg", "pdf_per_deg"])
        for center, density in zip(_bins(spectrum.bin_count).centers, spectrum.density):
            writer.writerow([repr(float(center) / _DEG), repr(float(density) * _DEG)])


def _reference_csv(path, header, first, second):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header.split(","))
        for a, b in zip(first, second):
            writer.writerow([repr(a), repr(b)])


_SPECIAL_FLOATS = st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
    1e16, -1e16, 1e-7, 1.0000000000000002, 0.1,
])
_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), _SPECIAL_FLOATS)
_KEYS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "é", "naïve key", 'quote"d', "back\\slash", "tab\tnew\nline",
                     "\x00\x1f", " ", "😀", "pdf_per_deg", "angle_deg"]),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 70, 2 ** 70), _FLOATS,
    st.text(max_size=8),
)
_DOCUMENTS = st.recursive(
    _SCALARS | st.lists(_FLOATS, max_size=12),
    lambda children: (st.lists(children, max_size=5)
                      | st.dictionaries(_KEYS, children, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_json_text_is_json_dumps(doc):
    assert json_text(doc) == _reference_json(doc)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_FLOATS, max_size=20), min_size=1, max_size=4),
       st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
def test_float_lists_are_json_dumps(lists, finite):
    # the one-join route for all-float lists, nested at several depths,
    # next to the per-item route for lists with a nan or an infinity
    doc = {"finite": finite, "mixed": lists, "deep": {"er": [finite, {"x": finite}]}}
    assert json_text(doc) == _reference_json(doc)
    assert json_text(finite) == _reference_json(finite)


def test_json_text_edge_values():
    for doc in ([], {}, [[]], [{}], {"a": []}, {"a": {}}, [1, 1.0, True, None, "1"],
                (1.5, 2.5), {"t": (0.1, [0.2])}, [np.float64(0.1), np.float64(-0.0)],
                [True, False], [1, 2, 3], sys.float_info.max, "ünï "):
        assert json_text(doc) == _reference_json(doc)


@pytest.mark.parametrize("doc", [{1: 2.0}, {"a": {None: 1}}, [{1.5: "x"}], {True: 0}])
def test_json_text_rejects_keys_that_are_not_str(doc):
    with pytest.raises(TypeError, match="keys must be str"):
        json_text(doc)


def test_json_text_rejects_what_json_dumps_rejects():
    for value in (np.zeros(2), {1, 2}, {"a": object()}):
        with pytest.raises(TypeError):
            _reference_json(value)
        with pytest.raises(TypeError):
            json_text(value)


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 400), st.integers(0, 2 ** 32 - 1))
def test_spectrum_csv_is_the_csv_writer_loop(tmp_path_factory, bins, seed):
    rng = np.random.default_rng(seed)
    density = rng.exponential(size=bins) * 10.0 ** rng.uniform(-12, 3, size=bins)
    density[rng.random(bins) < 0.2] = 0.0
    spectrum = AngularSpectrum(density, 0.0)
    out = tmp_path_factory.mktemp("csv")
    write_csv(out / "new.csv", "angle_deg,pdf_per_deg", *spectrum_columns(spectrum))
    _reference_spectrum_csv(out / "old.csv", spectrum)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_FLOATS, _FLOATS), max_size=10))
def test_csv_is_the_csv_writer_loop(tmp_path_factory, rows):
    first, second = [a for a, _ in rows], [b for _, b in rows]
    out = tmp_path_factory.mktemp("csv")
    write_csv(out / "new.csv", "hpbw_deg,as_deg", first, second)
    _reference_csv(out / "old.csv", "hpbw_deg,as_deg", first, second)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


def _uniform_spectrum(bins):
    return AngularSpectrum(np.full(bins, 1.0 / (2 * math.pi)), 0.0)


def test_center_column_is_one_per_bin_count():
    # every spectrum of a count shares one centers column, its reprs taken
    # once; the columns are tuples, so an edit raises and cannot go stale
    first, second = _uniform_spectrum(48), AngularSpectrum(np.arange(48.0), 0.0)
    centers = spectrum_columns(first)[0]
    assert centers is spectrum_columns(second)[0] is writers._centers_deg(48)
    assert centers.reprs is spectrum_columns(second)[0].reprs
    assert list(centers) == (_bins(48).centers / _DEG).tolist()
    for column in spectrum_columns(first):
        with pytest.raises(TypeError):
            column[0] = 0.0


def test_density_column_is_the_density_per_degree():
    spectrum = _uniform_spectrum(36)
    _, density = spectrum_columns(spectrum)
    assert list(density) == (spectrum.density * (math.pi / 180.0)).tolist()
    assert density.reprs == list(map(repr, density))


def _run_report():
    taps = make_profile([0.0, 1.0, 3.0], [0.3, 0.4, 0.3], 15)
    return run_simulation(ScenarioConfig(distance=1000.0, taps=taps,
                                         pattern=GaussianPattern(math.radians(120.0)),
                                         kappa=0.3, mu=8.0, trials=3, bins=90, master_seed=11))


def test_simulate_report_has_no_timing():
    report = _run_report()
    payload = simulate_report(report)
    assert "elapsed" not in json.dumps(payload)
    assert payload["angle_spread_deg"] == pytest.approx(math.degrees(report.angle_spread))
    assert len(payload["spectrum"]["angle_deg"]) == report.scenario_echo.bins


def test_spectrum_columns_cannot_go_stale():
    # The columns keep their reprs once written, and a bin count's
    # centers are shared by every spectrum: an edit raises, so neither
    # this payload nor a later one writes a number the report lacks.
    report = _run_report()
    payload = simulate_report(report)
    text = json_text(payload)
    for column in payload["spectrum"].values():
        with pytest.raises(TypeError):
            column[0] = 123.0
    assert json_text(payload) == text == json_text(simulate_report(report))


def test_simulate_takes_the_spectrum_columns_once(scenario_file, tmp_path, monkeypatch):
    # spectrum.csv and report.json share one pair of columns, so the
    # density's reprs are taken once per run
    taken = []
    columns = writers.spectrum_columns
    monkeypatch.setattr(writers, "spectrum_columns", lambda s: taken.append(s) or columns(s))
    assert main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path)]) == 0
    assert len(taken) == 1
    angle_deg, pdf_per_deg = columns(taken[0])
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["spectrum"] == {"angle_deg": list(angle_deg), "pdf_per_deg": list(pdf_per_deg)}


@pytest.fixture
def scenario_file(tmp_path):
    doc = {
        "distance_m": 900.0, "kappa": 0.3, "mu": 6.0, "trials": 6, "bins": 40, "seed": 5,
        "pattern": {"kind": "gaussian", "hpbw_deg": 90.0},
        "taps": [{"delay_us": 0.0, "power": 0.5, "paths": 5},
                 {"delay_us": 1.2, "power": 0.5, "paths": 7}],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _assert_reference_json_text(text):
    # finite floats read back to themselves, so json.dumps of what was read
    # is what json.dumps of what was written gave
    assert text == _reference_json(json.loads(text)) + "\n"


def test_every_indented_json_output_is_json_dumps(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out),
                 "--per-path-spread"]) == 0
    _assert_reference_json_text((out / "report.json").read_text(encoding="utf-8"))
    assert main(["sweep", "--scenario", str(scenario_file), "--hpbw", "360,45",
                 "--out", str(out)]) == 0
    _assert_reference_json_text((out / "report.json").read_text(encoding="utf-8"))
    empirical = tmp_path / "empirical.csv"
    empirical.write_text("angle_deg,density\n0,0.01\n30,0.002\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["fit", "--scenario", str(scenario_file), "--empirical", str(empirical)]) == 0
    _assert_reference_json_text(capsys.readouterr().out)
    pdp = tmp_path / "pdp.csv"
    pdp.write_text("delay_us,power\n0,1\n1,0.2\n2,0.5\n3,0.1\n", encoding="utf-8")
    assert main(["taps", "--pdp", str(pdp)]) == 0
    _assert_reference_json_text(capsys.readouterr().out)
    assert main(["taps", "--pdp", str(pdp), "--out", str(tmp_path / "taps.json")]) == 0
    _assert_reference_json_text((tmp_path / "taps.json").read_text(encoding="utf-8"))
