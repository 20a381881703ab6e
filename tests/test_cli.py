"""End-to-end tests of the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aoasim
from aoasim import cli
from aoasim.angular import Tap, TapProfile
from aoasim.cli import main
from aoasim.scenario import ScenarioConfig, extract_taps, run_simulation

from helpers import edited_doc, left_to_right_sum

TWO_PI = 2 * math.pi
EXAMPLE_PDP = Path(__file__).parents[1] / "scenarios" / "example_pdp.csv"

# Rows that must fail whole files: a non-numeric row after the first (only
# a first row may be a header), a row of three fields, a row of one
MALFORMED_ROWS = pytest.mark.parametrize(
    "row, fields",
    [("0.5,abc", "'0.5', 'abc'"), ("x,y", "'x', 'y'"),
     ("2.0,0.3,9", "'2.0', '0.3', '9'"), ("2.0", "'2.0'")],
    ids=["not-a-number", "second-header", "three-fields", "one-field"],
)


def _error_record(capsys):
    # the one JSON error record of a failed command, which printed nothing else
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    return json.loads(line)


@pytest.fixture
def scenario_file(tmp_path):
    doc = {
        "distance_m": 1000.0,
        "kappa": 0.4,
        "mu": 12.0,
        "trials": 30,
        "bins": 120,
        "seed": 21,
        "pattern": {"kind": "gaussian", "hpbw_deg": 120.0},
        "taps": [
            {"delay_us": 0.0, "power": 0.4, "paths": 10},
            {"delay_us": 1.0, "power": 0.35, "paths": 15},
            {"delay_us": 3.5, "power": 0.25, "paths": 15},
        ],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


class TestSimulate:
    def test_outputs_and_normalization(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        header, rows = _read_csv(out / "spectrum.csv")
        assert header == ["angle_deg", "pdf_per_deg"]
        assert rows.shape == (120, 2)
        report = json.loads((out / "report.json").read_text())
        # spectrum plus point mass integrates to one (degrees-based output)
        bin_width_deg = 360.0 / 120
        total = rows[:, 1].sum() * bin_width_deg + report["point_mass_at_zero"]
        assert total == pytest.approx(1.0, abs=1e-9)
        assert "angle spread" in capsys.readouterr().out

    def test_overrides_change_run(self, scenario_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["simulate", "--scenario", str(scenario_file), "--out", str(out_a)])
        main(["simulate", "--scenario", str(scenario_file), "--out", str(out_b),
              "--seed", "99"])
        _, rows_a = _read_csv(out_a / "spectrum.csv")
        _, rows_b = _read_csv(out_b / "spectrum.csv")
        assert not np.array_equal(rows_a, rows_b)

    def test_per_path_spread_flag(self, scenario_file, tmp_path):
        out = tmp_path / "raw"
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out),
                     "--trials", "5", "--per-path-spread"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["per_path_spread_deg"]) == 5
        assert report["per_path_spread_mean_deg"] > 0

    def test_per_path_spread_mean_adds_left_to_right(self, scenario_file, tmp_path):
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path),
                     "--per-path-spread"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        spreads = run_simulation(ScenarioConfig.from_file(scenario_file)).per_path_spreads
        expected = left_to_right_sum(spreads) / len(spreads) / (math.pi / 180.0)
        assert report["per_path_spread_mean_deg"] == expected

    def test_per_path_spread_generates_each_trial_once(self, scenario_file, tmp_path,
                                                        monkeypatch):
        from aoasim import montecarlo, scenario

        generated = []

        def counting_generate_chunk(config, patterns, first, stop):
            batch = montecarlo.generate_chunk(config, patterns, first, stop)
            generated.extend(range(first, first + batch.angles.shape[1]))
            return batch

        monkeypatch.setattr(scenario, "generate_chunk", counting_generate_chunk)
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path),
                     "--trials", "5", "--per-path-spread"]) == 0
        assert generated == [0, 1, 2, 3, 4]

    def test_import_leaves_scipy_signal_alone(self):
        # only tap extraction needs scipy.signal, which costs most of start-up
        code = "import sys, aoasim.cli; print('scipy.signal' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(aoasim.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env, check=True)
        assert result.stdout.strip() == "False"

    def test_missing_scenario_is_machine_readable_error(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code != 0
        record = json.loads(capsys.readouterr().err.strip())
        assert "error" in record and record["command"] == "simulate"

    def test_invalid_scenario_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"distance_m": -5}), encoding="utf-8")
        code = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path)])
        assert code != 0
        record = json.loads(capsys.readouterr().err.strip())
        assert record["type"] in ("ValueError", "KeyError")

    def test_non_finite_scenario_is_one_error_record(self, scenario_file, tmp_path, capsys):
        # a non-finite, mistyped or misspelled field fails at load with one
        # JSON error record naming the field; nothing is written or printed
        doc = json.loads(scenario_file.read_text())
        for path, bad, message in [
            (("kappa",), math.nan, "kappa must be finite"),
            (("trials",), 2.7, "trials must be an integer"),
            (("kappa",), True, "kappa must be a number"),
            (("seeds",), 5, "unknown key: seeds"),
            (("taps", 2, "pwr"), 0.25, "unknown key: taps[2].pwr"),
            (("pattern", "hpbw"), 60.0, "unknown key: pattern.hpbw"),
            (("prominence_db",), math.nan, "prominence_db applies only to a 'pdp' scenario"),
        ]:
            bad_file = tmp_path / "bad.json"
            bad_file.write_text(json.dumps(edited_doc(doc, path, bad)), encoding="utf-8")
            out = tmp_path / "never"
            code = main(["simulate", "--scenario", str(bad_file), "--out", str(out)])
            assert code == 1, message
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert len(lines) == 1
            record = json.loads(lines[0])
            assert record["type"] == "ValueError" and message in record["error"]
            assert captured.out == ""
            assert not out.exists()

    def test_out_of_memory_is_one_error_record(self, scenario_file, tmp_path, capsys,
                                               monkeypatch):
        def exhausted(config):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "run_simulation", exhausted)
        code = main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path)])
        assert code == 1
        record = _error_record(capsys)
        assert record == {"error": "Unable to allocate 7.28 TiB for an array",
                          "type": "MemoryError", "command": "simulate"}


class TestSweep:
    def test_outputs(self, scenario_file, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", str(scenario_file),
                     "--hpbw", "360,120,60", "--trials", "10", "--out", str(out)])
        assert code == 0
        header, rows = _read_csv(out / "sweep.csv")
        assert header == ["hpbw_deg", "as_deg"]
        assert rows.shape == (3, 2)
        assert list(rows[:, 0]) == [360.0, 120.0, 60.0]
        report = json.loads((out / "report.json").read_text())
        assert len(report["points"]) == 3

    def test_byte_identical_reruns_with_workers(self, scenario_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = ["sweep", "--scenario", str(scenario_file), "--hpbw", "180,90",
                "--trials", "12"]
        assert main(args + ["--out", str(out_a), "--workers", "1"]) == 0
        assert main(args + ["--out", str(out_b), "--workers", "4"]) == 0
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_each_point_is_the_simulate_report_at_its_beamwidth(self, scenario_file, tmp_path,
                                                                 capsys):
        # every point reads the same uniforms as a plain run at its HPBW
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(scenario_file), "--hpbw", "200,45",
                     "--trials", "10", "--out", str(out)]) == 0
        points = json.loads((out / "report.json").read_text())["points"]
        doc = json.loads(scenario_file.read_text())
        for point in points:
            single = tmp_path / f"hpbw{point['hpbw_deg']:g}.json"
            single.write_text(json.dumps(edited_doc(doc, ("pattern", "hpbw_deg"),
                                                    point["hpbw_deg"])), encoding="utf-8")
            run = tmp_path / f"run{point['hpbw_deg']:g}"
            assert main(["simulate", "--scenario", str(single), "--trials", "10",
                         "--out", str(run)]) == 0
            report = json.loads((run / "report.json").read_text())
            assert report.pop("version")
            assert point["report"] == report
        capsys.readouterr()

    def test_rejects_non_gaussian(self, tmp_path, capsys):
        doc = {
            "distance_m": 500.0, "kappa": 0.0, "mu": 1.0, "trials": 5, "bins": 36,
            "seed": 1, "pattern": {"kind": "omni"},
            "taps": [{"delay_us": 0.0, "power": 1.0, "paths": 5}],
        }
        path = tmp_path / "omni.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["sweep", "--scenario", str(path), "--hpbw", "360",
                     "--out", str(tmp_path / "x")])
        assert code != 0
        record = json.loads(capsys.readouterr().err.strip())
        assert "Gaussian" in record["error"]


class TestFit:
    def test_emits_lse(self, scenario_file, tmp_path, capsys):
        angles = np.arange(-179.5, 180.0, 1.0)
        density = np.full(angles.size, 1.0 / 360.0)
        csv_path = tmp_path / "empirical.csv"
        lines = ["angle_deg,density_per_deg"]
        lines += [f"{a},{d}" for a, d in zip(angles, density)]
        csv_path.write_text("\n".join(lines), encoding="utf-8")
        code = main(["fit", "--scenario", str(scenario_file),
                     "--empirical", str(csv_path), "--trials", "10"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["lse"] >= 0.0
        assert result["points"] == angles.size

    def test_malformed_empirical_rejected(self, scenario_file, tmp_path, capsys):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("angle_deg,density_per_deg\n", encoding="utf-8")
        code = main(["fit", "--scenario", str(scenario_file),
                     "--empirical", str(csv_path), "--trials", "2"])
        assert code != 0
        assert "error" in json.loads(capsys.readouterr().err.strip())

    @pytest.mark.parametrize("row", ["10,nan", "nan,0.003", "10,inf"])
    def test_non_finite_empirical_is_one_error_record(self, scenario_file, tmp_path,
                                                      capsys, row):
        csv_path = tmp_path / "empirical.csv"
        csv_path.write_text(f"angle_deg,density_per_deg\n0,0.003\n{row}\n", encoding="utf-8")
        code = main(["fit", "--scenario", str(scenario_file),
                     "--empirical", str(csv_path), "--trials", "2"])
        assert code == 1
        record = _error_record(capsys)
        assert record["type"] == "ValueError" and "must be finite" in record["error"]

    @MALFORMED_ROWS
    def test_malformed_row_names_file_and_row(self, scenario_file, tmp_path, capsys,
                                              row, fields):
        # the bad row comes before a good one (line 3) or after it (line 4)
        for rows in ([row, "1.0,0.2"], ["1.0,0.2", row]):
            csv_path = tmp_path / "empirical.csv"
            text = "\n".join(["angle_deg,density_per_deg", "# a comment", *rows])
            csv_path.write_text(text + "\n", encoding="utf-8")
            code = main(["fit", "--scenario", str(scenario_file),
                         "--empirical", str(csv_path), "--trials", "2"])
            assert code == 1
            record = _error_record(capsys)
            line = 3 if rows[0] == row else 4
            assert record["type"] == "ValueError"
            assert f"row {line} in {csv_path}: [{fields}]" in record["error"]

    def test_first_row_is_header_only_if_not_a_number(self, scenario_file, tmp_path,
                                                      capsys):
        # no header: every row counts
        csv_path = tmp_path / "empirical.csv"
        csv_path.write_text("# angle, density\n0.5,0.003\n-10,0.002\n", encoding="utf-8")
        assert main(["fit", "--scenario", str(scenario_file),
                     "--empirical", str(csv_path), "--trials", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["points"] == 2


class TestTaps:
    def _write_pdp(self, tmp_path):
        delays = np.linspace(0, 5, 251)
        powers = (
            1.0 * np.exp(-((delays - 0.0) / 0.3) ** 2)
            + 0.5 * np.exp(-((delays - 1.0) / 0.2) ** 2)
            + 0.3 * np.exp(-((delays - 3.0) / 0.25) ** 2)
            + 1e-6
        )
        path = tmp_path / "pdp.csv"
        lines = ["delay_us,power"] + [f"{d},{p}" for d, p in zip(delays, powers)]
        path.write_text("\n".join(lines), encoding="utf-8")
        return path

    def test_extracts_taps_to_stdout(self, tmp_path, capsys):
        path = self._write_pdp(tmp_path)
        assert main(["taps", "--pdp", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["taps"]) == 3
        assert payload["taps"][0]["delay_us"] == 0.0
        assert payload["taps"][1]["delay_us"] == pytest.approx(1.0, abs=0.05)

    def test_writes_to_file(self, tmp_path):
        path = self._write_pdp(tmp_path)
        out = tmp_path / "taps.json"
        assert main(["taps", "--pdp", str(path), "--out", str(out), "--paths", "33"]) == 0
        payload = json.loads(out.read_text())
        assert all(t["paths"] == 33 for t in payload["taps"])

    def test_flat_pdp_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("delay_us,power\n0,1\n1,1\n2,1\n", encoding="utf-8")
        assert main(["taps", "--pdp", str(path)]) != 0
        record = json.loads(capsys.readouterr().err.strip())
        assert "no local maximum" in record["error"]

    @pytest.mark.parametrize("row, message", [("3,nan", "PDP powers must be finite"),
                                              ("nan,0.2", "PDP delays must be finite"),
                                              ("inf,0.2", "PDP delays must be finite")])
    def test_non_finite_pdp_is_one_error_record(self, tmp_path, capsys, row, message):
        path = tmp_path / "pdp.csv"
        path.write_text(f"delay_us,power\n0,1\n1,0.1\n2,0.5\n{row}\n", encoding="utf-8")
        assert main(["taps", "--pdp", str(path)]) == 1
        record = _error_record(capsys)
        assert record["type"] == "ValueError" and message in record["error"]

    @pytest.mark.parametrize("prominence", ["nan", "inf", "-inf", "-3.0"])
    def test_bad_prominence_is_one_error_record(self, tmp_path, capsys, prominence):
        # NaN or inf used to print the zero-delay tap alone, with exit 0
        path = self._write_pdp(tmp_path)
        assert main(["taps", "--pdp", str(path), f"--prominence={prominence}"]) == 1
        record = _error_record(capsys)
        assert record["type"] == "ValueError"
        assert record["error"] == ("prominence_db must be finite and nonnegative, "
                                   f"got {float(prominence)}")

    @MALFORMED_ROWS
    def test_malformed_row_names_file_and_row(self, tmp_path, capsys, row, fields):
        path = tmp_path / "pdp.csv"
        path.write_text(f"delay_us,power\n0,1\n{row}\n1,0.1\n2,0.5\n", encoding="utf-8")
        assert main(["taps", "--pdp", str(path)]) == 1
        record = _error_record(capsys)
        assert record["type"] == "ValueError"
        assert f"row 3 in {path}: [{fields}]" in record["error"]

    def test_printed_taps_load_as_scenario_taps(self, capsys):
        # the taps printed by `aoasim taps` are a scenario's taps list: one
        # tap JSON form, read back to the profile that extract_taps gives
        assert main(["taps", "--pdp", str(EXAMPLE_PDP)]) == 0
        printed = json.loads(capsys.readouterr().out)["taps"]
        samples = [(d * 1e-6, p) for d, p in cli._read_csv_pairs(EXAMPLE_PDP)]
        extracted = extract_taps(samples)
        assert TapProfile(tuple(Tap.from_json(tap, "taps", 50) for tap in printed)) == extracted
        doc = {"distance_m": 1000.0, "kappa": 0.0, "mu": 1.0, "pattern": {"kind": "omni"}}
        loaded = ScenarioConfig.from_json_dict(dict(doc, taps=printed)).taps
        total = extracted.total_power
        assert loaded == TapProfile(tuple(Tap(t.delay, t.power / total, t.path_count)
                                          for t in extracted.taps))
