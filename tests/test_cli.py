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
from aoasim.writers import json_text, simulate_report

from helpers import edited_doc, left_to_right_sum, nan_power_in_trial

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

    def test_narrowest_beam_runs(self, scenario_file, tmp_path, capsys):
        # sigma * sigma underflowed to 0 below about 2.6e-162 rad, so the
        # Gaussian density was 0/0 at boresight; a scenario whose beamwidth
        # is 1e-300 degrees loads and runs
        doc = edited_doc(json.loads(scenario_file.read_text()), ("pattern", "hpbw_deg"), 1e-300)
        narrow = tmp_path / "narrow.json"
        narrow.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(narrow), "--out", str(out),
                     "--per-path-spread"]) == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert math.isfinite(report["angle_spread_deg"])
        assert all(map(math.isfinite, report["per_path_spread_deg"]))

    def test_nan_power_is_a_json_error_record(self, scenario_file, tmp_path, capsys,
                                              monkeypatch):
        # the run's per-trial normalization check, reached from the command
        # line: one JSON error record, no traceback and no output files
        from aoasim import scenario

        monkeypatch.setattr(scenario, "draw_uniforms", nan_power_in_trial(2))
        out = tmp_path / "never"
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out)]) == 1
        assert _error_record(capsys) == {"error": "spectrum is not normalized (defect nan)",
                                         "type": "ValueError", "command": "simulate"}
        assert not out.exists()

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
        spreads = run_simulation(ScenarioConfig.from_file(scenario_file),
                                 per_path_spread=True).per_path_spreads
        expected = left_to_right_sum(spreads) / len(spreads) / (math.pi / 180.0)
        assert report["per_path_spread_mean_deg"] == expected

    def test_report_json_is_the_report_dict(self, scenario_file, tmp_path):
        # report.json is the writers' simulate form, version included; the
        # per-path fields are there exactly when the run took them
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path),
                     "--per-path-spread"]) == 0
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["version"] == aoasim.__version__
        config = ScenarioConfig.from_file(scenario_file)
        doc = simulate_report(run_simulation(config, per_path_spread=True))
        assert json.loads(json_text(doc)) == written
        plain = simulate_report(run_simulation(config))
        assert not any(key.startswith("per_path") for key in plain)
        assert {**plain, "per_path_spread_deg": doc["per_path_spread_deg"],
                "per_path_spread_mean_deg": doc["per_path_spread_mean_deg"]} == doc

    def test_per_path_spread_generates_each_trial_once(self, scenario_file, tmp_path,
                                                        monkeypatch):
        from aoasim import montecarlo, scenario

        drawn, generated = [], []

        def counting_draw(config, first, stop):
            drawn.extend(range(first, stop))
            return montecarlo.draw_uniforms(config, first, stop)

        def counting_chunk_angles(config, pattern, uniforms):
            generated.append(len(uniforms))
            return montecarlo._chunk_angles(config, pattern, uniforms)

        monkeypatch.setattr(scenario, "draw_uniforms", counting_draw)
        monkeypatch.setattr(scenario, "_chunk_angles", counting_chunk_angles)
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path),
                     "--trials", "5", "--per-path-spread"]) == 0
        # the 5 trials in one chunk: drawn once, their angles taken once
        assert drawn == [0, 1, 2, 3, 4]
        assert generated == [5]

    def test_per_path_spreads_only_on_request(self, scenario_file, tmp_path, monkeypatch):
        # one draw per chunk on either route, one weighted_spread call per
        # chunk and point for the per-trial spreads, one more per chunk
        # with --per-path-spread, and none more for a plain simulate or a
        # sweep
        from aoasim import scenario

        calls = {"draw_uniforms": 0, "weighted_spread": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, counted)

        counting(scenario, "draw_uniforms")
        counting(scenario, "weighted_spread")
        monkeypatch.setattr(scenario, "CHUNK_SIZE", 1)    # one trial per chunk
        run = ["--scenario", str(scenario_file), "--out", str(tmp_path), "--trials", "5"]
        for argv, spread_calls in ((["simulate", *run], 5),
                                   (["simulate", *run, "--per-path-spread"], 10),
                                   (["sweep", *run, "--hpbw", "360,60"], 10)):
            calls.update(dict.fromkeys(calls, 0))
            assert main(argv) == 0
            assert calls == {"draw_uniforms": 5, "weighted_spread": spread_calls}

    def test_import_leaves_scipy_signal_alone(self, scenario_file, tmp_path):
        # SciPy is the tests' oracle only: no command, and no analytic
        # density, loads any scipy module (scipy.special tripled the
        # start-up time of a Gaussian run).  Each command runs in a fresh
        # process, as a loaded module stays.
        doc = json.loads(scenario_file.read_text())
        scenarios = {}
        for name, edits in [
            ("omni", {"pattern": {"kind": "omni"}}),
            ("tabulated", {"pattern": {"kind": "tabulated", "samples": [
                [-135.0 + 45.0 * k, 1.0 + 0.5 * math.cos(math.radians(45.0 * k))]
                for k in range(8)]}}),
            ("pdp", {"taps": None, "pdp": [
                [float(d), float(p)] for d, p in np.loadtxt(EXAMPLE_PDP, delimiter=",",
                                                           skiprows=1)]}),
        ]:
            scenarios[name] = tmp_path / f"{name}.json"
            scenarios[name].write_text(json.dumps(
                {k: v for k, v in dict(doc, **edits).items() if v is not None}))
        out = str(tmp_path / "out")
        gaussian = f"'--scenario', {str(scenario_file)!r}"
        statements = [
            "pass",
            f"assert aoasim.cli.main(['simulate', '--scenario', {str(scenarios['omni'])!r}, "
            f"'--out', {out!r}]) == 0",
            f"assert aoasim.cli.main(['simulate', '--scenario', {str(scenarios['tabulated'])!r}, "
            f"'--out', {out!r}]) == 0",
            f"assert aoasim.cli.main(['taps', '--pdp', {str(EXAMPLE_PDP)!r}]) == 0",
            f"aoasim.scenario.ScenarioConfig.from_file({str(scenarios['pdp'])!r})",
            f"assert aoasim.cli.main(['simulate', {gaussian}, '--out', {out!r}, "
            "'--per-path-spread']) == 0",
            f"assert aoasim.cli.main(['sweep', {gaussian}, '--hpbw', '360,60,1', "
            f"'--out', {out!r}]) == 0",
            # scored against the Gaussian run's own spectrum, written above
            f"assert aoasim.cli.main(['fit', {gaussian}, '--empirical', "
            f"{str(tmp_path / 'out' / 'spectrum.csv')!r}]) == 0",
            f"config = aoasim.scenario.ScenarioConfig.from_file({str(scenario_file)!r})\n"
            "aoasim.angular.composite_aoa_pdf(0.5, aoasim.angular.ellipses_for_taps("
            "config.taps, config.distance), config.taps, config.pattern, config.local)",
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(aoasim.__file__).parents[1]))
        loaded = []
        for statement in statements:
            code = (f"import json, sys, aoasim.cli\n{statement}\n"
                    "print(json.dumps(sorted(m for m in sys.modules\n"
                    "                        if m.split('.')[0] == 'scipy')))")
            result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                    env=env, check=True)
            loaded.append(json.loads(result.stdout.splitlines()[-1]))
        assert loaded == [[]] * len(statements)

    def test_runs_without_scipy(self, scenario_file, tmp_path):
        # With scipy unimportable, simulate and sweep write the bytes of a
        # normal run: the runtime needs NumPy alone.
        commands = {
            "simulate": ["simulate", "--scenario", str(scenario_file), "--per-path-spread"],
            "sweep": ["sweep", "--scenario", str(scenario_file), "--hpbw", "360,60,1"],
        }
        bare = [[*argv, "--out", str(tmp_path / "bare" / name)] for name, argv in commands.items()]
        code = ("import json, sys\n"
                "sys.modules['scipy'] = None  # any import of scipy now fails\n"
                "import aoasim.cli\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    assert aoasim.cli.main(argv) == 0\n")
        env = dict(os.environ, PYTHONPATH=str(Path(aoasim.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", code, json.dumps(bare)], capture_output=True,
                       text=True, env=env, check=True)
        for name, argv in commands.items():
            assert main([*argv, "--out", str(tmp_path / "normal" / name)]) == 0
            written = sorted(path.name for path in (tmp_path / "normal" / name).iterdir())
            assert written == sorted(path.name for path in (tmp_path / "bare" / name).iterdir())
            for file_name in written:
                assert ((tmp_path / "bare" / name / file_name).read_bytes()
                        == (tmp_path / "normal" / name / file_name).read_bytes())

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

    def test_deeply_nested_scenario_is_one_error_record(self, tmp_path, capsys):
        # past the JSON decoder's recursion limit: a record naming the file,
        # not a RecursionError traceback
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000, encoding="utf-8")
        out = tmp_path / "never"
        assert main(["simulate", "--scenario", str(deep), "--out", str(out)]) == 1
        assert _error_record(capsys) == {"error": f"{deep}: JSON nested too deeply to load",
                                         "type": "ValueError", "command": "simulate"}
        assert not out.exists()

    @pytest.mark.parametrize("content, message", [
        (b'{"distance_m": 1,',
         "Expecting property name enclosed in double quotes: line 1 column 18 (char 17)"),
        (b'{"distance_m": 1}\xff',
         "'utf-8' codec can't decode byte 0xff in position 17: invalid start byte"),
    ], ids=["truncated", "not-utf-8"])
    def test_unreadable_scenario_record_names_the_file(self, tmp_path, capsys, content, message):
        # a truncated or non-UTF-8 file: one record naming it, as a ValueError
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out = tmp_path / "never"
        assert main(["simulate", "--scenario", str(bad), "--out", str(out)]) == 1
        assert _error_record(capsys) == {"error": f"{bad}: {message}", "type": "ValueError",
                                         "command": "simulate"}
        assert not out.exists()

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

    @pytest.mark.parametrize("hpbw_deg, message", [
        (400.0, "pattern.hpbw_deg must lie in (0, 360] degrees, got 400.0"),
        (0.0, "pattern.hpbw_deg must lie in (0, 360] degrees, got 0.0"),
        (math.nan, "pattern.hpbw_deg must lie in (0, 360] degrees, got nan"),
        (5e-324, "pattern.hpbw_deg must lie in (0, 360] degrees, got 5e-324"),
        ("abc", "pattern.hpbw_deg must be a number, got 'abc'"),
    ])
    def test_bad_hpbw_names_the_field_in_degrees(self, scenario_file, tmp_path, capsys,
                                                 hpbw_deg, message):
        doc = edited_doc(json.loads(scenario_file.read_text()), ("pattern", "hpbw_deg"), hpbw_deg)
        bad_file = tmp_path / "bad.json"
        bad_file.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "never"
        assert main(["simulate", "--scenario", str(bad_file), "--out", str(out)]) == 1
        assert _error_record(capsys) == {"error": message, "type": "ValueError",
                                         "command": "simulate"}
        assert not out.exists()

    @pytest.mark.parametrize("path, bad, message", [
        (("pattern",), {"kind": "tabulated", "samples": [[-180 + 30 * k, 1.0] for k in range(12)]},
         "pattern.samples[0][0] must lie in (-180, 180] degrees, got -180.0"),
        (("pattern",), {"kind": "tabulated",
                        "samples": [[-150 + 30 * k, 1.0] for k in range(11)] + [[180.000001, 1.0]]},
         "pattern.samples[11][0] must lie in (-180, 180] degrees, got 180.000001"),
        (("taps", 0, "paths"), 0, "taps[0].paths must be at least 1, got 0"),
        (("paths_per_tap",), 0, "paths_per_tap must be at least 1, got 0"),
        (("taps", 0, "delay_us"), 0.5, "taps[0].delay_us must be 0 (the zero-delay tap), got 0.5"),
        (("taps", 0, "power"), -1, "taps[0].power must be positive and finite, got -1.0"),
    ])
    def test_bad_tap_or_sample_names_the_field_in_its_units(self, scenario_file, tmp_path,
                                                            capsys, path, bad, message):
        # degrees and microseconds as the scenario file gives them
        doc = edited_doc(json.loads(scenario_file.read_text()), path, bad)
        bad_file = tmp_path / "bad.json"
        bad_file.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "never"
        assert main(["simulate", "--scenario", str(bad_file), "--out", str(out)]) == 1
        assert _error_record(capsys) == {"error": message, "type": "ValueError",
                                         "command": "simulate"}
        assert not out.exists()

    @pytest.mark.parametrize("bins", [2**20 + 1, 3_000_000_000])
    def test_oversized_bins_is_one_error_record(self, scenario_file, tmp_path, capsys, bins):
        # --bins is held to the scenario field's rule under its own name,
        # before any allocation
        out = tmp_path / "never"
        code = main(["simulate", "--scenario", str(scenario_file), "--bins", str(bins),
                     "--out", str(out)])
        assert code == 1
        assert _error_record(capsys) == {"error": f"--bins must be from 8 to {2**20}, got {bins}",
                                         "type": "ValueError", "command": "simulate"}
        assert not out.exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--seed", "-3", f"--seed must be from 0 to {2**64 - 1}, got -3"),
        ("--trials", "0", "--trials must be at least 1, got 0"),
        ("--bins", "4", f"--bins must be from 8 to {2**20}, got 4"),
        # --workers has no effect, but is held to a count as --trials is
        ("--workers", "0", "--workers must be at least 1, got 0"),
        ("--workers", "-7", "--workers must be at least 1, got -7"),
    ])
    def test_bad_override_names_the_option(self, scenario_file, tmp_path, capsys,
                                           option, value, message):
        # the scenario field's rule, named as the user typed it, not as the
        # field it overrides (master_seed)
        out = tmp_path / "never"
        code = main(["simulate", "--scenario", str(scenario_file), option, value,
                     "--out", str(out)])
        assert code == 1
        assert _error_record(capsys) == {"error": message, "type": "ValueError",
                                         "command": "simulate"}
        assert not out.exists()

    def test_out_of_memory_is_one_error_record(self, scenario_file, tmp_path, capsys,
                                               monkeypatch):
        def exhausted(config, per_path_spread=False):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "run_simulation", exhausted)
        code = main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path)])
        assert code == 1
        record = _error_record(capsys)
        assert record == {"error": "Unable to allocate 7.28 TiB for an array",
                          "type": "MemoryError", "command": "simulate"}


class TestUsageErrors:
    """A bad command line is one JSON error record too, with exit status 2."""

    @pytest.mark.parametrize("options, error", [
        (["--trials", "abc"], "argument --trials: invalid int value: 'abc'"),
        (["--bogus"], "unrecognized arguments: --bogus"),
    ], ids=["bad-int", "unknown-flag"])
    def test_bad_option_names_the_command(self, scenario_file, tmp_path, capsys,
                                          options, error):
        out = tmp_path / "never"
        code = main(["simulate", "--scenario", str(scenario_file), "--out", str(out), *options])
        assert code == 2
        assert _error_record(capsys) == {"error": error, "type": "UsageError",
                                         "command": "simulate"}
        assert not out.exists()

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2
        record = _error_record(capsys)
        assert record["type"] == "UsageError" and "command" not in record
        assert "required" in record["error"] and "usage:" not in record["error"]


class TestSweep:
    def test_outputs(self, scenario_file, tmp_path, capsys):
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
        # sweep.csv and the printed lines are rendered from the points of
        # report.json, each point's spread read from its own report
        points = report["points"]
        assert all(sorted(point) == ["hpbw_deg", "report"] for point in points)
        spreads = [p["report"]["angle_spread_deg"] for p in points]
        csv_rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert csv_rows == [f"{p['hpbw_deg']!r},{s!r}" for p, s in zip(points, spreads)]
        assert capsys.readouterr().out.splitlines() == [
            f"hpbw {p['hpbw_deg']:7.1f} deg -> angle spread {s:.3f} deg"
            for p, s in zip(points, spreads)]

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

    @pytest.mark.parametrize("hpbw, message", [
        ("400", "--hpbw must lie in (0, 360] degrees, got 400.0"),
        ("60,0", "--hpbw must lie in (0, 360] degrees, got 0.0"),
        ("nan", "--hpbw must lie in (0, 360] degrees, got nan"),
        ("90,5e-324", "--hpbw must lie in (0, 360] degrees, got 5e-324"),
        ("60,abc", "--hpbw must be comma-separated numbers of degrees, got 'abc'"),
        (",", "--hpbw must list at least one beamwidth"),
    ])
    def test_bad_hpbw_names_the_option_in_degrees(self, scenario_file, tmp_path, capsys,
                                                  hpbw, message):
        out = tmp_path / "never"
        code = main(["sweep", "--scenario", str(scenario_file), "--hpbw", hpbw,
                     "--out", str(out)])
        assert code == 1
        assert _error_record(capsys) == {"error": message, "type": "ValueError",
                                         "command": "sweep"}
        assert not out.exists()


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

    @pytest.mark.parametrize("row, error", [
        ("200,0.003", "angle_deg must be finite and in (-180, 180], got 200.0"),
        ("-180,0.003", "angle_deg must be finite and in (-180, 180], got -180.0"),
        ("10,1e308", "density_per_deg must be finite, also per radian, got 1e+308"),
    ])
    def test_bad_row_names_file_and_row_before_any_trial(
            self, scenario_file, tmp_path, capsys, monkeypatch, row, error):
        # the file is read and checked before the simulation, which would
        # raise here, and the record gives the row as written, in degrees
        from aoasim import scenario

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran before --empirical was checked")

        monkeypatch.setattr(scenario, "_simulate", no_trial)
        csv_path = tmp_path / "empirical.csv"
        csv_path.write_text(f"angle_deg,density_per_deg\n0,0.003\n{row}\n", encoding="utf-8")
        code = main(["fit", "--scenario", str(scenario_file),
                     "--empirical", str(csv_path), "--trials", "2"])
        assert code == 1
        assert _error_record(capsys) == {"error": f"row 3 in {csv_path}: {error}",
                                         "type": "ValueError", "command": "fit"}

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


    def test_non_utf8_empirical_record_names_the_file(self, scenario_file, tmp_path, capsys):
        csv_path = tmp_path / "empirical.csv"
        csv_path.write_bytes(b"angle_deg,density_per_deg\n0,0.003\n\xe9,1\n")
        assert main(["fit", "--scenario", str(scenario_file), "--empirical", str(csv_path),
                     "--trials", "2"]) == 1
        assert _error_record(capsys) == {
            "error": f"{csv_path}: 'utf-8' codec can't decode byte 0xe9 in position 34: "
                     "invalid continuation byte",
            "type": "ValueError", "command": "fit"}


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

    @pytest.mark.parametrize("row, message", [
        pytest.param("3,nan", "pdp[3][1] must be positive and finite, got nan",
                     id="3,nan-PDP powers must be finite"),
        pytest.param("nan,0.2", "pdp[3][0] must be finite, got nan",
                     id="nan,0.2-PDP delays must be finite"),
        pytest.param("inf,0.2", "pdp[3][0] must be finite, got inf",
                     id="inf,0.2-PDP delays must be finite")])
    def test_non_finite_pdp_is_one_error_record(self, tmp_path, capsys, row, message):
        path = tmp_path / "pdp.csv"
        path.write_text(f"delay_us,power\n0,1\n1,0.1\n2,0.5\n{row}\n", encoding="utf-8")
        assert main(["taps", "--pdp", str(path)]) == 1
        record = _error_record(capsys)
        assert record["type"] == "ValueError" and message in record["error"]

    @pytest.mark.parametrize("rows, message", [
        ("0,1\n1,0.1\n0.5,0.5\n", "pdp[2][0] must be greater than pdp[1][0], got 0.5 after 1.0"),
        ("0.5,1\n1,0.1\n2,0.5\n", "pdp[0][0] must be 0 (the zero-delay tap), got 0.5"),
        ("0,1\n1,0\n2,0.5\n", "pdp[1][1] must be positive and finite, got 0.0"),
        ("0,1\n1,0.5\n", "pdp must hold at least 3 samples, got 2"),
        ("0,0.1\n1,0.5\n2,0.9\n",
         "pdp has no local maximum (flat or rising profile); cannot extract taps"),
    ])
    def test_bad_pdp_row_names_it_in_microseconds(self, tmp_path, capsys, rows, message):
        # the rows as a scenario's pdp, counted from the first row of numbers;
        # a profile-wide error names pdp, not extract_taps' raw_pdp
        path = tmp_path / "pdp.csv"
        path.write_text(f"# comment\ndelay_us,power\n{rows}", encoding="utf-8")
        assert main(["taps", "--pdp", str(path)]) == 1
        assert _error_record(capsys) == {"error": message, "type": "ValueError",
                                         "command": "taps"}

    def test_non_utf8_pdp_record_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "pdp.csv"
        path.write_bytes(b"delay_us,power\r\n0,1\r\n\xff,0.5\r\n")
        assert main(["taps", "--pdp", str(path)]) == 1
        assert _error_record(capsys) == {
            "error": f"{path}: 'utf-8' codec can't decode byte 0xff in position 21: "
                     "invalid start byte",
            "type": "ValueError", "command": "taps"}

    def test_crlf_rows_read_as_lf_rows(self, tmp_path, capsys):
        rows = "delay_us,power\n0,1\n1,0.1\n2,0.5\n3,0.1\n"
        printed = []
        for newline in ("\n", "\r\n"):
            path = tmp_path / "pdp.csv"
            path.write_bytes(rows.replace("\n", newline).encode("utf-8"))
            assert main(["taps", "--pdp", str(path)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert len(json.loads(printed[0])["taps"]) == 2

    def test_each_row_is_held_to_the_profile_rules_once(self, monkeypatch, tmp_path, capsys):
        # at the boundary, in microseconds, and not again in seconds
        from aoasim import cli, scenario

        checked = []
        for owner in (cli, scenario):
            wrapped = owner._check_profile

            def counted(rows, *args, wrapped=wrapped):
                checked.append(len(rows))
                return wrapped(rows, *args)
            monkeypatch.setattr(owner, "_check_profile", counted)
        path = self._write_pdp(tmp_path)
        assert main(["taps", "--pdp", str(path)]) == 0
        assert len(checked) == 1

    @pytest.mark.parametrize("prominence", ["nan", "inf", "-inf", "-3.0"])
    def test_bad_prominence_is_one_error_record(self, tmp_path, capsys, prominence):
        # NaN or inf used to print the zero-delay tap alone, with exit 0
        path = self._write_pdp(tmp_path)
        assert main(["taps", "--pdp", str(path), f"--prominence={prominence}"]) == 1
        record = _error_record(capsys)
        assert record["type"] == "ValueError"
        assert record["error"] == ("--prominence must be finite and nonnegative, "
                                   f"got {float(prominence)}")

    @pytest.mark.parametrize("option, message", [
        ("--paths=0", "--paths must be at least 1, got 0"),
        ("--prominence=-1", "--prominence must be finite and nonnegative, got -1.0"),
    ])
    def test_bad_option_is_named_as_typed(self, tmp_path, capsys, option, message):
        # the rule is the scenario field's (paths_per_tap, prominence_db),
        # the name the option's; nothing is printed or written
        out = tmp_path / "never.json"
        assert main(["taps", "--pdp", str(EXAMPLE_PDP), option, "--out", str(out)]) == 1
        assert _error_record(capsys) == {"error": message, "type": "ValueError",
                                         "command": "taps"}
        assert not out.exists()

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
        rows = [Tap.json_row(tap, "taps", 50) for tap in printed]
        assert TapProfile(tuple(Tap(d * 1e-6, p, n) for d, p, n in rows)) == extracted
        doc = {"distance_m": 1000.0, "kappa": 0.0, "mu": 1.0, "pattern": {"kind": "omni"}}
        loaded = ScenarioConfig.from_json_dict(dict(doc, taps=printed)).taps
        total = extracted.total_power
        assert loaded == TapProfile(tuple(Tap(t.delay, t.power / total, t.path_count)
                                          for t in extracted.taps))
