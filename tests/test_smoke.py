"""The command line in a fresh process: exit statuses, stderr bytes and files.

Each test runs `python -m aoasim.cli` in a subprocess, the package imported
from the tree under test, so every module (aoasim.writers among them) loads
in a new interpreter, and what only a process shows is checked: the exit
status, the single JSON error line on stderr with no traceback, and files
that are byte-equal from one process to the next.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import aoasim

SCENARIOS = Path(__file__).parents[1] / "scenarios"
SHORT = str(SCENARIOS / "synthetic_short_spread.json")
LONG = str(SCENARIOS / "synthetic_long_spread.json")


def _aoasim(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(aoasim.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "aoasim.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env)


def _succeeds(*argv):
    result = _aoasim(*argv)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    return result.stdout


def _error_record(result, status):
    # one JSON line on stderr, and nothing else
    assert result.returncode == status
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in lines[0] and "usage:" not in lines[0]
    return json.loads(lines[0])


def test_taps():
    taps = json.loads(_succeeds("taps", "--pdp", SCENARIOS / "example_pdp.csv"))
    assert taps["taps"] and taps["rms_delay_spread_us"] > 0


def test_fit_scores_a_run_against_its_own_spectrum(tmp_path):
    # every empirical angle is a bin center, looked up through density_at
    _succeeds("simulate", "--scenario", SHORT, "--trials", "20", "--out", tmp_path / "sim")
    fit = json.loads(_succeeds("fit", "--scenario", SHORT, "--trials", "20",
                               "--empirical", tmp_path / "sim" / "spectrum.csv"))
    assert fit["lse"] < 1e-20 and fit["points"] == 360


def test_sweep(tmp_path):
    _succeeds("sweep", "--scenario", LONG, "--hpbw", "360,60", "--trials", "20",
              "--out", tmp_path)
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert [point["hpbw_deg"] for point in report["points"]] == [360.0, 60.0]
    assert (tmp_path / "sweep.csv").read_text(encoding="utf-8").count("\n") == 3


def test_reports_are_byte_equal_from_process_to_process(tmp_path):
    # the long-spread scenario's von Mises term goes through the grid sampler
    for run in ("a", "b"):
        _succeeds("simulate", "--scenario", LONG, "--per-path-spread", "--out", tmp_path / run)
    first = (tmp_path / "a" / "report.json").read_bytes()
    assert first == (tmp_path / "b" / "report.json").read_bytes()
    assert b"per_path_spread_mean_deg" in first


def test_oversized_bin_count_fails_at_load(tmp_path):
    out = tmp_path / "oversized"
    record = _error_record(_aoasim("simulate", "--scenario", SHORT, "--bins", "3000000000",
                                   "--out", out), 1)
    assert "bins" in record["error"]
    assert not (out / "report.json").exists()


def test_usage_error_is_a_json_record():
    result = _aoasim("simulate", "--scenario", SHORT, "--trials", "abc")
    assert _error_record(result, 2)["type"] == "UsageError"


def test_runs_import_no_numpy_ma(tmp_path):
    # numpy.ma loads on first use (np.unique imports it in NumPy 2.4) and
    # adds about 1.2 MB to a process's peak memory; neither a sweep, which
    # bins its paths from their uniforms, nor a run that computes angles
    # for --per-path-spread needs it
    code = (
        "import sys\n"
        "from aoasim.cli import main\n"
        f"assert main(['sweep', '--scenario', {LONG!r}, '--hpbw', '360,60', '--trials', '20', "
        f"'--out', {str(tmp_path / 'sweep')!r}]) == 0\n"
        f"assert main(['simulate', '--scenario', {LONG!r}, '--per-path-spread', '--trials', '20', "
        f"'--out', {str(tmp_path / 'simulate')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(aoasim.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"
