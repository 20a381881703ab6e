"""Golden-output regression: pinned sha256 digests of CLI output files.

Each case runs the command line on a small fixed-seed scenario and
compares the sha256 of every emitted file with a recorded digest, so any
change to the bytes written (numbers, rounding, key order, formatting)
fails here even when the values stay statistically sound.  Refactors
must keep these digests; a deliberate change of output re-records them
and says why.

The digests depend on NumPy's random streams and on the platform's
floating-point math library; they were recorded with NumPy 2.4 and
Python 3.11 on x86-64 Linux.
"""

import hashlib
import json

import pytest

from aoasim.cli import main

_TAPS = [
    {"delay_us": 0.0, "power": 0.45, "paths": 6},
    {"delay_us": 0.8, "power": 0.35, "paths": 9},
    {"delay_us": 2.6, "power": 0.2, "paths": 7},
]

_PATTERNS = {
    "omni": {"kind": "omni"},
    "gaussian": {"kind": "gaussian", "hpbw_deg": 75.0},
    "tabulated": {
        "kind": "tabulated",
        "samples": [[a, 1.0 + 0.5 * abs(a) / 180.0] for a in range(-165, 180, 30)],
    },
}


def _scenario(tmp_path, pattern, kappa):
    doc = {
        "distance_m": 800.0,
        "kappa": kappa,
        "mu": 6.0,
        "trials": 7,
        "bins": 48,
        "seed": 2024,
        "pattern": pattern,
        "taps": _TAPS,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


SIMULATE_DIGESTS = {
    "omni": {
        "report.json": "9f30e9541a572b2abd41dfe1e8167f3df3a06ec0b8338030c0d750fc763e969a",
        "spectrum.csv": "a45e1e37da6c7c72e2654534cb070123d1e56cffb614df37992b12f891d39dc3",
    },
    "gaussian": {
        "report.json": "94d41969d7d5f915d7c70eec56e74d9f35ee9f00c01ad92d711a7fb555257b59",
        "spectrum.csv": "2c138cab9781fd26635f7facb474497e655e2e0245b098c800c45f7f253e2511",
    },
    "tabulated": {
        "report.json": "1b4bfc858aa133dbd6baf2af934c0d301cb34088a442390974305c8f53205486",
        "spectrum.csv": "9ed13b09944d54bfbbe31baaa7f2b5eac9372e7a9f56ce5fb5f7816773705ae6",
    },
}

SWEEP_DIGESTS = {
    "report.json": "9c505203bb3da09f77094d7c3972b3f621efe42c71e24df0e871245f93089656",
    "sweep.csv": "aadb0a3463bbe026cc6681a5349f8f5f48a3887613e3bac95ff9bc2838308696",
}


@pytest.mark.parametrize("kind,kappa", [("omni", 0.0), ("gaussian", 0.7), ("tabulated", 0.3)])
def test_simulate_per_path_spread_bytes(tmp_path, kind, kappa, capsys):
    scenario = _scenario(tmp_path, _PATTERNS[kind], kappa)
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out),
                 "--per-path-spread"]) == 0
    capsys.readouterr()
    assert _digests(out, ["report.json", "spectrum.csv"]) == SIMULATE_DIGESTS[kind]


def test_sweep_bytes(tmp_path, capsys):
    scenario = _scenario(tmp_path, _PATTERNS["gaussian"], 0.5)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario), "--hpbw", "200,45",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert _digests(out, ["sweep.csv", "report.json"]) == SWEEP_DIGESTS
