"""Golden-output regression: pinned sha256 digests of CLI output files.

Each case runs the command line on a fixed-seed scenario (small ones
per pattern kind, and one with 70,000 paths per trial, so long rows
reach every reduction) and compares the sha256 of every emitted file
with a recorded digest, so any change to the bytes written (numbers,
rounding, key order, formatting) fails here even when the values stay
statistically sound.  Refactors must keep these digests; a deliberate
change of output re-records them and says why.

The digests were recorded for stream format v3 (package version 0.4.0):
one PCG64DXSM stream per run seeded by SeedSequence(seed), exactly 2P
uniforms per trial reached by advance, quantile samplers and one
bincount per chunk.  They depend on NumPy's PCG64DXSM and SeedSequence,
on the package's own normal quantile (AS241, in NumPy) and math.erfc,
and on the platform's floating-point math library; they were recorded
with NumPy 2.4 and Python 3.11 on x86-64 Linux.  Version 0.4.0 changed
every digest, since every trial reads other uniforms than under stream
format v2 (versions 0.2.0 and 0.3.0).  They also depend on NumPy
reducing the trial axis of a (trials, bins) array row by row
(np.add.reduce over an axis that is not the contiguous one): the
averaged spectrum is a running sum of the per-trial density rows in
trial order.

The chunked sweep case was first recorded while hpbw_sweep still ran
the whole simulation once per point; the one-pass sweep, which draws
each chunk once and then bins it for one point at a time, reproduced it
under stream format v2, and its v3 digests are the one-pass sweep's.
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


# 70,000 paths per trial: long rows for the power sums, the bincount and
# the unbinned spread's moments.
_WIDE_TAPS = [
    {"delay_us": delay, "power": power, "paths": 14_000}
    for delay, power in ((0.0, 0.4), (0.8, 0.25), (1.9, 0.15), (3.1, 0.12), (4.6, 0.08))
]


def _scenario(tmp_path, pattern, kappa, taps=_TAPS, trials=7, bins=48):
    doc = {
        "distance_m": 800.0,
        "kappa": kappa,
        "mu": 6.0,
        "trials": trials,
        "bins": bins,
        "seed": 2024,
        "pattern": pattern,
        "taps": taps,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


SIMULATE_DIGESTS = {
    "omni": {
        "report.json": "00f1b6e872f3c17e222edaa97ae9e238d7cc158ea13817b6a41358f923e2c290",
        "spectrum.csv": "2ed8b44ce98636816eddd4f3b7c40761e88fc42a9f2b9a33b71c06ce9c1e112c",
    },
    "gaussian": {
        "report.json": "a743b109107ad20b416752af63b0d8cf00df20fe853b881fe34c86563c90466b",
        "spectrum.csv": "c61070e71833738b418f84862f819d82a6e846567b2decb5c353052e9646b620",
    },
    "tabulated": {
        "report.json": "bd0e2665a8090ecbaa04690ffab7afe5b4ee1ed654f58fbd3ef1dfc1db66fa12",
        "spectrum.csv": "fd843155d087a2b7bb8adc848be0b32532513482c65afee2302409c86dac3313",
    },
}

WIDE_DIGESTS = {
    "report.json": "f9e2771343909c0e4ed8135fd2a14f06fbaacf004a2cf111a6c421b55a33b7ad",
    "spectrum.csv": "a97d5e8b783e2c02945f0b6ff14d79a995da7cf383bb18c5492d9df73cf468ee",
}

# 1000 paths and 360 bins per trial over 80 trials: several chunks of
# trials (a ragged last one) for a run_simulation of one beamwidth, more
# for the stacked sweep of four.
_CHUNKED_TAPS = [
    {"delay_us": delay, "power": power, "paths": paths}
    for delay, power, paths in ((0.0, 0.45, 300), (0.8, 0.35, 400), (2.6, 0.2, 300))
]

SWEEP_DIGESTS = {
    "report.json": "148094fa6c7893a457e80cf4dca35822de5afbcf62b4020c29edb79569743107",
    "sweep.csv": "ef16cdfceee24e450a96af36ad4cabad038a41e817814e21be4a5989010f0884",
}


@pytest.mark.parametrize("kind,kappa", [("omni", 0.0), ("gaussian", 0.7), ("tabulated", 0.3)])
def test_simulate_per_path_spread_bytes(tmp_path, kind, kappa, capsys):
    scenario = _scenario(tmp_path, _PATTERNS[kind], kappa)
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out),
                 "--per-path-spread"]) == 0
    capsys.readouterr()
    assert _digests(out, ["report.json", "spectrum.csv"]) == SIMULATE_DIGESTS[kind]


def test_wide_simulate_per_path_spread_bytes(tmp_path, capsys):
    scenario = _scenario(tmp_path, _PATTERNS["tabulated"], 0.4,
                         taps=_WIDE_TAPS, trials=2, bins=3600)
    out = tmp_path / "wide"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out),
                 "--per-path-spread"]) == 0
    capsys.readouterr()
    assert _digests(out, ["report.json", "spectrum.csv"]) == WIDE_DIGESTS


def test_sweep_bytes(tmp_path, capsys):
    scenario = _scenario(tmp_path, _PATTERNS["gaussian"], 0.5)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario), "--hpbw", "200,45",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert _digests(out, ["sweep.csv", "report.json"]) == SWEEP_DIGESTS


CHUNKED_SWEEP_DIGESTS = {
    "report.json": "6769283c202ab0ade4ae626bfa00e039bed2eabd3c6401550c5267e86d740af6",
    "sweep.csv": "52e3121962a4713f9147e7af59a8b132ff5c3abd1e98ec7c2b27b58256ad9152",
}


def test_chunked_sweep_bytes(tmp_path, capsys):
    scenario = _scenario(tmp_path, _PATTERNS["gaussian"], 0.0,
                         taps=_CHUNKED_TAPS, trials=80, bins=360)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario), "--hpbw", "360,150,60,20",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert _digests(out, ["sweep.csv", "report.json"]) == CHUNKED_SWEEP_DIGESTS
