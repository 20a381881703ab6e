"""Golden-output regression: pinned sha256 digests of CLI output files.

Each case runs the command line on a fixed-seed scenario (small ones
per pattern kind, and one with 70,000 paths per trial, so long rows
reach every reduction) and compares the sha256 of every emitted file
with a recorded digest, so any change to the bytes written (numbers,
rounding, key order, formatting) fails here even when the values stay
statistically sound.  Refactors must keep these digests; a deliberate
change of output re-records them and says why.

The digests were recorded for stream format v2 (package version 0.3.0):
one Philox stream per run keyed by SeedSequence(seed), a fixed block of
uniforms per trial, quantile samplers and one bincount per chunk.  They
depend on NumPy's Philox and SeedSequence, on the package's own normal
quantile (AS241, in NumPy) and math.erfc, and on the platform's
floating-point math library; they were recorded with NumPy 2.4 and
Python 3.11 on x86-64 Linux.  Version 0.3.0 changed the report.json
digests only: the version key, and two of the Gaussian case's per-path
spreads in their last bits; every spectrum.csv and sweep.csv digest is
that of 0.2.0.  They also
depend on NumPy reducing the trial axis of a (trials, bins) array row by
row (np.add.reduce over an axis that is not the contiguous one): the
averaged spectrum is a running sum of the per-trial density rows in
trial order.

The chunked sweep case was recorded while hpbw_sweep still ran the
whole simulation once per point; the one-pass sweep, which draws each
chunk once and then bins it for one point at a time, must reproduce it.
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
        "report.json": "962a3f255226e14fd038e66cb997a16d70a8678ffa9f44a190addb565fe77a44",
        "spectrum.csv": "9286bb458bb71a1d7ed3010484f21194b7f619c5255762914a280751725e9df9",
    },
    "gaussian": {
        "report.json": "7ae3225cc1b4d960820a913106b7e4452e4fb3f93dfcf68b7d4f79ace874299f",
        "spectrum.csv": "019d987c0d324370a2c74e82567cf3049a439b5bacaf1077f0c11bfc4b6f0372",
    },
    "tabulated": {
        "report.json": "ae1730f79eb8ebc9d7d744814210294408f58bf770861795d9612386d49018a0",
        "spectrum.csv": "80acecb55667a4517b40220fa161495783e4fa33b4e79d66f7b7bd392059e32d",
    },
}

WIDE_DIGESTS = {
    "report.json": "4e0f82cb43be12ccf38fcc9dd7ceaab16147b0a2b2f12b2ae0d6083850ab277f",
    "spectrum.csv": "e1b51f279bcbf4725526983fc5e071ed953ff826ce348d68e53fc732a8f1fee9",
}

# 1000 paths and 360 bins per trial over 80 trials: several chunks of
# trials (a ragged last one) for a run_simulation of one beamwidth, more
# for the stacked sweep of four.
_CHUNKED_TAPS = [
    {"delay_us": delay, "power": power, "paths": paths}
    for delay, power, paths in ((0.0, 0.45, 300), (0.8, 0.35, 400), (2.6, 0.2, 300))
]

SWEEP_DIGESTS = {
    "report.json": "3513861127cb86333c97407ab569d4f559457698f896188ef3d456752261e210",
    "sweep.csv": "3f59d8db9d55bfcf7a447394d042af38792c1e83dc2399cd70ca44990cdc8bd0",
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
    "report.json": "fc2250262a39eb7c25c84513656f6a6b41c0848f9d129c838ef06515c1182d01",
    "sweep.csv": "70326e7f77020686e9fcf46949da25bbd3ed29c798624bf947718f74811c58b7",
}


def test_chunked_sweep_bytes(tmp_path, capsys):
    scenario = _scenario(tmp_path, _PATTERNS["gaussian"], 0.0,
                         taps=_CHUNKED_TAPS, trials=80, bins=360)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario), "--hpbw", "360,150,60,20",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert _digests(out, ["sweep.csv", "report.json"]) == CHUNKED_SWEEP_DIGESTS
