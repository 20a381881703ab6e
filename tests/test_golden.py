"""Golden-output regression: pinned sha256 digests of CLI output files.

Each case runs the command line on a fixed-seed scenario (small ones
per pattern kind, and one with 70,000 paths per trial, so long rows
reach every reduction) and compares the sha256 of every emitted file
with a recorded digest, so any change to the bytes written (numbers,
rounding, key order, formatting) fails here even when the values stay
statistically sound.  Refactors must keep these digests; a deliberate
change of output re-records them and says why.

The digests were recorded for stream format v3 (package versions 0.5.0 and 0.6.0):
one PCG64DXSM stream per run seeded by SeedSequence(seed), exactly 2P
uniforms per trial reached by advance, and quantile samplers.  They
depend on NumPy's PCG64DXSM and SeedSequence, on the package's own
normal quantile (AS241, in NumPy) and math.erfc, and on the platform's
floating-point math library; they were recorded with NumPy 2.4 and
Python 3.11 on x86-64 Linux.  Version 0.4.0 changed every digest, since
every trial reads other uniforms than under stream format v2 (versions
0.2.0 and 0.3.0).  Version 0.5.0 changed the estimator's summation
order alone: the averaged spectrum is one running sum of the path
weights (power over the trial's total power), each added into its bin
by np.add.at one path at a time in trial order, and each trial's spread
is the moments of its own paths' bin centers, each summed by NumPy's
pairwise add along the trial's row.  So the digests depend on both
orders; angles, powers, per-path spreads and point masses are 0.4.0's,
and sweep.csv kept both of its digests.  A sweep point no longer repeats
its report's angle_spread_deg beside it.

Version 0.6.0 bins the paths of a run without --per-path-spread (the
sweeps here) from their uniforms, against the CDF values of the bin
edges, and computes no angle for them: every spectrum.csv and sweep.csv
kept its digest, and every report.json differs from 0.5.0's in its
version line alone, so each was re-recorded for that line.

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


# 70,000 paths per trial: long rows for the power sums, the running sum
# and the spreads' moments.
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
        "report.json": "42af287f2c378964e7f058c7f15c3f1f07dc0b7ae4ed66fb0d8c8da7e456e092",
        "spectrum.csv": "cb2df730a1545624113a7593f2607282211df6cd252ebee0ca24fac91984ad50",
    },
    "gaussian": {
        "report.json": "cc07bdefa8a9382040155f1760284fd3a35ced234201b09612fbec1cf3b18754",
        "spectrum.csv": "7b7000a5f937bbb0aac2e08b7c6d3d605f274a63d93604ad5c2716da7d4f808d",
    },
    "tabulated": {
        "report.json": "db6e1f84108f44f5feb824871b6e28c70208328f0cba3332af7a32e5b5d66bc1",
        "spectrum.csv": "6aeb11e6b3f09afc90f628892f6cbeb06a6ce509971d4ae7ec1108b8cae5a8e2",
    },
}

WIDE_DIGESTS = {
    "report.json": "e67e82a51d055a46992edacebf528c0c1391409cb8c5c7c99bf40f5b0c009953",
    "spectrum.csv": "42a14fe3aa175c1d7da69ceea9d9fd379f27b8bfff8ca8c369e662d8de0ed9a3",
}

# 1000 paths and 360 bins per trial over 80 trials: several chunks of
# trials (a ragged last one) for a run_simulation of one beamwidth, more
# for the stacked sweep of four.
_CHUNKED_TAPS = [
    {"delay_us": delay, "power": power, "paths": paths}
    for delay, power, paths in ((0.0, 0.45, 300), (0.8, 0.35, 400), (2.6, 0.2, 300))
]

SWEEP_DIGESTS = {
    "report.json": "06a26d28a4b5882f2566c5ad2b13f743a5b7cd93b89286bf1e115632b5919728",
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
    "report.json": "8d99b67fcdd2ed02a688de30df45b6aa04c53bfea73b022afb9a5c7a74c4f8a8",
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
