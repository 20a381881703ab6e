"""Scenario configuration, tap extraction, and experiment orchestration.

Scenario files are single JSON documents with human-friendly units:
angles in degrees, delays in microseconds, powers linear (normalized to
unit total on load).  Internally everything runs in radians, seconds,
and linear power.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .angular import (
    AntennaPattern,
    GaussianPattern,
    LocalScattering,
    Tap,
    TapProfile,
    json_field,
    json_object,
    json_pairs,
    json_text,
    pattern_from_json,
)
from .estimation import (
    AngularSpectrum,
    angle_spread_rows,
    path_spread_rows,
    rms_angle_spread,
    spectrum_rows,
)
from .geometry import _DEG, _US, _read_only
from .montecarlo import _eccentricities, _power_scales, _stream_key, generate_chunk

DEFAULT_PATHS_PER_TAP = 50
DEFAULT_PROMINENCE_DB = 3.0

# run_simulation takes its trials in chunks of at most this many path and
# bin entries (paths plus bins per trial, times trials; one trial at
# least).  The batch buffers of a chunk grow with both, so this bounds
# them whatever the trial count; the chunking changes no number.
CHUNK_SIZE = 1 << 15

_SCENARIO_KEYS = ("distance_m", "kappa", "mu", "trials", "bins", "seed", "pattern",
                  "taps", "pdp", "paths_per_tap", "prominence_db")


def extract_taps(raw_pdp, min_prominence_db=DEFAULT_PROMINENCE_DB,
                 paths_per_tap=DEFAULT_PATHS_PER_TAP):
    """Extract delay taps from raw power-delay-profile samples.

    raw_pdp: sequence of (delay_seconds, linear_power) with finite,
    strictly increasing delays starting at zero and finite positive
    powers.  The first sample always becomes tap 0; interior local
    maxima whose prominence on the dB trace exceeds min_prominence_db
    become the delayed taps; it must be finite and nonnegative (the
    scenario field prominence_db).  Rejects profiles with no local
    maximum anywhere (flat or monotonically rising).
    """
    if not 0.0 <= min_prominence_db < math.inf:
        raise ValueError(
            f"prominence_db must be finite and nonnegative, got {min_prominence_db}")
    samples = [(float(d), float(p)) for d, p in raw_pdp]
    if len(samples) < 3:
        raise ValueError(f"need at least 3 PDP samples, got {len(samples)}")
    delays = np.array([d for d, _ in samples])
    powers = np.array([p for _, p in samples])
    for name, values in (("delays", delays), ("powers", powers)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"PDP {name} must be finite")
    if np.any(np.diff(delays) <= 0):
        raise ValueError("PDP delays must be strictly increasing")
    if delays[0] != 0.0:
        raise ValueError("PDP must start at zero delay")
    if np.any(powers <= 0):
        raise ValueError("PDP powers must be positive")

    # Only PDP scenarios and `aoasim taps` get here: importing scipy.signal
    # at the top would double the start-up time of every other command.
    from scipy.signal import find_peaks

    level_db = 10.0 * np.log10(powers)
    peaks, _ = find_peaks(level_db, prominence=min_prominence_db)
    if peaks.size == 0:
        raw_peaks, _ = find_peaks(level_db)
        if raw_peaks.size == 0 and not powers[0] > powers[1]:
            raise ValueError(
                "PDP has no local maximum (flat or rising profile); cannot extract taps"
            )
    taps = [Tap(0.0, float(powers[0]), int(paths_per_tap))]
    taps.extend(Tap(float(delays[k]), float(powers[k]), int(paths_per_tap)) for k in peaks)
    return TapProfile(tuple(taps))


def _normalized_profile(profile):
    total = profile.total_power
    if abs(total - 1.0) <= 1e-12:
        return profile
    return TapProfile(tuple(
        Tap(t.delay, t.power / total, t.path_count) for t in profile.taps
    ))


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete simulation input.

    distance: Tx-Rx separation in meters.
    taps: the delay-tap profile (powers normalized to unit total).
    pattern: transmit antenna pattern.
    kappa: Rician factor of the zero-delay tap.
    mu: von Mises concentration of the local scattering.
    trials: number of Monte Carlo trials to average.
    bins: angular histogram resolution over (-pi, pi].
    master_seed: seed from which all per-trial streams derive.
    """

    distance: float
    taps: TapProfile
    pattern: AntennaPattern
    kappa: float
    mu: float
    trials: int = 500
    bins: int = 360
    master_seed: int = 0

    def __post_init__(self):
        for name in ("distance", "kappa", "mu"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.distance < 0:
            raise ValueError(f"distance must be nonnegative, got {self.distance}")
        self.local  # LocalScattering checks the signs of mu and kappa
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.bins < 8:
            raise ValueError(f"bins must be at least 8, got {self.bins}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")

    @cached_property
    def local(self):
        return LocalScattering(mu=self.mu, kappa=self.kappa)

    # The run invariants of generation (see montecarlo), computed on first
    # use and kept read-only, so that a run pays for them once and not once
    # per chunk.

    @cached_property
    def stream_key(self):
        return _read_only(_stream_key(self))

    @cached_property
    def power_scales(self):
        return _read_only(_power_scales(self))

    @cached_property
    def eccentricities(self):
        return _read_only(_eccentricities(self))

    @classmethod
    def from_json_dict(cls, doc):
        """Scenario from its scenario-file form, checked field by field.

        Counts (trials, bins, seed, paths_per_tap, taps[i].paths) must be
        JSON integers and every other number a JSON number, never a bool;
        unknown keys, and prominence_db beside taps, are rejected.  Each
        error is a ValueError naming the field by its JSON path.
        """
        json_object(doc, _SCENARIO_KEYS)
        if ("taps" in doc) == ("pdp" in doc):
            raise ValueError("scenario must define exactly one of 'taps' or 'pdp'")
        default_paths = json_field(doc, "paths_per_tap", DEFAULT_PATHS_PER_TAP, integer=True)
        if "taps" in doc:
            if "prominence_db" in doc:
                raise ValueError("prominence_db applies only to a 'pdp' scenario, not to 'taps'")
            if not isinstance(doc["taps"], list):
                raise ValueError("taps must be a list of tap objects")
            profile = TapProfile(tuple(
                Tap.from_json(entry, f"taps[{index}]", default_paths)
                for index, entry in enumerate(doc["taps"])
            ))
        else:
            profile = extract_taps(
                [(d * _US, p) for d, p in json_pairs(doc, "pdp")],
                min_prominence_db=json_field(doc, "prominence_db", DEFAULT_PROMINENCE_DB),
                paths_per_tap=default_paths,
            )
        return cls(
            distance=json_field(doc, "distance_m"),
            taps=_normalized_profile(profile),
            pattern=pattern_from_json(doc.get("pattern")),
            kappa=json_field(doc, "kappa"),
            mu=json_field(doc, "mu"),
            trials=json_field(doc, "trials", 500, integer=True),
            bins=json_field(doc, "bins", 360, integer=True),
            master_seed=json_field(doc, "seed", 0, integer=True),
        )

    def to_json_dict(self):
        return {
            "distance_m": self.distance,
            "kappa": self.kappa,
            "mu": self.mu,
            "trials": self.trials,
            "bins": self.bins,
            "seed": self.master_seed,
            "pattern": self.pattern.to_json(),
            "taps": [tap.to_json() for tap in self.taps.taps],
        }

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def to_file(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json_text(self.to_json_dict()) + "\n")


@dataclass(frozen=True, eq=False)
class RunReport:
    """Result of one averaged simulation run.

    angle_spread is the rms angle spread of the averaged spectrum, in
    radians; per_trial_spreads holds the spread of each single-trial
    spectrum, and per_path_spreads the unbinned spread of each trial's
    raw paths (estimation.path_spread_rows), taken in the same pass:
    read-only float64 arrays, one entry per trial.  to_json_dict leaves
    per_path_spreads out; the CLI emits them on request.  The report
    carries no timing, so emitted reports stay byte-identical across
    runs.
    """

    averaged_spectrum: AngularSpectrum
    angle_spread: float
    per_trial_spreads: np.ndarray
    per_path_spreads: np.ndarray
    scenario_echo: ScenarioConfig

    def spread_standard_error(self):
        """Standard error of the angle-spread estimate across trials."""
        spreads = self.per_trial_spreads
        if spreads.size < 2:
            return float("inf")
        return float(np.std(spreads, ddof=1) / math.sqrt(spreads.size))

    def to_json_dict(self):
        spectrum = self.averaged_spectrum
        return {
            "angle_spread_deg": self.angle_spread / _DEG,
            "angle_spread_rad": self.angle_spread,
            "point_mass_at_zero": spectrum.point_mass_at_zero,
            "bins": spectrum.bin_count,
            "trials": self.scenario_echo.trials,
            "per_trial_spread_deg": (self.per_trial_spreads / _DEG).tolist(),
            "spectrum": {
                "angle_deg": (spectrum.bin_centers / _DEG).tolist(),
                "pdf_per_deg": (spectrum.density * _DEG).tolist(),
            },
            "scenario": self.scenario_echo.to_json_dict(),
        }


def trials_per_chunk(config, points=1):
    """Trials that one chunk generates and bins as one batch, for points patterns."""
    per_trial = sum(tap.path_count for tap in config.taps.taps) + config.bins
    return max(1, CHUNK_SIZE // points // per_trial)


def _simulate(config, patterns):
    """One report per pattern: config's trials, run once for all patterns.

    Trials run in chunks of consecutive trials (trials_per_chunk), each
    generated under every pattern at once (montecarlo.generate_chunk),
    binned and reduced as one batch before the next: the per-trial
    spreads are taken per chunk and each pattern's density rows added
    into its running sum in trial order, so memory stays bounded by the
    chunk size, whatever the trial count.  Every trial reads its own
    block of the run's random stream, so each report is what config
    with that pattern gives alone, bit for bit, whatever the chunking
    and the other patterns.
    """
    trials, step = config.trials, trials_per_chunk(config, len(patterns))
    density_sum = np.zeros((len(patterns), config.bins))
    point_mass = np.empty(trials)
    trial_spreads, path_spreads = np.empty((2, len(patterns), trials))
    for first in range(0, trials, step):
        stop = min(first + step, trials)
        paths = generate_chunk(config, patterns, first, stop)
        density, point_mass[first:stop] = spectrum_rows(paths, config.bins)
        # Reducing the trial axis, which is not the contiguous one, adds
        # row by row, so each point's sum is the same for any chunking;
        # summing the chunk first would change the last bits.
        density_sum[...] = np.add.reduce(
            np.concatenate([density_sum[:, None], density], axis=1), axis=1)
        trial_spreads[:, first:stop] = angle_spread_rows(density, point_mass[first:stop])
        path_spreads[:, first:stop] = path_spread_rows(paths)
    # Each report's spreads are read-only rows of these.
    trial_spreads.flags.writeable = path_spreads.flags.writeable = False
    # np.mean over the point masses adds pairwise, so they are all kept.
    mean_point_mass = float(np.mean(point_mass))
    reports = []
    for pattern, running, trial_row, path_row in zip(patterns, density_sum, trial_spreads,
                                                     path_spreads):
        averaged = AngularSpectrum(running / trials, mean_point_mass)
        reports.append(RunReport(
            averaged_spectrum=averaged,
            angle_spread=rms_angle_spread(averaged),
            per_trial_spreads=trial_row,
            per_path_spreads=path_row,
            scenario_echo=replace(config, pattern=pattern),
        ))
    return reports


def run_simulation(config):
    """Run the configured number of trials and average their spectra.

    The one-pattern case of _simulate: trials run in bounded chunks,
    each generated, binned and reduced as one batch.  Every trial reads
    its own block of the run's random stream (see montecarlo), so the
    output is fully deterministic for a fixed scenario and seed and does
    not depend on the chunking.  Each trial is generated once, for its
    spectrum and its unbinned spread alike.
    """
    [report] = _simulate(config, (config.pattern,))
    return report


class SweepPoint(NamedTuple):
    hpbw_deg: float
    angle_spread: float
    report: RunReport


def hpbw_sweep(config, hpbw_deg_list):
    """Angle spread versus half-power beamwidth.

    Returns one (hpbw_deg, angle_spread, report) point per beamwidth
    (degrees), each equal bit for bit to run_simulation at that
    beamwidth.  All points run in one pass: each chunk of trials draws
    its uniforms, local angles and powers once, and only the delayed
    taps' departures, their ellipse map and the binning are per point.
    Every point reads the same uniforms, so the points share common
    random numbers.  Only defined for Gaussian patterns.
    """
    if not isinstance(config.pattern, GaussianPattern):
        raise ValueError("HPBW sweep requires a Gaussian antenna pattern")
    hpbws = [float(hpbw_deg) for hpbw_deg in hpbw_deg_list]
    if not hpbws:
        raise ValueError("hpbw list must be nonempty")
    patterns = tuple(GaussianPattern(hpbw=hpbw * _DEG) for hpbw in hpbws)
    return [SweepPoint(hpbw, report.angle_spread, report)
            for hpbw, report in zip(hpbws, _simulate(config, patterns))]
