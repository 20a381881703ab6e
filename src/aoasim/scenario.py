"""Scenario configuration, tap extraction, and experiment orchestration.

Scenario files are single JSON documents with human-friendly units:
angles in degrees, delays in microseconds, powers linear (normalized to
unit total on load).  Internally everything runs in radians, seconds,
and linear power.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.signal import find_peaks

from .angular import (
    AntennaPattern,
    GaussianPattern,
    LocalScattering,
    Tap,
    TapProfile,
    pattern_from_json,
)
from .estimation import AngularSpectrum, average_spectra, estimate_pdf, rms_angle_spread
from .geometry import _DEG
from .montecarlo import generate_trial

_US = 1e-6  # seconds per microsecond

DEFAULT_PATHS_PER_TAP = 50
DEFAULT_PROMINENCE_DB = 3.0


def extract_taps(raw_pdp, min_prominence_db=DEFAULT_PROMINENCE_DB,
                 paths_per_tap=DEFAULT_PATHS_PER_TAP):
    """Extract delay taps from raw power-delay-profile samples.

    raw_pdp: sequence of (delay_seconds, linear_power) with strictly
    increasing delays starting at zero.  The first sample always becomes
    tap 0; interior local maxima whose prominence on the dB trace
    exceeds min_prominence_db become the delayed taps.  Rejects profiles
    with no local maximum anywhere (flat or monotonically rising).
    """
    samples = [(float(d), float(p)) for d, p in raw_pdp]
    if len(samples) < 3:
        raise ValueError(f"need at least 3 PDP samples, got {len(samples)}")
    delays = np.array([d for d, _ in samples])
    powers = np.array([p for _, p in samples])
    if np.any(np.diff(delays) <= 0):
        raise ValueError("PDP delays must be strictly increasing")
    if delays[0] != 0.0:
        raise ValueError("PDP must start at zero delay")
    if np.any(powers <= 0):
        raise ValueError("PDP powers must be positive")

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
        if self.kappa < 0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")
        if self.mu < 0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.bins < 8:
            raise ValueError(f"bins must be at least 8, got {self.bins}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")

    @property
    def local(self):
        return LocalScattering(mu=self.mu, kappa=self.kappa)

    @classmethod
    def from_json_dict(cls, doc):
        if ("taps" in doc) == ("pdp" in doc):
            raise ValueError("scenario must define exactly one of 'taps' or 'pdp'")
        default_paths = int(doc.get("paths_per_tap", DEFAULT_PATHS_PER_TAP))
        if "taps" in doc:
            taps = tuple(
                Tap(
                    delay=float(entry["delay_us"]) * _US,
                    power=float(entry["power"]),
                    path_count=int(entry.get("paths", default_paths)),
                )
                for entry in doc["taps"]
            )
            profile = TapProfile(taps)
        else:
            samples = [(float(d) * _US, float(p)) for d, p in doc["pdp"]]
            profile = extract_taps(
                samples,
                min_prominence_db=float(doc.get("prominence_db", DEFAULT_PROMINENCE_DB)),
                paths_per_tap=default_paths,
            )
        return cls(
            distance=float(doc["distance_m"]),
            taps=_normalized_profile(profile),
            pattern=pattern_from_json(doc["pattern"]),
            kappa=float(doc["kappa"]),
            mu=float(doc["mu"]),
            trials=int(doc.get("trials", 500)),
            bins=int(doc.get("bins", 360)),
            master_seed=int(doc.get("seed", 0)),
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
            "taps": [
                {"delay_us": t.delay / _US, "power": t.power, "paths": t.path_count}
                for t in self.taps.taps
            ],
        }

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def to_file(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def digest(self):
        """Short stable identifier of the scenario contents."""
        canonical = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RunReport:
    """Result of one averaged simulation run.

    angle_spread is the rms angle spread of the averaged spectrum, in
    radians; per_trial_spreads holds the spread of each single-trial
    spectrum.  The report carries no timing, so emitted reports stay
    byte-identical across runs.
    """

    averaged_spectrum: AngularSpectrum
    angle_spread: float
    per_trial_spreads: tuple[float, ...]
    scenario_echo: ScenarioConfig

    def spread_standard_error(self):
        """Standard error of the angle-spread estimate across trials."""
        spreads = np.array(self.per_trial_spreads)
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
            "per_trial_spread_deg": [s / _DEG for s in self.per_trial_spreads],
            "spectrum": {
                "angle_deg": [c / _DEG for c in spectrum.bin_centers],
                "pdf_per_deg": [d * _DEG for d in spectrum.density],
            },
            "scenario": self.scenario_echo.to_json_dict(),
        }


def run_simulation(config):
    """Run the configured number of trials and average their spectra.

    Trials run one after another in trial order; each draws from its
    own stream derived from (master seed, trial index), so the output is
    fully deterministic for a fixed scenario and seed.
    """
    spectra = [
        estimate_pdf(generate_trial(config, index), config.bins)
        for index in range(config.trials)
    ]
    averaged = average_spectra(spectra)
    spreads = tuple(rms_angle_spread(s) for s in spectra)
    return RunReport(
        averaged_spectrum=averaged,
        angle_spread=rms_angle_spread(averaged),
        per_trial_spreads=spreads,
        scenario_echo=config,
    )


class SweepPoint(NamedTuple):
    hpbw_deg: float
    angle_spread: float
    report: RunReport


def hpbw_sweep(config, hpbw_deg_list):
    """Angle spread versus half-power beamwidth.

    Reruns the simulation for each beamwidth (degrees) with the same
    master seed and returns one (hpbw_deg, angle_spread, report) point
    per entry.  Only defined for Gaussian patterns.
    """
    if not isinstance(config.pattern, GaussianPattern):
        raise ValueError("HPBW sweep requires a Gaussian antenna pattern")
    hpbw_deg_list = list(hpbw_deg_list)
    if not hpbw_deg_list:
        raise ValueError("hpbw list must be nonempty")
    points = []
    for hpbw_deg in hpbw_deg_list:
        cfg = replace(config, pattern=GaussianPattern(hpbw=float(hpbw_deg) * _DEG))
        report = run_simulation(cfg)
        points.append(SweepPoint(float(hpbw_deg), report.angle_spread, report))
    return points
