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

from .angular import (AntennaPattern, GaussianPattern, LocalScattering, Tap, TapProfile,
                      ellipses_for_taps, pattern_from_json)
from .estimation import (AngularSpectrum, _bins, _normalization_defects, rms_angle_spread,
                         weighted_spread)
from .geometry import _half_angle_ratio, _read_only
from .inputs import (_COUNT_RANGES, _DEG, _US, _check_count, _check_hpbw, _check_nonnegative,
                     _check_normalized, _check_profile, _check_taps, _read_text, json_field,
                     json_object, json_pairs)
from .kernels import _decibels
from .montecarlo import (CHUNK_SIZE, BinSearch, _chunk_angles, _chunk_powers, _total_power,
                         draw_uniforms)
from .writers import write_json

DEFAULT_PATHS_PER_TAP = 50
DEFAULT_PROMINENCE_DB = 3.0

_SCENARIO_KEYS = ("distance_m", "kappa", "mu", "trials", "bins", "seed", "pattern",
                  "taps", "pdp", "paths_per_tap", "prominence_db")


def _prominent_peaks(x, min_prominence=0.0):
    """Indices of the peaks of x whose prominence is at least min_prominence.

    The definitions of scipy.signal.find_peaks, which the tests hold this
    to: a peak is a strict local maximum, a run of equal samples with a
    lower sample on each side, placed at the run's midpoint rounded down,
    so the first and last samples are never peaks.  Its prominence is its
    height above the higher of the lowest samples on its two sides, each
    side searched out to the first strictly higher sample or the edge.
    Every peak's prominence is positive, so the default keeps them all.
    """
    # The first index of every run of equal samples but the first run; the
    # runs between the first and the last are the candidates.
    bounds = np.flatnonzero(x[1:] != x[:-1]) + 1
    starts, ends = bounds[:-1], bounds[1:] - 1
    is_peak = (x[starts - 1] < x[starts]) & (x[ends + 1] < x[starts])
    kept = []
    for peak in ((starts + ends) // 2)[is_peak].tolist():
        height = x[peak]
        left = np.flatnonzero(x[:peak] > height)
        right = np.flatnonzero(x[peak + 1:] > height)
        lo = left[-1] + 1 if left.size else 0
        hi = peak + 1 + right[0] if right.size else x.size
        if height - max(x[lo:peak].min(), x[peak + 1:hi].min()) >= min_prominence:
            kept.append(peak)
    return np.array(kept, dtype=np.intp)


def extract_taps(raw_pdp, min_prominence_db=DEFAULT_PROMINENCE_DB,
                 paths_per_tap=DEFAULT_PATHS_PER_TAP):
    """Extract delay taps from raw power-delay-profile samples.

    raw_pdp: sequence of (delay_seconds, linear_power), at least 3, held
    to the tap delay and power rules (inputs._check_profile, naming
    raw_pdp[i][j]).  The first sample always becomes tap 0; interior local
    maxima whose prominence on the dB trace exceeds min_prominence_db
    become the delayed taps; it must be finite and nonnegative (the
    scenario field prominence_db).  Rejects profiles with no local
    maximum anywhere (flat or monotonically rising).  paths_per_tap must
    be an integer of at least 1 (the scenario field paths_per_tap).
    """
    samples = [(float(d), float(p)) for d, p in raw_pdp]
    _check_profile(samples, "raw_pdp[{}][{}]".format)
    return _extract_taps(samples, "raw_pdp", min_prominence_db, paths_per_tap)


def _extract_taps(samples, field, min_prominence_db, paths_per_tap):
    # extract_taps of (delay, power) float rows already held to the profile
    # rules, its errors naming the profile field: raw_pdp, or pdp for a
    # scenario's and `aoasim taps --pdp`'s rows, which their readers check
    # in microseconds, naming each row as written.
    _check_nonnegative(min_prominence_db, "prominence_db")
    _check_count(paths_per_tap, "paths_per_tap", 1)
    if len(samples) < 3:
        raise ValueError(f"{field} must hold at least 3 samples, got {len(samples)}")
    delays = np.array([d for d, _ in samples])
    powers = np.array([p for _, p in samples])

    level_db = _decibels(powers)
    peaks = _prominent_peaks(level_db, min_prominence_db)
    if peaks.size == 0 and _prominent_peaks(level_db).size == 0 and not powers[0] > powers[1]:
        raise ValueError(f"{field} has no local maximum (flat or rising profile); "
                         "cannot extract taps")
    taps = [Tap(0.0, float(powers[0]), paths_per_tap)]
    taps.extend(Tap(float(delays[k]), float(powers[k]), paths_per_tap) for k in peaks)
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
    bins: angular histogram resolution over (-pi, pi], 8 to 2**20 bins.
    master_seed: seed of the run's random stream (see montecarlo).
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
        _check_nonnegative(self.distance, "distance")
        self.local  # LocalScattering checks mu and kappa
        # Counts are kept as Python ints, which JSON writes.
        for name, bounds in _COUNT_RANGES.items():
            object.__setattr__(self, name, _check_count(getattr(self, name), name, *bounds))

    @cached_property
    def local(self):
        return LocalScattering(mu=self.mu, kappa=self.kappa)

    # The run invariants of generation (see montecarlo), computed on first
    # use and kept read-only, so that a run pays for them once and not once
    # per chunk or pattern.

    @cached_property
    def seed_sequence(self):
        """The SeedSequence of the run's random stream, built once from the master seed."""
        return np.random.SeedSequence(self.master_seed)

    @cached_property
    def power_scales(self):
        # Per-path power is uniform on [0, scale): each delayed tap's paths
        # get 2 P / paths, so the expected tap total is P; the zero-delay
        # tap's get 2 P_0 / ((1 + kappa) paths), leaving the Rician fraction
        # kappa / (1 + kappa) of P_0 to the direct path.
        scales = [2.0 * tap.power / tap.path_count for tap in self.taps.taps]
        scales[0] /= 1.0 + self.kappa
        return _read_only(np.repeat(scales, self.taps.path_counts))

    @cached_property
    def eccentricities(self):
        """The eccentricity of each delayed tap's ellipse, in tap order."""
        return _read_only(np.array([e.eccentricity
                                    for e in ellipses_for_taps(self.taps, self.distance)]))

    @cached_property
    def half_angle_ratios(self):
        # aod_to_aoa's ratio of each delayed path column, its eccentricity
        # checked here once, so the chunks map without checking it again.
        return _read_only(_half_angle_ratio(np.repeat(self.eccentricities,
                                                      self.taps.path_counts[1:])))

    @classmethod
    def from_json_dict(cls, doc):
        """Scenario from its scenario-file form, checked field by field.

        Counts (trials, bins, seed, paths_per_tap, taps[i].paths) must be
        JSON integers and every other number a JSON number, never a bool;
        unknown keys, and prominence_db beside taps, are rejected.  Each
        error is a ValueError naming the field by its JSON path, in the file's units.
        """
        json_object(doc, _SCENARIO_KEYS)
        if ("taps" in doc) == ("pdp" in doc):
            raise ValueError("scenario must define exactly one of 'taps' or 'pdp'")
        default_paths = _check_count(json_field(doc, "paths_per_tap", DEFAULT_PATHS_PER_TAP,
                                                integer=True), "paths_per_tap", 1)
        if "taps" in doc:
            if "prominence_db" in doc:
                raise ValueError("prominence_db applies only to a 'pdp' scenario, not to 'taps'")
            if not isinstance(doc["taps"], list):
                raise ValueError("taps must be a list of tap objects")
            rows = [Tap.json_row(entry, f"taps[{index}]", default_paths)
                    for index, entry in enumerate(doc["taps"])]
            _check_taps(rows, Tap.json_keys, _US)
            profile = TapProfile(tuple(Tap(delay_us * _US, power, paths)
                                       for delay_us, power, paths in rows))
        else:
            pdp = json_pairs(doc, "pdp")
            _check_profile(pdp, "pdp[{}][{}]".format, _US)
            profile = _extract_taps([(d * _US, p) for d, p in pdp], "pdp",
                                    json_field(doc, "prominence_db", DEFAULT_PROMINENCE_DB),
                                    default_paths)
        return cls(
            distance=_check_nonnegative(json_field(doc, "distance_m"), "distance_m"),
            taps=_normalized_profile(profile),
            pattern=pattern_from_json(doc.get("pattern")),
            kappa=json_field(doc, "kappa"),
            mu=json_field(doc, "mu"),
            trials=json_field(doc, "trials", 500, integer=True),
            bins=json_field(doc, "bins", 360, integer=True),
            master_seed=_check_count(json_field(doc, "seed", 0, integer=True), "seed",
                                     *_COUNT_RANGES["master_seed"]),
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
        """The scenario of the JSON file at path; a file that is not UTF-8
        JSON is a ValueError that names it."""
        text = _read_text(path)
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to load") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return cls.from_json_dict(doc)

    def to_file(self, path):
        write_json(path, self.to_json_dict())


@dataclass(frozen=True, eq=False)
class RunReport:
    """Result of one averaged simulation run.

    angle_spread is the rms angle spread of the averaged spectrum, in
    radians; per_trial_spreads holds the spread of each single-trial
    spectrum, and per_path_spreads the unbinned spread of each trial's
    raw paths, taken in the same pass:
    read-only float64 arrays, one entry per trial.  per_path_spreads is
    None unless the run was asked for it (run_simulation's
    per_path_spread).  Its report.json form is writers.simulate_report's.
    The report carries no timing, so emitted reports stay byte-identical
    across runs.
    """

    averaged_spectrum: AngularSpectrum
    angle_spread: float
    per_trial_spreads: np.ndarray
    per_path_spreads: np.ndarray | None
    scenario_echo: ScenarioConfig

    def spread_standard_error(self):
        """Standard error of the angle-spread estimate across trials."""
        spreads = self.per_trial_spreads
        if spreads.size < 2:
            return float("inf")
        return float(np.std(spreads, ddof=1) / math.sqrt(spreads.size))


def trials_per_chunk(config):
    """Trials that one chunk generates and bins as one batch, for any pattern count.

    CHUNK_SIZE over the wider of a trial's path count and bin count, one
    trial at least: a chunk's fixed NumPy calls are spread over as many
    trials as CHUNK_SIZE allows (see there for why the bins count).
    """
    return max(1, CHUNK_SIZE // max(config.taps.tap_index.size, config.bins))


def _simulate(config, patterns, per_path_spread):
    """One report per pattern: config's trials, run once for all patterns.

    The one owner of a chunk of consecutive trials (trials_per_chunk): it
    draws the chunk's uniforms (montecarlo.draw_uniforms), and takes its
    powers, path weights (each path's power over its trial's total power)
    and point masses once, checked, whatever the pattern count.  Each
    pattern's cells then come from the uniforms (montecarlo.BinSearch),
    no angle being computed and per_path_spreads None; or, with
    per_path_spread and one pattern only, from its angles
    (montecarlo._chunk_angles), which give the unbinned per-path spreads
    too.  One pattern's cells are reduced before the next's are found.
    How the weights reach the running sum and the spreads: README,
    Determinism.  Every trial reads its own block of the run's random
    stream, so each report is what config with that pattern gives alone,
    bit for bit, whatever the chunking and the other patterns.
    """
    trials, step, bins = config.trials, trials_per_chunk(config), _bins(config.bins)
    weight_sums = np.zeros((len(patterns), bins.count))
    point_mass = np.empty(trials)
    trial_spreads = np.empty((len(patterns), trials))
    if per_path_spread:
        [pattern] = patterns
        path_spreads = np.empty(trials)
    else:
        search, path_spreads = BinSearch(config, patterns, bins), None
    for first in range(0, trials, step):
        stop = min(first + step, trials)
        uniforms = draw_uniforms(config, first, stop)
        powers, direct_power = _chunk_powers(config, uniforms)
        total = _total_power(powers, direct_power)
        point_mass[first:stop] = direct_power / total
        weights = powers / total[:, None]
        _check_normalized(_normalization_defects(weights, point_mass[first:stop]))
        if per_path_spread:
            angles = _chunk_angles(config, pattern, uniforms)
            path_spreads[first:stop] = weighted_spread(angles, weights)
            chunk = [bins.index(angles)]
            del angles
        else:
            chunk = search.cells(uniforms)
        for point, cells in enumerate(chunk):
            # add.at adds one path at a time, in trial order across chunks.
            np.add.at(weight_sums[point], cells.ravel(), weights.ravel())
            trial_spreads[point, first:stop] = weighted_spread(bins.centers.take(cells), weights)
        # Dropped before the next chunk is drawn, so that no array of this
        # chunk is live beside the next one's.
        del uniforms, powers, weights, chunk, cells
    # Each report's spreads are read-only.
    trial_spreads.flags.writeable = False
    if per_path_spread:
        path_spreads.flags.writeable = False
    # np.mean over the point masses adds pairwise, so they are all kept.
    mean_point_mass = float(np.mean(point_mass))
    reports = []
    for pattern, weight_sum, trial_row in zip(patterns, weight_sums, trial_spreads):
        averaged = AngularSpectrum(weight_sum / bins.width / trials, mean_point_mass)
        reports.append(RunReport(
            averaged_spectrum=averaged,
            angle_spread=rms_angle_spread(averaged),
            per_trial_spreads=trial_row,
            per_path_spreads=path_spreads,
            scenario_echo=replace(config, pattern=pattern),
        ))
    return reports


def run_simulation(config, per_path_spread=False):
    """Run the configured number of trials and average their spectra.

    The one-pattern case of _simulate, deterministic for a fixed scenario
    and seed whatever the chunking.  With per_path_spread each trial's
    angles are computed once, for its spectrum and its unbinned spread
    alike; without it each path is binned from its uniform, and the
    report's per_path_spreads is None.
    """
    [report] = _simulate(config, (config.pattern,), per_path_spread)
    return report


class SweepPoint(NamedTuple):
    hpbw_deg: float
    report: RunReport

    @property
    def angle_spread(self):
        """The point's rms angle spread in radians: its report's."""
        return self.report.angle_spread


def hpbw_sweep(config, hpbw_deg_list):
    """Angle spread versus half-power beamwidth.

    Returns one SweepPoint (hpbw_deg, report) per beamwidth (degrees),
    each equal bit for bit to run_simulation at that beamwidth.  All
    points run in one pass (_simulate) and compute no angle: each chunk
    of trials is drawn and weighed once, its paths are searched once per
    group of points in their merged bin-edge thresholds, the local row
    shared (montecarlo.BinSearch), and only each point's rank lookup and
    the reduce run per point.  Every point reads the same uniforms, so the
    points share common random numbers.  Only defined for Gaussian
    patterns, and for at least one beamwidth.  The reports carry no
    per-path spreads.
    """
    if not isinstance(config.pattern, GaussianPattern):
        raise ValueError("HPBW sweep requires a Gaussian antenna pattern")
    hpbws = [float(hpbw_deg) for hpbw_deg in hpbw_deg_list]
    if not hpbws:
        raise ValueError("hpbw_deg_list must list at least one beamwidth")
    patterns = tuple(GaussianPattern(_check_hpbw(hpbw, f"hpbw_deg_list[{i}]", degrees=True) * _DEG)
                     for i, hpbw in enumerate(hpbws))
    return [SweepPoint(hpbw, report)
            for hpbw, report in zip(hpbws, _simulate(config, patterns, per_path_spread=False))]
