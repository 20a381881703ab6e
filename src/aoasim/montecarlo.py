"""Monte Carlo generation of per-trial path sets.

Each trial draws departure angles from the transmit-pattern density,
maps them through the per-tap ellipse to arrival angles, draws local
scattering angles around the receiver from a von Mises distribution,
and assigns per-path powers so the expected tap powers reproduce the
delay profile.  Trials are seeded independently from
(master_seed, trial_index), so generation is deterministic and
independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .angular import ellipses_for_taps
from .geometry import aod_to_aoa, wrap_angle

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import ScenarioConfig


@dataclass(frozen=True)
class PathSample:
    """One propagation path: owning tap, arrival angle, linear power."""

    tap_index: int
    aoa: float
    power: float
    is_direct: bool = False


@dataclass(frozen=True)
class PathSet:
    """All paths of one trial, with identifiers for reproducibility."""

    paths: tuple[PathSample, ...]
    scenario_digest: str
    trial_seed: int

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))

    def scattered_angles(self):
        return np.array([p.aoa for p in self.paths if not p.is_direct])

    def scattered_powers(self):
        return np.array([p.power for p in self.paths if not p.is_direct])

    def direct_power(self):
        return sum(p.power for p in self.paths if p.is_direct)

    def total_power(self):
        return sum(p.power for p in self.paths)


def sample_aod(pattern, rng, size=None):
    """Draw departure angle(s) distributed per aod_pdf for the pattern.

    The pattern supplies its own sampler (see angular); the draws are
    wrapped to (-pi, pi].  Returns a scalar when size is None, otherwise
    an array of the given length.
    """
    count = 1 if size is None else int(size)
    out = wrap_angle(pattern.sample(rng, count))
    return float(out[0]) if size is None else out


def sample_local_aoa(mu, rng, size=None):
    """Draw von Mises(0, mu) arrival angle(s) for the local scattering tap.

    Uses the standard wrapped-envelope rejection sampler; mu = 0
    short-circuits to the uniform distribution on (-pi, pi].
    """
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    count = 1 if size is None else int(size)
    if mu == 0:
        out = rng.uniform(-np.pi, np.pi, size=count)
    else:
        out = rng.vonmises(0.0, mu, size=count)
    out = wrap_angle(out)
    return float(out[0]) if size is None else out


def sample_tap_powers(power, path_count, rng):
    """Per-path powers for one delayed tap.

    path_count independent draws from uniform(0, 2 * power / path_count),
    so the expected per-path power is power / path_count and the expected
    tap total is power.
    """
    if not power > 0:
        raise ValueError(f"tap power must be positive, got {power}")
    if not isinstance(path_count, (int, np.integer)) or path_count < 1:
        raise ValueError(f"path count must be an integer >= 1, got {path_count}")
    return rng.uniform(0.0, 2.0 * power / path_count, size=int(path_count))


def sample_local_powers(power, path_count, kappa, rng):
    """Per-path powers for the zero-delay scattering paths.

    path_count draws from uniform(0, 2 * power / ((1 + kappa) * path_count));
    the expected scattered total is power / (1 + kappa), leaving the
    Rician fraction kappa / (1 + kappa) for the direct path.
    """
    if not power > 0:
        raise ValueError(f"tap power must be positive, got {power}")
    if not isinstance(path_count, (int, np.integer)) or path_count < 1:
        raise ValueError(f"path count must be an integer >= 1, got {path_count}")
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    upper = 2.0 * power / ((1.0 + kappa) * path_count)
    return rng.uniform(0.0, upper, size=int(path_count))


def trial_rng(master_seed, trial_index):
    """Independent random generator for one trial.

    Streams are derived by splitting the master seed with the trial
    index, so any subset of trials can be generated in any order, or in
    parallel, with identical results.
    """
    if trial_index < 0:
        raise ValueError(f"trial index must be nonnegative, got {trial_index}")
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(trial_index,))
    return np.random.default_rng(seq), int(seq.generate_state(1, np.uint64)[0])


def generate_trial(scenario: "ScenarioConfig", trial_index):
    """Generate the full path set for one Monte Carlo trial.

    For every delayed tap: path_count departure angles from the pattern
    density, mapped through that tap's ellipse, each paired with a
    uniform power draw.  For the zero-delay tap: von Mises local angles
    with the Rician-scaled power draws.  With kappa > 0 one additional
    deterministic direct path at boresight carries the power
    kappa * P_0 / (1 + kappa).

    Deterministic in (scenario, trial_index): repeated calls return
    bitwise-identical path sets.
    """
    rng, seed_word = trial_rng(scenario.master_seed, trial_index)
    profile = scenario.taps
    ellipses = ellipses_for_taps(profile, scenario.distance)

    paths = []
    tap0 = profile.taps[0]
    local_angles = np.atleast_1d(sample_local_aoa(scenario.mu, rng, size=tap0.path_count))
    local_powers = sample_local_powers(tap0.power, tap0.path_count, scenario.kappa, rng)
    paths.extend(
        PathSample(0, float(a), float(p))
        for a, p in zip(local_angles, local_powers)
    )

    for ellipse, tap in zip(ellipses, profile.delayed):
        departures = sample_aod(scenario.pattern, rng, size=tap.path_count)
        arrivals = aod_to_aoa(departures, ellipse.eccentricity)
        powers = sample_tap_powers(tap.power, tap.path_count, rng)
        paths.extend(
            PathSample(ellipse.tap_index, float(a), float(p))
            for a, p in zip(np.atleast_1d(arrivals), powers)
        )

    if scenario.kappa > 0:
        direct = scenario.kappa * tap0.power / (1.0 + scenario.kappa)
        paths.append(PathSample(0, 0.0, direct, is_direct=True))

    return PathSet(tuple(paths), scenario.digest(), seed_word)
