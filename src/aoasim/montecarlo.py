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


@dataclass(frozen=True, eq=False)
class PathSet:
    """All paths of one trial, as arrays.

    angles, powers: arrival angle (radians, in (-pi, pi]) and linear
    power of each scattered path, in draw order: the zero-delay tap's
    local paths first, then each delayed tap in profile order.
    tap_index: the tap each scattered path belongs to.
    direct_power: power of the direct path at boresight; 0.0 when
    kappa = 0, in which case the trial has no direct path.
    """

    angles: np.ndarray
    powers: np.ndarray
    tap_index: np.ndarray
    direct_power: float = 0.0

    def total_power(self):
        # A sequential sum, path by path: np.sum adds pairwise, which
        # changes the last bits of the normalized outputs.
        return sum(self.powers.tolist()) + self.direct_power


def sample_aod(pattern, rng, size):
    """Draw size departure angles distributed per aod_pdf for the pattern.

    The pattern supplies its own sampler (see angular); the draws are
    wrapped to (-pi, pi].
    """
    return wrap_angle(pattern.sample(rng, size))


def sample_local_aoa(mu, rng, size):
    """Draw size von Mises(0, mu) arrival angles for the local scattering tap.

    Uses the standard wrapped-envelope rejection sampler; mu = 0
    short-circuits to the uniform distribution on (-pi, pi].
    """
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if mu == 0:
        out = rng.uniform(-np.pi, np.pi, size=size)
    else:
        out = rng.vonmises(0.0, mu, size=size)
    return wrap_angle(out)


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
    index, so any subset of trials can be generated in any order with
    identical results.  Returns the numpy Generator alone.
    """
    if trial_index < 0:
        raise ValueError(f"trial index must be nonnegative, got {trial_index}")
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(trial_index,))
    )


def generate_trial(scenario: "ScenarioConfig", trial_index):
    """Generate the path set of one Monte Carlo trial.

    For every delayed tap: path_count departure angles from the pattern
    density, mapped through that tap's ellipse, each paired with a
    uniform power draw.  For the zero-delay tap: von Mises local angles
    with the Rician-scaled power draws.  With kappa > 0 a deterministic
    direct path at boresight carries the power kappa * P_0 / (1 + kappa).

    Deterministic in (scenario, trial_index): repeated calls return
    bitwise-identical arrays.
    """
    rng = trial_rng(scenario.master_seed, trial_index)
    profile = scenario.taps
    tap0 = profile.taps[0]
    angles = [sample_local_aoa(scenario.mu, rng, tap0.path_count)]
    powers = [sample_local_powers(tap0.power, tap0.path_count, scenario.kappa, rng)]
    for ellipse, tap in zip(ellipses_for_taps(profile, scenario.distance), profile.delayed):
        departures = sample_aod(scenario.pattern, rng, tap.path_count)
        angles.append(aod_to_aoa(departures, ellipse.eccentricity))
        powers.append(sample_tap_powers(tap.power, tap.path_count, rng))
    counts = [tap.path_count for tap in profile.taps]
    direct = scenario.kappa * tap0.power / (1.0 + scenario.kappa) if scenario.kappa > 0 else 0.0
    return PathSet(
        angles=np.concatenate(angles),
        powers=np.concatenate(powers),
        tap_index=np.repeat(np.arange(len(counts)), counts),
        direct_power=direct,
    )
