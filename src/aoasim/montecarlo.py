"""Monte Carlo generation of per-trial path sets.

Each trial draws departure angles from the transmit-pattern density,
maps them through the per-tap ellipse to arrival angles, draws local
scattering angles around the receiver from a von Mises distribution,
and assigns per-path powers so the expected tap powers reproduce the
delay profile.  Trials are seeded independently from
(master_seed, trial_index), so generation is deterministic and
independent of execution order.

generate_trials draws consecutive trials as one batch: each trial still
draws from its own stream, in the same order, but the ellipse map and
the wrapping run once per tap over all the batch's trials, so a batch
of any size gives the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .angular import ellipses_for_taps
from .estimation import sequential_sum
from .geometry import aod_to_aoa, wrap_angle

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import ScenarioConfig


@dataclass(frozen=True, eq=False)
class PathSet:
    """All paths of one trial, or of a batch of trials, as arrays.

    angles, powers: arrival angle (radians, in (-pi, pi]) and linear
    power of each scattered path, in draw order: the zero-delay tap's
    local paths first, then each delayed tap in profile order.  Shape
    (paths,) for one trial; (trials, paths), one row per trial, for a
    batch from generate_trials.
    tap_index: the tap each scattered path (column) belongs to.
    direct_power: power of the direct path at boresight; 0.0 when
    kappa = 0, in which case the trial has no direct path.
    """

    angles: np.ndarray
    powers: np.ndarray
    tap_index: np.ndarray
    direct_power: float = 0.0

    def total_power(self):
        return sequential_sum(self.powers) + self.direct_power


def sample_aod(pattern, rng, size):
    """Draw size departure angles distributed per aod_pdf for the pattern.

    The pattern supplies its own sampler (see angular); the draws are
    wrapped to (-pi, pi].
    """
    return wrap_angle(pattern.sample(rng, size))


def _local_aoa_draws(mu, rng, size):
    # The unwrapped draws of sample_local_aoa.
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if mu == 0:
        return rng.uniform(-np.pi, np.pi, size=size)
    return rng.vonmises(0.0, mu, size=size)


def sample_local_aoa(mu, rng, size):
    """Draw size von Mises(0, mu) arrival angles for the local scattering tap.

    Uses the standard wrapped-envelope rejection sampler; mu = 0
    short-circuits to the uniform distribution on (-pi, pi].
    """
    return wrap_angle(_local_aoa_draws(mu, rng, size))


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


def generate_trials(scenario: "ScenarioConfig", first, stop):
    """Path sets of trials first..stop-1 as one batch, one row per trial.

    Each trial draws from its own trial_rng stream exactly as
    generate_trial describes, in the same order, into per-tap
    (trials, paths) buffers; the ellipses are built once, each tap's
    draws are wrapped once and each delayed tap's block is mapped to
    arrival angles in one call.  Returns a PathSet whose angles and
    powers have one row per trial, so row k equals
    generate_trial(scenario, first + k) bit for bit.
    """
    profile = scenario.taps
    tap0 = profile.taps[0]
    count = stop - first
    angles = [np.empty((count, tap.path_count)) for tap in profile.taps]
    powers = [np.empty((count, tap.path_count)) for tap in profile.taps]
    for row, index in enumerate(range(first, stop)):
        rng = trial_rng(scenario.master_seed, index)
        angles[0][row] = _local_aoa_draws(scenario.mu, rng, tap0.path_count)
        powers[0][row] = sample_local_powers(tap0.power, tap0.path_count, scenario.kappa, rng)
        for k, tap in enumerate(profile.delayed, start=1):
            angles[k][row] = scenario.pattern.sample(rng, tap.path_count)
            powers[k][row] = sample_tap_powers(tap.power, tap.path_count, rng)
    # aod_to_aoa wraps its input, so every block is wrapped exactly once.
    angles[0] = wrap_angle(angles[0])
    for k, ellipse in enumerate(ellipses_for_taps(profile, scenario.distance), start=1):
        angles[k] = aod_to_aoa(angles[k], ellipse.eccentricity)
    counts = [tap.path_count for tap in profile.taps]
    direct = scenario.kappa * tap0.power / (1.0 + scenario.kappa) if scenario.kappa > 0 else 0.0
    return PathSet(
        angles=np.concatenate(angles, axis=1),
        powers=np.concatenate(powers, axis=1),
        tap_index=np.repeat(np.arange(len(counts)), counts),
        direct_power=direct,
    )


def generate_trial(scenario: "ScenarioConfig", trial_index):
    """Generate the path set of one Monte Carlo trial.

    For every delayed tap: path_count departure angles from the pattern
    density, mapped through that tap's ellipse, each paired with a
    uniform power draw.  For the zero-delay tap: von Mises local angles
    with the Rician-scaled power draws.  With kappa > 0 a deterministic
    direct path at boresight carries the power kappa * P_0 / (1 + kappa).

    Deterministic in (scenario, trial_index): repeated calls return
    bitwise-identical arrays.  The one-trial case of generate_trials.
    """
    batch = generate_trials(scenario, trial_index, trial_index + 1)
    return PathSet(batch.angles[0], batch.powers[0], batch.tap_index, batch.direct_power)
