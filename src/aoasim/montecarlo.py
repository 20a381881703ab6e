"""Monte Carlo generation of per-trial path sets.

Each trial draws departure angles from the transmit-pattern density,
maps them through the per-tap ellipse to arrival angles, draws local
scattering angles around the receiver from a von Mises distribution,
and assigns per-path powers so the expected tap powers reproduce the
delay profile.

Stream format v2: a run reads one Philox stream (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011) keyed by the
master seed.  Trial i owns the uniforms [i*W, (i+1)*W) of it, W being
2 x paths rounded up to whole Philox blocks of 4; Philox addresses
them by its counter, so any subset of trials, in any chunking, reads
the same numbers.  Of a trial's row, columns [0, P) turn into angles
through the quantile functions (tap order, the zero-delay tap first)
and columns [P, 2P) into powers.

The row does not depend on the transmit pattern, which only the delayed
taps' departure quantiles read.  So generate_chunk takes a chunk of
trials under several patterns at once: the uniforms, local angles and
powers are drawn once, and each pattern adds one layer of departure
angles.  This is how an HPBW sweep runs all its points in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .angular import ellipses_for_taps
from .geometry import aod_to_aoa, wrap_angle

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import ScenarioConfig

# Philox4x64 yields 4 doubles per counter step.
_BLOCK = 4


@dataclass(frozen=True, eq=False)
class PathSet:
    """All paths of one trial, or of a batch of trials, as arrays.

    angles, powers: arrival angle (radians, in (-pi, pi]) and linear
    power of each scattered path, in draw order: the zero-delay tap's
    local paths first, then each delayed tap in profile order.  Shape
    (paths,) for one trial; (trials, paths), one row per trial, for a
    batch.  From generate_chunk, angles are (points, trials, paths),
    one layer per pattern, and the powers (trials, paths) are every
    layer's.
    tap_index: the tap each scattered path (column) belongs to.
    direct_power: power of the direct path at boresight; 0.0 when
    kappa = 0, in which case the trial has no direct path.
    """

    angles: np.ndarray
    powers: np.ndarray
    tap_index: np.ndarray
    direct_power: float = 0.0

    def total_power(self):
        return np.sum(self.powers, axis=-1) + self.direct_power


def sample_aod(pattern, rng, size):
    """Draw size departure angles distributed per aod_pdf for the pattern.

    The pattern's quantile function applied to size uniforms from rng,
    wrapped to (-pi, pi].
    """
    return wrap_angle(pattern.quantile(rng.random(size)))


def _power_scales(scenario):
    # Per-path power is uniform on [0, scale): each delayed tap's paths
    # get 2 P / paths, so the expected tap total is P; the zero-delay
    # tap's get 2 P_0 / ((1 + kappa) paths), leaving the Rician fraction
    # kappa / (1 + kappa) of P_0 to the direct path.
    taps = scenario.taps.taps
    scales = [2.0 * tap.power / tap.path_count for tap in taps]
    scales[0] /= 1.0 + scenario.kappa
    return np.repeat(scales, [tap.path_count for tap in taps])


def draw_uniforms(scenario: "ScenarioConfig", first, stop):
    """The uniforms of trials first..stop-1, one row of W per trial, in one call.

    See the module docstring for the stream layout.
    """
    if first < 0:
        raise ValueError(f"trial index must be nonnegative, got {first}")
    paths = sum(tap.path_count for tap in scenario.taps.taps)
    width = _BLOCK * -(-2 * paths // _BLOCK)
    key = np.random.SeedSequence(scenario.master_seed).generate_state(2, np.uint64)
    stream = np.random.Philox(key=key, counter=first * (width // _BLOCK))
    return np.random.Generator(stream).random((stop - first, width))


def generate_chunk(scenario: "ScenarioConfig", patterns, first, stop):
    """Path sets of trials first..stop-1 under each of patterns, as one batch.

    Draws the trials' uniforms once, takes the local arrival angles and
    the powers from them once, and fills one layer of a (points, trials,
    paths) angle array per pattern with that pattern's departure
    quantiles; each delayed tap's departures, for all points at once,
    then go through its ellipse.  The powers, (trials, paths), are shared
    by every point.  Layer p is bit for bit what the scenario with
    patterns[p] gives alone, and row k of it what trial first + k gives
    alone, whatever first and stop are.
    """
    profile = scenario.taps
    counts = [tap.path_count for tap in profile.taps]
    paths = sum(counts)
    uniforms = draw_uniforms(scenario, first, stop)

    angles = np.empty((len(patterns), stop - first, paths))
    start = counts[0]
    angles[:, :, :start] = wrap_angle(scenario.local.quantile(uniforms[:, :start]))
    for layer, pattern in zip(angles, patterns):
        layer[:, start:] = pattern.quantile(uniforms[:, start:paths])
    for count, ellipse in zip(counts[1:], ellipses_for_taps(profile, scenario.distance)):
        # aod_to_aoa wraps its input, so every angle is wrapped exactly once.
        block = angles[:, :, start:start + count]
        block[...] = aod_to_aoa(block, ellipse.eccentricity)
        start += count
    return PathSet(
        angles=angles,
        powers=uniforms[:, paths:2 * paths] * _power_scales(scenario),
        tap_index=np.repeat(np.arange(len(counts)), counts),
        direct_power=scenario.kappa * profile.taps[0].power / (1.0 + scenario.kappa),
    )


def generate_trial(scenario: "ScenarioConfig", trial_index):
    """Generate the path set of one Monte Carlo trial.

    For every delayed tap: path_count departure angles from the pattern
    density, mapped through that tap's ellipse, each paired with a
    uniform power draw.  For the zero-delay tap: von Mises local angles
    with the Rician-scaled power draws.  With kappa > 0 a deterministic
    direct path at boresight carries the power kappa * P_0 / (1 + kappa).

    Deterministic in (scenario, trial_index): repeated calls return
    bitwise-identical arrays.  A view of the one-trial, one-pattern
    generate_chunk.
    """
    batch = generate_chunk(scenario, (scenario.pattern,), trial_index, trial_index + 1)
    return PathSet(batch.angles[0, 0], batch.powers[0], batch.tap_index, batch.direct_power)
