"""Monte Carlo generation of per-trial path sets.

Each trial draws departure angles from the transmit-pattern density,
maps them through the per-tap ellipse to arrival angles, draws local
scattering angles around the receiver from a von Mises distribution,
and assigns per-path powers so the expected tap powers reproduce the
delay profile.

Stream format v3: a run reads one PCG64DXSM stream (O'Neill, "PCG: A
Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation", HMC-CS-2014-0905) seeded by
SeedSequence(seed).  Trial i owns the outputs [i*W, (i+1)*W) of it, one
uniform each, W being exactly 2 x paths; PCG64DXSM's advance jumps to
any output directly, so any subset of trials, in any chunking, reads
the same numbers.  Of a trial's row, columns [0, P) turn into angles
through the quantile functions (tap order, the zero-delay tap first)
and columns [P, 2P) into powers.

The row does not depend on the transmit pattern, which only the delayed
taps' departure quantiles read.  So generate_chunk takes a chunk of
trials under several patterns in turn: the uniforms, local angles and
powers are drawn once, and each pattern then gets its departure angles,
their ellipse map and a (trials, paths) path set of its own.  This is
how an HPBW sweep runs all its points in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import wrap_angle
from .kernels import _half_angle_map

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import ScenarioConfig

@dataclass(frozen=True, eq=False)
class PathSet:
    """All paths of one trial, or of a batch of trials, as arrays.

    angles, powers: arrival angle (radians, in (-pi, pi]) and linear
    power of each scattered path, in draw order: the zero-delay tap's
    local paths first, then each delayed tap in profile order.  Shape
    (paths,) for one trial; (trials, paths), one row per trial, for a
    batch.
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


def draw_uniforms(scenario: "ScenarioConfig", first, stop):
    """The uniforms of trials first..stop-1, one row of W per trial, in one call.

    See the module docstring for the stream layout.
    """
    if first < 0:
        raise ValueError(f"trial index must be nonnegative, got {first}")
    width = 2 * scenario.taps.tap_index.size
    stream = np.random.PCG64DXSM(scenario.seed_sequence)
    stream.advance(first * width)
    return np.random.Generator(stream).random((stop - first, width))


def generate_chunk(scenario: "ScenarioConfig", patterns, first, stop):
    """Path sets of trials first..stop-1, one per pattern in turn.

    Draws the trials' uniforms once and takes the local arrival angles
    and the powers from them once.  Then, for each of patterns, it maps
    that pattern's departure quantiles of every delayed tap through
    their ellipses and yields the (trials, paths) path set, before it
    takes the next pattern: only the path set in hand is built.  Every
    path set shares the one powers array.  The path set of patterns[p]
    is bit for bit what the scenario with that pattern gives alone, and
    its row k what trial first + k gives alone, whatever first and stop
    are.
    """
    profile = scenario.taps
    local, paths = profile.path_counts[0], profile.tap_index.size
    uniforms = draw_uniforms(scenario, first, stop)
    # The quantiles lie on [-pi, pi], so wrapping them to (-pi, pi] moves
    # -pi only.
    local_angles = scenario.local.quantile(uniforms[:, :local])
    np.copyto(local_angles, np.pi, where=local_angles == -np.pi)
    powers = uniforms[:, paths:2 * paths] * scenario.power_scales
    direct_power = scenario.kappa * profile.taps[0].power / (1.0 + scenario.kappa)
    for pattern in patterns:
        # The map takes the quantiles on [-pi, pi] and gives angles on
        # (-pi, pi], so every angle is wrapped exactly once.  The angles
        # are joined after the map, so they and the quantile's working
        # arrays are never live at once.
        angles = np.concatenate((local_angles, _half_angle_map(
            pattern.quantile(uniforms[:, local:paths]), scenario.half_angle_ratios)), axis=1)
        yield PathSet(angles, powers, profile.tap_index, direct_power)


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
    [batch] = generate_chunk(scenario, (scenario.pattern,), trial_index, trial_index + 1)
    return PathSet(batch.angles[0], batch.powers[0], batch.tap_index, batch.direct_power)
