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
taps' departure quantiles read, so a run under several patterns (an HPBW
sweep) draws and weighs each chunk once (scenario._simulate).  A run that
reports per-path spreads bins the angles of its one pattern
(_chunk_angles); every other run bins each path from its uniform alone
(BinSearch), as the quantile functions and the ellipse map are
nondecreasing: in one search per chunk for each group of patterns.
generate_chunk and generate_trial give the path sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import aoa_to_aod, wrap_angle
from .inputs import _check_count
from .kernels import _half_angle_map, _SearchRows

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import ScenarioConfig

# A run and a sweep take their trials in chunks (scenario.trials_per_chunk):
# trials times the larger of paths and bins per trial is at most this many
# entries (one trial at least).  So each (trials, paths) array of a chunk
# holds at most this many, its (trials, 2P) uniforms at most twice that,
# and a sweep builds them for one point at a time: this bounds them whatever
# the trial and point counts.  No array of a chunk is bins wide; the bins
# still size the chunk, as a rule by paths alone measured more peak memory
# on bench/'s simulate_many (1.8 MB) and sweep_paper (1.0 MB).  A run's
# BinSearch rank tables, local rows included, hold at most twice this many
# entries in all, as many as a chunk's uniforms (_group_size).  Neither
# changes a number.
CHUNK_SIZE = 1 << 15


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
        return _total_power(self.powers, self.direct_power)


def _total_power(powers, direct_power):
    # Each trial's total power, direct path included; a run builds no path set.
    return np.sum(powers, axis=-1) + direct_power


def sample_aod(pattern, rng, size):
    """Draw size departure angles distributed per aod_pdf for the pattern.

    The pattern's quantile function applied to size uniforms from rng,
    wrapped to (-pi, pi].
    """
    return wrap_angle(pattern.quantile(rng.random(size)))


def draw_uniforms(scenario: "ScenarioConfig", first, stop):
    """The uniforms of trials first..stop-1 (ints, 0 <= first < stop), one
    row of W per trial, in one call.  The stream layout: the module docstring.
    """
    width = 2 * scenario.taps.tap_index.size
    stream = np.random.PCG64DXSM(scenario.seed_sequence)
    stream.advance(first * width)
    return np.random.Generator(stream).random((stop - first, width))


def _chunk_powers(scenario, uniforms):
    """The (trials, paths) powers of a chunk's uniforms, and its direct path's power."""
    profile = scenario.taps
    paths = profile.tap_index.size
    return (uniforms[:, paths:2 * paths] * scenario.power_scales,
            scenario.kappa * profile.taps[0].power / (1.0 + scenario.kappa))


def _chunk_angles(scenario, pattern, uniforms):
    """The (trials, paths) arrival angles of a chunk's uniforms under pattern."""
    local, paths = scenario.taps.path_counts[0], scenario.taps.tap_index.size
    # The quantiles lie on [-pi, pi], so wrapping them to (-pi, pi] moves
    # -pi only.
    local_angles = scenario.local.quantile(uniforms[:, :local])
    np.copyto(local_angles, np.pi, where=local_angles == -np.pi)
    # The map takes the quantiles on [-pi, pi] and gives angles on
    # (-pi, pi], so every angle is wrapped exactly once.  The angles are
    # joined after the map, so they and the quantile's working arrays are
    # never live at once.
    return np.concatenate((local_angles, _half_angle_map(
        pattern.quantile(uniforms[:, local:paths]), scenario.half_angle_ratios)), axis=1)


def generate_chunk(scenario: "ScenarioConfig", first, stop):
    """The (trials, paths) path set of trials first..stop-1 under scenario.pattern.

    Its row k is bit for bit what trial first + k gives alone, whatever
    first and stop are, and what a run with per-path spreads bins.
    """
    uniforms = draw_uniforms(scenario, first, stop)
    powers, direct_power = _chunk_powers(scenario, uniforms)
    return PathSet(_chunk_angles(scenario, scenario.pattern, uniforms), powers,
                   scenario.taps.tap_index, direct_power)


class BinSearch:
    """Each path's bin straight from its uniform, for a run's patterns and binning.

    Every sampler's quantile is the inverse of its cdf and the ellipse
    map is increasing, so a path lies at or past interior edge b exactly when
    its uniform is at or above the edge's threshold cdf(aoa_to_aod(edge
    b)), and its bin is the count of its row's thresholds at or below
    its uniform.  The thresholds are built once per run: each pattern's
    rows are the local row (the local paths' cdf at the edges) and one per
    delayed tap, (delayed taps + 1) x bins CDF values a pattern, whatever
    the trial count.

    _SearchRows make, merge, rank and count the thresholds; no angle is
    computed.  Each group of consecutive patterns (_group_size) is one
    _SearchRows of their rows, the local row, which they all share, merged
    once, and a chunk bins all its paths in one search per group, each
    column in its tap's row, and each pattern's by one take of its ranks
    (a group of one keeps none).  What is left here is the partition into
    groups, the edges' departures and the rule below for a zero uniform.

    A uniform of exactly 0 is the one point where a path's angle is not
    nondecreasing in its uniform: a quantile of -pi wraps to pi, the
    last bin.  Such a path takes the bin of its angle, computed for it.
    A path within a few ulps of an edge may bin otherwise than its
    angle would.
    """

    def __init__(self, scenario, patterns, bins):
        self.scenario, self.bins = scenario, bins
        interior = bins.edges[1:-1]
        local = scenario.local.cdf(interior)[None]
        ecc = scenario.eccentricities  # one row of departures per delayed tap
        departures = aoa_to_aod(np.broadcast_to(interior, (ecc.size, interior.size)), ecc[:, None])
        size = _group_size(len(patterns), ecc.size + 1, interior.size)
        groups = (patterns[first:first + size] for first in range(0, len(patterns), size))
        # (patterns, search) of each group
        self.groups = [(group, _SearchRows([np.concatenate((local, pattern.cdf(departures)))
                                            for pattern in group]))
                       for group in groups]

    def cells(self, uniforms):
        """The (trials, paths) bin of each path of a chunk's uniforms under
        each pattern in turn: bins.index of _chunk_angles' angles under it,
        but for a path within a few ulps of an edge.  The angle columns are
        copied once, contiguous, and each group's counts are the cells."""
        profile = self.scenario.taps
        paths = profile.tap_index.size
        # Copied, so that every search reads contiguous rows: short strided
        # rows slow the search down.
        searched = uniforms[:, :paths].copy()
        zeros = np.flatnonzero(searched == 0.0)
        last = len(self.groups) - 1
        for index, (group, search) in enumerate(self.groups):
            counts = search.counts(searched, profile.tap_index)
            if index == last:
                del searched  # searched for the last time: not kept beside the points' cells
            for pattern in group:
                # by next, not zip, whose reused result tuple would keep
                # each point's counts alive beside its cells
                cells = next(counts)
                if zeros.size:
                    angles = _chunk_angles(self.scenario, pattern, np.zeros((1, paths)))
                    np.put(cells, zeros, self.bins.index(angles[0]).take(zeros % paths))
                yield cells


def _group_size(patterns, rows, thresholds):
    """Patterns per BinSearch group: as many as keep the run's rank tables
    within 2 * CHUNK_SIZE entries, one at least.

    With groups of g, each of a run's patterns keeps rows rank rows (its
    local row and one per delayed tap) of g x thresholds + 1 entries; g =
    1 keeps none.
    """
    return max(1, min(patterns, (2 * CHUNK_SIZE // (patterns * rows) - 1) // thresholds))


def generate_trial(scenario: "ScenarioConfig", trial_index):
    """Generate the path set of one Monte Carlo trial.

    For every delayed tap: path_count departure angles from the pattern
    density, mapped through that tap's ellipse, each paired with a
    uniform power draw.  For the zero-delay tap: von Mises local angles
    with the Rician-scaled power draws.  With kappa > 0 a deterministic
    direct path at boresight carries the power kappa * P_0 / (1 + kappa).

    trial_index must be an integer of at least 0.  Deterministic in
    (scenario, trial_index): repeated calls return bitwise-identical
    arrays.  A view of the one-trial generate_chunk.
    """
    first = _check_count(trial_index, "trial_index", 0)
    batch = generate_chunk(scenario, first, first + 1)
    return PathSet(batch.angles[0], batch.powers[0], batch.tap_index, batch.direct_power)
