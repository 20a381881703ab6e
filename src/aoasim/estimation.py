"""Angular-spectrum estimation and dispersion metrics.

Path sets are reduced to power-weighted histograms over (-pi, pi]
(direct-path power goes into a point mass at boresight, not a bin)
over K uniform bins, the bin count being the only statement of the
binning, and angular dispersion is summarized by the rms angle spread
of the binned distribution.

A path set may hold a batch of trials, one row each (see
montecarlo.generate_trials): spectrum_rows, angle_spread_rows and
path_spread_rows reduce every row at once, and the single-trial
functions are their one-row case.  Each row's result is bit for bit
what the same trial gives alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _TWO_PI

# Tolerance on sum(probabilities) + point_mass == 1 for a valid spectrum.
NORMALIZATION_TOL = 1e-9


def _normalization_defects(probabilities, point_mass):
    # |sum of bin probabilities + point mass - 1|, per row.
    return np.abs(np.sum(probabilities, axis=-1) + point_mass - 1.0)


def _check_density(density):
    if np.any(density < 0) or not np.all(np.isfinite(density)):
        raise ValueError("density values must be finite and nonnegative")


def _check_point_mass(point_mass):
    # One point mass, or one per trial; the first bad one is reported.
    point_mass = np.ravel(point_mass)
    valid = (point_mass >= 0.0) & (point_mass <= 1.0 + NORMALIZATION_TOL)
    if not np.all(valid):
        raise ValueError(f"point mass must be a probability, got {point_mass[np.argmin(valid)]}")


def _bin_edges(bin_count):
    """Edges of bin_count uniform bins spanning exactly (-pi, pi]."""
    return np.linspace(-np.pi, np.pi, int(bin_count) + 1)


def _bin_centers(bin_count):
    edges = _bin_edges(bin_count)
    return 0.5 * (edges[:-1] + edges[1:])


@dataclass(frozen=True, eq=False)
class AngularSpectrum:
    """Binned arrival-angle density estimate.

    density: per-bin density in 1/radian over K uniform bins spanning
    (-pi, pi]; the bin count K is the only statement of the binning.
    point_mass_at_zero: probability carried by the direct path.
    """

    density: np.ndarray
    point_mass_at_zero: float

    def __post_init__(self):
        density = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "density", density)
        if density.ndim != 1 or density.size < 8:
            raise ValueError("density must be a 1-d array of at least 8 bins")
        _check_density(density)
        _check_point_mass(self.point_mass_at_zero)

    @property
    def bin_count(self):
        return self.density.size

    @property
    def bin_edges(self):
        return _bin_edges(self.density.size)

    @property
    def bin_width(self):
        return _TWO_PI / self.density.size

    @property
    def bin_centers(self):
        return _bin_centers(self.density.size)

    @property
    def probabilities(self):
        return self.density * self.bin_width

    def normalization_defect(self):
        """|sum of bin probabilities + point mass - 1|."""
        return float(_normalization_defects(self.probabilities, self.point_mass_at_zero))

    def density_at(self, phi):
        """Density of the bin containing each angle.

        Bin membership follows the histogram convention used to build
        the spectrum: bins are left-inclusive and the last bin also
        contains +pi.
        """
        arr = np.asarray(phi, dtype=float)
        if arr.size and (np.any(arr <= -np.pi) or np.any(arr > np.pi)):
            raise ValueError("angles must lie in (-pi, pi]")
        idx = np.searchsorted(self.bin_edges, arr, side="right") - 1
        idx = np.clip(idx, 0, self.bin_count - 1)
        out = self.density[idx]
        return float(out) if np.ndim(phi) == 0 else out


def sequential_sum(values):
    """Sum along the last axis, adding left to right.

    np.sum adds pairwise and Python's sum() compensates from 3.12 on;
    both change the last bits of the normalized outputs.  Returns a
    float for a 1-d input and an array of row sums for a 2-d one; an
    empty row sums to 0.0.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-1] == 0:
        sums = np.zeros(values.shape[:-1])
    else:
        sums = np.cumsum(values, axis=-1)[..., -1]
    return float(sums) if sums.ndim == 0 else sums


def _total_power(paths):
    total = paths.total_power()
    if not np.all(total > 0):
        raise ValueError("path set must be nonempty and carry positive total power")
    return total


# np.histogram with explicit edges works through its input in blocks of
# this many values; _histogram_rows follows the same blocks.
_HISTOGRAM_BLOCK = 65536


def _histogram_rows(angles, powers, edges):
    """np.histogram(angles[r], edges, weights=powers[r])[0] for every row r.

    Bit for bit the explicit-edge route of np.histogram, row by row:
    per block, sort the angles, take the sequential cumulative sum of the
    sorted powers, gather it at each edge's position in the sorted row
    (the last edge inclusive) and add the gathered sums over blocks; the
    bin weights are the differences.
    """
    rows, count = angles.shape
    cumulative = np.zeros((rows, edges.size))
    for start in range(0, count, _HISTOGRAM_BLOCK):
        block = angles[:, start:start + _HISTOGRAM_BLOCK]
        order = np.argsort(block, axis=1)
        block_powers = powers[:, start:start + _HISTOGRAM_BLOCK]
        summed = np.zeros((rows, block.shape[1] + 1))
        np.cumsum(np.take_along_axis(block_powers, order, axis=1), axis=1, out=summed[:, 1:])
        # position[r, j]: how many values of row r lie below edges[j] (at
        # or below it for the last edge), where np.histogram searches the
        # sorted row for the edge.  A value lies below every edge from
        # searchsorted(edges, value, "right") on, so counting values by
        # that index and accumulating the counts gives every row's
        # positions at once.  The sorted block searches faster.
        sorted_block = np.take_along_axis(block, order, axis=1)
        first_above = np.searchsorted(edges, sorted_block, side="right")
        cell = first_above + (edges.size + 1) * np.arange(rows)[:, None]
        below = np.bincount(cell.ravel(), minlength=rows * (edges.size + 1))
        position = np.cumsum(below.reshape(rows, -1)[:, :edges.size], axis=1)
        position[:, -1] = np.count_nonzero(block <= edges[-1], axis=1)
        cumulative += np.take_along_axis(summed, position, axis=1)
    return np.diff(cumulative, axis=1)


def spectrum_rows(paths, bin_count):
    """Per-trial spectra of a path set, one row per trial.

    paths holds one trial (1-d angles and powers) or a batch (2-d, one
    row per trial).  Returns (density, point_mass): density has one row
    of bin densities per trial and point_mass one entry per trial, each
    checked as AngularSpectrum checks a single spectrum.
    See estimate_pdf for the binning convention.
    """
    if bin_count < 8:
        raise ValueError(f"bin count must be at least 8, got {bin_count}")
    total = np.atleast_1d(_total_power(paths))
    weights = _histogram_rows(np.atleast_2d(paths.angles), np.atleast_2d(paths.powers),
                              _bin_edges(bin_count))
    density = weights / total[:, None] / (_TWO_PI / int(bin_count))
    point_mass = paths.direct_power / total
    _check_density(density)
    _check_point_mass(point_mass)
    return density, point_mass


def estimate_pdf(paths, bin_count):
    """Power-weighted angular spectrum of one path set.

    Each bin's probability is the power of the scattered paths landing
    in it divided by the total power of the set (direct path included);
    the direct-path power becomes the point mass at zero.  Bins are
    left-inclusive with the last bin also containing +pi, so every
    angle in (-pi, pi] lands in exactly one bin.
    """
    density, point_mass = spectrum_rows(paths, bin_count)
    return AngularSpectrum(density[0], float(point_mass[0]))


def weighted_spread(values, weights):
    """Standard deviation of values under weights that sum to one.

    Linear moments: sqrt(E[x^2] - E[x]^2), clamped at zero against
    rounding.  Callers normalize their own weights.
    """
    mean = float(np.dot(weights, values))
    second = float(np.dot(weights, values * values))
    return math.sqrt(max(second - mean * mean, 0.0))


def angle_spread_rows(density, point_mass):
    """Rms angle spread of each row of spectrum_rows, in radians.

    See rms_angle_spread; every row is checked to be normalized, and
    each row's moments are taken on their own, one dot product each.
    """
    bin_count = np.shape(density)[-1]
    probabilities = np.atleast_2d(density) * (_TWO_PI / bin_count)
    defects = _normalization_defects(probabilities, point_mass)
    if np.any(defects > NORMALIZATION_TOL):
        defect = defects[np.argmax(defects > NORMALIZATION_TOL)]
        raise ValueError(f"spectrum is not normalized (defect {defect:.3e})")
    centers = _bin_centers(bin_count)
    return [weighted_spread(centers, row) for row in probabilities]


def rms_angle_spread(spectrum):
    """Rms angle spread of a binned spectrum, in radians.

    Standard deviation of the bin-center angles weighted by bin
    probability, with the point mass contributing at angle zero.  Linear
    (non-circular) moments.  Rejects spectra that are not normalized.
    """
    [spread] = angle_spread_rows(spectrum.density, spectrum.point_mass_at_zero)
    return spread


def path_spread_rows(paths):
    """Unbinned rms angle spread of each trial of a path set (see spectrum_rows)."""
    total = np.atleast_1d(_total_power(paths))
    angles, powers = np.atleast_2d(paths.angles), np.atleast_2d(paths.powers)
    if paths.direct_power > 0:
        rows = angles.shape[0]
        angles = np.concatenate([angles, np.zeros((rows, 1))], axis=1)
        powers = np.concatenate([powers, np.full((rows, 1), paths.direct_power)], axis=1)
    weights = powers / total[:, None]
    return [weighted_spread(a, w) for a, w in zip(angles, weights)]


def rms_angle_spread_paths(paths):
    """Rms angle spread computed from raw paths, without binning.

    Power-weighted linear moments of the arrival angles; the direct
    path contributes at angle zero through its power weight.  Provided
    for comparison with the binned estimate.
    """
    [spread] = path_spread_rows(paths)
    return spread


def lse(model, empirical):
    """Least-square error between a model density and empirical samples.

    model: an AngularSpectrum or a callable returning density (1/radian)
    at an angle.  empirical: nonempty sequence of (angle_rad, density)
    pairs with angles in (-pi, pi].  Returns the unweighted sum of
    squared density differences at the empirical angles.
    """
    empirical = list(empirical)
    if not empirical:
        raise ValueError("empirical data must be nonempty")
    angles = np.array([a for a, _ in empirical], dtype=float)
    values = np.array([v for _, v in empirical], dtype=float)
    if not (np.all(np.isfinite(angles)) and np.all(np.isfinite(values))):
        raise ValueError("empirical angles and densities must be finite")
    if np.any(angles <= -np.pi) or np.any(angles > np.pi):
        raise ValueError("empirical angles must lie in (-pi, pi]")
    if isinstance(model, AngularSpectrum):
        predicted = model.density_at(angles)
    elif callable(model):
        predicted = np.array([float(model(a)) for a in angles])
    else:
        raise TypeError("model must be an AngularSpectrum or a callable density")
    residual = predicted - values
    return float(np.dot(residual, residual))
