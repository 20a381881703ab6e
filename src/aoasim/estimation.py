"""Angular-spectrum estimation and dispersion metrics.

Path sets are reduced to power-weighted histograms over (-pi, pi]
(direct-path power goes into a point mass at boresight, not a bin)
over K uniform bins, the bin count being the only statement of the
binning, and angular dispersion is summarized by the rms angle spread
of the binned distribution.

A path set may hold one trial, a batch of trials, one row each, or
such a batch under several patterns behind a leading points axis (see
montecarlo.generate_chunk): spectrum_rows, angle_spread_rows and
path_spread_rows reduce every row at once, and the single-trial
functions are their one-row case.  Each row's result is bit for bit
what the same trial gives alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _TWO_PI, _check_angles

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
        contains +pi.  Every angle must be finite and in (-pi, pi].
        """
        out = self.density[_bin_index(_check_angles(phi), self.bin_count)]
        return float(out) if np.ndim(phi) == 0 else out


def _total_power(paths):
    total = paths.total_power()
    if not np.all(total > 0):
        raise ValueError("path set must be nonempty and carry positive total power")
    return total


def _bin_index(angles, bin_count):
    """Bin of each angle: searchsorted(edges, angle, "right") - 1, clipped.

    The arithmetic index floor((angle + pi) * K / 2pi) is within one of
    it; one comparison with each neighbouring edge of _bin_edges corrects
    it.  Bins are left-inclusive and the last bin also contains +pi.
    """
    edges = _bin_edges(bin_count)
    last = int(bin_count) - 1
    index = np.clip(((angles + np.pi) * (bin_count / _TWO_PI)).astype(np.intp), 0, last)
    index += edges[index + 1] <= angles
    index -= edges[index] > angles
    return np.clip(index, 0, last)


def spectrum_rows(paths, bin_count):
    """Per-trial spectra of a path set, one row per trial.

    paths holds one trial (1-d angles and powers), a batch (2-d, one
    row per trial) or a batch under several patterns (3-d angles, one
    (trials, paths) layer per pattern, sharing 2-d powers; see
    montecarlo.generate_chunk).  Returns (density, point_mass): density
    has one row of bin densities per trial, under a leading points axis
    for 3-d angles, and point_mass one entry per trial, each checked as
    AngularSpectrum checks a single spectrum.
    See estimate_pdf for the binning convention.
    """
    if bin_count < 8:
        raise ValueError(f"bin count must be at least 8, got {bin_count}")
    bin_count = int(bin_count)
    total = np.atleast_1d(_total_power(paths))
    angles = np.atleast_2d(paths.angles)
    powers = np.broadcast_to(paths.powers, angles.shape)
    rows = angles.shape[:-1]
    row_start = bin_count * np.arange(math.prod(rows)).reshape(rows + (1,))
    # One histogram for the whole batch: row r (of all points, in order)
    # owns cells [r*K, (r+1)*K), and each cell adds its paths in column
    # order, as a histogram of that row alone would.
    cells = _bin_index(angles, bin_count) + row_start
    weights = np.bincount(cells.ravel(), weights=powers.ravel(),
                          minlength=row_start.size * bin_count)
    density = weights.reshape(rows + (bin_count,)) / total[:, None]
    density /= _TWO_PI / bin_count
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

    Linear moments: sqrt(E[x^2] - E[x]^2) along the last axis, clamped
    at zero against rounding; a float for 1-d inputs, one spread per
    row otherwise (values and weights broadcast).  Each row is reduced
    on its own, so its spread does not depend on the other rows.
    Callers normalize their own weights.
    """
    weighted = weights * values
    mean = np.sum(weighted, axis=-1)
    second = np.sum(weighted * values, axis=-1)
    spread = np.sqrt(np.maximum(second - mean * mean, 0.0))
    return float(spread) if spread.ndim == 0 else spread


def angle_spread_rows(density, point_mass):
    """Rms angle spread of each row of spectrum_rows, in radians.

    See rms_angle_spread; every row is checked to be normalized.  A
    leading points axis of density carries through to the result.
    """
    bin_count = np.shape(density)[-1]
    probabilities = np.atleast_2d(density) * (_TWO_PI / bin_count)
    defects = _normalization_defects(probabilities, point_mass)
    if np.any(defects > NORMALIZATION_TOL):
        defect = defects.flat[np.argmax(defects > NORMALIZATION_TOL)]
        raise ValueError(f"spectrum is not normalized (defect {defect:.3e})")
    return weighted_spread(_bin_centers(bin_count), probabilities)


def rms_angle_spread(spectrum):
    """Rms angle spread of a binned spectrum, in radians.

    Standard deviation of the bin-center angles weighted by bin
    probability, with the point mass contributing at angle zero.  Linear
    (non-circular) moments.  Rejects spectra that are not normalized.
    """
    [spread] = angle_spread_rows(spectrum.density, spectrum.point_mass_at_zero)
    return float(spread)


def path_spread_rows(paths):
    """Unbinned rms angle spread of each trial of a path set (see spectrum_rows).

    3-d angles give one row of spreads per point.  The direct path, at
    angle zero, adds nothing to either moment; it enters through the
    total power that normalizes the weights.
    """
    total = np.atleast_1d(_total_power(paths))
    weights = np.atleast_2d(paths.powers) / total[:, None]
    return weighted_spread(np.atleast_2d(paths.angles), weights)


def lse(spectrum, empirical):
    """Least-square error between a spectrum and empirical samples.

    empirical: nonempty sequence of (angle_rad, density) pairs, angles
    in (-pi, pi] and densities in 1/radian, all finite.  Returns the
    unweighted sum of squared differences between the spectrum's
    density_at each empirical angle and the empirical density.
    """
    empirical = list(empirical)
    if not empirical:
        raise ValueError("empirical data must be nonempty")
    values = np.array([v for _, v in empirical], dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("empirical densities must be finite")
    residual = spectrum.density_at(np.array([a for a, _ in empirical], dtype=float)) - values
    return float(np.dot(residual, residual))
