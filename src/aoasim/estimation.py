"""Angular-spectrum estimation and dispersion metrics.

Path sets are reduced to power-weighted histograms over (-pi, pi]
(direct-path power goes into a point mass at boresight, not a bin),
spectra from independent trials are averaged bin-wise, and angular
dispersion is summarized by the rms angle spread of the binned
distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _TWO_PI

# Tolerance on sum(probabilities) + point_mass == 1 for a valid spectrum.
NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AngularSpectrum:
    """Binned arrival-angle density estimate.

    bin_edges: uniform edges spanning exactly (-pi, pi], length K+1.
    density: per-bin density in 1/radian, length K.
    point_mass_at_zero: probability carried by the direct path.
    sample_count: number of paths behind the estimate.
    """

    bin_edges: np.ndarray
    density: np.ndarray
    point_mass_at_zero: float
    sample_count: int

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        density = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "density", density)
        if edges.ndim != 1 or edges.size < 9:
            raise ValueError("bin_edges must be a 1-d array with at least 9 edges")
        if density.shape != (edges.size - 1,):
            raise ValueError("density length must match the number of bins")
        if edges[0] != -np.pi or edges[-1] != np.pi:
            raise ValueError("bin_edges must span exactly (-pi, pi]")
        widths = np.diff(edges)
        if np.any(widths <= 0) or not np.allclose(widths, widths[0], rtol=0, atol=1e-12):
            raise ValueError("bin_edges must be uniform and increasing")
        if np.any(density < 0) or not np.all(np.isfinite(density)):
            raise ValueError("density values must be finite and nonnegative")
        if not 0.0 <= self.point_mass_at_zero <= 1.0 + NORMALIZATION_TOL:
            raise ValueError(f"point mass must be a probability, got {self.point_mass_at_zero}")

    @property
    def bin_count(self):
        return self.density.size

    @property
    def bin_width(self):
        return _TWO_PI / self.density.size

    @property
    def bin_centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def probabilities(self):
        return self.density * self.bin_width

    def normalization_defect(self):
        """|sum of bin probabilities + point mass - 1|."""
        return abs(float(np.sum(self.probabilities)) + self.point_mass_at_zero - 1.0)

    def is_normalized(self, tol=NORMALIZATION_TOL):
        return self.normalization_defect() <= tol

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


def estimate_pdf(paths, bin_count):
    """Power-weighted angular spectrum of one path set.

    Each bin's probability is the power of the scattered paths landing
    in it divided by the total power of the set (direct path included);
    the direct-path power becomes the point mass at zero.  Bins are
    left-inclusive with the last bin also containing +pi, so every
    angle in (-pi, pi] lands in exactly one bin.
    """
    if not paths.paths:
        raise ValueError("cannot estimate a spectrum from an empty path set")
    if bin_count < 8:
        raise ValueError(f"bin count must be at least 8, got {bin_count}")
    total = paths.total_power()
    if not total > 0:
        raise ValueError("path set must carry positive total power")
    edges = np.linspace(-np.pi, np.pi, int(bin_count) + 1)
    weights, _ = np.histogram(
        paths.scattered_angles(), bins=edges, weights=paths.scattered_powers()
    )
    probabilities = weights / total
    width = _TWO_PI / int(bin_count)
    return AngularSpectrum(
        bin_edges=edges,
        density=probabilities / width,
        point_mass_at_zero=paths.direct_power() / total,
        sample_count=len(paths.paths),
    )


def average_spectra(spectra):
    """Bin-wise arithmetic mean of spectra sharing identical bin edges."""
    spectra = list(spectra)
    if not spectra:
        raise ValueError("cannot average an empty spectrum list")
    edges = spectra[0].bin_edges
    for s in spectra[1:]:
        if not np.array_equal(s.bin_edges, edges):
            raise ValueError("spectra must share identical bin edges")
    density = np.mean([s.density for s in spectra], axis=0)
    point_mass = float(np.mean([s.point_mass_at_zero for s in spectra]))
    count = int(sum(s.sample_count for s in spectra))
    return AngularSpectrum(edges, density, point_mass, count)


def weighted_spread(values, weights):
    """Standard deviation of values under weights that sum to one.

    Linear moments: sqrt(E[x^2] - E[x]^2), clamped at zero against
    rounding.  Callers normalize their own weights.
    """
    mean = float(np.dot(weights, values))
    second = float(np.dot(weights, values * values))
    return math.sqrt(max(second - mean * mean, 0.0))


def rms_angle_spread(spectrum):
    """Rms angle spread of a binned spectrum, in radians.

    Standard deviation of the bin-center angles weighted by bin
    probability, with the point mass contributing at angle zero.  Linear
    (non-circular) moments.  Rejects spectra that are not normalized.
    """
    probs = spectrum.probabilities
    if spectrum.normalization_defect() > NORMALIZATION_TOL:
        raise ValueError(
            f"spectrum is not normalized (defect {spectrum.normalization_defect():.3e})"
        )
    return weighted_spread(spectrum.bin_centers, probs)


def rms_angle_spread_paths(paths):
    """Rms angle spread computed from raw paths, without binning.

    Power-weighted linear moments of the arrival angles; the direct
    path contributes at angle zero through its power weight.  Provided
    for comparison with the binned estimate.
    """
    if not paths.paths:
        raise ValueError("cannot compute a spread from an empty path set")
    total = paths.total_power()
    if not total > 0:
        raise ValueError("path set must carry positive total power")
    angles = np.array([p.aoa for p in paths.paths])
    weights = np.array([p.power for p in paths.paths]) / total
    return weighted_spread(angles, weights)


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
