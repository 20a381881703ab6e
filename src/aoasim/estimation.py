"""Angular-spectrum estimation and dispersion metrics.

Path sets are reduced to power-weighted histograms over (-pi, pi]
(direct-path power goes into a point mass at boresight, not a bin)
over K uniform bins, the bin count being the only statement of the
binning (_Bins), and angular dispersion is summarized by the rms angle
spread of the binned distribution.

A path's weight is its power over its trial's total power, direct path
included; each path adds its weight to the bin its angle falls in.  A run
bins its paths straight into the averaged spectrum's running sum and takes
each trial's spread from the moments of its own paths, no density row per
trial being built (scenario._simulate; README, Determinism).
Only estimate_pdf, the public single-trial entry, checks its path set;
the run builds valid ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import _read_only
# NORMALIZATION_TOL stays importable from here: bench/measure.py reads it.
from .inputs import (_COUNT_RANGES, NORMALIZATION_TOL, _check_angles, _check_count,
                     _check_nonnegative, _check_normalized, _check_point_mass)
from .kernels import _TWO_PI


def _normalization_defects(probabilities, point_mass):
    # |sum of bin probabilities, or of path weights, + point mass - 1|, per row.
    return np.abs(np.sum(probabilities, axis=-1) + point_mass - 1.0)


class _Bins:
    """The binning of count uniform bins spanning exactly (-pi, pi].

    One object per count (_bins), so every spectrum and every run of a
    count shares its read-only arrays: the edges, the upper edge of each
    bin (the last one +inf: see index) and the centers.
    """

    def __init__(self, count):
        self.count = count
        self.width = _TWO_PI / count
        self.edges = _read_only(np.linspace(-np.pi, np.pi, count + 1))
        self.upper = _read_only(np.append(self.edges[1:-1], np.inf))
        self.centers = _read_only(0.5 * (self.edges[:-1] + self.edges[1:]))

    def index(self, angles):
        """Bin of each angle in (-pi, pi]: searchsorted(edges, angle, "right") - 1, clipped.

        Bins are left-inclusive and the last bin also contains +pi.  The
        estimate t = (angle + pi) * K / 2pi - 2**-20, truncated toward zero,
        is never below 0, and it is the true bin b or b - 1: the rounding
        error of t and of the linspace edges is below about 6e-16 * K in
        units of one bin, so less than the 2**-20 bias while K < 1e9.  An
        angle on or just past edge b then truncates to b - 1, and one just
        short of edge b + 1 to b.  One comparison with the upper edge of
        the estimated bin settles it; the last bin's upper edge is +inf,
        so +pi stays in that bin and no clamp is needed.
        """
        scaled = angles + np.pi
        scaled *= self.count / _TWO_PI
        scaled -= 2.0 ** -20
        index = scaled.astype(np.intp)
        index += self.upper.take(index) <= angles
        return index


_bins = lru_cache(maxsize=8)(_Bins)


@dataclass(frozen=True, eq=False)
class AngularSpectrum:
    """Binned arrival-angle density estimate.

    density: per-bin density in 1/radian over K uniform bins spanning
    (-pi, pi]; the bin count K is the only statement of the binning.
    The spectrum keeps a read-only copy, so no later edit of the array
    it was given, or of its own, changes it.
    point_mass_at_zero: probability carried by the direct path.
    """

    density: np.ndarray
    point_mass_at_zero: float

    def __post_init__(self):
        density = np.array(self.density, dtype=float)
        if density.ndim != 1 or density.size < 8:
            raise ValueError("density must be a 1-d array of at least 8 bins")
        if np.any(density < 0) or not np.all(np.isfinite(density)):
            raise ValueError("density values must be finite and nonnegative")
        _check_point_mass(self.point_mass_at_zero)
        object.__setattr__(self, "density", _read_only(density))

    @property
    def bin_count(self):
        return self.density.size

    @property
    def bin_width(self):
        return _bins(self.density.size).width

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
        out = self.density[_bins(self.bin_count).index(_check_angles(phi))]
        return float(out) if np.ndim(phi) == 0 else out


def estimate_pdf(paths, bin_count):
    """Power-weighted angular spectrum of the path set of one trial.

    Each bin's probability is the power of the scattered paths landing
    in it divided by the total power of the set (direct path included);
    the direct-path power becomes the point mass at zero.  Bins are
    left-inclusive with the last bin also containing +pi, so every
    angle in (-pi, pi] lands in exactly one bin.  Angles and powers
    must be 1-d arrays of one length, angles finite and in (-pi, pi],
    powers and the direct power finite and nonnegative, and the total
    power positive; each failure is a ValueError naming the field.
    """
    angles = _check_angles(paths.angles)
    if angles.ndim != 1:
        raise ValueError(f"angles must be a 1-d array of one trial, got shape {angles.shape}")
    if np.shape(paths.powers) != angles.shape:
        raise ValueError(f"powers must be one per angle: {np.shape(paths.powers)} for {angles.shape}")
    valid = (0.0 <= paths.powers) & (paths.powers < np.inf)
    if not valid.all():  # the first bad power is reported
        _check_nonnegative(paths.powers[np.argmin(valid)], "powers")
    _check_nonnegative(paths.direct_power, "direct_power")
    total = paths.total_power()
    if not total > 0:
        raise ValueError("path set must be nonempty and carry positive total power")
    bins = _bins(_check_count(bin_count, "bins", *_COUNT_RANGES["bins"]))
    weights = np.bincount(bins.index(angles), weights=paths.powers / total, minlength=bins.count)
    return AngularSpectrum(weights / bins.width, float(paths.direct_power / total))


def weighted_spread(values, weights):
    """Standard deviation of values under weights that sum to one.

    Linear moments: sqrt(E[x^2] - E[x]^2) along the last axis, clamped
    at zero against rounding; a float for 1-d inputs, one spread per
    row otherwise (values broadcast against weights).  Each row is
    reduced on its own, so its spread does not depend on the other
    rows.  Callers normalize their own weights, which are left as they
    are: the moments are sums of one product array, weights * values,
    then that times values again.
    """
    product = weights * values
    mean = np.sum(product, axis=-1)
    product *= values
    second = np.sum(product, axis=-1)
    spread = np.sqrt(np.maximum(second - mean * mean, 0.0))
    return float(spread) if spread.ndim == 0 else spread


def rms_angle_spread(spectrum):
    """Rms angle spread of a binned spectrum, in radians.

    Standard deviation of the bin-center angles weighted by bin
    probability, with the point mass contributing at angle zero.  Linear
    (non-circular) moments.  Rejects spectra that are not normalized.
    """
    probabilities = spectrum.probabilities
    _check_normalized(_normalization_defects(probabilities, spectrum.point_mass_at_zero))
    return weighted_spread(_bins(spectrum.bin_count).centers, probabilities)


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
    return float(np.sum(residual * residual))
