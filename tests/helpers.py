"""Shared independent oracles for the test suite.

Everything here is deliberately computed by routes different from the
library implementation: series expansions, closed-form segment
integrals, and quantile-based goodness-of-fit machinery.
"""

from __future__ import annotations

import functools
import json
import math
import operator

import numpy as np
from scipy.special import erfinv
from scipy.stats import chi2

from aoasim.angular import Tap, TapProfile


def bessel_i0_series(x, terms=80):
    """Modified Bessel I0 by direct power series."""
    total, term = 1.0, 1.0
    for k in range(1, terms):
        term *= (x * x / 4.0) / (k * k)
        total += term
        if term < 1e-18 * total:
            break
    return total


def bessel_i1_series(x, terms=80):
    """Modified Bessel I1 by direct power series."""
    term = x / 2.0
    total = term
    for k in range(1, terms):
        term *= (x * x / 4.0) / (k * (k + 1))
        total += term
        if term < 1e-18 * total:
            break
    return total


def gaussian_aod_cdf(t, sigma):
    """CDF of the truncated density C exp(-t^2/sigma^2) on [-pi, pi]."""
    edge = math.erf(math.pi / sigma)
    return (np.vectorize(math.erf)(np.asarray(t) / sigma) + edge) / (2.0 * edge)


def gaussian_aod_quantiles(quantiles, sigma):
    """Inverse CDF of the truncated Gaussian departure density."""
    edge = math.erf(math.pi / sigma)
    return sigma * erfinv((2.0 * np.asarray(quantiles) - 1.0) * edge)


def chi_square_equal_prob(samples, edges, alpha=0.001):
    """Pearson GOF test with equal-probability bins.

    Returns (statistic, critical_value); the test passes when
    statistic < critical_value.
    """
    counts, _ = np.histogram(samples, bins=edges)
    n = samples.size
    k = len(edges) - 1
    expected = n / k
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    return statistic, float(chi2.ppf(1.0 - alpha, k - 1))


def chi_square_binned(counts, expected_probs, n, alpha=0.001, min_expected=10.0):
    """Pearson GOF for arbitrary bins, merging small-expectation tails.

    Bins whose expected count falls below min_expected are pooled with
    their neighbors from both ends inward.
    """
    expected = np.asarray(expected_probs, dtype=float) * n
    counts = np.asarray(counts, dtype=float)
    # pool from the left
    merged_c, merged_e = [], []
    acc_c = acc_e = 0.0
    for c, e in zip(counts, expected):
        acc_c += c
        acc_e += e
        if acc_e >= min_expected:
            merged_c.append(acc_c)
            merged_e.append(acc_e)
            acc_c = acc_e = 0.0
    if acc_e > 0:
        if merged_e:
            merged_c[-1] += acc_c
            merged_e[-1] += acc_e
        else:
            merged_c.append(acc_c)
            merged_e.append(acc_e)
    merged_c = np.array(merged_c)
    merged_e = np.array(merged_e)
    statistic = float(np.sum((merged_c - merged_e) ** 2 / merged_e))
    dof = max(len(merged_e) - 1, 1)
    return statistic, float(chi2.ppf(1.0 - alpha, dof))


def tabulated_pattern_cdf(samples, xs):
    """Exact CDF of the squared piecewise-linear amplitude pattern.

    samples: the (angle, amplitude) nodes of a tabulated pattern.
    Independent of the library's grid-based normalization: uses the
    cubic antiderivative of each linear segment.
    """
    angles = np.array([a for a, _ in samples])
    amps = np.array([g for _, g in samples])
    # extend with the wrap segment so [-pi, pi] is fully covered
    x_ext = np.concatenate([[angles[-1] - 2.0 * np.pi], angles, [angles[0] + 2.0 * np.pi]])
    y_ext = np.concatenate([[amps[-1]], amps, [amps[0]]])

    def segment_integral(x0, y0, x1, y1, lo, hi):
        lo = max(lo, x0)
        hi = min(hi, x1)
        if hi <= lo:
            return 0.0
        slope = (y1 - y0) / (x1 - x0)
        if slope == 0.0:
            return y0 * y0 * (hi - lo)
        g_lo = y0 + slope * (lo - x0)
        g_hi = y0 + slope * (hi - x0)
        return (g_hi ** 3 - g_lo ** 3) / (3.0 * slope)

    def integral_up_to(x):
        total = 0.0
        for x0, y0, x1, y1 in zip(x_ext[:-1], y_ext[:-1], x_ext[1:], y_ext[1:]):
            total += segment_integral(x0, y0, x1, y1, -np.pi, x)
        return total

    norm = integral_up_to(np.pi)
    return np.array([integral_up_to(float(x)) / norm for x in np.atleast_1d(xs)])


def ellipse_with_eccentricity(ecc):
    """Ellipse constructed to hit an exact target eccentricity.

    Uses distance = ecc and excess path length = 1 - ecc (meters), so
    the major axis is exactly 1 and eccentricity is exactly ecc.
    """
    from aoasim.geometry import SPEED_OF_LIGHT, ellipse_params

    if ecc == 0.0:
        return ellipse_params(0.0, 1e-6)
    return ellipse_params(float(ecc), (1.0 - float(ecc)) / SPEED_OF_LIGHT)


def make_profile(delays_us, powers, paths_per_tap=50):
    total = sum(powers)
    return TapProfile(tuple(
        Tap(d * 1e-6, p / total, paths_per_tap) for d, p in zip(delays_us, powers)
    ))


def profile_with_delay_spread(target_spread_us, paths_per_tap=50):
    """Synthetic multi-tap profile scaled to an exact rms delay spread."""
    base_delays = np.array([0.0, 1.0, 2.5, 5.0, 9.0])
    powers = np.array([0.30, 0.25, 0.20, 0.15, 0.10])
    weights = powers / powers.sum()
    mean = float(np.dot(weights, base_delays))
    second = float(np.dot(weights, base_delays ** 2))
    base_spread = math.sqrt(second - mean * mean)
    scale = target_spread_us / base_spread
    return make_profile(base_delays * scale, powers, paths_per_tap)


DELETE = object()


def edited_doc(doc, path, value):
    """Deep copy of a JSON document with the entry at path changed.

    path is a tuple of object keys and list indices; the entry is set to
    value, or removed when value is DELETE.
    """
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    owner = doc
    for key in parents:
        owner = owner[key]
    if value is DELETE:
        del owner[last]
    else:
        owner[last] = value
    return doc


def left_to_right_sum(values):
    """Float sum added strictly left to right, starting from 0.0."""
    return functools.reduce(operator.add, [float(v) for v in values], 0.0)


def histogram_rows(angles, powers, edges):
    """Power in each bin of each row, added one path at a time in column order.

    Bins follow np.histogram's convention (left-inclusive, the last bin
    also holding the right edge), found by searching the edges.
    """
    bins = len(edges) - 1
    out = np.zeros((len(angles), bins))
    for row, a, w in zip(out, angles, powers):
        np.add.at(row, np.clip(np.searchsorted(edges, a, side="right") - 1, 0, bins - 1), w)
    return out


def invert_cdf_searched(grid, cdf, u):
    """Inverse of a grid CDF at u by linear interpolation, one edge search per value."""
    idx = np.clip(np.searchsorted(cdf, u, side="right"), 1, len(cdf) - 1)
    lo, hi = cdf[idx - 1], cdf[idx]
    span = hi - lo
    frac = np.where(span > 0, (u - lo) / np.where(span > 0, span, 1.0), 0.0)
    return grid[idx - 1] + frac * (grid[idx] - grid[idx - 1])


def guide_searched(cdf, cells):
    """Guide table of a grid CDF: the number of nodes at or below each k / cells."""
    return np.searchsorted(cdf, np.arange(cells + 1) / cells, side="right")
