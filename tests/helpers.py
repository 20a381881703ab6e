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
    cubic antiderivative of each linear segment, for all of xs at once.
    """
    angles = np.array([a for a, _ in samples])
    amps = np.array([g for _, g in samples])
    # extend with the wrap segment so [-pi, pi] is fully covered
    x_ext = np.concatenate([[angles[-1] - 2.0 * np.pi], angles, [angles[0] + 2.0 * np.pi]])
    y_ext = np.concatenate([[amps[-1]], amps, [amps[0]]])
    slope = np.diff(y_ext) / np.diff(x_ext)
    # where each segment's part of [-pi, pi] starts
    starts = np.maximum(x_ext[:-1], -np.pi)

    def segment_integral(k, hi):
        # the squared amplitude of segment k integrated from starts[k] to hi
        x0, y0, lo = x_ext[k], y_ext[k], starts[k]
        flat = slope[k] == 0.0
        g_lo = y0 + slope[k] * (lo - x0)
        g_hi = y0 + slope[k] * (hi - x0)
        cubic = (g_hi ** 3 - g_lo ** 3) / (3.0 * np.where(flat, 1.0, slope[k]))
        return np.where(flat, y0 * y0 * (hi - lo), cubic)

    # the integral up to each segment's start, segments added left to right
    segments = np.arange(slope.size)
    before = np.concatenate([[0.0], np.cumsum(segment_integral(segments, x_ext[1:]))])

    def integral_up_to(x):
        k = np.clip(np.searchsorted(x_ext, x, side="right") - 1, 0, slope.size - 1)
        return before[k] + segment_integral(k, np.maximum(x, starts[k]))

    norm = integral_up_to(np.array([np.pi]))[0]
    return integral_up_to(np.atleast_1d(np.asarray(xs, dtype=float))) / norm


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


def _moment_spread(values, weights):
    # sqrt(E[x^2] - E[x]^2) of one trial, each moment one np.sum of its row
    product = weights * values
    mean = np.sum(product)
    second = np.sum(product * values)
    return math.sqrt(max(second - mean * mean, 0.0))


def trial_ordered_run(angles, powers, direct_power, bins):
    """A run's reductions of (trials, paths) angles and powers, by their definition.

    Each path's weight is its power over its trial's total power (the row's
    np.sum plus direct_power).  The weights are added into their bins one path
    at a time, trial after trial, in a Python loop.  Each trial's spread is the
    moments of its paths' bin centers, and its per-path spread those of its
    angles, under its weights.  Bins follow np.histogram's convention, found by
    searching the edges.  Returns (weight sums, point masses, per-trial spreads,
    per-path spreads).
    """
    edges = np.linspace(-math.pi, math.pi, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    sums = [0.0] * bins
    point_mass, trial_spreads, path_spreads = [], [], []
    for row_angles, row_powers in zip(angles, powers):
        total = np.sum(row_powers) + direct_power
        weights = row_powers / total
        cells = np.clip(np.searchsorted(edges, row_angles, side="right") - 1, 0, bins - 1)
        for cell, weight in zip(cells.tolist(), weights.tolist()):
            sums[cell] += weight
        point_mass.append(direct_power / total)
        trial_spreads.append(_moment_spread(centers[cells], weights))
        path_spreads.append(_moment_spread(row_angles, weights))
    return np.array(sums), np.array(point_mass), np.array(trial_spreads), np.array(path_spreads)


def nan_power_in_trial(trial):
    """A stand-in for montecarlo.draw_uniforms, as a run calls it
    (scenario.draw_uniforms), that gives trial's first path a NaN power
    uniform, and so a NaN power, on both routes of a run."""
    from aoasim import montecarlo

    draw = montecarlo.draw_uniforms

    def draw_uniforms(config, first, stop):
        uniforms = draw(config, first, stop)
        if first <= trial < stop:
            uniforms[trial - first, config.taps.tap_index.size] = math.nan
        return uniforms

    return draw_uniforms


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
