"""References a workload is measured against: the analytic density and a NumPy floor.

``analytic_bin_probabilities`` integrates
``aoasim.angular.composite_aoa_pdf`` over each histogram bin by
Gauss-Legendre quadrature, and ``l1_distance`` compares that with a
binned spectrum; the analytic densities are the package's independent
oracle.  ``numpy_floor`` draws as many angles from the same
distributions as one call does and builds one weighted histogram with
``np.bincount``, all in one batch, which bounds how fast the same work
can go in NumPy.

Scenario and pattern arguments are the JSON documents given to the
program (degrees, microseconds, linear powers).
"""

from __future__ import annotations

import math
import time

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
QUADRATURE_NODES = 16
_HPBW_TO_SIGMA = 0.5 / math.sqrt(math.log(2.0))


def _analytic_parts(scenario, pattern_doc):
    from aoasim.angular import (GaussianPattern, LocalScattering, OmniPattern,
                                TabulatedPattern, Tap, TapProfile, ellipses_for_taps)

    kind = pattern_doc["kind"]
    if kind == "omni":
        pattern = OmniPattern()
    elif kind == "gaussian":
        pattern = GaussianPattern(hpbw=math.radians(pattern_doc["hpbw_deg"]))
    else:
        pattern = TabulatedPattern(tuple((math.radians(a), g) for a, g in pattern_doc["samples"]))
    taps = TapProfile(tuple(Tap(t["delay_us"] * 1e-6, t["power"], t["paths"])
                            for t in scenario["taps"]))
    ellipses = ellipses_for_taps(taps, scenario["distance_m"])
    local = LocalScattering(mu=scenario["mu"], kappa=scenario["kappa"])
    return ellipses, taps, pattern, local


def analytic_bin_probabilities(scenario, pattern_doc, bins):
    """Per-bin probabilities of the analytic mixture, and its point mass."""
    from aoasim.angular import composite_aoa_pdf

    nodes, weights = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    edges = np.linspace(-np.pi, np.pi, bins + 1)
    half = 0.5 * (edges[1] - edges[0])
    phi = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half * nodes[None, :]
    density, point_mass = composite_aoa_pdf(phi.ravel(), *_analytic_parts(scenario, pattern_doc))
    return half * (density.reshape(bins, -1) @ weights), point_mass


def l1_distance(estimate, point_mass_hat, probs, point_mass):
    """Sum of |p_hat - p| over bins plus the point-mass difference."""
    return float(np.abs(estimate - probs).sum() + abs(point_mass_hat - point_mass))


def _departure_sampler(pattern_doc):
    """A function (rng, shape) -> departure angles drawn from the pattern's density."""
    kind = pattern_doc["kind"]
    if kind == "omni":
        return lambda rng, shape: rng.uniform(-np.pi, np.pi, size=shape)
    if kind == "gaussian":
        std = math.radians(pattern_doc["hpbw_deg"]) * _HPBW_TO_SIGMA / math.sqrt(2.0)

        def truncated_normal(rng, shape):
            out = rng.normal(0.0, std, size=shape)
            bad = np.abs(out) > np.pi
            while bad.any():
                out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
                bad = np.abs(out) > np.pi
            return out

        return truncated_normal
    samples = np.array(pattern_doc["samples"], dtype=float)
    angles, amps = np.radians(samples[:, 0]), samples[:, 1]
    grid = np.linspace(-np.pi, np.pi, (1 << 16) + 1)
    amp = np.interp(grid, angles, amps, period=2.0 * np.pi)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (amp[1:] ** 2 + amp[:-1] ** 2))])
    cdf /= cdf[-1]
    return lambda rng, shape: np.interp(rng.random(shape), cdf, grid)


def numpy_floor(scenario, patterns, rng):
    """One batch of the workload's draws and one weighted histogram.

    Returns (seconds, averaged spectra of shape (points, bins)).
    """
    start = time.perf_counter()
    taps, trials, bins = scenario["taps"], scenario["trials"], scenario["bins"]
    kappa, mu, distance = scenario["kappa"], scenario["mu"], scenario["distance_m"]
    total = sum(t["power"] for t in taps)
    shape = (len(patterns), trials)

    samplers = [_departure_sampler(p) for p in patterns]
    local = taps[0]
    p0, n0 = local["power"] / total, local["paths"]
    angles = [rng.vonmises(0.0, mu, size=(*shape, n0)) if mu > 0
              else rng.uniform(-np.pi, np.pi, size=(*shape, n0))]
    powers = [rng.uniform(0.0, 2.0 * p0 / ((1.0 + kappa) * n0), size=(*shape, n0))]
    for tap in taps[1:]:
        n = tap["paths"]
        ecc = distance / (distance + SPEED_OF_LIGHT * tap["delay_us"] * 1e-6)
        departures = np.stack([sample(rng, (trials, n)) for sample in samplers])
        angles.append(2.0 * np.arctan((1.0 - ecc) / (1.0 + ecc) * np.tan(0.5 * departures)))
        powers.append(rng.uniform(0.0, 2.0 * tap["power"] / total / n, size=(*shape, n)))
    angles = np.concatenate(angles, axis=2)
    powers = np.concatenate(powers, axis=2)

    totals = powers.sum(axis=2, keepdims=True) + kappa * p0 / (1.0 + kappa)
    index = np.minimum(((angles + np.pi) * (bins / (2.0 * np.pi))).astype(np.intp), bins - 1)
    index += (np.arange(shape[0] * trials) * bins).reshape(*shape, 1)
    hist = np.bincount(index.ravel(), weights=(powers / totals).ravel(),
                       minlength=shape[0] * trials * bins)
    spectra = hist.reshape(*shape, bins).mean(axis=1)
    return time.perf_counter() - start, spectra
