"""Analytic angular densities for the arrival-angle model.

The receive-side angle-of-arrival distribution is a mixture: one
component per delayed tap (the transmit-pattern density pushed through
that tap's ellipse), a von Mises component for scattering local to the
receiver, and, when a direct path is present, a point mass at boresight
carrying the Rician fraction of the zero-delay power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import i0e

from .estimation import weighted_spread
from .geometry import _DEG, _TWO_PI, aoa_jacobian, aoa_to_aod, ellipse_params

# HPBW is defined on the power pattern: g^2 drops to 1/2 at +/- hpbw/2,
# so the amplitude-pattern std is hpbw / (2 sqrt(ln 2)).
_HPBW_TO_SIGMA = 0.5 / math.sqrt(math.log(2.0))


def sigma_from_hpbw(hpbw):
    """Gaussian-pattern standard deviation for a half-power beamwidth.

    Both in radians; hpbw must lie in (0, 2*pi].
    """
    if not 0.0 < hpbw <= _TWO_PI:
        raise ValueError(f"hpbw must lie in (0, 2*pi], got {hpbw}")
    return hpbw * _HPBW_TO_SIGMA


def _sample_truncated_normal(std, rng, count):
    # Rejection from the untruncated normal, keeping |x| <= pi.  Exact for
    # the truncated target; acceptance is erf(pi / (std * sqrt(2))), at
    # worst ~0.76 for the widest allowed beam.
    out = np.empty(count)
    filled = 0
    while filled < count:
        draws = rng.normal(0.0, std, size=count - filled)
        kept = draws[np.abs(draws) <= np.pi]
        out[filled:filled + kept.size] = kept
        filled += kept.size
    return out


def _invert_cdf(grid, cdf, quantiles):
    idx = np.clip(np.searchsorted(cdf, quantiles, side="right"), 1, len(cdf) - 1)
    lo, hi = cdf[idx - 1], cdf[idx]
    span = hi - lo
    frac = np.where(span > 0, (quantiles - lo) / np.where(span > 0, span, 1.0), 0.0)
    return grid[idx - 1] + frac * (grid[idx] - grid[idx - 1])


# Each pattern kind owns its departure density(phi) on angles in (-pi, pi],
# a sample(rng, count) drawn from it, and its scenario-file form: to_json()
# and the classmethod from_json(doc), looked up by kind in PATTERN_KINDS.


@dataclass(frozen=True)
class OmniPattern:
    """Omnidirectional transmit pattern: uniform departure density."""

    kind = "omni"

    def density(self, phi):
        return np.full(np.shape(phi), 1.0 / _TWO_PI)

    def sample(self, rng, count):
        return rng.uniform(-np.pi, np.pi, size=count)

    def to_json(self):
        return {"kind": self.kind}

    @classmethod
    def from_json(cls, doc):
        return cls()


@dataclass(frozen=True)
class GaussianPattern:
    """Gaussian power pattern, parameterized by half-power beamwidth.

    hpbw: half-power beamwidth in radians, in (0, 2*pi].
    """

    hpbw: float
    kind = "gaussian"

    def __post_init__(self):
        sigma_from_hpbw(self.hpbw)  # validates the range

    @property
    def sigma(self):
        return sigma_from_hpbw(self.hpbw)

    def density(self, phi):
        sigma = self.sigma
        norm = 1.0 / (math.sqrt(math.pi) * sigma * math.erf(math.pi / sigma))
        return norm * np.exp(-(phi * phi) / (sigma * sigma))

    def sample(self, rng, count):
        # exp(-phi^2 / sigma^2) is a normal density with std sigma / sqrt(2).
        return _sample_truncated_normal(self.sigma / math.sqrt(2.0), rng, count)

    def to_json(self):
        return {"kind": self.kind, "hpbw_deg": self.hpbw / _DEG}

    @classmethod
    def from_json(cls, doc):
        return cls(hpbw=float(doc["hpbw_deg"]) * _DEG)


@dataclass(frozen=True)
class TabulatedPattern:
    """Sampled amplitude pattern, linearly interpolated around the circle.

    samples: ordered (angle, amplitude) pairs; angles strictly increasing
    within (-pi, pi], amplitudes nonnegative and not all zero, at least
    8 entries.  The pattern is treated as periodic, so the gap between
    the last and first sample is interpolated across +/-pi.
    """

    samples: tuple[tuple[float, float], ...]
    kind = "tabulated"

    def __post_init__(self):
        entries = tuple((float(a), float(g)) for a, g in self.samples)
        object.__setattr__(self, "samples", entries)
        if len(entries) < 8:
            raise ValueError("tabulated pattern needs at least 8 samples")
        angles = np.array([a for a, _ in entries])
        amps = np.array([g for _, g in entries])
        if not (np.all(np.isfinite(angles)) and np.all(np.isfinite(amps))):
            raise ValueError("tabulated pattern samples must be finite")
        if np.any(np.diff(angles) <= 0):
            raise ValueError("tabulated pattern angles must be strictly increasing")
        if angles[0] <= -np.pi or angles[-1] > np.pi:
            raise ValueError("tabulated pattern angles must lie in (-pi, pi]")
        if np.any(amps < 0):
            raise ValueError("tabulated pattern amplitudes must be nonnegative")
        if not np.any(amps > 0):
            raise ValueError("tabulated pattern is identically zero")

    @cached_property
    def _nodes(self):
        angles = np.array([a for a, _ in self.samples])
        amps = np.array([g for _, g in self.samples])
        return angles, amps

    @cached_property
    def _power_integral(self):
        # Exact integral of the squared piecewise-linear amplitude over one
        # period: each segment contributes h * (y0^2 + y0*y1 + y1^2) / 3.
        angles, amps = self._nodes
        x = np.append(angles, angles[0] + _TWO_PI)
        y = np.append(amps, amps[0])
        h = np.diff(x)
        y0, y1 = y[:-1], y[1:]
        return float(np.sum(h * (y0 * y0 + y0 * y1 + y1 * y1)) / 3.0)

    def amplitude(self, phi):
        angles, amps = self._nodes
        return np.interp(phi, angles, amps, period=_TWO_PI)

    def density(self, phi):
        amp = self.amplitude(phi)
        return amp * amp / self._power_integral

    @cached_property
    def _cdf_grid(self):
        # Dense numeric CDF used for inverse-transform sampling.
        grid = np.linspace(-np.pi, np.pi, (1 << 16) + 1)
        dens = self.density(grid)
        steps = 0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)
        cdf = np.concatenate([[0.0], np.cumsum(steps)])
        cdf /= cdf[-1]
        return grid, cdf

    def sample(self, rng, count):
        grid, cdf = self._cdf_grid
        return _invert_cdf(grid, cdf, rng.random(count))

    def to_json(self):
        return {"kind": self.kind, "samples": [[a / _DEG, g] for a, g in self.samples]}

    @classmethod
    def from_json(cls, doc):
        return cls(tuple((float(a) * _DEG, float(g)) for a, g in doc["samples"]))


AntennaPattern = OmniPattern | GaussianPattern | TabulatedPattern

PATTERN_KINDS = {cls.kind: cls for cls in (OmniPattern, GaussianPattern, TabulatedPattern)}


def pattern_from_json(doc):
    """Antenna pattern from its scenario-file form, dispatched on doc["kind"]."""
    kind = doc.get("kind")
    if kind not in PATTERN_KINDS:
        raise ValueError(f"unknown pattern kind: {kind!r}")
    return PATTERN_KINDS[kind].from_json(doc)


@dataclass(frozen=True)
class LocalScattering:
    """Receiver-local scattering parameters.

    mu: von Mises concentration of the local angle-of-arrival spread.
    kappa: Rician factor, the direct-to-scattered power ratio within the
        zero-delay tap.
    """

    mu: float
    kappa: float = 0.0

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")


@dataclass(frozen=True)
class Tap:
    """One delay tap: excess delay (seconds), mean linear power, path count."""

    delay: float
    power: float
    path_count: int


@dataclass(frozen=True)
class TapProfile:
    """Delay taps extracted from a power delay profile.

    Tap 0 must sit at zero delay (local scattering plus any direct
    path); delays strictly increase, powers are positive, and every tap
    carries at least one path.
    """

    taps: tuple[Tap, ...]

    def __post_init__(self):
        taps = tuple(self.taps)
        object.__setattr__(self, "taps", taps)
        if not taps:
            raise ValueError("tap profile must contain at least the zero-delay tap")
        for tap in taps:
            if not math.isfinite(tap.delay):
                raise ValueError(f"tap delays must be finite, got {tap.delay}")
        if taps[0].delay != 0.0:
            raise ValueError("first tap must have zero delay")
        delays = [t.delay for t in taps]
        if any(b <= a for a, b in zip(delays, delays[1:])):
            raise ValueError("tap delays must be strictly increasing")
        for tap in taps:
            if not 0 < tap.power < math.inf:
                raise ValueError(f"tap powers must be positive and finite, got {tap.power}")
            if not isinstance(tap.path_count, int) or tap.path_count < 1:
                raise ValueError(f"tap path counts must be integers >= 1, got {tap.path_count}")

    @property
    def total_power(self):
        return sum(t.power for t in self.taps)

    @property
    def delayed(self):
        return self.taps[1:]

    def rms_delay_spread(self):
        """Power-weighted standard deviation of the tap delays (seconds)."""
        delays = np.array([t.delay for t in self.taps])
        weights = np.array([t.power for t in self.taps])
        return weighted_spread(delays, weights / weights.sum())


def ellipses_for_taps(profile, distance):
    """Ellipse set for the delayed taps of a profile (tap indices 1..N)."""
    return tuple(
        ellipse_params(distance, tap.delay, tap_index=index)
        for index, tap in enumerate(profile.delayed, start=1)
    )


def _check_angles(phi):
    arr = np.asarray(phi, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= -np.pi) or np.any(arr > np.pi)):
        raise ValueError("angles must lie in (-pi, pi]")
    return arr


def aod_pdf(phi_t, pattern):
    """Departure-angle density induced by the transmit power pattern.

    Omni: uniform 1/(2*pi).  Gaussian: C(sigma) exp(-phi^2 / sigma^2)
    with C = 1 / (sqrt(pi) * sigma * erf(pi / sigma)) so the truncated
    density integrates to one over (-pi, pi].  Tabulated: squared
    interpolated amplitude, normalized by its exact power integral.
    """
    scalar = np.ndim(phi_t) == 0
    out = pattern.density(_check_angles(phi_t))
    return float(out) if scalar else out


def von_mises_pdf(phi, mu):
    """Von Mises density exp(mu * cos(phi)) / (2*pi*I0(mu)) on (-pi, pi].

    Evaluated in exponentially scaled form, so large concentrations do
    not overflow; mu = 0 degenerates to the uniform density.
    """
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    scalar = np.ndim(phi) == 0
    arr = _check_angles(phi)
    out = np.exp(mu * (np.cos(arr) - 1.0)) / (_TWO_PI * i0e(mu))
    return float(out) if scalar else out


def delayed_aoa_pdf(phi_r, ellipse, pattern):
    """Arrival-angle density contributed by one delayed tap.

    Change of variables of the departure density through the ellipse
    map: f(phi_r) = f_T(phi_t) / |d phi_r / d phi_t| at
    phi_t = aoa_to_aod(phi_r).  Integrates to one over (-pi, pi].
    """
    scalar = np.ndim(phi_r) == 0
    phi = _check_angles(phi_r)
    ecc = ellipse.eccentricity
    phi_t = aoa_to_aod(phi, ecc)
    out = aod_pdf(phi_t, pattern) / aoa_jacobian(phi_t, ecc)
    return float(out) if scalar else np.asarray(out)


def composite_aoa_pdf(phi_r, ellipses, taps, pattern, local):
    """Full arrival-angle distribution for a scenario.

    Returns (continuous_density, point_mass_at_zero).  The continuous
    part mixes the per-tap delayed densities (weights P_i / P_R) with
    the local von Mises component (weight P_0 / (P_R * (kappa + 1)));
    the direct path contributes the point mass
    kappa / (kappa + 1) * P_0 / P_R at boresight.  Continuous integral
    plus point mass equals one.
    """
    if len(ellipses) != len(taps.taps) - 1:
        raise ValueError(
            f"need one ellipse per delayed tap: got {len(ellipses)} ellipses "
            f"for {len(taps.taps) - 1} delayed taps"
        )
    scalar = np.ndim(phi_r) == 0
    phi = _check_angles(phi_r)
    total = taps.total_power
    density = np.zeros(phi.shape)
    for ellipse, tap in zip(ellipses, taps.delayed):
        density = density + (tap.power / total) * delayed_aoa_pdf(phi, ellipse, pattern)
    local_weight = (taps.taps[0].power / total) / (local.kappa + 1.0)
    density = density + local_weight * von_mises_pdf(phi, local.mu)
    point_mass = (local.kappa / (local.kappa + 1.0)) * (taps.taps[0].power / total)
    return (float(density) if scalar else density), point_mass
