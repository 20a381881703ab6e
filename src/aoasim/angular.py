"""Analytic angular densities for the arrival-angle model.

The receive-side angle-of-arrival distribution is a mixture: one
component per delayed tap (the transmit-pattern density pushed through
that tap's ellipse), a von Mises component for scattering local to the
receiver, and, when a direct path is present, a point mass at boresight
carrying the Rician fraction of the zero-delay power.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .estimation import weighted_spread
from .geometry import _inverse_half_angle_ratio, _jacobian, _read_only, ellipse_params
from .inputs import (_DEG, _US, _check_angles, _check_count, _check_eccentricity, _check_hpbw,
                     _check_nonnegative, _check_samples, _check_taps, _json_path, json_field,
                     json_object, json_pairs)
from .kernels import (_TWO_PI, _CdfTable, _gaussian_shape, _half_angle_map, _i0e, _ndtri,
                      _von_mises_shape)

# HPBW is defined on the power pattern: g^2 drops to 1/2 at +/- hpbw/2,
# so the amplitude-pattern std is hpbw / (2 sqrt(ln 2)).
_HPBW_TO_SIGMA = 0.5 / math.sqrt(math.log(2.0))


def sigma_from_hpbw(hpbw):
    """Gaussian-pattern standard deviation for a half-power beamwidth.

    Both in radians; hpbw must lie in (0, 2*pi].
    """
    return _check_hpbw(hpbw, "hpbw") * _HPBW_TO_SIGMA


# Each pattern kind owns its departure density(phi) on angles in (-pi, pi],
# its quantile(u), the inverse of the density's CDF on [-pi, pi] at
# uniforms u in [0, 1), that CDF, cdf(phi), on arrays of angles in
# [-pi, pi] (the one the sampler inverts, which a run's bin-edge
# thresholds read), and its scenario-file form: to_json(),
# the json_keys it accepts and the classmethod from_json(doc, path), looked
# up by kind in PATTERN_KINDS.


@dataclass(frozen=True)
class OmniPattern:
    """Omnidirectional transmit pattern: uniform departure density."""

    kind = "omni"
    json_keys = ("kind",)

    def density(self, phi):
        return np.full(np.shape(phi), 1.0 / _TWO_PI)

    def quantile(self, u):
        return -np.pi + _TWO_PI * u

    def cdf(self, phi):
        return (phi + np.pi) / _TWO_PI

    def to_json(self):
        return {"kind": self.kind}

    @classmethod
    def from_json(cls, doc, path):
        return cls()


@dataclass(frozen=True)
class GaussianPattern:
    """Gaussian power pattern, parameterized by half-power beamwidth.

    hpbw: half-power beamwidth in radians, in (0, 2*pi].
    """

    hpbw: float
    kind = "gaussian"
    json_keys = ("kind", "hpbw_deg")

    def __post_init__(self):
        sigma_from_hpbw(self.hpbw)  # validates the range

    @property
    def sigma(self):
        return sigma_from_hpbw(self.hpbw)

    def density(self, phi):
        sigma = self.sigma
        norm = 1.0 / (math.sqrt(math.pi) * sigma * math.erf(math.pi / sigma))
        return norm * _gaussian_shape(phi, sigma)

    @cached_property
    def _truncation(self):
        # exp(-phi^2 / sigma^2) is a normal density with std sigma / sqrt(2),
        # truncated to [-pi, pi]: (std, its mass below -pi), the mass being
        # ndtr(-pi / std) = erfc(pi / sigma) / 2.
        return self.sigma / math.sqrt(2.0), 0.5 * math.erfc(math.pi / self.sigma)

    def quantile(self, u):
        # For narrow beams lo underflows to 0 and _ndtri(0) is -inf; the clamp
        # puts that, and any rounding past the ends, back on [-pi, pi].  It
        # runs in place on a flat array, so a scalar u goes through a
        # 1-element array and comes back a scalar.
        std, lo = self._truncation
        p = np.multiply(u, 1.0 - 2.0 * lo)
        p += lo
        angles = _ndtri(p.ravel()).reshape(p.shape)
        angles *= std
        np.maximum(angles, -np.pi, out=angles)  # np.clip, bit for bit, in place
        np.minimum(angles, np.pi, out=angles)
        return angles if angles.ndim else angles[()]

    def cdf(self, phi):
        # The normal CDF at phi / std is erfc(-phi / sigma) / 2, one
        # math.erfc call per angle; less the mass below -pi, over the mass
        # on [-pi, pi], and clipped to [0, 1] against rounding.
        lo = self._truncation[1]
        scaled = np.divide(phi, -self.sigma)
        out = np.fromiter(map(math.erfc, scaled.ravel().tolist()), float, scaled.size)
        out *= 0.5
        out -= lo
        out /= 1.0 - 2.0 * lo
        return np.clip(out, 0.0, 1.0, out=out).reshape(scaled.shape)

    def to_json(self):
        return {"kind": self.kind, "hpbw_deg": self.hpbw / _DEG}

    @classmethod
    def from_json(cls, doc, path):
        hpbw_deg = json_field(doc, "hpbw_deg", path=path)
        return cls(hpbw=_check_hpbw(hpbw_deg, _json_path(path, "hpbw_deg"), degrees=True) * _DEG)


@dataclass(frozen=True)
class TabulatedPattern:
    """Sampled amplitude pattern, linearly interpolated around the circle.

    samples: ordered (angle, amplitude) pairs; angles strictly increasing
    within (-pi, pi], amplitudes nonnegative and not all zero, at least
    8 entries (_check_samples, naming samples[i][j]).  The pattern is
    periodic: the last and first samples are interpolated across +/-pi.
    """

    samples: tuple[tuple[float, float], ...]
    kind = "tabulated"
    json_keys = ("kind", "samples")

    def __post_init__(self):
        entries = tuple((float(a), float(g)) for a, g in self.samples)
        object.__setattr__(self, "samples", entries)
        _check_samples(entries, "samples")

    @cached_property
    def _nodes(self):
        return np.array(self.samples).T

    @cached_property
    def _periodic_nodes(self):
        # The nodes np.interp(..., period=2*pi) builds on every call, built
        # once: the angles taken mod 2*pi and sorted, with the last node
        # repeated one period below and the first one period above.
        angles, amps = self._nodes
        wrapped = angles % _TWO_PI
        order = np.argsort(wrapped)
        angles, amps = wrapped[order], amps[order]
        return (np.concatenate((angles[-1:] - _TWO_PI, angles, angles[:1] + _TWO_PI)),
                np.concatenate((amps[-1:], amps, amps[:1])))

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
        """The interpolated amplitude at angles phi on [-pi, pi].

        Bit for bit np.interp(phi, angles, amps, period=2*pi): on [-pi, pi]
        phi mod 2*pi is phi + 2*pi where phi is negative and phi elsewhere
        (-0.0 and 0.0 interpolate alike).
        """
        angles, amps = self._periodic_nodes
        phi = np.asarray(phi, dtype=float)
        wrapped = np.asarray(phi + _TWO_PI)  # an array even for a scalar phi
        np.copyto(wrapped, phi, where=phi >= 0.0)
        return np.interp(wrapped, angles, amps)

    def density(self, phi):
        # amp * amp / I, in place on the array amplitude returns
        amp = self.amplitude(phi)
        amp *= amp
        amp /= self._power_integral
        return amp

    @cached_property
    def _cdf_table(self):
        return _CdfTable(np.pi, self.density)

    def quantile(self, u):
        return self._cdf_table.quantile(u)

    def cdf(self, phi):
        return self._cdf_table.cdf(phi)

    def to_json(self):
        return {"kind": self.kind, "samples": [[a / _DEG, g] for a, g in self.samples]}

    @classmethod
    def from_json(cls, doc, path):
        """The pattern of doc; a bad sample names its field, in degrees."""
        pairs = json_pairs(doc, "samples", path)
        _check_samples(pairs, _json_path(path, "samples"), degrees=True)
        return cls(tuple((a * _DEG, g) for a, g in pairs))


AntennaPattern = OmniPattern | GaussianPattern | TabulatedPattern

PATTERN_KINDS = {cls.kind: cls for cls in (OmniPattern, GaussianPattern, TabulatedPattern)}


def pattern_from_json(doc, path="pattern"):
    """Antenna pattern from its scenario-file form, dispatched on doc["kind"].

    Each kind accepts only its own json_keys; errors name the field by
    its JSON path below path.
    """
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in PATTERN_KINDS:
        raise ValueError(f"unknown pattern kind at {path}.kind: {kind!r}")
    cls = PATTERN_KINDS[kind]
    return cls.from_json(json_object(doc, cls.json_keys, path), path)


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
        _check_nonnegative(self.mu, "mu")
        _check_nonnegative(self.kappa, "kappa")

    @cached_property
    def _sampler(self):
        # The von Mises(0, mu) arrival density's sampler: uniform at mu = 0.
        return OmniPattern() if self.mu == 0 else _von_mises_table(self.mu)

    def quantile(self, u):
        """Inverse CDF of the von Mises(0, mu) arrival density at u in [0, 1)."""
        return self._sampler.quantile(u)

    def cdf(self, phi):
        """The CDF that quantile inverts, at angles phi in [-pi, pi]."""
        return self._sampler.cdf(phi)


@lru_cache(maxsize=8)
def _von_mises_table(mu):
    # Beyond 12 / sqrt(mu) the density is below exp(-29) of its peak (and
    # tends to exp(-72) as mu grows: a normal of std 1 / sqrt(mu) cut at 12
    # std), so the grid covers only that range and stays dense where the
    # mass is; a full-circle grid misses the CDF by 5e-6 at mu = 1e4.
    return _CdfTable(min(np.pi, 12.0 / math.sqrt(mu)), lambda grid: _von_mises_shape(grid, mu))


@dataclass(frozen=True)
class Tap:
    """One delay tap: excess delay (seconds), mean linear power, path count.

    Owns its scenario-file form, {"delay_us", "power", "paths"}, as each
    pattern kind owns its own, and checks only that its path count is an integer.
    """

    delay: float
    power: float
    path_count: int
    json_keys = ("delay_us", "power", "paths")

    def __post_init__(self):
        # Path counts are kept as Python ints, which JSON writes.
        object.__setattr__(self, "path_count", _check_count(self.path_count, "tap path count"))

    def to_json(self):
        return {"delay_us": self.delay / _US, "power": self.power, "paths": self.path_count}

    @classmethod
    def json_row(cls, doc, path, default_paths):
        """(delay_us, power, paths) of doc, each read once, in the file's units;
        its keys and number types checked (its values: _check_taps)."""
        json_object(doc, cls.json_keys, path)
        return (json_field(doc, "delay_us", path=path), json_field(doc, "power", path=path),
                json_field(doc, "paths", default_paths, integer=True, path=path))


@dataclass(frozen=True)
class TapProfile:
    """Delay taps extracted from a power delay profile, kept as a tuple.

    Tap 0 must sit at zero delay (local scattering plus any direct
    path); delays strictly increase, powers are positive and finite, and
    every tap carries at least one path.  An error names the tap's field,
    delays in seconds: taps[2].delay, taps[2].power or taps[2].path_count.
    """

    taps: tuple[Tap, ...]

    def __post_init__(self):
        object.__setattr__(self, "taps", tuple(self.taps))
        _check_taps([(t.delay, t.power, t.path_count) for t in self.taps],
                    ("delay", "power", "path_count"))

    @property
    def total_power(self):
        # Added left to right: sum() compensates from Python 3.12 on, and
        # this total normalizes every scenario's taps.
        return reduce(operator.add, (t.power for t in self.taps), 0.0)

    @property
    def delayed(self):
        return self.taps[1:]

    @cached_property
    def path_counts(self):
        return tuple(tap.path_count for tap in self.taps)

    @cached_property
    def tap_index(self):
        """The tap of each path column, paths in tap order; read-only."""
        return _read_only(np.repeat(np.arange(len(self.taps)), self.path_counts))

    def rms_delay_spread(self):
        """Power-weighted standard deviation of the tap delays (seconds)."""
        delays = np.array([t.delay for t in self.taps])
        weights = np.array([t.power for t in self.taps])
        return weighted_spread(delays, weights / weights.sum())


def ellipses_for_taps(profile, distance):
    """Ellipse set for the delayed taps of a profile, in tap order."""
    return tuple(ellipse_params(distance, tap.delay) for tap in profile.delayed)


def _density(phi, kernel, *args):
    """kernel(angles, *args) on phi checked once: a float for a scalar phi."""
    angles = _check_angles(phi)
    out = kernel(angles, *args)
    return out if angles.ndim else float(out)


def aod_pdf(phi_t, pattern):
    """Departure-angle density induced by the transmit power pattern.

    Omni: uniform 1/(2*pi).  Gaussian: C(sigma) exp(-phi^2 / sigma^2)
    with C = 1 / (sqrt(pi) * sigma * erf(pi / sigma)) so the truncated
    density integrates to one over (-pi, pi].  Tabulated: squared
    interpolated amplitude, normalized by its exact power integral.
    """
    return _density(phi_t, pattern.density)


def von_mises_pdf(phi, mu):
    """Von Mises density exp(mu * cos(phi)) / (2*pi*I0(mu)) on (-pi, pi].

    Evaluated in exponentially scaled form, so large concentrations do
    not overflow; mu = 0 degenerates to the uniform density.
    """
    _check_nonnegative(mu, "mu")
    norm = _TWO_PI * _i0e(mu)
    return _density(phi, lambda angles: _von_mises_shape(angles, mu) / norm)


def _delayed_density(phi_r, ecc, pattern):
    # delayed_aoa_pdf on checked angles, which lie on [-pi, pi] and so need
    # no wrap, and a checked eccentricity.
    phi_t = _half_angle_map(phi_r, _inverse_half_angle_ratio(ecc))
    return pattern.density(phi_t) / _jacobian(phi_t, ecc)


def delayed_aoa_pdf(phi_r, ellipse, pattern):
    """Arrival-angle density contributed by one delayed tap.

    Change of variables of the departure density through the ellipse
    map: f(phi_r) = f_T(phi_t) / |d phi_r / d phi_t| at
    phi_t = aoa_to_aod(phi_r).  Integrates to one over (-pi, pi].
    """
    return _density(phi_r, _delayed_density, _check_eccentricity(ellipse.eccentricity), pattern)


def composite_aoa_pdf(phi_r, ellipses, taps, pattern, local):
    """Full arrival-angle distribution for a scenario.

    Returns (continuous_density, point_mass_at_zero).  The continuous
    part mixes the per-tap delayed densities (weights P_i / P_R) with
    the local von Mises component (weight P_0 / (P_R * (kappa + 1)));
    the direct path contributes the point mass
    kappa / (kappa + 1) * P_0 / P_R at boresight.  Continuous integral
    plus point mass equals one.  The angles are checked once, and each
    ellipse's eccentricity once.
    """
    if len(ellipses) != len(taps.taps) - 1:
        raise ValueError(
            f"need one ellipse per delayed tap: got {len(ellipses)} ellipses "
            f"for {len(taps.taps) - 1} delayed taps"
        )
    total = taps.total_power
    local_weight = (taps.taps[0].power / total) / (local.kappa + 1.0)

    def mixture(phi):
        # Zeros, plus each weighted tap in tap order, plus the local term.
        density = np.zeros(phi.shape)
        for ellipse, tap in zip(ellipses, taps.delayed):
            ecc = _check_eccentricity(ellipse.eccentricity)
            density = density + (tap.power / total) * _delayed_density(phi, ecc, pattern)
        return density + local_weight * von_mises_pdf(phi, local.mu)

    point_mass = (local.kappa / (local.kappa + 1.0)) * (taps.taps[0].power / total)
    return _density(phi_r, mixture), point_mass
