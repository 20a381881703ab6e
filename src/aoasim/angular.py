"""Analytic angular densities for the arrival-angle model.

The receive-side angle-of-arrival distribution is a mixture: one
component per delayed tap (the transmit-pattern density pushed through
that tap's ellipse), a von Mises component for scattering local to the
receiver, and, when a direct path is present, a point mass at boresight
carrying the Rician fraction of the zero-delay power.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np
from scipy.special import i0e, ndtr, ndtri

from .estimation import weighted_spread
from .geometry import (
    _DEG,
    _TWO_PI,
    _US,
    _check_angles,
    _read_only,
    aoa_jacobian,
    aoa_to_aod,
    ellipse_params,
)

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


# Grid samplers tabulate a trapezoid CDF on this many nodes; the guide table
# splits [0, 1] into this many equal cells of probability.
_GRID_NODES = (1 << 16) + 1
_GUIDE_CELLS = 1 << 16


class _CdfTable:
    """Normalized trapezoid CDF of a density on a grid, ready for inversion.

    guide[k] is the number of CDF nodes at or below k / _GUIDE_CELLS, so
    the node count of a u in cell k lies within [guide[k], guide[k + 1]].
    G = _GUIDE_CELLS is a power of two, so c * G is exact and a node c is
    at or below k / G exactly when ceil(c * G) <= k: the guide is a
    running count of those ceilings (the indexed search of Chen and
    Asau, 1974).
    """

    def __init__(self, grid, density):
        # Summed and counted in place: a table is 65,537 nodes, and a copy
        # kept alive during the build lifts the peak memory of a run.
        cdf = np.zeros(len(grid))
        np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid), out=cdf[1:])
        cdf /= cdf[-1]
        self.grid, self.cdf = grid, cdf
        counts = np.bincount(np.ceil(cdf * _GUIDE_CELLS).astype(np.intp), minlength=_GUIDE_CELLS + 1)
        self.guide = np.cumsum(counts, out=counts)


def _invert_cdf(table, u):
    """Linear interpolation of the inverse CDF at u in [0, 1).

    Bit for bit the route through np.searchsorted(cdf, u, "right"): the
    guide table brackets that node count, two probe steps close most
    brackets and one edge search closes the rest.
    """
    grid, cdf = table.grid, table.cdf
    cell = (u * _GUIDE_CELLS).astype(np.intp)
    lo, hi = table.guide[cell], table.guide[cell + 1]
    # lo never passes the count, which is at most len(cdf) - 1 as
    # u < 1 = cdf[-1], so cdf[lo] is always in bounds.
    for _ in range(2):
        lo += (lo < hi) & (cdf[lo] <= u)
    # Where the density is low one guide cell spans many nodes; the few
    # values still open there go to one search.
    still_open = (lo < hi) & (cdf[lo] <= u)
    lo[still_open] = np.searchsorted(cdf, u[still_open], side="right")
    # Now cdf[lo - 1] <= u < cdf[lo], with 1 <= lo, so the span is positive.
    c0, g0 = cdf[lo - 1], grid[lo - 1]
    return g0 + (u - c0) / (cdf[lo] - c0) * (grid[lo] - g0)


def _uniform_quantile(u):
    return -np.pi + _TWO_PI * u


# Scenario-file fields are read through these checks, so a missing or
# unknown key, a bool or a string where a number belongs, or a fractional
# count is a ValueError naming the field by its JSON path, such as
# "trials", "taps[2].power" or "pattern.hpbw_deg".

def _json_path(path, key):
    return f"{path}.{key}" if path else key


def json_object(doc, keys, path=""):
    """doc, checked to be a JSON object whose keys all lie in keys."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path or 'scenario'} must be a JSON object")
    for key in doc:
        if key not in keys:
            raise ValueError(f"unknown key: {_json_path(path, key)}")
    return doc


def json_number(value, path, integer=False):
    """value as a float, or as an int when integer; bools are rejected."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValueError(f"{path} must be {'an integer' if integer else 'a number'}, got {value!r}")
    try:
        return value if integer else float(value)
    except OverflowError:
        raise ValueError(f"{path} is out of range, got {value}") from None


def json_field(doc, key, default=None, integer=False, path=""):
    """doc[key] read by json_number; a missing key takes default if given."""
    if key not in doc:
        if default is None:
            raise ValueError(f"{_json_path(path, key)} is required")
        return default
    return json_number(doc[key], _json_path(path, key), integer)


def json_pairs(doc, key, path=""):
    """doc[key] as a list of (float, float) from a list of [x, y] pairs."""
    where = _json_path(path, key)
    rows = doc.get(key)
    if not isinstance(rows, list):
        raise ValueError(f"{where} must be a list of [x, y] pairs")
    pairs = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 2:
            raise ValueError(f"{where}[{i}] must be an [x, y] pair")
        pairs.append(tuple(json_number(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)))
    return pairs


def json_text(value, pad=""):
    """json.dumps(value, indent=2, sort_keys=True), byte for byte.

    The one writer of the package's indented JSON (pad is the indent of
    the line value starts on).  A list of finite floats is one join of
    float reprs; dicts and other lists are walked here; every other
    value goes to json.dumps.  Keys must be str: any other key is a
    TypeError, where json.dumps would turn a number into a string.
    """
    inner = pad + "  "
    separator = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
        body = separator.join(f"{json.dumps(key)}: {json_text(value[key], inner)}"
                              for key in sorted(value))
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            body = separator.join(map(float.__repr__, value))
        except TypeError:  # not all floats
            body = None
        # Only nan and inf have an n in their repr; JSON spells them otherwise.
        if body is None or "n" in body:
            body = separator.join(json_text(item, inner) for item in value)
        return f"[\n{inner}{body}\n{pad}]"
    return json.dumps(value)


# Each pattern kind owns its departure density(phi) on angles in (-pi, pi],
# its quantile(u), the inverse of the density's CDF on [-pi, pi] at
# uniforms u in [0, 1), and its scenario-file form: to_json(),
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
        return _uniform_quantile(u)

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
        return norm * np.exp(-(phi * phi) / (sigma * sigma))

    def quantile(self, u):
        # exp(-phi^2 / sigma^2) is a normal density with std sigma / sqrt(2),
        # truncated to [-pi, pi].  For narrow beams lo underflows to 0 and
        # ndtri(0) is -inf; the clip puts that, and any rounding past the
        # ends, back on [-pi, pi].
        std = self.sigma / math.sqrt(2.0)
        lo = ndtr(-np.pi / std)
        return np.clip(std * ndtri(lo + u * (1.0 - 2.0 * lo)), -np.pi, np.pi)

    def to_json(self):
        return {"kind": self.kind, "hpbw_deg": self.hpbw / _DEG}

    @classmethod
    def from_json(cls, doc, path):
        return cls(hpbw=json_field(doc, "hpbw_deg", path=path) * _DEG)


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
    json_keys = ("kind", "samples")

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
    def _cdf_table(self):
        grid = np.linspace(-np.pi, np.pi, _GRID_NODES)
        return _CdfTable(grid, self.density(grid))

    def quantile(self, u):
        return _invert_cdf(self._cdf_table, u)

    def to_json(self):
        return {"kind": self.kind, "samples": [[a / _DEG, g] for a, g in self.samples]}

    @classmethod
    def from_json(cls, doc, path):
        return cls(tuple((a * _DEG, g) for a, g in json_pairs(doc, "samples", path)))


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
        if self.mu < 0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")

    def quantile(self, u):
        """Inverse CDF of the von Mises(0, mu) arrival density at u in [0, 1)."""
        return _uniform_quantile(u) if self.mu == 0 else _invert_cdf(_von_mises_table(self.mu), u)


@lru_cache(maxsize=8)
def _von_mises_table(mu):
    # Beyond 12 / sqrt(mu) the density is below exp(-29) of its peak (and
    # tends to exp(-72) as mu grows: a normal of std 1 / sqrt(mu) cut at 12
    # std), so the grid covers only that range and stays dense where the
    # mass is; a full-circle grid misses the CDF by 5e-6 at mu = 1e4.
    half = min(np.pi, 12.0 / math.sqrt(mu))
    grid = np.linspace(-half, half, _GRID_NODES)
    return _CdfTable(grid, np.exp(mu * (np.cos(grid) - 1.0)))


@dataclass(frozen=True)
class Tap:
    """One delay tap: excess delay (seconds), mean linear power, path count.

    Owns its scenario-file form, {"delay_us", "power", "paths"}, as each
    pattern kind owns its own.
    """

    delay: float
    power: float
    path_count: int
    json_keys = ("delay_us", "power", "paths")

    def to_json(self):
        return {"delay_us": self.delay / _US, "power": self.power, "paths": self.path_count}

    @classmethod
    def from_json(cls, doc, path, default_paths):
        json_object(doc, cls.json_keys, path)
        return cls(
            delay=json_field(doc, "delay_us", path=path) * _US,
            power=json_field(doc, "power", path=path),
            path_count=json_field(doc, "paths", default_paths, integer=True, path=path),
        )


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
