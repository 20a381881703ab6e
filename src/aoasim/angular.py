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
from .geometry import (
    _DEG,
    _TWO_PI,
    _US,
    _check_angles,
    _check_count,
    _check_eccentricity,
    _check_nonnegative,
    _half_angle_map,
    _jacobian,
    _read_only,
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


def _check_hpbw_deg(hpbw_deg, name):
    """hpbw_deg, a beamwidth in degrees as a user gave it, checked to lie in
    (0, 360]; the error names the field or option and keeps the degrees."""
    if not 0.0 < hpbw_deg <= 360.0:
        raise ValueError(f"{name} must lie in (0, 360] degrees, got {hpbw_deg}")
    return hpbw_deg


# Grid samplers tabulate a trapezoid CDF on this many nodes; the guide table
# splits [0, 1] into this many equal cells of probability.
_GRID_NODES = (1 << 16) + 1
_GUIDE_CELLS = 1 << 16


class _CdfTable:
    """Normalized trapezoid CDF of a density on a grid, ready for inversion.

    The grid is np.linspace(-half, half, count), and density(grid) returns
    a new array of the density on it, which the build then reuses.  The
    table keeps only what _invert_cdf reads: half, the cdf (float64) and
    the guide (int32), 12 bytes a node and no grid; _invert_cdf rebuilds
    the nodes it needs with linspace's own arithmetic (_grid_nodes).

    guide[k] is the number of CDF nodes at or below k / _GUIDE_CELLS, so
    the node count of a u in cell k lies within [guide[k], guide[k + 1]],
    and the node guide[k + 1], where there is one, lies above the cell's
    top (k + 1) / G: _invert_cdf starts each u at guide[k] and needs no
    upper bound.  G = _GUIDE_CELLS is a power of two, so c * G is exact
    and a node c is at or below k / G exactly when ceil(c * G) <= k: the
    guide is a running count of those ceilings (the indexed search of
    Chen and Asau, 1974).  Its counts are at most count, so they fit in
    32 bits.
    """

    def __init__(self, half, density, count=_GRID_NODES):
        # Summed and counted in place, each node-sized array dropped once its
        # step is done: a table is 65,537 nodes, and every array kept alive
        # during the build lifts the peak memory of a run.
        grid = np.linspace(-half, half, count)
        weights = density(grid)
        cdf = np.empty(count)
        cdf[0] = 0.0
        np.add(weights[1:], weights[:-1], out=cdf[1:])
        cdf[1:] *= 0.5
        np.subtract(grid[1:], grid[:-1], out=weights[1:])
        del grid
        cdf[1:] *= weights[1:]
        del weights
        np.cumsum(cdf[1:], out=cdf[1:])
        cdf /= cdf[-1]
        cells = np.multiply(cdf, _GUIDE_CELLS)
        np.ceil(cells, out=cells)
        cells = cells.astype(np.intp)
        counts = np.bincount(cells, minlength=_GUIDE_CELLS + 1)
        del cells
        self.half, self.cdf = half, cdf
        self.guide = np.cumsum(counts, dtype=np.int32)


def _grid_nodes(table, index, out):
    """The nodes at index of the table's grid into out, as np.linspace
    computes them: index * step + start, step = (stop - start) / (count - 1).
    Every node but the last: linspace sets that one to stop, which is half."""
    start, stop = -table.half, table.half
    # Converted by a copy, then scaled in place: an int-by-float multiply
    # would cast through a buffer of its own.
    np.copyto(out, index)
    out *= (stop - start) / (table.cdf.size - 1)
    out += start
    return out


def _invert_cdf(table, u):
    """Linear interpolation of the inverse CDF at u in [0, 1).

    Bit for bit the route through np.searchsorted(cdf, u, "right"), the
    node count c of u, on the grid np.linspace(-half, half, len(cdf)).
    One guide lookup starts each value at the count of its guide cell's
    lower end; two probe steps close most values and one edge search
    closes the rest.  The probes need no upper bound: the node that ends
    u's guide cell already lies above u (see _CdfTable), so a probe steps
    only while it is below c, and c is at most len(cdf) - 1 as
    u < 1 = cdf[-1].  The cdf[lo] the last probe took is the
    interpolation's upper CDF value.  The two grid nodes are rebuilt as
    np.linspace computes them, i * step + start, with stop at the last
    node; the lower node c - 1 is never the last, so only the upper one
    needs that.  Each table lookup is one take, and the steps run in
    place, so at most four arrays of u's size are live at once (lo, c1,
    out and one scratch array).  u may be a number or an array of any
    shape.
    """
    cdf = table.cdf
    u = np.asarray(u, dtype=float)
    # Arrays even for a scalar u, so that the steps below can write into
    # them; the int32 guide counts are widened once, as every take converts
    # its indices to intp.  lo stays within [0, len(cdf) - 1], so the takes
    # by lo clip nothing: mode="clip" only spares the copy that a take into
    # out makes in the default mode.
    lo = np.asarray(table.guide.take((u * _GUIDE_CELLS).astype(np.intp)), dtype=np.intp)
    c1 = np.asarray(cdf.take(lo))
    for _ in range(2):
        lo += c1 <= u
        cdf.take(lo, out=c1, mode="clip")
    # Where the density is low one guide cell spans many nodes; the few
    # values still open there go to one search, by flat index.
    still_open = np.flatnonzero(c1 <= u)
    np.put(lo, still_open, np.searchsorted(cdf, u.take(still_open), side="right"))
    np.put(c1, still_open, cdf.take(lo.take(still_open)))
    # The values whose upper node is the last, by flat index, found while
    # only lo and c1 are live: a u above cdf[-2], so few or none.
    at_stop = np.flatnonzero(lo == cdf.size - 1)
    del still_open  # not live beside the four arrays below
    # Now c0 = cdf[lo - 1] <= u < cdf[lo] = c1, with 1 <= lo, so the span
    # is positive: g0 + (u - c0) / (c1 - c0) * (g1 - g0), one operation at
    # a time, in place.
    lo -= 1
    scratch = np.asarray(cdf.take(lo))
    out = np.subtract(u, scratch)
    c1 -= scratch
    out /= c1
    _grid_nodes(table, lo, scratch)
    lo += 1
    _grid_nodes(table, lo, c1)
    np.put(c1, at_stop, table.half)
    c1 -= scratch
    out *= c1
    out += scratch
    return out


def _uniform_quantile(u):
    return -np.pi + _TWO_PI * u


# The standard normal quantile by Wichura's AS241 (PPND16, Applied
# Statistics 37, 1988), relative error about 1e-16: a rational function of
# (p - 1/2)^2 for |p - 1/2| <= 0.425, and of r = sqrt(-log(min(p, 1 - p)))
# below and above r = 5.  Each pair holds the numerator's and the
# denominator's coefficients, highest degree first, as NumPy floats (an
# in-place step with a Python float converts it on every call).
def _coefficients(numerator, denominator):
    return tuple(np.array(numerator)), tuple(np.array(denominator))


_NDTRI_CENTRAL = _coefficients(
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_NDTRI_NEAR = _coefficients(
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
)
_NDTRI_FAR = _coefficients(
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


def _rational(x, coefficients):
    """numerator(x) / denominator(x), each by Horner's rule in place."""
    def horner(coefs):
        out = np.multiply(x, coefs[0])
        for c in coefs[1:-1]:
            out += c
            out *= x
        out += coefs[-1]
        return out

    numerator, denominator = coefficients
    out = horner(numerator)
    out /= horner(denominator)
    return out


def _ndtri(p):
    """Standard normal quantile at each p of a 1-d array in [0, 1] (AS241).

    The central branch runs over every value; the tail branch takes only
    the values outside it, by flat index, and computes its log from
    min(p, 1 - p), which keeps the tail's relative accuracy (1 - p is
    exact for p >= 1/2; 1/2 - |p - 1/2| is not for p < 1/4).  p = 0 and
    p = 1 give -inf and inf, without taking log(0).
    """
    q = p - 0.5
    r = np.multiply(q, q)
    np.subtract(0.180625, r, out=r)
    # r < 0 exactly where |q| > 0.425, in floating point as well
    tail = np.flatnonzero(r < 0.0)
    x = _rational(r, _NDTRI_CENTRAL)
    x *= q
    if tail.size:
        r = p.take(tail)
        np.minimum(r, 1.0 - r, out=r)
        ends = np.flatnonzero(r == 0.0)
        r[ends] = 1.0  # a finite stand-in, overwritten below
        np.log(r, out=r)
        np.negative(r, out=r)
        np.sqrt(r, out=r)
        far = np.flatnonzero(r > 5.0)
        values = _rational(r - 1.6, _NDTRI_NEAR)
        if far.size:
            values[far] = _rational(r[far] - 5.0, _NDTRI_FAR)
        values[ends] = np.inf
        np.copysign(values, q.take(tail), out=values)
        x[tail] = values
    return x


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
    if integer:
        return _check_count(value, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path} must be a number, got {value!r}")
    try:
        return float(value)
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


# One rule function per kind of input record, called at each boundary with
# its names and units: field(i, j) names column j of row i ("pdp[2][0]").  A
# value is checked as it is kept, times scale, and reported as written.

def _check_increasing(rows, field, scale=1.0):
    """Column 0 of rows checked to increase strictly once multiplied by scale."""
    for i in range(1, len(rows)):
        before, value = rows[i - 1][0], rows[i][0]
        if not value * scale > before * scale:
            converted = " (equal once converted)" if value > before else ""
            raise ValueError(f"{field(i, 0)} must be greater than {field(i - 1, 0)}, "
                             f"got {value} after {before}{converted}")


def _check_profile(rows, field, scale=1.0):
    """The rules of a PDP's (delay, power) rows and a tap list's (delay, power,
    paths): delays finite, the first 0 and the rest increasing; powers
    positive and finite; paths at least 1."""
    for i, (delay, power, *paths) in enumerate(rows):
        if not math.isfinite(delay):
            raise ValueError(f"{field(i, 0)} must be finite, got {delay}")
        if not 0.0 < power < math.inf:
            raise ValueError(f"{field(i, 1)} must be positive and finite, got {power}")
        for count in paths:
            _check_count(count, field(i, 2), 1)
    if rows and rows[0][0] != 0.0:
        raise ValueError(f"{field(0, 0)} must be 0 (the zero-delay tap), got {rows[0][0]}")
    _check_increasing(rows, field, scale)


def _check_taps(taps, names, scale=1.0):
    """The profile rules on each tap's (delay, power, path count), named taps[i].<names[j]>."""
    if not taps:
        raise ValueError("taps must hold at least the zero-delay tap")
    _check_profile(taps, lambda i, j: f"taps[{i}].{names[j]}", scale)


def _check_samples(samples, where, degrees=False):
    """The rules of a tabulated pattern's (angle, amplitude) rows, named where[i][j]: at
    least 8; angles in the turn, increasing; amplitudes finite, nonnegative, not all 0."""
    if len(samples) < 8:
        raise ValueError(f"{where} must hold at least 8 samples, got {len(samples)}")
    scale, turn = (_DEG, "(-180, 180] degrees") if degrees else (1.0, "(-pi, pi]")
    field = (where + "[{}][{}]").format
    for i, (angle, amplitude) in enumerate(samples):
        if not -np.pi < angle * scale <= np.pi:  # NaN fails it too
            raise ValueError(f"{field(i, 0)} must lie in {turn}, got {angle}")
        _check_nonnegative(amplitude, field(i, 1))
    _check_increasing(samples, field, scale)
    if not any(amplitude > 0.0 for _, amplitude in samples):
        raise ValueError(f"{where} must hold a positive amplitude, got all 0")


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

    def to_json(self):
        return {"kind": self.kind, "hpbw_deg": self.hpbw / _DEG}

    @classmethod
    def from_json(cls, doc, path):
        hpbw_deg = json_field(doc, "hpbw_deg", path=path)
        return cls(hpbw=_check_hpbw_deg(hpbw_deg, _json_path(path, "hpbw_deg")) * _DEG)


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
        return _invert_cdf(self._cdf_table, u)

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

    def quantile(self, u):
        """Inverse CDF of the von Mises(0, mu) arrival density at u in [0, 1)."""
        return _uniform_quantile(u) if self.mu == 0 else _invert_cdf(_von_mises_table(self.mu), u)


@lru_cache(maxsize=8)
def _von_mises_table(mu):
    # Beyond 12 / sqrt(mu) the density is below exp(-29) of its peak (and
    # tends to exp(-72) as mu grows: a normal of std 1 / sqrt(mu) cut at 12
    # std), so the grid covers only that range and stays dense where the
    # mass is; a full-circle grid misses the CDF by 5e-6 at mu = 1e4.
    def density(grid):
        # exp(mu * (cos(grid) - 1)), in place
        out = np.cos(grid)
        out -= 1.0
        out *= mu
        return np.exp(out, out=out)

    return _CdfTable(min(np.pi, 12.0 / math.sqrt(mu)), density)


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
    return _density(phi, lambda angles: np.exp(mu * (np.cos(angles) - 1.0)) / norm)


# The tests hold _i0e to scipy.special.i0e: within 7e-16 relative on both
# sides of mu = 700.  Cached, as np.i0 takes about 0.1 ms for one number,
# as long as a scalar composite_aoa_pdf call.
@lru_cache(maxsize=8)
def _i0e(mu):
    """exp(-mu) I0(mu), the exponentially scaled modified Bessel function.

    np.i0 overflows past mu = 709, so from mu = 700 on this is the
    asymptotic series exp(-mu) I0(mu) ~ (1 + sum_k prod_j (2j - 1)^2 / (8 j
    mu)) / sqrt(2 pi mu), whose terms shrink at least 5,600-fold per step
    there.
    """
    if mu < 700.0:
        return float(np.i0(mu)) * math.exp(-mu)
    term = total = 1.0
    k = 1
    while term > 1e-17:
        term *= (2 * k - 1) ** 2 / (8.0 * k * mu)
        total += term
        k += 1
    return total / math.sqrt(_TWO_PI * mu)


def _delayed_density(phi_r, ecc, pattern):
    # delayed_aoa_pdf on checked angles, which lie on [-pi, pi] and so need
    # no wrap, and a checked eccentricity.
    phi_t = _half_angle_map(phi_r, (1.0 + ecc) / (1.0 - ecc))
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
