"""Numerical kernels, and with them every NumPy call whose bits change with CPU
dispatch (tan, arctan, exp, log): the grid samplers, the uniform and standard
normal (AS241) quantiles, _i0e, the ellipse's half-angle map and the Gaussian
and von Mises shapes.  Callers check the input.  Imports no other aoasim module.
"""

import math
from functools import lru_cache

import numpy as np

_TWO_PI = 2.0 * np.pi
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


def _gaussian_shape(phi, sigma):
    """exp(-(phi / sigma)^2), the Gaussian pattern's density up to its norm.

    The ratio is squared, not sigma: sigma * sigma underflows to 0 for a
    beamwidth below about 2.6e-162 rad, and phi^2 / 0 is 0/0 at phi = 0.
    A square that overflows is inf, and exp(-inf) the 0 that exp(-q^2)
    rounds to for any |q| above 28, so the overflow is not reported.
    """
    q = phi / sigma
    with np.errstate(over="ignore"):
        return np.exp(-(q * q))


def _von_mises_shape(phi, mu):
    """exp(mu * (cos(phi) - 1)) in place on a new array, also for a scalar phi."""
    out = np.cos(phi, out=np.empty(np.shape(phi)))
    out -= 1.0
    out *= mu
    return np.exp(out, out=out)


def _half_angle_map(phi, ratio):
    # tan(out/2) = ratio * tan(phi/2) for phi on [-pi, pi], as every
    # quantile function and every angle check returns it, so phi is not
    # wrapped here; out is on (-pi, pi].  ratio is one value or one per
    # column (the last axis of phi), and each column comes out bit for bit
    # as its own ratio maps it alone.  The steps run in place on one
    # buffer of phi's size.  They keep neither a ratio-1 column (a circle:
    # the identity) nor the fixed point +-pi exact, so both are copied in
    # last: the column from phi, and +-pi as pi, the wrap of -pi.
    scalar = np.ndim(phi) == 0
    phi = np.atleast_1d(phi)
    mapped = np.multiply(phi, 0.5)
    np.tan(mapped, out=mapped)
    mapped *= ratio
    np.arctan(mapped, out=mapped)
    mapped *= 2.0
    np.copyto(mapped, phi, where=ratio == 1.0)
    np.copyto(mapped, np.pi, where=(phi == np.pi) | (phi == -np.pi))
    return float(mapped[0]) if scalar else mapped
