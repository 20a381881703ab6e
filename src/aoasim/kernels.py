"""Numerical kernels, and with them every NumPy call whose bits change with CPU
dispatch (tan, arctan, exp, log, log10): the grid sampler _CdfTable, the
guided search it shares with the bin-edge thresholds, the AS241 normal
quantile, _i0e, the ellipse's half-angle map, the Gaussian and von Mises
shapes and the dB level of a power.  Callers check the input; imports no
other aoasim module."""

import math
from functools import lru_cache

import numpy as np

_TWO_PI = 2.0 * np.pi
# Grid samplers tabulate a trapezoid CDF on this many nodes; the guide table
# splits [0, 1] into this many equal cells of probability.
_GRID_NODES = (1 << 16) + 1
_GUIDE_CELLS = 1 << 16


class _CdfTable:
    """A grid sampler: the normalized trapezoid CDF of a density on a grid,
    its inverse (quantile) and its piecewise-linear interpolation (cdf).

    The grid is np.linspace(-half, half, count), and density(grid) returns
    a new array of the density on it, which the build reuses.  The table
    keeps half, the step, the CDF at the nodes (cumulative, float64) and
    its int32 guide over _GUIDE_CELLS cells (_guide): 12 bytes a node and
    no grid, whose nodes the methods rebuild as linspace does (_nodes).
    """

    def __init__(self, half, density, count=_GRID_NODES):
        # Summed in place, each node-sized array dropped once its step is
        # done: a table is 65,537 nodes, and every array kept alive during
        # the build lifts the peak memory of a run.
        grid = np.linspace(-half, half, count)
        weights = density(grid)
        cumulative = np.empty(count)
        cumulative[0] = 0.0
        np.add(weights[1:], weights[:-1], out=cumulative[1:])
        cumulative[1:] *= 0.5
        np.subtract(grid[1:], grid[:-1], out=weights[1:])
        del grid
        cumulative[1:] *= weights[1:]
        del weights
        np.cumsum(cumulative[1:], out=cumulative[1:])
        cumulative /= cumulative[-1]
        # linspace's own step, (stop - start) / (count - 1)
        self.half, self.step, self.cumulative = half, (half - -half) / (count - 1), cumulative
        self.guide = _guide(cumulative, _GUIDE_CELLS)

    def _nodes(self, index, out):
        """The grid nodes at index into out, index * step + start as linspace
        computes them, but for the last, which linspace sets to half."""
        # Converted by a copy, then scaled in place: an int-by-float multiply
        # would cast through a buffer of its own.
        np.copyto(out, index)
        out *= self.step
        out += -self.half
        return out

    def quantile(self, u):
        """Linear interpolation of the inverse CDF at u in [0, 1), a number or
        an array of any shape, bit for bit the route through c =
        np.searchsorted(cumulative, u, "right") (_guided_count): c is at most
        count - 1, as u < 1, and cumulative[c], the node the last probe read,
        is the upper CDF value.  At most four arrays of u's size are live at
        once: lo, c1, out and one scratch array."""
        cumulative = self.cumulative
        # An array even for a scalar u, so that the steps below can write into it.
        u = np.asarray(u, dtype=float)
        lo, c1 = _guided_count(cumulative, self.guide, _GUIDE_CELLS, u,
                               width=cumulative.size, probes=2)
        # The values whose upper node is the last, by flat index, found while
        # only lo and c1 are live: a u above cumulative[-2], so few or none.
        at_stop = np.flatnonzero(lo == cumulative.size - 1)
        # Now c0 = cumulative[lo - 1] <= u < cumulative[lo] = c1, with
        # 1 <= lo, so the span is positive: g0 + (u - c0) / (c1 - c0) *
        # (g1 - g0), one operation at a time, in place.
        lo -= 1
        scratch = np.asarray(cumulative.take(lo))
        out = np.subtract(u, scratch)
        c1 -= scratch
        out /= c1
        self._nodes(lo, scratch)
        lo += 1
        self._nodes(lo, c1)
        np.put(c1, at_stop, self.half)
        c1 -= scratch
        out *= c1
        out += scratch
        return out

    def cdf(self, phi):
        """The piecewise-linear CDF at each angle phi: the inverse of quantile.

        0 up to -half and 1 from half on; between, c0 + (phi - g0) / (g1 -
        g0) * (c1 - c0) on the grid segment g0 <= phi < g1, found from
        (phi + half) / step and moved by one node where the rebuilt nodes
        disagree with that estimate.
        """
        cumulative, half = self.cumulative, self.half
        phi = np.asarray(phi, dtype=float)
        last = cumulative.size - 2     # the lower node of the last segment
        scaled = np.add(phi, half, out=np.empty(phi.shape))
        scaled /= self.step
        np.clip(scaled, 0, last, out=scaled)
        lo = scaled.astype(np.intp)
        g0, g1 = np.empty(phi.shape), np.empty(phi.shape)

        def upper_node():
            # the node after lo, the last one being half
            self._nodes(lo + 1, g1)
            np.copyto(g1, half, where=lo == last)

        lo -= (self._nodes(lo, g0) > phi) & (lo > 0)
        upper_node()
        lo += (g1 <= phi) & (lo < last)
        self._nodes(lo, g0)
        upper_node()
        g1 -= g0
        out = np.subtract(phi, g0, out=g0)
        out /= g1
        c0 = cumulative.take(lo)
        out *= cumulative.take(lo + 1) - c0
        out += c0
        np.copyto(out, 0.0, where=phi <= -half)
        np.copyto(out, 1.0, where=phi >= half)
        return out


class _SearchRows:
    """A group's bin-edge thresholds, from raw CDF values to each pattern's
    counts: thresholds holds one (rows, edges) array of CDF values per
    pattern, and each row is made nondecreasing and clipped to [0, 1] here
    alone.

    One pattern's rows are written straight into the node rows, unsorted.
    With two or more, each pattern's array is prepared in place, so that
    no node-sized array is made beside the nodes; node row r is then the
    sorted union of the patterns' distinct rows r, padded with 1s: a row
    that several patterns share bit for bit (a run's local row, a repeated
    beam's rows) enters it once, so that no threshold is repeated in it.
    Each pattern keeps an int32 rank row per row: its rank[m], the count
    of its thresholds among the first m merged values, is the count of its
    thresholds at or below any u whose merged count is m, ties or not, as
    each of its thresholds is a merged value and m ends a run of equal
    values (one search in the union of sorted lists, then a rank in each:
    the plain form of what fractional cascading refines, Chazelle and
    Guibas, Algorithmica 1(2), 1986).

    Each node row gets a last node of 1, above every uniform, and is kept
    flat, width nodes each, with its guide (_guide) over two cells a node,
    rounded up to a power of two and at most _GUIDE_CELLS.  So one probe
    step, where a CDF table takes two, leaves few values to the edge
    search: thresholds crowd only where the bins hold little probability.
    """

    def __init__(self, thresholds):
        patterns = len(thresholds)
        count, edges = thresholds[0].shape
        width = patterns * edges + 1
        rows = np.ones((count, width))
        prepared = [rows[:, :-1]] if patterns == 1 else thresholds
        for raw, own in zip(thresholds, prepared):
            np.maximum.accumulate(raw, axis=1, out=own)
            np.clip(own, 0.0, 1.0, out=own)
        self.ranks = None
        if patterns > 1:
            for row, merged in enumerate(rows):
                # each distinct row once, by its bytes; the rest stays 1
                distinct = {own[row].tobytes(): own[row] for own in thresholds}
                np.concatenate(list(distinct.values()), out=merged[:len(distinct) * edges])
            rows.sort(axis=1)
            self.ranks = np.zeros((patterns, count, width), dtype=np.int32)
            for rank, own in zip(self.ranks, thresholds):
                for rank_row, row, merged in zip(rank, own, rows):
                    rank_row[1:] = np.searchsorted(row, merged[:-1], side="right")
        self.width, self.cells = width, min(1 << (2 * width - 1).bit_length(), _GUIDE_CELLS)
        self.nodes = rows.ravel()
        self.guide = _guide(rows, self.cells)

    def counts(self, u, rows):
        """Each pattern's count of its thresholds at or below each u in its
        row (rows, or rows[j] for the u of column j, the last axis), in
        pattern order, from one search; u is let go once it is searched."""
        found = _guided_count(self.nodes, self.guide, self.cells, u, rows * (self.cells + 1),
                              width=self.width, probes=1)[0]
        del u
        if self.ranks is None:
            found -= rows * self.width
            yield found
        else:
            # found is each u's flat index into its row's rank row
            for rank in self.ranks:
                yield rank.take(found)


def _guide(nodes, cells):
    """The int32 guide of each row of nodes (its last axis; one row if 1-d), flat:
    row r's entries from r * (cells + 1) on, each count offset by the nodes
    of the rows before it, so that it indexes the flat nodes.

    Each row is nondecreasing on [0, 1] and cells is a power of two.  Entry
    k of a row counts its nodes at or below k / cells, so the count of a u
    in cell k lies within [guide[k], guide[k + 1]], and the node guide[k +
    1] ends the cell, lying above (k + 1) / cells where there is one.  As
    c * cells is exact, a node c is at or below k / cells exactly when
    ceil(c * cells) <= k: the guide is a running count of those ceilings
    (the indexed search of Chen and Asau, 1974), one bincount and one
    running sum for all rows, each row's ceilings shifted to its own block.
    Its counts reach the node count, so 2**31 nodes or more raise a
    ValueError, before anything is built.
    """
    if nodes.size >= 1 << 31:
        raise ValueError(f"{nodes.size} nodes: an int32 guide counts at most 2**31 - 1")
    index = np.multiply(np.atleast_2d(nodes), cells)
    np.ceil(index, out=index)
    index = index.astype(np.intp)
    blocks = index.shape[0] * (cells + 1)
    index += np.arange(0, blocks, cells + 1)[:, None]
    counts = np.bincount(index.ravel(), minlength=blocks)
    del index
    return np.cumsum(counts, dtype=np.int32)


def _guided_count(nodes, guide, cells, u, start=None, *, width, probes):
    """Each u's count of the nodes at or below it in its row, and the node at that count.

    nodes holds rows of width nodes, flat, each nondecreasing on [0, 1] and
    ending above every u searched in it; guide is their _guide over cells
    cells, and start, where there are rows past the first, each u's row's
    first guide entry, r * (cells + 1), broadcast against u (an array of
    any shape).  The count is r * width plus searchsorted(row, u, "right"),
    bit for bit.  A guide lookup starts each u at the count of its cell's
    lower end, probes probe steps close most values, and one edge search
    per row the rest; a probe needs no upper bound, as the node that ends
    u's cell, or the row's last, lies above u.  Returns (count, the node at
    count), arrays of u's shape; the node is the last one a probe read.
    """
    cell = (u * cells).astype(np.intp)
    if start is not None:
        cell += start
    # The guide's counts are widened once, as every take converts its
    # indices to intp; lo stays within the nodes, so the takes by lo clip
    # nothing: mode="clip" only spares the copy that a take into out makes
    # in the default mode.
    lo = np.asarray(guide.take(cell), dtype=np.intp)
    del cell
    c1 = np.asarray(nodes.take(lo))
    for _ in range(probes):
        lo += c1 <= u
        nodes.take(lo, out=c1, mode="clip")
    # Where the nodes are dense one guide cell spans many; the few values
    # still open there go to one search in their row, by flat index.
    still_open = np.flatnonzero(c1 <= u)
    if still_open.size:
        values = u.take(still_open)
        rows = lo.take(still_open) // width
        counts = np.empty_like(rows)
        for row in np.flatnonzero(np.bincount(rows)).tolist():
            first, in_row = row * width, np.flatnonzero(rows == row)
            counts[in_row] = first + np.searchsorted(nodes[first:first + width],
                                                     values.take(in_row), side="right")
        np.put(lo, still_open, counts)
        np.put(c1, still_open, nodes.take(counts))
    return lo, c1


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
    """tan(out/2) = ratio * tan(phi/2) of each phi on [-pi, pi] (as every
    quantile and angle check gives it: no wrap here), out on (-pi, pi];
    ratio is one value, one per column (the last axis) or broadcast against
    phi, each column mapped bit for bit as its own ratio maps it alone.  In
    place on one new buffer; a column of ratio 1 (a circle) and +-pi are
    copied in last, as phi and as pi, since the steps keep neither exact."""
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


def _decibels(power):
    """10 log10(power), the dB level of each linear power."""
    return 10.0 * np.log10(power)
