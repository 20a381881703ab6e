"""Tests for the analytic angular densities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from aoasim.angular import (
    _GUIDE_CELLS,
    _CdfTable,
    _invert_cdf,
    _von_mises_table,
    GaussianPattern,
    LocalScattering,
    OmniPattern,
    TabulatedPattern,
    Tap,
    TapProfile,
    aod_pdf,
    composite_aoa_pdf,
    delayed_aoa_pdf,
    ellipses_for_taps,
    sigma_from_hpbw,
    von_mises_pdf,
)
from aoasim.geometry import ellipse_params, wrap_angle

from helpers import (
    bessel_i0_series,
    ellipse_with_eccentricity,
    guide_searched,
    invert_cdf_searched,
    left_to_right_sum,
    make_profile,
)

TWO_PI = 2 * math.pi


def quad_over_circle(fn, **kwargs):
    value, _ = quad(fn, -math.pi, math.pi, limit=300, epsabs=1e-12, epsrel=1e-12,
                    points=[0.0], **kwargs)
    return value


class TestSigmaFromHpbw:
    def test_sixty_degree_beam(self):
        assert math.degrees(sigma_from_hpbw(math.radians(60.0))) == pytest.approx(36.0337, abs=1e-3)

    def test_full_circle_beam(self):
        assert math.degrees(sigma_from_hpbw(math.radians(360.0))) == pytest.approx(216.202, abs=1e-2)

    @pytest.mark.parametrize("hpbw", [0.3, 1.0, math.pi, TWO_PI])
    def test_half_power_identity(self, hpbw):
        # The power pattern exp(-phi^2/sigma^2) must equal 1/2 at +/- hpbw/2.
        sigma = sigma_from_hpbw(hpbw)
        assert math.exp(-((hpbw / 2) ** 2) / sigma ** 2) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("hpbw", [0.0, -1.0, TWO_PI + 0.01])
    def test_out_of_range_rejected(self, hpbw):
        with pytest.raises(ValueError):
            sigma_from_hpbw(hpbw)


class TestPatternValidation:
    def test_gaussian_range(self):
        with pytest.raises(ValueError):
            GaussianPattern(hpbw=-0.5)
        with pytest.raises(ValueError):
            GaussianPattern(hpbw=TWO_PI * 1.01)

    def test_tabulated_needs_eight_samples(self):
        with pytest.raises(ValueError):
            TabulatedPattern(tuple((x, 1.0) for x in np.linspace(-3, 3, 7)))

    def test_tabulated_ordering(self):
        samples = [(-1.0, 1.0), (0.0, 1.0), (-0.5, 1.0)] + [(x, 1.0) for x in np.linspace(1, 3, 5)]
        with pytest.raises(ValueError):
            TabulatedPattern(tuple(samples))

    def test_tabulated_angle_range(self):
        with pytest.raises(ValueError):
            TabulatedPattern(tuple((x, 1.0) for x in np.linspace(-math.pi, math.pi, 9)))

    def test_tabulated_negative_amplitude(self):
        samples = [(x, 1.0) for x in np.linspace(-3, 3, 8)]
        samples[3] = (samples[3][0], -0.2)
        with pytest.raises(ValueError):
            TabulatedPattern(tuple(samples))

    def test_tabulated_all_zero_rejected(self):
        with pytest.raises(ValueError):
            TabulatedPattern(tuple((x, 0.0) for x in np.linspace(-3, 3, 10)))


class TestAodPdf:
    def test_omni_is_uniform(self):
        pattern = OmniPattern()
        assert aod_pdf(0.0, pattern) == pytest.approx(1 / TWO_PI, rel=1e-15)
        assert aod_pdf(2.5, pattern) == pytest.approx(1 / TWO_PI, rel=1e-15)

    @pytest.mark.parametrize("hpbw_deg", [30.0, 60.0, 120.0, 180.0, 360.0])
    def test_gaussian_normalizes(self, hpbw_deg):
        pattern = GaussianPattern(math.radians(hpbw_deg))
        assert quad_over_circle(lambda x: aod_pdf(x, pattern)) == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_even_symmetry(self):
        pattern = GaussianPattern(math.radians(90.0))
        x = np.linspace(1e-4, math.pi - 1e-9, 50)
        np.testing.assert_array_equal(aod_pdf(x, pattern), aod_pdf(-x, pattern))

    def test_out_of_range_angle_rejected(self):
        pattern = OmniPattern()
        with pytest.raises(ValueError):
            aod_pdf(3.5, pattern)
        with pytest.raises(ValueError):
            aod_pdf(-math.pi, pattern)

    def test_tabulated_normalizes(self):
        angles = np.linspace(-3.0, 3.0, 12)
        samples = tuple((float(a), 1.0 + 0.5 * math.cos(a)) for a in angles)
        pattern = TabulatedPattern(samples)
        # integrate piecewise so the interpolation kinks are respected
        nodes = np.concatenate([[-math.pi], angles, [math.pi]])
        total = 0.0
        for lo, hi in zip(nodes[:-1], nodes[1:]):
            part, _ = quad(lambda x: aod_pdf(x, pattern), lo, hi, epsabs=1e-13)
            total += part
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_tabulated_matches_interpolated_shape(self):
        angles = np.linspace(-3.0, 3.0, 16)
        samples = tuple((float(a), 2.0 + math.sin(a)) for a in angles)
        pattern = TabulatedPattern(samples)
        # at the sample nodes the density is proportional to amplitude^2
        dens = aod_pdf(angles, pattern)
        amp2 = np.array([g * g for _, g in samples])
        ratio = dens / amp2
        assert np.allclose(ratio, ratio[0], rtol=1e-12)


class TestVonMisesPdf:
    def test_zero_concentration_is_uniform(self):
        x = np.linspace(-3, 3, 7)
        assert np.allclose(von_mises_pdf(x, 0.0), 1 / TWO_PI, rtol=1e-14)

    @pytest.mark.parametrize("mu", [0.5, 2.0, 20.0, 100.0, 500.0])
    def test_normalizes(self, mu):
        assert quad_over_circle(lambda x: von_mises_pdf(x, mu)) == pytest.approx(1.0, abs=1e-9)

    def test_peak_value_against_series_bessel(self):
        mu = 2.0
        expected = math.exp(mu) / (TWO_PI * bessel_i0_series(mu))
        assert von_mises_pdf(0.0, mu) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mu", [0.5, 5.0, 50.0])
    def test_front_to_back_ratio(self, mu):
        # pdf(0)/pdf(pi) = exp(2 mu) independently of the normalizer
        ratio = von_mises_pdf(0.0, mu) / von_mises_pdf(math.pi, mu)
        assert ratio == pytest.approx(math.exp(2 * mu), rel=1e-10)

    def test_even_symmetry(self):
        x = np.linspace(1e-3, math.pi - 1e-9, 40)
        np.testing.assert_array_equal(von_mises_pdf(x, 3.0), von_mises_pdf(-x, 3.0))

    def test_negative_concentration_rejected(self):
        with pytest.raises(ValueError):
            von_mises_pdf(0.0, -0.1)


class TestDelayedAoaPdf:
    def test_zero_eccentricity_reduces_to_departure_density(self):
        ellipse = ellipse_params(0.0, 1e-6)
        pattern = GaussianPattern(math.radians(90.0))
        x = np.linspace(-3, 3, 31)
        np.testing.assert_allclose(
            delayed_aoa_pdf(x, ellipse, pattern), aod_pdf(x, pattern), rtol=1e-12
        )

    @pytest.mark.parametrize("ecc", [0.25, 0.5, 0.769, 0.9])
    @pytest.mark.parametrize("hpbw_deg", [60.0, 360.0])
    def test_normalizes_gaussian(self, ecc, hpbw_deg):
        ellipse = ellipse_with_eccentricity(ecc)
        assert ellipse.eccentricity == pytest.approx(ecc, rel=1e-12)
        pattern = GaussianPattern(math.radians(hpbw_deg))
        value = quad_over_circle(lambda x: delayed_aoa_pdf(x, ellipse, pattern))
        assert value == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("ecc", [0.25, 0.769, 0.95])
    def test_normalizes_omni(self, ecc):
        ellipse = ellipse_with_eccentricity(ecc)
        pattern = OmniPattern()
        value = quad_over_circle(lambda x: delayed_aoa_pdf(x, ellipse, pattern))
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_high_eccentricity_concentrates_forward(self):
        ellipse = ellipse_with_eccentricity(0.9)
        pattern = OmniPattern()
        forward = delayed_aoa_pdf(0.0, ellipse, pattern)
        side = delayed_aoa_pdf(math.pi / 2, ellipse, pattern)
        backward = delayed_aoa_pdf(0.999 * math.pi, ellipse, pattern)
        assert forward > side > backward


class TestCompositeAoaPdf:
    def _scenario(self, kappa, mu, p0=0.5):
        taps = make_profile([0.0, 1.0, 3.0], [p0, (1 - p0) * 0.6, (1 - p0) * 0.4], 10)
        ellipses = ellipses_for_taps(taps, 1000.0)
        return taps, ellipses, LocalScattering(mu=mu, kappa=kappa)

    def test_no_direct_path_without_rician_power(self):
        taps, ellipses, local = self._scenario(kappa=0.0, mu=3.0)
        _, point_mass = composite_aoa_pdf(0.0, ellipses, taps, OmniPattern(), local)
        assert point_mass == 0.0

    def test_single_tap_uniform_case(self):
        taps = TapProfile((Tap(0.0, 1.0, 10),))
        local = LocalScattering(mu=0.0, kappa=0.0)
        x = np.linspace(-3, 3, 13)
        dens, point_mass = composite_aoa_pdf(x, (), taps, OmniPattern(), local)
        assert point_mass == 0.0
        assert np.allclose(dens, 1 / TWO_PI, rtol=1e-14)

    def test_rician_split(self):
        taps, ellipses, local = self._scenario(kappa=1.0, mu=5.0, p0=0.5)
        pattern = GaussianPattern(math.radians(120.0))
        _, point_mass = composite_aoa_pdf(0.0, ellipses, taps, pattern, local)
        assert point_mass == pytest.approx(0.25, rel=1e-12)
        integral = quad_over_circle(
            lambda x: composite_aoa_pdf(x, ellipses, taps, pattern, local)[0]
        )
        assert integral == pytest.approx(0.75, abs=1e-8)

    def test_total_probability_random_draws(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            n = rng.integers(1, 4)
            delays = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 12.0, n))])
            powers = rng.uniform(0.2, 1.0, n + 1)
            taps = make_profile(delays, powers, 10)
            ellipses = ellipses_for_taps(taps, rng.uniform(100, 3000))
            local = LocalScattering(mu=rng.uniform(0, 20), kappa=rng.uniform(0, 3))
            pattern = GaussianPattern(math.radians(rng.uniform(40, 360)))
            integral = quad_over_circle(
                lambda x: composite_aoa_pdf(x, ellipses, taps, pattern, local)[0]
            )
            _, point_mass = composite_aoa_pdf(0.0, ellipses, taps, pattern, local)
            assert integral + point_mass == pytest.approx(1.0, abs=1e-8)

    def test_even_in_angle(self):
        taps, ellipses, local = self._scenario(kappa=0.5, mu=8.0)
        pattern = GaussianPattern(math.radians(90.0))
        x = np.linspace(1e-3, math.pi - 1e-9, 25)
        fwd, _ = composite_aoa_pdf(x, ellipses, taps, pattern, local)
        bwd, _ = composite_aoa_pdf(-x, ellipses, taps, pattern, local)
        np.testing.assert_array_equal(fwd, bwd)

    def test_ellipse_count_mismatch_rejected(self):
        taps, ellipses, local = self._scenario(kappa=0.0, mu=1.0)
        with pytest.raises(ValueError):
            composite_aoa_pdf(0.0, ellipses[:-1], taps, OmniPattern(), local)

    def test_mixture_weights_sum_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            powers = rng.uniform(0.05, 1.0, 4)
            kappa = float(rng.uniform(0, 5))
            taps = make_profile([0.0, 1.0, 2.0, 5.0], powers, 5)
            total = taps.total_power
            weights = [t.power / total for t in taps.delayed]
            weights.append((taps.taps[0].power / total) / (kappa + 1.0))
            weights.append((kappa / (kappa + 1.0)) * (taps.taps[0].power / total))
            assert all(w >= 0 for w in weights)
            assert abs(sum(weights) - 1.0) <= 1e-12


class TestTapProfile:
    def test_requires_zero_delay_first(self):
        with pytest.raises(ValueError):
            TapProfile((Tap(1e-6, 1.0, 5),))

    def test_requires_increasing_delays(self):
        with pytest.raises(ValueError):
            TapProfile((Tap(0.0, 1.0, 5), Tap(2e-6, 0.5, 5), Tap(1e-6, 0.5, 5)))

    def test_requires_positive_power(self):
        with pytest.raises(ValueError):
            TapProfile((Tap(0.0, 0.0, 5),))

    def test_requires_integer_path_count(self):
        with pytest.raises(ValueError):
            TapProfile((Tap(0.0, 1.0, 0),))

    def test_total_power_adds_left_to_right(self):
        # it normalizes every scenario's taps, so it must not depend on
        # the Python version's sum()
        powers = np.random.default_rng(2).uniform(0.0, 0.01, 250)
        profile = TapProfile(tuple(Tap(k * 1e-7, float(p), 1) for k, p in enumerate(powers)))
        expected = left_to_right_sum(powers)
        assert expected != math.fsum(powers)
        assert profile.total_power == expected

    def test_rms_delay_spread(self):
        # two equal-power taps at 0 and 2 us: mean 1 us, spread 1 us
        profile = make_profile([0.0, 2.0], [0.5, 0.5], 5)
        assert profile.rms_delay_spread() == pytest.approx(1e-6, rel=1e-12)

    def test_wrap_angle_convention_reexported(self):
        assert wrap_angle(-math.pi) == math.pi


# A tabulated pattern with a zero-amplitude stretch, so its CDF is flat there.
_GAPPED_SAMPLES = tuple(zip(
    np.linspace(-3.0, 3.0, 13).tolist(),
    [1.0, 0.8, 0.0, 0.0, 0.0, 0.5, 1.2, 2.0, 1.5, 0.7, 0.3, 0.6, 0.9],
))

# Dense in the middle, down to 1e-12 at both ends, and the largest
# double below one.
_QUANTILE_U = np.concatenate([
    [0.0, 1e-12, 1e-9, 1e-7], np.linspace(0.0, 1.0, 1025)[1:-1],
    [1.0 - 1e-7, 1.0 - 1e-9, 1.0 - 2.0 ** -53],
])


def _cdf_by_quadrature(density, x, breaks=()):
    # F at sorted x in [-pi, pi]: the density integrated over each gap
    # between consecutive points, from -pi, and added up; a node that
    # rounds to -pi is read at +pi, the same point of the circle
    lower = np.concatenate([[-math.pi], x[:-1]])
    pieces = []
    for lo, hi in zip(lower, x):
        inside = [b for b in breaks if lo < b < hi]
        piece, _ = quad(lambda t: density(wrap_angle(t)), lo, hi, points=inside or None, limit=200,
                        epsabs=1e-15, epsrel=1e-13) if hi > lo else (0.0, 0.0)
        pieces.append(piece)
    return np.cumsum(pieces)


class TestQuantiles:
    """Each quantile function inverts its analytic density's CDF."""

    def _check(self, quantile, density, breaks=()):
        x = np.asarray(quantile(_QUANTILE_U), dtype=float)
        assert np.all((x >= -math.pi) & (x <= math.pi))
        assert np.all(np.diff(x) >= 0)
        defect = np.abs(_cdf_by_quadrature(density, x, breaks) - _QUANTILE_U)
        assert np.max(defect) <= 1e-7

    def test_omni(self):
        self._check(OmniPattern().quantile, lambda x: aod_pdf(x, OmniPattern()))

    @pytest.mark.parametrize("hpbw_deg", [1.0, 60.0, 360.0])
    def test_gaussian(self, hpbw_deg):
        pattern = GaussianPattern(math.radians(hpbw_deg))
        self._check(pattern.quantile, lambda x: aod_pdf(x, pattern), breaks=[0.0])

    def test_tabulated_with_zero_stretch(self):
        pattern = TabulatedPattern(_GAPPED_SAMPLES)
        nodes = [a for a, _ in _GAPPED_SAMPLES]
        self._check(pattern.quantile, lambda x: aod_pdf(x, pattern), breaks=nodes)

    @pytest.mark.parametrize("mu", [0.5, 15.0, 40.0, 1e4])
    def test_von_mises(self, mu):
        self._check(LocalScattering(mu).quantile, lambda x: von_mises_pdf(x, mu), breaks=[0.0])

    def test_von_mises_zero_concentration_is_uniform(self):
        u = np.linspace(0.0, 1.0, 101)[:-1]
        assert np.array_equal(LocalScattering(0.0).quantile(u), OmniPattern().quantile(u))


def _spiked_table():
    # zero stretches (flat CDF segments) and one narrow spike, whose guide
    # cells span many nodes
    grid = np.linspace(-math.pi, math.pi, 4097)
    density = np.where(np.abs(grid) < 1.0, 0.2, 0.0) + np.where(np.abs(grid - 2.0) < 0.01, 50.0, 0.0)
    return _CdfTable(grid, density)


@st.composite
def _table_specs(draw):
    # A grid of 9-4097 nodes over a symmetric span, with a density made of a
    # base level (perhaps 0) and up to five features: zero stretches, narrow
    # spikes, and tails scaled down towards the smallest doubles.  Plain
    # values, so a falsifying example reads as the table it builds.
    nodes = draw(st.integers(9, 4097))
    features = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["zero", "spike", "tail"]))
        size = {"zero": st.integers(1, nodes), "spike": st.floats(1.0, 1e6),
                "tail": st.floats(1.0, 300.0)}[kind]
        features.append((kind, draw(st.integers(0, nodes - 1)), draw(size), draw(st.booleans())))
    return {
        "nodes": nodes,
        "half": draw(st.floats(1e-3, math.pi)),
        "base": draw(st.sampled_from([0.0, 1e-3, 1.0])),
        "features": features,
        # at least one spike, so the density is not all zero
        "peak": draw(st.integers(0, nodes - 1)),
        "seed": draw(st.integers(0, 2 ** 32 - 1)),
    }


def _table_from_spec(spec):
    nodes = spec["nodes"]
    density = np.full(nodes, spec["base"])
    for kind, start, size, flip in spec["features"]:
        if kind == "zero":
            density[start:start + size] = 0.0
        elif kind == "spike":
            density[start:start + (3 if flip else 1)] += size
        else:
            ramp = np.linspace(0.0, size, nodes - start)
            density[start:] *= 10.0 ** -(ramp[::-1] if flip else ramp)
    density[spec["peak"]] += 1.0
    return _CdfTable(np.linspace(-spec["half"], spec["half"], nodes), density)


def _probe_values(table, seed):
    # 0, the largest double below 1, every node below 1, the double just
    # below each node, and uniforms
    cdf = table.cdf
    return np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)],
        cdf[cdf < 1.0], np.nextafter(cdf[1:], 0.0),
        np.random.default_rng(seed).random(20_000),
    ])


class TestInvertCdf:
    """The guided inversion gives the bits of the edge-search route."""

    @pytest.mark.parametrize("table", [
        TabulatedPattern(_GAPPED_SAMPLES)._cdf_table,
        _von_mises_table(0.5),
        _von_mises_table(15.0),
        _von_mises_table(1e4),
        _spiked_table(),
    ], ids=["tabulated-zero-stretch", "von-mises-0.5", "von-mises-15", "von-mises-1e4", "spiked"])
    def test_matches_searchsorted(self, table):
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)],
            np.arange(_GUIDE_CELLS) / _GUIDE_CELLS,
            table.cdf[table.cdf < 1.0], np.nextafter(table.cdf[1:], 0.0),
            np.random.default_rng(9).random(200_000),
        ])
        assert np.array_equal(_invert_cdf(table, u), invert_cdf_searched(table.grid, table.cdf, u))
        assert np.array_equal(table.guide, guide_searched(table.cdf, _GUIDE_CELLS))

    @settings(max_examples=150, deadline=None)
    @given(_table_specs())
    def test_random_tables_match_searchsorted(self, spec):
        table = _table_from_spec(spec)
        assert np.array_equal(table.guide, guide_searched(table.cdf, _GUIDE_CELLS))
        u = _probe_values(table, spec["seed"])
        assert np.array_equal(_invert_cdf(table, u), invert_cdf_searched(table.grid, table.cdf, u))

    def test_batch_shape_is_kept(self):
        table = _spiked_table()
        u = np.random.default_rng(10).random((3, 7))
        assert np.array_equal(_invert_cdf(table, u), invert_cdf_searched(table.grid, table.cdf, u))
