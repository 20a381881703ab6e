"""Tests for the analytic angular densities."""

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import i0e, ndtri

from aoasim import angular, geometry, kernels
from aoasim.angular import (
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
from aoasim.kernels import _GRID_NODES, _GUIDE_CELLS, _CdfTable, _grid_nodes, _invert_cdf

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

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s[:7], "samples must hold at least 8 samples, got 7"),
        (lambda s: [(-math.pi, 1.0)] + s[1:], "samples[0][0] must lie in (-pi, pi], got -3.14159"),
        (lambda s: s[:2] + [(-2.75, 1.0)] + s[3:],
         "samples[2][0] must be greater than samples[1][0], got -2.75 after -2.5"),
        (lambda s: s[:3] + [(-1.5, -0.2)] + s[4:],
         "samples[3][1] must be finite and nonnegative, got -0.2"),
        (lambda s: [(a, 0.0) for a, _ in s], "samples must hold a positive amplitude, got all 0"),
    ])
    def test_tabulated_error_names_the_sample_in_radians(self, edit, message):
        # the rules of a scenario file's pattern.samples, named as the
        # constructor's argument
        samples = [(-3.0 + 0.5 * k, 1.0) for k in range(12)]
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            TabulatedPattern(tuple(edit(samples)))


class TestAodPdf:
    def test_omni_is_uniform(self):
        pattern = OmniPattern()
        assert aod_pdf(0.0, pattern) == pytest.approx(1 / TWO_PI, rel=1e-15)
        assert aod_pdf(2.5, pattern) == pytest.approx(1 / TWO_PI, rel=1e-15)

    @pytest.mark.parametrize("hpbw_deg", [30.0, 60.0, 120.0, 180.0, 360.0])
    def test_gaussian_normalizes(self, hpbw_deg):
        pattern = GaussianPattern(math.radians(hpbw_deg))
        assert quad_over_circle(lambda x: aod_pdf(x, pattern)) == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_narrowest_beam_is_finite_at_boresight(self):
        # sigma * sigma underflows to 0 for such a beam; (phi / sigma)^2 does not
        pattern = GaussianPattern(1e-300)
        sigma = pattern.sigma
        norm = 1.0 / (math.sqrt(math.pi) * sigma * math.erf(math.pi / sigma))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = aod_pdf(0.0, pattern)
            # off boresight (phi / sigma)^2 overflows to inf, and the density is 0
            away = aod_pdf(np.array([math.pi, -0.1, 1e-150, -2.0]), pattern)
        assert math.isfinite(value) and value == norm
        assert np.array_equal(away, np.zeros(4))

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

    @pytest.mark.parametrize("seed", range(6))
    def test_tabulated_amplitude_is_the_periodic_interpolation(self, seed):
        # bit for bit np.interp with period=2*pi, on the CDF table's grid and
        # on random angles with both ends, 0.0 and -0.0; every other pattern
        # has nodes at 0 and pi, and some amplitudes are zero
        rng = np.random.default_rng(seed)
        angles = rng.uniform(-math.pi, math.pi, int(rng.integers(8, 73)))
        if seed % 2:
            angles = np.append(angles, [0.0, math.pi])
        angles = np.unique(angles[angles > -math.pi])
        amps = rng.uniform(0.0, 2.0, angles.size) * (rng.random(angles.size) > 0.2)
        amps[0] = 1.0
        pattern = TabulatedPattern(tuple(zip(angles.tolist(), amps.tolist())))
        phi = np.concatenate([np.linspace(-math.pi, math.pi, kernels._GRID_NODES),
                              rng.uniform(-math.pi, math.pi, 10_000),
                              [-math.pi, math.pi, 0.0, -0.0]])
        expected = np.interp(phi, angles, amps, period=TWO_PI)
        np.testing.assert_array_equal(pattern.amplitude(phi).view(np.uint64),
                                      expected.view(np.uint64))


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

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_non_finite_concentration_rejected(self, mu):
        # NaN passes a sign check written as mu < 0
        with pytest.raises(ValueError, match="mu must be finite and nonnegative"):
            von_mises_pdf(0.1, mu)



class TestScaledBessel:
    """kernels._i0e, the von Mises normalization, against scipy.special.i0e."""

    def test_matches_scipy_from_zero_to_a_million(self):
        # np.i0 below mu = 700 and the asymptotic series from there on;
        # the largest relative difference measured was 6.6e-16
        mu = np.concatenate([
            np.linspace(0.0, 50.0, 501), np.geomspace(50.0, 1e6, 500),
            np.linspace(690.0, 710.0, 201), 700.0 + np.spacing(700.0) * np.arange(-3, 4),
        ])
        ours = np.array([kernels._i0e(float(m)) for m in mu])
        np.testing.assert_allclose(ours, i0e(mu), rtol=1e-15, atol=0.0)


def _ulps(actual, expected):
    """|actual - expected| in units in the last place of expected."""
    return np.abs(actual - expected) / np.spacing(np.abs(expected))


class TestNormalQuantile:
    """kernels._ndtri (AS241 in NumPy) against scipy.special.ndtri.

    Both err by a few ulps, by different routes; over 4e7 draws across
    [1e-300, 1) they differed by at most 8 ulps.
    """

    MAX_ULPS = 10

    def test_central_range_and_both_tails(self):
        rng = np.random.default_rng(2024)
        tails = 10.0 ** rng.uniform(-300.0, math.log10(0.075), 100_000)
        p = np.concatenate([
            rng.random(100_000), tails, 1.0 - tails[tails > 1e-15],
            1.0 - 2.0 ** -53 * np.arange(1, 1000), [1e-300, 0.075, 0.5, 0.925],
        ])
        assert _ulps(kernels._ndtri(p), ndtri(p)).max() <= self.MAX_ULPS

    @given(st.floats(min_value=1e-300, max_value=1.0, exclude_max=True))
    def test_within_the_bound_anywhere(self, p):
        [x] = kernels._ndtri(np.array([p]))
        assert _ulps(x, ndtri(p)) <= self.MAX_ULPS

    @pytest.mark.parametrize("switch", [0.075, 0.925, math.exp(-25.0), -math.expm1(-25.0)],
                             ids=["central-lower", "central-upper", "far-lower", "far-upper"])
    def test_monotone_across_branch_switches(self, switch):
        # Neighbouring doubles may step back by the rounding error, as in
        # any double-precision quantile; at a spacing where the exact
        # quantile rises by 32 ulps a step, the values rise strictly through
        # the switch from the central branch to the tail (|p - 1/2| = 0.425)
        # and from the near tail to the far one (r = 5).
        x = float(ndtri(switch))
        density = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        step = max(32.0 * np.spacing(abs(x)) * density, np.spacing(switch))
        p = switch + step * np.arange(-64, 65)
        r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
        branch = np.where(np.abs(p - 0.5) <= 0.425, 0, np.where(r <= 5.0, 1, 2))
        assert len(set(branch)) == 2  # the grid straddles the switch
        assert np.all(np.diff(kernels._ndtri(p)) > 0)

    def test_zero_probability_is_minus_pi_without_log_of_zero(self):
        # a 1-degree beam's truncation mass underflows to 0, so u = 0 is
        # p = 0, whose quantile -inf the clamp puts at -pi
        pattern = GaussianPattern(math.radians(1.0))
        with np.errstate(all="raise"):
            assert pattern._truncation[1] == 0.0
            assert pattern.quantile(0.0) == -math.pi
            assert pattern.quantile(np.array([0.0, 0.5])).tolist() == [-math.pi, 0.0]
            assert kernels._ndtri(np.array([0.0, 1.0])).tolist() == [-math.inf, math.inf]


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

    @pytest.mark.parametrize("field", ["mu", "kappa"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_local_scattering_must_be_finite_and_nonnegative(self, field, bad):
        # NaN passes a sign check written as x < 0, and the mixture of such
        # a local is NaN
        with pytest.raises(ValueError, match=f"{field} must be finite and nonnegative"):
            LocalScattering(**dict({"mu": 1.0, "kappa": 0.0}, **{field: bad}))

    @pytest.mark.parametrize("delayed", range(4))
    @pytest.mark.parametrize("kind", ["omni", "gaussian", "tabulated"])
    def test_equals_its_per_tap_definition(self, delayed, kind):
        # zeros, plus each weighted tap in tap order, plus the local term,
        # each from its public density: the same bits, and a float for a
        # scalar angle
        rng = np.random.default_rng(100 + 10 * delayed + len(kind))
        taps = make_profile(np.concatenate([[0.0], np.sort(rng.uniform(0.2, 10.0, delayed))]),
                            rng.uniform(0.1, 1.0, delayed + 1), 5)
        ellipses = ellipses_for_taps(taps, rng.uniform(0.0, 3000.0))
        pattern = {"omni": OmniPattern(),
                   "gaussian": GaussianPattern(rng.uniform(0.3, TWO_PI)),
                   "tabulated": TabulatedPattern(_GAPPED_SAMPLES)}[kind]
        phi = np.concatenate([np.linspace(-math.pi, math.pi, 721)[1:],
                              rng.uniform(-math.pi, math.pi, 200), [0.0, -0.0]])
        total = taps.total_power
        for mu_zero, kappa_zero in itertools.product((True, False), repeat=2):
            local = LocalScattering(mu=0.0 if mu_zero else rng.uniform(0.5, 50.0),
                                    kappa=0.0 if kappa_zero else rng.uniform(0.1, 3.0))

            def definition(angles):
                density = np.zeros(np.shape(angles))
                for ellipse, tap in zip(ellipses, taps.delayed):
                    term = delayed_aoa_pdf(angles, ellipse, pattern)
                    density = density + (tap.power / total) * term
                local_weight = (taps.taps[0].power / total) / (local.kappa + 1.0)
                return density + local_weight * von_mises_pdf(angles, local.mu)

            density, point_mass = composite_aoa_pdf(phi, ellipses, taps, pattern, local)
            assert np.array_equal(density, definition(phi))
            assert point_mass == (local.kappa / (local.kappa + 1.0)) * (taps.taps[0].power / total)
            for angle in (math.pi, 0.0, float(phi[300]), float(phi[-3])):
                value, _ = composite_aoa_pdf(angle, ellipses, taps, pattern, local)
                assert type(value) is float
                assert value == definition(angle)

    def test_checks_each_input_once(self, monkeypatch):
        # One scalar call on 4 delayed taps: the angles are checked by the
        # mixture and by its von Mises term, each eccentricity once, and no
        # angle is wrapped, as checked angles lie in (-pi, pi] already.
        calls = dict.fromkeys(("_check_angles", "_check_eccentricity", "wrap_angle"), 0)
        for module, name in itertools.product((angular, geometry), calls):
            if hasattr(module, name):
                def counted(*args, _name=name, _original=getattr(module, name)):
                    calls[_name] += 1
                    return _original(*args)

                monkeypatch.setattr(module, name, counted)
        taps = make_profile([0.0, 0.5, 1.0, 3.0, 7.0], [0.4, 0.2, 0.2, 0.1, 0.1], 5)
        ellipses = ellipses_for_taps(taps, 1000.0)
        local = LocalScattering(mu=5.0, kappa=0.5)
        composite_aoa_pdf(0.3, ellipses, taps, GaussianPattern(1.0), local)
        assert calls["_check_angles"] <= 2
        assert calls["_check_eccentricity"] == 4
        assert calls["wrap_angle"] == 0

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

    @pytest.mark.parametrize("index, tap, message", [
        (None, None, "taps must hold at least the zero-delay tap"),
        (2, Tap(math.nan, 0.5, 5), "taps[2].delay must be finite, got nan"),
        (2, Tap(2e-6, math.inf, 5), "taps[2].power must be positive and finite, got inf"),
        (2, Tap(2e-6, 0.5, 0), "taps[2].path_count must be at least 1, got 0"),
        (0, Tap(5e-7, 1.0, 5), "taps[0].delay must be 0 (the zero-delay tap), got 5e-07"),
        (2, Tap(5e-7, 0.5, 5),
         "taps[2].delay must be greater than taps[1].delay, got 5e-07 after 1e-06"),
    ])
    def test_each_tap_rule_names_the_tap_in_seconds(self, index, tap, message):
        taps = [Tap(0.0, 1.0, 5), Tap(1e-6, 0.5, 5), Tap(2e-6, 0.5, 5)]
        if index is None:
            taps = []
        else:
            taps[index] = tap
        with pytest.raises(ValueError, match=re.escape(message)):
            TapProfile(taps)

    def test_keeps_a_list_of_taps_as_a_tuple(self):
        taps = [Tap(0.0, 0.5, 5), Tap(1e-6, 0.5, 5)]
        assert TapProfile(taps).taps == tuple(taps)

    @pytest.mark.parametrize("count", [True, 2.0, np.float64(3.0), "5"])
    def test_path_count_must_be_an_integer(self, count):
        # a bool is an int to isinstance
        with pytest.raises(ValueError,
                           match=re.escape(f"tap path count must be an integer, got {count!r}")):
            TapProfile((Tap(0.0, 1.0, count),))

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

    @pytest.mark.parametrize("sampler", [
        OmniPattern(), GaussianPattern(math.radians(60.0)), GaussianPattern(math.radians(1.0)),
        TabulatedPattern(_GAPPED_SAMPLES), LocalScattering(0.0), LocalScattering(5.0),
    ], ids=["omni", "gaussian", "gaussian-narrow", "tabulated", "uniform-local", "von-mises"])
    def test_scalar_uniform_gives_the_one_element_result(self, sampler):
        # a Python float, an np.float64 and a 0-d array each give one angle,
        # the bits of the quantile of the 1-element array
        for u in [0.0, 0.3, 0.999]:
            [expected] = sampler.quantile(np.array([u]))
            for scalar in [u, np.float64(u), np.array(u)]:
                angle = sampler.quantile(scalar)
                assert np.ndim(angle) == 0
                assert np.asarray(angle).tobytes() == expected.tobytes()


def _spiked_table():
    # zero stretches (flat CDF segments) and one narrow spike, whose guide
    # cells span many nodes
    def density(grid):
        return np.where(np.abs(grid) < 1.0, 0.2, 0.0) + np.where(np.abs(grid - 2.0) < 0.01, 50.0, 0.0)

    return _CdfTable(math.pi, density, 4097)


def _grid(table):
    # the grid a table's nodes are rebuilt on
    return np.linspace(-table.half, table.half, table.cdf.size)


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
    return _CdfTable(spec["half"], lambda grid: density, nodes)


def _probe_values(table, seed):
    # 0, the largest double below 1, every node below 1, the double just
    # below each node, and uniforms
    cdf = table.cdf
    return np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)],
        cdf[cdf < 1.0], np.nextafter(cdf[1:], 0.0),
        np.random.default_rng(seed).random(20_000),
    ])


def _assert_guide_bounds_the_probes(table):
    # the node guide[k + 1] lies above the top of guide cell k, so the
    # probes of a u in cell k stop there without a bound of their own
    upper = table.guide[1:]
    inside = upper < table.cdf.size
    tops = np.arange(1, _GUIDE_CELLS + 1) / _GUIDE_CELLS
    assert np.all(table.cdf[upper[inside]] > tops[inside])


_TABLES = pytest.mark.parametrize("table", [
    TabulatedPattern(_GAPPED_SAMPLES)._cdf_table,
    _von_mises_table(0.5),
    _von_mises_table(15.0),
    _von_mises_table(1e4),
    _spiked_table(),
], ids=["tabulated-zero-stretch", "von-mises-0.5", "von-mises-15", "von-mises-1e4", "spiked"])


class TestInvertCdf:
    """The guided inversion gives the bits of the edge-search route."""

    @_TABLES
    def test_guide_bounds_the_probes(self, table):
        _assert_guide_bounds_the_probes(table)

    @_TABLES
    def test_matches_searchsorted(self, table):
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)],
            np.arange(_GUIDE_CELLS) / _GUIDE_CELLS,
            table.cdf[table.cdf < 1.0], np.nextafter(table.cdf[1:], 0.0),
            np.random.default_rng(9).random(200_000),
        ])
        assert np.array_equal(_invert_cdf(table, u), invert_cdf_searched(_grid(table), table.cdf, u))
        assert np.array_equal(table.guide, guide_searched(table.cdf, _GUIDE_CELLS))

    @settings(max_examples=150, deadline=None)
    @given(_table_specs())
    def test_random_tables_match_searchsorted(self, spec):
        table = _table_from_spec(spec)
        assert np.array_equal(table.guide, guide_searched(table.cdf, _GUIDE_CELLS))
        _assert_guide_bounds_the_probes(table)
        u = _probe_values(table, spec["seed"])
        assert np.array_equal(_invert_cdf(table, u), invert_cdf_searched(_grid(table), table.cdf, u))

    def test_batch_shape_is_kept(self):
        # uniforms anywhere, and a 2-d batch inside the guide cells that span
        # many nodes (the flat stretches), which the edge search closes; each
        # of its first row also as a scalar and as a 0-d array
        table = _spiked_table()
        rng = np.random.default_rng(10)
        wide = np.flatnonzero(np.diff(table.guide) > 3)
        cells = rng.choice(wide, size=(4, 50))
        batch = (cells + 0.999 * rng.random(cells.shape)) / _GUIDE_CELLS
        for u in [rng.random((3, 7)), batch, *batch[0], *map(np.array, batch[0])]:
            assert np.array_equal(_invert_cdf(table, u),
                                  invert_cdf_searched(_grid(table), table.cdf, u))

    @_TABLES
    def test_at_most_four_arrays_of_the_input_size_are_live(self, table):
        # lo, the upper CDF value, the result and one scratch array; the
        # allowance is for array headers and the call's frame, a few
        # hundred bytes whatever the size
        u = np.random.default_rng(11).random(20_000)
        _invert_cdf(table, u[:1])
        tracemalloc.start()
        try:
            _invert_cdf(table, u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * u.nbytes + 4096

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-3, math.pi), st.one_of(st.integers(9, 4097), st.just(_GRID_NODES)))
    def test_rebuilt_nodes_are_linspace_bit_for_bit(self, half, count):
        # every node as _grid_nodes rebuilds it, and the last as _invert_cdf
        # puts it (half itself), against the grid the table was built on
        table = _CdfTable(half, np.ones_like, count)
        grid = np.linspace(-half, half, count)
        nodes = _grid_nodes(table, np.arange(count), np.empty(count))
        nodes[-1] = table.half
        assert nodes.tobytes() == grid.tobytes()

    def test_table_keeps_twelve_bytes_a_node(self):
        # the CDF and the int32 guide, each its own buffer, and no other
        # node-sized array (no stored grid)
        table = TabulatedPattern(_GAPPED_SAMPLES)._cdf_table
        count = table.cdf.size
        assert count == _GRID_NODES
        assert table.cdf.dtype == np.float64 and table.guide.dtype == np.int32
        assert table.cdf.nbytes + table.guide.nbytes == 12 * count
        arrays = {name for name, value in vars(table).items() if isinstance(value, np.ndarray)}
        assert arrays == {"cdf", "guide"}
        assert table.cdf.base is None and table.guide.base is None

    def test_tabulated_build_peaks_under_four_and_a_half_node_arrays(self):
        # the grid, the density and the sums and counts in place; a build
        # that kept the grid and its temporaries peaked at 5 (2,565 KiB)
        TabulatedPattern(_GAPPED_SAMPLES)._cdf_table  # imports and caches warmed
        pattern = TabulatedPattern(_GAPPED_SAMPLES)
        tracemalloc.start()
        try:
            pattern._cdf_table
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * _GRID_NODES * 8
