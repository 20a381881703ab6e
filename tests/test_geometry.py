"""Tests for the multi-elliptical geometry primitives."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from aoasim.geometry import (
    SPEED_OF_LIGHT,
    _half_angle_ratio,
    aoa_jacobian,
    aoa_to_aod,
    aod_to_aoa,
    ellipse_params,
    wrap_angle,
)
from aoasim.kernels import _half_angle_map


class TestWrapAngle:
    def test_identity_inside_range(self):
        for x in [-3.0, -0.5, 0.0, 1.0, math.pi]:
            assert wrap_angle(x) == x

    def test_negative_pi_wraps_to_positive(self):
        assert wrap_angle(-math.pi) == math.pi

    def test_multiple_turns(self):
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-3.5 * math.pi) == pytest.approx(0.5 * math.pi)

    def test_array_input(self):
        out = wrap_angle(np.array([0.0, 2 * math.pi + 0.25, -math.pi]))
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.25)
        assert out[2] == math.pi

    def test_result_always_in_range(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-50, 50, 10000)
        w = wrap_angle(x)
        assert np.all(w > -math.pi) and np.all(w <= math.pi)

    def test_same_bits_as_the_modulo_formula(self):
        def reference(phi):
            arr = np.asarray(phi, dtype=float)
            wrapped = np.mod(arr, 2 * np.pi)
            wrapped = np.where(wrapped > np.pi, wrapped - 2 * np.pi, wrapped)
            return np.where((arr > -np.pi) & (arr <= np.pi), arr, wrapped)

        pi = math.pi
        edges = [-pi, pi, -0.0, 0.0, np.nextafter(pi, np.inf), np.nextafter(-pi, -np.inf),
                 np.nextafter(pi, 0.0), np.nextafter(-pi, 0.0), 2 * pi, -2 * pi]
        odd = [np.inf, -np.inf, np.nan, 1e300, -1e300, 7.5, -40.0]
        in_range = np.random.default_rng(4).uniform(-pi, pi, 64)
        cases = [np.array(edges + odd), np.array(edges[:4]), in_range,
                 np.append(in_range, -pi).reshape(5, 13), np.append(in_range, np.nan),
                 np.empty(0), np.empty((2, 0))]
        with np.errstate(invalid="ignore"):  # np.mod of an infinity is NaN
            for arr in cases:
                out = wrap_angle(arr)
                assert out.shape == arr.shape
                assert np.array_equal(out, reference(arr), equal_nan=True)
                assert np.array_equal(np.signbit(out), np.signbit(reference(arr)))
            for x in edges + odd:
                out = wrap_angle(float(x))
                assert isinstance(out, float)
                assert np.array_equal(out, reference(x), equal_nan=True)
                assert math.copysign(1.0, out) == math.copysign(1.0, float(reference(x)))


class TestEllipseParams:
    def test_zero_distance_gives_circle(self):
        geom = ellipse_params(0.0, 1e-6)
        assert geom.eccentricity == 0.0
        assert geom.major_axis == pytest.approx(SPEED_OF_LIGHT * 1e-6)

    def test_one_microsecond_tap(self):
        geom = ellipse_params(1000.0, 1e-6)
        assert geom.major_axis == pytest.approx(1299.792458, abs=1e-9)
        assert geom.eccentricity == pytest.approx(0.769353, abs=1e-6)

    def test_ten_microsecond_tap(self):
        geom = ellipse_params(1000.0, 10e-6)
        assert geom.major_axis == pytest.approx(3997.92458, abs=1e-9)
        assert geom.eccentricity == pytest.approx(0.250130, abs=1e-6)

    @pytest.mark.parametrize("delay", [0.0, -1e-6])
    def test_nonpositive_delay_rejected(self, delay):
        with pytest.raises(ValueError):
            ellipse_params(100.0, delay)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            ellipse_params(-1.0, 1e-6)

    @pytest.mark.parametrize("distance,delay,name", [
        (math.nan, 1e-6, "distance"), (math.inf, 1e-6, "distance"),
        (100.0, math.nan, "delay"), (100.0, math.inf, "delay"),
    ])
    def test_non_finite_input_rejected(self, distance, delay, name):
        # NaN passes a sign check written as x < 0, giving EllipseGeometry(nan, nan)
        with pytest.raises(ValueError, match=f"^{name} must be "):
            ellipse_params(distance, delay)

    def test_delay_lost_beside_the_distance_rejected(self):
        # c * 1e-15 s = 3e-7 m is below half an ulp of 1e12 m, so distance
        # + c * delay rounds to the distance: eccentricity 1, not below it
        with pytest.raises(ValueError, match=r"^delay 1e-15 s is too short for distance "
                                             r"1000000000000\.0 m: "):
            ellipse_params(1e12, 1e-15)
        assert ellipse_params(1e12, 1e-9).eccentricity < 1.0

    def test_invariants_over_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            d = rng.uniform(0, 5000)
            tau = rng.uniform(1e-8, 1e-4)
            geom = ellipse_params(d, tau)
            assert 0.0 <= geom.eccentricity < 1.0
            assert geom.major_axis >= d


class TestAodToAoa:
    def test_boresight_fixed_point(self):
        for e in [0.0, 0.3, 0.99]:
            assert aod_to_aoa(0.0, e) == 0.0

    def test_back_lobe_fixed_point(self):
        for e in [0.0, 0.3, 0.99, 0.999999]:
            assert aod_to_aoa(math.pi, e) == math.pi

    def test_zero_eccentricity_is_identity(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-math.pi, math.pi, 1000)
        assert np.array_equal(aod_to_aoa(x, 0.0), x)

    def test_known_value_half_eccentricity(self):
        # cos(phi_r) = (2e + 0) / (1 + e^2) = 1 / 1.25 = 0.8 at phi_t = pi/2
        assert aod_to_aoa(math.pi / 2, 0.5) == pytest.approx(math.acos(0.8), abs=1e-12)
        assert aod_to_aoa(math.pi / 2, 0.5) == pytest.approx(0.643501, abs=1e-6)

    def test_odd_symmetry(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, math.pi - 1e-9, 2000)
        for e in [0.1, 0.5, 0.9]:
            np.testing.assert_array_equal(aod_to_aoa(-x, e), -aod_to_aoa(x, e))

    @pytest.mark.parametrize("e", [0.0, 0.25, 0.5, 0.769, 0.9, 0.99])
    def test_strictly_increasing_on_upper_half(self, e):
        phi = np.linspace(1e-6, math.pi - 1e-6, 1000)
        mapped = aod_to_aoa(phi, e)
        assert np.all(np.diff(mapped) > 0)

    def test_compression_never_expands(self):
        rng = np.random.default_rng(7)
        phi = rng.uniform(-math.pi, math.pi, 20000)
        ecc = rng.uniform(0, 1, 20000)
        for x, e in zip(phi, ecc):
            assert abs(aod_to_aoa(x, e)) <= abs(x)

    def test_degenerate_limit_collapses_to_boresight(self):
        x = np.linspace(-3.0, 3.0, 101)
        mapped = aod_to_aoa(x, 0.999999)
        assert np.all(np.abs(mapped) < 0.01)

    @pytest.mark.parametrize("e", [1.0, 1.5, -0.01, float("nan")])
    def test_invalid_eccentricity_rejected(self, e):
        with pytest.raises(ValueError):
            aod_to_aoa(0.5, e)

    def test_scalar_in_scalar_out(self):
        out = aod_to_aoa(0.5, 0.3)
        assert isinstance(out, float)

    def test_one_eccentricity_per_column_maps_each_column_alone(self):
        # a batch of departures, one eccentricity per column (last axis):
        # each column is bit for bit the scalar-eccentricity map of that
        # column, and the closed form with the fixed point at pi; e = 0
        # columns, and e so small that the ratio rounds to 1, come back
        # unchanged, and +/-pi stay on pi
        ecc = np.array([0.0, 0.3, 0.0, 0.9, 1e-17, 0.999999, 0.5])
        phi = np.random.default_rng(11).uniform(-math.pi, math.pi, (3, 400, ecc.size))
        phi[0, 0], phi[1, 1], phi[2, 2] = math.pi, -math.pi, 0.0
        mapped = aod_to_aoa(phi, ecc)
        assert mapped.shape == phi.shape
        for column, e in enumerate(ecc):
            departures = np.ascontiguousarray(phi[..., column])
            alone = aod_to_aoa(departures, e)
            ratio = (1.0 - e) / (1.0 + e)
            wrapped = wrap_angle(departures)
            closed_form = np.where(wrapped == math.pi, math.pi,
                                   2.0 * np.arctan(ratio * np.tan(0.5 * wrapped)))
            expected = wrapped if ratio == 1.0 else closed_form
            assert mapped[..., column].tobytes() == alone.tobytes() == expected.tobytes()
        for column in (0, 2, 4):
            assert mapped[..., column].tobytes() == wrap_angle(phi[..., column]).tobytes()
        assert mapped[0, 0].tolist() == mapped[1, 1].tolist() == [math.pi] * ecc.size

    @pytest.mark.parametrize("ecc", [
        np.array([0.3, 0.0, 0.9, 1e-17, 0.999999]),
        np.zeros(4),
    ], ids=["mixed-columns", "distance-0"])
    def test_unwrapped_map_of_quantiles_equals_aod_to_aoa(self, ecc):
        # the generation path maps quantiles, which lie on [-pi, pi], with
        # no wrap of its own: at exactly -pi and pi, in columns whose ratio
        # is 1 and on a distance-0 scenario (every ratio 1) it gives the
        # bits of aod_to_aoa, which wraps first; -pi comes out as pi
        phi = np.random.default_rng(12).uniform(-math.pi, math.pi, (40, ecc.size))
        phi[0], phi[1], phi[2] = -math.pi, math.pi, 0.0
        mapped = _half_angle_map(phi, _half_angle_ratio(ecc))
        assert mapped.tobytes() == aod_to_aoa(phi, ecc).tobytes()
        assert mapped[:2].tolist() == [[math.pi] * ecc.size] * 2
        for e in ecc:
            for angle in (-math.pi, math.pi):
                assert _half_angle_map(angle, _half_angle_ratio(e)) == math.pi == aod_to_aoa(angle, e)

    @pytest.mark.parametrize("bad", [1.0, 1.5, -0.01, float("nan"), float("inf")])
    def test_any_bad_column_eccentricity_is_named(self, bad):
        ecc = np.array([0.2, 0.0, bad, 0.7])
        with pytest.raises(ValueError, match=re.escape(f"[0, 1), got {bad}")):
            aod_to_aoa(np.zeros((2, 4)), ecc)
        with pytest.raises(ValueError, match=re.escape(f"[0, 1), got {bad}")):
            aod_to_aoa(0.5, bad)


class TestAoaToAod:
    def test_round_trip_random(self):
        rng = np.random.default_rng(8)
        phi = rng.uniform(-math.pi, math.pi, 10000)
        ecc = rng.uniform(0, 1, 10000)
        for x, e in zip(phi, ecc):
            assert aoa_to_aod(aod_to_aoa(x, e), e) == pytest.approx(x, abs=1e-9)

    def test_round_trip_near_back_lobe(self):
        for e in [0.0, 0.4, 0.9, 0.999]:
            for x in [math.pi - 1e-3, math.pi - 1e-6, -math.pi + 1e-6]:
                assert aoa_to_aod(aod_to_aoa(x, e), e) == pytest.approx(x, abs=1e-6)

    def test_inverse_of_known_value(self):
        assert aoa_to_aod(0.6435011087932843, 0.5) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_identity_at_zero_eccentricity(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-math.pi, math.pi, 100)
        assert np.array_equal(aoa_to_aod(x, 0.0), x)

    def test_invalid_eccentricity_rejected(self):
        with pytest.raises(ValueError):
            aoa_to_aod(0.1, 1.0)


class TestAoaJacobian:
    def test_unit_at_zero_eccentricity(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-math.pi, math.pi, 100)
        assert np.all(aoa_jacobian(x, 0.0) == 1.0)

    def test_boresight_and_back_lobe_limits(self):
        for e in [0.2, 0.5, 0.9]:
            assert aoa_jacobian(0.0, e) == pytest.approx((1 - e) / (1 + e), rel=1e-14)
            assert aoa_jacobian(math.pi, e) == pytest.approx((1 + e) / (1 - e), rel=1e-12)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(12)
        step = 1e-5
        for _ in range(50):
            e = rng.uniform(0, 0.99)
            phi = rng.uniform(-3.0, 3.0, 200)
            numeric = (aod_to_aoa(phi + step, e) - aod_to_aoa(phi - step, e)) / (2 * step)
            analytic = aoa_jacobian(phi, e)
            assert np.max(np.abs(numeric - analytic) / analytic) < 1e-6

    @pytest.mark.parametrize("e", [0.0, 0.3, 0.769, 0.95])
    def test_pushforward_of_uniform_density_normalizes(self, e):
        # If departures are uniform, integral of jacobian / (2 pi) over a
        # period must be exactly one (the arrival density normalization).
        value, _ = quad(lambda x: aoa_jacobian(x, e) / (2 * math.pi), -math.pi, math.pi)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_strictly_positive(self):
        rng = np.random.default_rng(13)
        phi = rng.uniform(-math.pi, math.pi, 1000)
        ecc = rng.uniform(0, 0.999999, 1000)
        for x, e in zip(phi, ecc):
            assert aoa_jacobian(x, e) > 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("function", [aod_to_aoa, aoa_to_aod, aoa_jacobian],
                         ids=lambda function: function.__name__)
def test_non_finite_angle_rejected(function, bad):
    # unchecked, aoa_to_aod(nan, 0.5) returned nan, and aod_to_aoa and
    # aoa_jacobian of inf warned of an invalid value in NumPy
    for phi in (bad, np.array([0.5, bad, -1.0])):
        with pytest.raises(ValueError, match="^angles must be finite$"):
            function(phi, 0.5)
