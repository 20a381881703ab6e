"""Tests for the path-set generators."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from aoasim.angular import GaussianPattern, OmniPattern, TabulatedPattern, Tap, TapProfile
from aoasim.geometry import aod_to_aoa
from aoasim.montecarlo import (
    generate_trial,
    sample_aod,
    sample_local_aoa,
    sample_local_powers,
    sample_tap_powers,
)
from aoasim.scenario import ScenarioConfig

from helpers import (
    bessel_i0_series,
    bessel_i1_series,
    chi_square_equal_prob,
    gaussian_aod_quantiles,
    make_profile,
    tabulated_pattern_cdf,
)

ALPHA = 0.001


class TestSampleAod:
    def test_omni_uniform_ks(self):
        rng = np.random.default_rng(100)
        draws = sample_aod(OmniPattern(), rng, size=1_000_000)
        result = kstest(draws, "uniform", args=(-math.pi, 2 * math.pi))
        assert result.pvalue > ALPHA

    def test_gaussian_sample_std(self):
        # Truncation at +/-pi is negligible at this beamwidth, so the
        # sample std should match sigma/sqrt(2) of the pattern density.
        pattern = GaussianPattern(math.radians(60.0))
        rng = np.random.default_rng(101)
        draws = sample_aod(pattern, rng, size=1_000_000)
        expected = math.degrees(pattern.sigma / math.sqrt(2.0))
        assert expected == pytest.approx(25.48, abs=0.01)
        assert math.degrees(np.std(draws)) == pytest.approx(expected, rel=0.02)

    @pytest.mark.parametrize("hpbw_deg", [60.0, 360.0])
    def test_gaussian_chi_square(self, hpbw_deg):
        pattern = GaussianPattern(math.radians(hpbw_deg))
        rng = np.random.default_rng(102)
        draws = sample_aod(pattern, rng, size=1_000_000)
        edges = gaussian_aod_quantiles(np.linspace(0, 1, 201), pattern.sigma)
        stat, crit = chi_square_equal_prob(draws, edges, alpha=ALPHA)
        assert stat < crit

    def test_gaussian_truncated_support(self):
        pattern = GaussianPattern(2 * math.pi)
        rng = np.random.default_rng(103)
        draws = sample_aod(pattern, rng, size=200_000)
        assert np.all(np.abs(draws) <= math.pi)

    def test_tabulated_matches_exact_cdf(self):
        angles = np.linspace(-2.9, 3.0, 14)
        samples = tuple((float(a), 1.0 + 0.8 * math.cos(a) ** 2) for a in angles)
        pattern = TabulatedPattern(samples)
        rng = np.random.default_rng(104)
        draws = sample_aod(pattern, rng, size=200_000)
        result = kstest(draws, lambda x: tabulated_pattern_cdf(samples, x))
        assert result.pvalue > ALPHA


class TestSampleLocalAoa:
    def test_uniform_when_unconcentrated(self):
        rng = np.random.default_rng(110)
        draws = sample_local_aoa(0.0, rng, size=1_000_000)
        result = kstest(draws, "uniform", args=(-math.pi, 2 * math.pi))
        assert result.pvalue > ALPHA

    def test_moderate_concentration_moments(self):
        rng = np.random.default_rng(111)
        draws = sample_local_aoa(5.0, rng, size=1_000_000)
        circular_mean = math.atan2(np.mean(np.sin(draws)), np.mean(np.cos(draws)))
        assert abs(circular_mean) < 0.01
        expected_cos = bessel_i1_series(5.0) / bessel_i0_series(5.0)
        assert np.mean(np.cos(draws)) == pytest.approx(expected_cos, rel=0.01)

    def test_high_concentration_is_narrow(self):
        rng = np.random.default_rng(112)
        draws = sample_local_aoa(100.0, rng, size=200_000)
        assert np.mean(np.abs(draws) < 0.4) > 0.99

    def test_negative_concentration_rejected(self):
        with pytest.raises(ValueError):
            sample_local_aoa(-1.0, np.random.default_rng(0), 10)


class TestSampleTapPowers:
    def test_support(self):
        rng = np.random.default_rng(120)
        draws = sample_tap_powers(0.8, 40, rng)
        assert draws.shape == (40,)
        assert np.all(draws >= 0) and np.all(draws <= 2 * 0.8 / 40)

    def test_single_path_mean(self):
        rng = np.random.default_rng(121)
        draws = np.array([sample_tap_powers(1.0, 1, rng)[0] for _ in range(100_000)])
        assert np.all((draws >= 0) & (draws <= 2.0))
        assert np.mean(draws) == pytest.approx(1.0, rel=0.01)

    def test_expected_tap_total(self):
        rng = np.random.default_rng(122)
        totals = [sample_tap_powers(0.6, 25, rng).sum() for _ in range(10_000)]
        assert np.mean(totals) == pytest.approx(0.6, rel=0.01)

    def test_invalid_inputs_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_tap_powers(0.0, 10, rng)
        with pytest.raises(ValueError):
            sample_tap_powers(1.0, 0, rng)
        with pytest.raises(ValueError):
            sample_tap_powers(1.0, 2.5, rng)


class TestSampleLocalPowers:
    def test_zero_kappa_matches_tap_power_contract(self):
        draws_a = sample_local_powers(0.5, 20, 0.0, np.random.default_rng(42))
        draws_b = sample_tap_powers(0.5, 20, np.random.default_rng(42))
        np.testing.assert_array_equal(draws_a, draws_b)

    def test_unit_kappa_support_and_mean(self):
        rng = np.random.default_rng(123)
        totals = []
        for _ in range(10_000):
            draws = sample_local_powers(1.0, 10, 1.0, rng)
            assert np.all((draws >= 0) & (draws <= 0.1))
            totals.append(draws.sum())
        assert np.mean(totals) == pytest.approx(0.5, rel=0.01)

    def test_strong_rician_suppression(self):
        rng = np.random.default_rng(124)
        totals = [sample_local_powers(1.0, 10, 3.0, rng).sum() for _ in range(10_000)]
        assert np.mean(totals) == pytest.approx(0.25, rel=0.01)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            sample_local_powers(1.0, 10, -0.5, np.random.default_rng(0))


def _scenario(kappa=0.0, mu=4.0, seed=7, counts=(10, 20, 30)):
    profile = make_profile([0.0, 1.0, 3.0], [0.3, 0.4, 0.3], 10)
    taps = tuple(
        Tap(tap.delay, tap.power, count)
        for tap, count in zip(profile.taps, counts)
    )
    return ScenarioConfig(
        distance=1000.0,
        taps=TapProfile(taps),
        pattern=GaussianPattern(math.radians(120.0)),
        kappa=kappa,
        mu=mu,
        trials=10,
        bins=90,
        master_seed=seed,
    )


class TestGenerateTrial:
    def test_path_count_without_direct(self):
        paths = generate_trial(_scenario(kappa=0.0), 0)
        assert paths.angles.size == paths.powers.size == paths.tap_index.size == 60
        assert paths.direct_power == 0.0

    def test_path_count_with_direct(self):
        config = _scenario(kappa=2.0)
        paths = generate_trial(config, 0)
        assert paths.angles.size == 60
        p0 = config.taps.taps[0].power
        assert paths.direct_power == pytest.approx(2.0 * p0 / 3.0, rel=1e-12)

    def test_bitwise_determinism(self):
        config = _scenario(kappa=1.0, seed=99)
        a, b = generate_trial(config, 5), generate_trial(config, 5)
        assert np.array_equal(a.angles, b.angles)
        assert np.array_equal(a.powers, b.powers)
        assert np.array_equal(a.tap_index, b.tap_index)
        assert a.direct_power == b.direct_power

    def test_trials_differ(self):
        config = _scenario(seed=99)
        a, b = generate_trial(config, 0), generate_trial(config, 1)
        assert not np.array_equal(a.angles, b.angles)
        assert not np.array_equal(a.powers, b.powers)

    def test_all_angles_in_range(self):
        config = _scenario(kappa=0.5, mu=0.0)
        for index in range(20):
            angles = generate_trial(config, index).angles
            assert np.all(angles > -math.pi) and np.all(angles <= math.pi)

    def test_tap_indices_match_profile(self):
        config = _scenario(kappa=0.0)
        paths = generate_trial(config, 3)
        assert np.bincount(paths.tap_index).tolist() == [10, 20, 30]

    def test_delayed_taps_compress_toward_boresight(self):
        # every delayed-tap arrival must stay within the image of the
        # departure range under its ellipse map
        config = _scenario(kappa=0.0)
        from aoasim.angular import ellipses_for_taps

        ellipses = ellipses_for_taps(config.taps, config.distance)
        for index in range(10):
            paths = generate_trial(config, index)
            for ellipse in ellipses:
                limit = aod_to_aoa(math.pi, ellipse.eccentricity)
                arrivals = paths.angles[paths.tap_index == ellipse.tap_index]
                assert np.all(np.abs(arrivals) <= limit)

    def test_expected_total_power(self):
        config = _scenario(kappa=1.0)
        totals = [generate_trial(config, i).total_power() for i in range(2_000)]
        assert np.mean(totals) == pytest.approx(1.0, rel=0.01)

    def test_per_tap_arrival_distribution(self):
        # aggregated per-tap arrival angles across trials follow the
        # per-ellipse analytic density (quantile-binned chi-square)
        from aoasim.angular import ellipses_for_taps

        config = _scenario(kappa=0.0, counts=(10, 40, 40))
        ellipses = {e.tap_index: e for e in ellipses_for_taps(config.taps, config.distance)}
        collected = {1: [], 2: []}
        for index in range(400):
            paths = generate_trial(config, index)
            for tap_index, angles in collected.items():
                angles.extend(paths.angles[paths.tap_index == tap_index])
        sigma = config.pattern.sigma
        for tap_index, angles in collected.items():
            ecc = ellipses[tap_index].eccentricity
            aod_edges = gaussian_aod_quantiles(np.linspace(0, 1, 21), sigma)
            edges = np.asarray(aod_to_aoa(aod_edges, ecc), dtype=float)
            edges[0], edges[-1] = -math.pi - 1e-9, math.pi + 1e-9
            stat, crit = chi_square_equal_prob(np.array(angles), edges, alpha=ALPHA)
            assert stat < crit

    def test_negative_trial_index_rejected(self):
        with pytest.raises(ValueError):
            generate_trial(_scenario(), -1)

