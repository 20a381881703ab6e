"""Tests for the path-set generators."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from aoasim.angular import (
    GaussianPattern,
    LocalScattering,
    OmniPattern,
    TabulatedPattern,
    Tap,
    TapProfile,
)
from aoasim.geometry import aod_to_aoa, wrap_angle
from aoasim.montecarlo import _power_scales, generate_chunk, generate_trial, sample_aod
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


def sample_local_aoa(mu, rng, size):
    # size local arrival angles, drawn as generate_chunk draws them
    return wrap_angle(LocalScattering(mu).quantile(rng.random(size)))


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


def _power_config(taps, kappa=0.0):
    # taps: (power, path count) pairs, the first at zero delay
    return ScenarioConfig(
        distance=1000.0,
        taps=TapProfile(tuple(Tap(k * 1e-6, p, n) for k, (p, n) in enumerate(taps))),
        pattern=OmniPattern(),
        kappa=kappa,
        mu=0.0,
    )


def _tap_powers(config, tap, trials):
    # per-path powers of one tap, one row per trial
    batch = generate_chunk(config, (config.pattern,), 0, trials)
    return batch.powers[:, batch.tap_index == tap]


class TestSampleTapPowers:
    """Per-path powers of a delayed tap: uniform on [0, 2 P / paths)."""

    def test_support(self):
        draws = _tap_powers(_power_config([(0.2, 5), (0.8, 40)]), 1, 50)
        assert draws.shape == (50, 40)
        assert np.all(draws >= 0) and np.all(draws <= 2 * 0.8 / 40)

    def test_single_path_mean(self):
        draws = _tap_powers(_power_config([(0.5, 3), (1.0, 1)]), 1, 100_000)
        assert np.all((draws >= 0) & (draws <= 2.0))
        assert np.mean(draws) == pytest.approx(1.0, rel=0.01)

    def test_expected_tap_total(self):
        totals = _tap_powers(_power_config([(0.4, 2), (0.6, 25)]), 1, 10_000).sum(axis=1)
        assert np.mean(totals) == pytest.approx(0.6, rel=0.01)

    def test_invalid_inputs_rejected(self):
        # power and path count are checked once, when the profile is built
        for power, count in ((0.0, 10), (1.0, 0), (1.0, 2.5)):
            with pytest.raises(ValueError):
                _power_config([(1.0, 5), (power, count)])


class TestSampleLocalPowers:
    """Per-path powers of the zero-delay tap: uniform on [0, 2 P_0 / ((1 + kappa) paths))."""

    def test_zero_kappa_matches_tap_power_contract(self):
        scales = _power_scales(_power_config([(0.5, 20), (0.5, 20)]))
        assert np.array_equal(scales, np.full(40, 2 * 0.5 / 20))

    def test_unit_kappa_support_and_mean(self):
        draws = _tap_powers(_power_config([(1.0, 10), (0.5, 3)], kappa=1.0), 0, 10_000)
        assert np.all((draws >= 0) & (draws <= 0.1))
        assert np.mean(draws.sum(axis=1)) == pytest.approx(0.5, rel=0.01)

    def test_strong_rician_suppression(self):
        draws = _tap_powers(_power_config([(1.0, 10)], kappa=3.0), 0, 10_000)
        assert np.mean(draws.sum(axis=1)) == pytest.approx(0.25, rel=0.01)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            _power_config([(1.0, 10)], kappa=-0.5)


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
            for tap_index, ellipse in enumerate(ellipses, start=1):
                limit = aod_to_aoa(math.pi, ellipse.eccentricity)
                arrivals = paths.angles[paths.tap_index == tap_index]
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
        ellipses = dict(enumerate(ellipses_for_taps(config.taps, config.distance), start=1))
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

