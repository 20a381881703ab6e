"""Tests for the path-set generators."""

import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from aoasim import montecarlo
from aoasim.angular import (
    GaussianPattern,
    LocalScattering,
    OmniPattern,
    TabulatedPattern,
    Tap,
    TapProfile,
    ellipses_for_taps,
)
from aoasim.estimation import _bins
from aoasim.geometry import aoa_to_aod, aod_to_aoa, wrap_angle
from aoasim.montecarlo import generate_chunk, generate_trial, sample_aod
from aoasim.scenario import ScenarioConfig, trials_per_chunk

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
    batch = generate_chunk(config, 0, trials)
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
        scales = _power_config([(0.5, 20), (0.5, 20)]).power_scales
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

    @pytest.mark.parametrize("trial_index, message", [
        (1.5, "trial_index must be an integer, got 1.5"),
        (True, "trial_index must be an integer, got True"),
        (-1, "trial_index must be at least 0, got -1"),
    ])
    def test_trial_index_checked_at_the_boundary(self, trial_index, message):
        # unchecked, 1.5 failed in NumPy's advance with a TypeError and True
        # ran as trial 1
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_trial(_scenario(), trial_index)


class TestStreamFormat:
    """Stream format v3 (README, Determinism) against a serial draw.

    The expected uniforms come from one serial PCG64DXSM draw seeded by
    SeedSequence(seed), reshaped to one row of W = 2P per trial, with no
    call into aoasim: the offsets and the width that draw_uniforms
    reaches by advance are checked, not copied.  11 paths per trial, so
    W = 22 is no multiple of 4.
    """

    PATHS, TRIALS, SEED = 11, 10, 2024

    def _config(self):
        return _scenario(kappa=0.5, seed=self.SEED, counts=(4, 1, 6))

    def _serial(self):
        width = 2 * self.PATHS
        stream = np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(self.SEED)))
        return stream.random(self.TRIALS * width).reshape(self.TRIALS, width)

    @pytest.mark.parametrize("first, stop", [(0, 10), (3, 7), (9, 10), (4, 5)])
    def test_draw_uniforms_reads_the_serial_rows(self, first, stop):
        drawn = montecarlo.draw_uniforms(self._config(), first, stop)
        assert drawn.tobytes() == self._serial()[first:stop].tobytes()

    def test_powers_are_the_power_columns_scaled(self):
        config, u = self._config(), self._serial()
        for trial in range(self.TRIALS):
            powers = generate_trial(config, trial).powers
            expected = u[trial, self.PATHS:2 * self.PATHS] * config.power_scales
            assert powers.tobytes() == expected.tobytes()


LONG_SPREAD = Path(__file__).parents[1] / "scenarios" / "synthetic_long_spread.json"


def _wide_config():
    # One trial shaped like the benchmark's simulate_wide: the shipped
    # long-spread scenario at 5,000 paths on each of its 5 taps, with a
    # 72-sample tabulated pattern, so both grid samplers run
    doc = json.loads(LONG_SPREAD.read_text(encoding="utf-8"))
    rng = np.random.default_rng(5)
    doc.update(trials=1, bins=3600, kappa=0.0, pattern={
        "kind": "tabulated",
        "samples": [[-175.0 + 5.0 * k, rng.uniform(0.1, 1.0)] for k in range(72)],
    })
    doc["taps"] = [dict(tap, paths=5000) for tap in doc["taps"]]
    return ScenarioConfig.from_json_dict(doc)


class TestGenerateChunk:
    def test_circles_give_the_wrapped_departures(self, monkeypatch):
        # distance 0: every ellipse is a circle (ratio 1), so each delayed
        # arrival angle is its departure quantile, bit for bit, as
        # aod_to_aoa gives it; a uniform of 0 departs at -pi and arrives
        # at pi
        config = ScenarioConfig(distance=0.0, taps=make_profile([0.0, 1.0, 2.0], [1, 1, 1], 6),
                                pattern=OmniPattern(), kappa=0.0, mu=4.0, master_seed=3)
        uniforms = montecarlo.draw_uniforms(config, 0, 4)
        uniforms[:, 6:18:5] = 0.0
        monkeypatch.setattr(montecarlo, "draw_uniforms", lambda *args: uniforms)
        batch = generate_chunk(config, 0, 4)
        departures = config.pattern.quantile(uniforms[:, 6:18])
        delayed = batch.angles[:, 6:]
        eccentricities = np.repeat([e.eccentricity for e in ellipses_for_taps(config.taps, 0.0)],
                                   config.taps.path_counts[1:])
        assert delayed.tobytes() == aod_to_aoa(departures, eccentricities).tobytes()
        assert delayed.tobytes() == wrap_angle(departures).tobytes()
        assert np.all(delayed[:, ::5] == math.pi)

    def test_wide_trial_peak_memory(self):
        # 25,000 paths in one trial: its uniforms (400 kB), powers, local
        # angles and path-set angles, plus the grid sampler's at most four
        # arrays of the 20,000 departures (640 kB), stay under 1.5 MB
        config = _wide_config()
        assert config.taps.tap_index.size == 25_000
        warm = generate_chunk(config, 0, 1)  # both CDF tables built before tracing
        tracemalloc.start()
        try:
            batch = generate_chunk(config, 0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.angles.tobytes() == warm.angles.tobytes()
        assert peak <= 1_500_000


def _both_routes(config, patterns):
    """(searched, indexed) cells of every chunk and pattern of a run, each
    from the chunk's one draw: BinSearch's from the uniforms, and bins.index
    of _chunk_angles' angles."""
    bins = _bins(config.bins)
    search = montecarlo.BinSearch(config, patterns, bins)
    step = trials_per_chunk(config)
    searched, indexed = [], []
    for first in range(0, config.trials, step):
        uniforms = montecarlo.draw_uniforms(config, first, min(first + step, config.trials))
        cells = list(search.cells(uniforms))
        assert len(cells) == len(patterns)
        for pattern, pattern_cells in zip(patterns, cells):
            searched.append(pattern_cells)
            indexed.append(bins.index(montecarlo._chunk_angles(config, pattern, uniforms)))
    return np.concatenate(searched), np.concatenate(indexed)


def _long_spread(**edits):
    doc = json.loads(LONG_SPREAD.read_text(encoding="utf-8"))
    doc.update(edits)
    return ScenarioConfig.from_json_dict(doc)


def _benchmark_tabulated(seed=5):
    # 72 samples every 5 degrees, amplitudes from the seed, as bench/ draws them
    rng = np.random.default_rng(seed)
    return {"kind": "tabulated",
            "samples": [[-175.0 + 5.0 * k, rng.uniform(0.1, 1.0)] for k in range(72)]}


SWEEP_HPBWS = (360.0, 180.0, 120.0, 90.0, 60.0)

# Runs shaped like the benchmark's workloads, and the edges of the inputs:
# each the shipped long-spread scenario with these edits.
_ROUTE_CASES = {
    "omni_64_bins": dict(pattern={"kind": "omni"}, bins=64, mu=40.0, kappa=1.0, trials=2000,
                         taps_paths=4),
    "tabulated_3600_bins": dict(pattern=_benchmark_tabulated(), bins=3600, kappa=0.0, trials=12,
                                taps_paths=5000),
    "gaussian_360_bins": dict(pattern={"kind": "gaussian", "hpbw_deg": 75.0}, bins=360),
    "beam_0.01_deg": dict(pattern={"kind": "gaussian", "hpbw_deg": 0.01}),
    "beam_1_deg": dict(pattern={"kind": "gaussian", "hpbw_deg": 1.0}),
    "distance_0": dict(distance_m=0.0),
    "kappa_0_mu_0": dict(kappa=0.0, mu=0.0),
    "mu_1e4_8_bins": dict(mu=1e4, bins=8),
    "one_path_per_tap": dict(taps_paths=1),
    # no delayed tap: the one-pattern search holds the local row alone, and
    # there are no departures
    "zero_delay_tap_only": dict(taps=[{"delay_us": 0.0, "power": 1.0, "paths": 50}]),
}


class TestBinSearch:
    """The run's bins from the uniforms against bins.index of the angles, path by path."""

    @pytest.mark.parametrize("seed", [2001, 5, 77])
    @pytest.mark.parametrize("name", ["synthetic_long_spread", "synthetic_short_spread"])
    def test_shipped_sweeps(self, name, seed):
        config = ScenarioConfig.from_file(LONG_SPREAD.with_name(f"{name}.json"))
        config = replace(config, master_seed=seed)
        patterns = tuple(GaussianPattern(math.radians(hpbw)) for hpbw in SWEEP_HPBWS)
        searched, indexed = _both_routes(config, patterns)
        assert searched.shape == (len(patterns) * config.trials, config.taps.tap_index.size)
        assert np.array_equal(searched, indexed)

    @pytest.mark.parametrize("case", sorted(_ROUTE_CASES))
    def test_benchmark_shapes_and_edge_inputs(self, case):
        edits = dict(_ROUTE_CASES[case])
        paths = edits.pop("taps_paths", None)
        config = _long_spread(seed=31, **edits)
        if paths is not None:
            config = replace(config, taps=TapProfile(tuple(
                Tap(tap.delay, tap.power, paths) for tap in config.taps.taps)))
        searched, indexed = _both_routes(config, (config.pattern,))
        assert np.array_equal(searched, indexed)

    @pytest.mark.parametrize("mu", [0.0, 6.0, 15.0, 1e4])
    @pytest.mark.parametrize("pattern", [
        {"kind": "omni"}, _benchmark_tabulated(),
        *({"kind": "gaussian", "hpbw_deg": hpbw} for hpbw in (0.01, 1.0, 60.0, 90.0, 360.0)),
    ], ids=lambda pattern: pattern["kind"] + str(pattern.get("hpbw_deg", "")))
    def test_a_zero_uniform_bins_as_its_angle(self, monkeypatch, pattern, mu):
        # Every other trial draws 0 for every path's angle: a quantile of
        # exactly -pi there wraps to pi, the last bin, where a search
        # alone would give the count of the zero thresholds; a quantile
        # just above -pi (a wide Gaussian beam) or the von Mises grid's
        # lower end (mu 1e4) bins as any other angle.  The pattern runs
        # alone and followed by the 5 sweep beams, as one merged group of 6
        # whose ranks give every column's cells, the local ones included.
        config = _long_spread(pattern=pattern, mu=mu, trials=6, bins=180, seed=4)
        paths = config.taps.tap_index.size
        draw = montecarlo.draw_uniforms

        def zero_draw(config, first, stop):
            uniforms = draw(config, first, stop)
            uniforms[(first % 2)::2, :paths] = 0.0
            return uniforms

        monkeypatch.setattr(montecarlo, "draw_uniforms", zero_draw)
        # one chunk, so the cells are 6 rows a pattern, config.pattern's first
        assert trials_per_chunk(config) >= config.trials
        last, local = config.bins - 1, config.taps.path_counts[0]
        sweep = tuple(GaussianPattern(math.radians(hpbw)) for hpbw in SWEEP_HPBWS)
        for patterns in (config.pattern,), (config.pattern, *sweep):
            search = montecarlo.BinSearch(config, patterns, _bins(config.bins))
            assert [len(group) for group, _ in search.groups] == [len(patterns)]
            searched, indexed = _both_routes(config, patterns)
            assert np.array_equal(searched, indexed)
            if mu == 0.0:
                assert np.all(searched[::2, :local] == last)
            if pattern["kind"] == "omni" or pattern.get("hpbw_deg", 360.0) <= 1.0:
                assert np.all(searched[:config.trials:2, local:] == last)


def _merged_config(beams, delayed_paths, bins):
    # A 3-path zero-delay tap and one delayed tap per entry of
    # delayed_paths, 1 us apart, under the first of the beams (degrees).
    counts = [3, *delayed_paths]
    taps = make_profile([float(k) for k in range(len(counts))], [1.0] * len(counts))
    return ScenarioConfig(distance=300.0, pattern=GaussianPattern(math.radians(beams[0])),
                          taps=TapProfile(tuple(Tap(t.delay, t.power, n)
                                                for t, n in zip(taps.taps, counts))),
                          kappa=0.5, mu=6.0, trials=7, bins=bins, master_seed=3)


def _threshold_row(config, pattern, tap):
    """Tap tap's thresholds under pattern by their definition: the running
    maximum over the interior edges, clipped, of the local cdf (tap 0) or
    of cdf(aoa_to_aod(edge))."""
    interior = _bins(config.bins).edges[1:-1]
    if tap == 0:
        row = config.local.cdf(interior)
    else:
        row = pattern.cdf(aoa_to_aod(interior, config.eccentricities[tap - 1]))
    return np.clip(np.maximum.accumulate(row), 0.0, 1.0)


def _merged_uniforms(config, patterns, seed):
    """The config's first trials' uniforms, some of each column set to a
    threshold of its tap's rows (ties across patterns included) or to 0."""
    uniforms = montecarlo.draw_uniforms(config, 0, config.trials)
    rng = np.random.default_rng(seed)
    for column in range(config.taps.tap_index.size):
        tap = config.taps.tap_index[column]
        values = np.concatenate([_threshold_row(config, p, tap) for p in patterns])
        values = values[values < 1.0]
        rows = rng.permutation(config.trials)[:3]
        if values.size:
            uniforms[rows[:2], column] = rng.choice(values, 2)
        uniforms[rows[2], column] = 0.0
    return uniforms


def _assert_cells_by_definition(config, patterns, uniforms):
    """Each pattern's cells from one BinSearch: a one-pattern BinSearch's,
    and in each column, but where u is 0, the count of its tap's thresholds
    at or below u."""
    bins = _bins(config.bins)
    search = montecarlo.BinSearch(config, patterns, bins)
    entries = sum(rows.ranks.size for _, rows in search.groups if rows.ranks is not None)
    assert entries <= 2 * montecarlo.CHUNK_SIZE
    all_cells = list(search.cells(uniforms))
    assert len(all_cells) == len(patterns)
    for pattern, cells in zip(patterns, all_cells):
        [alone] = montecarlo.BinSearch(config, (pattern,), bins).cells(uniforms)
        assert np.array_equal(cells, alone)
        for column in range(config.taps.tap_index.size):
            u = uniforms[:, column]
            row = _threshold_row(config, pattern, config.taps.tap_index[column])
            expected = np.searchsorted(row, u, "right")
            assert np.array_equal(cells[u != 0.0, column], expected[u != 0.0])
    return search


_BEAMS = st.one_of(st.sampled_from([360.0, 180.0, 90.0, 60.0, 12.5, 1.0]),
                   st.floats(0.5, 360.0))


class TestMergedSearch:
    """Each group's one search and each pattern's rank lookup, against the
    count of the pattern's own thresholds."""

    @settings(max_examples=60, deadline=None)
    @given(beams=st.lists(_BEAMS, min_size=1, max_size=7),
           delayed_paths=st.lists(st.integers(1, 6), min_size=0, max_size=2),
           bins=st.integers(8, 720), seed=st.integers(0, 2 ** 32 - 1))
    # whole rows tie: repeated beams, and the plain rows of 360 degrees
    @example(beams=[360.0, 60.0, 60.0, 360.0, 12.5, 60.0, 1.0], delayed_paths=[4, 2],
             bins=720, seed=0)
    @example(beams=[60.0, 60.0], delayed_paths=[], bins=8, seed=1)
    def test_each_pattern_counts_its_own_thresholds(self, beams, delayed_paths, bins, seed):
        # 1-3 delayed taps, the first of one path
        config = _merged_config(beams, [1, *delayed_paths], bins)
        patterns = tuple(GaussianPattern(math.radians(beam)) for beam in beams)
        search = _assert_cells_by_definition(config, patterns,
                                             _merged_uniforms(config, patterns, seed))
        # consecutive groups, as large as the rank budget allows
        size = montecarlo._group_size(len(patterns), len(config.taps.taps), bins - 1)
        assert [len(group) for group, _ in search.groups] == [
            len(patterns[first:first + size]) for first in range(0, len(patterns), size)]
        assert [pattern for group, _ in search.groups for pattern in group] == list(patterns)

    def test_a_smaller_budget_splits_the_patterns(self, monkeypatch):
        # 5 patterns on the local row and 2 delayed taps' over 90 bins: a
        # budget of exactly two patterns' rank rows each (rounded up) makes
        # groups of 2, 2 and 1, whose cells are the one-group run's
        beams = [360.0, 120.0, 120.0, 45.0, 10.0]
        config = _merged_config(beams, [1, 5], 90)
        patterns = tuple(GaussianPattern(math.radians(beam)) for beam in beams)
        uniforms = _merged_uniforms(config, patterns, 9)
        [whole] = montecarlo.BinSearch(config, patterns, _bins(90)).groups
        assert len(whole[0]) == 5
        one_group = list(montecarlo.BinSearch(config, patterns, _bins(90)).cells(uniforms))
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", (5 * 3 * (2 * 89 + 1) + 1) // 2)
        search = _assert_cells_by_definition(config, patterns, uniforms)
        assert [len(group) for group, _ in search.groups] == [2, 2, 1]
        assert [rows.ranks is None for _, rows in search.groups] == [False, False, True]
        for split, whole_cells in zip(search.cells(uniforms), one_group):
            assert np.array_equal(split, whole_cells)

    def test_without_a_delayed_tap_the_patterns_make_one_group(self):
        # the local row alone, which the patterns share: merged once, and
        # each pattern keeps its rank row of 3 x 63 + 1 entries
        config = _merged_config([360.0], [], 64)
        patterns = tuple(GaussianPattern(math.radians(beam)) for beam in (360.0, 90.0, 90.0))
        assert montecarlo._group_size(3, 1, 63) == 3
        search = _assert_cells_by_definition(config, patterns,
                                             _merged_uniforms(config, patterns, 2))
        [(group, rows)] = search.groups
        assert group == patterns and rows.ranks.shape == (3, 1, 190)

    @pytest.mark.parametrize("points, bins, sizes", [
        # sweep_paper: 5 patterns x 5 rows (the local row and 4 taps') x
        # (5 x 359 + 1) = 44,900 entries
        (5, 360, [5]),
        # 4 + 4 + 1: 2 x 4 x 5 x (4 x 359 + 1) = 57,480
        (9, 360, [4, 4, 1]),
        (40, 360, [1] * 40),
        (5, 2048, [1] * 5),
    ])
    def test_rank_tables_keep_to_twice_a_chunk(self, points, bins, sizes):
        config = replace(ScenarioConfig.from_file(LONG_SPREAD), bins=bins)
        patterns = tuple(GaussianPattern(math.radians(beam))
                         for beam in np.linspace(20.0, 360.0, points))
        search = montecarlo.BinSearch(config, patterns, _bins(bins))
        assert [len(group) for group, _ in search.groups] == sizes
        entries = sum(rows.ranks.size for _, rows in search.groups if rows.ranks is not None)
        assert entries <= 2 * montecarlo.CHUNK_SIZE == 1 << 16
        for group, rows in search.groups:
            assert rows.ranks is None if len(group) == 1 else rows.ranks.dtype == np.int32
