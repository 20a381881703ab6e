"""Tests for spectrum estimation and dispersion metrics."""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoasim import scenario
from aoasim.angular import GaussianPattern, OmniPattern, Tap, TapProfile
from aoasim.estimation import (
    AngularSpectrum,
    _bins,
    _normalization_defects,
    estimate_pdf,
    lse,
    rms_angle_spread,
    weighted_spread,
)
from aoasim.inputs import _check_normalized
from aoasim.montecarlo import PathSet, generate_chunk

from helpers import trial_ordered_run

TWO_PI = 2 * math.pi


def _path_set(entries):
    # entries: (tap, angle, power, is_direct); direct entries add to direct_power
    scattered = [entry for entry in entries if not entry[3]]
    return PathSet(
        angles=np.array([angle for _, angle, _, _ in scattered], dtype=float),
        powers=np.array([power for _, _, power, _ in scattered], dtype=float),
        tap_index=np.array([tap for tap, _, _, _ in scattered], dtype=int),
        direct_power=float(sum(power for _, _, power, direct in entries if direct)),
    )


def _path_spreads(paths):
    # the unbinned spread of each trial as a run takes it: the moments of
    # the angles under the path weights, each power over its trial's total
    total = np.atleast_1d(paths.total_power())
    return weighted_spread(np.atleast_2d(paths.angles), np.atleast_2d(paths.powers) / total[:, None])


def _uniform_spectrum(bins=360):
    return AngularSpectrum(np.full(bins, 1.0 / TWO_PI), 0.0)


def _averaged(monkeypatch, path_sets, bins):
    # run_simulation's average over the given path sets, one trial each:
    # one trial per chunk, the chunk's batch being that trial's path set
    # under the one pattern
    def chunk(config, patterns, first, stop):
        [paths] = path_sets[first:stop]
        return [PathSet(angles=paths.angles[None], powers=paths.powers[None],
                        tap_index=paths.tap_index, direct_power=paths.direct_power)]

    monkeypatch.setattr(scenario, "CHUNK_SIZE", 1)
    monkeypatch.setattr(scenario, "generate_chunk", chunk)
    config = scenario.ScenarioConfig(
        distance=1000.0, taps=TapProfile((Tap(0.0, 1.0, 1),)), pattern=OmniPattern(),
        kappa=0.0, mu=0.0, trials=len(path_sets), bins=bins)
    return scenario.run_simulation(config).averaged_spectrum


class TestEstimatePdf:
    def test_point_concentration(self):
        paths = _path_set([(0, 0.0, 1.0, False)] * 10)
        spectrum = estimate_pdf(paths, 36)
        probs = spectrum.probabilities
        nonzero = np.nonzero(probs)[0]
        assert nonzero.size == 1
        assert probs[nonzero[0]] == pytest.approx(1.0, rel=1e-14)
        edges = _bins(36).edges
        lo, hi = edges[nonzero[0]], edges[nonzero[0] + 1]
        assert lo <= 0.0 < hi

    def test_uniform_bin_center_construction(self):
        bins = 36
        edges = np.linspace(-math.pi, math.pi, bins + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        paths = _path_set([(0, c, 1.0, False) for c in centers])
        spectrum = estimate_pdf(paths, bins)
        assert np.all(np.abs(spectrum.density - 1.0 / TWO_PI) < 1e-12)

    def test_power_weighting(self):
        paths = _path_set([(0, -1.0, 1.0, False), (0, 1.0, 3.0, False)])
        spectrum = estimate_pdf(paths, 36)
        probs = np.sort(spectrum.probabilities[np.nonzero(spectrum.probabilities)])
        assert probs == pytest.approx([0.25, 0.75])

    def test_direct_power_becomes_point_mass(self):
        paths = _path_set([(0, 0.5, 1.0, False), (0, 0.0, 1.0, True)])
        spectrum = estimate_pdf(paths, 36)
        assert spectrum.point_mass_at_zero == pytest.approx(0.5)
        assert np.sum(spectrum.probabilities) == pytest.approx(0.5)

    def test_positive_pi_lands_in_last_bin(self):
        paths = _path_set([(0, math.pi, 1.0, False)])
        spectrum = estimate_pdf(paths, 36)
        assert spectrum.probabilities[-1] == pytest.approx(1.0)

    def test_normalization_invariant(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            n = rng.integers(1, 200)
            entries = [
                (0, rng.uniform(-math.pi, math.pi), rng.uniform(0, 2), False)
                for _ in range(n)
            ]
            if rng.random() < 0.5:
                entries.append((0, 0.0, rng.uniform(0, 1), True))
            spectrum = estimate_pdf(_path_set(entries), int(rng.integers(8, 720)))
            assert spectrum.normalization_defect() <= 1e-9

    def test_empty_path_set_rejected(self):
        with pytest.raises(ValueError):
            estimate_pdf(_path_set([]), 36)

    def test_small_bin_count_rejected(self):
        with pytest.raises(ValueError):
            estimate_pdf(_path_set([(0, 0.0, 1.0, False)]), 7)

    @pytest.mark.parametrize("bins", [2**20 + 1, 3_000_000_000])
    def test_large_bin_count_rejected(self, bins):
        # rejected before any bin array is built
        with pytest.raises(ValueError, match=f"bins must be from 8 to {2**20}, got {bins}"):
            estimate_pdf(_path_set([(0, 0.0, 1.0, False)]), bins)

    @pytest.mark.parametrize("bins", [40.7, np.float64(36.0), True])
    def test_bin_count_must_be_an_integer(self, bins):
        # not truncated: 40.7 must not bin into 40
        with pytest.raises(ValueError, match=re.escape(f"bins must be an integer, got {bins!r}")):
            estimate_pdf(_path_set([(0, 0.0, 1.0, False)]), bins)

    @pytest.mark.parametrize("entry,message", [
        ((1, 4.0, 1.0, False), r"angles must lie in \(-pi, pi\]"),
        ((1, math.nan, 1.0, False), "angles must be finite"),
        # ids kept from before the messages gave the value
        pytest.param((1, 1.0, -0.5, False), "powers must be finite and nonnegative, got -0.5",
                     id="entry2-powers must be finite and nonnegative"),
        pytest.param((1, 1.0, math.inf, False), "powers must be finite and nonnegative, got inf",
                     id="entry3-powers must be finite and nonnegative"),
        pytest.param((0, 0.0, math.nan, True), "direct_power must be finite and nonnegative, got nan",
                     id="entry4-direct_power must be finite and nonnegative"),
    ])
    def test_invalid_path_set_rejected(self, entry, message):
        # unchecked, the bin index would put 4.0 in the last bin and NaN
        # in bin 0, and a negative power would pass as a spectrum
        paths = _path_set([(0, 0.5, 1.0, False), entry])
        with pytest.raises(ValueError, match=message):
            estimate_pdf(paths, 36)

    def test_batch_rejected(self):
        # a (trials, paths) batch is not one trial: unchecked, it gave
        # the spectrum of its first row
        config = scenario.ScenarioConfig(
            distance=900.0, taps=TapProfile((Tap(0.0, 0.5, 50), Tap(1e-6, 0.5, 200))),
            pattern=OmniPattern(), kappa=0.0, mu=2.0, trials=3, bins=40)
        [batch] = generate_chunk(config, (config.pattern,), 0, 3)
        assert batch.angles.shape == (3, 250)
        with pytest.raises(ValueError, match=r"angles must be a 1-d array of one trial, "
                                             r"got shape \(3, 250\)"):
            estimate_pdf(batch, 40)

    def test_powers_of_another_length_rejected(self):
        # unchecked, np.bincount failed without naming the field
        paths = PathSet(angles=np.linspace(-1.0, 1.0, 5), powers=np.ones(4),
                        tap_index=np.zeros(5, dtype=int))
        with pytest.raises(ValueError, match=r"powers must be one per angle: \(4,\) for \(5,\)"):
            estimate_pdf(paths, 36)


def _searched_bins(angles, bins):
    # np.histogram's convention: left-inclusive bins, +pi in the last one.
    edges = np.linspace(-math.pi, math.pi, bins + 1)
    return np.clip(np.searchsorted(edges, angles, side="right") - 1, 0, bins - 1)


class TestBinIndex:
    """The arithmetic bin index equals the edge search."""

    @pytest.mark.parametrize("bins", [8, 36, 90, 360, 1000, 3600, 4097, 65536])
    def test_values_on_every_edge(self, bins):
        edges = np.linspace(-math.pi, math.pi, bins + 1)
        stepped = -math.pi + np.arange(bins + 1) * (2 * math.pi / bins)
        angles = np.concatenate([
            edges, stepped, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [-math.pi, math.pi],
        ])
        assert np.array_equal(_bins(bins).index(angles), _searched_bins(angles, bins))
        assert _bins(bins).index(np.array([math.pi]))[0] == bins - 1
        assert _bins(bins).index(np.array([np.nextafter(-math.pi, 0.0)]))[0] == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(8, 2**20), st.data())
    def test_edges_and_their_neighbours(self, bins, data):
        # edges drawn from the K + 1, each with its 1 to 4 ulp neighbours
        # on either side; every angle kept in (-pi, pi]
        try:
            edges = _bins(bins).edges[data.draw(st.lists(st.integers(0, bins), min_size=1,
                                                        max_size=8))]
            angles = [edges, [np.nextafter(-math.pi, 0.0), math.pi]]
            for direction in (-np.inf, np.inf):
                neighbour = edges
                for _ in range(4):
                    neighbour = np.nextafter(neighbour, direction)
                    angles.append(neighbour)
            angles = np.concatenate(angles)
            angles = angles[(angles > -math.pi) & (angles <= math.pi)]
            assert np.array_equal(_bins(bins).index(angles), _searched_bins(angles, bins))
        finally:
            # a million-bin edge array takes 8 MB; keep no more than one
            _bins.cache_clear()

    def test_random_draws(self):
        rng = np.random.default_rng(5)
        for bins in (8, 64, 360, 3600, 4097):
            angles = rng.uniform(-math.pi, math.pi, (4, 25_000))
            assert np.array_equal(_bins(bins).index(angles), _searched_bins(angles, bins))

    def test_one_read_only_binning_per_count(self, monkeypatch):
        # a run and every spectrum of a count share one _bins
        _bins.cache_clear()
        paths = _path_set([(0, -2.0, 1.0, False), (0, 0.5, 2.0, False)])
        _averaged(monkeypatch, [paths], 48)
        spectrum = estimate_pdf(paths, 48)
        rms_angle_spread(spectrum)
        bins = _bins(48)
        assert _bins.cache_info().misses == 1
        for array in (bins.edges, bins.upper, bins.centers):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_density_at_uses_the_same_bins(self):
        spectrum = AngularSpectrum(np.arange(1.0, 37.0) / (666.0 * TWO_PI / 36), 0.0)
        angles = np.random.default_rng(6).uniform(-math.pi, math.pi, 1000)
        assert np.array_equal(spectrum.density_at(angles),
                              spectrum.density[_searched_bins(angles, 36)])


class TestAverageSpectra:
    """run_simulation's bin-wise mean of the per-trial spectra."""

    def test_single_identity(self, monkeypatch):
        paths = _path_set([(0, 0.3, 1.0, False), (0, -0.7, 2.0, False), (0, 0.0, 0.5, True)])
        s = estimate_pdf(paths, 36)
        out = _averaged(monkeypatch, [paths], 36)
        assert np.array_equal(out.density, s.density)
        assert out.point_mass_at_zero == s.point_mass_at_zero

    def test_self_average_identity(self, monkeypatch):
        paths = _path_set([(0, 0.3, 1.0, False), (0, -0.7, 2.0, False)])
        s = estimate_pdf(paths, 72)
        out = _averaged(monkeypatch, [paths, paths], 72)
        assert np.array_equal(out.density, s.density)

    def test_two_point_split(self, monkeypatch):
        a = _path_set([(0, -1.0, 1.0, False)])
        b = _path_set([(0, 1.0, 1.0, False)])
        out = _averaged(monkeypatch, [a, b], 36)
        probs = np.sort(out.probabilities[np.nonzero(out.probabilities)])
        assert probs == pytest.approx([0.5, 0.5])

    def test_empty_rejected(self):
        # an average over no trials is rejected with the scenario
        with pytest.raises(ValueError, match="trials must be at least 1"):
            scenario.ScenarioConfig(distance=1000.0, taps=TapProfile((Tap(0.0, 1.0, 1),)),
                                    pattern=OmniPattern(), kappa=0.0, mu=0.0, trials=0)

    def test_preserves_normalization(self, monkeypatch):
        rng = np.random.default_rng(31)
        path_sets = []
        for _ in range(50):
            entries = [
                (0, rng.uniform(-math.pi, math.pi), rng.uniform(0, 2), False)
                for _ in range(rng.integers(1, 50))
            ]
            path_sets.append(_path_set(entries))
        out = _averaged(monkeypatch, path_sets, 90)
        assert out.normalization_defect() <= 1e-9


class TestRmsAngleSpread:
    def test_point_mass_has_zero_spread(self):
        paths = _path_set([(0, 0.7, p, False) for p in (1.0, 2.0, 0.5)])
        spectrum = estimate_pdf(paths, 360)
        assert rms_angle_spread(spectrum) == 0.0

    def test_direct_only_point_mass(self):
        paths = _path_set([(0, 0.0, 1.0, True), (0, 1.3, 1e-12, False)])
        spectrum = estimate_pdf(paths, 360)
        assert rms_angle_spread(spectrum) == pytest.approx(0.0, abs=1e-5)

    def test_uniform_limit(self):
        # analytic std of a uniform distribution over a 2 pi interval
        expected = math.pi / math.sqrt(3.0)
        value = rms_angle_spread(_uniform_spectrum(360))
        assert value == pytest.approx(expected, rel=0.005)
        assert math.degrees(expected) == pytest.approx(103.92, abs=0.01)

    def test_symmetric_two_point_mass(self):
        x = 1.1
        bins = 360
        paths = _path_set([(0, -x, 1.0, False), (0, x, 1.0, False)])
        spectrum = estimate_pdf(paths, bins)
        assert rms_angle_spread(spectrum) == pytest.approx(x, abs=TWO_PI / bins)

    def test_scale_invariance(self):
        entries = [(0, 0.4, 1.0, False), (0, -0.9, 2.5, False), (0, 2.0, 0.3, False)]
        scaled = [(t, a, 7.3 * p, d) for t, a, p, d in entries]
        s1 = rms_angle_spread(estimate_pdf(_path_set(entries), 180))
        s2 = rms_angle_spread(estimate_pdf(_path_set(scaled), 180))
        assert s1 == pytest.approx(s2, rel=1e-12)

    def test_spectrum_is_left_as_it_was(self):
        # the spread takes its scratch from a copy of the density
        paths = _path_set([(0, 0.4, 1.0, False), (0, -0.9, 2.5, False), (0, 0.0, 0.5, True)])
        spectrum = estimate_pdf(paths, 180)
        before = spectrum.density.tobytes()
        rms_angle_spread(spectrum)
        assert spectrum.density.tobytes() == before
        assert spectrum.density.tobytes() == estimate_pdf(paths, 180).density.tobytes()

    def test_unnormalized_rejected(self):
        broken = AngularSpectrum(np.full(36, 1.0 / TWO_PI), 0.5)
        with pytest.raises(ValueError):
            rms_angle_spread(broken)

    def test_even_spectrum_mean_vanishes(self):
        x = 0.8
        paths = _path_set([(0, -x, 2.0, False), (0, x, 2.0, False), (0, 0.0, 1.0, False)])
        spectrum = estimate_pdf(paths, 360)
        mirrored = AngularSpectrum(spectrum.density[::-1].copy(), spectrum.point_mass_at_zero)
        assert rms_angle_spread(spectrum) == pytest.approx(rms_angle_spread(mirrored), rel=1e-9)


class TestRawPathSpread:
    def test_matches_binned_in_the_fine_limit(self):
        rng = np.random.default_rng(32)
        entries = [
            (0, rng.uniform(-3, 3), rng.uniform(0.1, 1.0), False) for _ in range(500)
        ]
        paths = _path_set(entries)
        binned = rms_angle_spread(estimate_pdf(paths, 5760))
        [raw] = _path_spreads(paths)
        assert binned == pytest.approx(raw, abs=2e-3)

    def test_direct_path_pulls_spread_down(self):
        [spread_without] = _path_spreads(_path_set([(1, 1.0, 1.0, False)]))
        [spread_with] = _path_spreads(
            _path_set([(1, 1.0, 1.0, False), (0, 0.0, 1.0, True)])
        )
        assert spread_without == 0.0
        assert spread_with == pytest.approx(0.5, rel=1e-12)


class TestStackedRows:
    """A sweep's chunk: each pattern's batch reduces as that pattern's own chunk."""

    def test_each_layer_equals_its_own_batch(self):
        config = scenario.ScenarioConfig(
            distance=900.0,
            taps=TapProfile((Tap(0.0, 0.4, 5), Tap(1e-6, 0.4, 1), Tap(3e-6, 0.2, 7))),
            pattern=OmniPattern(), kappa=0.6, mu=4.0, trials=9, bins=40, master_seed=8)
        patterns = (OmniPattern(), GaussianPattern(math.radians(90.0)),
                    GaussianPattern(math.radians(10.0)))
        batches = list(generate_chunk(config, patterns, 0, 9))
        assert len(batches) == len(patterns)
        # the stacked run, every pattern reduced from the one chunk
        reports = scenario._simulate(config, patterns, per_path_spread=True)
        for batch, pattern, report in zip(batches, patterns, reports):
            sums, point_mass, spreads, path_spreads = trial_ordered_run(
                batch.angles, batch.powers, batch.direct_power, config.bins)
            assert report.averaged_spectrum.density.tobytes() == (
                sums / (TWO_PI / config.bins) / config.trials).tobytes()
            assert report.averaged_spectrum.point_mass_at_zero == np.mean(point_mass)
            assert np.array_equal(report.per_trial_spreads, spreads)
            assert np.array_equal(report.per_path_spreads, path_spreads)
            # the pattern's own one-pattern chunk, reduced as a batch
            [alone] = generate_chunk(replace(config, pattern=pattern), (pattern,), 2, 9)
            assert np.array_equal(batch.angles[2:], alone.angles)
            assert np.array_equal(batch.powers[2:], alone.powers)
            _, layer_mass, layer_spreads, layer_path_spreads = trial_ordered_run(
                alone.angles, alone.powers, alone.direct_power, config.bins)
            assert np.array_equal(point_mass[2:], layer_mass)
            assert np.array_equal(spreads[2:], layer_spreads)
            assert np.array_equal(path_spreads[2:], layer_path_spreads)
            alone_report = scenario.run_simulation(replace(config, pattern=pattern),
                                                   per_path_spread=True)
            assert np.array_equal(alone_report.per_trial_spreads, report.per_trial_spreads)
            assert np.array_equal(alone_report.averaged_spectrum.density,
                                  report.averaged_spectrum.density)

    def test_nan_row_is_not_normalized(self):
        # NaN fails every comparison, so a check written as defect > tol
        # let a trial with a NaN weight through and returned a NaN spread
        weights = np.full((2, 8), 1.0 / 8)
        weights[1, 3] = math.nan
        with pytest.raises(ValueError, match=r"not normalized \(defect nan\)"):
            _check_normalized(_normalization_defects(weights, np.zeros(2)))

    def test_unnormalized_row_of_a_later_point_is_named(self):
        # the first trial past the tolerance is named, not the first trial
        weights = np.full((3, 36), 1.0 / 36)
        weights[2] *= 1.5
        with pytest.raises(ValueError, match=r"defect 5\.000e-01"):
            _check_normalized(_normalization_defects(weights, np.zeros(3)))


_SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _row_route(batch, bins):
    """0.4.0's estimator, the independent oracle of the run's.

    One density row per trial: a bincount of the powers over the searched
    bins, over the trial's total power, over the bin width.  The averaged
    density is the rows' sum in trial order over the trial count; each
    trial's spread is the moments of the bin centers under its row's
    probabilities.  Returns (averaged density, point masses, per-trial
    spreads, per-path spreads, angle spread of the averaged density).
    """
    edges = np.linspace(-math.pi, math.pi, bins + 1)
    centers, width = 0.5 * (edges[:-1] + edges[1:]), TWO_PI / bins
    total = np.sum(batch.powers, axis=-1) + batch.direct_power
    cells = np.clip(np.searchsorted(edges, batch.angles, side="right") - 1, 0, bins - 1)
    rows = np.array([np.bincount(c, weights=p, minlength=bins)
                     for c, p in zip(cells, batch.powers)]) / total[:, None] / width
    running = np.zeros(bins)
    for row in rows:
        running += row
    averaged = running / len(rows)

    def spreads(values, weights):
        mean = np.sum(weights * values, axis=-1)
        second = np.sum(weights * values * values, axis=-1)
        return np.sqrt(np.maximum(second - mean * mean, 0.0))

    return (averaged, batch.direct_power / total, spreads(centers, rows * width),
            spreads(batch.angles, batch.powers / total[:, None]), spreads(centers, averaged * width))


def _assert_matches_row_route(report, batch):
    config = report.scenario_echo
    averaged, point_mass, trial_spreads, path_spreads, spread = _row_route(batch, config.bins)
    density = report.averaged_spectrum.density
    empty = averaged == 0.0
    assert np.array_equal(density == 0.0, empty)
    np.testing.assert_allclose(density[~empty], averaged[~empty], rtol=1e-13, atol=0)
    np.testing.assert_allclose(report.per_trial_spreads, trial_spreads, rtol=1e-13, atol=0)
    assert report.angle_spread == pytest.approx(spread, rel=1e-13, abs=0)
    assert report.averaged_spectrum.point_mass_at_zero == np.mean(point_mass)
    if report.per_path_spreads is not None:
        assert np.array_equal(report.per_path_spreads, path_spreads)


class TestRowRouteOracle:
    """The run's estimator (the trial-ordered sum of path weights, the spreads
    from each trial's paths) against 0.4.0's (trials, bins) density rows:
    within 1e-13 relative, empty bins exactly 0, per-path spreads and point
    masses bit for bit."""

    @pytest.mark.parametrize("name", ["synthetic_short_spread", "synthetic_long_spread"])
    def test_shipped_scenario(self, name):
        config = scenario.ScenarioConfig.from_file(_SCENARIOS / f"{name}.json")
        report = scenario.run_simulation(config, per_path_spread=True)
        [batch] = generate_chunk(config, (config.pattern,), 0, config.trials)
        _assert_matches_row_route(report, batch)

    def test_five_point_sweep(self):
        config = scenario.ScenarioConfig.from_file(_SCENARIOS / "synthetic_long_spread.json")
        hpbws = [360.0, 180.0, 120.0, 90.0, 60.0]
        points = scenario.hpbw_sweep(config, hpbws)
        patterns = [GaussianPattern(math.radians(hpbw)) for hpbw in hpbws]
        for point, batch in zip(points, generate_chunk(config, patterns, 0, config.trials)):
            _assert_matches_row_route(point.report, batch)

    def test_one_trial_per_chunk(self, monkeypatch):
        config = scenario.ScenarioConfig.from_file(_SCENARIOS / "synthetic_short_spread.json")
        config = replace(config, trials=120)
        monkeypatch.setattr(scenario, "CHUNK_SIZE", 1)
        assert scenario.trials_per_chunk(config) == 1
        report = scenario.run_simulation(config, per_path_spread=True)
        [batch] = generate_chunk(config, (config.pattern,), 0, config.trials)
        _assert_matches_row_route(report, batch)


class TestPooledVersusAveraged:
    def test_pooled_estimate_converges_to_trial_mean(self):
        # Averaging per-trial spectra and estimating once over the pooled
        # paths differ only through per-trial total-power fluctuations,
        # which wash out as the trial count grows.
        config = scenario.ScenarioConfig(
            distance=1000.0,
            taps=TapProfile((Tap(0.0, 0.5, 10), Tap(2e-6, 0.5, 10))),
            pattern=GaussianPattern(math.radians(180.0)),
            kappa=0.0,
            mu=3.0,
            trials=10_000,
            bins=72,
            master_seed=123,
        )
        averaged = scenario.run_simulation(config).averaged_spectrum
        [batch] = generate_chunk(config, (config.pattern,), 0, config.trials)
        pooled = estimate_pdf(PathSet(
            angles=batch.angles.ravel(),
            powers=batch.powers.ravel(),
            tap_index=batch.tap_index.ravel(),
        ), config.bins)
        scale = averaged.density.max()
        assert np.max(np.abs(pooled.density - averaged.density)) <= 0.01 * scale


class TestLse:
    def test_zero_for_perfect_model(self):
        spectrum = _uniform_spectrum(36)
        empirical = [(float(c), 1.0 / TWO_PI) for c in _bins(36).centers]
        assert lse(spectrum, empirical) == 0.0

    def test_constant_offset(self):
        offset = 0.01
        k = 25
        angles = np.linspace(-3, 3, k)
        empirical = [(float(a), 1.0 / TWO_PI + offset) for a in angles]
        value = lse(_uniform_spectrum(36), empirical)
        assert value == pytest.approx(k * offset ** 2, rel=1e-12)

    def test_angle_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lse(_uniform_spectrum(36), [(4.0, 0.1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lse(_uniform_spectrum(36), [])

    @pytest.mark.parametrize("model", [_uniform_spectrum(36)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, model, bad):
        # a NaN angle would otherwise land in the last bin, and a NaN
        # density would make the error NaN
        for empirical in ([(0.5, 0.1), (bad, 0.1)], [(0.5, 0.1), (0.2, bad)]):
            with pytest.raises(ValueError, match="must be finite"):
                lse(model, empirical)


class TestAngularSpectrumType:
    def test_edges_must_span_circle(self):
        # the edges derive from the bin count: K uniform bins over (-pi, pi]
        edges = _bins(_uniform_spectrum(36).bin_count).edges
        assert edges.size == 37 and edges[0] == -math.pi and edges[-1] == math.pi
        assert np.array_equal(edges, np.linspace(-math.pi, math.pi, 37))
        for density in (np.full(7, 1.0 / TWO_PI), np.full((2, 36), 1.0 / TWO_PI)):
            with pytest.raises(ValueError, match="at least 8 bins"):
                AngularSpectrum(density, 0.0)

    def test_density_is_a_read_only_copy(self):
        # an edit to either array would change the spectrum after the fact
        original = np.full(36, 1.0 / TWO_PI)
        spectrum = AngularSpectrum(original, 0.0)
        with pytest.raises(ValueError, match="read-only"):
            spectrum.density[0] = 0.0
        original *= 2.0
        assert np.all(spectrum.density == 1.0 / TWO_PI)
        assert spectrum.density_at(0.1) == 1.0 / TWO_PI
        assert rms_angle_spread(spectrum) == rms_angle_spread(_uniform_spectrum(36))

    def test_density_must_be_nonnegative(self):
        density = np.full(36, 1.0 / TWO_PI)
        density[3] = -0.1
        with pytest.raises(ValueError):
            AngularSpectrum(density, 0.0)

    def test_density_at_lookup(self):
        spectrum = _uniform_spectrum(8)
        assert spectrum.density_at(0.1) == pytest.approx(1.0 / TWO_PI)
        assert spectrum.density_at(math.pi) == pytest.approx(1.0 / TWO_PI)
        arr = spectrum.density_at(np.array([0.5, -0.5]))
        assert arr.shape == (2,)
        with pytest.raises(ValueError):
            spectrum.density_at(-math.pi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_density_at_rejects_non_finite_angles(self, bad):
        # a NaN angle would otherwise read bin 0's density
        spectrum = AngularSpectrum(np.arange(1.0, 37.0) / (666.0 * TWO_PI / 36), 0.0)
        for phi in (bad, np.array([0.5, bad])):
            with pytest.raises(ValueError, match="must be finite"):
                spectrum.density_at(phi)
