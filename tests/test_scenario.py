"""Tests for configuration, tap extraction, and orchestration."""

import json
import math

import numpy as np
import pytest

from aoasim.angular import (
    PATTERN_KINDS,
    GaussianPattern,
    OmniPattern,
    Tap,
    TapProfile,
    pattern_from_json,
)
from aoasim.estimation import estimate_pdf, rms_angle_spread
from aoasim.montecarlo import generate_trial
from aoasim.scenario import ScenarioConfig, extract_taps, hpbw_sweep, run_simulation

from helpers import make_profile


class TestExtractTaps:
    def test_monotone_decay_gives_single_tap(self):
        delays = np.linspace(0, 10e-6, 50)
        powers = np.exp(-delays / 3e-6)
        profile = extract_taps(list(zip(delays, powers)))
        assert len(profile.taps) == 1
        assert profile.taps[0].delay == 0.0

    def test_three_peak_profile(self):
        delays = np.linspace(0, 5e-6, 501)
        powers = (
            1.0 * np.exp(-((delays - 0.0) / 0.3e-6) ** 2)
            + 0.5 * np.exp(-((delays - 1e-6) / 0.2e-6) ** 2)
            + 0.3 * np.exp(-((delays - 3e-6) / 0.25e-6) ** 2)
            + 1e-6
        )
        profile = extract_taps(list(zip(delays, powers)))
        assert len(profile.taps) == 3
        assert profile.taps[0].delay == 0.0
        assert profile.taps[1].delay == pytest.approx(1e-6, abs=0.05e-6)
        assert profile.taps[2].delay == pytest.approx(3e-6, abs=0.05e-6)

    def test_flat_profile_rejected(self):
        samples = [(i * 1e-6, 1.0) for i in range(10)]
        with pytest.raises(ValueError, match="no local maximum"):
            extract_taps(samples)

    def test_rising_profile_rejected(self):
        samples = [(i * 1e-6, 1.0 + i) for i in range(10)]
        with pytest.raises(ValueError, match="no local maximum"):
            extract_taps(samples)

    def test_prominence_threshold_filters_ripples(self):
        # ~1.8 dB ripples on a slow decay: real local maxima, under 3 dB
        delays = np.linspace(0, 4e-6, 401)
        base = np.exp(-delays / 4e-6)
        ripple = 1.0 + 0.2 * np.sin(delays / 0.1e-6)
        profile = extract_taps(list(zip(delays, base * ripple)))
        assert len(profile.taps) == 1

    def test_low_prominence_keeps_ripples(self):
        delays = np.linspace(0, 4e-6, 401)
        base = np.exp(-delays / 4e-6)
        ripple = 1.0 + 0.2 * np.sin(delays / 0.1e-6)
        profile = extract_taps(list(zip(delays, base * ripple)), min_prominence_db=0.1)
        assert len(profile.taps) > 1

    def test_requires_zero_start(self):
        with pytest.raises(ValueError, match="zero delay"):
            extract_taps([(1e-6, 1.0), (2e-6, 0.5), (3e-6, 0.2)])

    def test_requires_increasing_delays(self):
        with pytest.raises(ValueError, match="increasing"):
            extract_taps([(0.0, 1.0), (2e-6, 0.5), (1e-6, 0.2)])

    def test_requires_three_samples(self):
        with pytest.raises(ValueError, match="at least 3"):
            extract_taps([(0.0, 1.0), (1e-6, 0.5)])

    def test_path_count_assignment(self):
        delays = np.linspace(0, 10e-6, 50)
        powers = np.exp(-delays / 3e-6)
        profile = extract_taps(list(zip(delays, powers)), paths_per_tap=17)
        assert all(t.path_count == 17 for t in profile.taps)


def _config_doc(pattern=None):
    return {
        "distance_m": 1000.0,
        "kappa": 0.5,
        "mu": 10.0,
        "trials": 20,
        "bins": 90,
        "seed": 7,
        "pattern": pattern or {"kind": "gaussian", "hpbw_deg": 120.0},
        "taps": [
            {"delay_us": 0.0, "power": 0.4, "paths": 10},
            {"delay_us": 1.0, "power": 0.35, "paths": 20},
            {"delay_us": 3.5, "power": 0.25, "paths": 15},
        ],
    }


class TestScenarioConfig:
    @pytest.mark.parametrize("pattern", [
        {"kind": "omni"},
        {"kind": "gaussian", "hpbw_deg": 60.0},
        {"kind": "tabulated",
         "samples": [[a, 1.0 + 0.3 * math.cos(math.radians(a))]
                     for a in np.linspace(-170, 175, 12)]},
    ])
    def test_json_round_trip(self, pattern):
        config = ScenarioConfig.from_json_dict(_config_doc(pattern))
        assert ScenarioConfig.from_json_dict(config.to_json_dict()) == config
        # the pattern's own JSON form and the kind registry invert each other
        doc = config.pattern.to_json()
        assert doc["kind"] == pattern["kind"]
        assert PATTERN_KINDS[doc["kind"]] is type(config.pattern)
        assert pattern_from_json(doc) == config.pattern
        assert pattern_from_json(json.loads(json.dumps(doc))) == config.pattern

    def test_file_round_trip(self, tmp_path):
        config = ScenarioConfig.from_json_dict(_config_doc())
        path = tmp_path / "scenario.json"
        config.to_file(path)
        assert ScenarioConfig.from_file(path) == config

    def test_powers_normalized_on_load(self):
        doc = _config_doc()
        for tap in doc["taps"]:
            tap["power"] *= 7.0
        config = ScenarioConfig.from_json_dict(doc)
        assert config.taps.total_power == pytest.approx(1.0, abs=1e-12)

    def test_pdp_form_resolves_to_taps(self):
        delays = np.linspace(0, 10, 100)
        powers = np.exp(-delays / 3.0)
        doc = _config_doc()
        del doc["taps"]
        doc["pdp"] = [[float(d), float(p)] for d, p in zip(delays, powers)]
        doc["paths_per_tap"] = 9
        config = ScenarioConfig.from_json_dict(doc)
        assert len(config.taps.taps) == 1
        assert config.taps.taps[0].path_count == 9

    def test_taps_and_pdp_mutually_exclusive(self):
        doc = _config_doc()
        doc["pdp"] = [[0.0, 1.0], [1.0, 0.5], [2.0, 0.2]]
        with pytest.raises(ValueError, match="exactly one"):
            ScenarioConfig.from_json_dict(doc)
        del doc["taps"]
        del doc["pdp"]
        with pytest.raises(ValueError, match="exactly one"):
            ScenarioConfig.from_json_dict(doc)

    def test_unknown_pattern_kind_rejected(self):
        doc = _config_doc({"kind": "parabolic"})
        with pytest.raises(ValueError, match="pattern kind"):
            ScenarioConfig.from_json_dict(doc)

    def test_digest_tracks_content(self):
        config = ScenarioConfig.from_json_dict(_config_doc())
        same = ScenarioConfig.from_json_dict(_config_doc())
        assert config.digest() == same.digest()
        doc = _config_doc()
        doc["kappa"] = 0.75
        assert ScenarioConfig.from_json_dict(doc).digest() != config.digest()

    def test_validation(self):
        base = _config_doc()
        for key, bad in [("kappa", -1.0), ("mu", -0.5), ("trials", 0), ("bins", 4),
                         ("distance_m", -10.0)]:
            doc = dict(base)
            doc[key] = bad
            with pytest.raises(ValueError):
                ScenarioConfig.from_json_dict(doc)
        # non-finite numbers are rejected at load, naming the field
        for key, field in [("kappa", "kappa"), ("mu", "mu"), ("distance_m", "distance")]:
            for bad in (math.nan, math.inf, -math.inf):
                doc = dict(base)
                doc[key] = bad
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    ScenarioConfig.from_json_dict(doc)
        for tap_key, bad, message in [("delay_us", math.nan, "tap delays must be finite"),
                                      ("delay_us", math.inf, "tap delays must be finite"),
                                      ("power", math.inf, "tap powers must be positive and finite")]:
            doc = dict(base)
            doc["taps"] = [dict(tap) for tap in base["taps"]]
            doc["taps"][-1][tap_key] = bad
            with pytest.raises(ValueError, match=message):
                ScenarioConfig.from_json_dict(doc)
        for column in (0, 1):
            samples = [[a, 1.0] for a in range(-165, 180, 30)]
            samples[3][column] = math.nan
            doc = _config_doc({"kind": "tabulated", "samples": samples})
            with pytest.raises(ValueError, match="tabulated pattern samples must be finite"):
                ScenarioConfig.from_json_dict(doc)


def _quick_config(**overrides):
    defaults = dict(
        distance=1000.0,
        taps=make_profile([0.0, 1.0, 3.0], [0.3, 0.4, 0.3], 15),
        pattern=GaussianPattern(math.radians(120.0)),
        kappa=0.3,
        mu=8.0,
        trials=25,
        bins=90,
        master_seed=11,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestRunSimulation:
    def test_single_trial_equals_direct_estimate(self):
        config = _quick_config(trials=1)
        report = run_simulation(config)
        direct = estimate_pdf(generate_trial(config, 0), config.bins)
        assert np.array_equal(report.averaged_spectrum.density, direct.density)
        assert report.angle_spread == rms_angle_spread(direct)

    def test_deterministic_repeat(self):
        config = _quick_config()
        a = run_simulation(config)
        b = run_simulation(config)
        assert np.array_equal(a.averaged_spectrum.density, b.averaged_spectrum.density)
        assert a.angle_spread == b.angle_spread
        assert a.per_trial_spreads == b.per_trial_spreads

    def test_report_invariant(self):
        report = run_simulation(_quick_config())
        assert report.angle_spread == rms_angle_spread(report.averaged_spectrum)
        assert len(report.per_trial_spreads) == report.scenario_echo.trials

    def test_uniform_scenario_matches_analytic_spread(self):
        config = ScenarioConfig(
            distance=1000.0,
            taps=TapProfile((Tap(0.0, 1.0, 100),)),
            pattern=OmniPattern(),
            kappa=0.0,
            mu=0.0,
            trials=200,
            bins=360,
            master_seed=5,
        )
        report = run_simulation(config)
        assert math.degrees(report.angle_spread) == pytest.approx(103.92, abs=1.5)


class TestHpbwSweep:
    def test_single_point_equals_plain_run(self):
        config = _quick_config()
        [point] = hpbw_sweep(config, [math.degrees(config.pattern.hpbw)])
        direct = run_simulation(config)
        assert point.angle_spread == pytest.approx(direct.angle_spread, rel=1e-12)

    def test_narrower_beam_reduces_spread(self):
        config = _quick_config(trials=60, kappa=0.0, mu=2.0)
        points = hpbw_sweep(config, [360.0, 60.0])
        assert points[0].angle_spread > points[1].angle_spread

    def test_requires_gaussian_pattern(self):
        config = _quick_config(pattern=OmniPattern())
        with pytest.raises(ValueError, match="Gaussian"):
            hpbw_sweep(config, [360.0])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            hpbw_sweep(_quick_config(), [])


class TestRunReportSerialization:
    def test_json_dict_has_no_timing(self):
        report = run_simulation(_quick_config(trials=3))
        payload = report.to_json_dict()
        assert "elapsed" not in json.dumps(payload)
        assert payload["angle_spread_deg"] == pytest.approx(
            math.degrees(report.angle_spread)
        )
        assert len(payload["spectrum"]["angle_deg"]) == report.scenario_echo.bins
