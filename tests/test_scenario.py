"""Tests for configuration, tap extraction, and orchestration."""

import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoasim import montecarlo, scenario
from aoasim.angular import (
    PATTERN_KINDS,
    GaussianPattern,
    OmniPattern,
    TabulatedPattern,
    Tap,
    TapProfile,
    ellipses_for_taps,
    pattern_from_json,
)
from aoasim.estimation import estimate_pdf, rms_angle_spread
from aoasim.montecarlo import PathSet, generate_chunk, generate_trial
from aoasim.scenario import (
    ScenarioConfig,
    SweepPoint,
    extract_taps,
    hpbw_sweep,
    run_simulation,
    trials_per_chunk,
)
from aoasim.writers import json_text

from helpers import DELETE, edited_doc, make_profile, nan_power_in_trial, trial_ordered_run


class TestExtractTaps:
    def test_fractional_paths_per_tap_rejected(self):
        # not truncated: 2.7 must not give 2 paths per tap
        delays = np.linspace(0, 10e-6, 50)
        message = "paths_per_tap must be an integer, got 2.7"
        with pytest.raises(ValueError, match=re.escape(message)):
            extract_taps(list(zip(delays, np.exp(-delays / 3e-6))), paths_per_tap=2.7)

    @pytest.mark.parametrize("paths_per_tap", [0, -3])
    def test_paths_per_tap_below_one_names_the_argument(self, paths_per_tap):
        # the argument the caller gave, not taps[0].path_count
        delays = np.linspace(0, 10e-6, 50)
        message = f"paths_per_tap must be at least 1, got {paths_per_tap}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            extract_taps(list(zip(delays, np.exp(-delays / 3e-6))), paths_per_tap=paths_per_tap)

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
        with pytest.raises(ValueError, match="zero-delay"):
            extract_taps([(1e-6, 1.0), (2e-6, 0.5), (3e-6, 0.2)])

    def test_requires_increasing_delays(self):
        with pytest.raises(ValueError, match="greater than"):
            extract_taps([(0.0, 1.0), (2e-6, 0.5), (1e-6, 0.2)])

    def test_requires_three_samples(self):
        with pytest.raises(ValueError, match="at least 3"):
            extract_taps([(0.0, 1.0), (1e-6, 0.5)])

    def test_path_count_assignment(self):
        delays = np.linspace(0, 10e-6, 50)
        powers = np.exp(-delays / 3e-6)
        profile = extract_taps(list(zip(delays, powers)), paths_per_tap=17)
        assert all(t.path_count == 17 for t in profile.taps)

    # Levels on a coarse grid, so plateaus, ties between peaks and between
    # bases, and prominences equal to a threshold are common.
    @settings(max_examples=600, deadline=None)
    @given(st.lists(st.one_of(st.integers(-4, 4).map(lambda k: 0.5 * k),
                              st.floats(-60.0, 60.0)), max_size=40),
           st.integers(0, 12).map(lambda k: 0.5 * k), st.data())
    @example([3.0, 1.0, 2.0, 1.0, 3.0], 1.0, None)  # edge maxima; prominence 1.0
    @example([2.0, 2.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 2.0, 2.0], 1.0, None)  # edge plateaus
    @example([1.0] * 6, 0.0, None)  # flat
    @example([0.0, 0.5, 1.0, 1.0, 1.5], 0.0, None)  # rising, with a plateau
    def test_peak_finder_is_scipy_find_peaks(self, level, threshold, data):
        from scipy.signal import find_peaks, peak_prominences

        x = np.array(level, dtype=float)
        peaks, _ = find_peaks(x)
        # the no-prominence call that rejects a flat or rising profile
        assert np.array_equal(scenario._prominent_peaks(x), peaks)
        thresholds = [threshold]
        if peaks.size and data is not None:
            # exactly one peak's prominence: a peak at the threshold is kept
            thresholds.append(data.draw(st.sampled_from(peak_prominences(x, peaks)[0].tolist())))
        for value in thresholds:
            expected, _ = find_peaks(x, prominence=value)
            assert np.array_equal(scenario._prominent_peaks(x, value), expected)


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
        expected = json.dumps(config.to_json_dict(), indent=2, sort_keys=True) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("prominence", [math.nan, math.inf, -math.inf, -3.0])
    def test_prominence_must_be_finite_and_nonnegative(self, prominence):
        # NaN or +inf would drop every delayed tap without a word
        doc = _config_doc()
        del doc["taps"]
        doc["pdp"] = [[0.0, 1.0], [1.0, 0.2], [2.0, 0.5], [3.0, 0.1]]
        assert len(ScenarioConfig.from_json_dict(doc).taps.taps) == 2
        assert len(ScenarioConfig.from_json_dict(dict(doc, prominence_db=0)).taps.taps) == 2
        message = f"prominence_db must be finite and nonnegative, got {prominence}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ScenarioConfig.from_json_dict(dict(doc, prominence_db=prominence))
        with pytest.raises(ValueError, match=re.escape(message)):
            extract_taps([(d * 1e-6, p) for d, p in doc["pdp"]], min_prominence_db=prominence)

    def test_run_invariants_are_computed_once_and_read_only(self):
        config = _quick_config()
        seeds = config.seed_sequence
        assert config.seed_sequence is seeds and seeds.entropy == config.master_seed
        for name in ("power_scales", "half_angle_ratios"):
            value = getattr(config, name)
            assert getattr(config, name) is value
            assert not value.flags.writeable
        assert not config.taps.tap_index.flags.writeable
        # one ratio per delayed path column, in tap order, from its ellipse
        ecc = np.array([
            ellipse.eccentricity for ellipse in ellipses_for_taps(config.taps, config.distance)
            for _ in range(15)])
        assert np.array_equal(config.half_angle_ratios, (1.0 - ecc) / (1.0 + ecc))

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

    @pytest.mark.parametrize("pdp, message", [
        ([[0.0, 1.0], [1.0, 0.5]], "pdp must hold at least 3 samples, got 2"),
        ([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]],
         "pdp has no local maximum (flat or rising profile); cannot extract taps"),
        ([[0.0, 0.1], [1.0, 0.5], [2.0, 0.9]],
         "pdp has no local maximum (flat or rising profile); cannot extract taps"),
    ], ids=["two-rows", "flat", "rising"])
    def test_pdp_error_names_the_field(self, pdp, message):
        # a scenario's pdp is named as the file names it; extract_taps called
        # from Python names its own argument
        doc = _config_doc()
        del doc["taps"]
        doc["pdp"] = pdp
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScenarioConfig.from_json_dict(doc)
        with pytest.raises(ValueError, match=f"^raw_{re.escape(message)}$"):
            extract_taps([(d * 1e-6, p) for d, p in pdp])

    def test_pdp_rows_are_held_to_the_profile_rules_once(self, monkeypatch):
        # a scenario's rows at load, in microseconds; extract_taps' rows in
        # extract_taps itself, so that a caller from Python keeps the check
        import aoasim.scenario as module

        checked = []
        wrapped = module._check_profile

        def counted(rows, field, *args):
            checked.append(field(0, 0))
            return wrapped(rows, field, *args)

        monkeypatch.setattr(module, "_check_profile", counted)
        doc = _config_doc()
        del doc["taps"]
        doc["pdp"] = [[0.0, 1.0], [1.0, 0.2], [2.0, 0.5], [3.0, 0.1]]
        ScenarioConfig.from_json_dict(doc)
        extract_taps([(d * 1e-6, p) for d, p in doc["pdp"]])
        assert checked == ["pdp[0][0]", "raw_pdp[0][0]"]

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

    def test_bin_count_is_capped(self):
        # the bin index is exact far beyond 2**20 bins, but no further is
        # tested; only construction is checked, since a run would allocate
        # gigabytes
        doc = _config_doc()
        assert ScenarioConfig.from_json_dict(dict(doc, bins=2**20)).bins == 2**20
        assert replace(_quick_config(), bins=2**20).bins == 2**20
        for bad in (2**20 + 1, 3_000_000_000):
            message = f"bins must be from 8 to {2**20}, got {bad}"
            with pytest.raises(ValueError, match=message):
                ScenarioConfig.from_json_dict(dict(doc, bins=bad))
            with pytest.raises(ValueError, match=message):
                _quick_config(bins=bad)

    @pytest.mark.parametrize("field,bad", [
        ("trials", 2.5), ("bins", 40.5), ("master_seed", 1.5), ("trials", True),
    ])
    def test_counts_must_be_integers(self, field, bad):
        # the JSON loader checks its own fields; unchecked, a config built
        # in Python fails deep in the run with a TypeError naming no field
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {bad!r}")):
            _quick_config(**{field: bad})

    def test_numpy_integer_counts_are_kept_as_python_ints(self):
        config = _quick_config(trials=np.int64(3), bins=np.int32(16), master_seed=np.uint64(5),
                               taps=make_profile([0.0, 1.0], [0.5, 0.5], np.int16(4)))
        for count in (config.trials, config.bins, config.master_seed, *config.taps.path_counts):
            assert type(count) is int
        same = _quick_config(trials=3, bins=16, master_seed=5,
                             taps=make_profile([0.0, 1.0], [0.5, 0.5], 4))
        assert json_text(config.to_json_dict()) == json_text(same.to_json_dict())

    def test_validation(self):
        base = _config_doc()
        for key, bad in [("kappa", -1.0), ("mu", -0.5), ("trials", 0), ("bins", 4),
                         ("distance_m", -10.0)]:
            doc = dict(base)
            doc[key] = bad
            with pytest.raises(ValueError):
                ScenarioConfig.from_json_dict(doc)
        # non-finite numbers are rejected at load, naming the field
        for key, field in [("kappa", "kappa"), ("mu", "mu"), ("distance_m", "distance_m")]:
            for bad in (math.nan, math.inf, -math.inf):
                doc = dict(base)
                doc[key] = bad
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    ScenarioConfig.from_json_dict(doc)
        for tap_key, bad, message in [("delay_us", math.nan,
                                       r"taps\[2\]\.delay_us must be finite, got nan"),
                                      ("delay_us", math.inf,
                                       r"taps\[2\]\.delay_us must be finite, got inf"),
                                      ("power", math.inf,
                                       r"taps\[2\]\.power must be positive and finite, got inf")]:
            doc = dict(base)
            doc["taps"] = [dict(tap) for tap in base["taps"]]
            doc["taps"][-1][tap_key] = bad
            with pytest.raises(ValueError, match=message):
                ScenarioConfig.from_json_dict(doc)
        for column, message in [(0, "must lie in (-180, 180] degrees, got nan"),
                                (1, "must be finite and nonnegative, got nan")]:
            samples = [[a, 1.0] for a in range(-165, 180, 30)]
            samples[3][column] = math.nan
            doc = _config_doc({"kind": "tabulated", "samples": samples})
            with pytest.raises(ValueError,
                               match=re.escape(f"pattern.samples[3][{column}] {message}")):
                ScenarioConfig.from_json_dict(doc)
        # mistyped, misspelled and missing fields are rejected at load,
        # each error naming the field by its JSON path
        tabulated = _config_doc({"kind": "tabulated",
                                 "samples": [[a, 1.0] for a in range(-165, 180, 30)]})
        pdp = dict(base, pdp=[[0.0, 1.0], [1.0, 0.2], [2.0, 0.5], [3.0, 0.1]])
        del pdp["taps"]
        for doc, path, bad, message in [
            (base, ("trials",), 2.7, "trials must be an integer"),
            (base, ("bins",), True, "bins must be an integer"),
            (base, ("seed",), 7.5, "seed must be an integer"),
            (base, ("paths_per_tap",), 2.5, "paths_per_tap must be an integer"),
            (base, ("taps", 0, "paths"), True, "taps[0].paths must be an integer"),
            (base, ("kappa",), True, "kappa must be a number"),
            (base, ("mu",), "8", "mu must be a number"),
            (base, ("distance_m",), False, "distance_m must be a number"),
            (base, ("distance_m",), 10 ** 400, "distance_m is out of range"),
            (base, ("taps", 2, "power"), True, "taps[2].power must be a number"),
            (base, ("pattern", "hpbw_deg"), True, "pattern.hpbw_deg must be a number"),
            (tabulated, ("pattern", "samples", 3, 1), True,
             "pattern.samples[3][1] must be a number"),
            (pdp, ("pdp", 1, 0), True, "pdp[1][0] must be a number"),
            (pdp, ("prominence_db",), True, "prominence_db must be a number"),
            # taps are given directly, so a prominence would be ignored silently
            *((base, ("prominence_db",), bad,
               "prominence_db applies only to a 'pdp' scenario, not to 'taps'")
              for bad in (math.nan, 3.0, 0, "abc", None)),
            (pdp, ("pdp", 1, 1), math.nan, "pdp[1][1] must be positive and finite, got nan"),
            (pdp, ("pdp", 3, 1), math.inf, "pdp[3][1] must be positive and finite, got inf"),
            (pdp, ("pdp", 2, 0), math.nan, "pdp[2][0] must be finite, got nan"),
            (pdp, ("pdp", 3, 0), math.inf, "pdp[3][0] must be finite, got inf"),
            (base, ("seeds",), 3, "unknown key: seeds"),
            (base, ("taps", 2, "pwr"), 0.25, "unknown key: taps[2].pwr"),
            (base, ("pattern", "hpbw"), 60.0, "unknown key: pattern.hpbw"),
            (_config_doc({"kind": "omni"}), ("pattern", "hpbw_deg"), 60.0,
             "unknown key: pattern.hpbw_deg"),
            (base, ("mu",), DELETE, "mu is required"),
            (base, ("taps", 1, "power"), DELETE, "taps[1].power is required"),
            (base, ("taps",), {}, "taps must be a list"),
            (base, ("taps",), [], "taps must hold at least the zero-delay tap"),
            # out of order or negative, in the file's units
            (base, ("taps", 2, "delay_us"), 0.5,
             "taps[2].delay_us must be greater than taps[1].delay_us, got 0.5 after 1.0"),
            (tabulated, ("pattern", "samples", 4, 0), -150.0,
             "pattern.samples[4][0] must be greater than pattern.samples[3][0], "
             "got -150.0 after -75.0"),
            (tabulated, ("pattern", "samples", 5, 1), -0.5,
             "pattern.samples[5][1] must be finite and nonnegative, got -0.5"),
            # named as the file names them, not as ScenarioConfig does
            (base, ("distance_m",), -5.0, "distance_m must be finite and nonnegative, got -5.0"),
            (base, ("seed",), -1, f"seed must be from 0 to {2 ** 64 - 1}, got -1"),
            (base, ("seed",), 2 ** 64, f"seed must be from 0 to {2 ** 64 - 1}, got {2 ** 64}"),
            # a PDP's rows by the tap rules, in microseconds
            (pdp, ("pdp", 2, 0), 0.5,
             "pdp[2][0] must be greater than pdp[1][0], got 0.5 after 1.0"),
            (pdp, ("pdp", 0, 0), 0.5, "pdp[0][0] must be 0 (the zero-delay tap), got 0.5"),
            (pdp, ("pdp", 2, 1), 0.0, "pdp[2][1] must be positive and finite, got 0.0"),
            (pdp, ("pdp", 2, 1), -0.5, "pdp[2][1] must be positive and finite, got -0.5"),
            # every sample rule, in degrees
            (tabulated, ("pattern", "samples"), [[a, 1.0] for a in range(-165, 180, 60)],
             "pattern.samples must hold at least 8 samples, got 6"),
            (tabulated, ("pattern", "samples"), [[a, 0.0] for a in range(-165, 180, 30)],
             "pattern.samples must hold a positive amplitude, got all 0"),
            # increasing in degrees, equal in radians
            (tabulated, ("pattern", "samples"),
             [[a, 1.0] for a in (*range(-165, 120, 30), 120.00000000000003, 120.00000000000004)],
             "pattern.samples[11][0] must be greater than pattern.samples[10][0], "
             "got 120.00000000000004 after 120.00000000000003 (equal once converted)"),
        ]:
            # each error starts with the field's path
            with pytest.raises(ValueError, match="^" + re.escape(message)):
                ScenarioConfig.from_json_dict(edited_doc(doc, path, bad))
        with pytest.raises(ValueError, match="scenario must be a JSON object"):
            ScenarioConfig.from_json_dict([base])


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
        assert np.array_equal(a.per_trial_spreads, b.per_trial_spreads)

    def test_report_invariant(self):
        report = run_simulation(_quick_config())
        assert report.angle_spread == rms_angle_spread(report.averaged_spectrum)
        assert len(report.per_trial_spreads) == report.scenario_echo.trials

    def test_spreads_are_read_only_arrays(self):
        # per-path spreads only when asked for; sweep points never carry them
        config = _quick_config()
        asked = run_simulation(config, per_path_spread=True)
        reports = [asked, run_simulation(config)]
        reports += [point.report for point in hpbw_sweep(config, [360.0, 60.0])]
        for report in reports:
            spreads = [report.per_trial_spreads]
            if report is asked:
                spreads.append(report.per_path_spreads)
            else:
                assert report.per_path_spreads is None
            for row in spreads:
                assert row.dtype == np.float64 and row.shape == (config.trials,)
                with pytest.raises(ValueError, match="read-only"):
                    row[0] = 0.0

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


def _assert_same_report(a, b):
    sa, sb = a.averaged_spectrum, b.averaged_spectrum
    assert np.array_equal(sa.density, sb.density)
    assert sa.point_mass_at_zero == sb.point_mass_at_zero
    assert a.angle_spread == b.angle_spread
    assert np.array_equal(a.per_trial_spreads, b.per_trial_spreads)
    if a.per_path_spreads is None or b.per_path_spreads is None:
        assert a.per_path_spreads is b.per_path_spreads is None
    else:
        assert np.array_equal(a.per_path_spreads, b.per_path_spreads)
    assert a.scenario_echo == b.scenario_echo


_CHUNK_PATTERNS = {
    "omni": OmniPattern(),
    "gaussian": GaussianPattern(math.radians(75.0)),
    "tabulated": TabulatedPattern(tuple(
        (math.radians(a), 1.0 + 0.5 * abs(a) / 180.0) for a in range(-165, 180, 30)
    )),
}


def _assert_binned_path_by_path(report, batch):
    # a one-pattern run over all the trials of batch against the loop
    # reference: the averaged density is the trial-ordered sum of the path
    # weights over the bin width and the trial count, bit for bit
    bins, trials = report.scenario_echo.bins, report.scenario_echo.trials
    sums, point_mass, spreads, path_spreads = trial_ordered_run(
        batch.angles, batch.powers, batch.direct_power, bins)
    averaged = report.averaged_spectrum
    assert averaged.density.tobytes() == (sums / (2 * math.pi / bins) / trials).tobytes()
    assert averaged.point_mass_at_zero == float(np.mean(point_mass))
    assert np.array_equal(report.per_trial_spreads, spreads)
    assert np.array_equal(report.per_path_spreads, path_spreads)


def _assert_same_rows(batch, first, part):
    # part holds trials first.. of batch, bit for bit (one-pattern chunks)
    rows = slice(first, first + len(part.angles))
    assert np.array_equal(part.angles, batch.angles[rows])
    assert np.array_equal(part.powers, batch.powers[rows])
    assert np.array_equal(part.tap_index, batch.tap_index)
    assert part.direct_power == batch.direct_power


# 11 paths: 22 uniforms per trial (W = 2P, no multiple of 4)
def _chunk_config(pattern, kappa, mu, counts=(4, 1, 6), trials=10, bins=48):
    taps = make_profile([0.0, 0.8, 2.6], [0.45, 0.35, 0.2]).taps
    return _quick_config(
        taps=TapProfile(tuple(Tap(t.delay, t.power, n) for t, n in zip(taps, counts))),
        pattern=pattern, kappa=kappa, mu=mu, trials=trials, bins=bins,
    )


class TestRunNormalizationCheck:
    """Each trial's path weights and point mass are checked to sum to one, once per chunk."""

    @pytest.mark.parametrize("chunk_size", [1, scenario.CHUNK_SIZE])
    def test_nan_power_fails_the_run(self, monkeypatch, chunk_size):
        monkeypatch.setattr(scenario, "CHUNK_SIZE", chunk_size)
        monkeypatch.setattr(scenario, "draw_uniforms", nan_power_in_trial(2))
        with pytest.raises(ValueError, match=r"^spectrum is not normalized \(defect nan\)$"):
            run_simulation(_quick_config(trials=5), per_path_spread=True)

    def test_nan_power_fails_the_sweep(self, monkeypatch):
        monkeypatch.setattr(scenario, "draw_uniforms", nan_power_in_trial(2))
        with pytest.raises(ValueError, match=r"^spectrum is not normalized \(defect nan\)$"):
            hpbw_sweep(_quick_config(trials=5), [360.0, 60.0])


class TestChunkedTrials:
    """Generating and binning trials in chunks changes no number."""

    @pytest.mark.parametrize("mu", [0.0, 6.0])
    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    @pytest.mark.parametrize("kind", sorted(_CHUNK_PATTERNS))
    def test_chunk_size_changes_no_number(self, monkeypatch, kind, kappa, mu):
        config = _chunk_config(_CHUNK_PATTERNS[kind], kappa, mu)
        batch = generate_chunk(config, 0, config.trials)
        per_trial = max(11, 48)     # the wider of paths and bins
        reports = []
        default = scenario.CHUNK_SIZE
        # one trial per chunk, 7 + 3 (a ragged last chunk), all 10 at once
        for chunk_size, step in ((1, 1), (7 * per_trial, 7), (default, default // per_trial)):
            monkeypatch.setattr(scenario, "CHUNK_SIZE", chunk_size)
            assert trials_per_chunk(config) == step
            reports.append(run_simulation(config, per_path_spread=True))
            # the running sum adds the path weights in trial order
            _assert_binned_path_by_path(reports[-1], batch)
        for report in reports[1:]:
            _assert_same_report(reports[0], report)

        # any subset of trials reads the same uniforms
        for k in range(config.trials):
            single = generate_trial(config, k)
            assert np.array_equal(batch.angles[k], single.angles)
            assert np.array_equal(batch.powers[k], single.powers)
        for first, stop in ((0, 1), (3, 7), (2, 10), (9, 10)):
            part = generate_chunk(config, first, stop)
            _assert_same_rows(batch, first, part)

    @pytest.mark.parametrize("paths_per_tap, bins, step", [
        (50, 360, 91),      # the shipped scenario's 250 paths, as sweep_paper runs it
        (4, 64, 512),       # 20 paths, as simulate_many runs it
        (5000, 3600, 1),    # 25,000 paths, as simulate_wide runs it
    ])
    def test_chunk_is_sized_by_its_widest_row(self, paths_per_tap, bins, step):
        taps = make_profile([0.0, 1.0, 2.0, 3.0, 4.0], [0.3, 0.25, 0.2, 0.15, 0.1], paths_per_tap)
        assert trials_per_chunk(_quick_config(taps=taps, bins=bins)) == step

    @settings(max_examples=200, deadline=None)
    @given(paths=st.integers(1, 70_000), bins=st.integers(8, 70_000))
    def test_chunk_takes_as_many_trials_as_its_widest_row_allows(self, paths, bins):
        # each (trials, paths) array and the (trials, bins) rows hold at
        # most CHUNK_SIZE entries, unless one trial alone is wider
        step = trials_per_chunk(_quick_config(taps=make_profile([0.0], [1.0], paths), bins=bins))
        widest = max(paths, bins)
        assert step == 1 or step * widest <= scenario.CHUNK_SIZE
        assert (step + 1) * widest > scenario.CHUNK_SIZE

    def test_trial_wider_than_a_chunk(self, monkeypatch):
        # 33,001 paths per trial (66,002 uniforms, padded to 66,004): more
        # than a default chunk holds, so each trial is a chunk of its own;
        # compare with both trials in one chunk
        config = _chunk_config(_CHUNK_PATTERNS["gaussian"], 0.5, 6.0,
                               counts=(11_000, 11_000, 11_001), trials=2, bins=360)
        assert trials_per_chunk(config) == 1
        alone = run_simulation(config, per_path_spread=True)
        monkeypatch.setattr(scenario, "CHUNK_SIZE", 2 * max(33_001, 360))
        assert trials_per_chunk(config) == 2
        _assert_same_report(alone, run_simulation(config, per_path_spread=True))
        batch = generate_chunk(config, 0, 2)
        part = generate_chunk(config, 1, 2)
        _assert_same_rows(batch, 1, part)
        _assert_binned_path_by_path(alone, batch)

    def test_memory_does_not_grow_with_trials_times_bins(self):
        # each chunk's rows are reduced before the next
        config = _memory_config()
        _, peak = _traced_memory(lambda: run_simulation(config), config)
        assert peak < config.trials * config.bins * 8 / 4

    def test_chunk_binning_and_reduce_peak_at_two_chunk_arrays(self, monkeypatch):
        # One chunk of 64 trials over 2048 bins, 4 paths each.  No array
        # of the chunk is bins wide: the path weights go straight into the
        # running sum and the spreads come from the paths, so a single
        # (trials, bins) array, of density rows or of their probabilities,
        # would take 1 MB and fail the bound.  The allowance covers the
        # few bins-sized arrays, the paths and the generator.  An omni
        # pattern, so that no first SciPy import is counted.
        config = _quick_config(taps=make_profile([0.0, 1.0], [0.5, 0.5], 2),
                               pattern=OmniPattern(), trials=64, bins=2048)
        monkeypatch.setattr(scenario, "CHUNK_SIZE", 64 * max(4, 2048))
        assert trials_per_chunk(config) == config.trials
        _, peak = _traced_memory(lambda: run_simulation(config), config)
        assert peak < config.trials * config.bins * 8 / 4

    @pytest.mark.parametrize("command", ["run_simulation", "fit"])
    def test_one_pattern_searches_each_chunk_once(self, monkeypatch, tmp_path, capsys, command):
        # 40 trials in 2 chunks of 20 under one pattern: each chunk's 15
        # local and 30 delayed paths are binned in one search, of the
        # local row and the delayed taps' rows together
        from aoasim import kernels
        from aoasim.cli import main

        config = _quick_config(trials=40)
        searched = []
        search = kernels._guided_count

        def counted(*args, **kwargs):
            searched.append(np.shape(args[3]))
            return search(*args, **kwargs)

        monkeypatch.setattr(scenario, "CHUNK_SIZE", 20 * 90)
        monkeypatch.setattr(kernels, "_guided_count", counted)
        if command == "fit":
            config.to_file(tmp_path / "scenario.json")
            (tmp_path / "empirical.csv").write_text("0,0.003\n", encoding="utf-8")
            assert main(["fit", "--scenario", str(tmp_path / "scenario.json"),
                         "--empirical", str(tmp_path / "empirical.csv")]) == 0
        else:
            run_simulation(config)
        assert searched == [(20, 45)] * 2


def _memory_config():
    # 1000 trials over 2048 bins: a (trials, bins) buffer alone would take
    # 16 MB
    return _quick_config(taps=make_profile([0.0, 1.0], [0.5, 0.5], 4), trials=1000, bins=2048)


def _traced_memory(run, config):
    # (what the call's result holds, peak) as tracemalloc counts them.  The
    # config's von Mises table is built first: whether an earlier test has
    # already cached it (0.75 MiB: a float64 CDF and an int32 guide of
    # 65,537 nodes each) would otherwise decide what is counted
    config.local.quantile(np.zeros(1))
    tracemalloc.start()
    try:
        result = run()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return retained, peak


class TestHpbwSweep:
    def test_single_point_equals_plain_run(self):
        config = _quick_config()
        [point] = hpbw_sweep(config, [math.degrees(config.pattern.hpbw)])
        direct = run_simulation(config)
        _assert_same_report(point.report, direct)
        assert point.angle_spread == direct.angle_spread

    @pytest.mark.parametrize("bad", [400.0, 0.0, math.nan, 5e-324])
    def test_bad_beamwidth_is_named_in_degrees(self, bad):
        with pytest.raises(ValueError, match=re.escape(
                f"hpbw_deg_list[1] must lie in (0, 360] degrees, got {bad}")):
            hpbw_sweep(_quick_config(), [60.0, bad])

    @pytest.mark.parametrize("kappa,mu", [(0.0, 0.0), (0.5, 6.0)])
    def test_stacked_chunks_equal_runs_at_each_beamwidth(self, monkeypatch, kappa, mu):
        # 10 trials in chunks of 3 (a ragged last chunk of 1), each drawn
        # once for the three points; tap 1 has a single path
        config = _chunk_config(_CHUNK_PATTERNS["gaussian"], kappa, mu)
        hpbws = [360.0, 75.0, 12.5]
        monkeypatch.setattr(scenario, "CHUNK_SIZE", 3 * max(11, 48))
        assert trials_per_chunk(config) == 3
        points = hpbw_sweep(config, hpbws)
        assert [point.hpbw_deg for point in points] == hpbws
        for hpbw, point in zip(hpbws, points):
            beam = replace(config, pattern=GaussianPattern(math.radians(hpbw)))
            _assert_same_report(point.report, run_simulation(beam))
            assert point.angle_spread == point.report.angle_spread

    def test_each_chunk_is_drawn_once_for_all_points(self, monkeypatch):
        from aoasim import montecarlo

        config = _quick_config(trials=40)
        hpbws = [360.0, 180.0, 120.0, 90.0, 60.0]
        draw = montecarlo.draw_uniforms
        drawn = []

        def counting_draw(config, first, stop):
            drawn.append((first, stop))
            return draw(config, first, stop)

        monkeypatch.setattr(scenario, "CHUNK_SIZE", 4 * len(hpbws) * max(45, 90))
        monkeypatch.setattr(scenario, "draw_uniforms", counting_draw)
        hpbw_sweep(config, hpbws)
        # 40 trials in 2 chunks of 20, as one run takes them, each drawn
        # once for all 5 points
        assert drawn == [(0, 20), (20, 40)]

    def test_fixed_costs_are_paid_once_per_run_or_per_chunk(self, monkeypatch):
        # 40 trials in 2 chunks of 20 for 5 points: the run's SeedSequence
        # is built once, and the bin edges are mapped through the delayed
        # taps' ellipses once, in one call of the one map (by aoa_to_aod),
        # as the run's thresholds are built; no path's angle is mapped.
        # Each chunk bins all its paths under all 5 points, one group of
        # patterns, in one search.
        from aoasim import geometry, kernels

        config = _quick_config(trials=40)
        hpbws = [360.0, 180.0, 120.0, 90.0, 60.0]
        seed_sequence = np.random.SeedSequence
        seeds, mapped, angle_maps, searched = [], [], [], []

        def counting(owner, name, shapes, argument=0):
            # the shape of each call's angles or uniforms
            wrapped = getattr(owner, name)

            def counted(*args, **kwargs):
                shapes.append(np.shape(args[argument]))
                return wrapped(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        def counting_seed_sequence(*args, **kwargs):
            seeds.append(args)
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(scenario, "CHUNK_SIZE", 4 * len(hpbws) * max(45, 90))
        monkeypatch.setattr(np.random, "SeedSequence", counting_seed_sequence)
        counting(geometry, "_half_angle_map", mapped)
        counting(montecarlo, "_half_angle_map", angle_maps)
        counting(kernels, "_guided_count", searched, argument=3)
        hpbw_sweep(config, hpbws)
        assert seeds == [(config.master_seed,)]
        # the 89 interior edges of 90 bins on taps 1 and 2; 15 local and
        # 30 delayed paths per trial
        assert mapped == [(2, 89)]
        assert angle_maps == []
        assert searched == [(20, 45)] * 2

    def test_power_work_is_done_once_per_chunk(self, monkeypatch):
        # 40 trials in 2 chunks of 20 for 5 points: the total powers and
        # point masses depend on the shared powers alone, so they are
        # taken once per chunk, not once per point and chunk; only each
        # report's averaged spectrum checks its point mass
        from aoasim import estimation

        config = _quick_config(trials=40)
        hpbws = [360.0, 180.0, 120.0, 90.0, 60.0]
        calls = {"_total_power": 0, "_check_point_mass": 0}

        def counting(owner, name):
            wrapped = getattr(owner, name)

            def counted(*args):
                calls[name] += 1
                return wrapped(*args)
            monkeypatch.setattr(owner, name, counted)

        monkeypatch.setattr(scenario, "CHUNK_SIZE", 4 * len(hpbws) * max(45, 90))
        counting(scenario, "_total_power")
        counting(estimation, "_check_point_mass")
        hpbw_sweep(config, hpbws)
        assert calls == {"_total_power": 2, "_check_point_mass": len(hpbws)}

    @pytest.mark.parametrize("points", [1, 2, 5, 40])
    def test_sweep_takes_as_many_chunks_as_one_run(self, monkeypatch, points):
        # 41 trials in chunks of 4 (a ragged last chunk of 1) whatever the
        # point count: ceil(41 / 4) = 11 draws, as run_simulation makes
        from aoasim import montecarlo

        config = _quick_config(trials=41)
        draw = montecarlo.draw_uniforms
        drawn = []

        def counting_draw(config, first, stop):
            drawn.append((first, stop))
            return draw(config, first, stop)

        monkeypatch.setattr(scenario, "CHUNK_SIZE", 4 * max(45, 90))
        monkeypatch.setattr(scenario, "draw_uniforms", counting_draw)
        run_simulation(config)
        alone = drawn[:]
        drawn.clear()
        hpbw_sweep(config, np.linspace(20.0, 360.0, points))
        assert drawn == alone
        assert len(alone) == math.ceil(config.trials / trials_per_chunk(config)) == 11

    def test_memory_does_not_grow_with_points_times_trials(self):
        # 40 points: one (points, trials, bins) buffer would take 655 MB.
        # What the call retains is the 40 reports returned, about 1.4 MB
        # (an array of 1000 spreads and one of 2048 bins each); above them,
        # the sweep keeps to the bound that one run_simulation of the
        # scenario keeps
        config = _memory_config()
        hpbws = np.linspace(20.0, 360.0, 40)
        retained, peak = _traced_memory(lambda: hpbw_sweep(config, hpbws), config)
        assert peak - retained < config.trials * config.bins * 8 / 4

    def test_each_point_equals_a_run_at_its_beamwidth(self):
        config = _quick_config(trials=12)
        hpbws = [360.0, 200.0, 45.0]
        for hpbw, point in zip(hpbws, hpbw_sweep(config, hpbws)):
            beam = replace(config, pattern=GaussianPattern(math.radians(hpbw)))
            _assert_same_report(point.report, run_simulation(beam))
            assert point.angle_spread == point.report.angle_spread

    def test_points_share_common_random_numbers(self):
        # only the delayed taps' departure angles depend on the beamwidth
        config = _quick_config(trials=6)
        wide, narrow = (generate_chunk(replace(config, pattern=GaussianPattern(math.radians(h))),
                                       0, config.trials) for h in (200.0, 45.0))
        local = wide.tap_index == 0
        assert np.array_equal(wide.powers, narrow.powers)
        assert np.array_equal(wide.angles[..., local], narrow.angles[..., local])
        assert not np.any(wide.angles[..., ~local] == narrow.angles[..., ~local])

    def test_narrower_beam_reduces_spread(self):
        config = _quick_config(trials=60, kappa=0.0, mu=2.0)
        points = hpbw_sweep(config, [360.0, 60.0])
        assert points[0].angle_spread > points[1].angle_spread

    def test_point_spread_is_its_report_spread(self):
        # a point holds its beamwidth and report; its spread is read from
        # the report, never stored beside it
        assert SweepPoint._fields == ("hpbw_deg", "report")
        for point in hpbw_sweep(_quick_config(trials=4), [360.0, 60.0]):
            assert point.angle_spread is point.report.angle_spread

    def test_requires_gaussian_pattern(self):
        config = _quick_config(pattern=OmniPattern())
        with pytest.raises(ValueError, match="Gaussian"):
            hpbw_sweep(config, [360.0])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match=r"^hpbw_deg_list must list at least one beamwidth$"):
            hpbw_sweep(_quick_config(), [])
