"""Acceptance gate: one test per release criterion.

Each test prints a single pass/fail line (run with -s to see them on
success; they are shown in captured output on failure) and enforces the
criterion's tolerance.
"""

import json
import math
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from aoasim.angular import (
    GaussianPattern,
    LocalScattering,
    OmniPattern,
    TabulatedPattern,
    Tap,
    TapProfile,
    composite_aoa_pdf,
    delayed_aoa_pdf,
    ellipses_for_taps,
    sigma_from_hpbw,
)
from aoasim.cli import main
from aoasim.estimation import estimate_pdf, rms_angle_spread
from aoasim.geometry import aoa_jacobian, aoa_to_aod, aod_to_aoa
from aoasim.montecarlo import PathSet, generate_trial, sample_aod
from aoasim.scenario import ScenarioConfig, hpbw_sweep, run_simulation

from helpers import (
    chi_square_equal_prob,
    ellipse_with_eccentricity,
    gaussian_aod_quantiles,
    make_profile,
    profile_with_delay_spread,
)

TWO_PI = 2 * math.pi
DEG = math.pi / 180.0


def _criterion(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" | {detail}" if detail else ""
    line = f"[acceptance {number}] {status}: {description}{suffix}"
    # bypass pytest capture so every verdict line reaches the console
    print(line, file=sys.__stdout__)
    assert ok, line


def _random_scenario(rng):
    n_delayed = int(rng.integers(0, 4))
    delays_us = np.concatenate([[0.0], np.sort(rng.uniform(0.3, 15.0, n_delayed))])
    powers = rng.uniform(0.1, 1.0, n_delayed + 1)
    counts = int(rng.integers(5, 80))
    profile = make_profile(delays_us, powers, counts)
    kind = rng.integers(0, 3)
    if kind == 0:
        pattern = OmniPattern()
    elif kind == 1:
        pattern = GaussianPattern(math.radians(rng.uniform(30.0, 360.0)))
    else:
        node_count = int(rng.integers(8, 15))
        angles = np.sort(rng.uniform(-math.pi + 0.05, math.pi, node_count))
        while np.any(np.diff(angles) <= 1e-3):
            angles = np.sort(rng.uniform(-math.pi + 0.05, math.pi, node_count))
        amplitudes = rng.uniform(0.05, 1.5, node_count)
        pattern = TabulatedPattern(tuple(zip(angles, amplitudes)))
    kappa = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 4.0))
    return ScenarioConfig(
        distance=float(rng.uniform(100.0, 3000.0)),
        taps=profile,
        pattern=pattern,
        kappa=kappa,
        mu=float(rng.uniform(0.0, 40.0)),
        trials=5,
        bins=int(rng.integers(8, 721)),
        master_seed=int(rng.integers(0, 2 ** 32)),
    )


def test_criterion_1_normalization_suite():
    """Composite density + point mass integrate to one for random scenarios."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_integral = 0.0
    worst_spectrum = 0.0
    for _ in range(50):
        config = _random_scenario(rng)
        ellipses = ellipses_for_taps(config.taps, config.distance)
        local = config.local
        # guide the quadrature: component width scales, plus the arrival-side
        # images of the tabulated-pattern kinks for every ellipse
        break_points = {0.0}
        sigma = sigma_from_hpbw(config.pattern.hpbw) \
            if isinstance(config.pattern, GaussianPattern) else 1.0
        scales = [1.0 / math.sqrt(max(config.mu, 0.25))]
        scales += [
            sigma * (1 - e.eccentricity) / (1 + e.eccentricity) for e in ellipses
        ]
        for scale in scales:
            for factor in (0.5, 1.0, 4.0, 16.0):
                value = min(scale * factor, 0.999 * math.pi)
                break_points.update((value, -value))
        if isinstance(config.pattern, TabulatedPattern):
            nodes = [a for a, _ in config.pattern.samples]
            break_points.update(nodes)
            for ellipse in ellipses:
                break_points.update(
                    float(aod_to_aoa(a, ellipse.eccentricity)) for a in nodes
                )
        integral, _ = quad(
            lambda x: composite_aoa_pdf(x, ellipses, config.taps, config.pattern, local)[0],
            -math.pi, math.pi,
            points=sorted(break_points), limit=800, epsabs=1e-11, epsrel=1e-11,
        )
        _, point_mass = composite_aoa_pdf(0.0, ellipses, config.taps, config.pattern, local)
        worst_integral = max(worst_integral, abs(integral + point_mass - 1.0))
        for trial in range(3):
            spectrum = estimate_pdf(generate_trial(config, trial), config.bins)
            worst_spectrum = max(worst_spectrum, spectrum.normalization_defect())
    elapsed = time.perf_counter() - start
    _criterion(
        1, "normalization suite (50 random scenarios)",
        worst_integral <= 1e-8 and worst_spectrum <= 1e-9,
        f"max integral defect {worst_integral:.2e}, max spectrum defect "
        f"{worst_spectrum:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_geometry_oracle():
    """Round trip, monotonicity, compression, and jacobian-vs-differences."""
    start = time.perf_counter()
    rng = np.random.default_rng(77)

    worst_round_trip = 0.0
    compression_violations = 0
    for ecc in rng.uniform(0.0, 1.0, 100):
        phi = rng.uniform(-math.pi, math.pi, 1000)
        mapped = aod_to_aoa(phi, ecc)
        back = aoa_to_aod(mapped, ecc)
        worst_round_trip = max(worst_round_trip, float(np.max(np.abs(back - phi))))
        compression_violations += int(np.sum(np.abs(mapped) > np.abs(phi)))

    monotonic = True
    for ecc in [0.0, 0.25, 0.5, 0.769, 0.9, 0.99, 0.999]:
        grid = np.linspace(1e-6, math.pi - 1e-6, 1000)
        monotonic &= bool(np.all(np.diff(aod_to_aoa(grid, ecc)) > 0))

    step = 1e-5
    worst_jacobian = 0.0
    for ecc in rng.uniform(0.0, 0.99, 100):
        phi = rng.uniform(-3.0, 3.0, 100)
        numeric = (aod_to_aoa(phi + step, ecc) - aod_to_aoa(phi - step, ecc)) / (2 * step)
        analytic = aoa_jacobian(phi, ecc)
        worst_jacobian = max(worst_jacobian, float(np.max(np.abs(numeric - analytic) / analytic)))

    elapsed = time.perf_counter() - start
    _criterion(
        2, "geometry oracle (1e5 round trips, monotonicity, compression, jacobian FD)",
        worst_round_trip <= 1e-9 and compression_violations == 0 and monotonic
        and worst_jacobian <= 1e-6,
        f"round trip {worst_round_trip:.2e} rad, compression violations "
        f"{compression_violations}, jacobian rel err {worst_jacobian:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_sampler_vs_analytic():
    """Mapped departure samples match the delayed arrival density (chi-square)."""
    start = time.perf_counter()
    rng = np.random.default_rng(550)
    n = 1_000_000
    k = 200
    quantiles = np.linspace(0.0, 1.0, k + 1)
    failures = []
    worst_cdf_defect = 0.0
    for hpbw_deg in [60.0, 180.0, 360.0]:
        pattern = GaussianPattern(math.radians(hpbw_deg))
        sigma = sigma_from_hpbw(pattern.hpbw)
        aod_edges = gaussian_aod_quantiles(quantiles, sigma)
        for ecc in [0.0, 0.25, 0.5, 0.769, 0.9]:
            ellipse = ellipse_with_eccentricity(ecc)
            edges = np.asarray(aod_to_aoa(aod_edges, ecc), dtype=float)
            edges[0] = -math.pi - 1e-9
            edges[-1] = math.pi + 1e-9
            # tie the equal-probability construction to the shipped density
            for j in (k // 2, k // 3, 1):
                piece, _ = quad(
                    lambda x: delayed_aoa_pdf(x, ellipse, pattern),
                    max(edges[j], -math.pi), min(edges[j + 1], math.pi),
                    epsabs=1e-12, epsrel=1e-12,
                )
                worst_cdf_defect = max(worst_cdf_defect, abs(piece - 1.0 / k))
            samples = aod_to_aoa(sample_aod(pattern, rng, size=n), ecc)
            stat, crit = chi_square_equal_prob(samples, edges, alpha=0.001)
            if stat >= crit:
                failures.append((hpbw_deg, ecc, stat, crit))
    elapsed = time.perf_counter() - start
    _criterion(
        3, "sampler vs analytic density (15 combos, 1e6 samples, alpha=0.001)",
        not failures and worst_cdf_defect <= 1e-7,
        f"failures {failures}, bin-probability defect {worst_cdf_defect:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_analytic_angle_spread():
    """Uniform, point-mass, and two-point spectra hit their closed forms."""
    start = time.perf_counter()

    uniform_config = ScenarioConfig(
        distance=1000.0,
        taps=TapProfile((Tap(0.0, 1.0, 200),)),
        pattern=OmniPattern(),
        kappa=0.0,
        mu=0.0,
        trials=500,
        bins=360,
        master_seed=31,
    )
    uniform_spread_deg = run_simulation(uniform_config).angle_spread / DEG
    uniform_ok = abs(uniform_spread_deg - 103.92) <= 1.0

    concentrated = PathSet(np.full(3, 0.7), np.array([1.0, 2.0, 0.5]), np.zeros(3, dtype=int))
    point_spread = rms_angle_spread(estimate_pdf(concentrated, 360))
    direct_only = PathSet(np.empty(0), np.empty(0), np.empty(0, dtype=int), direct_power=1.0)
    direct_spread = rms_angle_spread(estimate_pdf(direct_only, 360))
    point_ok = point_spread == 0.0 and direct_spread == 0.0

    x = 1.1
    bins = 360
    two_point = PathSet(np.array([-x, x]), np.ones(2), np.zeros(2, dtype=int))
    pair_spread = rms_angle_spread(estimate_pdf(two_point, bins))
    pair_ok = abs(pair_spread - x) <= TWO_PI / bins

    elapsed = time.perf_counter() - start
    _criterion(
        4, "analytic angle-spread checks",
        uniform_ok and point_ok and pair_ok,
        f"uniform {uniform_spread_deg:.2f} deg (target 103.92 +/- 1), point "
        f"{point_spread:.1e}/{direct_spread:.1e}, pair {pair_spread:.4f} vs {x}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_beamwidth_and_delay_spread_trends():
    """Narrower beams never widen the spread; longer delay spread widens it."""
    start = time.perf_counter()
    hpbw_list = [360.0, 180.0, 120.0, 90.0, 60.0]
    spreads = {}
    errors = {}
    for label, spread_us in (("long", 2.35), ("short", 1.2)):
        config = ScenarioConfig(
            distance=1000.0,
            taps=profile_with_delay_spread(spread_us, paths_per_tap=50),
            pattern=GaussianPattern(math.radians(360.0)),
            kappa=0.2,
            mu=15.0,
            trials=500,
            bins=360,
            master_seed=2001,
        )
        points = hpbw_sweep(config, hpbw_list)
        spreads[label] = [p.angle_spread for p in points]
        errors[label] = [p.report.spread_standard_error() for p in points]

    monotone_ok = True
    for label in spreads:
        values = spreads[label]
        tolerance = errors[label]
        for i in range(len(values) - 1):
            allowed = math.hypot(tolerance[i], tolerance[i + 1])
            if values[i + 1] > values[i] + allowed:
                monotone_ok = False

    dominance_ok = all(a > b for a, b in zip(spreads["long"], spreads["short"]))

    elapsed = time.perf_counter() - start
    long_deg = [f"{v / DEG:.1f}" for v in spreads["long"]]
    short_deg = [f"{v / DEG:.1f}" for v in spreads["short"]]
    _criterion(
        5, "HPBW sweep monotone, longer delay spread dominates (500 trials)",
        monotone_ok and dominance_ok,
        f"long {long_deg} deg, short {short_deg} deg over {hpbw_list}, {elapsed:.1f}s",
    )


def test_criterion_6_power_accounting():
    """Expected path-set power matches the profile; Rician split holds."""
    start = time.perf_counter()
    trials = 10_000
    results = {}
    ok = True
    for kappa in (0.0, 1.0, 3.0):
        profile = make_profile([0.0, 1.0, 3.0], [0.4, 0.35, 0.25], 10)
        taps = TapProfile(tuple(
            Tap(t.delay, t.power, count)
            for t, count in zip(profile.taps, (10, 20, 30))
        ))
        config = ScenarioConfig(
            distance=1000.0, taps=taps, pattern=GaussianPattern(math.radians(120.0)),
            kappa=kappa, mu=5.0, trials=1, bins=36, master_seed=17,
        )
        p0 = taps.taps[0].power
        totals = np.empty(trials)
        local_sums = np.empty(trials)
        direct_sums = np.empty(trials)
        for i in range(trials):
            paths = generate_trial(config, i)
            totals[i] = paths.total_power()
            local_sums[i] = paths.powers[paths.tap_index == 0].sum()
            direct_sums[i] = paths.direct_power
        total_err = abs(np.mean(totals) - 1.0)
        local_err = abs(np.mean(local_sums) - p0 / (1 + kappa)) / (p0 / (1 + kappa))
        expected_direct = kappa * p0 / (1 + kappa)
        if kappa == 0.0:
            direct_err = abs(np.mean(direct_sums))
        else:
            direct_err = abs(np.mean(direct_sums) - expected_direct) / expected_direct
        results[kappa] = (total_err, local_err, direct_err)
        ok &= total_err <= 0.01 and local_err <= 0.01 and direct_err <= 0.01
    elapsed = time.perf_counter() - start
    detail = ", ".join(
        f"kappa={k}: total {v[0]:.4f}, local {v[1]:.4f}, direct {v[2]:.4f}"
        for k, v in results.items()
    )
    _criterion(6, "power accounting over 1e4 trials", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_7_deterministic_outputs(tmp_path):
    """Sweep reruns are byte-identical, including concurrent execution."""
    start = time.perf_counter()
    doc = {
        "distance_m": 1200.0,
        "kappa": 0.3,
        "mu": 10.0,
        "trials": 60,
        "bins": 360,
        "seed": 99,
        "pattern": {"kind": "gaussian", "hpbw_deg": 360.0},
        "taps": [
            {"delay_us": 0.0, "power": 0.4, "paths": 30},
            {"delay_us": 1.2, "power": 0.35, "paths": 30},
            {"delay_us": 4.0, "power": 0.25, "paths": 30},
        ],
    }
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    args = ["sweep", "--scenario", str(scenario), "--hpbw", "360,180,120,90,60"]
    out_serial = tmp_path / "serial"
    out_again = tmp_path / "again"
    out_threads = tmp_path / "threads"
    codes = [
        main(args + ["--out", str(out_serial), "--workers", "1"]),
        main(args + ["--out", str(out_again), "--workers", "1"]),
        main(args + ["--out", str(out_threads), "--workers", "4"]),
    ]
    identical = all(
        (out_serial / name).read_bytes() == (other / name).read_bytes()
        for name in ("sweep.csv", "report.json")
        for other in (out_again, out_threads)
    )
    elapsed = time.perf_counter() - start
    _criterion(
        7, "byte-identical sweep outputs across reruns and worker counts",
        codes == [0, 0, 0] and identical,
        f"exit codes {codes}, identical={identical}, {elapsed:.1f}s",
    )


def test_criterion_8_fit_emits_lse(tmp_path, capsys):
    """The fit command scores user-supplied empirical spectra."""
    start = time.perf_counter()
    profile = make_profile([0.0, 1.0, 3.0], [0.4, 0.35, 0.25], 30)
    config = ScenarioConfig(
        distance=1000.0, taps=profile, pattern=GaussianPattern(math.radians(360.0)),
        kappa=0.2, mu=10.0, trials=50, bins=360, master_seed=5,
    )
    scenario = tmp_path / "scenario.json"
    config.to_file(scenario)

    # synthetic "measured" spectrum: the analytic composite on a 1-degree grid
    ellipses = ellipses_for_taps(config.taps, config.distance)
    centers_deg = np.arange(-179.5, 180.0, 1.0)
    density_rad, _ = composite_aoa_pdf(
        centers_deg * DEG, ellipses, config.taps, config.pattern, config.local
    )
    empirical = tmp_path / "empirical.csv"
    lines = ["angle_deg,density_per_deg"]
    lines += [f"{a},{d * DEG}" for a, d in zip(centers_deg, density_rad)]
    empirical.write_text("\n".join(lines), encoding="utf-8")

    code = main(["fit", "--scenario", str(scenario), "--empirical", str(empirical)])
    captured = capsys.readouterr()
    result = json.loads(captured.out)
    elapsed = time.perf_counter() - start
    _criterion(
        8, "fit command emits an LSE score against empirical data",
        code == 0 and result["lse"] >= 0.0 and result["points"] == 360,
        f"lse {result.get('lse'):.6f} (per-radian densities, no pass/fail "
        f"threshold attached), {elapsed:.1f}s",
    )
