"""One workload of the aoasim benchmark, in its own fresh process.

Started by bench/run.py with the plan file it wrote:

    python3 bench/measure.py PLAN.json
    python3 bench/measure.py --setup-probe SCENARIO.json

The process first times set-up: importing ``aoasim.cli`` and loading the
scenario with ``ScenarioConfig.from_file``.  Only the standard library
is imported before that.  One untimed warm-up call to ``aoasim.cli.main``
follows; its outputs are the reference that every later call must
reproduce byte for byte.  Then calls run in a closed loop, one at a
time, for the planned seconds.  With tracing on, the loop runs for half
the time untraced and half with spans installed (bench/spans.py).
Last come the NumPy floor and the L1 distance to the analytic density
(bench/reference.py).  The last stdout line is one JSON object.

A call fails, and counts toward the error rate without stopping the run,
on a nonzero exit, an exception, a missing or unparsable report.json, a
normalization defect above ``aoasim.estimation.NORMALIZATION_TOL``, or
an output file that differs from the warm-up call's.  The run is also
incorrect when the spectrum is further from the analytic density than
sampling noise explains: more than L1_NOISE_FACTOR times the L1 distance
of the NumPy floor's spectra, which draw from the same distributions.

Timings are scaled for machine speed.  On a shared host, other tenants
slow this process by up to 2x for tens of seconds at a time, which
would swamp any change to the program.  A fixed pure-Python loop
and a fixed NumPy kernel are timed between calls, and each timing is
scaled by REFERENCE_PROBE_S over the probe's duration around it, so it
reads as the time on an unloaded host.  Raw wall times are kept in the record.
"""

from __future__ import annotations

import gc
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

FLOOR_REPEATS = 5
L1_NOISE_FACTOR = 2.0
PROBE_LOOPS = 200_000
PROBE_ELEMENTS = 150_000
PROBE_PASSES = 4
# Median probe duration on the unloaded 2-core Intel Xeon host the
# benchmark was calibrated on (CPython 3.11, NumPy 2.4).
REFERENCE_PROBE_S = 0.0135


class SpeedProbe:
    """Times a fixed pure-Python loop plus a fixed NumPy kernel.

    The two halves track interpreter-bound and memory-bound code, which
    other tenants slow by different amounts.  The NumPy buffers are
    allocated once and never freed, so probing between calls leaves the
    process's peak memory and its allocator's state alone.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.values = np.linspace(-3.0, 3.0, PROBE_ELEMENTS)
        self.work = np.empty_like(self.values)
        self.index = np.empty(PROBE_ELEMENTS, dtype=np.intp)

    def __call__(self):
        np, values, work, index = self.np, self.values, self.work, self.index
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            total = 0
            for i in range(PROBE_LOOPS):
                total += i
            for _ in range(PROBE_PASSES):
                np.multiply(values, 0.5, out=work)
                np.arctan(np.tan(work, out=work), out=work)
                np.multiply(work, 10.0, out=work)
                np.add(work, 20.0, out=work)
                np.copyto(index, work, casting="unsafe")
                np.bincount(index, weights=values)
            runs.append(time.perf_counter() - start)
        return statistics.median(runs)


def scaled(seconds, before, after):
    """A wall time scaled to the reference machine speed."""
    return seconds * REFERENCE_PROBE_S / (0.5 * (before + after))


def timed_setup(scenario_path):
    """Import the CLI and load the scenario; return (cli module, wall s, scaled s).

    The speed probe needs NumPy, so it runs only after the timed import.
    """
    start = time.perf_counter()
    import aoasim
    import aoasim.cli

    aoasim.ScenarioConfig.from_file(scenario_path)
    wall = time.perf_counter() - start
    after = SpeedProbe()()
    return aoasim.cli, wall, scaled(wall, after, after)


def _tail(durations):
    """Highest percentile with at least 10 calls beyond it (the fastest call if none has).

    Returns (value, nearest-rank percentile).
    """
    ordered = sorted(durations)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Workload:
    """Closed-loop caller of aoasim.cli.main for one plan."""

    def __init__(self, plan, cli):
        from aoasim import estimation

        self.plan = plan
        self.main = cli.main
        self.out_dir = Path(plan["out_dir"])
        self.tolerance = getattr(estimation, "NORMALIZATION_TOL", 1e-9)
        self.reference = None
        self.attempted = 0
        self.failures = []
        self.probe = SpeedProbe()
        self.last_probe = self.probe()

    def call(self, invoke=None):
        """One checked call; returns (wall s, scaled s), or None if it failed."""
        for name in self.plan["outputs"]:
            (self.out_dir / name).unlink(missing_ok=True)
        gc.collect()
        invoke = invoke or self.main
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = invoke(self.plan["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed call, not a failed run
                code = traceback.format_exc(limit=-3)
            wall = time.perf_counter() - start
        before, self.last_probe = self.last_probe, self.probe()
        self.attempted += 1
        reason = f"exit {code!r}: {err.getvalue().strip()[:300]}" if code != 0 else self._check()
        if reason:
            self.failures.append(reason)
            return None
        return wall, scaled(wall, before, self.last_probe)

    def _check(self):
        outputs = {}
        for name in self.plan["outputs"]:
            path = self.out_dir / name
            if not path.is_file():
                return f"{name} was not written"
            outputs[name] = path.read_bytes()
        try:
            report = json.loads(outputs["report.json"])
        except ValueError as exc:
            return f"report.json does not parse: {exc}"
        try:
            reason = self._check_report(report)
        except (KeyError, TypeError, IndexError) as exc:
            reason = f"report.json lacks {exc!r}"
        if reason:
            return reason
        if self.reference is None:
            self.reference = outputs
        for name, data in outputs.items():
            if data != self.reference[name]:
                return f"{name} differs from the first call's"
        return None

    def spectrum_reports(self, report):
        """The per-point reports of a sweep, or the report itself; None on a point mismatch."""
        if "points" not in report:
            return [report]
        hpbws = [p["hpbw_deg"] for p in report["points"]]
        if hpbws != [p["hpbw_deg"] for p in self.plan["patterns"]]:
            return None
        return [p["report"] for p in report["points"]]

    def _check_report(self, report):
        scenario = self.plan["scenario"]
        reports = self.spectrum_reports(report)
        if reports is None:
            return "sweep points do not match the requested HPBW list"
        for rep in reports:
            density = rep["spectrum"]["pdf_per_deg"]
            if len(density) != scenario["bins"] or rep["trials"] != scenario["trials"]:
                return "report has the wrong number of bins or trials"
            if len(rep["per_trial_spread_deg"]) != scenario["trials"]:
                return "report has the wrong number of per-trial spreads"
            defect = abs(math.fsum(density) * 360.0 / len(density)
                         + rep["point_mass_at_zero"] - 1.0)
            if not defect <= self.tolerance:
                return f"normalization defect {defect:.3e}"
        if self.plan["per_path_spread"] and len(report["per_path_spread_deg"]) != scenario["trials"]:
            return "report has the wrong number of per-path spreads"
        return None

    def loop(self, seconds, invoke=None):
        """Closed loop for the given seconds; returns (wall, scaled) of the good calls.

        A call starts only if one more call as long as the last one would
        end in time, so the loop does not overrun by most of a call.
        """
        times = []
        end = time.perf_counter() + seconds
        last = 0.0
        while time.perf_counter() + last < end:
            start = time.perf_counter()
            timing = self.call(invoke)
            last = time.perf_counter() - start
            if timing is not None:
                times.append(timing)
        return times


def references(plan, reference_report, spectrum_reports, probe):
    """L1 distances of the program and of the NumPy floor, and the floor's scaled time."""
    import numpy as np
    from reference import analytic_bin_probabilities, l1_distance, numpy_floor

    scenario, patterns = plan["scenario"], plan["patterns"]
    analytic = [analytic_bin_probabilities(scenario, p, scenario["bins"]) for p in patterns]
    program = [l1_distance(np.asarray(rep["spectrum"]["pdf_per_deg"]) * (360.0 / scenario["bins"]),
                           rep["point_mass_at_zero"], *exact)
               for rep, exact in zip(spectrum_reports(reference_report), analytic)]

    rng = np.random.default_rng(plan["floor_seed"])
    seconds, floor_l1 = [], [[] for _ in patterns]
    before = probe()
    for _ in range(FLOOR_REPEATS):
        elapsed, spectra = numpy_floor(scenario, patterns, rng)
        seconds.append(elapsed)
        for k, (spectrum, exact) in enumerate(zip(spectra, analytic)):
            floor_l1[k].append(l1_distance(spectrum, 1.0 - spectrum.sum(), *exact))
    floor_s = scaled(statistics.median(seconds), before, probe())
    return program, [statistics.fmean(v) for v in floor_l1], floor_s


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(plan):
    cli, setup_wall, setup_s = timed_setup(plan["scenario_path"])
    src = Path(plan["root"], "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"aoasim was imported from {cli.__file__}, not from {src}")

    import numpy
    import scipy

    work = Workload(plan, cli)
    work.call()  # warm-up; its outputs become the reference
    seconds = plan["seconds"] / (2 if plan["trace"] else 1)
    timings = work.loop(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = []
    if plan["trace"]:
        from spans import Tracer, metric_names

        tracer = Tracer()
        tracer.install()
        try:
            traced = work.loop(seconds, lambda argv: tracer.call_main(cli.main, argv))
        finally:
            tracer.uninstall()
        Path(plan["spans_path"]).parent.mkdir(parents=True, exist_ok=True)
        tracer.save(plan["spans_path"])

    result = {
        "workload": plan["workload"],
        "correct": False,
        "attempted": work.attempted,
        "failed": len(work.failures),
        "failures": work.failures,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "wall_s": [wall for wall, _ in timings],
        "call_s": [s for _, s in timings],
        "metrics": {},
        "env": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                "workload_seed": plan["seed"]},
    }
    if work.reference is None or not timings:
        return result

    report = json.loads(work.reference["report.json"])
    program_l1, floor_l1, floor_s = references(plan, report, work.spectrum_reports, work.probe)
    l1 = max(program_l1)
    within_noise = all(p <= L1_NOISE_FACTOR * f for p, f in zip(program_l1, floor_l1))
    result.update({
        "correct": result["failed"] == 0 and within_noise,
        "l1_program": program_l1,
        "l1_floor_mean": floor_l1,
        "floor_numpy_s": floor_s,
    })
    if not within_noise:
        result["failures"].append("spectrum is further from the analytic density than "
                                  f"{L1_NOISE_FACTOR} x the NumPy floor's sampling noise")

    call_s = result["call_s"]
    run_s_p50 = statistics.median(call_s)
    tail, percentile = _tail(call_s)
    result["run_s_tail"] = {"value": tail, "percentile": percentile, "samples": len(call_s)}
    if plan["trace"]:
        layers = tracer.summary()
        metrics = {name: _metric(layers[name], unit) for name, unit in metric_names()}
        traced_p50 = statistics.median(s for _, s in traced) if traced else math.nan
        metrics.update({
            "cli.report_bytes": _metric(len(work.reference["report.json"]), "B"),
            "floor.numpy_s": _metric(floor_s, "s"),
            "floor.headroom_x": _metric(run_s_p50 / floor_s, "x"),
            "trace.overhead_frac": _metric(traced_p50 / run_s_p50 - 1.0, "1"),
        })
    else:
        metrics = {
            "run_s_p50": _metric(run_s_p50, "s"),
            "paths_per_s": _metric(plan["paths_per_call"] * len(call_s) / math.fsum(call_s),
                                   "paths/s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "l1_to_analytic": _metric(l1, "1"),
        }
    result["metrics"] = metrics
    return result


def main(argv):
    if argv[:1] == ["--setup-probe"]:
        _, wall, setup_s = timed_setup(argv[1])
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": wall}))
        return 0
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    print(json.dumps(measure(plan)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
