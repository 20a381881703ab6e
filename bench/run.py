"""Benchmark of the aoasim command line: one workload per fresh process.

Usage, from the repository root:

    python3 bench/run.py --workload sweep_paper --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, default seed

For each workload this script writes the generated scenario and a plan
into a scratch directory of the checkout, times set-up in fresh
processes, then runs bench/measure.py in one more fresh, single-threaded
process that calls ``aoasim.cli.main`` in a closed loop (one client,
each call starting after the previous one returned) and checks every
call's outputs.  It prints one line per metric, then a JSON record with
the environment, then the result line as its last line.

With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see bench/spans.py).
The script uses the standard library only, so it adds no load of its own
while a workload runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SHIPPED = "scenarios/synthetic_long_spread.json"
WORK = ".bench_work"
SPANS = ".bench_out"

HPBW_SWEEP_DEG = (360.0, 180.0, 120.0, 90.0, 60.0)

# BENCHMARK.json gives the reason for each workload.
WORKLOADS = ("sweep_paper", "simulate_wide", "simulate_many")

SETUP_PROBES = 2        # extra fresh processes that only time set-up
DEADLINE_S = 170.0      # whole invocation, so the run exits within 180 s
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _tabulated_pattern(rng):
    # 72 samples every 5 degrees over (-180, 180], amplitudes from the seed.
    return {
        "kind": "tabulated",
        "samples": [[-175.0 + 5.0 * k, rng.uniform(0.1, 1.0)] for k in range(72)],
    }


def build_plan(workload, seed, seconds, trace, work_dir):
    """Generated scenario, argv and expectations of one workload run.

    Every input derives from (workload, seed); the program sees only the
    scenario file and argv.
    """
    rng = random.Random(f"{workload}/{seed}")
    shipped = json.loads((ROOT / SHIPPED).read_text(encoding="utf-8"))
    out_dir = work_dir / "out"

    if workload == "sweep_paper":
        scenario, scenario_path = shipped, ROOT / SHIPPED
        patterns = [{"kind": "gaussian", "hpbw_deg": h} for h in HPBW_SWEEP_DEG]
        argv = ["sweep", "--scenario", str(scenario_path),
                "--hpbw", ",".join(f"{h:g}" for h in HPBW_SWEEP_DEG),
                "--seed", str(rng.getrandbits(63)), "--out", str(out_dir)]
        outputs = ["report.json", "sweep.csv"]
    else:
        if workload == "simulate_wide":
            overrides = dict(trials=20, bins=3600, kappa=0.0, paths=5000,
                             pattern=_tabulated_pattern(rng))
            extra = ["--per-path-spread"]
        elif workload == "simulate_many":
            overrides = dict(trials=5000, bins=64, kappa=1.0, mu=40.0, paths=4,
                             pattern={"kind": "omni"})
            extra = []
        else:
            raise ValueError(f"unknown workload {workload!r}")
        paths = overrides.pop("paths")
        scenario = dict(shipped, **overrides, seed=rng.getrandbits(63),
                        taps=[dict(tap, paths=paths) for tap in shipped["taps"]])
        scenario_path = work_dir / "scenario.json"
        scenario_path.write_text(json.dumps(scenario, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")
        patterns = [scenario["pattern"]]
        argv = ["simulate", "--scenario", str(scenario_path), *extra, "--out", str(out_dir)]
        outputs = ["report.json", "spectrum.csv"]

    trials = scenario["trials"]
    per_point = sum(tap["paths"] for tap in scenario["taps"]) + (scenario["kappa"] > 0)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "root": str(ROOT),
        "argv": argv,
        "out_dir": str(out_dir),
        "outputs": outputs,
        "scenario": scenario,
        "scenario_path": str(scenario_path),
        "patterns": patterns,
        "per_path_spread": "--per-path-spread" in argv,
        "paths_per_call": per_point * trials * len(patterns),
        "floor_seed": rng.getrandbits(63),
        "spans_path": str(ROOT / SPANS / f"spans-{workload}.npz"),
    }


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in SINGLE_THREAD:
        env[name] = "1"
    return env


def _run_child(args, deadline):
    """Run bench/measure.py to completion; return its last stdout line as JSON."""
    cmd = [sys.executable, str(BENCH / "measure.py"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "single_thread_env": {name: "1" for name in SINGLE_THREAD},
    }


def run_workload(workload, seed, seconds, trace, deadline):
    work_dir = ROOT / WORK / f"{workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        plan = build_plan(workload, seed, seconds, trace, work_dir)
        plan_path = work_dir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        probes = 0 if trace else SETUP_PROBES
        setups = [_run_child(["--setup-probe", plan["scenario_path"]], deadline)["setup_s"]
                  for _ in range(probes)]
        result = _run_child([str(plan_path)], deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not any((ROOT / WORK).iterdir()):
            (ROOT / WORK).rmdir()
    setups.append(result["setup_s"])
    result["setup_samples_s"] = setups
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def _print_human(result):
    name = result["workload"]
    for metric, entry in result["metrics"].items():
        print(f"{name:14s} {metric:44s} {entry['value']:.6g} {entry['unit']}")
    if "run_s_tail" in result:
        tail = result["run_s_tail"]
        print(f"{name:14s} {'run_s_tail':44s} {tail['value']:.6g} s"
              f"  (p{tail['percentile']:.1f} of {tail['samples']} calls)")
    print(f"{name:14s} {'error_rate':44s} {result['failed'] / result['attempted']:.6g} 1"
          f"  ({result['failed']} of {result['attempted']} calls failed)")
    for reason in result["failures"][:5]:
        print(f"{name:14s} failure: {reason}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/aoasim/cli.py", SHIPPED) if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"bench: not an aoasim checkout, missing {', '.join(missing)}\n")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    env = environment()
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            sys.stderr.write(f"bench: workload {name} did not complete: {exc}\n")
            return 1
        env.update(result.pop("env"))
        _print_human(result)
        results.append(result)

    print(json.dumps({"env": env, "seed": args.seed, "trace": args.trace,
                      "results": results}, sort_keys=True))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
