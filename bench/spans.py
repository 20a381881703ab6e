"""Spans around aoasim's layers, installed from outside the package.

Modules import each other's functions by name (``from .geometry import
aod_to_aoa``), so a span is installed at every module attribute through
which the function is called, not only where it is defined.  Several
attributes may feed one site; a site whose attributes no longer exist
is simply absent and reads as 0 calls.

Each span records its site, start, end, parent span and the id of the
``cli.main`` call it belongs to.  Spans stay in compact arrays while the
run lasts and are summarized, and saved, when it ends.  A span's self
time is its duration minus the durations of its direct children; calls
are single-threaded and nested, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

ROOT_SITE = "cli.main"

# site -> "module:attribute" paths through which the layer is called
SITES = {
    "montecarlo.trial_rng": ("aoasim.montecarlo:trial_rng",),
    "montecarlo.generate_trial": ("aoasim.scenario:generate_trial",
                                  "aoasim.cli:generate_trial"),
    "scenario.digest": ("aoasim.scenario:ScenarioConfig.digest",),
    "angular.ellipses_for_taps": ("aoasim.montecarlo:ellipses_for_taps",),
    "montecarlo.sample_aod": ("aoasim.montecarlo:sample_aod",),
    "montecarlo.sample_local_aoa": ("aoasim.montecarlo:sample_local_aoa",),
    "montecarlo.sample_powers": ("aoasim.montecarlo:sample_tap_powers",
                                 "aoasim.montecarlo:sample_local_powers"),
    "geometry.aod_to_aoa": ("aoasim.montecarlo:aod_to_aoa",),
    "geometry.wrap_angle": ("aoasim.montecarlo:wrap_angle",
                            "aoasim.geometry:wrap_angle"),
    "estimation.estimate_pdf": ("aoasim.scenario:estimate_pdf",),
    "estimation.average_spectra": ("aoasim.scenario:average_spectra",),
    "estimation.rms_angle_spread": ("aoasim.scenario:rms_angle_spread",),
    "estimation.rms_angle_spread_paths": ("aoasim.cli:rms_angle_spread_paths",),
    "scenario.run_simulation": ("aoasim.scenario:run_simulation",
                                "aoasim.cli:run_simulation"),
    "scenario.hpbw_sweep": ("aoasim.cli:hpbw_sweep",),
}


def metric_names():
    """Per-layer metric names and units, in report order."""
    names = []
    for site in SITES:
        names += [(f"{site}.calls", "count"), (f"{site}.self_s", "s")]
    return names + [
        ("montecarlo.sample_aod.draws", "count"),
        ("montecarlo.generate_trial.redundant_frac", "1"),
        (f"{ROOT_SITE}.self_s", "s"),
    ]


def _resolve(target):
    module_name, _, path = target.partition(":")
    *parents, attr = path.split(".")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, attr
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, attr
    return owner, attr


def _trial_key(args, kwargs):
    # A trial is identified by the values of its arguments: scenario and index.
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        key = tuple(id(value) for value in (*args, *kwargs.values()))
    return key


class Tracer:
    """Records nested spans; install() patches aoasim, uninstall() restores it."""

    def __init__(self):
        self.names = [ROOT_SITE, *SITES]
        self.site = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.call_id = -1
        self.draws = []          # per cli.main call
        self.trials = []         # per cli.main call: [calls, distinct (scenario, trial)]
        self._trial_seen = set()
        self._patched = []

    def _wrap(self, site_id, fn, after=None):
        site, parent, call, start, end = self.site, self.parent, self.call, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(end)
            site.append(site_id)
            parent.append(stack[-1] if stack else -1)
            call.append(self.call_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count_draws(self, args, kwargs, result):
        self.draws[-1] += int(np.size(result))

    def _count_trial(self, args, kwargs, result):
        counts = self.trials[-1]
        counts[0] += 1
        key = _trial_key(args, kwargs)
        if key not in self._trial_seen:
            self._trial_seen.add(key)
            counts[1] += 1

    def install(self):
        hooks = {"montecarlo.sample_aod": self._count_draws,
                 "montecarlo.generate_trial": self._count_trial}
        for site, targets in SITES.items():
            site_id = self.names.index(site)
            for target in targets:
                owner, attr = _resolve(target)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    continue
                # Read from __dict__ so a method is restored as the plain function.
                original = vars(owner).get(attr, original)
                setattr(owner, attr, self._wrap(site_id, original, hooks.get(site)))
                self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def call_main(self, main, argv):
        """Run one cli.main call as the root span of a new call id."""
        self.call_id += 1
        self.draws.append(0)
        self.trials.append([0, 0])
        self._trial_seen.clear()
        return self._wrap(0, main)(argv)

    def summary(self):
        """Per-layer metrics: per-call medians over the traced cli.main calls."""
        site = np.frombuffer(self.site, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        call = np.frombuffer(self.call, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=site.size)
        own = duration - children
        calls, sites = self.call_id + 1, len(self.names)
        cell = call * sites + site
        counts = np.bincount(cell, minlength=calls * sites).reshape(calls, sites)
        self_s = np.bincount(cell, weights=own, minlength=calls * sites).reshape(calls, sites)

        metrics = {}
        for k, name in enumerate(self.names[1:], start=1):
            metrics[f"{name}.calls"] = int(np.median(counts[:, k]))
            metrics[f"{name}.self_s"] = float(np.median(self_s[:, k]))
        metrics["montecarlo.sample_aod.draws"] = int(np.median(self.draws))
        redundant = [(n - distinct) / n if n else 0.0 for n, distinct in self.trials]
        metrics["montecarlo.generate_trial.redundant_frac"] = float(np.median(redundant))
        metrics[f"{ROOT_SITE}.self_s"] = float(np.median(self_s[:, 0]))
        return metrics

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 site=np.frombuffer(self.site, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 call=np.frombuffer(self.call, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
