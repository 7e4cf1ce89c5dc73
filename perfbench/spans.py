"""Span recorder around the public functions of each ``spinfoam_oqs`` layer.

``Recorder.install`` looks up each listed function and rebinds every
attribute of every loaded ``spinfoam_oqs`` module that holds that same
object (by identity) to one wrapper, so a call reaches the wrapper
whichever module it was imported into.  A listed function that a later
version renamed or removed is reported as absent and the run goes on;
the same holds for ``recoupling.cache_info``, which the 6j hit and miss
counts come from.

Spans stay in memory as (name, start, end, parent, case, miss) tuples
until the run ends.  A span's self time is its duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "spinfoam_oqs"

# Layer name -> public functions recorded for it, as "module.attribute".
# ``lindblad.expm`` is scipy's expm as bound in the package's modules.
LAYERS = {
    "recoupling": ("recoupling.wigner6j",),
    "amplitudes": ("amplitudes.transition_matrix", "amplitudes.pr_transition"),
    "lindblad": (
        "lindblad.kappa_generator", "lindblad.expm", "lindblad.steady_states",
        "lindblad.evolve_effective", "lindblad.clamp_density_matrix",
    ),
    "observables": (
        "observables.energy_expectations", "observables.energy_release",
        "observables.temperature_series",
    ),
    "scenario": (
        "scenario.build_kappa", "scenario.trajectory_csv", "scenario.observables_csv",
        "scenario.temperature_csv", "scenario.run_scenario", "scenario.steady_state_report",
    ),
    "bathfit": (
        "bathfit.fit_bath", "bathfit.sample_cost_distribution", "bathfit.chain_target",
        "bathfit.admissible_triple_basis",
    ),
    "cli": ("cli.main",),
}
FUNCTIONS = tuple(name for names in LAYERS.values() for name in names)
CACHED = "recoupling.wigner6j"


class Recorder:
    """Wraps listed functions and keeps their spans in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.active = False
        self.case = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name, fn, entries=None):
        """Record a span per call of ``fn``; ``entries`` reads a cache size."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            before = entries() if entries is not None else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                miss = None if before is None else entries() > before
                stack.pop()
                spans[index] = (name, start, end, parent, self.case, miss)

        return wrapper

    def install(self, functions=FUNCTIONS) -> list[str]:
        """Wrap each listed function at every import site; return the absent ones."""
        wrappers = {}
        for name in functions:
            module_name, attr = name.rsplit(".", 1)
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            entries = None
            if name == CACHED:
                entries = _cache_entries(module)
                if entries is None:
                    self.absent.append(f"{name}.cache_info")
            wrappers[id(original)] = (original, self.wrap(name, original, entries))
        for key, mod in list(sys.modules.items()):
            if mod is None or not (key == PACKAGE or key.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self.absent

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()


def _cache_entries(module):
    """A zero-argument reader of the 6j cache size, or None if unavailable."""
    info = getattr(module, "cache_info", None)
    if not callable(info):
        return None
    try:
        int(info()["entries"])
    except (KeyError, TypeError, ValueError):
        return None
    return lambda: info()["entries"]


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans, cases: int, case_time_s: float) -> dict:
    """Per-function calls and self time per case, layer shares, 6j hit/miss figures."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    hit_s, miss_s = [], []
    for span, own in zip(spans, selfs):
        name = span[0]
        calls[name] += 1
        self_s[name] += own
        if name == CACHED and span[5] is not None:
            (miss_s if span[5] else hit_s).append(span[2] - span[1])
    per_case = max(cases, 1)
    out = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = calls[name] / per_case
        out[f"{name}.self_s"] = self_s[name] / per_case
    for layer, names in LAYERS.items():
        total = sum(self_s[n] for n in names)
        out[f"{layer}.share"] = total / case_time_s if case_time_s > 0 else 0.0
    n_hit, n_miss = len(hit_s), len(miss_s)
    out[f"{CACHED}.misses"] = n_miss / per_case
    out[f"{CACHED}.hit_ratio"] = n_hit / (n_hit + n_miss) if n_hit + n_miss else 0.0
    out[f"{CACHED}.hit_us"] = 1e6 * sum(hit_s) / n_hit if n_hit else 0.0
    out[f"{CACHED}.miss_us"] = 1e6 * sum(miss_s) / n_miss if n_miss else 0.0
    return out
