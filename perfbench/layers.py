"""Tracing for the benchmark: spans, cProfile, per-layer metrics.

Everything here observes the program from outside: spans are recorded
around calls the benchmark itself makes into public functions, and
cProfile (``builtins=False``, so time in C builtins is charged to the
Python function -- and therefore the ``repro.<package>`` -- that called
them) runs around those same calls.  Profiles from several processes
merge by summing their raw per-function entries.
"""

from __future__ import annotations

import cProfile
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import PurePath
from typing import Dict, Iterable, List, Optional, Tuple

#: Raw profile: (file, line, function) -> [primitive calls, calls,
#: self seconds, cumulative seconds].
RawStats = Dict[Tuple[str, int, str], List[float]]

#: Modules of ``repro.common`` reported as layers of their own.
COMMON_MODULES = ("events", "stats")

#: Every per-layer metric, in report order, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("workloads.trace_s", "s"),
    ("sim.build_s", "s"),
    ("sim.run_s", "s"),
    ("sim.self_s", "s"),
    ("sim.cycles", "cycles"),
    ("common.events.self_s", "s"),
    ("cpu.self_s", "s"),
    ("cpu.calls", "count"),
    ("mechanisms.self_s", "s"),
    ("core.self_s", "s"),
    ("common.stats.self_s", "s"),
    ("energy.self_s", "s"),
    ("mem.self_s", "s"),
    ("mem.calls", "count"),
    ("coherence.self_s", "s"),
    ("coherence.calls", "count"),
    ("coherence.request_write_calls", "count"),
    ("coherence.request_write_per_fill", "ratio"),
    ("faults.calls", "count"),
    ("observe.calls", "count"),
    ("harness.cache_write_s", "s"),
    ("harness.cache_read_s", "s"),
    ("harness.cache_hit_frac", "frac"),
    ("durability.self_s", "s"),
    ("harness.fanout_idle_frac", "frac"),
    ("modelcheck.self_s", "s"),
    ("modelcheck.hash_s", "s"),
    ("modelcheck.por_s", "s"),
    ("modelcheck.invariants_s", "s"),
    ("modelcheck.executions", "count"),
    ("modelcheck.unique_frac", "frac"),
    ("tso.self_s", "s"),
    ("service.submit_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.exec_s", "s"),
    ("service.polls_per_job", "count"),
    ("service.dedup_hit_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
)

#: Functions whose cumulative time is a layer metric:
#: metric -> ((module path under repro/, function name), ...).
CUMULATIVE = {
    "sim.build_s": (("sim/system.py", "__init__"),),
    "sim.run_s": (("sim/system.py", "run"),
                  ("sim/system.py", "run_controlled")),
    "modelcheck.hash_s": (("modelcheck/state.py", "canonical_key"),),
    "modelcheck.por_s": (("modelcheck/por.py", "describe_actions"),
                         ("modelcheck/por.py", "persistent_set"),
                         ("modelcheck/por.py", "sleep_filter")),
}


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
class Spans:
    """Spans kept in memory; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.events: List[dict] = []

    @contextmanager
    def span(self, name: str, op: str = ""):
        """Time the block; ``op`` (the operation label) is shared by
        every span of one operation."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": start / 1000, "dur": (end - start) / 1000,
                "pid": os.getpid(), "tid": threading.get_ident() % 2**31,
                "args": {"op": op}})

    def extend(self, events: Iterable[dict]) -> None:
        if self.enabled:
            self.events.extend(events)

    def total(self, name: str) -> float:
        """Summed seconds of every span called ``name``."""
        return sum(e["dur"] for e in self.events
                   if e["name"] == name) / 1e6

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"traceEvents": self.events,
                       "displayTimeUnit": "ms"}, handle)


# ---------------------------------------------------------------------------
# cProfile
# ---------------------------------------------------------------------------
def new_profile() -> cProfile.Profile:
    return cProfile.Profile(builtins=False)


def raw_stats(profile: cProfile.Profile) -> RawStats:
    """The profile's per-function entries, without caller edges (they
    do not merge across processes and no metric needs them)."""
    profile.snapshot_stats()
    return {key: [cc, nc, tt, ct]
            for key, (cc, nc, tt, ct, _) in profile.stats.items()}


def merge_stats(into: RawStats, other: RawStats) -> RawStats:
    for key, row in other.items():
        mine = into.get(key)
        if mine is None:
            into[key] = list(row)
        else:
            for i in range(4):
                mine[i] += row[i]
    return into


class ThreadProfiles:
    """cProfile in every thread started while active (the in-process
    service's API and monitor threads, the client threads)."""

    def __init__(self) -> None:
        self.profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _hook(self, *_args) -> None:
        profile = new_profile()
        with self._lock:
            self.profiles.append(profile)
        profile.enable()      # replaces this hook for the thread

    def start(self) -> None:
        threading.setprofile(self._hook)

    def stop(self) -> RawStats:
        """Stop profiling new threads; merge every thread's profile so
        far (call after the profiled threads have finished)."""
        threading.setprofile(None)
        merged: RawStats = {}
        with self._lock:
            for profile in self.profiles:
                merge_stats(merged, raw_stats(profile))
        return merged


def module_of(filename: str) -> Optional[Tuple[str, ...]]:
    """Path parts below the ``repro`` package, or ``None`` outside it."""
    parts = PurePath(filename).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return parts[i + 1:]
    return None


def by_layer(stats: RawStats) -> Dict[str, Dict[str, float]]:
    """Self seconds and calls per ``repro.<package>`` (and per module
    of :data:`COMMON_MODULES`)."""
    layers: Dict[str, Dict[str, float]] = {}
    for (filename, _, _), (_, calls, self_s, _) in stats.items():
        rel = module_of(filename)
        if not rel:
            continue
        names = [rel[0] if len(rel) > 1 else "repro"]
        if rel[0] == "common" and rel[-1][:-3] in COMMON_MODULES:
            names.append(f"common.{rel[-1][:-3]}")
        for name in names:
            row = layers.setdefault(name, {"self_s": 0.0, "calls": 0})
            row["self_s"] += self_s
            row["calls"] += calls
    return layers


def rows(stats: RawStats, module: str, match):
    """Raw entries of the functions of ``module`` (its path below
    ``repro/``) whose name ``match`` accepts."""
    for (filename, _, func), row in stats.items():
        rel = module_of(filename)
        if rel and "/".join(rel) == module and match(func):
            yield row


def cumulative(stats: RawStats, functions) -> float:
    return sum(row[3] for module, func in functions
               for row in rows(stats, module, func.__eq__))


def per_layer_metrics(stats: RawStats, spans: Spans,
                      counts: Dict[str, float]) -> Dict[str, dict]:
    """Every :data:`PER_LAYER` metric; a layer the workload does not
    exercise reads 0.  ``counts`` carries what the workload measured at
    its own layer boundaries (cycles, cache hits, job latencies, ...);
    a key there overrides the profile-derived value."""
    layers = by_layer(stats)

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0)

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    values: Dict[str, float] = {
        "workloads.trace_s": spans.total("workloads.make_trace"),
        "coherence.request_write_calls": sum(
            row[1] for row in rows(stats, "coherence/memsys.py",
                                   "request_write".__eq__)),
        "harness.cache_write_s": spans.total("harness.store"),
        "harness.cache_read_s": spans.total("harness.cached"),
        "modelcheck.invariants_s": sum(
            row[3] for row in rows(stats, "modelcheck/invariants.py",
                                   lambda name: name.startswith("check_"))),
    }
    for metric, functions in CUMULATIVE.items():
        values[metric] = cumulative(stats, functions)
    for name, _ in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if name in values:
            continue
        if kind == "self_s":
            values[name] = self_s(layer)
        elif kind == "calls":
            values[name] = calls(layer)
    fills = counts.pop("mshr_allocations", 0)
    if fills:
        values["coherence.request_write_per_fill"] = \
            values["coherence.request_write_calls"] / fills
    values.update(counts)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}


def call_fingerprint(stats: RawStats, layers: Iterable[str]
                     ) -> Dict[str, int]:
    """Calls per layer, restricted to ``layers`` (the ones whose work
    does not depend on timing)."""
    wanted = set(layers)
    return {name: int(row["calls"])
            for name, row in sorted(by_layer(stats).items())
            if name in wanted}
