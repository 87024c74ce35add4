"""The two sweep workloads: figure slices through the harness.

``sweep_spec`` -- the fig13 slice (SB=32, one core, one simpoint) over
four SPEC/TF benchmarks at 20 000 µops, the figure's default traces
(seed 42): 20 points through ``run_points`` into a fresh cache,
serially in this process (one busy CPU; see "Steadiness" in
``perfbench/README.md``), each under its own wall cap; then a fresh
``Runner`` replays the figure from the warm cache and must simulate
nothing.

``sweep_parsec`` -- the fig14 slice (SB=32, 16 cores, 1 200 µops per
core) over canneal and fluidanimate: 10 points, each run in-process
through the public calls ``Runner.simulate`` makes, one after another
in this process, under one simulated-cycle budget and a wall cap each.
A point that exhausts the budget -- the SPB livelock -- is one failed
operation, reported by label.
"""

from __future__ import annotations

import time
from typing import Dict, List

from perfbench.layers import (Spans, call_fingerprint, new_profile,
                              raw_stats)
from perfbench.workload import (OpTimeout, PassResult, canonical, digest,
                                op_record, repeat_timed, wall_cap)
from repro.common.config import table_i
from repro.energy.mcpat import attach_energy
from repro.harness import (Point, Runner, collect_points, fig13, fig14,
                           run_points)
from repro.sim.system import System
from repro.workloads import make_parallel_traces, make_trace, profile

#: ``run_points`` workers: 1 runs the points in this process, one after
#: another.
WORKERS = 1
SPEC_BENCHES = ["502.gcc5", "505.mcf", "531.deepsjeng", "tf.lstm"]
SPEC_LENGTH = 20_000
#: Trace seed of every SPEC/TF point: the figure's default.  Serially,
#: the slice's host time varied from 18.5 to 22.5 s over trace seeds
#: 1-6 (points interleaved, so the host's speed was shared), a 10%
#: spread of its own; the traces are fixed and the run seed changes
#: nothing here.
SPEC_TRACE_SEED = 42
PARSEC_BENCHES = ["canneal", "fluidanimate"]
PARSEC_CORES = 16
PARSEC_LENGTH = 1_200
#: Simulated-cycle budget of every Parsec point: about 4x the slowest
#: healthy point of the slice (~37k cycles, canneal).
PARSEC_BUDGET = 150_000
POINT_CAP_S = 90.0
#: Trace seed of every Parsec point: the figure's default.  The cost of
#: fluidanimate/ssb alone varies 2x with the trace seed (8-20 s), which
#: spread wall_s, op_max_s and work_per_s by 26-37% over seeds 1-10,
#: so the traces are fixed and the run seed changes nothing here.
PARSEC_TRACE_SEED = 42
#: Layers whose call counts do not depend on timing or scheduling.
SIM_LAYERS = ("coherence", "common", "core", "cpu", "energy", "mem",
              "mechanisms", "sim", "workloads", "faults", "observe")


class NoSimulation(Exception):
    """A replay needed a point that is not in the cache."""


class ReplayRunner(Runner):
    """A runner that may only read its cache."""

    def simulate(self, pt):
        raise NoSimulation(f"{pt.label()} is not cached")


class CappedRunner(Runner):
    """A runner whose every point runs under a wall cap: a hung point
    raises :class:`OpTimeout`, which ``run_points`` records as that
    point's failure before it goes on with the rest.  ``ends`` keeps the
    wall time at which each point's simulation ended."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ends: Dict[str, float] = {}

    def simulate(self, pt):
        with wall_cap(POINT_CAP_S):
            result = super().simulate(pt)
        self.ends[pt.label()] = time.time()
        return result


def traced_runner(base, spans: Spans):
    """``base`` with spans around its cache reads and writes."""
    class Traced(base):
        def cached(self, pt):
            with spans.span("harness.cached", pt.label()):
                return super().cached(pt)

        def store(self, pt, result):
            with spans.span("harness.store", pt.label()):
                super().store(pt, result)
    return Traced


def simulate_point(runner: Runner, pt: Point, spans: Spans,
                   max_cycles=None):
    """What :meth:`Runner.simulate` does, one span per public call;
    returns (result, system, trace µops)."""
    op = pt.label()
    config = (pt.config if pt.config is not None else table_i()) \
        .with_mechanism(pt.mechanism).with_sb_size(pt.sb_entries)
    seed = runner.point_seed(pt)
    with spans.span("workloads.make_trace", op):
        if profile(pt.bench).suite == "parsec":
            config = config.with_cores(runner.num_cores_parallel)
            traces = make_parallel_traces(
                pt.bench, runner.num_cores_parallel, runner.par_length,
                seed)
        else:
            config = config.with_cores(1)
            traces = [make_trace(pt.bench, runner.st_length, seed)]
    with spans.span("sim.build", op):
        system = System(config, traces, workload=pt.bench)
    uops = sum(len(t) for t in traces)
    with spans.span("sim.run", op):
        result = system.run(
            max_cycles=max_cycles,
            warmup_committed=int(uops * runner.warmup_fraction))
    with spans.span("energy.attach", op):
        attach_energy(result, config)
    return result, system, uops


def profiled_runner(spans: Spans, totals: Dict[str, float]):
    """A capped runner with spans around its cache reads and writes and
    around each public call of a point (:func:`simulate_point`); sums
    simulated cycles and MSHR allocations into ``totals``."""
    class Profiled(traced_runner(CappedRunner, spans)):
        def simulate(self, pt):
            with wall_cap(POINT_CAP_S):
                result, system, _ = simulate_point(self, pt, spans)
            totals["sim.cycles"] += system.cycle
            totals["mshr_allocations"] += result.sum_stats(
                "mshr.allocations")
            return result
    return Profiled


def result_digest(result) -> str:
    return digest(result.canonical_json())


def tables_digest(output) -> str:
    tables = list(output.values()) if isinstance(output, dict) \
        else [output]
    return digest(canonical([[t.exp_id, t.rows, t.summary]
                             for t in tables]))


class SweepSpec:
    name = "sweep_spec"
    #: The inputs do not depend on the run seed: pins always apply.
    seeded_inputs = False

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.kwargs = {"benches": SPEC_BENCHES,
                       "all_benches": SPEC_BENCHES}
        self.params = {"st_length": SPEC_LENGTH, "simpoints": 1,
                       "seed": SPEC_TRACE_SEED}

    def setup(self) -> None:
        self.points = collect_points(
            Runner(use_disk_cache=False, **self.params), fig13,
            **self.kwargs)

    def plan(self) -> List[str]:
        return [pt.label() for pt in self.points] + ["replay/fig13"]

    def teardown(self) -> None:
        pass

    def run_pass(self, index: int, spans: Spans,
                 profile: bool = False) -> PassResult:
        ctx = self.ctx
        cache = ctx.rundir / f"cache{index}"
        totals = {"sim.cycles": 0, "mshr_allocations": 0}
        runner_cls = profiled_runner(spans, totals) if profile \
            else CappedRunner
        replay_cls = traced_runner(ReplayRunner, spans) if profile \
            else ReplayRunner
        prof = new_profile() if profile else None
        if prof:
            prof.enable()

        runner = runner_cls(cache_dir=str(cache), **self.params)
        start = time.perf_counter()
        with spans.span("harness.run_points", "cold"):
            telemetry = run_points(runner, self.points,
                                   workers=WORKERS)
        wall = time.perf_counter() - start
        result = PassResult(wall=wall, warm=0.0)
        by_label = {pt.label(): pt for pt in self.points}
        for timing in telemetry.timings:
            output = result_digest(runner.cached(by_label[timing.label]))
            op = op_record(timing.label, True, timing.wall_seconds,
                           work=SPEC_LENGTH, output=output,
                           end=runner.ends.get(timing.label))
            result.ops.append(op)
            ctx.events.write(op)
        for failure in telemetry.failures:
            op = op_record(failure.label, False, 0.0,
                           error=f"{failure.kind}: {failure.message}")
            result.ops.append(op)
            ctx.events.write(op)

        # Replay the figure from the warm cache with a fresh runner.
        replay_ok, why = False, "cold sweep incomplete"
        if not telemetry.failures:
            # Every point is in the runner's memory: nothing simulates.
            cold = tables_digest(fig13(runner, **self.kwargs))

            def replay():
                fresh = replay_cls(cache_dir=str(cache), **self.params)
                try:
                    with spans.span("harness.run_points", "replay"):
                        again = run_points(fresh, self.points,
                                           workers=WORKERS)
                    table = tables_digest(fig13(fresh, **self.kwargs))
                except NoSimulation as exc:
                    return f"replay simulated: {exc}"
                if again.simulated or again.failures:
                    return (f"replay simulated {again.simulated} and "
                            f"failed {len(again.failures)} point(s)")
                return "" if table == cold else "replay table != cold table"

            result.warm, why, replay_ok = repeat_timed(
                replay, lambda problem: not problem)
        op = op_record("replay/fig13", replay_ok, result.warm, error=why,
                       warm=True)
        result.ops.append(op)
        ctx.events.write(op)
        if not replay_ok and not telemetry.failures:
            result.mismatches.append(f"replay/fig13: {why}")

        if profile:
            prof.disable()
            result.stats = raw_stats(prof)
            result.counts = {
                **totals,
                # The cold sweep misses by construction; replays hit.
                "harness.cache_hit_frac": 1.0 if replay_ok else 0.0,
                "harness.fanout_idle_frac": 1 - telemetry.utilization}
            result.fingerprint = call_fingerprint(result.stats,
                                                  SIM_LAYERS)
        return result


# ---------------------------------------------------------------------------
# sweep_parsec
# ---------------------------------------------------------------------------
def run_parsec_point(runner: Runner, pt: Point, spans: Spans, prof,
                     totals: Dict[str, float]):
    """One Parsec point under the wall cap and the cycle budget; returns
    (operation, result or None if it failed)."""
    label = pt.label()
    start = time.perf_counter()
    try:
        with wall_cap(POINT_CAP_S):
            if prof:
                prof.enable()
            try:
                res, system, uops = simulate_point(
                    runner, pt, spans, max_cycles=PARSEC_BUDGET)
            finally:
                if prof:
                    prof.disable()
    except OpTimeout as exc:
        return op_record(label, False, time.perf_counter() - start,
                         error=f"timeout: {exc}"), None
    except Exception as exc:  # noqa: BLE001 - one failed point
        return op_record(label, False, time.perf_counter() - start,
                         error=f"error: {type(exc).__name__}: {exc}"), None
    seconds = time.perf_counter() - start
    totals["sim.cycles"] += system.cycle
    totals["mshr_allocations"] += res.sum_stats("mshr.allocations")
    if system.cycle >= PARSEC_BUDGET:
        return op_record(label, False, seconds, error=(
            f"budget: {PARSEC_BUDGET} cycles exhausted with "
            f"{res.committed} measured µops committed")), None
    return op_record(label, True, seconds, work=uops,
                     output=result_digest(res)), res


class SweepParsec:
    name = "sweep_parsec"
    #: The inputs do not depend on the run seed: pins always apply.
    seeded_inputs = False

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.kwargs = {"benches": PARSEC_BENCHES}
        self.params = {"par_length": PARSEC_LENGTH,
                       "num_cores_parallel": PARSEC_CORES,
                       "parsec_simpoints": 1, "seed": PARSEC_TRACE_SEED}

    def setup(self) -> None:
        self.points = collect_points(
            Runner(use_disk_cache=False, **self.params), fig14,
            **self.kwargs)

    def plan(self) -> List[str]:
        return [pt.label() for pt in self.points] + ["replay/fig14"]

    def teardown(self) -> None:
        pass

    def run_pass(self, index: int, spans: Spans,
                 profile: bool = False) -> PassResult:
        ctx = self.ctx
        # Cold results go into a fresh cache, as the harness would.
        cache = ctx.rundir / f"cache{index}"
        runner = (traced_runner(Runner, spans) if profile else Runner)(
            cache_dir=str(cache), **self.params)
        prof = new_profile() if profile else None
        totals = {"sim.cycles": 0, "mshr_allocations": 0}
        result = PassResult(wall=0.0, warm=0.0)
        completed = []
        start = time.perf_counter()
        for pt in self.points:
            op, res = run_parsec_point(runner, pt, spans, prof, totals)
            result.ops.append(op)
            ctx.events.write(op)
            if res is not None:
                runner.store(pt, res)
                completed.append(pt)
        result.wall = time.perf_counter() - start

        # Replay the completed points from the warm cache.
        replay_cls = traced_runner(ReplayRunner, spans) if profile \
            else ReplayRunner
        def replay():
            fresh = replay_cls(cache_dir=str(cache), **self.params)
            again = run_points(fresh, completed, workers=WORKERS)
            if again.simulated or again.failures:
                return (f"replay simulated {again.simulated} and "
                        f"failed {len(again.failures)} point(s)")
            same = all(fresh.cached(pt).canonical_json()
                       == runner.cached(pt).canonical_json()
                       for pt in completed)
            return "" if same else "replayed result != cold result"

        result.warm, why, replay_ok = repeat_timed(
            replay, lambda problem: not problem)
        op = op_record("replay/fig14", replay_ok, result.warm, error=why,
                       warm=True)
        result.ops.append(op)
        ctx.events.write(op)
        if not replay_ok:
            result.mismatches.append(f"replay/fig14: {why}")

        if profile:
            result.stats = raw_stats(prof)
            result.counts = {
                **totals,
                # The cold phase bypasses the cache, as
                # Runner.simulate does; only the replay looks up.
                "harness.cache_hit_frac": 1.0 if replay_ok else 0.0}
            result.fingerprint = call_fingerprint(result.stats,
                                                  SIM_LAYERS)
        return result
