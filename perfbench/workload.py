"""One workload run, in its own process (started by ``run.py``).

The run has three phases:

* *set-up*: imports, inputs built from ``--seed``, worker processes or
  the service started; ``ready.json`` marks its end;
* *measured*: whole passes of the workload, one after another in this
  process, while the next pass is expected to end within ``--seconds``
  (at least one).  Each operation -- a sweep point, a check, a
  service job -- appends one line to ``events.jsonl`` as it ends.
  Times are scaled to the reference speed of ``perfbench/speed.py``,
  whose probe thread runs in this process;
* *verification*: outputs compared with ``pins.json`` (default seed)
  or with an independent path (any seed); a mismatch fails its
  operation and makes the run incorrect.

With ``--trace 1`` the run makes one untraced pass (the reference for
``bench.trace_overhead_frac``) and then one traced pass, and reports the
per-layer metrics instead of the end-to-end ones.  The traced pass
writes its spans to ``.perfbench/traces/`` as Chrome-trace JSON, and its
deterministic call counts to ``.perfbench/calls/``; a later traced run
of the same workload and seed must repeat them exactly.

The process leaves with ``os._exit`` so that workers abandoned by a
timed-out pool cannot hold it at interpreter exit; ``run.py`` kills
whatever is left.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from perfbench.layers import Spans, per_layer_metrics
from perfbench.speed import SpeedProbe, slowdown

PINS_PATH = Path(__file__).resolve().parent / "pins.json"
DEFAULT_SEED = 42


class OpTimeout(Exception):
    """An operation ran past its wall cap."""


@contextmanager
def wall_cap(seconds: float):
    """Raise :class:`OpTimeout` in this (main) thread after ``seconds``;
    pure-Python loops such as ``System.run`` are interrupted."""
    def expire(signum, frame):
        raise OpTimeout(f"exceeded {seconds:.0f}s wall cap")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: Repetitions of a warm operation; the report gives their median.
REPLAYS = 5


def repeat_timed(fn, ok, times: int = REPLAYS):
    """Call ``fn`` up to ``times`` times, stopping at the first result
    ``ok`` rejects; returns (median seconds, last result, all ok).
    Each call starts from a collected heap, so a collection the cold
    phase left due does not land in one repetition and not another."""
    seconds, value = [], None
    for _ in range(times):
        gc.collect()
        start = time.perf_counter()
        value = fn()
        seconds.append(time.perf_counter() - start)
        if not ok(value):
            return statistics.median(seconds), value, False
    return statistics.median(seconds), value, True


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class EventLog:
    """``events.jsonl``: one line per finished operation, appended with
    a single write so lines from several processes never interleave."""

    def __init__(self, path: Path) -> None:
        self.path = path

    def write(self, op: dict) -> None:
        line = (json.dumps(op) + "\n").encode()
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)


def op_record(label: str, ok: bool, seconds: float, work: float = 0.0,
              error: str = "", output: Optional[str] = None,
              warm: bool = False, end: Optional[float] = None) -> dict:
    """One operation.  ``output`` is the digest compared with the pins;
    ``work`` counts simulated µops or unique states; ``warm`` marks the
    cache-replay phase, which the per-operation metrics leave out;
    ``end`` is the wall time at which it ended (default: now)."""
    return {"label": label, "ok": ok, "seconds": seconds, "work": work,
            "error": error, "output": output, "warm": warm,
            "end": time.time() if end is None else end}


@dataclass
class PassResult:
    wall: float
    warm: float
    ops: List[dict] = field(default_factory=list)
    #: Names of failed output checks ("<label>: <why>").
    mismatches: List[str] = field(default_factory=list)
    #: Per-layer values measured at the benchmark's own boundaries.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Merged raw cProfile entries of every profiled process.
    stats: dict = field(default_factory=dict)
    #: Calls per layer that must repeat exactly between traced runs.
    fingerprint: Dict[str, int] = field(default_factory=dict)


class Context:
    def __init__(self, args) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.rundir = Path(args.rundir)
        self.rundir.mkdir(parents=True, exist_ok=True)
        self.events = EventLog(self.rundir / "events.jsonl")
        #: ``.perfbench`` at the checkout root (the working directory).
        self.bench_dir = Path.cwd() / ".perfbench"
        try:
            self.pins = json.loads(PINS_PATH.read_text())
        except (OSError, ValueError):
            self.pins = {}

    def pinned(self, workload) -> Dict[str, str]:
        """Pinned outputs by operation label: for the default seed, or
        for any seed when the workload's inputs do not depend on it."""
        if self.seed != DEFAULT_SEED and workload.seeded_inputs:
            return {}
        return self.pins.get(workload.name, {})


def verify_pins(result: PassResult, pins: Dict[str, str]) -> None:
    for op in result.ops:
        want = pins.get(op["label"])
        if want is None or op["output"] is None:
            continue
        if op["output"] != want:
            result.mismatches.append(
                f"{op['label']}: output {op['output'][:12]} != pinned "
                f"{want[:12]}")


#: Probe units within this many seconds of an operation set its slowdown.
OP_PROBE_PAD_S = 0.5


def end_to_end(passes: List[PassResult],
               samples: Optional[List[tuple]] = None) -> Dict[str, dict]:
    """The end-to-end metrics, in host seconds at the reference speed of
    :mod:`perfbench.speed`: an operation's time is divided by the
    slowdown of the probe units (``samples``) within
    :data:`OP_PROBE_PAD_S` of it, a pass's wall time outside its
    operations by that of every unit of the measured passes.  Without
    samples: host seconds."""
    samples = samples or []
    done = [op for p in passes for op in p.ops
            if op["ok"] and not op["warm"]]
    run_slow = slowdown([cpu for _, cpu in samples]) or 1.0

    def scaled(op, seconds):
        start = op["end"] - op["seconds"] - OP_PROBE_PAD_S
        end = op["end"] + OP_PROBE_PAD_S
        near = [cpu for ts, cpu in samples if start <= ts <= end]
        return seconds / (slowdown(near) or run_slow)

    def pass_wall(p):
        cold = [op for op in p.ops if not op["warm"]]
        outside = p.wall - sum(op["seconds"] for op in cold)
        return sum(scaled(op, op["seconds"]) for op in cold) \
            + max(outside, 0.0) / run_slow

    # Host seconds spent computing: a job's execution time on its
    # service worker, otherwise the operation's own time.
    busy = sum(scaled(op, op.get("busy", op["seconds"])) for op in done)

    def metric(value, unit):
        return {"value": float(value), "unit": unit}

    return {
        "wall_s": metric(
            statistics.median(pass_wall(p) for p in passes), "s"),
        # The operations differ in size (points of different benchmarks
        # and mechanisms, checks of different scenarios): the geometric
        # mean weighs each alike and averages the host noise of all,
        # where the median or the maximum rests on one operation.
        "op_geomean_s": metric(statistics.geometric_mean(
            scaled(op, op["seconds"]) for op in done), "s"),
        "work_per_s": metric(
            sum(op["work"] for op in done) / busy, "1/s"),
    }


def load_workload(name: str, ctx: Context):
    if name in ("sweep_spec", "sweep_parsec"):
        from perfbench import sweeps
        return sweeps.SweepSpec(ctx) if name == "sweep_spec" \
            else sweeps.SweepParsec(ctx)
    if name == "check":
        from perfbench.checks import Checks
        return Checks(ctx)
    from perfbench.jobs import ServiceJobs
    return ServiceJobs(ctx)


def check_call_counts(ctx: Context, workload: str,
                      fingerprint: Dict[str, int]) -> List[str]:
    """Compare with the previous traced run of this workload and seed
    in this checkout (if any); record this run's counts."""
    path = ctx.bench_dir / "calls" / f"{workload}-s{ctx.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    problems = []
    try:
        before = json.loads(path.read_text())
    except (OSError, ValueError):
        before = None
    if before is not None:
        for layer in sorted(set(before) | set(fingerprint)):
            if before.get(layer) != fingerprint.get(layer):
                problems.append(
                    f"call counts of {layer}: {fingerprint.get(layer)} "
                    f"!= {before.get(layer)} in the previous traced run")
    path.write_text(json.dumps(fingerprint, indent=1, sort_keys=True))
    return problems


def tail_line(passes: List[PassResult]) -> str:
    """Median, slowest and tail of the completed operations; the tail
    is the highest percentile with at least ten samples beyond it."""
    done = sorted((op["seconds"], op["label"]) for p in passes
                  for op in p.ops if op["ok"] and not op["warm"])
    if not done:
        return "operations: none completed"
    p50 = statistics.median(t for t, _ in done)
    line = (f"operations: {len(done)} completed; p50 {p50:.4f} s; max "
            f"{done[-1][0]:.4f} s ({done[-1][1]}), {done[-1][0] / p50:.2f}"
            f"x p50")
    if len(done) > 10:
        index = len(done) - 11
        line += (f"; tail p{100 * (index + 1) // len(done)} = "
                 f"{done[index][0]:.4f} s (10 samples beyond)")
    return line


def report_lines(passes: List[PassResult],
                 measured: List[PassResult]) -> List[str]:
    warm = statistics.median(p.warm for p in measured)
    lines = [tail_line(measured),
             f"warm operation (replay, resume or resubmission): median "
             f"{warm:.4f} s"]
    for p in passes:
        for op in p.ops:
            if not op["ok"]:
                lines.append(f"FAILED {op['label']}: {op['error']}")
        for problem in p.mismatches:
            lines.append(f"MISMATCH {problem}")
    return lines


def run(args, probe: Optional[SpeedProbe]) -> dict:
    ctx = Context(args)
    workload = load_workload(args.workload, ctx)
    workload.setup()
    ready_ts = time.time()
    (ctx.rundir / "ready.json").write_text(json.dumps({
        "ready_ts": ready_ts,
        "probe_units": [cpu for _, cpu in probe.window(0.0, ready_ts)]
        if probe else []}))
    if args.setup_only:
        workload.teardown()
        return {}
    (ctx.rundir / "plan.json").write_text(json.dumps(workload.plan()))
    pins = ctx.pinned(workload)

    passes: List[PassResult] = []
    if not ctx.trace:
        # Whole passes while the next one, as long as the last, still
        # ends within --seconds (at least one pass).
        start = time.monotonic()
        measured_from = time.time()
        while True:
            began = time.monotonic()
            passes.append(workload.run_pass(len(passes), Spans(False)))
            now = time.monotonic()
            if now - start + (now - began) > ctx.seconds:
                break
        samples = probe.window(measured_from, time.time())
        measured = passes
    else:
        reference = workload.run_pass(0, Spans(False))
        spans = Spans(True)
        traced = workload.run_pass(1, spans, profile=True)
        passes = [reference, traced]
        measured = [reference]
    for p in passes:
        verify_pins(p, pins)
    workload.teardown()

    ops = [op for p in passes for op in p.ops]
    mismatched = [m for p in passes for m in p.mismatches]
    failed = sum(1 for op in ops if not op["ok"]) + len(mismatched)
    result = {"correct": not mismatched, "attempted": len(ops),
              "failed": min(failed, len(ops)),
              "report": report_lines(passes, measured)}
    if not ctx.trace:
        result["metrics"] = end_to_end(measured, samples)
        units = [cpu for _, cpu in samples]
        result["report"].append(
            f"measured passes: slowdown {slowdown(units) or 1.0:.4f} over "
            f"{len(units)} probe units; unscaled " + ", ".join(
                f"{name} {m['value']:.6g}" for name, m in
                sorted(end_to_end(measured).items())))
        return result

    counts = dict(traced.counts)
    counts["bench.trace_overhead_frac"] = traced.wall / reference.wall - 1
    result["metrics"] = per_layer_metrics(traced.stats, spans, counts)
    traces = ctx.bench_dir / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_path = traces / f"{args.workload}-s{ctx.seed}.json"
    spans.write_chrome_trace(trace_path)
    repeat = check_call_counts(ctx, args.workload, traced.fingerprint)
    result["report"].append(f"chrome trace: {trace_path}")
    result["report"].extend(f"MISMATCH {p}" for p in repeat)
    if repeat:
        result["correct"] = False
    return result


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--rundir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # The probe runs from the first moment of every untraced run (the
    # traced run's profilers would see its thread).
    probe = None if args.trace else SpeedProbe().start()
    code = 0
    try:
        result = run(args, probe)
        if result:
            path = Path(args.rundir) / "result.json"
            path.write_text(json.dumps(result))
    except Exception:  # noqa: BLE001 - reported, then the run fails
        import traceback
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
