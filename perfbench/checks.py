"""The ``check`` workload: exhaustive model checks.

Every pinned scenario x {tus, baseline} at 2 cores x 2 lines, under POR
``off`` and ``persistent``; ``disjoint/tus`` at 3 cores x 3 lines in both
POR modes; and ``overlap/tus`` once more with a durable frontier
(``spool=``).  The checks run one after another in this process (one
busy CPU), each under its own wall cap.  The warm phase resumes the
finished spool, which must answer without executing.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import List, NamedTuple, Optional

from perfbench.layers import (Spans, call_fingerprint, new_profile,
                              raw_stats)
from perfbench.workload import (EventLog, OpTimeout, PassResult,
                                canonical, digest, op_record, repeat_timed,
                                wall_cap)
from repro.modelcheck import SCENARIOS, explore

CHECK_CAP_S = 90.0
MC_LAYERS = ("coherence", "common", "core", "cpu", "mem", "mechanisms",
             "sim", "modelcheck", "models", "tso", "observe", "faults")


class Check(NamedTuple):
    scenario: str
    mechanism: str
    cores: int
    lines: int
    por: str
    spool: bool = False

    @property
    def label(self) -> str:
        tail = "/spool" if self.spool else ""
        return (f"{self.scenario}/{self.mechanism}/"
                f"{self.cores}x{self.lines}/{self.por}{tail}")


def all_checks() -> List[Check]:
    checks = [Check(name, mech, 2, 2, por)
              for name in SCENARIOS
              for mech in ("tus", "baseline")
              for por in ("off", "persistent")]
    checks += [Check("disjoint", "tus", 3, 3, por)
               for por in ("off", "persistent")]
    checks.append(Check("overlap", "tus", 2, 2, "off", spool=True))
    return checks


def report_output(report) -> str:
    return digest(canonical([report.executions, report.unique_states,
                             report.terminal_states, report.passed]))


def run_check(check: Check, spool: Optional[Path]):
    return explore(check.scenario, check.mechanism, cores=check.cores,
                   lines=check.lines, por=check.por,
                   spool=str(spool) if spool is not None else None)


def run_checks(checks: List[Check], spool: Path, events: EventLog,
               spans: Spans, prof) -> list:
    """Run ``checks`` one after another; returns (operation, (executions,
    unique states, terminal states)) per check."""
    done = []
    for check in checks:
        start = time.perf_counter()
        report = None
        try:
            with wall_cap(CHECK_CAP_S), \
                    spans.span("modelcheck.explore", check.label):
                if prof:
                    prof.enable()
                try:
                    report = run_check(check,
                                       spool if check.spool else None)
                finally:
                    if prof:
                        prof.disable()
        except OpTimeout as exc:
            error = f"timeout: {exc}"
        except Exception as exc:  # noqa: BLE001 - one failed check
            error = f"error: {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if report is None:
            op = op_record(check.label, False, seconds, error=error)
        elif not report.passed or not report.complete:
            op = op_record(check.label, False, seconds,
                           error=f"check: {report.summary()}")
        else:
            op = op_record(check.label, True, seconds,
                           work=report.unique_states,
                           output=report_output(report))
        events.write(op)
        counts = (report.executions, report.unique_states,
                  report.terminal_states) if report is not None \
            else (0, 0, 0)
        done.append((op, counts))
    return done


class Checks:
    name = "check"
    seeded_inputs = False

    def __init__(self, ctx) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        self.checks = all_checks()

    def plan(self) -> List[str]:
        return [c.label for c in self.checks] + ["resume/overlap/tus"]

    def teardown(self) -> None:
        pass

    def run_pass(self, index: int, spans: Spans,
                 profile: bool = False) -> PassResult:
        ctx = self.ctx
        spool = ctx.rundir / f"spool{index}"
        shutil.rmtree(spool, ignore_errors=True)
        prof = new_profile() if profile else None
        # The checks do not depend on the seed.
        start = time.perf_counter()
        done = run_checks(self.checks, spool, ctx.events, spans, prof)
        result = PassResult(wall=time.perf_counter() - start, warm=0.0)
        executions = unique = 0
        counts = {}
        for op, (ex, un, term) in done:
            result.ops.append(op)
            counts[op["label"]] = (un, term)
            executions += ex
            unique += un

        # Warm phase: resume the finished durable frontier.
        cold = next((op for op in result.ops
                     if op["label"].endswith("/spool")), None)
        check = next(c for c in self.checks if c.spool)

        def resume():
            with spans.span("modelcheck.explore", "resume"):
                if prof:
                    prof.enable()
                report = run_check(check, spool)
                if prof:
                    prof.disable()
            if report.executions:
                return f"resume executed {report.executions} schedule(s)"
            resumed = (report.unique_states, report.terminal_states)
            if not report.passed or resumed != counts[cold["label"]]:
                return "resumed report != cold report"
            return ""

        ok, why = False, "cold check failed"
        if cold is not None and cold["ok"]:
            result.warm, why, ok = repeat_timed(
                resume, lambda problem: not problem)
        op = op_record("resume/overlap/tus", ok, result.warm,
                       error=why, warm=True)
        result.ops.append(op)
        ctx.events.write(op)
        if not ok and cold is not None and cold["ok"]:
            result.mismatches.append(f"resume/overlap/tus: {why}")

        if profile:
            result.stats = raw_stats(prof)
            result.counts = {
                "modelcheck.executions": executions,
                "modelcheck.unique_frac": unique / max(1, executions)}
            result.fingerprint = call_fingerprint(result.stats, MC_LAYERS)
        return result

