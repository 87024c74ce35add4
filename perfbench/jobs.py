"""The ``service`` workload: sweep jobs over HTTP, closed loop.

An in-process ``Service`` (1 spawned worker) on localhost; one client
thread submits a job, polls until it is terminal, fetches its result,
and only then submits the next (a closed loop).  The cold phase submits
distinct ``sweep`` jobs (fig9, one single-core benchmark each, 3 000
µops, distinct seeds); the warm (dedup) phase resubmits the same specs,
which the service answers from its job records and artifacts.  One
worker and one client keep one CPU busy at a time (see "Steadiness" in
``perfbench/README.md``).

Correctness: every job's figure table is pinned for the default seed;
for any seed a seeded sample of jobs is recomputed directly in-process
and must match, and every resubmitted job must return the cold table.
"""

from __future__ import annotations

import gc
import random
import statistics
import threading
import time
from typing import Dict, List

from perfbench.layers import Spans, ThreadProfiles
from perfbench.workload import PassResult, canonical, digest, op_record
from repro.harness import Runner, fig9
from repro.service.client import ServiceClient
from repro.service.service import Service, ServiceConfig
from repro.workloads import sb_bound_benchmarks

CLIENTS = 1
SERVICE_WORKERS = 1
JOB_LENGTH = 3_000
JOB_CAP_S = 60.0
POLL_S = 0.05
#: Jobs per pass whose table is recomputed directly (any seed).
DIRECT_SAMPLE = 2


def job_spec(bench: str, seed: int) -> dict:
    return {"figure": "fig9", "benches": [bench], "st_length": JOB_LENGTH,
            "seed": seed, "simpoints": 1, "workers": 1}


def tables_output(tables: List[dict]) -> str:
    return digest(canonical([[t["exp_id"], t["rows"], t["summary"]]
                             for t in tables]))


def direct_output(spec: dict) -> str:
    """The job's figure computed in-process, without the service."""
    runner = Runner(use_disk_cache=False, st_length=spec["st_length"],
                    seed=spec["seed"], simpoints=spec["simpoints"])
    table = fig9(runner, benches=spec["benches"])
    return digest(canonical([[table.exp_id, table.rows, table.summary]]))


class ServiceJobs:
    name = "service"
    seeded_inputs = True

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.service = None

    def jobs(self, index: int) -> List[tuple]:
        """(label, spec) of the pass's jobs: every SB-bound single-core
        benchmark once, in a seeded order, each with its own seed.  A
        traced run's traced pass repeats the inputs of its reference
        pass (on a fresh service); further passes take new seeds."""
        pool = sb_bound_benchmarks("spec") + sb_bound_benchmarks("tf")
        random.Random(self.ctx.seed).shuffle(pool)
        first = self.ctx.seed * 1000 + len(pool) * self.offset(index)
        return [(f"{bench}/seed{first + i}", job_spec(bench, first + i))
                for i, bench in enumerate(pool)]

    def offset(self, index: int) -> int:
        return 0 if self.ctx.trace else index

    def start_service(self, index: int) -> None:
        if self.service is not None:
            self.service.stop()
        data = self.ctx.rundir / f"service{index}"
        self.service = Service(ServiceConfig(
            data_dir=str(data), workers=SERVICE_WORKERS))
        self.client = ServiceClient(self.service.start(),
                                    timeout=JOB_CAP_S)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            beats = self.service.fleet.heartbeats()
            if self.client.healthz() and len(beats) >= SERVICE_WORKERS:
                return
            time.sleep(0.01)
        raise RuntimeError("service workers did not start")

    def setup(self) -> None:
        self.start_service(0)

    def plan(self) -> List[str]:
        return [label for label, _ in self.jobs(0)] \
            + [f"dedup/{label}" for label, _ in self.jobs(0)]

    def teardown(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None

    # -- one closed-loop job -------------------------------------------------
    def run_job(self, label: str, spec: dict, spans: Spans,
                warm: bool) -> dict:
        client = self.client
        start = time.perf_counter()
        info = {"polls": 0, "dedup_hit": False, "record": None}
        try:
            with spans.span("service.submit", label):
                status, body = client.submit("sweep", spec)
            info["submit_s"] = time.perf_counter() - start
            if status not in (200, 202):
                raise RuntimeError(f"submit answered HTTP {status}: "
                                   f"{body.get('error', body)}")
            record = body
            info["dedup_hit"] = record["status"] == "done" \
                and not record.get("created", True)
            deadline = start + JOB_CAP_S
            while record["status"] not in ("done", "failed"):
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"still {record['status']} after "
                                       f"{JOB_CAP_S:.0f}s")
                time.sleep(POLL_S)
                with spans.span("service.poll", label):
                    record = client.job(record["id"])
                info["polls"] += 1
            seconds = time.perf_counter() - start
            info["record"] = record
            if record["status"] != "done":
                raise RuntimeError(f"job failed: {record.get('error')}")
            with spans.span("service.result", label):
                payload = client.result(record["id"])
            output = tables_output(payload["payload"]["result"]["tables"])
        except Exception as exc:  # noqa: BLE001 - one failed job
            op = op_record(label, False, time.perf_counter() - start,
                           error=f"{type(exc).__name__}: {exc}", warm=warm)
        else:
            busy = (record["finished_ts"] or 0) - (record["started_ts"]
                                                    or 0)
            op = op_record(label, True, seconds, output=output, warm=warm,
                           work=record["points_simulated"] * JOB_LENGTH)
            op["busy"] = max(busy, 0.0)
        op["info"] = info
        self.ctx.events.write({k: v for k, v in op.items()
                               if k != "info"})
        return op

    def phase(self, jobs: List[tuple], spans: Spans, warm: bool
              ) -> List[dict]:
        """Run ``jobs`` over :data:`CLIENTS` closed-loop clients."""
        results: Dict[int, dict] = {}

        def client_loop(k: int) -> None:
            for i in range(k, len(jobs), CLIENTS):
                label, spec = jobs[i]
                name = f"dedup/{label}" if warm else label
                results[i] = self.run_job(name, spec, spans, warm)

        threads = [threading.Thread(target=client_loop, args=(k,),
                                    name=f"perfbench-client-{k}")
                   for k in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [results[i] for i in range(len(jobs))]

    def run_pass(self, index: int, spans: Spans,
                 profile: bool = False) -> PassResult:
        threads = ThreadProfiles() if profile else None
        if threads:
            threads.start()
        if index > 0:
            self.start_service(index)
        jobs = self.jobs(index)
        start = time.perf_counter()
        cold = self.phase(jobs, spans, warm=False)
        wall = time.perf_counter() - start
        gc.collect()     # as before every warm operation
        dedup = self.phase(jobs, spans, warm=True)
        # The warm figure is the median resubmission latency.
        result = PassResult(wall=wall, warm=statistics.median(
            op["seconds"] for op in dedup))
        result.ops = cold + dedup

        # Resubmissions must return the cold tables; a sample of jobs
        # must match the direct in-process computation.
        for first, again in zip(cold, dedup):
            if first["ok"] and again["ok"] \
                    and first["output"] != again["output"]:
                result.mismatches.append(
                    f"{again['label']}: table != cold table")
        sample = random.Random(self.ctx.seed + index).sample(
            range(len(jobs)), DIRECT_SAMPLE)
        for i in sample:
            if cold[i]["ok"] and direct_output(jobs[i][1]) \
                    != cold[i]["output"]:
                result.mismatches.append(
                    f"{cold[i]['label']}: service table != direct table")

        if profile:
            self.service.stop()
            self.service = None
            result.stats = threads.stop()
            result.counts, result.fingerprint = self.layer_counts(
                cold, dedup)
        for op in result.ops:
            op.pop("info")
        return result

    @staticmethod
    def layer_counts(cold: List[dict], dedup: List[dict]):
        records = [op["info"]["record"] for op in cold if op["ok"]]

        def median(values):
            values = list(values)
            return statistics.median(values) if values else 0.0

        hits = sum(op["info"]["dedup_hit"] for op in dedup)
        simulated = sum(r["points_simulated"] for r in records)
        total = sum(r["points_total"] for r in records)
        counts = {
            "service.submit_s": median(op["info"].get("submit_s", 0.0)
                                       for op in cold),
            "service.queue_wait_s": median(
                r["started_ts"] - r["submitted_ts"] for r in records),
            "service.exec_s": median(
                r["finished_ts"] - r["started_ts"] for r in records),
            "service.polls_per_job": sum(op["info"]["polls"]
                                         for op in cold) / len(cold),
            "service.dedup_hit_frac": hits / len(dedup),
            "harness.cache_hit_frac": sum(
                r["point_cache_hits"] for r in records) / max(1, total),
        }
        fingerprint = {"service.jobs_done": len(records),
                       "service.points_simulated": simulated,
                       "service.dedup_hits": hits}
        return counts, fingerprint
