"""Macro-benchmarks: pinned end-to-end simulation points.

The points cover the distinct kernels of the repo: a single-core SPEC
simulation (core + private caches dominate), a 4-core Parsec simulation
(coherence traffic and the multi-core run loop), a 16-core Parsec
simulation on the scaled machine (mesh topology, sharded directory,
multi-channel DRAM), and one model-checker frontier slice (the
controlled scheduler and state hashing).  Configurations, trace
lengths, and seeds are pinned: the
timings are comparable across commits, and each simulation benchmark
records the SHA-256 fingerprint of its canonical result JSON — if a
kernel change alters *any* statistic of the simulated machine, the
fingerprint shifts and the benchmark run itself exposes it.
"""

from __future__ import annotations

import hashlib
from typing import Callable, List

from ..common.config import scaled_config, table_i
from ..modelcheck import explore
from ..sim.system import System
from ..workloads import make_parallel_traces, make_trace
from .registry import Benchmark

#: Every macro point uses this seed (the harness default).
SEED = 42


def _fingerprint(result) -> dict:
    digest = hashlib.sha256(result.canonical_json().encode()).hexdigest()
    return {"fingerprint": digest, "cycles": result.cycles}


def _bench_spec_single(quick: bool) -> Callable[[], object]:
    length = 5_000 if quick else 20_000
    config = table_i().with_mechanism("tus").with_sb_size(114).with_cores(1)
    trace = make_trace("502.gcc5", length, SEED)

    def work():
        return System(config, [trace], workload="502.gcc5").run()

    return work


def _bench_parsec_4core(quick: bool) -> Callable[[], object]:
    length = 1_500 if quick else 6_000
    config = table_i().with_mechanism("tus").with_sb_size(114).with_cores(4)
    traces = make_parallel_traces("canneal", 4, length, SEED)

    def work():
        return System(config, traces, workload="canneal").run()

    return work


def _bench_canneal_16(quick: bool) -> Callable[[], object]:
    # The paper's Parsec machine width: 16 cores on a mesh with a
    # 4-way-sharded directory and 2 DRAM channels (scaled_config).
    length = 400 if quick else 1_500
    config = scaled_config(16).with_mechanism("tus").with_sb_size(114)
    traces = make_parallel_traces("canneal", 16, length, SEED)

    def work():
        return System(config, traces, workload="canneal").run()

    return work


def _bench_modelcheck_slice(quick: bool) -> Callable[[], object]:
    max_states = 60 if quick else 200

    def work():
        return explore("overlap", "tus", cores=2, lines=2,
                       max_states=max_states)

    return work


def _bench_modelcheck_por(quick: bool) -> Callable[[], object]:
    max_states = 60 if quick else 400

    def work():
        return explore("disjoint", "tus", cores=3, lines=3,
                       max_states=max_states, por="persistent")

    return work


BENCHMARKS: List[Benchmark] = [
    Benchmark("macro.spec_single", "macro",
              "502.gcc5 single-core simulation point (tus, SB=114)",
              _bench_spec_single, meta_fn=_fingerprint),
    Benchmark("macro.parsec_4core", "macro",
              "canneal 4-core simulation point (tus, SB=114)",
              _bench_parsec_4core, meta_fn=_fingerprint),
    Benchmark("macro.canneal_16", "macro",
              "canneal 16-core simulation point (tus, mesh, 4 directory "
              "shards, 2 DRAM channels, SB=114)",
              _bench_canneal_16, meta_fn=_fingerprint),
    Benchmark("macro.modelcheck_slice", "macro",
              "model-checker frontier slice (overlap/tus, 2 cores)",
              _bench_modelcheck_slice,
              meta_fn=lambda r: {"unique_states": r.unique_states,
                                 "terminal_states": r.terminal_states,
                                 "executions": r.executions}),
    Benchmark("macro.modelcheck_por", "macro",
              "model-checker slice under persistent-set partial-order "
              "reduction (disjoint/tus, 3 cores)",
              _bench_modelcheck_por,
              meta_fn=lambda r: {"unique_states": r.unique_states,
                                 "terminal_states": r.terminal_states,
                                 "executions": r.executions,
                                 "por": r.por}),
]
