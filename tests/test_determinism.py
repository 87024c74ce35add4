"""Bit-identical determinism of the simulation kernel.

The perf work (bucketed event queue, staleness skipping, cached wake
cycles) is only admissible because the simulated machine is unchanged;
these tests pin that down: the same configuration and seed must produce
a byte-identical canonical result, run after run, in this process or in
a worker process.  Every benchmark fingerprint in ``BENCH_4.json``
relies on this property.
"""

import hashlib
from concurrent.futures import ProcessPoolExecutor

from repro.common.config import scaled_config, table_i
from repro.sim.system import System
from repro.workloads import make_parallel_traces, make_trace


def _simulate_payload(payload):
    """Build and run one system from primitives (must be a module-level
    function so a process pool can pickle it).  A sixth ``"scaled"``
    element selects the scaled machine (mesh interconnect, sharded
    directory, multi-channel DRAM) instead of the Table I layout."""
    bench, mechanism, cores, length, seed = payload[:5]
    base = scaled_config(cores) if "scaled" in payload[5:] \
        else table_i().with_cores(cores)
    config = base.with_mechanism(mechanism).with_sb_size(114)
    if cores == 1:
        traces = [make_trace(bench, length, seed)]
    else:
        traces = make_parallel_traces(bench, cores, length, seed)
    result = System(config, traces, workload=bench).run()
    return hashlib.sha256(result.canonical_json().encode()).hexdigest()


SINGLE = ("502.gcc5", "tus", 1, 4_000, 42)
PARALLEL = ("canneal", "tus", 2, 1_500, 42)
SCALED = ("canneal", "tus", 16, 300, 42, "scaled")


class TestInProcessDeterminism:
    def test_single_core_repeat(self):
        assert _simulate_payload(SINGLE) == _simulate_payload(SINGLE)

    def test_parallel_repeat(self):
        assert _simulate_payload(PARALLEL) == _simulate_payload(PARALLEL)

    def test_scaled_machine_repeat(self):
        # The 16-core mesh/sharded/NUMA machine must be as reproducible
        # as the default layout (macro.canneal_16 pins its fingerprint).
        assert _simulate_payload(SCALED) == _simulate_payload(SCALED)

    def test_scaled_machine_differs_from_flat(self):
        # Sanity: the topology layer is live — the same workload on the
        # p2p machine must not produce the scaled machine's result.
        flat = ("canneal", "tus", 16, 300, 42)
        assert _simulate_payload(SCALED) != _simulate_payload(flat)

    def test_mechanisms_differ(self):
        # Sanity: the fingerprint is sensitive — a different store path
        # must not collide with the TUS result.
        base = ("502.gcc5", "baseline", 1, 4_000, 42)
        assert _simulate_payload(SINGLE) != _simulate_payload(base)


class TestCrossProcessDeterminism:
    def test_worker_matches_parent(self):
        here = _simulate_payload(PARALLEL)
        with ProcessPoolExecutor(max_workers=1) as pool:
            there = pool.submit(_simulate_payload, PARALLEL).result()
        assert here == there

    def test_scaled_worker_matches_parent(self):
        here = _simulate_payload(SCALED)
        with ProcessPoolExecutor(max_workers=1) as pool:
            there = pool.submit(_simulate_payload, SCALED).result()
        assert here == there


class TestBenchMetaIsHostIndependent:
    """``meta`` is compared exactly across hosts and commits, so no
    field may depend on host speed (a states-per-second rate did)."""

    def test_modelcheck_meta_repeats_exactly(self):
        from repro.bench.macro import BENCHMARKS
        for bench in BENCHMARKS:
            if not bench.name.startswith("macro.modelcheck"):
                continue
            first, second = (bench.run(quick=True, warmup=0, trials=1)
                             for _ in range(2))
            assert first.meta == second.meta, bench.name
            assert first.meta["unique_states"] > 0
