"""Regenerate ``perfbench/pins.json``: the default seed's outputs,
computed through the program's own entry points rather than the
benchmark's paths.

    PYTHONPATH=src:. python3 -m perfbench.pin [WORKLOAD ...]

With workload names, only their pins are regenerated.

* sweep points: ``sha256(SimResult.canonical_json())`` of
  ``Runner.simulate`` (a point that does not finish within
  ``PIN_CAP_S`` -- the SPB livelock -- is left unpinned);
* checks: ``explore`` (executions, unique and terminal states, verdict);
* service jobs: the fig9 table computed in-process.

Re-pin only on purpose, and say why: a changed pin means the program
computes something else.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from perfbench import checks, jobs, sweeps
from perfbench.workload import (DEFAULT_SEED, PINS_PATH, OpTimeout,
                                wall_cap)
from repro.harness import Runner, collect_points, fig13, fig14

PIN_CAP_S = 120.0


class _Ctx:
    seed = DEFAULT_SEED
    trace = False


def sweep_pins(params, figure, kwargs):
    runner = Runner(use_disk_cache=False, **params)
    pins = {}
    for pt in collect_points(runner, figure, **kwargs):
        try:
            with wall_cap(PIN_CAP_S):
                result = runner.simulate(pt)
        except OpTimeout:
            print(f"unpinned {pt.label()}: no result in {PIN_CAP_S:.0f}s")
            continue
        pins[pt.label()] = sweeps.result_digest(result)
        print(f"pinned {pt.label()}", flush=True)
    return pins


def main(argv=None) -> None:
    wanted = set(argv if argv is not None else sys.argv[1:]) \
        or {"sweep_spec", "sweep_parsec", "check", "service"}
    ctx = _Ctx()
    try:
        pins = json.loads(PINS_PATH.read_text())
    except (OSError, ValueError):
        pins = {}
    if "sweep_spec" in wanted:
        spec = sweeps.SweepSpec(ctx)
        pins["sweep_spec"] = sweep_pins(spec.params, fig13, spec.kwargs)
    if "sweep_parsec" in wanted:
        parsec = sweeps.SweepParsec(ctx)
        pins["sweep_parsec"] = sweep_pins(parsec.params, fig14,
                                          parsec.kwargs)
    if "check" in wanted:
        pins["check"] = {}
        with tempfile.TemporaryDirectory(dir=".") as scratch:
            for check in checks.all_checks():
                spool = Path(scratch) / "spool" if check.spool else None
                report = checks.run_check(check, spool)
                pins["check"][check.label] = checks.report_output(report)
                print(f"pinned {check.label}", flush=True)
    if "service" in wanted:
        pins["service"] = {}
        for label, spec_ in jobs.ServiceJobs(ctx).jobs(0):
            pins["service"][label] = jobs.direct_output(spec_)
            print(f"pinned {label}", flush=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
