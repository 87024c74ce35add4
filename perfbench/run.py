"""Benchmark entry point: one workload run, hang-proof, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep_spec --seed 42 \\
        --seconds 30 --trace 0

Workloads: ``sweep_spec``, ``sweep_parsec``, ``check``, ``service``
(see ``perfbench/workload.py``).  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones (cProfile + spans, written
as Chrome-trace JSON under ``.perfbench/``).

This script and every process it starts run on one CPU (the last one
it may use).  The workload executes in its own child process, in its
own session, under a wall cap.  When the child ends -- or the cap kills it -- every
process left in that session is killed and reaped, including pool
workers that ``run_points`` abandoned; operations that never reported
count as failed.  This script also runs the set-up phase alone a few
times (``setup_s`` is their median, scaled to the reference speed of
``perfbench/speed.py`` by the probe units of those set-ups) and samples
the summed RSS of the session (``peak_rss_mb``).

The last line of standard output is the JSON result object.  Outside a
checkout (no ``src/repro``) the script exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.speed import pin_to_one_cpu, slowdown  # noqa: E402

WORKLOADS = ("sweep_spec", "sweep_parsec", "check", "service")
#: The whole invocation ends within this many seconds.
TOTAL_CAP_S = 170.0
#: Set-up phases measured per run (the workload run's own included).
SETUP_SAMPLES = 9
#: One scan of /proc costs about 2 ms of CPU.
RSS_SAMPLE_S = 0.25
PR_SET_CHILD_SUBREAPER = 36


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def become_subreaper() -> None:
    """Orphaned descendants re-parent to this process, so it can reap
    them (and know they have ended)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def session_pids(sid: int):
    """Live (non-zombie) processes whose session id is ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(entry))
    return pids


def session_rss_mb(sid: int) -> float:
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for pid in session_pids(sid):
        try:
            with open(f"/proc/{pid}/statm") as handle:
                total += int(handle.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            continue
    return total / 2**20


def reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def kill_session(sid: int, timeout: float = 10.0) -> int:
    """SIGKILL every process of the session and wait until none is
    left; returns how many were still alive."""
    survivors = session_pids(sid)
    deadline = time.monotonic() + timeout
    while True:
        pids = session_pids(sid)
        if not pids:
            return len(survivors)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        reap()
        if time.monotonic() > deadline:
            return len(survivors)
        time.sleep(0.02)


def run_child(root: Path, args, rundir: Path, cap: float,
              setup_only: bool):
    """Run one workload child to completion or to ``cap`` seconds;
    returns (exit code or None if capped, peak session RSS MiB,
    spawn timestamp, survivors killed)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    tmp = rundir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["REPRO_CACHE"] = str(rundir / "repro_cache")
    cmd = [sys.executable, "-m", "perfbench.workload",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rundir", str(rundir)]
    if setup_only:
        cmd.append("--setup-only")
    spawn_ts = time.time()
    child = subprocess.Popen(cmd, cwd=root, env=env,
                             start_new_session=True)
    peak = 0.0
    deadline = time.monotonic() + cap
    code = None
    while True:
        code = child.poll()
        if code is not None:
            break
        if time.monotonic() > deadline:
            break
        peak = max(peak, session_rss_mb(child.pid))
        time.sleep(RSS_SAMPLE_S)
    survivors = kill_session(child.pid)
    if code is None:
        child.wait()
    reap()
    return code, peak, spawn_ts, survivors


def read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def read_events(path: Path):
    events = []
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return events
    for line in lines:
        try:
            events.append(json.loads(line))
        except ValueError:
            continue    # a line torn by the kill
    return events


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    become_subreaper()
    cpu = pin_to_one_cpu()
    rundir = root / ".perfbench" / "runs" / (
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)

    setups, setup_units = [], []
    for index in range(0 if args.trace else SETUP_SAMPLES - 1):
        setup_dir = rundir / f"setup{index}"
        code, _, spawn_ts, _ = run_child(root, args, setup_dir, 60.0,
                                         setup_only=True)
        ready = read_json(setup_dir / "ready.json")
        if code != 0 or ready is None:
            print(f"perfbench: set-up run failed (exit {code})",
                  file=sys.stderr)
            return 3
        setups.append(ready["ready_ts"] - spawn_ts)
        setup_units += ready["probe_units"]

    cap = TOTAL_CAP_S - (time.monotonic() - started)
    main_dir = rundir / "main"
    code, peak_rss, spawn_ts, survivors = run_child(
        root, args, main_dir, cap, setup_only=False)
    result = read_json(main_dir / "result.json")
    plan = read_json(main_dir / "plan.json") or []
    events = read_events(main_dir / "events.jsonl")
    ready = read_json(main_dir / "ready.json")
    shutil.rmtree(rundir, ignore_errors=True)
    if code is None:
        print(f"perfbench: {args.workload} hit its {cap:.0f}s wall cap; "
              f"{survivors} process(es) killed", file=sys.stderr)
    elif survivors:
        print(f"perfbench: killed {survivors} leftover process(es) "
              f"after the run", file=sys.stderr)

    if result is None:
        # The child died or was capped: every planned operation that
        # did not report success counts as failed, by label.
        done = {e["label"] for e in events if e.get("ok")}
        missing = [label for label in plan if label not in done]
        for label in missing:
            print(f"FAILED {label}: no result (run ended with exit "
                  f"{code})")
        print(json.dumps({"correct": False,
                          "attempted": max(1, len(plan)),
                          "failed": max(1, len(missing)),
                          "metrics": {}}))
        return 0

    if ready is not None:
        setups.append(ready["ready_ts"] - spawn_ts)
        setup_units += ready["probe_units"]
    metrics = result["metrics"]
    if not args.trace:
        # Set-up seconds at the reference speed (perfbench/speed.py).
        setup = statistics.median(setups)
        setup_slow = slowdown(setup_units) or 1.0
        metrics["setup_s"] = {"value": setup / setup_slow, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss, "unit": "MB"}
        print(f"set-up: median {setup:.4f} s on CPU {cpu}, slowdown "
              f"{setup_slow:.4f} over {len(setup_units)} probe units")
    for line in result.get("report", []):
        print(line)
    for name in sorted(metrics):
        print(f"{name:32s} {metrics[name]['value']:>14.6g} "
              f"{metrics[name]['unit']}")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
