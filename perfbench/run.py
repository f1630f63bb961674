#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe with dune,
runs the workload in a fresh process and prints that process's rows
followed by one JSON line: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.
Two of them are measured here rather than in the workload process:
  setup_s      median, over three fresh processes, of the time from
               process start to the "perfbench: ready" line (two
               set-up-only processes plus the measured one), in
               reference seconds like every end-to-end time: scaled by
               the host speed the process measures right after set-up;
  peak_rss_mb  peak resident memory of the measured process.
With --trace 1 the metrics are the per-layer ones.

Exits nonzero, without a JSON line, when the build or the workload
process fails, or when the draws bench.exe makes differ from the record
in perfbench/draws.json or from the workloads of BENCHMARK.json; exits 1
after the JSON line when an output is wrong.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
DRAWS = os.path.join("perfbench", "draws.json")
TMP = os.path.join("_build", "perfbench-tmp")
RUN_LIMIT_S = 170  # after the build, every process is killed by then
READY = "perfbench: ready"
SPEED = "perfbench: speed "


def scratch_env():
    """Keep the build's and the workload's temporary files in the checkout."""
    tmpdir = os.path.abspath(os.path.join(TMP, "tmp"))
    os.makedirs(tmpdir, exist_ok=True)
    return dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmpdir)


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/bench.exe"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=scratch_env(),
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: build failed: {e}\n")
        return False
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
        sys.stderr.write("perfbench: build failed\n")
        return False
    return True


def draws_recorded():
    """True when `bench.exe --list-draws` matches perfbench/draws.json and
    each workload's "why" there is the one BENCHMARK.json gives."""
    try:
        r = subprocess.run([EXE, "--list-draws"], stdout=subprocess.PIPE,
                           text=True, env=scratch_env(), timeout=60)
        listed = json.loads(r.stdout)
        with open(DRAWS) as f:
            recorded = json.load(f)
        with open("BENCHMARK.json") as f:
            whys = {w["name"]: w["why"] for w in json.load(f)["workloads"]}
    except (OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: cannot compare the draws: {e}\n")
        return False
    if listed != recorded:
        sys.stderr.write(f"perfbench: {DRAWS} differs from bench.exe --list-draws\n")
        return False
    if whys != {name: d["why"] for name, d in listed.items()}:
        sys.stderr.write(
            "perfbench: BENCHMARK.json's workloads differ from bench.exe --list-draws\n")
        return False
    return True


def run_workload(argv, forward, deadline):
    """Run bench.exe; return (exit code, set-up time, stdout lines, peak
    RSS in MB).  The set-up time is process start to the ready line, in
    reference seconds (scaled by the speed line that follows it).
    Forwarded lines are echoed to our stdout."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [EXE] + argv, stdout=subprocess.PIPE, text=True, env=scratch_env())
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    ready_s, speed, lines = None, None, []
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if ready_s is None and line == READY:
                ready_s = time.perf_counter() - t0
                continue
            if speed is None and line.startswith(SPEED):
                speed = float(line[len(SPEED):])
                continue
            lines.append(line)
            if forward and not line.startswith("{"):
                print(line, flush=True)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if ready_s is not None and speed is not None:
        ready_s *= speed
    else:
        ready_s = None
    return proc.returncode, ready_s, lines, usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--draw-seed", type=int)
    args = ap.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        return 2
    tmp = os.path.join(TMP, str(os.getpid()))
    argv = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.draw_seed is not None:
        argv += ["--draw-seed", str(args.draw_seed)]
    try:
        if not build() or not draws_recorded():
            return 2
        if args.workload == "serve-mixed":
            # The closed loop hands each request from thread to thread.
            # Across CPUs every hand-off can wake an idle CPU, whose wake-up
            # time depends on the host's load rather than on the program;
            # on one CPU each hand-off is a plain context switch.  The
            # workload processes inherit this affinity.
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        deadline = time.monotonic() + RUN_LIMIT_S
        setups = []
        if args.trace == 0:
            for i in range(2):
                code, ready_s, _, _ = run_workload(
                    argv + ["--setup-only", "--tmp", f"{tmp}-s{i}"], False, deadline)
                if code != 0 or ready_s is None:
                    sys.stderr.write("perfbench: set-up failed\n")
                    return 2
                setups.append(ready_s)
        code, ready_s, lines, rss_mb = run_workload(
            argv + ["--tmp", f"{tmp}-run"], True, deadline)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    if ready_s is None or not lines:
        sys.stderr.write(f"perfbench: workload process failed (exit {code})\n")
        return code or 2
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(f"perfbench: no result line (exit {code})\n")
        return code or 2
    if args.trace == 0:
        setups.append(ready_s)
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"}
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
