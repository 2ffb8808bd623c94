#!/usr/bin/env python3
"""The repository benchmark: warm, cold and shared-server exploration.

    python3 perfbench/run.py --workload warm_explore --seed 1 --seconds 40 --trace 0

Run from the repository root.  ``BENCHMARK.json`` lists ``warm_explore``
and ``shared_serve``; ``cold_explore`` runs the same way but is left out
of it (see README.md).  ``--trace 0`` measures the end-to-end
metrics of ``BENCHMARK.json`` with tracing off; ``--trace 1`` measures
its per-layer metrics from a separate traced run.  Every query's rows
are checked against a reuse-free reference; any mismatch or failed
query makes the command exit with status 1.  The last line of standard
output is one JSON object::

    {"correct": true, "attempted": 180, "failed": 0, "metrics": {...}}

``setup_s`` is the median over several fresh processes of the time from
process start (``import repro`` included) to the first timed query.
Wall times are reported in reference time, scaled by the host's speed
measured beside them; the report prints the wall-clock values too.
"""

from __future__ import annotations

import argparse
import json
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh processes whose set-up time ``setup_s`` takes the median of;
#: the last one goes on to the measured run.
SETUP_RUNS = 3
#: Whole-command limit: children still running then are killed.
TIME_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    """A worker process exited early, failed, or ran out of time."""


def spawn(arguments: list[str], deadline: float):
    """Run ``worker.py``; returns (seconds to READY, SPEED factor, RESULT
    payload)."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *arguments],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines: queue.Queue = queue.Queue()

    def pump() -> None:
        for line in process.stdout:
            lines.put(line.rstrip("\n"))
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    ready_s = speed = payload = None
    try:
        while True:
            try:
                line = lines.get(
                    timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise ChildFailed("time limit reached") from None
            if line is None:
                break
            if line == "READY" and ready_s is None:
                ready_s = time.perf_counter() - started
            elif line.startswith("SPEED "):
                speed = float(line[len("SPEED "):])
            elif line.startswith("RESULT "):
                payload = json.loads(line[len("RESULT "):])
        code = process.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildFailed("time limit reached") from None
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        reader.join(timeout=5)
        process.stdout.close()
    if code != 0 or ready_s is None or speed is None:
        raise ChildFailed(f"worker exited with status {code}")
    return ready_s, speed, payload


def load_spec() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    with open(HERE / "spec.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return benchmark, spec


def measure(args) -> tuple[list[tuple[float, float]], dict]:
    """Returns ((seconds to READY, speed factor) per process, payload)."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size]
    setup_times = []
    # A traced run reports no set-up time, so it sets up only once.
    for _ in range(0 if args.trace else SETUP_RUNS - 1):
        ready_s, speed, _ = spawn(
            common + ["--seconds", "0", "--setup-only"], deadline)
        setup_times.append((ready_s, speed))
    run = common + ["--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
    if args.corrupt_reference:
        run.append("--corrupt-reference")
    ready_s, speed, payload = spawn(run, deadline)
    setup_times.append((ready_s, speed))
    if payload is None:
        raise ChildFailed("worker printed no result")
    return setup_times, payload


def report(args, benchmark, spec, setup_times, payload) -> dict:
    """Print the human-readable report; return the declared metrics."""
    attempted, failed = payload["attempted"], payload["errors"]
    mismatched = payload["mismatches"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    print(f"  queries attempted {attempted}, failed {failed}, "
          f"rows differing from the reference {mismatched}")
    if args.trace:
        values = payload["per_layer"]
        declared = benchmark["per_layer"]
        layers = spec["per_layer"]
    else:
        values = dict(payload)
        values["setup_s"] = statistics.median(
            ready_s * speed for ready_s, speed in setup_times)
        values["setup_s_raw"] = statistics.median(
            ready_s for ready_s, _ in setup_times)
        values["failed_frac"] = (failed + mismatched) / attempted
        declared = benchmark["end_to_end"]
        layers = {}
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        note = ""
        if name == "query_tail_ms":
            note = (f"  (p{values['tail_percentile']:.1f}, "
                    f"{values['tail_samples_beyond']} samples beyond)")
        elif name == "setup_s":
            note = f"  (median of {len(setup_times)} fresh processes)"
        elif name in layers:
            moves = ", ".join(f"{target['metric']}@{target['workload']}"
                              for target in layers[name]["moves"])
            note = f"  -> {moves}" if moves else ""
        if f"{name}_raw" in values:
            note += f"  [wall clock {values[name + '_raw']:.6g}]"
        print(f"  {name:<36} {values[name]:>14.6g} {unit}{note}")
    if not args.trace:
        # Not a BENCHMARK.json metric (it reads 0 on a correct run);
        # the JSON line carries it as ``failed`` over ``attempted``.
        print(f"  {'failed_frac':<36} {values['failed_frac']:>14.6g} frac")
        print(f"  {'host_speed':<36} {values['host_speed']:>14.6g} "
              "(reference time over wall time, median over units)")
        print("  public counters: " + ", ".join(
            f"{key}={value:.6g}"
            for key, value in sorted(payload["counters"].items())))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=("warm_explore", "cold_explore",
                                 "shared_serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small videos, for the smoke tests")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="alter one reference result, to show that "
                             "the row check fails the run")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark, spec = load_spec()
    try:
        setup_times, payload = measure(args)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = report(args, benchmark, spec, setup_times, payload)
    failed = payload["errors"] + payload["mismatches"]
    print(json.dumps({"correct": failed == 0,
                      "attempted": payload["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
