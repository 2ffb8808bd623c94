"""One benchmark process: set a workload up, time it, check its rows.

``run.py`` starts this script once per set-up measurement and once more
for the measured run.  It writes three lines to standard output:

* ``READY`` as soon as set-up is done (the parent's ``setup_s`` clock
  runs from starting this process to this line);
* ``SPEED <factor>`` right after, from speed probes run after set-up;
* ``RESULT <json>`` at the end of a measured run.

An untraced run (``--trace 0``) times a closed loop of ``--seconds``
seconds.  Wall times are reported in reference time: each is scaled by
the host's speed measured beside it (``speed_probe``), because the
reference VM's own speed drifts by up to a third over minutes.  A traced
run times the first half untraced, sets up afresh, wraps the layers
(``spans.py``) and replays exactly the same queries, so the two halves
give the tracing overhead and the counter drift tracing causes.
Afterwards every query's rows are compared with a reuse-free reference
run of the same query on a fresh video, outside every timed window.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
#: Iterations of the speed probe's loop, about 10 ms on the reference VM.
PROBE_LOOPS = 100_000
#: Thread CPU seconds of one probe on the reference VM (2-vCPU Firecracker,
#: Python 3.11.7): the median of 60 probes there, rounded.  Reference time
#: is wall time scaled by this over the probes measured beside it.
PROBE_REFERENCE_S = 0.0100
#: Probes on each side of a unit whose median scales that unit.
PROBE_SPAN = 3


def import_program():
    """Import ``repro`` from this checkout's ``src/``, nowhere else."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def speed_probe() -> float:
    """Thread CPU seconds of a fixed integer loop: how fast the host runs now.

    The loop creates no object the garbage collector tracks, so no
    collection runs inside it, and the thread clock leaves out time the
    program's other threads hold the interpreter.
    """
    started = time.thread_time()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.thread_time() - started


def speed_factor(probes) -> float:
    """Scale from wall time measured beside ``probes`` to reference time."""
    return PROBE_REFERENCE_S / statistics.median(probes)


def run_window(workload, units, seconds: float, recorder=None):
    """Run units until ``seconds`` have passed.

    Returns (results, wall seconds per unit, speed factor per unit).  A
    speed probe runs before the first unit and after each one; a unit's
    factor comes from the ``PROBE_SPAN`` probes on each side of it.
    """
    deadline = time.perf_counter() + seconds
    results, walls, probes = [], [], [speed_probe()]
    for unit in units:
        if time.perf_counter() >= deadline:
            break
        started = time.perf_counter()
        results.append(workload.run_unit(unit, deadline, recorder))
        walls.append(time.perf_counter() - started)
        probes.append(speed_probe())
    factors = [speed_factor(probes[max(0, i + 1 - PROBE_SPAN):
                                   i + 1 + PROBE_SPAN])
               for i in range(len(results))]
    return results, walls, factors


#: Percentile ``query_tail_ms`` reports.  Not the highest one with ten
#: samples beyond it: on ``warm_explore`` full garbage collections stretch
#: ~2% of queries, so that rank fell at the edge of those and the tail
#: flipped between two levels from run to run.
TAIL_PERCENTILE = 90.0


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at ``TAIL_PERCENTILE`` (nearest rank).

    Returns (value, percentile, samples beyond it).
    """
    ordered = sorted(latencies)
    index = max(0, math.ceil(len(ordered) * TAIL_PERCENTILE / 100) - 1)
    return ordered[index], TAIL_PERCENTILE, len(ordered) - index - 1


def records_of(results):
    return [record for result in results for record in result.records]


def counters_of(results) -> dict:
    total: Counter = Counter()
    for result in results:
        total.update(result.counters)
    counters = dict(total)
    hits, misses = counters.pop("memo_hits", 0), counters.pop("memo_misses", 0)
    counters["memo_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    # Footprint is a level, not a flow: report its mean over units.
    counters["view_bytes"] = counters.get("view_bytes", 0) / max(1, len(results))
    return counters


def end_to_end(results, walls, factors) -> dict:
    """End-to-end metrics in reference time, with ``_raw`` wall-time twins."""
    done = [(record, factor) for result, factor in zip(results, factors)
            for record in result.records if record.error is None]
    metrics = {}
    for suffix, scaled in (("", True), ("_raw", False)):
        latencies = [record.latency_s * (factor if scaled else 1.0)
                     for record, factor in done] or [math.nan]
        busy = sum(wall * (factor if scaled else 1.0)
                   for wall, factor in zip(walls, factors))
        value, percentile, beyond = tail(latencies)
        metrics["query_p50_ms" + suffix] = 1000 * statistics.median(latencies)
        metrics["query_tail_ms" + suffix] = 1000 * value
        metrics["throughput_qps" + suffix] = len(done) / busy if busy else 0.0
    metrics.update(
        tail_percentile=percentile, tail_samples_beyond=beyond,
        host_speed=statistics.median(factors) if factors else math.nan,
        virtual_ms_per_query=1000 * sum(r.virtual_s for r, _ in done)
        / max(1, len(done)))
    return metrics


def per_layer(summary: dict, counters: dict, counters_untraced: dict,
              untraced_wall: float, traced_wall: float, queries: int,
              served: bool) -> dict:
    """Every per-layer metric of a traced run (names as in BENCHMARK.json).

    ``served`` queries went through a server: their roots' own time,
    client latency minus the session's span, is admission wait.
    """
    self_s, incl = summary["self"], summary["inclusive"]
    calls, n, m = summary["calls"], summary["n"], summary["m"]
    selects = calls.get("session", 0)
    probes = n.get("storage.get_many", 0)
    admission = summary["root_self"] if served else 0.0
    attributed = sum(self_s.values())
    substrate = sum(self_s.get(layer, 0.0) for layer in spans.SUBSTRATE)
    metrics = {
        "parser.self_s": self_s.get("parser", 0.0),
        "optimizer.calls": calls.get("optimizer.optimize", 0),
        "optimizer.self_s": self_s.get("optimizer", 0.0),
        "optimizer.plan_cache_hit_rate":
            1 - calls.get("optimizer.optimize", 0) / selects
            if selects else 0.0,
        "optimizer.pu_version_bumps": counters["pu_version_bumps"],
        "optimizer.record_updates_s": incl.get("optimizer.record_updates",
                                               0.0),
        "symbolic.self_s": self_s.get("symbolic", 0.0),
        "symbolic.difference_s": incl.get("symbolic.difference", 0.0),
        "symbolic.union_s": incl.get("symbolic.union", 0.0),
        "symbolic.intersection_s": incl.get("symbolic.intersection", 0.0),
        "symbolic.reductions": calls.get("symbolic.reduction", 0),
        "symbolic.reductions_at_deadline":
            summary["reductions_at_deadline"],
        "symbolic.memo_hit_rate": counters["memo_hit_rate"],
        "executor.self_s": self_s.get("executor", 0.0),
        "models.invocations": n.get("models", 0),
        "models.batches": calls.get("models", 0),
        "models.self_s": self_s.get("models", 0.0),
        "video.self_s": self_s.get("video", 0.0),
        "storage.self_s": self_s.get("storage", 0.0),
        "storage.scan_s": incl.get("storage.scan", 0.0),
        "storage.probe_keys": probes,
        "storage.probe_hit_rate":
            m.get("storage.get_many", 0) / probes if probes else 0.0,
        "storage.get_many_s": incl.get("storage.get_many", 0.0),
        "storage.put_rows": n.get("storage.put_many", 0),
        "storage.put_many_s": incl.get("storage.put_many", 0.0),
        "storage.view_bytes": counters["view_bytes"],
        "store.self_s": self_s.get("store", 0.0),
        "store.get_s": incl.get("store.get", 0.0),
        "store.wal_append_s": incl.get("store.wal_append", 0.0),
        "store.wal_bytes_written": m.get("store.wal_append", 0),
        "store.wal_records": counters.get("wal_records", 0),
        "store.demotions": counters.get("demotions", 0),
        "store.promotions": counters.get("promotions", 0),
        "store.evicted_dropped": counters.get("evicted_dropped", 0),
        "server.admission_wait_s": admission,
        "server.lock_wait_s": counters.get("lock_wait_s", 0.0),
        "server.refused": counters.get("refused", 0),
        "session.self_s": self_s.get("session", 0.0),
        "query_wall_s": summary["wall"],
        "unattributed_s": summary["wall"] - attributed - admission,
        "substrate_s": substrate,
        "system_s": attributed - substrate,
        "traced_queries": queries,
        "trace_overhead_frac": traced_wall / untraced_wall - 1,
    }
    # Public counters read without tracing, over the same queries: the
    # wall-clock symbolic deadline makes plans depend on tracing.
    for key, name in (("pu_version_bumps", "optimizer.pu_version_bumps"),
                      ("memo_hit_rate", "symbolic.memo_hit_rate"),
                      ("wal_records", "store.wal_records"),
                      ("demotions", "store.demotions"),
                      ("evicted_dropped", "store.evicted_dropped"),
                      ("lock_wait_s", "server.lock_wait_s")):
        metrics[f"{name}_untraced"] = counters_untraced.get(key, 0)
    return metrics


def check_rows(workload, records, corrupt_reference: bool) -> int:
    """Compare each answered query with the reuse-free reference."""
    answered = [record for record in records if record.error is None]
    reference = workload.reference_digests(r.sql for r in answered)
    if corrupt_reference:
        first = next(iter(reference))
        reference[first] = "corrupted-" + reference[first]
    mismatched = [r for r in answered if r.digest != reference[r.sql]]
    for record in mismatched[:5]:
        print(f"perfbench: rows differ from the reference: {record.sql}",
              file=sys.stderr)
    return len(mismatched)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    from repro.config import EvaConfig
    from workloads import WORKLOADS

    WORKDIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.size, WORKDIR)
    workload.setup()
    print("READY", flush=True)
    probes = [speed_probe() for _ in range(2 * PROBE_SPAN)]
    print(f"SPEED {speed_factor(probes)!r}", flush=True)
    if args.setup_only:
        return 0

    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace}
    window = args.seconds / 2 if args.trace else args.seconds
    units, walls, factors = run_window(workload, workload.units(), window)
    records = records_of(units)
    counters = counters_of(units)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        # Replay from a state built the same way, not from the state the
        # untraced half left behind (warmer memo, caches and histories).
        workload.setup()
        recorder = spans.Recorder()
        spans.instrument(recorder)
        try:
            replay, traced_walls, _ = run_window(
                workload, [u.unit for u in units], math.inf, recorder)
        finally:
            recorder.uninstall()
        recorder.write(WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl")
        summary = spans.summarize(recorder.spans,
                                  EvaConfig().symbolic_time_budget)
        traced = records_of(replay)
        result["per_layer"] = per_layer(
            summary, counters_of(replay), counters, sum(walls),
            sum(traced_walls), len(traced), workload.served)
        records = records + traced
    else:
        result.update(end_to_end(units, walls, factors))
        result["counters"] = counters
    result["window_s"] = sum(walls)
    result["attempted"] = len(records)
    result["errors"] = sum(record.error is not None for record in records)
    result["mismatches"] = check_rows(workload, records,
                                      args.corrupt_reference)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
