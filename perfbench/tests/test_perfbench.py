"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests).

The end-to-end tests run ``perfbench/run.py`` at ``--size tiny`` for one
second per workload, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from worker import tail  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH / "spec.json").read_text())
#: ``cold_explore`` runs from the command line but is not in
#: BENCHMARK.json (see README.md); it is smoke-tested all the same.
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]] + ["cold_explore"]


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
         "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(completed) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    completed = run("--workload", workload, "--trace", "0")
    assert completed.returncode == 0, completed.stderr
    result = result_of(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    report = completed.stdout
    for name, unit in [*declared.items(), ("failed_frac", "frac")]:
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in report.splitlines()), name
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_and_accounts_for_wall_time():
    completed = run("--workload", "shared_serve", "--trace", "1")
    assert completed.returncode == 0, completed.stderr
    metrics = result_of(completed)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    value = {name: m["value"] for name, m in metrics.items()}
    layers = ("session", "parser", "optimizer", "symbolic", "executor",
              "storage", "store", "models", "video")
    self_s = sum(value[f"{layer}.self_s"] for layer in layers)
    assert self_s == pytest.approx(value["system_s"] + value["substrate_s"])
    assert self_s + value["server.admission_wait_s"] \
        + value["unattributed_s"] == pytest.approx(value["query_wall_s"])
    for name in ("optimizer.calls", "symbolic.reductions",
                 "models.invocations", "storage.probe_keys",
                 "store.wal_bytes_written", "traced_queries"):
        assert value[name] > 0, name


def test_corrupted_reference_fails_the_run():
    completed = run("--workload", "warm_explore", "--corrupt-reference")
    assert completed.returncode == 1
    result = result_of(completed)
    assert result["correct"] is False and result["failed"] >= 1
    assert "rows differ from the reference" in completed.stderr


def test_without_the_program_it_fails_and_prints_no_result():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = run("--workload", "warm_explore", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_spec_maps_every_per_layer_metric_to_what_it_should_move():
    declared = [m["name"] for m in BENCHMARK["per_layer"]]
    assert sorted(SPEC["per_layer"]) == sorted(declared)
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    benchmarked = {w["name"] for w in BENCHMARK["workloads"]}
    for name, entry in SPEC["per_layer"].items():
        for target in entry["moves"]:
            assert target["metric"] in end_to_end, name
            assert target["workload"] in benchmarked, name
    assert SPEC["held_out_seed"] not in range(100)


def test_self_times_and_root_time_add_up_to_query_wall_time():
    def span(name, start, end, parent=None):
        return [name, start, end, parent, 1, 0, 0]

    root = span("query", 0.0, 10.0)
    session = span("session", 0.5, 9.5, root)
    optimize = span("optimizer.optimize", 1.0, 4.0, session)
    diff = span("symbolic.difference", 1.5, 3.5, optimize)
    reduction = span("symbolic.reduction", 2.0, 3.0, diff)
    run_ = span("executor", 4.0, 9.0, session)
    model = span("models", 5.0, 8.0, run_)
    summary = spans.summarize(
        [root, session, optimize, diff, reduction, run_, model],
        deadline_s=0.5)
    assert summary["wall"] == 10.0
    assert summary["root_self"] + sum(summary["self"].values()) == 10.0
    assert summary["self"] == {"session": 1.0, "optimizer": 1.0,
                               "symbolic": 2.0, "executor": 2.0,
                               "models": 3.0}
    assert summary["inclusive"]["symbolic.difference"] == 2.0
    assert summary["reductions_at_deadline"] == 1


def test_tail_is_the_nearest_rank_90th_percentile():
    assert tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert tail([float(i) for i in range(101, 0, -1)]) == (91.0, 90.0, 10)
    assert tail([1.0, 2.0, 3.0]) == (3.0, 90.0, 0)
