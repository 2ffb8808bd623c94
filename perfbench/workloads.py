"""The benchmark's three workloads, each a closed loop over units of work.

A workload builds its inputs from the seed alone, sets up once, and then
hands out an endless sequence of *units* (a replay pass, an analyst
session, a server round).  :func:`run_unit` runs one unit until the
window's deadline and returns one :class:`QueryRecord` per query plus
the program's public counters over that unit.  A unit cut short by the
deadline is returned trimmed, so the traced replay can run exactly the
same queries.

Why these three (the first and last also in ``BENCHMARK.json``):

* ``warm_explore`` -- hit-heavy: one session replays VBENCH-high after
  materializing it, so models do no work and the time is in the
  optimizer, symbolic layer, hit path and session bookkeeping.
* ``cold_explore`` -- miss-heavy: many fresh four-query sessions, so
  models and view writes dominate and histories stay short.
* ``shared_serve`` -- two clients on one ``EvaServer`` with a durable
  store whose budgets are below the working set: shared locks, shared
  predicate history, demotion and eviction.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

from repro.clock import CostCategory
from repro.config import EvaConfig, ReusePolicy
from repro.server import EvaServer
from repro.session import EvaSession
from repro.vbench.datasets import ua_detrac_scaled
from repro.vbench.generator import WorkloadSpec, generate_workload
from repro.vbench.queries import vbench_high, vbench_low, vbench_permutation

#: Video scale (fraction of the 14000-frame MEDIUM UA-DETRAC) per size.
#: ``tiny`` exists for the benchmark's own smoke tests.
EXPLORE_SCALE = {"full": 0.15, "tiny": 0.02}   # 2100 / 280 frames
SERVE_SCALE = {"full": 0.05, "tiny": 0.015}    # 700 / 210 frames
#: Hot and warm byte budgets of the shared server's durable store, each
#: below the footprint one unbudgeted round leaves (see spec.json).
SERVE_STORE_BUDGET = {"full": 150_000, "tiny": 40_000}
#: Queries each shared-server client runs per round.  Longer rounds let
#: the shared predicate history grow until single queries take tens of
#: seconds behind the symbolic work on it, which no bounded window can
#: sample steadily.
SERVE_ROUND_QUERIES = 2
#: The generated analyst sessions of ``cold_explore``: a pool of
#: ``COLD_POOL`` four-query sequences, each run in a fresh session.
COLD_SPEC = dict(num_queries=4, target_overlap=0.05, zoom_probability=0.2,
                 window_fraction=0.15)
COLD_POOL = 12
#: Seed-permuted passes ``warm_explore`` replays during set-up, after
#: materializing.  The first four run ~1.5-2x slower than later ones, and
#: up to the twelfth most passes still hold a query of 90-100 ms against
#: ~60 ms later on: about ten such queries, which is where the tail's
#: rank falls, so in the window they would make the tail unsteady.
WARMUP_PASSES = 12

@dataclass
class QueryRecord:
    """One query as its client saw it."""

    sql: str
    latency_s: float
    #: Virtual seconds without ``CostCategory.OPTIMIZE`` (which charges
    #: measured real time, so it is not part of the paper's cost model).
    virtual_s: float = 0.0
    digest: str | None = None
    error: str | None = None


@dataclass
class UnitResult:
    """What one unit ran, what each query returned, and counter deltas."""

    unit: object
    records: list[QueryRecord]
    counters: dict = field(default_factory=dict)


def rows_digest(rows) -> str:
    """Order-insensitive digest of a query's result rows."""
    text = "\n".join(sorted(map(repr, rows)))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def _virtual_s(metrics) -> float:
    return metrics.total_time - metrics.time(CostCategory.OPTIMIZE)


def run_queries(execute, sqls, deadline: float, recorder=None,
                session=None) -> list[QueryRecord]:
    """Run ``sqls`` one after another (a closed-loop client).

    Stops before a query once ``deadline`` (``time.perf_counter``) has
    passed.  A query that raises is recorded as failed; the loop goes on.
    """
    records = []
    for sql in sqls:
        if time.perf_counter() >= deadline:
            break
        started = time.perf_counter()
        try:
            if recorder is None:
                result = execute(sql)
            else:
                with recorder.query(session):
                    result = execute(sql)
        except Exception as exc:  # a failed query is a measured outcome
            records.append(QueryRecord(
                sql, time.perf_counter() - started,
                error=f"{type(exc).__name__}: {exc}"))
            continue
        latency = time.perf_counter() - started
        records.append(QueryRecord(sql, latency, _virtual_s(result.metrics),
                                   rows_digest(result.rows)))
    return records


class _ReuseCounters:
    """``udf_manager.version`` bumps and memo hits/misses since creation."""

    def __init__(self, udf_manager, symbolic):
        self.udf_manager, self.symbolic = udf_manager, symbolic
        self.version, self.memo = udf_manager.version, symbolic.memo_stats()

    def delta(self) -> dict:
        memo = self.symbolic.memo_stats().delta(self.memo)
        return {"pu_version_bumps": self.udf_manager.version - self.version,
                "memo_hits": memo.hits, "memo_misses": memo.misses}


class Workload:
    """Common shape: ``setup``, ``units``, ``run_unit``,
    ``reference_digests``."""

    name = ""
    #: Video scale per size (see :data:`EXPLORE_SCALE`).
    scale = EXPLORE_SCALE
    #: Queries reach their session through an ``EvaServer``.
    served = False

    def __init__(self, seed: int, size: str, workdir):
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def make_video(self):
        return ua_detrac_scaled("medium", self.scale[self.size])

    def setup(self) -> None:
        self.video = self.make_video()

    def reference_digests(self, sqls) -> dict[str, str]:
        """Rows of each query from a reuse-free session on a fresh video."""
        session = EvaSession(EvaConfig(reuse_policy=ReusePolicy.NONE))
        session.register_video(self.make_video())
        return {sql: rows_digest(session.execute(sql).rows)
                for sql in dict.fromkeys(sqls)}


class WarmExplore(Workload):
    """One session replays seed-permuted passes of materialized VBENCH-high."""

    name = "warm_explore"

    def setup(self) -> None:
        super().setup()
        self.queries = vbench_high(self.video.name, self.video.num_frames)
        self.session = EvaSession()
        self.session.register_video(self.video)
        for sql in self.queries:
            self.session.execute(sql)
        passes = self._passes()
        for _ in range(WARMUP_PASSES):
            for sql in next(passes):
                self.session.execute(sql)

    def _passes(self):
        for index in itertools.count():
            yield vbench_permutation(self.queries, self.seed * 1000 + index)

    def units(self):
        return itertools.islice(self._passes(), WARMUP_PASSES, None)

    def run_unit(self, unit, deadline, recorder=None) -> UnitResult:
        session = self.session
        reuse = _ReuseCounters(session.udf_manager, session.symbolic)
        records = run_queries(session.execute, unit, deadline, recorder)
        counters = reuse.delta()
        counters["view_bytes"] = session.storage_footprint_bytes()
        return UnitResult(unit[:len(records)], records, counters)


class ColdExplore(Workload):
    """Many short analyst sessions, each fresh, on the same video."""

    name = "cold_explore"

    def units(self):
        # A fixed pool in a seed-shuffled order per cycle: query latencies
        # here are bimodal (misses vs. hits), so a window of freshly drawn
        # sessions moves the median by its mix alone.
        pool = [generate_workload(self.video.name, self.video.num_frames,
                                  WorkloadSpec(seed=index, **COLD_SPEC))
                for index in range(COLD_POOL)]
        rng = random.Random(self.seed)
        while True:
            rng.shuffle(pool)
            yield from pool

    def run_unit(self, unit, deadline, recorder=None) -> UnitResult:
        session = EvaSession()
        session.register_video(self.video)
        reuse = _ReuseCounters(session.udf_manager, session.symbolic)
        records = run_queries(session.execute, unit, deadline, recorder)
        counters = reuse.delta()
        counters["view_bytes"] = session.storage_footprint_bytes()
        session.close()
        return UnitResult(unit[:len(records)], records, counters)


class SharedServe(Workload):
    """Rounds of a refining and a skimming client on a fresh ``EvaServer``.

    Each round starts a server over a new budgeted durable store, so
    every round sees the same regime instead of an ever longer history.
    """

    name = "shared_serve"
    scale = SERVE_SCALE
    served = True

    def setup(self) -> None:
        super().setup()
        self.high = vbench_high(self.video.name, self.video.num_frames)
        self.low = vbench_low(self.video.name, self.video.num_frames)

    def units(self):
        # Each client slides a window over its own seed-permuted query
        # set, so over any len(set) rounds every query takes every
        # position in a round once; disjoint slices tie the mix to the seed.
        high = vbench_permutation(self.high, 2 * self.seed)
        low = vbench_permutation(self.low, 2 * self.seed + 1)
        for start in itertools.count():
            yield tuple([sqls[(start + k) % len(sqls)]
                         for k in range(SERVE_ROUND_QUERIES)]
                        for sqls in (high, low))

    def run_unit(self, unit, deadline, recorder=None) -> UnitResult:
        budget = SERVE_STORE_BUDGET[self.size]
        path = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        try:
            config = EvaConfig(store_mode="durable", store_path=path,
                               store_hot_bytes=budget,
                               store_warm_bytes=budget)
            server = EvaServer(config, max_workers=2)
            server.register_video(self.video)
            reuse = _ReuseCounters(server.state.udf_manager,
                                   server.state.symbolic)
            with server:
                ran = self._clients(server, unit, deadline, recorder)
                counters = reuse.delta()
                counters.update(self._server_counters(server))
        finally:
            shutil.rmtree(path, ignore_errors=True)
        executed = tuple(sqls[:len(records)]
                         for sqls, records in zip(unit, ran))
        return UnitResult(executed, ran[0] + ran[1], counters)

    @staticmethod
    def _clients(server, unit, deadline, recorder):
        ran: list[list[QueryRecord]] = [[], []]
        errors: list[BaseException] = []

        def client(slot: int, name: str, sqls) -> None:
            try:
                handle = server.connect(name)
                with handle.checkout() as session:
                    pass
                ran[slot] = run_queries(handle.execute, sqls, deadline,
                                        recorder, session)
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(slot, name, sqls))
                   for slot, (name, sqls)
                   in enumerate(zip(("refine", "skim"), unit))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return ran

    @staticmethod
    def _server_counters(server) -> dict:
        stats = server.stats()
        store = server.state.view_store.base.store_snapshot().counters
        return dict(
            view_bytes=stats.view_storage_bytes,
            wal_records=store["wal_records"],
            demotions=store["demotions"],
            promotions=store["promotions"],
            evicted_dropped=store["evicted_dropped"],
            lock_wait_s=sum(entry["wait"]["sum_s"]
                            for entry in stats.lock_waits.values()),
            refused=stats.rejected)


WORKLOADS = {cls.name: cls for cls in (WarmExplore, ColdExplore,
                                       SharedServe)}
