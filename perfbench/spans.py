"""Outside-in layer tracing: in-memory spans around public entry points.

The benchmark times each layer of ``repro`` by wrapping that layer's
public functions and methods from here; nothing under ``src/`` is edited.
A wrapped call inside a query records one span::

    [name, start, end, parent, query_id, n, m]

``parent`` is the enclosing span record (``None`` for a query root),
``n``/``m`` are per-call counts (rows in, bytes written, probe hits...).
Spans live in memory for the whole traced window and are written out
once it ends (:meth:`Recorder.write`).  Calls made outside any query
(server start-up, store shutdown) are not recorded.

A layer's self time is the duration of its spans minus the part their
child spans cover, so self times plus the root spans' own time add up to
the summed query wall time exactly (:func:`summarize`).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, QUERY, N, M = range(7)

#: The spans whose *inclusive* time is reported on its own (outermost
#: occurrence only, so a re-entrant call is not counted twice).
INCLUSIVE = (
    "optimizer.record_updates",
    "symbolic.difference",
    "symbolic.union",
    "symbolic.intersection",
    "storage.get_many",
    "storage.put_many",
    "storage.scan",
    "store.get",
    "store.wal_append",
)

#: Layers whose self time is simulated substrate, not system work.
SUBSTRATE = ("models", "video")


class Recorder:
    """Collects spans from every thread of one traced window."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        #: id(session) -> (root span, query id) for a query whose
        #: session runs on another thread (a server worker).
        self._pending: dict[int, tuple[list, int]] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._query_ids = itertools.count()

    # -- spans -----------------------------------------------------------------

    @contextmanager
    def query(self, session=None):
        """The root span of one query, as its client sees it.

        ``session`` names the :class:`~repro.session.EvaSession` that
        will run the query when that happens on another thread; its
        ``execute`` span is then parented to this root.
        """
        query_id = next(self._query_ids)
        record = ["query", time.perf_counter(), 0.0, None, query_id, 0, 0]
        self.spans.append(record)
        stack = self._stack()
        stack.append(record)
        previous = getattr(self._local, "query_id", None)
        self._local.query_id = query_id
        if session is not None:
            self._pending[id(session)] = (record, query_id)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            if session is not None:
                self._pending.pop(id(session), None)
            stack.pop()
            self._local.query_id = previous

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, adopt_from=None) -> list | None:
        """Open a span under the thread's current one; None outside queries."""
        stack = self._stack()
        if stack:
            parent, query_id = stack[-1], self._local.query_id
        else:
            pending = (self._pending.get(id(adopt_from))
                       if adopt_from is not None else None)
            if pending is None:
                return None
            parent, query_id = pending
            self._local.query_id = query_id
        record = [name, time.perf_counter(), 0.0, parent, query_id, 0, 0]
        self.spans.append(record)
        stack.append(record)
        return record

    def _exit(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack().pop()

    # -- instrumentation -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None,
             adopt: bool = False) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``count(args, result)`` returns the span's ``(n, m)`` counts.
        ``adopt`` parents a call on a thread with no open span to the
        pending query of its first argument (see :meth:`query`).
        """
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        recorder = self

        def traced(*args, **kwargs):
            record = recorder._enter(
                name, args[0] if adopt and args else None)
            if record is None:
                return original(*args, **kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._exit(record)
            if count is not None:
                record[N], record[M] = count(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_iterator(self, owner, attr: str, name: str) -> None:
        """Time each ``next()`` of the iterator ``owner.attr`` returns."""
        original = owner.__dict__[attr]
        recorder = self

        def traced(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            while True:
                record = recorder._enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if record is not None:
                        recorder._exit(record)
                yield item

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON object per span: name, start, end, parent, query."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, record in enumerate(self.spans):
                parent = record[PARENT]
                handle.write(json.dumps({
                    "id": i, "name": record[NAME],
                    "start": round(record[START], 7),
                    "end": round(record[END], 7),
                    "parent": None if parent is None else index[id(parent)],
                    "query": record[QUERY], "n": record[N], "m": record[M],
                }, separators=(",", ":")) + "\n")


def instrument(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer of ``repro``."""
    import repro.session
    import repro.symbolic.engine
    import repro.symbolic.operations
    from repro.executor.engine import ExecutionEngine
    from repro.models.base import ObjectDetectorModel, PatchClassifierModel
    from repro.optimizer.optimizer import Optimizer
    from repro.optimizer.udf_manager import UdfManager
    from repro.server.state import LockedUdfManager
    from repro.storage.engine import VideoTable
    from repro.storage.view_store import MaterializedView
    from repro.store.durable import DurableViewStore
    from repro.store.integration import PersistentUdfManager
    from repro.store.wal import WalWriter
    from repro.symbolic.engine import SymbolicEngine
    from repro.video.synthetic import SyntheticVideo

    wrap = recorder.wrap
    wrap(repro.session.EvaSession, "execute", "session", adopt=True)
    wrap(repro.session, "parse", "parser")
    wrap(Optimizer, "optimize", "optimizer.optimize")
    # The shared server's manager takes a write lock around the base
    # manager's union; the persistent one logs it.  Both nest.
    for manager in (UdfManager, LockedUdfManager, PersistentUdfManager):
        wrap(manager, "record_execution", "optimizer.record_updates")
    for method in ("analyze", "reduce", "intersection", "difference",
                   "union", "negation"):
        wrap(SymbolicEngine, method, f"symbolic.{method}")
    # Algorithm 1 itself, under both names it is imported by.
    wrap(repro.symbolic.operations, "reduce_predicate", "symbolic.reduction")
    wrap(repro.symbolic.engine, "reduce_predicate", "symbolic.reduction")
    wrap(ExecutionEngine, "run", "executor")
    for model in (ObjectDetectorModel, PatchClassifierModel):
        wrap(model, "predict_batch", "models",
             count=lambda args, result: (len(args[2]), 0))
    wrap(SyntheticVideo, "ground_truth", "video")
    wrap(MaterializedView, "get_many", "storage.get_many",
         count=lambda args, found: (
             len(found), sum(rows is not None for rows in found)))
    wrap(MaterializedView, "put_many", "storage.put_many",
         count=lambda args, inserted: (len(inserted), 0))
    recorder.wrap_iterator(VideoTable, "scan", "storage.scan")
    wrap(DurableViewStore, "get", "store.get")
    wrap(WalWriter, "append", "store.wal_append",
         count=lambda args, size: (1, size))


def summarize(spans: list[list], deadline_s: float) -> dict:
    """Per-layer figures of one traced window.

    Returns self seconds per layer (``self``), the query roots' own
    seconds (``root_self``), summed query wall time, inclusive seconds
    of the :data:`INCLUSIVE` span names, and per-name call and count
    totals.  ``deadline_s`` is Algorithm 1's time budget: reductions
    lasting at least that long ran into it.
    """
    covered: dict[int, float] = defaultdict(float)
    for record in spans:
        parent = record[PARENT]
        if parent is not None:
            covered[id(parent)] += record[END] - record[START]
    self_s: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    n: dict[str, int] = defaultdict(int)
    m: dict[str, int] = defaultdict(int)
    root_self = wall = 0.0
    at_deadline = 0
    for record in spans:
        name = record[NAME]
        duration = record[END] - record[START]
        own = duration - covered[id(record)]
        calls[name] += 1
        n[name] += record[N]
        m[name] += record[M]
        if name == "query":
            wall += duration
            root_self += own
            continue
        self_s[name.split(".", 1)[0]] += own
        if name == "symbolic.reduction" and duration >= deadline_s:
            at_deadline += 1
        if name in INCLUSIVE and not _nested_in_same(record):
            inclusive[name] += duration
    return {"self": dict(self_s), "root_self": root_self, "wall": wall,
            "inclusive": dict(inclusive), "calls": dict(calls),
            "n": dict(n), "m": dict(m),
            "reductions_at_deadline": at_deadline}


def _nested_in_same(record: list) -> bool:
    parent = record[PARENT]
    while parent is not None:
        if parent[NAME] == record[NAME]:
            return True
        parent = parent[PARENT]
    return False
