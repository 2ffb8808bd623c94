"""Concurrent multi-client query serving over shared reuse state.

The paper's materialized UDF views amortize inference cost across
*queries*; this package makes them amortize across *users* as well.  An
:class:`EvaServer` multiplexes many concurrent clients over one shared
:class:`~repro.server.state.SharedReuseState` (thread-safe view store +
UDF manager + model zoo + catalog/storage) while keeping everything else
— plan cache, metrics, virtual clock — private per client::

    from repro.server import EvaServer

    server = EvaServer(max_workers=4)
    server.register_video(repro.video.ua_detrac("short"))
    with server.start():
        alice = server.connect("alice")
        bob = server.connect("bob")
        alice.execute("SELECT id FROM ua_detrac_short CROSS APPLY "
                      "FastRCNNObjectDetector(frame) WHERE id < 100;")
        # Bob's overlapping query is served from Alice's materialized work:
        bob.execute("SELECT id FROM ua_detrac_short CROSS APPLY "
                    "FastRCNNObjectDetector(frame) WHERE id < 50;")
        print(server.stats().format())

See ``docs/server.md`` for the concurrency model and what is shared
versus per-client.
"""

from repro.server.batcher import BatcherSnapshot, InferenceBatcher
from repro.server.client import ClientHandle
from repro.server.server import EvaServer
from repro.server.state import (
    LockedUdfManager,
    SharedReuseState,
    SharedViewStore,
)
from repro.server.stats import (
    ClientStatsSnapshot,
    ServerStats,
    ServerStatsSnapshot,
    merged_metrics,
)

__all__ = [
    "EvaServer",
    "ClientHandle",
    "InferenceBatcher",
    "BatcherSnapshot",
    "SharedReuseState",
    "SharedViewStore",
    "LockedUdfManager",
    "ServerStats",
    "ServerStatsSnapshot",
    "ClientStatsSnapshot",
    "merged_metrics",
]
