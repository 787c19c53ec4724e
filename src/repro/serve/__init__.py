"""repro.serve -- the long-lived routing service over warm session state.

The batch scripts of the experiment harness pay a full session round-trip
per query and a full router rebuild per fault update.  This package keeps
one :class:`~repro.api.MeshSession` warm inside an asyncio daemon and
serves it over a newline-delimited-JSON protocol:

* :mod:`repro.serve.protocol` -- the NDJSON message shapes and error codes.
* :mod:`repro.serve.coalescer` -- the micro-batching coalescer merging
  concurrent ``route`` requests into single batch-engine calls
  (window-then-quiet-input / max-batch triggers, per-request fan-out,
  coalesce-ratio and flush-cause stats); the daemon sizes its max-batch
  trigger at its admission cap unless told otherwise, so a flush takes
  every request it has read by the time its input goes quiet.
* :mod:`repro.serve.daemon` -- :class:`RouteDaemon`: verb dispatch
  (``route`` / ``add_faults`` / ``repair`` / ``add_link_faults`` /
  ``status`` / ``simulate`` / ``ping`` / ``shutdown``), the TCP listener,
  admission control (bounded pending queue, per-connection in-flight
  caps, ``deadline_ms`` shedding), journaling and graceful drain.
* :mod:`repro.serve.client` -- :class:`ServeClient` (TCP; per-request
  timeouts, poison-on-desync, policy-driven retries with idempotent
  mutations) and :class:`InProcessClient` (same verbs, no sockets).
* :mod:`repro.serve.retry` -- :class:`RetryPolicy`: exponential backoff
  with deterministic seeded jitter and deadline caps.
* :mod:`repro.serve.journal` -- the append-only NDJSON mutation journal
  plus snapshots behind :meth:`RouteDaemon.recover`.
* :mod:`repro.serve.chaos` -- :class:`ChaosTransport`: the seeded
  fault-injecting TCP proxy of the resilience differential.

Fault churn streamed through the daemon delta-patches the warm routers'
jump tables and packed rings (:func:`repro.routing.engine.
transplant_engine_state`) instead of rebuilding them; coalesced route
outcomes are bit-identical to routing each request alone.  ``repro-mesh serve`` / ``repro-mesh query`` are the
CLI faces of this package.
"""

from repro.serve.chaos import ChaosConfig, ChaosTransport
from repro.serve.client import InProcessClient, ServeClient, ServeError
from repro.serve.coalescer import CoalescerStats, PendingRoute, RouteCoalescer
from repro.serve.daemon import RouteDaemon
from repro.serve.journal import (
    IDEM_CACHE_SIZE,
    Journal,
    JournalError,
    LoadedJournal,
    load_journal,
    replay_events,
)
from repro.serve.protocol import (
    E_DEADLINE,
    E_OVERLOADED,
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    encode,
    error_response,
    ok_response,
)
from repro.serve.retry import RetryPolicy, RetrySchedule

__all__ = [
    "RouteDaemon",
    "RouteCoalescer",
    "CoalescerStats",
    "PendingRoute",
    "ServeClient",
    "InProcessClient",
    "ServeError",
    "RetryPolicy",
    "RetrySchedule",
    "Journal",
    "JournalError",
    "LoadedJournal",
    "load_journal",
    "replay_events",
    "IDEM_CACHE_SIZE",
    "ChaosConfig",
    "ChaosTransport",
    "ProtocolError",
    "encode",
    "decode_line",
    "error_response",
    "ok_response",
    "MAX_LINE_BYTES",
    "E_OVERLOADED",
    "E_DEADLINE",
]
