"""The asyncio routing daemon: warm session state behind an NDJSON socket.

:class:`RouteDaemon` owns one long-lived :class:`~repro.api.MeshSession`
(and through it the cached routers, ring geometry, jump tables and packed
rings of the routing facade) and serves verbs over the protocol of
:mod:`repro.serve.protocol`:

``route``
    Route endpoint pairs.  Concurrent requests are merged by the
    micro-batching coalescer (:mod:`repro.serve.coalescer`) into single
    batch-engine calls; per-pair outcomes are bit-identical to routing
    each pair alone.
``add_faults`` / ``repair`` / ``add_link_faults``
    Stream fault churn into the session.  Buffered route requests are
    flushed first (they route on the state they were submitted under),
    then the mutation lands; the next flush's router is delta-patched
    from its predecessor instead of rebuilt.
``status``
    Health and statistics: uptime, queue depth, coalescer counters
    (including the coalesce ratio), session ``cache_info``, the
    engine of the last flush (``null`` before the first), the
    array-primitive (``backend``) label, and the mesh shape.
``simulate``
    One open-loop contention simulation on the warm
    :class:`~repro.netsim.NetSimSession` (scalar summary fields only).
``ping`` / ``shutdown``
    Liveness probe; graceful drain-and-stop.

The daemon is fully usable in-process (``await daemon.handle(request)``,
or the :class:`~repro.serve.client.InProcessClient` wrapper) -- the TCP
layer is only engaged by :meth:`start`.

Resilience (see also :mod:`repro.serve.journal` and
:mod:`repro.serve.retry`):

* **Admission control** -- route requests beyond ``max_pending``
  buffered pairs are shed with ``overloaded`` plus a ``retry_after``
  backoff hint instead of queueing unboundedly, and each TCP connection
  is limited to ``max_inflight`` concurrently-served requests (the
  reader stops consuming lines until one finishes -- transport-level
  backpressure).
* **Deadline propagation** -- a ``route`` request may carry
  ``deadline_ms``; entries whose deadline passes while buffered are
  dropped at flush time with ``deadline-exceeded`` instead of wasting
  engine work on an answer nobody is waiting for.
* **Exactly-once mutations** -- mutating verbs may carry a
  client-supplied ``idem`` id; duplicates (a retry whose original
  response was lost) replay the journaled payload without re-applying.
* **Graceful degradation** -- an engine exception inside a coalesced
  flush falls back to re-routing the batch on the scalar router
  (``degraded_flushes`` counts the events in ``status``).
* **Total request parsing** -- a malformed or out-of-range field of a
  ``route`` or ``simulate`` request is answered with ``bad-request``
  naming the field; ``internal`` is left for real server faults.
* **Crash recovery** -- with a ``journal``, every applied mutation is
  appended to an NDJSON event log (snapshot every ``snapshot_every``
  events); :meth:`recover` rebuilds the exact session state of a killed
  daemon and keeps appending to the same file.
"""

from __future__ import annotations

import asyncio
import math
from collections import Counter, OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro import _array_ops
from repro.api.registry import get_construction
from repro.api.session import MeshSession
from repro.faults.scenario import FaultScenario
from repro.netsim.session import arrival_keys
from repro.routing.engine import (
    REASONS,
    resolve_engine,
    route_batch,
)
from repro.routing.registry import get_router
from repro.routing.traffic import TrafficBatch, get_traffic
from repro.serve.coalescer import Pair, PendingRoute, RouteCoalescer
from repro.serve.journal import (
    IDEM_CACHE_SIZE,
    Journal,
    JournalError,
    load_journal,
    replay_events,
)
from repro.serve.protocol import (
    E_BAD_LINKS,
    E_BAD_NODES,
    E_BAD_PAIR,
    E_BAD_REQUEST,
    E_DEADLINE,
    E_INTERNAL,
    E_OVERLOADED,
    E_SHUTTING_DOWN,
    E_UNKNOWN_OP,
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    encode,
    error_response,
    ok_response,
)
from repro.types import Coord


def _coerce_coord(value: Any, code: str) -> Coord:
    try:
        x, y = value
        return (int(x), int(y))
    except (TypeError, ValueError):
        raise ProtocolError(code, f"not an (x, y) coordinate: {value!r}")


def _number_field(
    request: Dict[str, Any], name: str, default: Any, cast: type, minimum: Any = None
) -> Any:
    """``cast(request[name])`` if finite and not below *minimum*, else ``bad-request``."""
    value = request.get(name, default)
    try:
        number = cast(value)
        valid = math.isfinite(number) and (minimum is None or number >= minimum)
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        bound = "" if minimum is None else f" >= {minimum}"
        raise ProtocolError(E_BAD_REQUEST, f"{name} must be a finite number{bound}: {value!r}")
    return number


def _key_field(request: Dict[str, Any], name: str, default: str, lookup) -> str:
    """The canonical registry key of ``request[name]`` (``bad-request`` if none)."""
    value = request.get(name, default)
    if not isinstance(value, str):
        raise ProtocolError(E_BAD_REQUEST, f"{name} must be a registry key: {value!r}")
    try:
        return lookup(value).key
    except KeyError as exc:
        raise ProtocolError(E_BAD_REQUEST, f"{name}: {exc.args[0]}")


class RouteDaemon:
    """One warm mesh session served over verbs (in-process or TCP).

    Parameters
    ----------
    session:
        The session to serve (built from *scenario* when omitted, or an
        empty default 32x32 mesh when both are omitted).
    scenario:
        A :class:`~repro.faults.scenario.FaultScenario` to preload.
    construction, router:
        Registry keys of the served construction / router.  Each flush
        routes on the engine :func:`~repro.routing.engine.resolve_engine`
        picks for the router: the batch kernel for the built-ins.
    window, max_batch:
        Coalescer knobs (seconds, pairs); ``max_batch=1`` disables
        coalescing.
    host, port:
        TCP bind address used by :meth:`start` (``port=0`` picks a free
        port, readable from :attr:`address`).
    max_pending:
        Admission-control cap on buffered route pairs: a ``route``
        request that would push the coalescer queue past this is shed
        with ``overloaded`` + ``retry_after`` instead of queueing.
    max_inflight:
        Per-TCP-connection cap on concurrently-served requests; the
        connection's reader stops consuming lines (transport
        backpressure) until one completes.
    journal:
        Path (or open :class:`~repro.serve.journal.Journal`) of the
        append-only mutation log.  A fresh file is seeded with a
        snapshot of the current session; a path that already holds
        records is refused -- use :meth:`recover` for those.
    snapshot_every:
        Journal a fresh state snapshot after this many events, bounding
        the replay tail of a recovery.
    journal_max_bytes:
        Rotate the journal (compact to a single fresh snapshot via an
        atomic file swap) whenever it outgrows this many bytes; ``None``
        lets it grow unbounded.
    """

    def __init__(
        self,
        session: Optional[MeshSession] = None,
        *,
        scenario: Optional[FaultScenario] = None,
        construction: str = "mfp",
        router: str = "extended-ecube",
        window: float = 0.001,
        max_batch: int = 256,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 4096,
        max_inflight: int = 64,
        journal: Optional[Union[str, Path, Journal]] = None,
        snapshot_every: int = 64,
        journal_max_bytes: Optional[int] = None,
    ) -> None:
        if session is None:
            if scenario is not None:
                session = MeshSession.from_scenario(scenario)
            else:
                session = MeshSession(width=32)
        self.session = session
        # Warm the routing facade eagerly: the daemon exists to own warm
        # state, and this also seeds the engine counters in cache_info.
        session.routing
        self.construction = construction
        self.router = router
        self.host = host
        self.port = port
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.max_pending = max_pending
        self.max_inflight = max_inflight
        self.snapshot_every = snapshot_every
        self.coalescer = RouteCoalescer(
            self._flush_routes, window=window, max_batch=max_batch
        )
        self.op_counts: "Counter[str]" = Counter()
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: set = set()
        self._conn_tasks: set = set()
        self._closing = False
        self._stopped: Optional[asyncio.Event] = None
        self._started_at: Optional[float] = None
        self._last_engine: Optional[str] = None
        # Resilience counters surfaced by the status verb.
        self.shed_requests = 0
        self.expired_routes = 0
        self.degraded_flushes = 0
        # Idempotency cache: client id -> the mutation payload it produced.
        self._idem: "OrderedDict[Any, Dict[str, Any]]" = OrderedDict()
        self._events_since_snapshot = 0
        self.recovered: Optional[Dict[str, Any]] = None
        if journal is None:
            self.journal: Optional[Journal] = None
        elif isinstance(journal, Journal):
            self.journal = journal
        else:
            self.journal = Journal(journal)
            if self.journal.had_records:
                raise ValueError(
                    f"journal {journal} already holds records; use "
                    "RouteDaemon.recover() to resume from it"
                )
        if self.journal is not None and journal_max_bytes is not None:
            self.journal.max_bytes = journal_max_bytes
        if self.journal is not None and not self.journal.had_records:
            self.journal.append_snapshot(session.state())

    # -- routing ---------------------------------------------------------------------

    @staticmethod
    def _batch_outcomes(router_obj, batch: TrafficBatch) -> List[Dict[str, Any]]:
        outcome = route_batch(router_obj, batch)
        delivered = outcome.status == 1
        return [
            {
                "delivered": bool(delivered[i]),
                "reason": REASONS[int(outcome.status[i])],
                "hops": int(outcome.hops[i]),
                "abnormal_hops": int(outcome.abnormal_hops[i]),
                "minimal_hops": int(outcome.minimal_hops[i]),
            }
            for i in range(len(outcome))
        ]

    @staticmethod
    def _scalar_outcomes(router_obj, batch: TrafficBatch) -> List[Dict[str, Any]]:
        routes = []
        for source, destination in batch.pairs():
            result = router_obj.route(source, destination)
            routes.append(
                {
                    "delivered": result.delivered,
                    "reason": result.reason,
                    "hops": result.hops,
                    "abnormal_hops": result.abnormal_hops,
                    # hops - detour == the fault-free Manhattan distance.
                    "minimal_hops": result.hops - result.detour,
                }
            )
        return routes

    def _flush_routes(self, pending: List[PendingRoute]) -> None:
        """Route the concatenated pairs of one coalesced flush.

        Runs synchronously on the event loop (the kernel is CPU-bound).
        Each request's pairs occupy a contiguous slice of the batch, so
        fanning outcomes back is pure slicing.  Entries whose
        ``deadline`` passed while buffered are dropped up front (no
        engine work for answers nobody is waiting for), and an engine
        exception degrades the flush to the scalar router instead of
        failing every buffered request.
        """
        try:
            now = asyncio.get_running_loop().time()
        except RuntimeError:  # pragma: no cover - flush outside a loop
            now = None
        live: List[PendingRoute] = []
        for entry in pending:
            if (
                entry.deadline is not None
                and now is not None
                and now >= entry.deadline
            ):
                self.expired_routes += 1
                entry.future.set_exception(
                    ProtocolError(
                        E_DEADLINE, "deadline expired while the request was buffered"
                    )
                )
            else:
                live.append(entry)
        if not live:
            return
        pairs = np.asarray(
            [pair for entry in live for pair in entry.pairs], dtype=np.int64
        ).reshape(-1, 4)
        batch = TrafficBatch(
            src_x=pairs[:, 0].copy(),
            src_y=pairs[:, 1].copy(),
            dst_x=pairs[:, 2].copy(),
            dst_y=pairs[:, 3].copy(),
        )
        router_obj = self.session.routing.router(self.router, self.construction)
        engine_key = resolve_engine(router_obj).key
        routes: List[Dict[str, Any]]
        try:
            if engine_key == "batch":
                routes = self._batch_outcomes(router_obj, batch)
            else:
                routes = self._scalar_outcomes(router_obj, batch)
        except Exception:
            # Graceful degradation: the batch kernel blew up mid-flush;
            # re-run the whole batch on the scalar router, which shares
            # none of the vectorized state.  A scalar failure still
            # propagates to the coalescer, which fails the buffered
            # futures individually.
            self.degraded_flushes += 1
            engine_key = "scalar"
            routes = self._scalar_outcomes(router_obj, batch)
        self._last_engine = engine_key
        version = self.session.version
        offset = 0
        for entry in live:
            count = len(entry.pairs)
            entry.future.set_result(
                {
                    "routes": routes[offset : offset + count],
                    "version": version,
                    "engine": engine_key,
                }
            )
            offset += count

    def _parse_pairs(self, payload: Dict[str, Any]) -> List[Pair]:
        if "pairs" in payload:
            raw = payload["pairs"]
        elif "src" in payload and "dst" in payload:
            raw = [[*payload["src"], *payload["dst"]]]
        else:
            raise ProtocolError(E_BAD_PAIR, "route needs 'pairs' or 'src'/'dst'")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ProtocolError(E_BAD_PAIR, "'pairs' must be a non-empty list")
        topology = self.session.topology
        width, height = topology.width, topology.height
        pairs: List[Pair] = []
        for item in raw:
            try:
                sx, sy, dx, dy = (int(v) for v in item)
            except (TypeError, ValueError):
                raise ProtocolError(
                    E_BAD_PAIR, f"not a [sx, sy, dx, dy] pair: {item!r}"
                )
            for x, y in ((sx, sy), (dx, dy)):
                if not (0 <= x < width and 0 <= y < height):
                    raise ProtocolError(
                        E_BAD_PAIR,
                        f"endpoint {(x, y)} outside the {width}x{height} mesh",
                    )
            pairs.append((sx, sy, dx, dy))
        return pairs

    def _parse_nodes(self, payload: Dict[str, Any]) -> List[Coord]:
        raw = payload.get("nodes")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ProtocolError(E_BAD_NODES, "'nodes' must be a non-empty list")
        nodes = [_coerce_coord(item, E_BAD_NODES) for item in raw]
        topology = self.session.topology
        for node in nodes:
            try:
                topology.validate(node)
            except ValueError as exc:
                raise ProtocolError(E_BAD_NODES, str(exc))
        return nodes

    def _parse_links(
        self, payload: Dict[str, Any]
    ) -> List[Tuple[Coord, Coord]]:
        raw = payload.get("links")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ProtocolError(E_BAD_LINKS, "'links' must be a non-empty list")
        links: List[Tuple[Coord, Coord]] = []
        for item in raw:
            try:
                a, b = item
            except (TypeError, ValueError):
                raise ProtocolError(E_BAD_LINKS, f"not an [a, b] link: {item!r}")
            links.append(
                (_coerce_coord(a, E_BAD_LINKS), _coerce_coord(b, E_BAD_LINKS))
            )
        return links

    # -- verb handlers ---------------------------------------------------------------

    async def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one request dict; always returns a response dict."""
        request_id = request.get("id")
        op = request.get("op")
        if not isinstance(op, str):
            return error_response(E_BAD_REQUEST, "missing 'op' verb", request_id)
        self.op_counts[op] += 1
        if self._closing and op not in ("status", "ping"):
            return error_response(
                E_SHUTTING_DOWN, "daemon is draining", request_id
            )
        try:
            handler = getattr(self, f"_op_{op.replace('-', '_')}", None)
            if handler is None:
                return error_response(E_UNKNOWN_OP, f"unknown op {op!r}", request_id)
            payload = await handler(request)
            return ok_response(payload, request_id)
        except ProtocolError as exc:
            return error_response(exc.code, str(exc), request_id, **exc.extra)
        except Exception as exc:  # noqa: BLE001 - daemon must not die on a verb
            return error_response(E_INTERNAL, f"{type(exc).__name__}: {exc}", request_id)

    async def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True}

    def _retry_after(self) -> float:
        """Backoff hint attached to an ``overloaded`` shed: roughly the
        time for the current backlog to flush (a few coalescer windows)."""
        return round(max(self.coalescer.window * 4, 0.005), 6)

    async def _op_route(self, request: Dict[str, Any]) -> Dict[str, Any]:
        pairs = self._parse_pairs(request)
        if self.coalescer.queue_depth + len(pairs) > self.max_pending:
            self.shed_requests += 1
            raise ProtocolError(
                E_OVERLOADED,
                f"route queue is full ({self.coalescer.queue_depth} pairs "
                f"buffered, cap {self.max_pending})",
                retry_after=self._retry_after(),
            )
        deadline = None
        if "deadline_ms" in request:
            deadline_ms = _number_field(request, "deadline_ms", None, float)
            deadline = (
                asyncio.get_running_loop().time() + max(deadline_ms, 0.0) / 1000.0
            )
        return await self.coalescer.submit(pairs, deadline=deadline)

    def _mutation_payload(self, changed: List[Coord], key: str) -> Dict[str, Any]:
        return {
            key: [list(node) for node in changed],
            "version": self.session.version,
            "num_faults": self.session.num_faults,
        }

    def _apply_mutation(self, op: str, request: Dict[str, Any], apply) -> Dict[str, Any]:
        """Exactly-once mutation plumbing shared by every mutating verb.

        A duplicate ``idem`` id (a client retry whose original response
        was lost in transit) replays the cached payload without touching
        the session; a fresh mutation flushes buffered routes (they were
        submitted under the pre-mutation state), applies, journals the
        resolved payload, and snapshots periodically.  A list or object
        ``idem`` is a ``bad-request``: it cannot key the cache, and
        :func:`~repro.serve.journal.load_journal` refuses it.
        """
        idem = request.get("idem")
        if isinstance(idem, (list, dict)):
            raise ProtocolError(E_BAD_REQUEST, f"idem must be a JSON scalar: {idem!r}")
        if idem is not None:
            cached = self._idem.get(idem)
            if cached is not None:
                self._idem.move_to_end(idem)
                return {**cached, "idempotent_replay": True}
        self.coalescer.flush_now()
        payload = apply()
        if idem is not None:
            self._idem[idem] = payload
            while len(self._idem) > IDEM_CACHE_SIZE:
                self._idem.popitem(last=False)
        if self.journal is not None:
            self.journal.append_event(op, payload, idem)
            self._events_since_snapshot += 1
            if self._events_since_snapshot >= self.snapshot_every:
                self.journal.append_snapshot(
                    self.session.state(), dict(self._idem)
                )
                self._events_since_snapshot = 0
            if self.journal.should_compact():
                self.journal.compact(self.session.state(), dict(self._idem))
                self._events_since_snapshot = 0
        return payload

    async def _op_add_faults(self, request: Dict[str, Any]) -> Dict[str, Any]:
        nodes = self._parse_nodes(request)
        return self._apply_mutation(
            "add_faults",
            request,
            lambda: self._mutation_payload(self.session.add_faults(nodes), "added"),
        )

    async def _op_repair(self, request: Dict[str, Any]) -> Dict[str, Any]:
        nodes = self._parse_nodes(request)
        return self._apply_mutation(
            "repair",
            request,
            lambda: self._mutation_payload(
                self.session.remove_faults(nodes), "removed"
            ),
        )

    async def _op_add_link_faults(self, request: Dict[str, Any]) -> Dict[str, Any]:
        links = self._parse_links(request)

        def apply() -> Dict[str, Any]:
            try:
                added = self.session.add_link_faults(
                    links, prefer_lower=bool(request.get("prefer_lower", True))
                )
            except ValueError as exc:
                raise ProtocolError(E_BAD_LINKS, str(exc))
            return self._mutation_payload(added, "added")

        return self._apply_mutation("add_link_faults", request, apply)

    async def _op_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        session = self.session
        topology = session.topology
        uptime = (
            loop.time() - self._started_at if self._started_at is not None else 0.0
        )
        return {
            "uptime": round(uptime, 6),
            "serving": not self._closing,
            "queue_depth": self.coalescer.queue_depth,
            "coalescer": self.coalescer.stats.as_dict(),
            "requests": dict(self.op_counts),
            "admission": {
                "max_pending": self.max_pending,
                "max_inflight": self.max_inflight,
                "shed_requests": self.shed_requests,
                "expired_routes": self.expired_routes,
            },
            "degraded_flushes": self.degraded_flushes,
            "journal": (
                None if self.journal is None else self.journal.info()
            ),
            "recovered": self.recovered,
            "fingerprint": session.fingerprint(),
            "mesh": {
                "width": topology.width,
                "height": topology.height,
                "torus": type(topology).__name__ == "Torus2D",
                "faults": session.num_faults,
                "components": len(session.components()),
            },
            "construction": self.construction,
            "router": self.router,
            "engine": self._last_engine,
            "backend": _array_ops.active_backend_key(),
            "cache_info": dict(session.cache_info),
            "version": session.version,
        }

    async def _op_simulate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        construction = _key_field(request, "construction", self.construction, get_construction)
        router = _key_field(request, "router", self.router, get_router)
        traffic = _key_field(request, "traffic", "uniform", get_traffic)
        if traffic in arrival_keys():
            raise ProtocolError(
                E_BAD_REQUEST, f"traffic: {traffic!r} is an arrival process, not a spatial workload"
            )
        load = _number_field(request, "load", 0.05, float)
        if load <= 0:
            raise ProtocolError(E_BAD_REQUEST, f"load must be positive: {request['load']!r}")
        cycles = _number_field(request, "cycles", 256, int, minimum=1)
        seed = _number_field(request, "seed", 0, int, minimum=0)
        self.coalescer.flush_now()
        stats = self.session.simulate(
            construction, traffic=traffic, load=load, cycles=cycles, seed=seed, router=router
        )
        return {
            "attempted": stats.attempted,
            "delivered": stats.delivered,
            "unroutable": stats.unroutable,
            "in_flight": stats.in_flight,
            "cycles_run": stats.cycles_run,
            "total_latency": int(stats.total_latency),
            "deadlocked": stats.deadlocked,
            "sim": stats.sim,
            "version": self.session.version,
        }

    async def _op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        asyncio.get_running_loop().create_task(self.stop())
        return {"stopping": True}

    # -- crash recovery --------------------------------------------------------------

    @classmethod
    def recover(cls, journal: Union[str, Path], **kwargs: Any) -> "RouteDaemon":
        """Rebuild a daemon from its journal and keep appending to it.

        Loads the newest intact snapshot, replays the event tail through
        the same session mutations the crashed daemon applied (verifying
        the journaled post-versions along the way), restores the
        idempotency cache, and returns a daemon whose session state --
        witnessed by :meth:`MeshSession.fingerprint` -- is bit-identical
        to the state at the last journaled mutation.  An unusable journal
        raises :class:`JournalError`, a snapshot or event the session
        refuses included.  ``kwargs`` are the usual constructor knobs
        (construction, router, window, ports, admission caps, ...);
        ``session``/``scenario``/``journal`` are owned by the recovery.
        """
        for owned in ("session", "scenario", "journal"):
            if owned in kwargs:
                raise TypeError(f"recover() owns the {owned!r} argument")
        path = Path(journal)
        loaded = load_journal(path)
        try:
            session = MeshSession.from_state(loaded.state)
            replayed = replay_events(session, loaded.events)
        except (JournalError, ValueError) as exc:
            raise JournalError(f"journal {path} does not replay: {exc}") from exc
        journal_obj = Journal(path)
        journal_obj.seq = loaded.seq
        daemon = cls(session, journal=journal_obj, **kwargs)
        daemon._idem = OrderedDict(loaded.idem)
        daemon.recovered = {
            "events_replayed": replayed,
            "snapshot_version": int(loaded.state["version"]),
            "truncated_lines": loaded.truncated_lines,
            "records": loaded.records,
        }
        return daemon

    # -- TCP layer -------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("daemon is not listening")
        name = self._server.sockets[0].getsockname()
        return (name[0], name[1])

    async def start(self) -> Tuple[str, int]:
        """Bind the TCP listener; returns the bound address."""
        if self._server is not None:
            raise RuntimeError("daemon already started")
        self._stopped = asyncio.Event()
        self._started_at = asyncio.get_running_loop().time()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        return self.address

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` request) completes."""
        if self._stopped is None:
            raise RuntimeError("call start() first")
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful drain: flush buffered routes, then close the listener."""
        if self._closing:
            return
        self._closing = True
        await self.coalescer.drain()
        if self._conn_tasks:
            await asyncio.gather(*tuple(self._conn_tasks), return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            # The server holds our connection callback; keeping it would
            # tie this daemon into a cycle only the cyclic collector frees.
            self._server = None
        for writer in tuple(self._writers):
            writer.close()
        if self.journal is not None:
            self.journal.close()
        if self._stopped is not None:
            self._stopped.set()

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        tasks: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    async with write_lock:
                        writer.write(
                            encode(error_response(E_BAD_REQUEST, "request line too long"))
                        )
                        await writer.drain()
                    break
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # Per-connection in-flight cap: stop consuming lines until
                # a served request completes.  The unread bytes back up
                # the socket -- transport-level backpressure, so one
                # flooding connection cannot queue unbounded work.
                while len(tasks) >= self.max_inflight:
                    await asyncio.wait(
                        tuple(tasks), return_when=asyncio.FIRST_COMPLETED
                    )
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock)
                )
                tasks.add(task)
                self._conn_tasks.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(self._conn_tasks.discard)
            if tasks:
                await asyncio.gather(*tuple(tasks), return_exceptions=True)
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _serve_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            request = decode_line(line)
        except ProtocolError as exc:
            response = error_response(exc.code, str(exc))
        else:
            response = await self.handle(request)
        async with write_lock:
            try:
                writer.write(encode(response))
                await writer.drain()
            except ConnectionError:  # pragma: no cover - client went away
                pass
