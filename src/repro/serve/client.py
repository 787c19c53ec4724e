"""Clients of the routing daemon: TCP and in-process, one verb surface.

:class:`ServeClient` speaks the NDJSON protocol over an asyncio TCP
connection (the transport ``repro-mesh query`` uses);
:class:`InProcessClient` hands request dicts to a
:class:`~repro.serve.daemon.RouteDaemon` directly and gets back the
response decoded from the bytes the daemon would write to a socket -- the
harness the tests and the serving benchmark drive, so every differential
assertion exercises the daemon's dispatch, coalescing and response
encoding without socket noise.

Both raise :class:`ServeError` (carrying the protocol error ``code``) on
``ok: false`` responses; the raw response dict is available for verbs
that want the envelope.

:class:`ServeClient` resilience (all opt-in, see
:mod:`repro.serve.retry`):

* a **per-request timeout** (constructor default or per call) bounds
  the wait for a response; route requests stamped with a timeout carry
  it to the daemon as ``deadline_ms`` so expired buffered work is shed
  server-side too;
* a **poisoned connection is never reused**: any failure between the
  request write and the response read (timeout, overlong response,
  cancellation, connection loss) closes the connection, so the next
  request cannot read a stale response that belongs to an earlier one;
* with a :class:`~repro.serve.retry.RetryPolicy`, transient failures
  (connect errors, timeouts, dropped connections, ``overloaded`` sheds
  -- honouring the daemon's ``retry_after`` hint) are retried with
  exponential backoff, reconnecting as needed;
* retried **mutating verbs apply exactly once**: the client stamps each
  mutation with an idempotency id (``idem``), and the daemon journals
  and replays the original payload for duplicates.
"""

from __future__ import annotations

import asyncio
import itertools
import uuid
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.serve.protocol import MAX_LINE_BYTES, ProtocolError, decode_line, encode
from repro.serve.retry import RetryPolicy
from repro.types import Coord

#: Verbs that mutate daemon state; retried instances carry an ``idem`` id.
MUTATING_OPS = frozenset({"add_faults", "repair", "add_link_faults"})

#: Transport-level failures a retry policy treats as transient.  Bare
#: ``ValueError`` appears because an overlong response line surfaces as
#: one from ``StreamReader.readline``; :class:`ProtocolError` (a
#: ``ValueError`` subclass meaning a *parsed but malformed* response) is
#: explicitly re-raised, not retried.
RETRYABLE_EXCEPTIONS = (
    OSError,
    asyncio.TimeoutError,
    TimeoutError,
    asyncio.IncompleteReadError,
    ValueError,
)


class ServeError(RuntimeError):
    """An ``ok: false`` daemon response, carrying its protocol code."""

    def __init__(
        self, code: str, message: str, retry_after: Optional[float] = None
    ) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        #: Backoff hint attached to ``overloaded`` sheds (seconds).
        self.retry_after = retry_after


def _unwrap(response: Dict[str, Any]) -> Dict[str, Any]:
    if not response.get("ok"):
        error = response.get("error") or {}
        raise ServeError(
            error.get("code", "internal"),
            error.get("message", "unknown error"),
            retry_after=error.get("retry_after"),
        )
    return response


class _Verbs:
    """The shared verb surface; subclasses implement ``request``."""

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    async def ping(self) -> Dict[str, Any]:
        return _unwrap(await self.request({"op": "ping"}))

    async def route(
        self, pairs: Sequence[Sequence[int]], request_id: Optional[Any] = None
    ) -> Dict[str, Any]:
        """Route ``[sx, sy, dx, dy]`` pairs; returns the routes payload."""
        message: Dict[str, Any] = {"op": "route", "pairs": [list(p) for p in pairs]}
        if request_id is not None:
            message["id"] = request_id
        return _unwrap(await self.request(message))

    async def route_one(self, source: Coord, destination: Coord) -> Dict[str, Any]:
        """Route a single pair; returns its outcome dict."""
        response = await self.route([[*source, *destination]])
        return response["routes"][0]

    async def add_faults(self, nodes: Iterable[Coord]) -> Dict[str, Any]:
        return _unwrap(
            await self.request(
                {"op": "add_faults", "nodes": [list(n) for n in nodes]}
            )
        )

    async def repair(self, nodes: Iterable[Coord]) -> Dict[str, Any]:
        return _unwrap(
            await self.request({"op": "repair", "nodes": [list(n) for n in nodes]})
        )

    async def add_link_faults(
        self, links: Iterable[Tuple[Coord, Coord]], prefer_lower: bool = True
    ) -> Dict[str, Any]:
        return _unwrap(
            await self.request(
                {
                    "op": "add_link_faults",
                    "links": [[list(a), list(b)] for a, b in links],
                    "prefer_lower": prefer_lower,
                }
            )
        )

    async def status(self) -> Dict[str, Any]:
        return _unwrap(await self.request({"op": "status"}))

    async def simulate(self, **params: Any) -> Dict[str, Any]:
        return _unwrap(await self.request({"op": "simulate", **params}))

    async def shutdown(self) -> Dict[str, Any]:
        return _unwrap(await self.request({"op": "shutdown"}))


class InProcessClient(_Verbs):
    """Drive a :class:`RouteDaemon` directly, no sockets involved.

    Responses are the dicts :meth:`RouteDaemon.handle` decodes from the
    encoded response line, so they carry exactly the bytes a TCP client
    reads (lists where the request had tuples, for instance).
    """

    def __init__(self, daemon: Any) -> None:
        self.daemon = daemon

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return await self.daemon.handle(message)


class ServeClient(_Verbs):
    """NDJSON TCP client of a running routing daemon.

    One request is in flight per client at a time (requests are matched
    to responses by arrival order on the connection); open several
    clients for concurrency, as the benchmark does.

    Parameters
    ----------
    host, port:
        The daemon's TCP address.
    retry:
        Optional :class:`~repro.serve.retry.RetryPolicy` governing
        request retries, reconnects and ``overloaded`` backoff.  Without
        one, every failure surfaces immediately (the pre-resilience
        behaviour).
    timeout:
        Default per-request timeout in seconds (``None`` = wait
        forever); ``route`` requests also carry it to the daemon as
        ``deadline_ms``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.retry = retry
        self.timeout = timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()
        # Idempotency ids: unique per client instance and request.
        self._idem_token = uuid.uuid4().hex[:12]
        self._idem_counter = itertools.count()

    @property
    def connected(self) -> bool:
        """Whether a (believed-healthy) connection is held."""
        return self._writer is not None

    async def connect(
        self, *, retry: Optional[RetryPolicy] = None
    ) -> "ServeClient":
        """Open the TCP connection, optionally retrying connect errors.

        *retry* overrides the client's policy for this call (``repro-mesh
        query --wait`` passes a deadline-bounded unbounded-attempt policy
        here as its daemon start-up grace).
        """
        policy = self.retry if retry is None else retry
        if policy is None:
            await self._connect_once()
            return self
        schedule = policy.schedule()
        while True:
            try:
                await self._connect_once()
                return self
            except OSError:
                delay = schedule.next_delay()
                if delay is None:
                    raise
                await asyncio.sleep(delay)

    async def _connect_once(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_LINE_BYTES
        )

    def _poison(self) -> None:
        """Drop the connection so no later request can read stale bytes."""
        writer = self._writer
        self._reader = self._writer = None
        if writer is not None:
            try:
                writer.close()
            except Exception:  # pragma: no cover - transport already dead
                pass

    async def close(self) -> None:
        writer = self._writer
        self._reader = self._writer = None
        if writer is None:
            return
        try:
            writer.close()
            await writer.wait_closed()
        except Exception:  # transport already gone (reset, mid-handshake, ...)
            pass

    async def __aenter__(self) -> "ServeClient":
        return await self.connect()

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    async def _attempt(
        self, message: Dict[str, Any], timeout: Optional[float]
    ) -> Dict[str, Any]:
        """One request/response exchange; poisons the connection on ANY
        failure between the write and the completed read."""
        if self._writer is None:
            await self._connect_once()
        reader, writer = self._reader, self._writer
        try:
            writer.write(encode(message))
            await writer.drain()
            if timeout is not None:
                line = await asyncio.wait_for(reader.readline(), timeout)
            else:
                line = await reader.readline()
        except BaseException:
            # Timeout, cancellation, overlong-response ValueError,
            # connection loss: the response (if any) is unread or
            # partially read, so the stream is desynced -- poison it.
            self._poison()
            raise
        if not line:
            self._poison()
            raise ConnectionError("daemon closed the connection")
        if not line.endswith(b"\n"):
            # A truncated line can only mean EOF mid-response.
            self._poison()
            raise ConnectionError("daemon connection lost mid-response")
        return decode_line(line)

    async def request(
        self, message: Dict[str, Any], *, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        policy = self.retry
        timeout = self.timeout if timeout is None else timeout
        op = message.get("op")
        if policy is not None and op in MUTATING_OPS and "idem" not in message:
            # Stamp once, before the first attempt: every retry reuses the
            # id, so the daemon applies the mutation exactly once.
            message = {
                **message,
                "idem": f"{self._idem_token}-{next(self._idem_counter)}",
            }
        if timeout is not None and op == "route" and "deadline_ms" not in message:
            message = {**message, "deadline_ms": int(timeout * 1000)}
        async with self._lock:
            if policy is None:
                return await self._attempt(message, timeout)
            schedule = policy.schedule()
            while True:
                try:
                    response = await self._attempt(message, timeout)
                except RETRYABLE_EXCEPTIONS as exc:
                    if isinstance(exc, ProtocolError):
                        raise  # parsed-but-malformed response: not transient
                    delay = schedule.next_delay()
                    if delay is None:
                        raise
                    await asyncio.sleep(delay)
                    continue
                if not response.get("ok"):
                    error = response.get("error") or {}
                    if error.get("code") in policy.retry_codes:
                        delay = schedule.next_delay()
                        if delay is not None:
                            await asyncio.sleep(
                                max(delay, float(error.get("retry_after") or 0.0))
                            )
                            continue
                return response
