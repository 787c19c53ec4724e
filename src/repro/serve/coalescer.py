"""Micro-batching coalescer: many concurrent route requests, one kernel call.

The batch engine's lockstep kernel amortises its per-call setup (jump-table
lookups, frontier bookkeeping, array allocation) over the whole batch, so a
daemon that routes each request's pairs individually throws that advantage
away.  :class:`RouteCoalescer` buffers the pairs of concurrent ``route``
requests and flushes them as *one* concatenated batch when either trigger
fires:

* the **window** (default 1 ms after the first pending request) has run
  out *and* the input has gone quiet: :data:`QUIET_TURNS` consecutive
  event-loop turns passed in which no new request reached :meth:`submit`
  (so requests the daemon has already read off its sockets still join
  the flush), or
* the pending pair count reaches **max_batch**, whichever comes first.

The window is thus the minimum wait of the first buffered request, not
a maximum: a flush takes everything that keeps arriving while the daemon
still has request lines in hand.  The caller sizes *max_batch*:
:class:`~repro.serve.daemon.RouteDaemon` puts it at its admission cap by
default, so one flush takes every admitted request (the batch kernel's
cost is mostly per call, not per pair).  ``max_batch=1`` degenerates to
one-flush-per-request -- the uncoalesced baseline the serving benchmark
compares against.  :meth:`RouteCoalescer.flush_now` cuts the batch at
once (the daemon calls it before every mutation).

The flush callback receives the pending :class:`PendingRoute` entries and
must resolve each entry's future with that request's slice of the batch
outcome.  Because each request's pairs occupy a contiguous slice of the
concatenated batch, and the batch engine's per-message outcomes are
bit-identical to scalar per-pair routes (the engine's own differential
contract), coalesced responses are bit-identical to individually routed
requests -- asserted end-to-end by ``tests/test_serve.py``.
"""

from __future__ import annotations

import asyncio
import inspect
import math
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sized

#: Consecutive event-loop turns without a new submission that end the wait
#: after the window.  A request line takes two turns from the daemon's
#: socket read to :meth:`RouteCoalescer.submit` (the connection's reader
#: wakes, then the line's serving task runs), so two quiet turns mean no
#: line read before them is still on its way.
QUIET_TURNS = 2


@dataclass
class PendingRoute:
    """One buffered ``route`` request awaiting a batch flush."""

    #: The request's endpoint pairs; the daemon passes an ``(n, 4)`` int64
    #: array of ``(src_x, src_y, dst_x, dst_y)`` rows.
    pairs: Sized
    future: "asyncio.Future[Any]"
    #: Absolute ``loop.time()`` after which the request is worthless; the
    #: daemon's flush drops expired entries instead of routing them.
    deadline: Optional[float] = None


@dataclass
class CoalescerStats:
    """Counters describing how well requests coalesced."""

    #: ``route`` requests submitted.
    requests: int = 0
    #: Endpoint pairs submitted (>= requests; a request may carry many).
    pairs: int = 0
    #: Batch flushes executed (each is one engine call).
    flushes: int = 0
    #: Flushes that merged more than one request.
    coalesced_flushes: int = 0
    #: Flushes triggered by the window timer (once the input went quiet) /
    #: by the max_batch cap / by a direct :meth:`RouteCoalescer.flush_now`
    #: with requests pending (a mutation, a simulation, a drain).  Every
    #: flush has exactly one of the three causes.
    timer_flushes: int = 0
    size_flushes: int = 0
    cut_flushes: int = 0
    #: Largest number of pairs a single flush carried.
    max_flush_pairs: int = 0

    @property
    def coalesce_ratio(self) -> float:
        """Mean requests merged per engine call (1.0 = no coalescing)."""
        return self.requests / self.flushes if self.flushes else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "pairs": self.pairs,
            "flushes": self.flushes,
            "coalesced_flushes": self.coalesced_flushes,
            "timer_flushes": self.timer_flushes,
            "size_flushes": self.size_flushes,
            "cut_flushes": self.cut_flushes,
            "max_flush_pairs": self.max_flush_pairs,
            "coalesce_ratio": round(self.coalesce_ratio, 4),
        }


class RouteCoalescer:
    """Buffer concurrent route submissions into single batch-engine calls.

    Parameters
    ----------
    flush:
        ``flush(pending)`` routes the concatenated pairs of the pending
        requests and resolves each entry's future (with its result on
        success, or the raised exception on failure).  Called on the event
        loop; the engine call is CPU-bound, so there is nothing to await.
        A bound method is held weakly: its owner (the daemon) owns this
        coalescer, and a strong reference would make a cycle that only
        the cyclic garbage collector frees.
    window:
        Minimum wait, in seconds, of the first buffered request (finite,
        ``0`` or more; a non-finite window would never flush).  Once it
        has passed, the flush waits for the input to go quiet
        (:data:`QUIET_TURNS`) and then takes everything buffered.
    max_batch:
        Flush immediately once this many pairs are pending.  No default:
        the caller knows its admission cap (the daemon puts the trigger
        there unless told otherwise).  ``1`` turns coalescing off (every
        submission flushes alone).
    """

    def __init__(
        self,
        flush: Callable[[List[PendingRoute]], None],
        *,
        window: float = 0.001,
        max_batch: int,
    ) -> None:
        if not (math.isfinite(window) and window >= 0):
            raise ValueError("window must be a finite number >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._flush = weakref.WeakMethod(flush) if inspect.ismethod(flush) else lambda: flush
        self.window = window
        self.max_batch = max_batch
        self.stats = CoalescerStats()
        self._pending: List[PendingRoute] = []
        self._pending_pairs = 0
        #: The armed window timer, or the quiet-turn check that follows it.
        self._timer: Optional[asyncio.Handle] = None
        #: ``stats.requests`` at the last quiet-turn check, and the quiet
        #: turns counted since.
        self._seen = 0
        self._quiet_turns = 0
        #: The ``stats`` counter the next :meth:`flush_now` bumps.  A trigger
        #: sets it just before it calls :meth:`flush_now`, the one flush
        #: entry point; any other call is a cut.
        self._cause = "cut_flushes"

    @property
    def queue_depth(self) -> int:
        """Endpoint pairs currently buffered (the ``status`` queue depth)."""
        return self._pending_pairs

    async def submit(self, pairs: Sized, *, deadline: Optional[float] = None) -> Any:
        """Buffer one request's pairs; resolves with its slice of the flush.

        *deadline* is an absolute ``loop.time()``; the flush callback may
        drop entries whose deadline passed while they were buffered.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        self._pending.append(
            PendingRoute(pairs=pairs, future=future, deadline=deadline)
        )
        self._pending_pairs += len(pairs)
        self.stats.requests += 1
        self.stats.pairs += len(pairs)
        if self._pending_pairs >= self.max_batch:
            self._cause = "size_flushes"
            self.flush_now()
        elif self._timer is None:
            self._timer = loop.call_later(self.window, self._on_window)
        return await future

    def _on_window(self) -> None:
        """The window ran out: check the input once per loop turn from now."""
        self._seen = self.stats.requests
        self._quiet_turns = 0
        self._timer = asyncio.get_running_loop().call_soon(self._on_turn)

    def _on_turn(self) -> None:
        """Flush after :data:`QUIET_TURNS` turns without a new submission."""
        if self.stats.requests != self._seen:
            self._seen = self.stats.requests
            self._quiet_turns = 0
        else:
            self._quiet_turns += 1
        if self._quiet_turns < QUIET_TURNS:
            self._timer = asyncio.get_running_loop().call_soon(self._on_turn)
            return
        self._timer = None
        self._cause = "timer_flushes"
        self.flush_now()

    def flush_now(self) -> None:
        """Flush the buffered requests synchronously (no-op when empty).

        The daemon calls this before applying a fault mutation, so every
        already-buffered request still routes on the pre-mutation state it
        was submitted under.  Called directly with requests pending, it
        counts a ``cut_flushes``; the two triggers count their own.
        """
        cause, self._cause = self._cause, "cut_flushes"
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        self._pending_pairs = 0
        self.stats.flushes += 1
        setattr(self.stats, cause, getattr(self.stats, cause) + 1)
        if len(pending) > 1:
            self.stats.coalesced_flushes += 1
        flush_pairs = sum(len(entry.pairs) for entry in pending)
        self.stats.max_flush_pairs = max(self.stats.max_flush_pairs, flush_pairs)
        try:
            flush = self._flush()
            if flush is None:
                raise ReferenceError("the owner of this coalescer's flush was freed")
            flush(pending)
        except Exception as exc:  # pragma: no cover - engine bugs only
            for entry in pending:
                if not entry.future.done():
                    entry.future.set_exception(exc)
        for entry in pending:
            if not entry.future.done():  # pragma: no cover - flush contract
                entry.future.set_exception(
                    RuntimeError("flush resolved no result for a pending request")
                )

    async def drain(self) -> None:
        """Flush whatever is buffered and wait for the results (shutdown)."""
        self.flush_now()
        # Futures resolve synchronously inside flush_now; yield once so
        # submitters scheduled behind us observe their results.
        await asyncio.sleep(0)
