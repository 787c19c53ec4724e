"""Micro-batching coalescer: many concurrent route requests, one kernel call.

The batch engine's lockstep kernel amortises its per-call setup (jump-table
lookups, frontier bookkeeping, array allocation) over the whole batch, so a
daemon that routes each request's pairs individually throws that advantage
away.  :class:`RouteCoalescer` buffers the pairs of concurrent ``route``
requests and flushes them as *one* concatenated batch when either trigger
fires:

* the **window** timer expires (default 1 ms after the first pending
  request), or
* the pending pair count reaches **max_batch** (default 256), whichever
  comes first.

``max_batch=1`` degenerates to one-flush-per-request -- the uncoalesced
baseline the serving benchmark compares against.

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
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One route endpoint pair: (src_x, src_y, dst_x, dst_y).
Pair = Tuple[int, int, int, int]


@dataclass
class PendingRoute:
    """One buffered ``route`` request awaiting a batch flush."""

    pairs: Sequence[Pair]
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
    #: Flushes triggered by the window timer / by the max_batch cap.
    timer_flushes: int = 0
    size_flushes: int = 0
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
        Seconds to wait after the first buffered request before flushing.
    max_batch:
        Flush immediately once this many pairs are pending.  ``1`` turns
        coalescing off (every submission flushes alone).
    """

    def __init__(
        self,
        flush: Callable[[List[PendingRoute]], None],
        *,
        window: float = 0.001,
        max_batch: int = 256,
    ) -> None:
        if window < 0:
            raise ValueError("window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._flush = weakref.WeakMethod(flush) if inspect.ismethod(flush) else lambda: flush
        self.window = window
        self.max_batch = max_batch
        self.stats = CoalescerStats()
        self._pending: List[PendingRoute] = []
        self._pending_pairs = 0
        self._timer: Optional[asyncio.TimerHandle] = None

    @property
    def queue_depth(self) -> int:
        """Endpoint pairs currently buffered (the ``status`` queue depth)."""
        return self._pending_pairs

    async def submit(
        self, pairs: Sequence[Pair], *, deadline: Optional[float] = None
    ) -> Any:
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
            self.stats.size_flushes += 1
            self.flush_now()
        elif self._timer is None:
            self._timer = loop.call_later(self.window, self._on_timer)
        return await future

    def _on_timer(self) -> None:
        self._timer = None
        if self._pending:
            self.stats.timer_flushes += 1
            self.flush_now()

    def flush_now(self) -> None:
        """Flush the buffered requests synchronously (no-op when empty).

        The daemon calls this before applying a fault mutation, so every
        already-buffered request still routes on the pre-mutation state it
        was submitted under.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        self._pending_pairs = 0
        self.stats.flushes += 1
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
