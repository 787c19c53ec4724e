"""The campaign runner: plan, skip, dispatch, stream, reduce, resume.

One :meth:`CampaignRunner.run` pass:

1. **Plan** -- expand the campaign into content-keyed trial descriptors
   (deterministic, cheap: no scenario is built).
2. **Skip** -- drop every descriptor whose key the store already holds;
   a completed campaign re-runs as a pure no-op scan.
3. **Dispatch** -- chunk the remainder into tasks and feed them to the
   transport with a bounded in-flight window: the parent never holds
   more than ``max_inflight`` chunks of results in memory, which is
   what keeps its RSS flat from 100 trials to 100k.
4. **Stream** -- every completed chunk is durably appended to the store
   *then* folded into the streaming reducer; a ``kill -9`` at any
   instant loses at most the chunk being written.
5. **Reschedule** -- failed tasks (worker death, stall, error) back off
   through a :class:`~repro.serve.retry.RetrySchedule` and requeue;
   tasks silent past ``task_timeout`` are re-dispatched (a late
   duplicate just lands as extra rows -- the reduction dedupes by
   (point, trial), and trials are deterministic, so duplicates are
   bit-identical anyway).

``resume`` is not a separate mode: running against an existing store
directory *is* resuming (the fingerprint check refuses foreign stores).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.reducers import CampaignPoint, StreamingReducer, scenario_chunks
from repro.campaign.spec import CampaignError, CampaignSpec
from repro.campaign.store import CampaignStore
from repro.campaign.transport import TRANSPORTS, Task
from repro.serve.retry import RetryPolicy

#: Default backoff for rescheduled tasks: seeded jitter keeps reschedule
#: timing deterministic under test, and a task is abandoned (fatal) only
#: after five attempts.
DEFAULT_RETRY = RetryPolicy(
    max_attempts=5, base_delay=0.05, multiplier=2.0, max_delay=2.0, seed=0
)


class CampaignRunner:
    """Run (or resume) one campaign against a store directory.

    Parameters
    ----------
    spec:
        The campaign description, or ``None`` to adopt the spec recorded
        in an existing store (status/reduce tooling).
    directory:
        Store directory; created on first run, resumed afterwards.
    workers, transport, transport_options:
        Worker count and transport: a key of
        :data:`~repro.campaign.transport.TRANSPORTS` (``local`` / ``tcp``)
        or an already-built transport instance (e.g. a ``TcpTransport``
        started ahead of time so its bound port is known to workers).
    chunk_trials:
        Trials per dispatched task (the store's chunk granularity).
    max_inflight:
        Dispatch window; default ``2 * workers`` keeps every worker fed
        while bounding parent memory.
    task_timeout:
        Seconds a dispatched task may stay silent before it is
        re-dispatched (on top of the transport's own liveness checks).
    retry:
        Backoff policy for failed tasks (:data:`DEFAULT_RETRY`).
    max_tasks:
        Stop after completing this many tasks (testing hook: produces a
        valid, partial, resumable store -- a simulated interruption).
    progress:
        Optional callback ``progress(completed_trials, total_trials)``.
    """

    def __init__(
        self,
        spec: Optional[CampaignSpec],
        directory: Union[str, Path],
        *,
        workers: Optional[int] = 1,
        transport: Union[str, Any] = "local",
        transport_options: Optional[Dict[str, Any]] = None,
        chunk_trials: int = 64,
        max_inflight: Optional[int] = None,
        task_timeout: float = 300.0,
        retry: Optional[RetryPolicy] = None,
        max_tasks: Optional[int] = None,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.directory = Path(directory)
        if workers is None:
            import os

            workers = os.cpu_count() or 1
        self.workers = max(1, int(workers))
        if isinstance(transport, str):
            if transport not in TRANSPORTS:
                raise KeyError(
                    f"unknown campaign transport {transport!r}; known keys: "
                    + ", ".join(TRANSPORTS)
                )
            self.transport_key: Optional[str] = transport
            self.transport_instance: Optional[Any] = None
        else:
            self.transport_key = None
            self.transport_instance = transport
        self.transport_options = dict(transport_options or {})
        self.chunk_trials = max(1, int(chunk_trials))
        self.max_inflight = (
            max(1, int(max_inflight)) if max_inflight is not None else 2 * self.workers
        )
        self.task_timeout = task_timeout
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.max_tasks = max_tasks
        self.progress = progress
        if spec is None:
            store = CampaignStore.open(self.directory)
            spec = store.campaign
            store.close()
        self.spec = spec
        self.store: Optional[CampaignStore] = None
        self.last_summary: Optional[Dict[str, Any]] = None

    # -- store plumbing --------------------------------------------------------------

    def _open_store(self) -> CampaignStore:
        if self.store is None:
            if (self.directory / "manifest.jsonl").exists():
                self.store = CampaignStore.open(self.directory, self.spec)
            else:
                self.store = CampaignStore.create(self.directory, self.spec)
        return self.store

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None

    # -- the run loop ----------------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Execute every not-yet-stored trial; returns a summary dict.

        The plan is *streamed*, never materialized: the parent retains
        only each pending trial's ``(point, trial)`` cell plus the
        store's completed-key set, and workers re-plan locally -- parent
        RSS stays flat from 100 trials to a million.
        """
        started = time.monotonic()
        store = self._open_store()
        completed_keys = store.completed_keys()
        todo: List[Tuple[int, int]] = []
        total = 0
        for descriptor in self.spec.iter_plan():
            total += 1
            if descriptor.key not in completed_keys:
                todo.append((descriptor.point, descriptor.trial))
        skipped = total - len(todo)
        summary: Dict[str, Any] = {
            "fingerprint": self.spec.fingerprint(),
            "planned": total,
            "skipped": skipped,
            "executed": 0,
            "rescheduled": 0,
            "chunks_before": len(store.chunk_records),
        }
        if self.progress is not None:
            self.progress(skipped, total)
        if todo:
            executed, rescheduled = self._execute(store, todo, skipped, total)
            summary["executed"] = executed
            summary["rescheduled"] = rescheduled
        summary["chunks_after"] = len(store.chunk_records)
        summary["rows_stored"] = store.rows_stored
        summary["elapsed"] = time.monotonic() - started
        summary["complete"] = self._remaining(store) == 0
        self.last_summary = summary
        return summary

    def _remaining(self, store: CampaignStore) -> int:
        """Count planned trials the store does not hold (streaming scan)."""
        keys = store.completed_keys()
        return sum(1 for d in self.spec.iter_plan() if d.key not in keys)

    def _execute(
        self,
        store: CampaignStore,
        todo: Sequence[Tuple[int, int]],
        already_done: int,
        total: int,
    ) -> Any:
        """Dispatch *todo* through the transport.

        Returns ``(executed_trials, rescheduled_tasks)``; with
        ``max_tasks`` set the executed count reflects the partial run.
        """
        if self.transport_instance is not None:
            transport = self.transport_instance
        else:
            transport = TRANSPORTS[self.transport_key](
                self.spec, workers=self.workers, **self.transport_options
            )
        tasks: List[Task] = [
            Task(task_id=index, cells=tuple(todo[at : at + self.chunk_trials]))
            for index, at in enumerate(range(0, len(todo), self.chunk_trials))
        ]
        by_id: Dict[int, Task] = {task.task_id: task for task in tasks}
        next_task_id = len(tasks)
        pending: List[Task] = list(reversed(tasks))  # pop() from the front
        inflight: Dict[int, float] = {}
        delayed: List[Any] = []  # (due_time, task)
        schedules: Dict[int, Any] = {}  # root task_id -> RetrySchedule
        roots: Dict[int, int] = {task.task_id: task.task_id for task in tasks}
        done_keys: set = set()
        rescheduled = 0
        completed_tasks = 0
        executed_trials = 0

        def reschedule(task_id: int, reason: str) -> None:
            nonlocal rescheduled, next_task_id
            task = by_id[task_id]
            root = roots[task_id]
            schedule = schedules.setdefault(root, self.retry.schedule())
            delay = schedule.next_delay()
            if delay is None:
                transport.stop()
                raise CampaignError(
                    f"campaign task {root} failed permanently after "
                    f"{schedule.attempt} attempts: {reason}"
                )
            clone = Task(task_id=next_task_id, cells=task.cells)
            by_id[clone.task_id] = clone
            roots[clone.task_id] = root
            next_task_id += 1
            rescheduled += 1
            delayed.append((time.monotonic() + delay, clone))

        transport.start()
        try:
            while True:
                now = time.monotonic()
                for due, task in list(delayed):
                    if due <= now:
                        delayed.remove((due, task))
                        pending.append(task)
                while (
                    pending
                    and len(inflight) < self.max_inflight
                    and (self.max_tasks is None or completed_tasks + len(inflight) < self.max_tasks)
                ):
                    task = pending.pop()
                    transport.submit(task)
                    inflight[task.task_id] = time.monotonic()
                if not inflight and not pending and not delayed:
                    break
                if self.max_tasks is not None and completed_tasks >= self.max_tasks:
                    break
                event = transport.poll(timeout=0.2)
                if event is None:
                    stale = [
                        task_id
                        for task_id, submitted in inflight.items()
                        if time.monotonic() - submitted > self.task_timeout
                    ]
                    for task_id in stale:
                        del inflight[task_id]
                        reschedule(task_id, "task timed out")
                    continue
                verb, task_id = event[0], event[1]
                if task_id not in inflight:
                    # A late duplicate of a timed-out task: rows are
                    # deterministic, so append them and let the pending
                    # clone (if any) land as deduped extras.
                    if verb != "done":
                        continue
                else:
                    del inflight[task_id]
                if verb == "done":
                    rows = event[2]
                    store.append_rows(rows)
                    completed_tasks += 1
                    by_id.pop(task_id, None)
                    roots.pop(task_id, None)
                    fresh = {
                        key.decode("ascii") for key in rows["key"]
                    } - done_keys
                    done_keys.update(fresh)
                    executed_trials += len(fresh)
                    if self.progress is not None:
                        self.progress(already_done + executed_trials, total)
                else:
                    reschedule(task_id, str(event[2]))
        finally:
            transport.stop()
        return executed_trials, rescheduled

    # -- reductions ------------------------------------------------------------------

    def reduce(self) -> List[CampaignPoint]:
        """Fold the store into per-point streaming moments (means + CIs)."""
        store = self._open_store()
        reducer = StreamingReducer(self.spec)
        for chunk in store.iter_chunks():
            reducer.feed(chunk)
        return reducer.points()

    def sweep_points(self) -> List[Any]:
        """Reduce to ``SweepPoint`` records, bit-identical to the in-memory path.

        Rows decode back to the exact ``ScenarioMetrics`` the workers
        produced, fold in (point, trial) order, and run through the same
        point reducer ``SweepExecutor`` uses -- so ``run(campaign=...)``
        returns exactly what ``run()`` returns.
        """
        from repro.api.executor import TRIAL_KINDS

        store = self._open_store()
        first = next(self.spec.iter_plan()).spec
        per_point = scenario_chunks(self.spec, store.iter_chunks())
        return TRIAL_KINDS[self.spec.kind].reduce(self.spec.axis, first.distribution, per_point)


def campaign_status(directory: Union[str, Path]) -> Dict[str, Any]:
    """Progress report for a store directory (no trials run)."""
    store = CampaignStore.open(Path(directory))
    try:
        spec = store.campaign
        keys = store.completed_keys()
        per_point = [0] * len(spec.axis)
        done = 0
        planned = 0
        for descriptor in spec.iter_plan():
            planned += 1
            if descriptor.key in keys:
                done += 1
                per_point[descriptor.point] += 1
        info = store.info()
        info.update(
            {
                "planned": planned,
                "completed": done,
                "remaining": planned - done,
                "complete": done == planned,
                "per_point": per_point,
                "axis": list(spec.axis),
                "trials": spec.trials,
                "models": list(spec.models),
            }
        )
        return info
    finally:
        store.close()


def format_status(status: Dict[str, Any], stream: Any = None) -> str:
    """Render one status dict as the CLI progress block."""
    lines = [
        f"campaign {status['kind']}  fingerprint {status['fingerprint'][:16]}...",
        f"  store     {status['directory']}  ({status['chunks']} chunks, "
        f"{status['rows']} rows)",
        f"  progress  {status['completed']}/{status['planned']} trials"
        + ("  [complete]" if status["complete"] else ""),
    ]
    width = 28
    for index, (x, count) in enumerate(zip(status["axis"], status["per_point"])):
        filled = int(round(width * count / status["trials"])) if status["trials"] else 0
        bar = "#" * filled + "-" * (width - filled)
        lines.append(f"  point {index:>3}  x={x:<10g} [{bar}] {count}/{status['trials']}")
    text = "\n".join(lines)
    if stream is not None:
        print(text, file=stream)
    return text
