"""Campaign transports: how trial tasks reach workers.

A transport owns worker lifetime and moves :class:`Task`s out and
encoded row chunks back.  The runner is transport-agnostic: it submits
tasks, polls events, and owns retry/reschedule policy; the transport
reports completions and failures (a worker death surfaces as a
``failed`` event for whatever that worker was running).

Two transports, keyed in :data:`TRANSPORTS`:

* ``local`` -- persistent ``multiprocessing`` worker processes pulling
  from a shared queue (fork-preferred, like
  :meth:`~repro.api.executor.SweepExecutor._map`).  Workers heartbeat
  between trials; a dead or silent worker is terminated, its task is
  reported failed, and a replacement is spawned.
* ``tcp`` -- an NDJSON shard protocol framed by
  :mod:`repro.serve.protocol`: remote workers (``repro-mesh campaign
  worker --connect``) dial in, receive the canonical campaign spec,
  re-plan it locally (the plan is deterministic) and pull tasks
  addressed as ``(point, trial)`` cells, returning base64-packed row
  chunks.  One machine today, N machines tomorrow -- the seam is the
  point.

Workers encode rows *worker-side*: the parent only ever handles packed
structured arrays, never metrics objects, which is what keeps parent
RSS flat at million-trial scale.

Event tuples a transport may emit from ``poll``::

    ("done", task_id, rows: np.ndarray)
    ("failed", task_id, reason: str)
"""

from __future__ import annotations

import base64
import multiprocessing
import os
import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.campaign.spec import CampaignError, CampaignSpec
from repro.serve.protocol import ProtocolError, decode_line, encode


@dataclass(frozen=True)
class Task:
    """One unit of dispatch: a chunk of ``(point, trial)`` cells.

    Tasks carry trial *identities*, never the expanded specs: every
    worker (local or remote) re-plans the deterministic campaign on
    startup and resolves cells itself, so the parent process never holds
    a materialized plan -- that is what keeps parent RSS flat at
    million-trial scale.
    """

    task_id: int
    cells: Tuple[Tuple[int, int], ...]


# -- workers ------------------------------------------------------------------------


class _TrialCells:
    """One worker's copy of a campaign: its plan by cell, runner and codec.

    The plan is expanded once per worker process, local or remote: tasks
    address trials as ``(point, trial)`` cells, so the parent never
    materializes descriptors.
    """

    def __init__(self, campaign: CampaignSpec) -> None:
        from repro.api.executor import TRIAL_KINDS

        self.runner = TRIAL_KINDS[campaign.kind].runner
        self.codec = campaign.codec()
        self.by_cell = {(d.point, d.trial): d for d in campaign.plan()}

    def run(
        self, cells: Sequence[Tuple[int, int]], beat: Callable[[], None] = lambda: None
    ) -> np.ndarray:
        """Run the trials of *cells* into encoded rows; *beat* after each."""
        rows = self.codec.empty(len(cells))
        for index, cell in enumerate(cells):
            descriptor = self.by_cell[cell]
            self.codec.encode_into(rows[index], descriptor, self.runner(descriptor.spec))
            beat()
        return rows


# -- local process pool -------------------------------------------------------------


def _local_worker_main(
    worker_id: int,
    campaign: CampaignSpec,
    task_queue: Any,
    event_queue: Any,
    heartbeat_interval: float,
) -> None:
    """Worker loop: pull a task, run its trials, push encoded rows.

    An idle worker looks every *heartbeat_interval* seconds whether its
    parent is still the one that started it, and returns once the parent
    has died: a killed runner never sends the stop sentinel.
    """
    parent = os.getppid()
    cells = _TrialCells(campaign)
    event_queue.put(("hello", worker_id, None))
    while True:
        try:
            task = task_queue.get(timeout=heartbeat_interval)
        except queue.Empty:
            if os.getppid() != parent:
                return
            continue
        if task is None:
            break
        event_queue.put(("start", worker_id, task.task_id))
        last_beat = time.monotonic()

        def beat() -> None:
            nonlocal last_beat
            now = time.monotonic()
            if now - last_beat >= heartbeat_interval:
                event_queue.put(("hb", worker_id, task.task_id))
                last_beat = now

        try:
            rows = cells.run(task.cells, beat)
            event_queue.put(("done", worker_id, task.task_id, rows))
        except BaseException as exc:  # report, then keep serving
            event_queue.put(
                ("error", worker_id, task.task_id, f"{type(exc).__name__}: {exc}")
            )
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise


class LocalTransport:
    """Persistent process-pool transport with heartbeat failure detection."""

    def __init__(
        self,
        campaign: CampaignSpec,
        *,
        workers: int = 1,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 60.0,
    ) -> None:
        self.campaign = campaign
        self.workers = max(1, int(workers))
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._context = multiprocessing.get_context()
        self._tasks: Any = None
        self._events: Any = None
        self._procs: Dict[int, Any] = {}
        self._last_seen: Dict[int, float] = {}
        self._running: Dict[int, Optional[int]] = {}
        self._next_worker_id = 0
        self.respawns = 0

    def start(self) -> None:
        self._tasks = self._context.Queue()
        self._events = self._context.Queue()
        for _ in range(self.workers):
            self._spawn()

    def _spawn(self) -> None:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        proc = self._context.Process(
            target=_local_worker_main,
            args=(
                worker_id,
                self.campaign,
                self._tasks,
                self._events,
                self.heartbeat_interval,
            ),
            daemon=True,
        )
        proc.start()
        self._procs[worker_id] = proc
        self._last_seen[worker_id] = time.monotonic()
        self._running[worker_id] = None

    def submit(self, task: Task) -> None:
        self._tasks.put(task)

    def poll(self, timeout: float = 0.2) -> Optional[Tuple[Any, ...]]:
        """The next completion/failure event, or ``None`` on timeout.

        Liveness runs on every call: a worker that died or went silent
        mid-task gets its task reported ``failed`` and a replacement
        process spawned (the reschedule policy lives in the runner).
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                event = self._events.get(timeout=remaining if remaining > 0 else 0.01)
            except queue.Empty:
                event = None
            if event is not None:
                verb, worker_id = event[0], event[1]
                self._last_seen[worker_id] = time.monotonic()
                if verb == "start":
                    self._running[worker_id] = event[2]
                elif verb == "done":
                    self._running[worker_id] = None
                    return ("done", event[2], event[3])
                elif verb == "error":
                    self._running[worker_id] = None
                    return ("failed", event[2], event[3])
                # "hello"/"hb" only refresh liveness.
            failure = self._check_liveness()
            if failure is not None:
                return failure
            if time.monotonic() >= deadline:
                return None

    def _check_liveness(self) -> Optional[Tuple[Any, ...]]:
        now = time.monotonic()
        for worker_id, proc in list(self._procs.items()):
            task_id = self._running.get(worker_id)
            dead = not proc.is_alive()
            stalled = (
                task_id is not None
                and now - self._last_seen[worker_id] > self.heartbeat_timeout
            )
            if not dead and not stalled:
                continue
            if stalled and not dead:
                proc.terminate()
            proc.join(timeout=5.0)
            del self._procs[worker_id]
            del self._last_seen[worker_id]
            del self._running[worker_id]
            self.respawns += 1
            self._spawn()
            if task_id is not None:
                reason = "worker stalled" if stalled else "worker died"
                return ("failed", task_id, f"{reason} (pid watchdog)")
        return None

    def stop(self) -> None:
        for _ in self._procs:
            try:
                self._tasks.put_nowait(None)
            except Exception:
                break
        for proc in self._procs.values():
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        self._procs.clear()
        self._running.clear()
        self._last_seen.clear()
        for q in (self._tasks, self._events):
            if q is not None:
                q.cancel_join_thread()
                q.close()


# -- TCP shard protocol -------------------------------------------------------------

#: Wire schema tag (NDJSON frames, one JSON object per line).
TCP_SCHEMA = "repro.campaign.tcp/v1"


class _LineReader:
    """Buffered NDJSON frame reader over a socket (:mod:`repro.serve.protocol`)."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = b""

    def read_frame(self) -> Optional[Dict[str, Any]]:
        """The next frame, ``None`` at end of stream; ``CampaignError`` if malformed."""
        while b"\n" not in self._buffer:
            data = self._sock.recv(65536)
            if not data:
                return None
            self._buffer += data
        line, self._buffer = self._buffer.split(b"\n", 1)
        try:
            return decode_line(line)
        except ProtocolError as exc:
            raise CampaignError(f"malformed campaign TCP frame: {exc}") from None


class TcpTransport:
    """Shard server: remote workers dial in and pull tasks over NDJSON.

    The parent listens; each connecting worker gets the canonical
    campaign spec, then a stream of ``task`` frames holding ``(point,
    trial)`` cells.  Workers re-plan the campaign locally (the plan is
    deterministic) so trial specs never cross the wire -- only
    identities out, packed rows back.  A dropped connection fails the
    task it was running; the runner reschedules it onto another worker.
    """

    def __init__(
        self,
        campaign: CampaignSpec,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,  # accepted for factory symmetry; peers decide
    ) -> None:
        self.campaign = campaign
        self.host = host
        self.port = port
        self._server: Optional[socket.socket] = None
        self._tasks: "queue.Queue[Optional[Task]]" = queue.Queue()
        self._events: "queue.Queue[Tuple[Any, ...]]" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self.dtype: Optional[np.dtype] = None
        self.connected = 0

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) -- query after :meth:`start`."""
        if self._server is None:
            raise CampaignError("transport is not started")
        return self._server.getsockname()[:2]

    def start(self) -> None:
        if self._server is not None:
            # Idempotent: the CLI starts the transport ahead of the
            # runner to learn (and print) the bound port for workers.
            return
        self.dtype = self.campaign.codec().dtype
        server = socket.create_server((self.host, self.port))
        server.settimeout(0.2)
        self._server = server
        accept = threading.Thread(target=self._accept_loop, daemon=True)
        accept.start()
        self._threads.append(accept)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_worker, args=(conn,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _serve_worker(self, conn: socket.socket) -> None:
        task: Optional[Task] = None
        try:
            with conn:
                conn.settimeout(60.0)
                hello = {"op": "hello", "schema": TCP_SCHEMA, "spec": self.campaign.canonical()}
                conn.sendall(encode(hello))
                reader = _LineReader(conn)
                ready = reader.read_frame()
                if ready is None or ready.get("op") != "ready":
                    return
                self.connected += 1
                while not self._stop.is_set():
                    try:
                        task = self._tasks.get(timeout=0.2)
                    except queue.Empty:
                        continue
                    if task is None:
                        conn.sendall(encode({"op": "shutdown"}))
                        return
                    cells = [list(cell) for cell in task.cells]
                    conn.sendall(encode({"op": "task", "id": task.task_id, "cells": cells}))
                    reply = reader.read_frame()
                    if reply is None:
                        raise CampaignError("worker connection closed mid-task")
                    if reply.get("op") == "error":
                        self._events.put(
                            ("failed", task.task_id, str(reply.get("error")))
                        )
                        task = None
                        continue
                    if reply.get("op") != "rows" or reply.get("id") != task.task_id:
                        raise CampaignError(f"unexpected worker frame {reply.get('op')!r}")
                    data = base64.b64decode(reply["data"])
                    rows = np.frombuffer(data, dtype=self.dtype).copy()
                    if len(rows) != int(reply["rows"]):
                        raise CampaignError("worker row count mismatch")
                    self._events.put(("done", task.task_id, rows))
                    task = None
        except (OSError, ValueError, KeyError, CampaignError) as exc:
            if task is not None:
                self._events.put(
                    ("failed", task.task_id, f"worker connection lost: {exc}")
                )

    def submit(self, task: Task) -> None:
        self._tasks.put(task)

    def poll(self, timeout: float = 0.2) -> Optional[Tuple[Any, ...]]:
        try:
            return self._events.get(timeout=timeout)
        except queue.Empty:
            return None

    def stop(self) -> None:
        self._stop.set()
        for _ in range(max(1, self.connected)):
            self._tasks.put(None)
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)


def run_tcp_worker(
    host: str,
    port: int,
    *,
    max_tasks: Optional[int] = None,
    on_task: Optional[Callable[[int, int], None]] = None,
) -> int:
    """Serve one TCP campaign worker until shutdown; returns tasks done.

    Connects to a :class:`TcpTransport`, rebuilds the campaign from the
    canonical spec in the hello frame, plans it locally and answers
    ``task`` frames with base64-packed row chunks.  *max_tasks* bounds
    the session (testing hook); *on_task* observes ``(task_id, cells)``.
    """
    with socket.create_connection((host, port)) as sock:
        reader = _LineReader(sock)
        hello = reader.read_frame()
        if hello is None or hello.get("op") != "hello":
            raise CampaignError("campaign server did not greet with hello")
        if hello.get("schema") != TCP_SCHEMA:
            raise CampaignError(f"unknown campaign wire schema {hello.get('schema')!r}")
        cells = _TrialCells(CampaignSpec.from_canonical(hello["spec"]))
        sock.sendall(encode({"op": "ready"}))
        done = 0
        while max_tasks is None or done < max_tasks:
            frame = reader.read_frame()
            if frame is None or frame.get("op") == "shutdown":
                break
            if frame.get("op") != "task":
                raise CampaignError(f"unexpected server frame {frame.get('op')!r}")
            task_cells = [(int(p), int(t)) for p, t in frame["cells"]]
            if on_task is not None:
                on_task(int(frame["id"]), len(task_cells))
            try:
                rows = cells.run(task_cells)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                sock.sendall(encode({"op": "error", "id": int(frame["id"]), "error": error}))
                continue
            data = base64.b64encode(rows.tobytes()).decode("ascii")
            reply = {"op": "rows", "id": int(frame["id"]), "rows": int(len(rows)), "data": data}
            sock.sendall(encode(reply))
            done += 1
        return done


#: The campaign transports by key: each value builds the transport for
#: one campaign, ``factory(spec, workers=..., **transport_options)``.
TRANSPORTS = {"local": LocalTransport, "tcp": TcpTransport}
