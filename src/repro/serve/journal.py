"""Crash-recoverable daemon state: NDJSON event journal plus snapshots.

The daemon's session state is a pure function of its topology and the
ordered mutation history, so durability does not need a database: an
append-only file of newline-delimited JSON records -- one snapshot of
the session state up front, one *event* record per applied mutation
(``add_faults`` / ``repair`` / ``add_link_faults``), and a fresh
snapshot every ``snapshot_every`` events so recovery never replays an
unbounded tail -- is enough to rebuild the exact session a crashed
daemon was serving.

Record shapes (one JSON object per line)::

    {"t": "snapshot", "seq": 12, "state": {...}, "idem": [[7, {...}], ...]}
    {"t": "event", "seq": 13, "op": "add_faults", "idem": "c3f1-0",
     "payload": {"added": [[4, 4]], "version": 3, "num_faults": 9}}

Events record the *resolved* mutation -- the nodes actually added or
removed -- not the raw request, so replay applies exactly what the
original daemon applied (link faults replay the endpoint nodes the
mapping chose at the time, idempotent duplicates replay as no-ops).
Snapshots carry the daemon's idempotency cache as ``[idem, payload]``
pairs, so a retried mutating request keeps deduplicating across a crash
and an id keeps its JSON type (``7`` and ``"7"`` stay two ids).  Older
journals stored the cache as an object keyed by the ids' strings; they
still load.

Appends are flushed per record: a ``kill -9`` loses at most the line
being written, and :func:`load_journal` tolerates exactly that -- an
undecodable *final* line is dropped (counted in ``truncated_lines``);
garbage anywhere else raises :class:`JournalError`, because a
mid-journal hole would silently desync the replay.

A journal otherwise grows without bound under a long-lived daemon, so
``max_bytes`` arms rotation: once the file exceeds the cap,
:meth:`Journal.compact` rewrites it as a single fresh snapshot via a
temp file plus :func:`os.replace` -- the swap is atomic, so a crash at
any instant leaves either the full old journal or the complete
compacted one, never a torn mixture.

:meth:`RouteDaemon.recover(path) <repro.serve.daemon.RouteDaemon.recover>`
is the consumer: load the last snapshot, replay the events after it,
verify every event's recorded post-version matches the replayed
session's, and keep appending to the same file.  The recovered session's
:meth:`~repro.api.session.MeshSession.fingerprint` is bit-identical to
an uninterrupted oracle's -- the differential ``tests/
test_serve_resilience.py`` asserts.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.serve.protocol import encode, read_records
from repro.types import is_int_pair

SCHEMA = "repro.serve.journal/v1"

#: Idempotency entries retained in memory and in snapshots (LRU).
IDEM_CACHE_SIZE = 1024


class JournalError(RuntimeError):
    """An unusable journal: mid-file corruption or an inconsistent replay."""


class Journal:
    """Append-only NDJSON journal of daemon mutations and snapshots.

    Opening a path appends to whatever is already there (recovery hands
    the loaded file straight back for continued writing); whether the
    file held records at open time is exposed as :attr:`had_records`, so
    the daemon knows to seed a fresh journal with an initial snapshot.

    ``max_bytes`` arms size-triggered rotation: :meth:`should_compact`
    turns true once the file exceeds the cap, and the owner is expected
    to call :meth:`compact` with its current state.  The journal never
    compacts on its own -- only the daemon knows the authoritative
    state to snapshot.
    """

    def __init__(
        self, path: Union[str, Path], max_bytes: Optional[int] = None
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.had_records = self.path.exists() and self.path.stat().st_size > 0
        self._file = open(self.path, "ab")
        self.seq = 0
        self.events_written = 0
        self.snapshots_written = 0
        self.max_bytes = max_bytes
        self.rotations = 0
        self._closed = False

    def append_event(
        self, op: str, payload: Dict[str, Any], idem: Optional[str] = None
    ) -> None:
        """Journal one applied mutation (flushed before returning)."""
        self.seq += 1
        record: Dict[str, Any] = {"t": "event", "seq": self.seq, "op": op}
        if idem is not None:
            record["idem"] = idem
        record["payload"] = payload
        self._write(record)
        self.events_written += 1

    def _snapshot(
        self, state: Dict[str, Any], idem: Optional[Dict[Any, Any]]
    ) -> Dict[str, Any]:
        """The next snapshot record; *idem* is stored as ``[id, payload]``
        pairs so that every id keeps its JSON type."""
        self.seq += 1
        record: Dict[str, Any] = {
            "t": "snapshot",
            "seq": self.seq,
            "schema": SCHEMA,
            "state": state,
        }
        if idem:
            record["idem"] = [[key, payload] for key, payload in idem.items()]
        return record

    def append_snapshot(
        self, state: Dict[str, Any], idem: Optional[Dict[Any, Any]] = None
    ) -> None:
        """Journal a full state snapshot (future recoveries replay from here)."""
        self._write(self._snapshot(state, idem))
        self.snapshots_written += 1

    def _write(self, record: Dict[str, Any]) -> None:
        if self._closed:
            raise JournalError("journal is closed")
        self._file.write(encode(record))
        # One flush per record: a killed process loses at most the line
        # being written (load_journal drops a truncated tail).
        self._file.flush()

    def size_bytes(self) -> int:
        """Current byte size of the journal file (post-flush, so exact)."""
        return self._file.tell() if not self._closed else self.path.stat().st_size

    def should_compact(self) -> bool:
        """True when ``max_bytes`` is set and the file has outgrown it."""
        return (
            self.max_bytes is not None
            and not self._closed
            and self.size_bytes() > self.max_bytes
        )

    def compact(
        self, state: Dict[str, Any], idem: Optional[Dict[Any, Any]] = None
    ) -> None:
        """Rewrite the journal as one fresh snapshot of *state*.

        The replacement is written to a sibling temp file, fsynced and
        atomically swapped in with :func:`os.replace`; sequence numbers
        keep climbing across the rotation so replay-divergence checks
        stay monotonic.
        """
        if self._closed:
            raise JournalError("journal is closed")
        record = self._snapshot(state, idem)
        tmp_path = self.path.with_name(self.path.name + ".compact")
        with open(tmp_path, "wb") as tmp:
            tmp.write(encode(record))
            tmp.flush()
            os.fsync(tmp.fileno())
        self._file.close()
        os.replace(tmp_path, self.path)
        self._file = open(self.path, "ab")
        self.snapshots_written += 1
        self.rotations += 1

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._file.close()

    def info(self) -> Dict[str, Any]:
        """Counters for the daemon's ``status`` payload."""
        return {
            "path": str(self.path),
            "seq": self.seq,
            "events_written": self.events_written,
            "snapshots_written": self.snapshots_written,
            "size_bytes": self.size_bytes(),
            "max_bytes": self.max_bytes,
            "rotations": self.rotations,
        }


@dataclass
class LoadedJournal:
    """The replayable content of a journal file."""

    #: Session state of the newest intact snapshot.
    state: Dict[str, Any]
    #: Event records after that snapshot, in append order.
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Idempotency cache: snapshot entries plus post-snapshot events.
    idem: "OrderedDict[Any, Dict[str, Any]]" = field(default_factory=OrderedDict)
    #: Highest sequence number seen (appends continue above it).
    seq: int = 0
    #: Undecodable trailing lines dropped (0 or 1: a torn final write).
    truncated_lines: int = 0
    #: Total records parsed, snapshots included.
    records: int = 0


def _field_problem(record: Dict[str, Any]) -> Optional[str]:
    """Why *record*'s ``seq`` or ``idem`` cannot be recovered, else ``None``.

    ``seq`` must be an int >= 0 (not a bool).  An event's ``idem`` is the
    id a client sent, so it may be absent, null or any JSON scalar; it
    keys the idempotency cache, so it must be hashable.  A snapshot's
    ``idem`` is that cache: absent, null, a list of ``[id, payload
    object]`` pairs with scalar ids, or (older journals) an object of
    payload objects.
    """
    seq = record.get("seq")
    if type(seq) is not int or seq < 0:
        return f"seq {seq!r} is not a non-negative int"
    idem = record.get("idem")
    if idem is None:
        return None
    if record["t"] == "snapshot":
        entries = list(idem.items()) if isinstance(idem, dict) else idem
        if not isinstance(entries, list) or not all(
            isinstance(entry, (list, tuple))
            and len(entry) == 2
            and not isinstance(entry[0], (list, dict))
            and isinstance(entry[1], dict)
            for entry in entries
        ):
            return "snapshot idem is neither [idem, payload] pairs nor an object of objects"
    elif isinstance(idem, (list, dict)):
        return f"idem {idem!r} is not a JSON scalar"
    return None


def load_journal(path: Union[str, Path]) -> LoadedJournal:
    """Parse a journal file into its newest snapshot plus the event tail.

    Raises :class:`JournalError` when the file is empty, starts with
    something other than a snapshot, or is corrupt anywhere but the
    final line (a torn final write is dropped and counted).  So does a
    record whose ``seq`` or ``idem`` no daemon writes (see
    :func:`_field_problem`).
    """
    path = Path(path)
    numbered, truncated = read_records(
        path, JournalError, "corrupt journal record", "not a journal record"
    )
    for line, record in numbered:
        problem = _field_problem(record)
        if problem is not None:
            raise JournalError(
                f"malformed journal record at line {line} of {path}: {problem}"
            )
    records = [record for _, record in numbered]
    if not records:
        raise JournalError(f"journal {path} holds no intact records")

    snapshot_at: Optional[int] = None
    for index, record in enumerate(records):
        if record["t"] == "snapshot":
            snapshot_at = index
    if snapshot_at is None:
        raise JournalError(f"journal {path} holds no snapshot record")

    snapshot = records[snapshot_at]
    loaded = LoadedJournal(
        state=snapshot.get("state"),
        seq=max(record["seq"] for record in records),
        truncated_lines=truncated,
        records=len(records),
    )
    entries = snapshot.get("idem") or ()
    # Older journals store the cache as an object keyed by id strings.
    for key, payload in entries.items() if isinstance(entries, dict) else entries:
        loaded.idem[key] = payload
    for record in records[snapshot_at + 1 :]:
        if record["t"] != "event":
            continue
        loaded.events.append(record)
        idem = record.get("idem")
        if idem is not None:
            loaded.idem[idem] = record.get("payload")
            while len(loaded.idem) > IDEM_CACHE_SIZE:
                loaded.idem.popitem(last=False)
    return loaded


def replay_events(session, events: List[Dict[str, Any]]) -> int:
    """Apply journal *events* to *session*, verifying version agreement.

    Events carry the resolved node lists, so replay is transport- and
    mapping-independent: ``repair`` removes the recorded ``removed``
    nodes, everything else adds the recorded ``added`` nodes.  After
    each event the session's version must equal the version the original
    daemon journaled -- a mismatch means the journal and the replay
    diverged, which is unrecoverable, so :class:`JournalError` is raised
    rather than serving silently wrong state.  So is an event whose
    payload is not a dict or whose node list is not a list of ``[x, y]``
    int pairs; a node off the topology raises the session's
    ``ValueError``.  Returns the number of events applied.
    """
    for event in events:
        payload = event.get("payload")
        if not isinstance(payload, dict):
            raise JournalError(f"event at seq {event.get('seq')} has no payload object")
        field_name = "removed" if event.get("op") == "repair" else "added"
        nodes = payload.get(field_name, ())
        if not isinstance(nodes, (list, tuple)) or not all(map(is_int_pair, nodes)):
            raise JournalError(
                f"event at seq {event.get('seq')}: {field_name!r} must be a list "
                "of [x, y] int pairs"
            )
        if field_name == "removed":
            session.remove_faults(nodes)
        else:
            session.add_faults(nodes)
        expected = payload.get("version")
        if expected is not None and session.version != expected:
            raise JournalError(
                f"replay diverged at seq {event.get('seq')}: session version "
                f"{session.version} != journaled {expected}"
            )
    return len(events)
