"""The newline-delimited-JSON wire protocol of the routing daemon.

One request per line, one response per line, UTF-8 JSON with no embedded
newlines.  Requests are objects with an ``op`` verb and optional ``id``
(echoed verbatim on the response, so pipelined requests can be matched
out of order)::

    {"op": "route", "id": 7, "pairs": [[0, 0, 9, 9], [3, 1, 3, 8]]}
    {"op": "add_faults", "nodes": [[4, 4], [4, 5]]}
    {"op": "status"}

Responses carry ``ok`` plus either the verb's payload or an ``error``
object with a stable ``code`` and a human-readable ``message``::

    {"id": 7, "ok": true, "routes": [...], "version": 3}
    {"ok": false, "error": {"code": "bad-pair", "message": "..."}}

The module is transport-agnostic: :class:`repro.serve.daemon.RouteDaemon`
uses it over asyncio TCP streams, the in-process client skips the byte
layer entirely and exchanges the same dict shapes.  The same framing
stores records on disk: the daemon journal and the campaign manifest
append :func:`encode`-d lines and read them back with
:func:`read_records`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Type

#: Protocol error codes (stable strings, matched by clients and tests).
E_BAD_REQUEST = "bad-request"  #: unparseable line / not a JSON object
E_UNKNOWN_OP = "unknown-op"  #: unrecognised ``op`` verb
E_BAD_PAIR = "bad-pair"  #: malformed or out-of-bounds route endpoints
E_BAD_NODES = "bad-nodes"  #: malformed fault / repair coordinates
E_BAD_LINKS = "bad-links"  #: malformed or non-adjacent link endpoints
E_SHUTTING_DOWN = "shutting-down"  #: request arrived after drain began
E_INTERNAL = "internal"  #: unexpected server-side failure
E_OVERLOADED = "overloaded"  #: admission control shed the request (see ``retry_after``)
E_DEADLINE = "deadline-exceeded"  #: the request's ``deadline_ms`` passed before routing

#: Hard cap on one request line; a line longer than this is rejected
#: instead of buffered (protects the daemon from unbounded payloads).
MAX_LINE_BYTES = 8 * 1024 * 1024


class ProtocolError(ValueError):
    """A rejected request, carrying its protocol error ``code``.

    ``extra`` keys (e.g. the ``retry_after`` hint of an ``overloaded``
    shed) are merged into the response's ``error`` object.
    """

    def __init__(self, code: str, message: str, **extra: Any) -> None:
        super().__init__(message)
        self.code = code
        self.extra = extra


def encode(message: Dict[str, Any]) -> bytes:
    """Serialise one protocol message to a single NDJSON line."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def read_records(
    path: Path, error: Type[Exception], corrupt: str, not_a_record: str
) -> Tuple[List[Tuple[int, Dict[str, Any]]], int]:
    """Read an append-only NDJSON record file written one line per record.

    Every line must be a JSON object with a ``"t"`` tag; blank lines are
    skipped.  An undecodable *final* line is a torn last write: it is
    dropped and counted.  An undecodable line anywhere else raises
    *error* (``"<corrupt> at line N of <path>: ..."``, *not_a_record*
    naming a line that is JSON but no record), because a hole mid-file
    would silently lose what follows it.  Returns the ``(line number,
    record)`` pairs and the number of dropped lines.
    """
    raw_lines = path.read_bytes().split(b"\n")
    if raw_lines and raw_lines[-1] == b"":
        raw_lines.pop()
    records: List[Tuple[int, Dict[str, Any]]] = []
    for index, line in enumerate(raw_lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
            if not isinstance(record, dict) or "t" not in record:
                raise ValueError(not_a_record)
        except (UnicodeDecodeError, ValueError) as exc:
            if index == len(raw_lines) - 1:
                return records, 1
            raise error(f"{corrupt} at line {index + 1} of {path}: {exc}") from None
        records.append((index + 1, record))
    return records, 0


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one request line into a dict, or raise :class:`ProtocolError`."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(E_BAD_REQUEST, f"unparseable request line: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError(E_BAD_REQUEST, "request must be a JSON object")
    return message


def error_response(
    code: str, message: str, request_id: Optional[Any] = None, **extra: Any
) -> Dict[str, Any]:
    """Build the standard error-response shape.

    ``extra`` keys land inside the ``error`` object (e.g. the
    ``retry_after`` backoff hint accompanying an ``overloaded`` shed).
    """
    error: Dict[str, Any] = {"code": code, "message": message}
    error.update(extra)
    response: Dict[str, Any] = {"ok": False, "error": error}
    if request_id is not None:
        response["id"] = request_id
    return response


def ok_response(payload: Dict[str, Any], request_id: Optional[Any] = None) -> Dict[str, Any]:
    """Build a success response around a verb payload."""
    response: Dict[str, Any] = {"ok": True}
    if request_id is not None:
        response["id"] = request_id
    response.update(payload)
    return response
