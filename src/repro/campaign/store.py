"""Append-only chunked columnar store for campaign results.

Layout of one campaign directory::

    manifest.jsonl              # NDJSON: one header record + one per chunk
    chunks/chunk-000001.npy     # NumPy structured array, codec dtype
    chunks/chunk-000002.npy
    ...

The manifest shares the journal's append discipline and record codec
(``encode`` / ``read_records`` of :mod:`repro.serve.protocol`): every
record is one JSON line, flushed (and fsynced) before the append
returns, and the loader tolerates exactly one torn *final* line --
corruption anywhere else raises
:class:`~repro.campaign.spec.CampaignError`.  Chunk files are written,
flushed and fsynced *before* their manifest line, so crash recovery is
trivial: a chunk without a manifest line is an orphan (ignored and
overwritten by the next append at that index); a manifest line without
an intact chunk can only be the final record (the fsync order says so)
and is dropped like a torn line, and the record the next append writes
under its file name supersedes it.

The header pins the campaign fingerprint, canonical spec, dtype and
the kind's code version.  Re-opening verifies the fingerprint and the
row layout, which is what makes ``resume`` safe: a store can only ever
continue the campaign that created it.  A header or chunk record that is
missing a field or holds a malformed one raises ``CampaignError`` naming
it.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Union

import numpy as np

from repro.api.executor import TRIAL_KINDS
from repro.campaign.spec import CampaignError, CampaignSpec
from repro.serve.protocol import encode, read_records

SCHEMA = "repro.campaign.store/v1"


def _dtype_to_wire(dtype: np.dtype) -> List[List[str]]:
    return [[name, dtype.fields[name][0].str] for name in dtype.names]


class CampaignStore:
    """One campaign's on-disk result set (append-only, resumable).

    Use :meth:`create` for a fresh directory and :meth:`open` to resume
    an existing one; the plain constructor is their shared plumbing.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        campaign: CampaignSpec,
        dtype: np.dtype,
        *,
        chunk_records: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        self.directory = Path(directory)
        self.campaign = campaign
        self.dtype = dtype
        self.manifest_path = self.directory / "manifest.jsonl"
        self.chunk_dir = self.directory / "chunks"
        self.chunk_records: List[Dict[str, Any]] = list(chunk_records or [])
        self._file = open(self.manifest_path, "ab")

    # -- lifecycle ------------------------------------------------------------------

    @classmethod
    def create(
        cls, directory: Union[str, Path], campaign: CampaignSpec
    ) -> "CampaignStore":
        """Initialise a fresh store directory (header written and synced)."""
        directory = Path(directory)
        if (directory / "manifest.jsonl").exists():
            raise CampaignError(f"campaign store already exists at {directory}")
        (directory / "chunks").mkdir(parents=True, exist_ok=True)
        dtype = campaign.codec().dtype
        header = {
            "t": "header",
            "schema": SCHEMA,
            "code": TRIAL_KINDS[campaign.kind].version,
            "fingerprint": campaign.fingerprint(),
            "spec": campaign.canonical(),
            "dtype": _dtype_to_wire(dtype),
            "total_trials": campaign.total_trials,
        }
        store = cls(directory, campaign, dtype)
        store._append_manifest(header)
        return store

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        campaign: Optional[CampaignSpec] = None,
    ) -> "CampaignStore":
        """Open an existing store, verifying it belongs to *campaign*.

        With ``campaign=None`` the spec is rebuilt from the manifest
        header (status/reduce tooling).  A later record for a chunk file
        supersedes an earlier one.  A chunk whose file is missing or
        unreadable is dropped if it is the final record (crash tail), and
        fatal anywhere else.
        """
        directory = Path(directory)
        manifest_path = directory / "manifest.jsonl"
        if not manifest_path.exists():
            raise CampaignError(f"no campaign store at {directory}")
        records = _load_manifest(manifest_path)
        header = records[0]
        if header.get("t") != "header" or header.get("schema") != SCHEMA:
            raise CampaignError(f"{manifest_path} does not start with a store header")
        for name in ("fingerprint", "spec", "dtype"):
            if name not in header:
                raise CampaignError(f"{manifest_path} header has no {name!r} field")
        if campaign is None:
            campaign = CampaignSpec.from_canonical(header["spec"])
        if header["fingerprint"] != campaign.fingerprint():
            raise CampaignError(
                f"campaign store at {directory} belongs to fingerprint "
                f"{header['fingerprint']!r}, not {campaign.fingerprint()!r} "
                "-- refusing to mix results"
            )
        dtype = campaign.codec().dtype
        if header["dtype"] != _dtype_to_wire(dtype):
            raise CampaignError(
                f"{manifest_path} header field 'dtype' is not the {campaign.kind} "
                "campaign's row layout"
            )
        chunk_records = [r for r in records[1:] if r.get("t") == "chunk"]
        for record in chunk_records:
            if not isinstance(record.get("file"), str) or type(record.get("rows")) is not int:
                raise CampaignError(
                    f"{manifest_path} chunk record {record.get('seq')!r} needs a "
                    "'file' name and a 'rows' count"
                )
        # A resume appends under the file name of a dropped crash tail, so
        # the later record for a file replaces the earlier one in place.
        chunk_records = list({record["file"]: record for record in chunk_records}.values())
        intact = [_chunk_intact(directory / r["file"], dtype, r["rows"]) for r in chunk_records]
        # The fsync ordering guarantees every recorded chunk is intact on
        # disk except possibly the last one.
        if intact and not intact[-1]:
            chunk_records.pop()
            intact.pop()
        if not all(intact):
            raise CampaignError(
                f"campaign chunk {chunk_records[intact.index(False)]['file']!r} is "
                f"missing or corrupt mid-store at {directory}"
            )
        return cls(directory, campaign, dtype, chunk_records=chunk_records)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- appends --------------------------------------------------------------------

    def _append_manifest(self, record: Dict[str, Any]) -> None:
        self._file.write(encode(record))
        self._file.flush()
        os.fsync(self._file.fileno())

    def append_rows(self, rows: np.ndarray) -> Dict[str, Any]:
        """Durably append one chunk of rows; returns its manifest record.

        The chunk file is fully on disk (fsynced) before its manifest
        line is appended -- the crash-safety invariant the loader leans
        on.  An orphan file left at this index by an earlier crash is
        simply overwritten.
        """
        if rows.dtype != self.dtype:
            raise CampaignError("chunk dtype does not match the campaign store")
        if len(rows) == 0:
            raise CampaignError("refusing to append an empty chunk")
        index = len(self.chunk_records) + 1
        name = f"chunks/chunk-{index:06d}.npy"
        path = self.directory / name
        with open(path, "wb") as chunk_file:
            np.save(chunk_file, rows)
            chunk_file.flush()
            os.fsync(chunk_file.fileno())
        record = {"t": "chunk", "seq": index, "file": name, "rows": int(len(rows))}
        self._append_manifest(record)
        self.chunk_records.append(record)
        return record

    # -- reads ----------------------------------------------------------------------

    def iter_chunks(self) -> Iterator[np.ndarray]:
        """The recorded chunks, in append order."""
        for record in self.chunk_records:
            yield np.load(self.directory / str(record["file"]))

    @property
    def rows_stored(self) -> int:
        """Total rows across recorded chunks (duplicates included)."""
        return sum(int(record["rows"]) for record in self.chunk_records)

    def completed_keys(self) -> Set[str]:
        """The content keys of every stored trial (the skip set)."""
        keys: Set[str] = set()
        for chunk in self.iter_chunks():
            keys.update(key.decode("ascii") for key in chunk["key"])
        return keys

    def info(self) -> Dict[str, Any]:
        """Progress counters for status reporting."""
        return {
            "directory": str(self.directory),
            "fingerprint": self.campaign.fingerprint(),
            "kind": self.campaign.kind,
            "chunks": len(self.chunk_records),
            "rows": self.rows_stored,
            "total_trials": self.campaign.total_trials,
        }


def _chunk_intact(path: Path, dtype: np.dtype, rows: int) -> bool:
    """True when *path* loads as *rows* records of *dtype*."""
    try:
        data = np.load(path)
    except (OSError, ValueError):
        return False
    return data.dtype == dtype and len(data) == rows


def _load_manifest(path: Path) -> List[Dict[str, Any]]:
    """Parse manifest records, dropping at most one torn final line."""
    numbered, _ = read_records(
        path, CampaignError, "corrupt campaign manifest", "not a manifest record"
    )
    records = [record for _, record in numbered]
    if not records:
        raise CampaignError(f"campaign manifest {path} holds no intact records")
    return records
