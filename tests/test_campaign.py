"""Campaign fabric tests: content identity, store crash-safety, resume.

The load-bearing guarantees:

* **Bit-identity** -- a campaign's reduced sweep points equal the
  in-memory ``SweepExecutor`` results exactly, for all three trial
  kinds, whether the campaign ran uninterrupted, was resumed after a
  simulated interruption (``max_tasks``), or after a real ``kill -9``.
* **Content addressing** -- trial keys are stable across processes,
  independent of axis position (a superset campaign reuses shared
  trials), and perf-only knobs never change a fingerprint.
* **Crash-safe store** -- a torn manifest tail and orphan chunk files
  are tolerated and resumed over; mid-store corruption and foreign
  fingerprints are refused.
* **Failure detection** -- a worker dying mid-task is detected and its
  task rescheduled onto a fresh worker; the campaign still completes
  with identical results.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import TRIAL_KINDS, SweepExecutor
from repro.campaign import (
    CampaignError,
    CampaignRunner,
    CampaignSpec,
    CampaignStore,
    TRANSPORTS,
    StreamingReducer,
    TcpTransport,
    campaign_status,
    fold_moments,
    format_status,
    run_tcp_worker,
)

#: Small, fast campaign definitions per kind: (spec builder, executor call).
KIND_CASES = {
    "construction": dict(
        spec=lambda: CampaignSpec.create(
            "construction", [4, 8], 3, models=("fb", "fp", "mfp"), width=16,
            include_rounds=False,
        ),
        baseline=lambda ex: ex.run([4, 8], 3, width=16, include_rounds=False),
        models=("fb", "fp", "mfp"),
    ),
    "routing": dict(
        spec=lambda: CampaignSpec.create(
            "routing", [4], 2, models=("fb", "fp", "mfp"), width=12, messages=40
        ),
        baseline=lambda ex: ex.run([4], 2, kind="routing", width=12, messages=40),
        models=("fb", "fp", "mfp"),
    ),
    "latency": dict(
        spec=lambda: CampaignSpec.create(
            "latency", [0.02], 2, models=("fb", "mfp"), width=8, cycles=32
        ),
        baseline=lambda ex: ex.run([0.02], 2, kind="latency", width=8, cycles=32),
        models=("fb", "mfp"),
    ),
}


def _executor(kind: str) -> SweepExecutor:
    return SweepExecutor(KIND_CASES[kind]["models"], workers=1)


# -- identity ------------------------------------------------------------------------


def test_registries_expose_builtins():
    assert {"construction", "routing", "latency"} <= set(TRIAL_KINDS)
    assert {"local", "tcp"} <= set(TRANSPORTS)


#: Store columns shared by every kind, then the per-model columns of each
#: kind (format strings as ``np.dtype.str`` spells them).
_ID_COLUMNS = [
    ["key", "|S32"], ["point", "<i4"], ["trial", "<i4"], ["seed", "<i8"],
    ["x", "<f8"], ["distribution", "|S32"],
]
_MODEL_COLUMNS = {
    "construction": [
        ["num_regions", "<i8"], ["disabled_nonfaulty", "<i8"],
        ["mean_region_size", "<f8"], ["rounds", "<i8"],
    ],
    "routing": [
        ["enabled", "<i8"], ["attempted", "<i8"], ["delivered", "<i8"],
        ["delivery_rate", "<f8"], ["mean_hops", "<f8"], ["mean_detour", "<f8"],
        ["minimal_fraction", "<f8"], ["abnormal_fraction", "<f8"],
    ],
    "latency": [
        ["sim", "|S16"], ["enabled", "<i8"], ["attempted", "<i8"],
        ["unroutable", "<i8"], ["delivered", "<i8"], ["in_flight", "<i8"],
        ["cycles_run", "<i8"], ["delivery_rate", "<f8"], ["mean_latency", "<f8"],
        ["mean_queueing", "<f8"], ["mean_hops", "<f8"], ["accepted_load", "<f8"],
        ["saturated", "|i1"], ["deadlocked", "|i1"],
    ],
}

#: Content identity of the KIND_CASES campaigns: (fingerprint, sha256 of
#: the concatenated trial keys in plan order, model labels).  Pinned from
#: the release that wrote ``benchmarks/results/campaign_100k``; a change
#: here orphans every existing store.
PINNED_IDENTITY = {
    "construction": (
        "19b78557c0935afb56cf2278c322c75d0b64f481d1716cea7ae5d2540d839bbf",
        "373db0b80e6043f1cb2242c1091799c098953ade11b23103b59930155fd221b3",
        ("FB", "FP", "MFP"),
    ),
    "routing": (
        "618db867fb5eaa1ca7532e88d1cdd4c8c767e9d3c69a59e83817b95029ea75be",
        "b41d16afef9e729a919288de79e0cd6e8fa6005e42aecb2311baa0ea797da634",
        ("FB", "FP", "MFP"),
    ),
    "latency": (
        "7b8bc8e252c4887d0890f77d9c02c4996f778d4114ada833df2e0bd1e46f5018",
        "8bc5e8d1e48b6fcd770ff81ac54f4485565b20467ec449d3c47f8a101de3d85d",
        ("FB", "MFP"),
    ),
}


def _wire_dtype(spec):
    dtype = spec.codec().dtype
    return [[name, dtype.fields[name][0].str] for name in dtype.names]


@pytest.mark.parametrize("kind", sorted(KIND_CASES))
def test_pinned_campaign_identity(kind):
    fingerprint, keys_digest, labels = PINNED_IDENTITY[kind]
    spec = KIND_CASES[kind]["spec"]()
    keys = "".join(d.key for d in spec.plan())
    assert spec.fingerprint() == fingerprint
    assert hashlib.sha256(keys.encode("ascii")).hexdigest() == keys_digest
    assert _wire_dtype(spec) == _ID_COLUMNS + [
        [f"{label}.{name}", fmt]
        for label in labels
        for name, fmt in _MODEL_COLUMNS[kind]
    ]


#: Manifest fingerprints of campaigns built by ``SweepExecutor.run(...,
#: campaign=dir)``, which spells out every parameter plus ``base_seed``.
PINNED_EXECUTOR_FINGERPRINTS = {
    "construction": "cb29d1d159066667383a6a047b65c770cbdc95e569c4a7caafc822e2dd4f8072",
    "routing": "eea486e551cb0d3f76f7eed2acfadd9b869e338b954d93d5ab6bb11bf89a14c4",
    "latency": "01e39d0987e10d2804112d8c2c0ed4c200642a326d8b43496a6867efe52133e1",
}


#: ``SweepExecutor(models).run(axis, 1, kind=..., **params, campaign=dir)``
#: calls behind PINNED_EXECUTOR_FINGERPRINTS: (models, axis, params).
EXECUTOR_CAMPAIGNS = {
    "construction": (("fb", "fp", "mfp"), [4], dict(width=8, include_rounds=False)),
    "routing": (("fb", "fp", "mfp"), [4], dict(width=8, messages=10)),
    "latency": (("mfp",), [0.02], dict(width=6, cycles=16)),
}


@pytest.fixture(scope="module")
def executor_stores(tmp_path_factory):
    """The store of each EXECUTOR_CAMPAIGNS run, by kind."""
    stores = {}
    for kind, (models, axis, params) in EXECUTOR_CAMPAIGNS.items():
        stores[kind] = tmp_path_factory.mktemp(kind) / "store"
        SweepExecutor(models).run(axis, 1, kind=kind, campaign=stores[kind], **params)
    return stores


@pytest.mark.parametrize("kind", sorted(PINNED_EXECUTOR_FINGERPRINTS))
def test_pinned_executor_campaign_fingerprints(executor_stores, kind):
    manifest = executor_stores[kind] / "manifest.jsonl"
    header = json.loads(manifest.read_text().splitlines()[0])
    assert header["fingerprint"] == PINNED_EXECUTOR_FINGERPRINTS[kind]


#: Per kind, ``(TRIAL_KINDS[kind].version, digest of the rows its
#: EXECUTOR_CAMPAIGNS run stores)``.  The digest leaves out the ``key``
#: column, which hashes the version, so a bump alone does not move it.  A
#: change that moves a kind's rows bumps that kind's version and re-pins
#: both here, with a CHANGES.md line.
PINNED_KIND_ROWS = {
    "construction": (
        "repro-1.1.0+campaign.1",
        "fb2218d887bf3ffee5f1e2bd5a1197276519c798ffdfd0be79f6952f6659d36d",
    ),
    "routing": (
        "repro-1.1.0+routing.2",
        "194c932db855a10eae3cf7d831b72c1a1dbb35dd01a67e1f54ed96ea9bb670ad",
    ),
    "latency": (
        "repro-1.1.0+latency.2",
        "235772aa3173c187d81ccd1a9134937f76205685c1f6688b57f5abbb5ed7400e",
    ),
}


def _rows_digest(store_dir):
    """sha256 of a store's rows, column by column, ``key`` left out.

    Column by column: a multi-field view of a structured array would
    still carry the dropped column's bytes.
    """
    with CampaignStore.open(store_dir) as store:
        rows = np.concatenate(list(store.iter_chunks()))
    digest = hashlib.sha256()
    for name in rows.dtype.names:
        if name != "key":
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(rows[name]).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(PINNED_KIND_ROWS))
def test_kind_version_moves_with_its_rows(executor_stores, kind):
    """A kind's rows change only together with its code version, so a
    resumed store never mixes rows of two behaviours under one key."""
    pinned_version, pinned_digest = PINNED_KIND_ROWS[kind]
    version, digest = TRIAL_KINDS[kind].version, _rows_digest(executor_stores[kind])
    assert digest == pinned_digest or version != pinned_version, (
        f"the {kind} rows moved but TRIAL_KINDS[{kind!r}].version is still "
        f"{version!r}: bump it, then re-pin PINNED_KIND_ROWS[{kind!r}]"
    )
    assert (version, digest) == (pinned_version, pinned_digest), (
        f"TRIAL_KINDS[{kind!r}].version moved: re-pin PINNED_KIND_ROWS[{kind!r}] "
        "and the kind's identity pins"
    )


def test_committed_100k_header_rederives():
    """The committed artifact's spec still hashes to its fingerprint and
    still lays its rows out in the stored dtype."""
    manifest = (
        Path(__file__).parent.parent
        / "benchmarks" / "results" / "campaign_100k" / "manifest.jsonl"
    )
    header = json.loads(manifest.read_text().splitlines()[0])
    spec = CampaignSpec.from_canonical(header["spec"])
    assert spec.fingerprint() == header["fingerprint"]
    assert _wire_dtype(spec) == header["dtype"]


def test_latency_arrival_options_survive_reopen(tmp_path):
    """``arrival_options`` revive through the arrival process the trial
    spec defaults to (poisson), so the store reopens without a spec."""
    from repro.routing.traffic import get_traffic

    spec = CampaignSpec.create(
        "latency", [0.02], 1, models=("mfp",), width=8, cycles=16,
        arrival_options=get_traffic("poisson").make_options(None, {}),
    )
    revived = CampaignSpec.from_canonical(spec.canonical())
    assert revived.fingerprint() == spec.fingerprint()
    CampaignStore.create(tmp_path / "store", spec).close()
    reopened = CampaignStore.open(tmp_path / "store")
    reopened.close()
    assert reopened.campaign.fingerprint() == spec.fingerprint()


def test_trial_keys_shared_by_extended_campaigns():
    """Appending axis points or raising trials reuses existing keys.

    The trial seed encodes (point index, trial), so a campaign extended
    at the end of its axis -- or deepened with more trials per point --
    plans a strict superset of the original keys (add-more-data without
    re-running what is stored)."""
    narrow = CampaignSpec.create(
        "construction", [4], 2, models=("fb", "fp", "mfp"), width=16, include_rounds=False
    )
    wide = CampaignSpec.create(
        "construction", [4, 8], 3, models=("fb", "fp", "mfp"), width=16, include_rounds=False
    )
    narrow_keys = {d.key for d in narrow.plan()}
    wide_keys = {d.key for d in wide.plan()}
    assert narrow_keys and narrow_keys < wide_keys
    assert len(wide_keys) == wide.total_trials


def test_trial_keys_stable_across_processes(tmp_path):
    spec = KIND_CASES["construction"]["spec"]()
    local_keys = [d.key for d in spec.plan()]
    script = textwrap.dedent(
        """
        import json, sys
        from repro.campaign import CampaignSpec
        spec = CampaignSpec.create(
            "construction", [4, 8], 3, models=("fb", "fp", "mfp"), width=16, include_rounds=False
        )
        print(json.dumps([d.key for d in spec.plan()]))
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    assert json.loads(out.stdout) == local_keys


def test_fingerprint_excludes_perf_knobs():
    plain = CampaignSpec.create("latency", [0.02], 2, width=8, num_faults=4, cycles=32)
    scalar = CampaignSpec.create(
        "latency", [0.02], 2, width=8, num_faults=4, cycles=32, sim="scalar"
    )
    assert plain.fingerprint() == scalar.fingerprint()
    assert [d.key for d in plain.plan()] == [d.key for d in scalar.plan()]
    with pytest.raises(KeyError, match="simulator"):
        CampaignSpec.create("latency", [0.02], 2, width=8, sim="loop")


def test_fingerprint_changes_with_results():
    base = CampaignSpec.create("construction", [4], 2, width=16, include_rounds=False)
    other = CampaignSpec.create("construction", [4], 2, width=20, include_rounds=False)
    assert base.fingerprint() != other.fingerprint()


def test_spec_round_trips_canonical():
    spec = CampaignSpec.create("routing", [4, 8], 2, width=12, messages=40, router="extended-ecube")
    revived = CampaignSpec.from_canonical(spec.canonical())
    assert revived.fingerprint() == spec.fingerprint()
    with pytest.raises(CampaignError, match="unknown campaign kind"):
        CampaignSpec.from_canonical({**spec.canonical(), "kind": "nope"})


def test_bad_registry_key_fails_at_build_time():
    with pytest.raises(KeyError):
        CampaignSpec.create("routing", [4], 1, width=12, router="no-such-router")


# -- store crash-safety --------------------------------------------------------------


def test_store_refuses_foreign_fingerprint(tmp_path):
    spec_a = CampaignSpec.create("construction", [4], 1, width=16, include_rounds=False)
    spec_b = CampaignSpec.create("construction", [8], 1, width=16, include_rounds=False)
    CampaignStore.create(tmp_path / "store", spec_a).close()
    with pytest.raises(CampaignError, match="fingerprint"):
        CampaignStore.open(tmp_path / "store", spec_b)


def test_store_tolerates_torn_manifest_tail(tmp_path):
    spec = KIND_CASES["construction"]["spec"]()
    runner = CampaignRunner(spec, tmp_path / "store", chunk_trials=2)
    summary = runner.run()
    runner.close()
    assert summary["complete"]
    manifest = tmp_path / "store" / "manifest.jsonl"
    with open(manifest, "ab") as handle:
        handle.write(b'{"t": "chunk", "se')  # torn mid-write
    resumed = CampaignRunner(None, tmp_path / "store")
    assert resumed.run()["skipped"] == spec.total_trials
    resumed.close()


def test_store_midfile_corruption_is_fatal(tmp_path):
    spec = KIND_CASES["construction"]["spec"]()
    runner = CampaignRunner(spec, tmp_path / "store", chunk_trials=2)
    runner.run()
    runner.close()
    manifest = tmp_path / "store" / "manifest.jsonl"
    lines = manifest.read_bytes().splitlines(keepends=True)
    assert len(lines) >= 3
    lines[1] = b"garbage!!!\n"
    manifest.write_bytes(b"".join(lines))
    with pytest.raises(CampaignError, match="corrupt"):
        CampaignStore.open(tmp_path / "store")


@pytest.fixture(scope="module")
def routing_store(tmp_path_factory):
    """A finished one-chunk routing campaign store."""
    store = tmp_path_factory.mktemp("routing") / "store"
    spec = CampaignSpec.create("routing", [4], 1, models=("mfp",), width=8, messages=10)
    runner = CampaignRunner(spec, store)
    runner.run()
    runner.close()
    return store


def _rewrite_manifest(store, edit):
    """Apply ``edit(header, chunk_records)`` to a store's manifest in place."""
    manifest = Path(store) / "manifest.jsonl"
    header, *chunks = [json.loads(line) for line in manifest.read_text().splitlines()]
    edit(header, chunks)
    manifest.write_text("".join(json.dumps(record) + "\n" for record in [header, *chunks]))


#: Manifest edits no store of this build can hold, and the text the
#: CampaignError they raise must hold (the field it names).
MALFORMED_MANIFESTS = {
    "header-without-dtype": (lambda h, c: h.pop("dtype"), "'dtype'"),
    "header-without-spec": (lambda h, c: h.pop("spec"), "'spec'"),
    "chunk-without-rows": (lambda h, c: c[0].pop("rows"), "'rows'"),
    "axis-not-a-list": (lambda h, c: h["spec"].update(axis=5), "'axis'"),
    "axis-not-finite": (lambda h, c: h["spec"].update(axis=[4, float("inf")]), "'axis'"),
    "trials-not-an-int": (lambda h, c: h["spec"].update(trials="x"), "'trials'"),
    "spec-is-a-list": (lambda h, c: h.update(spec=[1, 2]), "spec is a list"),
    "params-not-an-object": (lambda h, c: h["spec"].update(params=[1, 2]), "'params'"),
    "option-with-unknown-field": (
        lambda h, c: h["spec"]["params"].update(
            traffic_options={"__type__": "UniformOptions", "bogus": 1}
        ),
        "'traffic_options'",
    ),
    "spec-without-kind": (lambda h, c: h["spec"].pop("kind"), "campaign kind None"),
    "foreign-code-version": (
        lambda h, c: h["spec"].update(code="repro-1.1.0+campaign.1"),
        "routing campaign code version 'repro-1.1.0\\+campaign.1' does not match "
        "this build's 'repro-1.1.0\\+routing.2'",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_raises_campaign_error(routing_store, tmp_path, case):
    """The manifest parse is total: every malformed header, spec or chunk
    record raises CampaignError naming the field, from the spec parse and
    from every command that opens the store."""
    edit, names = MALFORMED_MANIFESTS[case]
    store = tmp_path / "store"
    shutil.copytree(routing_store, store)
    _rewrite_manifest(store, edit)
    original, header = (
        json.loads((path / "manifest.jsonl").read_text().splitlines()[0])
        for path in (routing_store, store)
    )
    if "spec" in header and header["spec"] != original["spec"]:
        with pytest.raises(CampaignError, match=names):
            CampaignSpec.from_canonical(header["spec"])
    with pytest.raises(CampaignError, match=names):
        campaign_status(store)
    with pytest.raises(CampaignError, match=names):
        CampaignRunner(None, store)


def test_store_drops_chunk_recorded_but_not_intact(tmp_path):
    """A manifest line whose chunk file is torn can only be the crash
    tail; the loader drops it and the runner re-runs those trials."""
    spec = KIND_CASES["construction"]["spec"]()
    runner = CampaignRunner(spec, tmp_path / "store", chunk_trials=2)
    runner.run()
    runner.close()
    store = CampaignStore.open(tmp_path / "store")
    last = store.chunk_records[-1]
    store.close()
    (tmp_path / "store" / last["file"]).write_bytes(b"torn")
    resumed = CampaignRunner(None, tmp_path / "store")
    summary = resumed.run()
    assert summary["executed"] == int(last["rows"])
    assert summary["complete"]
    resumed.close()


def test_store_orphan_chunk_overwritten(tmp_path):
    spec = KIND_CASES["construction"]["spec"]()
    partial = CampaignRunner(spec, tmp_path / "store", chunk_trials=2, max_tasks=1)
    partial.run()
    partial.close()
    store = CampaignStore.open(tmp_path / "store")
    orphan_index = len(store.chunk_records) + 1
    store.close()
    # A crash after the chunk fsync but before the manifest line leaves
    # exactly this: a chunk file no manifest record points at.
    orphan = tmp_path / "store" / "chunks" / f"chunk-{orphan_index:06d}.npy"
    orphan.write_bytes(b"orphaned partial write")
    resumed = CampaignRunner(None, tmp_path / "store", chunk_trials=2)
    summary = resumed.run()
    assert summary["complete"]
    resumed.close()
    points = CampaignRunner(None, tmp_path / "store").sweep_points()
    baseline = KIND_CASES["construction"]["baseline"](_executor("construction"))
    assert points == baseline


@pytest.fixture(scope="module")
def six_chunk_store(tmp_path_factory):
    """A finished construction store of six two-trial chunks, and its points."""
    store = tmp_path_factory.mktemp("six-chunks") / "store"
    spec = CampaignSpec.create("construction", [4, 8], 6, width=8)
    runner = CampaignRunner(spec, store, chunk_trials=2)
    assert runner.run()["complete"]
    points = runner.sweep_points()
    runner.close()
    assert len(list((store / "chunks").iterdir())) == 6
    return store, points


def _copy_losing_chunks(source, target, lost):
    """Copy a store and delete its last *lost* chunk files."""
    shutil.copytree(source, target)
    chunks = sorted((target / "chunks").iterdir())
    for path in chunks[len(chunks) - lost :]:
        path.unlink()
    return [f"chunks/{path.name}" for path in chunks]


@pytest.mark.parametrize("chunk_trials", [2, 1])
def test_lost_final_chunk_resumes_to_one_record_per_file(six_chunk_store, tmp_path, chunk_trials):
    """Only the final chunk is the crash tail: open keeps the others, resume
    re-runs exactly its trials, and the record the resume writes under the
    same file name replaces the dropped one, whatever its chunk size."""
    source, points = six_chunk_store
    store_dir = tmp_path / "store"
    files = _copy_losing_chunks(source, store_dir, 1)
    store = CampaignStore.open(store_dir)
    assert [record["file"] for record in store.chunk_records] == files[:-1]
    store.close()

    resumed = CampaignRunner(None, store_dir, chunk_trials=chunk_trials)
    summary = resumed.run()
    resumed.close()
    assert summary["executed"] == 2 and summary["complete"]

    status = campaign_status(store_dir)
    assert status["complete"]
    assert status["rows"] == status["total_trials"] == 12
    assert status["chunks"] == (6 if chunk_trials == 2 else 7)
    reopened = CampaignStore.open(store_dir)
    chunk_files = [record["file"] for record in reopened.chunk_records]
    reopened.close()
    assert len(chunk_files) == len(set(chunk_files)) == status["chunks"]
    assert CampaignRunner(None, store_dir).sweep_points() == points


def test_lost_chunks_before_the_tail_are_refused(six_chunk_store, tmp_path, capsys):
    """Two lost chunks cannot both be the crash tail: open, and every
    command, name the second-to-last instead of dropping it."""
    from repro.cli import main

    store_dir = tmp_path / "store"
    files = _copy_losing_chunks(six_chunk_store[0], store_dir, 2)
    with pytest.raises(CampaignError, match=f"'{files[-2]}' is missing or corrupt mid-store"):
        CampaignStore.open(store_dir)
    with pytest.raises(CampaignError, match="mid-store"):
        CampaignRunner(None, store_dir)
    assert main(["campaign", "status", str(store_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("campaign error: ")
    assert files[-2] in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


# -- bit-identity --------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(KIND_CASES))
def test_campaign_matches_in_memory_exactly(tmp_path, kind):
    case = KIND_CASES[kind]
    runner = CampaignRunner(case["spec"](), tmp_path / "store", chunk_trials=2)
    summary = runner.run()
    points = runner.sweep_points()
    runner.close()
    assert summary["complete"]
    assert points == case["baseline"](_executor(kind))


@pytest.mark.parametrize("kind", sorted(KIND_CASES))
def test_interrupted_resume_is_bit_identical(tmp_path, kind):
    case = KIND_CASES[kind]
    partial = CampaignRunner(
        case["spec"](), tmp_path / "store", chunk_trials=1, max_tasks=1
    )
    first = partial.run()
    partial.close()
    assert not first["complete"]
    assert 0 < first["executed"] < case["spec"]().total_trials

    resumed = CampaignRunner(None, tmp_path / "store", chunk_trials=1)
    second = resumed.run()
    points = resumed.sweep_points()
    resumed.close()
    assert second["complete"]
    assert second["skipped"] == first["executed"]
    assert points == case["baseline"](_executor(kind))


def test_rerun_skips_every_trial(tmp_path):
    spec = KIND_CASES["construction"]["spec"]()
    CampaignRunner(spec, tmp_path / "store").run()
    rerun = CampaignRunner(spec, tmp_path / "store")
    summary = rerun.run()
    rerun.close()
    assert summary["executed"] == 0
    assert summary["skipped"] == summary["planned"] == spec.total_trials


def _proc_stat(pid):
    """``/proc/<pid>/stat`` fields after the command name, or ``None``.

    Index 0 is the state, 1 the parent pid, 19 the start time.
    """
    try:
        stat = Path("/proc", str(pid), "stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()


def _children(pid):
    """``{child pid: start time}`` for the processes whose parent is *pid*."""
    children = {}
    for entry in os.listdir("/proc"):
        fields = _proc_stat(entry) if entry.isdigit() else None
        if fields is not None and int(fields[1]) == pid:
            children[int(entry)] = fields[19]
    return children


def _gone_or_zombie(pid, start_time):
    fields = _proc_stat(pid)
    return fields is None or fields[19] != start_time or fields[0] == "Z"


def test_kill9_mid_campaign_resume_bit_identical(tmp_path):
    """A real SIGKILL mid-flight loses at most the chunk being written;
    resuming completes the campaign with bit-identical reduced points, and
    the killed runner's workers exit instead of waiting forever."""
    store_dir = tmp_path / "store"
    script = textwrap.dedent(
        """
        import sys
        from repro.campaign import CampaignRunner, CampaignSpec
        spec = CampaignSpec.create(
            "construction", [6, 12], 60, models=("fb", "fp", "mfp"), width=20,
            include_rounds=False,
        )
        CampaignRunner(spec, sys.argv[1], workers=1, chunk_trials=2).run()
        """
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script, str(store_dir)],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    manifest = store_dir / "manifest.jsonl"
    on_proc = Path("/proc/self/stat").exists()
    children = {}
    deadline = time.time() + 60
    try:
        while time.time() < deadline:
            if proc.poll() is not None:
                break
            if manifest.exists() and manifest.read_bytes().count(b'"chunk"') >= 2:
                if on_proc:
                    children = _children(proc.pid)
                proc.send_signal(signal.SIGKILL)
                break
            time.sleep(0.005)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    if on_proc and proc.returncode == -signal.SIGKILL:
        assert children, "the runner had no worker process to orphan"
        deadline = time.time() + 10
        while time.time() < deadline and not all(
            _gone_or_zombie(pid, start) for pid, start in children.items()
        ):
            time.sleep(0.05)
        orphans = [pid for pid, start in children.items() if not _gone_or_zombie(pid, start)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        assert not orphans, f"workers outlived their killed runner: {orphans}"

    spec = CampaignSpec.create(
        "construction", [6, 12], 60, models=("fb", "fp", "mfp"), width=20, include_rounds=False
    )
    resumed = CampaignRunner(spec, store_dir, workers=1, chunk_trials=2)
    summary = resumed.run()
    points = resumed.sweep_points()
    resumed.close()
    assert summary["complete"]
    if proc.returncode == -signal.SIGKILL:
        # The interruption landed: the resume had stored work to skip.
        assert summary["skipped"] > 0

    executor = SweepExecutor(("fb", "fp", "mfp"), workers=1)
    baseline = executor.run([6, 12], 60, width=20, include_rounds=False)
    assert points == baseline


# -- failure detection ---------------------------------------------------------------


def test_dead_worker_task_is_rescheduled(tmp_path, monkeypatch):
    """A worker killed mid-task (os._exit) is detected and replaced."""
    original = TRIAL_KINDS["construction"]
    flag = tmp_path / "crashed-once"

    def crash_once(spec):
        if not flag.exists():
            flag.touch()
            # Let the queue feeder flush the "start" event so the parent
            # knows which task died with us (the task_timeout below
            # backstops the race either way).
            time.sleep(0.2)
            os._exit(9)
        return original.runner(spec)

    # Forked workers inherit the patched table.
    monkeypatch.setitem(
        TRIAL_KINDS, "construction", dataclasses.replace(original, runner=crash_once)
    )
    spec = KIND_CASES["construction"]["spec"]()
    runner = CampaignRunner(
        spec,
        tmp_path / "store",
        workers=2,
        chunk_trials=1,
        task_timeout=10.0,
        transport_options={
            "heartbeat_interval": 0.05,
            "heartbeat_timeout": 2.0,
        },
    )
    summary = runner.run()
    points = runner.sweep_points()
    runner.close()
    monkeypatch.undo()
    assert summary["complete"]
    assert summary["rescheduled"] >= 1
    assert points == KIND_CASES["construction"]["baseline"](
        _executor("construction")
    )


def test_tcp_transport_bit_identical(tmp_path):
    spec = KIND_CASES["construction"]["spec"]()
    transport = TcpTransport(spec)
    transport.start()
    transport.start()  # idempotent: CLI pre-starts to print the port
    host, port = transport.address
    workers = [
        threading.Thread(target=run_tcp_worker, args=(host, port), daemon=True)
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    runner = CampaignRunner(
        spec, tmp_path / "store", transport=transport, chunk_trials=1
    )
    summary = runner.run()
    points = runner.sweep_points()
    runner.close()
    for worker in workers:
        worker.join(timeout=10)
    assert summary["complete"]
    assert points == KIND_CASES["construction"]["baseline"](
        _executor("construction")
    )


def test_tcp_worker_rejects_malformed_frame():
    """A frame that is not UTF-8 JSON fails the worker with CampaignError."""
    import socket

    server = socket.create_server(("127.0.0.1", 0))
    host, port = server.getsockname()[:2]

    def serve():
        conn, _ = server.accept()
        with conn:
            conn.settimeout(10)
            conn.sendall(b"\xff\xfe not json\n")
            conn.recv(1)  # returns once the worker hangs up

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        with pytest.raises(CampaignError):
            run_tcp_worker(host, port)
    finally:
        thread.join(timeout=10)
        server.close()
    assert not thread.is_alive()


# -- streaming reduction -------------------------------------------------------------


def test_moments_match_numpy():
    rng = np.random.default_rng(5)
    values = rng.normal(3.0, 2.0, size=257)
    moments = fold_moments(float(value) for value in values)
    assert moments.count == len(values)
    assert moments.mean == pytest.approx(float(np.mean(values)), abs=1e-12)
    assert moments.variance == pytest.approx(
        float(np.var(values, ddof=1)), abs=1e-10
    )
    assert moments.ci95 > 0


def test_streaming_reducer_is_chunk_order_independent(tmp_path):
    spec = KIND_CASES["construction"]["spec"]()
    runner = CampaignRunner(spec, tmp_path / "store", chunk_trials=1)
    runner.run()
    store = runner._open_store()
    chunks = list(store.iter_chunks())
    runner.close()

    forward = StreamingReducer(spec)
    for chunk in chunks:
        forward.feed(chunk)
    backward = StreamingReducer(spec)
    for chunk in reversed(chunks):
        backward.feed(chunk)
    assert forward.complete and backward.complete
    fwd, bwd = forward.points(), backward.points()
    assert [p.as_dict() for p in fwd] == [p.as_dict() for p in bwd]


def test_duplicate_rows_are_deduped(tmp_path):
    spec = KIND_CASES["construction"]["spec"]()
    runner = CampaignRunner(spec, tmp_path / "store", chunk_trials=2)
    runner.run()
    store = runner._open_store()
    chunks = list(store.iter_chunks())
    # A late duplicate of a timed-out task appends the same rows twice.
    store.append_rows(chunks[0])
    points = runner.sweep_points()
    reduced = runner.reduce()
    runner.close()
    assert points == KIND_CASES["construction"]["baseline"](
        _executor("construction")
    )
    assert all(
        moments.count == spec.trials
        for point in reduced
        for moments in point.stats.values()
    )


def test_campaign_points_carry_cis(tmp_path):
    spec = KIND_CASES["construction"]["spec"]()
    runner = CampaignRunner(spec, tmp_path / "store")
    runner.run()
    reduced = runner.reduce()
    runner.close()
    assert len(reduced) == len(spec.axis)
    point = reduced[-1]
    assert point.n == spec.trials
    column = "MFP.num_regions"
    assert column in point.stats
    assert point.mean(column) == point.stats[column].mean
    assert point.ci95(column) >= 0.0
    payload = point.as_dict()
    assert payload["x"] == spec.axis[-1]


def test_sweep_point_ci95_matches_campaign(tmp_path):
    """The in-memory SweepPoint.ci95 shares the fold with the campaign
    reducers: the same trials give the same mean and half-width, bit for
    bit, on every numeric column of every kind."""
    checked = 0
    for kind in sorted(KIND_CASES):
        spec = KIND_CASES[kind]["spec"]()
        runner = CampaignRunner(spec, tmp_path / kind)
        runner.run()
        reduced = runner.reduce()
        points = runner.sweep_points()
        runner.close()
        assert len(points) == len(reduced) == len(spec.axis)
        for point, campaign_point in zip(points, reduced):
            for column in spec.codec().numeric_columns:
                label, metric = column.split(".", 1)
                moments = campaign_point.stats[column]
                assert point.ci95(label, metric) == (moments.mean, moments.ci95), column
                checked += 1
    assert checked == 74


# -- integration surfaces ------------------------------------------------------------


def test_executor_campaign_kwarg(tmp_path):
    executor = _executor("construction")
    direct = KIND_CASES["construction"]["baseline"](executor)
    streamed = executor.run(
        [4, 8], 3, width=16, include_rounds=False,
        campaign=tmp_path / "store",
    )
    assert streamed == direct
    assert (tmp_path / "store" / "manifest.jsonl").exists()


def test_campaign_status_and_format(tmp_path):
    spec = KIND_CASES["construction"]["spec"]()
    partial = CampaignRunner(spec, tmp_path / "store", chunk_trials=1, max_tasks=2)
    partial.run()
    partial.close()
    status = campaign_status(tmp_path / "store")
    assert status["planned"] == spec.total_trials
    assert status["completed"] == 2
    assert not status["complete"]
    assert sum(status["per_point"]) == 2
    text = format_status(status)
    assert "2/6 trials" in text
    assert "point   0" in text


def test_cli_campaign_verbs(tmp_path, capsys):
    from repro.cli import main

    store = str(tmp_path / "store")
    rc = main(
        [
            "campaign", "run", store,
            "--kind", "construction",
            "--fault-counts", "4", "8",
            "--trials", "2",
            "--width", "16",
            "--skip-rounds",
            "--chunk-trials", "2",
            "--quiet",
        ]
    )
    assert rc == 0
    assert "[complete]" in capsys.readouterr().out

    assert main(["campaign", "status", store]) == 0
    assert "4/4 trials" in capsys.readouterr().out

    assert main(["campaign", "reduce", store, "--metric", "num_regions"]) == 0
    assert "MFP.num_regions" in capsys.readouterr().out

    assert main(["campaign", "resume", store, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["skipped"] == 4 and summary["executed"] == 0

    def header_params(directory):
        manifest = Path(directory) / "manifest.jsonl"
        return json.loads(manifest.read_text().splitlines()[0])["spec"]["params"]

    # Only the flags given are stored, and every flag a kind's trial spec
    # accepts reaches it (latency trials take --messages).
    assert header_params(store) == {"width": 16, "include_rounds": False}
    latency = str(tmp_path / "latency")
    assert main(
        [
            "campaign", "run", latency, "--kind", "latency", "--loads", "0.02",
            "--trials", "1", "--width", "6", "--cycles", "8", "--messages", "7",
            "--quiet",
        ]
    ) == 0
    assert header_params(latency) == {"width": 6, "cycles": 8, "messages": 7}

    # A flag that sets nothing in the kind's trial spec is refused, never
    # silently dropped.
    for kind, extra in [
        ("construction", ["--messages", "40"]),
        ("construction", ["--cycles", "99"]),
        ("routing", ["--skip-rounds"]),
        ("routing", ["--cycles", "99"]),
        ("latency", ["--skip-rounds"]),
        ("latency", ["--fault-counts", "4"]),
    ]:
        axis = ["--loads", "0.02"] if kind == "latency" else ["--fault-counts", "4"]
        refused = tmp_path / f"refused-{kind}"
        with pytest.raises(SystemExit, match=extra[0]):
            main(["campaign", "run", str(refused), "--kind", kind, *axis,
                  "--trials", "1", "--width", "8", *extra, "--quiet"])
        assert not refused.exists()
