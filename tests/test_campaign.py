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
    StreamingReducer,
    TcpTransport,
    available_transports,
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
    assert {"local", "tcp"} <= set(available_transports())


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
        "c2b4acccc79f29b67e133c76207f2326c5fd9f74d4bc88b9822c5c9ad8d46f00",
        "b84f5348c4bb8b768907807e9cc198da6450b7a38ab1a1bd2f8356b0aabad9ef",
        ("FB", "FP", "MFP"),
    ),
    "latency": (
        "c2cdab8eb1a85a9de26549cf3e60e8342440258f128643b7738b6a925b023f98",
        "034eb7729d1fcb9eaa383bf53b1db754afc905d52fc26c88bbe7882a44e1b04f",
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
    "routing": "2ccfcd14f37a4701db2213d6e37608e16fbae82b8029277e5f2d637a0c84b634",
    "latency": "cce63bb3f5ee0dbde295b304e35ca284321594a234488d96835006daa97962fd",
}


#: ``SweepExecutor(models).run(axis, 1, kind=..., **params, campaign=dir)``
#: calls behind PINNED_EXECUTOR_FINGERPRINTS: (models, axis, params).
EXECUTOR_CAMPAIGNS = {
    "construction": (("fb", "fp", "mfp"), [4], dict(width=8, include_rounds=False)),
    "routing": (("fb", "fp", "mfp"), [4], dict(width=8, messages=10)),
    "latency": (("mfp",), [0.02], dict(width=6, cycles=16)),
}


@pytest.mark.parametrize("kind", sorted(PINNED_EXECUTOR_FINGERPRINTS))
def test_pinned_executor_campaign_fingerprints(tmp_path, kind):
    models, axis, params = EXECUTOR_CAMPAIGNS[kind]
    store = tmp_path / "store"
    SweepExecutor(models).run(axis, 1, kind=kind, campaign=store, **params)
    header = json.loads((store / "manifest.jsonl").read_text().splitlines()[0])
    assert header["fingerprint"] == PINNED_EXECUTOR_FINGERPRINTS[kind]


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
    reducers: same trials, same mean, same half-width."""
    spec = KIND_CASES["construction"]["spec"]()
    runner = CampaignRunner(spec, tmp_path / "store")
    runner.run()
    reduced = runner.reduce()
    points = runner.sweep_points()
    runner.close()
    mean, half = points[-1].ci95("MFP", "mean_region_size")
    moments = reduced[-1].stats["MFP.mean_region_size"]
    assert mean == pytest.approx(moments.mean, abs=1e-12)
    assert half == pytest.approx(moments.ci95, abs=1e-12)


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
