"""Tests of the resilience layer: retries, journaling, admission, chaos.

The acceptance bar of the robustness ISSUE: a retrying client driven
through the seeded fault-injecting proxy converges to *bit-identical*
route outcomes and session fingerprints versus a fault-free run; a
daemon killed mid-churn and recovered from its journal serves a session
whose fingerprint matches an uninterrupted oracle's; admission control
sheds with ``overloaded``/``retry_after`` instead of queueing without
bound; expired buffered routes never reach the engine; and a batch-engine
failure degrades a flush to the scalar router rather than failing it.
Tests drive the event loop through ``asyncio.run`` inside synchronous
test functions (no pytest-asyncio in the toolchain).
"""

import asyncio
import json
import re

import pytest

from repro.api import MeshSession
from repro.faults.scenario import generate_scenario
from repro.serve import (
    ChaosConfig,
    ChaosTransport,
    InProcessClient,
    Journal,
    JournalError,
    RetryPolicy,
    RouteDaemon,
    ServeClient,
    encode,
    load_journal,
    replay_events,
)
from repro.serve.protocol import E_BAD_REQUEST, E_DEADLINE, E_OVERLOADED

SCENARIO = dict(num_faults=10, width=12, height=12, seed=3)


def fresh_daemon(**kwargs):
    kwargs.setdefault("scenario", generate_scenario(**SCENARIO))
    return RouteDaemon(**kwargs)


async def churn(client, rounds=30):
    """One deterministic query/mutate workload; returns (outcomes, status)."""
    outcomes = []
    for i in range(rounds):
        route = await client.route_one((0, 0), (11, 11))
        outcomes.append((route["delivered"], route["hops"], route["reason"]))
        if i % 7 == 3:
            await client.add_faults([(i % 12, (i * 5) % 12)])
        if i % 11 == 5:
            await client.repair([(i % 12, (i * 5) % 12)])
        if i % 13 == 8:
            await client.add_link_faults([((1, 1), (1, 2))])
    return outcomes, await client.status()


# -- retry policy --------------------------------------------------------------------


class TestRetryPolicy:
    def test_same_seed_same_schedule(self):
        policy = RetryPolicy(max_attempts=6, jitter=0.5, seed=42)
        delays_a = [policy.schedule().next_delay() for _ in range(1)]
        schedule_a, schedule_b = policy.schedule(), policy.schedule()
        seq_a = [schedule_a.next_delay() for _ in range(5)]
        seq_b = [schedule_b.next_delay() for _ in range(5)]
        assert seq_a == seq_b
        assert delays_a[0] == seq_a[0]

    def test_backoff_shape_without_jitter(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        schedule = policy.schedule()
        delays = [schedule.next_delay() for _ in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, None]

    def test_jitter_only_shortens(self):
        policy = RetryPolicy(
            max_attempts=50, base_delay=0.1, multiplier=1.0, jitter=0.9, seed=7
        )
        schedule = policy.schedule()
        for _ in range(49):
            delay = schedule.next_delay()
            assert 0.0 < delay <= 0.1

    def test_deadline_caps_and_exhausts(self):
        clock = {"now": 0.0}
        policy = RetryPolicy(
            max_attempts=None,
            base_delay=10.0,
            max_delay=10.0,
            jitter=0.0,
            deadline=1.0,
        )
        schedule = policy.schedule(clock=lambda: clock["now"])
        assert schedule.next_delay() == 1.0  # capped to the remaining deadline
        clock["now"] = 2.0
        assert schedule.next_delay() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=None)  # unbounded needs a deadline
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


# -- journal -------------------------------------------------------------------------


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.ndjson"
        journal = Journal(path)
        journal.append_snapshot({"width": 8, "version": 0}, {"k": {"v": 1}})
        journal.append_event("add_faults", {"added": [[1, 1]], "version": 1}, "idem-0")
        journal.close()
        loaded = load_journal(path)
        assert loaded.state == {"width": 8, "version": 0}
        assert [e["op"] for e in loaded.events] == ["add_faults"]
        assert loaded.idem["idem-0"] == {"added": [[1, 1]], "version": 1}
        assert loaded.idem["k"] == {"v": 1}
        assert loaded.seq == 2 and loaded.records == 2

    def test_newest_snapshot_wins(self, tmp_path):
        path = tmp_path / "j.ndjson"
        journal = Journal(path)
        journal.append_snapshot({"version": 0})
        journal.append_event("add_faults", {"added": [[1, 1]], "version": 1})
        journal.append_snapshot({"version": 1})
        journal.append_event("repair", {"removed": [[1, 1]], "version": 2})
        journal.close()
        loaded = load_journal(path)
        assert loaded.state == {"version": 1}
        assert [e["op"] for e in loaded.events] == ["repair"]

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.ndjson"
        journal = Journal(path)
        journal.append_snapshot({"version": 0})
        journal.append_event("add_faults", {"added": [[2, 2]], "version": 1})
        journal.close()
        with open(path, "ab") as handle:
            handle.write(b'{"t": "event", "seq": 3, "op"')  # kill -9 mid-write
        loaded = load_journal(path)
        assert loaded.truncated_lines == 1
        assert len(loaded.events) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.ndjson"
        journal = Journal(path)
        journal.append_snapshot({"version": 0})
        journal.close()
        record = encode({"t": "event", "seq": 2, "op": "repair", "payload": {}})
        path.write_bytes(path.read_bytes() + b"garbage\n" + record)
        with pytest.raises(JournalError):
            load_journal(path)

    def test_empty_and_snapshotless_journals_rejected(self, tmp_path):
        empty = tmp_path / "empty.ndjson"
        empty.write_bytes(b"")
        with pytest.raises(JournalError):
            load_journal(empty)
        eventful = tmp_path / "events.ndjson"
        eventful.write_bytes(
            encode({"t": "event", "seq": 1, "op": "repair", "payload": {}})
        )
        with pytest.raises(JournalError):
            load_journal(eventful)

    def test_replay_verifies_versions(self):
        session = MeshSession(width=8)
        events = [
            {
                "seq": 2,
                "op": "add_faults",
                "payload": {"added": [[1, 1]], "version": 99},
            }
        ]
        with pytest.raises(JournalError):
            replay_events(session, events)

    def test_replay_applies_adds_and_removes(self):
        session = MeshSession(width=8)
        oracle = MeshSession(width=8)
        oracle.add_faults([(1, 1), (2, 2)])
        oracle.remove_faults([(1, 1)])
        events = [
            {"op": "add_faults", "payload": {"added": [[1, 1], [2, 2]], "version": 1}},
            {"op": "repair", "payload": {"removed": [[1, 1]], "version": 2}},
        ]
        assert replay_events(session, events) == 2
        assert session.fingerprint() == oracle.fingerprint()


class TestJournalRotation:
    def test_compact_caps_file_size(self, tmp_path):
        path = tmp_path / "j.ndjson"
        journal = Journal(path, max_bytes=2000)
        journal.append_snapshot({"version": 0})
        state = {"version": 0}
        for i in range(200):
            state = {"version": i + 1}
            journal.append_event("add_faults", {"added": [[1, 1]], "version": i + 1})
            if journal.should_compact():
                journal.compact(state)
        assert journal.rotations >= 1
        assert journal.size_bytes() <= 2000 + 200  # one snapshot past the cap
        final_seq = journal.seq
        journal.close()
        loaded = load_journal(path)
        # The file holds the last compaction snapshot plus the tail of
        # events appended after it; together they reach the final state.
        assert loaded.state["version"] + len(loaded.events) == 200
        assert loaded.events[-1]["payload"]["version"] == 200
        assert loaded.seq == final_seq  # seq survives the swap monotonically

    def test_compact_preserves_idempotency_cache(self, tmp_path):
        path = tmp_path / "j.ndjson"
        journal = Journal(path)
        journal.append_snapshot({"version": 0})
        journal.append_event("add_faults", {"added": [[3, 3]], "version": 1}, "idem-a")
        journal.compact({"version": 1}, {"idem-a": {"added": [[3, 3]], "version": 1}})
        journal.close()
        loaded = load_journal(path)
        assert loaded.events == []
        assert loaded.idem["idem-a"]["version"] == 1

    def test_max_bytes_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            Journal(tmp_path / "j.ndjson", max_bytes=0)

    def test_info_reports_rotation_counters(self, tmp_path):
        journal = Journal(tmp_path / "j.ndjson", max_bytes=10_000)
        journal.append_snapshot({"version": 0})
        info = journal.info()
        assert info["max_bytes"] == 10_000
        assert info["rotations"] == 0
        assert info["size_bytes"] > 0
        journal.close()

    def test_daemon_rotation_recovers_bit_identical(self, tmp_path):
        path = tmp_path / "daemon.ndjson"

        async def run():
            daemon = fresh_daemon(
                journal=path, snapshot_every=10_000, journal_max_bytes=1000
            )
            client = InProcessClient(daemon)
            await client.request(
                {"op": "add_faults", "nodes": [[2, 2]], "idem": "rotate-me"}
            )
            _, status = await churn(client, rounds=60)
            return status["fingerprint"], daemon.journal.rotations

        fingerprint, rotations = asyncio.run(run())
        assert rotations >= 1  # the cap actually triggered mid-run
        assert path.stat().st_size < 20_000
        recovered = RouteDaemon.recover(path)
        assert recovered.session.fingerprint() == fingerprint

        async def replay():
            client = InProcessClient(recovered)
            response = await client.request(
                {"op": "add_faults", "nodes": [[2, 2]], "idem": "rotate-me"}
            )
            assert response["idempotent_replay"] is True

        asyncio.run(replay())
        recovered.journal.close()


# -- session state / fingerprint -----------------------------------------------------


class TestSessionState:
    def test_state_round_trip_is_bit_identical(self):
        session = MeshSession.from_scenario(generate_scenario(**SCENARIO))
        session.add_faults([(0, 5), (7, 7)])
        session.remove_faults([(0, 5)])
        clone = MeshSession.from_state(session.state())
        assert clone.fingerprint() == session.fingerprint()
        assert clone.version == session.version

    def test_fingerprint_tracks_fault_history(self):
        a = MeshSession(width=8)
        b = MeshSession(width=8)
        assert a.fingerprint() == b.fingerprint()
        a.add_faults([(3, 3)])
        assert a.fingerprint() != b.fingerprint()


# -- idempotent mutations ------------------------------------------------------------


class TestIdempotency:
    def test_duplicate_idem_applies_once(self):
        daemon = fresh_daemon()
        client = InProcessClient(daemon)

        async def main():
            first = await client.request(
                {"op": "add_faults", "nodes": [[2, 2]], "idem": "alpha"}
            )
            replay = await client.request(
                {"op": "add_faults", "nodes": [[2, 2]], "idem": "alpha"}
            )
            assert first["ok"] and replay["ok"]
            assert "idempotent_replay" not in first
            assert replay["idempotent_replay"] is True
            assert replay["version"] == first["version"]
            assert daemon.session.version == first["version"]

        asyncio.run(main())

    def test_distinct_idem_applies_twice(self):
        daemon = fresh_daemon()
        client = InProcessClient(daemon)

        async def main():
            await client.request(
                {"op": "add_faults", "nodes": [[2, 2]], "idem": "a"}
            )
            second = await client.request(
                {"op": "add_faults", "nodes": [[3, 3]], "idem": "b"}
            )
            assert "idempotent_replay" not in second
            assert daemon.session.version == second["version"]

        asyncio.run(main())

    @pytest.mark.parametrize("idem", [["a"], {"a": 1}], ids=["list", "object"])
    def test_unhashable_idem_is_a_bad_request(self, idem):
        daemon = fresh_daemon()
        client = InProcessClient(daemon)
        version = daemon.session.version

        async def main():
            response = await client.request(
                {"op": "add_faults", "nodes": [[2, 2]], "idem": idem}
            )
            assert response["ok"] is False
            assert response["error"]["code"] == E_BAD_REQUEST
            assert daemon.session.version == version

        asyncio.run(main())


# -- crash recovery ------------------------------------------------------------------


SNAPSHOT = {
    "t": "snapshot",
    "seq": 1,
    "state": {"width": 8, "height": 8, "torus": False, "faults": [[1, 1]], "version": 1},
}


def _snapshot_with(**state):
    return {**SNAPSHOT, "state": {**SNAPSHOT["state"], **state}}


def _add_event(payload):
    return {"t": "event", "seq": 2, "op": "add_faults", "payload": payload}


MALFORMED_JOURNALS = [
    pytest.param([_snapshot_with(faults=[[1]])], id="fault-one-coordinate"),
    pytest.param(
        [{**SNAPSHOT, "state": {k: v for k, v in SNAPSHOT["state"].items() if k != "height"}}],
        id="no-height",
    ),
    pytest.param([{**SNAPSHOT, "state": [8, 8]}], id="state-not-a-dict"),
    pytest.param([{"t": "snapshot", "seq": 1}], id="no-state"),
    pytest.param([_snapshot_with(faults=[["a", 2]])], id="fault-string"),
    pytest.param([_snapshot_with(faults=[[8, 2]])], id="fault-off-mesh"),
    pytest.param([_snapshot_with(faults=[[1.7, 2]])], id="fault-float"),
    pytest.param(
        [SNAPSHOT, {"t": "event", "seq": 2, "op": "add_faults", "idem": "a-1"}],
        id="event-no-payload",
    ),
    pytest.param([SNAPSHOT, _add_event([[2, 2]])], id="payload-not-a-dict"),
    pytest.param([SNAPSHOT, _add_event({"added": [[3]], "version": 2})], id="added-one-coordinate"),
    pytest.param([SNAPSHOT, _add_event({"added": [[9, 9]], "version": 2})], id="added-off-mesh"),
]


def _event_with(**fields):
    return {**_add_event({"added": [[2, 2]], "version": 2}), **fields}


#: (records, line of the bad field): a ``seq`` or ``idem`` no daemon writes.
MALFORMED_FIELDS = [
    pytest.param([{**SNAPSHOT, "seq": "x"}], 1, id="seq-string"),
    pytest.param([{**SNAPSHOT, "seq": [1]}], 1, id="seq-list"),
    pytest.param([{**SNAPSHOT, "seq": 1.7}], 1, id="seq-float"),
    pytest.param([{**SNAPSHOT, "seq": True}], 1, id="seq-bool"),
    pytest.param([SNAPSHOT, _event_with(seq=None)], 2, id="event-seq-null"),
    pytest.param([SNAPSHOT, _event_with(idem=["a"])], 2, id="event-idem-list"),
    pytest.param([SNAPSHOT, _event_with(idem={"a": 1})], 2, id="event-idem-object"),
    pytest.param([{**SNAPSHOT, "idem": ["a"]}], 1, id="snapshot-idem-list"),
    pytest.param([{**SNAPSHOT, "idem": "a"}], 1, id="snapshot-idem-string"),
    pytest.param([{**SNAPSHOT, "idem": [[["a"], {}]]}], 1, id="snapshot-idem-list-id"),
    pytest.param([{**SNAPSHOT, "idem": [["a", 1]]}], 1, id="snapshot-idem-pair-payload"),
    pytest.param([{**SNAPSHOT, "idem": [["a", {}, 3]]}], 1, id="snapshot-idem-triple"),
    pytest.param([{**SNAPSHOT, "idem": {"a": 1}}], 1, id="snapshot-idem-object-payload"),
]


class TestRecovery:
    @pytest.mark.parametrize("records, line", MALFORMED_FIELDS)
    def test_malformed_seq_or_idem_raises_journal_error(self, tmp_path, records, line):
        """A bad ``seq`` or ``idem`` is a journal error naming its line,
        not a bare ``ValueError``/``TypeError``/``AttributeError`` or a
        silently truncated sequence number."""
        path = tmp_path / "daemon.ndjson"
        path.write_bytes(b"".join(encode(record) for record in records))
        with pytest.raises(JournalError, match=re.escape(f"line {line} of {path}")):
            RouteDaemon.recover(path)

    def test_numeric_event_idem_recovers(self, tmp_path):
        # A daemon journals whatever scalar idem a client sent, numbers too.
        path = tmp_path / "daemon.ndjson"
        path.write_bytes(encode(SNAPSHOT) + encode(_event_with(idem=7)))
        recovered = RouteDaemon.recover(path)
        assert list(recovered._idem) == [7]
        assert recovered.journal.seq == 2
        recovered.journal.close()

    @pytest.mark.parametrize("records", MALFORMED_JOURNALS)
    def test_malformed_journal_raises_journal_error(self, tmp_path, records):
        """Valid JSON that no session can come from is refused as a journal
        error naming the file, never a bare crash or a silently wrong state."""
        path = tmp_path / "daemon.ndjson"
        path.write_bytes(b"".join(encode(record) for record in records))
        with pytest.raises(JournalError) as excinfo:
            RouteDaemon.recover(path)
        assert str(path) in str(excinfo.value)

    def test_kill_then_recover_matches_oracle(self, tmp_path):
        path = tmp_path / "daemon.ndjson"

        async def crashed_run():
            daemon = fresh_daemon(journal=path, snapshot_every=4)
            client = InProcessClient(daemon)
            _, status = await churn(client)
            # No daemon.stop(): simulate a crash by abandoning the daemon
            # with its journal file handle unflushed-but-per-record-synced.
            return status["fingerprint"]

        crashed_fp = asyncio.run(crashed_run())

        async def oracle_run():
            daemon = fresh_daemon()
            client = InProcessClient(daemon)
            _, status = await churn(client)
            return status["fingerprint"], daemon.session.version

        oracle_fp, oracle_version = asyncio.run(oracle_run())
        assert crashed_fp == oracle_fp

        recovered = RouteDaemon.recover(path)
        assert recovered.session.fingerprint() == oracle_fp
        assert recovered.session.version == oracle_version
        assert recovered.recovered["events_replayed"] >= 1
        assert recovered.recovered["truncated_lines"] == 0
        recovered.journal.close()

    def test_recover_after_torn_tail(self, tmp_path):
        path = tmp_path / "daemon.ndjson"

        async def run():
            daemon = fresh_daemon(journal=path, snapshot_every=100)
            client = InProcessClient(daemon)
            await client.add_faults([(2, 2)])
            return daemon.session.fingerprint()

        fingerprint = asyncio.run(run())
        with open(path, "ab") as handle:
            handle.write(b'{"t": "ev')  # torn final write
        recovered = RouteDaemon.recover(path)
        assert recovered.session.fingerprint() == fingerprint
        assert recovered.recovered["truncated_lines"] == 1
        recovered.journal.close()

    def test_idempotency_cache_survives_recovery(self, tmp_path):
        path = tmp_path / "daemon.ndjson"

        async def run():
            daemon = fresh_daemon(journal=path)
            client = InProcessClient(daemon)
            response = await client.request(
                {"op": "add_faults", "nodes": [[2, 2]], "idem": "retry-me"}
            )
            return response["version"]

        version = asyncio.run(run())
        recovered = RouteDaemon.recover(path)

        async def replay():
            client = InProcessClient(recovered)
            response = await client.request(
                {"op": "add_faults", "nodes": [[2, 2]], "idem": "retry-me"}
            )
            assert response["idempotent_replay"] is True
            assert response["version"] == version
            assert recovered.session.version == version

        asyncio.run(replay())
        recovered.journal.close()

    @staticmethod
    def _snapshotted_numeric_idem(path):
        """A daemon that snapshots after every event applies one mutation
        under the numeric id 7; returns the recovered daemon."""

        async def run():
            daemon = fresh_daemon(journal=path, snapshot_every=1)
            client = InProcessClient(daemon)
            response = await client.request(
                {"op": "add_faults", "nodes": [[3, 3]], "idem": 7}
            )
            assert response["ok"] and "idempotent_replay" not in response
            daemon.journal.close()

        asyncio.run(run())
        assert load_journal(path).events == []  # the id lives in the snapshot
        return RouteDaemon.recover(path)

    def test_numeric_idem_keeps_its_type_across_a_snapshot(self, tmp_path):
        recovered = self._snapshotted_numeric_idem(tmp_path / "daemon.ndjson")
        assert list(recovered._idem) == [7]
        recovered.journal.close()

    def test_numeric_idem_retry_after_a_snapshot_is_replayed(self, tmp_path):
        recovered = self._snapshotted_numeric_idem(tmp_path / "daemon.ndjson")
        version = recovered.session.version

        async def retry():
            client = InProcessClient(recovered)
            return await client.request(
                {"op": "add_faults", "nodes": [[3, 3]], "idem": 7}
            )

        response = asyncio.run(retry())
        assert response["idempotent_replay"] is True
        assert recovered.session.version == version
        recovered.journal.close()

    def test_string_idem_is_not_the_snapshotted_numeric_one(self, tmp_path):
        recovered = self._snapshotted_numeric_idem(tmp_path / "daemon.ndjson")

        async def fresh_request():
            client = InProcessClient(recovered)
            return await client.request(
                {"op": "add_faults", "nodes": [[4, 4]], "idem": "7"}
            )

        response = asyncio.run(fresh_request())
        assert "idempotent_replay" not in response
        assert (4, 4) in recovered.session.faults
        recovered.journal.close()

    def test_object_form_snapshot_idem_still_loads(self, tmp_path):
        # Journals written before the pair form keyed the cache by strings.
        path = tmp_path / "daemon.ndjson"
        payload = {"added": [[2, 2]], "version": 2, "num_faults": 2}
        path.write_bytes(encode({**SNAPSHOT, "idem": {"old-id": payload}}))
        recovered = RouteDaemon.recover(path)
        assert dict(recovered._idem) == {"old-id": payload}
        recovered.journal.close()

    def test_constructor_refuses_populated_journal(self, tmp_path):
        path = tmp_path / "daemon.ndjson"
        asyncio.run(
            InProcessClient(fresh_daemon(journal=path)).add_faults([(1, 1)])
        )
        with pytest.raises(ValueError, match="recover"):
            fresh_daemon(journal=path)

    def test_recover_owns_session_kwargs(self, tmp_path):
        path = tmp_path / "daemon.ndjson"
        fresh_daemon(journal=path).journal.close()
        with pytest.raises(TypeError):
            RouteDaemon.recover(path, scenario=generate_scenario(**SCENARIO))


# -- admission control ---------------------------------------------------------------


class TestAdmissionControl:
    def test_overload_sheds_with_retry_after(self):
        daemon = fresh_daemon(window=60.0, max_batch=10_000, max_pending=4)
        client = InProcessClient(daemon)

        async def main():
            buffered = [
                asyncio.ensure_future(
                    client.request({"op": "route", "pairs": [[0, 0, 1, 1]]})
                )
                for _ in range(4)
            ]
            await asyncio.sleep(0)
            assert daemon.coalescer.queue_depth == 4
            shed = await client.request({"op": "route", "pairs": [[0, 0, 1, 1]]})
            assert shed["ok"] is False
            assert shed["error"]["code"] == E_OVERLOADED
            assert shed["error"]["retry_after"] > 0
            daemon.coalescer.flush_now()
            responses = await asyncio.gather(*buffered)
            assert all(r["ok"] for r in responses)
            status = await client.status()
            assert status["admission"]["shed_requests"] == 1

        asyncio.run(main())

    def test_shed_then_retry_converges(self):
        daemon = fresh_daemon(window=0.002, max_batch=10_000, max_pending=4)
        client = InProcessClient(daemon)

        async def retrying(pair):
            policy = RetryPolicy(
                max_attempts=None, base_delay=0.002, jitter=0.0, deadline=20.0
            )
            schedule = policy.schedule()
            while True:
                response = await client.request({"op": "route", "pairs": [pair]})
                if response["ok"]:
                    return response["routes"][0]
                assert response["error"]["code"] == E_OVERLOADED
                delay = schedule.next_delay()
                assert delay is not None
                await asyncio.sleep(max(delay, response["error"]["retry_after"]))

        async def main():
            pairs = [[i % 12, 0, 11, 11] for i in range(64)]
            routes = await asyncio.gather(*(retrying(p) for p in pairs))
            assert len(routes) == 64
            status = await client.status()
            # The tiny queue guarantees genuine sheds happened.
            assert status["admission"]["shed_requests"] > 0
            oracle = InProcessClient(fresh_daemon())
            for pair, route in zip(pairs, routes):
                expected = (
                    await oracle.route([pair])
                )["routes"][0]
                assert route == expected

        asyncio.run(main())

    def test_expired_deadline_skips_engine(self):
        daemon = fresh_daemon(window=0.01, max_batch=10_000)
        client = InProcessClient(daemon)

        async def main():
            response = await client.request(
                {"op": "route", "pairs": [[0, 0, 1, 1]], "deadline_ms": 0}
            )
            assert response["ok"] is False
            assert response["error"]["code"] == E_DEADLINE
            assert daemon.expired_routes == 1
            assert daemon._last_engine is None  # the engine never ran

        asyncio.run(main())

    def test_bad_deadline_rejected(self):
        client = InProcessClient(fresh_daemon())

        async def main():
            response = await client.request(
                {"op": "route", "pairs": [[0, 0, 1, 1]], "deadline_ms": "soon"}
            )
            assert response["ok"] is False
            assert response["error"]["code"] == E_BAD_REQUEST

        asyncio.run(main())

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            fresh_daemon(max_pending=0)
        with pytest.raises(ValueError):
            fresh_daemon(max_inflight=0)
        with pytest.raises(ValueError):
            fresh_daemon(snapshot_every=0)


# -- graceful degradation ------------------------------------------------------------


class TestDegradedFlush:
    def test_batch_engine_failure_degrades_to_scalar(self, monkeypatch):
        daemon = fresh_daemon()
        client = InProcessClient(daemon)
        oracle = InProcessClient(fresh_daemon())

        def boom(router_obj, batch):
            raise RuntimeError("kernel exploded")

        async def main():
            # The healthy kernel's answer, taken before it breaks.
            expected = await oracle.route([[0, 0, 11, 11]])
            assert expected["engine"] == "batch"
            monkeypatch.setattr("repro.serve.daemon.route_batch", boom)
            response = await client.route([[0, 0, 11, 11]])
            assert response["engine"] == "scalar"
            assert response["routes"] == expected["routes"]
            status = await client.status()
            assert status["degraded_flushes"] == 1

        asyncio.run(main())


# -- TCP client resilience -----------------------------------------------------------


class TestClientResilience:
    def test_timeout_poisons_connection(self):
        async def main():
            async def mute(reader, writer):
                await reader.readline()  # swallow the request, never answer

            server = await asyncio.start_server(mute, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = ServeClient("127.0.0.1", port)
            await client.connect()
            with pytest.raises(asyncio.TimeoutError):
                await client.request({"op": "ping"}, timeout=0.05)
            assert client.connected is False
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(main())

    def test_overlong_response_poisons_connection(self, monkeypatch):
        monkeypatch.setattr("repro.serve.client.MAX_LINE_BYTES", 128)

        async def main():
            async def chatty(reader, writer):
                await reader.readline()
                writer.write(b"x" * 4096 + b"\n")
                await writer.drain()

            server = await asyncio.start_server(chatty, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = ServeClient("127.0.0.1", port)
            await client.connect()
            with pytest.raises(ValueError):
                await client.request({"op": "ping"})
            assert client.connected is False
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(main())

    def test_truncated_response_raises_connection_error(self):
        async def main():
            async def cutoff(reader, writer):
                await reader.readline()
                writer.write(b'{"ok": tr')  # no newline, then EOF
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(cutoff, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = ServeClient("127.0.0.1", port)
            await client.connect()
            with pytest.raises(ConnectionError):
                await client.request({"op": "ping"})
            assert client.connected is False
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(main())

    def test_overlong_request_line_rejected_by_daemon(self, monkeypatch):
        monkeypatch.setattr("repro.serve.daemon.MAX_LINE_BYTES", 1024)

        async def main():
            daemon = fresh_daemon()
            host, port = await daemon.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"[" + b"1," * 2048 + b"1]\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == E_BAD_REQUEST
            writer.close()
            await daemon.stop()

        asyncio.run(main())

    def test_reconnect_after_daemon_restart(self):
        async def main():
            daemon = fresh_daemon()
            host, port = await daemon.start()
            client = ServeClient(
                host,
                port,
                retry=RetryPolicy(
                    max_attempts=None,
                    base_delay=0.01,
                    max_delay=0.1,
                    jitter=0.0,
                    deadline=10.0,
                ),
                timeout=2.0,
            )
            await client.connect()
            assert (await client.ping())["pong"] is True
            fingerprint = (await client.status())["fingerprint"]
            await daemon.stop()

            restart = fresh_daemon(host=host, port=port)

            async def bring_back():
                await asyncio.sleep(0.05)
                await restart.start()

            bringer = asyncio.ensure_future(bring_back())
            # The old connection is dead; the retrying request reconnects
            # to the restarted daemon on the same port.
            status = await client.status()
            assert status["fingerprint"] == fingerprint
            await bringer
            await client.close()
            await restart.stop()

        asyncio.run(main())

    def test_close_tolerates_dead_transport(self):
        async def main():
            daemon = fresh_daemon()
            host, port = await daemon.start()
            client = await ServeClient(host, port).connect()
            await daemon.stop()
            await client.close()  # must not raise on the dead socket
            await client.close()  # double close is a no-op

        asyncio.run(main())

    def test_concurrent_clients_during_graceful_drain(self):
        async def main():
            daemon = fresh_daemon(window=0.002)
            host, port = await daemon.start()
            clients = [await ServeClient(host, port).connect() for _ in range(4)]

            async def hammer(client):
                results = []
                try:
                    for _ in range(10):
                        response = await client.request(
                            {"op": "route", "pairs": [[0, 0, 11, 11]]}
                        )
                        results.append(response)
                        await asyncio.sleep(0.001)
                except (ConnectionError, OSError):
                    pass  # the listener went away mid-hammer: expected
                return results

            hammers = [asyncio.ensure_future(hammer(c)) for c in clients]
            await asyncio.sleep(0.05)
            await daemon.stop()
            all_responses = await asyncio.gather(*hammers)
            saw_ok = False
            for batch in all_responses:
                for response in batch:
                    if response["ok"]:
                        saw_ok = True
                        assert response["routes"][0]["hops"] >= 0
                    else:
                        assert response["error"]["code"] == "shutting-down"
            assert saw_ok  # requests before the drain completed normally
            for client in clients:
                await client.close()

        asyncio.run(main())


# -- chaos differential --------------------------------------------------------------


class TestChaosDifferential:
    def test_chaos_run_is_bit_identical_to_fault_free(self, tmp_path):
        """The tentpole differential: the same workload through a hostile
        proxy (drops, delays, partial writes, disconnects) and over a
        clean socket produces identical route outcomes and an identical
        final session fingerprint -- and the journal written under chaos
        recovers to that same fingerprint."""
        path = tmp_path / "chaos.ndjson"

        async def chaotic_run():
            daemon = fresh_daemon(journal=path, snapshot_every=4, window=0.0005)
            host, port = await daemon.start()
            chaos = ChaosTransport(
                host,
                port,
                ChaosConfig(
                    drop_rate=0.15,
                    delay_rate=0.2,
                    max_delay=0.002,
                    partial_write_rate=0.05,
                    disconnect_rate=0.05,
                    seed=99,
                ),
            )
            await chaos.start()
            client = ServeClient(
                *chaos.address,
                retry=RetryPolicy(
                    max_attempts=None,
                    base_delay=0.01,
                    max_delay=0.1,
                    jitter=0.25,
                    seed=5,
                    deadline=60.0,
                ),
                timeout=0.25,
            )
            await client.connect()
            outcomes, status = await churn(client)
            await client.close()
            await chaos.stop()
            await daemon.stop()
            return outcomes, status["fingerprint"], dict(chaos.injected)

        async def clean_run():
            daemon = fresh_daemon(window=0.0005)
            host, port = await daemon.start()
            client = await ServeClient(host, port).connect()
            outcomes, status = await churn(client)
            await client.close()
            await daemon.stop()
            return outcomes, status["fingerprint"]

        chaos_outcomes, chaos_fp, injected = asyncio.run(chaotic_run())
        clean_outcomes, clean_fp = asyncio.run(clean_run())
        assert chaos_outcomes == clean_outcomes
        assert chaos_fp == clean_fp
        # The run must have been genuinely hostile, not accidentally clean.
        assert injected["drops"] > 0
        assert injected["disconnects"] + injected["partial_writes"] > 0

        recovered = RouteDaemon.recover(path)
        assert recovered.session.fingerprint() == clean_fp
        recovered.journal.close()

    def test_chaos_config_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(drop_rate=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(max_delay=-1.0)


# -- CLI wiring ----------------------------------------------------------------------


class TestCliWiring:
    def test_resilience_flags_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        serve = parser.parse_args(
            [
                "serve",
                "--journal",
                "j.ndjson",
                "--snapshot-every",
                "16",
                "--max-pending",
                "512",
                "--max-inflight",
                "8",
            ]
        )
        assert serve.journal == "j.ndjson"
        assert serve.snapshot_every == 16
        assert serve.max_pending == 512 and serve.max_inflight == 8
        query = parser.parse_args(
            ["query", "--timeout", "2.5", "--retries", "3", "--wait", "5"]
        )
        assert query.timeout == 2.5
        assert query.retries == 3
        assert query.wait == 5.0
