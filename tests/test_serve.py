"""Tests of the serving layer: coalescer, daemon verbs, TCP, bit-identity.

The contract under test is the ISSUE's acceptance bar: coalesced batch
responses are bit-identical to individually-routed scalar calls --
including under interleaved fault churn -- the coalescer's two flush
triggers behave (window timer then quiet input, max-batch cap,
``max_batch=1`` = uncoalesced), every flush counts exactly one cause,
mutations flush buffered routes against pre-mutation state, and the
daemon drains gracefully.  Tests drive the event loop through
``asyncio.run`` inside synchronous test functions (no pytest-asyncio in
the toolchain).
"""

import asyncio
import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import MeshSession
from repro.faults.scenario import generate_scenario
from repro.routing.engine import DELIVERED, REASONS
from repro.routing.extended_ecube import ExtendedECubeRouter
from repro.routing.registry import RouterSpec, register_router
from repro.serve import (
    InProcessClient,
    ProtocolError,
    RouteCoalescer,
    RouteDaemon,
    ServeClient,
    ServeError,
    decode_line,
    encode,
)
from repro.serve.protocol import (
    E_BAD_LINKS,
    E_BAD_NODES,
    E_BAD_PAIR,
    E_BAD_REQUEST,
    E_SHUTTING_DOWN,
    E_UNKNOWN_OP,
    RouteSlice,
    ok_response,
)

OUTCOME_KEYS = ("delivered", "reason", "hops", "abnormal_hops", "minimal_hops")


def scalar_outcome(router, pair):
    """Route one pair through the scalar oracle, as a response-shaped dict."""
    result = router.route((pair[0], pair[1]), (pair[2], pair[3]))
    return {
        "delivered": result.delivered,
        "reason": result.reason,
        "hops": result.hops,
        "abnormal_hops": result.abnormal_hops,
        "minimal_hops": result.hops - result.detour,
    }


def random_pairs(rng, width, count):
    return [[int(v) for v in rng.integers(0, width, size=4)] for _ in range(count)]


def assert_flush_causes_add_up(coalescer_status):
    """Each flush has one cause: the window timer, the size trigger or a cut."""
    causes = ("timer_flushes", "size_flushes", "cut_flushes")
    assert sum(coalescer_status[cause] for cause in causes) == coalescer_status["flushes"]


# -- protocol ------------------------------------------------------------------------


class TestProtocol:
    def test_round_trip(self):
        message = {"op": "route", "id": 3, "pairs": [[0, 0, 1, 1]]}
        assert decode_line(encode(message)) == message

    def test_encode_is_one_line(self):
        assert encode({"op": "status"}).count(b"\n") == 1

    def test_bad_json_raises(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_line(b"{nope\n")
        assert excinfo.value.code == E_BAD_REQUEST

    def test_non_object_raises(self):
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2, 3]\n")


# -- route response encoding ---------------------------------------------------------


def route_dicts(columns):
    """The dict form of routes given as (code, hops, abnormal, minimal) columns."""
    return [
        {
            "delivered": code == DELIVERED,
            "reason": REASONS[code],
            "hops": hops,
            "abnormal_hops": abnormal,
            "minimal_hops": minimal,
        }
        for code, hops, abnormal, minimal in zip(*columns)
    ]


class TestRouteEncoding:
    @pytest.mark.parametrize(
        "request_id",
        [None, 7, "req-7", 2.5, [1, "a", None], {"client": "c", "n": [1, 2]}],
        ids=["none", "int", "str", "float", "list", "object"],
    )
    def test_route_slice_bytes_equal_json_dumps(self, request_id):
        codes = sorted(REASONS)
        columns = [
            codes,
            [10**6 + code for code in codes],
            [code % 3 for code in codes],
            [2 * code for code in codes],
        ]
        # Every code alone, then all of them in one response.
        for start, stop in [(i, i + 1) for i in range(len(codes))] + [(0, len(codes))]:
            payload = {"routes": RouteSlice(columns, start, stop), "version": 4, "engine": "batch"}
            routes = route_dicts([column[start:stop] for column in columns])
            dict_form = ok_response({**payload, "routes": routes}, request_id)
            assert list(dict_form) == [
                key for key in ("ok", "id", "routes", "version", "engine")
                if key != "id" or request_id is not None
            ]
            expected = json.dumps(dict_form, separators=(",", ":")).encode() + b"\n"
            assert encode(ok_response(payload, request_id)) == expected

    def test_tcp_bytes_equal_encoded_handle_responses(self):
        scenario = generate_scenario(num_faults=30, width=20, model="clustered", seed=9)
        rng = np.random.default_rng(5)
        stream = []
        for index in range(48):
            if index % 8 == 7:
                op = "add_faults" if index % 16 == 7 else "repair"
                stream.append({"op": op, "id": index, "nodes": [[2, 17], [3, 17]]})
            else:
                pairs = random_pairs(rng, 20, 1 + index % 6)
                stream.append({"op": "route", "id": f"r{index}", "pairs": pairs})
        stream += [
            {"op": "ping", "id": 1.5},
            {"op": "route", "id": [1, 2], "pairs": [[0, 0, 99, 99]]},
            {"op": "frobnicate", "id": {"k": 1}},
            {"op": "route", "src": [0, 0], "dst": [19, 19]},
        ]

        async def over_tcp():
            daemon = RouteDaemon(scenario=scenario)
            host, port = await daemon.start()
            reader, writer = await asyncio.open_connection(host, port)
            lines = []
            for request in stream:
                writer.write(encode(request))
                await writer.drain()
                lines.append(await reader.readline())
            writer.close()
            await daemon.stop()
            return lines

        async def in_process():
            daemon = RouteDaemon(scenario=scenario)
            return [await daemon.handle(request) for request in stream]

        lines = asyncio.run(over_tcp())
        responses = asyncio.run(in_process())
        assert sum(b'"routes":[{' in line for line in lines) == 43
        assert lines == [encode(response) for response in responses]


# -- coalescer -----------------------------------------------------------------------


class TestCoalescer:
    def test_window_merges_concurrent_requests(self):
        flushes = []

        def flush(pending):
            flushes.append([entry.pairs for entry in pending])
            for entry in pending:
                entry.future.set_result(len(entry.pairs))

        async def main():
            coalescer = RouteCoalescer(flush, window=0.005, max_batch=100)
            results = await asyncio.gather(
                coalescer.submit([(0, 0, 1, 1)]),
                coalescer.submit([(1, 1, 2, 2), (2, 2, 3, 3)]),
                coalescer.submit([(3, 3, 4, 4)]),
            )
            return results

        assert asyncio.run(main()) == [1, 2, 1]
        assert len(flushes) == 1
        assert len(flushes[0]) == 3

    def test_max_batch_triggers_immediate_flush(self):
        flushes = []

        def flush(pending):
            flushes.append(sum(len(entry.pairs) for entry in pending))
            for entry in pending:
                entry.future.set_result(None)

        async def main():
            coalescer = RouteCoalescer(flush, window=60.0, max_batch=4)
            await asyncio.gather(*(coalescer.submit([(0, 0, 1, 1)]) for _ in range(8)))
            assert coalescer.stats.size_flushes == 2
            assert coalescer.stats.timer_flushes == 0

        asyncio.run(main())
        assert flushes == [4, 4]

    def test_max_batch_one_disables_coalescing(self):
        flushes = []

        def flush(pending):
            flushes.append(len(pending))
            for entry in pending:
                entry.future.set_result(None)

        async def main():
            coalescer = RouteCoalescer(flush, window=60.0, max_batch=1)
            await asyncio.gather(*(coalescer.submit([(0, 0, 1, 1)]) for _ in range(5)))
            assert coalescer.stats.coalesce_ratio == 1.0
            assert coalescer.stats.coalesced_flushes == 0

        asyncio.run(main())
        assert flushes == [1] * 5

    def test_flush_now_empties_queue(self):
        def flush(pending):
            for entry in pending:
                entry.future.set_result("flushed")

        async def main():
            coalescer = RouteCoalescer(flush, window=60.0, max_batch=100)
            future = asyncio.ensure_future(coalescer.submit([(0, 0, 1, 1)]))
            await asyncio.sleep(0)
            assert coalescer.queue_depth == 1
            coalescer.flush_now()
            assert coalescer.queue_depth == 0
            assert await future == "flushed"

        asyncio.run(main())

    @staticmethod
    def recording_coalescer(**knobs):
        """A coalescer whose flush records each flush's request ids."""
        flushes = []

        def flush(pending):
            flushes.append([entry.pairs[0][0] for entry in pending])
            for entry in pending:
                entry.future.set_result(entry.pairs[0][0])

        return RouteCoalescer(flush, **knobs), flushes

    def test_flush_waits_for_the_input_to_go_quiet(self):
        """A request per loop turn keeps the flush open past the window."""
        coalescer, flushes = self.recording_coalescer(window=0.0, max_batch=10_000)

        async def main():
            tasks = []
            for request in range(20):
                tasks.append(asyncio.ensure_future(coalescer.submit([(request, 0, 0, 0)])))
                await asyncio.sleep(0)
            return await asyncio.gather(*tasks)

        assert asyncio.run(main()) == list(range(20))
        assert flushes == [list(range(20))]
        assert coalescer.stats.timer_flushes == 1
        assert_flush_causes_add_up(coalescer.stats.as_dict())

    def test_lone_request_makes_one_timer_flush(self):
        coalescer, flushes = self.recording_coalescer(window=0.002, max_batch=10_000)

        assert asyncio.run(coalescer.submit([(7, 0, 0, 0)])) == 7
        assert flushes == [[7]]
        assert coalescer.stats.as_dict()["timer_flushes"] == 1
        assert_flush_causes_add_up(coalescer.stats.as_dict())

    def test_size_trigger_during_the_quiet_wait_flushes_at_once(self):
        coalescer, flushes = self.recording_coalescer(window=0.0, max_batch=5)

        async def main():
            tasks = []
            for request in range(7):
                tasks.append(asyncio.ensure_future(coalescer.submit([(request, 0, 0, 0)])))
                await asyncio.sleep(0)  # the submission runs before this returns
                if request == 4:
                    # The window ran out turns ago; the fifth pair flushed
                    # inside its own submit.
                    assert flushes == [[0, 1, 2, 3, 4]]
                    assert coalescer.queue_depth == 0
            await asyncio.gather(*tasks)

        asyncio.run(main())
        assert flushes == [[0, 1, 2, 3, 4], [5, 6]]
        stats = coalescer.stats
        assert (stats.size_flushes, stats.timer_flushes, stats.cut_flushes) == (1, 1, 0)
        assert_flush_causes_add_up(stats.as_dict())

    def test_flush_now_during_the_quiet_wait_keeps_request_order(self):
        coalescer, flushes = self.recording_coalescer(window=0.0, max_batch=10_000)

        async def main():
            tasks = []
            for request in range(6):
                tasks.append(asyncio.ensure_future(coalescer.submit([(request, 0, 0, 0)])))
                await asyncio.sleep(0)
                if request == 2:
                    coalescer.flush_now()  # a mutation cuts the batch here
            return await asyncio.gather(*tasks)

        assert asyncio.run(main()) == list(range(6))
        assert flushes == [[0, 1, 2], [3, 4, 5]]
        stats = coalescer.stats
        assert (stats.cut_flushes, stats.timer_flushes) == (1, 1)
        assert_flush_causes_add_up(stats.as_dict())

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            RouteCoalescer(lambda pending: None, window=-1.0, max_batch=1)
        with pytest.raises(ValueError):
            RouteCoalescer(lambda pending: None, max_batch=0)
        # A timer of inf (or nan) seconds never fires, so a lone request
        # would wait forever: neither the coalescer nor its daemon takes one.
        for window in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                RouteCoalescer(lambda pending: None, window=window, max_batch=1)
            with pytest.raises(ValueError, match="finite"):
                make_daemon(window=window)


# -- daemon verbs (in-process) -------------------------------------------------------


def make_daemon(**kwargs):
    scenario = generate_scenario(
        num_faults=40, width=24, model="clustered", seed=11
    )
    kwargs.setdefault("scenario", scenario)
    return RouteDaemon(**kwargs), scenario


class TestDaemonVerbs:
    def test_ping(self):
        daemon, _ = make_daemon()
        client = InProcessClient(daemon)
        assert asyncio.run(client.ping())["pong"] is True

    def test_route_single_pair(self):
        daemon, scenario = make_daemon()
        client = InProcessClient(daemon)
        outcome = asyncio.run(client.route_one((0, 0), (23, 23)))
        router = MeshSession.from_scenario(scenario).router("extended-ecube", "mfp")
        assert outcome == scalar_outcome(router, [0, 0, 23, 23])

    def test_bad_pair_rejected(self):
        daemon, _ = make_daemon()
        client = InProcessClient(daemon)

        async def main():
            with pytest.raises(ServeError) as excinfo:
                await client.route([[0, 0, 99, 99]])
            assert excinfo.value.code == E_BAD_PAIR
            with pytest.raises(ServeError):
                await client.route([])

        asyncio.run(main())

    @pytest.mark.parametrize(
        "fields, culprit",
        [
            ({"pairs": [[1, 1, 2, 2], [1.7, 0, 5, 5]]}, "1.7"),
            ({"pairs": [["3", 0, 5, 5]]}, "'3'"),
            ({"pairs": [[True, 0, 5, 5]]}, "True"),
            ({"pairs": [[0, 0, 5]]}, "[0, 0, 5]"),
            ({"src": [1.7, 0], "dst": [5, 5]}, "1.7"),
            ({"src": ["3", 0], "dst": [5, 5]}, "'3'"),
            ({"src": [True, 0], "dst": [5, 5]}, "True"),
            ({"src": [0, 0, 5], "dst": [5]}, "[0, 0, 5]"),
        ],
        ids=[
            "pairs-float", "pairs-str", "pairs-bool", "pairs-three",
            "src-float", "src-str", "src-bool", "src-three",
        ],
    )
    def test_non_integer_endpoint_rejected(self, fields, culprit):
        daemon, _ = make_daemon()
        response = asyncio.run(daemon.handle({"op": "route", **fields}))
        assert response["ok"] is False
        assert response["error"]["code"] == E_BAD_PAIR
        assert culprit in response["error"]["message"]
        assert daemon.coalescer.stats.requests == 0

    def test_numpy_integer_endpoints_route(self):
        daemon, scenario = make_daemon()
        pair = [np.int64(0), np.int32(0), np.uint8(23), 23]
        response = asyncio.run(daemon.handle({"op": "route", "pairs": [pair]}))
        router = MeshSession.from_scenario(scenario).router("extended-ecube", "mfp")
        assert response["routes"] == [scalar_outcome(router, [0, 0, 23, 23])]

    @pytest.mark.parametrize(
        "request_fields, code, culprit",
        [
            ({"op": "add_faults", "nodes": [[1.7, 0]]}, E_BAD_NODES, "1.7"),
            ({"op": "add_faults", "nodes": [[2, 2], ["3", 0]]}, E_BAD_NODES, "'3'"),
            ({"op": "add_faults", "nodes": [[True, 2]]}, E_BAD_NODES, "True"),
            ({"op": "add_link_faults", "links": [[[5.9, 5], [5, 6]]]}, E_BAD_LINKS, "5.9"),
            ({"op": "add_link_faults", "links": [[[2, 2], [3.0, 2]]]}, E_BAD_LINKS, "3.0"),
            ({"op": "repair", "nodes": [[3.2, 3]]}, E_BAD_NODES, "3.2"),
        ],
        ids=["add-float", "add-str", "add-bool", "link-float", "link-integral-float",
             "repair-float"],
    )
    def test_malformed_mutation_changes_nothing(self, request_fields, code, culprit, tmp_path):
        """A mutation whose coordinates are not integers is refused naming
        the culprit, and neither the session nor its journal moves."""
        session = MeshSession(width=10, faults=[(3, 3)])
        journal = tmp_path / "daemon.journal"
        daemon = RouteDaemon(session, journal=journal)
        before = (session.version, session.faults, journal.read_bytes())
        response = asyncio.run(daemon.handle(request_fields))
        daemon.journal.close()
        assert response["ok"] is False
        assert response["error"]["code"] == code
        assert culprit in response["error"]["message"]
        assert (session.version, session.faults, journal.read_bytes()) == before

    def test_unknown_op(self):
        daemon, _ = make_daemon()

        async def main():
            response = await daemon.handle({"op": "frobnicate", "id": 9})
            assert response["ok"] is False
            assert response["error"]["code"] == E_UNKNOWN_OP
            assert response["id"] == 9

        asyncio.run(main())

    def test_mutations_and_status(self):
        daemon, _ = make_daemon()
        client = InProcessClient(daemon)

        async def main():
            before = (await client.status())["mesh"]["faults"]
            added = await client.add_faults([(1, 1), (1, 2)])
            assert added["added"] == [[1, 1], [1, 2]]
            removed = await client.repair([(1, 1)])
            assert removed["removed"] == [[1, 1]]
            linked = await client.add_link_faults([((10, 10), (10, 11))])
            assert linked["added"] == [[10, 10]]
            status = await client.status()
            assert status["mesh"]["faults"] == before + 2
            assert status["version"] == linked["version"]
            assert status["requests"].get("route", 0) == 0
            assert status["requests"]["add_faults"] == 1
            assert "delta_applies" in status["cache_info"]

        asyncio.run(main())

    def test_simulate_runs_on_warm_session(self):
        daemon, _ = make_daemon()
        client = InProcessClient(daemon)
        payload = asyncio.run(client.simulate(load=0.02, cycles=32, seed=1))
        assert payload["attempted"] > 0
        assert payload["delivered"] <= payload["attempted"]

    def test_scalar_engine_daemon(self):
        # The daemon takes no engine: it routes a router the batch kernel
        # does not serve (a subclass of the built-in) on the scalar loop.
        with pytest.raises(TypeError):
            make_daemon(engine="batch")

        class Subclassed(ExtendedECubeRouter):
            pass

        register_router(
            RouterSpec(
                key="serve-scalar-test",
                label="ST",
                description="subclassed router the batch kernel does not serve",
                builder=Subclassed,
            ),
            replace=True,
        )
        daemon, scenario = make_daemon(router="serve-scalar-test")
        client = InProcessClient(daemon)
        rng = np.random.default_rng(2)
        pairs = random_pairs(rng, 24, 16)

        async def main():
            assert (await client.status())["engine"] is None  # nothing routed yet
            payload = await client.route(pairs)
            status = await client.status()
            assert status["engine"] == "scalar"
            assert status["degraded_flushes"] == 0  # chosen, not a fallback
            return payload

        payload = asyncio.run(main())
        assert payload["engine"] == "scalar"
        router = MeshSession.from_scenario(scenario).router("extended-ecube", "mfp")
        assert payload["routes"] == [scalar_outcome(router, p) for p in pairs]

    @pytest.mark.parametrize(
        "request_fields, field",
        [
            ({"op": "simulate", "load": "abc"}, "load"),
            ({"op": "simulate", "load": -1}, "load"),
            ({"op": "simulate", "cycles": "x"}, "cycles"),
            ({"op": "simulate", "construction": ["mfp"]}, "construction"),
            ({"op": "simulate", "construction": "nope"}, "construction"),
            ({"op": "simulate", "traffic": "poisson"}, "traffic"),
            ({"op": "route", "pairs": [[0, 0, 5, 5]], "deadline_ms": "nan"}, "deadline_ms"),
            ({"op": "simulate", "cycles": 2.7}, "cycles"),
            ({"op": "simulate", "cycles": "16"}, "cycles"),
            ({"op": "simulate", "cycles": True}, "cycles"),
            ({"op": "simulate", "seed": 1.9}, "seed"),
            ({"op": "simulate", "load": True}, "load"),
            ({"op": "simulate", "load": "0.05"}, "load"),
            ({"op": "route", "pairs": [[0, 0, 5, 5]], "deadline_ms": "5"}, "deadline_ms"),
            ({"op": "route", "pairs": [[0, 0, 5, 5]], "deadline_ms": True}, "deadline_ms"),
            (
                {"op": "add_link_faults", "links": [[[5, 5], [5, 6]]], "prefer_lower": "false"},
                "prefer_lower",
            ),
        ],
        ids=[
            "load-abc", "load-negative", "cycles-x", "construction-list",
            "construction-nope", "traffic-poisson", "deadline-nan",
            "cycles-float", "cycles-str", "cycles-bool", "seed-float", "load-bool",
            "load-str", "deadline-str", "deadline-bool", "prefer-lower-str",
        ],
    )
    def test_client_mistakes_are_bad_requests(self, request_fields, field):
        daemon, _ = make_daemon()
        version = daemon.session.version
        response = asyncio.run(daemon.handle(request_fields))
        assert response["ok"] is False
        assert response["error"]["code"] == E_BAD_REQUEST
        assert field in response["error"]["message"]
        assert daemon.session.version == version


# -- lifetime ------------------------------------------------------------------------


class TestDaemonLifetime:
    @pytest.mark.parametrize("case", ["built", "started", "journaled"])
    def test_freed_without_cyclic_gc(self, case, tmp_path):
        """``del`` frees a daemon and its session with the cyclic collector
        off, whatever the daemon did."""
        journal = tmp_path / "j.ndjson" if case == "journaled" else None
        daemon = RouteDaemon(MeshSession(width=10, faults=[(3, 3)]), port=0, journal=journal)

        async def main():
            if case == "started":
                await daemon.start()
                await daemon.handle({"op": "route", "pairs": [[0, 0, 9, 9]]})
            if case == "journaled":
                await daemon.handle({"op": "add_faults", "nodes": [[5, 5]]})
            await daemon.stop()

        if case != "built":
            asyncio.run(main())
        refs = [weakref.ref(daemon), weakref.ref(daemon.session)]
        gc.collect()
        gc.disable()
        try:
            del daemon
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


# -- bit-identity under churn --------------------------------------------------------


class TestCoalescedBitIdentity:
    def run_churn(self, seed, concurrency=24, rounds=3):
        """Coalesced daemon responses vs a scalar-oracle shadow session."""
        rng = np.random.default_rng(seed)
        scenario = generate_scenario(
            num_faults=30, width=20, model="clustered", seed=seed
        )
        daemon = RouteDaemon(scenario=scenario, window=0.002)
        client = InProcessClient(daemon)
        shadow = MeshSession.from_scenario(scenario)

        async def main():
            for round_index in range(rounds):
                pairs = random_pairs(rng, 20, concurrency)
                responses = await asyncio.gather(
                    *(client.route([pair]) for pair in pairs)
                )
                router = shadow.router("extended-ecube", "mfp")
                for pair, response in zip(pairs, responses):
                    assert response["routes"][0] == scalar_outcome(router, pair)
                # Interleave churn: alternately add and repair faults.
                if round_index % 2 == 0:
                    nodes = [
                        (int(rng.integers(0, 20)), int(rng.integers(0, 20)))
                        for _ in range(3)
                    ]
                    await client.add_faults(nodes)
                    shadow.add_faults(nodes)
                else:
                    faults = daemon.session.faults
                    victim = faults[int(rng.integers(0, len(faults)))]
                    await client.repair([victim])
                    shadow.remove_faults([victim])
            status = await client.status()
            assert status["coalescer"]["coalesce_ratio"] > 1.0
            assert_flush_causes_add_up(status["coalescer"])

        asyncio.run(main())

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_coalesced_equals_scalar_under_churn(self, seed):
        self.run_churn(seed)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_coalesced_equals_scalar_property(self, seed):
        self.run_churn(seed, concurrency=12, rounds=2)

    def test_default_size_trigger_is_the_admission_cap(self):
        """Without max_batch, one flush takes every request the cap admits."""
        scenario = generate_scenario(num_faults=30, width=20, model="clustered", seed=5)
        daemon = RouteDaemon(scenario=scenario, window=60.0, max_pending=2048)
        client = InProcessClient(daemon)
        rng = np.random.default_rng(5)
        requests = [random_pairs(rng, 20, 32) for _ in range(64)]

        async def main():
            return await asyncio.gather(*(client.route(pairs) for pairs in requests))

        responses = asyncio.run(main())
        stats = daemon.coalescer.stats
        assert (stats.flushes, stats.size_flushes, stats.max_flush_pairs) == (1, 1, 2048)
        router = MeshSession.from_scenario(scenario).router("extended-ecube", "mfp")
        for pairs, response in zip(requests, responses):
            assert response["routes"] == [scalar_outcome(router, p) for p in pairs]

    def test_buffered_routes_flushed_before_mutation(self):
        """Routes buffered before a mutation see pre-mutation state."""
        scenario = generate_scenario(num_faults=10, width=16, seed=4)
        daemon = RouteDaemon(scenario=scenario, window=60.0, max_batch=10_000)
        client = InProcessClient(daemon)
        shadow = MeshSession.from_scenario(scenario)
        pre_version = daemon.session.version

        async def main():
            route_task = asyncio.ensure_future(client.route([[0, 0, 15, 15]]))
            await asyncio.sleep(0)  # let the route buffer
            assert daemon.coalescer.queue_depth == 1
            await client.add_faults([(8, 8), (8, 9)])
            payload = await route_task
            assert payload["version"] == pre_version
            router = shadow.router("extended-ecube", "mfp")
            assert payload["routes"][0] == scalar_outcome(router, [0, 0, 15, 15])
            coalescer = (await client.status())["coalescer"]
            assert (coalescer["flushes"], coalescer["cut_flushes"]) == (1, 1)
            assert_flush_causes_add_up(coalescer)

        asyncio.run(main())


# -- TCP transport and lifecycle -----------------------------------------------------


class TestTcpDaemon:
    def test_concurrent_tcp_clients_bit_identical(self):
        scenario = generate_scenario(
            num_faults=30, width=20, model="clustered", seed=9
        )
        shadow_router = MeshSession.from_scenario(scenario).router(
            "extended-ecube", "mfp"
        )
        rng = np.random.default_rng(1)
        pairs = random_pairs(rng, 20, 32)

        async def main():
            daemon = RouteDaemon(scenario=scenario)
            host, port = await daemon.start()
            clients = [
                await ServeClient(host, port).connect() for _ in range(8)
            ]
            try:
                responses = await asyncio.gather(
                    *(
                        clients[index % len(clients)].route([pair])
                        for index, pair in enumerate(pairs)
                    )
                )
                for pair, response in zip(pairs, responses):
                    assert response["routes"][0] == scalar_outcome(
                        shadow_router, pair
                    )
                status = await clients[0].status()
                assert status["serving"] is True
                assert status["uptime"] >= 0.0
            finally:
                for client in clients:
                    await client.close()
            await daemon.stop()

        asyncio.run(main())

    def test_shutdown_verb_stops_server(self):
        async def main():
            daemon = RouteDaemon(session=MeshSession(width=8))
            host, port = await daemon.start()
            async with ServeClient(host, port) as client:
                payload = await client.shutdown()
                assert payload["stopping"] is True
            await asyncio.wait_for(daemon.serve_forever(), timeout=5.0)
            # New connections are refused after the listener closed.
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)

        asyncio.run(main())

    def test_requests_after_drain_rejected(self):
        async def main():
            daemon = RouteDaemon(session=MeshSession(width=8))
            await daemon.stop()
            response = await daemon.handle({"op": "route", "pairs": [[0, 0, 1, 1]]})
            assert response["error"]["code"] == E_SHUTTING_DOWN
            # Health stays answerable while draining.
            status = await daemon.handle({"op": "status"})
            assert status["ok"] and status["serving"] is False

        asyncio.run(main())

    def test_malformed_line_gets_error_response(self):
        async def main():
            daemon = RouteDaemon(session=MeshSession(width=8))
            host, port = await daemon.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"not json\n")
            await writer.drain()
            response = decode_line(await reader.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == E_BAD_REQUEST
            writer.close()
            await daemon.stop()

        asyncio.run(main())


# -- CLI wiring ----------------------------------------------------------------------


class TestCliWiring:
    def test_serve_and_query_parsers(self):
        from repro.cli import build_parser

        parser = build_parser()
        serve = parser.parse_args(
            ["serve", "--width", "32", "--port", "0", "--max-batch", "64"]
        )
        assert serve.func.__name__ == "cmd_serve"
        assert serve.max_batch == 64
        query = parser.parse_args(
            ["query", "--port", "1234", "--random", "10", "--shutdown"]
        )
        assert query.func.__name__ == "cmd_query"
        assert query.random == 10 and query.shutdown
