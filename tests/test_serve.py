"""Tests of the serving layer: coalescer, daemon verbs, TCP, bit-identity.

The contract under test is the ISSUE's acceptance bar: coalesced batch
responses are bit-identical to individually-routed scalar calls --
including under interleaved fault churn -- the coalescer's two flush
triggers behave (window timer, max-batch cap, ``max_batch=1`` =
uncoalesced), mutations flush buffered routes against pre-mutation state,
and the daemon drains gracefully.  Tests drive the event loop through
``asyncio.run`` inside synchronous test functions (no pytest-asyncio in
the toolchain).
"""

import asyncio
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import MeshSession
from repro.faults.scenario import generate_scenario
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
    E_BAD_PAIR,
    E_BAD_REQUEST,
    E_SHUTTING_DOWN,
    E_UNKNOWN_OP,
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

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            RouteCoalescer(lambda pending: None, window=-1.0)
        with pytest.raises(ValueError):
            RouteCoalescer(lambda pending: None, max_batch=0)


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
                builder=lambda topology, regions, region_index, options: Subclassed(
                    topology, regions, region_index=region_index
                ),
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
        ],
        ids=[
            "load-abc", "load-negative", "cycles-x", "construction-list",
            "construction-nope", "traffic-poisson", "deadline-nan",
        ],
    )
    def test_client_mistakes_are_bad_requests(self, request_fields, field):
        daemon, _ = make_daemon()
        response = asyncio.run(daemon.handle(request_fields))
        assert response["ok"] is False
        assert response["error"]["code"] == E_BAD_REQUEST
        assert field in response["error"]["message"]


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

        asyncio.run(main())

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_coalesced_equals_scalar_under_churn(self, seed):
        self.run_churn(seed)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_coalesced_equals_scalar_property(self, seed):
        self.run_churn(seed, concurrency=12, rounds=2)

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
