#!/usr/bin/env python
"""A live routing service surviving fault churn, on the in-process client.

The batch pipeline treats every (fault set, construction, router) triple
as a throwaway: construct, route, discard.  ``repro.serve`` instead
keeps the session warm inside an asyncio daemon, coalesces concurrent
route requests into single batch-engine calls, and -- when faults churn
-- transplants engine state (jump tables, packed ring segments) from the
predecessor router instead of rebuilding it.

This example drives :class:`repro.serve.RouteDaemon` through
:class:`repro.serve.InProcessClient` (the exact daemon code path, no
socket) over a small operational storyline:

1. bring the service up on a clustered 40x40 scenario and route a
   steady traffic mix,
2. watch a fault cluster grow node by node -- delivery degrades, the
   ``status`` verb shows versions and delta counters advancing,
3. map two failed *links* onto endpoint node faults and keep serving,
4. repair the cluster and confirm delivery recovers,
5. fire 32 concurrent requests and read the coalescer's merge ratio.

Run with::

    python examples/live_routing_service.py
"""

from __future__ import annotations

import asyncio

from repro import generate_scenario
from repro.serve import InProcessClient, RouteDaemon


def steady_traffic(width: int, count: int, seed: int):
    """A fixed request mix, as a warm service would see tick after tick."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return [
        tuple(int(v) for v in rng.integers(0, width, size=4)) for _ in range(count)
    ]


async def route_and_report(client: InProcessClient, pairs, label: str) -> None:
    response = await client.route(pairs)
    routes = response["routes"]
    delivered = sum(1 for route in routes if route["delivered"])
    hops = [route["hops"] for route in routes if route["delivered"]]
    mean_hops = sum(hops) / len(hops) if hops else 0.0
    print(
        f"  {label:<34} v{response['version']:<3} "
        f"{delivered}/{len(routes)} delivered, mean hops {mean_hops:5.2f}"
    )


async def main() -> None:
    width = 40
    scenario = generate_scenario(
        num_faults=60, width=width, model="clustered", seed=11
    )
    daemon = RouteDaemon(scenario=scenario, construction="mfp", window=0.002)
    client = InProcessClient(daemon)
    pairs = steady_traffic(width, 200, seed=5)

    print("Live routing service under fault churn")
    print("=" * 66)
    status = await client.status()
    mesh = status["mesh"]
    print(
        f"serving {mesh['width']}x{mesh['height']} mesh, "
        f"{mesh['faults']} faults in {mesh['components']} components"
    )

    print("\n1. steady traffic on the initial scenario")
    await route_and_report(client, pairs, "baseline")

    print("\n2. a fault cluster grows node by node")
    anchor = (width // 2, width // 2)
    for step in range(4):
        node = (anchor[0] + step % 2, anchor[1] + step // 2)
        await client.add_faults([node])
        await route_and_report(client, pairs, f"after fault at {node}")
    status = await client.status()
    info = status["cache_info"]
    print(
        f"  delta counters: {info['delta_applies']} transplants, "
        f"{info['jump_rebuilds']} jump rebuilds, "
        f"{info['ring_rebuilds']} ring rebuilds"
    )

    print("\n3. two links fail; their endpoints absorb the fault")
    links = [((5, 5), (5, 6)), ((30, 10), (31, 10))]
    payload = await client.add_link_faults(links)
    print(f"  links {links} mapped onto node faults {payload['added']}")
    await route_and_report(client, pairs, "after link faults")

    print("\n4. the cluster is repaired")
    repaired = await client.repair(
        [(anchor[0] + step % 2, anchor[1] + step // 2) for step in range(4)]
    )
    print(f"  removed {repaired['removed']}")
    await route_and_report(client, pairs, "after repair")

    print("\n5. 32 concurrent requests coalesce into batch-engine calls")
    chunks = [pairs[i::32] for i in range(32)]
    await asyncio.gather(*(client.route(chunk) for chunk in chunks))
    stats = (await client.status())["coalescer"]
    print(
        f"  {stats['requests']} requests, {stats['flushes']} engine calls, "
        f"coalesce ratio {stats['coalesce_ratio']:.1f} pairs/flush"
    )

    await client.shutdown()
    print("\ndaemon drained and stopped")


if __name__ == "__main__":
    asyncio.run(main())
