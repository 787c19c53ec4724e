"""The serve-churn daemon process: set up a RouteDaemon, listen, report.

Started by the serve-churn workload (``workloads.run_serve``), never by
hand.  It prints one JSON line per event on stdout:

``ready``
    the listening port, the journal path, the set-up times (scenario
    draw, session, MFP build and router, until the socket listens) and a
    machine-speed probe taken after each set-up;
``traced``
    after each tracing switch (``SIGUSR1`` on, ``SIGUSR2`` off), so the
    client knows the switch has landed before it sends more load;
``exit``
    after a ``shutdown`` request: peak RSS and, when traced, the span
    aggregates of the traced window with its CPU time (set-up is untraced).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer, install  # noqa: E402
from workloads import WORK, peak_rss_mib, probe_ms, subseed  # noqa: E402


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


async def serve(args: argparse.Namespace, tracer: Tracer | None) -> None:
    from repro.api import MeshSession
    from repro.faults import scenario as scenario_mod
    from repro.serve import RouteDaemon

    setup_s, setup_probes = [], []
    daemon = journal = None
    for index in range(args.setups):
        if daemon is not None:
            await daemon.stop()
        start = time.perf_counter()
        scenario = scenario_mod.generate_scenario(
            args.faults, width=args.width, model="clustered", seed=subseed(args.seed, 0)
        )
        session = MeshSession.from_scenario(scenario)
        journal = args.workdir / f"journal-{index}.ndjson"
        daemon = RouteDaemon(session, journal=journal)
        session.routing.context("extended-ecube", "mfp")  # MFP, router, context
        await daemon.start()
        setup_s.append(time.perf_counter() - start)
        setup_probes.append(probe_ms())
    if tracer is not None:
        # Tracing covers the client's traced request window only, the
        # window the status counters it is reported with cover too.
        loop = asyncio.get_running_loop()

        def switch(on: bool) -> None:
            if on:
                tracer.activate()
            else:
                tracer.deactivate()
            emit("traced", on=on)

        loop.add_signal_handler(signal.SIGUSR1, switch, True)
        loop.add_signal_handler(signal.SIGUSR2, switch, False)
    emit("ready", port=daemon.address[1], journal=str(journal), setup_s=setup_s,
         setup_probes_ms=setup_probes)
    await daemon.serve_forever()
    report = {"peak_rss_mib": peak_rss_mib()}
    if tracer is not None:
        report["trace"] = tracer.aggregate()
        tracer.dump(WORK / "trace-serve-churn.jsonl")
    emit("exit", **report)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--width", type=int, required=True)
    parser.add_argument("--faults", type=int, required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    asyncio.run(serve(args, tracer))


if __name__ == "__main__":
    main()
