"""Command-line interface for the reproduction package.

The CLI is a thin shell over the :mod:`repro.api` session layer: every
command resolves its fault-region models through the construction registry
(``repro.api.get_construction``) and builds them on a
:class:`repro.api.MeshSession`.

``repro-mesh construct``
    Build FB / FP / MFP / DMFP regions for one generated fault pattern and
    print their statistics (optionally an ASCII rendering of the grid).

``repro-mesh sweep``
    Run a sweep of one trial kind in memory and print its tables
    (optionally ASCII charts): the Figure 9/10/11 fault-count sweep
    (``--kind construction``, the default), the routing sweep (delivery
    rate / detour vs. fault count; ``--kind routing`` or ``--routing``) or
    the latency-vs-load sweep (``--kind latency``).  It takes the same
    trial-spec flags as ``campaign run`` and is that command without a
    store; ``--workers`` fans the trials out over a process pool.

``repro-mesh route``
    Route one synthetic traffic workload (``--traffic``, any key of the
    traffic registry) through a router (``--router``) over the regions of
    each fault model built from the same fault pattern, and print
    delivery/detour statistics.  The header names the engine that ran:
    the batch kernel for the built-in routers (the scalar loop is its
    bit-identical oracle, see :func:`repro.routing.engine.resolve_engine`).

``repro-mesh simulate``
    Run the open-loop contention simulator (:mod:`repro.netsim`) over one
    fault pattern: inject timed traffic (``--arrival poisson|bursty``) at
    one or more offered loads (``--loads``), replay the routed paths
    against per-virtual-channel occupancy and print the latency /
    throughput / saturation table.  ``--sim scalar`` replays on the
    dict-based oracle instead of the bit-identical array simulator.

``repro-mesh serve``
    Start the long-lived routing daemon (:mod:`repro.serve`) on one
    generated fault pattern: route queries over newline-delimited JSON,
    micro-batched into single engine calls, with fault churn applied as
    incremental engine deltas.  ``--journal`` makes the daemon
    crash-recoverable (a non-empty journal is replayed on start-up);
    ``--max-pending`` / ``--max-inflight`` bound admission.

``repro-mesh query``
    Client of a running daemon: route explicit or random pairs, stream
    fault/repair/link-fault updates, print the ``status`` payload or
    request a graceful shutdown; ``--wait`` retries the connection while
    a freshly started daemon binds its port, ``--timeout`` bounds each
    request, ``--retries`` retries transient failures with backoff (all
    three ride :class:`repro.serve.retry.RetryPolicy`).

``repro-mesh campaign``
    Run, resume, inspect and reduce resumable trial campaigns
    (:mod:`repro.campaign`).  An unusable store (missing, foreign code
    version, malformed manifest) prints one ``campaign error:`` line on
    stderr and exits 2; exit 1 means an incomplete campaign.

``repro-mesh verify``
    Run the construction verification suite on a generated fault pattern.

``repro-mesh experiments``
    List the paper's figures / ablations and the benchmark targets that
    regenerate them.

Run ``repro-mesh <command> --help`` for the full option list.  The module is
also executable directly: ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, get_args, get_type_hints

from repro.api import (
    TRIAL_KINDS,
    ConstructionResult,
    MeshSession,
    SweepExecutor,
    router_keys,
    traffic_keys,
)
from repro.campaign import CampaignError
from repro.core.verify import (
    compare_constructions_report,
    verify_faulty_blocks,
    verify_minimality,
    verify_orthogonal_convexity,
)
from repro.faults.scenario import generate_scenario
from repro.netsim.session import arrival_keys
from repro.sim.figures import (
    DEFAULT_FAULT_COUNTS,
    figure9_series,
    figure10_series,
    figure11_series,
    format_series_table,
    latency_series,
    routing_series,
)
from repro.sim.registry import get_experiment, render_index
from repro.sim.render import render_ascii_chart

#: Registry keys built by the construct/verify commands, in display order.
CONSTRUCT_KEYS = ("fb", "fp", "mfp", "dmfp")

#: ``--sim`` values: the array simulator (``auto``) or its scalar oracle.
_SIM_CHOICES = ("auto", "array", "scalar")


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--faults", type=int, default=200, help="number of faults")
    parser.add_argument("--width", type=int, default=50, help="mesh width (square mesh)")
    parser.add_argument(
        "--distribution",
        choices=("random", "clustered"),
        default="clustered",
        help="fault distribution model",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--cluster-factor",
        type=float,
        default=2.0,
        help="failure-rate multiplier of the clustered model",
    )
    parser.add_argument("--torus", action="store_true", help="use a torus topology")


def _session_from(args: argparse.Namespace):
    scenario = generate_scenario(
        num_faults=args.faults,
        width=args.width,
        model=args.distribution,
        seed=args.seed,
        torus=args.torus,
        cluster_factor=args.cluster_factor,
    )
    return scenario, MeshSession.from_scenario(scenario)


def _build_models(
    session: MeshSession, keys: Sequence[str] = CONSTRUCT_KEYS
) -> Dict[str, ConstructionResult]:
    return {key: session.build(key) for key in keys}


# -- subcommands -------------------------------------------------------------------


def cmd_construct(args: argparse.Namespace) -> int:
    scenario, session = _session_from(args)
    print(f"scenario: {scenario.describe()}")
    constructions = _build_models(session)
    print(f"{'model':>5} {'regions':>8} {'disabled non-faulty':>20} {'mean size':>10} {'rounds':>7}")
    for result in constructions.values():
        print(
            f"{result.label:>5} {result.num_regions:>8} "
            f"{result.num_disabled_nonfaulty:>20} "
            f"{result.mean_region_size:>10.2f} {result.rounds:>7}"
        )
    if args.render:
        chosen = session.build(args.render)
        print(f"\n{chosen.label} grid ('#' faulty, 'o' disabled non-faulty):")
        print(chosen.grid.render())
    return 0


# -- the trial-spec flags of sweep and campaign run ---------------------------------

#: The flag of each sweep axis (a trial-spec field).
_AXIS_FLAGS: Dict[str, str] = {"num_faults": "--fault-counts", "load": "--loads"}

#: Sweep parameters not spelled ``--field-name``.  A bool flag sets its
#: field to the opposite of the trial spec's default.
_SPELLINGS: Dict[str, str] = {"base_seed": "--seed", "include_rounds": "--skip-rounds"}


def _offered_load(text: str) -> float:
    """An offered load: a finite number of messages per node per cycle above 0."""
    try:
        load = float(text)
    except ValueError:
        load = math.nan
    if not (math.isfinite(load) and load > 0):
        raise argparse.ArgumentTypeError(f"not a finite load above 0: {text!r}")
    return load


def _at_least_one(text: str) -> int:
    """A count or a cap: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a whole number of at least 1: {text!r}")
    return value


def _at_least_zero(text: str) -> int:
    """A count that may be zero: a whole number of at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a whole number of at least 0: {text!r}")
    return value


def _port(text: str) -> int:
    """A TCP port: a whole number from 0 to 65535."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"not a port from 0 to 65535: {text!r}")
    return value


def _window(text: str) -> float:
    """A coalescing window: a finite number of seconds, 0 or more."""
    try:
        window = float(text)
    except ValueError:
        window = math.nan
    if not (math.isfinite(window) and window >= 0):
        raise argparse.ArgumentTypeError(f"not a finite number of seconds >= 0: {text!r}")
    return window


def trial_flags() -> Dict[str, Tuple[str, type, Dict[str, Any]]]:
    """Every scalar sweep parameter of any trial kind, in kind order.

    Maps the parameter (a trial-spec field or ``base_seed``) to its flag,
    its type and its default per kind that takes it; the trial specs are
    the only place those defaults are written down.
    """
    flags: Dict[str, Tuple[str, type, Dict[str, Any]]] = {}
    for kind in TRIAL_KINDS.values():
        hints = get_type_hints(kind.spec_type)
        for name, default in kind.defaults().items():
            hint = hints.get(name, type(default))
            hint = next((t for t in get_args(hint) if t is not type(None)), hint)
            if hint in (bool, int, float, str):
                flag = _SPELLINGS.get(name, "--" + name.replace("_", "-"))
                flags.setdefault(name, (flag, hint, {}))[2][kind.key] = default
    return flags


def _add_trial_arguments(parser: argparse.ArgumentParser) -> None:
    """``--kind``, the axis flags and one flag per :func:`trial_flags` entry.

    No flag declares a default: an omitted flag stays ``None``, so its
    value comes from the kind's trial spec.
    """
    parser.add_argument(
        "--kind", choices=tuple(TRIAL_KINDS), default="construction",
        help="trial kind (a key of repro.api.TRIAL_KINDS)",
    )
    for axis, flag in _AXIS_FLAGS.items():
        kinds = [kind for kind in TRIAL_KINDS.values() if kind.axis == axis]
        default = " ".join(map(str, DEFAULT_FAULT_COUNTS)) if axis == "num_faults" else None
        parser.add_argument(
            flag, type=_offered_load if axis == "load" else kinds[0].axis_type, nargs="+",
            help=f"sweep axis of {'/'.join(kind.key for kind in kinds)} trials "
            + (f"(default: {default})" if default else "(required)"),
        )
    choices = {
        "distribution": ("random", "clustered"),
        "router": router_keys(),
        "traffic": traffic_keys(),
        "arrival": arrival_keys(),
        "sim": _SIM_CHOICES,
    }
    for name, (flag, hint, defaults) in trial_flags().items():
        spec_defaults = ", ".join(f"{kind} {value}" for kind, value in defaults.items())
        if hint is bool:
            const = not next(iter(defaults.values()))
            parser.add_argument(
                flag, dest=name, action="store_const", const=const,
                help=f"set {name} to {const} (trial spec: {spec_defaults})",
            )
        else:
            parser.add_argument(
                flag, dest=name, type=hint, choices=choices.get(name),
                help=f"trial spec: {spec_defaults}",
            )


def _trial_request(args: argparse.Namespace) -> Tuple[List[Any], Dict[str, Any]]:
    """The ``(axis, params)`` a ``sweep`` or ``campaign run`` asks for.

    Only flags the user actually passed enter ``params``: the campaign
    fingerprint canonicalises the params dict, so spelling a default out
    would make the CLI's campaign a different campaign than the identical
    API call.  A flag that sets no field of the kind's trial spec is an
    error, never silently dropped.
    """
    kind = TRIAL_KINDS[args.kind]
    accepted = kind.defaults()
    axes = {name: getattr(args, flag[2:].replace("-", "_")) for name, flag in _AXIS_FLAGS.items()}
    flags = trial_flags()
    params = {name: getattr(args, name) for name in flags if getattr(args, name) is not None}
    foreign = [
        _AXIS_FLAGS[name] for name, values in axes.items()
        if values is not None and name != kind.axis
    ]
    foreign += [flags[name][0] for name in params if name not in accepted]
    if foreign:
        raise SystemExit(f"--kind {args.kind} takes no {', '.join(foreign)}")
    axis = axes[kind.axis]
    if axis is None:
        if kind.axis != "num_faults":
            raise SystemExit(f"--kind {args.kind} requires {_AXIS_FLAGS[kind.axis]}")
        axis = list(DEFAULT_FAULT_COUNTS)
    return axis, params


#: The tables ``sweep`` prints for each trial kind, made from its points.
SWEEP_TABLES: Dict[str, Tuple[Any, ...]] = {
    "construction": (figure9_series, figure10_series, figure11_series),
    "routing": tuple(
        partial(routing_series, metric=metric) for metric in ("delivery_rate", "mean_detour")
    ),
    "latency": tuple(
        partial(latency_series, metric=metric) for metric in ("mean_latency", "accepted_load")
    ),
}


def cmd_sweep(args: argparse.Namespace) -> int:
    axis, params = _trial_request(args)
    models = None
    tables = SWEEP_TABLES[args.kind]
    if args.skip_distributed:
        models = [key for key in TRIAL_KINDS[args.kind].default_models if key != "dmfp"]
        tables = tuple(table for table in tables if table is not figure11_series)
    executor = SweepExecutor(models, workers=args.workers)
    points = executor.run(axis, args.trials, kind=args.kind, **params)
    for table in tables:
        figure = table(points)
        print(format_series_table(figure))
        if args.chart:
            print()
            print(render_ascii_chart(figure))
        print()
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    scenario, session = _session_from(args)
    routed = [
        session.route(
            key, router=args.router, traffic=args.traffic, messages=args.messages, seed=args.seed
        )
        for key in ("fb", "fp", "mfp")
    ]
    print(f"scenario: {scenario.describe()}")
    print(
        f"traffic: {args.traffic}, router: {args.router}, "
        f"messages: {args.messages}, engine: {routed[0].engine}"
    )
    print(
        f"{'model':>5} {'enabled':>8} {'delivery':>9} {'mean hops':>10} "
        f"{'detour':>7} {'abnormal':>9}"
    )
    for stats in routed:
        print(
            f"{stats.model:>5} {stats.enabled:>8} {stats.delivery_rate:>9.3f} "
            f"{stats.mean_hops:>10.2f} {stats.mean_detour:>7.2f} "
            f"{stats.abnormal_fraction:>9.3f}"
        )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario, session = _session_from(args)
    print(f"scenario: {scenario.describe()}")
    print(
        f"traffic: {args.traffic}, arrival: {args.arrival}, "
        f"router: {args.router}, model: {args.model}, sim: {args.sim}, "
        f"cycles: {args.cycles}"
    )
    print(
        f"{'load':>7} {'attempted':>10} {'delivered':>10} {'inflight':>9} "
        f"{'latency':>8} {'queue':>7} {'accepted':>9} {'state':>9}"
    )
    for load in args.loads:
        stats = session.simulate(
            args.model,
            traffic=args.traffic,
            arrival=args.arrival,
            load=load,
            cycles=args.cycles,
            seed=args.seed,
            router=args.router,
            sim=args.sim,
            drain_factor=args.drain_factor,
        )
        state = "deadlock" if stats.deadlocked else (
            "saturated" if stats.saturated else "stable"
        )
        print(
            f"{load:>7.4f} {stats.attempted:>10} {stats.delivered:>10} "
            f"{stats.in_flight:>9} {stats.mean_latency:>8.2f} "
            f"{stats.mean_queueing:>7.2f} {stats.accepted_load:>9.4f} {state:>9}"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the serving layer is optional machinery on top of
    # the session API.
    from repro.serve import JournalError, RouteDaemon

    knobs = dict(
        construction=args.model,
        router=args.router,
        window=args.window,
        max_batch=args.max_batch,
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        max_inflight=args.max_inflight,
        snapshot_every=args.snapshot_every,
        journal_max_bytes=args.journal_max_bytes,
    )
    journal_path = Path(args.journal) if args.journal else None
    if journal_path is not None and journal_path.exists() and journal_path.stat().st_size:
        # A non-empty journal wins over the scenario flags: the daemon
        # resumes the exact session the previous process was serving.
        try:
            daemon = RouteDaemon.recover(journal_path, **knobs)
        except JournalError as exc:
            print(f"journal error: {exc}", file=sys.stderr)
            return 1
        scenario_line = (
            f"recovered from {journal_path} "
            f"(events replayed: {daemon.recovered['events_replayed']}, "
            f"snapshot version: {daemon.recovered['snapshot_version']})"
        )
    else:
        scenario, session = _session_from(args)
        daemon = RouteDaemon(session, journal=journal_path, **knobs)
        scenario_line = f"scenario: {scenario.describe()}"

    async def run() -> None:
        host, port = await daemon.start()
        print(scenario_line)
        print(
            f"serving on {host}:{port} (model: {args.model}, router: "
            f"{args.router}, window: {args.window * 1000:.3g} ms, "
            f"max-batch: {daemon.coalescer.max_batch})",
            flush=True,
        )
        await daemon.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    print("daemon stopped", flush=True)
    return 0


def _parse_csv_ints(text: str, arity: int, what: str) -> Tuple[int, ...]:
    parts = text.replace(":", ",").split(",")
    if len(parts) != arity:
        raise SystemExit(f"bad {what} {text!r}: expected {arity} integers")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise SystemExit(f"bad {what} {text!r}: expected integers")


def cmd_query(args: argparse.Namespace) -> int:
    from repro.serve import RetryPolicy, ServeClient, ServeError

    retry = None
    if args.retries:
        retry = RetryPolicy(max_attempts=args.retries + 1)
    # --wait is the daemon start-up grace: retry only the *connection*,
    # on the same backoff engine request retries use (no jitter, so the
    # grace stays a predictable upper bound).
    connect_retry = None
    if args.wait > 0:
        connect_retry = RetryPolicy(
            max_attempts=None,
            base_delay=0.05,
            max_delay=0.5,
            jitter=0.0,
            deadline=args.wait,
        )

    async def run() -> int:
        client = ServeClient(
            args.host, args.port, retry=retry, timeout=args.timeout
        )
        try:
            await client.connect(retry=connect_retry)
        except OSError:
            print(
                f"could not connect to {args.host}:{args.port}",
                file=sys.stderr,
            )
            return 1
        try:
            if args.add_faults:
                nodes = [_parse_csv_ints(n, 2, "node") for n in args.add_faults]
                payload = await client.add_faults(nodes)
                print(json.dumps(payload))
            if args.repair:
                nodes = [_parse_csv_ints(n, 2, "node") for n in args.repair]
                payload = await client.repair(nodes)
                print(json.dumps(payload))
            if args.add_link_faults:
                links = []
                for text in args.add_link_faults:
                    x1, y1, x2, y2 = _parse_csv_ints(text, 4, "link")
                    links.append(((x1, y1), (x2, y2)))
                payload = await client.add_link_faults(links)
                print(json.dumps(payload))
            pairs: List[List[int]] = [
                list(_parse_csv_ints(p, 4, "pair")) for p in args.pairs or ()
            ]
            if args.random:
                import numpy as np

                status = await client.status()
                width = status["mesh"]["width"]
                height = status["mesh"]["height"]
                rng = np.random.default_rng(args.seed)
                for _ in range(args.random):
                    sx, dx = (int(v) for v in rng.integers(0, width, size=2))
                    sy, dy = (int(v) for v in rng.integers(0, height, size=2))
                    pairs.append([sx, sy, dx, dy])
            if pairs:
                payload = await client.route(pairs)
                routes = payload["routes"]
                delivered = sum(1 for r in routes if r["delivered"])
                hops = sum(r["hops"] for r in routes if r["delivered"])
                print(
                    f"routed {len(routes)} pairs: {delivered} delivered "
                    f"({delivered / len(routes):.3f}), "
                    f"mean hops {hops / delivered if delivered else 0.0:.2f}, "
                    f"engine {payload['engine']}, version {payload['version']}"
                )
                if args.verbose:
                    for pair, route in zip(pairs, routes):
                        print(f"  {pair}: {json.dumps(route)}")
            if args.status or not (
                pairs or args.add_faults or args.repair
                or args.add_link_faults or args.shutdown
            ):
                print(json.dumps(await client.status(), indent=2, sort_keys=True))
            if args.shutdown:
                await client.shutdown()
                print("shutdown requested")
            return 0
        except ServeError as exc:
            print(f"daemon error: {exc}", file=sys.stderr)
            return 1
        except (asyncio.TimeoutError, TimeoutError, OSError) as exc:
            detail = f": {exc}" if str(exc) else ""
            print(
                f"request to {args.host}:{args.port} failed "
                f"({type(exc).__name__}){detail}",
                file=sys.stderr,
            )
            return 1
        finally:
            await client.close()

    return asyncio.run(run())


def _parse_hostport(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"bad address {text!r}: expected HOST:PORT")
    return host, int(port)


def _campaign_execute(args: argparse.Namespace, spec) -> int:
    """Shared run/resume machinery: build the runner, stream progress."""
    from repro.campaign import CampaignRunner, TcpTransport

    transport: object = args.transport
    if args.transport == "tcp":
        # Pre-start the shard server so the bound port can be printed
        # before any worker needs it (start is idempotent).
        if spec is None:
            from repro.campaign import CampaignStore

            store = CampaignStore.open(Path(args.dir))
            spec = store.campaign
            store.close()
        host, port = _parse_hostport(args.listen)
        transport = TcpTransport(spec, host=host, port=port, workers=args.workers)
        transport.start()
        bound_host, bound_port = transport.address
        print(
            f"tcp transport listening on {bound_host}:{bound_port} "
            f"(connect workers with: repro-mesh campaign worker "
            f"{bound_host}:{bound_port})",
            flush=True,
        )

    state = {"last": -1}

    def progress(done: int, total: int) -> None:
        percent = 100 * done // total if total else 100
        if percent >= state["last"] + 5 or done == total:
            state["last"] = percent
            print(f"  {done}/{total} trials ({percent}%)", flush=True)

    runner = CampaignRunner(
        spec,
        args.dir,
        workers=args.workers,
        transport=transport,
        chunk_trials=args.chunk_trials,
        max_inflight=args.max_inflight,
        task_timeout=args.task_timeout,
        max_tasks=args.max_tasks,
        progress=progress if not (args.quiet or args.json) else None,
    )
    try:
        summary = runner.run()
    finally:
        runner.close()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            f"campaign {summary['fingerprint'][:16]}...: "
            f"{summary['executed']} executed, {summary['skipped']} skipped, "
            f"{summary['rescheduled']} rescheduled, "
            f"{summary['rows_stored']} rows in {summary['chunks_after']} "
            f"chunks, {summary['elapsed']:.2f}s"
            + ("  [complete]" if summary["complete"] else "  [partial]")
        )
    return 0 if summary["complete"] or args.max_tasks is not None else 1


def cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignSpec

    spec = None
    # Running against an existing store is resuming; the fingerprint
    # check refuses a directory holding a different campaign.
    if not (Path(args.dir) / "manifest.jsonl").exists():
        axis, params = _trial_request(args)
        spec = CampaignSpec.create(args.kind, axis, args.trials, models=args.models, **params)
    return _campaign_execute(args, spec)


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    return _campaign_execute(args, None)


def cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import campaign_status, format_status

    status = campaign_status(args.dir)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        print(format_status(status))
    return 0 if status["complete"] else 1


def cmd_campaign_reduce(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignRunner

    runner = CampaignRunner(None, args.dir, workers=1)
    try:
        points = runner.reduce()
    finally:
        runner.close()
    if args.json:
        print(json.dumps([p.as_dict() for p in points], indent=2))
        return 0
    columns = sorted(points[0].stats) if points else []
    if args.metric:
        columns = [c for c in columns if args.metric in c]
        if not columns:
            raise SystemExit(f"no stored column matches {args.metric!r}")
    for column in columns:
        print(f"{column}:")
        print(f"  {'x':>10} {'n':>8} {'mean':>12} {'ci95':>12}")
        for point in points:
            moments = point.stats[column]
            print(
                f"  {point.x:>10g} {moments.count:>8} "
                f"{moments.mean:>12.4f} {moments.ci95:>12.4f}"
            )
    return 0


def cmd_campaign_worker(args: argparse.Namespace) -> int:
    from repro.campaign import run_tcp_worker

    host, port = _parse_hostport(args.address)
    served = run_tcp_worker(host, port, max_tasks=args.max_tasks)
    print(f"worker done: {served} tasks served")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    if args.key:
        print(get_experiment(args.key).describe())
    else:
        print(render_index())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    scenario, session = _session_from(args)
    faults = session.faults
    print(f"scenario: {scenario.describe()}")
    constructions = _build_models(session)
    reports = {
        "FB rectangular blocks": verify_faulty_blocks(constructions["fb"].raw, faults),
        "FP orthogonal convexity": verify_orthogonal_convexity(
            constructions["fp"].raw, faults
        ),
        "MFP minimality": verify_minimality(constructions["mfp"].raw, faults),
        "DMFP minimality": verify_minimality(constructions["dmfp"].raw, faults),
        "FB/FP/MFP containment": compare_constructions_report(
            constructions["fb"].raw,
            constructions["fp"].raw,
            constructions["mfp"].raw,
            faults,
        ),
    }
    exit_code = 0
    for name, report in reports.items():
        print(f"{name:<28} {report.summary()}")
        if not report.ok:
            exit_code = 1
    return exit_code


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-mesh",
        description="Minimum orthogonal convex polygons in 2-D faulty meshes "
        "(Wu & Jiang, IPDPS 2004) -- reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    construct = subparsers.add_parser(
        "construct", help="build FB/FP/MFP/DMFP regions for one fault pattern"
    )
    _add_scenario_arguments(construct)
    construct.add_argument(
        "--render",
        choices=("FB", "FP", "MFP", "DMFP"),
        help="print an ASCII rendering of the chosen model's grid",
    )
    construct.set_defaults(func=cmd_construct)

    sweep = subparsers.add_parser(
        "sweep",
        help="run a sweep in memory and print its tables (Figures 9/10/11 by "
        "default)",
    )
    _add_trial_arguments(sweep)
    sweep.add_argument(
        "--routing", dest="kind", action="store_const", const="routing",
        help="same as --kind routing",
    )
    sweep.add_argument("--trials", type=int, default=2)
    sweep.add_argument("--chart", action="store_true", help="also print ASCII charts")
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep trials (default: serial)",
    )
    sweep.add_argument(
        "--skip-distributed",
        action="store_true",
        help="skip the DMFP construction (faster; omits Figure 11)",
    )
    sweep.set_defaults(func=cmd_sweep)

    route = subparsers.add_parser(
        "route", help="route synthetic traffic over FB/FP/MFP regions"
    )
    _add_scenario_arguments(route)
    route.add_argument(
        "--traffic",
        choices=traffic_keys(),
        default="uniform",
        help="synthetic traffic workload (traffic registry key)",
    )
    route.add_argument(
        "--router",
        choices=router_keys(),
        default="extended-ecube",
        help="router (router registry key)",
    )
    route.add_argument("--messages", type=int, default=500, help="messages per routed batch")
    route.set_defaults(func=cmd_route)

    simulate = subparsers.add_parser(
        "simulate",
        help="run the open-loop contention simulator (latency vs. load)",
    )
    _add_scenario_arguments(simulate)
    simulate.add_argument(
        "--model",
        choices=CONSTRUCT_KEYS,
        default="mfp",
        help="fault-region construction to simulate over",
    )
    simulate.add_argument(
        "--traffic",
        choices=tuple(k for k in traffic_keys() if k not in arrival_keys()),
        default="uniform",
        help="spatial traffic pattern (traffic registry key)",
    )
    simulate.add_argument(
        "--arrival",
        choices=arrival_keys(),
        default="poisson",
        help="open-loop arrival process stamping the injection times",
    )
    simulate.add_argument(
        "--router",
        choices=router_keys(),
        default="extended-ecube",
        help="router (router registry key)",
    )
    simulate.add_argument(
        "--loads",
        type=_offered_load,
        nargs="+",
        default=[0.01, 0.02, 0.04, 0.08, 0.16],
        help="offered loads in messages per node per cycle",
    )
    simulate.add_argument(
        "--cycles", type=int, default=256, help="injection-window length in cycles"
    )
    simulate.add_argument(
        "--drain-factor",
        type=int,
        default=8,
        help="hard cap multiplier: simulate at most cycles * drain_factor",
    )
    simulate.add_argument(
        "--sim",
        choices=_SIM_CHOICES,
        default="auto",
        help="contention simulator: the array simulator (auto) or its "
        "bit-identical scalar oracle",
    )
    simulate.set_defaults(func=cmd_simulate)

    serve = subparsers.add_parser(
        "serve", help="start the long-lived routing daemon (repro.serve)"
    )
    _add_scenario_arguments(serve)
    serve.add_argument(
        "--model",
        choices=CONSTRUCT_KEYS,
        default="mfp",
        help="fault-region construction to serve routes over",
    )
    serve.add_argument(
        "--router",
        choices=router_keys(),
        default="extended-ecube",
        help="router (router registry key)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=_port, default=7654, help="bind port (0 picks a free port)"
    )
    serve.add_argument(
        "--window",
        type=_window,
        default=0.001,
        help="coalescing window in seconds: the minimum wait of the first "
        "buffered request; the flush then waits until the input goes quiet "
        "and takes every request read by then",
    )
    serve.add_argument(
        "--max-batch",
        type=_at_least_one,
        default=None,
        help="flush once this many pairs are buffered (default: the "
        "--max-pending cap, so a flush takes every request buffered by the "
        "time the input goes quiet; 1 disables coalescing)",
    )
    serve.add_argument(
        "--journal",
        metavar="PATH",
        help="journal mutations to PATH; an existing non-empty journal is "
        "recovered from (scenario flags are then ignored)",
    )
    serve.add_argument(
        "--snapshot-every",
        type=_at_least_one,
        default=64,
        help="write a journal snapshot every N events (bounds replay)",
    )
    serve.add_argument(
        "--journal-max-bytes",
        type=_at_least_one,
        default=None,
        metavar="BYTES",
        help="rotate the journal (compact to one fresh snapshot via an "
        "atomic swap) whenever it outgrows this many bytes",
    )
    serve.add_argument(
        "--max-pending",
        type=_at_least_one,
        default=4096,
        help="shed route requests once this many pairs are buffered "
        "(admission control; shed responses carry retry_after)",
    )
    serve.add_argument(
        "--max-inflight",
        type=_at_least_one,
        default=64,
        help="per-connection cap on concurrently handled requests "
        "(excess pipelined lines wait in the socket)",
    )
    serve.set_defaults(func=cmd_serve)

    query = subparsers.add_parser(
        "query", help="query or mutate a running routing daemon"
    )
    query.add_argument("--host", default="127.0.0.1", help="daemon address")
    query.add_argument("--port", type=_port, default=7654, help="daemon port")
    query.add_argument(
        "--wait",
        type=float,
        default=0.0,
        help="retry the connection for up to this many seconds (daemon "
        "start-up grace)",
    )
    query.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request timeout; route requests also carry it to the "
        "daemon as deadline_ms",
    )
    query.add_argument(
        "--retries",
        type=_at_least_zero,
        default=0,
        metavar="N",
        help="retry failed requests up to N times (exponential backoff; "
        "overloaded sheds honour the daemon's retry_after hint)",
    )
    query.add_argument(
        "--pairs",
        nargs="+",
        metavar="SX,SY,DX,DY",
        help="route explicit endpoint pairs",
    )
    query.add_argument(
        "--random",
        type=int,
        default=0,
        metavar="N",
        help="route N random pairs drawn inside the daemon's mesh",
    )
    query.add_argument("--seed", type=int, default=0, help="seed of --random")
    query.add_argument(
        "--add-faults", nargs="+", metavar="X,Y", help="inject node faults"
    )
    query.add_argument(
        "--repair", nargs="+", metavar="X,Y", help="repair node faults"
    )
    query.add_argument(
        "--add-link-faults",
        nargs="+",
        metavar="X1,Y1:X2,Y2",
        help="inject link faults (mapped onto endpoint node faults)",
    )
    query.add_argument(
        "--status", action="store_true", help="print the daemon status payload"
    )
    query.add_argument(
        "--shutdown", action="store_true", help="request a graceful shutdown"
    )
    query.add_argument(
        "--verbose", action="store_true", help="print one line per routed pair"
    )
    query.set_defaults(func=cmd_query)

    campaign = subparsers.add_parser(
        "campaign",
        help="run/resume/inspect resumable content-addressed trial campaigns",
    )
    campaign_verbs = campaign.add_subparsers(dest="campaign_verb", required=True)

    def _add_campaign_runner_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("dir", help="campaign store directory")
        sub.add_argument(
            "--workers", type=int, default=1,
            help="local worker processes (ignored by the tcp transport)",
        )
        sub.add_argument(
            "--transport", choices=("local", "tcp"), default="local",
            help="trial transport: in-process pool or a TCP shard server "
            "remote workers dial into",
        )
        sub.add_argument(
            "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
            help="bind address of the tcp transport (port 0 picks a free "
            "port, printed at start-up)",
        )
        sub.add_argument(
            "--chunk-trials", type=int, default=64,
            help="trials per dispatched task (the store's chunk size)",
        )
        sub.add_argument(
            "--max-inflight", type=int, default=None,
            help="in-flight task window (default: 2 x workers)",
        )
        sub.add_argument(
            "--task-timeout", type=float, default=300.0,
            help="seconds a silent task waits before re-dispatch",
        )
        sub.add_argument(
            "--max-tasks", type=int, default=None,
            help="stop after N completed tasks (leaves a valid partial "
            "store to resume from)",
        )
        sub.add_argument(
            "--quiet", action="store_true", help="suppress progress lines"
        )
        sub.add_argument(
            "--json", action="store_true", help="print the summary as JSON"
        )

    campaign_run = campaign_verbs.add_parser(
        "run",
        help="run a campaign (an existing store directory is resumed; "
        "completed trials are skipped by content key)",
    )
    _add_campaign_runner_arguments(campaign_run)
    _add_trial_arguments(campaign_run)
    campaign_run.add_argument("--trials", type=int, default=100)
    campaign_run.add_argument(
        "--models", nargs="+", default=None,
        help="construction registry keys (default: the kind's usual set)",
    )
    campaign_run.set_defaults(func=cmd_campaign_run)

    campaign_resume = campaign_verbs.add_parser(
        "resume",
        help="resume the campaign recorded in a store directory "
        "(kind/axis flags come from the store, not the command line)",
    )
    _add_campaign_runner_arguments(campaign_resume)
    campaign_resume.set_defaults(func=cmd_campaign_resume)

    campaign_status_parser = campaign_verbs.add_parser(
        "status", help="per-point completion report of a store directory"
    )
    campaign_status_parser.add_argument("dir", help="campaign store directory")
    campaign_status_parser.add_argument(
        "--json", action="store_true", help="print the status dict as JSON"
    )
    campaign_status_parser.set_defaults(func=cmd_campaign_status)

    campaign_reduce = campaign_verbs.add_parser(
        "reduce",
        help="stream the store through the Welford reducers and print "
        "per-point means with 95%% confidence intervals",
    )
    campaign_reduce.add_argument("dir", help="campaign store directory")
    campaign_reduce.add_argument(
        "--metric", default=None,
        help="only print stored columns whose name contains this substring",
    )
    campaign_reduce.add_argument(
        "--json", action="store_true", help="print the reduced points as JSON"
    )
    campaign_reduce.set_defaults(func=cmd_campaign_reduce)

    campaign_worker = campaign_verbs.add_parser(
        "worker", help="serve trials to a tcp-transport campaign run"
    )
    campaign_worker.add_argument(
        "address", metavar="HOST:PORT", help="address the run is listening on"
    )
    campaign_worker.add_argument(
        "--max-tasks", type=int, default=None,
        help="disconnect after serving N tasks",
    )
    campaign_worker.set_defaults(func=cmd_campaign_worker)

    verify = subparsers.add_parser(
        "verify", help="run the construction verification suite"
    )
    _add_scenario_arguments(verify)
    verify.set_defaults(func=cmd_verify)

    experiments = subparsers.add_parser(
        "experiments", help="list the paper's figures and their bench targets"
    )
    experiments.add_argument(
        "key", nargs="?", default=None,
        help="experiment key (e.g. fig9a); omit to list everything",
    )
    experiments.set_defaults(func=cmd_experiments)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CampaignError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
