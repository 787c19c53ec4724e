"""Span recorder and the wrappers that time calls into each layer of ``repro``.

Tracing happens entirely from the benchmark's side: :func:`install` swaps
public entry points for timed wrappers -- module functions on the modules
that call them, methods on their classes -- so nothing under ``src/`` is
edited.  A span is ``[name, start, end, parent]`` (``parent`` indexes the
enclosing span, ``-1`` at top level), kept in memory and written out as
JSON lines when the workload ends.  A span's self time is its duration
minus its children's; a layer's time is the self time of its spans.

Every wrapper checks :attr:`Tracer.active` first, so installed wrappers
cost one attribute read while tracing is paused.  Counters that come from
return values (messages generated, routes delivered, cycles simulated) are
tallied in ``after`` hooks that run once the span has closed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

perf = time.perf_counter

#: Failure-reason suffix of the ``routing.fail.*`` counters, keyed by the
#: scalar router's reason strings (``repro.routing.engine.REASONS``).
FAIL_KEYS = {
    "source disabled": "source",
    "destination disabled": "destination",
    "traversal entry point not on the region boundary": "entry",
    "traversal left the mesh": "left_mesh",
    "traversal obstructed by another region": "obstructed",
    "could not clear the fault region": "no_clear",
    "hop budget exhausted": "budget",
    "blocked by a fault region (base e-cube has no detour)": "blocked",
}

#: Span name of a construction build, by registry key.
BUILD_SPAN = {
    "fb": "core.fb",
    "fp": "core.fp",
    "mfp": "core.mfp",
    "cmfp": "core.mfp",
    "dmfp": "distributed.dmfp",
}

#: ``(metric, unit, better)`` of every per-layer metric, in report order.
#: ``BENCHMARK.json`` lists the same names; the self-test compares them.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("faults.draw_s", "s", "lower"),
    ("faults.drawn", "count", "higher"),
    ("session.merge_s", "s", "lower"),
    ("session.component_hit_ratio", "ratio", "higher"),
    ("session.result_hit_ratio", "ratio", "higher"),
    ("core.fb_s", "s", "lower"),
    ("core.fp_s", "s", "lower"),
    ("core.mfp_s", "s", "lower"),
    ("core.builds", "count", "higher"),
    ("core.regions", "count", "higher"),
    ("geometry.label_s", "s", "lower"),
    ("geometry.hull_s", "s", "lower"),
    ("distributed.dmfp_s", "s", "lower"),
    ("distributed.builds", "count", "higher"),
    ("routing.router_build_s", "s", "lower"),
    ("routing.delta_applies", "count", "higher"),
    ("routing.jump_rebuilds", "count", "lower"),
    ("routing.ring_rebuilds", "count", "lower"),
    ("routing.ring_hit_ratio", "ratio", "higher"),
    ("routing.traffic_gen_s", "s", "lower"),
    ("routing.messages", "count", "higher"),
    ("routing.route_batch_s", "s", "lower"),
    ("routing.route_batch_calls", "count", "higher"),
    ("routing.ring_pack_s", "s", "lower"),
    ("routing.scan_lanes_s", "s", "lower"),
    ("routing.scan_lanes_calls", "count", "lower"),
    ("routing.delivered_ratio", "ratio", "higher"),
    ("routing.abnormal_hops", "count", "lower"),
    *[(f"routing.fail.{key}", "count", "lower") for key in FAIL_KEYS.values()],
    ("routing.scalar_route_s", "s", "lower"),
    ("routing.scalar_routes", "count", "lower"),
    ("routing.assign_channels_s", "s", "lower"),
    ("netsim.plan_s", "s", "lower"),
    ("netsim.plan_hops", "count", "higher"),
    ("netsim.path_hit_ratio", "ratio", "higher"),
    ("netsim.arbitrate_s", "s", "lower"),
    ("netsim.cycles", "count", "lower"),
    ("netsim.grant_calls", "count", "lower"),
    ("netsim.deadlocked_runs", "count", "lower"),
    ("netsim.stuck_messages", "count", "lower"),
    ("serve.decode_s", "s", "lower"),
    ("serve.encode_s", "s", "lower"),
    ("serve.bytes_out", "bytes", "higher"),
    ("serve.flush_s", "s", "lower"),
    ("serve.flushes", "count", "higher"),
    ("serve.coalesce_ratio", "ratio", "higher"),
    ("serve.journal_s", "s", "lower"),
    ("serve.journal_bytes", "bytes", "lower"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.expired", "count", "lower"),
    ("serve.degraded_flushes", "count", "lower"),
    ("sim.reduce_s", "s", "lower"),
    ("trace.unexplained_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]

#: Per-layer time metric -> the span names whose self time it sums.
TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "faults.draw_s": ("faults.draw",),
    "session.merge_s": ("session.merge",),
    "core.fb_s": ("core.fb",),
    "core.fp_s": ("core.fp",),
    "core.mfp_s": ("core.mfp",),
    "geometry.label_s": ("geometry.label",),
    "geometry.hull_s": ("geometry.hull",),
    "distributed.dmfp_s": ("distributed.dmfp",),
    "routing.router_build_s": ("routing.router_build",),
    "routing.traffic_gen_s": ("routing.traffic_gen",),
    "routing.route_batch_s": ("routing.route_batch",),
    "routing.ring_pack_s": ("routing.ring_pack",),
    "routing.scan_lanes_s": ("routing.scan_lanes",),
    "routing.scalar_route_s": ("routing.scalar_route",),
    "routing.assign_channels_s": ("routing.assign_channels",),
    "netsim.plan_s": ("netsim.plan",),
    "netsim.arbitrate_s": ("netsim.arbitrate", "netsim.grant"),
    "serve.decode_s": ("serve.decode",),
    "serve.encode_s": ("serve.encode",),
    "serve.flush_s": ("serve.flush",),
    "serve.journal_s": ("serve.journal",),
    "sim.reduce_s": ("sim.reduce",),
}

#: Call-count metrics read straight off the spans.
CALL_METRICS: Dict[str, str] = {
    "routing.route_batch_calls": "routing.route_batch",
    "routing.scan_lanes_calls": "routing.scan_lanes",
    "routing.scalar_routes": "routing.scalar_route",
    "netsim.grant_calls": "netsim.grant",
}


class Tracer:
    """In-memory span and counter store, switched on and off by windows."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: ``(wall seconds, cpu seconds)`` of every closed active window.
        self.windows: List[Tuple[float, float]] = []
        self._stack: List[int] = []
        self._opened: Optional[Tuple[float, float]] = None

    # -- windows -------------------------------------------------------------------

    def activate(self) -> None:
        if not self.active:
            self.active = True
            self._opened = (perf(), time.process_time())

    def deactivate(self) -> None:
        if self.active:
            self.active = False
            wall, cpu = self._opened
            self.windows.append((perf() - wall, time.process_time() - cpu))

    # -- spans ---------------------------------------------------------------------

    def open(self, name: str) -> Optional[list]:
        """Start a span (``None`` while inactive); close it with :meth:`close`."""
        if not self.active:
            return None
        record = [name, perf(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[2] = perf()
        self._stack.pop()

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap *fn* so each active call records one *name* span.

        ``after(tracer, record, result, args, kwargs)`` runs once the span
        closed (it may rename ``record[0]``).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self.open(name)
            if record is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(record)
            if after is not None:
                after(self, record, result, args, kwargs)
            return result

        return traced

    # -- analysis ------------------------------------------------------------------

    def aggregate(self) -> Dict[str, Any]:
        """JSON-safe totals: self seconds and calls per span name, top-level
        seconds, counters, samples and the active windows."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        top = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            totals[name] += (end - start) - child[index]
            calls[name] += 1
            if parent < 0:
                top += end - start
        return {
            "self_s": dict(totals),
            "calls": dict(calls),
            "top_s": top,
            "spans": len(self.spans),
            "counts": dict(self.counts),
            "samples": {name: list(values) for name, values in self.samples.items()},
            "windows": list(self.windows),
        }

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (``[name, start, end, parent]``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record, separators=(",", ":")) + "\n")


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def layer_metrics(
    trace: Dict[str, Any],
    *,
    reference_s: float,
    cache_info: Optional[Dict[str, Any]] = None,
    serve_status: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run (zero where a layer idled).

    *trace* is :meth:`Tracer.aggregate`.  *reference_s* is the time the
    spans should explain: the traced wall time of an in-process workload,
    or the daemon's CPU time for the serving workload (its coroutines
    interleave, so wall time would count the idle loop).  *cache_info* is
    the session counter dict the routing layer maintains; *serve_status*
    holds serve metrics read off the daemon's ``status`` verb.
    """
    totals, calls, top = trace["self_s"], trace["calls"], trace["top_s"]
    counts = trace["counts"]
    values: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    for metric, names in TIME_METRICS.items():
        values[metric] = sum(totals.get(name, 0.0) for name in names)
    for metric, name in CALL_METRICS.items():
        values[metric] = float(calls.get(name, 0))
    for name in (
        "faults.drawn",
        "core.builds",
        "core.regions",
        "distributed.builds",
        "routing.messages",
        "routing.abnormal_hops",
        "netsim.plan_hops",
        "netsim.cycles",
        "netsim.deadlocked_runs",
        "netsim.stuck_messages",
        "serve.bytes_out",
        *[f"routing.fail.{key}" for key in FAIL_KEYS.values()],
    ):
        values[name] = float(counts.get(name, 0))
    values["routing.delivered_ratio"] = _ratio(
        counts.get("routing.delivered", 0), counts.get("routing.attempted", 0)
    )
    planned = counts.get("netsim.planned", 0)
    if planned:  # pairs the planner found in its path cache
        values["netsim.path_hit_ratio"] = 1.0 - counts.get("netsim.plan_routes", 0) / planned
    waits = trace["samples"].get("serve.queue_wait_ms")
    values["serve.queue_wait_ms_p50"] = median(waits) if waits else 0.0
    info = cache_info or {}
    values["session.component_hit_ratio"] = _ratio(
        info.get("component_hits", 0),
        info.get("component_hits", 0) + info.get("component_misses", 0),
    )
    values["session.result_hit_ratio"] = _ratio(
        info.get("result_hits", 0),
        info.get("result_hits", 0) + info.get("result_misses", 0),
    )
    values["routing.ring_hit_ratio"] = _ratio(
        info.get("ring_hits", 0), info.get("ring_hits", 0) + info.get("ring_misses", 0)
    )
    for name in ("delta_applies", "jump_rebuilds", "ring_rebuilds"):
        values[f"routing.{name}"] = float(info.get(name, 0))
    for name, value in (serve_status or {}).items():
        values[name] = float(value)
    values["trace.unexplained_frac"] = (
        max(0.0, 1.0 - top / reference_s) if reference_s > 0 else 0.0
    )
    values["trace.spans"] = float(trace["spans"])
    return values


def expected_spans_missing(trace: Dict[str, Any], expected: Tuple[str, ...]) -> List[str]:
    """The expected span names that recorded no call (coverage guard)."""
    return [name for name in expected if not trace["calls"].get(name)]


# -- wrappers -------------------------------------------------------------------------


def _count_faults(tracer, record, result, args, kwargs):
    tracer.counts["faults.drawn"] += result.num_faults


def _count_messages(tracer, record, result, args, kwargs):
    # An arrival process draws its pairs through the spatial pattern's
    # generate(): count each batch once, at the outermost call.
    if tracer.parent_name() != "routing.traffic_gen":
        tracer.counts["routing.messages"] += len(result)


def _count_outcome(tracer, record, outcome, args, kwargs):
    import numpy as np

    from repro.routing.engine import DELIVERED, REASONS

    codes, numbers = np.unique(outcome.status, return_counts=True)
    for code, number in zip(codes.tolist(), numbers.tolist()):
        if code == DELIVERED:
            tracer.counts["routing.delivered"] += number
        else:
            tracer.counts[f"routing.fail.{FAIL_KEYS[REASONS[code]]}"] += number
    tracer.counts["routing.attempted"] += int(outcome.status.size)
    tracer.counts["routing.abnormal_hops"] += int(outcome.abnormal_hops.sum())


def _count_scalar_route(tracer, record, result, args, kwargs):
    parent = tracer.parent_name()
    # Routes the batch kernel finishes scalar are already in its outcome.
    if parent == "routing.route_batch":
        return
    if parent == "netsim.plan":  # a path-cache miss of the planner
        tracer.counts["netsim.plan_routes"] += 1
    tracer.counts["routing.attempted"] += 1
    if result.delivered:
        tracer.counts["routing.delivered"] += 1
        tracer.counts["routing.abnormal_hops"] += result.abnormal_hops
    else:
        tracer.counts[f"routing.fail.{FAIL_KEYS[result.reason]}"] += 1


def _count_plan(tracer, record, plan, args, kwargs):
    tracer.counts["netsim.plan_hops"] += int(plan.hop_channel.size)
    tracer.counts["netsim.planned"] += plan.attempted


def _count_sim(tracer, record, outcome, args, kwargs):
    tracer.counts["netsim.cycles"] += outcome.cycles
    tracer.counts["netsim.deadlocked_runs"] += int(outcome.deadlocked)
    tracer.counts["netsim.stuck_messages"] += int((outcome.delivery < 0).sum())


def _count_bytes(tracer, record, line, args, kwargs):
    tracer.counts["serve.bytes_out"] += len(line)


def _wrap_method(tracer: Tracer, cls: type, name: str, span: str, after=None) -> None:
    setattr(cls, name, tracer.span(span, getattr(cls, name), after))


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of ``repro`` (once per process).

    Must run before the workload creates the objects that capture an
    entry point at construction time (the sweep executor's reducer, the
    daemon's coalescer flush callback).
    """
    from repro import _array_ops
    from repro.api import executor, registry
    from repro.api import routing as api_routing
    from repro.api.session import MeshSession
    from repro.faults import scenario
    from repro.netsim import plan as netsim_plan
    from repro.netsim import session as netsim_session
    from repro.routing import engine
    from repro.routing.extended_ecube import ExtendedECubeRouter
    from repro.routing.registry import RouterSpec
    from repro.routing.traffic import TrafficSpec
    from repro.serve import daemon
    from repro.serve.coalescer import RouteCoalescer
    from repro.serve.journal import Journal

    # faults: scenario draws (also reached through the sweep executor).
    draw = tracer.span("faults.draw", scenario.generate_scenario, _count_faults)
    scenario.generate_scenario = draw
    executor.generate_scenario = draw

    # api.session: incremental component merges and splits.
    from_scenario = MeshSession.__dict__["from_scenario"].__func__
    MeshSession.from_scenario = classmethod(tracer.span("session.merge", from_scenario))
    _wrap_method(tracer, MeshSession, "add_faults", "session.merge")
    _wrap_method(tracer, MeshSession, "remove_faults", "session.merge")

    # core / distributed: one-shot builds and session builds.  A session
    # build that hits its result cache is a lookup, not a build.
    def count_build(record, key: str, result) -> None:
        span = BUILD_SPAN.get(key, "core.other")
        record[0] = span
        layer = span.split(".")[0]
        tracer.counts[f"{layer}.builds"] += 1
        if layer == "core":
            tracer.counts["core.regions"] += result.num_regions

    spec_build = registry.ConstructionSpec.build

    def construction_build(self, *args, **kwargs):
        record = tracer.open("core")
        if record is None:
            return spec_build(self, *args, **kwargs)
        try:
            result = spec_build(self, *args, **kwargs)
        finally:
            tracer.close(record)
        count_build(record, self.key, result)
        return result

    registry.ConstructionSpec.build = functools.wraps(spec_build)(construction_build)

    session_build = MeshSession.build

    def mesh_build(self, key, *args, **kwargs):
        record = tracer.open("core")
        if record is None:
            return session_build(self, key, *args, **kwargs)
        hits = self.cache_info["result_hits"]
        builds = tracer.counts["core.builds"] + tracer.counts["distributed.builds"]
        try:
            result = session_build(self, key, *args, **kwargs)
        finally:
            tracer.close(record)
        if self.cache_info["result_hits"] != hits:
            record[0] = "session.lookup"
        elif tracer.counts["core.builds"] + tracer.counts["distributed.builds"] == builds:
            count_build(record, result.key, result)
        else:  # delegated to ConstructionSpec.build, which counted it
            record[0] = BUILD_SPAN.get(result.key, "core.other")
        return result

    MeshSession.build = functools.wraps(session_build)(mesh_build)

    # geometry.masks / routing / netsim primitives behind the ArrayOps facade.
    active_ops = _array_ops.active_ops
    traced_ops: Dict[int, tuple] = {}

    def traced_active_ops():
        ops = active_ops()
        entry = traced_ops.get(id(ops))
        if entry is None:
            wrapped = dataclasses.replace(
                ops,
                label_components=tracer.span("geometry.label", ops.label_components),
                hull_fixpoint=tracer.span("geometry.hull", ops.hull_fixpoint),
                jump_tables=tracer.span("routing.router_build", ops.jump_tables),
                scan_lanes=tracer.span("routing.scan_lanes", ops.scan_lanes),
                grant_messages=tracer.span("netsim.grant", ops.grant_messages),
            )
            entry = traced_ops[id(ops)] = (ops, wrapped)
        return entry[1]

    _array_ops.active_ops = traced_active_ops

    # routing: router builds and fault-delta transplants.
    _wrap_method(tracer, RouterSpec, "build", "routing.router_build")
    api_routing.transplant_engine_state = tracer.span(
        "routing.router_build", api_routing.transplant_engine_state
    )

    # routing.traffic
    _wrap_method(tracer, TrafficSpec, "generate", "routing.traffic_gen", _count_messages)

    # routing.engine: the batch kernel and its ring packing.
    route_batch = tracer.span("routing.route_batch", engine.route_batch, _count_outcome)
    engine.route_batch = route_batch
    daemon.route_batch = route_batch
    _wrap_method(tracer, engine.PackedRings, "ensure", "routing.ring_pack")

    # routing.extended_ecube / routing.channels: the scalar router.
    _wrap_method(
        tracer, ExtendedECubeRouter, "route", "routing.scalar_route", _count_scalar_route
    )
    _wrap_method(tracer, ExtendedECubeRouter, "route_counts", "routing.scalar_route")
    netsim_plan.assign_channels = tracer.span(
        "routing.assign_channels", netsim_plan.assign_channels
    )

    # netsim: path planning and the simulator runner.
    netsim_session.build_plan = tracer.span(
        "netsim.plan", netsim_session.build_plan, _count_plan
    )
    resolve_simulator = netsim_session.resolve_simulator
    traced_specs: Dict[str, Any] = {}

    def traced_resolve_simulator(*args, **kwargs):
        spec = resolve_simulator(*args, **kwargs)
        traced = traced_specs.get(spec.key)
        if traced is None or traced[0] is not spec:
            runner = tracer.span("netsim.arbitrate", spec.runner, _count_sim)
            traced = traced_specs[spec.key] = (spec, dataclasses.replace(spec, runner=runner))
        return traced[1]

    netsim_session.resolve_simulator = traced_resolve_simulator

    # serve: protocol codec, coalescer flushes and their queue waits, journal.
    daemon.decode_line = tracer.span("serve.decode", daemon.decode_line)
    daemon.encode = tracer.span("serve.encode", daemon.encode, _count_bytes)
    submitted: Dict[int, List[float]] = {}
    submit = RouteCoalescer.submit

    @functools.wraps(submit)
    async def traced_submit(self, pairs, **kwargs):
        if tracer.active:
            # submit() appends to the pending list before its first await,
            # so the stamps are of the newest pending requests, in order.
            submitted.setdefault(id(self), []).append(perf())
        return await submit(self, pairs, **kwargs)

    RouteCoalescer.submit = traced_submit
    flush_now = RouteCoalescer.flush_now
    timed_flush = tracer.span("serve.flush", flush_now)

    @functools.wraps(flush_now)
    def traced_flush_now(self):
        if not tracer.active:
            if submitted:  # stamps left over from a closed window
                submitted.clear()
            return flush_now(self)
        stamps = submitted.pop(id(self), ())
        if not self._pending:  # a mutation's pre-flush with nothing buffered
            return flush_now(self)
        now = perf()
        tracer.samples["serve.queue_wait_ms"].extend((now - t) * 1000.0 for t in stamps)
        return timed_flush(self)

    RouteCoalescer.flush_now = traced_flush_now
    _wrap_method(tracer, Journal, "append_event", "serve.journal")
    _wrap_method(tracer, Journal, "append_snapshot", "serve.journal")

    # sim: the sweep reducer and the per-construction metric extraction.
    executor.sweep_point_reducer = tracer.span("sim.reduce", executor.sweep_point_reducer)
    _wrap_method(tracer, registry.ConstructionResult, "metrics", "sim.reduce")
