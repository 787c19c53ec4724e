"""Parallel sweep execution over fault scenarios.

The paper's evaluation repeats every construction over a fault-count sweep
(100..800 faults on a 100x100 mesh) with several independently seeded
trials per point.  Trials are embarrassingly parallel -- they share no
state beyond their deterministic seeds -- so :class:`SweepExecutor` fans
them out over a ``multiprocessing`` pool and reduces the per-trial
metrics into one :class:`~repro.sim.metrics.SweepPoint` per axis value.

Three trial kinds share that machinery, one entry each in
:data:`TRIAL_KINDS`: ``construction`` (the paper's Figures 9-11),
``routing`` (routed synthetic traffic) and ``latency`` (the contention
simulator over an offered-load axis).  An entry names the kind's code
version (hashed into its campaign rows' keys), its trial-spec dataclass
-- whose field defaults are the only copy of the kind's sweep defaults --
its axis, worker entry point, per-model record class and store columns.
Every kind's trial returns one :class:`~repro.sim.metrics.ScenarioMetrics`
of those records, and :func:`sweep_point_reducer` folds any kind's trials
into one ``SweepPoint``.  The executor, the campaign layer
(:mod:`repro.campaign`) and the CLI all read the table, so a sweep means
the same thing in memory, on disk and on the command line.

Determinism: every trial's seed comes from
:func:`repro.faults.scenario.derive_trial_seed`, which spaces seeds by a
large prime stride, so a sweep produces identical metrics whether it runs
serially, across 2 workers or across 32 (asserted by
``tests/test_api_executor.py``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api.registry import (
    ConstructionSpec,
    _build_mfp,
    get_construction,
    register_construction,
)
from repro.core.raster import FaultRaster
from repro.faults.scenario import (
    FaultScenario,
    derive_trial_seed,
    generate_scenario,
)
from repro.netsim.simulators import resolve_simulator
from repro.routing.registry import RouterSpec, get_router, register_router
from repro.routing.traffic import (
    TrafficOptions,
    TrafficSpec,
    get_traffic,
    register_traffic,
)
from repro.sim.metrics import (
    ConstructionMetrics,
    NetSimMetrics,
    RoutingMetrics,
    ScenarioMetrics,
    SweepPoint,
)

#: Construction keys run by default (the four models the paper compares;
#: CMFP is the centralized MFP re-reported with its emulation rounds).
DEFAULT_MODELS: Tuple[str, ...] = ("fb", "fp", "mfp", "cmfp", "dmfp")

#: Construction keys routing sweeps compare by default (the three models of
#: the routing ablation; CMFP/DMFP regions equal MFP's, so routing them
#: again would only repeat the MFP curve).
DEFAULT_ROUTING_MODELS: Tuple[str, ...] = ("fb", "fp", "mfp")

#: Construction keys latency sweeps compare by default (MFP only: the
#: latency axis is about contention, and the other models mostly shift the
#: enabled-node count; pass more keys for a paired model comparison).
DEFAULT_NETSIM_MODELS: Tuple[str, ...] = ("mfp",)


@dataclass(frozen=True, slots=True)
class TrialSpec:
    """Everything one worker needs to run one trial (picklable)."""

    num_faults: int
    seed: int
    width: int = 100
    height: Optional[int] = None
    distribution: str = "random"
    torus: bool = False
    cluster_factor: float = 2.0
    models: Tuple[str, ...] = DEFAULT_MODELS
    #: ``False`` reports MFP and CMFP with 0 rounds, so their emulation
    #: never runs (see :func:`collect_scenario_metrics`).
    include_rounds: bool = True
    #: The resolved specs of ``models``, carried so that workers spawned in
    #: a fresh interpreter (non-fork start methods) can re-register custom
    #: constructions; empty means "resolve from the worker's registry".
    specs: Tuple[ConstructionSpec, ...] = ()
    #: Position of this trial inside its sweep: index of the sweep point
    #: (fault count / load) and trial number within the point.  Purely
    #: bookkeeping -- the seed already encodes both -- but carrying them
    #: explicitly lets reductions key results by identity instead of by
    #: list position, so out-of-order (streamed) results reduce correctly.
    #: ``-1`` marks a hand-built spec outside any sweep.
    point_index: int = -1
    trial: int = -1


@dataclass(frozen=True, slots=True)
class RoutingTrialSpec:
    """Everything one worker needs to run one routing trial (picklable).

    The scenario fields mirror :class:`TrialSpec`; the routing fields name
    the router / traffic registry keys and carry the workload's typed
    (frozen, picklable) option set.  The trial seed drives both the fault
    pattern and the traffic generation, so a spec fully determines its
    metrics.
    """

    num_faults: int
    seed: int
    width: int = 100
    height: Optional[int] = None
    distribution: str = "random"
    torus: bool = False
    cluster_factor: float = 2.0
    models: Tuple[str, ...] = DEFAULT_ROUTING_MODELS
    router: str = "extended-ecube"
    traffic: str = "uniform"
    messages: int = 500
    traffic_options: Optional[TrafficOptions] = None
    specs: Tuple[ConstructionSpec, ...] = ()
    #: The resolved router/traffic specs, carried (like ``specs``) so that
    #: workers spawned in a fresh interpreter can re-register custom
    #: routers and workloads; ``None`` means "resolve from the worker's
    #: registry".
    router_spec: Optional[RouterSpec] = None
    traffic_spec: Optional[TrafficSpec] = None
    #: Sweep position (see :class:`TrialSpec`); ``-1`` = outside a sweep.
    point_index: int = -1
    trial: int = -1


@dataclass(frozen=True, slots=True)
class NetSimTrialSpec:
    """Everything one worker needs to run one contention trial (picklable).

    The x axis of a latency sweep is the offered ``load`` (messages per
    node per cycle); the fault scenario is part of the configuration and
    stays fixed across the sweep.  The trial seed drives the fault
    pattern, the endpoint draws and the injection times, so a spec fully
    determines its metrics on any worker.
    """

    load: float
    seed: int
    num_faults: int = 0
    width: int = 16
    height: Optional[int] = None
    distribution: str = "clustered"
    torus: bool = False
    cluster_factor: float = 2.0
    models: Tuple[str, ...] = DEFAULT_NETSIM_MODELS
    router: str = "extended-ecube"
    traffic: str = "uniform"
    arrival: str = "poisson"
    cycles: int = 256
    drain_factor: int = 8
    messages: Optional[int] = None
    traffic_options: Optional[TrafficOptions] = None
    arrival_options: Optional[TrafficOptions] = None
    #: ``"scalar"`` replays on the simulator oracle instead of the array
    #: simulator (``None`` / ``"auto"``); see
    #: :func:`~repro.netsim.simulators.resolve_simulator`.
    sim: Optional[str] = None
    specs: Tuple[ConstructionSpec, ...] = ()
    router_spec: Optional[RouterSpec] = None
    traffic_spec: Optional[TrafficSpec] = None
    arrival_spec: Optional[TrafficSpec] = None
    #: Sweep position (see :class:`TrialSpec`); ``-1`` = outside a sweep.
    point_index: int = -1
    trial: int = -1


# -- registry-key fields ------------------------------------------------------------

#: Registry behind each registry-key trial field: (lookup, registration,
#: implementation attribute).  ``model`` covers the constructions carried
#: in ``specs``; every other entry is carried as ``<field>_spec``.
_REGISTRIES: Dict[str, Tuple[Callable[..., Any], Callable[..., Any], str]] = {
    "model": (get_construction, register_construction, "builder"),
    "router": (get_router, register_router, "builder"),
    "traffic": (get_traffic, register_traffic, "generator"),
    "arrival": (get_traffic, register_traffic, "generator"),
}

#: Trial-spec fields holding a registry key.
KEY_FIELDS: Tuple[str, ...] = ("router", "traffic", "arrival")

#: Trial-spec fields that planning fills in and callers never set: the
#: seed, the model set, the carried registry specs and the sweep position.
_PLANNED_FIELDS = frozenset(
    {"seed", "models", "specs", "point_index", "trial"}
    | {f"{name}_spec" for name in KEY_FIELDS}
)


def resolve_key(name: str, key: str) -> Tuple[str, Any]:
    """Resolve the registry-key trial field *name*: ``(canonical key, spec)``.

    An unknown key raises ``KeyError``, so typos fail before any work is
    dispatched.  Planning, worker re-registration, campaign key
    normalisation and campaign option revival all resolve through here.
    """
    spec = _REGISTRIES[name][0](key)
    return spec.key, spec


def _restore_worker_registry(spec: Any) -> None:
    """Re-register the parent's carried registry specs in a worker process.

    A spawned worker starts from fresh registries holding only the
    built-in constructions, routers and workloads; re-register anything
    the parent plugged in.  The implementation comparison is by
    reference: specs pickle their builders / generators as module-level
    names, so built-ins resolve to the same function and are left alone.
    """
    carried = [("model", construction) for construction in spec.specs]
    carried += [(name, getattr(spec, f"{name}_spec", None)) for name in KEY_FIELDS]
    for name, carried_spec in carried:
        if carried_spec is None:
            continue
        _, register, implementation = _REGISTRIES[name]
        try:
            registered = resolve_key(name, carried_spec.key)[1]
        except KeyError:
            register(carried_spec)
        else:
            if getattr(registered, implementation) is not getattr(carried_spec, implementation):
                register(carried_spec, replace=True)


# -- worker entry points ------------------------------------------------------------


def _scenario(spec: Any) -> FaultScenario:
    """Worker set-up shared by every kind: registries, then the fault draw.

    ``generate_scenario`` is looked up in this module per call, so a
    tracer that replaces the module attribute sees every draw.
    """
    _restore_worker_registry(spec)
    return generate_scenario(
        num_faults=spec.num_faults,
        width=spec.width,
        height=spec.height,
        model=spec.distribution,
        seed=spec.seed,
        torus=spec.torus,
        cluster_factor=spec.cluster_factor,
    )


def _scenario_metrics(scenario: FaultScenario) -> ScenarioMetrics:
    """An empty per-model record set for one trial's fault pattern."""
    return ScenarioMetrics(
        num_faults=scenario.num_faults, distribution=scenario.model, seed=scenario.seed
    )


def collect_scenario_metrics(
    scenario: FaultScenario,
    models: Sequence[str] = DEFAULT_MODELS,
    include_rounds: bool = True,
) -> ScenarioMetrics:
    """Run the requested constructions on one scenario via the registry.

    Every build takes the scenario's one :class:`FaultRaster`, so FB and FP
    share the scheme-1 labelling and MFP and DMFP the component table, and
    models registered with one builder (``mfp`` and ``cmfp``) share one
    build.  With *include_rounds* false, the models built by the
    centralized MFP builder report 0 rounds and never run its round
    emulation; every other model's rounds are as built.
    """
    topology = scenario.topology()
    raster = FaultRaster(scenario.faults, topology)
    metrics = _scenario_metrics(scenario)
    results: Dict[Callable[..., Any], Any] = {}
    for key in models:
        spec = get_construction(key)
        result = results.get(spec.builder)
        if result is None:
            result = results[spec.builder] = spec.build(raster)
        if not include_rounds and spec.builder is _build_mfp:
            # The same polygons with no component rounds to look up.
            result = spec.wrap(dataclasses.replace(result.raw, component_rounds=()))
        metrics.add(result.metrics(num_faults=scenario.num_faults, label=spec.label))
    return metrics


def run_trial(spec: TrialSpec) -> ScenarioMetrics:
    """Generate one scenario and collect its metrics (worker entry point)."""
    return collect_scenario_metrics(
        _scenario(spec), models=spec.models, include_rounds=spec.include_rounds
    )


def run_routing_trial(spec: RoutingTrialSpec) -> ScenarioMetrics:
    """Route one scenario's traffic over every model (worker entry point).

    All models inside a trial share the same fault pattern and traffic
    seed (paired comparison); the batches themselves still differ per
    model because each model's enabled endpoint set differs.
    """
    # Imported lazily to keep the executor module import-light (sessions
    # pull in the whole construction stack).
    from repro.api.session import MeshSession

    scenario = _scenario(spec)
    session = MeshSession.from_scenario(scenario)
    metrics = _scenario_metrics(scenario)
    for key in spec.models:
        stats = session.route(
            key,
            router=spec.router,
            traffic=spec.traffic,
            messages=spec.messages,
            seed=spec.seed,
            traffic_options=spec.traffic_options,
        )
        metrics.add(
            RoutingMetrics.from_stats(stats, num_faults=scenario.num_faults)
        )
    return metrics


def run_netsim_trial(spec: NetSimTrialSpec) -> ScenarioMetrics:
    """Simulate one load point over every model (worker entry point).

    All models inside a trial share the fault pattern and the traffic /
    injection seed (paired comparison).
    """
    from repro.api.session import MeshSession

    scenario = _scenario(spec)
    session = MeshSession.from_scenario(scenario)
    metrics = _scenario_metrics(scenario)
    for key in spec.models:
        stats = session.simulate(
            key,
            traffic=spec.traffic,
            arrival=spec.arrival,
            load=spec.load,
            cycles=spec.cycles,
            messages=spec.messages,
            seed=spec.seed,
            router=spec.router,
            sim=spec.sim,
            drain_factor=spec.drain_factor,
            traffic_options=spec.traffic_options,
            arrival_options=spec.arrival_options,
        )
        metrics.add(NetSimMetrics.from_stats(stats, num_faults=scenario.num_faults))
    return metrics


# -- the point reducer --------------------------------------------------------------


def sweep_point_reducer(
    x: Any, distribution: str, trials: List[ScenarioMetrics]
) -> SweepPoint:
    """Fold one sweep point's trial metrics (any kind) into a ``SweepPoint``."""
    return SweepPoint(x=x, distribution=distribution, scenarios=list(trials))


# -- the trial-kind table -----------------------------------------------------------


@dataclass(frozen=True)
class TrialKind:
    """One sweep trial kind, as the executor, campaigns and the CLI see it."""

    key: str
    #: The code version hashed into this kind's trial keys and campaign
    #: fingerprints.  Bump it in any change that moves this kind's rows;
    #: ``tests/test_campaign.py`` pins it with a digest of a tiny
    #: campaign's rows and fails when the rows move and it does not.
    version: str
    #: The trial-spec dataclass; its field defaults are the kind's only
    #: copy of every sweep default.
    spec_type: type
    #: The trial-spec field the sweep axis sets, and its type.
    axis: str
    axis_type: type
    #: Worker entry point: ``runner(trial_spec) -> ScenarioMetrics``.
    runner: Callable[[Any], ScenarioMetrics]
    #: The per-model record class the runner fills (a campaign row decodes
    #: into it).
    record: type
    #: Per-model store columns: ``(record field, numpy format)``.
    columns: Tuple[Tuple[str, str], ...]

    @property
    def default_models(self) -> Tuple[str, ...]:
        """The construction keys a sweep of this kind runs by default."""
        return next(
            f.default for f in dataclasses.fields(self.spec_type) if f.name == "models"
        )

    def defaults(self) -> Dict[str, Any]:
        """Every sweep parameter of this kind, mapped to its default.

        The parameters are the trial-spec fields a caller may set (all
        but the axis and what planning fills in) plus ``base_seed``.
        """
        values = {
            f.name: f.default
            for f in dataclasses.fields(self.spec_type)
            if f.name != self.axis and f.name not in _PLANNED_FIELDS
        }
        values["base_seed"] = 0
        return values

    def reduce(
        self,
        axis: Sequence[Any],
        distribution: str,
        per_point: Sequence[List[ScenarioMetrics]],
    ) -> List[SweepPoint]:
        """Fold each point's trial metrics into one ``SweepPoint``, in axis order.

        :func:`sweep_point_reducer` is looked up in this module per call, so
        a tracer that replaces the module attribute wraps it.
        """
        return [
            sweep_point_reducer(self.axis_type(x), distribution, trials)
            for x, trials in zip(axis, per_point)
        ]


#: The sweep trial kinds, by key.
TRIAL_KINDS: Dict[str, TrialKind] = {
    kind.key: kind
    for kind in (
        TrialKind(
            key="construction",
            version="repro-1.1.0+campaign.1",
            spec_type=TrialSpec,
            axis="num_faults",
            axis_type=int,
            runner=run_trial,
            record=ConstructionMetrics,
            columns=(
                ("num_regions", "<i8"),
                ("disabled_nonfaulty", "<i8"),
                ("mean_region_size", "<f8"),
                ("rounds", "<i8"),
            ),
        ),
        TrialKind(
            key="routing",
            version="repro-1.1.0+routing.2",
            spec_type=RoutingTrialSpec,
            axis="num_faults",
            axis_type=int,
            runner=run_routing_trial,
            record=RoutingMetrics,
            columns=(
                ("enabled", "<i8"),
                ("attempted", "<i8"),
                ("delivered", "<i8"),
                ("delivery_rate", "<f8"),
                ("mean_hops", "<f8"),
                ("mean_detour", "<f8"),
                ("minimal_fraction", "<f8"),
                ("abnormal_fraction", "<f8"),
            ),
        ),
        TrialKind(
            key="latency",
            version="repro-1.1.0+latency.2",
            spec_type=NetSimTrialSpec,
            axis="load",
            axis_type=float,
            runner=run_netsim_trial,
            record=NetSimMetrics,
            columns=(
                ("sim", "S16"),
                ("enabled", "<i8"),
                ("attempted", "<i8"),
                ("unroutable", "<i8"),
                ("delivered", "<i8"),
                ("in_flight", "<i8"),
                ("cycles_run", "<i8"),
                ("delivery_rate", "<f8"),
                ("mean_latency", "<f8"),
                ("mean_queueing", "<f8"),
                ("mean_hops", "<f8"),
                ("accepted_load", "<f8"),
                ("saturated", "<i1"),
                ("deadlocked", "<i1"),
            ),
        ),
    )
}


class SweepExecutor:
    """Run sweeps of any trial kind, optionally fanned out over processes.

    Parameters
    ----------
    models:
        Registry keys of the constructions to run per trial (validated
        eagerly so typos fail before any work is dispatched); ``None``
        runs each kind's default models.
    workers:
        Process count.  ``1`` (the default) runs serially in-process;
        ``None`` uses every available CPU.
    """

    def __init__(
        self,
        models: Optional[Sequence[str]] = None,
        *,
        workers: Optional[int] = 1,
    ) -> None:
        self.models: Optional[Tuple[str, ...]] = (
            None if models is None else tuple(get_construction(key).key for key in models)
        )
        self.workers = workers

    def _resolve_workers(self, num_tasks: int) -> int:
        workers = self.workers if self.workers is not None else (os.cpu_count() or 1)
        return max(1, min(workers, num_tasks))

    def _models(self, kind: str) -> Tuple[str, ...]:
        """The construction keys a sweep of *kind* runs on this executor."""
        if self.models is not None:
            return self.models
        return tuple(get_construction(key).key for key in TRIAL_KINDS[kind].default_models)

    def plan(
        self, axis: Sequence[Any], trials: int, *, kind: str = "construction", **params: Any
    ) -> List[Any]:
        """Expand a sweep into its deterministic per-trial specs."""
        return list(self.iter_plan(axis, trials, kind=kind, **params))

    def iter_plan(
        self, axis: Sequence[Any], trials: int, *, kind: str = "construction", **params: Any
    ) -> Iterator[Any]:
        """Stream the sweep's per-trial specs without materializing them.

        *axis* holds the fault counts (``construction`` / ``routing``) or
        offered loads (``latency``); *params* set any field of the kind's
        trial spec plus ``base_seed``, and everything omitted takes the
        trial spec's default.  Registry keys and ``sim`` are validated
        eagerly (before the first ``next``), and the resolved registry
        specs are carried for spawned workers.  Seeds come from
        :func:`~repro.faults.scenario.derive_trial_seed`, indexed by axis
        position, so a sweep is bit-identical at any worker count -- and
        on either simulator.  The campaign runner
        plans 100k+-trial sweeps through this generator so the parent
        never holds the whole plan.
        """
        trial_kind = TRIAL_KINDS[kind]
        if trials < 1:
            raise ValueError("trials must be at least 1")
        values = trial_kind.defaults()
        for name in params:
            if name not in values:
                raise TypeError(f"{kind} sweeps take no parameter {name!r}")
        values.update(params)
        base_seed = values.pop("base_seed")
        for name in KEY_FIELDS:
            if name in values:
                values[name], values[f"{name}_spec"] = resolve_key(name, values[name])
        if "sim" in values:
            resolve_simulator(values["sim"])
        values["models"] = self._models(kind)
        values["specs"] = tuple(get_construction(key) for key in values["models"])

        def generate() -> Iterator[Any]:
            for index, x in enumerate(axis):
                for trial in range(trials):
                    yield trial_kind.spec_type(
                        **{trial_kind.axis: trial_kind.axis_type(x)},
                        seed=derive_trial_seed(base_seed, index, trials, trial),
                        point_index=index,
                        trial=trial,
                        **values,
                    )

        return generate()

    def _map(self, runner: Callable[[Any], Any], specs: Sequence[Any]) -> List[Any]:
        """Run *runner* over the specs, serially or over a process pool."""
        workers = self._resolve_workers(len(specs))
        if workers <= 1:
            return [runner(spec) for spec in specs]
        # fork shares the already-imported package with the workers; fall
        # back to the platform default where fork is unavailable.
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        with context.Pool(processes=workers) as pool:
            return pool.map(runner, specs)

    def run(
        self,
        axis: Sequence[Any],
        trials: int,
        *,
        kind: str = "construction",
        campaign: Optional[Any] = None,
        **params: Any,
    ) -> List[SweepPoint]:
        """Run a sweep and return one :class:`SweepPoint` per axis value.

        Every trial generates one fault pattern and runs this executor's
        models on it (paired comparison): the constructions themselves,
        a routed traffic batch per model (``kind="routing"``), or an
        open-loop contention simulation per model at the point's offered
        load (``kind="latency"``).  *params* are those of
        :meth:`iter_plan`.  Each point holds its trials' per-model records
        (the kind's ``record`` class) -- what the figure builders consume.

        Pass ``campaign=<directory>`` to route the sweep through the
        resumable campaign runner: trials stream to a content-addressed
        on-disk store under that directory, completed trials are skipped
        on re-runs, and the reduced points are bit-identical to the
        in-memory path.
        """
        trial_kind = TRIAL_KINDS[kind]
        # Materialise once: the axis is iterated for planning and again
        # for reduction, which would silently drain a generator input.
        axis = list(axis)
        values = {**trial_kind.defaults(), **params}
        if campaign is not None:
            from repro.campaign import CampaignRunner, CampaignSpec

            # Every parameter is spelled out, defaults included, so the
            # campaign's fingerprint names exactly the sweep that ran.
            spec = CampaignSpec.create(
                kind, axis, trials, models=self._models(kind), **values
            )
            runner = CampaignRunner(spec, campaign, workers=self.workers)
            try:
                runner.run()
                return runner.sweep_points()
            finally:
                runner.close()
        results = self._map(trial_kind.runner, self.plan(axis, trials, kind=kind, **params))
        per_point = [results[index * trials : (index + 1) * trials] for index in range(len(axis))]
        return trial_kind.reduce(axis, values["distribution"], per_point)
