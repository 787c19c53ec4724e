"""Declarative synthetic traffic workloads for routing experiments.

The routing evaluation of the fault-tolerant-routing literature runs the
standard synthetic traffic suite -- uniform random, matrix transpose, bit
reversal, hotspot, nearest neighbour and random permutation -- over the
fault regions under test.  This module provides those workloads as a
pluggable registry of :class:`TrafficSpec` objects, mirroring the
construction registry of :mod:`repro.api.registry`:

========  ==================  ================================================
key       label               endpoint pattern
========  ==================  ================================================
``uniform``            UR     independent uniform source/destination pairs
``transpose``          TP     ``(x, y) -> (y, x)`` fixed partners
``bit-reversal``       BR     per-dimension bit-reversed fixed partners
``hotspot``            HS     uniform sources, a fraction of traffic aimed at
                              a few hotspot nodes
``nearest-neighbour``  NN     destinations within a small Manhattan radius
``permutation``        RP     one random enabled-node permutation per batch
``poisson``            PO     open-loop arrival process: endpoints drawn by a
                              wrapped spatial pattern, injection times from a
                              Poisson process of the requested rate
``bursty``             BU     open-loop bursty (on/off) arrivals: back-to-back
                              bursts separated by exponential idle gaps
========  ==================  ================================================

The two arrival workloads additionally stamp ``TrafficBatch.inject_time``
(cycle numbers, nondecreasing) for the open-loop network simulator of
:mod:`repro.netsim`; the closed-loop routing paths simply ignore the
timestamps, so they are usable anywhere a spatial workload is.

Generation is *vectorized on the mask-kernel representation*: a
:class:`TrafficContext` carries the enabled endpoints as the ``(xs, ys)``
index arrays plus the boolean enabled mask produced by the region-index
grid of :class:`repro.routing.extended_ecube.ExtendedECubeRouter`, and
every generator draws/filters whole index arrays -- no per-pair Python
runs during generation.  Patterns whose partner function can land on a
disabled node (transpose, bit reversal, nearest neighbour) pre-filter the
valid sources with mask operations instead of rejection loops, so a batch
of *count* messages costs O(grid + count) regardless of the fault load.

All generators are deterministic functions of their seed: the same seed
produces bit-identical endpoint batches in any process (asserted by
``tests/test_routing_traffic.py``), which is what makes parallel routing
sweeps through :class:`repro.api.SweepExecutor` reproducible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from repro._registry import SpecRegistry, make_spec_options
from repro.geometry import masks
from repro.mesh.topology import Topology
from repro.types import Coord


# -- typed options ------------------------------------------------------------------


@dataclass(frozen=True)
class TrafficOptions:
    """Base class for per-workload options (frozen, hashable, picklable)."""

    def replace(self, **changes: Any) -> "TrafficOptions":
        """Return a copy with *changes* applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class UniformOptions(TrafficOptions):
    """Options of the uniform random workload (none yet)."""


@dataclass(frozen=True)
class TransposeOptions(TrafficOptions):
    """Options of the transpose workload (none yet)."""


@dataclass(frozen=True)
class BitReversalOptions(TrafficOptions):
    """Options of the bit-reversal workload (none yet)."""


@dataclass(frozen=True)
class HotspotOptions(TrafficOptions):
    """Options of the hotspot workload.

    ``num_hotspots`` enabled nodes are drawn per batch; each message aims
    at one of them with probability ``fraction`` and at a uniform random
    destination otherwise.
    """

    num_hotspots: int = 4
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.num_hotspots < 1:
            raise ValueError("num_hotspots must be at least 1")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")


@dataclass(frozen=True)
class NearestNeighbourOptions(TrafficOptions):
    """Options of the nearest-neighbour workload.

    Destinations lie within Manhattan distance ``radius`` of the source
    (the default radius 1 is the classic 4-neighbour pattern).
    """

    radius: int = 1

    def __post_init__(self) -> None:
        if self.radius < 1:
            raise ValueError("radius must be at least 1")


@dataclass(frozen=True)
class PermutationOptions(TrafficOptions):
    """Options of the random-permutation workload (none yet)."""


@dataclass(frozen=True)
class ArrivalOptions(TrafficOptions):
    """Base options shared by the open-loop arrival processes.

    ``pattern`` names the spatial workload that draws the endpoint pairs
    (any non-arrival traffic key), ``rate`` is the aggregate injection
    rate in messages per cycle across the whole network, and
    ``pattern_options`` is forwarded to the spatial workload's generator.
    """

    pattern: str = "uniform"
    rate: float = 1.0
    pattern_options: Optional[TrafficOptions] = None

    def __post_init__(self) -> None:
        if self.rate <= 0.0:
            raise ValueError("rate must be positive (messages per cycle)")


@dataclass(frozen=True)
class PoissonArrivalOptions(ArrivalOptions):
    """Options of the Poisson arrival process (memoryless inter-arrivals)."""


@dataclass(frozen=True)
class BurstyArrivalOptions(ArrivalOptions):
    """Options of the bursty (on/off) arrival process.

    Messages arrive in back-to-back bursts of ``burst`` messages (one per
    cycle); the idle gaps between bursts are exponential with a mean
    chosen so the long-run rate still matches ``rate``.
    """

    burst: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.burst < 1:
            raise ValueError("burst must be at least 1")


# -- endpoint batches ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TrafficBatch:
    """One generated batch of message endpoints, as aligned index arrays.

    The arrays stay in numpy-land until :meth:`pairs` materialises the
    coordinate tuples for the (per-message, Python-level) router loop.
    """

    src_x: np.ndarray
    src_y: np.ndarray
    dst_x: np.ndarray
    dst_y: np.ndarray
    #: Optional per-message injection cycles (int64, nondecreasing), stamped
    #: by the open-loop arrival workloads; ``None`` for closed-loop batches
    #: (the network simulator then injects everything at cycle 0).
    inject_time: Optional[np.ndarray] = None

    @classmethod
    def empty(cls) -> "TrafficBatch":
        """A zero-message batch (no valid endpoint pair exists)."""
        nothing = np.empty(0, dtype=np.int64)
        return cls(nothing, nothing, nothing, nothing)

    def __len__(self) -> int:
        return int(self.src_x.size)

    def pairs(self) -> Iterator[Tuple[Coord, Coord]]:
        """Yield ``(source, destination)`` coordinate tuples."""
        return zip(
            zip(self.src_x.tolist(), self.src_y.tolist()),
            zip(self.dst_x.tolist(), self.dst_y.tolist()),
        )

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The raw ``(src_x, src_y, dst_x, dst_y)`` index arrays."""
        return self.src_x, self.src_y, self.dst_x, self.dst_y


@dataclass(frozen=True, eq=False)
class TrafficContext:
    """Everything a workload needs about the mesh under test.

    ``enabled_xs`` / ``enabled_ys`` list the endpoint candidates in
    ``(x, y)`` order (the ``nonzero`` order of the router's enabled mask);
    ``enabled_mask`` is the whole-grid boolean complement of the fault
    regions, so partner validity checks are O(1) array reads.
    """

    topology: Topology
    enabled_xs: np.ndarray
    enabled_ys: np.ndarray
    enabled_mask: np.ndarray

    @classmethod
    def from_router(cls, router) -> "TrafficContext":
        """Build the context from a router's region-index representation."""
        xs, ys = router.enabled_arrays()
        return cls(
            topology=router.topology,
            enabled_xs=xs,
            enabled_ys=ys,
            enabled_mask=router.enabled_mask,
        )

    @classmethod
    def from_topology(
        cls, topology: Topology, disabled: Mapping | frozenset | set | tuple = ()
    ) -> "TrafficContext":
        """Build the context from a topology and an explicit disabled set."""
        mask = np.ones((topology.width, topology.height), dtype=bool)
        for x, y in disabled:
            mask[x, y] = False
        xs, ys = np.nonzero(mask)
        return cls(topology=topology, enabled_xs=xs, enabled_ys=ys, enabled_mask=mask)

    @property
    def num_enabled(self) -> int:
        """Number of endpoint candidates."""
        return int(self.enabled_xs.size)

    @property
    def wraps(self) -> bool:
        """Whether the topology has wrap-around links (torus)."""
        return self.topology.normalise((-1, 0)) is not None


# -- the spec and registry ----------------------------------------------------------

#: A generator draws *count* endpoint pairs: ``(context, count, rng, options)``.
Generator = Callable[[TrafficContext, int, np.random.Generator, TrafficOptions], TrafficBatch]


@dataclass(frozen=True)
class TrafficSpec:
    """One registered synthetic traffic workload."""

    key: str
    label: str
    description: str
    generator: Generator
    options_type: type = TrafficOptions
    aliases: Tuple[str, ...] = ()

    def make_options(
        self,
        options: Optional[TrafficOptions] = None,
        overrides: Optional[Mapping[str, Any]] = None,
    ) -> TrafficOptions:
        """Validate/construct the option set for one generation call."""
        return make_spec_options("traffic", self, options, overrides)

    def generate(
        self,
        context: TrafficContext,
        count: int,
        *,
        seed: int = 0,
        rng: Optional[np.random.Generator] = None,
        options: Optional[TrafficOptions] = None,
        **overrides: Any,
    ) -> TrafficBatch:
        """Generate a batch of *count* endpoint pairs.

        Pass either a *seed* (a fresh generator is derived from it; the
        deterministic sweep path) or an explicit *rng* whose state advances
        across calls (the legacy stateful-simulator path).  Workloads whose
        partner function admits no valid pair on this mesh (for example a
        transpose whose partners are all disabled) return an empty batch,
        as does a mesh with fewer than two enabled nodes.
        """
        if rng is None:
            rng = np.random.default_rng(seed)
        opts = self.make_options(options, overrides)
        if count <= 0 or context.num_enabled < 2:
            return TrafficBatch.empty()
        return self.generator(context, count, rng, opts)


_WORKLOADS = SpecRegistry("traffic")


def register_traffic(spec: TrafficSpec, replace: bool = False) -> TrafficSpec:
    """Register *spec* (and its aliases) in the global workload registry.

    Registration makes the workload available to ``get_traffic``,
    :meth:`repro.api.MeshSession.route`, the routing sweeps of
    :class:`repro.api.SweepExecutor` and the CLI ``route --traffic``
    option.  Raises ``ValueError`` on key collisions unless *replace*.
    """
    return _WORKLOADS.register(spec, replace)


def get_traffic(key: str) -> TrafficSpec:
    """Look up a traffic workload by key or alias (case-insensitive)."""
    return _WORKLOADS.get(key)


def available_traffic() -> List[TrafficSpec]:
    """Return every registered workload spec, in registration order."""
    return _WORKLOADS.available()


def traffic_keys() -> Tuple[str, ...]:
    """Return the registered workload keys, in registration order."""
    return _WORKLOADS.keys()


# -- generators ---------------------------------------------------------------------


def _bump_collisions(src: np.ndarray, dst: np.ndarray, num: int) -> np.ndarray:
    """Replace ``dst == src`` draws with the next enabled index (mod *num*)."""
    return np.where(src == dst, (dst + 1) % num, dst)


def _uniform(context, count, rng, options):
    """Independent uniform source/destination draws.

    One ``(count, 2)`` integer draw with same-index collisions bumped to
    the next enabled node, so identical generator state yields identical
    batches (``tests/test_routing_traffic.py`` pins the draw).
    """
    num = context.num_enabled
    indices = rng.integers(0, num, size=(count, 2))
    src, dst = indices[:, 0], indices[:, 1]
    dst = _bump_collisions(src, dst, num)
    return TrafficBatch(
        context.enabled_xs[src],
        context.enabled_ys[src],
        context.enabled_xs[dst],
        context.enabled_ys[dst],
    )


def _fixed_partner(context, count, rng, partner_x, partner_y):
    """Draw sources whose fixed partner is a valid, distinct enabled node.

    *partner_x* / *partner_y* give each enabled node's partner coordinates
    (aligned with the context's enabled arrays).  Partners outside the
    grid, on disabled nodes, or equal to their source are filtered with
    one vectorized mask pass; sources are then drawn uniformly among the
    surviving candidates.
    """
    width, height = context.topology.width, context.topology.height
    in_grid = (
        (partner_x >= 0)
        & (partner_x < width)
        & (partner_y >= 0)
        & (partner_y < height)
    )
    valid = in_grid.copy()
    valid[in_grid] &= context.enabled_mask[partner_x[in_grid], partner_y[in_grid]]
    valid &= (partner_x != context.enabled_xs) | (partner_y != context.enabled_ys)
    candidates = np.nonzero(valid)[0]
    if candidates.size == 0:
        return TrafficBatch.empty()
    draws = candidates[rng.integers(0, candidates.size, size=count)]
    return TrafficBatch(
        context.enabled_xs[draws],
        context.enabled_ys[draws],
        partner_x[draws],
        partner_y[draws],
    )


def _transpose(context, count, rng, options):
    """Matrix transpose: ``(x, y)`` sends to ``(y, x)``.

    On a rectangular mesh, partners falling outside the grid are filtered
    out together with the disabled ones.
    """
    return _fixed_partner(
        context, count, rng, context.enabled_ys.copy(), context.enabled_xs.copy()
    )


def _reverse_bits(values: np.ndarray, bits: int) -> np.ndarray:
    """Reverse the low *bits* bits of every value (vectorized)."""
    result = np.zeros_like(values)
    remaining = values.copy()
    for _ in range(bits):
        result = (result << 1) | (remaining & 1)
        remaining >>= 1
    return result


def _bit_reversal(context, count, rng, options):
    """Bit reversal: each coordinate is bit-reversed within its dimension.

    The classic pattern assumes power-of-two dimensions; on other sizes
    the reversed coordinate can exceed the dimension, and those partners
    are filtered out like any other invalid partner.
    """
    bits_x = max(1, (context.topology.width - 1).bit_length())
    bits_y = max(1, (context.topology.height - 1).bit_length())
    partner_x = _reverse_bits(context.enabled_xs, bits_x)
    partner_y = _reverse_bits(context.enabled_ys, bits_y)
    return _fixed_partner(context, count, rng, partner_x, partner_y)


def _hotspot(context, count, rng, options):
    """Hotspot: uniform sources, a traffic fraction aimed at a few nodes."""
    num = context.num_enabled
    num_hotspots = min(options.num_hotspots, num)
    hotspots = rng.choice(num, size=num_hotspots, replace=False)
    src = rng.integers(0, num, size=count)
    dst = rng.integers(0, num, size=count)
    aimed = rng.random(count) < options.fraction
    dst = np.where(aimed, hotspots[rng.integers(0, num_hotspots, size=count)], dst)
    dst = _bump_collisions(src, dst, num)
    return TrafficBatch(
        context.enabled_xs[src],
        context.enabled_ys[src],
        context.enabled_xs[dst],
        context.enabled_ys[dst],
    )


def _nearest_neighbour(context, count, rng, options):
    """Nearest neighbour: destinations within a small Manhattan radius.

    The candidate (source, offset) combinations are enumerated with mask
    shifts -- the same ``_shift`` primitive that powers the mask kernel --
    one per offset of the Manhattan ball, so only pairs whose destination
    is an enabled node (wrapping on a torus) are ever drawn.

    Note that on a torus the *workload* wraps but the built-in routers do
    not (they route mesh x-y paths; see :mod:`repro.routing.registry`), so
    wrap-adjacent pairs are routed across the mesh interior.
    """
    radius = options.radius
    wrap = context.wraps
    width, height = context.topology.width, context.topology.height
    src_x_parts: List[np.ndarray] = []
    src_y_parts: List[np.ndarray] = []
    dst_x_parts: List[np.ndarray] = []
    dst_y_parts: List[np.ndarray] = []
    for dx in range(-radius, radius + 1):
        for dy in range(-radius, radius + 1):
            if not 0 < abs(dx) + abs(dy) <= radius:
                continue
            # reachable[x, y] == enabled[x + dx, y + dy] (False off-mesh).
            reachable = masks._shift(context.enabled_mask, -dx, -dy, wrap)
            xs, ys = np.nonzero(context.enabled_mask & reachable)
            if xs.size == 0:
                continue
            src_x_parts.append(xs)
            src_y_parts.append(ys)
            if wrap:
                dst_x_parts.append((xs + dx) % width)
                dst_y_parts.append((ys + dy) % height)
            else:
                dst_x_parts.append(xs + dx)
                dst_y_parts.append(ys + dy)
    if not src_x_parts:
        return TrafficBatch.empty()
    src_x = np.concatenate(src_x_parts)
    src_y = np.concatenate(src_y_parts)
    dst_x = np.concatenate(dst_x_parts)
    dst_y = np.concatenate(dst_y_parts)
    draws = rng.integers(0, src_x.size, size=count)
    return TrafficBatch(src_x[draws], src_y[draws], dst_x[draws], dst_y[draws])


def _permutation(context, count, rng, options):
    """Random permutation: one fixed random partner per enabled node.

    A fresh permutation of the enabled nodes is drawn per batch; fixed
    points (a node mapped to itself) are bumped to the next enabled node.
    """
    num = context.num_enabled
    perm = rng.permutation(num)
    src = rng.integers(0, num, size=count)
    dst = _bump_collisions(src, perm[src], num)
    return TrafficBatch(
        context.enabled_xs[src],
        context.enabled_ys[src],
        context.enabled_xs[dst],
        context.enabled_ys[dst],
    )


# -- open-loop arrival processes ----------------------------------------------------


def _spatial_batch(context, count, rng, options: ArrivalOptions) -> TrafficBatch:
    """Draw the endpoint pairs of an arrival batch from its spatial pattern."""
    spec = get_traffic(options.pattern)
    if issubclass(spec.options_type, ArrivalOptions):
        raise ValueError(
            f"arrival workloads cannot nest: pattern {spec.key!r} is itself "
            "an arrival process; pick a spatial workload (e.g. 'uniform')"
        )
    return spec.generate(context, count, rng=rng, options=options.pattern_options)


def _with_inject_times(batch: TrafficBatch, times: np.ndarray) -> TrafficBatch:
    return TrafficBatch(
        batch.src_x, batch.src_y, batch.dst_x, batch.dst_y, inject_time=times
    )


def _poisson_arrival(context, count, rng, options):
    """Poisson process: i.i.d. exponential inter-arrival gaps at ``rate``.

    The endpoint pairs come first (one draw of the spatial pattern with the
    same generator), then the injection cycles, so the spatial batch is
    bit-identical to the plain pattern's batch under the same seed.
    """
    batch = _spatial_batch(context, count, rng, options)
    if len(batch) == 0:
        return batch
    gaps = rng.exponential(1.0 / options.rate, size=len(batch))
    times = np.floor(np.cumsum(gaps)).astype(np.int64)
    return _with_inject_times(batch, times)


def _bursty_arrival(context, count, rng, options):
    """Bursty on/off arrivals: bursts of back-to-back messages, idle gaps.

    Each burst injects ``burst`` messages on consecutive cycles; the gap
    from one burst's start to the next is ``burst - 1`` busy cycles plus an
    exponential idle stretch whose mean keeps the long-run rate at
    ``rate``.
    """
    batch = _spatial_batch(context, count, rng, options)
    n = len(batch)
    if n == 0:
        return batch
    burst = options.burst
    num_bursts = -(-n // burst)
    idle_mean = max(burst / options.rate - (burst - 1), 1e-9)
    idle = rng.exponential(idle_mean, size=num_bursts)
    starts = np.cumsum(idle + (burst - 1)) - (burst - 1)
    burst_index = np.arange(n) // burst
    offset_in_burst = np.arange(n) % burst
    times = np.floor(starts[burst_index] + offset_in_burst).astype(np.int64)
    return _with_inject_times(batch, times)


# -- built-in workloads -------------------------------------------------------------

register_traffic(
    TrafficSpec(
        key="uniform",
        label="UR",
        description="independent uniform random source/destination pairs",
        generator=_uniform,
        options_type=UniformOptions,
        aliases=("uniform-random", "random"),
    )
)
register_traffic(
    TrafficSpec(
        key="transpose",
        label="TP",
        description="matrix transpose: (x, y) sends to (y, x)",
        generator=_transpose,
        options_type=TransposeOptions,
        aliases=("matrix-transpose",),
    )
)
register_traffic(
    TrafficSpec(
        key="bit-reversal",
        label="BR",
        description="per-dimension bit-reversed fixed partners",
        generator=_bit_reversal,
        options_type=BitReversalOptions,
        aliases=("bitrev", "bit-reverse"),
    )
)
register_traffic(
    TrafficSpec(
        key="hotspot",
        label="HS",
        description="uniform sources with a traffic fraction aimed at hotspots",
        generator=_hotspot,
        options_type=HotspotOptions,
        aliases=("hot-spot",),
    )
)
register_traffic(
    TrafficSpec(
        key="nearest-neighbour",
        label="NN",
        description="destinations within a small Manhattan radius of the source",
        generator=_nearest_neighbour,
        options_type=NearestNeighbourOptions,
        aliases=("nearest-neighbor", "neighbour", "nn"),
    )
)
register_traffic(
    TrafficSpec(
        key="permutation",
        label="RP",
        description="one random enabled-node permutation per batch",
        generator=_permutation,
        options_type=PermutationOptions,
        aliases=("random-permutation",),
    )
)
register_traffic(
    TrafficSpec(
        key="poisson",
        label="PO",
        description="open-loop Poisson arrivals over a wrapped spatial pattern",
        generator=_poisson_arrival,
        options_type=PoissonArrivalOptions,
        aliases=("poisson-arrival", "open-loop"),
    )
)
register_traffic(
    TrafficSpec(
        key="bursty",
        label="BU",
        description="open-loop bursty (on/off) arrivals over a wrapped spatial pattern",
        generator=_bursty_arrival,
        options_type=BurstyArrivalOptions,
        aliases=("bursty-arrival", "on-off"),
    )
)
