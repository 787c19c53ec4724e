"""Phase 1 of the minimum-faulty-polygon construction: the merge process.

Faulty nodes are grouped into *components*: maximal sets of faults that are
pairwise connected through the adjacency of Definition 2 (the eight
surrounding nodes, i.e. diagonal contacts count).  Each component maintains
the minimum and maximum coordinates of its nodes along both dimensions --
the bounding box that becomes the *virtual faulty block* in the centralized
solution.

:class:`ComponentTable` holds every component of a fault set as arrays,
from one 8-connected labelling: the cells grouped by component, each
component's bounding box and size, and its *shape key*.  MFP, CMFP and DMFP
build from the table.  Solution B disables only a component's concave row
and column sections, so a component that fills its bounding box adds
nothing, and every other component's polygon, CMFP rounds and DMFP outcome
depend on its shape alone.  Those come from process-wide memos
(:class:`ShapeMemo`) keyed by the shape key.  :func:`find_components` is
the table's materialisation as :class:`FaultComponent` objects.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, Hashable, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.geometry import masks
from repro.geometry.rectangle import Rectangle, bounding_rectangle
from repro.geometry.boundary import eight_neighbours, region_perimeter
from repro.types import Coord


@dataclass(frozen=True)
class FaultComponent:
    """A maximal 8-connected group of faulty nodes.

    ``index`` is a stable identifier assigned in discovery order (components
    are discovered scanning faults in sorted coordinate order, so the index
    is deterministic for a given fault set).
    """

    index: int
    nodes: FrozenSet[Coord]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a fault component cannot be empty")

    @property
    def size(self) -> int:
        """Number of faulty nodes in the component."""
        return len(self.nodes)

    @property
    def bounding_box(self) -> Rectangle:
        """The virtual faulty block of the component (its bounding box)."""
        return bounding_rectangle(self.nodes)

    @property
    def min_x(self) -> int:
        """Smallest X coordinate of any node in the component."""
        return self.bounding_box.min_x

    @property
    def min_y(self) -> int:
        """Smallest Y coordinate of any node in the component."""
        return self.bounding_box.min_y

    @property
    def max_x(self) -> int:
        """Largest X coordinate of any node in the component."""
        return self.bounding_box.max_x

    @property
    def max_y(self) -> int:
        """Largest Y coordinate of any node in the component."""
        return self.bounding_box.max_y

    @property
    def extent(self) -> int:
        """Maximum of the bounding-box width and height.

        The number of rounds the per-component labelling emulation needs is
        bounded by the extent, which is why the paper argues CMFP needs far
        fewer rounds than the whole-network labelling of FB/FP.
        """
        box = self.bounding_box
        return max(box.width, box.height)

    @property
    def perimeter(self) -> int:
        """Length of the component outline in grid-edge units."""
        return region_perimeter(self.nodes)

    def __contains__(self, node: Coord) -> bool:
        return node in self.nodes

    def __iter__(self):
        return iter(sorted(self.nodes))

    def __len__(self) -> int:
        return self.size

    def is_adjacent(self, node: Coord) -> bool:
        """Return ``True`` when *node* touches the component (8-adjacency)."""
        if node in self.nodes:
            return False
        return any(n in self.nodes for n in eight_neighbours(node))


#: Entries kept by each process-wide :class:`ShapeMemo`.  A 40-s paper
#: sweep memoises about 2,000 distinct component shapes.
SHAPE_MEMO_SIZE = 4096

#: Every shape memo of the process, for :func:`clear_shape_memos` and
#: :func:`shape_memo_counts`.
_SHAPE_MEMOS: List["ShapeMemo"] = []


class ShapeMemo:
    """A process-wide memo from shape keys to values, least recently used
    entries evicted beyond :data:`SHAPE_MEMO_SIZE`.

    *compute* maps a list of missing keys to their values in one call, so
    a build computes all its misses together (the CMFP rounds emulate
    them as one batch).  ``hits`` and ``misses`` count lookups: each
    distinct missing key of a lookup is a miss, every other key a hit.
    Lookups from several threads are serialised, as ``functools.lru_cache``
    is safe to share.
    """

    def __init__(self, compute: Callable[[List[Hashable]], List[Any]]) -> None:
        self._compute = compute
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        _SHAPE_MEMOS.append(self)

    def lookup(self, keys: Sequence[Hashable]) -> List[Any]:
        """The values of *keys*, in order."""
        with self._lock:
            entries = self._entries
            missing = [key for key in dict.fromkeys(keys) if key not in entries]
            self.misses += len(missing)
            self.hits += len(keys) - len(missing)
            if missing:
                entries.update(zip(missing, self._compute(missing)))
            values = []
            for key in keys:
                entries.move_to_end(key)
                values.append(entries[key])
            while len(entries) > SHAPE_MEMO_SIZE:
                entries.popitem(last=False)
            return values

    def __call__(self, key: Hashable) -> Any:
        return self.lookup([key])[0]

    def cache_clear(self) -> None:
        """Empty the memo and reset its counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = 0


def clear_shape_memos() -> None:
    """Empty every shape memo, e.g. to time the constructions cold."""
    for memo in _SHAPE_MEMOS:
        memo.cache_clear()


def shape_memo_counts() -> Tuple[int, int]:
    """``(hits, misses)`` summed over every shape memo of the process."""
    return sum(m.hits for m in _SHAPE_MEMOS), sum(m.misses for m in _SHAPE_MEMOS)


def shape_key(nodes: Iterable[Coord]) -> bytes:
    """The shape-memo key of a node set.

    The cells relative to their bounding-box corner, in ``(x, y)`` order,
    as the bytes of an ``int32`` array: equal for translated copies of one
    shape and different for any two shapes.  :class:`ComponentTable`
    computes the same bytes for all its components at once.
    """
    cells = np.array(sorted(nodes), dtype=np.int64).reshape(-1, 2)
    return (cells - cells.min(axis=0)).astype(np.int32).tobytes()


def shape_cells(key: bytes) -> np.ndarray:
    """The ``(n, 2)`` read-only cell array a :func:`shape_key` encodes."""
    return np.frombuffer(key, dtype=np.int32).reshape(-1, 2)


class ComponentTable:
    """Every fault component of a fault set, as arrays.

    Component ``i`` owns cells ``bounds[i]:bounds[i + 1]`` of ``xs`` /
    ``ys``, in ``(x, y)`` order; components come in :func:`find_components`
    order (ascending minimum node).  Per component the table keeps the
    bounding-box corner (``min_x``, ``min_y``), ``widths``, ``heights``,
    ``sizes`` and the :func:`shape_key` (``keys``, computed in one array
    pass); ``irregular`` indexes the components that do not fill their
    bounding box, the only ones whose polygon adds nodes.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, bounds: np.ndarray) -> None:
        self.xs, self.ys, self.bounds = xs, ys, bounds
        starts = bounds[:-1]
        self.sizes = np.diff(bounds)
        self.min_x = xs[starts]  # (x, y) order: a component's first cell
        self.min_y = np.minimum.reduceat(ys, starts) if starts.size else starts
        self.widths = xs[bounds[1:] - 1] - self.min_x + 1
        self.heights = (
            np.maximum.reduceat(ys, starts) - self.min_y + 1 if starts.size else starts
        )
        self.irregular = np.flatnonzero(self.widths * self.heights != self.sizes)
        owner = np.repeat(np.arange(starts.size), self.sizes)
        cells = np.empty((xs.size, 2), dtype=np.int32)
        cells[:, 0] = xs - self.min_x[owner]
        cells[:, 1] = ys - self.min_y[owner]
        blob = cells.tobytes()
        edges = (bounds * 8).tolist()
        self.keys: List[bytes] = [blob[a:b] for a, b in zip(edges, edges[1:])]

    @classmethod
    def from_faults(cls, faults: Iterable[Coord], diagonal: bool = True) -> "ComponentTable":
        """Label *faults* once and tabulate their components.

        Rasterises the faults into their bounding box for the mask
        labelling of :mod:`repro.geometry.masks`; a fault set too sparse
        for that (:func:`repro.geometry.masks.try_local_mask` returns
        ``None``) is grouped by :func:`find_components_bfs` instead.
        *diagonal* is as in :func:`find_components`.
        """
        fault_set: Set[Coord] = set(faults)
        local = masks.try_local_mask(fault_set)
        if local is None:
            groups = [sorted(c.nodes) for c in find_components_bfs(fault_set, diagonal)]
            cells = np.array([cell for group in groups for cell in group], dtype=np.int64)
            xs, ys = cells.reshape(-1, 2).T
            return cls(xs, ys, np.cumsum([0] + [len(group) for group in groups]))
        mask, origin = local
        return cls.from_mask(mask, origin, diagonal)

    @classmethod
    def from_mask(
        cls, mask: np.ndarray, origin: Tuple[int, int] = (0, 0), diagonal: bool = True
    ) -> "ComponentTable":
        """Label a boolean ``[x, y]`` fault mask once and tabulate its
        components; cell ``[i, j]`` is the fault ``origin + (i, j)``.
        *diagonal* is as in :func:`find_components`."""
        labels, count = masks.label_mask(mask, connectivity=8 if diagonal else 4)
        xs, ys = np.nonzero(labels)
        lab = labels[xs, ys]
        order = np.argsort(lab, kind="stable")  # keeps (x, y) order per label
        bounds = np.searchsorted(lab[order], np.arange(1, count + 2))
        return cls(xs[order] + origin[0], ys[order] + origin[1], bounds)

    def __len__(self) -> int:
        return self.sizes.size

    def materialise(self) -> List[FaultComponent]:
        """The components as :class:`FaultComponent` objects."""
        xl, yl = self.xs.tolist(), self.ys.tolist()
        bounds = self.bounds.tolist()
        return [
            FaultComponent(
                index=index,
                nodes=frozenset(zip(xl[start:end], yl[start:end])),
            )
            for index, (start, end) in enumerate(zip(bounds, bounds[1:]))
        ]

    def place(self, picks: np.ndarray, shapes: Sequence[np.ndarray]) -> np.ndarray:
        """Concatenate *shapes*, each moved to its component's box corner.

        ``shapes[j]`` is an ``(n, 2)`` array relative to the corner of
        component ``picks[j]`` (a memo entry); the result is one ``(N, 2)``
        array of absolute coordinates.
        """
        if not len(shapes):
            return np.zeros((0, 2), dtype=np.int64)
        corners = np.column_stack((self.min_x[picks], self.min_y[picks]))
        lengths = [len(shape) for shape in shapes]
        return np.concatenate(shapes) + np.repeat(corners, lengths, axis=0)


def find_components(
    faults: Iterable[Coord],
    diagonal: bool = True,
) -> List[FaultComponent]:
    """Group *faults* into components using the merge process.

    The :class:`ComponentTable` of *faults*, materialised: one vectorized
    labelling of the faults rasterised into their bounding box, or
    :func:`find_components_bfs` (the set-based oracle) for pathologically
    sparse fault sets.  Both return bit-identical component lists.

    Parameters
    ----------
    faults:
        The injected fault positions.
    diagonal:
        Whether diagonal contact joins two faults into one component.  The
        paper's Definition 2 includes the diagonals (``True``); the flag
        exists for ablation studies on the adjacency notion.

    Returns
    -------
    list[FaultComponent]
        Components in deterministic discovery order (sorted seed nodes).
    """
    return ComponentTable.from_faults(faults, diagonal).materialise()


def find_components_bfs(
    faults: Iterable[Coord],
    diagonal: bool = True,
) -> List[FaultComponent]:
    """Set-based BFS oracle for :func:`find_components` (same output)."""
    fault_set: Set[Coord] = set(faults)
    unvisited = set(fault_set)
    components: List[FaultComponent] = []
    for seed in sorted(fault_set):
        if seed not in unvisited:
            continue
        queue = deque([seed])
        unvisited.discard(seed)
        members: Set[Coord] = {seed}
        while queue:
            node = queue.popleft()
            if diagonal:
                neighbours = eight_neighbours(node)
            else:
                x, y = node
                neighbours = [(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)]
            for neighbour in neighbours:
                if neighbour in unvisited:
                    unvisited.discard(neighbour)
                    members.add(neighbour)
                    queue.append(neighbour)
        components.append(FaultComponent(index=len(components), nodes=frozenset(members)))
    return components
