"""Random and clustered fault-distribution models.

Both models insert faults *sequentially*, exactly as described in Section 4
of the paper.  The clustered model maintains a per-node failure weight: all
nodes start with weight 1, and whenever a fault is inserted the weight of
each of its eight adjacent neighbours (Definition 2) is multiplied by the
cluster factor (2 in the paper).  The next fault is then drawn with
probability proportional to the weights of the remaining non-faulty nodes.

The clustered draws equal ``Generator.choice(n, p=weights / weights.sum())``
bit for bit, for every seed: each draw consumes the one ``rng.random()``
double that ``choice`` consumes and returns the node ``choice`` would
return.  A sum forest over the weights (one sum tree per mesh column under
a tree of column totals, see :class:`_ForestLayout`) finds that node in
O(log n), where ``choice`` needs an O(n) cdf; the rare draw too close to a
cdf step for the forest's rounding to decide is left to numpy's own
arithmetic.  A fault re-sums only the ancestors of the leaves it changes,
from plans built once per mesh shape.
"""

from __future__ import annotations

import abc
import functools
import math
from typing import List, Optional

import numpy as np

from repro.mesh.topology import Topology
from repro.types import Coord


class FaultModel(abc.ABC):
    """Base class for sequential fault-injection models."""

    name: str = "abstract"

    def __init__(self, topology: Topology, rng: Optional[np.random.Generator] = None):
        self.topology = topology
        self.rng = rng if rng is not None else np.random.default_rng()

    @abc.abstractmethod
    def draw_faults(self, count: int) -> List[Coord]:
        """Return *count* distinct fault positions, in insertion order."""

    def _check_count(self, count: int) -> None:
        if count < 0:
            raise ValueError("fault count must be non-negative")
        if count > self.topology.num_nodes:
            raise ValueError(
                f"cannot place {count} faults in a "
                f"{self.topology.width}x{self.topology.height} topology"
            )


class RandomFaultModel(FaultModel):
    """Uniformly random fault positions (without replacement)."""

    name = "random"

    def draw_faults(self, count: int) -> List[Coord]:
        self._check_count(count)
        chosen = self.rng.choice(self.topology.num_nodes, size=count, replace=False)
        xs, ys = np.divmod(chosen, self.topology.height)
        return list(zip(xs.tolist(), ys.tolist()))


#: Totals for which the sum forest's answer is trusted.  Outside them the
#: margin could underflow, or numpy's differently ordered sum could
#: overflow where the forest's does not (or the reverse), so the draw is
#: left to numpy's arithmetic, which also raises where ``choice`` would.
_TRUSTED_TOTALS = (2.0**-960, 2.0**960)


def _axis_table(topology: Topology, axis: int) -> List[List[int]]:
    """Each coordinate's neighbourhood on *axis*.

    Entry ``c`` holds, sorted, one value per image ``m`` of ``c - 1``, ``c``
    and ``c + 1`` under ``topology.normalise``: the mesh drops a coordinate
    outside it, the torus wraps it, and a coordinate reached twice (on a 1-
    or 2-wide torus) is listed twice.  Both map each axis on its own, so a
    node's neighbourhood is the product of its column's and its row's.
    """
    length = topology.width if axis == 0 else topology.height
    mapped = []
    for c in range(-1, length + 1):
        node = topology.normalise((c, 0) if axis == 0 else (0, c))
        mapped.append(None if node is None else node[axis])
    return [sorted([m for m in mapped[c : c + 3] if m is not None]) for c in range(length)]


def _heap(leaves: List[float], size: int) -> List[float]:
    """A sum tree over *leaves* padded with 0 to *size*: ``nodes[size + k]``
    is leaf ``k`` and ``nodes[i] = nodes[2i] + nodes[2i + 1]``."""
    nodes = [0.0] * size + leaves + [0.0] * (size - len(leaves))
    for i in range(size - 1, 0, -1):
        nodes[i] = nodes[2 * i] + nodes[2 * i + 1]
    return nodes


def _ancestors(leaves: List[int]) -> List[int]:
    """The distinct ancestors of heap positions *leaves*, children first."""
    return sorted({k >> up for k in leaves for up in range(1, k.bit_length())}, reverse=True)


class _ForestLayout:
    """The per-column sum forest of one mesh shape, and its re-sum plans.

    The forest is one sum tree (:func:`_heap`, Python floats, as every
    operation on it is scalar) per mesh column, the height padded to
    ``column_size`` leaves, under a top tree of the column roots
    (``top_size`` leaves): one heap tree over the column-major node order
    with each column padded, so its prefixes are numpy's cdf's.  ``rows[y]``
    holds the column-tree leaves of ``y - 1, y, y + 1``, ``columns[x]`` the
    columns ``x - 1, x, x + 1`` (:func:`_axis_table`) and ``touched[x]``
    those without repeats.  ``row_plans[y]`` and ``column_plans[x]`` are
    their ancestors in a column tree and in the top tree, children first;
    one row plan serves every column, as every column tree has one shape.
    A draw copies ``column`` and ``top`` and only reads the rest, so one
    cached layout serves every draw on its shape.

    ``margin`` (times the total) is how far inside a leaf's interval a draw
    must land for the forest's answer to be numpy's.  ``choice`` returns the
    first ``k`` with ``cdf[k] > u``: with exact prefix sums ``S`` and total
    ``T``, the ``k`` with ``S(k-1) <= u T < S(k)``.  With ``eps = 2**-53``
    and forest depth ``d = log2 top_size + log2 column_size`` (at most
    ``2 + log2 n``, as each size is under twice its side), the roundings are
    bounded by:

    * numpy's pairwise ``sum`` ``T'``: off by at most ``(n - 1) eps T``, but
      every ``p_i = w_i / T'`` shares that factor and ``cdf /= cdf[-1]``
      divides it out, leaving one rounding per division;
    * numpy's sequential ``cumsum`` and normalisation: ``cdf[k]`` and
      ``cdf[-1]`` are each off by at most ``n eps`` relative and the
      division adds ``eps``, so ``cdf[k]`` is within ``(2n + 1) eps`` of
      ``S(k) / T``;
    * the forest's own sums: a node is off by at most ``d eps`` of its
      value (a top leaf is a column root, copied), so a prefix (at most
      ``d`` nodes, added in turn) by ``2d eps T``; the leaf's own weight,
      ``u * total`` (whose total is off by ``d eps T``) and the margin
      comparison add ``(d + 3) eps T``: ``(3d + 3) eps T``.

    So a draw more than ``(2n + 3d + 4) eps T`` inside the forest's interval
    is numpy's draw too.  ``(4n + 64) eps`` covers that for every ``n``
    (``3d <= 6 + 3 log2 n <= 2n + 60``), with room for the second-order
    terms.  A padding leaf has weight 0, so a descent that rounding leads
    to one fails the margin test.  A draw lands inside the margin with
    probability about ``2 (4n + 64) eps`` per available node: about 1e-7
    per draw on a 100x100 mesh.
    """

    def __init__(self, topology: Topology) -> None:
        width, height = topology.width, topology.height
        self.column_size = column_size = 1 << (height - 1).bit_length()
        self.top_size = top_size = 1 << (width - 1).bit_length()
        self.column = _heap([1.0] * height, column_size)
        self.top = _heap([float(height)] * width, top_size)
        # The tree of every padding column: never written, so shared.
        self.zeros = [0.0] * (2 * column_size)
        self.rows = [[column_size + r for r in row] for row in _axis_table(topology, 1)]
        self.row_plans = [_ancestors(leaves) for leaves in self.rows]
        self.columns = _axis_table(topology, 0)
        self.touched = [sorted(set(listed)) for listed in self.columns]
        self.column_plans = [_ancestors([top_size + c for c in cs]) for cs in self.touched]
        self.margin = (4 * width * height + 64) * 2.0**-53


#: A topology's layout, built once per shape for the last 16 shapes: a
#: topology is a frozen dataclass, equal only to one of its own type and size.
_forest_layout = functools.lru_cache(maxsize=16)(_ForestLayout)


class ClusteredFaultModel(FaultModel):
    """Clustered fault distribution (adjacent failure rates are amplified).

    ``cluster_factor`` is the multiplier applied to the failure weight of the
    eight adjacent neighbours of every inserted fault; the paper uses 2
    ("the failure rate of its adjacent neighbors is doubled").  Larger
    factors produce denser clusters and are used by the cluster-factor
    ablation benchmark.  The weights live in a per-column sum forest (see
    :class:`_ForestLayout`), so each fault costs O(log n).
    """

    name = "clustered"

    def __init__(
        self,
        topology: Topology,
        rng: Optional[np.random.Generator] = None,
        cluster_factor: float = 2.0,
    ) -> None:
        super().__init__(topology, rng)
        if not (math.isfinite(cluster_factor) and cluster_factor > 0):
            raise ValueError(
                f"cluster_factor must be positive and finite, got {cluster_factor!r}"
            )
        self.cluster_factor = float(cluster_factor)

    def draw_faults(self, count: int) -> List[Coord]:
        """Draw *count* faults, each the node ``Generator.choice`` would draw.

        A fault costs one descent of the top tree and of one column tree.
        Each listing in ``columns[x]`` times ``rows[y]`` (the leaves of
        ``adjacent_nodes((x, y))`` and ``(x, y)``; a 1- or 2-wide torus
        lists some twice) multiplies its leaf by the cluster factor once,
        and the drawn leaf is then zeroed.  Each touched column re-sums the
        row plan and copies its root into the top tree, which re-sums the
        column plan, so every internal node holds the sum of its final
        children, as the margin assumes.
        """
        self._check_count(count)
        topology = self.topology
        width, height = topology.width, topology.height
        layout = _forest_layout(topology)
        column_size, top_size = layout.column_size, layout.top_size
        trees = [layout.column[:] for _ in range(width)]
        trees += [layout.zeros] * (top_size - width)
        top = layout.top[:]
        rows, row_plans = layout.rows, layout.row_plans
        columns, touched, column_plans = layout.columns, layout.touched, layout.column_plans
        random, factor, relative_margin = self.rng.random, self.cluster_factor, layout.margin
        low, high = _TRUSTED_TOTALS

        def numpy_index(u: Optional[float]) -> int:
            leaves = [tree[column_size : column_size + height] for tree in trees[:width]]
            return self._numpy_index(np.array(leaves).ravel(), u)

        faults: List[Coord] = []
        for _ in range(count):
            total = top[1]
            if low < total < high:
                # Descend the top tree, then a column's, to the leaf whose
                # computed prefix interval [lo, lo + tree[i]) holds u * total;
                # trust it only more than the margin inside that interval.
                u = random()
                target = u * total
                i, lo = 1, 0.0
                while i < top_size:
                    i += i
                    mid = lo + top[i]
                    if target >= mid:
                        lo = mid
                        i += 1
                x = i - top_size
                tree = trees[x]
                i = 1
                while i < column_size:
                    i += i
                    mid = lo + tree[i]
                    if target >= mid:
                        lo = mid
                        i += 1
                margin = relative_margin * total
                if lo + margin < target < lo + tree[i] - margin:
                    y = i - column_size
                else:
                    x, y = divmod(numpy_index(u), height)
            else:
                x, y = divmod(numpy_index(None), height)
            faults.append((x, y))
            leaves = rows[y]
            for c in columns[x]:
                tree = trees[c]
                for k in leaves:
                    tree[k] *= factor
            trees[x][column_size + y] = 0.0
            plan = row_plans[y]
            for c in touched[x]:
                tree = trees[c]
                for k in plan:
                    j = k + k
                    tree[k] = tree[j] + tree[j + 1]
                top[top_size + c] = tree[1]
            for k in column_plans[x]:
                j = k + k
                top[k] = top[j] + top[j + 1]
        return faults

    def _numpy_index(self, weights: np.ndarray, u: Optional[float]) -> int:
        """The index ``Generator.choice(n, p=weights / weights.sum())`` draws.

        The arithmetic and its order are ``choice``'s (``sum``, divide,
        ``cumsum``, ``/= cdf[-1]``, ``searchsorted``), on the weights with
        faulty nodes at 0, so the index is the same for the same *u*.  The
        weights are checked first, and a ``None`` *u* is drawn only after
        the checks pass, as ``choice`` does.
        """
        total = weights.sum()
        if total <= 0:
            raise RuntimeError("no available node left for fault injection")
        if not math.isfinite(total):
            raise ValueError(
                "Probabilities contain NaN: the failure weights overflowed "
                f"(cluster_factor={self.cluster_factor!r})"
            )
        weights /= total
        if u is None:
            u = self.rng.random()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(u, side="right"))


def make_fault_model(
    name: str,
    topology: Topology,
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> FaultModel:
    """Instantiate a fault model by name (``"random"`` or ``"clustered"``)."""
    normalised = name.strip().lower()
    if normalised == RandomFaultModel.name:
        return RandomFaultModel(topology, rng)
    if normalised == ClusteredFaultModel.name:
        return ClusteredFaultModel(topology, rng, **kwargs)
    raise ValueError(f"unknown fault model {name!r}; expected 'random' or 'clustered'")
