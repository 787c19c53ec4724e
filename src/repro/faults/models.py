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
return.  A sum tree over the weights finds that node in O(log n) per draw,
where ``choice`` needs an O(n) probability vector and cdf; the rare draw
that lands too close to a cdf step for the tree's rounding to decide is
recomputed with numpy's own arithmetic (see :class:`_SumTree`).  A fault
then re-sums only the ancestors of the leaves it changes, level by level,
and finds those leaves in two per-axis neighbour tables built once per draw
(see :meth:`ClusteredFaultModel.draw_faults`).
"""

from __future__ import annotations

import abc
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
        total = self.topology.num_nodes
        chosen = self.rng.choice(total, size=count, replace=False)
        height = self.topology.height
        return [(int(idx) // height, int(idx) % height) for idx in chosen]


#: Totals for which the sum tree's answer is trusted.  Outside them the
#: margin could underflow, or numpy's differently ordered sum could
#: overflow where the tree's does not (or the reverse), so the draw is left
#: to numpy's arithmetic, which also raises where ``choice`` would.
_TRUSTED_TOTALS = (2.0**-960, 2.0**960)


class _SumTree:
    """Binary sum tree over ``n`` node weights, every weight starting at 1.

    ``nodes[size + k]`` is the weight of leaf ``k`` (``size`` is a power of
    two and padding leaves hold 0), ``nodes[i] = nodes[2i] + nodes[2i + 1]``
    and ``nodes[1]`` is the total.  It is a list of Python floats because
    every operation on it is scalar, where numpy's per-call cost dominates;
    :meth:`ClusteredFaultModel.draw_faults` descends and updates it inline.

    ``margin`` (times the total) is how far inside a leaf's interval a draw
    must land for the tree's answer to be numpy's.  ``choice`` returns the
    first ``k`` with ``cdf[k] > u``: with exact prefix sums ``S`` and total
    ``T``, the ``k`` with ``S(k-1) <= u T < S(k)``.  With ``eps = 2**-53``
    and tree depth ``d``, the roundings are bounded by:

    * numpy's pairwise ``sum`` ``T'``: off by at most ``(n - 1) eps T``, but
      every ``p_i = w_i / T'`` shares that factor and ``cdf /= cdf[-1]``
      divides it out, leaving one rounding per division;
    * numpy's sequential ``cumsum`` and normalisation: ``cdf[k]`` and
      ``cdf[-1]`` are each off by at most ``n eps`` relative and the
      division adds ``eps``, so ``cdf[k]`` is within ``(2n + 1) eps`` of
      ``S(k) / T``;
    * the tree's own sums: a node is off by at most ``d eps`` of its value,
      so a prefix (at most ``d`` nodes, added in turn) by ``2d eps T``; the
      leaf's own weight, ``u * total`` (whose total is off by ``d eps T``)
      and the margin comparison add ``(d + 3) eps T``: ``(3d + 3) eps T``.

    So a draw more than ``(2n + 3d + 4) eps T`` inside the tree's interval
    is numpy's draw too.  ``(4n + 64) eps`` covers that for every ``n``
    (``3d <= 2n + 60``), with room for the second-order terms.  A draw
    lands inside the margin with probability about ``2 (4n + 64) eps`` per
    available node: about 1e-7 per draw on a 100x100 mesh.
    """

    def __init__(self, n: int) -> None:
        size = 2
        while size < n:
            size *= 2
        # With unit weights every node holds the number of real leaves
        # below it: full subtrees, at most one partial one, then empty ones.
        nodes = [0.0] * (2 * size)
        first, span = 1, size
        while span:
            full, partial = divmod(n, span)
            nodes[first : first + full] = [float(span)] * full
            if partial:
                nodes[first + full] = float(partial)
            first, span = 2 * first, span // 2
        self.n = n
        self.size = size
        self.nodes = nodes
        self.margin = (4 * n + 64) * 2.0**-53

    def weights(self) -> np.ndarray:
        """The leaf weights as a fresh float64 array, faulty leaves 0."""
        return np.array(self.nodes[self.size : self.size + self.n])


def _axis_table(topology: Topology, axis: int, scale: int, offset: int) -> List[List[int]]:
    """``offset + scale * m`` for each coordinate's neighbourhood on *axis*.

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
        mapped.append(None if node is None else offset + scale * node[axis])
    return [sorted([m for m in mapped[c : c + 3] if m is not None]) for c in range(length)]


class ClusteredFaultModel(FaultModel):
    """Clustered fault distribution (adjacent failure rates are amplified).

    ``cluster_factor`` is the multiplier applied to the failure weight of the
    eight adjacent neighbours of every inserted fault; the paper uses 2
    ("the failure rate of its adjacent neighbors is doubled").  Larger
    factors produce denser clusters and are used by the cluster-factor
    ablation benchmark.
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

        A fault costs one descent of the sum tree and a re-sum of the
        ancestors of the leaves it changes.  Two tables, built once per draw
        from ``topology.normalise``, hold the tree positions of column
        ``x``'s ``x - 1, x, x + 1`` and of row ``y``'s ``y - 1, y, y + 1``;
        their sums are the leaves of ``adjacent_nodes((x, y))`` plus
        ``(x, y)`` itself.  Each listing multiplies its leaf by the cluster
        factor once, in turn, and the drawn leaf is zeroed after the
        multiplies.  The re-sum runs level by level over the sorted changed
        leaves, skipping adjacent duplicates, so every changed node becomes
        ``nodes[2i] + nodes[2i + 1]`` of its final children once; when one
        node is left, its path leads to the root.  Every internal node thus
        holds the sum of its children, in the order :class:`_SumTree`'s
        margin assumes, and the draws stay ``choice``'s bit for bit.
        """
        self._check_count(count)
        topology = self.topology
        height = topology.height
        tree = _SumTree(topology.num_nodes)
        nodes, size = tree.nodes, tree.size
        columns = _axis_table(topology, 0, height, size)
        rows = _axis_table(topology, 1, 1, 0)
        random, factor, relative_margin = self.rng.random, self.cluster_factor, tree.margin
        low, high = _TRUSTED_TOTALS
        faults: List[Coord] = []
        for _ in range(count):
            total = nodes[1]
            if low < total < high:
                # Descend to the leaf whose computed prefix interval
                # [lo, lo + nodes[i]) holds u * total; trust it only more
                # than the margin inside that interval.
                u = random()
                target = u * total
                i, lo = 1, 0.0
                while i < size:
                    i += i
                    mid = lo + nodes[i]
                    if target >= mid:
                        lo = mid
                        i += 1
                margin = relative_margin * total
                if not lo + margin < target < lo + nodes[i] - margin:
                    i = size + self._numpy_index(tree.weights(), u)
            else:
                i = size + self._numpy_index(tree.weights(), None)
            x, y = divmod(i - size, height)
            faults.append((x, y))
            row = rows[y]
            # Sorted, as a column listed twice (a 1- or 2-wide torus)
            # repeats its block of rows.
            changed = [column + r for column in columns[x] for r in row]
            changed.sort()
            for k in changed:
                nodes[k] *= factor
            nodes[i] = 0.0
            level = changed
            while len(level) > 1:
                parents = []
                previous = 0
                for k in level:
                    k >>= 1
                    if k != previous:
                        previous = k
                        j = k + k
                        nodes[k] = nodes[j] + nodes[j + 1]
                        parents.append(k)
                level = parents
            k = level[0] >> 1
            while k:
                j = k + k
                nodes[k] = nodes[j] + nodes[j + 1]
                k >>= 1
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
