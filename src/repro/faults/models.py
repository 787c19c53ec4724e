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
recomputed with numpy's own arithmetic (see :class:`_SumTree`).
"""

from __future__ import annotations

import abc
import math
from typing import List, Optional, Tuple

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
    every operation on it is scalar, where numpy's per-call cost dominates.

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
        nodes = [0.0]
        count, span = 1, size
        while span:
            full, partial = divmod(n, span)
            level = [float(span)] * full + ([float(partial)] if partial else [])
            nodes += level + [0.0] * (count - len(level))
            count, span = 2 * count, span // 2
        self.n = n
        self.size = size
        self.nodes = nodes
        self.margin = (4 * n + 64) * 2.0**-53

    def find(self, target: float) -> Tuple[int, float, float]:
        """The leaf whose computed prefix interval ``[lo, hi)`` holds *target*."""
        nodes, size = self.nodes, self.size
        i, lo = 1, 0.0
        while i < size:
            i *= 2
            mid = lo + nodes[i]
            if target >= mid:
                lo = mid
                i += 1
        return i - size, lo, lo + nodes[i]

    def add_fault(self, index: int, neighbours: List[int], factor: float) -> None:
        """Zero leaf *index*, multiply each neighbour leaf by *factor*, resum.

        A neighbour listed twice (a 2-wide torus wraps onto it from both
        sides) is multiplied twice.  The sums above the changed leaves are
        recomputed one level at a time, so each is read after its children,
        until the paths meet; from there one path leads to the root.
        """
        nodes, size = self.nodes, self.size
        nodes[size + index] = 0.0
        for leaf in neighbours:
            nodes[size + leaf] *= factor
        level = {(size + leaf) >> 1 for leaf in neighbours}
        level.add((size + index) >> 1)
        while len(level) > 1:
            for i in level:
                j = 2 * i
                nodes[i] = nodes[j] + nodes[j + 1]
            level = {i >> 1 for i in level}
        (i,) = level
        while i:
            j = 2 * i
            nodes[i] = nodes[j] + nodes[j + 1]
            i >>= 1

    def weights(self) -> np.ndarray:
        """The leaf weights as a fresh float64 array, faulty leaves 0."""
        return np.array(self.nodes[self.size : self.size + self.n])


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
        self._check_count(count)
        height = self.topology.height
        tree = _SumTree(self.topology.num_nodes)
        faults: List[Coord] = []
        for _ in range(count):
            index = self._draw_index(tree)
            x, y = divmod(index, height)
            faults.append((x, y))
            neighbours = [nx * height + ny for nx, ny in self.topology.adjacent_nodes((x, y))]
            tree.add_fault(index, neighbours, self.cluster_factor)
        return faults

    def _draw_index(self, tree: _SumTree) -> int:
        """Draw one flat node index, the one ``Generator.choice`` would draw."""
        total = tree.nodes[1]
        u = None
        if _TRUSTED_TOTALS[0] < total < _TRUSTED_TOTALS[1]:
            u = self.rng.random()
            target = u * total
            index, lo, hi = tree.find(target)
            margin = tree.margin * total
            if lo + margin < target < hi - margin:
                return index
        return self._numpy_index(tree.weights(), u)

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
