"""One fault pattern rasterised onto its topology, shared by the constructions.

The paper's Figures 9-11 compare FB, FP, MFP, CMFP and DMFP on the same
fault pattern, and those constructions start from the same inputs: the
fault mask, the scheme-1 labelling (FB, and FP's growing phase) and the
8-connected :class:`~repro.core.components.ComponentTable` (MFP, CMFP and
DMFP).  A :class:`FaultRaster` validates the faults once and computes each
of the two labellings at most once, on first use.  The sweep executor
builds one per trial and :class:`repro.api.MeshSession` one per fault
version; every construction builder takes a raster in place of a fault
list (:meth:`FaultRaster.of` wraps a plain list).

A raster is also a read-only sequence of the ``(x, y)`` fault tuples in
input order, so a registered builder that iterates its faults takes a
raster unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.components import ComponentTable, FaultComponent
from repro.core.labelling import LabellingResult, apply_labelling_scheme_1
from repro.geometry.masks import validated_coords
from repro.mesh.status import StatusGrid
from repro.mesh.topology import Topology
from repro.types import Coord


class FaultRaster(SequenceABC):
    """The faults of one topology, validated once, with shared labellings.

    ``coords`` is the read-only ``(n, 2)`` array of the faults in input
    order and ``mask`` the read-only ``[x, y]`` fault mask of the
    topology's shape.  :attr:`scheme1` and :attr:`component_table` are
    computed on first use and then shared by every construction built
    from the raster, so nothing may write to them.  A fault that is not
    an ``(x, y)`` pair of integers, or lies outside the topology, raises
    ``ValueError`` naming the first one.
    """

    __slots__ = ("topology", "coords", "mask", "_faults", "_scheme1", "_table", "_components")

    def __init__(self, faults: Iterable[Coord], topology: Topology) -> None:
        self.topology = topology
        self._faults: Tuple[Coord, ...] = tuple(faults)
        width, height = topology.width, topology.height
        coords = validated_coords(self._faults, width, height, kind="fault", where="grid")
        mask = np.zeros((width, height), dtype=bool)
        mask[coords[:, 0], coords[:, 1]] = True
        coords.flags.writeable = False
        mask.flags.writeable = False
        self.coords = coords
        self.mask = mask
        self._scheme1: Optional[LabellingResult] = None
        self._table: Optional[ComponentTable] = None
        self._components: Optional[List[FaultComponent]] = None

    @classmethod
    def of(cls, faults: Iterable[Coord], topology: Topology) -> "FaultRaster":
        """*faults* itself when it is a raster of *topology*, else a new one."""
        if isinstance(faults, cls) and faults.topology == topology:
            return faults
        return cls(faults, topology)

    # -- the fault sequence ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._faults)

    def __getitem__(self, index):
        return self._faults[index]

    def __iter__(self) -> Iterator[Coord]:
        return iter(self._faults)

    def __repr__(self) -> str:
        return f"FaultRaster({len(self._faults)} faults on {self.topology!r})"

    # -- shared derived data ---------------------------------------------------------

    @property
    def scheme1(self) -> LabellingResult:
        """Labelling scheme 1 of the faults on the topology (read-only labels)."""
        if self._scheme1 is None:
            result = apply_labelling_scheme_1(self.mask, self.topology)
            result.labels.flags.writeable = False
            self._scheme1 = result
        return self._scheme1

    @property
    def component_table(self) -> ComponentTable:
        """The 8-connected :class:`ComponentTable` of the faults."""
        if self._table is None:
            self._table = ComponentTable.from_mask(self.mask)
        return self._table

    def components(self) -> List[FaultComponent]:
        """The table's components as :class:`FaultComponent` objects, in
        :func:`~repro.core.components.find_components` order (built once)."""
        if self._components is None:
            self._components = self.component_table.materialise()
        return self._components

    def status_grid(self) -> StatusGrid:
        """A fresh :class:`StatusGrid` whose faulty, unsafe and disabled
        arrays are copies of :attr:`mask`."""
        grid = StatusGrid(self.topology)
        grid.faulty = self.mask.copy()
        grid.unsafe = self.mask.copy()
        grid.disabled = self.mask.copy()
        return grid
