"""The execution-level ``Grid`` class (the paper's replacement for
Lipizzaner's ``neighbourhood``).

Each slave holds a ``Grid`` describing the whole training grid, the rank
layout (which block of cells each slave rank hosts — :func:`layout_blocks`,
the one place that decides it), and — the feature the paper highlights — a
*dynamically modifiable* neighborhood structure: ``rewire`` changes a cell's
neighbor list at run time, "allow[ing] exploring different patterns for
training and learning".

``Grid`` deliberately does **not** depend on :class:`~repro.parallel.comm_manager.CommManager`
("class grid does not depend on comm-manager.  The implementation is
decoupled, so different modules for communication can be applied"): it only
answers topology questions; the comm-manager moves the bytes.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Sequence

from repro.coevolution.grid import ToroidalGrid

__all__ = ["Grid", "layout_blocks"]


def layout_blocks(cell_count: int,
                  slots: Sequence[int] | None = None) -> tuple[tuple[int, ...], ...]:
    """The rank layout: the cells each slave rank hosts, row-major and
    contiguous — slave rank ``r`` hosts ``blocks[r - 1]``.

    ``slots`` are a socket host spec's per-worker slot counts, summing to
    the cells plus the master.  The master takes the first slot, and what a
    worker has left becomes one block, so a first entry of one slot hosts
    only the master.  ``None`` (the process and threaded backends) is one
    slot per worker: every cell has a rank of its own.  :class:`Grid`
    rejects blocks that do not partition the grid.
    """
    slots = slots or [1] * (cell_count + 1)
    bounds = [0, *accumulate([slots[0] - 1, *slots[1:]])]
    return tuple(tuple(range(first, end))
                 for first, end in zip(bounds, bounds[1:]) if end > first)


class Grid:
    """Topology view shared by the master and every slave: the torus, its
    (rewirable) neighborhoods, and the rank layout ``blocks``."""

    def __init__(self, rows: int, cols: int,
                 overrides: dict[int, list[int]] | None = None,
                 blocks: Sequence[Sequence[int]] | None = None):
        self.topology = ToroidalGrid(rows, cols)
        self.rows, self.cols = rows, cols
        self.cell_count = self.topology.cell_count
        self.blocks = (layout_blocks(self.cell_count) if blocks is None
                       else tuple(tuple(int(c) for c in block) for block in blocks))
        #: The master plus one rank per block.
        self.world_size = len(self.blocks) + 1
        #: cell index -> the WORLD rank hosting it (rank 0 is the master).
        self._rank_of = {cell: rank
                         for rank, block in enumerate(self.blocks, start=1)
                         for cell in block}
        if (sorted(c for block in self.blocks for c in block)
                != list(range(self.cell_count)) or not all(self.blocks)):
            raise ValueError(f"blocks {self.blocks} do not partition the "
                             f"{self.cell_count} cells")
        #: Dynamic neighborhood overrides: cell index -> neighbor cell list.
        self._overrides: dict[int, list[int]] = {}
        #: cell index -> its incoming neighbors; rebuilt on first use after
        #: a change of the structure.
        self._incoming: list[list[int]] | None = None
        for cell, neighbors in (overrides or {}).items():
            self.rewire(cell, neighbors)

    # -- cell/rank mapping --------------------------------------------------------

    def rank_of_cell(self, cell_index: int) -> int:
        if cell_index not in self._rank_of:
            raise ValueError(f"cell index {cell_index} outside grid")
        return self._rank_of[cell_index]

    def cells_of_rank(self, rank: int) -> tuple[int, ...]:
        """The block slave rank ``rank`` hosts."""
        if not 0 < rank < self.world_size:
            raise ValueError(f"rank {rank} hosts no cell")
        return self.blocks[rank - 1]

    def cell_of_rank(self, rank: int) -> int:
        """The cell of a rank whose block is one cell."""
        (cell,) = self.cells_of_rank(rank)
        return cell

    def slave_ranks(self) -> list[int]:
        return list(range(1, self.world_size))

    # -- neighborhoods --------------------------------------------------------------

    def neighbor_cells(self, cell_index: int) -> list[int]:
        """Non-center neighbors of a cell (W, N, E, S unless rewired)."""
        override = self._overrides.get(cell_index)
        if override is not None:
            return list(override)
        return self.topology.neighbors_of(cell_index)

    def neighborhood_size(self, cell_index: int) -> int:
        """Sub-population size s for a cell (center + neighbors)."""
        return 1 + len(self.neighbor_cells(cell_index))

    # -- dynamic modification (the new capability) ------------------------------------

    def rewire(self, cell_index: int, neighbors: list[int]) -> None:
        """Replace one cell's neighbor list at run time.

        Validates indices but deliberately allows asymmetric structures —
        the exchange layer sends along *incoming* edges computed via
        :meth:`incoming_neighbors`, so any digraph is executable.
        """
        if not 0 <= cell_index < self.cell_count:
            raise ValueError(f"cell index {cell_index} outside grid")
        checked = []
        for n in neighbors:
            if not 0 <= n < self.cell_count:
                raise ValueError(f"neighbor index {n} outside grid")
            if n == cell_index:
                raise ValueError("a cell cannot neighbor itself (it is already the center)")
            checked.append(int(n))
        self._overrides[cell_index] = checked
        self._incoming = None

    def reset_neighborhoods(self) -> None:
        """Drop all overrides, returning to the paper's Moore-5 structure."""
        self._overrides.clear()
        self._incoming = None

    def incoming_neighbors(self, cell_index: int) -> list[int]:
        """Cells that list ``cell_index`` as a neighbor (multiset, in cell
        order).

        With the default symmetric structure this equals
        ``neighbor_cells`` — the overlap reciprocity of the torus; with
        rewired (asymmetric) structures they differ, and the exchange layer
        must send to exactly these cells.  The exchange asks for every
        hosted cell every round, so the lists are inverted once per change
        of the structure, not scanned per call.
        """
        if self._incoming is None:
            incoming: list[list[int]] = [[] for _ in range(self.cell_count)]
            for other in range(self.cell_count):
                for n in self.neighbor_cells(other):
                    if n != other:
                        incoming[n].append(other)
            self._incoming = incoming
        return list(self._incoming[cell_index])

    # -- (de)serialization (sent inside RunTask) ----------------------------------------

    def to_payload(self) -> dict[str, Any]:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "blocks": [list(block) for block in self.blocks],
            "overrides": {cell: list(ns) for cell, ns in self._overrides.items()},
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Grid":
        return cls(
            rows=payload["rows"],
            cols=payload["cols"],
            overrides={int(k): list(v) for k, v in payload["overrides"].items()},
            blocks=payload["blocks"],
        )
