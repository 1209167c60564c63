"""Toroidal grid geometry and neighborhood structure (paper Fig. 1).

The training grid is an ``m x m`` torus; each cell's *neighborhood* is the
five-cell Moore structure used in the paper (the cell itself plus West,
North, East and South — s = 5).  Neighborhoods overlap, which is the
communication fabric of the whole method: a cell's updated center reaches
the four neighborhoods that contain it.

This module is pure geometry; the execution-level ``Grid`` class the paper
introduces (dynamic neighborhoods, decoupled from communications) lives in
:mod:`repro.parallel.grid` and delegates here.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ToroidalGrid", "moore_neighborhood", "von_neumann_neighborhood"]

Coord = tuple[int, int]


def moore_neighborhood(row: int, col: int, rows: int, cols: int) -> list[Coord]:
    """Five-cell Moore neighborhood: center, West, North, East, South.

    Matches the paper's Fig. 1 (s=5); coordinates wrap toroidally.  Order is
    deterministic — center first, then W, N, E, S — and every consumer of
    sub-population indices relies on it.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    if not (0 <= row < rows and 0 <= col < cols):
        raise ValueError(f"cell ({row}, {col}) outside {rows}x{cols} grid")
    return [
        (row, col),
        (row, (col - 1) % cols),   # West
        ((row - 1) % rows, col),   # North
        (row, (col + 1) % cols),   # East
        ((row + 1) % rows, col),   # South
    ]


def von_neumann_neighborhood(row: int, col: int, rows: int, cols: int,
                             radius: int = 1) -> list[Coord]:
    """Diamond (Manhattan-ball) neighborhood of the given radius, center first.

    Radius 1 coincides with :func:`moore_neighborhood` as used in the paper;
    larger radii serve the neighborhood-size ablation.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if not (0 <= row < rows and 0 <= col < cols):
        raise ValueError(f"cell ({row}, {col}) outside {rows}x{cols} grid")
    seen: list[Coord] = [(row, col)]
    for dist in range(1, radius + 1):
        ring: list[Coord] = []
        for dr in range(-dist, dist + 1):
            dc = dist - abs(dr)
            ring.append(((row + dr) % rows, (col + dc) % cols))
            if dc != 0:
                ring.append(((row + dr) % rows, (col - dc) % cols))
        for coord in ring:
            if coord not in seen:
                seen.append(coord)
    return seen


@dataclass(frozen=True)
class ToroidalGrid:
    """An ``rows x cols`` torus with cell-index bookkeeping.

    Cells are numbered row-major: ``index = row * cols + col``.  The
    distributed implementation hands each slave rank a contiguous run of
    these indices (:func:`repro.parallel.grid.layout_blocks`; rank 0 is
    the master), so a block that covers whole rows holds every west/east
    neighbour of its cells.
    """

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")

    @property
    def cell_count(self) -> int:
        return self.rows * self.cols

    def coords_of(self, index: int) -> Coord:
        if not 0 <= index < self.cell_count:
            raise ValueError(f"cell index {index} outside 0..{self.cell_count - 1}")
        return divmod(index, self.cols)

    def index_of(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"cell ({row}, {col}) outside {self.rows}x{self.cols} grid")
        return row * self.cols + col

    def all_coords(self) -> list[Coord]:
        return [(r, c) for r in range(self.rows) for c in range(self.cols)]

    def neighborhood(self, row: int, col: int) -> list[Coord]:
        """The paper's Moore-5 neighborhood of a cell, center first."""
        return moore_neighborhood(row, col, self.rows, self.cols)

    def neighborhood_indices(self, index: int) -> list[int]:
        """Moore-5 neighborhood as cell indices, center first."""
        row, col = self.coords_of(index)
        return [self.index_of(r, c) for r, c in self.neighborhood(row, col)]

    def neighbors_of(self, index: int) -> list[int]:
        """The four non-center neighbors of a cell (W, N, E, S order)."""
        return self.neighborhood_indices(index)[1:]

    def overlapping_neighborhoods(self, index: int) -> list[int]:
        """Indices of cells whose neighborhood contains ``index``.

        On a torus with the symmetric Moore-5 structure this equals the
        cell's own neighborhood — the reciprocity that lets the paper
        implement neighbor exchange as one allgather.  Computed explicitly
        (not by symmetry) so the property tests can assert the equivalence.
        """
        containing = []
        for other in range(self.cell_count):
            if index in self.neighborhood_indices(other):
                containing.append(other)
        return containing

    def degenerate_overlap(self) -> bool:
        """True when wraparound makes some neighbor coordinates coincide
        (grids with a dimension < 3, e.g. the paper's 2x2)."""
        return self.rows < 3 or self.cols < 3
