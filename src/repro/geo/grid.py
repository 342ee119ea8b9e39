"""Uniform spatial grids used by cloaking, heatmaps and traffic flows.

A :class:`SpatialGrid` tiles a bounding box with square cells of a given
size in metres.  Cells are addressed by integer ``(row, col)`` pairs; row 0
is the southernmost row.  Points outside the box are clamped to the border
cells so that protected datasets whose noise pushed a point slightly out of
the study area still aggregate sensibly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GeoError
from repro.geo.bbox import BoundingBox
from repro.geo.point import GeoPoint
from repro.geo.projection import LocalProjection

CellIndex = tuple[int, int]


@dataclass(frozen=True)
class SpatialGrid:
    """Square-cell tiling of a geographic bounding box.

    Parameters
    ----------
    bbox:
        Area covered by the grid.
    cell_size_m:
        Side of each (approximately) square cell, in metres.
    """

    bbox: BoundingBox
    cell_size_m: float
    _projection: LocalProjection = field(init=False, repr=False)
    _rows: int = field(init=False)
    _cols: int = field(init=False)

    def __post_init__(self) -> None:
        if self.cell_size_m <= 0:
            raise GeoError(f"cell size must be positive: {self.cell_size_m}")
        projection = LocalProjection(self.bbox.south_west)
        width_m, height_m = projection.to_xy(self.bbox.north_east)
        object.__setattr__(self, "_projection", projection)
        object.__setattr__(self, "_rows", max(1, int(height_m // self.cell_size_m) + 1))
        object.__setattr__(self, "_cols", max(1, int(width_m // self.cell_size_m) + 1))

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def n_cells(self) -> int:
        return self._rows * self._cols

    def cell_of(self, point: GeoPoint) -> CellIndex:
        """Cell containing ``point``; outside points clamp to the border."""
        x, y = self._projection.to_xy(point)
        col = int(x // self.cell_size_m)
        row = int(y // self.cell_size_m)
        return (
            min(max(row, 0), self._rows - 1),
            min(max(col, 0), self._cols - 1),
        )

    def cells_of(self, lat: np.ndarray, lon: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`cell_of` over coordinate columns: ``(rows, cols)`` arrays."""
        x, y = self._projection.to_xy_columns(lat, lon)
        cols = np.clip(x // self.cell_size_m, 0, self._cols - 1).astype(np.int64)
        rows = np.clip(y // self.cell_size_m, 0, self._rows - 1).astype(np.int64)
        return rows, cols

    def center_of(self, cell: CellIndex) -> GeoPoint:
        """Geographic center of a cell."""
        row, col = cell
        if not (0 <= row < self._rows and 0 <= col < self._cols):
            raise GeoError(f"cell {cell} outside grid {self._rows}x{self._cols}")
        x = (col + 0.5) * self.cell_size_m
        y = (row + 0.5) * self.cell_size_m
        return self._projection.to_point(x, y)

    def centers_of(self, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`center_of` over cell-index columns: ``(lat, lon)`` arrays."""
        if rows.size and not (
            0 <= rows.min() and rows.max() < self._rows
            and 0 <= cols.min() and cols.max() < self._cols
        ):
            raise GeoError(f"cells outside grid {self._rows}x{self._cols}")
        return self._projection.to_point_columns(
            (cols + 0.5) * self.cell_size_m, (rows + 0.5) * self.cell_size_m
        )

    def snap(self, point: GeoPoint) -> GeoPoint:
        """Snap a point to the center of its cell (spatial cloaking)."""
        return self.center_of(self.cell_of(point))

    def neighbours(self, cell: CellIndex) -> list[CellIndex]:
        """The 4-connected neighbours of a cell that exist in the grid."""
        row, col = cell
        candidates = [(row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1)]
        return [
            (r, c)
            for r, c in candidates
            if 0 <= r < self._rows and 0 <= c < self._cols
        ]

    def all_cells(self) -> list[CellIndex]:
        """Every cell index, row-major."""
        return [(r, c) for r in range(self._rows) for c in range(self._cols)]
