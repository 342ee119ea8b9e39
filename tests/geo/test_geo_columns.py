"""The geometry helpers' column forms against their scalar forms."""

import numpy as np
import pytest

from repro.errors import GeoError
from repro.geo.bbox import BoundingBox
from repro.geo.distance import haversine_m, haversine_m_columns
from repro.geo.grid import SpatialGrid
from repro.geo.point import GeoPoint
from repro.geo.projection import LocalProjection

BOX = BoundingBox(south=44.80, west=-0.65, north=44.88, east=-0.50)


@pytest.fixture(scope="module")
def fixes() -> tuple[np.ndarray, np.ndarray]:
    """2000 fixes in and slightly around the box."""
    rng = np.random.default_rng(12)
    return rng.uniform(44.78, 44.90, 2000), rng.uniform(-0.68, -0.47, 2000)


@pytest.mark.parametrize("cell_size_m", [250.0, 400.0, 8000.0])
def test_cells_and_centres_value_for_value(fixes, cell_size_m):
    grid = SpatialGrid(bbox=BOX, cell_size_m=cell_size_m)
    lat, lon = fixes
    rows, cols = grid.cells_of(lat, lon)
    cells = [grid.cell_of(GeoPoint(a, b)) for a, b in zip(lat.tolist(), lon.tolist())]
    assert list(zip(rows.tolist(), cols.tolist())) == cells
    centre_lat, centre_lon = grid.centers_of(rows, cols)
    centres = [grid.center_of(cell) for cell in cells]
    assert centre_lat.tolist() == [p.lat for p in centres]
    assert centre_lon.tolist() == [p.lon for p in centres]


def test_centres_outside_the_grid_rejected():
    grid = SpatialGrid(bbox=BOX, cell_size_m=500.0)
    inside = np.array([0, 1])
    for rows, cols in (
        (np.array([0, grid.rows]), inside),
        (inside, np.array([-1, 0])),
    ):
        with pytest.raises(GeoError):
            grid.centers_of(rows, cols)
    lat, lon = grid.centers_of(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert lat.size == 0 and lon.size == 0


def test_projection_round_trip_value_for_value(fixes):
    projection = LocalProjection(BOX.center)
    lat, lon = fixes
    points = [GeoPoint(a, b) for a, b in zip(lat.tolist(), lon.tolist())]
    x, y = projection.to_xy_columns(lat, lon)
    assert list(zip(x.tolist(), y.tolist())) == [projection.to_xy(p) for p in points]
    # translate = project, shift, project back: the same three steps.
    rng = np.random.default_rng(13)
    dx, dy = rng.normal(0, 300.0, lat.size), rng.normal(0, 300.0, lat.size)
    moved_lat, moved_lon = projection.to_point_columns(x + dx, y + dy)
    moved = [
        projection.translate(p, float(a), float(b))
        for p, a, b in zip(points, dx, dy)
    ]
    assert moved_lat.tolist() == [p.lat for p in moved]
    assert moved_lon.tolist() == [p.lon for p in moved]


def test_haversine_columns_match_the_scalar_formula(fixes):
    lat, lon = fixes
    distances = haversine_m_columns(lat[:-1], lon[:-1], lat[1:], lon[1:])
    expected = [
        haversine_m(GeoPoint(a, b), GeoPoint(c, d))
        for a, b, c, d in zip(lat[:-1], lon[:-1], lat[1:], lon[1:])
    ]
    # Same formula; numpy's sin/cos/arcsin may round the last bit differently.
    assert distances == pytest.approx(expected, rel=1e-12)
    one_to_many = haversine_m_columns(lat[0], lon[0], lat[1:5], lon[1:5])
    assert one_to_many == pytest.approx(
        [haversine_m(GeoPoint(lat[0], lon[0]), GeoPoint(a, b)) for a, b in zip(lat[1:5], lon[1:5])],
        rel=1e-12,
    )
