"""Terrain test oracles and tiles shared by the terrain, DTED and acceptance
tests: a flat grid covering a curve's visible points, the 1 m ray march,
and random tiles for DTED round trips."""

import math

import numpy as np

from dopplergeo.dted import LEVEL_LAT_INTERVAL
from dopplergeo.geodesy import ecef_to_geodetic_arrays
from dopplergeo.gridfile import make_flat_grid
from dopplergeo.terrain import VOID_ELEVATION, TerrainGrid


def covering_grid(curve, height=0.0, spacing=3.0 / 3600.0, margin=0.01):
    """Flat grid at `height` covering the visible points of `curve` with
    `margin` degrees to spare on every side."""
    lat, lon, _ = ecef_to_geodetic_arrays(curve.points_near)
    lat0 = math.floor((lat.min() - margin) / spacing) * spacing
    lon0 = math.floor((lon.min() - margin) / spacing) * spacing
    n_lat = int((lat.max() + margin - lat0) / spacing) + 2
    n_lon = int((lon.max() + margin - lon0) / spacing) + 2
    return make_flat_grid(lat0, lon0, spacing, spacing, n_lat, n_lon, height=height)


def march_first_crossing(receiver, p_i, grid, step=1.0):
    """1 m ray-marching oracle: first point where the ray drops to the
    bilinear terrain surface spanned by the same posts."""
    sep = p_i - receiver
    ray_len = np.linalg.norm(sep)
    direction = sep / ray_len
    s = np.arange(0.0, 1.2 * ray_len, step)
    pts = receiver + s[:, None] * direction
    lat, lon, h = ecef_to_geodetic_arrays(pts)
    fi = (lat - grid.lat0) / grid.dlat
    fj = (lon - grid.lon0) / grid.dlon
    inside = (fi >= 0) & (fi <= grid.n_lat - 1) & (fj >= 0) & (fj <= grid.n_lon - 1)
    i0 = np.clip(np.floor(fi).astype(int), 0, grid.n_lat - 2)
    j0 = np.clip(np.floor(fj).astype(int), 0, grid.n_lon - 2)
    wi, wj = fi - i0, fj - j0
    surface = grid.H + grid.N
    terrain = (surface[i0, j0] * (1 - wi) * (1 - wj) + surface[i0 + 1, j0] * wi * (1 - wj)
               + surface[i0, j0 + 1] * (1 - wi) * wj + surface[i0 + 1, j0 + 1] * wi * wj)
    idx = np.flatnonzero(inside & (h <= terrain))
    return None if len(idx) == 0 else pts[idx[0]]


def make_random_tile(rng: np.random.Generator, level: int,
                     void_fraction: float = 0.02) -> TerrainGrid:
    """Random integer-height tile at a level's nominal spacing, with voids,
    origin on a whole arcsecond."""
    spacing = LEVEL_LAT_INTERVAL[level] / 36000.0
    n_lat = int(rng.integers(4, 40))
    n_lon = int(rng.integers(4, 40))
    lat0 = float(rng.integers(-80 * 3600, 80 * 3600)) / 3600.0
    lon0 = float(rng.integers(-179 * 3600, 179 * 3600)) / 3600.0
    h = rng.integers(-500, 4000, size=(n_lat, n_lon)).astype(float)
    voids = rng.random((n_lat, n_lon)) < void_fraction
    h[voids] = VOID_ELEVATION
    return TerrainGrid(lat0=lat0, lon0=lon0, dlat=spacing, dlon=spacing, H=h)
