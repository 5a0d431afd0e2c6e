# Map the ellipsoid intersection curve onto a synthetic terrain tile: each
# visible curve point defines a ray from the receiver, nearby grid posts
# are candidates, and the candidate nearest the receiver is the terrain
# hit. Writes both curves (ellipsoid marks red, terrain marks yellow).

import math
import os

import numpy as np

import dopplergeo as dg
from dopplergeo.geodesy import ecef_to_geodetic_arrays

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output")
os.makedirs(OUT, exist_ok=True)

vehicle = dg.VehicleState.from_attitude(
    dg.GeodeticCoord(-34.6462, 138.833, 1500.0), 50.0,
    dg.AttitudeEuler(0.0, -70.0, 190.0))
cone = dg.cone_from_geometry(vehicle.position_ecef(), vehicle.velocity_dir,
                             math.radians(15.0))
curve = dg.intersect_cone_ellipsoid(cone, n_samples=360)
lat, lon, _ = ecef_to_geodetic_arrays(curve.points_near)

# a ridge tile covering the curve at ~90 m post spacing
spacing = 3.0 / 3600.0
lat0 = math.floor((lat.min() - 0.01) / spacing) * spacing
lon0 = math.floor((lon.min() - 0.01) / spacing) * spacing
n_lat = int((lat.max() + 0.01 - lat0) / spacing) + 2
n_lon = int((lon.max() + 0.01 - lon0) / spacing) + 2
grid = dg.make_ridge_grid(lat0, lon0, spacing, spacing, n_lat, n_lon, crest=400.0)
print(f"ridge tile: {n_lat} x {n_lon} posts, crest 400 m")

search = dg.TerrainSearchConfig.for_grid(grid)
terrain = dg.cone_terrain_curve(curve, grid, search)
print(f"mapped {len(terrain.points)} of {len(curve.points_near)} points, "
      f"threshold {search.tr:.1f} m, gaps {terrain.gaps or 'none'}")

# hits keep the curve's order, so the mask lines up each hit with its ray
ranges_ell = curve.ranges_near[np.isin(curve.etas_near, terrain.etas)]
pulled_in = int((terrain.s < ranges_ell).sum())
print(f"{pulled_in} terrain hits sit nearer the receiver than their "
      f"ellipsoid points (terrain rises above the ellipsoid)")

ellipsoid_rows = np.column_stack(ecef_to_geodetic_arrays(curve.points_near))
terrain_rows = terrain.points
doc = dict(
    polylines=[("ellipsoid curve", ellipsoid_rows, dg.STYLE_ELLIPSOID),
               ("terrain curve", terrain_rows, dg.STYLE_TERRAIN)],
    placemark_sets=[("ellipsoid marks", ellipsoid_rows, dg.STYLE_ELLIPSOID),
                    ("terrain marks", terrain_rows, dg.STYLE_TERRAIN)],
)
with open(os.path.join(OUT, "terrain_mapping.kml"), "wb") as f:
    f.write(dg.write_kml(**doc, name="terrain mapping"))
with open(os.path.join(OUT, "terrain_mapping.geojson"), "wb") as f:
    f.write(dg.write_geojson(**doc))
print("wrote", os.path.join(OUT, "terrain_mapping.kml"))
