"""Single-measurement Doppler emitter geolocation.

From one Doppler shift measured on a moving receiver (UAV or low-orbit
satellite), build the cone of candidate emitter directions, intersect it
with the WGS84 ellipsoid, map the intersection onto a terrain elevation
grid, and quantify how frequency-reference, refraction and relativistic
errors displace the resulting curve.
"""

from .analysis import (
    AtmosphereModel,
    CurveShift,
    RelativisticFactor,
    Superluminal,
    TotalInternalReflection,
    curve_shift,
    frequency_offset_scenario,
    lorentz_factor,
    relativistic_semi_angle_delta,
    snell_two_layer_displacement,
)
from .cone import (
    DopplerCone,
    DopplerMeasurement,
    InfeasibleShift,
    VehicleState,
    axis_direction,
    build_cone,
    cone_from_geometry,
    cone_surface_residual,
    doppler_frequency,
    rotation_from_axis,
    semi_angle,
)
from .dted import (
    BadMagic,
    ChecksumMismatch,
    DtedError,
    InconsistentHeader,
    SpacingMismatch,
    TruncatedFile,
    read_dted,
    write_dted,
)
from .export import (
    STYLE_ELLIPSOID,
    STYLE_TERRAIN,
    NonFiniteCoordinate,
    format_positions,
    write_geojson,
    write_kml,
)
from .geodesy import (
    EARTH_ROTATION_RATE,
    EARTH_ROTATION_VECTOR,
    SPEED_OF_LIGHT,
    WGS84,
    AttitudeEuler,
    Ellipsoid,
    GeodeticCoord,
    body_to_ecef_direction,
    geodetic_to_ecef,
)
from .gridfile import (
    ParseError,
    load_portable_grid,
    make_flat_grid,
    make_ridge_grid,
    read_portable_grid,
    write_portable_grid,
)
from .intersect import (
    IntersectionCurve,
    ellipsoid_residual,
    intersect_cone_ellipsoid,
)
from .terrain import (
    EmptyGrid,
    TerrainCurve,
    TerrainGrid,
    TerrainSearchConfig,
    cone_terrain_curve,
)

__version__ = "0.1.0"
