"""Satellite visibility from ground locations.

A ground terminal can use a satellite only when it is above a minimum
elevation angle (25 deg for Starlink user terminals, ~10 deg for gateway
dishes). These routines compute which satellites are usable from a point
and at what slant range. The usable-set queries share one kernel: a cone
cull picks the ~10 candidate satellites per point with one matrix product,
then the exact per-point expression runs over the candidates only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.constants import MIN_ELEVATION_USER_DEG
from repro.errors import VisibilityError
from repro.geo.coordinates import GeoPoint
from repro.orbits.walker import Constellation


class VisibleSatellite(NamedTuple):
    """One satellite visible from a ground point at a given instant."""

    index: int
    elevation_deg: float
    slant_range_km: float


_CONE_MARGIN_RAD = 1e-6
"""Slack added to the cull cone's half-angle. Float error in the cull's
dot product is ~1e-16 relative; the slack keeps every satellite whose
computed elevation clears the mask inside the cone by many orders more."""


def _observer_arrays(point: GeoPoint) -> tuple[np.ndarray, float]:
    ecef = point.to_ecef()
    obs = np.array([ecef.x, ecef.y, ecef.z])
    return obs, float(np.linalg.norm(obs))


def elevations_deg(constellation: Constellation, point: GeoPoint, t_s: float) -> np.ndarray:
    """Elevation of every satellite above ``point``'s horizon (degrees)."""
    obs, obs_norm = _observer_arrays(point)
    sat = constellation.positions_ecef(t_s)
    los = sat - obs
    ranges = np.linalg.norm(los, axis=1)
    cos_zenith = (los @ obs) / (ranges * obs_norm)
    np.clip(cos_zenith, -1.0, 1.0, out=cos_zenith)
    return 90.0 - np.degrees(np.arccos(cos_zenith))


def slant_ranges_km(constellation: Constellation, point: GeoPoint, t_s: float) -> np.ndarray:
    """Straight-line distance from ``point`` to every satellite (km)."""
    obs, _ = _observer_arrays(point)
    sat = constellation.positions_ecef(t_s)
    return np.linalg.norm(sat - obs, axis=1)


def _cone_thresholds(
    sat: np.ndarray, obs_norms: np.ndarray, min_elevation_deg: float
) -> np.ndarray:
    """Per-point lower bound on ``o . s`` over every satellite above the mask.

    Seen from an observer at radius ``r_o``, a satellite at elevation
    ``el`` and slant range ``rho`` lies ``o . s / r_o = r_o + rho sin el``
    along the observer's zenith. For ``0 <= e <= el`` and ``r_s > r_o``
    that grows with ``el`` and with ``r_s``, so its least value is at the
    mask edge on the lowest orbit: ``r_min cos lam``, where
    ``lam = pi/2 - e - asin(r_o cos e / r_min)`` is that satellite's
    Earth-central angle (law of sines). ``lam`` is widened by
    :data:`_CONE_MARGIN_RAD`. Points the bound does not cover (mask outside
    ``[0, 90)``, observer at or above the lowest satellite) get ``-inf``:
    every satellite is a candidate.
    """
    if not 0.0 <= min_elevation_deg < 90.0:
        return np.full(len(obs_norms), -np.inf)
    r_min = float(np.linalg.norm(sat, axis=1).min())
    elev = math.radians(min_elevation_deg)
    covered = obs_norms < r_min
    ratio = np.where(covered, obs_norms, 0.0) * (math.cos(elev) / r_min)
    cone = math.pi / 2.0 - elev - np.arcsin(ratio) + _CONE_MARGIN_RAD
    return np.where(covered, obs_norms * r_min * np.cos(cone), -np.inf)


def _row_dots(los: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """``los @ obs`` through BLAS gemv, whatever the row count."""
    if len(los) == 1:
        # numpy sends a one-row product to BLAS ddot instead of gemv, and
        # the two round differently; a doubled row keeps it on gemv.
        return (np.repeat(los, 2, axis=0) @ obs)[:1]
    return los @ obs


@dataclass(frozen=True)
class VisibilityBatch:
    """What many ground points see at one instant, as a compact table.

    Row ``p`` holds point ``p``'s usable satellites in ascending slant
    range: ``order[p, :count[p]]`` with the aligned ``slant_km`` and
    ``elevation_deg``. Columns at and beyond ``count[p]`` are padding
    (satellite 0, NaN range and elevation). The table is ``(P, V)`` with
    ``V`` the largest visible count (at least 1), never ``(P, N)``.
    """

    order: np.ndarray
    """``(P, V)`` int64 satellite indices, ascending slant range per row."""
    slant_km: np.ndarray
    """``(P, V)`` slant range of each ``order`` entry (km)."""
    elevation_deg: np.ndarray
    """``(P, V)`` elevation of each ``order`` entry (degrees)."""
    count: np.ndarray
    """``(P,)`` int64 number of usable satellites per point (0 when the
    point sees nothing; callers decide whether that is an error)."""

    @property
    def num_points(self) -> int:
        return len(self.count)

    def visible_lists(
        self, active_mask: np.ndarray | None = None
    ) -> list[list[VisibleSatellite]]:
        """Every point's view as :func:`visible_satellites` would return it,
        restricted to satellites live in ``active_mask``.

        ``active_mask`` is a per-satellite liveness mask (``None``: all
        live); one gather over the table applies it to every point.
        """
        keep = np.arange(self.order.shape[1]) < self.count[:, None]
        if active_mask is not None:
            keep &= active_mask[self.order]
        flat = list(
            map(
                VisibleSatellite,
                self.order[keep].tolist(),
                self.elevation_deg[keep].tolist(),
                self.slant_km[keep].tolist(),
            )
        )
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        return [flat[lo:hi] for lo, hi in zip([0, *ends], ends)]


def _visibility(
    sat: np.ndarray, points: Sequence[GeoPoint], min_elevation_deg: float
) -> VisibilityBatch:
    """The one visibility kernel: cone cull, then the exact expression.

    The cull is one ``(P, 3) @ (3, N)`` product against the per-point
    bound of :func:`_cone_thresholds`; it never drops a visible satellite.
    The candidates (~10 per point) then get the expression visibility has
    always evaluated per point — row norms, the BLAS ``los @ obs``
    product over the point's own rows, clip, arccos, and an argsort of the
    usable set's ranges — so every value and every ordering equals that
    expression over all ``N`` satellites. Elementwise steps run over all
    points' candidates at once; the dot product and the argsort stay per
    point, on the same arrays for one point as for many.
    """
    num = len(points)
    obs_m = np.array(
        [(e.x, e.y, e.z) for e in (point.to_ecef() for point in points)]
    ).reshape(num, 3)
    # sqrt(o . o) is what np.linalg.norm computes for one vector.
    obs_norms = np.array([math.sqrt(obs.dot(obs)) for obs in obs_m])
    near = (obs_m @ sat.T) >= _cone_thresholds(sat, obs_norms, min_elevation_deg)[
        :, None
    ]
    rows, cols = np.divmod(np.flatnonzero(near), len(sat))
    bounds = np.searchsorted(rows, np.arange(num + 1))
    los = sat[cols] - obs_m[rows]
    ranges = np.linalg.norm(los, axis=1)
    dots = np.empty(len(cols))
    for p in range(num):
        lo, hi = bounds[p], bounds[p + 1]
        if hi > lo:
            dots[lo:hi] = _row_dots(los[lo:hi], obs_m[p])
    cos_zenith = dots / (ranges * obs_norms[rows])
    np.clip(cos_zenith, -1.0, 1.0, out=cos_zenith)
    elevations = 90.0 - np.degrees(np.arccos(cos_zenith))

    usable = np.flatnonzero(elevations >= min_elevation_deg)
    rows, cols = rows[usable], cols[usable]
    ranges, elevations = ranges[usable], elevations[usable]
    count = np.bincount(rows, minlength=num)
    bounds = np.concatenate(([0], np.cumsum(count)))
    pick = np.arange(len(rows))
    for p in np.flatnonzero(count > 1):
        lo, hi = bounds[p], bounds[p + 1]
        pick[lo:hi] = lo + np.argsort(ranges[lo:hi])
    column = np.arange(len(rows)) - bounds[rows]
    width = max(1, int(count.max(initial=0)))
    order = np.zeros((num, width), dtype=np.int64)
    slant = np.full((num, width), np.nan)
    elevation = np.full((num, width), np.nan)
    order[rows, column] = cols[pick]
    slant[rows, column] = ranges[pick]
    elevation[rows, column] = elevations[pick]
    return VisibilityBatch(
        order=order, slant_km=slant, elevation_deg=elevation, count=count
    )


def visible_satellites(
    constellation: Constellation,
    point: GeoPoint,
    t_s: float,
    min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
) -> list[VisibleSatellite]:
    """All satellites usable from ``point``, sorted by ascending slant range."""
    sat = constellation.positions_ecef(t_s)
    return _visibility(sat, [point], min_elevation_deg).visible_lists()[0]


def visible_satellites_batch(
    constellation: Constellation,
    points: Sequence[GeoPoint],
    t_s: float,
    min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
) -> VisibilityBatch:
    """Vectorised :func:`visible_satellites` over many ground points.

    Satellite positions and the cone cull are computed once for the whole
    cohort, and :func:`visible_satellites` runs the same kernel for one
    point, so row ``p`` equals that function's list for ``points[p]`` bit
    for bit — the batched serve path leans on that agreement for
    element-wise equivalence with scalar serving.
    """
    return _visibility(
        constellation.positions_ecef(t_s), points, min_elevation_deg
    )


def nearest_visible_satellites(
    constellation: Constellation,
    points: list[GeoPoint],
    t_s: float,
    min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
) -> tuple[np.ndarray, np.ndarray]:
    """Access satellite for every ground point, one vectorised pass.

    Returns ``(indices, slant_ranges_km)`` arrays aligned with ``points`` —
    each entry the lowest-slant-range satellite above the elevation mask,
    exactly as :func:`nearest_visible_satellite` would pick per point.
    Raises :class:`VisibilityError` if any point sees no satellite.
    """
    if not points:
        raise VisibilityError("no ground points given")
    table = visible_satellites_batch(constellation, points, t_s, min_elevation_deg)
    blind = np.flatnonzero(table.count == 0)
    if blind.size:
        p = points[int(blind[0])]
        raise VisibilityError(
            f"no satellite above {min_elevation_deg} deg elevation from "
            f"({p.lat_deg:.2f}, {p.lon_deg:.2f}) at t={t_s:.0f}s"
        )
    return table.order[:, 0].copy(), table.slant_km[:, 0].copy()


def nearest_visible_satellite(
    constellation: Constellation,
    point: GeoPoint,
    t_s: float,
    min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
) -> VisibleSatellite:
    """The lowest-slant-range usable satellite, or raise :class:`VisibilityError`."""
    candidates = visible_satellites(constellation, point, t_s, min_elevation_deg)
    if not candidates:
        raise VisibilityError(
            f"no satellite above {min_elevation_deg} deg elevation from "
            f"({point.lat_deg:.2f}, {point.lon_deg:.2f}) at t={t_s:.0f}s"
        )
    return candidates[0]


def coverage_fraction(
    constellation: Constellation,
    point: GeoPoint,
    duration_s: float,
    step_s: float = 30.0,
    min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
) -> float:
    """Fraction of sampled instants at which at least one satellite is usable."""
    if duration_s <= 0 or step_s <= 0:
        raise VisibilityError("duration and step must be positive")
    times = np.arange(0.0, duration_s, step_s)
    covered = sum(
        1 for t in times if len(visible_satellites(constellation, point, float(t), min_elevation_deg)) > 0
    )
    return covered / len(times)


def max_slant_range_km(altitude_km: float, min_elevation_deg: float) -> float:
    """Maximum slant range to a satellite at ``altitude_km`` at the elevation limit.

    Law of sines on the Earth-centre / observer / satellite triangle.
    """
    from repro.constants import EARTH_RADIUS_KM

    re = EARTH_RADIUS_KM
    rs = re + altitude_km
    elev = math.radians(min_elevation_deg)
    # Angle at the satellite vertex.
    sat_angle = math.asin(re * math.cos(elev) / rs)
    earth_angle = math.pi / 2.0 - elev - sat_angle
    return math.sqrt(re * re + rs * rs - 2.0 * re * rs * math.cos(earth_angle))
