"""Tests for visibility computation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VisibilityError
from repro.geo.coordinates import GeoPoint
from repro.orbits.elements import ShellConfig, starlink_shell1
from repro.orbits.visibility import (
    coverage_fraction,
    elevations_deg,
    max_slant_range_km,
    nearest_visible_satellite,
    nearest_visible_satellites,
    slant_ranges_km,
    visible_satellites,
    visible_satellites_batch,
)
from repro.orbits.walker import build_walker_delta


class TestElevations:
    def test_shape(self, small_constellation, equator_point):
        elevations = elevations_deg(small_constellation, equator_point, 0.0)
        assert elevations.shape == (len(small_constellation),)

    def test_range(self, small_constellation, equator_point):
        elevations = elevations_deg(small_constellation, equator_point, 0.0)
        assert np.all(elevations >= -90.0)
        assert np.all(elevations <= 90.0)

    def test_most_satellites_below_horizon(self, small_constellation, equator_point):
        # From any point, the majority of a LEO shell is below the horizon.
        elevations = elevations_deg(small_constellation, equator_point, 0.0)
        assert np.mean(elevations < 0) > 0.5


class TestSlantRanges:
    def test_minimum_at_least_altitude(self, shell1_constellation, equator_point):
        ranges = slant_ranges_km(shell1_constellation, equator_point, 0.0)
        assert ranges.min() >= 550.0 - 1.0

    def test_maximum_bounded_by_geometry(self, shell1_constellation, equator_point):
        ranges = slant_ranges_km(shell1_constellation, equator_point, 0.0)
        # No satellite can be farther than Earth diameter + orbit diameter.
        assert ranges.max() < 2 * (6371.0 + 550.0) + 1.0


class TestVisibleSatellites:
    def test_sorted_by_range(self, shell1_constellation, equator_point):
        visible = visible_satellites(shell1_constellation, equator_point, 0.0)
        ranges = [v.slant_range_km for v in visible]
        assert ranges == sorted(ranges)

    def test_all_above_min_elevation(self, shell1_constellation, equator_point):
        visible = visible_satellites(
            shell1_constellation, equator_point, 0.0, min_elevation_deg=25.0
        )
        assert all(v.elevation_deg >= 25.0 for v in visible)

    def test_lower_threshold_sees_more(self, shell1_constellation, equator_point):
        strict = visible_satellites(
            shell1_constellation, equator_point, 0.0, min_elevation_deg=40.0
        )
        loose = visible_satellites(
            shell1_constellation, equator_point, 0.0, min_elevation_deg=10.0
        )
        assert len(loose) > len(strict)

    def test_range_within_elevation_bound(self, shell1_constellation, equator_point):
        visible = visible_satellites(
            shell1_constellation, equator_point, 0.0, min_elevation_deg=25.0
        )
        bound = max_slant_range_km(550.0, 25.0)
        assert all(v.slant_range_km <= bound + 1.0 for v in visible)

    def test_high_latitude_point_sees_nothing_in_53deg_shell(self, shell1_constellation):
        # Far above the inclination limit there is no coverage at 25 deg.
        svalbard = GeoPoint(78.2, 15.6, 0.0)
        assert visible_satellites(shell1_constellation, svalbard, 0.0) == []


class TestNearestVisible:
    def test_equator_always_served_by_shell1(self, shell1_constellation, equator_point):
        nearest = nearest_visible_satellite(shell1_constellation, equator_point, 0.0)
        assert nearest.elevation_deg >= 25.0
        assert nearest.slant_range_km < max_slant_range_km(550.0, 25.0) + 1.0

    def test_no_visibility_raises(self, shell1_constellation):
        svalbard = GeoPoint(78.2, 15.6, 0.0)
        with pytest.raises(VisibilityError):
            nearest_visible_satellite(shell1_constellation, svalbard, 0.0)

    def test_nearest_is_first_of_visible(self, shell1_constellation, equator_point):
        nearest = nearest_visible_satellite(shell1_constellation, equator_point, 0.0)
        visible = visible_satellites(shell1_constellation, equator_point, 0.0)
        assert nearest == visible[0]


class TestCoverage:
    def test_shell1_equator_continuous_coverage(self, shell1_constellation, equator_point):
        fraction = coverage_fraction(
            shell1_constellation, equator_point, duration_s=600.0, step_s=60.0
        )
        assert fraction == 1.0

    def test_invalid_duration_raises(self, shell1_constellation, equator_point):
        with pytest.raises(VisibilityError):
            coverage_fraction(shell1_constellation, equator_point, duration_s=0.0)


class TestMaxSlantRange:
    def test_zenith_limit(self):
        assert max_slant_range_km(550.0, 90.0) == pytest.approx(550.0, abs=1.0)

    def test_horizon_much_farther(self):
        assert max_slant_range_km(550.0, 0.0) > 2000.0

    def test_monotone_in_elevation(self):
        ranges = [max_slant_range_km(550.0, e) for e in (0.0, 25.0, 50.0, 90.0)]
        assert ranges == sorted(ranges, reverse=True)

    def test_starlink_25deg_value(self):
        # Known geometry: ~1120 km max slant at 25 deg for a 550 km shell.
        assert max_slant_range_km(550.0, 25.0) == pytest.approx(1120, rel=0.05)


# --- the culled kernel against the full-row reference ----------------------

SHELL1 = build_walker_delta(starlink_shell1())
SMALL = build_walker_delta(
    ShellConfig(
        altitude_km=550.0,
        inclination_deg=53.0,
        num_planes=6,
        sats_per_plane=8,
        phase_offset=3,
        name="test-shell",
    )
)
MASKS = (0.0, 10.0, 25.0, 40.0, 89.9)


def reference_view(sat, point, min_elevation_deg):
    """Visibility as the per-point expression over *every* satellite row.

    The oracle for the culled kernel: elevation and slant range to all N
    satellites, the usable set, argsort by range.
    """
    ecef = point.to_ecef()
    obs = np.array([ecef.x, ecef.y, ecef.z])
    obs_norm = float(np.linalg.norm(obs))
    los = sat - obs
    ranges = np.linalg.norm(los, axis=1)
    cos_zenith = (los @ obs) / (ranges * obs_norm)
    np.clip(cos_zenith, -1.0, 1.0, out=cos_zenith)
    elevations = 90.0 - np.degrees(np.arccos(cos_zenith))
    usable = np.flatnonzero(elevations >= min_elevation_deg)
    order = usable[np.argsort(ranges[usable])]
    return order, ranges[order], elevations[order]


class Cloud:
    """Arbitrary satellite positions behind the constellation interface."""

    def __init__(self, positions):
        self.positions = np.ascontiguousarray(positions, dtype=float)

    def __len__(self):
        return len(self.positions)

    def positions_ecef(self, t_s):
        return self.positions


def assert_matches_reference(constellation, points, t_s, min_elevation_deg):
    batch = visible_satellites_batch(
        constellation, points, t_s, min_elevation_deg
    )
    sat = constellation.positions_ecef(t_s)
    for p, point in enumerate(points):
        order, ranges, elevations = reference_view(sat, point, min_elevation_deg)
        k = int(batch.count[p])
        assert k == order.size
        assert batch.order[p, :k].tolist() == order.tolist()
        # Bit-identical, not approximately equal.
        assert batch.slant_km[p, :k].tolist() == ranges.tolist()
        assert batch.elevation_deg[p, :k].tolist() == elevations.tolist()
        scalar = visible_satellites(constellation, point, t_s, min_elevation_deg)
        assert scalar == batch.visible_lists()[p]
    return batch


ground_points = st.lists(
    st.builds(
        GeoPoint,
        st.floats(-90.0, 90.0, allow_nan=False),
        st.floats(-180.0, 180.0, allow_nan=False),
        st.floats(0.0, 10.0, allow_nan=False),
    ),
    min_size=1,
    max_size=6,
)
epochs = st.floats(0.0, 6000.0, allow_nan=False)


class TestCulledKernelMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(
        constellation=st.sampled_from([SHELL1, SMALL]),
        points=ground_points,
        t_s=epochs,
        mask=st.sampled_from(MASKS),
    )
    def test_random_ground_points(self, constellation, points, t_s, mask):
        assert_matches_reference(constellation, points, t_s, mask)

    @settings(max_examples=40, deadline=None)
    @given(
        constellation=st.sampled_from([SHELL1, SMALL]),
        points=st.lists(
            st.builds(
                GeoPoint,
                st.floats(53.5, 90.0, allow_nan=False)
                | st.floats(-90.0, -53.5, allow_nan=False),
                st.floats(-180.0, 180.0, allow_nan=False),
                st.floats(0.0, 10.0, allow_nan=False),
            ),
            min_size=1,
            max_size=4,
        ),
        t_s=epochs,
        mask=st.sampled_from(MASKS),
    )
    def test_beyond_the_inclination(self, constellation, points, t_s, mask):
        # |lat| > 53 deg: few or no satellites in view.
        assert_matches_reference(constellation, points, t_s, mask)

    @settings(max_examples=30, deadline=None)
    @given(
        points=ground_points,
        t_s=epochs,
        mask=st.floats(-90.0, -1e-9, allow_nan=False),
    )
    def test_negative_mask_takes_every_satellite(self, points, t_s, mask):
        batch = assert_matches_reference(SMALL, points, t_s, mask)
        at_horizon = visible_satellites_batch(SMALL, points, t_s, 0.0)
        assert (batch.count >= at_horizon.count).all()

    # An observer exactly on a satellite divides 0 by 0 (elevation NaN,
    # not usable) in the kernel and the reference alike.
    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide")
    @settings(max_examples=30, deadline=None)
    @given(
        lat=st.floats(-90.0, 90.0, allow_nan=False),
        lon=st.floats(-180.0, 180.0, allow_nan=False),
        alt=st.floats(550.0, 3000.0, allow_nan=False),
        t_s=epochs,
        mask=st.sampled_from(MASKS),
    )
    def test_observer_at_or_above_the_shell(self, lat, lon, alt, t_s, mask):
        points = [GeoPoint(lat, lon, alt), GeoPoint(0.0, 0.0, 0.0)]
        assert_matches_reference(SMALL, points, t_s, mask)

    @settings(max_examples=60, deadline=None)
    @given(
        lat=st.floats(-80.0, 80.0, allow_nan=False),
        lon=st.floats(-180.0, 180.0, allow_nan=False),
        alt=st.floats(0.0, 10.0, allow_nan=False),
        mask=st.sampled_from(MASKS),
        radii=st.lists(
            st.floats(6371.0 + 200.0, 6371.0 + 2000.0), min_size=2, max_size=6
        ),
        azimuths=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_satellites_on_the_mask_edge(
        self, lat, lon, alt, mask, radii, azimuths, seed
    ):
        # Satellites at 1e-7 deg above the mask, at the lowest and highest
        # radius of a cloud, sit right on the cull cone's boundary: a cone
        # any tighter than the exact bound loses them.
        point = GeoPoint(lat, lon, alt)
        ecef = point.to_ecef()
        obs = np.array([ecef.x, ecef.y, ecef.z])
        up = obs / np.linalg.norm(obs)
        east = np.cross([0.0, 0.0, 1.0], up)
        east /= np.linalg.norm(east)
        north = np.cross(up, east)
        edge = []
        for i, radius in enumerate([min(radii), max(radii), *radii]):
            az = azimuths[i % len(azimuths)]
            for elev in (mask + 1e-7, mask - 1e-3):
                e = math.radians(elev)
                d = math.cos(e) * (
                    math.cos(az) * north + math.sin(az) * east
                ) + math.sin(e) * up
                b = float(obs @ d)
                rho = -b + math.sqrt(b * b - obs @ obs + radius * radius)
                edge.append(obs + rho * d)
        rng = np.random.default_rng(seed)
        cloud = rng.normal(size=(200, 3))
        cloud *= (
            rng.uniform(min(radii), max(radii), size=200)
            / np.linalg.norm(cloud, axis=1)
        )[:, None]
        constellation = Cloud(np.vstack([edge, cloud]))
        batch = assert_matches_reference(constellation, [point], 0.0, mask)
        # Both just-above satellites at the extreme radii are in view.
        assert {0, 2} <= set(batch.order[0, : batch.count[0]].tolist())


class TestNearestVisibleSatellites:
    def test_reads_column_zero_of_the_table(self, shell1_constellation):
        points = [GeoPoint(0.0, 0.0), GeoPoint(40.0, -3.7), GeoPoint(-33.9, 18.4)]
        indices, ranges = nearest_visible_satellites(
            shell1_constellation, points, 300.0
        )
        batch = visible_satellites_batch(shell1_constellation, points, 300.0)
        assert indices.tolist() == batch.order[:, 0].tolist()
        assert ranges.tolist() == batch.slant_km[:, 0].tolist()

    def test_blind_point_raises(self, shell1_constellation):
        with pytest.raises(VisibilityError, match="no satellite above"):
            nearest_visible_satellites(
                shell1_constellation,
                [GeoPoint(0.0, 0.0), GeoPoint(78.2, 15.6)],
                0.0,
            )

    def test_no_points_raises(self, shell1_constellation):
        with pytest.raises(VisibilityError, match="no ground points"):
            nearest_visible_satellites(shell1_constellation, [], 0.0)


class TestVisibilityTable:
    def test_padding_and_live_views(self, small_constellation):
        points = [GeoPoint(0.0, 0.0), GeoPoint(85.0, 0.0), GeoPoint(10.0, 20.0)]
        batch = visible_satellites_batch(small_constellation, points, 0.0, 0.0)
        assert batch.order.shape == batch.slant_km.shape
        assert batch.order.shape[1] == max(1, int(batch.count.max()))
        for p, k in enumerate(batch.count.tolist()):
            assert np.isnan(batch.slant_km[p, k:]).all()
        first = batch.order[0, 0]
        mask = np.ones(len(small_constellation), dtype=bool)
        mask[first] = False
        live = batch.visible_lists(mask)
        full = batch.visible_lists()
        for p in range(len(points)):
            assert live[p] == [s for s in full[p] if s.index != first]
