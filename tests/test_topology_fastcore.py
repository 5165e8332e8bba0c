"""Property tests pinning the vectorised CSR routing core to networkx.

The fastcore kernels are only trustworthy if they agree with the original
per-query ``networkx`` traversals on *every* input — random shells, random
epochs, random sources and random failure sets — so the equivalence is
asserted property-style with hypothesis rather than on a few hand-picked
cases. Hop counts must match exactly; latencies to 1e-9 ms (the backends
may sum path weights in different orders).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.geo.coordinates import GeoPoint
from repro.orbits.elements import ShellConfig
from repro.orbits.visibility import (
    nearest_visible_satellite,
    nearest_visible_satellites,
)
from repro.orbits.walker import build_walker_delta
from repro.topology import fastcore
from repro.topology.graph import build_snapshot
from repro.topology.isl import nearest_cross_plane_offset
from repro.topology.routing import (
    hop_distances,
    hop_distances_reference,
    latency_by_hop_count,
    latency_by_hop_count_reference,
    satellite_latencies,
    satellite_latencies_reference,
)

LATENCY_ATOL = 1e-9


def _shell(num_planes: int, sats_per_plane: int, phase_offset: int) -> ShellConfig:
    return ShellConfig(
        altitude_km=550.0,
        inclination_deg=53.0,
        num_planes=num_planes,
        sats_per_plane=sats_per_plane,
        phase_offset=phase_offset % (num_planes * sats_per_plane),
        name=f"prop-{num_planes}x{sats_per_plane}-{phase_offset}",
    )


@st.composite
def snapshot_cases(draw):
    """A random (snapshot, source, failed-set) routing scenario."""
    num_planes = draw(st.integers(3, 7))
    sats_per_plane = draw(st.integers(3, 8))
    phase_offset = draw(st.integers(0, 10))
    t_s = draw(st.floats(0.0, 5700.0, allow_nan=False, allow_infinity=False))
    n = num_planes * sats_per_plane
    source = draw(st.integers(0, n - 1))
    failed = draw(
        st.sets(st.integers(0, n - 1), max_size=max(0, n // 4)).filter(
            lambda s: source not in s
        )
    )
    config = _shell(num_planes, sats_per_plane, phase_offset)
    snapshot = build_snapshot(build_walker_delta(config), t_s)
    if failed:
        from repro.spacecdn.resilience import fail_satellites

        snapshot = fail_satellites(snapshot, failed)
    return snapshot, source, failed


class TestEquivalenceWithNetworkx:
    @settings(max_examples=30, deadline=None)
    @given(snapshot_cases())
    def test_hop_distances_exact(self, case):
        snapshot, source, _ = case
        assert hop_distances(snapshot, source) == hop_distances_reference(
            snapshot, source
        )

    @settings(max_examples=30, deadline=None)
    @given(snapshot_cases())
    def test_satellite_latencies_close(self, case):
        snapshot, source, _ = case
        fast = satellite_latencies(snapshot, source)
        ref = satellite_latencies_reference(snapshot, source)
        assert fast.keys() == ref.keys()
        for node, latency in ref.items():
            assert fast[node] == pytest.approx(latency, abs=LATENCY_ATOL)

    @settings(max_examples=30, deadline=None)
    @given(snapshot_cases(), st.integers(0, 12))
    def test_hop_ladder_close(self, case, max_hops):
        snapshot, source, _ = case
        fast = latency_by_hop_count(snapshot, source, max_hops)
        ref = latency_by_hop_count_reference(snapshot, source, max_hops)
        assert fast.keys() == ref.keys()
        for h, latency in ref.items():
            assert fast[h] == pytest.approx(latency, abs=LATENCY_ATOL)

    @settings(max_examples=15, deadline=None)
    @given(snapshot_cases(), st.data())
    def test_nearest_hops_matches_multi_source_bfs(self, case, data):
        snapshot, source, failed = case
        alive = sorted(snapshot.satellite_nodes())
        targets = data.draw(
            st.sets(st.sampled_from(alive), min_size=1, max_size=5)
        )
        got = fastcore.nearest_hops(
            snapshot.core, targets, snapshot.active_mask
        )
        # Reference: min over per-target BFS dicts.
        per_target = [hop_distances_reference(snapshot, t) for t in targets]
        for node in range(snapshot.core.num_nodes):
            best = min(
                (d[node] for d in per_target if node in d), default=None
            )
            if best is None:
                assert got[node] == fastcore.HOP_UNREACHABLE
            else:
                assert got[node] == best


class TestBackendAgreement:
    @pytest.mark.skipif(not fastcore.HAVE_SCIPY, reason="scipy not importable")
    @settings(max_examples=20, deadline=None)
    @given(snapshot_cases())
    def test_numpy_and_scipy_agree(self, case):
        snapshot, source, _ = case
        core, mask = snapshot.core, snapshot.active_mask
        sources = [source, 0] if snapshot.has_satellite(0) else [source]
        np.testing.assert_array_equal(
            fastcore.hop_distances_batch(core, sources, mask, method="numpy"),
            fastcore.hop_distances_batch(core, sources, mask, method="scipy"),
        )
        np.testing.assert_allclose(
            fastcore.latency_batch(core, sources, mask, method="numpy"),
            fastcore.latency_batch(core, sources, mask, method="scipy"),
            atol=LATENCY_ATOL,
        )


BACKENDS = ["numpy", "scipy"] if fastcore.HAVE_SCIPY else ["numpy"]


def _seam_satellites(config: ShellConfig) -> list[int]:
    """Satellites in the first and last plane: the ends of the seam links."""
    per = config.sats_per_plane
    last = (config.num_planes - 1) * per
    return list(range(per)) + list(range(last, last + per))


@st.composite
def bounded_cases(draw):
    """A random (core, sources, active mask, max_hops, backend) scenario.

    The core is optionally degraded (cut ISLs, latency multipliers), the
    mask fails a random subset of satellites, and sources are drawn from
    the seam planes half of the time.
    """
    num_planes = draw(st.integers(3, 7))
    sats_per_plane = draw(st.integers(3, 8))
    config = _shell(num_planes, sats_per_plane, draw(st.integers(0, 10)))
    t_s = draw(st.floats(0.0, 5700.0, allow_nan=False, allow_infinity=False))
    core = fastcore.build_core(build_walker_delta(config), t_s)
    e = core.topology.num_links
    if draw(st.booleans()):
        cut = draw(st.sets(st.integers(0, e - 1), max_size=e // 4))
        mult = np.asarray(draw(st.lists(st.floats(1.0, 50.0), min_size=e, max_size=e)))
        core = fastcore.degrade_core(core, mult, cut)
    n = core.num_nodes
    pool = _seam_satellites(config) if draw(st.booleans()) else list(range(n))
    sources = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    active = None
    if draw(st.booleans()):
        active = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        active[sources] = True
    max_hops = draw(st.integers(0, 10))
    method = draw(st.sampled_from(BACKENDS))
    return core, sources, active, max_hops, method


def _assert_bounded_matches(core, sources, active, max_hops, method):
    full_hops, full_lats = fastcore.single_source_batch(
        core, sources, active, method
    )
    hops, lats = fastcore.single_source_batch(
        core, sources, active, method, max_hops=max_hops
    )
    inside = (full_hops != fastcore.HOP_UNREACHABLE) & (full_hops <= max_hops)
    np.testing.assert_array_equal(hops[inside], full_hops[inside])
    np.testing.assert_array_equal(lats[inside], full_lats[inside])
    assert np.all(hops[~inside] == fastcore.HOP_UNREACHABLE)
    assert np.all(np.isinf(lats[~inside]))
    return hops, lats, full_lats, inside


class TestBoundedRows:
    """Hop-bounded rows equal the unbounded rows bit for bit in the ball."""

    @settings(max_examples=60, deadline=None)
    @given(bounded_cases())
    def test_equal_to_unbounded_within_radius(self, case):
        # The small random shells put most balls over the share past which
        # the latency pass runs unbounded; lift it so every ball smaller
        # than the whole graph takes the limited path.
        with mock.patch.object(fastcore, "_BOUNDED_BALL_SHARE", 1.0):
            _assert_bounded_matches(*case)

    @settings(max_examples=30, deadline=None)
    @given(bounded_cases())
    def test_latency_limit_covers_the_ball(self, case):
        core, sources, active, max_hops, method = case
        hops, _, full_lats, inside = _assert_bounded_matches(*case)
        limits = fastcore._latency_limits(core, hops)
        widest = np.where(inside, full_lats, 0.0).max(axis=1)
        assert np.all(limits >= widest)

    @pytest.mark.parametrize("method", BACKENDS)
    @pytest.mark.parametrize("max_hops", [0, 1, 6, 10])
    def test_shell1_seam_sources(self, shell1, shell1_snapshot, method, max_hops):
        """Shell-1 sources on both sides of the ~29 ms cross-seam links."""
        seam = _seam_satellites(shell1)
        sources = seam[:3] + seam[-3:] + [800]
        _assert_bounded_matches(
            shell1_snapshot.core, sources, None, max_hops, method
        )

    @pytest.mark.parametrize("method", BACKENDS)
    def test_cheapest_path_longer_than_radius(self, small_shell, method):
        """A 1-hop neighbour whose cheapest route is a 3-hop detour.

        Inflating the link from satellite 0 to its cross-plane neighbour
        ``east`` makes the latency-optimal path to ``east`` a detour round
        a +Grid square (e.g. 0 -> 1 -> east of 1 -> east), through a
        satellite two hops out, beyond the radius of 1. The bounded row
        must still carry the detour's latency, not the direct link's.
        """
        per = small_shell.sats_per_plane
        offset = nearest_cross_plane_offset(small_shell)
        east, east_of_ahead = per + offset % per, per + (1 + offset) % per
        core = fastcore.build_core(build_walker_delta(small_shell), 0.0)
        topo = core.topology
        direct_link = next(
            i
            for i, (a, b) in enumerate(zip(topo.link_a, topo.link_b))
            if {int(a), int(b)} == {0, east}
        )
        mult = np.ones(topo.num_links)
        mult[direct_link] = 1000.0
        degraded = fastcore.degrade_core(core, mult)
        hops, lats, _, _ = _assert_bounded_matches(degraded, [0], None, 1, method)
        assert hops[0, east] == 1
        assert hops[0, east_of_ahead] == fastcore.HOP_UNREACHABLE
        assert lats[0, east] < degraded.link_latency_ms[direct_link] / 100.0

    def test_memo_keeps_bounded_and_unbounded_apart(self, small_constellation):
        core = fastcore.build_core(small_constellation, 0.0)
        bounded = fastcore.single_source(core, 5, max_hops=1)
        full = fastcore.single_source(core, 5)
        assert fastcore.single_source(core, 5, max_hops=1)[0] is bounded[0]
        assert np.isinf(bounded[1]).sum() > np.isinf(full[1]).sum()
        batch_hops, batch_lats = fastcore.single_source_batch(
            core, [5, 5], max_hops=1
        )
        np.testing.assert_array_equal(batch_hops[1], bounded[0])
        np.testing.assert_array_equal(batch_lats[1], bounded[1])

    def test_negative_radius_raises(self, small_snapshot):
        with pytest.raises(RoutingError):
            fastcore.single_source_batch(small_snapshot.core, [0], max_hops=-1)


class TestBatchedVisibility:
    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-55.0, 55.0, allow_nan=False),
                st.floats(-180.0, 179.0, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        ),
        st.floats(0.0, 5700.0, allow_nan=False),
    )
    def test_matches_per_point_lookup(self, shell1_constellation, coords, t_s):
        points = [GeoPoint(lat, lon) for lat, lon in coords]
        indices, ranges = nearest_visible_satellites(
            shell1_constellation, points, t_s
        )
        for point, idx, rng_km in zip(points, indices, ranges):
            single = nearest_visible_satellite(shell1_constellation, point, t_s)
            assert int(idx) == single.index
            assert rng_km == pytest.approx(single.slant_range_km, abs=1e-9)


class TestValidationAndEdgeCases:
    def test_unknown_source_raises(self, small_snapshot):
        with pytest.raises(RoutingError):
            fastcore.latency_batch(small_snapshot.core, [9999])

    def test_negative_source_raises(self, small_snapshot):
        with pytest.raises(RoutingError):
            fastcore.hop_distances_batch(small_snapshot.core, [-1])

    def test_failed_source_raises(self, small_snapshot):
        mask = np.ones(small_snapshot.core.num_nodes, dtype=bool)
        mask[3] = False
        with pytest.raises(RoutingError):
            fastcore.latency_batch(small_snapshot.core, [3], active=mask)

    def test_empty_sources_raises(self, small_snapshot):
        with pytest.raises(RoutingError):
            fastcore.latency_batch(small_snapshot.core, [])

    def test_bad_mask_shape_raises(self, small_snapshot):
        with pytest.raises(RoutingError):
            fastcore.latency_batch(
                small_snapshot.core, [0], active=np.ones(3, dtype=bool)
            )

    def test_unknown_backend_raises(self, small_snapshot):
        with pytest.raises(RoutingError):
            fastcore.latency_batch(small_snapshot.core, [0], method="cuda")

    def test_negative_ladder_hops_raises(self, small_snapshot):
        with pytest.raises(RoutingError):
            fastcore.hop_ladder_batch(small_snapshot.core, [0], -1)

    def test_isl_incapable_shell_has_no_routes(self):
        """OneWeb-style shells carry no ISLs: everything is unreachable."""
        config = ShellConfig(
            altitude_km=1200.0,
            inclination_deg=87.9,
            num_planes=4,
            sats_per_plane=5,
            phase_offset=0,
            name="bent-pipe-only",
            isl_capable=False,
        )
        core = fastcore.build_core(build_walker_delta(config), 0.0)
        assert core.topology.num_links == 0
        hops = fastcore.hop_distances_batch(core, [0], method="numpy")[0]
        assert hops[0] == 0
        assert np.all(hops[1:] == fastcore.HOP_UNREACHABLE)

    def test_failed_columns_are_masked(self, small_snapshot):
        mask = np.ones(small_snapshot.core.num_nodes, dtype=bool)
        mask[7] = False
        lats = fastcore.latency_batch(small_snapshot.core, [0], active=mask)[0]
        hops = fastcore.hop_distances_batch(small_snapshot.core, [0], active=mask)[0]
        assert np.isinf(lats[7])
        assert hops[7] == fastcore.HOP_UNREACHABLE

    def test_single_source_memoised(self, small_constellation):
        core = fastcore.build_core(small_constellation, 0.0)
        first = fastcore.single_source(core, 5)
        again = fastcore.single_source(core, 5)
        assert first[0] is again[0] and first[1] is again[1]

    def test_snapshot_copy_shares_core(self, small_snapshot):
        clone = small_snapshot.copy()
        assert clone.core is small_snapshot.core
        assert clone.positions is small_snapshot.positions
        clone.attach_ground_node("gs:test", GeoPoint(0.0, 0.0))
        assert "gs:test" not in small_snapshot.graph
