"""Batched serve path: element-wise equivalence with scalar serving.

``SpaceCdnSystem.serve_batch`` must be an *optimisation*, never a
behaviour change: for any cohort, results, stats, cache contents, and the
holders index must match what the scalar ``serve`` loop produces in the
same order — healthy and under fault schedules. These tests pin that
contract, plus the batch kernels it leans on (batched visibility,
batched single-source routing, the hop balls and their first-holder
pick) and the incremental holders-index bookkeeping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.cache import HoldersIndex
from repro.cdn.content import build_catalog
from repro.errors import ConfigurationError, UnavailableError
from repro.faults import FaultSchedule, OutageWindow, TransientAttemptLoss
from repro.geo.coordinates import GeoPoint
from repro.orbits.elements import ShellConfig
from repro.orbits.visibility import visible_satellites, visible_satellites_batch
from repro.orbits.walker import build_walker_delta
from repro.spacecdn.lookup import (
    hop_balls,
    nearest_cached_batch,
    nearest_cached_from_rows,
    ranked_cached_from_rows,
)
from repro.spacecdn.system import SpaceCdnSystem
from repro.topology import fastcore
from repro.topology.graph import build_snapshot

CONSTELLATION = build_walker_delta(
    ShellConfig(
        altitude_km=550.0,
        inclination_deg=53.0,
        num_planes=20,
        sats_per_plane=20,
        phase_offset=7,
        name="batch-shell",
    )
)
CATALOG = build_catalog(
    np.random.default_rng(1),
    40,
    regions=("africa", "europe"),
    kind_weights={"web": 1.0},
)
OBJECTS = sorted(o.object_id for o in CATALOG)
USERS = [
    GeoPoint(0.0, 0.0, 0.0),
    GeoPoint(-25.9, 32.6, 0.0),  # Maputo
    GeoPoint(51.5, -0.1, 0.0),  # London
    GeoPoint(40.7, -74.0, 0.0),  # New York
    GeoPoint(-1.3, 36.8, 0.0),  # Nairobi
    GeoPoint(35.7, 139.7, 0.0),  # Tokyo
]


def make_system(schedule: FaultSchedule | None = None) -> SpaceCdnSystem:
    system = SpaceCdnSystem(
        constellation=CONSTELLATION,
        catalog=CATALOG,
        cache_bytes_per_satellite=10**8,
        max_hops=6,
        fault_schedule=schedule,
    )
    system.preload(
        {
            oid: frozenset(
                {(i * 7) % len(CONSTELLATION), (i * 13 + 5) % len(CONSTELLATION)}
            )
            for i, oid in enumerate(OBJECTS[:12])
        }
    )
    return system


def run_scalar(system, spec):
    results = []
    for u, o, t in spec:
        try:
            results.append(system.serve(USERS[u], OBJECTS[o], t))
        except UnavailableError:
            results.append(None)
    return results


def run_batched(system, spec):
    """Group the spec into per-slot cohorts, exactly as run(batch=True)."""
    results = []
    group: list[tuple[int, int, float]] = []
    slot = None

    def flush():
        if not group:
            return
        results.extend(
            system.serve_batch(
                [USERS[u] for u, _, _ in group],
                [OBJECTS[o] for _, o, _ in group],
                [t for _, _, t in group],
                continue_on_unavailable=True,
            )
        )
        group.clear()

    for u, o, t in spec:
        s = int(t // system.snapshot_interval_s)
        if slot is not None and s != slot:
            flush()
        slot = s
        group.append((u, o, t))
    flush()
    return results


def cache_state(system):
    return {
        s: cache.object_ids()
        for s, cache in system._caches.items()
        if cache.object_ids()
    }


def holders_state(system):
    return {oid: system.holders_of(oid) for oid in OBJECTS}


def assert_equivalent(spec, schedule_factory=lambda: None):
    scalar = make_system(schedule_factory())
    batched = make_system(schedule_factory())
    expected = run_scalar(scalar, spec)
    actual = run_batched(batched, spec)
    assert actual == expected
    assert batched.stats == scalar.stats
    assert cache_state(batched) == cache_state(scalar)
    assert holders_state(batched) == holders_state(scalar)


def dense_spec(n, seed, max_step_s=4.0):
    rng = np.random.default_rng(seed)
    t = 0.0
    spec = []
    for _ in range(n):
        t += float(rng.uniform(0.0, max_step_s))
        spec.append(
            (int(rng.integers(len(USERS))), int(rng.integers(len(OBJECTS))), t)
        )
    return spec


class TestHealthyEquivalence:
    def test_dense_stream_matches_scalar(self):
        assert_equivalent(dense_spec(150, seed=3))

    def test_repeated_object_promotes_within_cohort(self):
        """A ground pull-through must be visible to the very next request
        of the same cohort — the second fetch hits the access cache."""
        system = make_system()
        oid = OBJECTS[-1]  # never preloaded
        results = system.serve_batch(
            [USERS[0], USERS[0]], [oid, oid], 0.0
        )
        assert results[0].source.value == "ground"
        assert results[1].source.value == "access-satellite"

    def test_eviction_churn_matches_scalar(self):
        """Caches sized for ~1 object force evictions mid-cohort; the dirty
        re-resolution must track them exactly."""
        sizes = sorted(o.size_bytes for o in CATALOG)

        def tiny():
            return SpaceCdnSystem(
                constellation=CONSTELLATION,
                catalog=CATALOG,
                cache_bytes_per_satellite=max(sizes) + 1,
                max_hops=6,
            )

        spec = dense_spec(120, seed=9, max_step_s=1.0)
        scalar, batched = tiny(), tiny()
        expected = run_scalar(scalar, spec)
        actual = run_batched(batched, spec)
        assert actual == expected
        assert cache_state(batched) == cache_state(scalar)
        assert holders_state(batched) == holders_state(scalar)


class TestDegradedEquivalence:
    @staticmethod
    def schedule():
        return (
            FaultSchedule()
            .add(
                OutageWindow(
                    satellites=frozenset(range(0, len(CONSTELLATION), 7))
                )
            )
            .add(TransientAttemptLoss(probability=0.3, seed=7))
        )

    def test_faulted_stream_matches_scalar(self):
        assert_equivalent(dense_spec(120, seed=5), self.schedule)

    def test_all_down_raises_like_scalar(self):
        schedule = FaultSchedule().add(
            OutageWindow(satellites=frozenset(range(len(CONSTELLATION))))
        )
        system = make_system(schedule)
        with pytest.raises(UnavailableError):
            system.serve_batch([USERS[0]], [OBJECTS[0]], 0.0)

    def test_all_down_continue_yields_none_slots(self):
        schedule = FaultSchedule().add(
            OutageWindow(satellites=frozenset(range(len(CONSTELLATION))))
        )
        system = make_system(schedule)
        results = system.serve_batch(
            [USERS[0], USERS[1]],
            [OBJECTS[0], OBJECTS[1]],
            0.0,
            continue_on_unavailable=True,
        )
        assert results == [None, None]
        assert system.stats.unavailable == 2


class TestBatchProperties:
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=2**16),
        st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_serve_batch_equals_scalar(self, n, seed, faulted):
        spec = dense_spec(n, seed=seed, max_step_s=6.0)
        if faulted:
            rng = np.random.default_rng(seed)
            failed = frozenset(
                int(s)
                for s in rng.choice(
                    len(CONSTELLATION), size=len(CONSTELLATION) // 5, replace=False
                )
            )

            def factory():
                return (
                    FaultSchedule(wipe_caches_on_outage=bool(seed % 2))
                    .add(OutageWindow(satellites=failed))
                    .add(
                        TransientAttemptLoss(
                            probability=0.25, seed=seed & 0xFFFF
                        )
                    )
                )

            assert_equivalent(spec, factory)
        else:
            assert_equivalent(spec)


class TestCohortValidation:
    def test_empty_cohort(self):
        assert make_system().serve_batch([], [], 0.0) == []

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            make_system().serve_batch([USERS[0]], [OBJECTS[0], OBJECTS[1]], 0.0)

    def test_times_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            make_system().serve_batch([USERS[0]], [OBJECTS[0]], [0.0, 1.0])

    def test_cross_slot_cohort_rejected(self):
        with pytest.raises(ConfigurationError):
            make_system().serve_batch(
                [USERS[0], USERS[1]], [OBJECTS[0], OBJECTS[1]], [0.0, 61.0]
            )

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            make_system().serve_batch([USERS[0]], [OBJECTS[0]], -1.0)

    def test_scalar_time_broadcasts(self):
        system = make_system()
        results = system.serve_batch(
            [USERS[0], USERS[1]], [OBJECTS[0], OBJECTS[1]], 5.0
        )
        assert [r.t_s for r in results] == [5.0, 5.0]


class TestHoldersIndexIntegrity:
    def test_eviction_never_leaves_stale_entries(self):
        sizes = sorted(o.size_bytes for o in CATALOG)
        system = SpaceCdnSystem(
            constellation=CONSTELLATION,
            catalog=CATALOG,
            cache_bytes_per_satellite=max(sizes) + 1,
        )
        for i, oid in enumerate(OBJECTS):
            system._store(i % 4, oid)
        self._assert_index_mirrors_caches(system)

    def test_wipe_never_leaves_stale_entries(self):
        failed = frozenset(range(0, len(CONSTELLATION), 3))
        schedule = FaultSchedule(wipe_caches_on_outage=True).add(
            OutageWindow(satellites=failed)
        )
        system = make_system(schedule)
        # First serve compiles the fault view and wipes the outage set.
        try:
            system.serve(USERS[0], OBJECTS[0], 0.0)
        except UnavailableError:
            pass
        for oid in OBJECTS:
            assert not (system.holders_of(oid) & failed), oid
        self._assert_index_mirrors_caches(system)

    def test_batched_churn_keeps_index_consistent(self):
        system = make_system()
        run_batched(system, dense_spec(100, seed=11, max_step_s=1.0))
        self._assert_index_mirrors_caches(system)

    @staticmethod
    def _assert_index_mirrors_caches(system):
        for satellite, cache in system._caches.items():
            for oid in cache.object_ids():
                assert satellite in system.holders_of(oid)
        for oid in OBJECTS:
            for satellite in system.holders_of(oid):
                assert oid in system.cache_of(satellite)


class TestHoldersIndexUnit:
    def test_add_discard_roundtrip(self):
        index = HoldersIndex()
        index.add("a", 3)
        index.add("a", 5)
        index.add("b", 3)
        assert index.holders("a") == frozenset({3, 5})
        assert "a" in index and len(index) == 2
        index.discard("a", 3)
        assert index.holders("a") == frozenset({5})
        index.discard("a", 5)
        assert "a" not in index
        assert index.holders("a") == frozenset()

    def test_drop_satellite(self):
        index = HoldersIndex()
        for oid in ("a", "b", "c"):
            index.add(oid, 1)
            index.add(oid, 2)
        index.drop_satellite(1, {"a", "b"})
        assert index.holders("a") == frozenset({2})
        assert index.holders("c") == frozenset({1, 2})

    def test_holders_matrix_is_live_and_tracks_dirt(self):
        index = HoldersIndex()
        index.add("a", 0)
        index.add("b", 4)
        matrix = index.holders_matrix(["a", "b"], 6)
        assert matrix.dtype == bool and matrix.shape == (2, 6)
        assert matrix[0, 0] and matrix[1, 4]
        assert index.dirty_objects == set()
        index.add("a", 2)
        index.discard("b", 4)
        assert matrix[0, 2] and not matrix[1, 4]
        assert index.dirty_objects == {"a", "b"}
        # Rebuilding the view resets the dirty set.
        index.holders_matrix(["a"], 6)
        assert index.dirty_objects == set()

    def test_release_view_stops_updates(self):
        index = HoldersIndex()
        index.add("a", 1)
        matrix = index.holders_matrix(["a"], 4)
        index.release_view()
        index.add("a", 3)
        assert not matrix[0, 3]


class TestBatchKernels:
    def test_visibility_batch_bit_equal_to_scalar(self, small_constellation):
        points = USERS[:4]
        for t in (0.0, 120.0):
            views = visible_satellites_batch(
                small_constellation, points, t
            ).visible_lists()
            for point, batch in zip(points, views):
                scalar = visible_satellites(small_constellation, point, t)
                assert [s.index for s in batch] == [s.index for s in scalar]
                assert [s.elevation_deg for s in batch] == [
                    s.elevation_deg for s in scalar
                ]
                assert [s.slant_range_km for s in batch] == [
                    s.slant_range_km for s in scalar
                ]

    def test_visibility_batch_empty_points(self, small_constellation):
        vb = visible_satellites_batch(small_constellation, [], 0.0)
        assert vb.num_points == 0

    def test_single_source_batch_rows_equal_scalar(self, small_constellation):
        snapshot = build_snapshot(small_constellation, 0.0)
        sources = [0, 5, 17]
        hops_m, lats_m = fastcore.single_source_batch(snapshot.core, sources)
        for i, source in enumerate(sources):
            hops, lats = fastcore.single_source(snapshot.core, source)
            np.testing.assert_array_equal(hops_m[i], hops)
            np.testing.assert_array_equal(lats_m[i], lats)

    def test_single_source_batch_masked_rows_equal_scalar(
        self, small_constellation
    ):
        snapshot = build_snapshot(small_constellation, 0.0)
        active = np.ones(snapshot.core.num_nodes, dtype=bool)
        active[::5] = False
        active[[1, 2]] = True
        sources = [1, 2]
        hops_m, lats_m = fastcore.single_source_batch(
            snapshot.core, sources, active
        )
        for i, source in enumerate(sources):
            hops, lats = fastcore.single_source(snapshot.core, source, active)
            np.testing.assert_array_equal(hops_m[i], hops)
            np.testing.assert_array_equal(lats_m[i], lats)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_nearest_cached_batch_matches_rowwise(self, seed, rows, n, max_hops):
        """Every (ball row, object) pair picks what the scalar reference
        picks. Latencies are small integers, so exact ties are common and
        the lowest-index tie-break is pinned; hop 0 (the access satellite)
        is drawn too, and must stay out of the ball."""
        rng = np.random.default_rng(seed)
        hops = rng.integers(0, 9, size=(rows, n)).astype(np.int32)
        hops[rng.random((rows, n)) < 0.2] = fastcore.HOP_UNREACHABLE
        lats = rng.integers(1, 6, size=(rows, n)).astype(float)
        lats[rng.random((rows, n)) < 0.1] = np.inf
        objects = 4
        holders = rng.random((objects, n)) < rng.uniform(0.05, 0.6)
        balls = hop_balls(hops, lats, max_hops, min_hops=1)
        for r in range(rows):
            ranked = ranked_cached_from_rows(
                hops[r], lats[r], set(range(n)), max_hops, min_hops=1
            )
            k = int(balls.count[r])
            assert k == len(ranked)
            assert balls.ok[r].tolist() == [c < k for c in range(balls.ok.shape[1])]
            assert list(
                zip(
                    balls.sat[r, :k].tolist(),
                    balls.hops[r, :k].tolist(),
                    balls.lat[r, :k].tolist(),
                )
            ) == ranked

        pair_rows = np.repeat(np.arange(rows), objects)
        pair_objects = np.tile(np.arange(objects), rows)
        found, col = nearest_cached_batch(
            balls.sat[pair_rows], balls.ok[pair_rows], holders, pair_objects
        )
        sat = balls.sat[pair_rows, col]
        pair_hops = balls.hops[pair_rows, col]
        pair_ms = balls.lat[pair_rows, col]
        for c, (r, o) in enumerate(zip(pair_rows, pair_objects)):
            expected = nearest_cached_from_rows(
                hops[r],
                lats[r],
                {int(s) for s in np.flatnonzero(holders[o])},
                max_hops,
                min_hops=1,
            )
            if expected is None:
                assert not found[c]
            else:
                assert found[c]
                assert (int(sat[c]), int(pair_hops[c]), float(pair_ms[c])) == expected


class TestShell1RegionalCohort:
    """Shell 1 at ``max_hops=6``: hop balls of 84 satellites, a European
    user cluster, and caches of about two objects, so pull-through stores
    and evictions dirty objects mid-cohort and their requests are decided
    again on the live holders bitmap."""

    @staticmethod
    def make(constellation, catalog, sizes):
        system = SpaceCdnSystem(
            constellation=constellation,
            catalog=catalog,
            cache_bytes_per_satellite=2 * int(np.median(sizes)),
            max_hops=6,
        )
        place = np.random.default_rng(11)
        system.preload(
            {
                o.object_id: frozenset(
                    int(s) for s in place.choice(len(constellation), 24, replace=False)
                )
                for o in list(catalog)[:60]
            }
        )
        return system

    def test_regional_cohorts_match_scalar(self, shell1_constellation, monkeypatch):
        catalog = build_catalog(
            np.random.default_rng(4), 120, kind_weights={"web": 1.0}
        )
        sizes = [o.size_bytes for o in catalog]
        oids = sorted(o.object_id for o in catalog)
        rng = np.random.default_rng(8)
        users = [
            GeoPoint(float(a), float(b), 0.0)
            for a, b in zip(rng.uniform(42.0, 54.0, 40), rng.uniform(-5.0, 20.0, 40))
        ]
        times = np.sort(rng.uniform(0.0, 120.0, 600)).tolist()
        picks = rng.integers(len(users), size=600).tolist()
        ranks = np.minimum(rng.zipf(1.3, size=600) - 1, len(oids) - 1).tolist()
        requests = [(users[u], oids[o], t) for u, o, t in zip(picks, ranks, times)]

        scalar = self.make(shell1_constellation, catalog, sizes)
        batched = self.make(shell1_constellation, catalog, sizes)
        expected = [scalar.serve(user, oid, t) for user, oid, t in requests]

        calls = []

        def spy(candidates, usable, holders, objects):
            calls.append(len(objects))
            return nearest_cached_batch(candidates, usable, holders, objects)

        monkeypatch.setattr("repro.spacecdn.system.nearest_cached_batch", spy)
        actual = []
        for slot in (0, 1):
            cohort = [q for q in requests if int(q[2] // 60.0) == slot]
            actual += batched.serve_batch(*map(list, zip(*cohort)))

        assert actual == expected
        assert batched.stats == scalar.stats
        assert cache_state(batched) == cache_state(scalar)
        assert {o: batched.holders_of(o) for o in oids} == {
            o: scalar.holders_of(o) for o in oids
        }
        # One decision pass per cohort; every further call replays one
        # dirty request.
        assert len(calls) > 2
        sources = {r.source.value for r in actual}
        assert {"direct-visible", "isl-neighbor", "ground"} <= sources
