"""The full SpaceCDN system: per-satellite caches served over time.

Where :mod:`repro.spacecdn.lookup` answers a single geometric query, the
:class:`SpaceCdnSystem` runs the whole machine: every satellite carries a
real byte-bounded cache, requests arrive on a timeline, the constellation
rotates underneath (snapshots are rebuilt on a quantised clock), misses
pull content up from the ground and populate the access satellite's cache,
and a content index tracks which satellites currently hold which objects.

This is the component a downstream user would actually embed: give it a
catalog, a placement/prefetch policy and a request stream, get back hit
levels and latency samples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cdn.cache import Cache, HoldersIndex, LruCache
from repro.cdn.content import Catalog
from repro.constants import CDN_SERVER_THINK_TIME_MS, MIN_ELEVATION_USER_DEG
from repro.errors import ConfigurationError, OverloadedError, UnavailableError
from repro.faults import FaultSchedule, FaultView, RetryPolicy, apply_fault_view
from repro.geo.coordinates import GeoPoint
from repro.obs.metrics import OVERLOAD_QUEUE_BUCKETS_MS
from repro.obs.recorder import get_recorder
from repro.overload import GROUND_TARGET, OverloadModel
from repro.orbits.walker import Constellation
from repro.spacecdn.lookup import (
    LookupSource,
    nearest_cached_batch,
    nearest_cached_from_rows,
    nearest_cached_satellite,
    ranked_cached_from_rows,
    ranked_cached_satellites,
)
from repro.topology import fastcore
from repro.topology.graph import SnapshotGraph, access_latency_ms, build_snapshot
from repro.workloads.requests import Request

TIER_OF_SOURCE: dict[LookupSource, str] = {
    LookupSource.ACCESS_SATELLITE: "access",
    LookupSource.DIRECT_VISIBLE: "direct-visible",
    LookupSource.ISL_NEIGHBOR: "isl",
    LookupSource.GROUND: "ground",
}
"""Ladder-tier names used in metrics labels and trace spans."""

_TIER_LABELS = {tier: (("tier", tier),) for tier in TIER_OF_SOURCE.values()}


@dataclass(frozen=True)
class ServedRequest:
    """Outcome of one request through the system.

    ``attempts`` counts fetch attempts including the successful one (always
    1 on the healthy path); ``fallback_reason`` explains why the request was
    not served by its preferred rung (``None`` when it was): one of
    ``"attempt-timeout"``, ``"transient-loss"``, ``"ground-timeout"``,
    ``"no-space-replica"``, ``"space-exhausted"``. ``priority`` is the
    request's admission class on the overloaded serve path (``None``
    everywhere else).
    """

    object_id: str
    t_s: float
    source: LookupSource
    serving_satellite: int | None
    isl_hops: int
    rtt_ms: float
    attempts: int = 1
    fallback_reason: str | None = None
    priority: int | None = None


@dataclass
class SystemStats:
    """Aggregate counters over a run."""

    access_hits: int = 0
    direct_hits: int = 0
    isl_hits: int = 0
    ground_fetches: int = 0
    timeouts: int = 0
    """Attempts abandoned for exceeding the per-attempt RTT budget or to
    transient loss (each failed attempt counts once)."""
    retries: int = 0
    """Extra attempts beyond the first, summed over all requests."""
    unavailable: int = 0
    """Requests that exhausted the fallback ladder and raised
    :class:`~repro.errors.UnavailableError`."""
    shed: int = 0
    """Requests refused by overload protection (admission, breakers, or a
    spent deadline) and raised as :class:`~repro.errors.OverloadedError` —
    disjoint from ``unavailable``, which counts fault-path exhaustion."""
    deadline_exhausted: int = 0
    """The subset of ``shed`` whose end-to-end deadline budget ran out."""
    rtt_samples_ms: list[float] = field(default_factory=list)

    @property
    def requests(self) -> int:
        return (
            self.access_hits
            + self.direct_hits
            + self.isl_hits
            + self.ground_fetches
            + self.unavailable
            + self.shed
        )

    @property
    def served(self) -> int:
        """Requests that completed with content delivered."""
        return self.requests - self.unavailable - self.shed

    @property
    def shed_fraction(self) -> float | None:
        """Fraction of requests shed by overload protection; ``None`` before
        any request (same empty-evidence convention as ``availability``)."""
        if self.requests == 0:
            return None
        return self.shed / self.requests

    @property
    def availability(self) -> float | None:
        """Fraction of requests served at all; ``None`` before any request.

        Zero requests means *no evidence*, which is different from
        "perfectly available": returning ``None`` (rather than a made-up
        1.0 or a division by zero) keeps aggregation over empty shards
        well-defined — callers render it as "n/a" instead of averaging a
        fictitious value into a sweep.
        """
        if self.requests == 0:
            return None
        return self.served / self.requests

    @property
    def space_hit_ratio(self) -> float:
        """Fraction of *served* requests answered without touching the ground."""
        if self.served == 0:
            return 0.0
        return (self.served - self.ground_fetches) / self.served


@dataclass
class SpaceCdnSystem:
    """A running SpaceCDN: caches on every satellite, time-aware routing.

    Args:
        constellation: the shell to run on.
        catalog: the content universe (sizes drive cache occupancy).
        cache_bytes_per_satellite: capacity of each on-board cache.
        max_hops: ISL search radius before falling back to the ground.
        ground_rtt_ms: RTT of the bent-pipe + terrestrial fallback path.
        snapshot_interval_s: how often the ISL graph is rebuilt as the
            constellation rotates (60 s keeps link-length error under ~1%).
        fault_schedule: composed fault processes driving the degraded
            serving path; ``None`` (or an empty schedule) keeps the healthy
            fast path byte-for-byte unchanged. Faults are applied at
            snapshot granularity — the schedule compiles once per snapshot
            slot into the CSR core's node/link masks.
        retry_policy: bounded attempts, per-attempt RTT budget, and
            simulated exponential backoff for the degraded path.
        overload: per-satellite capacity, admission control, circuit
            breakers, and deadline budgets
            (:class:`~repro.overload.OverloadModel`). ``None`` (the
            default) leaves every serve path byte-for-byte unchanged; set,
            every request runs the overloaded walk — which also honours
            the fault schedule, so faults and load compose.
    """

    constellation: Constellation
    catalog: Catalog
    cache_bytes_per_satellite: int = 10**9
    max_hops: int = 5
    ground_rtt_ms: float = 140.0
    snapshot_interval_s: float = 60.0
    min_elevation_deg: float = MIN_ELEVATION_USER_DEG
    fault_schedule: FaultSchedule | None = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    overload: OverloadModel | None = None

    stats: SystemStats = field(default_factory=SystemStats)
    _caches: dict[int, Cache] = field(default_factory=dict, repr=False)
    _index: HoldersIndex = field(default_factory=HoldersIndex, repr=False)
    _snapshot: SnapshotGraph | None = field(default=None, repr=False)
    _snapshot_slot: int = field(default=-1, repr=False)
    _degraded: SnapshotGraph | None = field(default=None, repr=False)
    _fault_view: FaultView | None = field(default=None, repr=False)
    _fault_slot: int = field(default=-1, repr=False)
    _down_prev: frozenset[int] = field(default=frozenset(), repr=False)
    _request_counter: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.cache_bytes_per_satellite <= 0:
            raise ConfigurationError("cache capacity must be positive")
        if self.max_hops < 0:
            raise ConfigurationError("max_hops must be non-negative")
        if self.snapshot_interval_s <= 0:
            raise ConfigurationError("snapshot interval must be positive")
        if self.ground_rtt_ms <= 0:
            raise ConfigurationError("ground RTT must be positive")

    # -- cache plumbing ----------------------------------------------------

    def cache_of(self, satellite: int) -> Cache:
        """The on-board cache of one satellite (created lazily)."""
        if not 0 <= satellite < len(self.constellation):
            raise ConfigurationError(f"satellite {satellite} out of range")
        cache = self._caches.get(satellite)
        if cache is None:
            cache = LruCache(self.cache_bytes_per_satellite)
            self._caches[satellite] = cache
        return cache

    def holders_of(self, object_id: str) -> frozenset[int]:
        """Satellites currently caching an object."""
        return self._index.holders(object_id)

    def _store(self, satellite: int, object_id: str) -> None:
        """Insert an object into a satellite's cache, maintaining the index."""
        obj = self.catalog.get(object_id)
        cache = self.cache_of(satellite)
        if obj.size_bytes > cache.capacity_bytes:
            return  # too large to cache anywhere; served pass-through
        evicted = cache.put(obj)
        for victim in evicted:
            self._index.discard(victim, satellite)
        self._index.add(object_id, satellite)

    def preload(self, placement: dict[str, frozenset[int]]) -> int:
        """Push a placement plan into the on-board caches; returns stores done."""
        stored = 0
        for object_id, satellites in placement.items():
            for satellite in satellites:
                self._store(satellite, object_id)
                stored += 1
        return stored

    def bubble_prefetch(
        self,
        popularity,
        t_s: float,
        objects_per_region: int = 10,
        max_region_distance_km: float = 1500.0,
    ) -> int:
        """Content-bubble pass: load each satellite with the region below it.

        For every satellite currently over a gazetteer region, prefetches
        that region's ``objects_per_region`` most popular objects into its
        cache (paper §5: bubbles form where the infrastructure moves but
        the content stays relevant). ``popularity`` is anything with
        ``regions()`` and ``top_objects(region, count)`` — the oracle
        :class:`~repro.spacecdn.bubbles.RegionalPopularity` or a
        :class:`~repro.spacecdn.prediction.LearnedPrefetcher`'s predictor.

        Returns the number of cache stores performed.
        """
        from repro.geo.datasets.cities import region_under

        if objects_per_region < 1:
            raise ConfigurationError("objects_per_region must be >= 1")
        known_regions = set(popularity.regions())
        tracks = self.constellation.subsatellite_points(t_s)
        stored = 0
        for satellite, (lat, lon) in enumerate(tracks):
            region = region_under(float(lat), float(lon), max_region_distance_km)
            if region is None or region not in known_regions:
                continue
            for object_id in popularity.top_objects(region, objects_per_region):
                if object_id not in self.cache_of(satellite):
                    self._store(satellite, object_id)
                    stored += 1
        return stored

    # -- time-aware topology -------------------------------------------------

    def snapshot_at(self, t_s: float) -> SnapshotGraph:
        """The ISL graph for the quantised instant containing ``t_s``."""
        if t_s < 0:
            raise ConfigurationError(f"negative time: {t_s}")
        slot = int(t_s // self.snapshot_interval_s)
        if slot != self._snapshot_slot or self._snapshot is None:
            self._snapshot = build_snapshot(
                self.constellation, slot * self.snapshot_interval_s
            )
            self._snapshot_slot = slot
        return self._snapshot

    # -- fault plumbing --------------------------------------------------------

    def _fault_state_at(self, snapshot: SnapshotGraph) -> tuple[FaultView, SnapshotGraph]:
        """The compiled fault view and degraded snapshot for the current slot.

        Compiled once per snapshot slot: the schedule's processes are
        sampled at the snapshot instant and turned into node/link masks
        over the shared CSR core. Newly-failed satellites lose their cache
        contents here when the schedule says outages wipe caches.
        """
        if self._fault_slot != self._snapshot_slot or self._degraded is None:
            view = self.fault_schedule.compile_at(
                snapshot.t_s, snapshot.core.topology.num_links
            )
            self._fault_view = view
            self._degraded = apply_fault_view(snapshot, view)
            self._fault_slot = self._snapshot_slot
            down = frozenset(
                s
                for s in view.failed_satellites
                if 0 <= s < len(self.constellation)
            )
            if self.fault_schedule.wipe_caches_on_outage:
                for satellite in sorted(down - self._down_prev):
                    self._wipe_cache(satellite)
            self._down_prev = down
        return self._fault_view, self._degraded

    def _wipe_cache(self, satellite: int) -> int:
        """Drop a satellite's cache contents (duty-cycle exit / power loss)."""
        cache = self._caches.get(satellite)
        if cache is None:
            return 0
        wiped = cache.object_ids()
        self._index.drop_satellite(satellite, wiped)
        cache.clear()
        return len(wiped)

    def _overload_fault_state(
        self, snapshot: SnapshotGraph
    ) -> tuple[FaultView, SnapshotGraph]:
        """The fault state the overloaded path runs over.

        With a real fault schedule this is the usual compiled slot state;
        without one (or with a load-only schedule) it is a clean view over
        the healthy snapshot — overload protection alone degrades no
        topology, it only meters admission onto it.
        """
        if self.fault_schedule is None or self.fault_schedule.is_empty:
            return FaultView(t_s=snapshot.t_s), snapshot
        return self._fault_state_at(snapshot)

    # -- the serve path -------------------------------------------------------

    def serve(
        self,
        user: GeoPoint,
        object_id: str,
        t_s: float,
        priority: int | None = None,
    ) -> ServedRequest:
        """Serve one request at simulated time ``t_s`` from ``user``.

        Resolution order (paper Fig. 6): access satellite's cache, nearest
        caching satellite within ``max_hops`` ISLs, ground fallback. Ground
        fetches populate the access satellite's cache (pull-through), which
        is how popularity organically builds the space tier.

        With a non-empty ``fault_schedule`` the request runs the degraded
        path instead: the same ladder, but over the fault-masked snapshot,
        with ``retry_policy`` bounding attempts and charging simulated
        backoff, and :class:`~repro.errors.UnavailableError` raised when no
        serving path survives.

        With an ``overload`` model the request runs the overloaded walk
        (which composes with any fault schedule): admission control per
        priority class, circuit breakers over the ladder's rungs, queueing
        delay added as utilisation rises, and the deadline budget bounding
        the whole walk. ``priority`` overrides the model's seeded class
        assignment (and is only meaningful with a model).
        :class:`~repro.errors.OverloadedError` marks requests refused by
        protection rather than faults.
        """
        self.catalog.get(object_id)  # validate early
        snapshot = self.snapshot_at(t_s)
        if self.overload is not None:
            view, degraded = self._overload_fault_state(snapshot)
            return self._serve_overloaded(
                user, object_id, t_s, snapshot, view, degraded, priority
            )
        if priority is not None:
            raise ConfigurationError(
                "request priorities require an overload model"
            )
        if self.fault_schedule is None or self.fault_schedule.is_empty:
            return self._serve_healthy(user, object_id, t_s, snapshot)
        view, degraded = self._fault_state_at(snapshot)
        return self._serve_degraded(user, object_id, t_s, snapshot, view, degraded)

    def _emit_serve_trace(
        self,
        rec,
        object_id: str,
        t_s: float,
        outcome: str,
        source: LookupSource | None,
        satellite: int | None,
        hops: int,
        rtt_ms: float | None,
        attempts: int,
        fallback_reason: str | None,
        attempt_log: list[dict] | None,
        view: FaultView | None,
        priority: int | None = None,
    ) -> None:
        """One ``serve`` root span plus its per-attempt children.

        Only ever called with an enabled recorder; the disabled path never
        reaches here, so instrumentation stays allocation-free by default.
        """
        span = rec.open_span(
            "serve",
            t_s=t_s,
            object_id=object_id,
            outcome=outcome,
            source=None if source is None else TIER_OF_SOURCE[source],
            satellite=satellite,
            hops=hops,
            rtt_ms=rtt_ms,
            attempts=attempts,
            fallback_reason=fallback_reason,
        )
        if priority is not None:
            span.set(priority=priority)
        if view is not None:
            span.set(
                faults_failed_satellites=len(view.failed_satellites),
                faults_cut_links=len(view.cut_links),
                faults_ground_down=view.ground_segment_down,
            )
        if attempt_log is None:
            # Healthy fast path: exactly one attempt, the successful rung.
            attempt_log = [
                {
                    "tier": TIER_OF_SOURCE[source],
                    "satellite": satellite,
                    "hops": hops,
                    "retry_index": 1,
                    "outcome": "served",
                    "rtt_contribution_ms": rtt_ms,
                }
            ]
        for entry in attempt_log:
            span.child("attempt", **entry)
            rec.inc(
                "repro_serve_attempts_total",
                (("tier", entry["tier"]), ("outcome", entry["outcome"])),
            )

    def _serve_healthy(
        self, user: GeoPoint, object_id: str, t_s: float, snapshot: SnapshotGraph
    ) -> ServedRequest:
        """The fault-free fast path (identical to the pre-fault behaviour)."""
        from repro.orbits.visibility import visible_satellites

        visible = visible_satellites(
            self.constellation, user, snapshot.t_s, self.min_elevation_deg
        )
        if not visible:
            raise ConfigurationError(
                f"no satellite visible from ({user.lat_deg:.1f}, {user.lon_deg:.1f})"
            )
        access = visible[0]
        access_rtt = 2.0 * access_latency_ms(access.slant_range_km)

        # Level 1: overhead satellite.
        if self.cache_of(access.index).get(object_id) is not None:
            return self._record(
                object_id,
                t_s,
                LookupSource.ACCESS_SATELLITE,
                access.index,
                0,
                access_rtt + CDN_SERVER_THINK_TIME_MS,
            )

        holders = self.holders_of(object_id)

        # Level 1b: any other *visible* holder — the terminal can beam to it
        # directly. Physically-near satellites on crossing planes can be
        # dozens of +Grid hops apart, so this check is not subsumed by the
        # ISL search below.
        for candidate in visible[1:]:
            if candidate.index in holders:
                self.cache_of(candidate.index).get(object_id)  # count the hit
                rtt = 2.0 * access_latency_ms(candidate.slant_range_km)
                return self._record(
                    object_id,
                    t_s,
                    LookupSource.DIRECT_VISIBLE,
                    candidate.index,
                    0,
                    rtt + CDN_SERVER_THINK_TIME_MS,
                )

        # Level 2: nearest caching satellite within the hop bound.
        found = self._nearest_holder(snapshot, access.index, holders)
        if found is not None:
            satellite, hops, isl_one_way = found
            self.cache_of(satellite).get(object_id)  # count the remote hit
            rtt = access_rtt + 2.0 * isl_one_way + CDN_SERVER_THINK_TIME_MS
            return self._record(
                object_id, t_s, LookupSource.ISL_NEIGHBOR, satellite, hops, rtt
            )

        # Level 3: ground fallback + pull-through insert.
        self._store(access.index, object_id)
        return self._record(
            object_id, t_s, LookupSource.GROUND, None, 0, self.ground_rtt_ms
        )

    def _fallback_ladder(
        self,
        degraded: SnapshotGraph,
        live_visible: list,
        object_id: str,
        rows: tuple | None = None,
    ) -> list[tuple[LookupSource, int, int, float]]:
        """Every live serving option for one request, cheapest-rung first.

        Entries are ``(source, satellite, hops, rtt_ms)`` in resolution
        order: access satellite, other directly visible holders, then the
        ISL ladder ranked by latency. Each satellite appears once, at its
        cheapest rung; failed satellites never appear (the degraded
        snapshot's mask removes them from every routing pass).

        ``rows`` optionally supplies the access satellite's precomputed
        masked ``(hops, latencies)`` single-source rows — the batched path
        computes them once per cohort instead of once per request.
        """
        holders = self.holders_of(object_id)
        if not holders:
            return []
        ladder: list[tuple[LookupSource, int, int, float]] = []
        seen: set[int] = set()
        access = live_visible[0]
        if access.index in holders:
            rtt = 2.0 * access_latency_ms(access.slant_range_km)
            ladder.append(
                (
                    LookupSource.ACCESS_SATELLITE,
                    access.index,
                    0,
                    rtt + CDN_SERVER_THINK_TIME_MS,
                )
            )
            seen.add(access.index)
        for candidate in live_visible[1:]:
            if candidate.index in holders and candidate.index not in seen:
                rtt = 2.0 * access_latency_ms(candidate.slant_range_km)
                ladder.append(
                    (
                        LookupSource.DIRECT_VISIBLE,
                        candidate.index,
                        0,
                        rtt + CDN_SERVER_THINK_TIME_MS,
                    )
                )
                seen.add(candidate.index)
        access_rtt = 2.0 * access_latency_ms(access.slant_range_km)
        if rows is not None:
            ranked = ranked_cached_from_rows(
                rows[0], rows[1], holders, self.max_hops,
                min_hops=1, exclude=frozenset(seen),
            )
        else:
            ranked = ranked_cached_satellites(
                degraded,
                access.index,
                holders,
                self.max_hops,
                min_hops=1,
                exclude=frozenset(seen),
            )
        for satellite, hops, isl_one_way in ranked:
            ladder.append(
                (
                    LookupSource.ISL_NEIGHBOR,
                    satellite,
                    hops,
                    access_rtt + 2.0 * isl_one_way + CDN_SERVER_THINK_TIME_MS,
                )
            )
        return ladder

    def _serve_degraded(
        self,
        user: GeoPoint,
        object_id: str,
        t_s: float,
        snapshot: SnapshotGraph,
        view: FaultView,
        degraded: SnapshotGraph,
    ) -> ServedRequest:
        """One request through the fallback ladder under the fault masks."""
        from repro.orbits.visibility import visible_satellites

        visible = visible_satellites(
            self.constellation, user, snapshot.t_s, self.min_elevation_deg
        )
        live_visible = [s for s in visible if degraded.has_satellite(s.index)]
        return self._serve_degraded_prepared(
            user, object_id, t_s, live_visible, view, degraded
        )

    def _serve_degraded_prepared(
        self,
        user: GeoPoint,
        object_id: str,
        t_s: float,
        live_visible: list,
        view: FaultView,
        degraded: SnapshotGraph,
        rows: tuple | None = None,
        attempt_counts=None,
        span: bool = True,
    ) -> ServedRequest:
        """The degraded attempt walk, over already-resolved visibility.

        Walks the ladder rung by rung: each tried rung is one attempt;
        attempts abandoned to the per-attempt RTT budget or to transient
        loss add simulated backoff and descend to the next rung. The ground
        rung (when the ground segment is up) absorbs the remaining retry
        budget. A request that exhausts the ladder or the budget raises
        :class:`~repro.errors.UnavailableError` — never anything else.

        The scalar path passes only the live visible list; the batched path
        additionally supplies precomputed masked routing ``rows`` for the
        access satellite, a per-cohort ``attempt_counts`` accumulator
        (``Counter[(tier, outcome)]``), and ``span=False`` to fold tracing
        into the cohort span.
        """
        policy = self.retry_policy
        request_index = self._request_counter
        self._request_counter += 1
        rec = get_recorder()
        attempt_log: list[dict] | None = (
            [] if (rec.enabled and span) else None
        )

        def _note(tier, satellite, hops, retry_index, outcome, contrib):
            if attempt_log is not None:
                attempt_log.append(
                    {
                        "tier": tier,
                        "satellite": satellite,
                        "hops": hops,
                        "retry_index": retry_index,
                        "outcome": outcome,
                        "rtt_contribution_ms": contrib,
                    }
                )
            if attempt_counts is not None:
                attempt_counts[(tier, outcome)] += 1

        if not live_visible:
            self.stats.unavailable += 1
            if rec.enabled:
                rec.inc("repro_serve_unavailable_total", (("reason", "no-sky"),))
                rec.window_inc(
                    t_s, "repro_serve_unavailable_total", (("reason", "no-sky"),)
                )
                if span:
                    self._emit_serve_trace(
                        rec, object_id, t_s, "unavailable", None, None, 0, None,
                        0, "no-sky", attempt_log, view,
                    )
            raise UnavailableError(
                f"no live satellite visible from ({user.lat_deg:.1f}, "
                f"{user.lon_deg:.1f}) under the active fault schedule"
            )
        access = live_visible[0]
        ladder = self._fallback_ladder(degraded, live_visible, object_id, rows)

        attempts = 0
        backoff_ms = 0.0
        reason: str | None = None
        for source, satellite, hops, rtt in ladder:
            if attempts >= policy.max_attempts:
                break
            attempts += 1
            if self.fault_schedule.attempt_lost(request_index, attempts):
                reason = "transient-loss"
                self.stats.timeouts += 1
                step_ms = policy.backoff_ms(attempts)
                backoff_ms += step_ms
                _note(
                    TIER_OF_SOURCE[source], satellite, hops, attempts,
                    "transient-loss", step_ms,
                )
                continue
            if not policy.within_budget(rtt):
                reason = "attempt-timeout"
                self.stats.timeouts += 1
                step_ms = policy.backoff_ms(attempts)
                backoff_ms += step_ms
                _note(
                    TIER_OF_SOURCE[source], satellite, hops, attempts,
                    "attempt-timeout", step_ms,
                )
                continue
            self.cache_of(satellite).get(object_id)  # count the hit
            self.stats.retries += attempts - 1
            _note(TIER_OF_SOURCE[source], satellite, hops, attempts, "served", rtt)
            return self._record(
                object_id,
                t_s,
                source,
                satellite,
                hops,
                rtt + backoff_ms,
                attempts=attempts,
                fallback_reason=reason,
                attempt_log=attempt_log,
                view=view,
                span=span,
            )

        # Ground rung: retried until the attempt budget runs out.
        ground_reason = "no-space-replica" if not ladder else "space-exhausted"
        while not view.ground_segment_down and attempts < policy.max_attempts:
            attempts += 1
            if self.fault_schedule.attempt_lost(request_index, attempts):
                reason = "transient-loss"
                self.stats.timeouts += 1
                step_ms = policy.backoff_ms(attempts)
                backoff_ms += step_ms
                _note("ground", None, 0, attempts, "transient-loss", step_ms)
                continue
            if not policy.within_budget(self.ground_rtt_ms):
                reason = "ground-timeout"
                self.stats.timeouts += 1
                step_ms = policy.backoff_ms(attempts)
                backoff_ms += step_ms
                _note("ground", None, 0, attempts, "ground-timeout", step_ms)
                continue
            self._store(access.index, object_id)
            self.stats.retries += attempts - 1
            _note("ground", None, 0, attempts, "served", self.ground_rtt_ms)
            return self._record(
                object_id,
                t_s,
                LookupSource.GROUND,
                None,
                0,
                self.ground_rtt_ms + backoff_ms,
                attempts=attempts,
                fallback_reason=reason if reason is not None else ground_reason,
                attempt_log=attempt_log,
                view=view,
                span=span,
            )

        self.stats.retries += max(0, attempts - 1)
        self.stats.unavailable += 1
        exhausted_reason = (
            "ground-down" if view.ground_segment_down else "budget-exhausted"
        )
        if rec.enabled:
            rec.inc(
                "repro_serve_unavailable_total", (("reason", exhausted_reason),)
            )
            rec.window_inc(
                t_s,
                "repro_serve_unavailable_total",
                (("reason", exhausted_reason),),
            )
            if span:
                self._emit_serve_trace(
                    rec, object_id, t_s, "unavailable", None, None, 0, None,
                    attempts, exhausted_reason, attempt_log, view,
                )
        if view.ground_segment_down:
            raise UnavailableError(
                f"object {object_id!r}: fallback ladder exhausted after "
                f"{attempts} attempt(s) and the ground segment is down"
            )
        raise UnavailableError(
            f"object {object_id!r}: retry budget exhausted after "
            f"{attempts} attempt(s)"
        )

    def _serve_overloaded(
        self,
        user: GeoPoint,
        object_id: str,
        t_s: float,
        snapshot: SnapshotGraph,
        view: FaultView,
        degraded: SnapshotGraph,
        priority: int | None = None,
    ) -> ServedRequest:
        """One request through the overload-protected fallback ladder."""
        from repro.orbits.visibility import visible_satellites

        visible = visible_satellites(
            self.constellation, user, snapshot.t_s, self.min_elevation_deg
        )
        live_visible = [s for s in visible if degraded.has_satellite(s.index)]
        return self._serve_overloaded_prepared(
            user, object_id, t_s, live_visible, view, degraded,
            priority=priority,
        )

    def _serve_overloaded_prepared(
        self,
        user: GeoPoint,
        object_id: str,
        t_s: float,
        live_visible: list,
        view: FaultView,
        degraded: SnapshotGraph,
        rows: tuple | None = None,
        attempt_counts=None,
        span: bool = True,
        priority: int | None = None,
        shed_log=None,
    ) -> ServedRequest:
        """The overload-protected attempt walk over resolved visibility.

        The degraded walk plus the four protections, applied per rung in
        this order: an open circuit breaker skips the rung *without*
        consuming a retry attempt (the client never contacts the target);
        admission control refuses at-capacity targets (a failed attempt:
        backoff is charged and the breaker records the refusal); transient
        loss and the per-attempt RTT budget behave exactly as on the
        degraded path; finally the deadline budget — charged every
        simulated backoff — must fit the rung's queue-inflated RTT or the
        walk ends immediately (rungs are cheapest-first, so nothing later
        could fit either). Served requests pay the M/M/1 queueing delay of
        their target on top of the propagation RTT.

        Exhaustion raises :class:`~repro.errors.OverloadedError` when
        protection refused the request (reason ``"deadline"``,
        ``"admission"`` or ``"breaker-open"``, in that precedence) and
        plain :class:`~repro.errors.UnavailableError` when only faults did.
        ``shed_log`` is the batched path's ``Counter[(priority, reason)]``
        accumulator behind the cohort span's shed children.
        """
        model = self.overload
        policy = self.retry_policy
        schedule = self.fault_schedule
        request_index = self._request_counter
        self._request_counter += 1
        model.begin_slot(
            self._snapshot_slot, degraded.t_s, len(self.constellation), schedule
        )
        if priority is None:
            priority = model.priority_of(request_index)
        else:
            priority = model.validate_priority(priority)
        deadline = model.deadline_budget()
        rec = get_recorder()
        attempt_log: list[dict] | None = (
            [] if (rec.enabled and span) else None
        )

        def _note(tier, satellite, hops, retry_index, outcome, contrib):
            if attempt_log is not None:
                attempt_log.append(
                    {
                        "tier": tier,
                        "satellite": satellite,
                        "hops": hops,
                        "retry_index": retry_index,
                        "outcome": outcome,
                        "rtt_contribution_ms": contrib,
                    }
                )
            if attempt_counts is not None:
                attempt_counts[(tier, outcome)] += 1

        if not live_visible:
            self.stats.unavailable += 1
            if rec.enabled:
                rec.inc("repro_serve_unavailable_total", (("reason", "no-sky"),))
                rec.window_inc(
                    t_s, "repro_serve_unavailable_total", (("reason", "no-sky"),)
                )
                if span:
                    self._emit_serve_trace(
                        rec, object_id, t_s, "unavailable", None, None, 0, None,
                        0, "no-sky", attempt_log, view, priority=priority,
                    )
            raise UnavailableError(
                f"no live satellite visible from ({user.lat_deg:.1f}, "
                f"{user.lon_deg:.1f}) under the active fault schedule"
            )
        access = live_visible[0]
        ladder = self._fallback_ladder(degraded, live_visible, object_id, rows)

        attempts = 0
        backoff_ms = 0.0
        reason: str | None = None
        admission_refused = False
        breaker_skipped = False
        deadline_hit = False

        def _failed_attempt(breaker) -> float:
            """Backoff, deadline charge, and breaker bookkeeping: one step."""
            step_ms = policy.backoff_ms(attempts)
            deadline.charge(step_ms)
            if breaker is not None:
                breaker.record_failure(t_s)
            return step_ms

        for source, satellite, hops, rtt in ladder:
            if attempts >= policy.max_attempts or deadline_hit:
                break
            tier = TIER_OF_SOURCE[source]
            breaker = model.breaker_for(satellite)
            if breaker is not None and not breaker.allow(t_s):
                breaker_skipped = True
                _note(tier, satellite, hops, attempts, "breaker-open", 0.0)
                continue
            attempts += 1
            if not model.admit(satellite, priority):
                admission_refused = True
                step_ms = _failed_attempt(breaker)
                backoff_ms += step_ms
                _note(tier, satellite, hops, attempts, "admission-reject", step_ms)
                if rec.enabled:
                    rec.inc(
                        "repro_overload_rejections_total",
                        (("class", str(priority)),),
                    )
                continue
            if schedule is not None and schedule.attempt_lost(
                request_index, attempts
            ):
                reason = "transient-loss"
                self.stats.timeouts += 1
                step_ms = _failed_attempt(breaker)
                backoff_ms += step_ms
                _note(tier, satellite, hops, attempts, "transient-loss", step_ms)
                continue
            queue_ms = model.queue_delay_ms(satellite)
            rung_rtt = rtt + queue_ms
            if not policy.within_budget(rung_rtt):
                reason = "attempt-timeout"
                self.stats.timeouts += 1
                step_ms = _failed_attempt(breaker)
                backoff_ms += step_ms
                _note(tier, satellite, hops, attempts, "attempt-timeout", step_ms)
                continue
            if not deadline.allows(rung_rtt):
                deadline_hit = True
                _note(tier, satellite, hops, attempts, "deadline-exhausted", 0.0)
                break
            self.cache_of(satellite).get(object_id)  # count the hit
            if breaker is not None:
                breaker.record_success(t_s)
            model.note_served(satellite)
            self.stats.retries += attempts - 1
            _note(tier, satellite, hops, attempts, "served", rung_rtt)
            if rec.enabled:
                rec.inc(
                    "repro_overload_admitted_total", (("class", str(priority)),)
                )
                rec.observe(
                    "repro_overload_queue_delay_ms",
                    queue_ms,
                    buckets=OVERLOAD_QUEUE_BUCKETS_MS,
                )
            return self._record(
                object_id,
                t_s,
                source,
                satellite,
                hops,
                rung_rtt + backoff_ms,
                attempts=attempts,
                fallback_reason=reason,
                attempt_log=attempt_log,
                view=view,
                span=span,
                priority=priority,
            )

        # Ground rung: retried until the attempt budget runs out.
        ground_reason = "no-space-replica" if not ladder else "space-exhausted"
        ground_breaker = model.breaker_for(GROUND_TARGET)
        while (
            not deadline_hit
            and not view.ground_segment_down
            and attempts < policy.max_attempts
        ):
            if ground_breaker is not None and not ground_breaker.allow(t_s):
                breaker_skipped = True
                _note("ground", None, 0, attempts, "breaker-open", 0.0)
                break  # an open breaker stays open for this whole walk
            attempts += 1
            if not model.admit(None, priority):
                admission_refused = True
                step_ms = _failed_attempt(ground_breaker)
                backoff_ms += step_ms
                _note("ground", None, 0, attempts, "admission-reject", step_ms)
                if rec.enabled:
                    rec.inc(
                        "repro_overload_rejections_total",
                        (("class", str(priority)),),
                    )
                continue
            if schedule is not None and schedule.attempt_lost(
                request_index, attempts
            ):
                reason = "transient-loss"
                self.stats.timeouts += 1
                step_ms = _failed_attempt(ground_breaker)
                backoff_ms += step_ms
                _note("ground", None, 0, attempts, "transient-loss", step_ms)
                continue
            queue_ms = model.queue_delay_ms(None)
            rung_rtt = self.ground_rtt_ms + queue_ms
            if not policy.within_budget(rung_rtt):
                reason = "ground-timeout"
                self.stats.timeouts += 1
                step_ms = _failed_attempt(ground_breaker)
                backoff_ms += step_ms
                _note("ground", None, 0, attempts, "ground-timeout", step_ms)
                continue
            if not deadline.allows(rung_rtt):
                deadline_hit = True
                _note("ground", None, 0, attempts, "deadline-exhausted", 0.0)
                break
            self._store(access.index, object_id)
            if ground_breaker is not None:
                ground_breaker.record_success(t_s)
            model.note_served(None)
            self.stats.retries += attempts - 1
            _note("ground", None, 0, attempts, "served", rung_rtt)
            if rec.enabled:
                rec.inc(
                    "repro_overload_admitted_total", (("class", str(priority)),)
                )
                rec.observe(
                    "repro_overload_queue_delay_ms",
                    queue_ms,
                    buckets=OVERLOAD_QUEUE_BUCKETS_MS,
                )
            return self._record(
                object_id,
                t_s,
                LookupSource.GROUND,
                None,
                0,
                rung_rtt + backoff_ms,
                attempts=attempts,
                fallback_reason=reason if reason is not None else ground_reason,
                attempt_log=attempt_log,
                view=view,
                span=span,
                priority=priority,
            )

        self.stats.retries += max(0, attempts - 1)
        if deadline_hit or admission_refused or breaker_skipped:
            shed_reason = (
                "deadline"
                if deadline_hit
                else "admission" if admission_refused else "breaker-open"
            )
            self.stats.shed += 1
            if deadline_hit:
                self.stats.deadline_exhausted += 1
            if shed_log is not None:
                shed_log[(priority, shed_reason)] += 1
            if rec.enabled:
                rec.inc(
                    "repro_overload_shed_total",
                    (("class", str(priority)), ("reason", shed_reason)),
                )
                rec.window_inc(
                    t_s,
                    "repro_overload_shed_total",
                    (("class", str(priority)), ("reason", shed_reason)),
                )
                if span:
                    self._emit_serve_trace(
                        rec, object_id, t_s, "shed", None, None, 0, None,
                        attempts, shed_reason, attempt_log, view,
                        priority=priority,
                    )
            error = OverloadedError(
                f"object {object_id!r}: shed by overload protection "
                f"({shed_reason}, class {priority}) after {attempts} attempt(s)"
            )
            error.reason = shed_reason
            error.priority_class = priority
            raise error
        self.stats.unavailable += 1
        exhausted_reason = (
            "ground-down" if view.ground_segment_down else "budget-exhausted"
        )
        if rec.enabled:
            rec.inc(
                "repro_serve_unavailable_total", (("reason", exhausted_reason),)
            )
            rec.window_inc(
                t_s,
                "repro_serve_unavailable_total",
                (("reason", exhausted_reason),),
            )
            if span:
                self._emit_serve_trace(
                    rec, object_id, t_s, "unavailable", None, None, 0, None,
                    attempts, exhausted_reason, attempt_log, view,
                    priority=priority,
                )
        if view.ground_segment_down:
            raise UnavailableError(
                f"object {object_id!r}: fallback ladder exhausted after "
                f"{attempts} attempt(s) and the ground segment is down"
            )
        raise UnavailableError(
            f"object {object_id!r}: retry budget exhausted after "
            f"{attempts} attempt(s)"
        )

    def serve_request(self, request: Request) -> ServedRequest:
        """Serve one workload :class:`~repro.workloads.requests.Request`."""
        return self.serve(request.city.location, request.object_id, request.t_s)

    # -- the batched serve path ------------------------------------------------

    def serve_batch(
        self,
        users: Sequence[GeoPoint],
        object_ids: Sequence[str],
        t_s: float | Sequence[float],
        continue_on_unavailable: bool = False,
        priorities: Sequence[int] | None = None,
    ) -> list[ServedRequest | None]:
        """Serve a whole cohort of requests sharing one snapshot epoch.

        Element-wise equivalent to calling :meth:`serve` for each
        ``(users[i], object_ids[i], t_s[i])`` in order — same results, same
        cache/stat/fault-determinism side effects — but the per-request
        O(N) work is hoisted to per-cohort array passes: one visibility
        matrix over the unique users, one routing pass over the unique
        access satellites (masked once for the whole cohort under faults),
        and cache lookups as membership tests against the holders bitmap.
        Cohort-time cache mutations (pull-through stores, evictions, LRU
        churn) are applied in request order against the real caches; the
        incremental dirty tracking of
        :class:`~repro.cdn.cache.HoldersIndex` re-resolves only the
        requests whose holder sets changed mid-cohort.

        ``t_s`` may be a scalar (the whole cohort at one instant) or a
        per-request sequence; all times must land in the *same* snapshot
        slot — :meth:`run` with ``batch=True`` does the slot grouping.

        Returns one entry per request, in order. Under a fault schedule
        with ``continue_on_unavailable``, requests that exhaust the ladder
        keep their slot as ``None`` (they are counted in
        ``stats.unavailable``, exactly as the scalar path counts them);
        without it the first such request raises
        :class:`~repro.errors.UnavailableError` after the preceding
        requests' effects are applied, as the scalar loop would.

        With an enabled recorder the cohort emits one ``serve_cohort``
        trace span carrying per-rung attempt counts (instead of one span
        per request), while per-request counters and the RTT histogram
        stay identical to scalar serving.

        With an ``overload`` model the cohort runs the overloaded walk per
        request (element-wise identical to scalar :meth:`serve`, shed
        requests included); ``continue_on_unavailable`` keeps shed
        requests as ``None`` slots too, since
        :class:`~repro.errors.OverloadedError` is an
        :class:`~repro.errors.UnavailableError`. ``priorities`` optionally
        fixes each request's admission class (requires the model; default
        is the model's seeded assignment). The cohort span gains a
        ``shed`` attribute and per-class ``shed`` children.
        """
        num = len(users)
        if len(object_ids) != num:
            raise ConfigurationError(
                f"cohort mismatch: {num} users but {len(object_ids)} object ids"
            )
        if num == 0:
            return []
        if isinstance(t_s, (int, float)):
            times = [float(t_s)] * num
        else:
            times = [float(t) for t in t_s]
            if len(times) != num:
                raise ConfigurationError(
                    f"cohort mismatch: {num} users but {len(times)} times"
                )
        snapshot = self.snapshot_at(times[0])
        slot = self._snapshot_slot
        for t in times:
            if t < 0:
                raise ConfigurationError(f"negative time: {t}")
            if int(t // self.snapshot_interval_s) != slot:
                raise ConfigurationError(
                    "cohort spans multiple snapshot slots; split it at "
                    "snapshot boundaries (run(batch=True) does this)"
                )
        overloaded_mode = self.overload is not None
        degraded_mode = (
            self.fault_schedule is not None and not self.fault_schedule.is_empty
        )
        if overloaded_mode:
            view, degraded = self._overload_fault_state(snapshot)
        elif degraded_mode:
            view, degraded = self._fault_state_at(snapshot)
        if priorities is not None:
            if not overloaded_mode:
                raise ConfigurationError(
                    "request priorities require an overload model"
                )
            if len(priorities) != num:
                raise ConfigurationError(
                    f"cohort mismatch: {num} users but "
                    f"{len(priorities)} priorities"
                )

        from repro.orbits.visibility import visible_satellites_batch

        u_of: dict[GeoPoint, int] = {}
        u_idx = np.empty(num, dtype=np.int64)
        unique_users: list[GeoPoint] = []
        for r, user in enumerate(users):
            i = u_of.get(user)
            if i is None:
                i = len(unique_users)
                u_of[user] = i
                unique_users.append(user)
            u_idx[r] = i
        vb = visible_satellites_batch(
            self.constellation, unique_users, snapshot.t_s, self.min_elevation_deg
        )

        rec = get_recorder()
        counts: Counter | None = Counter() if rec.enabled else None
        shed_counts: Counter | None = (
            Counter() if (rec.enabled and overloaded_mode) else None
        )
        results: list[ServedRequest | None] = []
        try:
            if overloaded_mode:
                self._serve_batch_overloaded(
                    users, object_ids, times, u_idx, vb, view, degraded,
                    counts, continue_on_unavailable, results, priorities,
                    shed_counts,
                )
            elif degraded_mode:
                self._serve_batch_degraded(
                    users, object_ids, times, u_idx, vb, view, degraded,
                    counts, continue_on_unavailable, results,
                )
            else:
                self._serve_batch_healthy(
                    users, object_ids, times, u_idx, vb, snapshot,
                    counts, results,
                )
        finally:
            if rec.enabled:
                none_slots = sum(1 for r in results if r is None)
                shed_total = (
                    sum(shed_counts.values()) if shed_counts is not None else 0
                )
                mode = (
                    "overloaded"
                    if overloaded_mode
                    else "degraded" if degraded_mode else "healthy"
                )
                span = rec.open_span(
                    "serve_cohort",
                    t_s=times[0],
                    size=num,
                    served=len(results) - none_slots,
                    unavailable=max(0, none_slots - shed_total),
                    mode=mode,
                )
                if shed_counts is not None:
                    span.set(shed=shed_total)
                    for (cls, shed_reason), count in sorted(shed_counts.items()):
                        span.child(
                            "shed",
                            priority=cls,
                            reason=shed_reason,
                            count=count,
                        )
                for (tier, outcome), count in sorted(counts.items()):
                    span.child("rung", tier=tier, outcome=outcome, count=count)
                    rec.inc(
                        "repro_serve_attempts_total",
                        (("tier", tier), ("outcome", outcome)),
                        count,
                    )
        return results

    def _serve_batch_healthy(
        self,
        users: Sequence[GeoPoint],
        object_ids: Sequence[str],
        times: list[float],
        u_idx: np.ndarray,
        vb,
        snapshot: SnapshotGraph,
        counts: Counter | None,
        results: list,
    ) -> None:
        """The fault-free cohort: vectorised decisions, in-order application.

        Three phases. (1) Per-cohort matrices: access pick and routing rows
        per unique user, the holders bitmap over the cohort's unique
        objects. (2) A provisional vectorised ladder decision per unique
        ``(user, object)`` pair against cohort-start holders — masked
        first-hit for the direct-visible rung, masked argmin for the ISL
        rung. (3) The in-order apply loop performing the *same* cache
        operations as scalar serving; a request whose object's holders
        changed mid-cohort (pull-through store or eviction, tracked by the
        index's dirty set) ignores its provisional decision and re-resolves
        from the live index against the same routing rows.
        """
        core = snapshot.core
        n = core.num_nodes
        num = len(object_ids)
        num_u = vb.num_points

        acc_of_u = np.where(vb.count > 0, vb.order[:, 0], -1)
        seen_acc = np.unique(acc_of_u[acc_of_u >= 0]).tolist()
        if seen_acc:
            hops_m, lats_m = fastcore.single_source_batch(
                core, seen_acc, snapshot.active_mask, max_hops=self.max_hops
            )
        else:
            hops_m = np.empty((0, n), dtype=np.int32)
            lats_m = np.empty((0, n))
        row_of_acc = {a: i for i, a in enumerate(seen_acc)}
        accrow_of_u = np.fromiter(
            (row_of_acc.get(int(a), -1) for a in acc_of_u),
            dtype=np.int64,
            count=num_u,
        )

        o_of: dict[str, int] = {}
        o_idx = np.empty(num, dtype=np.int64)
        unique_oids: list[str] = []
        for r, oid in enumerate(object_ids):
            i = o_of.get(oid)
            if i is None:
                i = len(unique_oids)
                o_of[oid] = i
                unique_oids.append(oid)
            o_idx[r] = i
        holders_m = self._index.holders_matrix(unique_oids, n)

        # The direct-visible rung scans the padded visibility table past
        # column 0 (the access satellite), as scalar serving does.
        valid = np.arange(vb.order.shape[1]) < vb.count[:, None]
        valid[:, 0] = False

        num_o = len(unique_oids)
        codes = u_idx * num_o + o_idx
        pair_codes, pair_of_r = np.unique(codes, return_inverse=True)
        pair_u = (pair_codes // num_o).astype(np.int64)
        pair_o = (pair_codes % num_o).astype(np.int64)
        p_total = len(pair_codes)
        p_src = np.full(p_total, 3, dtype=np.int8)  # 1 direct / 2 isl / 3 ground
        p_sat = np.full(p_total, -1, dtype=np.int64)
        p_hops = np.zeros(p_total, dtype=np.int64)
        p_dist = np.zeros(p_total)  # direct: slant km / isl: one-way ms
        chunk = 2048  # bounds the (chunk, N) work arrays to a few tens of MB
        if seen_acc:
            for lo in range(0, p_total, chunk):
                hi = min(lo + chunk, p_total)
                cu = pair_u[lo:hi]
                hp = holders_m[pair_o[lo:hi]]  # (C, N) cohort-start copy
                rows_ord = vb.order[cu]
                vis_hold = np.take_along_axis(hp, rows_ord, axis=1) & valid[cu]
                has_direct = vis_hold.any(axis=1)
                arange_c = np.arange(hi - lo)
                direct_col = vis_hold.argmax(axis=1)
                direct_sat = rows_ord[arange_c, direct_col]
                rowsel = accrow_of_u[cu]
                safe_row = np.where(rowsel >= 0, rowsel, 0)
                hops_c = hops_m[safe_row]
                lats_c = lats_m[safe_row]
                found, best = nearest_cached_batch(
                    hops_c, lats_c, hp, self.max_hops, min_hops=1
                )
                found &= rowsel >= 0
                p_src[lo:hi] = np.where(has_direct, 1, np.where(found, 2, 3))
                p_sat[lo:hi] = np.where(
                    has_direct, direct_sat, np.where(found, best, -1)
                )
                direct_rows = np.flatnonzero(has_direct)
                p_dist[lo + direct_rows] = vb.slant_km[
                    cu[direct_rows], direct_col[direct_rows]
                ]
                isl_rows = np.flatnonzero(~has_direct & found)
                p_hops[lo + isl_rows] = hops_c[isl_rows, best[isl_rows]]
                p_dist[lo + isl_rows] = lats_c[isl_rows, best[isl_rows]]

        dirty = self._index.dirty_objects
        think = CDN_SERVER_THINK_TIME_MS
        for r in range(num):
            oid = object_ids[r]
            t = times[r]
            self.catalog.get(oid)  # validate early, in request order
            u = int(u_idx[r])
            if vb.count[u] == 0:
                user = users[r]
                raise ConfigurationError(
                    f"no satellite visible from "
                    f"({user.lat_deg:.1f}, {user.lon_deg:.1f})"
                )
            acc = int(acc_of_u[u])
            access_rtt = 2.0 * access_latency_ms(float(vb.slant_km[u, 0]))

            # Rung 1: the access satellite's cache, straight off the real
            # cache (also records the hit/miss and the LRU touch scalar
            # serving records).
            if self.cache_of(acc).get(oid) is not None:
                if counts is not None:
                    counts[("access", "served")] += 1
                results.append(
                    self._record(
                        oid, t, LookupSource.ACCESS_SATELLITE, acc, 0,
                        access_rtt + think, span=False,
                    )
                )
                continue

            if oid in dirty:
                src, sat, hops, dist = self._healthy_decision_from_rows(
                    oid, u, vb, accrow_of_u, hops_m, lats_m
                )
            else:
                p = pair_of_r[r]
                src = int(p_src[p])
                sat = int(p_sat[p])
                hops = int(p_hops[p])
                dist = float(p_dist[p])

            if src == 1:
                self.cache_of(sat).get(oid)  # count the hit
                rtt = 2.0 * access_latency_ms(dist) + think
                if counts is not None:
                    counts[("direct-visible", "served")] += 1
                results.append(
                    self._record(
                        oid, t, LookupSource.DIRECT_VISIBLE, sat, 0, rtt,
                        span=False,
                    )
                )
            elif src == 2:
                self.cache_of(sat).get(oid)  # count the remote hit
                rtt = access_rtt + 2.0 * dist + think
                if counts is not None:
                    counts[("isl", "served")] += 1
                results.append(
                    self._record(
                        oid, t, LookupSource.ISL_NEIGHBOR, sat, hops, rtt,
                        span=False,
                    )
                )
            else:
                self._store(acc, oid)
                if counts is not None:
                    counts[("ground", "served")] += 1
                results.append(
                    self._record(
                        oid, t, LookupSource.GROUND, None, 0,
                        self.ground_rtt_ms, span=False,
                    )
                )

    def _healthy_decision_from_rows(
        self,
        object_id: str,
        u: int,
        vb,
        accrow_of_u: np.ndarray,
        hops_m: np.ndarray,
        lats_m: np.ndarray,
    ) -> tuple[int, int, int, float]:
        """Re-resolve one dirty request from the live index.

        Mirrors scalar :meth:`_serve_healthy` below the access rung:
        first directly visible holder in ascending slant order, else masked
        nearest ISL holder from the access satellite's precomputed routing
        rows, else ground. Returns ``(src, satellite, hops, dist)`` with
        ``src`` using the provisional encoding (1/2/3) and ``dist`` the
        direct satellite's slant km or the ISL holder's one-way ms.
        """
        holders = self._index.holder_set(object_id)
        if holders:
            k = int(vb.count[u])
            for col, cand in enumerate(vb.order[u, 1:k].tolist(), start=1):
                if cand in holders:
                    return 1, cand, 0, float(vb.slant_km[u, col])
            row = int(accrow_of_u[u])
            found = nearest_cached_from_rows(
                hops_m[row], lats_m[row], holders, self.max_hops, min_hops=1
            )
            if found is not None:
                return 2, found[0], found[1], found[2]
        return 3, -1, 0, 0.0

    def _serve_batch_degraded(
        self,
        users: Sequence[GeoPoint],
        object_ids: Sequence[str],
        times: list[float],
        u_idx: np.ndarray,
        vb,
        view: FaultView,
        degraded: SnapshotGraph,
        counts: Counter | None,
        continue_on_unavailable: bool,
        results: list,
    ) -> None:
        """The faulted cohort: shared masked routing, per-request walks.

        The expensive parts of scalar degraded serving are per-request
        visibility and the *masked* routing pass (never memoised, since
        failure sets vary) — both are hoisted here to one pass per unique
        user / unique access satellite. The attempt walk itself stays
        per-request (it is inherently sequential: the fault schedule's
        transient losses are deterministic in request order) and runs the
        exact scalar code over the precomputed rows.
        """
        live_of_u = vb.visible_lists(degraded.active_mask)
        accs = sorted({lv[0].index for lv in live_of_u if lv})
        row_of_acc: dict[int, int] = {}
        if accs:
            hops_m, lats_m = fastcore.single_source_batch(
                degraded.core, accs, degraded.active_mask, max_hops=self.max_hops
            )
            row_of_acc = {a: i for i, a in enumerate(accs)}
        for r in range(len(object_ids)):
            oid = object_ids[r]
            self.catalog.get(oid)  # validate early, in request order
            lv = live_of_u[int(u_idx[r])]
            rows = None
            if lv:
                i = row_of_acc[lv[0].index]
                rows = (hops_m[i], lats_m[i])
            try:
                results.append(
                    self._serve_degraded_prepared(
                        users[r], oid, times[r], lv, view, degraded,
                        rows=rows, attempt_counts=counts, span=False,
                    )
                )
            except UnavailableError:
                if not continue_on_unavailable:
                    raise
                results.append(None)

    def _serve_batch_overloaded(
        self,
        users: Sequence[GeoPoint],
        object_ids: Sequence[str],
        times: list[float],
        u_idx: np.ndarray,
        vb,
        view: FaultView,
        degraded: SnapshotGraph,
        counts: Counter | None,
        continue_on_unavailable: bool,
        results: list,
        priorities: Sequence[int] | None,
        shed_counts: Counter | None,
    ) -> None:
        """The overloaded cohort: shared masked routing, per-request walks.

        Structurally the degraded cohort — visibility and the access
        satellites' routing rows are hoisted to one pass each — but every
        request runs the overload-protected walk. The walk is inherently
        sequential (admission counters fill and breakers trip in request
        order), which is exactly why running it over precomputed rows
        stays element-wise identical to scalar serving. Shed requests
        (:class:`~repro.errors.OverloadedError` is an
        :class:`~repro.errors.UnavailableError`) become ``None`` slots
        under ``continue_on_unavailable``.
        """
        live_of_u = vb.visible_lists(degraded.active_mask)
        accs = sorted({lv[0].index for lv in live_of_u if lv})
        row_of_acc: dict[int, int] = {}
        if accs:
            hops_m, lats_m = fastcore.single_source_batch(
                degraded.core, accs, degraded.active_mask, max_hops=self.max_hops
            )
            row_of_acc = {a: i for i, a in enumerate(accs)}
        for r in range(len(object_ids)):
            oid = object_ids[r]
            self.catalog.get(oid)  # validate early, in request order
            lv = live_of_u[int(u_idx[r])]
            rows = None
            if lv:
                i = row_of_acc[lv[0].index]
                rows = (hops_m[i], lats_m[i])
            try:
                results.append(
                    self._serve_overloaded_prepared(
                        users[r], oid, times[r], lv, view, degraded,
                        rows=rows, attempt_counts=counts, span=False,
                        priority=None if priorities is None else priorities[r],
                        shed_log=shed_counts,
                    )
                )
            except UnavailableError:
                if not continue_on_unavailable:
                    raise
                results.append(None)

    def run(
        self,
        requests: list[Request],
        continue_on_unavailable: bool = False,
        batch: bool = False,
    ) -> list[ServedRequest]:
        """Serve a whole request stream (must be time-ordered).

        With ``continue_on_unavailable`` the stream survives requests that
        raise :class:`~repro.errors.UnavailableError` under a fault
        schedule — they are counted in ``stats.unavailable`` and skipped,
        which is what availability experiments want.

        With ``batch`` the stream is grouped into per-snapshot-slot cohorts
        resolved through :meth:`serve_batch`; results and state are
        element-wise identical to the scalar loop, just much faster.
        """
        if batch:
            return self._run_batched(requests, continue_on_unavailable)
        last_t = -1.0
        results = []
        for request in requests:
            if request.t_s < last_t:
                raise ConfigurationError("request stream is not time-ordered")
            last_t = request.t_s
            try:
                results.append(self.serve_request(request))
            except UnavailableError:
                if not continue_on_unavailable:
                    raise
        return results

    def _run_batched(
        self, requests: list[Request], continue_on_unavailable: bool
    ) -> list[ServedRequest]:
        """Slot-grouped cohort serving behind :meth:`run`'s ``batch`` flag."""
        results: list[ServedRequest] = []
        group_users: list[GeoPoint] = []
        group_oids: list[str] = []
        group_ts: list[float] = []
        group_slot: int | None = None
        last_t = -1.0

        def flush() -> None:
            if not group_users:
                return
            served = self.serve_batch(
                group_users,
                group_oids,
                group_ts,
                continue_on_unavailable=continue_on_unavailable,
            )
            results.extend(r for r in served if r is not None)
            group_users.clear()
            group_oids.clear()
            group_ts.clear()

        for request in requests:
            if request.t_s < last_t:
                flush()  # the stream up to here served, as scalar would
                raise ConfigurationError("request stream is not time-ordered")
            last_t = request.t_s
            slot = int(request.t_s // self.snapshot_interval_s)
            if group_slot is not None and slot != group_slot:
                flush()
            group_slot = slot
            group_users.append(request.city.location)
            group_oids.append(request.object_id)
            group_ts.append(request.t_s)
        flush()
        return results

    def _nearest_holder(
        self, snapshot: SnapshotGraph, access: int, holders: frozenset[int]
    ) -> tuple[int, int, float] | None:
        return nearest_cached_satellite(
            snapshot, access, holders, self.max_hops, min_hops=1
        )

    def _record(
        self,
        object_id: str,
        t_s: float,
        source: LookupSource,
        satellite: int | None,
        hops: int,
        rtt_ms: float,
        attempts: int = 1,
        fallback_reason: str | None = None,
        attempt_log: list[dict] | None = None,
        view: FaultView | None = None,
        span: bool = True,
        priority: int | None = None,
    ) -> ServedRequest:
        if source is LookupSource.ACCESS_SATELLITE:
            self.stats.access_hits += 1
        elif source is LookupSource.DIRECT_VISIBLE:
            self.stats.direct_hits += 1
        elif source is LookupSource.ISL_NEIGHBOR:
            self.stats.isl_hits += 1
        else:
            self.stats.ground_fetches += 1
        self.stats.rtt_samples_ms.append(rtt_ms)
        rec = get_recorder()
        if rec.enabled:
            tier = TIER_OF_SOURCE[source]
            labels = _TIER_LABELS[tier]
            rec.inc("repro_serve_total", labels)
            rec.observe("repro_serve_rtt_ms", rtt_ms, labels)
            # Windowed twins of the scalar series, keyed by the request's
            # *simulated* arrival time — the temporal axis behind
            # ``repro obs timeline`` / ``repro obs slo``.
            rec.window_inc(t_s, "repro_serve_total", labels)
            rec.window_observe(t_s, "repro_serve_rtt_ms", rtt_ms, labels)
            if fallback_reason is None:
                rec.window_inc(t_s, "repro_serve_hit_total", labels)
            if attempts > 1:
                rec.window_inc(
                    t_s, "repro_serve_retries_total", value=float(attempts - 1)
                )
            if fallback_reason is not None:
                rec.inc(
                    "repro_serve_fallback_total", (("reason", fallback_reason),)
                )
            if span:
                # Batched serving suppresses the per-request span: the
                # cohort emits one ``serve_cohort`` span with per-rung
                # attempt counts instead (per-request counters and the RTT
                # histogram above are identical either way).
                self._emit_serve_trace(
                    rec, object_id, t_s, "served", source, satellite, hops,
                    rtt_ms, attempts, fallback_reason, attempt_log, view,
                    priority=priority,
                )
        return ServedRequest(
            object_id=object_id,
            t_s=t_s,
            source=source,
            serving_satellite=satellite,
            isl_hops=hops,
            rtt_ms=rtt_ms,
            attempts=attempts,
            fallback_reason=fallback_reason,
            priority=priority,
        )
