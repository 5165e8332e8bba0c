"""Hop-bounded SpaceCDN content lookup (paper Fig. 6).

Resolution order for a user request:

1. the access satellite's own cache ("1st/Sat" in Fig. 7);
2. the minimum-latency caching satellite within ``max_hops`` ISL hops;
3. fallback: down the bent pipe to the ground cache near the gateway.

The returned latencies are one-way path latencies from the user terminal;
callers double them (plus server think time) for RTTs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.constants import MIN_ELEVATION_USER_DEG
from repro.errors import ContentNotFoundError, RoutingError
from repro.geo.coordinates import GeoPoint
from repro.orbits.visibility import nearest_visible_satellite
from repro.topology import fastcore
from repro.topology.graph import SnapshotGraph, access_latency_ms


def nearest_cached_satellite(
    snapshot: SnapshotGraph,
    access_satellite: int,
    cache_satellites: frozenset[int],
    max_hops: int,
    min_hops: int = 0,
) -> tuple[int, int, float] | None:
    """(satellite, hops, one-way ISL ms) of the cheapest in-range cache.

    One hop-bounded routing pass over the CSR core (the same kernel the
    batched serve path uses): hop counts bound the candidate set, latency
    picks the winner (lowest index on exact ties). Satellites
    outside the snapshot (or failed) never qualify. Returns ``None`` when
    no cache is within ``max_hops``.
    """
    if not cache_satellites:
        return None
    hops, latencies = fastcore.single_source(
        snapshot.core, access_satellite, snapshot.active_mask, max_hops=max_hops
    )
    return nearest_cached_from_rows(
        hops, latencies, cache_satellites, max_hops, min_hops
    )


def nearest_cached_from_rows(
    hops: np.ndarray,
    latencies: np.ndarray,
    cache_satellites: frozenset[int] | set[int],
    max_hops: int,
    min_hops: int = 0,
) -> tuple[int, int, float] | None:
    """:func:`nearest_cached_satellite` over precomputed routing rows.

    ``hops``/``latencies`` are the ``(N,)`` single-source rows of the access
    satellite (already masked for failures by the routing kernel). This is
    the reference the batched :func:`nearest_cached_batch` is tested
    against.
    """
    num_nodes = hops.shape[0]
    candidates = np.fromiter(
        (s for s in sorted(cache_satellites) if 0 <= s < num_nodes),
        dtype=np.int64,
    )
    if candidates.size == 0:
        return None
    cand_hops = hops[candidates]
    in_range = (
        (cand_hops >= min_hops)
        & (cand_hops != fastcore.HOP_UNREACHABLE)
        & (cand_hops <= max_hops)
        & np.isfinite(latencies[candidates])
    )
    candidates = candidates[in_range]
    if candidates.size == 0:
        return None
    best = int(candidates[np.argmin(latencies[candidates])])
    return best, int(hops[best]), float(latencies[best])


@dataclass(frozen=True)
class HopBalls:
    """Every access satellite's ISL candidates, nearest first, as a compact table.

    Row ``a`` holds the satellites within ``[min_hops, max_hops]`` hops of
    access row ``a`` that have a finite latency, sorted by (one-way ISL
    latency, satellite index): ``sat[a, :count[a]]`` with the aligned
    ``hops`` and ``lat``. Columns at and beyond ``count[a]`` are padding
    (satellite 0, ``ok`` False). The table is ``(A, B)`` with ``B`` the
    widest ball (at least 1), never ``(A, N)``.
    """

    sat: np.ndarray
    """``(A, B)`` int64 satellite indices, ascending (latency, index)."""
    hops: np.ndarray
    """``(A, B)`` ISL hop count of each ``sat`` entry."""
    lat: np.ndarray
    """``(A, B)`` one-way ISL latency of each ``sat`` entry (ms)."""
    count: np.ndarray
    """``(A,)`` int64 ball size per row."""
    ok: np.ndarray
    """``(A, B)`` bool, True on the first ``count[a]`` columns of row ``a``."""


def hop_balls(
    hops: np.ndarray,
    latencies: np.ndarray,
    max_hops: int,
    min_hops: int = 0,
) -> HopBalls:
    """The :class:`HopBalls` table of ``(A, N)`` single-source routing rows.

    Keeps exactly the entries :func:`nearest_cached_from_rows` accepts as
    candidates. Ordering each ball by (latency, index) makes the first
    holder along a row the holder that function picks: the cheapest, and
    on an exact latency tie the lowest index.
    """
    eligible = (
        (hops >= min_hops)
        & (hops != fastcore.HOP_UNREACHABLE)
        & (hops <= max_hops)
        & np.isfinite(latencies)
    )
    rows, cols = np.nonzero(eligible)
    lat = latencies[rows, cols]
    pick = np.lexsort((cols, lat, rows))
    rows, cols, lat = rows[pick], cols[pick], lat[pick]
    count = np.bincount(rows, minlength=len(hops))
    width = max(1, int(count.max(initial=0)))
    column = np.arange(len(rows)) - (np.cumsum(count) - count)[rows]
    sat = np.zeros((len(hops), width), dtype=np.int64)
    ball_hops = np.zeros((len(hops), width), dtype=hops.dtype)
    ball_lat = np.full((len(hops), width), np.inf)
    sat[rows, column] = cols
    ball_hops[rows, column] = hops[rows, cols]
    ball_lat[rows, column] = lat
    return HopBalls(
        sat=sat,
        hops=ball_hops,
        lat=ball_lat,
        count=count,
        ok=np.arange(width) < count[:, None],
    )


def nearest_cached_batch(
    candidates: np.ndarray,
    usable: np.ndarray,
    holders: np.ndarray,
    objects: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The first holder along each request's candidate row.

    ``candidates`` is ``(C, K)`` satellite indices, each row in order of
    preference (a :class:`HopBalls` row: nearest first), and ``usable``
    the aligned mask of real entries. Request ``c`` looks for holders of
    the object in row ``objects[c]`` of the ``(O, N)`` holders bitmap
    ``holders``; over a hop ball the first one is what
    :func:`nearest_cached_from_rows` returns. The work is one ``(C, K)``
    gather. Returns ``(found, column)``, each ``(C,)``; ``column`` is
    meaningful only where ``found``.
    """
    hit = holders[objects[:, None], candidates] & usable
    column = hit.argmax(axis=1)
    return hit[np.arange(len(column)), column], column


def ranked_cached_satellites(
    snapshot: SnapshotGraph,
    access_satellite: int,
    cache_satellites: frozenset[int],
    max_hops: int,
    min_hops: int = 0,
    exclude: frozenset[int] = frozenset(),
) -> list[tuple[int, int, float]]:
    """Every in-range caching satellite, cheapest first.

    The degraded serving path walks this ladder: when the best replica
    times out or is lost, the next attempt goes to the next rung without
    recomputing the routing pass. Entries are ``(satellite, hops, one-way
    ISL ms)`` ordered by latency (lowest index on ties); satellites in
    ``exclude`` (already tried and failed) never appear.
    """
    if not cache_satellites:
        return []
    hops, latencies = fastcore.single_source(
        snapshot.core, access_satellite, snapshot.active_mask, max_hops=max_hops
    )
    return ranked_cached_from_rows(
        hops, latencies, cache_satellites, max_hops, min_hops, exclude
    )


def ranked_cached_from_rows(
    hops: np.ndarray,
    latencies: np.ndarray,
    cache_satellites: frozenset[int] | set[int],
    max_hops: int,
    min_hops: int = 0,
    exclude: frozenset[int] = frozenset(),
) -> list[tuple[int, int, float]]:
    """:func:`ranked_cached_satellites` over precomputed routing rows.

    The degraded batch path precomputes each access satellite's masked
    single-source rows once per cohort and builds every request's ladder
    from them, instead of re-running the masked routing pass per request.
    """
    num_nodes = hops.shape[0]
    ranked = []
    for satellite in sorted(set(cache_satellites) - exclude):
        if not 0 <= satellite < num_nodes:
            continue
        h = int(hops[satellite])
        if h == fastcore.HOP_UNREACHABLE or not min_hops <= h <= max_hops:
            continue
        latency = float(latencies[satellite])
        if not np.isfinite(latency):
            continue
        ranked.append((satellite, h, latency))
    ranked.sort(key=lambda entry: (entry[2], entry[0]))
    return ranked


class LookupSource(enum.Enum):
    """Where a request was ultimately served from."""

    ACCESS_SATELLITE = "access-satellite"
    DIRECT_VISIBLE = "direct-visible"
    """Another currently *visible* satellite served the terminal directly —
    no ISL transit. Relevant because grid-adjacent and physically-adjacent
    are different things: a satellite a few hundred km away on a crossing
    plane can be dozens of +Grid hops away."""
    ISL_NEIGHBOR = "isl-neighbor"
    GROUND = "ground"


@dataclass(frozen=True)
class LookupResult:
    """Outcome of one SpaceCDN lookup."""

    source: LookupSource
    serving_satellite: int | None
    isl_hops: int
    one_way_ms: float
    access_satellite: int


@dataclass
class SpaceCdnLookup:
    """Content resolution over one constellation snapshot."""

    snapshot: SnapshotGraph
    max_hops: int = 10
    ground_fallback_one_way_ms: float = 70.0
    """One-way latency of the bent-pipe + terrestrial path to the ground
    cache, used when no satellite within ``max_hops`` holds the object.
    Callers with a resolved :class:`~repro.network.bentpipe.StarlinkPath`
    should override this with the client's actual path floor."""

    def lookup_from_point(
        self,
        user: GeoPoint,
        cache_satellites: frozenset[int],
        min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
    ) -> LookupResult:
        """Resolve a request from a ground location (picks the access satellite)."""
        access = nearest_visible_satellite(
            self.snapshot.constellation, user, self.snapshot.t_s, min_elevation_deg
        )
        return self.lookup(
            access_satellite=access.index,
            access_one_way_ms=access_latency_ms(access.slant_range_km),
            cache_satellites=cache_satellites,
        )

    def lookup(
        self,
        access_satellite: int,
        access_one_way_ms: float,
        cache_satellites: frozenset[int],
    ) -> LookupResult:
        """Resolve a request entering the constellation at ``access_satellite``."""
        if access_one_way_ms < 0:
            raise RoutingError(f"negative access latency: {access_one_way_ms}")

        if access_satellite in cache_satellites:
            return LookupResult(
                source=LookupSource.ACCESS_SATELLITE,
                serving_satellite=access_satellite,
                isl_hops=0,
                one_way_ms=access_one_way_ms,
                access_satellite=access_satellite,
            )

        best = self._nearest_cache(access_satellite, cache_satellites)
        if best is not None:
            satellite, hops, isl_ms = best
            return LookupResult(
                source=LookupSource.ISL_NEIGHBOR,
                serving_satellite=satellite,
                isl_hops=hops,
                one_way_ms=access_one_way_ms + isl_ms,
                access_satellite=access_satellite,
            )

        return LookupResult(
            source=LookupSource.GROUND,
            serving_satellite=None,
            isl_hops=0,
            one_way_ms=self.ground_fallback_one_way_ms,
            access_satellite=access_satellite,
        )

    def _nearest_cache(
        self, access_satellite: int, cache_satellites: frozenset[int]
    ) -> tuple[int, int, float] | None:
        """(satellite, hops, one-way ISL ms) of the cheapest in-range cache."""
        return nearest_cached_satellite(
            self.snapshot, access_satellite, cache_satellites, self.max_hops
        )

    def require_space_hit(
        self,
        user: GeoPoint,
        cache_satellites: frozenset[int],
    ) -> LookupResult:
        """Like :meth:`lookup_from_point` but raises on ground fallback."""
        result = self.lookup_from_point(user, cache_satellites)
        if result.source is LookupSource.GROUND:
            raise ContentNotFoundError(
                f"no caching satellite within {self.max_hops} hops of satellite "
                f"{result.access_satellite}"
            )
        return result
