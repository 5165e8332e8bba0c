"""Serving workloads: seeded inputs, the system under test, and output checks.

The benchmark generates every input itself, outside any timed region, and
hands the program only what a client would send: ground points, object ids
and request times. Each workload is a closed loop over snapshot slots — one
process, one thread; the next slot's cohort is sent only after the previous
one has been served.

Why these three (the cli-cold workload lives in :mod:`clicold`):

* ``regional-hot`` — a few dozen users in one region and a small Zipf(1)
  catalog preloaded into large caches (~98% space hits). The per-request
  ladder Python and cache reads dominate; faults and overload stay idle and
  visibility/routing are cheap. ``spacecdn.*`` and ``cdn.cache_get`` should
  move ``requests_per_s`` here.
* ``regional-churn`` — the same users, slots and request times, but a
  large flat Zipf(0.6) catalog and caches of a few objects (~30% space
  hits). Pull-through stores, evictions and dirty re-resolution show here,
  so a hit-path speed-up that taxes the write path shows up as a loss.
* ``global-chaos`` — distinct users worldwide in every cohort under a
  fleet-wide outage slice, transient attempt loss and three attempts.
  Masked routing (``topology.single_source_batch``) and visibility
  (``orbits.*``) dominate; the cache layer is read-mostly. Cohorts are
  kept small enough that a 12-second run holds over 200 slots, so
  ``slot_ms_p95`` has at least ten slots beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SLOT_S = 60.0
"""Snapshot interval of the system under test; one cohort per slot."""

_USERS, _PICKS, _OBJECTS, _PLACE, _CATALOG = range(5)
"""Independent RNG streams, so the regional workloads share users and
request times while drawing objects from their own catalogs."""


@dataclass(frozen=True)
class ServeSpec:
    """One serving workload's shape."""

    name: str
    num_users: int
    requests_per_slot: int
    worldwide: bool
    """Users anywhere under Shell 1 (|lat| <= 52), else one European box."""
    distinct_users: bool
    """Every request in a cohort comes from its own user."""
    catalog_objects: int
    zipf: float
    cache_bytes: int
    preload_objects: int
    preload_replicas: int
    chaos: bool
    max_hops: int = 6


SPECS: dict[str, ServeSpec] = {
    "regional-hot": ServeSpec(
        name="regional-hot", num_users=40, requests_per_slot=600,
        worldwide=False, distinct_users=False, catalog_objects=300, zipf=1.0,
        cache_bytes=10**8, preload_objects=300, preload_replicas=24,
        chaos=False,
    ),
    "regional-churn": ServeSpec(
        name="regional-churn", num_users=40, requests_per_slot=600,
        worldwide=False, distinct_users=False, catalog_objects=1500, zipf=0.6,
        cache_bytes=400_000, preload_objects=1500, preload_replicas=2,
        chaos=False,
    ),
    "global-chaos": ServeSpec(
        name="global-chaos", num_users=1500, requests_per_slot=64,
        worldwide=True, distinct_users=True, catalog_objects=300, zipf=1.0,
        cache_bytes=10**8, preload_objects=300, preload_replicas=8,
        chaos=True,
    ),
}


@dataclass
class Inputs:
    """Everything the benchmark hands the program for one seed."""

    spec: ServeSpec
    seed: int
    placement: dict[str, frozenset[int]]
    object_cdf: np.ndarray
    users: list
    """One :class:`~repro.geo.coordinates.GeoPoint` per user."""


def object_id(rank: int) -> str:
    """Catalog ids are positional; rank 0 is the most popular object."""
    return f"obj-{rank:06d}"


def make_inputs(spec: ServeSpec, seed: int, num_satellites: int) -> Inputs:
    from repro.geo.coordinates import GeoPoint

    rng = np.random.default_rng((seed, _USERS))
    if spec.worldwide:
        lat = rng.uniform(-52.0, 52.0, spec.num_users)
        lon = rng.uniform(-180.0, 180.0, spec.num_users)
    else:
        lat = rng.uniform(42.0, 54.0, spec.num_users)
        lon = rng.uniform(-5.0, 20.0, spec.num_users)
    place = np.random.default_rng((seed, _PLACE))
    placement = {
        object_id(rank): frozenset(
            int(s)
            for s in place.choice(num_satellites, spec.preload_replicas, replace=False)
        )
        for rank in range(spec.preload_objects)
    }
    weights = 1.0 / np.arange(1, spec.catalog_objects + 1) ** spec.zipf
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    users = [GeoPoint(float(a), float(b), 0.0) for a, b in zip(lat, lon)]
    return Inputs(spec, seed, placement, cdf, users)


def slot_cohort(inputs: Inputs, slot: int) -> tuple[list, list[str], list[float]]:
    """Slot ``slot``'s cohort: user points, object ids and sorted times."""
    spec = inputs.spec
    n = spec.requests_per_slot
    picks = np.random.default_rng((inputs.seed, _PICKS, slot))
    if spec.distinct_users:
        user_idx = picks.permutation(spec.num_users)[:n]
    else:
        user_idx = picks.integers(spec.num_users, size=n)
    offsets = np.sort(picks.uniform(0.0, SLOT_S, n))
    objects = np.random.default_rng((inputs.seed, _OBJECTS, slot))
    ranks = np.searchsorted(inputs.object_cdf, objects.random(n), side="right")
    users = [inputs.users[i] for i in user_idx]
    oids = [object_id(int(r)) for r in ranks]
    times = [slot * SLOT_S + float(o) for o in offsets]
    return users, oids, times


def build_system(spec: ServeSpec, seed: int, inputs: Inputs):
    """The system under test: Shell 1, the workload's catalog and caches."""
    from repro.cdn.content import build_catalog
    from repro.faults import FaultSchedule, OutageWindow, RetryPolicy, TransientAttemptLoss
    from repro.orbits.elements import starlink_shell1
    from repro.orbits.walker import build_walker_delta
    from repro.spacecdn.system import SpaceCdnSystem

    constellation = build_walker_delta(starlink_shell1())
    catalog = build_catalog(
        np.random.default_rng((seed, _CATALOG)),
        spec.catalog_objects,
        kind_weights={"web": 1.0},
    )
    schedule = None
    retry = RetryPolicy()
    if spec.chaos:
        offset = seed % 9
        schedule = (
            FaultSchedule()
            .add(OutageWindow(satellites=frozenset(range(offset, len(constellation), 9))))
            .add(TransientAttemptLoss(probability=0.1, seed=seed))
        )
        retry = RetryPolicy(max_attempts=3)
    system = SpaceCdnSystem(
        constellation=constellation,
        catalog=catalog,
        cache_bytes_per_satellite=spec.cache_bytes,
        max_hops=spec.max_hops,
        fault_schedule=schedule,
        retry_policy=retry,
    )
    system.preload(inputs.placement)
    return system


def num_satellites() -> int:
    from repro.orbits.elements import starlink_shell1

    return starlink_shell1().total_satellites


def serve(system, cohort) -> list:
    users, oids, times = cohort
    return system.serve_batch(users, oids, times, continue_on_unavailable=True)


# -- output checks -------------------------------------------------------------

_TIERS = ("access_hits", "direct_hits", "isl_hits", "ground_fetches")


def stats_counts(stats) -> dict[str, int]:
    """The integer counters of a ``SystemStats`` (for deltas and sim.*)."""
    out = {t: getattr(stats, t) for t in _TIERS}
    for name in ("unavailable", "shed", "retries", "timeouts"):
        out[name] = getattr(stats, name)
    out["requests"] = stats.requests
    out["served"] = stats.served
    return out


def check_slot(results: list, before: dict, after: dict, cohort_size: int, max_hops: int) -> list[str]:
    """Violations of the serving contract in one served cohort.

    Accounting: requests = served + unavailable + shed, and the tier counts
    sum to served. Every served request has a finite positive RTT and at
    most ``max_hops`` ISL hops.
    """
    problems = []
    delta = {k: after[k] - before[k] for k in after}
    if len(results) != cohort_size:
        problems.append(f"{len(results)} results for {cohort_size} requests")
    if delta["requests"] != cohort_size:
        problems.append(f"requests delta {delta['requests']} != {cohort_size}")
    if delta["requests"] != delta["served"] + delta["unavailable"] + delta["shed"]:
        problems.append("requests != served + unavailable + shed")
    if sum(delta[t] for t in _TIERS) != delta["served"]:
        problems.append("tier counts do not sum to served")
    served = [r for r in results if r is not None]
    if len(served) != delta["served"]:
        problems.append(f"{len(served)} results but served delta {delta['served']}")
    bad_rtt = sum(1 for r in served if not (math.isfinite(r.rtt_ms) and r.rtt_ms > 0))
    if bad_rtt:
        problems.append(f"{bad_rtt} non-finite or non-positive RTTs")
    bad_hops = sum(1 for r in served if not 0 <= r.isl_hops <= max_hops)
    if bad_hops:
        problems.append(f"{bad_hops} results beyond max_hops={max_hops}")
    return problems


def twin_check(spec: ServeSpec, seed: int, inputs: Inputs, system, slots: range) -> list[str]:
    """Serve ``slots`` whole on ``system`` and as two halves on a twin.

    Returns every mismatch found: a batched serve must not depend on how a
    slot's cohort is split.
    """
    twin = build_system(spec, seed, inputs)
    problems: list[str] = []
    for slot in slots:
        cohort = slot_cohort(inputs, slot)
        before = stats_counts(system.stats)
        whole = serve(system, cohort)
        problems += check_slot(
            whole, before, stats_counts(system.stats), len(cohort[0]), spec.max_hops
        )
        half = len(cohort[0]) // 2
        split = serve(twin, tuple(c[:half] for c in cohort)) + serve(
            twin, tuple(c[half:] for c in cohort)
        )
        if split != whole:
            problems.append(f"slot {slot}: halves differ from the whole cohort")
        if twin.stats != system.stats:
            problems.append(f"slot {slot}: twin SystemStats differ")
    return problems


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    return float(np.quantile(np.asarray(values, dtype=float), q))
