"""Layer ledger: time calls into each layer's public functions from outside.

The program itself carries no timers. :func:`install` wraps the functions
listed in :data:`PROBES` after ``repro`` has been imported, and
:func:`uninstall` puts every original back. A wrapper keeps a span stack so
each probe's *self* time excludes the time of probes it called; the sum of
all self times plus ``trace.unattributed_ms`` is the traced wall time.

Names bound at import time (``from x import f``) are patched wherever they
are looked up: every loaded ``repro.*`` module whose global is the original
function gets the wrapper, so ``repro.spacecdn.system.build_snapshot`` and
the ``fastcore`` module attribute are both covered.

Each probe says which end-to-end metric it should move and on which
workload, so a change to one layer can be checked against the right number.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


def _arg(i: int, name: str) -> Callable[..., Any]:
    def get(args: tuple, kwargs: dict) -> Any:
        return kwargs[name] if name in kwargs else args[i]

    return get


def _len_arg(i: int, name: str) -> Callable[..., int]:
    get = _arg(i, name)
    return lambda args, kwargs, result: len(get(args, kwargs))


def _not_none(args, kwargs, result) -> int:
    return int(result is not None)


def _is_true(args, kwargs, result) -> int:
    return int(bool(result))


def _is_false(args, kwargs, result) -> int:
    return int(not result)


def _shard_bytes(args, kwargs, result) -> int:
    from repro.runner.store import canonical_json

    return len(canonical_json(_arg(2, "payload")(args, kwargs)).encode())


@dataclass(frozen=True)
class Probe:
    """One traced function: where it lives and what to count per call."""

    name: str
    """Metric prefix, ``<layer>.<function>``."""
    module: str
    attr: str
    """``function`` or ``Class.method`` inside ``module``."""
    moves: str
    """The end-to-end metric (and workload) this probe should move."""
    counts: dict[str, Callable[..., int]] = field(default_factory=dict)
    incl: bool = False
    """Also report inclusive time (for probes that call other probes)."""

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


PROBES: tuple[Probe, ...] = (
    Probe("orbits.visible_satellites_batch", "repro.orbits.visibility",
          "visible_satellites_batch", "slot_ms_p50 on global-chaos",
          {"points": _len_arg(1, "points")}),
    Probe("orbits.positions_ecef", "repro.orbits.walker",
          "Constellation.positions_ecef", "slot_ms_p50 on global-chaos"),
    Probe("topology.build_snapshot", "repro.topology.graph", "build_snapshot",
          "slot_ms_p50 on every serving workload; suite_s on cli-cold"),
    Probe("topology.single_source_batch", "repro.topology.fastcore",
          "single_source_batch",
          "requests_per_s on global-chaos, then regional-churn",
          {"sources": _len_arg(1, "sources")}),
    Probe("spacecdn.serve_batch", "repro.spacecdn.system",
          "SpaceCdnSystem.serve_batch", "requests_per_s on regional-hot",
          {"requests": _len_arg(1, "users")}, incl=True),
    Probe("spacecdn.nearest_cached_batch", "repro.spacecdn.lookup",
          "nearest_cached_batch", "requests_per_s on regional-hot"),
    Probe("spacecdn.nearest_cached_from_rows", "repro.spacecdn.lookup",
          "nearest_cached_from_rows",
          "requests_per_s on regional-churn (dirty replay)"),
    Probe("spacecdn.ranked_cached_from_rows", "repro.spacecdn.lookup",
          "ranked_cached_from_rows", "requests_per_s on global-chaos"),
    Probe("cdn.cache_get", "repro.cdn.cache", "Cache.get",
          "requests_per_s on regional-hot (reads)", {"hits": _not_none}),
    Probe("cdn.cache_put", "repro.cdn.cache", "Cache.put",
          "requests_per_s on regional-churn (writes)",
          {"evicted": lambda args, kwargs, result: len(result)}),
    Probe("cdn.holders_matrix", "repro.cdn.cache", "HoldersIndex.holders_matrix",
          "requests_per_s on regional-hot"),
    Probe("faults.compile_at", "repro.faults.schedule", "FaultSchedule.compile_at",
          "slot_ms_p50 on global-chaos"),
    Probe("faults.apply_fault_view", "repro.faults.schedule", "apply_fault_view",
          "slot_ms_p50 on global-chaos"),
    Probe("faults.attempt_lost", "repro.faults.schedule",
          "FaultSchedule.attempt_lost", "requests_per_s on global-chaos",
          {"lost": _is_true}),
    Probe("overload.begin_slot", "repro.overload.model", "OverloadModel.begin_slot",
          "suite_s on cli-cold"),
    Probe("overload.admit", "repro.overload.model", "OverloadModel.admit",
          "suite_s on cli-cold", {"refused": _is_false}),
    Probe("overload.breaker_allow", "repro.overload.model", "CircuitBreaker.allow",
          "suite_s on cli-cold", {"denied": _is_false}),
    Probe("measurements.aim_generate", "repro.measurements.aim",
          "AimGenerator.generate", "suite_s on cli-cold"),
    Probe("runner.execute", "repro.runner.engine", "ExperimentRunner.execute",
          "suite_s on cli-cold", incl=True),
    Probe("runner.write_shard", "repro.runner.store", "CheckpointStore.write_shard",
          "suite_s on cli-cold", {"bytes": _shard_bytes}),
)

LAYERS = (
    "startup", "orbits", "topology", "spacecdn", "cdn", "faults", "overload",
    "measurements", "runner",
)
"""Every layer the ledger splits host time across (``startup`` is the
import of ``repro``, timed by the caller and added with :meth:`Ledger.add_self`)."""


def probe_metric_names(probe: Probe) -> list[str]:
    names = ["calls", *probe.counts, "self_ms"]
    if probe.incl:
        names.append("incl_ms")
    if probe.name == "cdn.cache_get":
        names.append("hit_ratio")
    return [f"{probe.name}.{n}" for n in names]


class Ledger:
    """Per-probe calls, counts and self/inclusive seconds."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {p.name: 0 for p in PROBES}
        self.counts: dict[str, dict[str, int]] = {
            p.name: {c: 0 for c in p.counts} for p in PROBES
        }
        self.self_s: dict[str, float] = {p.name: 0.0 for p in PROBES}
        self.incl_s: dict[str, float] = {p.name: 0.0 for p in PROBES}
        self.extra_self_s: dict[str, float] = {}
        self._stack: list[float] = []

    def add_self(self, layer: str, seconds: float) -> None:
        """Attribute time measured outside any probe (startup) to a layer."""
        self.extra_self_s[layer] = self.extra_self_s.get(layer, 0.0) + seconds

    def merge(self, other: dict) -> None:
        """Fold in a ledger dumped by :meth:`to_dict` in another process."""
        for name in self.calls:
            self.calls[name] += other["calls"][name]
            self.self_s[name] += other["self_s"][name]
            self.incl_s[name] += other["incl_s"][name]
            for c in self.counts[name]:
                self.counts[name][c] += other["counts"][name][c]
        for layer, s in other["extra_self_s"].items():
            self.add_self(layer, s)

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "counts": self.counts,
            "self_s": self.self_s,
            "incl_s": self.incl_s,
            "extra_self_s": self.extra_self_s,
        }

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: self.extra_self_s.get(layer, 0.0) for layer in LAYERS}
        for probe in PROBES:
            out[probe.layer] += self.self_s[probe.name]
        return out

    def metrics(self) -> dict[str, float]:
        """Per-probe metrics, named as :func:`probe_metric_names` lists them."""
        out: dict[str, float] = {}
        for probe in PROBES:
            n = probe.name
            out[f"{n}.calls"] = self.calls[n]
            for c, v in self.counts[n].items():
                out[f"{n}.{c}"] = v
            out[f"{n}.self_ms"] = self.self_s[n] * 1e3
            if probe.incl:
                out[f"{n}.incl_ms"] = self.incl_s[n] * 1e3
        calls = self.calls["cdn.cache_get"]
        out["cdn.cache_get.hit_ratio"] = (
            self.counts["cdn.cache_get"]["hits"] / calls if calls else 0.0
        )
        for layer, s in self.layer_self_s().items():
            out[f"layer.{layer}.self_ms"] = s * 1e3
        return out

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        name = probe.name
        counters = tuple(probe.counts.items())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                self.self_s[name] += dt - child
                self.incl_s[name] += dt
                self.calls[name] += 1
                if stack:
                    stack[-1] += dt
            for c, count in counters:
                self.counts[name][c] += count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__perfbench_probe__ = name
        return traced


def _resolve(probe: Probe) -> tuple[Any, str, Callable]:
    owner: Any = importlib.import_module(probe.module)
    *path, leaf = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, vars(owner)[leaf]


def _repro_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


Patches = list[tuple[Any, str, Any]]


def install(ledger: Ledger) -> Patches:
    """Wrap every probe in every place it is looked up; returns the patches."""
    patches: Patches = []
    for probe in PROBES:
        owner, leaf, original = _resolve(probe)
        wrapper = ledger._wrap(probe, original)
        sites = [(owner, leaf)] if isinstance(owner, type) else [
            (module, attr)
            for module in _repro_modules()
            for attr, value in list(vars(module).items())
            if value is original
        ]
        for site, attr in sites:
            patches.append((site, attr, original))
            setattr(site, attr, wrapper)
    return patches


def uninstall(patches: Patches) -> None:
    """Put every original back.

    Modules imported while the probes were installed bound the wrappers
    under their own names; those are unwrapped too.
    """
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if getattr(value, "__perfbench_probe__", None):
                setattr(module, attr, value.__wrapped__)


def wrapped_sites() -> list[str]:
    """Every place a probe wrapper is still installed (empty when clean)."""
    holders = {id(m): m for m in _repro_modules()}
    for probe in PROBES:
        owner, _, _ = _resolve(probe)
        holders[id(owner)] = owner
    return sorted(
        f"{getattr(holder, '__qualname__', holder.__name__)}.{attr}"
        for holder in holders.values()
        for attr, value in list(vars(holder).items())
        if getattr(value, "__perfbench_probe__", None)
    )
