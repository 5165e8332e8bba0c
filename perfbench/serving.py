"""Timing the serving workloads: cold set-up launches and the closed loop."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import host
import ledger as ledger_mod
import workloads
from clicold import LAUNCH_TIMEOUT_S, env_for

SETUP_LAUNCHES = 5
"""Fresh processes behind ``setup_s``, after one discarded launch; also the
number of stretches the closed loop is split into."""
SUITE_SLOTS = 10
"""Consecutive closed-loop slots in one suite; ``suite_s`` is the median
host time of the run's suites."""
WARMUP_SLOTS = 3
"""Discarded slots, served whole and, on a twin, as two halves."""
TRACE_SLOTS = 60
"""Fixed slot count of the traced run, so its ``sim.*`` counts repeat exactly."""

_CHILD = str(Path(__file__).resolve().parent / "child.py")


def _child(root: Path, argv: list[str]) -> tuple[float, dict]:
    """Spawn stamp (CLOCK_MONOTONIC) and the JSON a child printed."""
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, _CHILD, *argv], env=env_for(root), cwd=root,
        capture_output=True, text=True, timeout=LAUNCH_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return spawn, json.loads(proc.stdout.splitlines()[-1])


def cold_launch(root: Path, workload: str, seed: int) -> float:
    """Seconds from spawn to the first served slot, input generation excluded."""
    spawn, rec = _child(root, ["setup", workload, str(seed)])
    return rec["ready"] - spawn - rec["excluded_s"]


def measure(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    """End-to-end metrics, attempted, failed and run notes.

    The closed loop runs for ``seconds`` in equal stretches, each preceded
    by one cold launch, so both kinds of sample span the whole run: this
    host's speed drifts in phases of seconds, which a contiguous block of
    one kind of sample would catch only once. Every slot is preceded by one
    reference kernel, and every timing is normalised by the reference
    times around it (see :data:`host.REF_NOMINAL_S`).
    """
    cold_launch(root, workload, seed)  # discarded: warms the page cache

    spec = workloads.SPECS[workload]
    inputs = workloads.make_inputs(spec, seed, workloads.num_satellites())
    system = workloads.build_system(spec, seed, inputs)
    problems = workloads.twin_check(spec, seed, inputs, system, range(WARMUP_SLOTS))
    attempted = WARMUP_SLOTS
    failed = 1 if problems else 0

    setup: list[float] = []
    raw_ms: list[float] = []
    refs: list[float] = []
    requests = 0
    slot = WARMUP_SLOTS
    noise = host.NoiseProbe()
    for _ in range(SETUP_LAUNCHES):
        setup.append(cold_launch(root, workload, seed))
        stretch_end = time.perf_counter() + seconds / SETUP_LAUNCHES
        while time.perf_counter() < stretch_end:
            cohort = workloads.slot_cohort(inputs, slot)
            before = workloads.stats_counts(system.stats)
            refs.append(host.ref_kernel_s())
            t0 = time.perf_counter()
            results = workloads.serve(system, cohort)
            raw_ms.append((time.perf_counter() - t0) * 1e3)
            requests += len(cohort[0])
            found = workloads.check_slot(
                results, before, workloads.stats_counts(system.stats),
                len(cohort[0]), spec.max_hops,
            )
            attempted += 1
            if found:
                failed += 1
                problems += [f"slot {slot}: {p}" for p in found]
            slot += 1
    host_noise = noise.read()
    leftover = ledger_mod.wrapped_sites()
    if leftover:
        failed += 1
        problems.append(f"probe wrappers installed in an untraced run: {leftover}")

    slot_ms = [t * k for t, k in zip(raw_ms, host.scales_along(refs))]
    suites = [
        sum(slot_ms[i:i + SUITE_SLOTS]) / 1e3
        for i in range(0, len(slot_ms) - SUITE_SLOTS + 1, SUITE_SLOTS)
    ]
    p25, p50, p75 = statistics.quantiles(raw_ms, n=4)
    metrics = {
        "setup_s": (statistics.median(setup) * host.scale_of(refs), "s"),
        "suite_s": (statistics.median(suites), "s"),
        "requests_per_s": (requests / (sum(slot_ms) / 1e3), "1/s"),
        "slot_ms_p50": (workloads.quantile(slot_ms, 0.5), "ms"),
        "slot_ms_p95": (workloads.quantile(slot_ms, 0.95), "ms"),
        "peak_rss_mb": (host.peak_rss_mb(), "MB"),
    }
    notes = {
        "slots": len(slot_ms),
        "slots_beyond_p95": sum(1 for v in slot_ms if v > metrics["slot_ms_p95"][0]),
        "suites": len(suites),
        "requests": requests,
        "slot_ms_raw_iqr_pct": 100.0 * (p75 - p25) / p50,
        "setup_raw_s": setup,
        "slot_ms_raw_p50": workloads.quantile(raw_ms, 0.5),
        "ref_ms_p50": workloads.quantile(refs, 0.5) * 1e3,
        "noise": host_noise,
        "problems": problems[:20],
    }
    return metrics, attempted, failed, notes


def trace(root: Path, workload: str, seed: int) -> tuple[dict, int, int, dict]:
    """Per-layer metrics from one fresh traced process."""
    _, rec = _child(root, ["traced", workload, str(seed), str(TRACE_SLOTS)])
    ledger = ledger_mod.Ledger()
    ledger.merge(rec["ledger"])
    extra = {f"sim.{k}": v for k, v in rec["sim"].items()}
    extra["sim.rtt_ms_p50"] = rec["rtt_ms_p50"]
    extra["sim.rtt_ms_p99"] = rec["rtt_ms_p99"]
    extra.update(rec["host"])
    problems = rec["problems"]
    notes = {"problems": problems[:20], "slots": rec["slots"]}
    return (
        {
            "ledger": ledger,
            "wall_s": rec["wall_s"],
            "overhead": rec["traced_s"] / rec["untraced_s"] - 1.0,
            "extra": extra,
        },
        2 * rec["slots"], 1 if problems else 0, notes,
    )
