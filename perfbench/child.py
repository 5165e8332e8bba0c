"""Fresh-process entry points the benchmark launches.

``python perfbench/child.py setup <workload> <seed>``
    Cold start of a serving workload: import the program, build the system
    and serve the first (warm-up) slot. Prints a CLOCK_MONOTONIC stamp so
    the parent can time from its spawn; input generation is timed
    separately and subtracted.

``python perfbench/child.py traced <workload> <seed> <slots>``
    The layer ledger of a serving workload: the same slots served once
    untraced and once with the probes of :mod:`ledger` installed.

``python perfbench/child.py cli <repro run arguments...>``
    One ``repro`` CLI invocation with the probes installed; the CLI's own
    stdout is captured and returned for the byte-identity check.

Each prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import time

T0 = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

WARMUP_SLOTS = 5
"""Slots a throwaway system serves before the traced run's timed passes."""


def _mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_serving_program() -> None:
    """The program modules a serving workload runs (its startup cost)."""
    import repro.cdn.content  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.orbits.walker  # noqa: F401
    import repro.spacecdn.system  # noqa: F401


def setup(workload: str, seed: int) -> dict:
    import_serving_program()
    import workloads

    spec = workloads.SPECS[workload]
    g0 = _mono()
    inputs = workloads.make_inputs(spec, seed, workloads.num_satellites())
    cohort = workloads.slot_cohort(inputs, 0)
    excluded = _mono() - g0
    system = workloads.build_system(spec, seed, inputs)
    workloads.serve(system, cohort)
    return {"ready": _mono(), "excluded_s": excluded}


def traced(workload: str, seed: int, slots: int) -> dict:
    import_serving_program()
    startup_s = _mono() - T0
    import host
    import ledger as ledger_mod
    import workloads

    spec = workloads.SPECS[workload]
    inputs = workloads.make_inputs(spec, seed, workloads.num_satellites())
    cohorts = [workloads.slot_cohort(inputs, k) for k in range(slots)]

    # Discarded warm-up, so first-call costs (dataset loads, lazy imports)
    # fall on neither timed pass and trace.overhead_pct compares like runs.
    warm = workloads.build_system(spec, seed, inputs)
    for cohort in cohorts[:WARMUP_SLOTS]:
        workloads.serve(warm, cohort)
    del warm

    problems: list[str] = []
    noise = host.NoiseProbe()
    t = time.perf_counter()
    plain = workloads.build_system(spec, seed, inputs)
    slot_ms = []
    for cohort in cohorts:
        before = workloads.stats_counts(plain.stats)
        s0 = time.perf_counter()
        results = workloads.serve(plain, cohort)
        slot_ms.append((time.perf_counter() - s0) * 1e3)
        problems += workloads.check_slot(
            results, before, workloads.stats_counts(plain.stats),
            len(cohort[0]), spec.max_hops,
        )
    untraced_s = time.perf_counter() - t
    host_noise = noise.read()

    ledger = ledger_mod.Ledger()
    ledger.add_self("startup", startup_s)
    installed = ledger_mod.install(ledger)
    try:
        t = time.perf_counter()
        system = workloads.build_system(spec, seed, inputs)
        for cohort in cohorts:
            workloads.serve(system, cohort)
        traced_s = time.perf_counter() - t
    finally:
        ledger_mod.uninstall(installed)
    leftover = ledger_mod.wrapped_sites()
    if leftover:
        problems.append(f"probe wrappers left installed: {leftover}")
    if system.stats != plain.stats:
        problems.append("traced and untraced runs served differently")
    rtts = system.stats.rtt_samples_ms
    return {
        "ledger": ledger.to_dict(),
        "wall_s": startup_s + traced_s,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "sim": workloads.stats_counts(system.stats),
        "rtt_ms_p50": workloads.quantile(rtts, 0.5) if rtts else 0.0,
        "rtt_ms_p99": workloads.quantile(rtts, 0.99) if rtts else 0.0,
        "slot_ms": slot_ms,
        "host": host_noise,
        "slots": slots,
        "problems": problems,
    }


def cli(argv: list[str]) -> dict:
    t_import = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - t_import
    startup_s = _mono() - T0
    import ledger as ledger_mod

    ledger = ledger_mod.Ledger()
    ledger.add_self("startup", startup_s)
    out = io.StringIO()
    installed = ledger_mod.install(ledger)
    try:
        with contextlib.redirect_stdout(out):
            rc = repro.cli.main(argv)
    finally:
        ledger_mod.uninstall(installed)
    leftover = ledger_mod.wrapped_sites()
    return {
        "rc": rc,
        "stdout": out.getvalue(),
        "ledger": ledger.to_dict(),
        "import_s": import_s,
        "wall_s": _mono() - T0,
        "leftover": leftover,
    }


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        result = setup(rest[0], int(rest[1]))
    elif mode == "traced":
        result = traced(rest[0], int(rest[1]), int(rest[2]))
    elif mode == "cli":
        result = cli(rest)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
