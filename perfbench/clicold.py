"""The cli-cold workload: fresh ``python -m repro run`` processes.

One pass launches every experiment ``repro list`` names at its default
sizes, plus ``figure8 --out-dir`` for the crash-safe runner path, each in a
fresh interpreter with the benchmark's seed. It is the only workload that
reaches import and startup, experiment set-up, AIM generation, the overload
walk and checkpoint IO; ``suite_s`` is the north star's cold ``repro run``
number. A pass is the smallest unit (about 18 s on a 2-core Xeon VM), so a
run measures whole passes until ``--seconds`` is spent and at least two,
so a median of passes exists and stdout can be compared across them.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import host
import ledger as ledger_mod
import workloads

OUT_DIR_EXPERIMENT = "figure8"
OUT_DIR_LABEL = "outdir"
LAUNCH_TIMEOUT_S = 60.0
IMPORT_EVERY = 4
"""Experiment launches between two cold-import samples (six or more per
run of two passes)."""


def env_for(root: Path) -> dict[str, str]:
    """The launched processes' environment: the checkout's sources, one
    BLAS/OpenMP thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def experiments(root: Path) -> list[str]:
    listing = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        env=env_for(root), cwd=root, capture_output=True, text=True,
        timeout=LAUNCH_TIMEOUT_S, check=True,
    )
    return [line.split()[0] for line in listing.stdout.splitlines() if line.strip()]


def launches(root: Path, seed: int, tmp: Path) -> list[tuple[str, list[str]]]:
    """(label, ``repro`` argv) for one pass."""
    out = [(name, ["run", name, "--seed", str(seed)]) for name in experiments(root)]
    out.append((
        OUT_DIR_LABEL,
        ["run", OUT_DIR_EXPERIMENT, "--seed", str(seed), "--out-dir", str(tmp / "out")],
    ))
    return out


def _clear(tmp: Path) -> None:
    shutil.rmtree(tmp / "out", ignore_errors=True)


def run_launch(root: Path, argv: list[str]) -> tuple[float, int, str]:
    """Wall seconds, exit code and stdout of one fresh process."""
    start = time.perf_counter()
    proc = subprocess.run(
        argv, env=env_for(root), cwd=root, capture_output=True, text=True,
        timeout=LAUNCH_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc.returncode, proc.stdout


def cold_import_s(root: Path) -> float:
    """One cold ``import repro.cli``."""
    seconds, rc, _ = run_launch(root, [sys.executable, "-c", "import repro.cli"])
    if rc != 0:
        raise RuntimeError(f"import repro.cli exited {rc}")
    return seconds


def measure(root: Path, seed: int, seconds: float, tmp: Path) -> tuple[dict, int, int, dict]:
    """End-to-end metrics, attempted, failed and run notes.

    Cold imports for ``setup_s`` run between every ``IMPORT_EVERY``
    experiment launches, after one discarded import, so their samples span
    the whole run instead of one phase of the host's drifting speed. Reference
    kernels timed between launches normalise every timing (see
    :data:`host.REF_NOMINAL_S`).
    """
    plan = launches(root, seed, tmp)
    cold_import_s(root)  # discarded warm-up launch
    refs = host.ref_samples()
    setup: list[float] = []
    expected: dict[str, str] = {}
    passes: list[float] = []
    launch_s: list[float] = []
    by_label: dict[str, list[float]] = {}
    attempted = failed = 0
    problems: list[str] = []
    noise = host.NoiseProbe()
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        total = 0.0
        for label, argv in plan:
            if len(launch_s) % IMPORT_EVERY == 0:
                setup.append(cold_import_s(root))
                refs += host.ref_samples()
            _clear(tmp)
            dt, rc, out = run_launch(root, [sys.executable, "-m", "repro", *argv])
            refs += host.ref_samples()
            attempted += 1
            total += dt
            launch_s.append(dt)
            by_label.setdefault(label, []).append(dt)
            if rc != 0 or not out:
                failed += 1
                problems.append(f"{label}: exit {rc}")
            elif expected.setdefault(label, out) != out:
                failed += 1
                problems.append(f"{label}: stdout differs between passes")
        passes.append(total)
    _clear(tmp)
    scale = host.scale_of(refs)
    # A pass holds one launch per experiment, too few for a p95 with ten
    # samples beyond it; the slot quantiles are taken over the experiments'
    # median launch times instead, so no single slow launch sets them.
    per_experiment = [statistics.median(v) * scale for v in by_label.values()]
    metrics = {
        "setup_s": (statistics.median(setup) * scale, "s"),
        "suite_s": (statistics.median(passes) * scale, "s"),
        "requests_per_s": (len(launch_s) / (sum(launch_s) * scale), "1/s"),
        "slot_ms_p50": (workloads.quantile(per_experiment, 0.5) * 1e3, "ms"),
        "slot_ms_p95": (workloads.quantile(per_experiment, 0.95) * 1e3, "ms"),
        "peak_rss_mb": (host.peak_rss_mb(children=True), "MB"),
    }
    notes = {
        "passes": len(passes),
        "launches": len(launch_s),
        "pass_raw_s": passes,
        "launch_raw_s": by_label,
        "setup_raw_s": setup,
        "ref_ms_p50": statistics.median(refs) * 1e3,
        "noise": noise.read(),
        "problems": problems[:20],
    }
    return metrics, attempted, failed, notes


def trace(root: Path, seed: int, tmp: Path) -> tuple[dict, int, int, dict]:
    """Per-layer metrics: one untraced pass, then one traced pass."""
    plan = launches(root, seed, tmp)
    child = str(Path(__file__).resolve().parent / "child.py")
    noise = host.NoiseProbe()
    plain: dict[str, tuple[float, str]] = {}
    attempted = failed = 0
    problems: list[str] = []
    for label, argv in plan:
        _clear(tmp)
        dt, rc, out = run_launch(root, [sys.executable, "-m", "repro", *argv])
        attempted += 1
        if rc != 0:
            failed += 1
            problems.append(f"{label}: exit {rc}")
        plain[label] = (dt, out)
    host_noise = noise.read()

    ledger = ledger_mod.Ledger()
    wall_s = traced_s = 0.0
    import_s = []
    for label, argv in plan:
        _clear(tmp)
        dt, rc, out = run_launch(root, [sys.executable, child, "cli", *argv])
        attempted += 1
        traced_s += dt
        if rc != 0:
            failed += 1
            problems.append(f"traced {label}: exit {rc}")
            continue
        record = json.loads(out.splitlines()[-1])
        ledger.merge(record["ledger"])
        wall_s += record["wall_s"]
        import_s.append(record["import_s"])
        if record["rc"] != 0 or record["stdout"] != plain[label][1] or record["leftover"]:
            failed += 1
            problems.append(f"traced {label}: exit {record['rc']}, output or wrappers differ")
    _clear(tmp)
    plain_s = sum(dt for dt, _ in plain.values())
    extra = {f"cli.{label}.run_s": dt for label, (dt, _) in plain.items()}
    extra["startup.import_cli_s"] = statistics.median(import_s) if import_s else 0.0
    extra.update(host_noise)
    notes = {"problems": problems[:20], "traced_pass_s": traced_s, "plain_pass_s": plain_s}
    return (
        {"ledger": ledger, "wall_s": wall_s, "overhead": traced_s / plain_s - 1.0, "extra": extra},
        attempted, failed, notes,
    )
