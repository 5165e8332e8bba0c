"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(serving, "SETUP_LAUNCHES", 1)
    monkeypatch.setattr(serving, "SUITE_SLOTS", 1)
    monkeypatch.setattr(serving, "WARMUP_SLOTS", 2)
    monkeypatch.setattr(serving, "TRACE_SLOTS", 4)


def _result(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def _names_units(entries) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def test_spec_lists_what_the_benchmark_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert _names_units(SPEC["end_to_end"]) == dict(run.END_TO_END)
    assert [(e["name"], e["unit"], e["better"]) for e in SPEC["per_layer"]] == run.per_layer()


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tiny, trace):
    result = _result(
        ["--workload", "regional-hot", "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace)]
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _names_units(SPEC["per_layer" if trace else "end_to_end"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in (v["value"] for v in result["metrics"].values()):
        assert math.isfinite(value)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_planted_rtt_corruption_counts_as_failure(tiny, monkeypatch):
    from repro.spacecdn.system import SpaceCdnSystem

    original = SpaceCdnSystem.serve_batch

    def corrupt(self, *args, **kwargs):
        results = original(self, *args, **kwargs)
        results[0] = dataclasses.replace(results[0], rtt_ms=math.nan)
        return results

    monkeypatch.setattr(SpaceCdnSystem, "serve_batch", corrupt)
    _, attempted, failed, notes = serving.measure(ROOT, "regional-hot", 3, 0.3)
    assert failed >= 1 and attempted >= failed
    assert any("non-finite" in p for p in notes["problems"])


def test_probes_are_removed_after_tracing():
    import repro.spacecdn.system as system
    import repro.topology.graph as graph

    original = graph.build_snapshot
    installed = ledger.install(ledger.Ledger())
    assert system.build_snapshot is not original
    assert ledger.wrapped_sites()
    sys.modules.pop("repro.experiments.common", None)
    import repro.experiments.common as common  # binds the wrapper at import

    ledger.uninstall(installed)
    assert ledger.wrapped_sites() == []
    assert system.build_snapshot is original and common.build_snapshot is original


def test_traced_cli_launch_matches_and_cleans_up():
    record = child.cli(["list"])
    assert record["rc"] == 0 and record["leftover"] == []
    plain = subprocess.run(
        [sys.executable, "-m", "repro", "list"], cwd=ROOT, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert record["stdout"] == plain.stdout


@pytest.mark.parametrize("workload", ["regional-hot", "global-chaos"])
def test_ledger_adds_up_and_splits_layers(tiny, workload):
    result = _result(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"]
    )
    m = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(m[f"layer.{layer}.self_ms"] for layer in ledger.LAYERS)
    assert layers + m["trace.unattributed_ms"] == pytest.approx(m["trace.wall_ms"])
    assert m["trace.unattributed_ms"] >= 0
    assert m["sim.requests"] == m["sim.served"] + m["sim.unavailable"] + m["sim.shed"]
    serve = m["layer.spacecdn.self_ms"] + m["layer.cdn.self_ms"]
    route = m["layer.orbits.self_ms"] + m["layer.topology.self_ms"]
    if workload == "regional-hot":
        assert all(m[k] == 0 for k in m if k.startswith(("faults.", "overload.")))
        assert serve > route
    else:
        assert m["faults.attempt_lost.calls"] > 0
        assert route > serve


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "regional-hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
