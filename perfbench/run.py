"""SpaceCDN benchmark: serve-path workloads and cold ``repro run``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload regional-hot --seed 1 --seconds 12 --trace 0

Every workload's end-to-end metrics, by name and unit::

    for w in regional-hot regional-churn global-chaos cli-cold; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 12 | tail -1
    done

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the layer
ledger instead (:mod:`ledger`) and prints every per-layer metric. The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it records the host fingerprint and the
run's own noise, so a contended run can be told from a regression.

End-to-end timings are host-speed normalised against a fixed reference
kernel timed alongside them (:data:`host.REF_NOMINAL_S`): this host's speed
moves by up to 1.6x between minutes, more than any bound could absorb. The
raw timings are in the notes line.

Workloads (see :mod:`workloads` and :mod:`clicold` for why each exists):
``regional-hot``, ``regional-churn``, ``global-chaos`` and ``cli-cold``.
All inputs are generated from ``--seed``. The program is taken from
``src/`` beside this directory; without it the benchmark exits 2.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and (through clicold.env_for) in every
# launched process: BLAS thread pools would turn a 2-core host's noise
# into the benchmark's.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

SERVING = ("regional-hot", "regional-churn", "global-chaos")
WORKLOADS = (*SERVING, "cli-cold")

END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("slot_ms_p50", "ms"),
    ("slot_ms_p95", "ms"),
    ("suite_s", "s"),
    ("peak_rss_mb", "MB"),
)

EXPERIMENTS = (
    "chaos", "table1", "figure2", "figure3", "figure4", "figure5", "figure7",
    "figure8", "geoblocking", "overload", "outdir",
)
"""``cli.<label>.run_s`` labels: ``repro list`` at the time the benchmark
was written, plus the ``--out-dir`` launch."""

SIM = (
    "requests", "served", "unavailable", "shed", "access_hits", "direct_hits",
    "isl_hits", "ground_fetches", "retries", "timeouts",
)


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in emission order."""
    import ledger

    out = []
    for probe in ledger.PROBES:
        for name in ledger.probe_metric_names(probe):
            leaf = name.rsplit(".", 1)[1]
            if leaf.endswith("_ms"):
                out.append((name, "ms", "lower"))
            elif leaf == "hit_ratio":
                out.append((name, "ratio", "higher"))
            elif leaf == "hits":
                out.append((name, "count", "higher"))
            elif leaf == "bytes":
                out.append((name, "B", "lower"))
            else:
                out.append((name, "count", "lower"))
    out += [(f"layer.{layer}.self_ms", "ms", "lower") for layer in ledger.LAYERS]
    out.append(("startup.import_cli_s", "s", "lower"))
    out += [(f"cli.{label}.run_s", "s", "lower") for label in EXPERIMENTS]
    out += [
        ("trace.wall_ms", "ms", "lower"),
        ("trace.unattributed_ms", "ms", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    for name in SIM:
        better = "higher" if name == "served" or name.endswith("_hits") else "lower"
        out.append((f"sim.{name}", "count", better))
    out += [("sim.rtt_ms_p50", "ms", "lower"), ("sim.rtt_ms_p99", "ms", "lower")]
    out += [
        ("host.cpu_wall_ratio", "ratio", "higher"),
        ("host.steal_pct", "%", "lower"),
        ("host.loadavg_1m", "load", "lower"),
    ]
    return out


def _layer_metrics(traced: dict) -> dict[str, float]:
    led = traced["ledger"]
    values = led.metrics()
    wall_ms = traced["wall_s"] * 1e3
    values["trace.wall_ms"] = wall_ms
    values["trace.unattributed_ms"] = wall_ms - sum(led.layer_self_s().values()) * 1e3
    values["trace.overhead_pct"] = 100.0 * traced["overhead"]
    values.update(traced["extra"])
    return {name: float(values.get(name, 0.0)) for name, _, _ in per_layer()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int, dict]:
    import clicold
    import ledger
    import serving

    if trace:
        if workload == "cli-cold":
            traced, attempted, failed, notes = clicold.trace(ROOT, seed, TMP)
        else:
            traced, attempted, failed, notes = serving.trace(ROOT, workload, seed)
        values = _layer_metrics(traced)
        metrics = {name: (values[name], unit) for name, unit, _ in per_layer()}
        notes["moves"] = {probe.name: probe.moves for probe in ledger.PROBES}
        return metrics, attempted, failed, notes
    if workload == "cli-cold":
        return clicold.measure(ROOT, seed, seconds, TMP)
    return serving.measure(ROOT, workload, seed, seconds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import host

    TMP.mkdir(exist_ok=True)
    try:
        metrics, attempted, failed, notes = run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host.fingerprint(ROOT),
        **notes,
    }
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
