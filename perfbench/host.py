"""Host fingerprint, the run's own noise, and the host-speed reference.

A contended run and a regression look the same in a single number; the
fingerprint says which machine and code produced it, and the noise figures
(CPU time against wall time, hypervisor steal, load) say how busy it was.
The reference kernel measures how fast the host is running at a moment, so
timings can be normalised to one nominal speed.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import time
from importlib import metadata
from pathlib import Path

import numpy as np

REF_NOMINAL_S = 1.0e-3
"""The reference kernel's time on a quiet 2-core Xeon VM (rounded).

This host runs at speeds up to 1.6x apart, in phases of seconds and in
regimes of many minutes, which the guest's steal and CPU-time counters
barely show. The end-to-end timings are therefore host-speed normalised: each
raw time is multiplied by ``REF_NOMINAL_S`` over the reference kernel's
time measured next to it, and so reads as if the host ran at that speed.
A closed-loop slot is normalised by the reference times of its neighbours
(the host's phases last seconds); a fresh-process launch, which the
parent's kernel cannot time alongside, by the reference times of the whole
run. The raw times and the reference times go into every run's notes."""
REF_REPEATS = 5
"""Reference kernels timed between two launches."""
REF_RADIUS = 5
"""Closed-loop slots on each side whose reference times are pooled (median)."""

_REF_TABLE = {i: (i * 7919) % 1009 for i in range(2048)}
_REF_ARRAY = np.random.default_rng(0).random(4096)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from files (no git process)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def source_digest(src: Path) -> str:
    """sha256 over the program's Python sources: names the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(root: Path) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _commit(root),
        "src_sha256": source_digest(root / "src"),
    }


def _proc_stat() -> tuple[int, int] | None:
    """(steal, total) jiffies of the aggregate CPU line."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    values = [int(v) for v in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already counted inside user/nice
    return steal, sum(values[:8])


class NoiseProbe:
    """CPU/wall ratio, steal and load over one measured region.

    CPU time counts this process and the children it has waited for, so a
    region that launches processes reads about 1.0 on an idle host too.
    """

    def __init__(self) -> None:
        self._wall = time.perf_counter()
        self._cpu = self._cpu_s()
        self._stat = _proc_stat()

    @staticmethod
    def _cpu_s() -> float:
        return sum(
            usage.ru_utime + usage.ru_stime
            for usage in (
                resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN),
            )
        )

    def read(self) -> dict[str, float]:
        wall = time.perf_counter() - self._wall
        cpu = self._cpu_s() - self._cpu
        stat = _proc_stat()
        steal_pct = 0.0
        if stat is not None and self._stat is not None:
            total = stat[1] - self._stat[1]
            if total > 0:
                steal_pct = 100.0 * (stat[0] - self._stat[0]) / total
        return {
            "host.cpu_wall_ratio": cpu / wall if wall > 0 else 0.0,
            "host.steal_pct": steal_pct,
            "host.loadavg_1m": os.getloadavg()[0],
        }


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size (Linux reports ``ru_maxrss`` in KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def ref_kernel_s() -> float:
    """Seconds for one fixed kernel that shares no code with the program:
    interpreter work like the program's Python, plus small numpy calls."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(4000):
        acc += _REF_TABLE[i & 2047] * 3 % 7
    order = np.argsort(_REF_ARRAY)
    np.cumsum(_REF_ARRAY[order])
    return time.perf_counter() - t0


def ref_samples() -> list[float]:
    return [ref_kernel_s() for _ in range(REF_REPEATS)]


def scale_of(refs: list[float]) -> float:
    """Normalising factor for a run's fresh-process launches."""
    return REF_NOMINAL_S / statistics.median(refs)


def scales_along(refs: list[float]) -> list[float]:
    """Normalising factor per closed-loop slot, each from the reference
    times of the slots within ``REF_RADIUS`` of it."""
    return [
        REF_NOMINAL_S / statistics.median(refs[max(0, i - REF_RADIUS):i + REF_RADIUS + 1])
        for i in range(len(refs))
    ]
