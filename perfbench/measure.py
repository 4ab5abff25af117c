"""Order statistics, machine speed, memory and start-up timing for the benchmark."""
from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10
MIN_SAMPLES = TAIL_BEYOND + 1


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile of ``samples`` that has ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``: the sample with exactly ten samples
    ranked above it, and the percentile that rank sits at, ``100 * (n - 10) / n``.

    Raises:
        ValueError: with fewer than eleven samples no such percentile exists.
    """
    n = len(samples)
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples for a tail, got {n}")
    ordered = sorted(samples)
    return ordered[n - MIN_SAMPLES], 100.0 * (n - TAIL_BEYOND) / n


# Seconds one reference_s() call took on the machine the baseline was recorded
# on (2-CPU Xeon VM, Python 3.11, numpy 2.4), in its faster periods.
REFERENCE_NOMINAL_S = 2.0e-3

_REF_GRID = np.arange(64.0).reshape(8, 8)


def reference_s() -> float:
    """Time one call of a fixed reference kernel, in seconds.

    The kernel mixes an interpreted loop over small-array indexing with
    random-number generation and a vector product, like specsense's trial
    code.  It is not specsense code and never changes, so its time follows
    only how fast the machine runs this process at that moment.  On a shared
    machine that speed drifts by a third within minutes, and a unit's time
    correlates with the reference time measured right after it.
    """
    t = time.perf_counter()
    acc = 0.0
    for k in range(6000):
        acc += float(_REF_GRID[k % 8, (k * 3) % 8]) * 1.0001
    for seed in range(2):
        x = np.random.default_rng(seed).standard_normal(8192)
        acc += float(x @ x)
    return time.perf_counter() - t


# Share of a unit's time spent timing the reference kernel after it.
REFERENCE_SHARE = 0.1


def reference_after(unit_s: float, every_cpu: bool = False) -> float:
    """Median reference time over calls lasting about a tenth of ``unit_s``.

    A longer unit spans more of the machine's speed changes, so it gets a
    longer reference sample; a single call is too short to stand for a
    second-long unit.  The CPUs of a shared machine also run at different
    speeds: with ``every_cpu`` the sample is split over each CPU this process
    may use, pinned in turn, and the mean is returned, for units whose child
    processes run on any of them.
    """
    if not every_cpu:
        calls = max(1, round(REFERENCE_SHARE * unit_s / REFERENCE_NOMINAL_S))
        return statistics.median(reference_s() for _ in range(calls))
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(reference_after(unit_s / len(allowed)))
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


def bracketed(after: list[float]) -> list[float]:
    """Reference of each unit from the references taken after each unit.

    The reference after unit ``i - 1`` is also the one just before unit
    ``i``; their mean follows the machine's speed during unit ``i`` better
    than either alone.  The first unit has only the one after it.
    """
    return after[:1] + [(a + b) / 2.0 for a, b in zip(after, after[1:])]


def scaled(times: list[float], references: list[float],
           nominal: float = REFERENCE_NOMINAL_S) -> list[float]:
    """Times at nominal machine speed: each scaled by the reference time taken beside it."""
    return [t * nominal / r for t, r in zip(times, references)]


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB of this process, or of its waited-for children."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def child_env(src: Path) -> dict[str, str]:
    """Environment for a child interpreter that imports specsense from ``src``."""
    env = dict(os.environ)
    parts = [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


# Seconds a fresh interpreter took to import numpy alone, pinned to one CPU,
# on the baseline machine in its faster periods: the reference of import times.
NUMPY_IMPORT_NOMINAL_S = 0.055


def _child_import_s(src: Path, module: str, cpu: int) -> float:
    """Seconds a fresh interpreter pinned to ``cpu`` spends importing ``module``."""
    code = (
        f"import os, time; os.sched_setaffinity(0, {{{cpu}}}); t = time.perf_counter(); "
        f"import {module}; print(repr(time.perf_counter() - t))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(src), cwd=src.parent,
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def fresh_imports(src: Path, module: str, pairs: int) -> tuple[list[float], list[float]]:
    """Fresh-interpreter import times of ``module``, each with a reference beside it.

    Returns ``(times, references)``: import ``k`` runs pinned to one CPU, the
    CPUs taken in turn, and is followed on the same CPU by a fresh import of
    numpy alone, its reference.  Unpinned, numpy's start-up threads spread an
    import over both CPUs of a shared machine and its time follows the load
    on the other CPU; and an import's speed follows that of a numpy import
    beside it far better than that of ``reference_s``.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times, references = [], []
    for k in range(pairs):
        cpu = cpus[k % len(cpus)]
        times.append(_child_import_s(src, module, cpu))
        references.append(_child_import_s(src, "numpy", cpu))
    return times, references
