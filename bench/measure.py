"""Summary statistics, peak memory and the environment record."""

from __future__ import annotations

import math
import os
import platform
import resource
import time
from pathlib import Path
from typing import Sequence

# Environment variables that pin BLAS/OpenMP pools; set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# Seconds one calibrate() takes on the reference machine speed that
# run_s and setup_s are scaled to: the typical speed of a 2-vCPU Intel Xeon
# VM, on which it takes 0.07 s to 0.12 s.
CALIBRATION_S = 0.1

_CAL_WORDS = [f"w{i}" for i in range(500)]


def calibrate() -> float:
    """Seconds taken by a fixed loop of the program's kinds of work: dict,
    string and list operations in Python, and small numpy matrix products,
    softmaxes and argmaxes. Run next to each timed operation, it measures
    how fast the machine is running at that moment."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((48, 48)) * 0.1
    started = time.perf_counter()
    for _ in range(3):
        counts: dict[str, int] = {}
        for i in range(6000):
            word = _CAL_WORDS[(i * 7) % 500]
            counts[word] = counts.get(word, 0) + 1
            tokens = (word + " " + _CAL_WORDS[i % 500]).split()
            counts[tokens[1]] = counts.get(tokens[1], 0) + len(tokens)
        x = a
        for i in range(600):
            y = np.tanh(x @ a)
            p = np.exp(y - y.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            x = a + 0.01 * p[:, ::-1]
            int(np.argmax(p[i % 48]))
    return time.perf_counter() - started


def at_reference_speed(seconds: float, calibrations: Sequence[float], before: int) -> float:
    """`seconds` timed between calibrations[before] and calibrations[before
    + 1], rescaled to the speed at which one calibration takes
    CALIBRATION_S. The host's speed changes by up to 2x within minutes; the
    speed at the time is taken as the mean of those two calibrations and of
    one more on each side, which cancels the change common to the program
    and the calibration while averaging out a single calibration's jitter."""
    near = calibrations[max(before - 1, 0):before + 3]
    return seconds * CALIBRATION_S * len(near) / sum(near)


def samples_beyond(n: int, q: float) -> int:
    """How many of n sorted samples lie above the q-th percentile's rank."""
    return n - math.ceil(q * n / 100)


def tail_percentile(values: Sequence[float], q: float) -> float | None:
    """The q-th percentile, or None unless at least ten samples lie beyond
    it (a p99 needs 1000 samples)."""
    if not values or samples_beyond(len(values), q) < 10:
        return None
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered) / 100) - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """Commit of a git checkout at root, read from .git without running git;
    "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload_seed": seed,
        "git_commit": _git_commit(root),
    }
