"""Shared helpers: statistics, units, the child-process environment and the
machine record."""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

# numpy's BLAS pool is held at one thread: one client runs in a closed loop,
# and the remaining cores stay free for the operating system.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MiB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    return xs[max(0, math.ceil(q / 100.0 * len(xs)) - 1)]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "import_s"):
        return "s"
    if last == "ms":
        return "ms"
    if last.endswith("_pct"):
        return "%"
    return "count"


TAIL_SAMPLES = 200  # p95 needs ten samples beyond it


def timing_metrics(op_latencies_s: list, round_times_s: list) -> dict:
    """run_s, ops_per_s and latency percentiles of the timed operations.

    op_p95_ms is the 95th percentile when at least ten samples lie beyond it;
    with fewer samples no tail percentile is supported and it falls back to
    the median."""
    total = sum(round_times_s)
    ms = [t * 1000.0 for t in op_latencies_s]
    p50 = percentile(ms, 50)
    return {
        "run_s": total / len(round_times_s),
        "ops_per_s": len(op_latencies_s) / total,
        "op_p50_ms": p50,
        "op_p95_ms": percentile(ms, 95) if len(ms) >= TAIL_SAMPLES else p50,
    }


def machine_record() -> dict:
    import numpy
    import scipy

    # glibc's _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    # (answered from cpuid on x86; Python has no names for them)
    caches = {}
    for label, name in (("l1d", 188), ("l2", 191), ("l3", 194)):
        try:
            caches[label] = os.sysconf(name)
        except (ValueError, OSError):
            caches[label] = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas = "unknown"
    return {
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "executable": Path(sys.executable).name,
    }
