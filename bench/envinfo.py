"""Machine and thread budget of a benchmark process, read-only."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_THREAD_QUERIES = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_budget() -> tuple[int, int]:
    """(sampler workers, BLAS threads per worker) with their product at
    most nproc.  Two workers where there are two cores, the count that
    gaussian.sampler_w2_speedup compares against one."""
    cores = nproc()
    workers = min(2, cores)
    return workers, max(1, cores // workers)


def cache_sizes() -> dict[str, str]:
    """Level-2/3 cache sizes of cpu0 from sysfs, e.g. {"L2": "2048K"}."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def collect(workers: int) -> dict:
    """Everything the notes ask to record; call after numpy and scipy are
    imported."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "workers": workers,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **cache_sizes(),
    }
