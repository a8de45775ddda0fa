"""Shared helpers: paths, the hermetic environment, statistics."""

from __future__ import annotations

import json
import math
import os
import statistics
from pathlib import Path

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run leaves behind (caches, span dumps, result records).
OUT_DIR = BENCH_DIR / "out"

#: Seed every ``repro`` CLI command defaults to; the benchmark's default
#: workload seed too, so the golden escape digests cover it.
CLI_SEED = 2005

#: Fewest samples beyond p90 for the percentile to be reported.
TAIL_SAMPLES = 10

#: BLAS/OpenMP pools pinned to one thread: the worst-case sgemm path goes
#: through OpenBLAS, whose default pool size follows the host's cores.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def hermetic_env(cache_dir: Path) -> dict[str, str]:
    """The environment every benchmark process runs in.

    Inherited ``REPRO_*`` settings (jobs, executor, backend, kernel
    switches, trace files, ...) are dropped so no caller's shell can
    change what is measured; the shard cache is a private empty
    directory; thread pools are pinned.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env.update(THREAD_PINS)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def load_spec() -> dict:
    """``BENCHMARK.json`` at the checkout root (names, units, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles and relative spreads of two or more runs."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / med,
        "range_frac": (max(values) - min(values)) / med,
    }
