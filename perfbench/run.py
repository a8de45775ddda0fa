#!/usr/bin/env python3
"""The repository's benchmark: batch worst-case analysis, batch escape
analysis and hot-tier serving (see ``perfbench/README.md``).

Run from the checkout root:

    python3 perfbench/run.py --workload analysis_batch --seed 1 \
        --seconds 45 --trace 0
    python3 perfbench/run.py --workload all            # both workloads
    python3 perfbench/run.py --workload analysis_batch --trace 1
    python3 perfbench/run.py --workload serve_hot --repeat 5

Each workload runs in fresh processes with a hermetic environment.
The command prints every metric by name with its unit and sample count,
then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json``, or its per-layer metrics with ``--trace 1``).  It
exits nonzero when any operation failed or produced a wrong output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any

from common import (
    BENCH_DIR,
    CLI_SEED,
    OUT_DIR,
    ROOT,
    SRC,
    THREAD_PINS,
    hermetic_env,
    load_spec,
    percentile,
    spread,
)
from hostspeed import factor
from workloads import ROTATIONS, WORKLOADS

#: Set-ups per run; ``setup_s`` is their median.  A closed-loop set-up
#: takes ~0.5 s, so seven are cheap; serve_hot's takes ~4 s (it builds
#: every hot-tier entry), so it gets three to keep a run inside budget.
SETUP_REPEATS = {"analysis_batch": 7, "serve_hot": 3}
#: Wall-clock budget of one run, all of its processes included.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def _worker(
    env: dict[str, str], argv: list[str], deadline: float
) -> dict[str, Any]:
    """Run ``worker.py`` in its own session; kill the session on overrun."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(
            f"worker {' '.join(argv)} overran the run budget"
        ) from None
    finally:
        # The worker stops what it started; this reaps anything a crash
        # left behind in its session (e.g. an orphaned service).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{tail}")
    return json.loads(out.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload: the set-ups, then the measured run."""
    deadline = time.time() + RUN_BUDGET_S
    cache = OUT_DIR / f"cache-{os.getpid()}-{workload}"
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    env = hermetic_env(cache)
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    load_before = os.getloadavg()
    # The extra set-ups straddle the measured run, so a slow spell of the
    # host hits at most some of them.
    extra = 0 if trace else SETUP_REPEATS[workload] - 1
    try:
        setups = [
            _worker(env, [*base, "--setup-only"], deadline)["setup_s"]
            for _ in range(extra // 2)
        ]
        trace_file = OUT_DIR / "traces" / f"{workload}-seed{seed}.jsonl"
        argv = [*base, "--trace", str(trace)]
        if trace:
            argv += ["--trace-file", str(trace_file)]
        result = _worker(env, argv, deadline)
        setups.append(result["setup_s"])
        setups += [
            _worker(env, [*base, "--setup-only"], deadline)["setup_s"]
            for _ in range(extra - extra // 2)
        ]
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    result["setups"] = setups
    result["fingerprint"] = fingerprint(load_before, os.getloadavg())
    result["workload"] = workload
    result["seed"] = seed
    return result


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(result: dict) -> dict[str, tuple[float, str, str]]:
    """``name -> (value, unit, note)`` for the untraced metrics.

    Times are scaled to the nominal host (``hostspeed.py``) by the
    run's speed factor, set-ups included (they straddle the measured
    run); each note gives the raw value and the sample count.
    """
    lat = sorted(result["latencies"])
    n = len(lat)
    p90, beyond = percentile(lat, 0.9)
    f = factor(result)
    setups = result["setups"]
    setup = statistics.median(setups)
    process = "service process" if "serve" in result else "worker process"
    ops_per_s = n / result["elapsed_s"]
    p50 = statistics.median(lat)
    cpu = result["cpu_s"] / n
    return {
        "setup_s": (
            setup * f, "s",
            f"median of {len(setups)} set-ups; raw {setup:.4g} s",
        ),
        # serve_hot's rate is the generator's offered rate: not scaled.
        "ops_per_s": (
            ops_per_s / (1.0 if "serve" in result else f), "1/s",
            f"n={n} ops over {result['elapsed_s']:.2f} s; "
            f"raw {ops_per_s:.4g}/s",
        ),
        "latency_p50_s": (p50 * f, "s", f"n={n}; raw {p50:.4g} s"),
        "latency_p90_s": (
            p90 * f, "s", f"n={n}, {beyond} beyond p90; raw {p90:.4g} s"
        ),
        "cpu_s_per_op": (
            cpu * f, "s", f"n={n}; {process}; raw {cpu:.4g} s"
        ),
        "peak_rss_mb": (
            result["peak_rss_mb"], "MB", f"VmHWM of the {process}"
        ),
    }


def fingerprint(load_before: tuple, load_after: tuple) -> dict[str, Any]:
    """Where and on what a result was measured."""
    import numpy

    blas: Any = None
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode())
        tree.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": THREAD_PINS["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "src_sha256": tree.hexdigest(),
    }


def report(result: dict, spec: dict, trace: int) -> dict[str, Any]:
    """Print one run's metrics; return its JSON ``metrics`` object."""
    workload = result["workload"]
    attempted = result["attempted"]
    failed = len(result["errors"])
    print(
        f"== {workload}  seed={result['seed']}  trace={trace}  "
        f"rotations={result['rotations']} x {len(ROTATIONS[workload])} ops"
    )
    e2e = end_to_end(result)
    reference = (
        f"reference request median {result['reference_s'] * 1e3:.4f} ms"
        if "reference_s" in result
        else f"kernel median {result['kernel_s'] * 1e3:.4f} ms"
    )
    print(
        f"  host speed factor {factor(result):.4f} ({reference} over the "
        f"run); times below are scaled by it"
    )
    for name, (value, unit, note) in e2e.items():
        print(f"  {name:<24} {value:>12.6g} {unit:<6} ({note})")
    print(
        f"  {'failed_frac':<24} {failed / attempted:>12.6g} {'frac':<6} "
        f"({failed} of {attempted} operations)"
    )
    if "serve" in result:
        serve = result["serve"]
        print(
            f"  {'send_lag_p90_s':<24} {serve['send_lag_p90_s']:>12.6g} "
            f"{'s':<6} (n={attempted}; open loop at "
            f"{serve['rate_per_s']:g}/s, <= {serve['max_connections']} "
            f"connections)"
        )
        print(
            f"  hot tier during the timed window: hit ratio "
            f"{serve['hot_hit_ratio']:.4f}, builds started "
            f"{serve['builds_started']}"
        )
    by_key: dict[str, list[float]] = {}
    for key, latency in zip(result["keys"], result["latencies"], strict=True):
        by_key.setdefault(key, []).append(latency)
    print("  latency by operation (median, min-max):")
    for key, values in sorted(
        by_key.items(), key=lambda kv: statistics.median(kv[1])
    ):
        print(
            f"    {key:<24} n={len(values):<4} "
            f"{statistics.median(values):.6f} s "
            f"({min(values):.6f}-{max(values):.6f})"
        )
    for error in result["errors"][:10]:
        print(f"  FAILED {error}")
    print(f"  fingerprint {json.dumps(result['fingerprint'])}")
    if not trace:
        names = [m["name"] for m in spec["end_to_end"]]
        return {
            name: {"value": e2e[name][0], "unit": e2e[name][1]}
            for name in names
        }
    layers = result["layers"]
    print(
        f"  traced: {layers['traced_ops']} operations, {result['spans']} "
        f"spans; self time per operation:"
    )
    for name, value in sorted(
        layers["self_s"]["per_op"].items(), key=lambda kv: -kv[1]
    ):
        print(f"    {name:<32} {value:>12.6g} s")
    for name, value in sorted(layers["self_s"]["setup"].items()):
        print(f"    {name + ' (set-up)':<32} {value:>12.6g} s")
    print("  layer counts of one traced operation:")
    for key, counts in sorted(layers["counts_by_op"].items()):
        text = ", ".join(f"{name}={value}" for name, value in counts.items())
        print(f"    {key:<24} {text or '-'}")
    metrics = {}
    for entry in spec["per_layer"]:
        value = layers["metrics"].get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<34} {value:>12.6g} {entry['unit']}")
    return metrics


def steadiness(runs: list[dict], spec: dict) -> None:
    """Median, quartiles and spreads of repeated runs against bounds."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workload = runs[0]["workload"]
    print(f"== steadiness of {workload} over {len(runs)} runs (seeds "
          f"{', '.join(str(r['seed']) for r in runs)})")
    print(f"  {'metric':<16} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
    table = [end_to_end(r) for r in runs]
    for name, bound in bounds.items():
        s = spread([t[name][0] for t in table])
        flag = "".join(
            f"  {label} EXCEEDS BOUND"
            for label, key in (("range", "range_frac"), ("IQR", "iqr_frac"))
            if s[key] > bound
        )
        print(
            f"  {name:<16} {s['median']:>11.5g} {s['q1']:>11.5g} "
            f"{s['q3']:>11.5g} {s['iqr_frac']:>8.4f} {s['range_frac']:>9.4f} "
            f"{bound:>6.3f}{flag}"
        )


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=CLI_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="steadiness mode: N runs per workload, seeds seed..seed+N-1",
    )
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds else float(spec["run_seconds"])
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]

    correct = True
    attempted = failed = 0
    metrics: dict[str, Any] = {}
    for workload in workloads:
        runs = []
        for i in range(args.repeat):
            try:
                result = run_once(workload, args.seed + i, seconds, args.trace)
            except BenchError as exc:
                print(f"error: {workload}: {exc}", file=sys.stderr)
                return 1
            runs.append(result)
            values = report(result, spec, args.trace)
            save(result, values)
            attempted += result["attempted"]
            failed += len(result["errors"])
            correct = correct and not result["errors"]
        if args.repeat > 1 and not args.trace:
            steadiness(runs, spec)
            values = {
                name: {
                    "value": statistics.median(
                        end_to_end(r)[name][0] for r in runs
                    ),
                    "unit": entry["unit"],
                }
                for entry in spec["end_to_end"]
                for name in [entry["name"]]
            }
        if len(workloads) == 1:
            metrics = values
        else:
            metrics.update(
                {f"{workload}.{name}": v for name, v in values.items()}
            )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def save(result: dict, metrics: dict) -> None:
    """Keep the full record of a run (fingerprint included) on disk."""
    record = {
        k: v for k, v in result.items() if k not in ("latencies", "keys")
    }
    record["metrics"] = metrics
    path = (
        OUT_DIR / "results"
        / f"{result['workload']}-seed{result['seed']}-{int(time.time())}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
