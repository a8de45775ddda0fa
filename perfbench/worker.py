"""One workload run in a fresh process (started by ``run.py``).

Set-up time counts from the first line of this file, so it includes the
interpreter's imports of ``repro`` and numpy (or, for ``serve_hot``,
starting the service process) and every cold fill.  The result is one
JSON object on the last line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only] [--trace-file PATH]
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse
import asyncio
import json
import os
import re
import resource
import socket
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Any

from common import BENCH_DIR, ROOT, TAIL_SAMPLES, percentile
from spans import Recorder, self_times
from workloads import (
    ROTATIONS,
    SERVE_RATE,
    AnalysisBatch,
    Op,
    digest,
    load_golden,
    service_handlers,
    shuffled,
)

#: A run keeps measuring whole rotations until both ``--seconds`` have
#: passed and p90 has ``TAIL_SAMPLES`` samples beyond it ...
MIN_SAMPLES = 10 * TAIL_SAMPLES
#: ... but never longer than this, so a run ends well inside 180 s.
HARD_LIMIT_S = 110.0


#: serve_hot times requests to the reference service (``hostspeed.py``)
#: after each rotation, spaced so its CPU idles in between as the
#: service's does between requests.
REFERENCE_REQUESTS = 4
REFERENCE_GAP_S = 0.05


def _pin(cpu: int) -> None:
    """Bind this process (and what it starts afterwards) to one CPU."""
    os.sched_setaffinity(0, {cpu})


#: The CPUs a run may use.  Closed loops run pinned to the last one;
#: serve_hot puts the service on the first and the load generator on
#: the last, so neither preempts the other.
CPUS = sorted(os.sched_getaffinity(0))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _error(op: Op, exc: BaseException) -> str:
    return f"{op.key}: {type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------
# Closed loop: analysis_batch
# ----------------------------------------------------------------------
def closed_loop(args: argparse.Namespace) -> dict[str, Any]:
    _pin(CPUS[-1])
    workload = AnalysisBatch(args.seed)
    probes = None
    if args.trace:
        from probes import Probes

        probes = Probes(Recorder())
        probes.install()
    workload.setup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        return {"setup_s": setup_s}
    from hostspeed import HostSpeed

    speed = HostSpeed()
    if probes is not None:
        probes.counts.clear()

    rotation = ROTATIONS[args.workload]
    latencies: list[float] = []
    keys: list[str] = []
    errors: list[str] = []
    rotation_s: dict[bool, list[float]] = {False: [], True: []}
    seen: dict[str, Counter[str]] = {}
    elapsed = cpu = 0.0
    index = 0
    while True:
        traced = probes is not None and is_traced(index)
        if probes is not None:
            probes.recorder.enabled = traced
            # install() and uninstall() are idempotent: the wrappers go
            # in on the untraced -> traced step and come out on the
            # traced -> untraced one, never twice.
            if traced:
                probes.install()
            else:
                probes.uninstall()
        busy = 0.0
        for op in shuffled(rotation, args.seed, index):
            if probes is not None:
                probes.recorder.request = len(latencies)
            keys.append(op.key)
            before = Counter(probes.counts) if traced else None
            t = time.perf_counter()
            c = time.process_time()
            try:
                output: str | None = workload.run(op)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                output, problem = None, _error(op, exc)
            latencies.append(time.perf_counter() - t)
            if output is not None:
                problem = workload.check(op, output)
            if problem is None and before is not None:
                problem = repeat_counts(
                    seen, op.key, probes.counts - before
                )
            if problem is not None:
                errors.append(problem)
            # The timed window is the operations and their output checks;
            # the host speed kernel after each one is outside it.
            busy += time.perf_counter() - t
            cpu += time.process_time() - c
            speed.sample()
        rotation_s[traced].append(busy)
        elapsed += busy
        index += 1
        enough = elapsed >= args.seconds and len(latencies) >= MIN_SAMPLES
        if (enough and (probes is None or index % 4 == 0)) or (
            elapsed >= HARD_LIMIT_S
        ):
            break
    result: dict[str, Any] = {
        "setup_s": setup_s,
        "elapsed_s": elapsed,
        "cpu_s": cpu,
        "kernel_s": speed.median_s(),
        "latencies": latencies,
        "keys": keys,
        "attempted": len(latencies),
        "errors": errors,
        "peak_rss_mb": _peak_rss_mb(),
        "rotations": index,
    }
    if probes is not None:
        probes.uninstall()
        traced_ops = len(rotation) * len(rotation_s[True])
        result["layers"] = layer_summary(
            probes.recorder, probes.counts, traced_ops, seen,
            overhead=(
                statistics.mean(rotation_s[True])
                / statistics.mean(rotation_s[False])
                - 1.0
            ),
        )
        result["spans"] = len(probes.recorder.spans)
        if args.trace_file:
            probes.recorder.write(Path(args.trace_file))
    return result


def is_traced(rotation: int) -> bool:
    """Traced runs interleave untraced and traced rotations in the order
    untraced, traced, traced, untraced (repeating), so a steady drift of
    the machine's speed cancels out of the overhead estimate."""
    return rotation % 4 in (1, 2)


def layer_summary(
    recorder: Recorder,
    counts: dict[str, int],
    traced_ops: int,
    counts_by_op: dict[str, Counter[str]],
    *,
    overhead: float,
    extra: dict[str, float] | None = None,
) -> dict[str, Any]:
    """Per-layer numbers of a traced run.

    Times are self seconds per traced operation, except
    ``bench_suite.get_circuit_s``, which is self seconds per set-up
    (spans with no operation id are set-up work).  Counts are per
    traced operation; ``counts_by_op`` holds each operation's own.
    """
    setup = self_times([s for s in recorder.spans if s.request is None])
    ops = self_times([s for s in recorder.spans if s.request is not None])
    per_op = {name: total / traced_ops for name, total in ops.items()}
    layers: dict[str, float] = {
        f"{name}_s": value for name, value in per_op.items()
    }
    layers["bench_suite.get_circuit_s"] = setup.get(
        "bench_suite.get_circuit", 0.0
    )
    for name, value in counts.items():
        layers[name] = value / traced_ops
    raw = counts.get("faultsim.bridging_raw", 0)
    layers["faultsim.detectable_ratio"] = (
        counts.get("faultsim.bridging_detectable", 0) / raw if raw else 0.0
    )
    layers["obs.trace_overhead_frac"] = overhead
    layers.update(extra or {})
    return {
        "metrics": layers,
        "self_s": {"setup": setup, "per_op": per_op},
        "counts_by_op": {
            key: dict(sorted(c.items())) for key, c in counts_by_op.items()
        },
        "traced_ops": traced_ops,
    }


# ----------------------------------------------------------------------
# Open loop: serve_hot
# ----------------------------------------------------------------------
HOST = "127.0.0.1"
#: How long before a request is due the generator stops sleeping and
#: spins, so requests leave on time.
SPIN_S = 0.002


def _http_request(op: Op) -> bytes:
    body = json.dumps({"circuit": op.circuit}).encode("utf-8")
    return (
        f"POST {op.kind} HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


def _split_response(raw: bytes) -> tuple[int, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body


def _blocking(port: int, data: bytes) -> tuple[int, bytes]:
    with socket.create_connection((HOST, port), timeout=60.0) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    return _split_response(b"".join(chunks))


def _stats(port: int) -> dict[str, Any]:
    status, body = _blocking(
        port, f"GET /stats HTTP/1.1\r\nHost: {HOST}\r\n\r\n".encode()
    )
    if status != 200:
        raise RuntimeError(f"GET /stats returned {status}")
    return json.loads(body)


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, from /proc (clock ticks)."""
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class Server:
    """A service process on the first CPU (``repro serve`` by default),
    stopped and reaped on exit."""

    def __init__(self, argv: list[str] | None = None) -> None:
        if argv is None:
            argv = ["-m", "repro", "serve", "--host", HOST, "--port", "0"]
        _pin(CPUS[0])
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        _pin(CPUS[-1])
        line = self.proc.stdout.readline() if self.proc.stdout else ""
        match = re.search(r":(\d+) ", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"{argv} did not start: {line!r}")
        self.port = int(match.group(1))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


async def _open_loop(
    port: int, ops: list[Op], rate: float, rotation_len: int,
    recorder: Recorder | None, ref_port: int, reference: list[float],
) -> dict[str, Any]:
    """Send ``ops`` at a fixed rate; time each from when it was due.

    Each rotation is sent on its own schedule.  Between rotations, once
    the last response is in, the generator times a few requests to the
    reference service into ``reference``; that pause is not part of the
    timed window.
    """
    connections = len(CPUS)
    gate = asyncio.Semaphore(connections)
    golden = load_golden()["serve"]
    latency = [0.0] * len(ops)
    errors: list[str] = []
    lags: list[float] = []
    opened = 0

    async def one(i: int, op: Op, due: float) -> None:
        nonlocal opened
        try:
            async with gate:
                sent = time.perf_counter()
                reader, writer = await asyncio.open_connection(HOST, port)
                opened += 1
                try:
                    writer.write(_http_request(op))
                    await writer.drain()
                    raw = await reader.read()
                finally:
                    writer.close()
                    await writer.wait_closed()
            done = time.perf_counter()
            status, body = _split_response(raw)
        except (OSError, EOFError, ValueError, IndexError) as exc:
            latency[i] = time.perf_counter() - due
            errors.append(_error(op, exc))
            return
        latency[i] = done - due
        if recorder is not None and is_traced(i // rotation_len):
            recorder.add(f"serve.request.{op.kind[1:]}", sent, done, i)
        if status != 200:
            errors.append(f"{op.key}: HTTP {status}")
        elif digest(body.decode("utf-8")) != golden[op.key]:
            errors.append(f"{op.key}: response differs from the golden digest")

    elapsed = 0.0
    for first in range(0, len(ops), rotation_len):
        start = time.perf_counter() + 0.01
        tasks = []
        for i in range(first, first + rotation_len):
            due = start + (i - first) / rate
            # The loop's timers wake up to a millisecond late; sleep to
            # just short of the due time, then spin the rest.
            delay = due - time.perf_counter() - SPIN_S
            if delay > 0:
                await asyncio.sleep(delay)
            while time.perf_counter() < due:
                pass
            lags.append(time.perf_counter() - due)
            tasks.append(asyncio.create_task(one(i, ops[i], due)))
        await asyncio.gather(*tasks)
        elapsed += time.perf_counter() - start
        # Between rotations, with nothing in flight and outside the
        # timed window.
        for _ in range(REFERENCE_REQUESTS):
            await asyncio.sleep(REFERENCE_GAP_S)
            t = time.perf_counter()
            reader, writer = await asyncio.open_connection(HOST, ref_port)
            writer.write(b"GET / HTTP/1.1\r\nHost: reference\r\n\r\n")
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            reference.append(time.perf_counter() - t)
            if _split_response(raw)[0] != 200:
                raise RuntimeError("the reference service failed")
    return {
        "latencies": latency,
        "errors": errors,
        "elapsed_s": elapsed,
        "lags": lags,
        "connections": opened,
        "max_connections": connections,
    }


def serve_hot(args: argparse.Namespace) -> dict[str, Any]:
    rotation = ROTATIONS["serve_hot"]
    golden = load_golden()["serve"]
    server = Server()
    ref_server: Server | None = None
    try:
        # The write path: every key once (build, single flight, insert).
        for op in dict.fromkeys(rotation):
            status, body = _blocking(server.port, _http_request(op))
            if status != 200 or digest(body.decode()) != golden[op.key]:
                raise RuntimeError(f"set-up request {op.key} failed")
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            return {"setup_s": setup_s}
        ref_server = Server([str(BENCH_DIR / "refserver.py")])
        reference: list[float] = []
        rotations = -(-max(args.seconds * SERVE_RATE, MIN_SAMPLES) //
                      len(rotation))
        if args.trace:
            rotations = -(-rotations // 4) * 4
        ops = [
            op for r in range(int(rotations))
            for op in shuffled(rotation, args.seed, r)
        ]
        recorder = Recorder() if args.trace else None
        before = _stats(server.port)
        cpu0 = _proc_cpu_s(server.proc.pid)
        loop = asyncio.run(
            _open_loop(
                server.port, ops, SERVE_RATE, len(rotation), recorder,
                ref_server.port, reference,
            )
        )
        cpu = _proc_cpu_s(server.proc.pid) - cpu0
        after = _stats(server.port)
        peak = _proc_hwm_mb(server.proc.pid)
    finally:
        server.stop()
        if ref_server is not None:
            ref_server.stop()

    hits = after["hot_tier"]["hits"] - before["hot_tier"]["hits"]
    misses = after["hot_tier"]["misses"] - before["hot_tier"]["misses"]
    lags = sorted(loop["lags"])
    serve_extra = {
        "rate_per_s": SERVE_RATE,
        "send_lag_p90_s": percentile(lags, 0.9)[0],
        "hot_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "builds_started": (
            after["flights"]["started"] - before["flights"]["started"]
        ),
        "connections_per_request": loop["connections"] / len(ops),
        "max_connections": loop["max_connections"],
    }
    result: dict[str, Any] = {
        "setup_s": setup_s,
        "elapsed_s": loop["elapsed_s"],
        "cpu_s": cpu,
        "reference_s": statistics.median(reference),
        "reference": reference,
        "latencies": loop["latencies"],
        "keys": [op.key for op in ops],
        "attempted": len(ops),
        "errors": loop["errors"],
        "peak_rss_mb": peak,
        "rotations": int(rotations),
        "serve": serve_extra,
    }
    if recorder is not None:
        result["layers"] = serve_layers(
            args, recorder, ops, len(rotation), serve_extra
        )
        result["spans"] = len(recorder.spans)
        if args.trace_file:
            recorder.write(Path(args.trace_file))
    return result


def serve_layers(
    args: argparse.Namespace,
    recorder: Recorder,
    ops: list[Op],
    rotation_len: int,
    serve_extra: dict[str, Any],
) -> dict[str, Any]:
    """Traced serve_hot: request spans came from the open loop; handler
    spans come from direct calls on an in-process service.

    The service process itself is never traced, so the probes' overhead
    is measured here, where they run: the handler calls replay the run's
    rotations, untraced and traced interleaved as in :func:`is_traced`.
    """
    from probes import Probes
    from repro.serve.service import AnalysisService

    golden = load_golden()["serve"]
    probes = Probes(recorder)
    probes.install()
    handlers = service_handlers(AnalysisService())
    loop = asyncio.new_event_loop()
    rotation_s: dict[bool, list[float]] = {False: [], True: []}
    seen: dict[str, Counter[str]] = {}
    traced_ops = 0
    try:
        recorder.request = None
        for op in dict.fromkeys(ops):
            loop.run_until_complete(handlers[op.kind]({"circuit": op.circuit}))
        probes.counts.clear()
        for index in range(len(ops) // rotation_len):
            traced = is_traced(index)
            recorder.enabled = traced
            if traced:
                probes.install()
            else:
                probes.uninstall()
            began = time.perf_counter()
            for i in range(index * rotation_len, (index + 1) * rotation_len):
                op = ops[i]
                recorder.request = i
                before = Counter(probes.counts)
                with recorder.span(f"serve.handler.{op.kind[1:]}"):
                    text = loop.run_until_complete(
                        handlers[op.kind]({"circuit": op.circuit})
                    )
                if digest(text) != golden[op.key]:
                    raise RuntimeError(
                        f"in-process {op.key} differs from golden"
                    )
                if traced:
                    problem = repeat_counts(
                        seen, op.key, probes.counts - before
                    )
                    if problem is not None:
                        raise RuntimeError(problem)
            rotation_s[traced].append(time.perf_counter() - began)
            traced_ops += rotation_len if traced else 0
    finally:
        probes.uninstall()
        recorder.enabled = False
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()

    def median_span(name: str) -> float:
        durations = [
            s.end - s.start for s in recorder.spans if s.name == name
        ]
        return statistics.median(durations) if durations else 0.0

    extra: dict[str, float] = {
        "serve.connections_per_request": serve_extra[
            "connections_per_request"
        ],
        "serve.hot_hit_ratio": serve_extra["hot_hit_ratio"],
        "serve.builds_started": serve_extra["builds_started"],
        "loadgen.send_lag_p90_s": serve_extra["send_lag_p90_s"],
    }
    for endpoint in ("analyze", "partition"):
        request = median_span(f"serve.request.{endpoint}")
        handler = median_span(f"serve.handler.{endpoint}")
        extra[f"serve.request_s.{endpoint}"] = request
        extra[f"serve.handler_s.{endpoint}"] = handler
        extra[f"serve.transport_s.{endpoint}"] = request - handler
    summary = layer_summary(
        recorder,
        probes.counts,
        traced_ops,
        seen,
        overhead=(
            statistics.mean(rotation_s[True])
            / statistics.mean(rotation_s[False])
            - 1.0
        ),
        extra=extra,
    )
    # Request and handler spans are reported above as per-endpoint medians.
    for name in list(summary["metrics"]):
        if name.startswith(("serve.request.", "serve.handler.")):
            del summary["metrics"][name]
    return summary


def repeat_counts(
    seen: dict[str, Counter[str]], key: str, counts: Counter[str]
) -> str | None:
    """Layer counts of a traced operation must repeat exactly.

    The program is deterministic, so every traced run of one operation
    does the same work; a difference means a probe fired twice or not
    at all, and the run's per-layer figures would not be the program's.
    """
    first = seen.setdefault(key, counts)
    if first == counts:
        return None
    return (
        f"{key}: traced layer counts differ between repeats "
        f"({dict(first)} vs {dict(counts)})"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(ROTATIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()
    if args.workload == "serve_hot":
        result = serve_hot(args)
    else:
        result = closed_loop(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
