#!/usr/bin/env python3
"""Regenerate ``perfbench/golden.json``, the benchmark's output gate.

    python3 perfbench/make_golden.py

Computes every distinct operation's output through the workloads' own
code (``AnalysisBatch.run`` for analyze and escape operations, the
in-process ``AnalysisService`` handlers for serve responses), then
cross-checks each digest twice before writing it: against the same
computation in a process run with ``REPRO_PPSFP=0`` (the big-int table
engine instead of the word-parallel kernel), and against the ``repro``
CLI's own output for the equivalent command.  Any disagreement aborts without writing.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from common import BENCH_DIR, CLI_SEED, OUT_DIR, ROOT, hermetic_env
from workloads import (
    ROTATIONS,
    AnalysisBatch,
    Op,
    digest,
    service_handlers,
)


def outputs() -> dict[str, dict[str, str]]:
    """Output text of every distinct operation, per section, computed
    by the same code the workloads time: ``AnalysisBatch`` for analyze
    and escape operations, the in-process service handlers for serve."""
    from repro.serve.service import AnalysisService

    batch = AnalysisBatch(CLI_SEED)
    batch.setup()
    handlers = service_handlers(AnalysisService())
    result: dict[str, dict[str, str]] = {
        "analyze": {}, "escape": {}, "serve": {}
    }
    every = ROTATIONS["analysis_batch"] + ROTATIONS["serve_hot"]
    for op in dict.fromkeys(every):
        if section(op) == "serve":
            text = asyncio.run(handlers[op.kind]({"circuit": op.circuit}))
        else:
            text = batch.run(op)
        result[section(op)][op.key] = text
    return result


def section(op: Op) -> str:
    """``op``'s section of ``golden.json``."""
    return "serve" if op.kind.startswith("/") else op.kind


def cli_argv(op: Op) -> list[str]:
    """The ``repro`` command whose stdout must equal ``op``'s output."""
    if op.kind == "analyze":
        argv = ["analyze", op.circuit, "--backend", "packed"]
        if op.samples is not None:
            argv += ["--samples", str(op.samples)]
        return argv
    if op.kind == "escape":
        return ["escape", op.circuit, "--backend", "packed"]
    return [op.kind.lstrip("/"), op.circuit]


def main() -> int:
    if sys.argv[1:] == ["--emit"]:
        texts = outputs()
        print(json.dumps({
            section: {key: digest(text) for key, text in entries.items()}
            for section, entries in texts.items()
        }))
        return 0

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        env = hermetic_env(Path(tmp))
        fast = json.loads(subprocess.run(
            [sys.executable, __file__, "--emit"], env=env, cwd=ROOT,
            check=True, capture_output=True, text=True,
        ).stdout)
        bigint = json.loads(subprocess.run(
            [sys.executable, __file__, "--emit"],
            env={**env, "REPRO_PPSFP": "0"}, cwd=ROOT,
            check=True, capture_output=True, text=True,
        ).stdout)
        if fast != bigint:
            print("error: REPRO_PPSFP=0 outputs differ", file=sys.stderr)
            return 1
        every = ROTATIONS["analysis_batch"] + ROTATIONS["serve_hot"]
        for op in dict.fromkeys(every):
            out = subprocess.run(
                [sys.executable, "-m", "repro", *cli_argv(op)],
                env=env, cwd=ROOT, check=True, capture_output=True,
                text=True,
            ).stdout
            if digest(out) != fast[section(op)][op.key]:
                print(f"error: CLI output differs for {op.key}",
                      file=sys.stderr)
                return 1
            print(f"ok {op.key}")
    golden = {
        "analyze": fast["analyze"],
        "serve": fast["serve"],
        "escape": {"seed": CLI_SEED, "digests": fast["escape"]},
    }
    path = BENCH_DIR / "golden.json"
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
