"""The two workloads: their operations, rotations and output checks.

Every workload is a fixed *rotation* — a multiset of operations — that
a run repeats whole.  The workload seed only shuffles the order inside
each rotation (and picks the Procedure 1 seed of escape operations),
so every run holds the same multiset of operations and each percentile
lands on the same kind of operation from run to run.  The copy counts
are chosen so that p50 and p90 fall inside one operation class's
latency band, not on the boundary between two classes.

Outputs are checked against ``golden.json`` byte for byte (SHA-256 of
the report text).  Analyze and serve outputs depend only on the
circuit, so their digests hold for every seed; escape outputs depend on
the Procedure 1 seed, so their digests cover the default seed and every
other seed is checked against the escape invariants instead.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any

from common import BENCH_DIR, CLI_SEED


@dataclass(frozen=True)
class Op:
    """One benchmark operation: an analysis kind on one circuit."""

    kind: str
    circuit: str
    samples: int | None = None

    @property
    def key(self) -> str:
        """The operation's name in ``golden.json`` and in reports."""
        suffix = f" K={self.samples}" if self.samples is not None else ""
        return f"{self.kind} {self.circuit}{suffix}"


def _expand(mix: list[tuple[Op, int]]) -> list[Op]:
    return [op for op, copies in mix for _ in range(copies)]


#: analysis_batch: one caller alternating the paper's two analyses.
#: ``analyze`` operations are cold worst-case analyses (packed backend,
#: mid-size MCNC designs at exhaustive U plus one wide circuit at a fixed
#: sampled K); ``escape`` operations run Procedure 1 and the average
#: case over tables built in set-up.  Classes from fastest to slowest;
#: p50 sits at the centre of the ex2 block (ranks 35-65%), p90 at the
#: centre of the dk15 escape block (80-100%).
ANALYSIS_MIX: list[tuple[Op, int]] = [
    (Op("analyze", "bbara"), 2),
    (Op("analyze", "dk512"), 2),
    (Op("escape", "lion"), 3),
    (Op("analyze", "ex2"), 6),
    (Op("escape", "mc"), 2),
    (Op("analyze", "wide40", samples=1024), 1),
    (Op("escape", "dk15"), 4),
]
ESCAPE_K = 200
ESCAPE_NMAX = 10

#: serve_hot: a Zipf-like popularity mix over six keys (8/4/2/2/2/2 of
#: a 20-request rotation), all hot-tier reads.  The fast /partition
#: reads fill ranks 0-30%; p50 sits at the centre of the ex2 /analyze
#: block (30-70%), p90 at the centre of the dk16 /analyze block
#: (80-100%), both bands of CPU-bound report rendering rather than of
#: millisecond transport times, which jitter with host scheduling.
SERVE_MIX: list[tuple[Op, int]] = [
    (Op("/analyze", "ex2"), 8),
    (Op("/analyze", "dk16"), 4),
    (Op("/partition", "lion"), 2),
    (Op("/partition", "ex2"), 2),
    (Op("/partition", "dk16"), 2),
    (Op("/analyze", "ex4"), 2),
]
#: Open-loop arrival rate (requests per second), well below saturation
#: (a rotation costs the service ~0.5 s of CPU for 20 requests).
SERVE_RATE = 10.0

ROTATIONS: dict[str, list[Op]] = {
    "analysis_batch": _expand(ANALYSIS_MIX),
    "serve_hot": _expand(SERVE_MIX),
}
WORKLOADS = tuple(ROTATIONS)


def shuffled(rotation: list[Op], seed: int, index: int) -> list[Op]:
    """Rotation ``index`` of a run: the multiset in a seeded order."""
    order = list(rotation)
    random.Random(f"{seed}/{index}").shuffle(order)
    return order


def service_handlers(service: Any) -> dict[str, Any]:
    """The in-process ``AnalysisService`` coroutine behind each serve
    endpoint (called as ``handler({"circuit": name})``)."""
    return {"/analyze": service.analyze, "/partition": service.partition}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict[str, Any]:
    return json.loads((BENCH_DIR / "golden.json").read_text())


# ----------------------------------------------------------------------
# Closed-loop workloads (run inside the worker process)
# ----------------------------------------------------------------------
def analyze_output(op: Op, circuit: Any) -> str:
    """One ``analyze`` operation: the ``repro analyze --backend packed``
    report, from a fresh universe."""
    import repro.cli as cli
    import repro.core.worst_case as worst_case
    from repro.faults.universe import FaultUniverse
    from repro.faultsim.backends import PackedBackend

    backend = (
        PackedBackend()
        if op.samples is None
        else PackedBackend(samples=op.samples, seed=CLI_SEED)
    )
    universe = FaultUniverse(circuit, backend=backend)
    worst = worst_case.WorstCaseAnalysis(
        universe.target_table, universe.untargeted_table
    )
    return cli.analyze_report(
        universe,
        worst,
        circuit_name=op.circuit,
        backend_name="packed",
        seed=CLI_SEED,
        confidence=0.95,
    )


class AnalysisBatch:
    """The closed-loop workload: ``analyze`` operations build a fresh
    ``FaultUniverse`` → ``WorstCaseAnalysis`` → ``cli.analyze_report``
    on a circuit synthesized in set-up; ``escape`` operations run
    ``cli.escape_report`` (Procedure 1 + average case + escape curve)
    over tables built in set-up."""

    name = "analysis_batch"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._golden: dict[str, str] | None = None

    @property
    def golden(self) -> dict[str, str]:
        """Digests this run's outputs must match (read on first use, so
        ``make_golden.py`` can run the workload before the file exists)."""
        if self._golden is None:
            golden = load_golden()
            self._golden = dict(golden["analyze"])
            if self.seed == golden["escape"]["seed"]:
                self._golden.update(golden["escape"]["digests"])
        return self._golden

    def setup(self) -> None:
        from repro.bench_suite import registry
        from repro.core.worst_case import WorstCaseAnalysis
        from repro.faults.universe import FaultUniverse
        from repro.faultsim.backends import PackedBackend

        rotation = ROTATIONS[self.name]
        self.circuits = {
            op.circuit: registry.get_circuit(op.circuit)
            for op in rotation
            if op.kind == "analyze"
        }
        self.tables: dict[str, tuple[Any, Any]] = {}
        #: Per escape circuit: |G| and worst-case escapes at n = 1..nmax,
        #: the seed-independent half of the escape invariants.
        self.expect: dict[str, tuple[int, list[int]]] = {}
        for op in rotation:
            if op.kind != "escape" or op.circuit in self.tables:
                continue
            universe = FaultUniverse(
                registry.get_circuit(op.circuit), backend=PackedBackend()
            )
            worst = WorstCaseAnalysis(
                universe.target_table, universe.untargeted_table
            )
            self.tables[op.circuit] = (universe, worst)
            self.expect[op.circuit] = (
                len(worst),
                [
                    worst.count_at_least(n + 1)
                    for n in range(1, ESCAPE_NMAX + 1)
                ],
            )
        # Pay both report paths' lazy imports before the first timed op.
        analyze_output(Op("analyze", "c17"), registry.get_circuit("c17"))
        self.run(Op("escape", "lion"))

    def run(self, op: Op) -> str:
        if op.kind == "analyze":
            return analyze_output(op, self.circuits[op.circuit])
        import repro.cli as cli

        universe, worst = self.tables[op.circuit]
        return cli.escape_report(
            universe,
            worst,
            circuit_name=op.circuit,
            backend_name="packed",
            k=ESCAPE_K,
            nmax=ESCAPE_NMAX,
            seed=self.seed,
        )

    def check(self, op: Op, output: str) -> str | None:
        # Analyze digests hold for every seed; escape digests only for
        # the seed they were generated with.
        if op.kind == "analyze" or op.key in self.golden:
            if digest(output) != self.golden.get(op.key):
                return f"{op.key}: report differs from the golden digest"
        if op.kind == "analyze":
            return None
        problem = escape_invariants(output, *self.expect[op.circuit])
        return None if problem is None else f"{op.key}: {problem}"


def escape_invariants(
    output: str, num_g: int, worst_escapes: list[int]
) -> str | None:
    """Check a rendered escape report against the paper's invariants.

    Worst-case escapes at ``n`` equal ``count_at_least(n + 1)``;
    expected escapes never increase with ``n`` and stay in ``[0, |G|]``.
    """
    lines = output.rstrip("\n").splitlines()
    if f"{num_g} untargeted faults" not in lines[0]:
        return f"escape header does not name |G|={num_g}: {lines[0]!r}"
    rows = [line.split() for line in lines[2:]]
    if [int(r[0]) for r in rows] != list(range(1, len(worst_escapes) + 1)):
        return "escape curve does not cover n = 1..nmax"
    if [int(r[1]) for r in rows] != worst_escapes:
        return "worst-case escapes differ from count_at_least(n + 1)"
    expected = [float(r[2]) for r in rows]
    if any(b > a for a, b in zip(expected, expected[1:], strict=False)):
        return "expected escapes increase with n"
    if not all(0.0 <= e <= num_g for e in expected):
        return "expected escapes outside [0, |G|]"
    return None
