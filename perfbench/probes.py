"""Layer probes for traced runs: spans around each layer's public calls.

A traced run wraps the public entry points of each layer *from the
outside* — module attributes and class methods are swapped for thin
wrappers that open a span and count work, then call the original.
Nothing under ``src/`` changes, and :meth:`Probes.uninstall` puts every
original back, so the untraced rotations of a traced run (and every
untraced run, which never installs probes) execute the program as is.

Span names (``layer.what``) become the per-layer metric names, with an
``_s`` suffix for their self time.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Any, Callable

from spans import Recorder


class Probes:
    """Installs and removes the layer wrappers for one recorder."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.counts: Counter[str] = Counter()
        self._saved: list[tuple[Any, str, Any]] = []

    # -- wrapper factories -------------------------------------------
    def _wrap(
        self,
        owner: Any,
        attr: str,
        span: str,
        count: Callable[[tuple, dict, Any], None] | None = None,
    ) -> None:
        original = getattr(owner, attr)
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with recorder.span(span):
                result = original(*args, **kwargs)
            if count is not None and recorder.enabled:
                count(args, kwargs, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        """Swap the wrappers in; a no-op while they are already in, so
        no entry point is ever wrapped twice."""
        if self.installed:
            return
        import repro.cli as cli
        import repro.core.escape as escape
        import repro.core.procedure1 as procedure1
        import repro.core.worst_case as worst_case
        import repro.faults.universe as universe
        import repro.serve.service as service
        from repro.bench_suite import registry
        from repro.faultsim.backends import PackedBackend

        counts = self.counts

        def bridging(args: tuple, kwargs: dict, result: Any) -> None:
            counts["faults.bridging_enumerated"] += len(result)

        def table_bytes(table: Any) -> int:
            return int(table.packed.words.nbytes)

        def target(args: tuple, kwargs: dict, result: Any) -> None:
            counts["faultsim.faults_simulated"] += len(result)
            counts["faultsim.table_bytes_computed"] += table_bytes(result)

        def untargeted(args: tuple, kwargs: dict, result: Any) -> None:
            raw = len(kwargs["faults"])
            counts["faultsim.faults_simulated"] += raw
            counts["faultsim.bridging_raw"] += raw
            counts["faultsim.bridging_detectable"] += len(result)
            counts["faultsim.table_bytes_computed"] += table_bytes(result)

        def scan(args: tuple, kwargs: dict, result: Any) -> None:
            target_table, untargeted_table = args[1], args[2]
            counts["worst_case.pairs"] += len(target_table) * len(
                untargeted_table
            )

        def family(args: tuple, kwargs: dict, result: Any) -> None:
            counts["procedure1.tests_selected"] += sum(
                len(order) for order in result.final_orders
            )

        def curve(args: tuple, kwargs: dict, result: Any) -> None:
            average = args[0].average
            counts["average_case.set_fault_tests"] += (
                average.family.num_sets
                * len(average.fault_indices)
                * len(result)
            )

        self._wrap(registry, "get_circuit", "bench_suite.get_circuit")
        self._wrap(service, "get_circuit", "bench_suite.get_circuit")
        self._wrap(
            universe, "collapsed_stuck_at_faults", "faults.collapse"
        )
        self._wrap(
            universe, "four_way_bridging_faults", "faults.bridging",
            bridging,
        )
        self._wrap(
            PackedBackend, "line_signatures", "faultsim.line_signatures"
        )
        self._wrap(
            PackedBackend, "build_stuck_at", "faultsim.target_table", target
        )
        self._wrap(
            PackedBackend, "build_bridging", "faultsim.untargeted_table",
            untargeted,
        )
        self._wrap(
            worst_case.WorstCaseAnalysis, "__init__", "worst_case.scan", scan
        )
        self._wrap(cli, "analyze_report", "cli.analyze_report")
        self._wrap(service, "analyze_report", "cli.analyze_report")
        self._wrap(cli, "escape_report", "cli.escape_report")
        self._wrap(
            procedure1, "build_random_ndetection_sets", "procedure1.build",
            family,
        )
        self._wrap(
            escape.EscapeAnalysis, "curve", "average_case.curve", curve
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
