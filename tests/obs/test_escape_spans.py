"""``repro --trace escape`` names the average case's two layers.

Procedure 1 and the one-pass ``d(n, g)`` count each get a span under the
benchmark's per-layer names, carrying the same work counts the
benchmark reports, so a trace summary answers which of the two an
escape analysis spent its time in.
"""

from __future__ import annotations

from repro.bench_suite.registry import get_circuit
from repro.cli import main
from repro.core.procedure1 import build_random_ndetection_sets
from repro.faults.universe import FaultUniverse
from repro.obs.summary import load_trace
from repro.obs.tracer import TRACE_FILE_ENV

K, NMAX, SEED = 20, 3, 2005


def test_traced_escape_reports_layer_spans(tmp_path, monkeypatch, capsys):
    # main() exports the trace path for child processes; registering the
    # variable here makes monkeypatch remove it again afterwards.
    monkeypatch.setenv(TRACE_FILE_ENV, "")
    args = ["escape", "lion", "--k", str(K), "--nmax", str(NMAX)]
    assert main(args) == 0
    untraced = capsys.readouterr().out
    path = str(tmp_path / "run.jsonl")
    assert main(["--trace", path, *args]) == 0
    assert capsys.readouterr().out == untraced

    spans = {node.name: node for node in load_trace(path)}
    build = spans["procedure1.build"]
    curve = spans["average_case.curve"]
    report = spans["report"]
    assert build.parent_id == report.span_id
    assert curve.parent_id == report.span_id

    universe = FaultUniverse(get_circuit("lion"))
    family = build_random_ndetection_sets(
        universe.target_table, n_max=NMAX, num_sets=K, seed=SEED
    )
    assert build.attrs["tests_selected"] == sum(
        len(order) for order in family.final_orders
    )
    assert curve.attrs["set_fault_tests"] == (
        K * len(universe.untargeted_table) * NMAX
    )
