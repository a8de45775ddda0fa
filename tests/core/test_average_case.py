"""Average-case analysis: p(n, g), and the bridge to the worst case."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import average_case
from repro.core.average_case import (
    TABLE5_THRESHOLDS,
    AverageCaseAnalysis,
    detection_counts,
    probability_histogram,
    snapshot_deltas,
)
from repro.core.procedure1 import build_random_ndetection_sets
from repro.core.worst_case import WorstCaseAnalysis
from repro.errors import AnalysisError
from repro.logic.packed import PackedSignatureMatrix


def _oracle_counts(snapshots, signatures):
    """``d(n, g)`` by the definition: big-int ANDs, one ``n`` at a time."""
    return [
        [sum(1 for tk in snap if tk & sig) for sig in signatures]
        for snap in snapshots
    ]


def _one_pass_counts(snapshots, signatures, size):
    words = PackedSignatureMatrix.from_bigints(signatures, size).words
    return detection_counts(snapshot_deltas(snapshots, size), words).tolist()


@pytest.fixture(scope="module")
def setup(example_universe):
    family = build_random_ndetection_sets(
        example_universe.target_table, n_max=5, num_sets=50, seed=11
    )
    avg = AverageCaseAnalysis(family, example_universe.untargeted_table)
    wc = WorstCaseAnalysis(
        example_universe.target_table, example_universe.untargeted_table
    )
    return family, avg, wc


class TestProbabilities:
    def test_worst_case_guarantee_holds(self, setup):
        """p(n, g) must be exactly 1 for n >= nmin(g): the average case
        cannot contradict the worst-case guarantee."""
        _family, avg, wc = setup
        for rec in wc.records:
            for n in range(rec.nmin, 6):
                assert avg.detection_probability(n, rec.fault_index) == 1.0

    def test_monotone_in_n(self, setup):
        _family, avg, _wc = setup
        for j in avg.fault_indices:
            probs = [avg.detection_probability(n, j) for n in range(1, 6)]
            assert probs == sorted(probs)

    def test_probabilities_are_fractions_of_k(self, setup):
        family, avg, _wc = setup
        for p in avg.probabilities(3):
            assert 0.0 <= p <= 1.0
            assert abs(p * family.num_sets - round(p * family.num_sets)) < 1e-9

    def test_subset_selection(self, setup, example_universe):
        family, _avg, wc = setup
        hard = wc.indices_at_least(4)
        sub = AverageCaseAnalysis(
            family, example_universe.untargeted_table, fault_indices=hard
        )
        assert sub.probabilities(1) == [
            sub.detection_probability(1, j) for j in hard
        ]

    def test_minimum_probability(self, setup):
        _family, avg, _wc = setup
        result = avg.minimum_probability(1)
        assert result is not None
        p, j = result
        assert p == min(avg.probabilities(1))
        assert j in avg.fault_indices

    def test_empty_subset(self, setup, example_universe):
        family, _avg, _wc = setup
        sub = AverageCaseAnalysis(
            family, example_universe.untargeted_table, fault_indices=[]
        )
        assert sub.probabilities(1) == []
        assert sub.minimum_probability(1) is None

    def test_width_mismatch_rejected(self, setup, c17_circuit):
        family, _avg, _wc = setup
        from repro.faultsim.detection import DetectionTable

        other = DetectionTable.for_bridging(c17_circuit)
        with pytest.raises(AnalysisError):
            AverageCaseAnalysis(family, other)


class TestHistogram:
    def test_hand_computed(self):
        probs = [1.0, 0.95, 0.5, 0.05, 0.0]
        hist = probability_histogram(probs)
        # thresholds: 1, .9, .8, .7, .6, .5, .4, .3, .2, .1, 0
        assert hist == [1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 5]

    def test_histogram_monotone(self, setup):
        _family, avg, _wc = setup
        hist = avg.histogram(5)
        assert hist == sorted(hist)
        assert hist[-1] == len(avg.fault_indices)

    def test_rounding_guard(self):
        # 0.7 is not exactly representable; the epsilon guard must count it.
        assert probability_histogram([0.7], thresholds=(0.7,)) == [1]

    def test_default_thresholds(self):
        assert TABLE5_THRESHOLDS[0] == 1.0
        assert TABLE5_THRESHOLDS[-1] == 0.0
        assert len(TABLE5_THRESHOLDS) == 11


class TestValidation:
    """Regression tests: argument validation added after PR 1."""

    def test_n_zero_rejected(self, setup):
        """n = 0 used to wrap to the *largest* n via negative indexing."""
        _family, avg, _wc = setup
        with pytest.raises(AnalysisError, match=r"n must be in \[1, 5\]"):
            avg.detection_probability(0, 0)
        with pytest.raises(AnalysisError, match=r"n must be in \[1, 5\]"):
            avg.probabilities(0)

    def test_negative_n_rejected(self, setup):
        _family, avg, _wc = setup
        with pytest.raises(AnalysisError, match="n must be"):
            avg.probabilities(-2)

    def test_n_beyond_nmax_rejected(self, setup):
        """n > n_max used to raise a bare IndexError."""
        _family, avg, _wc = setup
        with pytest.raises(AnalysisError, match="n must be"):
            avg.detection_probability(6, 0)
        with pytest.raises(AnalysisError, match="n must be"):
            avg.histogram(99)

    def test_valid_bounds_still_accepted(self, setup):
        _family, avg, _wc = setup
        assert avg.probabilities(1)
        assert avg.probabilities(5)

    def test_exhaustive_family_vs_sampled_table_rejected(self):
        """A family without an explicit universe is an exhaustive-space
        family; pairing it with a sampled table used to pass silently."""
        from repro.bench_suite.randlogic import random_circuit
        from repro.core.procedure1 import NDetectionFamily
        from repro.faults.universe import FaultUniverse
        from repro.faultsim.backends import SampledBackend

        circuit = random_circuit(17, num_inputs=6, num_gates=14)
        sampled = FaultUniverse(circuit, backend=SampledBackend(16, seed=1))
        family = NDetectionFamily(
            num_inputs=circuit.num_inputs,
            n_max=1,
            num_sets=2,
            counting="def1",
            snapshots=[[0b11, 0b101]],
            final_orders=[[0, 1], [0, 2]],
            universe=None,  # exhaustive by convention
        )
        with pytest.raises(AnalysisError, match="universe"):
            AverageCaseAnalysis(family, sampled.untargeted_table)

    def test_exhaustive_family_vs_exhaustive_table_accepted(
        self, example_universe
    ):
        from repro.core.procedure1 import NDetectionFamily

        family = NDetectionFamily(
            num_inputs=example_universe.circuit.num_inputs,
            n_max=1,
            num_sets=1,
            counting="def1",
            snapshots=[[0b1]],
            final_orders=[[0]],
            universe=None,
        )
        avg = AverageCaseAnalysis(family, example_universe.untargeted_table)
        assert len(avg.probabilities(1)) == len(
            example_universe.untargeted_table
        )


@st.composite
def _nested_snapshots(draw):
    """Random nested snapshots and signatures over a ``size``-bit universe.

    Sparse bit sets (a few positions each) keep both hits and misses
    common; sizes up to 200 put bits on either side of word boundaries.
    """
    size = draw(st.integers(1, 200))
    bitset = st.sets(st.integers(0, size - 1), max_size=4).map(
        lambda bits: sum(1 << b for b in bits)
    )
    num_sets = draw(st.integers(1, 6))
    current = [0] * num_sets
    snapshots = []
    for _ in range(draw(st.integers(1, 5))):
        current = [tk | draw(bitset) for tk in current]
        snapshots.append(current)
    signatures = draw(st.lists(bitset, max_size=12))
    return size, snapshots, signatures


class TestOnePassCounts:
    """:func:`detection_counts` ≡ the per-n big-int definition."""

    @settings(max_examples=200, deadline=None)
    @given(_nested_snapshots())
    def test_matches_oracle(self, case):
        size, snapshots, signatures = case
        assert _one_pass_counts(snapshots, signatures, size) == (
            _oracle_counts(snapshots, signatures)
        )

    def test_row_blocks_and_word_boundaries(self, monkeypatch):
        monkeypatch.setattr(average_case, "_ROW_BLOCK", 3)
        size = 130  # three words; bits 63/64 and 128/129 straddle them
        snapshots = [[1 << 63, 1 << 129], [1 << 63 | 1 << 64, 1 << 129 | 1]]
        signatures = [1 << 64, 1, 1 << 63, 1 << 128, 1 << 129, 0, 3 << 63]
        assert _one_pass_counts(snapshots, signatures, size) == (
            _oracle_counts(snapshots, signatures)
        )

    def test_analysis_matches_oracle(self, setup, example_universe):
        family, avg, _wc = setup
        signatures = example_universe.untargeted_table.signatures
        assert avg.counts.tolist() == _oracle_counts(
            family.snapshots, signatures
        )

    def test_non_nested_snapshots_rejected(self):
        with pytest.raises(AnalysisError, match="nested"):
            snapshot_deltas([[0b11], [0b01]], size=4)

    def test_word_count_mismatch_rejected(self):
        deltas = snapshot_deltas([[0b1]], size=64)
        words = PackedSignatureMatrix.from_bigints([1], 65).words
        with pytest.raises(AnalysisError, match="word count"):
            detection_counts(deltas, words)

    def test_fault_outside_subset(self, setup, example_universe):
        family, _avg, _wc = setup
        table = example_universe.untargeted_table
        sub = AverageCaseAnalysis(family, table, fault_indices=[0])
        last = len(table) - 1
        expected = _oracle_counts(family.snapshots, [table.signatures[last]])
        for n in range(1, family.n_max + 1):
            assert sub.detection_probability(n, last) == (
                expected[n - 1][0] / family.num_sets
            )
