"""Average-case analysis (Section 3): detection probabilities ``p(n, g)``.

Given the ``K`` random n-detection test sets of Procedure 1, the
probability that an *arbitrary* n-detection test set detects an
untargeted fault ``g`` is estimated as::

    p(n, g) = d(n, g) / K

where ``d(n, g)`` counts the test sets that intersect ``T(g)``.

Procedure 1 only ever *adds* tests, so its per-iteration snapshots are
nested: ``Tk`` after iteration ``n`` contains ``Tk`` after iteration
``n - 1``.  Set ``k`` therefore first hits ``g`` at exactly one
iteration (or never), and that iteration is found by ANDing only each
iteration's *new* bits, ``snap[n] & ~snap[n - 1]``, against ``T(g)``.
:func:`detection_counts` walks those deltas once on packed ``uint64``
words, OR-ing each iteration's hits into a ``K x |G|`` "already hit"
matrix whose column sums are ``d(n, g)`` — every ``n`` in one pass,
instead of ``K x |G|`` big-int ANDs per ``n``.  A fault that every set
already hits keeps ``d = K`` for all later ``n`` and leaves the scan, so
later iterations only touch the faults still in doubt.  The counts are exact
integers, and ``p(n, g)`` is the same Python ``int / int`` division as
an explicit ``sum(1 for tk in snapshots if tk & T(g)) / K``, so the
floats are bit-identical.  This path needs numpy
(:func:`repro.logic.packed.require_numpy` raises
:class:`~repro.errors.AnalysisError` without it).

:func:`probability_histogram` reproduces the row structure of Tables 5
and 6: for thresholds 1, 0.9, …, 0.1, 0, the number of faults with
``p(n, g) >= threshold``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.core.procedure1 import NDetectionFamily
from repro.errors import AnalysisError
from repro.faultsim.detection import DetectionTable
from repro.faultsim.sampling import VectorUniverse
from repro.logic.packed import _np, PackedSignatureMatrix, require_numpy

if TYPE_CHECKING:
    from repro.logic.packed import I64Array, U64Array

TABLE5_THRESHOLDS: tuple[float, ...] = (
    1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0,
)

#: Faults per block of :func:`detection_counts`; bounds its ``K x block``
#: temporaries (K = 200: ~1.6 MB of ``uint64`` per word pass).
_ROW_BLOCK = 1024


def snapshot_deltas(
    snapshots: Sequence[Sequence[int]], size: int
) -> U64Array:
    """Per-iteration new bits of nested snapshots, packed.

    Returns an ``(n_max, K, words)`` ``uint64`` array whose ``[n - 1, k]``
    row holds the tests set ``k`` gained in iteration ``n`` (iteration 1
    gains its whole snapshot).  Snapshots that are not nested are
    rejected: the one-pass count would silently miss hits otherwise.
    """
    require_numpy()
    snaps = _np.stack(
        [
            PackedSignatureMatrix.from_bigints(list(snap), size).words
            for snap in snapshots
        ]
    )
    if (snaps[:-1] & ~snaps[1:]).any():
        raise AnalysisError(
            "test-set snapshots are not nested: a later iteration lost "
            "tests an earlier one had"
        )
    deltas = snaps.copy()
    deltas[1:] &= ~snaps[:-1]
    return deltas


def detection_counts(deltas: U64Array, signatures: U64Array) -> I64Array:
    """``d(n, g)`` for every ``n`` and every row of ``signatures``.

    ``deltas`` comes from :func:`snapshot_deltas`; ``signatures`` is a
    ``(rows, words)`` ``uint64`` block over the same universe.  Returns
    the ``(n_max, rows)`` ``int64`` matrix whose ``[n - 1, j]`` entry is
    the number of sets that intersect row ``j`` after iteration ``n``.
    Words whose delta is zero in every set are skipped, rows that every
    set already hits leave the scan, and the rows are walked in blocks
    of :data:`_ROW_BLOCK`.
    """
    require_numpy()
    n_max, num_sets, num_words = deltas.shape
    if signatures.shape[1] != num_words:
        raise AnalysisError(
            "snapshots and signatures disagree on the word count; were "
            "they built over the same universe?"
        )
    rows = signatures.shape[0]
    counts = _np.zeros((n_max, rows), dtype=_np.int64)
    live_words = [_np.flatnonzero(delta.any(axis=0)) for delta in deltas]
    for start in range(0, rows, _ROW_BLOCK):
        block = signatures[start : start + _ROW_BLOCK]
        cols = _np.arange(start, start + block.shape[0])
        hit = _np.zeros((num_sets, block.shape[0]), dtype=bool)
        for i in range(n_max):
            for w in live_words[i]:
                hit |= (deltas[i, :, w, None] & block[None, :, w]) != 0
            d = _np.count_nonzero(hit, axis=0)
            counts[i, cols] = d
            # A fault every set already hits stays at K for every later
            # n; drop it so the remaining iterations only scan the rest.
            full = d == num_sets
            if full.any():
                counts[i + 1 :, cols[full]] = num_sets
                live = ~full
                cols, block, hit = cols[live], block[live], hit[:, live]
                if not cols.size:
                    break
    return counts


class AverageCaseAnalysis:
    """Estimated ``p(n, g)`` for a set of untargeted faults.

    Parameters
    ----------
    family:
        The test-set family from Procedure 1.
    untargeted_table:
        Detection table for ``G``.
    fault_indices:
        Optional subset of ``G`` to analyze (the paper reports only the
        faults with ``nmin(g) >= 11``); default: every fault in the table.
    """

    def __init__(
        self,
        family: NDetectionFamily,
        untargeted_table: DetectionTable,
        fault_indices: Sequence[int] | None = None,
    ):
        if family.num_inputs != untargeted_table.circuit.num_inputs:
            raise AnalysisError(
                "test-set family and detection table disagree on input count"
            )
        # A family without an explicit universe is an exhaustive-space
        # family; comparing it as such rejects the silent mix of an
        # exhaustive family with a sampled untargeted table.
        family_universe = (
            family.universe
            if family.universe is not None
            else VectorUniverse(family.num_inputs)
        )
        if family_universe != untargeted_table.universe:
            raise AnalysisError(
                "test-set family and detection table were built over "
                "different vector universes; use the same backend for both"
            )
        self.family = family
        self.table = untargeted_table
        self.fault_indices = (
            list(fault_indices)
            if fault_indices is not None
            else list(range(len(untargeted_table)))
        )
        self._deltas: U64Array | None = None
        self._counts: I64Array | None = None

    def _check_n(self, n: int) -> None:
        """Reject ``n`` outside ``[1, n_max]``.

        ``n = 0`` would silently wrap to the *largest* n via negative
        indexing, and ``n > n_max`` would raise a bare ``IndexError``;
        both are caller errors and get an :class:`AnalysisError`.
        """
        limit = len(self.family.snapshots)
        if not 1 <= n <= limit:
            raise AnalysisError(
                f"n must be in [1, {limit}], got {n}"
            )

    def _signature_words(self, rows: Sequence[int]) -> U64Array:
        packed = getattr(self.table, "packed", None)
        if packed is not None:
            return packed.words[_np.asarray(rows, dtype=_np.intp)]
        return PackedSignatureMatrix.from_bigints(
            [self.table.signatures[j] for j in rows],
            self.table.universe.size,
        ).words

    def _counts_for(self, rows: Sequence[int]) -> I64Array:
        """``d(n, g)`` for every ``n`` over the given table rows."""
        if self._deltas is None:
            self._deltas = snapshot_deltas(
                self.family.snapshots, self.table.universe.size
            )
        return detection_counts(self._deltas, self._signature_words(rows))

    @property
    def counts(self) -> I64Array:
        """``d(n, g)`` as an ``(n_max, len(fault_indices))`` ``int64``
        matrix: row ``n - 1`` counts the sets hitting each analyzed fault
        after iteration ``n``.  Computed on first use, once."""
        if self._counts is None:
            self._counts = self._counts_for(self.fault_indices)
        return self._counts

    def detection_probability(self, n: int, fault_index: int) -> float:
        """``p(n, g)`` for one untargeted fault (analyzed or not)."""
        self._check_n(n)
        d = int(self._counts_for([fault_index])[n - 1, 0])
        return d / self.family.num_sets

    def probabilities(self, n: int) -> list[float]:
        """``p(n, g)`` for every analyzed fault (in ``fault_indices`` order)."""
        self._check_n(n)
        num_sets = self.family.num_sets
        return [d / num_sets for d in self.counts[n - 1].tolist()]

    def histogram(self, n: int) -> list[int]:
        """Counts of faults with ``p(n, g) >= threshold`` (Table 5 row)."""
        return probability_histogram(self.probabilities(n))

    def minimum_probability(self, n: int) -> tuple[float, int] | None:
        """Smallest ``p(n, g)`` and its fault index, or None if no faults."""
        probs = self.probabilities(n)
        if not probs:
            return None
        best = min(range(len(probs)), key=probs.__getitem__)
        return probs[best], self.fault_indices[best]


def probability_histogram(
    probabilities: Sequence[float],
    thresholds: Sequence[float] = TABLE5_THRESHOLDS,
) -> list[int]:
    """Number of values ``>= t`` for each threshold ``t``.

    With the default thresholds this is exactly a Table 5/6 row: the
    first entry counts faults detected with probability 1, the last
    counts all faults (every probability is >= 0).
    """
    eps = 1e-12  # counting is exact on multiples of 1/K; guard rounding
    return [
        sum(1 for p in probabilities if p >= t - eps) for t in thresholds
    ]
