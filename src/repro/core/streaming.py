"""Bounded-memory statistics: what ``--stats streaming`` selects (§3.3).

Both modes slice evidence on the client and refine from one running
aggregate.  The exact count store keeps one entry per distinct predictor,
which at "millions of users" grows without bound on every shard, so
``--stats streaming`` swaps in exactly three bounded pieces:

- :class:`SketchRanker` — a :class:`PredictorRanker` (same scores) whose
  resident counts are a Space-Saving top-K table, evicted tails spilling
  into a :class:`CountMinSketch` (``crc32`` rows, so processes and shards
  sketch identically whatever ``PYTHONHASHSEED``), with exact outcome
  totals, per-entry error bounds, and a mergeable ``state`` that rides the
  same ``shard_state`` envelopes as the exact ranker;
- windowed recurrences — failing-run totals of the last
  :data:`DEFAULT_WINDOWS` AsT iterations, the signal the budget scheduler
  weighs campaigns by (``DiagnosisCampaign.windowed_recurrences``);
- capped failure-identity histograms in each shard's clusterer
  (:data:`repro.core.clustering.DEFAULT_MAX_IDENTITIES`).
"""

from __future__ import annotations

import zlib
from collections import Counter
from typing import Any, Dict, Iterable, List, Optional

from .predictors import Predictor, predictor_sort_key
from .stats import DEFAULT_BETA, PredictorRanker, Score, f_measure_score

#: Statistics modes a deployment can run in.
STATS_KINDS = ("exact", "streaming")

#: Default count-min dimensions.  Width 512 × depth 3 bounds the expected
#: per-key overestimate to ~3·N/512 with three independent chances to do
#: better — ample for per-campaign predictor populations, and ~1.5k sparse
#: cells worst case.
DEFAULT_SKETCH_WIDTH = 512
DEFAULT_SKETCH_DEPTH = 3
#: Default Space-Saving table capacity (resident predictors per stripe).
DEFAULT_CAPACITY = 128
#: Recurrence-window ring length (AsT iterations of recency).
DEFAULT_WINDOWS = 8


def predictor_key_bytes(predictor: Predictor) -> bytes:
    """Canonical hashable identity of a predictor for sketching.

    ``repr`` over the (str, int, bool, tuple) detail structure is
    deterministic across processes — unlike builtin ``hash``, which
    ``PYTHONHASHSEED`` perturbs per interpreter.
    """
    return f"{predictor.kind}:{predictor.detail!r}".encode()


class CountMinSketch:
    """A sparse count-min sketch with deterministic crc32 row hashing."""

    __slots__ = ("width", "depth", "_rows")

    def __init__(self, width: int = DEFAULT_SKETCH_WIDTH,
                 depth: int = DEFAULT_SKETCH_DEPTH) -> None:
        if width < 1 or depth < 1:
            raise ValueError("sketch needs width >= 1 and depth >= 1")
        self.width = width
        self.depth = depth
        # Sparse rows: most campaigns touch far fewer cells than width.
        self._rows: List[Dict[int, int]] = [dict() for _ in range(depth)]

    def _indexes(self, key: bytes) -> List[int]:
        # crc32's second argument is the starting CRC value: distinct
        # per-row starts give depth independent-enough hash functions.
        return [zlib.crc32(key, row + 1) % self.width
                for row in range(self.depth)]

    def add(self, key: bytes, count: int = 1) -> None:
        for row, idx in enumerate(self._indexes(key)):
            cells = self._rows[row]
            cells[idx] = cells.get(idx, 0) + count

    def estimate(self, key: bytes) -> int:
        """Point estimate: min over rows.  Never underestimates."""
        return min(self._rows[row].get(idx, 0)
                   for row, idx in enumerate(self._indexes(key)))

    def cells_used(self) -> int:
        return sum(len(row) for row in self._rows)

    def merge(self, other: "CountMinSketch") -> None:
        """Cell-wise addition — valid only for identical dimensions."""
        if (other.width, other.depth) != (self.width, self.depth):
            raise ValueError("cannot merge sketches with different "
                             "dimensions")
        for mine, theirs in zip(self._rows, other._rows):
            for idx, count in theirs.items():
                mine[idx] = mine.get(idx, 0) + count

    def state(self) -> Dict[str, Any]:
        return {
            "width": self.width,
            "depth": self.depth,
            "rows": [sorted([idx, count] for idx, count in row.items())
                     for row in self._rows],
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "CountMinSketch":
        sketch = cls(width=state["width"], depth=state["depth"])
        rows = state["rows"]
        if len(rows) != sketch.depth:
            raise ValueError("sketch state rows do not match depth")
        for row, cells in zip(sketch._rows, rows):
            for idx, count in cells:
                row[idx] = count
        return sketch


class SketchRanker(PredictorRanker):
    """A :class:`PredictorRanker` with O(K) resident state.

    The inherited ``_failing_counts``/``_successful_counts`` dicts hold
    only the top-``capacity`` *resident* predictors (so every inherited
    scoring path — ``stats_for``, ``ranked``, ``best_per_kind``, tie
    breaks — works unchanged over the heavy-hitters table), while every
    occurrence is also folded into a pair of count-min sketches.  When the
    table is full, the Space-Saving rule applies: the entry with the
    smallest combined total is evicted, and the newcomer inherits that
    total as its per-entry overestimation error.

    Exactness guarantees: outcome totals (``total_failing``,
    ``total_successful``) are always exact, and until the first eviction
    (fewer distinct predictors than ``capacity`` — true of every corpus
    bug) resident counts, and therefore the full ranking, are *identical*
    to the exact ranker's.
    """

    def __init__(self, beta: float = DEFAULT_BETA,
                 failure_pc: Optional[int] = None,
                 score: Score = f_measure_score,
                 capacity: int = DEFAULT_CAPACITY,
                 sketch_width: int = DEFAULT_SKETCH_WIDTH,
                 sketch_depth: int = DEFAULT_SKETCH_DEPTH) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__(beta=beta, failure_pc=failure_pc, score=score)
        self.capacity = capacity
        self._cms_failing = CountMinSketch(sketch_width, sketch_depth)
        self._cms_successful = CountMinSketch(sketch_width, sketch_depth)
        #: Per-resident inherited overestimation (0 until an eviction
        #: chain reaches the entry).  Its key set *is* the resident set.
        self._error: Dict[Predictor, int] = {}

    # -- residency -----------------------------------------------------------

    def _resident_total(self, predictor: Predictor) -> int:
        return (self._failing_counts.get(predictor, 0)
                + self._successful_counts.get(predictor, 0))

    def _evict_min(self) -> int:
        """Drop the smallest resident entry; return its combined total."""
        victim = min(self._error,
                     key=lambda q: (self._resident_total(q),
                                    predictor_sort_key(q)))
        total = self._resident_total(victim)
        self._failing_counts.pop(victim, None)
        self._successful_counts.pop(victim, None)
        del self._error[victim]
        return total

    def add_run(self, predictors: Iterable[Predictor], failed: bool,
                weight: int = 1) -> None:
        if weight < 1:
            raise ValueError("weight must be >= 1")
        seen = set(predictors)
        if failed:
            self.total_failing += weight
            counts, sketch = self._failing_counts, self._cms_failing
        else:
            self.total_successful += weight
            counts, sketch = self._successful_counts, self._cms_successful
        for p in seen:
            sketch.add(predictor_key_bytes(p), weight)
            if p in self._error:
                counts[p] = counts.get(p, 0) + weight
            elif len(self._error) < self.capacity:
                self._error[p] = 0
                counts[p] = counts.get(p, 0) + weight
            else:
                # Space-Saving: the newcomer replaces the lightest
                # resident, inheriting its total as error.
                inherited = self._evict_min()
                self._error[p] = inherited
                counts[p] = inherited + weight

    # -- error bounds --------------------------------------------------------

    def entry_error(self, predictor: Predictor) -> Optional[int]:
        """Max overcount of a resident predictor (None if not resident)."""
        return self._error.get(predictor)

    def error_bound(self) -> int:
        """Max overcount across all resident entries: every resident's
        tracked combined total lies in ``[true, true + error_bound()]``."""
        return max(self._error.values(), default=0)

    def estimate_total(self, predictor: Predictor) -> int:
        """Combined occurrence estimate for *any* predictor: the resident
        count when resident, else the count-min estimate (both are
        overestimates, never under)."""
        if predictor in self._error:
            return self._resident_total(predictor)
        key = predictor_key_bytes(predictor)
        return (self._cms_failing.estimate(key)
                + self._cms_successful.estimate(key))

    # -- merging -------------------------------------------------------------

    def merge(self, other: "PredictorRanker") -> None:
        """Mergeable-summaries fold (Agarwal et al.): union the resident
        tables summing counts and inherited errors, add the sketches
        cell-wise, then keep the top-``capacity`` entries by combined
        total.  Deterministic and commutative, so shard-merge results are
        independent of fold order."""
        if not isinstance(other, SketchRanker):
            raise ValueError("cannot merge a non-sketch ranker into a "
                             "SketchRanker")
        self._check_mergeable(other)
        if other.capacity != self.capacity:
            raise ValueError("cannot merge sketch rankers with different "
                             "capacity")
        self.total_failing += other.total_failing
        self.total_successful += other.total_successful
        self._cms_failing.merge(other._cms_failing)
        self._cms_successful.merge(other._cms_successful)
        for p, err in other._error.items():
            self._error[p] = self._error.get(p, 0) + err
        self._failing_counts.update(other._failing_counts)
        self._successful_counts.update(other._successful_counts)
        while len(self._error) > self.capacity:
            self._evict_min()

    # -- snapshots -----------------------------------------------------------

    def state(self) -> Dict[str, Any]:
        state = super().state()
        state["kind"] = "sketch"
        state["capacity"] = self.capacity
        state["error"] = dict(self._error)
        state["cms_failing"] = self._cms_failing.state()
        state["cms_successful"] = self._cms_successful.state()
        return state

    @classmethod
    def from_state(cls, state: Dict[str, Any],
                   score: Score = f_measure_score) -> "SketchRanker":
        if state.get("kind") != "sketch":
            raise ValueError("not a sketch-ranker state")
        cms = CountMinSketch.from_state(state["cms_failing"])
        ranker = cls(beta=state["beta"], failure_pc=state["failure_pc"],
                     score=score, capacity=state["capacity"],
                     sketch_width=cms.width, sketch_depth=cms.depth)
        ranker.total_failing = state["total_failing"]
        ranker.total_successful = state["total_successful"]
        ranker._failing_counts = Counter(state["failing"])
        ranker._successful_counts = Counter(state["successful"])
        ranker._error = dict(state["error"])
        ranker._cms_failing = cms
        ranker._cms_successful = CountMinSketch.from_state(
            state["cms_successful"])
        return ranker

    def tracked_bytes(self) -> int:
        approx = super().tracked_bytes()
        approx += len(self._error) * 64
        approx += (self._cms_failing.cells_used()
                   + self._cms_successful.cells_used()) * 48
        return approx


def ranker_from_state(state: Dict[str, Any],
                      score: Score = f_measure_score) -> PredictorRanker:
    """Reconstruct a ranker snapshot of either statistics mode: sketch
    states carry ``"kind": "sketch"``; exact states have no kind key (the
    pre-streaming wire shape, preserved byte-for-byte)."""
    if state.get("kind") == "sketch":
        return SketchRanker.from_state(state, score=score)
    return PredictorRanker.from_state(state, score=score)
