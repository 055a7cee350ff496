"""Error-invariant ranking: an alternative score for failure predictors.

Error Invariants for Concurrent Traces (PAPERS.md) characterize each point
of a failing trace by a formula that (i) holds on every error trace and
(ii) is inconsistent with the correct executions — the interpolant between
"what the failing runs did" and "what the passing runs did".  Computing
real interpolants needs a solver; over Gist's trace slices we approximate
them statistically: a predictor is invariant-like to the degree that it

- **covers** the failing runs (it holds whenever the failure happens:
  recall, the "holds on every error trace" half), and
- **separates** them from the successful runs (it fails to hold on
  passing runs: specificity, the "inconsistent with correct executions"
  half).

:func:`error_invariant_score` is ``recall × specificity`` — the product
form keeps a predictor that is vacuously true everywhere (the classic
F-measure failure mode on skewed run mixes) at score ~0, because its
specificity collapses.  It is only a score: the count stores, and with
them ``merge``/``state``/``from_state`` for the control plane's shard-state
fold and cohort weights, are the F-measure ones, so an invariants campaign
shards, journals, and merges exactly like an F-measure one.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.stats import PredictorRanker, Score, f_measure_score
from ..core.streaming import STATS_KINDS, SketchRanker


def error_invariant_score(precision: float, recall: float,
                          specificity: float, beta: float) -> float:
    """Interpolant-approximate error-invariant score."""
    return recall * specificity


#: Ranking engines by ``--ranker`` name, each one score function.
RANKER_KINDS: Dict[str, Score] = {
    "fmeasure": f_measure_score,
    "invariants": error_invariant_score,
}


def make_ranker(kind: str, stats: str = "exact",
                failure_pc: Optional[int] = None) -> PredictorRanker:
    """The ``--stats`` count store (:class:`PredictorRanker` or the bounded
    :class:`~repro.core.streaming.SketchRanker`) with the ``--ranker``
    score."""
    if kind not in RANKER_KINDS:
        raise ValueError(f"unknown ranker kind {kind!r} "
                         f"(expected one of {tuple(RANKER_KINDS)})")
    if stats not in STATS_KINDS:
        raise ValueError(f"unknown stats kind {stats!r} "
                         f"(expected one of {STATS_KINDS})")
    store = SketchRanker if stats == "streaming" else PredictorRanker
    return store(failure_pc=failure_pc, score=RANKER_KINDS[kind])
