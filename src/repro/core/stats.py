"""Statistical ranking of failure predictors (§3.3).

Gist computes, per predictor:

- precision ``P``: of the runs where the predictor held, how many failed;
- recall ``R``: of the failing runs, how many exhibited the predictor;

and ranks by the F-measure ``F_β = (1 + β²)·P·R / (β²·P + R)`` with
**β = 0.5**, deliberately favouring precision: "its primary aim is to not
confuse the developers with potentially erroneous failure predictors".
The β ablation test shows rankings flip at β = 2 exactly as that design
choice predicts.  The score is a :class:`PredictorRanker` argument; the
error-invariant alternative lives in :mod:`repro.detect.invariants`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, \
    Sequence, Tuple

from .predictors import Predictor

DEFAULT_BETA = 0.5


@dataclass(slots=True)
class PredictorStats:
    """Occurrence counts and derived scores for one predictor."""

    predictor: Predictor
    failing_with: int = 0
    successful_with: int = 0
    precision: float = 0.0
    recall: float = 0.0
    f_measure: float = 0.0


def f_measure(precision: float, recall: float,
              beta: float = DEFAULT_BETA) -> float:
    """Weighted harmonic mean of precision and recall."""
    if precision <= 0.0 and recall <= 0.0:
        return 0.0
    b2 = beta * beta
    denom = b2 * precision + recall
    if denom == 0.0:
        return 0.0
    return (1.0 + b2) * precision * recall / denom


#: A ranking score: ``(precision, recall, specificity, beta) -> score``.
Score = Callable[[float, float, float, float], float]


def f_measure_score(precision: float, recall: float, specificity: float,
                    beta: float) -> float:
    """The paper's score (§3.3): F_β of precision and recall."""
    return f_measure(precision, recall, beta)


class PredictorRanker:
    """Accumulates per-run predictor sets and ranks them by ``score``.

    ``failure_pc`` breaks score ties by proximity to the failing
    instruction: when two predictors correlate equally, the one nearest the
    failure is shown (the paper leans on the same locality observation —
    "root causes of most bugs are close to the failure locations", §3.2.1).
    """

    def __init__(self, beta: float = DEFAULT_BETA,
                 failure_pc: Optional[int] = None,
                 score: Score = f_measure_score) -> None:
        if beta <= 0:
            raise ValueError("beta must be positive")
        self.beta = beta
        self.failure_pc = failure_pc
        self.score = score
        self.total_failing = 0
        self.total_successful = 0
        # Counters, not plain dicts: merge folds whole shard partials with
        # one C-speed ``Counter.update`` pass instead of a per-key loop.
        self._failing_counts: Counter = Counter()
        self._successful_counts: Counter = Counter()

    # -- accumulation ----------------------------------------------------------

    def add_run(self, predictors: Iterable[Predictor], failed: bool,
                weight: int = 1) -> None:
        """Count one run (or, with ``weight`` > 1, one *cohort* of runs).

        A cohort endpoint stands in for ``weight`` real clients whose runs
        all exhibited the same outcome and predictor set; folding the
        multiplicity here is what lets a campaign simulate fleets far
        larger than the number of runs it actually executes.  Scores are
        ratios of these counts, so a uniform weight leaves every
        precision/recall/F-measure unchanged.
        """
        if weight < 1:
            raise ValueError("weight must be >= 1")
        seen = set(predictors)
        if failed:
            self.total_failing += weight
            counts = self._failing_counts
        else:
            self.total_successful += weight
            counts = self._successful_counts
        for p in seen:
            counts[p] = counts.get(p, 0) + weight

    def merge(self, other: "PredictorRanker") -> None:
        """Fold another ranker's counts into this one.

        Rankers are pure occurrence counters, so accumulation is
        associative: a campaign may shard extraction across workers (or
        AsT iterations) and merge the partial counts without changing any
        score.  ``beta``/``failure_pc``/``score`` must match — merging
        rankers with different scoring parameters is a bug, not a union.
        """
        self._check_mergeable(other)
        self.total_failing += other.total_failing
        self.total_successful += other.total_successful
        self._failing_counts.update(other._failing_counts)
        self._successful_counts.update(other._successful_counts)

    def _check_mergeable(self, other: "PredictorRanker") -> None:
        if (other.beta != self.beta or other.failure_pc != self.failure_pc
                or other.score is not self.score):
            raise ValueError("cannot merge rankers with different "
                             "beta/failure_pc/score")

    @classmethod
    def from_runs(cls, runs: Sequence[Tuple],
                  beta: float = DEFAULT_BETA,
                  failure_pc: Optional[int] = None) -> "PredictorRanker":
        """Build a ranker from scratch out of ``(predictors, failed)`` or
        ``(predictors, failed, weight)`` tuples."""
        ranker = cls(beta=beta, failure_pc=failure_pc)
        for entry in runs:
            predictors, failed = entry[0], entry[1]
            weight = entry[2] if len(entry) > 2 else 1
            ranker.add_run(predictors, failed, weight=weight)
        return ranker

    @classmethod
    def from_state(cls, state: Dict[str, Any],
                   score: Score = f_measure_score) -> "PredictorRanker":
        """Reconstruct a ranker from a :meth:`state` snapshot.

        The inverse of :meth:`state`: cross-shard merging round-trips each
        shard's partial counts through this pair (serialized over the
        canonical wire, see :mod:`repro.fleet.wire`) before folding them
        with :meth:`merge`.  Snapshots carry no score: the caller names it.
        """
        ranker = cls(beta=state["beta"], failure_pc=state["failure_pc"],
                     score=score)
        ranker.total_failing = state["total_failing"]
        ranker.total_successful = state["total_successful"]
        ranker._failing_counts = Counter(state["failing"])
        ranker._successful_counts = Counter(state["successful"])
        return ranker

    def state(self) -> Dict[str, Any]:
        """A comparable snapshot of the accumulated counts — what shard
        exports and the recorded ranker fixture carry."""
        return {
            "beta": self.beta,
            "failure_pc": self.failure_pc,
            "total_failing": self.total_failing,
            "total_successful": self.total_successful,
            "failing": dict(self._failing_counts),
            "successful": dict(self._successful_counts),
        }

    def tracked_bytes(self) -> int:
        """Rough resident footprint of the tracked counts — O(1) to ask
        (dict sizes), used for the campaign's memory accounting.  Exact
        rankers grow with the distinct-predictor population; the streaming
        subclass caps this at its table capacity."""
        return (len(self._failing_counts)
                + len(self._successful_counts)) * 120

    # -- scoring ------------------------------------------------------------------

    def stats_for(self, predictor: Predictor) -> PredictorStats:
        # Whatever ``score`` computes rides in the ``f_measure`` slot.
        f_with = self._failing_counts.get(predictor, 0)
        s_with = self._successful_counts.get(predictor, 0)
        held = f_with + s_with
        precision = f_with / held if held else 0.0
        recall = f_with / self.total_failing if self.total_failing else 0.0
        specificity = (1.0 - s_with / self.total_successful
                       if self.total_successful else 0.0)
        return PredictorStats(
            predictor=predictor,
            failing_with=f_with,
            successful_with=s_with,
            precision=precision,
            recall=recall,
            f_measure=self.score(precision, recall, specificity, self.beta),
        )

    def _distance(self, predictor: Predictor) -> int:
        if self.failure_pc is None:
            return 0
        if predictor.kind in ("branch", "value", "vrange"):
            uids = [predictor.detail[0]]
        else:
            uids = [u for u in predictor.detail[1]]
        return min(abs(self.failure_pc - u) for u in uids) if uids else 0

    def ranked(self, kind: Optional[str] = None) -> List[PredictorStats]:
        """All predictors, best first.  Ties break deterministically: by
        proximity to the failure, then lexicographically."""
        everything = set(self._failing_counts) | set(self._successful_counts)
        if kind is not None:
            everything = {p for p in everything if p.kind == kind}
        scored = [self.stats_for(p) for p in everything]
        scored.sort(key=lambda s: (-s.f_measure, -s.precision,
                                   -s.failing_with,
                                   self._distance(s.predictor),
                                   repr(s.predictor.detail)))
        return scored

    def best(self, kind: Optional[str] = None) -> Optional[PredictorStats]:
        ranked = self.ranked(kind)
        return ranked[0] if ranked else None

    def best_per_kind(self) -> Dict[str, PredictorStats]:
        """The highest-ranked predictor of each kind — what the failure
        sketch highlights (§3.3: "the failure sketch presents the developer
        with the highest-ranked failure predictors for each type")."""
        out: Dict[str, PredictorStats] = {}
        for kind in ("branch", "value", "order", "vrange"):
            top = self.best(kind)
            if top is not None and top.f_measure > 0.0:
                out[kind] = top
        return out
