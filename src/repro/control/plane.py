"""The multi-campaign control plane.

A :class:`ControlPlane` runs N diagnosis campaigns *concurrently* over a
shared fleet.  Each campaign is one
:class:`~repro.core.cooperative.CooperativeDeployment` — the resumable
AsT state machine — with its own :class:`~repro.core.server.GistServer`,
endpoints and transport; only the execution engine is shared, and no
envelope names a campaign.  A campaign's bug id fixes its endpoints' fault
sub-plan and cohort draws, so a fault-free campaign without cohorts sends
exactly its solo traffic.  The plane's job is everything between them:

- **Scheduling.**  Each round the
  :class:`~repro.control.scheduler.BudgetScheduler` splits the fleet's
  per-round run budget (``endpoints x quantum``) across unconverged
  campaigns by expected information gain, and the plane steps every
  deployment by exactly its allocation.  Budgeted stepping consumes the
  same run stream an unbudgeted campaign would (batch-size invariance,
  see the deployment), so concurrency changes *when* evidence arrives,
  never *what* evidence arrives — the degenerate A/B tests pin sketches
  byte-identical to solo runs.
- **Sharding.**  Once a campaign sees its first failure, its
  failure-cluster key (the WER-style site key) is consistent-hashed onto
  one of the plane's :class:`~repro.control.shard.ShardServer` instances,
  which owns the campaign from then on.  Campaign ingest stripes its
  ranker counts (one stripe per shard); shard state — striped ranker
  snapshots plus the cluster table — is exported as canonical
  ``shard_state`` wire envelopes and folded into the plane's global view
  with :meth:`PredictorRanker.merge
  <repro.core.stats.PredictorRanker.merge>` and
  :meth:`FailureClusterer.merge
  <repro.core.clustering.FailureClusterer.merge>`, both
  order-independent, so the global view is invariant under shard count.
- **Cohorts.**  With ``cohort_size`` K > 1 every simulated endpoint
  stands in for K real clients
  (:class:`~repro.control.cohort.CohortModel`), so a small fleet models
  100k–1M endpoints at the cost of the small one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..analysis.context import AnalysisContext
from ..core.adaptive import DEFAULT_SIGMA
from ..core.clustering import FailureClusterer
from ..core.cooperative import CampaignStats, CooperativeDeployment, \
    StopPredicate
from ..core.stats import PredictorRanker
from ..core.streaming import STATS_KINDS, ranker_from_state
from ..fleet import wire
from ..fleet.executors import FleetExecutor, make_executor
from ..fleet.faults import FaultPlan
from ..lang.ir import Module
from .cohort import CohortModel
from .hashring import ConsistentHashRing
from .scheduler import BudgetScheduler
from .shard import ShardServer


@dataclass(frozen=True)
class CampaignSpec:
    """One bug the plane should diagnose: program, workloads, oracle."""

    bug: str
    module: Module
    workload_factory: Callable
    stop_when: Optional[StopPredicate] = None
    context: Optional[AnalysisContext] = None
    #: Detection tracers (:data:`repro.detect.DETECTOR_KINDS` names) every
    #: endpoint run of this campaign attaches.
    detectors: Sequence[str] = ()


@dataclass
class PlaneResult:
    """What a finished control-plane run reports."""

    #: Per-campaign outcome, keyed by campaign (bug) id.
    stats: Dict[str, CampaignStats] = field(default_factory=dict)
    #: Failure-cluster key -> owning shard id.
    shard_of: Dict[str, int] = field(default_factory=dict)
    #: Campaign id -> its failure-cluster (site) key.
    cluster_key_of: Dict[str, str] = field(default_factory=dict)
    rounds: int = 0
    #: Physical client runs executed, per campaign and total.
    runs_of: Dict[str, int] = field(default_factory=dict)
    total_runs: int = 0
    #: Largest per-round run total — never exceeds the round budget.
    max_round_runs: int = 0
    round_budget: int = 0
    #: Real clients the fleet models (endpoints x cohort size).
    fleet_scale: int = 0
    #: Globally merged cluster table (via shard_state envelopes).
    clusters: Optional[FailureClusterer] = None
    #: True when every campaign's cross-shard merged ranker matched its
    #: own direct ranker state exactly.
    merge_verified: bool = False
    wall_seconds: float = 0.0

    @property
    def found(self) -> Dict[str, bool]:
        return {key: s.found for key, s in self.stats.items()}


class ControlPlane:
    """Drives N concurrent campaigns over shared fleet capacity."""

    def __init__(self, specs: Sequence[CampaignSpec],
                 shards: int = 1,
                 endpoints: int = 8,
                 cohort_size: int = 1,
                 cohort_share: float = 1.0,
                 cohort_seed: int = 0,
                 scheduler: str = "infogain",
                 quantum: int = 8,
                 fleet_workers: int = 1,
                 executor: str = "threads",
                 engine: Optional[FleetExecutor] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 transport: str = "wire",
                 journal_dir: Optional[str] = None,
                 ptwrite: bool = False,
                 extended_predicates: bool = False,
                 initial_sigma: int = DEFAULT_SIGMA,
                 max_iterations: int = 10,
                 max_runs_per_iteration: int = 400,
                 max_bootstrap_runs: int = 10_000,
                 ranker: str = "fmeasure",
                 stats: str = "exact") -> None:
        if not specs:
            raise ValueError("need at least one campaign spec")
        if shards < 1:
            raise ValueError("need at least one shard")
        if stats not in STATS_KINDS:
            raise ValueError(f"stats must be one of {STATS_KINDS}")
        keys = [spec.bug for spec in specs]
        if len(set(keys)) != len(keys):
            raise ValueError("campaign ids must be unique")
        self.specs = list(specs)
        self.ring = ConsistentHashRing(shards)
        self.shards = [ShardServer(i, stats=stats) for i in range(shards)]
        self.scheduler = BudgetScheduler(scheduler, endpoints=endpoints,
                                         quantum=quantum)
        self.cohort = CohortModel(size=cohort_size, share=cohort_share,
                                  seed=cohort_seed) \
            if cohort_size > 1 else None
        self.endpoints = endpoints
        self._engine = engine
        self._owns_engine = engine is None
        if self._engine is None:
            self._engine = make_executor(executor, fleet_workers)
        self.deployments: Dict[str, CooperativeDeployment] = {}
        self._unassigned: Dict[str, CooperativeDeployment] = {}
        for spec in self.specs:
            deployment = CooperativeDeployment(
                spec.module, spec.workload_factory,
                endpoints=endpoints, bug=spec.bug,
                ptwrite=ptwrite, extended_predicates=extended_predicates,
                context=spec.context, fleet_workers=fleet_workers,
                engine=self._engine, transport=transport,
                fault_plan=fault_plan, campaign_key=spec.bug,
                cohort_model=self.cohort,
                ranker_stripes=shards, journal_dir=journal_dir,
                detectors=spec.detectors, ranker=ranker, stats=stats)
            deployment.start(
                initial_sigma=initial_sigma, stop_when=spec.stop_when,
                max_iterations=max_iterations,
                max_runs_per_iteration=max_runs_per_iteration,
                max_bootstrap_runs=max_bootstrap_runs)
            self.deployments[spec.bug] = deployment
            self._unassigned[spec.bug] = deployment

    # -- shard assignment ----------------------------------------------------

    def _assign_new_campaigns(self, result: PlaneResult) -> None:
        """Home campaigns that just produced their first failure report."""
        for key in sorted(self._unassigned):
            deployment = self._unassigned[key]
            if deployment.campaign is None:
                continue
            report = deployment.campaign.first_report
            cluster_key = FailureClusterer.site_key(report)
            shard = self.shards[self.ring.lookup(cluster_key)]
            shard.admit(key, deployment)
            shard.observe_failure(report)
            result.cluster_key_of[key] = cluster_key
            result.shard_of[cluster_key] = shard.shard_id
            del self._unassigned[key]

    # -- the cooperative round loop ------------------------------------------

    def run(self) -> PlaneResult:
        """Drive every campaign to completion; merge the global view."""
        result = PlaneResult(round_budget=self.scheduler.round_budget,
                             fleet_scale=self.endpoints * (
                                 self.cohort.size if self.cohort else 1))
        result.runs_of = {key: 0 for key in self.deployments}
        t0 = time.perf_counter()
        try:
            while any(not d.done for d in self.deployments.values()):
                alloc = self.scheduler.allocate(self.deployments)
                round_runs = 0
                for key in sorted(alloc):
                    budget = alloc[key]
                    if budget <= 0:
                        continue
                    consumed = self.deployments[key].step(budget)
                    assert consumed <= budget, \
                        "campaign exceeded its scheduled budget"
                    result.runs_of[key] += consumed
                    round_runs += consumed
                self._assign_new_campaigns(result)
                result.rounds += 1
                result.max_round_runs = max(result.max_round_runs,
                                            round_runs)
            self._merge_global_view(result)
        finally:
            result.wall_seconds = time.perf_counter() - t0
            for deployment in self.deployments.values():
                deployment.close()
            if self._owns_engine:
                self._engine.close()
        for key, deployment in self.deployments.items():
            result.stats[key] = deployment.stats
        result.total_runs = sum(result.runs_of.values())
        return result

    # -- cross-shard merge ---------------------------------------------------

    def _merge_global_view(self, result: PlaneResult) -> None:
        """Fold every shard's exported state into the plane-global view.

        The exchange is real wire traffic: each shard encodes one
        ``shard_state`` envelope (canonical bytes, content digest) and the
        plane decodes it back — a corrupted export would raise, exactly
        like corrupted fleet traffic.  Every campaign's striped partial
        rankers are then folded with :meth:`PredictorRanker.merge` and
        checked against the campaign's own merged ranker; associativity/
        commutativity of the merge is what makes this independent of
        shard count and export order.
        """
        clusters = FailureClusterer()
        verified = True
        for shard in self.shards:
            message = wire.decode_message(shard.export_state())
            assert message.type == wire.MSG_SHARD_STATE
            body = message.payload
            clusters.merge(FailureClusterer.from_state(body["clusters"]))
            for entry in body["campaigns"]:
                direct = self.deployments[entry["key"]].campaign.ranker()
                merged: Optional[PredictorRanker] = None
                for stripe_state in entry["stripes"]:
                    # Dispatch on the state's "kind": sketched stripes
                    # (streaming mode) rebuild as SketchRankers so the
                    # fold exercises mergeable-summaries merge; exact
                    # stripes take the classic path unchanged.  States
                    # carry counts, not the score: name the campaign's.
                    partial = ranker_from_state(stripe_state,
                                                score=direct.score)
                    if merged is None:
                        merged = partial
                    else:
                        merged.merge(partial)
                if merged is None or merged.state() != direct.state():
                    verified = False
        result.clusters = clusters
        result.merge_verified = verified

    # -- convenience ---------------------------------------------------------

    def active_campaigns(self) -> List[str]:
        return [key for key, d in self.deployments.items() if not d.done]
