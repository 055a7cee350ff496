"""The top-level Gist facade: one call from failure to failure sketch.

    from repro import Gist, Workload
    from repro.core.workload import constant_factory

    gist = Gist(module, bug="pbzip2 bug #1")
    result = gist.diagnose(constant_factory(Workload(args=(4,))))
    print(result.rendered())

Under the hood this wires together every stage of the paper's Fig. 2:
backward slicing, adaptive slice tracking, PT-based control-flow tracking,
watchpoint-based data-flow tracking, refinement, statistical predictor
ranking, and sketch construction — over a simulated cooperative fleet.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

from ..analysis.context import AnalysisContext
from ..lang.codegen import compile_source
from ..lang.ir import Module
from .accuracy import AccuracyReport, IdealSketch, score
from .adaptive import DEFAULT_SIGMA
from .cooperative import CampaignStats, CooperativeDeployment, StopPredicate
from .render import render_sketch
from .sketch import FailureSketch
from .workload import Workload, WorkloadFactory, constant_factory


@dataclass
class DiagnosisResult:
    """What :meth:`Gist.diagnose` returns."""

    stats: CampaignStats
    #: Filled when the diagnosis ran through the multi-campaign control
    #: plane (``shards`` > 1 or ``cohort_size`` > 1): the full
    #: :class:`~repro.control.plane.PlaneResult` with shard assignments,
    #: scheduler round accounting, and the merged global cluster view.
    plane: Optional[object] = None

    @property
    def sketch(self) -> Optional[FailureSketch]:
        return self.stats.sketch

    @property
    def found(self) -> bool:
        return self.stats.found

    @property
    def failure_recurrences(self) -> int:
        return self.stats.failure_recurrences

    def rendered(self) -> str:
        if self.sketch is None:
            return "(no failure sketch: the failure never recurred "\
                   "under monitoring)"
        return render_sketch(self.sketch)

    def accuracy_against(self, ideal: IdealSketch) -> Optional[AccuracyReport]:
        if self.sketch is None:
            return None
        return score(self.sketch, ideal)


class Gist:
    """Failure sketching for one program."""

    def __init__(self, module: Module, bug: str = "bug",
                 endpoints: int = 8, ptwrite: bool = False,
                 extended_predicates: bool = False,
                 context: Optional[AnalysisContext] = None,
                 analysis_cache_dir: Optional[os.PathLike] = None,
                 fleet_workers: int = 1,
                 executor: str = "threads",
                 engine=None,
                 transport: str = "wire",
                 fault_plan=None,
                 shards: int = 1,
                 cohort_size: int = 1,
                 cohort_share: float = 1.0,
                 scheduler: str = "infogain",
                 quantum: int = 8,
                 journal_dir: Optional[os.PathLike] = None,
                 batch_bytes: Optional[int] = None,
                 batch_ms: Optional[float] = None,
                 detectors: Sequence[str] = (),
                 ranker: str = "fmeasure",
                 stats: str = "exact") -> None:
        self.module = module
        self.bug = bug
        self.endpoints = endpoints
        #: §6 future-hardware mode: PT carries data packets, no watchpoints.
        self.ptwrite = ptwrite
        #: §6 future work: also rank range/inequality value predicates.
        self.extended_predicates = extended_predicates
        #: Shared analysis artifacts: every diagnosis on this Gist (and
        #: anything else handed this context) reuses one copy of each CFG,
        #: dominator tree, reaching-defs table, call graph, and slice.
        self.context = context or AnalysisContext(
            module, cache_dir=analysis_cache_dir)
        #: Concurrent client runs per fleet batch (1 = sequential).
        self.fleet_workers = fleet_workers
        #: Execution engine kind: ``"threads"`` (default) or
        #: ``"processes"`` (warm worker pool, escapes the GIL).
        self.executor = executor
        #: Pre-built :class:`repro.fleet.FleetExecutor` to reuse across
        #: diagnoses (caller owns its lifecycle); overrides ``executor``.
        self.engine = engine
        #: ``"wire"`` (encoded-bytes fleet transport, default) or
        #: ``"socket"`` (the same bytes over a real Unix/TCP socket with
        #: batching and backpressure).
        self.transport = transport
        #: Optional :class:`repro.fleet.FaultPlan` injected at the
        #: transport boundary.
        self.fault_plan = fault_plan
        #: Control-plane shard count.  With the defaults below (1 shard,
        #: cohort of 1) diagnosis takes the classic single-campaign path,
        #: byte-identical to pre-control-plane behaviour; any other value
        #: routes through :class:`~repro.control.plane.ControlPlane`.
        self.shards = shards
        #: Real clients each simulated endpoint stands in for (K).
        self.cohort_size = cohort_size
        #: Fraction of a cohort participating per run (see CohortModel).
        self.cohort_share = cohort_share
        #: Budget-scheduler policy: ``"infogain"`` or ``"fair"``.
        self.scheduler = scheduler
        #: Runs each endpoint affords per scheduler round.
        self.quantum = quantum
        #: Write-ahead campaign journal directory (None = no journal).
        self.journal_dir = journal_dir
        #: Socket-transport batching knobs (None = transport defaults).
        self.batch_bytes = batch_bytes
        self.batch_ms = batch_ms
        #: Detection-subsystem tracers endpoints attach to every run
        #: (:data:`repro.detect.DETECTOR_KINDS` names).
        self.detectors = tuple(detectors)
        #: Predictor ranking engine: ``"fmeasure"`` | ``"invariants"``.
        self.ranker = ranker
        #: Statistics mode: ``"exact"`` (unbounded predictor counts) or
        #: ``"streaming"`` (bounded memory — sketched predictor counts,
        #: windowed recurrences, capped failure-identity histograms; see
        #: :mod:`repro.core.streaming`).  Both modes slice evidence and
        #: refine identically.
        self.stats = stats

    @classmethod
    def from_source(cls, source: str, bug: str = "bug",
                    endpoints: int = 8, module_name: str = "program",
                    ptwrite: bool = False, **kwargs) -> "Gist":
        """Compile MiniC source and build a Gist for it."""
        return cls(compile_source(source, module_name), bug=bug,
                   endpoints=endpoints, ptwrite=ptwrite, **kwargs)

    def diagnose(
        self,
        workload_factory: WorkloadFactory,
        initial_sigma: int = DEFAULT_SIGMA,
        stop_when: Optional[StopPredicate] = None,
        max_iterations: int = 10,
        max_runs_per_iteration: int = 400,
    ) -> DiagnosisResult:
        """Run a full cooperative diagnosis campaign.

        ``stop_when`` models the developer deciding the sketch contains the
        root cause (§3.2.1); by default the first sketch wins.

        With ``shards`` > 1 or ``cohort_size`` > 1 the campaign runs as a
        one-campaign control plane (sharded state export, cohort-weighted
        runs); the default configuration takes the classic path below,
        byte-identical to pre-control-plane Gist.
        """
        if self.shards > 1 or self.cohort_size > 1:
            return self._diagnose_via_plane(
                workload_factory, initial_sigma=initial_sigma,
                stop_when=stop_when, max_iterations=max_iterations,
                max_runs_per_iteration=max_runs_per_iteration)
        deployment = CooperativeDeployment(
            self.module, workload_factory,
            endpoints=self.endpoints, bug=self.bug, ptwrite=self.ptwrite,
            extended_predicates=self.extended_predicates,
            context=self.context, fleet_workers=self.fleet_workers,
            executor=self.executor, engine=self.engine,
            transport=self.transport, fault_plan=self.fault_plan,
            journal_dir=self.journal_dir,
            batch_bytes=self.batch_bytes, batch_ms=self.batch_ms,
            detectors=self.detectors, ranker=self.ranker,
            stats=self.stats)
        stats = deployment.run_campaign(
            initial_sigma=initial_sigma,
            stop_when=stop_when,
            max_iterations=max_iterations,
            max_runs_per_iteration=max_runs_per_iteration,
        )
        self.context.save()
        return DiagnosisResult(stats=stats)

    def _diagnose_via_plane(
        self,
        workload_factory: WorkloadFactory,
        initial_sigma: int,
        stop_when: Optional[StopPredicate],
        max_iterations: int,
        max_runs_per_iteration: int,
    ) -> DiagnosisResult:
        """Run this Gist's single campaign through the control plane."""
        # Lazy import: repro.control imports repro.core submodules.
        from ..control import CampaignSpec, ControlPlane

        spec = CampaignSpec(bug=self.bug, module=self.module,
                            workload_factory=workload_factory,
                            stop_when=stop_when, context=self.context,
                            detectors=self.detectors)
        plane = ControlPlane(
            [spec], shards=self.shards, endpoints=self.endpoints,
            cohort_size=self.cohort_size, cohort_share=self.cohort_share,
            scheduler=self.scheduler, quantum=self.quantum,
            fleet_workers=self.fleet_workers, executor=self.executor,
            engine=self.engine, fault_plan=self.fault_plan,
            transport=self.transport, journal_dir=self.journal_dir,
            ptwrite=self.ptwrite,
            extended_predicates=self.extended_predicates,
            initial_sigma=initial_sigma, max_iterations=max_iterations,
            max_runs_per_iteration=max_runs_per_iteration,
            ranker=self.ranker, stats=self.stats)
        result = plane.run()
        self.context.save()
        return DiagnosisResult(stats=result.stats[self.bug], plane=result)

    def diagnose_workload(self, workload: Workload,
                          **kwargs) -> DiagnosisResult:
        """Convenience: diagnose with a single base workload, reseeded."""
        return self.diagnose(constant_factory(workload), **kwargs)

    @staticmethod
    def diagnose_many(specs: Sequence, **plane_options):
        """Diagnose several bugs *concurrently* over a shared fleet.

        ``specs`` is a sequence of :class:`~repro.control.plane.CampaignSpec`;
        keyword options are forwarded to
        :class:`~repro.control.plane.ControlPlane` (``shards``,
        ``endpoints``, ``cohort_size``, ``scheduler``, ``quantum``,
        ``fleet_workers``, ``executor``, ...).  Returns the
        :class:`~repro.control.plane.PlaneResult`.
        """
        from ..control import ControlPlane

        return ControlPlane(specs, **plane_options).run()
