"""The cooperative deployment loop: server + a fleet of endpoints.

This is the simulated equivalent of the paper's evaluation environment
(1,136 simulated user endpoints, §5): a fleet of :class:`GistClient`
endpoints executes a stream of workloads; failures bootstrap a server-side
campaign; instrumentation patches go out; monitored runs come back;
Adaptive Slice Tracking iterates until the sketch satisfies the stop
criterion or the slice is exhausted.

Every byte of client↔server traffic — failure reports, patches, acks,
monitored runs — crosses the fleet transport (:mod:`repro.fleet`) as
encoded wire envelopes, in process (``"wire"``) or over a real socket
(``"socket"``), optionally through a seeded fault plan.  One object runs
one campaign from its first run to its fleet report: the deployment is
the resumable AsT state machine.  :meth:`CooperativeDeployment.start`
sets the campaign's budgets and :meth:`~CooperativeDeployment.step`
advances it; :meth:`~CooperativeDeployment.run_campaign` steps it with an
unbounded budget, and the control plane steps many deployments in
scheduler-sized slices.  Its routing and iteration rules are
:mod:`repro.core.server`'s, shared with ``repro fleet serve``; the
deployment adds run budgets, fault injection and the overhead list.

Client workloads are embarrassingly parallel — each run gets its own
interpreter, PT driver, and watchpoint unit, and all static analysis lives
in an immutable shared :class:`~repro.analysis.context.AnalysisContext` —
so the fleet executes them in batches of ``fleet_workers`` through a
pluggable **execution engine** (:mod:`repro.fleet.executors`): a thread
pool (the default; inline at one worker) or a warm process pool that
escapes the GIL.  Every engine runs the same batch, planned main-side in
run-id order by :meth:`~repro.fleet.endpoint.FleetEndpoint.plan_run`.
Determinism is preserved by construction, identically for every engine:
batch results are aggregated strictly in run-id order on the server
thread, the server stops consuming at exactly the run where the
sequential loop would have stopped, and any in-flight surplus runs of the
final batch are discarded before they touch campaign state (a real fleet
also keeps executing after the server has what it needs).  Every
``(executor, fleet_workers)`` combination therefore produces
byte-identical campaign statistics and sketches.  The live campaign is
read off the server, so a simulated server crash needs no hand-off.

A deployment runs one campaign on its own server, endpoints and
transport, so no envelope names a campaign; the control plane's
``campaign_key`` only seeds the endpoints' fault sub-plan and cohort
draws (:class:`~repro.fleet.endpoint.FleetEndpoint`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, \
    TYPE_CHECKING

from ..analysis.context import AnalysisContext
from ..lang.ir import Module
from ..runtime.failures import FailureReport
from .adaptive import DEFAULT_SIGMA
from .client import GistClient
from .server import (MAX_RUNS_PER_ITERATION, DiagnosisCampaign, GistServer,
                     IterationResult, StopPredicate)
from .sketch import FailureSketch
from .workload import Workload, WorkloadFactory

if TYPE_CHECKING:
    from ..fleet.endpoint import FleetEndpoint
    from ..fleet.executors import FleetExecutor
    from ..fleet.faults import FaultPlan
    from ..fleet.transport import FleetTransport

#: The ways client↔server traffic can move.  ``"wire"`` (the default)
#: routes everything — failure reports, patches, monitored runs, acks —
#: through :mod:`repro.fleet` as encoded bytes; ``"socket"`` routes the
#: same bytes over a real Unix-domain/TCP socket pair with frame batching
#: and credit backpressure (:mod:`repro.fleet.socket_transport`).
TRANSPORTS = ("wire", "socket")


@dataclass
class CampaignStats:
    """What the evaluation tables read off a finished campaign."""

    bug: str
    found: bool = False
    iterations: int = 0
    failure_recurrences: int = 0
    total_runs: int = 0
    monitored_runs: int = 0
    bootstrap_runs: int = 0
    avg_overhead_percent: float = 0.0
    max_overhead_percent: float = 0.0
    wall_seconds: float = 0.0
    offline_seconds: float = 0.0
    sketch: Optional[FailureSketch] = None
    iteration_results: List[IterationResult] = field(default_factory=list)
    #: Fleet/transport accounting, filled when the campaign ends: message
    #: counts, drops, quarantines, stale discards, crash/churn losses.
    fleet: Optional[Dict] = None
    #: High-water mark of the campaign's tracked statistics and
    #: refinement-evidence footprint (bounded in streaming mode, see
    #: :mod:`repro.core.streaming`).
    peak_tracked_bytes: int = 0


class CooperativeDeployment:
    """One program's fleet and the one diagnosis campaign it feeds.

    :meth:`start` sets the campaign's budgets; :meth:`step` then executes
    at most ``budget`` client runs (``None`` = unbounded) and returns how
    many it consumed, bootstrapping while the server has no campaign and
    monitoring until :attr:`done`.  Because batch results are aggregated
    in run-id order and surplus runs are rewound, any sequence of budgets
    consumes the run stream one unbounded step does, fault plans
    included: a scheduler-sliced campaign sends and counts what a solo
    one does.
    """

    def __init__(self, module: Module, workload_factory: WorkloadFactory,
                 endpoints: int = 8, bug: str = "bug",
                 ptwrite: bool = False,
                 extended_predicates: bool = False,
                 context: Optional[AnalysisContext] = None,
                 fleet_workers: int = 1,
                 executor: str = "threads",
                 engine: Optional["FleetExecutor"] = None,
                 transport: str = "wire",
                 fault_plan: Optional["FaultPlan"] = None,
                 campaign_key: Optional[str] = None,
                 cohort_model=None,
                 ranker_stripes: int = 1,
                 journal_dir: Optional[str] = None,
                 detectors: Sequence[str] = (),
                 ranker: str = "fmeasure",
                 stats: str = "exact") -> None:
        from ..detect import validate_detectors
        from ..fleet.executors import EXECUTOR_KINDS

        if endpoints < 1:
            raise ValueError("need at least one endpoint")
        if fleet_workers < 1:
            raise ValueError("need at least one fleet worker")
        if executor not in EXECUTOR_KINDS:
            raise ValueError(f"executor must be one of {EXECUTOR_KINDS}")
        if transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}")
        if fault_plan is not None and \
                fault_plan.servers.crash_every_ingests > 0 and \
                journal_dir is None:
            raise ValueError("server_crash faults need journal_dir: "
                             "recovery replays the write-ahead journal")
        self.module = module
        self.workload_factory = workload_factory
        self.bug = bug
        #: Detection-subsystem tracers every endpoint attaches to every
        #: run of this deployment (:mod:`repro.detect`), canonicalized so
        #: job descriptors carry one spelling.
        self.detectors = validate_detectors(detectors)
        self.server = GistServer(module, context=context,
                                 stripes=ranker_stripes, ranker=ranker,
                                 stats=stats)
        self.clients = [GistClient(module, endpoint_id=i, ptwrite=ptwrite,
                                   extended_predicates=extended_predicates,
                                   detectors=self.detectors)
                        for i in range(endpoints)]
        #: Client runs executed concurrently per batch (1 = sequential).
        self.fleet_workers = fleet_workers
        #: Which execution engine runs the batches.  An injected ``engine``
        #: overrides the name and stays open across campaigns (the caller
        #: owns its lifecycle — how benchmarks amortize pool start-up).
        self.executor_kind = engine.kind if engine is not None else executor
        self._engine: Optional["FleetExecutor"] = engine
        self._owns_engine = engine is None
        self.fault_plan = fault_plan
        #: Campaign key: ``None`` for solo deployments; a control plane
        #: passes each campaign's bug id.  It picks the endpoints' fault
        #: sub-plan and cohort draws, and never reaches the wire.
        self.campaign_key = campaign_key
        #: Cohort model (see :mod:`repro.control.cohort`): when set, each
        #: endpoint stands in for a sampled multiple of real clients.
        self.cohort_model = cohort_model
        self.fleet_transport: "FleetTransport"
        if transport == "wire":
            from ..fleet.transport import FleetTransport

            self.fleet_transport = FleetTransport(endpoints, fault_plan)
        else:
            from ..fleet.socket_transport import SocketFleetTransport

            self.fleet_transport = SocketFleetTransport(endpoints, fault_plan)
        #: Directory for the write-ahead campaign journal (None = off).
        #: The journal file itself opens lazily when a campaign starts.
        self.journal_dir = journal_dir
        self._endpoints: Optional[List["FleetEndpoint"]] = None
        self._runs_lost_to_crash = 0
        self._runs_lost_to_churn = 0
        self._patch_resends = 0
        self._server_crashes = 0
        self._acks_delayed = 0
        #: Acks the fault plan deferred: they land at the start of the
        #: next pump round instead of the one they arrived in.
        self._held_acks: List = []
        #: The first failure report that landed with no campaign to take
        #: it, until :meth:`wait_for_failure` hands it on.
        self._report: Optional[FailureReport] = None
        #: Overheads of the applied monitored runs, in ingest order.
        self._overheads: List[float] = []
        self._next_run = 0
        #: Set once the bootstrap epoch (epoch 0) has opened; later
        #: bootstrap calls resume it.
        self._bootstrap_open = False

    # -- plumbing ------------------------------------------------------------

    def _draw(self) -> Tuple[GistClient, Workload, int]:
        run_id = self._next_run
        self._next_run += 1
        client = self.clients[run_id % len(self.clients)]
        workload = self.workload_factory(run_id)
        return client, workload, run_id

    def _ensure_engine(self) -> "FleetExecutor":
        if self._engine is None:
            from ..fleet.executors import make_executor

            self._engine = make_executor(self.executor_kind,
                                         self.fleet_workers)
        return self._engine

    @property
    def _pool(self):
        """The engine's live worker pool — None before start / after close."""
        return self._engine.live_pool if self._engine is not None else None

    def close(self) -> None:
        """Shut the execution engine down, stop the socket hub if one is
        running, and close the journal (idempotent).

        Injected engines belong to the caller and are left running.
        """
        if self._engine is not None and self._owns_engine:
            self._engine.close()
            self._engine = None
        if hasattr(self.fleet_transport, "hub"):
            self.fleet_transport.close()
        if self.server.journal is not None:
            self.server.journal.close()

    def __enter__(self) -> "CooperativeDeployment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- fleet transport plumbing ---------------------------------------------

    def _fleet(self) -> List["FleetEndpoint"]:
        """The wire-speaking endpoint wrappers (built lazily so callers may
        swap ``self.clients`` for instrumented variants first)."""
        from ..fleet.endpoint import FleetEndpoint

        if self._endpoints is None or \
                len(self._endpoints) != len(self.clients) or \
                any(e.client is not c
                    for e, c in zip(self._endpoints, self.clients)):
            self._endpoints = [
                FleetEndpoint(client, self.fault_plan, len(self.clients),
                              cohort_model=self.cohort_model,
                              key=self.campaign_key)
                for client in self.clients]
        return self._endpoints

    def _execute_batch_wire(self, size: int):
        """One batch: ``(run_id, plan, uplink)`` per drawn run, in run-id
        order.  Plans are resolved here, in run-id order (no run of a
        batch changes what a plan reads), and only fault-free runs reach
        the engine.  Nothing touches the transport here — the aggregation
        thread transmits in run-id order, which keeps seeded fault
        schedules deterministic for any ``fleet_workers`` value."""
        from ..fleet.endpoint import RUN_OK

        fleet = self._fleet()
        batch = []
        for _ in range(size):
            client, workload, run_id = self._draw()
            plan = fleet[run_id % len(fleet)].plan_run(run_id)
            batch.append((client, plan, workload, run_id))
        uplinks = iter(self._ensure_engine().run(
            [run for run in batch if run[1].kind == RUN_OK]))
        return [(run_id, plan, next(uplinks) if plan.kind == RUN_OK else None)
                for _client, plan, _workload, run_id in batch]

    # -- journal + simulated server crashes -----------------------------------

    @property
    def campaign(self) -> Optional[DiagnosisCampaign]:
        """The server's one campaign: None before the first failure
        report, and the journal-recovered object after a simulated server
        crash."""
        return self.server.campaign

    def _crash_and_recover(self) -> None:
        """Simulate a server kill: throw the live server object away and
        rebuild it from the write-ahead journal, exactly as a restarted
        process would.  The analysis context survives (static artifacts
        are immutable); every piece of campaign state must come back
        through replay."""
        from ..fleet.journal import CampaignJournal, recover_server

        old = self.server
        journal = old.journal
        journal.close()  # after its final sync, which the counters carry
        state = recover_server(
            journal.path, self.module, context=old.context,
            stripes=old.stripes, ranker=old.ranker_kind,
            stats=old.stats_kind)
        server = state.server
        server.journal = CampaignJournal(journal.path, fresh=False)
        # The file is the same one, so its counters carry on; so do the
        # counts of rejected traffic, which the journal does not record.
        for source, target, counters in (
                (journal, server.journal,
                 ("records_appended", "bytes_appended", "syncs")),
                (old, server,
                 ("messages_received", "quarantined_count", "quarantine")),
                (old.campaign, server.campaign,
                 ("stale_runs_discarded", "duplicate_runs_ignored",
                  "unmonitored_reports"))):
            for counter in counters:
                setattr(target, counter, getattr(source, counter))
        self.server = server
        self._server_crashes += 1

    def _maybe_crash_server(self) -> None:
        """Fire the seeded ``server_crash_every`` fault if this ingest is
        its trigger."""
        plan = self.fault_plan
        if plan is not None and self.server.journal is not None and \
                plan.server_crashes_after(self.server.ingests_applied):
            self._crash_and_recover()

    #: How many uplink payloads one ``recv_many`` pass pops — bounds the
    #: working set without changing drain semantics (the pump loops until
    #: the uplink is empty).
    PUMP_BATCH = 256

    def _pump_uplink(self) -> None:
        """Drain the server's inbox through :meth:`GistServer.route`.

        Before a campaign exists, the first failure report that lands is
        kept for :meth:`wait_for_failure`; after, every applied monitored
        run adds its overhead.  Acks the fault plan defers land at the
        start of the *next* pump round; a triggered ``server_crash_every``
        fault swaps the server for its journal-recovered twin mid-drain.
        """
        from ..fleet import wire

        plan = self.fault_plan
        held, self._held_acks = self._held_acks, []
        for message in held:
            self.server.route(message)
        uplink = self.fleet_transport.uplink
        while True:
            blobs = uplink.recv_many(self.PUMP_BATCH)
            if not blobs:
                break
            for blob in blobs:
                message = self.server.receive(blob)
                if message is None:
                    continue  # quarantined
                if message.type == wire.MSG_PATCH_ACK and plan is not None \
                        and plan.ack_delayed(message.epoch or 0,
                                             message.payload["endpoint_id"]):
                    self._acks_delayed += 1
                    self._held_acks.append(message)
                    continue
                routed = self.server.route(message)
                if self.campaign is None:  # only a report comes back
                    self._report = self._report or routed
                elif routed is not None:
                    self._overheads.append(routed.overhead)
                    self._maybe_crash_server()

    def _deliver_patches(self, patches: Sequence, epoch: int) -> None:
        """Ship this iteration's patch variants; one resend round covers
        endpoints whose delivery (or ack) was eaten by the fault layer."""
        from ..fleet import wire

        fleet = self._fleet()
        for attempt in (0, 1):
            if attempt == 0:
                targets = fleet
            else:
                acked = self.campaign.acked_endpoints
                targets = [e for e in fleet if e.endpoint_id not in acked]
                if not targets:
                    break
                self._patch_resends += len(targets)
            for endpoint in targets:
                variant = patches[endpoint.endpoint_id % len(patches)]
                self.fleet_transport.send_to_client(
                    endpoint.endpoint_id,
                    wire.encode_patch(variant, epoch=epoch),
                    msg_type=wire.MSG_PATCH,
                    key=(epoch, endpoint.endpoint_id, attempt))
            for endpoint in targets:
                downlink = self.fleet_transport.downlinks[endpoint.endpoint_id]
                for ack in endpoint.poll_patches(downlink.drain()):
                    self.fleet_transport.send_to_server(
                        ack, msg_type=wire.MSG_PATCH_ACK,
                        key=(epoch, endpoint.endpoint_id, "ack", attempt))
            self._pump_uplink()

    def _fleet_report(self) -> Dict:
        from ..fleet.transport import FleetReport

        report = FleetReport(
            transport=self.fleet_transport.stats.as_dict(),
            quarantined=self.server.quarantined_count,
            runs_lost_to_crash=self._runs_lost_to_crash,
            runs_lost_to_churn=self._runs_lost_to_churn,
            client_decode_failures=sum(e.decode_failures
                                       for e in self._fleet()),
            patch_resends=self._patch_resends,
            server_crashes=self._server_crashes,
            acks_delayed=self._acks_delayed,
            fault_plan=(self.fault_plan.describe()
                        if self.fault_plan is not None else "none"),
        )
        if self.server.journal is not None:
            report.journal = self.server.journal.stats()
        campaign = self.campaign
        if campaign is not None:
            report.stale_discarded = campaign.stale_runs_discarded
            report.duplicates_ignored = campaign.duplicate_runs_ignored
            report.unmonitored_reports = campaign.unmonitored_reports
        return report.as_dict()

    # -- phase 0: wait for the first failure ----------------------------------

    def wait_for_failure(self, max_runs: int = 10_000
                         ) -> Tuple[Optional[FailureReport], int]:
        """Run the fleet uninstrumented until a failure report lands.

        Executes at most ``max_runs`` runs and returns ``(report,
        runs consumed)``; ``report`` is None when none landed.  The report
        arrives as an encoded ``failure_report`` message, so a faulty fleet
        may take extra runs to bootstrap.  With ``fleet_workers > 1`` later
        runs of the failing batch may already have executed, but they are
        discarded and re-drawn, keeping the consumed run stream identical
        to sequential execution.

        The first call opens the bootstrap epoch (epoch 0); later calls
        resume it, which is how :meth:`step` bootstraps in budgeted
        slices.
        """
        if not self._bootstrap_open:
            for endpoint in self._fleet():
                endpoint.begin_epoch(0, self._next_run)
            self._bootstrap_open = True

        def landed() -> bool:
            # Bootstrap has no iteration deadline: a report a straggler
            # held back lands before the next run is consumed.
            if self._report is None and self.fleet_transport.flush():
                self._pump_uplink()
            return self._report is not None

        consumed = self._run_batches(0, max_runs, landed)
        report, self._report = self._report, None
        return report, consumed

    def _run_batches(self, epoch: int, max_runs: int,
                     stop: Callable[[], bool]) -> int:
        """Consume at most ``max_runs`` runs, ``fleet_workers`` a batch.

        Each run's uplink goes through the fault layer in run-id order and
        the uplink is pumped after it; lost runs (churned or crashed) only
        count.  Once ``stop()`` holds after a consumed run, lost or not,
        the rest of its batch is discarded and its run ids handed out
        again, so the consumed stream is the same for any
        ``fleet_workers`` (workload factories are pure functions of the
        run id).  Returns the runs consumed.
        """
        from ..fleet.endpoint import RUN_CHURNED, RUN_CRASHED

        consumed = 0
        while consumed < max_runs:
            size = min(self.fleet_workers, max_runs - consumed)
            for run_id, plan, uplink in self._execute_batch_wire(size):
                consumed += 1
                if plan.kind == RUN_CHURNED:
                    self._runs_lost_to_churn += 1
                elif plan.kind == RUN_CRASHED:
                    self._runs_lost_to_crash += 1
                else:
                    if uplink is not None:
                        msg_type, payload = uplink
                        self.fleet_transport.send_to_server(
                            payload, msg_type=msg_type,
                            key=(epoch, run_id, msg_type),
                            straggle=plan.straggles)
                    self._pump_uplink()
                if stop():
                    self._next_run = run_id + 1
                    return consumed
        return consumed

    # -- the AsT campaign ---------------------------------------------------------

    def start(self, initial_sigma: int = DEFAULT_SIGMA,
              stop_when: Optional[StopPredicate] = None,
              max_iterations: int = 10,
              max_runs_per_iteration: int = MAX_RUNS_PER_ITERATION,
              max_bootstrap_runs: int = 10_000) -> None:
        """Set the campaign's budgets; :meth:`step` then runs it.

        ``max_iterations`` is part of the close rule
        (:meth:`DiagnosisCampaign.close_iteration`): the iteration that
        reaches it ends the campaign without growing σ.
        """
        if max_iterations < 1:
            raise ValueError("need at least one iteration")
        self.initial_sigma = initial_sigma
        self.stop_when = stop_when
        self.max_iterations = max_iterations
        self.max_runs_per_iteration = max_runs_per_iteration
        self.max_bootstrap_runs = max_bootstrap_runs
        self.stats = CampaignStats(bug=self.bug)
        #: Set once the campaign has ended, or bootstrap gave up.
        self.done = False
        #: Runs the open iteration has consumed, lost runs included.
        self._attempts = 0

    @property
    def converged(self) -> bool:
        """Found a sketch the stop predicate accepted."""
        return self.stats.found

    def recurrences(self) -> int:
        """Weighted failure recurrences — the scheduler's demand signal
        for how hot this bug currently is in the fleet.

        Exact mode reports the all-time total; streaming mode reports the
        rolling-window count instead (see
        :meth:`DiagnosisCampaign.windowed_recurrences`), so bugs that have
        gone quiet stop holding budget even though their historical
        totals never shrink.
        """
        campaign = self.campaign
        return 0 if campaign is None else campaign.windowed_recurrences()

    def step(self, budget: Optional[int]) -> int:
        """Advance the campaign by at most ``budget`` client runs."""
        limit = float("inf") if budget is None else budget
        if limit <= 0 or self.done:
            return 0
        churned = self._runs_lost_to_churn
        if self.campaign is None:
            consumed = self._step_bootstrap(limit)
        else:
            consumed = self._step_monitor(limit)
        # A churned run never executed, in either phase.
        self.stats.total_runs += \
            consumed - (self._runs_lost_to_churn - churned)
        return consumed

    def _step_bootstrap(self, limit) -> int:
        """Uninstrumented runs until the first failure report lands."""
        stats = self.stats
        report, consumed = self.wait_for_failure(
            min(limit, self.max_bootstrap_runs - stats.bootstrap_runs))
        stats.bootstrap_runs += consumed
        if report is None:
            if stats.bootstrap_runs >= self.max_bootstrap_runs:
                # The failure never recurred: give up without a campaign.
                stats.fleet = self._fleet_report()
                self.done = True
            return consumed
        if self.journal_dir is not None:
            # The journal attaches before the campaign exists, so its
            # first record is this campaign's start.
            from ..fleet.journal import CampaignJournal, journal_path

            self.server.journal = CampaignJournal(
                journal_path(self.journal_dir, self.bug), fresh=True)
        self.server.handle_failure_report(self.bug, report,
                                          self.initial_sigma)
        return consumed

    def _step_monitor(self, limit) -> int:
        """Budgeted slice of the AsT iteration loop.  An iteration closes
        once the campaign holds its evidence or has consumed
        ``max_runs_per_iteration`` runs, lost runs included."""
        consumed = 0
        while consumed < limit and not self.done:
            campaign = self.campaign
            if not campaign.iteration_open:
                campaign.begin_iteration()
                for endpoint in self._fleet():
                    endpoint.begin_epoch(campaign.epoch, self._next_run)
                self._deliver_patches(
                    campaign.make_patches(len(self.clients)), campaign.epoch)
                self._attempts = 0
            ran = self._run_batches(
                campaign.epoch,
                min(limit - consumed,
                    self.max_runs_per_iteration - self._attempts),
                lambda: self.campaign.iteration_satisfied)
            consumed += ran
            self._attempts += ran
            if self.campaign.iteration_satisfied or \
                    self._attempts >= self.max_runs_per_iteration:
                self._close_iteration()
        return consumed

    def _close_iteration(self) -> None:
        result, found, over = self.campaign.close_iteration(
            self.stop_when, self.max_iterations)
        stats = self.stats
        stats.iteration_results.append(result)
        stats.iterations = result.iteration
        if result.sketch is not None:
            stats.sketch = result.sketch
        stats.found = found
        if not over:
            # The iteration deadline has passed: stragglers and held
            # reorders land now, and the epoch check discards them as
            # stale at the next iteration's ingestion.
            self.fleet_transport.flush()
            return
        campaign, overheads = self.campaign, self._overheads
        stats.failure_recurrences = campaign.total_failure_recurrences
        stats.peak_tracked_bytes = campaign.peak_tracked_bytes
        stats.monitored_runs = len(overheads)
        if overheads:
            stats.avg_overhead_percent = \
                100.0 * sum(overheads) / len(overheads)
            stats.max_overhead_percent = 100.0 * max(overheads)
        stats.offline_seconds = self.server.offline_analysis_seconds
        stats.fleet = self._fleet_report()
        self.done = True

    def run_campaign(
        self,
        initial_sigma: int = DEFAULT_SIGMA,
        stop_when: Optional[StopPredicate] = None,
        max_iterations: int = 10,
        max_runs_per_iteration: int = MAX_RUNS_PER_ITERATION,
        max_bootstrap_runs: int = 10_000,
    ) -> CampaignStats:
        """Full pipeline: bootstrap failure → AsT iterations → sketch.

        :meth:`start`, then unbounded :meth:`step` calls until
        :attr:`done`, then :meth:`close`.
        """
        self.start(initial_sigma, stop_when, max_iterations,
                   max_runs_per_iteration, max_bootstrap_runs)
        t0 = time.perf_counter()
        try:
            while not self.done:
                self.step(None)
        finally:
            self.stats.wall_seconds = time.perf_counter() - t0
            self.close()
        return self.stats
