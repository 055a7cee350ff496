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
(``"socket"``), optionally through a seeded fault plan.  One loop drives
every campaign: :class:`CampaignDriver`, the resumable AsT state machine.
:meth:`CooperativeDeployment.run_campaign` steps it with an unbounded
budget; the control plane steps many of them in scheduler-sized slices.

Client workloads are embarrassingly parallel — each run gets its own
interpreter, PT driver, and watchpoint unit, and all static analysis lives
in an immutable shared :class:`~repro.analysis.context.AnalysisContext` —
so the fleet executes them in batches of ``fleet_workers`` through a
pluggable **execution engine** (:mod:`repro.fleet.executors`): serial,
thread pool (the default), or a warm process pool that escapes the GIL.
Determinism is preserved by construction, identically for every engine:
batch results are aggregated strictly in run-id order on the server
thread, the server stops consuming at exactly the run where the
sequential loop would have stopped, and any in-flight surplus runs of the
final batch are discarded before they touch campaign state (a real fleet
also keeps executing after the server has what it needs).  Every
``(executor, fleet_workers)`` combination therefore produces
byte-identical campaign statistics and sketches.
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
from .server import DiagnosisCampaign, GistServer, IterationResult
from .sketch import FailureSketch
from .workload import Workload, WorkloadFactory

if TYPE_CHECKING:
    from ..fleet.endpoint import FleetEndpoint, RunPlan
    from ..fleet.executors import FleetExecutor
    from ..fleet.faults import FaultPlan
    from ..fleet.transport import FleetTransport

#: The ways client↔server traffic can move.  ``"wire"`` (the default)
#: routes everything — failure reports, patches, monitored runs, acks —
#: through :mod:`repro.fleet` as encoded bytes; ``"socket"`` routes the
#: same bytes over a real Unix-domain/TCP socket pair with frame batching
#: and credit backpressure (:mod:`repro.fleet.socket_transport`).
TRANSPORTS = ("wire", "socket")

#: Evidence an AsT iteration waits for before it closes: this many
#: recurrences of the campaign's failure and this many successful runs
#: (or ``max_runs_per_iteration`` attempts, whichever comes first).
MIN_FAILING_PER_ITERATION = 1
MIN_SUCCESSFUL_PER_ITERATION = 3

#: Decide whether a sketch is good enough to stop AsT.  The evaluation
#: passes the ideal-sketch oracle; interactive use passes a developer
#: callback.  ``None`` means "stop at the first sketch produced".
StopPredicate = Callable[[FailureSketch], bool]


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
    """Drives one program's fleet and its diagnosis campaigns."""

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
                 interp_mode: Optional[str] = None,
                 campaign_key: Optional[str] = None,
                 cohort_model=None,
                 ranker_stripes: int = 1,
                 journal_dir: Optional[str] = None,
                 batch_bytes: Optional[int] = None,
                 batch_ms: Optional[float] = None,
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
                                   interp_mode=interp_mode,
                                   detectors=self.detectors)
                        for i in range(endpoints)]
        #: Interpreter tier for every endpoint run, monitored or not
        #: (None = the process default).
        self.interp_mode = interp_mode
        #: Client runs executed concurrently per batch (1 = sequential).
        self.fleet_workers = fleet_workers
        #: Which execution engine runs the batches.  An injected ``engine``
        #: overrides the name and stays open across campaigns (the caller
        #: owns its lifecycle — how benchmarks amortize pool start-up).
        self.executor_kind = engine.kind if engine is not None else executor
        self._engine: Optional["FleetExecutor"] = engine
        self._owns_engine = engine is None
        self._module_wire_cache: Optional[Tuple[str, bytes]] = None
        self.fault_plan = fault_plan
        #: Campaign routing key.  ``None`` (solo deployments) keeps every
        #: envelope untagged — byte-identical to the pre-campaign wire
        #: format.  A control plane gives each campaign's deployment its
        #: cluster key; all traffic is then tagged and routed by it.
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

            socket_kwargs = {}
            if batch_bytes is not None:
                socket_kwargs["batch_bytes"] = batch_bytes
            if batch_ms is not None:
                socket_kwargs["batch_ms"] = batch_ms
            self.fleet_transport = SocketFleetTransport(
                endpoints, fault_plan, **socket_kwargs)
        #: Directory for the write-ahead campaign journal (None = off).
        #: The journal file itself opens lazily when a campaign starts.
        self.journal_dir = journal_dir
        self._endpoints: Optional[List["FleetEndpoint"]] = None
        self._runs_lost_to_crash = 0
        self._runs_lost_to_churn = 0
        self._patch_resends = 0
        self._misrouted = 0
        self._server_crashes = 0
        self._acks_delayed = 0
        #: Acks the fault plan deferred: they land at the start of the
        #: next pump round instead of the one they arrived in.
        self._held_acks: List = []
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

    def _rewind(self, next_run_id: int) -> None:
        """Reset the run stream to ``next_run_id``.

        Called after the server stops consuming mid-batch: surplus in-flight
        results are discarded and their run ids handed out again, so the
        consumed stream is identical to the sequential one (workload
        factories are pure functions of the run id).
        """
        self._next_run = next_run_id

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

    def _module_wire(self) -> Tuple[str, bytes]:
        """The module as a (digest, pickled blob) pair, computed once —
        remote engines attach it to every job; workers cache by digest."""
        if self._module_wire_cache is None:
            from ..fleet.procpool import module_payload

            self._module_wire_cache = module_payload(self.module)
        return self._module_wire_cache

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
                FleetEndpoint(client, self.fleet_transport, self.fault_plan,
                              len(self.clients),
                              cohort_model=self.cohort_model)
                for client in self.clients]
        return self._endpoints

    def _execute_batch_wire(self, size: int):
        """One batch: endpoints execute and *encode*; nothing touches
        the transport here — the aggregation thread transmits in run-id
        order, which keeps seeded fault schedules deterministic for any
        ``fleet_workers`` value."""
        fleet = self._fleet()
        drawn = [self._draw() for _ in range(size)]
        engine = self._ensure_engine()
        if engine.remote:
            return list(zip(drawn, self._run_remote_wire(fleet, drawn)))

        def one(item: Tuple[GistClient, Workload, int]):
            _client, workload, run_id = item
            return fleet[run_id % len(fleet)].execute(
                workload, run_id, campaign=self.campaign_key)

        return list(zip(drawn, engine.map(one, drawn)))

    def _run_remote_wire(self, fleet: List["FleetEndpoint"], drawn):
        """One batch on a remote engine.

        Fault verdicts, patch staleness, and straggle flags are pure
        endpoint-side state, so each run's :class:`RunPlan` is resolved
        here first; only fault-free runs become jobs.  Workers return the
        same wire envelopes :meth:`FleetEndpoint.execute` would have
        encoded, and :meth:`FleetEndpoint.package` re-attaches the plan —
        so downstream transport traffic is byte-identical to the
        in-process engines.
        """
        from ..fleet import wire
        from ..fleet.endpoint import RUN_OK
        from ..fleet.executors import RunJob

        digest, blob = self._module_wire()
        plans: List[Tuple["FleetEndpoint", "RunPlan"]] = []
        jobs = []
        for _client, workload, run_id in drawn:
            endpoint = fleet[run_id % len(fleet)]
            plan = endpoint.plan_run(run_id, campaign=self.campaign_key)
            plans.append((endpoint, plan))
            if plan.kind != RUN_OK:
                continue
            patch = endpoint.client.prepare_patch(plan.patch)
            jobs.append(RunJob(
                run_id=run_id, endpoint_id=endpoint.endpoint_id,
                workload=workload, module_digest=digest, module_blob=blob,
                patch_blob=(wire.encode_patch(patch)
                            if patch is not None else None),
                patch_epoch=plan.patch_epoch,
                ptwrite=endpoint.client.ptwrite,
                extended=endpoint.client.extended_predicates,
                interp_mode=endpoint.client.interp_mode,
                detectors=endpoint.client.detectors,
                cohort=plan.cohort,
                campaign_key=self.campaign_key))
        job_results = iter(self._ensure_engine().run_jobs(jobs))
        results = []
        for endpoint, plan in plans:
            if plan.kind != RUN_OK:
                results.append((plan.kind, []))
                continue
            job_result = next(job_results)
            results.append(endpoint.package(
                plan, job_result.failed, job_result.failure_blob,
                job_result.monitored_blob))
        return results

    def _transmit(self, epoch: int, run_id: int, messages) -> None:
        """Push one run's encoded messages through the fault layer."""
        for msg_type, payload, straggles in messages:
            self.fleet_transport.send_to_server(
                payload, msg_type=msg_type, key=(epoch, run_id, msg_type),
                straggle=straggles)

    # -- journal + simulated server crashes -----------------------------------

    def _journal_path(self) -> str:
        import os
        import re

        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", self.bug) or "campaign"
        return os.path.join(self.journal_dir, f"{safe}.wal")

    def _open_journal(self) -> None:
        """Attach a fresh write-ahead journal to the server (no-op when
        journaling is off or one is already attached)."""
        if self.journal_dir is None or self.server.journal is not None:
            return
        from ..fleet.journal import CampaignJournal

        self.server.journal = CampaignJournal(self._journal_path(),
                                              fresh=True)

    def _live_campaign(self, campaign: Optional[DiagnosisCampaign]
                       ) -> Optional[DiagnosisCampaign]:
        """The *current* server's campaign for the same failure identity —
        a different object after a simulated crash was recovered."""
        if campaign is None:
            return None
        return self.server.campaigns.get(campaign.identity, campaign)

    def _crash_and_recover(self) -> None:
        """Simulate a server kill: throw the live server object away and
        rebuild it from the write-ahead journal, exactly as a restarted
        process would.  The analysis context survives (static artifacts
        are immutable); every piece of campaign state must come back
        through replay."""
        from ..fleet.journal import CampaignJournal, recover_server

        old = self.server
        path = old.journal.path
        old.journal.close()
        state = recover_server(
            path, self.module, context=old.context, stripes=old.stripes,
            ranker=old.ranker_kind, stats=old.stats_kind)
        server = state.server
        server.journal = CampaignJournal(path, fresh=False)
        self.server = server
        self._server_crashes += 1

    def _maybe_crash_server(self, campaign: Optional[DiagnosisCampaign]
                            ) -> Optional[DiagnosisCampaign]:
        """Fire the seeded ``server_crash_every`` fault if this ingest is
        its trigger; returns the (possibly recovered) live campaign."""
        plan = self.fault_plan
        if plan is None or self.server.journal is None or \
                not plan.server_crashes_after(self.server.ingests_applied):
            return campaign
        self._crash_and_recover()
        return self._live_campaign(campaign)

    #: How many uplink payloads one ``recv_many`` pass pops — bounds the
    #: working set without changing drain semantics (the pump loops until
    #: the uplink is empty).
    PUMP_BATCH = 256

    def _pump_uplink(self, campaign: Optional[DiagnosisCampaign],
                     epoch: Optional[int]):
        """Drain the server's inbox, routing each decodable message.

        Returns ``(failing_delta, successful_delta, overheads,
        first_failure_report)``; quarantining, duplicate suppression, and
        stale-epoch discards all happen on the way through.  Acks the
        fault plan defers land at the start of the *next* pump round; a
        triggered ``server_crash_every`` fault swaps the server for its
        journal-recovered twin mid-drain.
        """
        from ..fleet import wire

        failing = 0
        successful = 0
        overheads: List[float] = []
        first_report: Optional[FailureReport] = None
        campaign = self._live_campaign(campaign)
        if self._held_acks:
            held, self._held_acks = self._held_acks, []
            if campaign is not None:
                for message in held:
                    campaign.note_ack(message.payload["endpoint_id"],
                                      message.epoch)
        uplink = self.fleet_transport.uplink
        while True:
            blobs = uplink.recv_many(self.PUMP_BATCH)
            if not blobs:
                break
            for blob in blobs:
                message = self.server.receive(blob)
                if message is None:
                    continue  # quarantined
                if message.campaign != self.campaign_key:
                    # Routed by campaign id: traffic for another campaign
                    # never touches this campaign's statistics.
                    self._misrouted += 1
                    continue
                if message.type == wire.MSG_PATCH_ACK:
                    if campaign is None:
                        continue
                    endpoint_id = message.payload["endpoint_id"]
                    if self.fault_plan is not None and \
                            self.fault_plan.ack_delayed(
                                message.epoch or 0, endpoint_id):
                        self._acks_delayed += 1
                        self._held_acks.append(message)
                    else:
                        campaign.note_ack(endpoint_id, message.epoch)
                elif message.type == wire.MSG_MONITORED_RUN:
                    if campaign is None:
                        continue
                    verdict = campaign.ingest_wire(message)
                    if verdict is None:
                        continue  # stale epoch or duplicate digest
                    recurrence, run = verdict
                    overheads.append(run.overhead)
                    if recurrence:
                        failing += 1
                    elif not run.failed:
                        successful += 1
                    campaign = self._maybe_crash_server(campaign)
                elif message.type == wire.MSG_FAILURE_REPORT:
                    if campaign is not None:
                        campaign.note_unmonitored_report(message.payload)
                    elif first_report is None:
                        first_report = message.payload
        return failing, successful, overheads, first_report

    def _deliver_patches(self, campaign: DiagnosisCampaign,
                         patches: Sequence, epoch: int) -> None:
        """Ship this iteration's patch variants; one resend round covers
        endpoints whose delivery (or ack) was eaten by the fault layer."""
        from ..fleet import wire

        fleet = self._fleet()
        for attempt in (0, 1):
            campaign = self._live_campaign(campaign)
            if attempt == 0:
                targets = fleet
            else:
                targets = [e for e in fleet
                           if e.endpoint_id not in campaign.acked_endpoints]
                if not targets:
                    break
                self._patch_resends += len(targets)
            for endpoint in targets:
                variant = patches[endpoint.endpoint_id % len(patches)]
                self.fleet_transport.send_to_client(
                    endpoint.endpoint_id,
                    wire.encode_patch(variant, epoch=epoch,
                                      campaign=self.campaign_key),
                    msg_type=wire.MSG_PATCH,
                    key=(epoch, endpoint.endpoint_id, attempt))
            for endpoint in targets:
                for ack in endpoint.poll_patches():
                    self.fleet_transport.send_to_server(
                        ack, msg_type=wire.MSG_PATCH_ACK,
                        key=(epoch, endpoint.endpoint_id, "ack", attempt))
            self._pump_uplink(campaign, epoch)

    def _fleet_report(self,
                      campaign: Optional[DiagnosisCampaign]) -> Dict:
        from ..fleet.transport import FleetReport

        transport_stats = self.fleet_transport.stats.as_dict()
        if hasattr(self.fleet_transport, "socket_stats"):
            transport_stats["socket"] = self.fleet_transport.socket_stats()
        report = FleetReport(
            transport=transport_stats,
            quarantined=self.server.quarantined_count,
            runs_lost_to_crash=self._runs_lost_to_crash,
            runs_lost_to_churn=self._runs_lost_to_churn,
            client_decode_failures=sum(e.decode_failures
                                       for e in self._fleet()),
            patch_resends=self._patch_resends,
            misrouted=self._misrouted,
            server_crashes=self._server_crashes,
            acks_delayed=self._acks_delayed,
            fault_plan=(self.fault_plan.describe()
                        if self.fault_plan is not None else "none"),
        )
        if self.server.journal is not None:
            report.journal = self.server.journal.stats()
        campaign = self._live_campaign(campaign)
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
        resume it, which is how :class:`CampaignDriver` bootstraps in
        budgeted slices.
        """
        from ..fleet.endpoint import RUN_CHURNED, RUN_CRASHED

        if not self._bootstrap_open:
            for endpoint in self._fleet():
                endpoint.begin_epoch(0, self._next_run)
            self._bootstrap_open = True
        consumed = 0
        while consumed < max_runs:
            size = min(self.fleet_workers, max_runs - consumed)
            for (_client, _workload, run_id), (kind, messages) \
                    in self._execute_batch_wire(size):
                consumed += 1
                if kind == RUN_CHURNED:
                    self._runs_lost_to_churn += 1
                    continue
                if kind == RUN_CRASHED:
                    self._runs_lost_to_crash += 1
                    continue
                self._transmit(0, run_id, messages)
                _, _, _, report = self._pump_uplink(None, None)
                if report is not None:
                    self._rewind(run_id + 1)
                    return report, consumed
            # Bootstrap has no iteration deadline: delayed reports simply
            # arrive with the next batch instead of being lost forever.
            if self.fleet_transport.flush():
                _, _, _, report = self._pump_uplink(None, None)
                if report is not None:
                    return report, consumed
        return None, consumed

    # -- the AsT campaign ---------------------------------------------------------

    def run_campaign(
        self,
        initial_sigma: int = DEFAULT_SIGMA,
        stop_when: Optional[StopPredicate] = None,
        max_iterations: int = 10,
        max_runs_per_iteration: int = 400,
        max_bootstrap_runs: int = 10_000,
    ) -> CampaignStats:
        """Full pipeline: bootstrap failure → AsT iterations → sketch.

        Steps a :class:`CampaignDriver` with an unbounded budget until it
        is done, then closes the deployment.
        """
        driver = CampaignDriver(
            self, initial_sigma=initial_sigma, stop_when=stop_when,
            max_iterations=max_iterations,
            max_runs_per_iteration=max_runs_per_iteration,
            max_bootstrap_runs=max_bootstrap_runs)
        t0 = time.perf_counter()
        try:
            while not driver.done:
                driver.step(None)
        finally:
            driver.stats.wall_seconds = time.perf_counter() - t0
            self.close()
        return driver.stats


#: Campaign driver phases.
PHASE_BOOTSTRAP = "bootstrap"
PHASE_MONITOR = "monitor"
PHASE_DONE = "done"


class CampaignDriver:
    """Resumable diagnosis campaign: the AsT loop as a state machine.

    Owns one diagnosis campaign end to end — bootstrap, patch delivery,
    monitored batches, iteration bookkeeping — but yields control after
    every budgeted slice of client runs, so a control plane can
    time-multiplex many concurrent campaigns over one physical fleet.

    :meth:`step` executes at most ``budget`` runs (``None`` = unbounded)
    and returns how many it consumed.  Because batch results are always
    aggregated in run-id order and surplus runs are rewound, the stream of
    runs the campaign *consumes* is invariant to how the budget is
    partitioned: stepping with any sequence of budgets consumes the same
    stream one unbounded step does, which is what keeps scheduler-sliced
    campaigns byte-identical to solo ones (fault-free plans; under fault
    plans only flush timing can differ, and flushes stay pinned to
    iteration boundaries here).
    """

    def __init__(self, deployment: CooperativeDeployment,
                 initial_sigma: int = DEFAULT_SIGMA,
                 stop_when: Optional[StopPredicate] = None,
                 max_iterations: int = 10,
                 max_runs_per_iteration: int = 400,
                 max_bootstrap_runs: int = 10_000) -> None:
        self.dep = deployment
        self.initial_sigma = initial_sigma
        self.stop_when = stop_when
        self.max_iterations = max_iterations
        self.max_runs_per_iteration = max_runs_per_iteration
        self.max_bootstrap_runs = max_bootstrap_runs
        self.stats = CampaignStats(bug=deployment.bug)
        self.phase = PHASE_BOOTSTRAP
        self.campaign: Optional[DiagnosisCampaign] = None
        self._overheads: List[float] = []
        # bootstrap state
        self._bootstrap_consumed = 0
        # per-iteration state (valid while ``_iter_open``)
        self._iter_open = False
        self._iterations_started = 0
        self._epoch = 0
        self._patches: Sequence = ()
        self._failing = 0
        self._successful = 0
        self._attempts = 0
        self._satisfied = False

    # -- status --------------------------------------------------------------

    @property
    def key(self) -> Optional[str]:
        return self.dep.campaign_key

    @property
    def done(self) -> bool:
        return self.phase == PHASE_DONE

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
        if self.campaign is None:
            return 0
        return self.campaign.windowed_recurrences()

    # -- stepping ------------------------------------------------------------

    def step(self, budget: Optional[int]) -> int:
        """Advance the campaign by at most ``budget`` client runs."""
        limit = float("inf") if budget is None else budget
        if limit <= 0 or self.done:
            return 0
        if self.phase == PHASE_BOOTSTRAP:
            return self._step_bootstrap(limit)
        return self._step_monitor(limit)

    def _step_bootstrap(self, limit) -> int:
        """Uninstrumented runs until the first failure report lands."""
        dep = self.dep
        report, consumed = dep.wait_for_failure(
            min(limit, self.max_bootstrap_runs - self._bootstrap_consumed))
        self._bootstrap_consumed += consumed
        if report is not None:
            self._begin_campaign(report)
        elif self._bootstrap_consumed >= self.max_bootstrap_runs:
            # The failure never recurred: give up without a campaign.
            self.stats.bootstrap_runs = self._bootstrap_consumed
            self.stats.total_runs += self._bootstrap_consumed
            self.stats.fleet = dep._fleet_report(None)
            self.phase = PHASE_DONE
        return consumed

    def _begin_campaign(self, report: FailureReport) -> None:
        self.stats.bootstrap_runs = self._bootstrap_consumed
        self.stats.total_runs += self._bootstrap_consumed
        # The journal attaches before the campaign exists, so its first
        # record is this campaign's start.
        self.dep._open_journal()
        self.campaign = self.dep.server.handle_failure_report(
            self.dep.bug, report, self.initial_sigma, key=self.key)
        self.phase = PHASE_MONITOR

    def _step_monitor(self, limit) -> int:
        """Budgeted slice of the AsT iteration loop."""
        dep = self.dep
        campaign = self.campaign
        from ..fleet.endpoint import RUN_CHURNED, RUN_CRASHED

        consumed = 0
        while consumed < limit and self.phase == PHASE_MONITOR:
            if not self._iter_open:
                if self._iterations_started >= self.max_iterations:
                    self._finish()
                    return consumed
                campaign.begin_iteration()
                self._iterations_started += 1
                self._epoch = campaign.epoch
                for endpoint in dep._fleet():
                    endpoint.begin_epoch(self._epoch, dep._next_run)
                self._patches = campaign.make_patches(len(dep.clients))
                dep._deliver_patches(campaign, self._patches, self._epoch)
                campaign = self.campaign = dep._live_campaign(campaign)
                self._failing = 0
                self._successful = 0
                self._attempts = 0
                self._satisfied = False
                self._iter_open = True
            size = min(dep.fleet_workers, limit - consumed,
                       self.max_runs_per_iteration - self._attempts)
            if size > 0:
                for (_client, _workload, run_id), (kind, messages) \
                        in dep._execute_batch_wire(size):
                    self._attempts += 1
                    consumed += 1
                    if kind == RUN_CHURNED:
                        dep._runs_lost_to_churn += 1
                        continue
                    self.stats.total_runs += 1
                    if kind == RUN_CRASHED:
                        dep._runs_lost_to_crash += 1
                        continue
                    dep._transmit(self._epoch, run_id, messages)
                    f_add, s_add, run_overheads, _ = \
                        dep._pump_uplink(campaign, self._epoch)
                    # A simulated server crash inside the pump swapped the
                    # campaign for its journal-recovered twin.
                    campaign = self.campaign = dep._live_campaign(campaign)
                    self._failing += f_add
                    self._successful += s_add
                    self._overheads.extend(run_overheads)
                    self.stats.monitored_runs += len(run_overheads)
                    if self._failing >= MIN_FAILING_PER_ITERATION and \
                            self._successful >= \
                            MIN_SUCCESSFUL_PER_ITERATION:
                        dep._rewind(run_id + 1)
                        self._satisfied = True
                        break
            if self._satisfied or \
                    self._attempts >= self.max_runs_per_iteration:
                self._close_iteration()
        return consumed

    def _close_iteration(self) -> None:
        campaign = self.campaign = self.dep._live_campaign(self.campaign)
        iteration = campaign.finish_iteration()
        self.stats.iteration_results.append(iteration)
        self.stats.iterations = iteration.iteration
        self._iter_open = False
        sketch = iteration.sketch
        if sketch is not None:
            self.stats.sketch = sketch
            if self.stop_when is None or self.stop_when(sketch):
                self.stats.found = True
                self._finish()
                return
        if campaign.exhausted:
            self._finish()
            return
        campaign.grow()
        # The iteration deadline has passed: stragglers and held reorders
        # land now, and the epoch check discards them as stale at the next
        # iteration's ingestion.
        self.dep.fleet_transport.flush()

    def _finish(self) -> None:
        stats = self.stats
        campaign = self.campaign = self.dep._live_campaign(self.campaign)
        stats.failure_recurrences = campaign.total_failure_recurrences
        stats.peak_tracked_bytes = campaign.peak_tracked_bytes
        if self._overheads:
            stats.avg_overhead_percent = \
                100.0 * sum(self._overheads) / len(self._overheads)
            stats.max_overhead_percent = 100.0 * max(self._overheads)
        stats.offline_seconds = self.dep.server.offline_analysis_seconds
        stats.fleet = self.dep._fleet_report(campaign)
        self.phase = PHASE_DONE
