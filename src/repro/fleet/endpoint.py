"""The wire-speaking side of one production endpoint.

A :class:`FleetEndpoint` wraps a :class:`~repro.core.client.GistClient`
with everything a *networked* client needs and the in-process one never
did: it receives patches as encoded bytes from its downlink channel
(quietly ignoring payloads that fail to decode), acknowledges the patch
epoch it is actually running, tags every monitored-run report with that
epoch, and reports failures from unmonitored runs as plain failure-report
messages.

Client-level faults live here too.  Whether a given run crashes
mid-execution, churns out of the fleet, or straggles past the deadline is
a pure function of the deployment's :class:`~repro.fleet.faults.FaultPlan`
and the run's identity — including "has an earlier run of this endpoint
crashed this epoch", which is recomputed arithmetically from the epoch's
base run id so the answer never depends on thread scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from .faults import FaultPlan
from .transport import FleetTransport
from . import wire

if TYPE_CHECKING:  # typing only — keeps fleet importable without core
    from ..core.client import GistClient
    from ..core.workload import Workload
    from ..instrument.patch import Patch

#: What one endpoint run produced: an execution kind plus outbound messages.
RUN_OK = "ok"
RUN_CRASHED = "crashed"
RUN_CHURNED = "churned"

EndpointRun = Tuple[str, List[Tuple[str, bytes, bool]]]


@dataclass(frozen=True)
class RunPlan:
    """Everything decided *before* a run executes, resolved main-side.

    Fault verdicts, the effective patch (crash staleness already applied),
    its epoch, and the straggle flag are all pure functions of endpoint
    state plus the run id — computing them up front lets a remote
    execution engine ship just ``(patch, workload)`` to a worker process
    and re-attach the rest when the result comes back, without the worker
    ever seeing the fault plan.
    """

    kind: str
    patch: Optional[Patch] = None
    patch_epoch: Optional[int] = None
    straggles: bool = False
    #: Cohort multiplicity of this run — how many real clients the result
    #: stands for.  Resolved main-side (a pure function of the cohort
    #: model's seed and the run's identity) so every execution engine
    #: produces identical traffic.
    cohort: int = 1


class FleetEndpoint:
    """One endpoint of the fleet, speaking only the wire protocol."""

    def __init__(self, client: GistClient, transport: FleetTransport,
                 fault_plan: Optional[FaultPlan], fleet_size: int,
                 cohort_model=None) -> None:
        self.client = client
        self.transport = transport
        self.plan = fault_plan
        self.fleet_size = fleet_size
        self.endpoint_id = client.endpoint_id
        #: Cohort model (duck-typed: ``multiplicity(campaign_key,
        #: endpoint_id, run_id) -> int``), or None for an ordinary
        #: single-client endpoint.
        self.cohort_model = cohort_model
        #: The patch this endpoint currently runs, and its epoch.  Survives
        #: across epochs when a delivery is missed (that is what makes the
        #: endpoint *stale*) and is lost when the client crashes.
        self.patch: Optional[Patch] = None
        self.patch_epoch: Optional[int] = None
        self.patch_digest: Optional[str] = None
        #: Per-campaign patch state for multi-campaign deployments,
        #: keyed by campaign routing key.  Untagged (legacy) traffic keeps
        #: using the attributes above, so the single-campaign path never
        #: touches this dict.
        self._campaign_patches: Dict[
            str, Tuple[Optional[Patch], Optional[int], Optional[str]]] = {}
        #: Per-campaign fault sub-plans, derived lazily from ``plan`` with
        #: the campaign key mixed into the seed.
        self._derived_plans: Dict[str, Optional[FaultPlan]] = {}
        #: The epoch the fleet is currently in, and its first run id.
        self.epoch = 0
        self.epoch_base = 0
        self.decode_failures = 0

    # -- epoch bookkeeping --------------------------------------------------

    def begin_epoch(self, epoch: int, epoch_base: int) -> None:
        self.epoch = epoch
        self.epoch_base = epoch_base

    def _first_run_of_epoch(self) -> int:
        base = self.epoch_base
        return base + ((self.endpoint_id - base) % self.fleet_size)

    def plan_for(self, campaign: Optional[str]) -> Optional[FaultPlan]:
        """The fault plan governing one campaign's runs on this endpoint.

        Untagged traffic uses the deployment plan verbatim; campaign-tagged
        traffic uses a sub-plan whose seed mixes in the campaign key, so
        concurrent campaigns never crash/drop the same logical positions.
        """
        if campaign is None or self.plan is None:
            return self.plan
        if campaign not in self._derived_plans:
            self._derived_plans[campaign] = self.plan.derive(campaign)
        return self._derived_plans[campaign]

    def patch_state(self, campaign: Optional[str]) -> Tuple[
            Optional[Patch], Optional[int], Optional[str]]:
        if campaign is None:
            return self.patch, self.patch_epoch, self.patch_digest
        return self._campaign_patches.get(campaign, (None, None, None))

    def _crashed_in_epoch(self, before_run_id: int,
                          plan: Optional[FaultPlan]) -> bool:
        """Did any run of this endpoint crash earlier this epoch?

        Pure recomputation over the endpoint's run ids in
        ``[epoch_base, before_run_id)`` — no mutable crash state, so
        concurrent batches cannot race on it.
        """
        if plan is None or not plan.clients.any_active():
            return False
        first = self._first_run_of_epoch()
        for run_id in range(first, before_run_id, self.fleet_size):
            if plan.run_crashes(self.epoch, run_id, self.endpoint_id,
                                first_of_epoch=(run_id == first),
                                n_endpoints=self.fleet_size):
                return True
        return False

    # -- patch delivery -----------------------------------------------------

    def poll_patches(self) -> List[bytes]:
        """Drain the downlink; install the newest valid patch.

        Returns the encoded ``patch_ack`` messages to transmit.  Payloads
        that fail to decode (dropped bits, truncation) are counted and
        ignored — the client keeps running whatever patch it last had,
        which the server will recognize as stale by its epoch.
        """
        acks: List[bytes] = []
        downlink = self.transport.downlinks[self.endpoint_id]
        for blob in downlink.drain():
            try:
                msg = wire.decode_message(blob)
            except wire.WireError:
                self.decode_failures += 1
                continue
            if msg.type != wire.MSG_PATCH or msg.epoch is None:
                continue
            _, current_epoch, _ = self.patch_state(msg.campaign)
            if current_epoch is not None and msg.epoch < current_epoch:
                continue  # a reordered, older patch: never downgrade
            if msg.campaign is None:
                self.patch = msg.payload
                self.patch_epoch = msg.epoch
                self.patch_digest = msg.digest
            else:
                self._campaign_patches[msg.campaign] = (
                    msg.payload, msg.epoch, msg.digest)
            acks.append(wire.encode_patch_ack(self.endpoint_id, msg.epoch,
                                              msg.digest,
                                              campaign=msg.campaign))
        return acks

    # -- execution ----------------------------------------------------------

    def _cohort_of(self, campaign: Optional[str], run_id: int) -> int:
        if self.cohort_model is None:
            return 1
        return self.cohort_model.multiplicity(campaign or "",
                                              self.endpoint_id, run_id)

    def plan_run(self, run_id: int,
                 campaign: Optional[str] = None) -> RunPlan:
        """Resolve everything about a run that precedes execution.

        Fault verdicts first: a churned endpoint executes nothing this
        epoch; a crashing run reports nothing, and — because the restarted
        process has lost the in-memory patch — the endpoint's later runs
        this epoch execute unmonitored (the crash-staleness check below).
        """
        plan = self.plan_for(campaign)
        if plan is not None:
            if plan.endpoint_churned(self.epoch, self.endpoint_id):
                return RunPlan(RUN_CHURNED)
            first = self._first_run_of_epoch()
            if plan.run_crashes(self.epoch, run_id, self.endpoint_id,
                                first_of_epoch=(run_id == first),
                                n_endpoints=self.fleet_size):
                return RunPlan(RUN_CRASHED)
        patch, patch_epoch, _ = self.patch_state(campaign)
        if patch is not None and self._crashed_in_epoch(run_id, plan):
            patch = None
        straggles = (plan is not None
                     and plan.run_straggles(self.epoch, run_id))
        return RunPlan(RUN_OK, patch=patch, patch_epoch=patch_epoch,
                       straggles=straggles,
                       cohort=self._cohort_of(campaign, run_id))

    def package(self, plan: RunPlan, failed: bool,
                failure_blob: Optional[bytes],
                monitored_blob: Optional[bytes]) -> EndpointRun:
        """Assemble an executed run's outbound messages from its envelopes.

        Accepts the already encoded wire payloads — produced either right
        here in :meth:`execute` or by a worker process — so both paths
        emit byte-identical traffic.
        """
        messages: List[Tuple[str, bytes, bool]] = []
        if monitored_blob is not None:
            messages.append((wire.MSG_MONITORED_RUN, monitored_blob,
                             plan.straggles))
        elif failed:
            assert failure_blob is not None
            messages.append((wire.MSG_FAILURE_REPORT, failure_blob,
                             plan.straggles))
        return RUN_OK, messages

    def execute(self, workload: Workload, run_id: int,
                campaign: Optional[str] = None) -> EndpointRun:
        """Run one workload; return the run kind plus outbound messages.

        Messages are ``(msg_type, payload, straggles)`` triples of already
        encoded bytes — the deployment (playing the network) pushes them
        through the transport on the aggregation thread, in run-id order.
        """
        plan = self.plan_run(run_id, campaign)
        if plan.kind != RUN_OK:
            return plan.kind, []
        result = self.client.run(workload, patch=plan.patch, run_id=run_id)
        failure_blob = None
        if result.outcome.failed and result.outcome.failure is not None:
            failure_blob = wire.encode_failure_report(
                result.outcome.failure, campaign=campaign)
        monitored_blob = None
        if result.monitored is not None:
            if plan.cohort > 1:
                result.monitored.cohort = plan.cohort
            monitored_blob = wire.encode_monitored_run(
                result.monitored, epoch=plan.patch_epoch, campaign=campaign)
        return self.package(plan, result.outcome.failed, failure_blob,
                            monitored_blob)
