"""The wire-speaking side of one production endpoint.

A :class:`FleetEndpoint` wraps a :class:`~repro.core.client.GistClient`
with everything a *networked* client needs and the in-process one never
did: it installs patches from the encoded bytes its caller drained off
the downlink (quietly ignoring payloads that fail to decode) into its one
patch slot, acknowledges the patch epoch it is actually running, and
plans each run before an execution engine runs it.  The simulated fleet
and the standalone ``repro fleet client`` both install patches through
here.

Client-level faults live here too.  Whether a given run crashes
mid-execution, churns out of the fleet, or straggles past the deadline is
a pure function of the endpoint's :class:`~repro.fleet.faults.FaultPlan`
and the run's identity — including "has an earlier run of this endpoint
crashed this epoch", which is recomputed arithmetically from the epoch's
base run id so the answer never depends on thread scheduling.  A
campaign ``key`` given at construction (the control plane's bug id)
picks the fault sub-plan and cohort draws; it never reaches the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, TYPE_CHECKING

from .faults import FaultPlan
from . import wire

if TYPE_CHECKING:  # typing only — keeps fleet importable without core
    from ..core.client import ClientRunResult, GistClient
    from ..instrument.patch import Patch

#: How a planned run goes: it executes, or a client fault loses it.
RUN_OK = "ok"
RUN_CRASHED = "crashed"
RUN_CHURNED = "churned"

#: The one envelope a run sends: ``(msg_type, encoded payload)``.
Uplink = Tuple[str, bytes]

#: An endpoint's patch slot before any patch is installed.
NO_PATCH = (None, None, None)


def encode_uplink(result: ClientRunResult, epoch: Optional[int],
                  cohort: int = 1) -> Optional[Uplink]:
    """Encode the one envelope a client run sends, or None.

    An instrumented run sends its monitored run, tagged with the patch
    epoch it ran and stamped with its cohort multiplicity; otherwise a
    failed run sends its failure report, and any other run sends
    nothing.  Every execution path (both execution engines and the
    standalone ``repro fleet client``) encodes through here, so they all
    emit the same bytes.
    """
    if result.monitored is not None:
        if cohort > 1:
            result.monitored.cohort = cohort
        return wire.MSG_MONITORED_RUN, wire.encode_monitored_run(
            result.monitored, epoch=epoch)
    if result.outcome.failure is not None:
        return wire.MSG_FAILURE_REPORT, wire.encode_failure_report(
            result.outcome.failure)
    return None


@dataclass(frozen=True)
class RunPlan:
    """Everything decided *before* a run executes, resolved main-side.

    Fault verdicts, the effective patch (crash staleness already applied),
    its epoch, and the straggle flag are all pure functions of endpoint
    state plus the run id — computing them up front lets every execution
    engine take the same planned batch, and lets the process engine ship
    just ``(patch, workload)`` to a worker process that never sees the
    fault plan.
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

    def __init__(self, client: GistClient,
                 fault_plan: Optional[FaultPlan], fleet_size: int,
                 cohort_model=None, key: Optional[str] = None) -> None:
        self.client = client
        #: The deployment plan without a ``key``, else its sub-plan whose
        #: seed mixes the key in, so concurrent campaigns never crash or
        #: drop the same logical positions.
        self.plan = fault_plan if fault_plan is None or key is None \
            else fault_plan.derive(key)
        self.fleet_size = fleet_size
        self.endpoint_id = client.endpoint_id
        #: Cohort model (duck-typed: ``multiplicity(campaign_key,
        #: endpoint_id, run_id) -> int``), or None for an ordinary
        #: single-client endpoint.
        self.cohort_model = cohort_model
        self.cohort_key = key or ""
        #: The ``(patch, epoch, digest)`` this endpoint runs.  It survives
        #: across epochs when a delivery is missed — that is what makes
        #: the endpoint *stale*.
        self.installed: Tuple[Optional[Patch], Optional[int],
                              Optional[str]] = NO_PATCH
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

    def _crashed_in_epoch(self, before_run_id: int) -> bool:
        """Did any run of this endpoint crash earlier this epoch?

        Pure recomputation over the endpoint's run ids in
        ``[epoch_base, before_run_id)`` — no mutable crash state, so
        concurrent batches cannot race on it.
        """
        if self.plan is None or not self.plan.clients.any_active():
            return False
        first = self._first_run_of_epoch()
        for run_id in range(first, before_run_id, self.fleet_size):
            if self.plan.run_crashes(self.epoch, run_id, self.endpoint_id,
                                     first_of_epoch=(run_id == first),
                                     n_endpoints=self.fleet_size):
                return True
        return False

    # -- patch delivery -----------------------------------------------------

    def poll_patches(self, blobs: Iterable[bytes]) -> List[bytes]:
        """Install the newest valid patch from the downlink payloads the
        caller drained.

        Returns the encoded ``patch_ack`` messages to transmit.  Payloads
        that fail to decode (dropped bits, truncation) are counted and
        ignored — the client keeps running whatever patch it last had,
        which the server will recognize as stale by its epoch.
        """
        acks: List[bytes] = []
        for blob in blobs:
            try:
                msg = wire.decode_message(blob)
            except wire.WireError:
                self.decode_failures += 1
                continue
            if msg.type != wire.MSG_PATCH or msg.epoch is None:
                continue
            current_epoch = self.installed[1]
            if current_epoch is not None and msg.epoch < current_epoch:
                continue  # a reordered, older patch: never downgrade
            self.installed = (msg.payload, msg.epoch, msg.digest)
            acks.append(wire.encode_patch_ack(self.endpoint_id, msg.epoch,
                                              msg.digest))
        return acks

    # -- execution ----------------------------------------------------------

    def plan_run(self, run_id: int) -> RunPlan:
        """Resolve everything about a run that precedes execution.

        Fault verdicts first: a churned endpoint executes nothing this
        epoch; a crashing run reports nothing, and — because the restarted
        process has lost the in-memory patch — the endpoint's later runs
        this epoch execute unmonitored (the crash-staleness check below).
        """
        plan = self.plan
        if plan is not None:
            if plan.endpoint_churned(self.epoch, self.endpoint_id):
                return RunPlan(RUN_CHURNED)
            first = self._first_run_of_epoch()
            if plan.run_crashes(self.epoch, run_id, self.endpoint_id,
                                first_of_epoch=(run_id == first),
                                n_endpoints=self.fleet_size):
                return RunPlan(RUN_CRASHED)
        patch, patch_epoch, _ = self.installed
        if patch is not None and self._crashed_in_epoch(run_id):
            patch = None
        straggles = (plan is not None
                     and plan.run_straggles(self.epoch, run_id))
        cohort = (1 if self.cohort_model is None
                  else self.cohort_model.multiplicity(
                      self.cohort_key, self.endpoint_id, run_id))
        return RunPlan(RUN_OK, patch=patch, patch_epoch=patch_epoch,
                       straggles=straggles, cohort=cohort)
