"""Gist's client side: one production endpoint.

An endpoint executes workloads of the deployed program.  When the server
has shipped an instrumentation patch, the endpoint applies it (PT toggles +
watchpoint hooks), runs, and reports back a
:class:`~repro.core.refinement.MonitoredRun`: raw PT buffers are decoded
here for transport convenience, the trap log is shipped verbatim, and the
run's outcome (including any failure report) rides along.

Unmonitored runs — the fleet before any patch exists — only report failures,
which is what bootstraps a diagnosis campaign (Fig. 2, step ①).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..detect import apply_detectors, make_detectors, validate_detectors
from ..hw.watchpoints import TrapRecord
from ..instrument.patch import AppliedInstrumentation, Patch, apply_patch
from ..lang.ir import Module
from ..runtime.failures import RunOutcome
from ..runtime.interpreter import Interpreter
from .predictors import extract_all
from .refinement import MonitoredRun
from .workload import Workload


def slice_monitored_run(run: MonitoredRun, patch: Patch) -> None:
    """Client-side evidence slicing (*Slicing Event Traces*, PAPERS.md).

    Prunes ``run``'s executed sequences in place down to the patch's
    slice: each thread keeps only uids in the slice ∪ hook uids ∪ this
    run's trapped pcs (order and multiplicity preserved).  Trap records
    and the extracted predictor set are never touched — traps carry the
    global order and the discovered statements, and predictors (the
    decoder's branch facts over the full trace, plus the traps') feed the
    ranking verbatim.

    Sound for refinement by construction: the AsT window is a subset of
    the static slice, so ``window ∩ executed`` — the only thing
    :func:`~repro.core.refinement.refine` reads of executed sequences —
    is unchanged.
    """
    keep = set(patch.slice_uids)
    keep.update(hook.uid for hook in patch.hooks)
    keep.update(trap.pc for trap in run.traps)
    run.executed = {tid: [uid for uid in seq if uid in keep]
                    for tid, seq in run.executed.items()}


@dataclass
class ClientRunResult:
    """One endpoint run: the outcome plus the monitored-run report, if any."""
    outcome: RunOutcome
    monitored: Optional[MonitoredRun] = None


class GistClient:
    """One endpoint in the cooperative deployment."""

    def __init__(self, module: Module, endpoint_id: int = 0,
                 ptwrite: bool = False,
                 extended_predicates: bool = False,
                 interp_mode: Optional[str] = None,
                 detectors: tuple = ()) -> None:
        self.module = module
        self.endpoint_id = endpoint_id
        self.runs_executed = 0
        #: §6 future-hardware mode: data flow rides in the PT stream.
        self.ptwrite = ptwrite
        #: §6 future work: also extract range/inequality value predicates
        #: (every endpoint of a fleet must agree, so statistics line up).
        self.extended_predicates = extended_predicates
        #: Interpreter tier ("compiled"/"decoded") of every run,
        #: monitored or not; None defers to the process default.
        self.interp_mode = interp_mode
        #: Detection-subsystem tracers attached to every run of this
        #: endpoint (see :mod:`repro.detect`): fresh instances per run,
        #: and their verdicts amend the outcome before it is reported.
        self.detectors = validate_detectors(detectors)

    def prepare_patch(self, patch: Optional[Patch]) -> Optional[Patch]:
        """Transform a server patch before applying it (identity here).

        Subclasses override this to model endpoints that run a reduced
        patch (e.g. the control-flow-only ablation client) — keeping the
        transformation separate from :meth:`run` lets remote execution
        engines apply it before a job ever leaves the server process.
        """
        return patch

    def run(self, workload: Workload,
            patch: Optional[Patch] = None,
            run_id: int = -1) -> ClientRunResult:
        """Execute one workload, with or without instrumentation."""
        self.runs_executed += 1
        patch = self.prepare_patch(patch)
        applied: Optional[AppliedInstrumentation] = None
        tracers = ()
        hooks = None
        if patch is not None:
            applied = apply_patch(patch, self.module, ptwrite=self.ptwrite)
            tracers = applied.tracers()
            hooks = applied.hooks
        detectors = make_detectors(self.detectors)
        if detectors:
            tracers = list(tracers) + detectors
        interp = Interpreter(
            self.module,
            entry=workload.entry,
            args=list(workload.args),
            scheduler=workload.make_scheduler(),
            tracers=tracers,
            hooks=hooks,
            max_steps=workload.max_steps,
            mode=self.interp_mode,
        )
        outcome = interp.run()
        if detectors:
            outcome = apply_detectors(outcome, detectors)
        monitored = None
        if applied is not None:
            decoded = applied.driver.decode_all()
            executed = {tid: trace.executed_sequence()
                        for tid, trace in decoded.items()}
            traps = list(applied.watchpoints.total_order())
            if self.ptwrite:
                # Synthesize trap records from the in-stream PTW packets.
                # The TSC stamp supplies the cross-core total order the
                # watchpoint unit's sequence numbers provided.  The stream
                # carries *every* access in traced windows; keep only those
                # touching the addresses the window's data items live at —
                # the same address set watchpoints would have covered,
                # minus the 4-register cap and the arming delay.
                candidates = {h.uid for h in patch.hooks
                              if h.action == "watch"}
                events = []
                for tid, trace in decoded.items():
                    for event in trace.mem_events():
                        events.append((tid, event))
                watched = {event.address for _tid, event in events
                           if event.uid in candidates}
                for tid, event in events:
                    if event.address not in watched:
                        continue
                    traps.append(TrapRecord(
                        seq=event.tsc, tid=tid, pc=event.uid,
                        address=event.address,
                        is_write=event.is_write,
                        value=event.value, slot=-1))
                traps.sort(key=lambda t: t.seq)
            monitored = MonitoredRun(
                run_id=run_id,
                endpoint_id=self.endpoint_id,
                failed=outcome.failed,
                failure=outcome.failure,
                executed=executed,
                traps=traps,
                overhead=outcome.overhead,
                trace_bytes=applied.driver.encoder.total_bytes(),
            )
            # Extract failure predictors here, on the endpoint: the server
            # ranks the set a run ships and never re-extracts.  Branch
            # facts come from the decoder's walk over the *full* trace, so
            # they are exact even though slicing below prunes the shipped
            # evidence.
            branches = set().union(*(trace.branches
                                     for trace in decoded.values()))
            monitored.predictors = frozenset(extract_all(
                monitored, branches, extended=self.extended_predicates))
            # A sliceless patch (hand-built, or from an older server) must
            # not prune: an empty slice would drop nearly everything.
            if patch.slice_uids:
                slice_monitored_run(monitored, patch)
        return ClientRunResult(outcome=outcome, monitored=monitored)
