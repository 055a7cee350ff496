"""Gist's client side: one production endpoint.

An endpoint executes workloads of the deployed program.  When the server
has shipped an instrumentation patch, the endpoint applies it (PT toggles +
watchpoint hooks), runs, and reports back a
:class:`~repro.core.refinement.MonitoredRun`: raw PT buffers are decoded
here for transport convenience, the trap log is shipped verbatim, and the
run's outcome (including any failure report) rides along.  The decode
prunes the executed sequences to the patch's evidence slice as it walks
(:func:`evidence_keep`).

Unmonitored runs — the fleet before any patch exists — only report failures,
which is what bootstraps a diagnosis campaign (Fig. 2, step ①).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from ..detect import apply_detectors, make_detectors, validate_detectors
from ..hw.watchpoints import TrapRecord
from ..instrument.patch import AppliedInstrumentation, Patch, apply_patch
from ..lang.ir import Module
from ..pt.decoder import DecodedTrace
from ..runtime.failures import RunOutcome
from ..runtime.interpreter import Interpreter
from .predictors import extract_all
from .refinement import MonitoredRun
from .workload import Workload


def evidence_keep(patch: Patch,
                  traps: Iterable[TrapRecord]) -> Optional[Set[int]]:
    """The uids a monitored run under ``patch`` ships: client-side
    evidence slicing (*Slicing Event Traces*, PAPERS.md).

    That is the patch's slice ∪ hook uids ∪ the run's trapped pcs; the PT
    decoder prunes each thread's executed sequence to it in its walk
    (order and multiplicity preserved).  A sliceless patch (hand-built,
    or from an older server) keeps everything, None: an empty slice would
    drop nearly everything.  Trap records and the predictor set are never
    pruned — traps carry the global order and the discovered statements,
    and predictors (the decoder's branch facts over the full trace, plus
    the traps') feed the ranking verbatim.

    Sound for refinement by construction: the AsT window is a subset of
    the static slice, so ``window ∩ executed`` — the only thing
    :func:`~repro.core.refinement.refine` reads of executed sequences —
    is unchanged.
    """
    if not patch.slice_uids:
        return None
    keep = set(patch.slice_uids)
    keep.update(hook.uid for hook in patch.hooks)
    keep.update(trap.pc for trap in traps)
    return keep


def _ptwrite_traps(patch: Patch,
                   decoded: Dict[int, DecodedTrace]) -> List[TrapRecord]:
    """Trap records synthesized from the in-stream PTW packets (§6
    future-hardware mode).

    The TSC stamp supplies the cross-core total order the watchpoint
    unit's sequence numbers provided.  The stream carries *every* access
    in traced windows; keep only those touching the addresses the
    window's data items live at — the same address set watchpoints would
    have covered, minus the 4-register cap and the arming delay.
    """
    candidates = {h.uid for h in patch.hooks if h.action == "watch"}
    events = [(tid, event) for tid, trace in decoded.items()
              for event in trace.mem_events()]
    watched = {event.address for _tid, event in events
               if event.uid in candidates}
    return [TrapRecord(seq=event.tsc, tid=tid, pc=event.uid,
                       address=event.address, is_write=event.is_write,
                       value=event.value, slot=-1)
            for tid, event in events if event.address in watched]


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
                 interp_mode: str = "compiled",
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
        #: monitored or not; the decoded tier is the equivalence oracle.
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
            driver = applied.driver
            traps = list(applied.watchpoints.total_order())
            if self.ptwrite:
                # The trap pcs belong in the keep set, so decode the PTW
                # packets first: a walk that keeps no uid.
                traps += _ptwrite_traps(patch, driver.decode_all(()))
                traps.sort(key=lambda t: t.seq)
            keep = evidence_keep(patch, traps)
            decoded = driver.decode_all(keep)
            monitored = MonitoredRun(
                run_id=run_id,
                endpoint_id=self.endpoint_id,
                failed=outcome.failed,
                failure=outcome.failure,
                executed={tid: trace.executed_sequence() if keep is None
                          else trace.kept
                          for tid, trace in decoded.items()},
                traps=traps,
                overhead=outcome.overhead,
                trace_bytes=driver.encoder.total_bytes(),
            )
            # Extract failure predictors here, on the endpoint: the server
            # ranks the set a run ships and never re-extracts.  Branch
            # facts come from the decoder's walk over the *full* trace, so
            # they are exact even though the walk pruned the shipped
            # evidence.
            branches = set().union(*(trace.branches
                                     for trace in decoded.values()))
            monitored.predictors = frozenset(extract_all(
                monitored, branches, extended=self.extended_predicates))
        return ClientRunResult(outcome=outcome, monitored=monitored)
