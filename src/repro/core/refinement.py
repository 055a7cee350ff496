"""Slice refinement (§3.2): turning runtime traces into refined slices.

Refinement does two things to the statically tracked window, using the
control-flow (Intel PT) and data-flow (watchpoint) traces collected from
monitored production runs:

1. **Removes** statements that never execute in the monitored runs — static
   slicing is path-insensitive and overapproximate, so the intersection of
   the slice with observed control flow is what actually pertains to the
   failure (§3.2.2).
2. **Adds** statements discovered by data-flow tracking: watchpoint traps
   whose program counter lies outside the window are accesses to tracked
   data that static slicing missed because it has no alias analysis
   (§3.2.3).

It also reconstructs a *global* event order for each run: PT streams are
only per-thread (per-core) ordered, so cross-thread order is recovered from
the globally sequenced watchpoint trap records — exactly the division of
labour the paper describes ("Gist tracks the total order of memory accesses
that it monitors to increase the accuracy of the control flow shown in the
failure sketch").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..hw.watchpoints import TrapRecord
from ..runtime.failures import FailureReport


@dataclass
class MonitoredRun:
    """Everything one monitored production run reports back to the server."""

    run_id: int
    endpoint_id: int = -1
    failed: bool = False
    failure: Optional[FailureReport] = None
    #: Per-thread executed instruction uids, in per-thread (per-core) order,
    #: as reconstructed by the PT decoder.
    executed: Dict[int, List[int]] = field(default_factory=dict)
    #: Watchpoint trap records, globally ordered by ``seq``.
    traps: List[TrapRecord] = field(default_factory=list)
    #: Client-side overhead of this run, as a fraction.
    overhead: float = 0.0
    #: PT bytes shipped (for §5.3-style accounting).
    trace_bytes: int = 0
    #: Cohort multiplicity: how many real clients this run stands for.
    #: A cohort endpoint executes one representative run and reports that
    #: ``cohort`` members of its cohort exhibited the same outcome; the
    #: server folds the multiplicity into recurrence totals and predictor
    #: counts.  1 (the default) is an ordinary single client.
    cohort: int = 1
    #: Failure predictors extracted *on the endpoint* (a frozenset of
    #: :class:`repro.core.predictors.Predictor`): the set the server
    #: ranks this run by.  Clients extract it before slicing prunes
    #: ``executed``, so it is the only complete copy — the server never
    #: re-extracts.
    predictors: frozenset = frozenset()

    def executed_uids(self) -> Set[int]:
        out: Set[int] = set()
        for seq in self.executed.values():
            out.update(seq)
        for trap in self.traps:
            out.add(trap.pc)
        return out


@dataclass(frozen=True)
class OrderedEvent:
    """One globally-ordered event of a run (see :func:`global_event_order`).

    ``anchored`` is True when the position comes from a watchpoint trap
    (exact global order) rather than interpolation (thread-local order
    pinned to the preceding anchor).
    """

    sort_key: Tuple[int, int, int]
    tid: int
    uid: int
    anchored: bool = False
    is_write: Optional[bool] = None
    value: Optional[int] = None
    address: Optional[int] = None


def global_event_order(run: MonitoredRun) -> List[OrderedEvent]:
    """Merge per-thread PT sequences into one global order via trap anchors.

    Each thread's decoded sequence keeps its internal order; events that
    correspond to watchpoint traps get that trap's global sequence number as
    their primary key, and the remaining events inherit the key of the
    nearest preceding anchor in their thread (or 0 before any anchor).
    """
    events: List[OrderedEvent] = []
    # Group traps per (thread, pc) into FIFO queues.  Matching PT
    # occurrences against a single per-thread queue would stall whenever
    # an *untraced* access trapped (its pc never shows up in the PT
    # stream), mis-ghosting every later trap; per-pc queues are immune to
    # that head-of-line blocking.
    trap_queues: Dict[int, Dict[int, List[TrapRecord]]] = {}
    for trap in sorted(run.traps, key=lambda t: t.seq):
        trap_queues.setdefault(trap.tid, {}).setdefault(
            trap.pc, []).append(trap)

    for tid, seq in sorted(run.executed.items()):
        queues = trap_queues.get(tid, {})
        anchor = 0
        for local_index, uid in enumerate(seq):
            queue = queues.get(uid)
            if queue:
                trap_here = queue.pop(0)
                anchor = trap_here.seq
                events.append(OrderedEvent(
                    sort_key=(anchor, tid, local_index), tid=tid, uid=uid,
                    anchored=True, is_write=trap_here.is_write,
                    value=trap_here.value, address=trap_here.address))
            else:
                events.append(OrderedEvent(
                    sort_key=(anchor, tid, local_index), tid=tid, uid=uid))
    # Traps whose pc never appears in the thread's PT stream: data-flow
    # tracking caught an access outside any traced window.  They are events
    # in their own right (and the source of "discovered" statements).
    for tid, queues in trap_queues.items():
        for queue in queues.values():
            for trap in queue:
                events.append(OrderedEvent(
                    sort_key=(trap.seq, tid, 1 << 30), tid=tid, uid=trap.pc,
                    anchored=True, is_write=trap.is_write,
                    value=trap.value, address=trap.address))
    events.sort(key=lambda e: e.sort_key)
    return events


@dataclass
class RefinementResult:
    """The refined view of one tracked window across many runs."""

    window_uids: Set[int]
    executed_uids: Set[int] = field(default_factory=set)
    removed_uids: Set[int] = field(default_factory=set)
    discovered_uids: Set[int] = field(default_factory=set)

    def refined_uids(self) -> Set[int]:
        """(window ∩ executed) ∪ discovered — the sketch's statement set."""
        return (self.window_uids & self.executed_uids) | self.discovered_uids


class RunningRefinement:
    """All :func:`refine` reads of an iteration's runs, folded run by run:
    the executed-uid union and the trap ``(pc, is_write)`` pairs — both
    bounded by program size, never by run count."""

    __slots__ = ("runs", "executed_uids", "trap_pairs")

    def __init__(self) -> None:
        #: How many runs were folded in.
        self.runs = 0
        self.executed_uids: Set[int] = set()
        self.trap_pairs: Set[Tuple[int, bool]] = set()

    def add(self, run: MonitoredRun) -> None:
        self.runs += 1
        self.executed_uids |= run.executed_uids()
        for trap in run.traps:
            self.trap_pairs.add((trap.pc, trap.is_write))

    def tracked_bytes(self) -> int:
        return (len(self.executed_uids) + len(self.trap_pairs)) * 32


def refine(window_uids: Set[int],
           evidence: RunningRefinement,
           slice_uids: Optional[Set[int]] = None) -> RefinementResult:
    """Refine a window against the runs (failing + successful) folded
    into ``evidence``.

    ``slice_uids`` — the full static slice.  Watchpoint traps land on every
    access to a watched address, including statements with no dependence on
    the failure (another thread's routine *read* of the same lock word);
    a trap becomes a *discovered* statement when it can actually bear on
    the failure: every **write** to watched data changes the data item the
    failing statement consumes (these are exactly the aliasing cases static
    slicing missed, §3.2.3), while a read is only kept if the slice already
    relates it to the failure.  Traps outside that filter still contribute
    to predictors and ordering — they just don't add sketch statements.
    """
    result = RefinementResult(window_uids=set(window_uids))
    result.executed_uids = set(evidence.executed_uids)
    for pc, is_write in evidence.trap_pairs:
        if pc in window_uids:
            continue
        if is_write or slice_uids is None or pc in slice_uids:
            result.discovered_uids.add(pc)
    result.removed_uids = result.window_uids - result.executed_uids
    return result
