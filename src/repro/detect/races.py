"""Happens-before data-race detection over the interpreter's event streams.

:class:`RaceDetector` is a :class:`~repro.runtime.events.Tracer` that
consumes the same :class:`SyncEvent`/:class:`MemEvent` streams every other
dynamic component uses, maintaining per-thread vector clocks
(:mod:`repro.detect.vectorclock`) advanced at the synchronization
operations :mod:`repro.runtime.sync` emits:

====================  =====================================================
sync op               clock effect
====================  =====================================================
``mutex_unlock``      release: snapshot the holder's clock onto the mutex,
                      then tick the holder's own component
``mutex_lock``        acquire: join the mutex's stored clock
``cond_signal`` /     release: fold the signaller's clock into the condvar,
``cond_broadcast``    then tick
``cond_wait``         acquire: join the condvar's clock (the event fires at
                      mutex reacquisition, after the signal)
``thread_create``     child inherits the parent's clock (plus its own
                      component); the parent ticks
``thread_join``       the joiner joins the finished child's clock
====================  =====================================================

Two accesses to one shared address race when neither happens-before the
other (FastTrack-style epoch check: the prior access's ``(tid, component)``
is not covered by the current thread's clock) **and** the locksets held at
the two accesses are disjoint — the lockset filter is what keeps
condvar-protected polling idioms (release edges the event stream only
partially exposes) from producing false positives.

The detector is a pure function of the event stream, so it is
deterministic across executors and byte-identical between online runs and
offline replay re-execution (:mod:`repro.detect.offline`).  Per-access
cost is kept low with epoch short-circuits: a thread re-touching an
address it already touched since its last release does no clock work at
all, so tight racy loops pay one dict probe per iteration.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..runtime.events import MemEvent, SyncEvent, Tracer
from ..runtime.failures import (
    FailureKind,
    FailureReport,
    RaceAccess,
    RaceInfo,
    RunOutcome,
)
from ..runtime.memory import GLOBAL_BASE, HEAP_BASE, STACK_BASE, STRING_BASE
from .vectorclock import dict_join, dict_tick

_EMPTY_LOCKSET: FrozenSet[int] = frozenset()

#: (clock component, pc, step, value, lockset, stack) — one recorded access.
_Access = Tuple[int, int, int, int, FrozenSet[int], tuple]


class _Cell:
    """Per-address shadow state: the last write plus per-thread last reads."""

    __slots__ = ("wtid", "wclk", "wpc", "wstep", "wvalue", "wlockset",
                 "wstack", "reads")

    def __init__(self) -> None:
        self.wtid = -1
        self.wclk = 0
        self.wpc = -1
        self.wstep = -1
        self.wvalue = 0
        self.wlockset: FrozenSet[int] = _EMPTY_LOCKSET
        self.wstack: tuple = ()
        self.reads: Dict[int, _Access] = {}


class RaceDetector(Tracer):
    """Online happens-before race detector (attach via ``detectors``).

    Costs are left at zero: like the PT encoder, detection consumes events
    the hardware already produces — the modeled production cost lives in
    the instrumentation, not the observer.  ``BENCH_detectors.json``
    guards that modeled overhead (≤ 15% on detection campaigns) and
    tracks the simulator-side wall-clock slowdown informationally.
    """

    wants_on_mem = True
    wants_on_sync = True
    #: Globals and the heap: the stacks are thread-private and the null
    #: page faults before any event.  A constant gate, so a run whose only
    #: memory handler is this detector builds no event for a stack access;
    #: ``on_mem`` still skips the string data inside it.
    gate_on_mem = range(GLOBAL_BASE, STACK_BASE)

    def __init__(self) -> None:
        self._interp = None
        self._clocks: Dict[int, Dict[int, int]] = {}
        self._mutex_clocks: Dict[int, Dict[int, int]] = {}
        self._cond_clocks: Dict[int, Dict[int, int]] = {}
        self._locksets: Dict[int, FrozenSet[int]] = {}
        self._cells: Dict[int, _Cell] = {}
        self._seen: set = set()
        #: Every distinct race, in detection order.
        self.races: List[RaceInfo] = []

    # -- tracer callbacks ----------------------------------------------------

    def on_start(self, interp) -> None:
        self._interp = interp

    def _clock_of(self, tid: int) -> Dict[int, int]:
        clock = self._clocks.get(tid)
        if clock is None:
            clock = self._clocks[tid] = {tid: 1}
        return clock

    def on_sync(self, interp, event: SyncEvent) -> None:
        op = event.op
        tid = event.tid
        clock = self._clock_of(tid)
        if op == "mutex_lock":
            stored = self._mutex_clocks.get(event.object_address)
            if stored is not None:
                dict_join(clock, stored)
            self._locksets[tid] = (
                self._locksets.get(tid, _EMPTY_LOCKSET)
                | {event.object_address})
        elif op == "mutex_unlock":
            self._mutex_clocks[event.object_address] = dict(clock)
            dict_tick(clock, tid)
            self._locksets[tid] = (
                self._locksets.get(tid, _EMPTY_LOCKSET)
                - {event.object_address})
        elif op in ("cond_signal", "cond_broadcast"):
            stored = self._cond_clocks.get(event.object_address)
            if stored is None:
                self._cond_clocks[event.object_address] = dict(clock)
            else:
                dict_join(stored, clock)
            dict_tick(clock, tid)
        elif op == "cond_wait":
            stored = self._cond_clocks.get(event.object_address)
            if stored is not None:
                dict_join(clock, stored)
        elif op == "thread_create":
            child = dict(clock)
            child[event.other_tid] = child.get(event.other_tid, 0) + 1
            self._clocks[event.other_tid] = child
            dict_tick(clock, tid)
        elif op == "thread_join":
            target = self._clocks.get(event.other_tid)
            if target is not None:
                dict_join(clock, target)

    def on_mem(self, interp, event: MemEvent) -> None:
        address = event.address
        # Only globals and the heap are shareable: the null page faults,
        # the string pool is immutable, and stacks are thread-private.
        if address < GLOBAL_BASE or address >= STACK_BASE:
            return
        if STRING_BASE <= address < HEAP_BASE:
            return
        tid = event.tid
        clock = self._clock_of(tid)
        clk = clock[tid]
        lockset = self._locksets.get(tid, _EMPTY_LOCKSET)
        cell = self._cells.get(address)
        if cell is None:
            cell = self._cells[address] = _Cell()
        if event.is_write:
            if cell.wtid == tid and cell.wclk == clk \
                    and cell.wlockset is lockset:
                cell.wvalue = event.value   # same-epoch rewrite: no new order
                return
            self._check_write(cell, address, tid, clk, lockset, event)
            cell.wtid = tid
            cell.wclk = clk
            cell.wpc = event.pc
            cell.wstep = event.step
            cell.wvalue = event.value
            cell.wlockset = lockset
            cell.wstack = interp.stack_trace(tid, event.pc)
            # A recorded write subsumes earlier reads: anything racing a
            # cleared read either happens-before it or races this write.
            if cell.reads:
                cell.reads.clear()
        else:
            prev = cell.reads.get(tid)
            if prev is not None and prev[0] == clk and prev[4] is lockset:
                return
            stack = interp.stack_trace(tid, event.pc)
            if cell.wtid >= 0 and cell.wtid != tid \
                    and cell.wclk > clock.get(cell.wtid, 0) \
                    and not (cell.wlockset & lockset):
                self._report(address, self._write_access(cell),
                             RaceAccess(tid=tid, pc=event.pc,
                                        step=event.step, is_write=False,
                                        value=event.value, stack=stack))
            cell.reads[tid] = (clk, event.pc, event.step, event.value,
                               lockset, stack)

    # -- race bookkeeping ----------------------------------------------------

    def _check_write(self, cell: _Cell, address: int, tid: int, clk: int,
                     lockset: FrozenSet[int], event: MemEvent) -> None:
        clock = self._clocks[tid]
        second = None
        if cell.wtid >= 0 and cell.wtid != tid \
                and cell.wclk > clock.get(cell.wtid, 0) \
                and not (cell.wlockset & lockset):
            second = RaceAccess(tid=tid, pc=event.pc, step=event.step,
                                is_write=True, value=event.value,
                                stack=self._interp.stack_trace(tid, event.pc))
            self._report(address, self._write_access(cell), second)
        for rtid, read in cell.reads.items():
            if rtid == tid:
                continue
            if read[0] > clock.get(rtid, 0) and not (read[4] & lockset):
                if second is None:
                    second = RaceAccess(
                        tid=tid, pc=event.pc, step=event.step, is_write=True,
                        value=event.value,
                        stack=self._interp.stack_trace(tid, event.pc))
                self._report(address,
                             RaceAccess(tid=rtid, pc=read[1], step=read[2],
                                        is_write=False, value=read[3],
                                        stack=read[5]),
                             second)

    @staticmethod
    def _write_access(cell: _Cell) -> RaceAccess:
        return RaceAccess(tid=cell.wtid, pc=cell.wpc, step=cell.wstep,
                          is_write=True, value=cell.wvalue,
                          stack=cell.wstack)

    def _report(self, address: int, first: RaceAccess,
                second: RaceAccess) -> None:
        key = (address, first.pc, second.pc, first.is_write, second.is_write)
        if key in self._seen:
            return
        self._seen.add(key)
        self.races.append(RaceInfo(address=address, first=first,
                                   second=second))

    # -- outcome post-processing --------------------------------------------

    def racy_lines(self) -> List[Tuple[str, int]]:
        """(function, line) pairs of every racing access — test support."""
        out = []
        for race in self.races:
            for acc in (race.first, race.second):
                if acc.stack:
                    out.append((acc.stack[0].function, acc.stack[0].line))
        return out

    def amend(self, outcome: RunOutcome) -> RunOutcome:
        """Promote a detected race into the run's failure.

        A run that already failed keeps its original report (a real crash
        outranks a race diagnosis); otherwise the canonical race — minimum
        ``(address, first.pc, second.pc)``, which is stable across
        schedules that expose the same racy pair — becomes a
        ``DATA_RACE`` failure whose pc/stack are the later access's.
        """
        if outcome.failed or not self.races:
            return outcome
        race = min(self.races, key=lambda r: (r.address, r.first.pc,
                                              r.second.pc, r.second.step))
        outcome.failed = True
        outcome.failure = FailureReport(
            kind=FailureKind.DATA_RACE,
            pc=race.second.pc,
            tid=race.second.tid,
            message=(f"unsynchronized accesses to {hex(race.address)} "
                     f"(threads {race.first.tid} and {race.second.tid})"),
            stack=race.second.stack,
            address=race.address,
            race=race,
        )
        return outcome
