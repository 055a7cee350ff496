"""Casper-style null-origin causality tracing.

A null dereference's interesting question is rarely *where* the program
crashed — the faulting pc is in the failure report already — but where the
null **came from**.  Following Casper (PAPERS.md), :class:`NullOriginTracer`
tags null-producing stores as they retire and threads
origin → propagation → dereference chains through the failure report:

- a store of value ``0`` to an address whose storing thread has *not*
  recently loaded a null starts a chain (an ``"origin"`` hop — this is
  where the null was created);
- a store of ``0`` by a thread that just loaded ``0`` from a tracked
  address *extends* that address's chain (a ``"propagation"`` hop — the
  null moved, e.g. from a producer's slot into a consumer's local buffer);
- a null-page segfault (faulting address below ``GLOBAL_BASE``) is
  reclassified as :attr:`FailureKind.NULL_DEREF`, with the chain of the
  faulting thread's most recent null load appended with a ``"deref"`` hop.

Chains carry function/line per hop so failure sketches can render "where
the null was created" rows (:mod:`repro.core.render`).  Overwriting a
tracked address with a non-zero value retires its chain — only live nulls
are ever cited.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..runtime.events import MemEvent, Tracer
from ..runtime.failures import FailureKind, FailureReport, OriginHop, \
    RunOutcome
from ..runtime.memory import GLOBAL_BASE, HEAP_BASE, STACK_BASE, STRING_BASE

#: Chains longer than this cite the origin plus the freshest hops — null
#: relays through long pipelines stay readable in a sketch.
MAX_CHAIN_HOPS = 8


class NullOriginTracer(Tracer):
    """Track null creation and propagation; reclassify null-page faults."""

    wants_on_mem = True
    #: Globals and the heap, as for the race detector: a constant gate
    #: that spares a run every stack access; ``on_mem`` still skips the
    #: string data inside it.
    gate_on_mem = range(GLOBAL_BASE, STACK_BASE)

    def __init__(self) -> None:
        self._interp = None
        #: address -> chain of hops explaining the null stored there
        self._chains: Dict[int, Tuple[OriginHop, ...]] = {}
        #: tid -> address of that thread's most recent null load
        self._last_null_load: Dict[int, int] = {}

    def on_start(self, interp) -> None:
        self._interp = interp

    def _hop(self, kind: str, tid: int, pc: int, step: int,
             address: Optional[int]) -> OriginHop:
        ins = self._interp.module.instr(pc)
        return OriginHop(kind=kind, tid=tid, pc=pc, step=step,
                         function=ins.func_name, line=ins.line,
                         address=address)

    def on_mem(self, interp, event: MemEvent) -> None:
        # Only globals and the heap carry nulls between program points
        # worth citing: stack slots hold zero-valued *ints* all the time
        # (loop counters, flags), and conflating those with null pointers
        # buries the chain in noise.  A null handoff between functions or
        # threads necessarily crosses shared memory.
        addr = event.address
        if addr < GLOBAL_BASE or addr >= STACK_BASE:
            return
        if STRING_BASE <= addr < HEAP_BASE:
            return
        if event.is_write:
            if event.value != 0:
                # A non-null overwrite retires the address's chain.
                if event.address in self._chains:
                    del self._chains[event.address]
                return
            source = self._last_null_load.get(event.tid)
            parent = self._chains.get(source) if source is not None else None
            hop_kind = "propagation" if parent else "origin"
            hop = self._hop(hop_kind, event.tid, event.pc, event.step,
                            event.address)
            chain = (parent or ()) + (hop,)
            if len(chain) > MAX_CHAIN_HOPS:
                chain = chain[:1] + chain[-(MAX_CHAIN_HOPS - 1):]
            self._chains[event.address] = chain
        elif event.value == 0:
            self._last_null_load[event.tid] = event.address

    # -- outcome post-processing --------------------------------------------

    def chain_for_failure(self, failure: FailureReport) \
            -> Tuple[OriginHop, ...]:
        """The origin chain explaining a null-page fault, ending with the
        dereference hop itself."""
        source = self._last_null_load.get(failure.tid)
        chain = self._chains.get(source, ()) if source is not None else ()
        deref = self._hop("deref", failure.tid, failure.pc,
                          self._interp.global_step, failure.address)
        return chain + (deref,)

    def amend(self, outcome: RunOutcome) -> RunOutcome:
        """Reclassify a null-page segfault as ``NULL_DEREF`` with origin."""
        failure = outcome.failure
        if failure is None or failure.kind is not FailureKind.SEGFAULT:
            return outcome
        if failure.address is None or failure.address >= GLOBAL_BASE:
            return outcome
        outcome.failure = FailureReport(
            kind=FailureKind.NULL_DEREF,
            pc=failure.pc,
            tid=failure.tid,
            message=(f"null pointer dereference "
                     f"(address {hex(failure.address)})"),
            stack=failure.stack,
            address=failure.address,
            origin=self.chain_for_failure(failure),
        )
        return outcome
