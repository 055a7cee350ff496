"""The trace side of the PT simulator: per-thread packet buffers.

Real Intel PT writes packets to a physical memory buffer per logical core;
the paper's kernel driver sizes it at 2 MB, "sufficient to hold traces for
all the applications we have tested".  We keep one :class:`PTBuffer` per
simulated thread (threads stand in for cores), with the same default
capacity and the same overflow behaviour: when full, packets are dropped and
an OVF packet marks the loss.

:class:`PTEncoder` is the :class:`~repro.runtime.events.Tracer` that feeds
buffers from execution events.  It only encodes what real PT encodes:

- conditional-branch outcomes → TNT bits (batched up to 6 per byte),
- return targets → TIP packets,
- window boundaries → TIP.PGE / TIP.PGD,

and nothing for direct jumps/calls, which the decoder reconstructs from the
program — that asymmetry is where the ~0.5 bits/instruction compression
comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..runtime.costmodel import PT_BYTE_COST
from ..runtime.events import BranchEvent, FlowEvent, FlowKind, MemEvent, Tracer
from . import packets as P

DEFAULT_BUFFER_BYTES = 2 * 1024 * 1024


class PTBuffer:
    """A bounded packet buffer for one thread (≈ one logical core)."""

    def __init__(self, capacity: int = DEFAULT_BUFFER_BYTES) -> None:
        self.capacity = capacity
        self.data = bytearray()
        self.bytes_written = 0        # includes dropped bytes
        self.overflowed = False
        # Pending TNT bits, batched as an int in encoded form: bit i of the
        # eventual packet byte at position i+1, exactly as
        # :func:`repro.pt.packets.encode_tnt` lays them out, so a flush is
        # one OR (the stop bit) instead of a per-bit list walk.  Replaces a
        # List[bool] whose append/slice traffic showed up in branch-heavy
        # profiles.
        self._tnt_value = 0
        self._tnt_count = 0

    # -- raw appends -------------------------------------------------------

    def _append(self, chunk: bytes) -> None:
        self.bytes_written += len(chunk)
        if len(self.data) + len(chunk) > self.capacity:
            if not self.overflowed:
                self.overflowed = True
                ovf = P.encode_ovf()
                if len(self.data) + len(ovf) <= self.capacity:
                    self.data.extend(ovf)
            return  # dropped
        self.data.extend(chunk)

    def flush_tnt(self) -> None:
        if self._tnt_count:
            self._append(bytes((
                self._tnt_value | (1 << (self._tnt_count + 1)),)))
            self._tnt_value = 0
            self._tnt_count = 0

    # -- packet-level API -----------------------------------------------------

    def tnt(self, taken: bool) -> None:
        if taken:
            self._tnt_value |= 2 << self._tnt_count
        self._tnt_count += 1
        if self._tnt_count >= P.MAX_TNT_BITS:
            self.flush_tnt()

    def tip(self, uid: int) -> None:
        self.flush_tnt()
        self._append(P.encode_tip(uid))

    def ptw(self, uid: int, address: int, value: int, is_write: bool,
            tsc: int) -> None:
        self.flush_tnt()
        self._append(P.encode_ptw(uid, address, value, is_write, tsc))

    def pge(self, uid: int) -> None:
        self._append(P.encode_psb())
        self._append(P.encode_tip_pge(uid))

    def pgd(self, uid: int) -> None:
        self.flush_tnt()
        self._append(P.encode_tip_pgd(uid))

    def finalize(self) -> bytes:
        self.flush_tnt()
        return bytes(self.data)


@dataclass
class PTConfig:
    """MSR-style configuration (a subset of IA32_RTIT_* semantics)."""

    buffer_bytes: int = DEFAULT_BUFFER_BYTES
    #: Restrict tracing to an instruction-uid range (ADDR0_A/ADDR0_B
    #: filtering analogue); None traces everything.
    addr_filter: Optional[Tuple[int, int]] = None
    #: Only user-level code exists in the simulation, but the flag is kept
    #: so driver round-trip tests can exercise it.
    user_only: bool = True
    #: §6 future-hardware mode: also emit PTWRITE-style data packets for
    #: every memory access in traced windows.  Eliminates the 4-register
    #: watchpoint budget and the cooperative address splitting, at the
    #: price of a fatter trace.
    ptwrite: bool = False


class PTEncoder(Tracer):
    """Feeds per-thread PT buffers from interpreter events.

    Tracing is toggled per thread (threads model logical cores; real PT is
    enabled/disabled per core by the driver's ioctl).  When
    ``trace_on_start`` is set, every thread begins traced from its first
    instruction — that is the "full tracing" configuration of Fig. 13.

    The set of threads whose tracing is on is the encoder's branch and flow
    gate (:func:`repro.runtime.events.gate`): PT writes nothing for a core
    whose tracing is off, so the interpreter builds no branch or flow event
    for such a thread.  There is no memory gate, because PTWRITE interest
    is per thread, not per address.
    """

    def __init__(self, config: Optional[PTConfig] = None,
                 trace_on_start: bool = False) -> None:
        self.config = config or PTConfig()
        self.trace_on_start = trace_on_start
        self.buffers: Dict[int, PTBuffer] = {}
        #: The threads whose tracing is on; mutated in place (it is a gate).
        self.tracing: Set[int] = set()

    # -- driver-facing control ------------------------------------------------

    def buffer_for(self, tid: int) -> PTBuffer:
        if tid not in self.buffers:
            self.buffers[tid] = PTBuffer(self.config.buffer_bytes)
        return self.buffers[tid]

    def is_enabled(self, tid: int) -> bool:
        return tid in self.tracing

    def enable(self, tid: int, at_uid: int) -> None:
        if tid not in self.tracing:
            self.tracing.add(tid)
            self.buffer_for(tid).pge(at_uid)

    def disable(self, tid: int, at_uid: int = -1) -> None:
        if tid in self.tracing:
            self.tracing.discard(tid)
            self.buffer_for(tid).pgd(at_uid)

    # -- filtering ---------------------------------------------------------------

    def _in_filter(self, uid: int) -> bool:
        window = self.config.addr_filter
        return window is None or window[0] <= uid <= window[1]

    # -- Tracer callbacks -----------------------------------------------------------

    @property
    def wants_on_mem(self) -> bool:
        # Subscription veto for the hot path's dispatch lists: without
        # PTWRITE mode every on_mem call is a no-op, and ``config.ptwrite``
        # is fixed for the encoder's lifetime, so it is safe to sample at
        # run start (see :func:`repro.runtime.events.subscribes`).
        return self.config.ptwrite

    @property
    def wants_on_step(self) -> bool:
        # Same veto for the step fan-out: on_step only opens windows under
        # ``trace_on_start``, which is fixed for the encoder's lifetime.
        return self.trace_on_start

    @property
    def gate_on_branch(self) -> Set[int]:
        return self.tracing

    gate_on_flow = gate_on_branch

    def on_step(self, interp, tid: int, ins) -> None:
        # A thread has a buffer from its first window on, so this opens
        # each thread's window once, at its first step.
        if self.trace_on_start and tid not in self.buffers:
            self.enable(tid, ins.uid)

    def on_branch(self, interp, event: BranchEvent) -> None:
        if self.is_enabled(event.tid) and self._in_filter(event.pc):
            self.buffer_for(event.tid).tnt(event.taken)

    def on_flow(self, interp, event: FlowEvent) -> None:
        if event.kind is FlowKind.RET and self.is_enabled(event.tid) \
                and self._in_filter(event.pc):
            self.buffer_for(event.tid).tip(event.target_pc)

    def on_mem(self, interp, event: MemEvent) -> None:
        if self.config.ptwrite and self.is_enabled(event.tid) and \
                self._in_filter(event.pc):
            self.buffer_for(event.tid).ptw(
                event.pc, event.address, event.value, event.is_write,
                tsc=event.step)

    def on_finish(self, interp) -> None:
        for tid in sorted(self.tracing):
            # Close the window at the thread's current pc (for a failing
            # run, the faulting instruction) so the decoder knows exactly
            # where execution stopped -- mirroring how a real decoder uses
            # the coredump pc to bound the final trace window.
            stop_uid = -1
            thread = interp.threads.get(tid) if interp is not None else None
            if thread is not None and thread.frames:
                stop_uid = interp._current_pc(thread)
            self.disable(tid, stop_uid)
        for buf in self.buffers.values():
            buf.flush_tnt()

    def dynamic_extra_cost(self) -> int:
        return sum(buf.bytes_written for buf in self.buffers.values()) \
            * PT_BYTE_COST

    # -- results ----------------------------------------------------------------------

    def raw_trace(self, tid: int) -> bytes:
        buf = self.buffers.get(tid)
        return buf.finalize() if buf is not None else b""

    def total_bytes(self) -> int:
        return sum(buf.bytes_written for buf in self.buffers.values())


class SoftwarePTEncoder(PTEncoder):
    """The software control-flow tracer of §6.

    Functionally identical to :class:`PTEncoder`, but every traced branch
    pays a software-instrumentation cost (the paper's PIN-based Intel PT
    simulator saw 3×–5000× slowdowns).  Used by the Fig. 13 ablation.
    """

    #: The per-instruction software cost accrues in on_step whenever a
    #: window is open, so the base class's veto does not apply.
    wants_on_step = True

    def __init__(self, config: Optional[PTConfig] = None,
                 trace_on_start: bool = False) -> None:
        super().__init__(config, trace_on_start)
        self._software_cost = 0

    def on_step(self, interp, tid: int, ins) -> None:
        super().on_step(interp, tid, ins)
        # A software tracer pays per executed instruction to check whether
        # the instruction is a branch at all (inline instrumentation).
        if self.is_enabled(tid):
            self._software_cost += 6

    def on_branch(self, interp, event: BranchEvent) -> None:
        from ..runtime.costmodel import SOFTWARE_BRANCH_TRACE_COST

        if self.is_enabled(event.tid) and self._in_filter(event.pc):
            self._software_cost += SOFTWARE_BRANCH_TRACE_COST
        super().on_branch(interp, event)

    def dynamic_extra_cost(self) -> int:
        return super().dynamic_extra_cost() + self._software_cost
