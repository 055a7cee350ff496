"""Hardware watchpoints (x86 debug-register analogue).

x86 exposes four debug-address registers (DR0–DR3); the paper's data-flow
tracking budget is exactly those four per machine (§3.2.3), which is why
Gist (a) refuses to watch stack variables, (b) keeps an active-set to never
double-watch an address, and (c) falls back to splitting addresses across
production runs cooperatively when a slice window needs more than four.

:class:`WatchpointUnit` enforces the 4-register limit and, as a
:class:`~repro.runtime.events.Tracer`, converts matching memory events into
:class:`TrapRecord` objects.  Trap records carry the interpreter's global
step number, giving the *total order across threads* that Gist requires of
its data-flow log (the paper handles watchpoint traps atomically to get
this, §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..runtime.costmodel import WATCHPOINT_TRAP_COST
from ..runtime.events import MemEvent, Tracer

NUM_DEBUG_REGISTERS = 4

#: The most consecutive slots one register covers: x86 debug registers
#: watch 1, 2, 4 or 8 bytes.
MAX_WATCH_LENGTH = 8


class WatchpointExhausted(Exception):
    """All debug registers are in use."""


class WatchpointError(Exception):
    """Invalid watchpoint configuration."""
    pass


@dataclass(frozen=True)
class Watchpoint:
    """One armed debug register."""

    slot: int                 # 0..3 (DR0..DR3)
    address: int
    length: int = 1           # consecutive slots covered
    condition: str = "rw"     # "w" (write-only) or "rw"

    def matches(self, address: int, is_write: bool) -> bool:
        if not self.address <= address < self.address + self.length:
            return False
        if self.condition == "w":
            return is_write
        return True


@dataclass(frozen=True)
class TrapRecord:
    """One watchpoint hit.  ``seq`` is globally ordered across threads."""

    seq: int
    tid: int
    pc: int
    address: int
    is_write: bool
    value: int
    slot: int


@dataclass
class WatchpointUnit(Tracer):
    """Four debug registers plus the trap log they produce.

    ``gate_on_mem`` is the set of every address an armed register covers:
    the memory-event gate (:func:`repro.runtime.events.gate`), so the
    interpreter hands the unit only accesses that may trap, as hardware
    does.  Arming and clearing keep it current in place.
    """

    registers: Dict[int, Watchpoint] = field(default_factory=dict)
    trap_log: List[TrapRecord] = field(default_factory=list)
    traps_taken: int = 0
    gate_on_mem: Set[int] = field(default_factory=set, init=False,
                                  repr=False, compare=False)

    def __post_init__(self) -> None:
        self._cover()

    # -- arming ------------------------------------------------------------

    def free_slots(self) -> List[int]:
        return [s for s in range(NUM_DEBUG_REGISTERS)
                if s not in self.registers]

    def watching(self, address: int) -> bool:
        return address in self.gate_on_mem

    def _cover(self) -> None:
        """Recompute the covered addresses in place (registers may
        overlap, so clearing one cannot just remove its range)."""
        covered = self.gate_on_mem
        covered.clear()
        for wp in self.registers.values():
            covered.update(range(wp.address, wp.address + wp.length))

    def set_watchpoint(self, address: int, length: int = 1,
                       condition: str = "rw") -> int:
        if condition not in ("w", "rw"):
            raise WatchpointError(f"bad condition {condition!r}")
        if not 1 <= length <= MAX_WATCH_LENGTH:
            raise WatchpointError(
                f"length must be 1..{MAX_WATCH_LENGTH}, got {length}")
        free = self.free_slots()
        if not free:
            raise WatchpointExhausted(
                f"all {NUM_DEBUG_REGISTERS} debug registers in use")
        slot = free[0]
        self.registers[slot] = Watchpoint(slot, address, length, condition)
        self.gate_on_mem.update(range(address, address + length))
        return slot

    def watch_if_new(self, address: int, length: int = 1,
                     condition: str = "rw") -> Optional[int]:
        """Arm a watchpoint unless the address is already covered — the
        active-set discipline of §3.2.3.  Returns the slot or None."""
        if self.watching(address):
            return None
        return self.set_watchpoint(address, length, condition)

    def clear(self, slot: int) -> None:
        if self.registers.pop(slot, None) is not None:
            self._cover()

    def clear_all(self) -> None:
        self.registers.clear()
        self.gate_on_mem.clear()

    # -- trapping (Tracer callback) --------------------------------------------

    def on_mem(self, interp, event: MemEvent) -> None:
        # The interpreter hands over only accesses inside the gate; the
        # register scan is the trap condition itself.
        for wp in self.registers.values():
            if wp.matches(event.address, event.is_write):
                self.traps_taken += 1
                self.trap_log.append(TrapRecord(
                    seq=event.step, tid=event.tid, pc=event.pc,
                    address=event.address, is_write=event.is_write,
                    value=event.value, slot=wp.slot))
                break  # one trap per access, as in hardware

    def dynamic_extra_cost(self) -> int:
        return self.traps_taken * WATCHPOINT_TRAP_COST

    # -- queries ------------------------------------------------------------------

    def traps_at(self, address: int) -> List[TrapRecord]:
        return [t for t in self.trap_log if t.address == address]

    def total_order(self) -> List[TrapRecord]:
        """All traps, in global (cross-thread) order."""
        return sorted(self.trap_log, key=lambda t: t.seq)
