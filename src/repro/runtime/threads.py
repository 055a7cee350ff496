"""Thread and stack-frame state for the GIR interpreter."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..lang.ir import Register


class ThreadStatus(enum.Enum):
    """Lifecycle/blocking states of a simulated thread."""
    RUNNABLE = "runnable"
    BLOCKED_LOCK = "blocked_lock"
    BLOCKED_JOIN = "blocked_join"
    BLOCKED_COND = "blocked_cond"
    SLEEPING = "sleeping"
    FINISHED = "finished"


@dataclass
class Frame:
    """One activation record."""

    function: str
    block: str
    index: int                       # next instruction index within block
    regs: Dict[str, int] = field(default_factory=dict)
    return_dst: Optional[Register] = None   # caller register for our result
    stack_base: int = 0              # memory watermark for frame teardown
    call_pc: int = -1                # uid of the CALL that created this frame
    call_line: int = 0
    #: Cached pre-decoded step records of the current block (hot-path
    #: dispatch; see :mod:`repro.runtime.decoded`).  Jump/branch closures
    #: swap it directly to the pre-linked target block's records.
    dcode: Optional[list] = None

    def get(self, name: str) -> int:
        try:
            return self.regs[name]
        except KeyError:
            # Registers are written before read in well-formed codegen
            # output; reading an unwritten register means hand-built IR.
            # Match hardware: an uninitialized register holds garbage, but
            # deterministic garbage (zero) keeps runs reproducible.
            return 0

    def set(self, name: str, value: int) -> None:
        self.regs[name] = value


@dataclass
class Thread:
    """A simulated thread: a stack of frames plus scheduling state."""

    tid: int
    frames: List[Frame] = field(default_factory=list)
    status: ThreadStatus = ThreadStatus.RUNNABLE
    waiting_on_lock: int = 0         # mutex address when BLOCKED_LOCK
    waiting_on_tid: int = -1         # target when BLOCKED_JOIN
    waiting_on_cond: int = 0         # condvar address when BLOCKED_COND
    #: condvar wait protocol state: "" (not waiting) | "signaled"
    #: (woken, must reacquire the mutex before returning from cond_wait).
    cond_state: str = ""
    wake_at_step: int = 0            # when SLEEPING
    start_routine: str = ""
    exit_value: int = 0

    @property
    def top(self) -> Frame:
        return self.frames[-1]

    def is_runnable(self, now_step: int) -> bool:
        if self.status is ThreadStatus.RUNNABLE:
            return True
        if self.status is ThreadStatus.SLEEPING:
            return now_step >= self.wake_at_step
        return False

    def stack_functions(self) -> List[str]:
        return [frame.function for frame in self.frames]
