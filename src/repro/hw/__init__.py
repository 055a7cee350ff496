"""Hardware debug facilities: the 4-register watchpoint unit and ptrace."""

from .ptrace import PtraceError, PtraceSession, TraceeState
from .watchpoints import (
    MAX_WATCH_LENGTH,
    NUM_DEBUG_REGISTERS,
    TrapRecord,
    Watchpoint,
    WatchpointError,
    WatchpointExhausted,
    WatchpointUnit,
)

__all__ = [
    "MAX_WATCH_LENGTH",
    "NUM_DEBUG_REGISTERS",
    "PtraceError",
    "PtraceSession",
    "TraceeState",
    "TrapRecord",
    "Watchpoint",
    "WatchpointError",
    "WatchpointExhausted",
    "WatchpointUnit",
]
