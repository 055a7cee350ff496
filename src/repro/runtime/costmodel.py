"""Deterministic cycle-cost accounting.

The paper reports client-side *performance overhead percentages* (Figs. 11
and 13, §5.3).  Our substrate is an interpreter, so wall-clock time would
measure Python, not the workload.  Instead each run is charged model cycles:
a base cost per retired instruction, plus per-event costs contributed by
whatever tracing is attached (PT packet writes, watchpoint traps,
instrumentation calls, record/replay logging).  Overhead is then

    (instrumented_cost - base_cost) / base_cost

which is reproducible bit-for-bit and preserves the *shape* of the paper's
numbers: costs scale with the density of the events each mechanism consumes.

The constants are calibrated against the figures the paper reports:
full Intel PT tracing ≈ 11% average overhead, hardware watchpoint data-flow
tracking ≈ 1%, software control-flow tracing 3×–5000×, and full
record/replay ≈ 10× (984%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..lang.ir import Opcode

#: Base retired-instruction costs, in model cycles.
OPCODE_COST: Dict[Opcode, int] = {
    Opcode.CONST: 1,
    Opcode.MOVE: 1,
    Opcode.BINOP: 1,
    Opcode.UNOP: 1,
    Opcode.GEP: 1,
    Opcode.LOAD: 4,
    Opcode.STORE: 4,
    Opcode.ALLOCA: 2,
    Opcode.CALL: 6,
    Opcode.RET: 4,
    Opcode.BR: 2,
    Opcode.JMP: 1,
    Opcode.ASSERT: 2,
}

#: Cost of writing one byte of an Intel PT packet to the trace buffer.
#: PT emits ~0.5 bits/instruction; with ~2 cycles/instr base cost this
#: lands full-tracing overhead near the paper's 11% average.
PT_BYTE_COST = 3

#: Cost of taking one hardware-watchpoint debug trap (handler + resume).
#: Debug exceptions are handled atomically but in a tight kernel path; the
#: value is calibrated so that data-flow tracking's share of overhead sits
#: near the paper's ~1% on corpus-sized workloads.
WATCHPOINT_TRAP_COST = 50

#: Cost of one instrumentation call that toggles PT via the driver's ioctl.
IOCTL_TOGGLE_COST = 40

#: Cost of placing / removing a hardware watchpoint through ptrace.
PTRACE_WATCHPOINT_COST = 500

#: Per-branch cost of *software* control-flow tracing (the paper's PIN-based
#: Intel PT simulator saw 3x-5000x slowdowns).
SOFTWARE_BRANCH_TRACE_COST = 180

#: Record/replay: per-instruction and per-memory-access logging costs.
RR_STEP_COST = 14
RR_MEM_COST = 40


@dataclass
class CostModel:
    """Accumulates base cost and per-opcode counts for one run.

    Each retired instruction adds its :data:`OPCODE_COST` to ``base_cost``
    and one to ``counts`` under the opcode's value string (``"load"``,
    ...).  NOTE: both interpreter tiers do this accounting themselves —
    the decoded tier per step from each pre-decoded record's (cost, key)
    pair, the compiled tier at run end from its extended-block path
    counts, builtin attempts and the frames' retired prefixes, each a
    packed per-opcode charge (``CompiledProgram.settle``) — so any change
    to it must be made in both.
    """

    base_cost: int = 0
    counts: Dict[str, int] = field(default_factory=dict)

    def instructions_retired(self) -> int:
        return sum(self.counts.values())


def overhead_percent(base_cost: int, extra_cost: int) -> float:
    """Overhead as a percentage of the uninstrumented run."""
    if base_cost <= 0:
        return 0.0
    return 100.0 * extra_cost / base_cost
