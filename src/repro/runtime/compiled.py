"""GIR → Python source compilation: the interpreter's top speed tier.

The decoded tier (:mod:`repro.runtime.decoded`) pays one Python *call* per
retired instruction — the interpreter loop indexes a step-record list and
invokes a closure.  This module removes that last per-step call: every GIR
function is lowered to real Python source — one generator function per GIR
function, straight-line statements per basic block, native control flow
within an *extended block* (a block, with every block that only it
reaches through single edges, nested at those edges) and dispatch on an
integer block id between extended blocks, and *frame locals* instead of
register-dict probes — then ``exec``-compiled once per module and cached.

Execution protocol
------------------

Compiled functions are Python *generators* so that the scheduler contract
(its state advances as one
:meth:`~repro.runtime.scheduler.Scheduler.pick` per retired instruction
would advance it, including single-thread runs) survives compilation:

- After every retired instruction the generated code runs an inline *gate*
  over the halves of the scheduler's decision
  (:meth:`~repro.runtime.scheduler.Scheduler.split_pick`):
  ``if _rand() < _p and (_t := _switch(tid, _step + k)) is not None:``.
  For the random scheduler ``_rand`` is its RNG's C-level ``random``, and
  for round-robin its quantum's ``list.pop``, so a step that keeps the
  current thread costs one draw and one float compare and calls no Python
  scheduler code; schedulers that do not split their decision consult
  ``pick`` on every step through the same line.  ``_switch`` is the slow
  half (:func:`_switcher`): it consults over the runnable set and returns
  the thread to switch to, or None.  On a switch the generator commits its
  local accounting and yields the chosen tid;
  :meth:`Interpreter._loop_compiled` resumes that thread's generator
  directly (the step's decision has already been consumed).
- ``yield None`` means *no* decision was consumed (the thread blocked or
  went to sleep); the main loop runs a full runnable/pick cycle.
- Every resume of a generator — including the first — therefore means one
  decision has already been spent on this thread, and the generator
  executes the next instruction body with no preceding gate.  A resume
  sends ``global_step`` only; nothing else about the scheduler lives in
  generator locals.
- User calls are linked by ``yield from``, so a context switch deep in a
  call chain suspends/resumes the whole chain in one step.

Accounting
----------

Steps are counted per extended block.  A block with exactly one
predecessor edge, other than the entry, is emitted inline at that edge
(Relooper-style, Zakai 2011), so the ``if _b == k`` arms of the dispatch
loop remain only for the entry and for blocks with zero or several
predecessors (loop headers, joins), each the root of a tree of inlined
blocks.  A path inlines at most :data:`_MAX_INLINE_DEPTH` blocks below
its root; past that an edge dispatches instead, and its target gets an arm
of its own.

``_step`` holds the step before the current path's root, so the
instruction at 1-based position ``k`` along the root-to-here path retires
at ``_step + k`` — a constant offset at every commit, hook, event and
failure site — and a dispatch adds its path's ``k`` once.  The step budget
is ``_room = _max_steps - _step``, set at the root, so the hang test of an
instruction is ``if k > _room:``, one compare of a constant.  Whenever
other code ran — a resume, a user call's return, a blocking builtin's
retry — both are re-based on the published ``global_step``: ``_step =
global_step - k`` for the ``k`` instructions of the path already retired.
Outside its body, a retired instruction thus runs the scheduler draw and
the hang compare, and nothing else.

``global_step`` is published at every *commit*: before every yield,
builtin call, user call/return, hook, and failure.  A commit also
publishes the frame position (block and index), so at hooks, yields,
failures and run end every thread's ``_current_pc`` is exact.  Event
fan-outs (step, branch, flow, memory) publish only ``global_step``: inside
those handlers the call stack and ``extra_cost`` are exact, but the
current thread's innermost frame position is the last commit's — the
event's ``pc`` names the instruction.

Base cost and per-opcode counts are counted per path (after Ball and
Larus's path profiling, MICRO 1996).  A *packed charge* is an integer
holding one :data:`_FIELD_BITS`-wide count field per opcode; every
root-to-exit path of an extended block has a static one, a module
constant.  Where a path leaves its tree — at a dispatch or a return — it
runs ``_e[x] += 1`` on the run's exit counters, slot ``x`` standing for
its packed charge (:meth:`_ModuleCompiler.exit_slot`).  Builtin calls
charge per attempt (a blocked call retries): each attempt adds one to the
slot of a CALL's charge, and paths leave them out.  A commit stores the
site's retired prefix on the current path in the frame, ``frame.done``,
so a path cut short by the run's end is covered too.  When the run ends,
:meth:`CompiledProgram.settle` unpacks exit counts times path charges,
plus the ``done`` of every frame still on a thread's stack, into
:class:`~repro.runtime.costmodel.CostModel`.

Instrumentation
---------------

One compiled program serves plain and instrumented runs alike.  The
subscriber lists, gates and hooks are sampled at run start into locals
(:meth:`CompiledProgram.start`):

- ``_pre`` is ``None`` without step subscribers and hooks, else a
  uid-indexed tuple of flags, set where the instruction needs the step
  fan-out and hooks (:func:`_before`).  ``_preb`` flags the same way the
  entry uid of every block that holds such an instruction.  A block's entry
  probes it once, ``_h = _preb and _preb[entry uid]``, and each instruction
  tests ``if _h and _pre[uid]:`` — one local truth test in plain runs and
  in the blocks of a monitored run that hold no hooked instruction;
- ``_fb`` / ``_fm`` are the run's branch / memory fan-outs
  (``Interpreter._fire_*``), and ``_fj`` / ``_fc`` / ``_fr`` its jump /
  call / return fan-outs (``Interpreter._flow_fires``), each ``None`` when
  nobody pays or listens for that kind.  A PT encoder subscribes to
  returns only, so in a PT-only run a JMP or user CALL costs one ``None``
  test, as in a plain run;
- ``_gb`` / ``_gf`` / ``_gm`` are the kinds' gates: the gate the kind's
  lone, cost-free handler declared (:func:`repro.runtime.events.gate`) —
  the live set of traced thread ids (branch, flow) or watched addresses,
  or a detector's constant global-and-heap range (memory) — else
  :data:`_UNGATED`, a range holding every key.  An event site runs
  ``if _fm and (addr in _gm or _gm2 and addr in _gm2):``, so a plain run
  still pays one truth test and a lone gated handler costs no Python call
  outside its gate (and one more truth test, of ``_gm2``).  When the
  kind has two gated, cost-free handlers — a detector sharing it with a
  watchpoint unit — ``_gm`` and ``_gm2`` are their gates
  (:func:`_site_gates`), so an access outside both makes no call either;
  the fan-out then hands each handler only what its own gate holds.  The
  gate object is sampled once; its tracer mutates it in place, so a hook
  that arms a watchpoint or opens a PT window changes what every later
  event site sees, the hooked instruction's own included.

Hooks fire before their instruction, after the step count and the step
fan-out, once per retired instruction (each retry of a blocking builtin
included); they see the exact frame position and the registers the
instruction reads (spilled into the frame for ``eval_operand``).  Events
carry the instruction's step and come in the decoded tier's order.
Blocking builtins re-execute exactly like the decoded tier: the generated
code spills live registers and commits before delegating to
``Interpreter._do_builtin``, and retries on every wakeup.

A register defined once, by an entry-block ``ALLOCA`` of at least one slot,
names the frame's own mapped stack slot from that ``ALLOCA`` until the
frame returns (:meth:`_FunctionCompiler._own_slots`).  A ``STORE`` through
it is ``_slots[r] = v``, with neither the range and membership test nor the
``Memory.write`` fallback of other stores; its memory-event test stays.

The per-module cache behind :func:`compiled_program` is module-level: an
LRU keyed by module identity and checked against ``analysis_epoch``,
bounded by :data:`COMPILED_CACHE_CAP`, whose capacity evictions are
counted in the module-level ``cache_evictions``.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from operator import mul
from typing import Dict, List, Optional, Tuple

from ..lang.ir import Instr, Module, Opcode, Register
from .costmodel import OPCODE_COST
from .decoded import _BINOP_FNS, _operand_spec
from .events import FlowKind
from .failures import FailureKind
from .memory import (
    GLOBAL_BASE,
    HEAP_BASE,
    STACK_BASE,
    STACK_STRIDE,
    STRING_BASE,
    Memory,
    MemoryFault,
)
from .threads import Frame, ThreadStatus


class CompileError(Exception):
    """The module could not be lowered to Python source.

    The interpreter treats this as "no compiled tier available" and falls
    back to the decoded stream, so a codegen gap degrades speed, never
    correctness.
    """


#: Builtins whose success path writes ``ins.dst`` (via ``Interpreter._set``);
#: the generated code reloads the destination local from the frame after
#: the call.  Everything else leaves the destination local untouched.
_DST_WRITING_BUILTINS = frozenset({
    "malloc", "strlen", "strcmp", "atoi",
    "mutex_create", "cond_create", "thread_create",
})

#: Builtins that may leave ``frame.index`` unchanged (thread blocked; the
#: call re-executes on wakeup).  These compile to a retry loop.
_BLOCKING_BUILTINS = frozenset({"mutex_lock", "cond_wait", "thread_join"})

_BINOP_EXPR = {
    "+": "{a} + {b}",
    "-": "{a} - {b}",
    "*": "{a} * {b}",
    "&": "{a} & {b}",
    "|": "{a} | {b}",
    "^": "{a} ^ {b}",
    "==": "1 if {a} == {b} else 0",
    "!=": "1 if {a} != {b} else 0",
    "<": "1 if {a} < {b} else 0",
    "<=": "1 if {a} <= {b} else 0",
    ">": "1 if {a} > {b} else 0",
    ">=": "1 if {a} >= {b} else 0",
    "<<": "{a} << ({b} & 63)",
    ">>": "{a} >> ({b} & 63)",
}

_UNOP_EXPR = {
    "-": "-({a})",
    "!": "1 if ({a}) == 0 else 0",
    "~": "~({a})",
}

# ---------------------------------------------------------------------------
# Packed charges
# ---------------------------------------------------------------------------

#: Width of one opcode's count field in a packed charge.  A field only ever
#: holds a non-negative count of retired instructions, so 64 bits cannot
#: overflow in any run.
_FIELD_BITS = 64
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_FIELD_SHIFT = {op: i * _FIELD_BITS for i, op in enumerate(Opcode)}


def _charge(opcode: Opcode) -> int:
    """The packed charge of retiring one ``opcode`` instruction."""
    return 1 << _FIELD_SHIFT[opcode]


# ---------------------------------------------------------------------------
# Runtime support called from generated code
# ---------------------------------------------------------------------------


def _commit(interp, frame, step, site):
    """Publish a generator's local state at a commit ``site`` — a constant
    ``(block, index, done)``: the step counter, the frame position, and
    the packed charge of what the frame has retired on its current
    extended-block path."""
    interp.global_step = step
    frame.block, frame.index, frame.done = site


def _fail_at(interp, frame, step, site, tid, kind, pc, message):
    _commit(interp, frame, step, site)
    interp._fail(kind, tid, pc, message)


def _fault(interp, frame, step, site, tid, pc, fault):
    _commit(interp, frame, step, site)
    interp._fail(fault.kind, tid, pc, fault.detail, fault.address)


def _hang(interp, frame, step, site, tid, pc):
    _fail_at(interp, frame, step, site, tid, FailureKind.HANG, pc,
             f"exceeded {interp.max_steps} steps")


def _switcher(interp, consult):
    """The slow half of a run's gate: ``switch(tid, step)``, called when the
    draw says "switch" at the instruction retiring at ``step``, returns the
    thread to run next, or None to keep ``tid``.

    It consults over the runnable set, recomputed (which wakes the sleepers
    due by ``step``) only while ``interp._sched_dirty`` says the cached set
    may be stale.  Between two consults nothing reads a sleeper's status,
    so waking it here is waking it on time.  An answer outside the
    runnable set means its first thread, as in the other tier."""
    def switch(tid, step):
        if interp._sched_dirty:
            interp.global_step = step
            runnable = interp._runnable_tids()
        else:
            runnable = interp._runnable_cache
        chosen = consult(runnable, tid)
        if chosen == tid:
            return None
        return chosen if chosen in runnable else runnable[0]
    return switch


def _before(interp, frame, step, tid, ins, *values):
    """The step fan-out and hooks of ``ins``, which is about to execute.

    ``values`` are the instruction's register operands, in operand order;
    they are spilled into the frame (with its position) for the hooks,
    which read them through ``Interpreter.eval_operand``."""
    interp.global_step = step
    subs = interp._step_subs
    if subs is not None:
        interp.extra_cost += subs[0]
        for fn in subs[1]:
            fn(interp, tid, ins)
    hooks = interp.hooks.get(ins.uid)
    if hooks:
        frame.block = ins.block_label
        frame.index = ins.index_in_block
        if values:
            frame.regs.update(zip(
                [o.name for o in ins.operands if isinstance(o, Register)],
                values))
        for hook, hook_cost in hooks:
            interp.extra_cost += hook_cost
            hook(interp, tid, ins)


def _enter(thread, tid, memory, callee):
    """Push the frame of a user call; ``callee`` is the call site's
    constant ``(function, entry block, return dst, call pc, call line)``."""
    function, block, return_dst, call_pc, call_line = callee
    stack_base = memory._stack_tops.get(tid, STACK_BASE + tid * STACK_STRIDE)
    frame = Frame(function, block, 0, {}, return_dst, stack_base, call_pc,
                  call_line)
    thread.frames.append(frame)
    return frame


#: The per-run locals every generated function unpacks from
#: ``interp._run_locals`` (built by :meth:`CompiledProgram.start`).
_RUN_LOCALS = ("_rand, _p, _switch, _max_steps, _memory, _slots, _pre, "
               "_preb, _fb, _fj, _fc, _fr, _fm, _gb, _gf, _gm, _gm2, _e")

#: The gate local of an event kind without a lone gated handler (its
#: fan-out tests any per-handler gates): every key.  Thread ids and the
#: address of every retired load or store (a mapped slot) are non-negative
#: and far below 2**64, so the inline gate test is one membership check
#: done in C whether or not the kind is gated.
_UNGATED = range(1 << 64)


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

#: The most blocks a path inlines below its root; an edge past this
#: dispatches instead.  Each inlined block nests at most one level deeper
#: (the true arm of a branch) and one emitter call chain deeper, so this
#: bounds both the generated source's indentation (Python's tokenizer stops
#: at 100 levels) and the compiler's recursion, however deeply the source
#: nests ``if``s or chains ``else if``s.  Corpus paths inline at most 8.
_MAX_INLINE_DEPTH = 24


def _sanitize(text: str) -> str:
    out = []
    for ch in text:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    name = "".join(out)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


class _Names:
    """Collision-free identifier assignment within one namespace."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._by_key: Dict[str, str] = {}
        self._used = set()

    def get(self, key: str) -> str:
        name = self._by_key.get(key)
        if name is None:
            name = self.prefix + _sanitize(key)
            if name in self._used:
                n = 2
                while f"{name}_{n}" in self._used:
                    n += 1
                name = f"{name}_{n}"
            self._used.add(name)
            self._by_key[key] = name
        return name


class _Emitter:
    """Accumulates generated source lines with indentation tracking."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)


class _ModuleCompiler:
    """Shared per-module codegen state: the exec namespace and constants."""

    def __init__(self, module: Module) -> None:
        self.module = module
        # Replay the interpreter's deterministic global/string mapping on a
        # scratch address space (see decoded.py for why this is sound).
        layout = Memory()
        self.global_bases = {
            g.name: layout.map_global(g.name, g.size, tuple(g.init))
            for g in module.globals.values()}
        self.string_bases = [layout.map_string(s) for s in module.strings]
        self.fn_names = _Names("_fn_")
        self._const_n = 0
        self._interned: Dict[Tuple[str, object], str] = {}
        #: The packed charge each slot of a run's exit counters (``_e``)
        #: stands for; :meth:`exit_slot` assigns one slot per charge.
        self.exit_charges: List[int] = []
        self._exit_slots: Dict[int, int] = {}
        self.ns: Dict[str, object] = {
            "MemoryFault": MemoryFault,
            "_RUNNABLE": ThreadStatus.RUNNABLE,
            "_ASSERTION": FailureKind.ASSERTION,
            "_DIV0": FailureKind.DIV_BY_ZERO,
            "_JUMP": FlowKind.JUMP,
            "_CALL": FlowKind.CALL,
            "_RET": FlowKind.RET,
            "_commit": _commit,
            "_fail_at": _fail_at,
            "_fault": _fault,
            "_hang": _hang,
            "_before": _before,
            "_enter": _enter,
        }

    def operand_spec(self, operand):
        return _operand_spec(operand, self.global_bases, self.string_bases)

    def const(self, prefix: str, value) -> str:
        name = f"_{prefix}{self._const_n}"
        self._const_n += 1
        self.ns[name] = value
        return name

    def interned(self, prefix: str, value) -> str:
        """A namespace constant shared by every site with an equal value."""
        key = (prefix, value)
        name = self._interned.get(key)
        if name is None:
            name = self._interned[key] = self.const(prefix, value)
        return name

    def instr_const(self, ins: Instr) -> str:
        name = f"_i{ins.uid}"
        self.ns[name] = ins
        return name

    def exit_slot(self, charge: int) -> int:
        """The exit-counter slot of a path whose packed charge is
        ``charge``, shared by every exit with an equal charge."""
        slot = self._exit_slots.get(charge)
        if slot is None:
            slot = self._exit_slots[charge] = len(self.exit_charges)
            self.exit_charges.append(charge)
        return slot


class _FunctionCompiler:
    """Lowers one GIR function to one Python generator function."""

    def __init__(self, mc: _ModuleCompiler, fname: str, func) -> None:
        self.mc = mc
        self.fname = fname
        self.func = func
        self.e = _Emitter()
        self.mangled = mc.fn_names.get(fname)
        self.block_ids = {label: i for i, label in enumerate(func.blocks)}
        self.reg_names = _Names("r_")
        regs: List[str] = []
        seen = set(func.params)
        for param in func.params:
            self.reg_names.get(param)  # params claim their names first
        for bb in func:
            for ins in bb.instrs:
                for operand in (ins.dst, *ins.operands):
                    if isinstance(operand, Register) and \
                            operand.name not in seen:
                        seen.add(operand.name)
                        regs.append(operand.name)
        self.locals_to_zero = regs
        self.own_slots = self._own_slots()
        # The block a call starts in: the entry, or the first block when
        # the entry names no block (hand-built IR).
        self.start = func.entry if func.entry in func.blocks else \
            next(iter(func.blocks), None)
        # Predecessor edges per block: a block with exactly one, other than
        # the entry, is emitted inline at that edge.
        self.preds = Counter(
            label for ins in func.instructions()
            if ins.opcode in (Opcode.JMP, Opcode.BR)
            for label in ins.labels[:1 if ins.opcode == Opcode.JMP else 2]
            if label in self.block_ids)
        # The labels that get a dispatch arm, in emission order: every block
        # that is no other block's inline continuation, and the blocks past
        # the inlining cap as they are met.  ``depth`` counts the blocks the
        # current path has inlined below its root.
        self.arms = [label for label in func.blocks
                     if label == self.start or self.preds[label] != 1]
        self.depth = 0
        # The block being emitted, the current instruction's 1-based
        # position on its extended-block path (it retires at step
        # ``_step + k``), and the packed charge retired on that path up to
        # and including the current instruction.
        self.label = ""
        self.k = 0
        self.done = 0

    def _own_slots(self) -> Dict[str, int]:
        """``{register: index}`` of every register that names one of this
        frame's mapped stack slots from entry-block position ``index`` on.

        Such a register is no parameter and has one definition: an
        entry-block ``ALLOCA`` of at least one slot.  The entry block runs
        before any other, so in every later block the ``ALLOCA`` has run;
        its slot stays mapped until the frame returns (callees release only
        slots above it, and a stack that would grow past its thread's region
        faults instead of reaching the next thread's)."""
        defs = Counter(ins.dst.name for ins in self.func.instructions()
                       if ins.dst is not None)
        entry = self.func.blocks.get(self.func.entry)
        own: Dict[str, int] = {}
        for idx, ins in enumerate(entry.instrs if entry is not None else ()):
            if ins.opcode == Opcode.ALLOCA and ins.dst is not None and \
                    ins.size >= 1 and defs[ins.dst.name] == 1 and \
                    ins.dst.name not in self.func.params:
                own[ins.dst.name] = idx
        return own

    def reg(self, name: str) -> str:
        return self.reg_names.get(name)

    # -- emission helpers --------------------------------------------------

    def _is_builtin_call(self, ins: Instr) -> bool:
        return (ins.opcode == Opcode.CALL
                and ins.callee not in self.mc.module.functions)

    def _static_charge(self, ins: Instr) -> int:
        """The packed charge ``ins`` adds to its path.  Builtin calls charge
        per *attempt* (blocked calls retry) and are excluded — their
        emitter counts each attempt."""
        return 0 if self._is_builtin_call(ins) else _charge(ins.opcode)

    def site(self, index: int, label: Optional[str] = None,
             done: Optional[int] = None) -> str:
        """The constant of a commit site: the frame position (``label``,
        default the current block; ``index``) and the retired prefix
        ``done`` (default the current path's, through the current
        instruction)."""
        return self.mc.interned("K", (
            self.label if label is None else label, index,
            self.done if done is None else done))

    def emit_exit(self) -> None:
        """Close the current path: one more count of its packed charge."""
        self.e.line(f"_e[{self.mc.exit_slot(self.done)}] += 1")

    @property
    def step(self) -> str:
        """The step the current instruction retires at."""
        return f"_step + {self.k}"

    def emit_hang(self, site: str, pc_expr) -> None:
        self.e.line(f"if {self.k} > _room:")
        self.e.line(f"    _hang(interp, frame, {self.step}, {site}, tid, "
                    f"{pc_expr})")

    def emit_rebase(self, resumed: str, retired: int) -> None:
        """Re-base ``_step`` and ``_room`` on ``resumed``, the published
        ``global_step`` once other code ran, with ``retired`` instructions
        of the current path retired."""
        self.e.line(f"_step = {resumed} - {retired}" if retired
                    else f"_step = {resumed}")
        self.e.line("_room = _max_steps - _step")

    def emit_gate(self, site: str, resume: str = "rebase") -> None:
        """The scheduler gate: one decision per retired instruction — a
        draw, and ``_switch`` only when the draw is below the threshold
        (:meth:`~repro.runtime.scheduler.Scheduler.split_pick`).  Falls
        through when the current thread keeps running; commits and yields
        the chosen tid on a context switch.  ``_switch`` consults over the
        runnable set (:func:`_switcher`): the current thread is always in
        it here, which is what makes the split decision consume the
        scheduler's state as ``pick`` would.

        The resumed generator receives ``global_step``.  ``resume`` says
        what takes it: ``"rebase"`` re-bases ``_step`` and ``_room`` for the
        path's next instruction; ``"arm"`` sets ``_step`` for a dispatched
        block, whose entry sets ``_room``, and otherwise advances ``_step``
        past the current path; ``"leave"`` drops it, for a CALL or RET,
        after which code re-reads ``interp.global_step``."""
        e = self.e
        e.line(f"if _rand() < _p and "
               f"(_t := _switch(tid, {self.step})) is not None:")
        e.line(f"    _commit(interp, frame, {self.step}, {site})")
        e.indent += 1
        if resume == "rebase":
            self.emit_rebase("(yield _t)", self.k)
        elif resume == "arm":
            e.line("_step = yield _t")
        else:
            e.line("yield _t")
        e.indent -= 1
        if resume == "arm":
            e.line("else:")
            e.line(f"    _step += {self.k}")

    def emit_fail(self, idx: int, kind: str, pc: int, message: str) -> None:
        self.e.line(f"_fail_at(interp, frame, {self.step}, {self.site(idx)}, "
                    f"tid, {kind}, {pc}, {message!r})")

    def emit_memfault_handler(self, idx: int, uid: int) -> None:
        self.e.line("except MemoryFault as _f:")
        self.e.line(f"    _fault(interp, frame, {self.step}, "
                    f"{self.site(idx)}, tid, {uid}, _f)")

    def emit_raise(self, idx: int, make_exc) -> None:
        name = self.mc.const("k", make_exc)
        self.e.line(f"_commit(interp, frame, {self.step}, {self.site(idx)})")
        self.e.line(f"raise {name}()")

    def emit_before(self, ins: Instr, values=()) -> None:
        args = "".join(f", {v}" for v in values)
        self.e.line(f"if _h and _pre[{ins.uid}]:")
        self.e.line(f"    _before(interp, frame, {self.step}, tid, "
                    f"{self.mc.instr_const(ins)}{args})")

    def _expr(self, spec) -> str:
        kind, payload = spec
        if kind == "const":
            return repr(payload)
        return self.reg(payload)

    def _first_raise(self, specs):
        for spec in specs:
            if spec[0] == "raise":
                return spec[1]
        return None

    def _next_pc(self, bb, idx: int, ins: Instr) -> int:
        if idx + 1 < len(bb.instrs):
            return bb.instrs[idx + 1].uid
        return ins.uid  # malformed IR (no terminator): matches _current_pc

    def _block_entry_uid(self, label: str) -> int:
        instrs = self.func.blocks[label].instrs
        return instrs[0].uid if instrs else -1

    def finish_straight(self, bb, idx: int, ins: Instr) -> None:
        site = self.site(idx + 1)
        self.emit_hang(site, self._next_pc(bb, idx, ins))
        self.emit_gate(site)

    # -- per-opcode emitters ----------------------------------------------

    def emit_instr(self, bb, idx: int, ins: Instr) -> None:
        e = self.e
        op = ins.opcode
        if self._is_builtin_call(ins):
            # Builtins charge per *attempt* inside their own emitter
            # (blocked calls re-execute, and each attempt retires).
            self._emit_builtin(bb, idx, ins)
            return
        self.emit_before(ins, [self.reg(o.name) for o in ins.operands
                               if isinstance(o, Register)])
        if op in (Opcode.CONST, Opcode.MOVE):
            self._emit_move(bb, idx, ins)
        elif op == Opcode.BINOP:
            self._emit_binop(bb, idx, ins, ins.op)
        elif op == Opcode.GEP:
            self._emit_binop(bb, idx, ins, "+")
        elif op == Opcode.UNOP:
            self._emit_unop(bb, idx, ins)
        elif op == Opcode.LOAD:
            self._emit_load(bb, idx, ins)
        elif op == Opcode.STORE:
            self._emit_store(bb, idx, ins)
        elif op == Opcode.ALLOCA:
            self._emit_alloca(bb, idx, ins)
        elif op == Opcode.ASSERT:
            self._emit_assert(bb, idx, ins)
        elif op == Opcode.JMP:
            self._emit_jmp(idx, ins)
        elif op == Opcode.BR:
            self._emit_br(idx, ins)
        elif op == Opcode.RET:
            self._emit_ret(idx, ins)
        elif op == Opcode.CALL:
            self._emit_call(idx, ins)
        else:
            self.emit_raise(idx, lambda op=op: RuntimeError(
                f"unknown opcode {op}"))

    def _emit_move(self, bb, idx, ins) -> None:
        spec = self.mc.operand_spec(ins.operands[0])
        if spec[0] == "raise":
            self.emit_raise(idx, spec[1])
            return
        if ins.dst is not None:
            self.e.line(f"{self.reg(ins.dst.name)} = {self._expr(spec)}")
        self.finish_straight(bb, idx, ins)

    def _emit_binop(self, bb, idx, ins, op_str: str) -> None:
        specs = [self.mc.operand_spec(o) for o in ins.operands[:2]]
        if op_str in ("/", "%"):
            self._emit_divmod(bb, idx, ins, specs, is_div=(op_str == "/"))
            return
        template = _BINOP_EXPR.get(op_str)
        if template is None:
            self.emit_raise(idx, lambda op_str=op_str: RuntimeError(
                f"unknown binary operator {op_str!r}"))
            return
        make_exc = self._first_raise(specs)
        if make_exc is not None:
            self.emit_raise(idx, make_exc)
            return
        if ins.dst is not None:
            if specs[0][0] == "const" and specs[1][0] == "const":
                value = _BINOP_FNS[op_str](specs[0][1], specs[1][1])
                rhs = repr(value)
            else:
                rhs = template.format(a=self._expr(specs[0]),
                                      b=self._expr(specs[1]))
            self.e.line(f"{self.reg(ins.dst.name)} = {rhs}")
        self.finish_straight(bb, idx, ins)

    def _emit_divmod(self, bb, idx, ins, specs, is_div: bool) -> None:
        e = self.e
        make_exc = self._first_raise(specs)
        if make_exc is not None:
            self.emit_raise(idx, make_exc)
            return
        a, b = self._expr(specs[0]), self._expr(specs[1])
        e.line(f"if {b} == 0:")
        e.indent += 1
        self.emit_fail(idx, "_DIV0", ins.uid, "division by zero")
        e.indent -= 1
        # C semantics: truncate toward zero.  Python floors, which differs
        # when the exact quotient is negative and not whole: then the
        # quotient is one more, and the remainder takes the dividend's
        # sign instead of the divisor's.
        if is_div:
            e.line(f"_q = {a} // {b}")
            e.line(f"if _q < 0 and _q * {b} != {a}:")
            e.line("    _q += 1")
        else:
            e.line(f"_q = {a} % {b}")
            e.line(f"if _q and ({a} ^ {b}) < 0:")
            e.line(f"    _q -= {b}")
        if ins.dst is not None:
            e.line(f"{self.reg(ins.dst.name)} = _q")
        self.finish_straight(bb, idx, ins)

    def _emit_unop(self, bb, idx, ins) -> None:
        template = _UNOP_EXPR.get(ins.op)
        if template is None:
            op_str = ins.op
            self.emit_raise(idx, lambda op_str=op_str: RuntimeError(
                f"unknown unary operator {op_str!r}"))
            return
        spec = self.mc.operand_spec(ins.operands[0])
        if spec[0] == "raise":
            self.emit_raise(idx, spec[1])
            return
        if ins.dst is not None:
            self.e.line(f"{self.reg(ins.dst.name)} = "
                        f"{template.format(a=self._expr(spec))}")
        self.finish_straight(bb, idx, ins)

    def _emit_load(self, bb, idx, ins) -> None:
        e = self.e
        spec = self.mc.operand_spec(ins.operands[0])
        if spec[0] == "raise":
            self.emit_raise(idx, spec[1])
            return
        a = self._expr(spec)
        e.line("try:")
        e.indent += 1
        if spec[0] == "reg" or spec[1] >= GLOBAL_BASE:
            # Fast path: a mapped slot cannot fault on a read (free unmaps
            # a heap block, and nothing below GLOBAL_BASE is ever mapped),
            # so a hit skips Memory.read; a miss faults there.
            e.line("try:")
            e.line(f"    _v = _slots[{a}]")
            e.line("except KeyError:")
            e.line(f"    _v = _memory.read({a})")
        else:
            e.line(f"_v = _memory.read({a})")
        e.indent -= 1
        self.emit_memfault_handler(idx, ins.uid)
        # The event goes out before the destination write: ``{a}`` may name
        # the destination register (``%p = load %p`` walking a list).
        e.line(f"if _fm and ({a} in _gm or _gm2 and {a} in _gm2):")
        e.line(f"    _fm({self.step}, tid, {ins.uid}, {a}, False, _v)")
        if ins.dst is not None:
            e.line(f"{self.reg(ins.dst.name)} = _v")
        self.finish_straight(bb, idx, ins)

    def _emit_store(self, bb, idx, ins) -> None:
        e = self.e
        specs = [self.mc.operand_spec(o) for o in ins.operands[:2]]
        make_exc = self._first_raise(specs)
        if make_exc is not None:
            self.emit_raise(idx, make_exc)
            return
        a, v = self._expr(specs[0]), self._expr(specs[1])
        if self._is_own_slot(specs[0]):
            # A write to this frame's own mapped stack slot cannot fault.
            e.line(f"_slots[{a}] = {v}")
        else:
            e.line("try:")
            e.indent += 1
            if specs[0][0] == "reg":
                # Fast path mirrors Memory.write: a mapped slot outside the
                # read-only string data cannot fault on a write.
                e.line(f"if ({a} < {STRING_BASE} or {a} >= {HEAP_BASE}) "
                       f"and {a} in _slots:")
                e.line(f"    _slots[{a}] = {v}")
                e.line("else:")
                e.line(f"    _memory.write({a}, {v})")
            else:
                addr = specs[0][1]
                if not STRING_BASE <= addr < HEAP_BASE:
                    e.line(f"if {addr} in _slots:")
                    e.line(f"    _slots[{addr}] = {v}")
                    e.line("else:")
                    e.line(f"    _memory.write({addr}, {v})")
                else:
                    e.line(f"_memory.write({addr}, {v})")
            e.indent -= 1
            self.emit_memfault_handler(idx, ins.uid)
        e.line(f"if _fm and ({a} in _gm or _gm2 and {a} in _gm2):")
        e.line(f"    _fm({self.step}, tid, {ins.uid}, {a}, True, {v})")
        self.finish_straight(bb, idx, ins)

    def _is_own_slot(self, spec) -> bool:
        """Whether the address operand ``spec`` names this frame's own
        mapped stack slot at the current instruction: an own-slot register
        (:meth:`_own_slots`) past its entry-block ``ALLOCA``."""
        if spec[0] != "reg" or spec[1] not in self.own_slots:
            return False
        # The entry block is always a path's root, so there ``k`` is the
        # instruction's 1-based position in the block.
        return self.label != self.func.entry or \
            self.k > self.own_slots[spec[1]] + 1

    def _emit_alloca(self, bb, idx, ins) -> None:
        e = self.e
        dst = f"{self.reg(ins.dst.name)} = " if ins.dst is not None else ""
        e.line("try:")
        e.line(f"    {dst}_memory.stack_alloc(tid, {ins.size})")
        self.emit_memfault_handler(idx, ins.uid)
        self.finish_straight(bb, idx, ins)

    def _emit_assert(self, bb, idx, ins) -> None:
        e = self.e
        spec = self.mc.operand_spec(ins.operands[0])
        if spec[0] == "raise":
            self.emit_raise(idx, spec[1])
            return
        e.line(f"if {self._expr(spec)} == 0:")
        e.indent += 1
        self.emit_fail(idx, "_ASSERTION", ins.uid,
                       ins.text or "assertion failed")
        e.indent -= 1
        self.finish_straight(bb, idx, ins)

    def _emit_arm(self, label: str) -> None:
        """Transfer to ``label``'s block once the terminator has retired.

        A block whose only predecessor edge this is extends the current
        path: its code follows here, unless the path has inlined
        :data:`_MAX_INLINE_DEPTH` blocks already.  Any other target closes
        the path at an exit and dispatches through ``_b``, so the commit
        site holds the target position and nothing retired on its path."""
        inlined = label != self.start and self.preds[label] == 1
        if inlined and self.depth < _MAX_INLINE_DEPTH:
            site = self.site(0, label=label)
            self.emit_hang(site, self._block_entry_uid(label))
            self.emit_gate(site)
            self.depth += 1
            self.emit_block(label, self.k, self.done)
            self.depth -= 1
            return
        if inlined:  # past the cap, its one edge dispatches to its own arm
            self.arms.append(label)
        self.emit_exit()
        site = self.site(0, label=label, done=0)
        self.emit_hang(site, self._block_entry_uid(label))
        self.emit_gate(site, resume="arm")
        self.e.line(f"_b = {self.block_ids[label]}")
        self.e.line("continue")

    def _emit_jmp(self, idx, ins) -> None:
        label = ins.labels[0]
        if label not in self.block_ids:
            self.emit_raise(idx, lambda label=label: KeyError(label))
            return
        self.e.line("if _fj and tid in _gf:")
        self.e.line(f"    _fj({self.step}, tid, {ins.uid}, _JUMP, {label!r}, "
                    f"-1)")
        self._emit_arm(label)

    def _emit_br(self, idx, ins) -> None:
        e = self.e
        then_label, else_label = ins.labels[0], ins.labels[1]
        missing = then_label if then_label not in self.block_ids else (
            else_label if else_label not in self.block_ids else None)
        if missing is not None:
            self.emit_raise(idx, lambda missing=missing: KeyError(missing))
            return
        spec = self.mc.operand_spec(ins.operands[0])
        if spec[0] == "raise":
            self.emit_raise(idx, spec[1])
            return

        def arm(taken: bool) -> None:
            label = then_label if taken else else_label
            e.line("if _fb and tid in _gb:")
            e.line(f"    _fb({self.step}, tid, {ins.uid}, {taken}, {label!r})")
            self._emit_arm(label)

        if spec[0] == "const":
            arm(spec[1] != 0)
            return
        e.line(f"if {self.reg(spec[1])} != 0:")
        e.indent += 1
        arm(True)
        e.indent -= 1
        arm(False)

    def _emit_ret(self, idx, ins) -> None:
        e = self.e
        if ins.operands:
            spec = self.mc.operand_spec(ins.operands[0])
            if spec[0] == "raise":
                self.emit_raise(idx, spec[1])
                return
            e.line(f"_v = {self._expr(spec)}")
        else:
            e.line("_v = 0")
        self.emit_exit()
        site = self.site(idx, done=0)
        e.line(f"_commit(interp, frame, {self.step}, {site})")
        e.line("_frames = thread.frames")
        e.line("_frames.pop()")
        e.line("_memory.stack_release(tid, frame.stack_base)")
        e.line("if not _frames:")
        e.indent += 1
        # Thread exit: a PT-style tracer sees a return with no resolvable
        # target; then _finish_thread raises _ProgramExit for tid 0, else
        # marks the thread FINISHED.
        e.line("if _fr and tid in _gf:")
        e.line(f"    _fr({self.step}, tid, {ins.uid}, _RET, {self.fname!r}, "
               f"-1)")
        e.line("interp._finish_thread(thread, _v)")
        self.emit_hang(site, -1)
        e.line("return _v")
        e.indent -= 1
        # The caller committed its position at the CALL; advancing its
        # index keeps _current_pc exact (the RET event's target, hang and
        # deadlock reports, PT window ends).
        e.line("_frames[-1].index += 1")
        e.line("if _fr and tid in _gf:")
        e.line(f"    _fr({self.step}, tid, {ins.uid}, _RET, {self.fname!r}, "
               f"interp._current_pc(thread))")
        self.emit_hang(site, "interp._current_pc(thread)")
        self.emit_gate(site, resume="leave")
        e.line("return _v")

    def _emit_call(self, idx, ins) -> None:
        e = self.e
        callee = ins.callee
        func = self.mc.module.functions[callee]
        specs = [self.mc.operand_spec(o) for o in ins.operands]
        make_exc = self._first_raise(specs)
        if make_exc is not None:
            self.emit_raise(idx, make_exc)
            return
        arg_exprs = [self._expr(s) for s in specs]
        param_exprs = [arg_exprs[j] if j < len(arg_exprs) else "0"
                       for j in range(len(func.params))]
        # The caller's position stays at the CALL until the callee returns
        # (its RET advances the index).
        site = self.site(idx)
        e.line(f"_commit(interp, frame, {self.step}, {site})")
        e.line("if _fc and tid in _gf:")
        e.line(f"    _fc({self.step}, tid, {ins.uid}, _CALL, {callee!r}, -1)")
        entry = self.mc.const("E", (callee, func.entry, ins.dst, ins.uid,
                                    ins.line))
        e.line(f"_nf = _enter(thread, tid, _memory, {entry})")
        entry_instrs = func.blocks[func.entry].instrs \
            if func.entry in func.blocks else ()
        self.emit_hang(site, entry_instrs[0].uid if entry_instrs else -1)
        self.emit_gate(site, resume="leave")  # the callee reads global_step
        target = self.mc.fn_names.get(callee)
        args = ", ".join(["interp", "tid", "thread", "_nf", *param_exprs])
        if ins.dst is not None:
            e.line(f"{self.reg(ins.dst.name)} = yield from {target}({args})")
        else:
            e.line(f"yield from {target}({args})")
        self.emit_rebase("interp.global_step", self.k)

    def _emit_builtin(self, bb, idx, ins) -> None:
        e = self.e
        name = ins.callee
        iconst = self.mc.instr_const(ins)
        spilled = set()
        for operand in ins.operands:
            if isinstance(operand, Register) and operand.name not in spilled:
                spilled.add(operand.name)
                e.line(f"_regs[{operand.name!r}] = {self.reg(operand.name)}")
        site = self.site(idx)
        blocking = name in _BLOCKING_BUILTINS

        def attempt() -> None:
            e.line(f"_e[{self.mc.exit_slot(_charge(Opcode.CALL))}] += 1")
            e.line(f"_commit(interp, frame, {self.step}, {site})")
            self.emit_before(ins)  # registers were spilled above
            e.line("try:")
            e.line(f"    interp._do_builtin(tid, thread, {iconst})")
            self.emit_memfault_handler(idx, ins.uid)

        if blocking:
            # Re-execute on every wakeup until the builtin advances the
            # frame — each attempt is one retired instruction, exactly as
            # in the decoded tier.
            e.line("while True:")
            e.indent += 1
            attempt()
            e.line(f"if frame.index != {idx}:")
            e.line("    break")
            self.emit_hang(site, ins.uid)
            # The retry retires as this block's instruction k again.
            self.emit_rebase("(yield None)", self.k - 1)
            e.indent -= 1
        else:
            attempt()
        if ins.dst is not None and name in _DST_WRITING_BUILTINS:
            e.line(f"{self.reg(ins.dst.name)} = _regs[{ins.dst.name!r}]")
        after = self.site(idx + 1)
        self.emit_hang(after, self._next_pc(bb, idx, ins))
        if name == "usleep":
            # usleep advances the frame but puts the thread to sleep: no
            # pick is consumed; the main loop advances virtual time.
            e.line("if thread.status is _RUNNABLE:")
            e.indent += 1
            self.emit_gate(after)
            e.indent -= 1
            e.line("else:")
            e.indent += 1
            self.emit_rebase("(yield None)", self.k)
            e.indent -= 1
        else:
            self.emit_gate(after)

    # -- whole-function assembly ------------------------------------------

    def emit_block(self, label: str, k: int, done: int) -> None:
        """Emit ``label``'s block on a path that has retired ``k``
        instructions, of packed charge ``done``, before it (both 0 at a
        dispatch arm)."""
        e = self.e
        saved = self.label, self.k, self.done
        bb = self.func.blocks[label]
        self.label = label
        if bb.instrs:
            if not k:
                # ``_step`` holds the step before the path: the budget left
                # to it.
                e.line("_room = _max_steps - _step")
            # Whether any of the block's instructions is hooked.
            e.line(f"_h = _preb and _preb[{bb.instrs[0].uid}]")
        for idx, ins in enumerate(bb.instrs):
            self.k = k + idx + 1
            self.done = done = done + self._static_charge(ins)
            self.emit_instr(bb, idx, ins)
        last = bb.instrs[-1] if bb.instrs else None
        if last is None or last.opcode not in (Opcode.JMP, Opcode.BR,
                                               Opcode.RET):
            # Fall-through off a block end: the decoded tier would
            # IndexError fetching the next record; match it.
            e.line("raise IndexError('list index out of range')")
        self.label, self.k, self.done = saved

    def compile(self) -> str:
        e = self.e
        params = [self.reg(p) for p in self.func.params]
        sig = ", ".join(["interp", "tid", "thread", "frame", *params])
        e.line(f"def {self.mangled}({sig}):")
        e.indent += 1
        e.line("if 0:")
        e.line("    yield")  # every compiled function is a generator
        e.line(f"{_RUN_LOCALS} = interp._run_locals")
        e.line("_regs = frame.regs")
        e.line("_step = interp.global_step")
        if self.locals_to_zero:
            e.line(" = ".join(self.reg(n) for n in self.locals_to_zero)
                   + " = 0")
        e.line(f"_b = {self.block_ids.get(self.start, 0)}")
        e.line("while True:")
        e.indent += 1
        for n, label in enumerate(self.arms):
            e.line(f"{'elif' if n else 'if'} _b == {self.block_ids[label]}:")
            e.indent += 1
            self.emit_block(label, 0, 0)
            e.indent -= 1
        if not self.arms:  # function with no blocks at all
            e.line("raise IndexError('list index out of range')")
        e.indent -= 2
        return "\n".join(e.lines)


def _hook_flags(module: Module, hooks, size: int):
    """The ``_pre`` and ``_preb`` flags of a run without step subscribers.

    ``_pre`` is set at each uid that carries a hook, and ``_preb`` at the
    entry uid of each block holding one (a block's uids are consecutive).
    Both are None when no instruction of the module is hooked (a hook on a
    uid outside the module never fires)."""
    flags = [False] * size
    blocks = [False] * size
    for uid, hook_list in hooks.items():
        if hook_list and 0 <= uid < size:
            flags[uid] = True
            blocks[uid - module.instr(uid).index_in_block] = True
    if True not in flags:
        return None, None
    return tuple(flags), tuple(blocks)


def _site_gates(interp) -> Tuple[object, object]:
    """``_gm`` and ``_gm2``: the gates a memory access site tests before
    calling the fan-out.

    A lone, cost-free handler's gate alone; both gates when the kind has
    two handlers, both gated, and nobody pays for it (a detector and a
    watchpoint unit: an access outside both costs no call); else
    :data:`_UNGATED`, and the fan-out tests each handler's gate."""
    if interp._mem_gate is not None:
        return interp._mem_gate, None
    subs, gates = interp._mem_subs, interp._mem_gates
    if subs is not None and not subs[0] and len(gates) == 2 and \
            None not in gates:
        return gates[0], gates[1]
    return _UNGATED, None


class CompiledProgram:
    """The exec-compiled generator functions for every function of a module."""

    __slots__ = ("module", "epoch", "source_bytes", "functions", "params",
                 "every_uid", "exit_charges")

    def __init__(self, module: Module) -> None:
        if not module.finalized:
            raise ValueError("module must be finalized")
        self.module = module
        self.epoch = module.analysis_epoch
        try:
            mc = _ModuleCompiler(module)
            ns = mc.ns
            filename = f"<gir-compiled:{id(module):#x}@{self.epoch}>"
            #: Size of the generated source; the source itself is dropped
            #: once compiled, since only the code objects run.
            self.source_bytes = 0
            for fname, func in module.functions.items():
                chunk = _FunctionCompiler(mc, fname, func).compile()
                # One function at a time: the syntax tree of a whole
                # module's source was the peak of its set-up memory.
                exec(compile(chunk, filename, "exec"), ns)
                self.source_bytes += len(chunk)
            self.functions = {fname: ns[mc.fn_names.get(fname)]
                              for fname in module.functions}
            self.params = {fname: tuple(func.params)
                           for fname, func in module.functions.items()}
            #: The packed charge of each slot of a run's exit counters.
            self.exit_charges = tuple(mc.exit_charges)
            #: The ``_pre`` and ``_preb`` flags of runs with step
            #: subscribers, whose fan-out precedes every instruction: set
            #: at every uid.
            self.every_uid = (True,) * (max(
                (ins.uid for ins in module.instructions()), default=-1) + 1)
        except Exception as exc:
            raise CompileError(f"GIR compilation failed: {exc}") from exc

    def start(self, interp) -> None:
        """Sample the run's instrumentation and scheduler split into the
        locals every generated function unpacks (:data:`_RUN_LOCALS`),
        with the run's ``_switch`` (:func:`_switcher`) and its zeroed exit
        counters.

        Subscriber lists, gate objects and hooks are fixed for a run, so
        this happens once per run, like ``Interpreter._compute_dispatch``;
        a gate's contents stay live (its tracer mutates it in place)."""
        if interp._step_subs is not None:
            pre = preb = self.every_uid
        else:
            pre, preb = _hook_flags(self.module, interp.hooks,
                                    len(self.every_uid))
        draw, threshold, consult = interp.scheduler.split_pick()
        memory = interp.memory
        fires = interp._flow_fires
        interp._exits = [0] * len(self.exit_charges)
        interp._run_locals = (
            draw, threshold, _switcher(interp, consult), interp.max_steps,
            memory, memory._slots, pre, preb,
            interp._fire_branch if interp._branch_subs is not None else None,
            fires[FlowKind.JUMP], fires[FlowKind.CALL], fires[FlowKind.RET],
            interp._fire_mem if interp._mem_subs is not None else None,
            *[_UNGATED if gate is None else gate for gate in (
                interp._branch_gate, interp._flow_gate)],
            *_site_gates(interp),
            interp._exits,
        )

    def settle(self, interp) -> None:
        """Unpack the run's retired charges into ``interp.cost``: every
        closed path, as its exit count times its packed charge (builtin
        attempts included), and every open one, as the ``done`` of each
        frame still on a thread's stack."""
        packed = sum(map(mul, interp._exits, self.exit_charges))
        for thread in interp.threads.values():
            for frame in thread.frames:
                packed += frame.done
        cost = interp.cost
        counts = cost.counts
        for op, shift in _FIELD_SHIFT.items():
            n = (packed >> shift) & _FIELD_MASK
            if n:
                counts[op.value] = counts.get(op.value, 0) + n
                cost.base_cost += n * OPCODE_COST[op]

    def thread_gen(self, interp, tid: int):
        """A fresh generator driving ``tid``'s root frame (which sits at
        its function's entry block, index 0 — thread starts only)."""
        thread = interp.threads[tid]
        frame = thread.frames[-1]
        regs = frame.regs
        fn = self.functions[frame.function]
        args = [regs.get(p, 0) for p in self.params[frame.function]]
        return fn(interp, tid, thread, frame, *args)


# ---------------------------------------------------------------------------
# The per-module cache: bounded LRU with an eviction counter
# ---------------------------------------------------------------------------

#: Maximum number of modules whose compiled programs stay resident.  Unlike
#: the decoded tier's weak cache, compiled programs hold exec'd code
#: objects, so the cache is bounded (fleet campaigns touch one module; the
#: cap only matters for corpus-wide sweeps).
COMPILED_CACHE_CAP = 32

_CACHE: "OrderedDict[Module, CompiledProgram]" = OrderedDict()

#: Monotonic count of capacity evictions (tests assert on deltas).
cache_evictions = 0


def compiled_program(module: Module) -> CompiledProgram:
    """The (cached) compiled program for ``module``.

    Keyed by module identity; a bumped ``analysis_epoch`` (re-finalize)
    transparently rebuilds the entry.  LRU-bounded by
    :data:`COMPILED_CACHE_CAP`.
    """
    global cache_evictions
    program = _CACHE.get(module)
    if program is not None and program.epoch == module.analysis_epoch:
        _CACHE.move_to_end(module)
        return program
    program = CompiledProgram(module)
    _CACHE[module] = program
    _CACHE.move_to_end(module)
    while len(_CACHE) > COMPILED_CACHE_CAP:
        _CACHE.popitem(last=False)
        cache_evictions += 1
    return program
