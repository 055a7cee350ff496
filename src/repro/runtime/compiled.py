"""GIR → Python source compilation: the interpreter's top speed tier.

The decoded tier (:mod:`repro.runtime.decoded`) pays one Python *call* per
retired instruction — the interpreter loop indexes a step-record list and
invokes a closure.  This module removes that last per-step call: every GIR
function is lowered to real Python source — one generator function per GIR
function, straight-line statements per basic block, native control flow via
dispatch on an integer block id, and *frame locals* instead of register-dict
probes — then ``exec``-compiled once per module and cached.

Execution protocol
------------------

Compiled functions are Python *generators* so that the scheduler contract
(its state advances as one
:meth:`~repro.runtime.scheduler.Scheduler.pick` per retired instruction
would advance it, including single-thread runs) survives compilation:

- After every retired instruction the generated code runs an inline *gate*
  over the halves of the scheduler's decision
  (:meth:`~repro.runtime.scheduler.Scheduler.split_pick`):
  ``if _rand() < _p and (_t := _consult(_rn, tid)) != tid:``.  For the
  random scheduler ``_rand`` is its RNG's C-level ``random``, so a step
  that keeps the current thread costs one draw and one float compare and
  calls no Python scheduler code; schedulers that do not split their
  decision consult ``pick`` on every step through the same line.  When the consult selects a different thread the generator commits
  its local accounting and yields the chosen tid;
  :meth:`Interpreter._loop_compiled` resumes that thread's generator
  directly (the step's decision has already been consumed).
- ``yield None`` means *no* decision was consumed (the thread blocked or
  went to sleep); the main loop runs a full runnable/pick cycle.
- Every resume of a generator — including the first — therefore means one
  decision has already been spent on this thread, and the generator
  executes the next instruction body with no preceding gate.  A resume
  sends the interpreter's ``(global_step, _sched_dirty,
  _runnable_cache)``, which the generator mirrors in locals.
- User calls are linked by ``yield from``, so a context switch deep in a
  call chain suspends/resumes the whole chain in one step.

Accounting
----------

``global_step`` lives in a local and is published at every *commit*: before
every yield, builtin call, user call/return, hook, and failure.  A commit
also publishes the frame position (block and index), so at hooks, yields,
failures and run end every thread's ``_current_pc`` is exact.  Event
fan-outs (step, branch, flow, memory) publish only ``global_step``: inside
those handlers the call stack and ``extra_cost`` are exact, but the
current thread's innermost frame position is the last commit's — the
event's ``pc`` names the instruction.

Base cost and per-opcode counts accumulate as one *packed charge*: an
integer holding one :data:`_FIELD_BITS`-wide count field per opcode.  A
block adds its whole static charge on entry (one big-int add); a commit
hands the interpreter everything but the pre-charge of the block's
unretired remainder (the *rest*, a constant of the commit site), and keeps
the rest.  The interpreter unpacks its total into
:class:`~repro.runtime.costmodel.CostModel` when the run ends
(:meth:`CompiledProgram.settle`), so each commit site is a single call
instead of a per-opcode update block.

Instrumentation
---------------

One compiled program serves plain and instrumented runs alike.  The
subscriber lists, gates and hooks are sampled at run start into locals
(:meth:`CompiledProgram.start`):

- ``_pre`` is ``None`` without step subscribers and hooks — plain runs pay
  one local truth test per instruction — else the set of uids whose
  instruction needs the step fan-out and hooks (:func:`_before`);
- ``_fb`` / ``_ff`` / ``_fm`` are the run's branch / flow / memory fan-outs
  (``Interpreter._fire_*``), or ``None`` when nobody pays or listens for
  that kind;
- ``_gb`` / ``_gf`` / ``_gm`` are the kinds' gates: the gate the kind's
  lone, cost-free handler declared (:func:`repro.runtime.events.gate`) —
  the live set of traced thread ids (branch, flow) or watched addresses,
  or a detector's constant global-and-heap range (memory) — else
  :data:`_UNGATED`, a range holding every key.  An event site runs
  ``if _fm and addr in _gm:``, so a plain run still pays one truth test
  and a lone gated handler costs no Python call outside its gate; with
  several handlers the fan-out tests each handler's gate and builds no
  event none of them takes.  The gate object is sampled once; its tracer
  mutates it in place, so a hook that arms a watchpoint or opens a PT
  window changes what every later event site sees, the hooked
  instruction's own included.

Hooks fire before their instruction, after the step count and the step
fan-out, once per retired instruction (each retry of a blocking builtin
included); they see the exact frame position and the registers the
instruction reads (spilled into the frame for ``eval_operand``).  Events
carry the instruction's step and come in the decoded tier's order.
Blocking builtins re-execute exactly like both other tiers: the generated
code spills live registers and commits before delegating to
``Interpreter._do_builtin``, and retries on every wakeup.

The per-module cache (:func:`compiled_program`) is a bounded LRU keyed by
module identity and ``analysis_epoch``;
:meth:`repro.analysis.context.AnalysisContext.compiled_program` wraps it
with the context's hit/miss/eviction counters, mirroring ``decoded``.
"""

from __future__ import annotations

from collections import OrderedDict
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


def _commit(interp, frame, step, acc, site):
    """Publish a generator's local state at a commit ``site`` — a constant
    ``(block, index, rest)``: the step counter, the frame position, and
    every charge in ``acc`` except the unretired ``rest``, which the
    generator keeps (this function returns it)."""
    interp.global_step = step
    frame.block, frame.index, rest = site
    interp._charges += acc - rest
    return rest


def _fail_at(interp, frame, step, acc, site, tid, kind, pc, message):
    _commit(interp, frame, step, acc, site)
    interp._fail(kind, tid, pc, message)


def _fault(interp, frame, step, acc, site, tid, pc, fault):
    _commit(interp, frame, step, acc, site)
    interp._fail(fault.kind, tid, pc, fault.detail, fault.address)


def _hang(interp, frame, step, acc, site, tid, pc):
    _fail_at(interp, frame, step, acc, site, tid, FailureKind.HANG, pc,
             f"exceeded {interp.max_steps} steps")


def _refresh(interp, step):
    """The runnable set and dirty flag, recomputed at ``step``."""
    interp.global_step = step
    return interp._runnable_tids(), interp._sched_dirty


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
_RUN_LOCALS = ("_rand, _p, _consult, _max_steps, _memory, _slots, _pre, "
               "_fb, _ff, _fm, _gb, _gf, _gm")

#: The gate local of an event kind without a lone gated handler (its
#: fan-out tests any per-handler gates): every key.  Thread ids and the
#: address of every retired load or store (a mapped slot) are non-negative
#: and far below 2**64, so the inline gate test is one membership check
#: done in C whether or not the kind is gated.
_UNGATED = range(1 << 64)


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


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
        self.ns: Dict[str, object] = {
            "MemoryFault": MemoryFault,
            "_RUNNABLE": ThreadStatus.RUNNABLE,
            "_ASSERTION": FailureKind.ASSERTION,
            "_DIV0": FailureKind.DIV_BY_ZERO,
            "_JUMP": FlowKind.JUMP,
            "_CALL": FlowKind.CALL,
            "_RET": FlowKind.RET,
            "_CALL_CHARGE": _charge(Opcode.CALL),
            "_commit": _commit,
            "_fail_at": _fail_at,
            "_fault": _fault,
            "_hang": _hang,
            "_refresh": _refresh,
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
        # The block being emitted and the packed charge of its instructions
        # after the current one: pre-charged on block entry, not retired.
        self.label = ""
        self.rest = 0

    def reg(self, name: str) -> str:
        return self.reg_names.get(name)

    # -- emission helpers --------------------------------------------------

    def _is_builtin_call(self, ins: Instr) -> bool:
        return (ins.opcode == Opcode.CALL
                and ins.callee not in self.mc.module.functions)

    def _static_charge(self, ins: Instr) -> int:
        """The packed charge block entry pre-charges for ``ins``.  Builtin
        calls charge per *attempt* (blocked calls retry) and are excluded —
        their emitter charges dynamically."""
        return 0 if self._is_builtin_call(ins) else _charge(ins.opcode)

    def site(self, index: int, label: Optional[str] = None,
             rest: Optional[int] = None) -> str:
        """The constant of a commit site: the frame position (``label``,
        default the current block; ``index``) and the unretired ``rest``
        (default the current block's)."""
        return self.mc.interned("K", (
            self.label if label is None else label, index,
            self.rest if rest is None else rest))

    def emit_hang(self, site: str, pc_expr) -> None:
        self.e.line("if _step > _max_steps:")
        self.e.line(f"    _hang(interp, frame, _step, _acc, {site}, tid, "
                    f"{pc_expr})")

    def emit_gate(self, site: str) -> None:
        """The scheduler gate: one decision per retired instruction — a
        draw, and a consult only when the draw is below the threshold
        (:meth:`~repro.runtime.scheduler.Scheduler.split_pick`).  Falls
        through when the current thread keeps running; commits and yields
        the chosen tid on a context switch (a scheduler answer outside the
        runnable set means its first thread, as in the other tiers).

        ``_dirty`` and ``_rn`` locally mirror ``interp._sched_dirty`` /
        ``interp._runnable_cache``: between resume points only this thread
        executes, so the mirrors are refreshed only after yields, calls,
        and builtins — the hot gate touches no interpreter attributes.
        The current thread is always in ``_rn`` here, which is what makes
        the split decision consume the scheduler's state as ``pick`` would.
        """
        e = self.e
        e.line("if _dirty:")
        e.line("    _rn, _dirty = _refresh(interp, _step)")
        e.line("if _rand() < _p and (_t := _consult(_rn, tid)) != tid:")
        e.line(f"    _acc = _commit(interp, frame, _step, _acc, {site})")
        e.line("    _step, _dirty, _rn = yield _t if _t in _rn else _rn[0]")

    def emit_resync(self) -> None:
        """Re-mirror interpreter state into locals after other code ran."""
        e = self.e
        e.line("_step = interp.global_step")
        e.line("_dirty = interp._sched_dirty")
        e.line("_rn = interp._runnable_cache")

    def emit_fail(self, idx: int, kind: str, pc: int, message: str) -> None:
        self.e.line(f"_fail_at(interp, frame, _step, _acc, {self.site(idx)}, "
                    f"tid, {kind}, {pc}, {message!r})")

    def emit_memfault_handler(self, idx: int, uid: int) -> None:
        self.e.line("except MemoryFault as _f:")
        self.e.line(f"    _fault(interp, frame, _step, _acc, "
                    f"{self.site(idx)}, tid, {uid}, _f)")

    def emit_raise(self, idx: int, make_exc) -> None:
        name = self.mc.const("k", make_exc)
        self.e.line(f"_commit(interp, frame, _step, _acc, {self.site(idx)})")
        self.e.line(f"raise {name}()")

    def emit_before(self, ins: Instr, values=()) -> None:
        args = "".join(f", {v}" for v in values)
        self.e.line(f"if _pre and {ins.uid} in _pre:")
        self.e.line(f"    _before(interp, frame, _step, tid, "
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
        # The instruction's charge was pre-charged at block entry.
        e.line("_step += 1")
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
        e.line(f"_va = {self._expr(specs[0])}")
        e.line(f"_vb = {self._expr(specs[1])}")
        e.line("if _vb == 0:")
        e.indent += 1
        self.emit_fail(idx, "_DIV0", ins.uid, "division by zero")
        e.indent -= 1
        # C semantics: truncate toward zero.
        e.line("_q = abs(_va) // abs(_vb)")
        e.line("if (_va < 0) != (_vb < 0):")
        e.line("    _q = -_q")
        if ins.dst is not None:
            dst = self.reg(ins.dst.name)
            e.line(f"{dst} = _q" if is_div else f"{dst} = _va - _q * _vb")
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
        e.line(f"if _fm and {a} in _gm:")
        e.line(f"    _fm(_step, tid, {ins.uid}, {a}, False, _v)")
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
        e.line(f"if _fm and {a} in _gm:")
        e.line(f"    _fm(_step, tid, {ins.uid}, {a}, True, {v})")
        self.finish_straight(bb, idx, ins)

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
        """Transfer to ``label``'s block: the terminator has retired, so the
        commit site holds the target position and nothing unretired."""
        site = self.site(0, label=label, rest=0)
        self.emit_hang(site, self._block_entry_uid(label))
        self.emit_gate(site)
        self.e.line(f"_b = {self.block_ids[label]}")
        self.e.line("continue")

    def _emit_jmp(self, idx, ins) -> None:
        label = ins.labels[0]
        if label not in self.block_ids:
            self.emit_raise(idx, lambda label=label: KeyError(label))
            return
        self.e.line("if _ff and tid in _gf:")
        self.e.line(f"    _ff(_step, tid, {ins.uid}, _JUMP, {label!r}, -1)")
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
            e.line(f"    _fb(_step, tid, {ins.uid}, {taken}, {label!r})")
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
        site = self.site(idx)
        e.line(f"_acc = _commit(interp, frame, _step, _acc, {site})")
        e.line("_frames = thread.frames")
        e.line("_frames.pop()")
        e.line("_memory.stack_release(tid, frame.stack_base)")
        e.line("if not _frames:")
        e.indent += 1
        # Thread exit: a PT-style tracer sees a return with no resolvable
        # target; then _finish_thread raises _ProgramExit for tid 0, else
        # marks the thread FINISHED.
        e.line("if _ff and tid in _gf:")
        e.line(f"    _ff(_step, tid, {ins.uid}, _RET, {self.fname!r}, -1)")
        e.line("interp._finish_thread(thread, _v)")
        self.emit_hang(site, -1)
        e.line("return _v")
        e.indent -= 1
        # The caller committed its position at the CALL; advancing its
        # index keeps _current_pc exact (the RET event's target, hang and
        # deadlock reports, PT window ends).
        e.line("_frames[-1].index += 1")
        e.line("if _ff and tid in _gf:")
        e.line(f"    _ff(_step, tid, {ins.uid}, _RET, {self.fname!r}, "
               f"interp._current_pc(thread))")
        self.emit_hang(site, "interp._current_pc(thread)")
        self.emit_gate(site)
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
        e.line(f"_acc = _commit(interp, frame, _step, _acc, {site})")
        e.line("if _ff and tid in _gf:")
        e.line(f"    _ff(_step, tid, {ins.uid}, _CALL, {callee!r}, -1)")
        entry = self.mc.const("E", (callee, func.entry, ins.dst, ins.uid,
                                    ins.line))
        e.line(f"_nf = _enter(thread, tid, _memory, {entry})")
        entry_instrs = func.blocks[func.entry].instrs \
            if func.entry in func.blocks else ()
        self.emit_hang(site, entry_instrs[0].uid if entry_instrs else -1)
        self.emit_gate(site)
        target = self.mc.fn_names.get(callee)
        args = ", ".join(["interp", "tid", "thread", "_nf", *param_exprs])
        if ins.dst is not None:
            e.line(f"{self.reg(ins.dst.name)} = yield from {target}({args})")
        else:
            e.line(f"yield from {target}({args})")
        self.emit_resync()

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
            e.line("_step += 1")
            e.line("_acc += _CALL_CHARGE")
            e.line(f"_acc = _commit(interp, frame, _step, _acc, {site})")
            self.emit_before(ins)  # registers were spilled above
            e.line("try:")
            e.line(f"    interp._do_builtin(tid, thread, {iconst})")
            self.emit_memfault_handler(idx, ins.uid)
            # Builtins may change thread states (wake, spawn, block).
            e.line("_dirty = interp._sched_dirty")

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
            e.line("_step, _dirty, _rn = yield None")
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
            e.line("    _step, _dirty, _rn = yield None")
        else:
            self.emit_gate(after)

    # -- whole-function assembly ------------------------------------------

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
        e.line("_dirty = interp._sched_dirty")
        e.line("_rn = interp._runnable_cache")
        e.line("_acc = 0")
        if self.locals_to_zero:
            e.line(" = ".join(self.reg(n) for n in self.locals_to_zero)
                   + " = 0")
        entry_id = self.block_ids.get(self.func.entry, 0)
        e.line(f"_b = {entry_id}")
        e.line("while True:")
        e.indent += 1
        first = True
        for label, bb in self.func.blocks.items():
            e.line(f"{'if' if first else 'elif'} _b == "
                   f"{self.block_ids[label]}:")
            first = False
            e.indent += 1
            # Pre-charge the block's whole static charge; every commit site
            # keeps back the unretired rest, so committed accounting is
            # exact at every observation point.
            charges = [self._static_charge(ins) for ins in bb.instrs]
            if any(charges):
                e.line(f"_acc += {self.mc.interned('P', sum(charges))}")
            self.label = label
            for idx, ins in enumerate(bb.instrs):
                self.rest = sum(charges[idx + 1:])
                self.emit_instr(bb, idx, ins)
            last = bb.instrs[-1] if bb.instrs else None
            if last is None or last.opcode not in (Opcode.JMP, Opcode.BR,
                                                   Opcode.RET):
                # Fall-through off a block end: the decoded tier would
                # IndexError fetching the next record; match it.
                e.line("raise IndexError('list index out of range')")
            e.indent -= 1
        if first:  # function with no blocks at all
            e.line("raise IndexError('list index out of range')")
        e.indent -= 2
        return "\n".join(e.lines)


class CompiledProgram:
    """The exec-compiled generator functions for every function of a module."""

    __slots__ = ("module", "epoch", "source", "functions", "params", "uids")

    def __init__(self, module: Module) -> None:
        if not module.finalized:
            raise ValueError("module must be finalized")
        self.module = module
        self.epoch = module.analysis_epoch
        try:
            mc = _ModuleCompiler(module)
            chunks = []
            for fname, func in module.functions.items():
                chunks.append(_FunctionCompiler(mc, fname, func).compile())
            self.source = "\n\n".join(chunks)
            code = compile(self.source,
                           f"<gir-compiled:{id(module):#x}@{self.epoch}>",
                           "exec")
            ns = mc.ns
            exec(code, ns)
            self.functions = {fname: ns[mc.fn_names.get(fname)]
                              for fname in module.functions}
            self.params = {fname: tuple(func.params)
                           for fname, func in module.functions.items()}
            #: Every instruction uid: the ``_pre`` set of runs with step
            #: subscribers, whose fan-out precedes every instruction.
            self.uids = frozenset(ins.uid for func in module.functions.values()
                                  for bb in func for ins in bb.instrs)
        except Exception as exc:
            raise CompileError(f"GIR compilation failed: {exc}") from exc

    def start(self, interp) -> None:
        """Sample the run's instrumentation into the locals every generated
        function unpacks (:data:`_RUN_LOCALS`), and zero the packed charges.

        Subscriber lists, gate objects and hooks are fixed for a run, so
        this happens once per run, like ``Interpreter._compute_dispatch``;
        a gate's contents stay live (its tracer mutates it in place)."""
        if interp._step_subs is not None:
            pre = self.uids
        else:
            pre = frozenset(uid for uid, hooks in interp.hooks.items()
                            if hooks) or None
        memory = interp.memory
        interp._charges = 0
        interp._run_locals = (
            *interp.scheduler.split_pick(), interp.max_steps, memory,
            memory._slots, pre,
            interp._fire_branch if interp._branch_subs is not None else None,
            interp._fire_flow if interp._flow_subs is not None else None,
            interp._fire_mem if interp._mem_subs is not None else None,
            *[_UNGATED if gate is None else gate for gate in (
                interp._branch_gate, interp._flow_gate, interp._mem_gate)],
        )

    @staticmethod
    def settle(interp) -> None:
        """Unpack the run's committed charges into ``interp.cost``."""
        packed, interp._charges = interp._charges, 0
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
