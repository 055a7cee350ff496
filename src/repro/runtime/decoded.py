"""Pre-decoded instruction streams for the interpreter hot path.

The reference interpreter pays, on *every* retired instruction, for work
whose answer never changes across a run: two dict lookups to find the
current block, an ``isinstance`` chain per operand, a string comparison
ladder to resolve a BINOP operator, and a dict probe to classify the callee
of a CALL.  All of that is a pure function of the (finalized) module, so it
can be done once per module instead of once per step.

:func:`decode_program` lowers every basic block into a flat list of *step
records*::

    (run, cost, opkey, ins)

where ``run(interp, tid, thread, frame)`` is a closure with everything
pre-bound — operand register names, constants, resolved global/string
addresses, the per-opcode model cost, the callee's entry block's *decoded*
list (so calls and branches link decoded code to decoded code without a
dict lookup) — ``cost`` is the instruction's ``OPCODE_COST``, ``opkey`` the
opcode's value string for the per-opcode counters, and ``ins`` the original
:class:`~repro.lang.ir.Instr` (handed to step subscribers and hooks).

Closures advance ``frame.index`` themselves (the successor index is
pre-bound), and terminators install the target block's decoded list into
``frame.dcode`` directly, so the interpreter loop is reduced to: pick a
thread, index a list, call a closure.

Semantics contract: a decoded program must be *observationally identical*
to the reference path — same events in the same order, same failure
reports, same cost totals, same stdout (``tests/golden/tiers.json`` holds
digests of what the retired reference interpreter produced).  Decode-time
resolution failures (an unknown global, a ``FuncRef`` used as a value, an
out-of-range string index) therefore compile to closures that raise the
same exception :meth:`Interpreter.eval_operand` raises, at execution time,
instead of failing the decode.

Address pre-binding is sound because :class:`~repro.runtime.memory.Memory`
allocates global and string bases by deterministic bump allocation in
module declaration order; replaying the mapping on a scratch ``Memory``
yields exactly the addresses every future interpreter of this module will
assign (entry-point string *arguments* are mapped after the interned
strings and cannot shift them).

The per-module cache behind :func:`decoded_program` is a module-level
weak cache keyed by module identity and checked against
:attr:`~repro.lang.ir.Module.analysis_epoch`, so re-finalizing a module
after an edit transparently rebuilds the stream, and an entry goes away
with its module.
"""

from __future__ import annotations

import operator as _operator
from typing import Callable, Dict, List, Tuple
from weakref import WeakKeyDictionary

from ..lang.ir import (
    ConstInt,
    FuncRef,
    GlobalRef,
    Instr,
    Module,
    NullPtr,
    Opcode,
    Register,
    StrConst,
)
from .costmodel import OPCODE_COST
from .events import FlowKind
from .failures import FailureKind
from .memory import (
    HEAP_BASE,
    STACK_BASE,
    STACK_STRIDE,
    STRING_BASE,
    Memory,
)
from .threads import Frame

#: One decoded step: (run closure, model cost, opcode key, source Instr).
StepRecord = Tuple[Callable, int, str, Instr]

# Comparison lambdas return int (not bool): the reference interpreter's
# ``int(a < b)`` feeds values that reach print()/stdout, where ``str(True)``
# and ``str(1)`` differ.
_BINOP_FNS: Dict[str, Callable[[int, int], int]] = {
    "+": _operator.add,
    "-": _operator.sub,
    "*": _operator.mul,
    "&": _operator.and_,
    "|": _operator.or_,
    "^": _operator.xor,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "<<": lambda a, b: a << (b & 63),
    ">>": lambda a, b: a >> (b & 63),
}

_UNOP_FNS: Dict[str, Callable[[int], int]] = {
    "-": _operator.neg,
    "!": lambda a: 1 if a == 0 else 0,
    "~": _operator.invert,
}


class DecodedProgram:
    """The decoded step-record lists for every basic block of a module."""

    __slots__ = ("module", "epoch", "blocks")

    def __init__(self, module: Module) -> None:
        if not module.finalized:
            raise ValueError("module must be finalized")
        self.module = module
        self.epoch = module.analysis_epoch
        #: (function name, block label) -> [StepRecord, ...]
        self.blocks: Dict[Tuple[str, str], List[StepRecord]] = {}
        self._build()

    def block_code(self, func: str, block: str) -> List[StepRecord]:
        return self.blocks[(func, block)]

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        module = self.module
        # Replay the interpreter's deterministic global/string mapping on a
        # scratch address space to learn the bases every run will use.
        layout = Memory()
        global_bases = {g.name: layout.map_global(g.name, g.size,
                                                  tuple(g.init))
                        for g in module.globals.values()}
        string_bases = [layout.map_string(s) for s in module.strings]
        # Two phases so terminators/calls can pre-link their target lists:
        # create every (empty) block list first, then fill them.
        for fname, func in module.functions.items():
            for bb in func:
                self.blocks[(fname, bb.label)] = []
        for fname, func in module.functions.items():
            for bb in func:
                records = self.blocks[(fname, bb.label)]
                for idx, ins in enumerate(bb.instrs):
                    run = _compile(self, ins, idx + 1, fname,
                                   global_bases, string_bases)
                    records.append((run, OPCODE_COST[ins.opcode],
                                    ins.opcode.value, ins))


# ---------------------------------------------------------------------------
# Operand specs and accessors
# ---------------------------------------------------------------------------
# An operand decodes to ("reg", name) | ("const", value) | ("raise", make_exc):
# registers stay dynamic, everything resolvable becomes a constant, and
# operands the reference interpreter would fault on at evaluation time defer
# the identical exception to execution time.


def _operand_spec(operand, global_bases, string_bases):
    if isinstance(operand, Register):
        return ("reg", operand.name)
    if isinstance(operand, ConstInt):
        return ("const", operand.value)
    if isinstance(operand, GlobalRef):
        name = operand.name
        if name in global_bases:
            return ("const", global_bases[name])
        return ("raise", lambda: KeyError(name))
    if isinstance(operand, StrConst):
        index = operand.index
        if 0 <= index < len(string_bases):
            return ("const", string_bases[index])
        return ("raise", lambda: IndexError("list index out of range"))
    if isinstance(operand, NullPtr):
        return ("const", 0)
    if isinstance(operand, FuncRef):
        return ("raise",
                lambda: RuntimeError("FuncRef has no runtime value"))
    return ("raise",
            lambda: RuntimeError(f"unknown operand {operand!r}"))


def _getter(spec):
    """A ``frame -> value`` accessor for one operand spec (generic path)."""
    kind, payload = spec
    if kind == "const":
        value = payload

        def get(frame):
            return value
    elif kind == "reg":
        name = payload

        def get(frame):
            try:
                return frame.regs[name]
            except KeyError:
                return 0  # uninitialized registers read as zero
    else:
        make_exc = payload

        def get(frame):
            raise make_exc()
    return get


def _raiser(make_exc):
    def run(interp, tid, thread, frame):
        raise make_exc()
    return run


# ---------------------------------------------------------------------------
# Per-opcode closure factories
# ---------------------------------------------------------------------------


def _compile(prog: DecodedProgram, ins: Instr, next_index: int, fname: str,
             global_bases, string_bases) -> Callable:
    op = ins.opcode
    spec = lambda i: _operand_spec(ins.operands[i],  # noqa: E731
                                   global_bases, string_bases)
    if op in (Opcode.CONST, Opcode.MOVE):
        return _compile_move(ins, spec(0), next_index)
    if op == Opcode.BINOP:
        return _compile_binop(ins, spec(0), spec(1), next_index)
    if op == Opcode.UNOP:
        return _compile_unop(ins, spec(0), next_index)
    if op == Opcode.LOAD:
        return _compile_load(ins, spec(0), next_index)
    if op == Opcode.STORE:
        return _compile_store(ins, spec(0), spec(1), next_index)
    if op == Opcode.ALLOCA:
        return _compile_alloca(ins, next_index)
    if op == Opcode.GEP:
        return _compile_binop(ins, spec(0), spec(1), next_index,
                              fn=_operator.add)
    if op == Opcode.ASSERT:
        return _compile_assert(ins, spec(0), next_index)
    if op == Opcode.JMP:
        return _compile_jmp(prog, ins, fname)
    if op == Opcode.BR:
        return _compile_br(prog, ins, spec(0), fname)
    if op == Opcode.RET:
        return _compile_ret(ins, spec(0) if ins.operands else None, fname)
    if op == Opcode.CALL:
        return _compile_call(prog, ins, global_bases, string_bases)
    return _raiser(lambda: RuntimeError(f"unknown opcode {op}"))


def _compile_move(ins, src_spec, next_index):
    kind, payload = src_spec
    if kind == "raise":
        return _raiser(payload)
    dst = ins.dst.name if ins.dst is not None else None
    if dst is None:
        # Evaluation of a register/constant is side-effect free; a dst-less
        # CONST/MOVE is a pre-advanced no-op.
        def run(interp, tid, thread, frame):
            frame.index = next_index
        return run
    if kind == "const":
        value = payload

        def run(interp, tid, thread, frame):
            frame.regs[dst] = value
            frame.index = next_index
    else:
        src = payload

        def run(interp, tid, thread, frame):
            regs = frame.regs
            try:
                regs[dst] = regs[src]
            except KeyError:
                regs[dst] = 0
            frame.index = next_index
    return run


def _compile_binop(ins, a_spec, b_spec, next_index, fn=None):
    if fn is None:
        op = ins.op
        if op in ("/", "%"):
            return _compile_divmod(ins, a_spec, b_spec, next_index,
                                   is_div=(op == "/"))
        fn = _BINOP_FNS.get(op)
        if fn is None:
            return _raiser(
                lambda: RuntimeError(f"unknown binary operator {op!r}"))
    dst = ins.dst.name if ins.dst is not None else None
    a_kind, a = a_spec
    b_kind, b = b_spec
    if dst is None or a_kind == "raise" or b_kind == "raise":
        # Rare shapes (hand-built IR): keep them correct via generic
        # accessors; the result is computed (raising where the reference
        # interpreter raises) and discarded when there is no destination.
        get_a, get_b = _getter(a_spec), _getter(b_spec)

        def run(interp, tid, thread, frame):
            value = fn(get_a(frame), get_b(frame))
            if dst is not None:
                frame.regs[dst] = value
            frame.index = next_index
        return run
    if a_kind == "reg" and b_kind == "reg":
        def run(interp, tid, thread, frame):
            regs = frame.regs
            try:
                va = regs[a]
            except KeyError:
                va = 0
            try:
                vb = regs[b]
            except KeyError:
                vb = 0
            regs[dst] = fn(va, vb)
            frame.index = next_index
    elif a_kind == "reg":
        def run(interp, tid, thread, frame):
            regs = frame.regs
            try:
                va = regs[a]
            except KeyError:
                va = 0
            regs[dst] = fn(va, b)
            frame.index = next_index
    elif b_kind == "reg":
        def run(interp, tid, thread, frame):
            regs = frame.regs
            try:
                vb = regs[b]
            except KeyError:
                vb = 0
            regs[dst] = fn(a, vb)
            frame.index = next_index
    else:
        value = fn(a, b)

        def run(interp, tid, thread, frame):
            frame.regs[dst] = value
            frame.index = next_index
    return run


def _compile_divmod(ins, a_spec, b_spec, next_index, is_div):
    dst = ins.dst.name if ins.dst is not None else None
    uid = ins.uid
    get_a, get_b = _getter(a_spec), _getter(b_spec)

    def run(interp, tid, thread, frame):
        a = get_a(frame)
        b = get_b(frame)
        if b == 0:
            interp._fail(FailureKind.DIV_BY_ZERO, tid, uid,
                         "division by zero")
        # C semantics: truncate toward zero.
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        value = q if is_div else a - q * b
        if dst is not None:
            frame.regs[dst] = value
        frame.index = next_index
    return run


def _compile_unop(ins, src_spec, next_index):
    fn = _UNOP_FNS.get(ins.op)
    if fn is None:
        op = ins.op
        return _raiser(lambda: RuntimeError(f"unknown unary operator {op!r}"))
    dst = ins.dst.name if ins.dst is not None else None
    get = _getter(src_spec)

    def run(interp, tid, thread, frame):
        value = fn(get(frame))
        if dst is not None:
            frame.regs[dst] = value
        frame.index = next_index
    return run


def _compile_load(ins, addr_spec, next_index):
    dst = ins.dst.name if ins.dst is not None else None
    uid = ins.uid
    addr_kind, addr_payload = addr_spec
    if addr_kind == "raise":
        return _raiser(addr_payload)
    addr_reg = addr_payload if addr_kind == "reg" else None
    const_addr = addr_payload if addr_kind == "const" else 0

    def run(interp, tid, thread, frame):
        regs = frame.regs
        if addr_reg is not None:
            try:
                addr = regs[addr_reg]
            except KeyError:
                addr = 0
        else:
            addr = const_addr
        memory = interp.memory
        # Fast path: a mapped slot cannot fault on a read (free unmaps a
        # heap block), so a hit skips Memory.read; a miss faults there.
        value = memory._slots.get(addr)
        if value is None:
            value = memory.read(addr)
        if dst is not None:
            regs[dst] = value
        if interp._mem_subs is not None:
            gate = interp._mem_gate
            if gate is None or addr in gate:
                interp._fire_mem(interp.global_step, tid, uid, addr, False,
                                 value)
        frame.index = next_index
    return run


def _compile_store(ins, addr_spec, value_spec, next_index):
    uid = ins.uid
    get_addr, get_value = _getter(addr_spec), _getter(value_spec)

    def run(interp, tid, thread, frame):
        addr = get_addr(frame)
        value = get_value(frame)
        memory = interp.memory
        # Fast path mirrors Memory.write: a mapped slot outside the
        # read-only string data cannot fault on a write.
        if (addr < STRING_BASE or addr >= HEAP_BASE) \
                and addr in memory._slots:
            memory._slots[addr] = value
        else:
            memory.write(addr, value)
        if interp._mem_subs is not None:
            gate = interp._mem_gate
            if gate is None or addr in gate:
                interp._fire_mem(interp.global_step, tid, uid, addr, True,
                                 value)
        frame.index = next_index
    return run


def _compile_alloca(ins, next_index):
    dst = ins.dst.name if ins.dst is not None else None
    size = ins.size

    def run(interp, tid, thread, frame):
        base = interp.memory.stack_alloc(tid, size)
        if dst is not None:
            frame.regs[dst] = base
        frame.index = next_index
    return run


def _compile_assert(ins, cond_spec, next_index):
    uid = ins.uid
    message = ins.text or "assertion failed"
    get_cond = _getter(cond_spec)

    def run(interp, tid, thread, frame):
        if get_cond(frame) == 0:
            interp._fail(FailureKind.ASSERTION, tid, uid, message)
        frame.index = next_index
    return run


def _compile_jmp(prog, ins, fname):
    uid = ins.uid
    label = ins.labels[0]
    target = prog.blocks.get((fname, label))
    if target is None:
        # Unknown label (unverified hand-built IR): fault at execution time
        # like the reference block lookup would.
        return _raiser(lambda: KeyError(label))

    def run(interp, tid, thread, frame):
        if interp._flow_subs is not None:
            interp._fire_flow(interp.global_step, tid, uid, FlowKind.JUMP,
                              label, -1)
        frame.block = label
        frame.index = 0
        frame.dcode = target
    return run


def _compile_br(prog, ins, cond_spec, fname):
    uid = ins.uid
    then_label, else_label = ins.labels[0], ins.labels[1]
    then_code = prog.blocks.get((fname, then_label))
    else_code = prog.blocks.get((fname, else_label))
    if then_code is None or else_code is None:
        missing = then_label if then_code is None else else_label
        return _raiser(lambda: KeyError(missing))
    cond_kind, cond_payload = cond_spec
    if cond_kind == "raise":
        return _raiser(cond_payload)
    cond_reg = cond_payload if cond_kind == "reg" else None
    const_taken = cond_kind == "const" and cond_payload != 0

    def run(interp, tid, thread, frame):
        if cond_reg is not None:
            try:
                taken = frame.regs[cond_reg] != 0
            except KeyError:
                taken = False
        else:
            taken = const_taken
        if taken:
            label, code = then_label, then_code
        else:
            label, code = else_label, else_code
        if interp._branch_subs is not None:
            gate = interp._branch_gate
            if gate is None or tid in gate:
                interp._fire_branch(interp.global_step, tid, uid, taken,
                                    label)
        frame.block = label
        frame.index = 0
        frame.dcode = code
    return run


def _compile_ret(ins, value_spec, fname):
    uid = ins.uid
    get_value = _getter(value_spec) if value_spec is not None else None

    def run(interp, tid, thread, frame):
        value = get_value(frame) if get_value is not None else 0
        frames = thread.frames
        frames.pop()
        interp.memory.stack_release(tid, frame.stack_base)
        if not frames:
            # Thread exit: a PT-style tracer sees a return with no
            # resolvable target (target_pc = -1).
            interp._fire_flow(interp.global_step, tid, uid, FlowKind.RET,
                              fname, -1)
            interp._finish_thread(thread, value)
            return
        caller = frames[-1]
        return_dst = frame.return_dst
        if return_dst is not None:
            caller.regs[return_dst.name] = value
        caller.index += 1
        if interp._flow_subs is not None:
            interp._fire_flow(interp.global_step, tid, uid, FlowKind.RET,
                              fname, interp._current_pc(thread))
    return run


def _compile_call(prog, ins, global_bases, string_bases):
    uid = ins.uid

    def user_call():
        callee = ins.callee
        func = prog.module.functions[callee]
        params = tuple(func.params)
        entry_label = func.entry
        entry_code = prog.blocks.get((callee, entry_label))
        arg_getters = tuple(
            _getter(_operand_spec(o, global_bases, string_bases))
            for o in ins.operands)
        return_dst = ins.dst
        line = ins.line

        def run(interp, tid, thread, frame):
            args = [get(frame) for get in arg_getters]
            if interp._flow_subs is not None:
                interp._fire_flow(interp.global_step, tid, uid,
                                  FlowKind.CALL, callee, -1)
            memory = interp.memory
            stack_base = memory._stack_tops.get(tid)
            if stack_base is None:
                stack_base = STACK_BASE + tid * STACK_STRIDE
            new_frame = Frame(function=callee, block=entry_label, index=0,
                              regs=dict(zip(params, args)),
                              return_dst=return_dst, stack_base=stack_base,
                              call_pc=uid, call_line=line)
            new_frame.dcode = entry_code
            thread.frames.append(new_frame)
        return run

    if ins.callee in prog.module.functions:
        return user_call()

    # Builtins: delegate to the interpreter's (mode-shared) implementation,
    # which advances frame.index itself and handles blocking re-execution.
    def run(interp, tid, thread, frame):
        interp._do_builtin(tid, thread, ins)
    return run


# ---------------------------------------------------------------------------
# The per-module cache
# ---------------------------------------------------------------------------

_CACHE: "WeakKeyDictionary[Module, DecodedProgram]" = WeakKeyDictionary()


def decoded_program(module: Module) -> DecodedProgram:
    """The (cached) decoded stream for ``module``.

    Keyed by module identity; a bumped ``analysis_epoch`` (re-finalize)
    invalidates the entry.  Every interpreter of the same module object
    shares one decode, which is what makes thousand-run fleet campaigns
    pay the decode cost once.
    """
    program = _CACHE.get(module)
    if program is None or program.epoch != module.analysis_epoch:
        program = DecodedProgram(module)
        _CACHE[module] = program
    return program
