"""The GIR interpreter: our stand-in for production x86 execution.

One :class:`Interpreter` instance is one program execution.  It runs a
finalized GIR module under a pluggable :class:`~repro.runtime.scheduler.
Scheduler`, emits events to attached :class:`~repro.runtime.events.Tracer`
objects, fires per-pc instrumentation hooks (how Gist's client-side patches
run), charges model cycles to a :class:`~repro.runtime.costmodel.CostModel`,
and converts memory faults / failed assertions / deadlocks into
:class:`~repro.runtime.failures.FailureReport` objects — the raw material of
failure sketching.

Three tiers execute the same semantics (``mode=``):

- The **compiled** tier (default) runs every GIR function as an
  exec-compiled Python generator (:mod:`repro.runtime.compiled`), plain and
  instrumented runs alike: the generated code fires hooks and events
  itself, guarded by locals sampled at run start.  A module the compiler
  cannot lower (:class:`~repro.runtime.compiled.CompileError`) falls back
  to the decoded tier.
- The **decoded** tier steps through pre-decoded closure streams
  (:mod:`repro.runtime.decoded`); ``profile=True`` runs its loop with
  per-phase timers.
- The **strict** tier (``mode="strict"``) is the original
  fetch/decode/execute interpreter with unconditional tracer fan-out, kept
  as the executable reference that the A/B equivalence suite pins the fast
  tiers against.

The fast tiers consult per-event-kind *subscriber lists* computed at run
start, so a tracer that does not implement ``on_mem`` is never consulted
for memory events and no event object is allocated when an event kind has
no subscribers at all.  A kind whose lone handler declares a gate (a live
set of watched addresses or traced threads) builds events only for keys
inside it.

Every tier calls :meth:`Scheduler.pick` once per retired instruction — a
load-bearing invariant: seeded schedulers consume RNG state per pick, so
skipping picks (e.g. when only one thread is runnable) would change every
downstream interleaving.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..lang.ir import (
    ConstInt,
    FuncRef,
    GlobalRef,
    Instr,
    Module,
    NullPtr,
    Opcode,
    Operand,
    Register,
    StrConst,
)
from .compiled import CompileError, compiled_program
from .costmodel import CostModel
from .decoded import decoded_program
from .events import (
    GATE_KEYS,
    BranchEvent,
    FlowEvent,
    FlowKind,
    MemEvent,
    SyncEvent,
    Tracer,
    gate,
    subscribes,
)
from .failures import (
    FailureKind,
    FailureReport,
    RunOutcome,
    StackFrameInfo,
)
from .memory import STACK_BASE, STACK_STRIDE, Memory, MemoryFault
from .scheduler import RoundRobinScheduler, Scheduler
from .sync import CondTable, MutexTable
from .threads import Frame, Thread, ThreadStatus

#: An instrumentation hook: fires immediately before its instruction
#: executes.  ``cost`` is charged to extra_cost on each firing.
Hook = Tuple[Callable[["Interpreter", int, Instr], None], int]

ArgValue = Union[int, str]

#: Process-wide default execution tier for runs that pass no ``mode=``:
#: "compiled" (GIR compiled to Python source), "decoded" (pre-decoded
#: closure streams), or "strict" (the reference interpreter).  Overridable
#: via the ``REPRO_INTERP_MODE`` environment variable and the CLI
#: ``--interp`` flag — the lever the A/B equivalence tests use to compare
#: whole campaigns across tiers without threading a flag through every call
#: site.
INTERP_MODE_DEFAULT = os.environ.get("REPRO_INTERP_MODE", "") or "compiled"

_VALID_MODES = ("compiled", "decoded", "strict")


#: Builds an event from its field tuple without the named tuple's
#: keyword-handling ``__new__`` (see :mod:`repro.runtime.events`).
_tuple_new = tuple.__new__


def _ignore(*fields) -> None:
    """The fan-out of an event kind nobody pays or listens for."""


def _fanout(interp: "Interpreter", subs, event_type, live=None,
            key: str = "") -> Callable:
    """The fan-out of one event kind for one run.

    ``fire(step, tid, pc, ...)`` takes every field of an ``event_type``
    positionally; it publishes ``step`` as ``global_step`` (compiled code
    keeps the step counter in a local), charges the kind's per-event cost,
    and hands each handler one event, built only when there are handlers.
    A gated kind (one handler, no cost: see
    :func:`repro.runtime.events.gate`) drops an event whose field ``key``
    is outside its ``live`` gate before building it.
    """
    if subs is None:
        return _ignore
    cost, handlers = subs
    if live is not None:
        handler, = handlers
        at = event_type._fields.index(key)

        def fire_gated(*fields) -> None:
            if fields[at] in live:
                interp.global_step = fields[0]
                handler(interp, _tuple_new(event_type, fields))
        return fire_gated

    def fire(*fields) -> None:
        interp.global_step = fields[0]
        interp.extra_cost += cost
        if handlers:
            event = _tuple_new(event_type, fields)
            for handler in handlers:
                handler(interp, event)
    return fire


class _ProgramExit(Exception):
    def __init__(self, code: int) -> None:
        self.code = code


class _ProgramFailure(Exception):
    def __init__(self, report: FailureReport) -> None:
        self.report = report


class Interpreter:
    """Executes one run of a GIR module.

    Args:
        module: a finalized GIR module.
        entry: entry function, usually ``"main"``.
        args: positional arguments for the entry function.  Strings are
            mapped into read-only memory and passed as pointers.
        scheduler: thread scheduler (default: round-robin).
        tracers: observers receiving execution events.  The set (and each
            tracer's overridden callbacks) must be fixed before
            :meth:`run`; subscriber lists are computed at run start.
        hooks: per-pc instrumentation, ``{uid: [(callable, cost), ...]}``.
        max_steps: global retired-instruction budget; exceeding it reports a
            HANG failure (the paper treats hangs as failures Gist
            understands, §3.3).
        profile: collect a per-phase wall-clock breakdown of the hot loop
            (schedule/fetch/trace/dispatch) into :attr:`profile_data`.
    """

    def __init__(
        self,
        module: Module,
        entry: str = "main",
        args: Sequence[ArgValue] = (),
        scheduler: Optional[Scheduler] = None,
        tracers: Sequence[Tracer] = (),
        hooks: Optional[Dict[int, List[Hook]]] = None,
        max_steps: int = 500_000,
        profile: bool = False,
        mode: Optional[str] = None,
    ) -> None:
        if not module.finalized:
            raise ValueError("module must be finalized")
        if entry not in module.functions:
            raise ValueError(f"no entry function {entry!r}")
        self.module = module
        self.entry = entry
        self.scheduler = scheduler or RoundRobinScheduler()
        self.tracers: List[Tracer] = list(tracers)
        self.hooks: Dict[int, List[Hook]] = hooks or {}
        self.max_steps = max_steps
        self.mode = self._resolve_mode(mode)
        self.profile = profile
        #: Filled by a profiled run: {"steps", "wall_s", "phases": {...}}.
        self.profile_data: Optional[Dict[str, object]] = None

        self.memory = Memory()
        self.mutexes = MutexTable()
        self.conds = CondTable()
        self.cost = CostModel()
        self.extra_cost = 0
        self.global_step = 0
        self.stdout: List[str] = []
        self.threads: Dict[int, Thread] = {}
        self._next_tid = 1
        self._string_bases: List[int] = []
        self._exit_code = 0
        self._current_tid: Optional[int] = None
        # Scheduler cache: the runnable set only changes on thread state
        # transitions (and while any thread sleeps); recomputing it per
        # retired instruction dominated profiles otherwise.
        self._sched_dirty = True
        self._runnable_cache: List[int] = []
        # Compiled-tier run state (CompiledProgram.start/settle): the
        # packed charges committed by generated code, and the per-run
        # locals every generated function unpacks.
        self._charges = 0
        self._run_locals: Optional[tuple] = None
        # Per-event-kind subscriber lists: None (nobody pays, nobody
        # listens) or (total static cost, [bound handlers]).  Computed
        # here and again at run start (events fired before run() — e.g.
        # from tests poking _do_builtin directly — still dispatch).
        self._decoded = None if self.mode == "strict" \
            else decoded_program(module)
        self._compiled = None
        if self.mode == "compiled":
            try:
                self._compiled = compiled_program(module)
            except CompileError:
                # Unsupported construct: fall back to the decoded tier for
                # this module (semantics are identical; only speed differs).
                self.mode = "decoded"
        self._compute_dispatch()

        self._map_globals()
        self._map_strings()
        self._spawn_entry(list(args))

    @staticmethod
    def _resolve_mode(mode: Optional[str]) -> str:
        """The explicit ``mode``, else :data:`INTERP_MODE_DEFAULT`."""
        mode = mode or INTERP_MODE_DEFAULT
        if mode not in _VALID_MODES:
            raise ValueError(
                f"unknown interpreter mode {mode!r}; "
                f"expected one of {_VALID_MODES}")
        return mode

    # ------------------------------------------------------------------ setup

    def _map_globals(self) -> None:
        for gvar in self.module.globals.values():
            self.memory.map_global(gvar.name, gvar.size, tuple(gvar.init))

    def _map_strings(self) -> None:
        for value in self.module.strings:
            self._string_bases.append(self.memory.map_string(value))

    def _spawn_entry(self, args: List[ArgValue]) -> None:
        func = self.module.functions[self.entry]
        values: List[int] = []
        for arg in args:
            if isinstance(arg, str):
                values.append(self.memory.map_string(arg))
            else:
                values.append(int(arg))
        regs = dict(zip(func.params, values))
        thread = Thread(tid=0, start_routine=self.entry)
        thread.frames.append(Frame(function=func.name, block=func.entry,
                                   index=0, regs=regs,
                                   stack_base=self._stack_top(0)))
        self.threads[0] = thread

    def _stack_top(self, tid: int) -> int:
        return self.memory._stack_tops.get(
            tid, STACK_BASE + tid * STACK_STRIDE)

    # ------------------------------------------------------------------ events

    def _compute_dispatch(self) -> None:
        """Build the per-event-kind subscriber lists and the branch, flow,
        memory and sync fan-outs over them (:func:`_fanout`).

        A tracer is a subscriber of an event kind when it overrides the
        kind's callback (or declares a ``wants_on_*`` veto — see
        :func:`repro.runtime.events.subscribes`).  Its *static cost*
        contribution is owed regardless: attaching a tracer with
        ``cost_per_branch = 5`` models deployed instrumentation whose
        price does not depend on whether our simulation inspects the
        event.  Strict mode subscribes every tracer to everything,
        reproducing the reference fan-out bit for bit.

        A kind is *gated* (``_branch_gate`` / ``_flow_gate`` /
        ``_mem_gate``, else None) when its single handler declares a gate
        (:func:`repro.runtime.events.gate`) and nobody pays a static cost
        for it; several handlers, a cost or the strict tier leave it
        ungated.
        """
        tracers = self.tracers
        strict = self.mode == "strict"

        def build(cost_attr, name):
            total = 0
            subscribers = []
            for tracer in tracers:
                if cost_attr is not None:
                    total += getattr(tracer, cost_attr)
                if strict or subscribes(tracer, name):
                    subscribers.append(tracer)
            if total == 0 and not subscribers:
                return None, None
            live = None
            if not strict and total == 0 and len(subscribers) == 1:
                live = gate(subscribers[0], name)
            return (total, [getattr(t, name) for t in subscribers]), live

        self._branch_subs, self._branch_gate = \
            build("cost_per_branch", "on_branch")
        self._flow_subs, self._flow_gate = build("cost_per_flow", "on_flow")
        self._mem_subs, self._mem_gate = build("cost_per_mem", "on_mem")
        self._sync_subs, _ = build(None, "on_sync")
        self._step_subs, _ = build("cost_per_step", "on_step")
        self._fire_branch = _fanout(self, self._branch_subs, BranchEvent,
                                    self._branch_gate, GATE_KEYS["on_branch"])
        self._fire_flow = _fanout(self, self._flow_subs, FlowEvent,
                                  self._flow_gate, GATE_KEYS["on_flow"])
        self._fire_mem = _fanout(self, self._mem_subs, MemEvent,
                                 self._mem_gate, GATE_KEYS["on_mem"])
        self._fire_sync = _fanout(self, self._sync_subs, SyncEvent)

    # ------------------------------------------------------------------ values

    def eval_operand(self, tid: int, operand: Operand) -> int:
        """Evaluate an operand in the context of a thread's top frame."""
        if isinstance(operand, Register):
            return self.threads[tid].top.get(operand.name)
        if isinstance(operand, ConstInt):
            return operand.value
        if isinstance(operand, GlobalRef):
            return self.memory.global_base(operand.name)
        if isinstance(operand, StrConst):
            return self._string_bases[operand.index]
        if isinstance(operand, NullPtr):
            return 0
        if isinstance(operand, FuncRef):
            raise RuntimeError("FuncRef has no runtime value")
        raise RuntimeError(f"unknown operand {operand!r}")

    def _set(self, tid: int, dst: Optional[Register], value: int) -> None:
        if dst is not None:
            self.threads[tid].top.set(dst.name, value)

    # ------------------------------------------------------------------ failure

    def stack_trace(self, tid: int, fault_pc: int) -> Tuple[StackFrameInfo, ...]:
        thread = self.threads[tid]
        frames: List[StackFrameInfo] = []
        for i, frame in enumerate(thread.frames):
            if i == len(thread.frames) - 1:
                pc = fault_pc
                line = self.module.instr(fault_pc).line if fault_pc >= 0 else 0
            else:
                pc = thread.frames[i + 1].call_pc
                line = thread.frames[i + 1].call_line
            frames.append(StackFrameInfo(frame.function, pc, line))
        return tuple(reversed(frames))

    def _fail(self, kind: FailureKind, tid: int, pc: int, message: str = "",
              address: Optional[int] = None) -> None:
        report = FailureReport(kind=kind, pc=pc, tid=tid, message=message,
                               stack=self.stack_trace(tid, pc),
                               address=address)
        raise _ProgramFailure(report)

    # ------------------------------------------------------------------ run loop

    def run(self) -> RunOutcome:
        failure: Optional[FailureReport] = None
        self._compute_dispatch()
        for tracer in self.tracers:
            tracer.on_start(self)
        try:
            if self.mode == "strict":
                self._loop_strict()
            elif self.profile:
                self._loop_profiled()
            elif self._compiled is not None:
                self._loop_compiled()
            else:
                self._loop()
        except _ProgramExit as exit_:
            self._exit_code = exit_.code
        except _ProgramFailure as failed:
            failure = failed.report
        for tracer in self.tracers:
            tracer.on_finish(self)
        for tracer in self.tracers:
            self.extra_cost += tracer.dynamic_extra_cost()
        return RunOutcome(
            failed=failure is not None,
            failure=failure,
            exit_value=self._exit_code,
            steps=self.global_step,
            base_cost=self.cost.base_cost,
            extra_cost=self.extra_cost,
            stdout=list(self.stdout),
        )

    def _runnable_tids(self) -> List[int]:
        if not self._sched_dirty:
            return self._runnable_cache
        runnable: List[int] = []
        sleeping = False
        now = self.global_step
        for t in self.threads.values():
            status = t.status
            if status is ThreadStatus.RUNNABLE:
                runnable.append(t.tid)
            elif status is ThreadStatus.SLEEPING:
                if now >= t.wake_at_step:
                    t.status = ThreadStatus.RUNNABLE
                    runnable.append(t.tid)
                else:
                    sleeping = True
        self._runnable_cache = runnable
        self._sched_dirty = sleeping  # stay dirty while timers are pending
        return runnable

    def _loop(self) -> None:
        """The hot path: one closure call per retired instruction.

        Everything loop-invariant is bound to locals; per-step work is
        scheduler pick → list index → inline cost/count update →
        (subscriber-gated) step fan-out → hook probe → closure dispatch.
        Observable behaviour is pinned to :meth:`_loop_strict` by the A/B
        equivalence suite.
        """
        threads = self.threads
        pick = self.scheduler.pick
        hooks = self.hooks
        has_hooks = bool(hooks)
        max_steps = self.max_steps
        cost = self.cost
        counts = cost.counts
        blocks = self._decoded.blocks
        step_subs = self._step_subs
        while True:
            runnable = self._runnable_tids()
            if not runnable:
                statuses = {t.status for t in threads.values()}
                if statuses <= {ThreadStatus.FINISHED}:
                    return  # clean exit: all threads done
                if ThreadStatus.SLEEPING in statuses:
                    self._advance_past_sleep()
                    continue
                self._report_deadlock()
            tid = pick(runnable, self._current_tid, self.global_step)
            if tid not in runnable:  # defensive: scheduler bug
                tid = runnable[0]
            self._current_tid = tid
            thread = threads[tid]
            frame = thread.frames[-1]
            dcode = frame.dcode
            if dcode is None:
                frame.dcode = dcode = blocks[(frame.function, frame.block)]
            record = dcode[frame.index]
            self.global_step = step = self.global_step + 1
            cost.base_cost += record[1]
            opkey = record[2]
            try:
                counts[opkey] += 1
            except KeyError:
                counts[opkey] = 1
            if step_subs is not None:
                self.extra_cost += step_subs[0]
                handlers = step_subs[1]
                if handlers:
                    ins = record[3]
                    for fn in handlers:
                        fn(self, tid, ins)
            if has_hooks:
                hook_list = hooks.get(record[3].uid)
                if hook_list:
                    ins = record[3]
                    for hook, hook_cost in hook_list:
                        self.extra_cost += hook_cost
                        hook(self, tid, ins)
            try:
                record[0](self, tid, thread, frame)
            except MemoryFault as fault:
                self._fail(fault.kind, tid, record[3].uid, fault.detail,
                           fault.address)
            if step > max_steps:
                thread = threads[tid]
                pc = self._current_pc(thread)
                self._fail(FailureKind.HANG, tid, pc,
                           f"exceeded {max_steps} steps")

    def _loop_compiled(self) -> None:
        """The compiled tier: each thread runs as an exec-compiled Python
        generator (:mod:`repro.runtime.compiled`) with the scheduler gate,
        accounting, hang check, hooks, and event fan-out in the generated
        source.

        The protocol: a generator yields a *tid* when its inlined gate has
        already spent a scheduler pick choosing that thread (the loop
        resumes it directly), or ``None`` when no pick was spent (blocked /
        sleeping: the loop runs a full runnable/pick cycle).  Every resume
        therefore corresponds to exactly one spent pick, preserving the
        one-pick-per-retired-instruction contract.  A resume sends the
        scheduler state the generator mirrors in locals.
        """
        threads = self.threads
        program = self._compiled
        program.start(self)
        gens: Dict[int, object] = {}
        pending: Optional[int] = None
        try:
            while True:
                if pending is None:
                    runnable = self._runnable_tids()
                    if not runnable:
                        statuses = {t.status for t in threads.values()}
                        if statuses <= {ThreadStatus.FINISHED}:
                            return  # clean exit: all threads done
                        if ThreadStatus.SLEEPING in statuses:
                            self._advance_past_sleep()
                            continue
                        self._report_deadlock()
                    tid = self.scheduler.pick(runnable, self._current_tid,
                                              self.global_step)
                    if tid not in runnable:  # defensive: scheduler bug
                        tid = runnable[0]
                else:
                    tid, pending = pending, None
                self._current_tid = tid
                gen = gens.get(tid)
                try:
                    if gen is None:
                        gens[tid] = gen = program.thread_gen(self, tid)
                        pending = gen.send(None)
                    else:
                        pending = gen.send((self.global_step,
                                            self._sched_dirty,
                                            self._runnable_cache))
                except StopIteration:
                    gens.pop(tid, None)
                    pending = None
        finally:
            program.settle(self)

    def _loop_profiled(self) -> None:
        """The hot path with per-phase wall-clock accounting (opt-in via
        ``--profile-run``; the timers roughly double per-step overhead, so
        this is never the default)."""
        threads = self.threads
        pick = self.scheduler.pick
        hooks = self.hooks
        has_hooks = bool(hooks)
        max_steps = self.max_steps
        cost = self.cost
        counts = cost.counts
        blocks = self._decoded.blocks
        step_subs = self._step_subs
        phases = {"schedule": 0.0, "fetch": 0.0, "trace": 0.0,
                  "dispatch": 0.0}
        started = perf_counter()
        try:
            while True:
                t0 = perf_counter()
                runnable = self._runnable_tids()
                if not runnable:
                    statuses = {t.status for t in threads.values()}
                    if statuses <= {ThreadStatus.FINISHED}:
                        return
                    if ThreadStatus.SLEEPING in statuses:
                        self._advance_past_sleep()
                        continue
                    self._report_deadlock()
                tid = pick(runnable, self._current_tid, self.global_step)
                if tid not in runnable:
                    tid = runnable[0]
                self._current_tid = tid
                t1 = perf_counter()
                phases["schedule"] += t1 - t0
                thread = threads[tid]
                frame = thread.frames[-1]
                dcode = frame.dcode
                if dcode is None:
                    frame.dcode = dcode = \
                        blocks[(frame.function, frame.block)]
                record = dcode[frame.index]
                self.global_step = step = self.global_step + 1
                cost.base_cost += record[1]
                opkey = record[2]
                try:
                    counts[opkey] += 1
                except KeyError:
                    counts[opkey] = 1
                t2 = perf_counter()
                phases["fetch"] += t2 - t1
                if step_subs is not None:
                    self.extra_cost += step_subs[0]
                    handlers = step_subs[1]
                    if handlers:
                        ins = record[3]
                        for fn in handlers:
                            fn(self, tid, ins)
                if has_hooks:
                    hook_list = hooks.get(record[3].uid)
                    if hook_list:
                        ins = record[3]
                        for hook, hook_cost in hook_list:
                            self.extra_cost += hook_cost
                            hook(self, tid, ins)
                t3 = perf_counter()
                phases["trace"] += t3 - t2
                try:
                    record[0](self, tid, thread, frame)
                except MemoryFault as fault:
                    self._fail(fault.kind, tid, record[3].uid,
                               fault.detail, fault.address)
                finally:
                    phases["dispatch"] += perf_counter() - t3
                if step > max_steps:
                    thread = threads[tid]
                    pc = self._current_pc(thread)
                    self._fail(FailureKind.HANG, tid, pc,
                               f"exceeded {max_steps} steps")
        finally:
            self.profile_data = {
                "steps": self.global_step,
                "wall_s": perf_counter() - started,
                "phases": phases,
            }

    def _loop_strict(self) -> None:
        """The reference loop: per-step fetch/decode through the module's
        IR objects (the pre-overhaul interpreter, preserved verbatim)."""
        while True:
            runnable = self._runnable_tids()
            if not runnable:
                statuses = {t.status for t in self.threads.values()}
                if statuses <= {ThreadStatus.FINISHED}:
                    return  # clean exit: all threads done
                if ThreadStatus.SLEEPING in statuses:
                    self._advance_past_sleep()
                    continue
                self._report_deadlock()
            tid = self.scheduler.pick(runnable, self._current_tid,
                                      self.global_step)
            if tid not in runnable:  # defensive: scheduler bug
                tid = runnable[0]
            self._current_tid = tid
            self._step(tid)
            if self.global_step > self.max_steps:
                thread = self.threads[tid]
                pc = self._current_pc(thread)
                self._fail(FailureKind.HANG, tid, pc,
                           f"exceeded {self.max_steps} steps")

    def _advance_past_sleep(self) -> None:
        wake = min(t.wake_at_step for t in self.threads.values()
                   if t.status is ThreadStatus.SLEEPING)
        self.global_step = max(self.global_step, wake)
        self._sched_dirty = True
        for t in self.threads.values():
            if t.status is ThreadStatus.SLEEPING and \
                    t.wake_at_step <= self.global_step:
                t.status = ThreadStatus.RUNNABLE

    def _report_deadlock(self) -> None:
        blocked = [t for t in self.threads.values()
                   if t.status in (ThreadStatus.BLOCKED_LOCK,
                                   ThreadStatus.BLOCKED_JOIN,
                                   ThreadStatus.BLOCKED_COND)]
        victim = blocked[0] if blocked else None
        if victim is None:  # pragma: no cover - cannot happen
            raise _ProgramExit(0)
        pc = self._current_pc(victim)
        waiting = ", ".join(
            f"T{t.tid}:{t.status.value}" for t in blocked)
        self._fail(FailureKind.DEADLOCK, victim.tid, pc,
                   f"no runnable threads ({waiting})")

    def _current_pc(self, thread: Thread) -> int:
        if not thread.frames:
            return -1
        frame = thread.top
        bb = self.module.functions[frame.function].blocks[frame.block]
        idx = min(frame.index, len(bb.instrs) - 1)
        return bb.instrs[idx].uid

    # ------------------------------------------------------------------ stepping

    def _fetch(self, thread: Thread) -> Instr:
        frame = thread.top
        code = frame.code
        if code is None:
            code = self.module.functions[frame.function] \
                .blocks[frame.block].instrs
            frame.code = code
        return code[frame.index]

    def _step(self, tid: int) -> None:
        thread = self.threads[tid]
        ins = self._fetch(thread)
        self.global_step += 1
        self.cost.charge(ins.opcode)
        for tracer in self.tracers:
            self.extra_cost += tracer.cost_per_step
            tracer.on_step(self, tid, ins)
        for hook, hook_cost in self.hooks.get(ins.uid, ()):  # instrumentation
            self.extra_cost += hook_cost
            hook(self, tid, ins)
        try:
            self._execute(tid, thread, ins)
        except MemoryFault as fault:
            self._fail(fault.kind, tid, ins.uid, fault.detail, fault.address)

    def _execute(self, tid: int, thread: Thread, ins: Instr) -> None:
        op = ins.opcode
        frame = thread.top
        if op in (Opcode.CONST, Opcode.MOVE):
            self._set(tid, ins.dst, self.eval_operand(tid, ins.operands[0]))
        elif op == Opcode.BINOP:
            a = self.eval_operand(tid, ins.operands[0])
            b = self.eval_operand(tid, ins.operands[1])
            self._set(tid, ins.dst, self._binop(tid, ins, a, b))
        elif op == Opcode.UNOP:
            a = self.eval_operand(tid, ins.operands[0])
            self._set(tid, ins.dst, self._unop(ins.op, a))
        elif op == Opcode.LOAD:
            addr = self.eval_operand(tid, ins.operands[0])
            value = self.memory.read(addr)
            self._set(tid, ins.dst, value)
            self._fire_mem(self.global_step, tid, ins.uid, addr, False,
                           value)
        elif op == Opcode.STORE:
            addr = self.eval_operand(tid, ins.operands[0])
            value = self.eval_operand(tid, ins.operands[1])
            self.memory.write(addr, value)
            self._fire_mem(self.global_step, tid, ins.uid, addr, True,
                           value)
        elif op == Opcode.ALLOCA:
            self._set(tid, ins.dst, self.memory.stack_alloc(tid, ins.size))
        elif op == Opcode.GEP:
            base = self.eval_operand(tid, ins.operands[0])
            offset = self.eval_operand(tid, ins.operands[1])
            self._set(tid, ins.dst, base + offset)
        elif op == Opcode.ASSERT:
            cond = self.eval_operand(tid, ins.operands[0])
            if cond == 0:
                self._fail(FailureKind.ASSERTION, tid, ins.uid,
                           ins.text or "assertion failed")
        elif op == Opcode.JMP:
            self._fire_flow(self.global_step, tid, ins.uid, FlowKind.JUMP,
                            ins.labels[0], -1)
            frame.block = ins.labels[0]
            frame.index = 0
            frame.code = None
            return
        elif op == Opcode.BR:
            cond = self.eval_operand(tid, ins.operands[0])
            taken = cond != 0
            target = ins.labels[0] if taken else ins.labels[1]
            self._fire_branch(self.global_step, tid, ins.uid, taken,
                              target)
            frame.block = target
            frame.index = 0
            frame.code = None
            return
        elif op == Opcode.RET:
            self._do_ret(tid, thread, ins)
            return
        elif op == Opcode.CALL:
            advanced = self._do_call(tid, thread, ins)
            if advanced:
                return
        else:  # pragma: no cover
            raise RuntimeError(f"unknown opcode {op}")
        frame.index += 1

    # ------------------------------------------------------------------ arithmetic

    def _binop(self, tid: int, ins: Instr, a: int, b: int) -> int:
        op = ins.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op in ("/", "%"):
            if b == 0:
                self._fail(FailureKind.DIV_BY_ZERO, tid, ins.uid,
                           "division by zero")
            # C semantics: truncate toward zero.
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            if op == "/":
                return q
            return a - q * b
        if op == "==":
            return int(a == b)
        if op == "!=":
            return int(a != b)
        if op == "<":
            return int(a < b)
        if op == "<=":
            return int(a <= b)
        if op == ">":
            return int(a > b)
        if op == ">=":
            return int(a >= b)
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        if op == "^":
            return a ^ b
        if op == "<<":
            return a << (b & 63)
        if op == ">>":
            return a >> (b & 63)
        raise RuntimeError(f"unknown binary operator {op!r}")

    @staticmethod
    def _unop(op: str, a: int) -> int:
        if op == "-":
            return -a
        if op == "!":
            return int(a == 0)
        if op == "~":
            return ~a
        raise RuntimeError(f"unknown unary operator {op!r}")

    # ------------------------------------------------------------------ calls

    def _do_ret(self, tid: int, thread: Thread, ins: Instr) -> None:
        value = (self.eval_operand(tid, ins.operands[0])
                 if ins.operands else 0)
        frame = thread.frames.pop()
        self.memory.stack_release(tid, frame.stack_base)
        if not thread.frames:
            # Thread exit: an Intel-PT-style tracer sees a return with no
            # resolvable target (target_pc = -1).
            self._fire_flow(self.global_step, tid, ins.uid, FlowKind.RET,
                            frame.function, -1)
            self._finish_thread(thread, value)
            return
        caller = thread.top
        if frame.return_dst is not None:
            caller.set(frame.return_dst.name, value)
        caller.index += 1
        self._fire_flow(self.global_step, tid, ins.uid, FlowKind.RET,
                        frame.function, self._current_pc(thread))

    def _finish_thread(self, thread: Thread, value: int) -> None:
        self._sched_dirty = True
        thread.status = ThreadStatus.FINISHED
        thread.exit_value = value
        for other in self.threads.values():
            if other.status is ThreadStatus.BLOCKED_JOIN and \
                    other.waiting_on_tid == thread.tid:
                other.status = ThreadStatus.RUNNABLE
        if thread.tid == 0:
            # main returning terminates the process, as in C.
            raise _ProgramExit(value)

    def _do_call(self, tid: int, thread: Thread, ins: Instr) -> bool:
        """Execute a CALL.  Returns True if control flow was redirected
        (user call pushed a frame) and the caller must not advance."""
        callee = ins.callee
        if callee in self.module.functions:
            func = self.module.functions[callee]
            args = [self.eval_operand(tid, a) for a in ins.operands]
            regs = dict(zip(func.params, args))
            self._fire_flow(self.global_step, tid, ins.uid, FlowKind.CALL,
                            callee, -1)
            thread.frames.append(Frame(
                function=callee, block=func.entry, index=0, regs=regs,
                return_dst=ins.dst, stack_base=self._stack_top(tid),
                call_pc=ins.uid, call_line=ins.line))
            return True
        blocked = self._do_builtin(tid, thread, ins)
        return blocked

    # ------------------------------------------------------------------ builtins

    def _do_builtin(self, tid: int, thread: Thread, ins: Instr) -> bool:
        """Execute a builtin call; returns True if the thread blocked (the
        call will re-execute when the thread wakes up)."""
        name = ins.callee
        frame = thread.top

        def arg(i: int) -> int:
            return self.eval_operand(tid, ins.operands[i])

        if name == "malloc":
            self._set(tid, ins.dst, self.memory.malloc(arg(0), ins.uid))
        elif name == "free":
            self.memory.free(arg(0), ins.uid)
        elif name == "print":
            value = arg(0)
            try:
                rendered = str(value)
            except ValueError:
                # CPython >= 3.11 refuses int->str beyond ~4300 digits.
                # Simulated programs can legitimately grow such values
                # (unbounded ints stand in for machine words); render an
                # order-of-magnitude placeholder instead of crashing.
                rendered = f"<bigint {value.bit_length()} bits>"
            self.stdout.append(rendered)
        elif name == "print_str":
            self.stdout.append(self.memory.read_cstring(arg(0)))
        elif name == "strlen":
            self._set(tid, ins.dst, len(self.memory.read_cstring(arg(0))))
        elif name == "strcmp":
            a = self.memory.read_cstring(arg(0))
            b = self.memory.read_cstring(arg(1))
            self._set(tid, ins.dst, (a > b) - (a < b))
        elif name == "strcpy":
            dst, src = arg(0), arg(1)
            text = self.memory.read_cstring(src)
            for i, ch in enumerate(text):
                self.memory.write(dst + i, ord(ch))
            self.memory.write(dst + len(text), 0)
        elif name == "memset":
            base, value, count = arg(0), arg(1), arg(2)
            for i in range(count):
                self.memory.write(base + i, value)
        elif name == "atoi":
            text = self.memory.read_cstring(arg(0)).strip()
            sign = 1
            if text[:1] in ("+", "-"):
                sign = -1 if text[0] == "-" else 1
                text = text[1:]
            digits = ""
            for ch in text:
                if not ch.isdigit():
                    break
                digits += ch
            self._set(tid, ins.dst, sign * int(digits) if digits else 0)
        elif name == "usleep":
            self._sched_dirty = True
            thread.status = ThreadStatus.SLEEPING
            thread.wake_at_step = self.global_step + max(arg(0), 1)
        elif name == "abort":
            self._fail(FailureKind.ABORT, tid, ins.uid, "abort() called")
        elif name == "exit":
            raise _ProgramExit(arg(0))
        elif name == "mutex_create":
            addr = self.memory.malloc(1, ins.uid)
            self.mutexes.create(addr)
            self._set(tid, ins.dst, addr)
        elif name == "mutex_lock":
            return self._do_mutex_lock(tid, thread, ins)
        elif name == "mutex_unlock":
            self._do_mutex_unlock(tid, ins)
        elif name == "mutex_destroy":
            addr = arg(0)
            self.memory.read(addr)  # faults on NULL / UAF
            self.mutexes.destroy(addr)
            self.memory.free(addr, ins.uid)
        elif name == "cond_create":
            addr = self.memory.malloc(1, ins.uid)
            self.conds.create(addr)
            self._set(tid, ins.dst, addr)
        elif name == "cond_wait":
            return self._do_cond_wait(tid, thread, ins)
        elif name in ("cond_signal", "cond_broadcast"):
            addr = arg(0)
            self.memory.read(addr)  # faults on NULL / UAF
            cond = self.conds.get(addr)
            self._fire_sync(self.global_step, tid, ins.uid, name, addr, -1)
            wake_all = name == "cond_broadcast"
            while cond.waiters:
                waiter = cond.waiters.pop(0)
                woken = self.threads[waiter]
                if woken.status is ThreadStatus.BLOCKED_COND:
                    self._sched_dirty = True
                    woken.status = ThreadStatus.RUNNABLE
                    woken.waiting_on_cond = 0
                    woken.cond_state = "signaled"
                if not wake_all:
                    break
        elif name == "cond_destroy":
            addr = arg(0)
            self.memory.read(addr)
            self.conds.destroy(addr)
            self.memory.free(addr, ins.uid)
        elif name == "thread_create":
            self._do_thread_create(tid, ins)
        elif name == "thread_join":
            return self._do_thread_join(tid, thread, ins)
        else:  # pragma: no cover - verifier rejects unknown callees
            raise RuntimeError(f"unknown builtin {name!r}")
        frame.index += 1
        return True  # we advanced the frame ourselves

    def _do_mutex_lock(self, tid: int, thread: Thread, ins: Instr) -> bool:
        addr = self.eval_operand(tid, ins.operands[0])
        self.memory.read(addr)  # NULL or freed mutex memory faults here
        mutex = self.mutexes.get(addr)
        if not mutex.locked:
            mutex.owner_tid = tid
            mutex.lock_count += 1
            self._fire_sync(self.global_step, tid, ins.uid, "mutex_lock",
                            addr, -1)
            thread.top.index += 1
            return True
        # Contended (including self-deadlock): block; the call re-executes
        # when an unlock wakes this thread.
        if tid not in mutex.waiters:
            mutex.waiters.append(tid)
        self._sched_dirty = True
        thread.status = ThreadStatus.BLOCKED_LOCK
        thread.waiting_on_lock = addr
        return True

    def _do_mutex_unlock(self, tid: int, ins: Instr) -> None:
        addr = self.eval_operand(tid, ins.operands[0])
        self.memory.read(addr)  # the Pbzip2 bug: unlock through NULL/freed
        mutex = self.mutexes.get(addr)
        self._fire_sync(self.global_step, tid, ins.uid, "mutex_unlock", addr,
                        -1)
        if mutex.owner_tid != tid:
            # Unlocking a mutex you don't hold is UB in pthreads; we make it
            # a no-op so corpus bugs fail from their memory effects instead.
            return
        mutex.owner_tid = -1
        waiters, mutex.waiters = mutex.waiters, []
        if waiters:
            self._sched_dirty = True
        for waiter in waiters:
            other = self.threads[waiter]
            if other.status is ThreadStatus.BLOCKED_LOCK:
                other.status = ThreadStatus.RUNNABLE
                other.waiting_on_lock = 0

    def _do_cond_wait(self, tid: int, thread: Thread, ins: Instr) -> bool:
        """pthread_cond_wait: atomically release the mutex and block; once
        signaled, reacquire the mutex before returning.

        The blocking-builtin protocol re-executes the call instruction on
        every wakeup; ``thread.cond_state`` distinguishes the first
        execution (release + block) from post-signal executions
        (mutex reacquisition attempts).
        """
        cond_addr = self.eval_operand(tid, ins.operands[0])
        mutex_addr = self.eval_operand(tid, ins.operands[1])
        self.memory.read(cond_addr)   # NULL / UAF condvar faults
        self.memory.read(mutex_addr)  # NULL / UAF mutex faults
        mutex = self.mutexes.get(mutex_addr)
        if thread.cond_state == "signaled":
            # Reacquire phase.
            if not mutex.locked:
                mutex.owner_tid = tid
                mutex.lock_count += 1
                thread.cond_state = ""
                self._fire_sync(self.global_step, tid, ins.uid, "cond_wait",
                                cond_addr, -1)
                thread.top.index += 1
                return True
            if tid not in mutex.waiters:
                mutex.waiters.append(tid)
            self._sched_dirty = True
            thread.status = ThreadStatus.BLOCKED_LOCK
            thread.waiting_on_lock = mutex_addr
            return True
        # First execution: release the mutex (waking lock waiters) and
        # join the condvar's wait queue.
        if mutex.owner_tid == tid:
            mutex.owner_tid = -1
            waiters, mutex.waiters = mutex.waiters, []
            if waiters:
                self._sched_dirty = True
            for waiter in waiters:
                other = self.threads[waiter]
                if other.status is ThreadStatus.BLOCKED_LOCK:
                    other.status = ThreadStatus.RUNNABLE
                    other.waiting_on_lock = 0
        cond = self.conds.get(cond_addr)
        if tid not in cond.waiters:
            cond.waiters.append(tid)
        self._sched_dirty = True
        thread.status = ThreadStatus.BLOCKED_COND
        thread.waiting_on_cond = cond_addr
        return True

    def _do_thread_create(self, tid: int, ins: Instr) -> None:
        routine = ins.operands[0]
        assert isinstance(routine, FuncRef)
        func = self.module.functions[routine.name]
        argval = self.eval_operand(tid, ins.operands[1])
        new_tid = self._next_tid
        self._next_tid += 1
        regs = dict(zip(func.params, [argval]))
        child = Thread(tid=new_tid, start_routine=routine.name)
        child.frames.append(Frame(function=func.name, block=func.entry,
                                  index=0, regs=regs,
                                  stack_base=self._stack_top(new_tid),
                                  call_pc=ins.uid, call_line=ins.line))
        self.threads[new_tid] = child
        self._sched_dirty = True
        self._set(tid, ins.dst, new_tid)
        self._fire_sync(self.global_step, tid, ins.uid, "thread_create", 0,
                        new_tid)
        self._fire_flow(self.global_step, new_tid, ins.uid,
                        FlowKind.THREAD_START, routine.name, -1)

    def _do_thread_join(self, tid: int, thread: Thread, ins: Instr) -> bool:
        target = self.eval_operand(tid, ins.operands[0])
        other = self.threads.get(target)
        if other is None or other.status is ThreadStatus.FINISHED:
            self._fire_sync(self.global_step, tid, ins.uid, "thread_join", 0,
                            target)
            thread.top.index += 1
            return True
        self._sched_dirty = True
        thread.status = ThreadStatus.BLOCKED_JOIN
        thread.waiting_on_tid = target
        return True


def run_program(
    module: Module,
    args: Sequence[ArgValue] = (),
    scheduler: Optional[Scheduler] = None,
    tracers: Sequence[Tracer] = (),
    hooks: Optional[Dict[int, List[Hook]]] = None,
    entry: str = "main",
    max_steps: int = 500_000,
    mode: Optional[str] = None,
) -> RunOutcome:
    """One-shot convenience wrapper: build an interpreter and run it."""
    interp = Interpreter(module, entry=entry, args=args, scheduler=scheduler,
                         tracers=tracers, hooks=hooks, max_steps=max_steps,
                         mode=mode)
    return interp.run()
