"""The GIR interpreter: our stand-in for production x86 execution.

One :class:`Interpreter` instance is one program execution.  It runs a
finalized GIR module under a pluggable :class:`~repro.runtime.scheduler.
Scheduler`, emits events to attached :class:`~repro.runtime.events.Tracer`
objects, fires per-pc instrumentation hooks (how Gist's client-side patches
run), charges model cycles to a :class:`~repro.runtime.costmodel.CostModel`,
and converts memory faults / failed assertions / deadlocks into
:class:`~repro.runtime.failures.FailureReport` objects — the raw material of
failure sketching.

Two tiers execute the same semantics (``mode=``):

- The **compiled** tier (default) runs every GIR function as an
  exec-compiled Python generator (:mod:`repro.runtime.compiled`), plain and
  instrumented runs alike: the generated code fires hooks and events
  itself, guarded by locals sampled at run start.  A module the compiler
  cannot lower (:class:`~repro.runtime.compiled.CompileError`) falls back
  to the decoded tier.
- The **decoded** tier steps through pre-decoded closure streams
  (:mod:`repro.runtime.decoded`).  It is the oracle the equivalence suite
  runs against: only ``mode="decoded"`` (or a module the compiler rejects)
  reaches it, and only then is the module decoded.

Both are pinned to digests of the retired reference interpreter's events,
PT buffers, trap logs, outcomes and cost accounting
(``tests/golden/tiers.json``).

Both tiers consult per-event-kind *subscriber lists* computed at run
start, so a tracer that does not implement ``on_mem`` is never consulted
for memory events and no event object is allocated when an event kind has
no subscribers at all.  Flow events are split further, per
:class:`~repro.runtime.events.FlowKind`: a PT encoder subscribes to
returns only, so a PT-only run builds no jump or call event.  A handler
that declares a gate (watched addresses, traced threads, or a detector's
global-and-heap range) receives only the events whose key its gate
holds, and an event no handler takes is never built.  A kind whose lone,
cost-free handler is gated tests the gate inline, before calling its
fan-out.

Every tier advances the scheduler's state exactly as one
:meth:`Scheduler.pick` per retired instruction would — a load-bearing
invariant: seeded schedulers consume RNG state per decision, so skipping
decisions (e.g. when only one thread is runnable) would change every
downstream interleaving.  The decoded tier calls ``pick`` on every step;
the compiled tier's generated gate draws inline and consults the
scheduler only when the draw says "switch"
(:meth:`Scheduler.split_pick`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..lang.ir import (
    ConstInt,
    FuncRef,
    GlobalRef,
    Instr,
    Module,
    NullPtr,
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
    flow_kinds,
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

_VALID_MODES = ("compiled", "decoded")


#: Builds an event from its field tuple without the named tuple's
#: keyword-handling ``__new__`` (see :mod:`repro.runtime.events`).
_tuple_new = tuple.__new__


def _ignore(*fields) -> None:
    """The fan-out of an event kind nobody pays or listens for."""


def _fanout(interp: "Interpreter", subs, event_type, gates=(),
            key: str = "tid", inline: bool = False) -> Callable:
    """The fan-out of one event kind for one run.

    ``fire(step, tid, pc, ...)`` takes every field of an ``event_type``
    positionally; it publishes ``step`` as ``global_step`` (compiled code
    keeps the step counter in a local) and charges the kind's per-event
    cost on every event.  ``gates`` pairs each handler with its gate (see
    :func:`repro.runtime.events.gate`) or None: a gated handler receives
    only events whose field ``key`` its gate holds, an ungated one every
    event, and the event is built once, for the first handler it reaches.
    ``inline`` says the callers test the gate of the kind's lone,
    cost-free handler before calling: the fan-out then publishes the
    step, builds the event and calls the handler, and tests nothing.
    """
    if subs is None:
        return _ignore
    cost, handlers = subs
    if inline:
        (handler,) = handlers

        def fire_inline(*fields) -> None:
            interp.global_step = fields[0]
            handler(interp, _tuple_new(event_type, fields))
        return fire_inline
    if any(live is not None for live in gates):
        at = event_type._fields.index(key)
    else:  # nobody is gated: every handler gets every event
        at, gates = 0, [None] * len(handlers)
    targets = tuple(zip(handlers, gates))

    def fire(*fields) -> None:
        interp.global_step = fields[0]
        interp.extra_cost += cost
        k = fields[at]
        event = None
        for handler, live in targets:
            if live is None or k in live:
                if event is None:
                    event = _tuple_new(event_type, fields)
                handler(interp, event)
    return fire


#: The flow fan-outs of a run where nobody pays or listens for flow events.
_NO_FLOW_FIRES = dict.fromkeys(FlowKind)


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
        mode: execution tier, ``"compiled"`` or ``"decoded"``.
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
        mode: str = "compiled",
    ) -> None:
        if not module.finalized:
            raise ValueError("module must be finalized")
        if entry not in module.functions:
            raise ValueError(f"no entry function {entry!r}")
        if mode not in _VALID_MODES:
            raise ValueError(
                f"unknown interpreter mode {mode!r}; "
                f"expected one of {_VALID_MODES}")
        self.module = module
        self.entry = entry
        self.scheduler = scheduler or RoundRobinScheduler()
        self.tracers: List[Tracer] = list(tracers)
        self.hooks: Dict[int, List[Hook]] = hooks or {}
        self.max_steps = max_steps
        self.mode = mode

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
        # exit counters generated code bumps, and the per-run locals every
        # generated function unpacks.
        self._exits: List[int] = []
        self._run_locals: Optional[tuple] = None
        self._compiled = None
        if self.mode == "compiled":
            try:
                self._compiled = compiled_program(module)
            except CompileError:
                # Unsupported construct: fall back to the decoded tier for
                # this module (semantics are identical; only speed differs).
                self.mode = "decoded"
        # Per-event-kind subscriber lists: None (nobody pays, nobody
        # listens) or (total static cost, [bound handlers]).  Computed
        # here and again at run start (events fired before run() — e.g.
        # from tests poking _do_builtin directly — still dispatch).
        self._compute_dispatch()

        self._map_globals()
        self._map_strings()
        self._spawn_entry(list(args))

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
        event.  Flow events fan out per :class:`FlowKind`
        (``_flow_fires``, None for a kind nobody pays or listens for), each
        from the subscribers of that kind only.

        Gates are honoured per handler (:func:`repro.runtime.events.gate`):
        the fan-out hands a gated handler only the events its gate holds.
        A kind is *gated* (``_branch_gate`` / ``_flow_gate`` /
        ``_mem_gate``, else None) when its single handler declares a gate
        and nobody pays a static cost for it: the tiers then test that
        gate before calling the fan-out at all, and the fan-out trusts
        them.  For flow events the single handler is the one tracer
        subscribed to any flow kind.  ``_mem_gates`` lists every memory
        handler's gate, for the compiled tier's site test.
        """
        tracers = self.tracers

        def build(cost_attr, name):
            """The kind's subscribers, subscriber list and their gates."""
            total = 0
            subscribers = []
            for tracer in tracers:
                if cost_attr is not None:
                    total += getattr(tracer, cost_attr)
                if subscribes(tracer, name):
                    subscribers.append(tracer)
            if total == 0 and not subscribers:
                return subscribers, None, []
            return (subscribers,
                    (total, [getattr(t, name) for t in subscribers]),
                    [gate(t, name) for t in subscribers])

        def lone(subs, gates):
            """The gate of a lone, cost-free handler, else None."""
            return gates[0] if len(gates) == 1 and subs[0] == 0 else None

        def gated(cost_attr, name, event_type):
            """The kind's subscriber list, handler gates, lone gate and
            fan-out."""
            _, subs, gates = build(cost_attr, name)
            only = lone(subs, gates)
            return subs, gates, only, _fanout(
                self, subs, event_type, gates, GATE_KEYS[name],
                inline=only is not None)

        self._branch_subs, _, self._branch_gate, self._fire_branch = \
            gated("cost_per_branch", "on_branch", BranchEvent)
        self._mem_subs, self._mem_gates, self._mem_gate, self._fire_mem = \
            gated("cost_per_mem", "on_mem", MemEvent)
        subscribers, self._flow_subs, gates = build("cost_per_flow",
                                                    "on_flow")
        self._flow_gate = None
        self._flow_fires = dict(_NO_FLOW_FIRES)
        if self._flow_subs is not None:
            self._flow_gate = only = lone(self._flow_subs, gates)
            cost, handlers = self._flow_subs
            takers: Dict[FlowKind, list] = {}
            for tracer, handler, live in zip(subscribers, handlers, gates):
                for kind in flow_kinds(tracer):
                    takers.setdefault(kind, []).append((handler, live))
            # A static cost is owed on every flow event, taken or not.
            for kind in (FlowKind if cost else takers):
                pairs = takers.get(kind, ())
                self._flow_fires[kind] = _fanout(
                    self, (cost, [h for h, _ in pairs]), FlowEvent,
                    [live for _, live in pairs], GATE_KEYS["on_flow"],
                    inline=only is not None)
        _, self._sync_subs, _ = build(None, "on_sync")
        _, self._step_subs, _ = build("cost_per_step", "on_step")
        self._fire_sync = _fanout(self, self._sync_subs, SyncEvent)

    def _fire_flow(self, step: int, tid: int, pc: int, kind: FlowKind,
                   target: str = "", target_pc: int = -1) -> None:
        """Hand one flow event to ``kind``'s fan-out, testing the lone flow
        gate first as every flow site does."""
        fire = self._flow_fires[kind]
        if fire is not None:
            live = self._flow_gate
            if live is None or tid in live:
                fire(step, tid, pc, kind, target, target_pc)

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
            if self._compiled is not None:
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
        Observable behaviour is pinned to the recorded reference digests
        (``tests/golden/tiers.json``) by the equivalence suite.
        """
        threads = self.threads
        pick = self.scheduler.pick
        hooks = self.hooks
        has_hooks = bool(hooks)
        max_steps = self.max_steps
        cost = self.cost
        counts = cost.counts
        blocks = decoded_program(self.module).blocks
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
            tid = pick(runnable, self._current_tid)
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
        already spent the step's scheduler decision choosing that thread
        (the loop resumes it directly), or ``None`` when no decision was
        spent (blocked / sleeping: the loop runs a full runnable/pick
        cycle).  Every resume therefore corresponds to exactly one spent
        decision, preserving the scheduler's state-stream contract.  A
        resume sends ``global_step``, on which the generator re-bases its
        step count.
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
                    tid = self.scheduler.pick(runnable, self._current_tid)
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
                        pending = gen.send(self.global_step)
                except StopIteration:
                    gens.pop(tid, None)
                    pending = None
        finally:
            program.settle(self)

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

    # ------------------------------------------------------------------ threads

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
) -> RunOutcome:
    """One-shot convenience wrapper: build an interpreter and run it."""
    interp = Interpreter(module, entry=entry, args=args, scheduler=scheduler,
                         tracers=tracers, hooks=hooks, max_steps=max_steps)
    return interp.run()
