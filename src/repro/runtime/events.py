"""Execution events and the tracer interface.

The interpreter is observable: any number of :class:`Tracer` objects can be
attached to a run.  This is how every dynamic component in the reproduction
plugs in without the interpreter knowing about it:

- the Intel-PT encoder subscribes to control-flow events,
- the hardware watchpoint unit subscribes to memory events,
- the record/replay baseline subscribes to everything,
- Gist's client instrumentation runs as per-pc hooks (see
  :mod:`repro.instrument.patch`), and
- the cost model charges each tracer's declared per-event costs.

Events carry the *global step number*, a monotonically increasing counter
across all threads.  That counter is what gives watchpoint trap records their
total order (the property the paper gets from handling watchpoint traps
atomically, §4).

A tracer tells the interpreter what it needs, so that nothing is built for
events it would ignore.  Per event kind it may declare:

- ``wants_on_*``: a subscription veto, sampled at run start (see
  :func:`subscribes`);
- ``gate_on_mem`` / ``gate_on_branch`` / ``gate_on_flow``: a *gate*, a
  container of keys outside which its callback for that kind does
  nothing.  The key is the address for memory events and the thread id
  for branch and flow events; the interpreter tests each handler's gate
  before handing it an event, and builds no event that no handler takes
  (see :func:`gate`).

Events are immutable named tuples: field access by name, positional order,
and field-wise equality.  A monitored run builds millions of them, so the
interpreter tiers construct them with ``tuple.__new__(cls, fields)``, which
skips the generated keyword-handling ``__new__``.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from ..lang.ir import Instr
    from .interpreter import Interpreter


class FlowKind(enum.Enum):
    """Control transfers that an Intel-PT-like tracer cares about."""

    COND_BRANCH = "cond"      # BR: encoded as a TNT bit
    JUMP = "jmp"              # direct: compressed away by PT
    CALL = "call"             # direct: compressed away by PT
    RET = "ret"               # indirect: encoded as a TIP packet
    THREAD_START = "tstart"   # trace stream begins for a thread
    THREAD_END = "tend"


class BranchEvent(NamedTuple):
    """A retired conditional branch (one TNT bit for PT)."""
    step: int
    tid: int
    pc: int
    taken: bool
    target_label: str


class FlowEvent(NamedTuple):
    """A retired unconditional transfer (jmp/call/ret/thread edge)."""
    step: int
    tid: int
    pc: int
    kind: FlowKind
    target: str = ""          # callee / block label / return-to description
    target_pc: int = -1


class MemEvent(NamedTuple):
    """A retired load/store with its resolved address and value."""
    step: int
    tid: int
    pc: int
    address: int
    is_write: bool
    value: int


class SyncEvent(NamedTuple):
    """A completed synchronization builtin (lock, join, signal, ...)."""
    step: int
    tid: int
    pc: int
    op: str                   # mutex_lock / mutex_unlock / thread_join / ...
    object_address: int = 0
    other_tid: int = -1


class Tracer:
    """Base class for execution observers.  All callbacks are optional.

    ``cost_*`` class attributes declare the per-event runtime cost (in model
    cycles) that attaching this tracer imposes on the production run; the
    interpreter accumulates them into :attr:`RunOutcome.extra_cost`.  A pure
    observer used for measurement (not deployed to production) leaves them
    at zero.

    Two optional attributes per event kind narrow what the interpreter
    hands a tracer: ``wants_on_*`` vetoes a subscription for the whole run
    (:func:`subscribes`), and ``gate_on_mem`` / ``gate_on_branch`` /
    ``gate_on_flow`` name the keys (addresses, or thread ids) outside
    which the callback is a no-op (:func:`gate`), whatever other tracers
    share the run.
    """

    cost_per_step: int = 0
    cost_per_branch: int = 0
    cost_per_mem: int = 0
    cost_per_flow: int = 0

    def on_start(self, interp: "Interpreter") -> None:
        """Called once before the first instruction executes."""

    def on_step(self, interp: "Interpreter", tid: int, ins: "Instr") -> None:
        """Called before each instruction executes."""

    def on_branch(self, interp: "Interpreter", event: BranchEvent) -> None:
        """Called after a conditional branch retires."""

    def on_flow(self, interp: "Interpreter", event: FlowEvent) -> None:
        """Called after an unconditional transfer (jmp/call/ret) retires."""

    def on_mem(self, interp: "Interpreter", event: MemEvent) -> None:
        """Called after a load/store retires (address and value known)."""

    def on_sync(self, interp: "Interpreter", event: SyncEvent) -> None:
        """Called when a synchronization builtin completes."""

    def on_finish(self, interp: "Interpreter") -> None:
        """Called once when the program stops (normally or by failure)."""

    def dynamic_extra_cost(self) -> int:
        """Cost not expressible per-event (e.g. buffer flushes); polled at
        the end of the run."""
        return 0


#: Callback names the interpreter builds subscriber lists for.
_SUBSCRIBABLE = ("on_step", "on_branch", "on_flow", "on_mem", "on_sync")


def subscribes(tracer: Tracer, name: str) -> bool:
    """Does ``tracer`` want ``name`` (e.g. ``"on_mem"``) callbacks?

    Default rule: a tracer subscribes to an event kind iff its class
    overrides the callback — the base class no-ops carry no information, so
    skipping them is unobservable.  A tracer whose interest cannot be read
    off its class (e.g. it inherits an override it only sometimes needs)
    can declare a ``wants_on_mem``-style attribute/property, which takes
    precedence.  The answer is sampled once per run, at run start: a tracer
    must not change its subscriptions mid-run.  Interest that *toggles*
    mid-run, like an initially-empty watchpoint register file, belongs in a
    gate (:func:`gate`), which the interpreter tests per event.
    """
    override = getattr(tracer, "wants_" + name, None)
    if override is not None:
        return bool(override)
    if name in tracer.__dict__:  # instance-level handler assignment
        return True
    return getattr(type(tracer), name) is not getattr(Tracer, name)


#: Event kinds a tracer may gate, and the event field each gate is keyed
#: on: the address of a memory event, the thread of a branch or flow event.
GATE_KEYS = {"on_mem": "address", "on_branch": "tid", "on_flow": "tid"}


def gate(tracer: Tracer, name: str):
    """The live gate ``tracer`` declares for ``name`` events, or None.

    A gate (attribute ``gate_on_mem``, ``gate_on_branch`` or
    ``gate_on_flow``) is a container of keys — see :data:`GATE_KEYS` —
    outside which the tracer's callback for that kind does nothing, so the
    interpreter need not hand it such an event.  It may hold more keys
    than the callback acts on (the detectors gate on the whole
    global-and-heap ``range`` and filter further inside), never fewer.  It
    is read like the ``wants_on_*`` vetoes, once at run start, and tested
    per event: a live gate is mutated in place as its tracer's interest
    changes (a watchpoint armed, a PT window opened) and never rebound
    during a run.  A change made by a hook is seen by every later event,
    the hooked instruction's own included.

    The rule is per handler: an event reaches a gated tracer only when its
    gate holds the event's key, an ungated tracer receives every event,
    and an event no handler takes is never built.  A static cost for the
    kind is still charged on every event.  When the tracer is the kind's
    single handler and nobody pays a static cost, both fast tiers test its
    gate before calling the kind's fan-out at all.
    """
    return getattr(tracer, "gate_" + name, None)
