"""Instrumentation patches: distribution and client-side application.

Gist ships instrumentation to production machines as binary patch files
(bsdiff in the prototype, §4).  Here a patch is an
:class:`~repro.instrument.planner.InstrumentationPlan`'s hooks plus the
client's watchpoint assignment and evidence slice; it travels as the
fleet wire's JSON patch body (:func:`repro.fleet.wire.patch_to_body`),
and applying it to a run means installing interpreter hooks that drive
the PT driver and the watchpoint unit, charging the same costs the real
instrumentation would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..hw.ptrace import PtraceError, PtraceSession, TraceeState
from ..hw.watchpoints import WatchpointExhausted, WatchpointUnit
from ..lang.ir import Module
from ..pt.driver import PT_IOC_DISABLE, PT_IOC_ENABLE, PTDriver
from ..runtime.costmodel import IOCTL_TOGGLE_COST
from .planner import HookSpec, InstrumentationPlan

#: Cost of the inlined instrumentation stub itself (a predicted-not-taken
#: flag check), charged on every execution of a hooked instruction even
#: when nothing toggles.
STUB_COST = 1


class PatchError(Exception):
    """A patch that does not fit the module it is applied to."""
    pass


@dataclass
class Patch:
    """A distributable instrumentation patch."""

    program: str                      # module name the patch targets
    hooks: Tuple[HookSpec, ...] = ()
    #: Watch-hook uids this *particular* client should arm.  When a window
    #: needs more than 4 watchpoints, the server splits candidates across
    #: clients cooperatively (§3.2.3); an empty set means "arm everything".
    watch_assignment: frozenset = frozenset()
    #: Static-slice uids for client-side evidence slicing: when
    #: non-empty, the endpoint prunes its monitored run's executed
    #: sequences down to this slice (plus hook uids and trapped pcs)
    #: before reporting.  Every server-cut patch carries one.  Empty (the
    #: default) means no slicing and is encoded as *absence*, so a
    #: sliceless patch keeps the pre-slicing wire body.
    slice_uids: frozenset = frozenset()

    @classmethod
    def from_plan(cls, program: str, plan: InstrumentationPlan,
                  watch_assignment: Sequence[int] = (),
                  slice_uids: Sequence[int] = ()) -> "Patch":
        return cls(program=program, hooks=tuple(plan.hooks),
                   watch_assignment=frozenset(watch_assignment),
                   slice_uids=frozenset(slice_uids))


@dataclass
class AppliedInstrumentation:
    """Everything a client run carries once a patch is applied."""

    patch: Patch
    driver: PTDriver
    watchpoints: WatchpointUnit
    tracee: TraceeState
    hooks: Dict[int, List[Tuple]] = field(default_factory=dict)
    armed_addresses: Set[int] = field(default_factory=set)
    arming_failures: int = 0
    ptwrite: bool = False

    def tracers(self) -> List:
        return [self.driver.encoder, self.watchpoints]


def apply_patch(patch: Patch, module: Module,
                tracee: Optional[TraceeState] = None,
                ptwrite: bool = False) -> AppliedInstrumentation:
    """Build interpreter hooks + tracers implementing ``patch``.

    The returned object's ``hooks`` go to the :class:`Interpreter` and its
    ``tracers()`` join the run's tracer list.

    ``ptwrite`` selects the §6 future-hardware mode: the PT stream itself
    carries data packets for every access in traced windows, so no
    watchpoints are armed at all (no 4-register budget, no ptrace attach,
    no cooperative address splitting).
    """
    if patch.program and patch.program != module.name:
        raise PatchError(f"patch targets {patch.program!r}, "
                         f"module is {module.name!r}")
    from ..pt.encoder import PTConfig

    applied = AppliedInstrumentation(
        patch=patch,
        driver=PTDriver(module, config=PTConfig(ptwrite=ptwrite)),
        watchpoints=WatchpointUnit(),
        tracee=tracee or TraceeState(),
    )
    applied.ptwrite = ptwrite

    def make_pt_hook(cmd: int):
        def hook(interp, tid: int, ins) -> None:
            was = applied.driver.encoder.is_enabled(tid)
            applied.driver.ioctl(cmd, tid, ins.uid)
            now = applied.driver.encoder.is_enabled(tid)
            if was != now:
                interp.extra_cost += IOCTL_TOGGLE_COST
        return hook

    def watch_hook(interp, tid: int, ins) -> None:
        # Resolve the address the access is about to touch.
        address = interp.eval_operand(tid, ins.operands[0])
        if not interp.memory.is_shared(address):
            return  # stack or null: never watched (§3.2.3)
        if address in applied.armed_addresses:
            return  # active-set discipline
        try:
            session = PtraceSession(applied.tracee, applied.watchpoints)
            with session:
                slot = session.place_watchpoint(address, condition="rw")
            interp.extra_cost += session.syscall_cost
            if slot is not None:
                applied.armed_addresses.add(address)
        except WatchpointExhausted:
            applied.arming_failures += 1
        except PtraceError:
            applied.arming_failures += 1

    assignment = patch.watch_assignment
    # A single instruction can carry several hooks — e.g. it is both the
    # immediate postdominator ending one statement's traced region and a
    # predecessor starting the next statement's.  Execution order matters:
    # the stop must fire before the start so that tracing stays ON across
    # back-to-back regions (stop-then-start), never the reverse.
    _ORDER = {"pt_stop": 0, "pt_start": 1, "watch": 2}
    for spec in sorted(patch.hooks, key=lambda h: _ORDER.get(h.action, 3)):
        if spec.action == "pt_start":
            fn = make_pt_hook(PT_IOC_ENABLE)
        elif spec.action == "pt_stop":
            fn = make_pt_hook(PT_IOC_DISABLE)
        elif spec.action == "watch":
            if ptwrite:
                continue  # data flow rides in the PT stream itself
            if assignment and spec.uid not in assignment:
                continue  # another cooperative client covers this access
            fn = watch_hook
        else:
            # The wire body admits any action string; refuse what no
            # hook implements.
            raise PatchError(f"unknown action {spec.action!r}")
        applied.hooks.setdefault(spec.uid, []).append((fn, STUB_COST))
    return applied
