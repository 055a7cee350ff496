"""Tier equivalence: compiled == decoded == the recorded reference.

The interpreter tiers are pure speed changes.  ``tests/golden/tiers.json``
holds per-part digests (:mod:`tests.digest`) of what the retired strict
reference interpreter produced across the whole corpus — event
sequences, PT buffers, watchpoint trap logs, outcomes and cost
accounting, race reports and null-origin chains — recorded when the
strict, decoded and compiled tiers all agreed on every part under two
hash seeds.  The compiled tier (GIR compiled to Python generators) and
the decoded tier (pre-decoded closure streams + subscriber-list dispatch
+ memory fast paths) must each reproduce every row, and decoded-tier
campaigns must reproduce ``tests/golden/campaigns.json``.

The compiled tier runs instrumented executions too: its generated code
fires hooks and events itself.  Instrumented runs carry full-trace PT, a
watchpoint unit and an event log, or real AsT patches (PT windows toggled
mid-run, watchpoints armed by hooks) plus each bug's detectors;
uninstrumented runs pin the plain generators.

Gates are pinned per handler: an event log takes every event, a
watchpoint unit only accesses to watched addresses, a PT encoder only
branch and flow events of traced threads, and a detector only global and
heap accesses, whoever else shares the kind; a lone, cost-free gated
handler is tested inline.

Running this module prints the fixture from live compiled-tier runs;
redirect it into ``tests/golden/tiers.json`` to re-record after an
intended behaviour change::

    PYTHONPATH=src python -m tests.runtime.test_hotpath_equivalence \\
        > tests/golden/tiers.json
"""

import json
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import BackwardSlicer
from repro.corpus import all_bug_ids, get_bug
from repro.detect import (
    NullOriginTracer,
    RaceDetector,
    apply_detectors,
    make_detectors,
)
from repro.hw.watchpoints import WatchpointUnit
from repro.instrument import InstrumentationPlanner, Patch, apply_patch
from repro.lang.girparser import parse_gir
from repro.lang.ir import GlobalRef, Opcode
from repro.pt.encoder import PTConfig, PTEncoder, SoftwarePTEncoder
from repro.runtime import compiled as compiled_mod
from repro.runtime import decoded as decoded_mod
from repro.runtime import interpreter as interp_mod
from repro.runtime.compiled import CompileError, compiled_program
from repro.runtime.decoded import decoded_program
from repro.runtime.events import (
    BranchEvent,
    FlowEvent,
    MemEvent,
    Tracer,
    gate,
    subscribes,
)
from repro.runtime.interpreter import Interpreter
from repro.runtime.memory import GLOBAL_BASE, STACK_BASE, STACK_STRIDE
from tests.digest import DIGEST_CHARS, digest

TIERS = ("compiled", "decoded")

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "tiers.json"
#: What the fixture was recorded at.
GOLDEN_SETTINGS = {
    "digest": f"sha256 of canonical JSON, first {DIGEST_CHARS} hex chars",
    "run_bugs": "all_bug_ids()",
    "run_workloads": ["seed0", "seed1", "probe"],
    "patched_bugs": "all_bug_ids(include_extra=True)",
    "patched_workloads": ["failing", "seed0"],
    "sigmas": [2, 4, 8],
    "pt_streams": "full-trace PT of each run_workload, per thread",
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _digests(parts, values):
    return {part: digest(value) for part, value in zip(parts, values)}


def _assert_rows_match(row, parts, values, where):
    """Every part of one live case against its fixture row; a mismatch
    names the case (``where``) and the part."""
    got = _digests(parts, values)
    assert set(row) == set(parts), f"{where}: fixture parts {sorted(row)}"
    for part in parts:
        assert got[part] == row[part], f"{where}: {part} diverged"


class EventLog(Tracer):
    """Records every event verbatim (events are immutable named tuples, so
    list equality is full field-wise equality)."""

    def __init__(self):
        self.events = []

    def on_branch(self, interp, event):
        self.events.append(event)

    def on_flow(self, interp, event):
        self.events.append(event)

    def on_mem(self, interp, event):
        self.events.append(event)

    def on_sync(self, interp, event):
        self.events.append(event)


class CostOnly(Tracer):
    """Pays per-event costs but observes nothing (no overrides)."""

    cost_per_step = 1
    cost_per_branch = 2
    cost_per_mem = 3
    cost_per_flow = 1


def _workloads(spec):
    out = [("seed0", spec.workload_factory(0)),
           ("seed1", spec.workload_factory(1))]
    if spec.failing_probe is not None:
        out.append(("probe", spec.failing_probe))
    return out


def _outcome_key(outcome):
    f = outcome.failure
    return (outcome.failed, outcome.exit_value, outcome.steps,
            outcome.base_cost, outcome.extra_cost, tuple(outcome.stdout),
            None if f is None else (f.kind, f.pc, f.tid, f.message,
                                    f.stack, f.address))


def _run(spec, workload, mode):
    module = spec.module()
    log = EventLog()
    pt = PTEncoder(trace_on_start=True)
    wpu = WatchpointUnit()
    if module.globals:
        wpu.set_watchpoint(GLOBAL_BASE, length=4, condition="rw")
    interp = Interpreter(module, args=list(workload.args),
                         scheduler=workload.make_scheduler(),
                         tracers=[log, pt, wpu],
                         max_steps=workload.max_steps,
                         mode=mode)
    outcome = interp.run()
    pt_bytes = {tid: pt.raw_trace(tid) for tid in sorted(pt.buffers)}
    return (_outcome_key(outcome), dict(interp.cost.counts), log.events,
            pt_bytes, list(wpu.trap_log), wpu.traps_taken)


def _run_uninstrumented(spec, workload, mode):
    interp = Interpreter(spec.module(), args=list(workload.args),
                         scheduler=workload.make_scheduler(),
                         max_steps=workload.max_steps,
                         mode=mode)
    outcome = interp.run()
    return (_outcome_key(outcome), dict(interp.cost.counts))


_PARTS = ("outcome", "op counts", "event log", "pt buffers",
          "trap log", "traps taken")
_PLAIN_PARTS = ("outcome", "op counts")


@pytest.mark.parametrize("bug_id", all_bug_ids())
def test_bug_runs_identical_across_dispatch_modes(bug_id, golden):
    """Instrumented matrix: full-trace PT (a step subscriber), a
    watchpoint and an event log on every tier."""
    spec = get_bug(bug_id)
    for label, workload in _workloads(spec):
        row = golden["runs"][f"{bug_id}/{label}"]
        for mode in TIERS:
            _assert_rows_match(row, _PARTS, _run(spec, workload, mode),
                               f"{bug_id}/{label}/{mode}")


@pytest.mark.parametrize("bug_id", all_bug_ids())
def test_uninstrumented_runs_identical_across_modes(bug_id, golden):
    """Uninstrumented matrix: no tracers, so ``compiled`` really runs the
    exec-compiled generators — outcomes, step counts, and cost accounting
    must match the reference byte for byte."""
    spec = get_bug(bug_id)
    for label, workload in _workloads(spec):
        row = golden["uninstrumented_runs"][f"{bug_id}/{label}"]
        for mode in TIERS:
            _assert_rows_match(row, _PLAIN_PARTS,
                               _run_uninstrumented(spec, workload, mode),
                               f"{bug_id}/{label}/{mode}")


#: A list walk whose loads overwrite their own address register, which
#: MiniC codegen never emits (it always loads into a fresh temporary).
_SELF_ADDRESSED_LOAD_GIR = """
@a : [1]
@b : [1]
@c : [1]

def main(%n) {
entry:
  store @a, @b
  store @b, @c
  store @c, 0
  %p = move @a
  %s = const 0
  jmp -> head
head:
  %k = binop != %p, 0
  br %k -> body, done
body:
  %p = load %p
  %s = binop + %s, 1
  jmp -> head
done:
  ret %s
}
"""


def _self_addressed_run(mode):
    module = parse_gir(_SELF_ADDRESSED_LOAD_GIR)
    log = EventLog()
    pt = PTEncoder(PTConfig(ptwrite=True), trace_on_start=True)
    wpu = WatchpointUnit()
    wpu.set_watchpoint(GLOBAL_BASE, length=3, condition="rw")
    interp = Interpreter(module, tracers=[log, pt, wpu], mode=mode)
    assert interp.mode == mode
    outcome = interp.run()
    pt_bytes = {tid: pt.raw_trace(tid) for tid in sorted(pt.buffers)}
    return (_outcome_key(outcome), log.events, pt_bytes, list(wpu.trap_log))


_SELF_ADDRESSED_PARTS = ("outcome", "event log", "pt buffers", "trap log")


def test_self_addressed_load_events_identical_across_tiers(golden):
    """``%p = load %p``: the memory event carries the address read, not the
    loaded value, on every tier, and so do the watchpoint traps and PTWRITE
    packets fed from it."""
    a, b, c = GLOBAL_BASE, GLOBAL_BASE + 1, GLOBAL_BASE + 2
    for mode in TIERS:
        result = _self_addressed_run(mode)
        loads = [(event.address, event.value) for event in result[1]
                 if isinstance(event, MemEvent) and not event.is_write]
        assert loads == [(a, b), (b, c), (c, 0)], mode
        assert result[0][1] == 3, mode
        _assert_rows_match(golden["self_addressed_load"],
                           _SELF_ADDRESSED_PARTS, result, mode)


#: Slice-window sizes (σ) the patched-run matrix plans AsT patches for.
_SIGMAS = (2, 4, 8)


def _failing_run(spec):
    """The bug's first failing workload, with its declared detectors
    attached as a deployment would, and the failing pc."""
    module = spec.module()
    candidates = [spec.failing_probe] + [spec.workload_factory(run_id)
                                         for run_id in range(20)]
    for workload in filter(None, candidates):
        detectors = make_detectors(spec.detectors)
        interp = Interpreter(module, entry=workload.entry,
                             args=list(workload.args),
                             scheduler=workload.make_scheduler(),
                             tracers=detectors,
                             max_steps=workload.max_steps)
        outcome = apply_detectors(interp.run(), detectors)
        if outcome.failed:
            return workload, outcome.failure.pc
    raise AssertionError(f"{spec.bug_id}: no failing run")


def _patched_run(spec, workload, patch, mode):
    module = spec.module()
    applied = apply_patch(patch, module)
    detectors = make_detectors(spec.detectors)
    interp = Interpreter(module, entry=workload.entry,
                         args=list(workload.args),
                         scheduler=workload.make_scheduler(),
                         tracers=applied.tracers() + detectors,
                         hooks=applied.hooks,
                         max_steps=workload.max_steps, mode=mode)
    outcome = apply_detectors(interp.run(), detectors)
    encoder = applied.driver.encoder
    return (_outcome_key(outcome),
            None if outcome.failure is None else outcome.failure.origin,
            dict(interp.cost.counts),
            {tid: encoder.raw_trace(tid) for tid in sorted(encoder.buffers)},
            list(applied.watchpoints.trap_log),
            applied.arming_failures,
            [d.races for d in detectors if isinstance(d, RaceDetector)])


_PATCHED_PARTS = ("outcome", "null-origin chain", "op counts",
                  "pt buffers", "trap log", "arming failures", "races")


def _patched_cases(spec):
    """(σ, workload label, workload, patch) for every patched-run case of
    one bug."""
    module = spec.module()
    failing, pc = _failing_run(spec)
    slicer = BackwardSlicer(module)
    slice_ = slicer.slice_from(pc)
    planner = InstrumentationPlanner(module, slicer)
    for sigma in _SIGMAS:
        plan = planner.plan_window(slice_, slice_.window(sigma))
        patch = Patch.from_plan(module.name, plan)
        for label, workload in (("failing", failing),
                                ("seed0", spec.workload_factory(0))):
            yield sigma, label, workload, patch


@pytest.mark.parametrize("bug_id", all_bug_ids(include_extra=True))
def test_patched_runs_identical_across_tiers(bug_id, golden):
    """Monitored runs as a campaign makes them: AsT patches planned from
    the bug's failure slice at several σ (mid-run PT start/stop toggles and
    watchpoint arming by hooks), the bug's detectors attached (race reports
    and null-origin chains).  Outcomes and every piece of evidence match
    the reference on both tiers."""
    spec = get_bug(bug_id)
    for sigma, label, workload, patch in _patched_cases(spec):
        row = golden["patched_runs"][f"{bug_id}/sigma={sigma}/{label}"]
        for mode in TIERS:
            _assert_rows_match(row, _PATCHED_PARTS,
                               _patched_run(spec, workload, patch, mode),
                               f"{bug_id}/{label}/σ={sigma}/{mode}")


def test_compiled_tier_runs_instrumented(monkeypatch):
    """The tier contract: with tracers and hooks attached, ``compiled``
    mode runs the compiled generators; a module the compiler rejects falls
    back to the decoded tier with identical results."""
    entered = []
    for loop in ("_loop", "_loop_compiled"):
        original = getattr(Interpreter, loop)

        def spy(self, loop=loop, original=original):
            entered.append(loop)
            return original(self)
        monkeypatch.setattr(Interpreter, loop, spy)

    spec = get_bug("pbzip2-1")
    workload = spec.workload_factory(0)
    module = spec.module()
    hooked = module.functions["main"].blocks[
        module.functions["main"].entry].instrs[0].uid
    fired = []

    def run():
        interp = Interpreter(
            module, args=list(workload.args),
            scheduler=workload.make_scheduler(),
            tracers=[EventLog(), WatchpointUnit()],
            hooks={hooked: [(lambda i, tid, ins: fired.append(tid), 1)]},
            max_steps=workload.max_steps, mode="compiled")
        return interp.mode, _outcome_key(interp.run())

    mode, compiled_outcome = run()
    assert (mode, entered, fired) == ("compiled", ["_loop_compiled"], [0])

    def reject(module):
        raise CompileError("unsupported construct")
    monkeypatch.setattr(interp_mod, "compiled_program", reject)
    entered.clear()
    mode, decoded_outcome = run()
    assert (mode, entered) == ("decoded", ["_loop"])
    assert decoded_outcome == compiled_outcome


def test_unknown_modes_rejected():
    """Two tiers; the retired strict tier is an unknown mode."""
    module = get_bug("pbzip2-1").module()
    for mode in ("strict", "bogus"):
        with pytest.raises(ValueError, match="unknown interpreter mode"):
            Interpreter(module, mode=mode)


@pytest.mark.parametrize("bug_id", all_bug_ids(include_extra=True))
def test_decoded_campaigns_match_golden(bug_id, monkeypatch):
    """Whole diagnosis campaigns (clients construct their own interpreters)
    on the decoded tier, toggled the way operators would — via the
    process-wide default — reproduce ``tests/golden/campaigns.json`` at its
    settings.  The compiled tier is pinned there by the wire-transport
    test in ``tests/fleet/test_campaign.py``."""
    from tests.fleet.test_campaign import GOLDEN as CAMPAIGNS
    from tests.fleet.test_campaign import assert_golden_campaign

    monkeypatch.setattr(interp_mod, "INTERP_MODE_DEFAULT", "decoded")
    expected = json.loads(CAMPAIGNS.read_text())["bugs"][bug_id]
    assert_golden_campaign(bug_id, expected)


def test_decoded_stream_cached_per_module_and_epoch():
    module = get_bug("pbzip2-1").module()
    first = decoded_program(module)
    assert decoded_program(module) is first  # same epoch: shared decode
    module.finalize()                        # bumps analysis_epoch
    rebuilt = decoded_program(module)
    assert rebuilt is not first
    assert rebuilt.epoch == module.analysis_epoch


def test_compiled_program_cached_per_module_and_epoch():
    module = get_bug("pbzip2-1").module()
    first = compiled_program(module)
    assert compiled_program(module) is first  # same epoch: shared compile
    module.finalize()                         # bumps analysis_epoch
    rebuilt = compiled_program(module)
    assert rebuilt is not first
    assert rebuilt.epoch == module.analysis_epoch


def test_compiled_cache_evicts_under_cap(monkeypatch):
    """The module-level LRU respects its cap and counts evictions."""
    monkeypatch.setattr(compiled_mod, "COMPILED_CACHE_CAP", 2)
    compiled_mod._CACHE.clear()
    before = compiled_mod.cache_evictions
    modules = [get_bug(bid).module()
               for bid in ("pbzip2-1", "curl-965", "apache-21287")]
    progs = [compiled_program(m) for m in modules]
    assert compiled_mod.cache_evictions == before + 1  # first module out
    assert len(compiled_mod._CACHE) == 2
    # The evicted module recompiles (fresh object); the survivors are hits.
    assert compiled_program(modules[2]) is progs[2]
    assert compiled_program(modules[0]) is not progs[0]
    assert compiled_mod.cache_evictions == before + 2


def test_unobserved_events_allocate_nothing(monkeypatch):
    """With only cost-declaring (non-observing) tracers attached, the fast
    tiers must not construct a single event object — the zero-cost
    dispatch invariant.  Both tiers build events only through the
    interpreter's fan-out methods; the event classes and the builder they
    use there are replaced with mines, and each run only completes if
    nothing steps on one."""

    def mine(*args, **kwargs):
        raise AssertionError("event allocated with no subscribers")

    events = ("BranchEvent", "FlowEvent", "MemEvent", "SyncEvent")
    for module in (compiled_mod, decoded_mod):
        assert not any(hasattr(module, name) for name in events)
    for name in (*events, "_tuple_new"):
        monkeypatch.setattr(interp_mod, name, mine)

    spec = get_bug("pbzip2-1")
    workload = spec.workload_factory(0)
    for mode in ("compiled", "decoded"):
        interp = Interpreter(spec.module(), args=list(workload.args),
                             scheduler=workload.make_scheduler(),
                             tracers=[CostOnly()],
                             max_steps=workload.max_steps, mode=mode)
        assert interp.mode == mode
        outcome = interp.run()
        assert outcome.steps > 0
        assert outcome.extra_cost > 0  # the costs were still charged


def _pbzip2_run(mode, tracers, hooks=None):
    spec = get_bug("pbzip2-1")
    workload = spec.workload_factory(0)
    interp = Interpreter(spec.module(), args=list(workload.args),
                         scheduler=workload.make_scheduler(),
                         tracers=tracers, hooks=hooks,
                         max_steps=workload.max_steps, mode=mode)
    assert interp.mode == mode
    return interp.run()


def test_gated_runs_build_only_watched_events(monkeypatch):
    """A watchpoint unit armed on one global and a PT encoder whose windows
    never open: the fast tiers build one memory event per access to that
    global (counted from an ungated event log) and no branch or flow
    event at all."""
    fifo = GLOBAL_BASE  # @fifo, pbzip2's work-queue pointer
    log = EventLog()
    _pbzip2_run("compiled", [log])
    accesses = sum(1 for event in log.events
                   if isinstance(event, MemEvent) and event.address == fifo)
    assert accesses > 0

    built = {BranchEvent: 0, FlowEvent: 0, MemEvent: 0}
    new = tuple.__new__

    def spy(cls, fields):
        built[cls] += 1
        return new(cls, fields)
    monkeypatch.setattr(interp_mod, "_tuple_new", spy)
    for mode in ("compiled", "decoded"):
        built.update(dict.fromkeys(built, 0))
        wpu = WatchpointUnit()
        wpu.set_watchpoint(fifo)
        pt = PTEncoder()
        _pbzip2_run(mode, [pt, wpu])
        assert built == {BranchEvent: 0, FlowEvent: 0, MemEvent: accesses}, \
            mode
        assert wpu.traps_taken == accesses
        assert pt.total_bytes() == 0


@pytest.mark.parametrize("bug_id", ["tpqueue-1", "evloop-1"])
def test_shared_runs_build_only_gated_events(bug_id, monkeypatch):
    """The bug's detector (null-origin for tpqueue-1, races for evloop-1)
    and a watchpoint unit armed on one global share the memory events:
    each tier builds one event per access inside the union of their gates
    (counted from an ungated event log), and hands the unit only accesses
    to its watched address."""
    spec = get_bug(bug_id)
    workload, _ = _failing_run(spec)
    watched = GLOBAL_BASE

    def run(mode, tracers):
        interp = Interpreter(spec.module(), entry=workload.entry,
                             args=list(workload.args),
                             scheduler=workload.make_scheduler(),
                             tracers=tracers, max_steps=workload.max_steps,
                             mode=mode)
        assert interp.mode == mode
        return interp.run()

    log = EventLog()
    run("compiled", [log])
    addresses = [event.address for event in log.events
                 if isinstance(event, MemEvent)]
    (detector,) = make_detectors(spec.detectors)
    region = gate(detector, "on_mem")
    inside = sum(1 for a in addresses if a in region or a == watched)
    hits = addresses.count(watched)
    assert 0 < hits < inside < len(addresses)  # each gate drops something

    built = {MemEvent: 0}
    new = tuple.__new__

    def spy(cls, fields):
        if cls is MemEvent:
            built[MemEvent] += 1
        return new(cls, fields)
    monkeypatch.setattr(interp_mod, "_tuple_new", spy)
    for mode in TIERS:
        built[MemEvent] = 0
        wpu = WatchpointUnit()
        wpu.set_watchpoint(watched)
        handed = []

        def on_mem(interp, event, unit_on_mem=wpu.on_mem):
            handed.append(event.address)
            unit_on_mem(interp, event)
        wpu.on_mem = on_mem
        run(mode, make_detectors(spec.detectors) + [wpu])
        assert built[MemEvent] == inside, mode
        assert handed == [watched] * hits, mode
        assert wpu.traps_taken == hits, mode


def _detector_state(detector) -> bytes:
    """Everything a detector has recorded, as comparable bytes."""
    state = {name: value for name, value in vars(detector).items()
             if name != "_interp"}
    return pickle.dumps(state)


@pytest.fixture(scope="module")
def warm_detectors():
    """Both detectors after tpqueue-1's failing run, with its interpreter:
    shadow cells, clocks, chains and null loads all populated."""
    spec = get_bug("tpqueue-1")
    workload, _ = _failing_run(spec)
    detectors = make_detectors(("races", "nullorigin"))
    interp = Interpreter(spec.module(), entry=workload.entry,
                         args=list(workload.args),
                         scheduler=workload.make_scheduler(),
                         tracers=detectors, max_steps=workload.max_steps)
    interp.run()
    return interp, detectors


@settings(max_examples=150, deadline=None)
@given(address=st.one_of(
           st.integers(0, GLOBAL_BASE - 1),
           st.integers(STACK_BASE, STACK_BASE + 4 * STACK_STRIDE)),
       tid=st.integers(0, 3), pc=st.integers(0, 200),
       is_write=st.booleans(), value=st.integers(-1, 2))
def test_detectors_ignore_accesses_outside_their_gate(
        warm_detectors, address, tid, pc, is_write, value):
    """The detectors' gate is sound: an access on the null page or a stack
    changes no detector state, so dropping it before the event is built
    is unobservable."""
    interp, detectors = warm_detectors
    event = MemEvent(step=interp.global_step + 1, tid=tid, pc=pc,
                     address=address, is_write=is_write, value=value)
    for detector in detectors:
        assert address not in gate(detector, "on_mem")
        before = _detector_state(detector)
        detector.on_mem(interp, event)
        assert _detector_state(detector) == before, type(detector).__name__


def _churned_run(mode):
    """pbzip2-1 under hooks that arm, clear and re-arm watchpoints and open
    and close a PT window mid-run."""
    module = get_bug("pbzip2-1").module()
    fifo, total_out = GLOBAL_BASE, GLOBAL_BASE + 1
    accesses = [ins for ins in module.instructions()
                if ins.opcode in (Opcode.LOAD, Opcode.STORE)]
    first_load = next(ins for ins in accesses
                      if ins.operands[0] == GlobalRef("fifo"))
    wpu, pt = WatchpointUnit(), PTEncoder()
    fresh = []

    def arm_at_first_load(interp, tid, ins):
        if not wpu.registers and not wpu.trap_log:
            wpu.set_watchpoint(fifo)
            pt.enable(tid, ins.uid)

    def arm_fresh(interp, tid, ins):
        # Late in the run, watch the next access to an address that no
        # register has covered before (a gate rebound by ``clear`` or
        # ``clear_all`` would miss it), from the access's own hook.
        if fresh or interp.global_step < 30_000:
            return
        address = interp.eval_operand(tid, ins.operands[0])
        if address not in (fifo, total_out):
            fresh.append(address)
            wpu.set_watchpoint(address, length=3)
            pt.enable(tid, ins.uid)

    script = [
        (10_000, lambda tid, ins: wpu.set_watchpoint(total_out)),
        (20_000, lambda tid, ins: wpu.clear(0)),
        (20_000, lambda tid, ins: pt.disable(tid, ins.uid)),
        (25_000, lambda tid, ins: wpu.clear_all()),
    ]

    def churn(interp, tid, ins):
        while script and interp.global_step >= script[0][0]:
            script.pop(0)[1](tid, ins)

    hooks = {ins.uid: [(churn, 0)] for ins in module.instructions()}
    for ins in accesses:
        hooks[ins.uid].append((arm_fresh, 0))
    hooks[first_load.uid].insert(0, (arm_at_first_load, 0))
    outcome = _pbzip2_run(mode, [pt, wpu], hooks)
    return (_outcome_key(outcome), list(wpu.trap_log), wpu.traps_taken,
            {tid: pt.raw_trace(tid) for tid in sorted(pt.buffers)},
            first_load.uid, fresh)


_CHURNED_PARTS = ("outcome", "trap log", "traps taken", "pt buffers",
                  "first load", "fresh address")


def test_gates_follow_mid_run_arming_and_clearing(golden):
    """Gates are live: hooks that arm a watchpoint, ``clear`` or
    ``clear_all`` it and arm a fresh address, and open and close PT
    windows, change what every later event sees — the hooked instruction's
    own access included — identically on both tiers and the reference."""
    fifo, total_out = GLOBAL_BASE, GLOBAL_BASE + 1
    for mode in TIERS:
        result = _churned_run(mode)
        outcome, traps, _, pt_bytes, first_load, fresh = result
        assert traps[0].pc == first_load, mode  # the arming load traps
        assert {fifo, total_out, fresh[0]} <= \
            {trap.address for trap in traps}, mode
        assert pt_bytes, mode
        _assert_rows_match(golden["churned_run"], _CHURNED_PARTS, result,
                           mode)


def test_subscription_detection():
    assert not subscribes(CostOnly(), "on_mem")
    assert subscribes(EventLog(), "on_mem")
    assert subscribes(WatchpointUnit(), "on_mem")  # armed mid-run: stays on
    assert not subscribes(PTEncoder(), "on_mem")   # vetoed without PTWRITE
    assert subscribes(PTEncoder(PTConfig(ptwrite=True)), "on_mem")
    assert subscribes(PTEncoder(), "on_branch")
    # on_step only opens windows under trace_on_start; the software tracer
    # charges per step whenever a window is open, so it stays subscribed.
    assert not subscribes(PTEncoder(), "on_step")
    assert subscribes(PTEncoder(trace_on_start=True), "on_step")
    assert subscribes(SoftwarePTEncoder(), "on_step")

    plain = Tracer()
    assert not subscribes(plain, "on_branch")
    plain.on_branch = lambda interp, event: None  # instance-level handler
    assert subscribes(plain, "on_branch")

    # Gates: the watched addresses, the traced threads, or none.
    wpu = WatchpointUnit()
    assert gate(wpu, "on_mem") is wpu.gate_on_mem
    wpu.set_watchpoint(0x1000, length=3)
    assert gate(wpu, "on_mem") == {0x1000, 0x1001, 0x1002}
    pt = PTEncoder()
    assert gate(pt, "on_branch") is pt.tracing
    assert gate(pt, "on_flow") is pt.tracing
    # PTWRITE interest is per thread, not per address: no memory gate.
    assert gate(PTEncoder(PTConfig(ptwrite=True)), "on_mem") is None
    for name in ("on_mem", "on_branch", "on_flow", "on_sync", "on_step"):
        assert gate(EventLog(), name) is None
    assert gate(pt, "on_step") is None
    # The detectors' constant gate: globals and the heap, never mutated.
    region = range(GLOBAL_BASE, STACK_BASE)
    assert gate(RaceDetector(), "on_mem") == region
    assert gate(NullOriginTracer(), "on_mem") == region
    assert gate(RaceDetector(), "on_sync") is None

    # The run-level rule: a lone, cost-free handler's gate.
    module = get_bug("pbzip2-1").module()

    def gates(*tracers, mode="compiled"):
        interp = Interpreter(module, tracers=tracers, mode=mode)
        return interp._mem_gate, interp._branch_gate, interp._flow_gate

    for mode in TIERS:
        mem, branch, flow = gates(wpu, pt, mode=mode)
        assert mem is wpu.gate_on_mem and branch is flow is pt.tracing
        # A lone detector is gated inline on globals and the heap.
        for detector in (RaceDetector(), NullOriginTracer()):
            assert gates(detector, mode=mode) == (region, None, None)
    assert gates(wpu, EventLog()) == (None, None, None)  # two handlers
    assert gates(wpu, CostOnly()) == (None, None, None)  # a cost is owed
    assert gates(wpu, RaceDetector()) == (None, None, None)
    assert gates(pt, PTEncoder())[1:] == (None, None)


def record(mode="compiled") -> dict:
    """The fixture, from live runs on tier ``mode``."""
    from tests.pt.test_decoder_tables import window_digests

    fixture = {"settings": GOLDEN_SETTINGS, "runs": {},
               "uninstrumented_runs": {}, "patched_runs": {},
               "decoded_windows": {}}
    for bug_id in all_bug_ids():
        spec = get_bug(bug_id)
        for label, workload in _workloads(spec):
            key = f"{bug_id}/{label}"
            fixture["runs"][key] = _digests(
                _PARTS, _run(spec, workload, mode))
            fixture["uninstrumented_runs"][key] = _digests(
                _PLAIN_PARTS, _run_uninstrumented(spec, workload, mode))
        fixture["decoded_windows"][bug_id] = window_digests(spec, mode)
    for bug_id in all_bug_ids(include_extra=True):
        spec = get_bug(bug_id)
        for sigma, label, workload, patch in _patched_cases(spec):
            fixture["patched_runs"][f"{bug_id}/sigma={sigma}/{label}"] = \
                _digests(_PATCHED_PARTS,
                         _patched_run(spec, workload, patch, mode))
    fixture["churned_run"] = _digests(_CHURNED_PARTS, _churned_run(mode))
    fixture["self_addressed_load"] = _digests(
        _SELF_ADDRESSED_PARTS, _self_addressed_run(mode))
    return fixture


def test_golden_covers_the_corpus(golden):
    assert golden["settings"] == GOLDEN_SETTINGS
    runs = {f"{bug_id}/{label}" for bug_id in all_bug_ids()
            for label, _ in _workloads(get_bug(bug_id))}
    assert set(golden["runs"]) == set(golden["uninstrumented_runs"]) == runs
    assert sorted(golden["decoded_windows"]) == all_bug_ids()
    patched = {f"{bug_id}/sigma={sigma}/{label}"
               for bug_id in all_bug_ids(include_extra=True)
               for sigma in _SIGMAS for label in ("failing", "seed0")}
    assert set(golden["patched_runs"]) == patched


if __name__ == "__main__":
    print(json.dumps(record(), indent=2, sort_keys=True))
