"""Instrumentation planner and patch tests."""

import pytest

from repro.analysis import BackwardSlicer
from repro.instrument import (
    InstrumentationPlanner,
    Patch,
    PatchError,
    apply_patch,
)
from repro.lang import Opcode, compile_source
from repro.runtime import Interpreter

SRC = """
int shared = 0;
int helper(int v) {
    return v + 1;
}
int main(int x) {
    int local = 3;
    int i;
    for (i = 0; i < x; i++) {
        shared = helper(shared);
        local = local + 1;
    }
    assert(shared < 100, "bound");
    return local;
}
"""


@pytest.fixture(scope="module")
def setup():
    module = compile_source(SRC)
    slicer = BackwardSlicer(module)
    failing = next(i for i in module.instructions()
                   if i.opcode is Opcode.ASSERT)
    slice_ = slicer.slice_from(failing.uid)
    planner = InstrumentationPlanner(module, slicer)
    return module, slicer, slice_, planner


class TestPlanner:
    def test_window_statements_are_coverable(self, setup):
        module, slicer, slice_, planner = setup
        plan = planner.plan_window(slice_, slice_.window(4))
        assert plan.hook_uids("pt_start"), "no trace start points planned"

    def test_stop_points_never_blind_the_window(self, setup):
        # A stop point must not sit where control can still flow back into
        # tracked statements (the loop-head pitfall).
        module, slicer, slice_, planner = setup
        plan = planner.plan_window(slice_, slice_.window(4))
        window_blocks = {}
        for uid in plan.window_uids:
            ins = module.instr(uid)
            window_blocks.setdefault(ins.func_name, set()).add(
                ins.block_label)
        from repro.analysis.cfg import build_cfg

        for uid in plan.hook_uids("pt_stop"):
            ins = module.instr(uid)
            cfg = build_cfg(module.functions[ins.func_name])
            targets = window_blocks.get(ins.func_name, set())
            # BFS from the stop block must not reach a window block unless
            # the stop is at a return (terminators of exit blocks).
            if ins.is_terminator() and ins.opcode is Opcode.RET:
                continue
            seen = {ins.block_label}
            stack = [ins.block_label]
            reached = False
            while stack:
                label = stack.pop()
                if label in targets:
                    reached = True
                    break
                for nxt in cfg.succs.get(label, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            assert not reached, f"stop at {uid} can re-enter the window"

    def test_watch_candidates_exclude_stack_slots(self, setup):
        module, slicer, slice_, planner = setup
        plan = planner.plan_window(slice_, slice_.uids)
        for uid in plan.watch_candidates:
            symbol = slicer.access_symbol(module.instr(uid))
            assert symbol is None or symbol[0] != "alloca"

    def test_one_watch_per_statement(self, setup):
        module, slicer, slice_, planner = setup
        plan = planner.plan_window(slice_, slice_.uids)
        lines = [ (module.instr(u).func_name, module.instr(u).line)
                  for u in plan.watch_candidates ]
        assert len(lines) == len(set(lines))

    def test_spawned_routine_started_at_its_entry(self):
        src = """
            int g = 0;
            void w(int v) { g = v; }
            int main() {
                int t = thread_create(w, 3);
                thread_join(t);
                assert(g == 3, "set");
                return 0;
            }
        """
        module = compile_source(src)
        slicer = BackwardSlicer(module)
        failing = next(i for i in module.instructions()
                       if i.opcode is Opcode.ASSERT)
        slice_ = slicer.slice_from(failing.uid)
        planner = InstrumentationPlanner(module, slicer)
        plan = planner.plan_window(slice_, slice_.uids)
        w = module.functions["w"]
        w_entry = w.blocks[w.entry].instrs[0].uid
        assert w_entry in plan.hook_uids("pt_start")


class TestPatchSerialization:
    """Patches travel as the wire's JSON body (``tests/fleet/test_wire.py``
    round-trips them); applying one checks it fits the module."""

    def test_wrong_program_rejected(self, setup):
        module, slicer, slice_, planner = setup
        patch = Patch(program="other-program")
        with pytest.raises(PatchError):
            apply_patch(patch, module)


class TestApplication:
    def test_instrumented_run_produces_traces_and_traps(self, setup):
        module, slicer, slice_, planner = setup
        plan = planner.plan_window(slice_, slice_.window(4))
        patch = Patch.from_plan(module.name, plan)
        applied = apply_patch(patch, module)
        interp = Interpreter(module, args=[5], tracers=applied.tracers(),
                             hooks=applied.hooks)
        out = interp.run()
        assert not out.failed
        assert applied.driver.encoder.total_bytes() > 0
        assert applied.watchpoints.trap_log
        assert out.extra_cost > 0

    def test_watch_assignment_restricts_arming(self, setup):
        module, slicer, slice_, planner = setup
        plan = planner.plan_window(slice_, slice_.uids)
        assert plan.watch_candidates
        # An assignment naming a bogus uid arms nothing.
        patch = Patch.from_plan(module.name, plan, watch_assignment=[-1])
        applied = apply_patch(patch, module)
        interp = Interpreter(module, args=[5], tracers=applied.tracers(),
                             hooks=applied.hooks)
        interp.run()
        assert not applied.armed_addresses

    def test_stub_cost_charged_even_without_toggle(self, setup):
        module, slicer, slice_, planner = setup
        plan = planner.plan_window(slice_, slice_.window(2))
        patch = Patch.from_plan(module.name, plan)
        applied = apply_patch(patch, module)
        interp = Interpreter(module, args=[20], tracers=applied.tracers(),
                             hooks=applied.hooks)
        out = interp.run()
        assert out.extra_cost > 0

    def test_stop_then_start_keeps_tracing_on(self):
        # Both hooks on the same uid: the net effect must be tracing ON.
        src = """
            int g = 0;
            int main(int n) {
                int i;
                for (i = 0; i < n; i++) { g = g + 1; }
                assert(g == n, "count");
                return 0;
            }
        """
        module = compile_source(src)
        from repro.instrument.planner import HookSpec, InstrumentationPlan

        target = next(i for i in module.instructions()
                      if i.opcode is Opcode.ASSERT)
        plan = InstrumentationPlan(window_uids={target.uid})
        first = module.functions["main"].blocks["entry"].instrs[0]
        plan.hooks.append(HookSpec(first.uid, "pt_start", "start"))
        plan.hooks.append(HookSpec(first.uid, "pt_stop", "stop"))
        patch = Patch.from_plan(module.name, plan)
        applied = apply_patch(patch, module)
        interp = Interpreter(module, args=[3], tracers=applied.tracers(),
                             hooks=applied.hooks)
        interp.run()
        assert applied.driver.encoder.total_bytes() > 0


class TestDataItemSelection:
    def _plan_for(self, src, marker):
        from repro.lang import Opcode

        module = compile_source(src)
        slicer = BackwardSlicer(module)
        failing = next(i for i in module.instructions()
                       if i.opcode is Opcode.ASSERT)
        slice_ = slicer.slice_from(failing.uid)
        planner = InstrumentationPlanner(module, slicer)
        plan = planner.plan_window(slice_, slice_.uids)
        return module, plan

    def test_call_arguments_are_separate_data_items(self):
        src = """
            struct q { void* mut; void* cv; };
            struct q* g;
            void waiter(int x) {
                mutex_lock(g->mut);
                cond_wait(g->cv, g->mut);
                mutex_unlock(g->mut);
            }
            int main() {
                g = malloc(sizeof(struct q));
                g->mut = mutex_create();
                g->cv = cond_create();
                int t = thread_create(waiter, 0);
                cond_destroy(g->cv);
                mutex_destroy(g->mut);
                thread_join(t);
                return 0;
            }
        """
        from repro.lang import Opcode

        module = compile_source(src)
        slicer = BackwardSlicer(module)
        wait = next(i for i in module.instructions()
                    if i.is_call() and i.callee == "cond_wait")
        slice_ = slicer.slice_from(wait.uid)
        planner = InstrumentationPlanner(module, slicer)
        plan = planner.plan_window(slice_, slice_.uids)
        watched_texts = {module.instr(u).text
                         for u in plan.watch_candidates
                         if module.instr(u).line == wait.line}
        # Both pointer arguments are data items...
        assert watched_texts == {"g->cv", "g->mut"}

    def test_address_forming_load_not_watched(self):
        src = """
            struct q { int value; };
            struct q* g;
            int main() {
                g = malloc(sizeof(struct q));
                g->value = 3;
                assert(g->value == 3, "check");
                return 0;
            }
        """
        module, plan = self._plan_for(src, "value")
        # The load of the global pointer g feeds the field address; only
        # the field access itself is a data item.
        watched_texts = [module.instr(u).text
                         for u in plan.watch_candidates]
        assert "g->value" in watched_texts
        value_lines = {module.instr(u).line for u in plan.watch_candidates
                       if module.instr(u).text == "g->value"}
        for uid in plan.watch_candidates:
            ins = module.instr(uid)
            if ins.line in value_lines:
                assert ins.text != "g", \
                    "the pointer load is address arithmetic, not a data item"
