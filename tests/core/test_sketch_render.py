"""Sketch construction and rendering unit tests."""

import pytest

from repro.core import (
    MonitoredRun,
    Predictor,
    PredictorStats,
    RunningRefinement,
    build_sketch,
    refine,
    render_compact,
    render_sketch,
)
from repro.hw.watchpoints import TrapRecord
from repro.lang import Opcode, compile_source
from repro.runtime.failures import FailureKind, FailureReport

SRC = """
int shared = 0;
void worker(int v) {
    shared = v;
}
int main(int x) {
    int t = thread_create(worker, x);
    thread_join(t);
    int got = shared;
    assert(got == 0, "clean");
    return 0;
}
"""


@pytest.fixture(scope="module")
def module():
    return compile_source(SRC)


def make_inputs(module):
    failing_ins = next(i for i in module.instructions()
                       if i.opcode is Opcode.ASSERT)
    store = next(i for i in module.instructions()
                 if i.opcode is Opcode.STORE and i.func_name == "worker"
                 and i.text == "shared")
    load = next(i for i in module.instructions()
                if i.opcode is Opcode.LOAD and i.func_name == "main"
                and i.text == "shared")
    failure = FailureReport(kind=FailureKind.ASSERTION,
                            pc=failing_ins.uid, tid=0, message="clean")
    addr = 0x1000
    run = MonitoredRun(
        run_id=0, failed=True, failure=failure,
        executed={0: [load.uid, failing_ins.uid], 1: [store.uid]},
        traps=[
            TrapRecord(seq=1, tid=1, pc=store.uid, address=addr,
                       is_write=True, value=5, slot=0),
            TrapRecord(seq=2, tid=0, pc=load.uid, address=addr,
                       is_write=False, value=5, slot=0),
        ])
    window = {load.uid, failing_ins.uid}
    evidence = RunningRefinement()
    evidence.add(run)
    refinement = refine(window, evidence,
                        slice_uids={load.uid, failing_ins.uid, store.uid})
    predictors = {
        "value": PredictorStats(Predictor("value", (load.uid, 5)),
                                precision=1.0, recall=1.0, f_measure=1.0),
        "order": PredictorStats(
            Predictor("order", ("WR", (store.uid, load.uid))),
            precision=1.0, recall=1.0, f_measure=1.0),
    }
    return failure, refinement, run, predictors, store, load, failing_ins


class TestBuildSketch:
    def test_cross_thread_steps_in_trap_order(self, module):
        failure, refinement, run, preds, store, load, failing = \
            make_inputs(module)
        sketch = build_sketch(module, "t", failure, refinement, run, preds,
                              sigma=2, iterations=1, failure_recurrences=2)
        uids = [s.uid for s in sketch.steps]
        assert uids.index(store.uid) < uids.index(load.uid)
        assert sketch.threads == [0, 1]

    def test_discovered_write_included(self, module):
        failure, refinement, run, preds, store, load, failing = \
            make_inputs(module)
        assert store.uid in refinement.discovered_uids
        sketch = build_sketch(module, "t", failure, refinement, run, preds)
        assert any(s.uid == store.uid for s in sketch.steps)

    def test_values_attached_to_anchored_steps(self, module):
        failure, refinement, run, preds, store, load, failing = \
            make_inputs(module)
        sketch = build_sketch(module, "t", failure, refinement, run, preds)
        step = next(s for s in sketch.steps if s.uid == store.uid)
        assert ("shared", 5) in step.values

    def test_highlights_mark_predictor_steps(self, module):
        failure, refinement, run, preds, store, load, failing = \
            make_inputs(module)
        sketch = build_sketch(module, "t", failure, refinement, run, preds)
        highlighted = {s.uid for s in sketch.steps if s.highlight}
        assert load.uid in highlighted
        assert store.uid in highlighted

    def test_classification_concurrency(self, module):
        failure, refinement, run, preds, *_ = make_inputs(module)
        sketch = build_sketch(module, "t", failure, refinement, run, preds)
        assert sketch.failure_type.startswith("Concurrency bug")
        assert "assertion failure" in sketch.failure_type

    def test_access_order_uses_line_keys(self, module):
        failure, refinement, run, preds, store, load, failing = \
            make_inputs(module)
        sketch = build_sketch(module, "t", failure, refinement, run, preds)
        assert sketch.access_order == [
            (store.func_name, store.line), (load.func_name, load.line)]

    def test_contains_statements(self, module):
        failure, refinement, run, preds, store, load, failing = \
            make_inputs(module)
        sketch = build_sketch(module, "t", failure, refinement, run, preds)
        assert sketch.contains_statements(
            [(store.func_name, store.line)])
        assert not sketch.contains_statements([("main", 9999)])


class TestRendering:
    def _sketch(self, module):
        failure, refinement, run, preds, *_ = make_inputs(module)
        return build_sketch(module, "demo bug", failure, refinement, run,
                            preds, sigma=2, iterations=1,
                            failure_recurrences=3)

    def test_render_structure(self, module):
        text = render_sketch(self._sketch(module))
        assert "Failure Sketch for demo bug" in text
        assert "Thread T0" in text and "Thread T1" in text
        assert "[[" in text  # highlighted predictor
        assert "F=1.000" in text
        assert "failure recurrences=3" in text

    def test_render_without_predictor_section(self, module):
        text = render_sketch(self._sketch(module), show_predictors=False)
        assert "Best failure predictors" not in text

    def test_compact_render_one_line_per_step(self, module):
        sketch = self._sketch(module)
        lines = render_compact(sketch).splitlines()
        assert len(lines) == len(sketch.steps)

    def test_long_sketch_is_bounded(self, module):
        from repro.core.sketch import MAX_STEPS, SketchStep, _bound_steps

        steps = [SketchStep(order=i, tid=0, uid=i, func="f", line=i,
                            source="s") for i in range(500)]
        bounded = _bound_steps(steps)
        assert len(bounded) <= MAX_STEPS
        assert bounded[-1].uid == 499  # the failure end is preserved
        assert bounded[0].uid == 0     # and so is the head
