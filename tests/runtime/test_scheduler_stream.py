"""The scheduler's state-stream contract across the interpreter tiers.

The decoded tier calls ``Scheduler.pick`` once per retired instruction.
The compiled tier's generated gate runs the two halves of
``Scheduler.split_pick`` instead: an inline draw on every step, and a
consult of the scheduler only when the draw says "switch".  The contract
(``repro.runtime.scheduler``) is on the state stream: a run leaves the
scheduler's RNG and counters exactly where one ``pick`` per retired
instruction would leave them.  These tests run the same workload on both
tiers and compare the outcome and every piece of scheduler state — the
random scheduler's ``_rng.getstate()`` included — and check that the
compiled tier really does stay out of Python scheduler code.
"""

import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.corpus import all_bug_ids, get_bug
from repro.instrument import apply_patch
from repro.runtime import scheduler as scheduler_mod
from repro.runtime.interpreter import Interpreter
from repro.runtime.scheduler import (
    FixedScheduler,
    PCTScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from tests.runtime.test_hotpath_equivalence import (
    TIERS,
    _outcome_key,
    _patched_cases,
    _workloads,
)

BUGS = all_bug_ids(include_extra=True)


def _state(scheduler):
    """Every attribute of ``scheduler``, each RNG as its ``getstate()``."""
    return {name: value.getstate() if isinstance(value, random.Random)
            else value for name, value in vars(scheduler).items()}


def _run(spec, workload, scheduler, mode, patch=None):
    """The outcome signature and the scheduler's final state after one run
    of ``workload`` under ``scheduler`` on tier ``mode``; ``patch``, when
    given, is applied as a campaign's monitored run applies it."""
    module = spec.module()
    tracers, hooks = (), None
    if patch is not None:
        applied = apply_patch(patch, module)
        tracers, hooks = applied.tracers(), applied.hooks
    interp = Interpreter(module, entry=workload.entry,
                         args=list(workload.args), scheduler=scheduler,
                         tracers=tracers, hooks=hooks,
                         max_steps=workload.max_steps, mode=mode)
    assert interp.mode == mode
    return _outcome_key(interp.run()), _state(scheduler)


def _assert_tiers_agree(make_scheduler, spec, workload, where, patch=None):
    results = {mode: _run(spec, workload, make_scheduler(), mode, patch)
               for mode in TIERS}
    assert results["compiled"][0] == results["decoded"][0], \
        f"{where}: outcomes diverged"
    assert results["compiled"][1] == results["decoded"][1], \
        f"{where}: scheduler state diverged"


@pytest.mark.parametrize("bug_id", BUGS)
def test_random_scheduler_stream_identical_across_tiers(bug_id):
    """Every workload a campaign runs for the bug — its plain workloads,
    and its failing and seed-0 workloads under the σ=2 AsT patch — ends
    with the same outcome and the same RNG state on both tiers."""
    spec = get_bug(bug_id)
    cases = [(label, workload, None) for label, workload in _workloads(spec)]
    cases += [(f"{label}/σ=2", workload, patch)
              for sigma, label, workload, patch in _patched_cases(spec)
              if sigma == 2]
    for label, workload, case_patch in cases:
        assert isinstance(workload.make_scheduler(), RandomScheduler)
        _assert_tiers_agree(workload.make_scheduler, spec, workload,
                            f"{bug_id}/{label}", case_patch)


@given(bug_id=st.sampled_from(BUGS), seed=st.integers(0, 10_000),
       switch_prob=st.floats(0.0, 1.0))
@example(bug_id="pbzip2-1", seed=0, switch_prob=0.0)
@example(bug_id="pbzip2-1", seed=0, switch_prob=1.0)
@example(bug_id="memcached-127", seed=7, switch_prob=1.0)
@settings(max_examples=30, deadline=None)
def test_random_scheduler_stream_property(bug_id, seed, switch_prob):
    spec = get_bug(bug_id)
    workload = spec.workload_factory(seed)
    _assert_tiers_agree(lambda: RandomScheduler(seed, switch_prob), spec,
                        workload, f"{bug_id}/seed={seed}/p={switch_prob}")


#: Schedulers that keep the default split: the compiled gate consults
#: their ``pick`` on every step.
_PICK_EVERY_STEP = {
    "round-robin": lambda: RoundRobinScheduler(quantum=7),
    "fixed": lambda: FixedScheduler([(0, 40), (1, 25), (2, 60), (0, 10),
                                     (1, 90), (3, 5)]),
    "pct": lambda: PCTScheduler(seed=3, depth=3, expected_steps=5_000),
}


@pytest.mark.parametrize("kind", sorted(_PICK_EVERY_STEP))
def test_unsplit_schedulers_identical_across_tiers(kind):
    for bug_id in BUGS:
        spec = get_bug(bug_id)
        _assert_tiers_agree(_PICK_EVERY_STEP[kind], spec,
                            spec.workload_factory(0), f"{bug_id}/{kind}")


def _scheduler_calls(run):
    """``run()``'s result and the number of Python-level calls into
    :mod:`repro.runtime.scheduler` it made."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and \
                frame.f_code.co_filename == scheduler_mod.__file__:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, calls


def test_compiled_gate_stays_out_of_python_scheduler_code():
    """At ``pbzip2-1``'s switch probability the compiled tier enters the
    scheduler's Python code on fewer than a tenth of its steps, while the
    decoded tier calls ``pick`` on every step (which shows the counter
    sees scheduler calls)."""
    spec = get_bug("pbzip2-1")
    workload = spec.workload_factory(0)
    calls = {}
    for mode in TIERS:
        interp = Interpreter(spec.module(), entry=workload.entry,
                             args=list(workload.args),
                             scheduler=workload.make_scheduler(),
                             max_steps=workload.max_steps, mode=mode)
        assert interp.mode == mode
        outcome, calls[mode] = _scheduler_calls(interp.run)
    assert outcome.steps > 10_000
    assert calls["decoded"] >= outcome.steps
    assert calls["compiled"] < outcome.steps / 10, calls
