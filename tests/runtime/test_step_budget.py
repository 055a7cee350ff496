"""Step budgets, C division and frame-slot stores on both tiers.

The compiled tier counts steps per extended block: ``_step`` holds the
step before the current path's root, an instruction retires at ``_step +
k`` for its 1-based position ``k`` along the path, and the hang test is
one compare of ``k`` against the budget left to the path.  A budget that
runs out anywhere — inside a block, at its terminator, inside a callee,
between the attempts of a blocking builtin, while another thread sleeps —
must stop the run at the same instruction as the decoded tier does, with
the same scheduler state, PT bytes and trap log, and the same per-opcode
counts: the compiled tier counts closed paths at their exits and settles
the open ones from each live frame's retired prefix.  The sweeps below
hang each program at every step from 1 to one past its length.

The compiled tier also divides without ``abs()`` and stores into a frame's
own stack slots without range checks; the tables below pin C's truncating
division and a store through a local's register before its ``ALLOCA``.
"""

import pytest

from repro.corpus import get_bug
from repro.hw.watchpoints import WatchpointUnit
from repro.lang import compile_source
from repro.lang.girparser import parse_gir
from repro.pt.encoder import PTEncoder
from repro.runtime.failures import FailureKind
from repro.runtime.interpreter import Interpreter
from repro.runtime.memory import GLOBAL_BASE
from repro.runtime.scheduler import RandomScheduler, RoundRobinScheduler
from tests.runtime.test_hotpath_equivalence import TIERS, _outcome_key
from tests.runtime.test_scheduler_stream import _state

#: One thread: a loop whose body calls a function twice, dividing and
#: taking remainders of operands of both signs.
LOOP = """
int mix(int x, int d) {
    int q = x / d;
    return q + x % d;
}
int main(int n) {
    int s = 7;
    int i = 0;
    while (i < n) {
        s = s + mix(s - 40, i % 3 + 1) - mix(i - s, 0 - (i % 4 + 1));
        i = i + 1;
    }
    print(s);
    return s;
}
"""

#: Two threads bumping a global under a mutex, sleeping between rounds,
#: then a join: blocked lock attempts retry, sleepers wake at a consult.
THREADS = """
int counter = 0;
void* m;
void bump(int n) {
    int i = 0;
    while (i < 3) {
        mutex_lock(m);
        counter = counter + n;
        mutex_unlock(m);
        usleep(2);
        i = i + 1;
    }
}
int main() {
    m = mutex_create();
    int t = thread_create(bump, 2);
    int i = 0;
    while (i < 3) {
        mutex_lock(m);
        counter = counter + 1;
        mutex_unlock(m);
        usleep(1);
        i = i + 1;
    }
    thread_join(t);
    print(counter);
    return counter;
}
"""

#: The schedulers the two-thread sweep runs under.
_SCHEDULERS = {
    "random(3, 0.2)": lambda: RandomScheduler(3, 0.2),
    "random(11, 0.2)": lambda: RandomScheduler(11, 0.2),
    "round-robin(4)": lambda: RoundRobinScheduler(4),
}


def _run(module, mode, max_steps, scheduler, monitored, entry="main",
         args=()):
    """What a run observably leaves behind: its outcome, the scheduler's
    state, its per-opcode counts and, when ``monitored`` (full-trace PT
    and a watchpoint on the first global), the PT bytes and the trap
    log."""
    tracers = []
    if monitored:
        pt, wpu = PTEncoder(trace_on_start=True), WatchpointUnit()
        wpu.set_watchpoint(GLOBAL_BASE, length=1, condition="rw")
        tracers = [pt, wpu]
    interp = Interpreter(module, entry=entry, args=list(args),
                         scheduler=scheduler, tracers=tracers,
                         max_steps=max_steps, mode=mode)
    assert interp.mode == mode
    result = (_outcome_key(interp.run()), _state(scheduler),
              dict(interp.cost.counts))
    if monitored:
        result += ({tid: pt.raw_trace(tid) for tid in sorted(pt.buffers)},
                   list(wpu.trap_log))
    return result


def _sweep(module, make_scheduler, monitored=False, entry="main", args=()):
    """Hang ``module`` at every step of its run and compare the tiers; the
    outcome key of the run under an unbounded budget.

    The last step is ``main``'s return, which ends the run before its hang
    test, so every budget short of the step before it hangs."""
    full = _run(module, "decoded", 1 << 30, make_scheduler(), monitored,
                entry, args)
    steps = full[0][2]
    for max_steps in range(1, steps + 2):
        got = {mode: _run(module, mode, max_steps, make_scheduler(),
                          monitored, entry, args) for mode in TIERS}
        where = f"max_steps={max_steps}"
        assert got["compiled"] == got["decoded"], where
        if max_steps < steps - 1:
            assert got["compiled"][0][-1][0] is FailureKind.HANG, where
        elif max_steps >= steps:
            assert got["compiled"] == full, where
    return full[0]


def test_loop_with_calls_hangs_alike_at_every_step():
    failed, _, steps, *_ = _sweep(compile_source(LOOP),
                                  lambda: RandomScheduler(0), args=(12,))
    assert not failed and steps > 500


@pytest.mark.parametrize("monitored", [False, True],
                         ids=["plain", "pt+watchpoint"])
@pytest.mark.parametrize("kind", sorted(_SCHEDULERS))
def test_threads_hang_alike_at_every_step(kind, monitored):
    failed, exit_value, steps, *_ = _sweep(compile_source(THREADS),
                                           _SCHEDULERS[kind], monitored)
    assert (failed, exit_value) == (False, 9) and steps > 100


def test_corpus_bug_hangs_alike_at_every_step():
    spec = get_bug("ringbuf-1")
    workload = spec.workload_factory(0)
    steps = _sweep(spec.module(), workload.make_scheduler, monitored=True,
                   entry=workload.entry, args=workload.args)[2]
    assert steps > 1_000


#: ``(a, b, a / b, a % b)`` in C: the quotient truncates toward zero and
#: the remainder takes the dividend's sign.  Every sign combination, with
#: ``|a| < |b|``, exact quotients and a zero dividend.
C_DIVISION = [
    (7, 2, 3, 1), (-7, 2, -3, -1), (7, -2, -3, 1), (-7, -2, 3, -1),
    (1, 2, 0, 1), (-1, 2, 0, -1), (1, -2, 0, 1), (-1, -2, 0, -1),
    (6, 3, 2, 0), (-6, 3, -2, 0), (6, -3, -2, 0), (-6, -3, 2, 0),
    (0, 5, 0, 0), (0, -5, 0, 0), (-32720, 32719, -1, -1),
]

#: Prints ``x / y`` and ``x % y``; each operand is a register or a constant.
DIVIDE = """
def main(%a, %b) {{
entry:
  %q = binop / {x}, {y}
  call print %q
  %r = binop % {x}, {y}
  call print %r
  ret 0
}}
"""


@pytest.mark.parametrize("a,b,quotient,remainder", C_DIVISION)
def test_division_truncates_toward_zero(a, b, quotient, remainder):
    for x, y in (("%a", "%b"), (str(a), "%b"), ("%a", str(b))):
        module = parse_gir(DIVIDE.format(x=x, y=y))
        for mode in TIERS:
            interp = Interpreter(module, args=[a, b], mode=mode)
            assert interp.mode == mode
            assert interp.run().stdout == [str(quotient), str(remainder)], \
                (x, y, mode)


@pytest.mark.parametrize("op", ["/", "%"])
@pytest.mark.parametrize("divisor", ["%b", "0"])
def test_division_by_zero_fails_at_the_binop(op, divisor):
    module = parse_gir(f"""
def main(%a, %b) {{
entry:
  %q = binop {op} %a, {divisor}
  ret %q
}}
""")
    for mode in TIERS:
        failure = Interpreter(module, args=[5, 0], mode=mode).run().failure
        assert (failure.kind, failure.pc, failure.message) == \
            (FailureKind.DIV_BY_ZERO, 0, "division by zero"), mode


def test_store_before_its_alloca_faults_at_the_null_page():
    """``%p`` is defined once, by an entry-block ``ALLOCA``, so after it
    the compiled tier stores through ``%p`` without a check.  Before it
    ``%p`` is still 0, and the store must fault there on both tiers."""
    module = parse_gir("""
def main() {
entry:
  store %p, 7
  %p = alloca [1]
  store %p, 8
  ret 0
}
""")
    for mode in TIERS:
        failure = Interpreter(module, mode=mode).run().failure
        assert (failure.kind, failure.pc, failure.address,
                failure.message) == \
            (FailureKind.SEGFAULT, 0, 0, "null-page access"), mode
