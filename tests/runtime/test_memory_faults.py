"""Memory faults on both interpreter tiers, with freed heap blocks unmapped.

Loads and stores that hit a mapped slot never reach ``Memory._check``: a
freed block's slots are unmapped, so a heap hit is a live block.  These
tests pin that every fault the heap, the string data and ``free`` can
raise still reports the same kind, pc, address and message on the
compiled and decoded tiers, and that a plain heap-heavy run no longer
classifies a single access.
"""

import pytest

from repro.corpus import get_bug
from repro.lang import compile_source
from repro.lang.ir import Opcode
from repro.runtime.failures import FailureKind
from repro.runtime.interpreter import Interpreter
from repro.runtime.memory import GLOBAL_BASE, HEAP_BASE, STRING_BASE, Memory

TIERS = ("compiled", "decoded")

#: name -> (source, kind, faulting line and opcode, address, message, and
#: the builtin whose first call's pc the message cites as ``{pc}``).
FAULTS = {
    "use-after-free read": ("""
int main() {
    int* p = malloc(3);
    p[1] = 7;
    free(p);
    return p[1];
}
""", FailureKind.USE_AFTER_FREE, (6, Opcode.LOAD), HEAP_BASE + 1,
        "(freed at pc={pc})", "free"),
    "use-after-free write": ("""
int main() {
    int* p = malloc(3);
    free(p);
    p[2] = 5;
    return 0;
}
""", FailureKind.USE_AFTER_FREE, (5, Opcode.STORE), HEAP_BASE + 2,
        "(freed at pc={pc})", "free"),
    "use-after-free through mutex_lock": ("""
int main() {
    void* m = mutex_create();
    mutex_destroy(m);
    mutex_lock(m);
    return 0;
}
""", FailureKind.USE_AFTER_FREE, (5, Opcode.CALL), HEAP_BASE,
        "(freed at pc={pc})", "mutex_destroy"),
    "double free": ("""
int main() {
    int* p = malloc(2);
    free(p);
    free(p);
    return 0;
}
""", FailureKind.DOUBLE_FREE, (5, Opcode.CALL), HEAP_BASE,
        "(first freed at pc={pc})", "free"),
    "guard-gap read": ("""
int main() {
    int* p = malloc(2);
    int* q = malloc(2);
    q[0] = 1;
    return p[2];
}
""", FailureKind.OUT_OF_BOUNDS, (6, Opcode.LOAD), HEAP_BASE + 2,
        "heap access outside any block", None),
    "guard-gap write": ("""
int main() {
    int* p = malloc(2);
    int* q = malloc(2);
    p[2] = 9;
    return q[0];
}
""", FailureKind.OUT_OF_BOUNDS, (5, Opcode.STORE), HEAP_BASE + 2,
        "heap access outside any block", None),
    "write to string data": ("""
int main() {
    char* s = "abc";
    s[1] = 65;
    return 0;
}
""", FailureKind.SEGFAULT, (4, Opcode.STORE), STRING_BASE + 1,
        "write to read-only string data", None),
    "free of a non-heap pointer": ("""
int g = 0;
int main() {
    free(&g);
    return 0;
}
""", FailureKind.SEGFAULT, (4, Opcode.CALL), GLOBAL_BASE,
        "free of a non-heap pointer", None),
}


def _pc_of(module, line, opcode):
    """The uid of the last instruction at ``line`` with ``opcode``: the
    access through the pointer, after the loads that fetch it."""
    return [ins.uid for ins in module.instructions()
            if ins.line == line and ins.opcode is opcode][-1]


def _first_call(module, callee):
    return min(ins.uid for ins in module.instructions()
               if ins.opcode is Opcode.CALL and ins.callee == callee)


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_faults_identical_on_both_tiers(name):
    source, kind, (line, opcode), address, message, cited = FAULTS[name]
    module = compile_source(source)
    pc = _pc_of(module, line, opcode)
    if cited is not None:
        message = message.format(pc=_first_call(module, cited))
    for mode in TIERS:
        interp = Interpreter(module, mode=mode)
        assert interp.mode == mode
        outcome = interp.run()
        failure = outcome.failure
        assert outcome.failed, mode
        assert (failure.kind, failure.pc, failure.address, failure.message) \
            == (kind, pc, address, message), mode
        assert failure.stack[0].function == "main", mode


def test_plain_heap_runs_classify_no_access(monkeypatch):
    """cppcheck-3238 walks heap token arrays (thousands of heap loads and
    stores per run).  On its non-failing plain workloads no access misses
    the slot map, so ``Memory._check`` never runs."""
    calls = []
    check = Memory._check

    def counting(self, address, is_write):
        calls.append(address)
        return check(self, address, is_write)
    monkeypatch.setattr(Memory, "_check", counting)
    spec = get_bug("cppcheck-3238")
    module = spec.module()
    plain = 0
    for run_id in range(6):
        workload = spec.workload_factory(run_id)
        for mode in TIERS:
            del calls[:]
            outcome = Interpreter(module, entry=workload.entry,
                                  args=list(workload.args),
                                  scheduler=workload.make_scheduler(),
                                  max_steps=workload.max_steps,
                                  mode=mode).run()
            if not outcome.failed:
                plain += 1
                assert calls == [], (run_id, mode)
    assert plain >= 6
