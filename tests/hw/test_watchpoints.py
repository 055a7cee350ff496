"""Watchpoint unit and ptrace-layer tests."""

import pytest

from repro.hw import (
    MAX_WATCH_LENGTH,
    NUM_DEBUG_REGISTERS,
    PtraceError,
    PtraceSession,
    TraceeState,
    Watchpoint,
    WatchpointError,
    WatchpointExhausted,
    WatchpointUnit,
)
from repro.lang import compile_source
from repro.runtime import Interpreter


class TestRegisterBudget:
    def test_four_registers(self):
        unit = WatchpointUnit()
        slots = [unit.set_watchpoint(0x1000 + i) for i in range(4)]
        assert slots == [0, 1, 2, 3]
        with pytest.raises(WatchpointExhausted):
            unit.set_watchpoint(0x2000)

    def test_clear_frees_slot(self):
        unit = WatchpointUnit()
        for i in range(4):
            unit.set_watchpoint(0x1000 + i)
        unit.clear(2)
        assert unit.set_watchpoint(0x3000) == 2

    def test_watch_if_new_active_set(self):
        unit = WatchpointUnit()
        assert unit.watch_if_new(0x1000) == 0
        assert unit.watch_if_new(0x1000) is None  # already covered
        assert unit.watch_if_new(0x1001) == 1

    def test_length_covers_range(self):
        unit = WatchpointUnit()
        unit.set_watchpoint(0x1000, length=4)
        assert unit.watching(0x1003)
        assert not unit.watching(0x1004)
        assert unit.watch_if_new(0x1002) is None

    def test_bad_condition_rejected(self):
        unit = WatchpointUnit()
        with pytest.raises(WatchpointError):
            unit.set_watchpoint(0x1000, condition="x")

    def test_length_bounded_by_hardware(self):
        unit = WatchpointUnit()
        for length in (0, MAX_WATCH_LENGTH + 1, 1 << 20):
            with pytest.raises(WatchpointError):
                unit.set_watchpoint(0x1000, length=length)
        assert not unit.registers and not unit.gate_on_mem
        unit.set_watchpoint(0x1000, length=MAX_WATCH_LENGTH)
        assert unit.gate_on_mem == set(range(0x1000, 0x1008))

    def test_covered_addresses_track_arming(self):
        unit = WatchpointUnit()
        a = unit.set_watchpoint(0x1000, length=4)
        unit.set_watchpoint(0x1002, length=4)  # overlaps the first
        gate = unit.gate_on_mem
        unit.clear(a)
        assert unit.gate_on_mem is gate
        assert gate == set(range(0x1002, 0x1006))
        assert unit.watching(0x1002) and not unit.watching(0x1001)
        unit.clear_all()
        assert unit.gate_on_mem is gate and not gate


class TestTrapping:
    SRC = """
        int shared = 0;
        int main() {
            shared = 5;
            int a = shared;
            shared = a + 1;
            return shared;
        }
    """

    def _run_with_watch(self, condition):
        module = compile_source(self.SRC)
        unit = WatchpointUnit()
        interp = Interpreter(module, tracers=[unit])
        addr = interp.memory.global_base("shared")
        unit.set_watchpoint(addr, condition=condition)
        out = interp.run()
        return unit, out

    def test_rw_traps_reads_and_writes(self):
        unit, out = self._run_with_watch("rw")
        kinds = [(t.is_write, t.value) for t in unit.total_order()]
        assert kinds == [(True, 5), (False, 5), (True, 6), (False, 6)]

    def test_write_only_condition(self):
        unit, out = self._run_with_watch("w")
        assert all(t.is_write for t in unit.trap_log)
        assert len(unit.trap_log) == 2

    def test_total_order_is_global(self):
        src = """
            int shared = 0;
            void w(int n) {
                int i;
                for (i = 0; i < n; i++) { shared = shared + 1; }
            }
            int main() {
                int t1 = thread_create(w, 10);
                int t2 = thread_create(w, 10);
                thread_join(t1);
                thread_join(t2);
                return shared;
            }
        """
        module = compile_source(src)
        unit = WatchpointUnit()
        interp = Interpreter(module, tracers=[unit])
        unit.set_watchpoint(interp.memory.global_base("shared"))
        interp.run()
        seqs = [t.seq for t in unit.total_order()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs), "sequence numbers must be unique"
        tids = {t.tid for t in unit.trap_log}
        assert {1, 2} <= tids  # main's final read may also trap

    def test_trap_cost_accounted(self):
        unit, out = self._run_with_watch("rw")
        assert out.extra_cost >= len(unit.trap_log)

    def test_one_trap_per_access(self):
        # Two overlapping registers still yield one trap per access.
        module = compile_source(self.SRC)
        unit = WatchpointUnit()
        interp = Interpreter(module, tracers=[unit])
        addr = interp.memory.global_base("shared")
        unit.set_watchpoint(addr)
        unit.set_watchpoint(addr, length=1)
        interp.run()
        assert len(unit.trap_log) == 4


class TestPtrace:
    def test_place_requires_attach(self):
        session = PtraceSession(TraceeState(), WatchpointUnit())
        with pytest.raises(PtraceError):
            session.place_watchpoint(0x1000)

    def test_attach_place_detach(self):
        unit = WatchpointUnit()
        with PtraceSession(TraceeState(), unit) as session:
            slot = session.place_watchpoint(0x1000)
        assert slot == 0
        assert unit.watching(0x1000)
        assert session.syscall_cost > 0

    def test_already_traced_process_rejected(self):
        # The paper's §6 limitation: ptrace-using programs can't be attached.
        tracee = TraceeState(already_traced=True)
        with pytest.raises(PtraceError) as err:
            PtraceSession(tracee, WatchpointUnit()).attach()
        assert "EPERM" in str(err.value)

    def test_double_attach_rejected(self):
        tracee = TraceeState()
        unit = WatchpointUnit()
        first = PtraceSession(tracee, unit).attach()
        with pytest.raises(PtraceError):
            PtraceSession(tracee, unit).attach()
        first.detach()
        PtraceSession(tracee, unit).attach()  # now fine

    def test_detached_cannot_clear(self):
        unit = WatchpointUnit()
        session = PtraceSession(TraceeState(), unit)
        with session:
            slot = session.place_watchpoint(0x1000)
        with pytest.raises(PtraceError):
            session.clear_watchpoint(slot)

    def test_watchpoints_survive_detach(self):
        unit = WatchpointUnit()
        with PtraceSession(TraceeState(), unit) as session:
            session.place_watchpoint(0x1234)
        assert unit.watching(0x1234)
