"""PT encoder/decoder integration tests against real executions."""

import pytest

from repro.lang import compile_source
from repro.pt import (
    DEFAULT_BUFFER_BYTES,
    PTBuffer,
    PTConfig,
    PTDecoder,
    PTEncoder,
    SoftwarePTEncoder,
)
from repro.runtime import Interpreter, RandomScheduler

LOOPY = """
int work(int n) {
    int acc = 0;
    int i;
    for (i = 0; i < n; i++) {
        if (i % 3 == 0) { acc = acc + 2; } else { acc = acc + 1; }
    }
    return acc;
}
int main(int n) {
    int r = work(n);
    print(r);
    return r;
}
"""


def full_trace_run(source, args, seed=None):
    module = compile_source(source)
    encoder = PTEncoder(PTConfig(), trace_on_start=True)
    scheduler = RandomScheduler(seed, 0.1) if seed is not None else None
    interp = Interpreter(module, args=args, tracers=[encoder],
                         scheduler=scheduler)
    outcome = interp.run()
    return module, encoder, outcome


class TestFullTraceReconstruction:
    def test_reconstructs_exact_instruction_sequence(self):
        module, encoder, outcome = full_trace_run(LOOPY, [13])
        decoder = PTDecoder(module)
        trace = decoder.decode(encoder.raw_trace(0))
        decoded = trace.executed_sequence()
        # Re-run with a step recorder as ground truth.
        from repro.runtime.events import Tracer

        class Steps(Tracer):
            def __init__(self):
                self.seq = []

            def on_step(self, interp, tid, ins):
                if tid == 0:
                    self.seq.append(ins.uid)

        steps = Steps()
        interp = Interpreter(module, args=[13], tracers=[steps])
        interp.run()
        assert decoded == steps.seq

    def test_compression_below_two_bits_per_instruction(self):
        module, encoder, outcome = full_trace_run(LOOPY, [300])
        bits_per_instr = 8 * encoder.total_bytes() / outcome.steps
        # Real PT claims ~0.5 bits/instr on x86; GIR instructions are
        # finer-grained than x86 ops, so the bound is looser but must stay
        # firmly in the "highly compressed" regime.
        assert bits_per_instr < 2.0

    def test_multithreaded_per_thread_streams(self):
        src = """
            int acc = 0;
            void w(int n) {
                int i;
                for (i = 0; i < n; i++) { acc = acc + 1; }
            }
            int main() {
                int t = thread_create(w, 25);
                int j;
                for (j = 0; j < 25; j++) { acc = acc + 2; }
                thread_join(t);
                return acc;
            }
        """
        module, encoder, outcome = full_trace_run(src, [], seed=5)
        assert set(encoder.buffers) == {0, 1}
        decoder = PTDecoder(module)
        for tid in (0, 1):
            trace = decoder.decode(encoder.raw_trace(tid))
            assert trace.executed_sequence(), f"thread {tid} trace empty"

    def test_failing_run_trace_ends_at_failure(self):
        src = """
            int main(int x) {
                int a = x + 1;
                assert(a == 100, "nope");
                int b = a * 2;
                return b;
            }
        """
        module, encoder, outcome = full_trace_run(src, [1])
        assert outcome.failed
        decoder = PTDecoder(module)
        decoded = decoder.decode(encoder.raw_trace(0)).executed_sequence()
        failing_uid = outcome.failure.pc
        assert decoded[-1] == failing_uid
        # Nothing after the failing assert may appear in the trace.
        beyond = [u for u in decoded if u > failing_uid]
        assert beyond == []


class TestWindows:
    def test_toggled_windows(self):
        module = compile_source(LOOPY)
        encoder = PTEncoder(PTConfig())
        interp = Interpreter(module, args=[5], tracers=[encoder])
        # Manually enable/disable around specific uids via hooks.
        work = module.functions["work"]
        first = work.blocks[work.entry].instrs[0]

        def start(interp_, tid, ins):
            encoder.enable(tid, ins.uid)

        rets = [i for i in work.instructions() if i.opcode.value == "ret"]

        def stop(interp_, tid, ins):
            encoder.disable(tid, ins.uid)

        hooks = {first.uid: [(start, 0)]}
        for r in rets:
            hooks.setdefault(r.uid, []).append((stop, 0))
        interp.hooks = hooks
        interp.run()
        trace = PTDecoder(module).decode(encoder.raw_trace(0))
        assert len(trace.windows) == 1
        executed = trace.executed_uids()
        work_uids = {i.uid for i in work.instructions()}
        assert executed <= work_uids | {r.uid for r in rets}
        assert first.uid in executed

    def test_buffer_overflow_sets_marker(self):
        buf = PTBuffer(capacity=8)
        buf.pge(0)
        for i in range(100):
            buf.tip(i)
        assert buf.overflowed
        assert buf.bytes_written > 8
        assert len(buf.data) <= 8 + 2

    def test_nothing_follows_the_overflow_marker(self):
        buf = PTBuffer(capacity=13)
        buf.pge(5)
        buf.tip(2 ** 28)
        buf.tip(2 ** 28)  # does not fit: OVF, and the TIP is lost
        buf.tnt(True)     # would fit, but must not follow a lost packet
        assert buf.finalize().hex() == "0282" "1106" "0d8180808001" "02f3"

    def test_default_buffer_is_2mb(self):
        assert DEFAULT_BUFFER_BYTES == 2 * 1024 * 1024


class TestCosts:
    def test_hw_pt_cheaper_than_software_pt(self):
        module = compile_source(LOOPY)
        hw = PTEncoder(PTConfig(), trace_on_start=True)
        out_hw = Interpreter(module, args=[200], tracers=[hw]).run()
        sw = SoftwarePTEncoder(PTConfig(), trace_on_start=True)
        out_sw = Interpreter(module, args=[200], tracers=[sw]).run()
        assert out_sw.overhead > out_hw.overhead * 10

    def test_disabled_tracing_costs_nothing(self):
        module = compile_source(LOOPY)
        enc = PTEncoder(PTConfig(), trace_on_start=False)
        out = Interpreter(module, args=[200], tracers=[enc]).run()
        assert out.extra_cost == 0


class TestAddressFilter:
    def test_filter_drops_out_of_range_branches(self):
        module = compile_source(LOOPY)
        work = module.functions["work"]
        uids = [i.uid for i in work.instructions()]
        config = PTConfig(addr_filter=(min(uids), max(uids)))
        enc_filtered = PTEncoder(config, trace_on_start=True)
        Interpreter(module, args=[50], tracers=[enc_filtered]).run()
        enc_full = PTEncoder(PTConfig(), trace_on_start=True)
        Interpreter(module, args=[50], tracers=[enc_full]).run()
        assert enc_filtered.total_bytes() <= enc_full.total_bytes()
