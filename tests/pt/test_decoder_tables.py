"""The table-driven PT decoder: recorded windows, branch facts, malformed
streams, single-pass cursor.

``PTDecoder`` (successor tables + byte-scanning cursor) must decode every
corpus stream to the windows recorded in ``tests/golden/tiers.json``
(digests from when it and the retired object-walking reference decoder
agreed on all of them), must record exactly the ``(branch uid, taken)``
facts its windows show, and must reject corrupt streams loudly — a
:class:`DecodeError` carrying the byte offset of the offending packet,
never a silently truncated trace.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.corpus import all_bug_ids, get_bug
from repro.lang import Opcode, compile_source
from repro.pt import (
    DecodeError,
    PTConfig,
    PTDecoder,
    PTEncoder,
)
from repro.pt import packets as P
from repro.pt.decoder import _PacketCursor
from repro.runtime import Interpreter
from tests.digest import digest

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "tiers.json"

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


def _traced_module(n=13):
    module = compile_source(LOOPY)
    encoder = PTEncoder(PTConfig(), trace_on_start=True)
    Interpreter(module, args=[n], tracers=[encoder]).run()
    return module, encoder.raw_trace(0)


def _spec_streams(spec, mode=None):
    """All (module, raw) PT streams for one corpus bug's workloads, traced
    on tier ``mode`` (default: the process default tier)."""
    out = []
    workloads = [spec.workload_factory(0), spec.workload_factory(1)]
    if spec.failing_probe is not None:
        workloads.append(spec.failing_probe)
    for workload in workloads:
        module = spec.module()
        pt = PTEncoder(trace_on_start=True)
        interp = Interpreter(module, args=list(workload.args),
                             scheduler=workload.make_scheduler(),
                             tracers=[pt], max_steps=workload.max_steps,
                             mode=mode)
        interp.run()
        for tid in sorted(pt.buffers):
            out.append((module, pt.raw_trace(tid)))
    return out


def _window_prefix(raw):
    """Bytes up to and including the first TIP.PGE packet."""
    cursor = _PacketCursor(raw)
    while True:
        pkt = cursor.pop()
        assert pkt is not None, "stream has no PGE"
        if type(pkt) is P.TIPPGE:
            return raw[:cursor._pos]


def window_digests(spec, mode=None):
    """One digest of the decoded windows per stream of ``spec`` (the
    ``{"windows": ...}`` dict alone: branch facts are checked against
    :func:`window_facts` instead)."""
    return [digest({"windows": [dataclasses.asdict(window)
                                for window in trace.windows]})
            for trace in (PTDecoder(module).decode(raw)
                          for module, raw in _spec_streams(spec, mode))]


def window_facts(module, trace):
    """``(branch uid, taken)`` re-derived from each window's BR-successor
    pairs and the module's labels.  A BR that ends its window has no
    successor there (its bit never arrived) and yields nothing."""
    facts = set()
    for window in trace.windows:
        seq = window.executed
        for uid, nxt in zip(seq, seq[1:]):
            ins = module.instr(uid)
            if ins.opcode is not Opcode.BR:
                continue
            blocks = module.functions[ins.func_name].blocks
            arms = [blocks[label].instrs[0].uid for label in ins.labels]
            assert nxt in arms, f"uid {nxt} follows BR {uid}"
            facts.add((uid, nxt == arms[0]))
    return facts


class TestReferenceParity:
    @pytest.mark.parametrize("bug_id", all_bug_ids())
    def test_identical_windows_on_corpus_streams(self, bug_id):
        golden = json.loads(GOLDEN.read_text())["decoded_windows"]
        got = window_digests(get_bug(bug_id))
        assert len(got) == len(golden[bug_id]), bug_id
        for index, (g, w) in enumerate(zip(got, golden[bug_id])):
            assert g == w, f"{bug_id}: stream {index} windows diverged"

    @pytest.mark.parametrize("bug_id", all_bug_ids())
    def test_branch_facts_match_windows_on_corpus_streams(self, bug_id):
        recorded = 0
        for index, (module, raw) in enumerate(
                _spec_streams(get_bug(bug_id))):
            trace = PTDecoder(module).decode(raw)
            assert trace.branches == window_facts(module, trace), \
                f"{bug_id}: stream {index} branch facts diverged"
            recorded += len(trace.branches)
        assert recorded, f"{bug_id}: no branch facts at all"

    def test_tables_cached_per_module_and_epoch(self):
        module, raw = _traced_module()
        first = PTDecoder(module)
        second = PTDecoder(module)
        assert second._kind is first._kind  # same epoch: shared tables
        module.finalize()                   # bumps analysis_epoch
        third = PTDecoder(module)
        assert third._kind is not first._kind


class TestBranchFacts:
    """A BR whose window closes before its TNT bit arrives ends the window
    and records no fact — by stream end, by PGD, or by PGD landing on the
    BR itself."""

    def _first_br(self, module, raw):
        """The window prefix and the first BR its walk reaches."""
        prefix = _window_prefix(raw)
        straight = PTDecoder(module).decode(prefix)
        (window,) = straight.windows
        return prefix, window.executed[-1]

    def test_full_trace_records_both_arms(self):
        module, raw = _traced_module()
        trace = PTDecoder(module).decode(raw)
        assert trace.branches == window_facts(module, trace)
        assert {taken for _uid, taken in trace.branches} == {True, False}

    @pytest.mark.parametrize("close", ["stream end", "pgd elsewhere",
                                       "pgd on the br"])
    def test_br_ending_a_window_records_nothing(self, close):
        module, raw = _traced_module()
        prefix, br = self._first_br(module, raw)
        ins = module.instr(br)
        assert ins.opcode is Opcode.BR
        # Tracing off at the taken arm: a landing point the walk cannot
        # reach without the BR's bit.
        arm = module.functions[ins.func_name].blocks[ins.labels[0]]
        tail = {"stream end": b"",
                "pgd elsewhere": P.encode_tip_pgd(arm.instrs[0].uid),
                "pgd on the br": P.encode_tip_pgd(br)}[close]
        trace = PTDecoder(module).decode(prefix + tail)
        assert trace.windows[-1].executed[-1] == br
        assert trace.branches == window_facts(module, trace) == set()

    def test_next_window_at_an_arm_pairs_nothing_across(self):
        """A bitless BR, then a window that starts at the BR's taken arm:
        the flattened sequence puts the arm right after the BR, yet no
        bit said the branch was taken, so there is no fact."""
        module, raw = _traced_module()
        prefix, br = self._first_br(module, raw)
        ins = module.instr(br)
        arm = module.functions[ins.func_name].blocks[ins.labels[0]]
        stream = (prefix + P.encode_tip_pgd(br) +
                  P.encode_tip_pge(arm.instrs[0].uid))
        trace = PTDecoder(module).decode(stream)
        flat = trace.executed_sequence()
        assert flat[flat.index(br) + 1] == arm.instrs[0].uid
        assert trace.branches == window_facts(module, trace) == set()


class TestMalformedStreams:
    """Corrupt bytes raise DecodeError with the window offset — a trace is
    never silently truncated."""

    def test_truncated_packet(self):
        module, raw = _traced_module()
        # Chop the stream mid-ULEB128 of some multi-byte packet: scan for
        # a TIP header and keep only its first byte.
        prefix = _window_prefix(raw)
        bad = prefix + P.encode_tip(1 << 20)[:1]
        with pytest.raises(DecodeError) as err:
            PTDecoder(module).decode(bad)
        assert err.value.offset == len(prefix)
        assert "offset" in str(err.value)

    def test_unknown_opcode_byte(self):
        module, raw = _traced_module()
        prefix = _window_prefix(raw)
        bad = prefix + bytes([0x7F])  # odd, unassigned header
        with pytest.raises(DecodeError) as err:
            PTDecoder(module).decode(bad)
        assert err.value.offset == len(prefix)
        assert "unknown packet header" in str(err.value)

    def test_unknown_extended_packet(self):
        module, raw = _traced_module()
        prefix = _window_prefix(raw)
        bad = prefix + bytes([0x02, 0x55])
        with pytest.raises(DecodeError) as err:
            PTDecoder(module).decode(bad)
        assert err.value.offset == len(prefix)

    def test_tnt_underflow(self):
        """A conditional branch with no TNT bits buffered and a non-TNT
        packet next: the decoder must refuse, naming the uid and offset."""
        module, raw = _traced_module()
        prefix = _window_prefix(raw)
        # The window starts at a straight-line entry; walking reaches the
        # loop's BR with an empty TNT queue and finds a TIP instead.
        bad = prefix + P.encode_tip(3)
        with pytest.raises(DecodeError) as err:
            PTDecoder(module).decode(bad)
        assert "expected TNT at uid" in str(err.value)
        assert err.value.offset == len(prefix)

    def test_error_offsets_skip_leading_packets(self):
        """The offset names the bad packet, not the stream start."""
        module, raw = _traced_module()
        prefix = _window_prefix(raw)
        padded = prefix + P.encode_pad() * 3
        bad = padded + bytes([0x7F])
        with pytest.raises(DecodeError) as err:
            PTDecoder(module).decode(bad)
        assert err.value.offset == len(padded)

    @pytest.mark.parametrize("uid", [10 ** 6, -1])
    def test_window_start_outside_program(self, uid):
        module, _ = _traced_module()
        with pytest.raises(DecodeError) as err:
            PTDecoder(module).decode(P.encode_tip_pge(uid))
        assert err.value.offset == 0
        assert f"window start uid {uid}" in str(err.value)

    def test_return_target_outside_program(self):
        """A TIP at or above the instruction count names no instruction
        (a negative one is a thread exit and ends the window)."""
        module, _ = _traced_module()
        ret = next(ins.uid for ins in module.instructions()
                   if ins.opcode is Opcode.RET)
        start = P.encode_tip_pge(ret)
        n = module.num_instructions()
        with pytest.raises(DecodeError) as err:
            PTDecoder(module).decode(start + P.encode_tip(n))
        assert err.value.offset == len(start)
        assert f"return target uid {n}" in str(err.value)
        exits = PTDecoder(module).decode(start + P.encode_tip(-1))
        assert exits.windows[0].executed == [ret]

    def test_well_formed_stream_has_no_offset_error(self):
        module, raw = _traced_module()
        trace = PTDecoder(module).decode(raw)
        assert trace.windows and trace.windows[0].executed


class TestSinglePassCursor:
    def test_peek_then_pop_parses_once(self):
        raw = (P.encode_psb() + P.encode_tip_pge(7) +
               P.encode_tnt([True, False]) + P.encode_tip(9) +
               P.encode_tip_pgd(7))
        cursor = _PacketCursor(raw)
        popped = []
        while True:
            peeked = cursor.peek()
            pkt = cursor.pop()
            assert pkt is peeked  # the memoized object, not a re-parse
            if pkt is None:
                break
            popped.append(pkt)
        assert cursor.packets_parsed == len(popped)

    def test_offset_tracks_popped_packet_start(self):
        raw = P.encode_pad() + P.encode_tip_pge(7) + P.encode_tip(9)
        cursor = _PacketCursor(raw)
        assert type(cursor.pop()) is P.TIPPGE
        assert cursor.offset == 1  # after the PAD byte
        start_tip = cursor._pos
        assert type(cursor.peek()) is P.TIP
        assert cursor.peek_offset() == start_tip
        cursor.pop()
        assert cursor.offset == start_tip

    def test_exhaustion(self):
        cursor = _PacketCursor(P.encode_pad() * 4)
        assert cursor.peek() is None
        assert cursor.pop() is None
        assert cursor.exhausted
        assert cursor.packets_parsed == 0
