"""The table-driven PT decoder: recorded windows, branch facts, the
straight-line-run walk and its pruning, malformed streams, single-pass
cursor.

``PTDecoder`` (successor tables + byte-scanning cursor) must decode every
corpus stream to the windows recorded in ``tests/golden/tiers.json``
(digests from when it and the retired object-walking reference decoder
agreed on all of them), must record exactly the ``(branch uid, taken)``
facts its windows show, and must reject corrupt streams loudly — a
:class:`DecodeError` carrying the byte offset of the offending packet,
never a silently truncated trace.  The walk retires one straight-line run
per packet peek; a PGD cuts a run exactly where a per-instruction walk
would stop, the uid budget fails on the same uid, and a decode with a
keep set equals the full decode filtered by it.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import all_bug_ids, get_bug
from repro.lang import Opcode, compile_source
from repro.lang.girparser import parse_gir
from repro.pt import (
    DecodeError,
    PTConfig,
    PTDecoder,
    PTEncoder,
)
from repro.pt import decoder as decoder_mod
from repro.pt import packets as P
from repro.pt.decoder import _PacketCursor, _straight_run
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


def _spec_streams(spec, mode="compiled"):
    """All (module, raw) PT streams for one corpus bug's workloads, traced
    on tier ``mode``."""
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


def window_digests(spec, mode="compiled"):
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


def _run_at(module, uid):
    decoder = PTDecoder(module)
    return _straight_run(decoder._kind, decoder._succ, uid)


def _arm(module, br, taken):
    ins = module.instr(br)
    label = ins.labels[0 if taken else 1]
    return module.functions[ins.func_name].blocks[label].instrs[0].uid


def _filtered(trace, keep):
    return [uid for uid in trace.executed_sequence() if uid in keep]


def _assert_pruned_matches(module, raw, keep):
    """A decode with ``keep`` is the full decode filtered by it: the same
    windows (bounds, PTW packets), branch facts and kept uids."""
    full = PTDecoder(module).decode(raw)
    pruned = PTDecoder(module).decode(raw, keep)
    assert pruned.kept == _filtered(full, keep)
    assert pruned.branches == full.branches
    assert [dataclasses.replace(w, executed=[]) for w in full.windows] == \
        pruned.windows


class TestRunWalk:
    """One straight-line run per peek: where runs end, where a PGD cuts
    one, and what the budget counts."""

    def _first_run(self):
        module, raw = _traced_module()
        prefix = _window_prefix(raw)
        (window,) = PTDecoder(module).decode(prefix).windows
        run = _run_at(module, window.start_uid)
        assert module.instr(run[-1]).opcode is Opcode.BR
        assert len(run) > 4
        return module, prefix, run

    def test_pgd_mid_run_cuts_after_its_uid(self):
        module, prefix, run = self._first_run()
        mid = run[len(run) // 2]
        trace = PTDecoder(module).decode(prefix + P.encode_tip_pgd(mid))
        (window,) = trace.windows
        assert window.executed == list(run[:len(run) // 2 + 1])
        assert window.end_uid == mid
        assert trace.branches == set()
        _assert_pruned_matches(module, prefix + P.encode_tip_pgd(mid),
                               set(run[::2]))

    def test_pgd_on_the_runs_br_keeps_the_whole_run(self):
        module, prefix, run = self._first_run()
        trace = PTDecoder(module).decode(prefix + P.encode_tip_pgd(run[-1]))
        (window,) = trace.windows
        assert window.executed == list(run)
        assert window.end_uid == run[-1]
        assert trace.branches == set()

    def test_pgd_with_tnt_bits_pending_does_not_cut(self):
        """Two bits arrive at the first BR; the PGD after them names a uid
        of the second run, which the walk enters with a bit still pending,
        so that run is not cut there.  The window ends where the third
        run needs a packet and finds the PGD."""
        module, prefix, first = self._first_run()
        second = _run_at(module, _arm(module, first[-1], True))
        third = _run_at(module, _arm(module, second[-1], True))
        mid = second[len(second) // 2]
        assert mid != second[-1] and mid not in third
        stream = (prefix + P.encode_tnt([True, True]) +
                  P.encode_tip_pgd(mid))
        trace = PTDecoder(module).decode(stream)
        (window,) = trace.windows
        assert window.executed == list(first + second + third)
        assert window.end_uid == mid
        assert trace.branches == {(first[-1], True), (second[-1], True)}
        _assert_pruned_matches(module, stream, {mid, third[0]})

    def test_ptw_packets_between_runs(self):
        """PTWRITE packets sit between the control-flow packets: the walk
        drains them at run starts and packet needs, attaching every one
        to its window in order, and decodes the windows of a trace
        without them."""
        module = compile_source(LOOPY)
        traces = []
        for ptwrite in (False, True):
            encoder = PTEncoder(PTConfig(ptwrite=ptwrite),
                                trace_on_start=True)
            Interpreter(module, args=[13], tracers=[encoder]).run()
            traces.append(encoder.raw_trace(0))
        plain, with_ptw = (PTDecoder(module).decode(raw) for raw in traces)
        (window,) = with_ptw.windows
        packets = []
        cursor = _PacketCursor(traces[1])
        while (pkt := cursor.pop()) is not None:
            if type(pkt) is P.PTW:
                packets.append(pkt)
        assert len(packets) > 13
        assert window.mem_events == packets
        assert window.executed == plain.windows[0].executed
        assert with_ptw.branches == plain.branches
        _assert_pruned_matches(module, traces[1], {9, 22, 27})

    def test_straight_line_cycle_exhausts_the_budget(self, monkeypatch):
        """A JMP loop with no BR needs no packet: its run ends before the
        repeat and the walk keeps going round until the budget runs
        out."""
        module = parse_gir("""
def main(%n) {
entry:
  %a = const 1
  jmp -> spin
spin:
  %b = binop + %a, 1
  %c = binop + %b, 1
  jmp -> spin
}
""")
        assert _run_at(module, 0) == (0, 1, 2, 3, 4)
        assert _run_at(module, 2) == (2, 3, 4)
        monkeypatch.setattr(decoder_mod, "MAX_DECODE_STEPS", 10_000)
        for keep in (None, {2}):
            with pytest.raises(DecodeError, match="budget exhausted"):
                PTDecoder(module).decode(P.encode_tip_pge(0), keep)

    def test_budget_fails_on_the_uid_a_per_instruction_walk_would(
            self, monkeypatch):
        """Every uid costs one unit of budget, so a stream of T uids
        decodes with a budget of T + 1 and fails with T."""
        module, raw = _traced_module()
        total = len(PTDecoder(module).decode(raw).executed_sequence())
        monkeypatch.setattr(decoder_mod, "MAX_DECODE_STEPS", total + 1)
        assert len(PTDecoder(module).decode(raw).executed_sequence()) == \
            total
        monkeypatch.setattr(decoder_mod, "MAX_DECODE_STEPS", total)
        for keep in (None, set()):
            with pytest.raises(DecodeError, match="budget exhausted"):
                PTDecoder(module).decode(raw, keep)

    def test_dynamic_uid_ends_a_run(self):
        """A JMP whose target the tables cannot resolve ends its run; a
        PGD on it closes the window there, and walking past it fails with
        the module's own lookup error."""
        module, raw = _traced_module()
        prefix = _window_prefix(raw)
        start = PTDecoder(module).decode(prefix).windows[0].start_uid
        jmp = next(uid for uid in _run_at(module, start)
                   if module.instr(uid).opcode is Opcode.JMP)
        module.instr(jmp).labels = ("nowhere",)
        module.finalize()  # a new epoch: fresh tables
        run = _run_at(module, start)
        assert run[-1] == jmp
        trace = PTDecoder(module).decode(prefix + P.encode_tip_pgd(jmp))
        assert trace.windows[0].executed == list(run)
        assert trace.windows[0].end_uid == jmp
        with pytest.raises(KeyError):
            PTDecoder(module).decode(prefix)


@pytest.fixture(scope="module")
def corpus_streams():
    """Every corpus stream, with its full decode, by bug."""
    out = {}
    for bug_id in all_bug_ids():
        out[bug_id] = [(module, raw, PTDecoder(module).decode(raw))
                       for module, raw in _spec_streams(get_bug(bug_id))]
    return out


@pytest.mark.parametrize("bug_id", all_bug_ids())
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_pruned_decode_is_the_filtered_full_decode(corpus_streams, bug_id,
                                                   data):
    """On every corpus stream, for Hypothesis-drawn keep sets: the walk
    that prunes as it goes ships exactly the filtered full decode."""
    streams = corpus_streams[bug_id]
    n = streams[0][0].num_instructions()
    keep = data.draw(st.sets(st.integers(0, n - 1)), label="keep")
    for module, raw, full in streams:
        pruned = PTDecoder(module).decode(raw, keep)
        assert pruned.kept == _filtered(full, keep)
        assert pruned.branches == full.branches
        assert [dataclasses.replace(w, executed=[])
                for w in full.windows] == pruned.windows


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
