"""The socket transport: framing, batching, backpressure, and campaign
equivalence against the in-memory wire transport.

The headline contracts:

- the :class:`SocketChannel` honours the full Channel contract even
  though payloads genuinely cross a socket;
- batched mode coalesces many envelopes per frame, unbatched mode ships
  one per write — and either way nothing is lost or reordered;
- a tiny credit window stalls the producer instead of buffering without
  bound;
- a fault-free campaign over the socket transport is byte-identical to
  the wire transport, and server-crash / ack-delay faults converge to the
  same sketch.
"""

import functools
import json
import socket
import threading
import time

import pytest

from repro.core.cooperative import CooperativeDeployment
from repro.core.render import render_sketch
from repro.corpus import get_bug
from repro.fleet import parse_fault_plan
from repro.fleet.socket_transport import (
    FRAME_HEADER,
    FRAME_MAGIC,
    KIND_CONTROL,
    KIND_DATA,
    MAX_FRAME_BYTES,
    SocketFleetTransport,
    SocketHub,
    SocketPeer,
)

BUG = "transmission-1818"


def campaign(bug_id=BUG, transport="wire", fault_plan=None, **kwargs):
    spec = get_bug(bug_id)
    deployment = CooperativeDeployment(
        spec.module(), spec.workload_factory, endpoints=4, bug=spec.bug_id,
        transport=transport, fault_plan=fault_plan, **kwargs)
    stats = deployment.run_campaign(stop_when=spec.sketch_has_root,
                                    max_iterations=6)
    return stats


COMPARED = ("found", "iterations", "failure_recurrences", "total_runs",
            "monitored_runs", "bootstrap_runs")


#: DATA frames on the wire: (channel, blobs, frame bytes as hex).  The hex
#: is header (magic a7, kind 01, u32 channel, u16 count, u32 payload
#: length) then one u32 length prefix per blob before its bytes.
FRAMES = [
    (5, [], "a70100000005" "0000" "00000000"),
    (5, [b""], "a70100000005" "0001" "00000004" "00000000"),
    (5, [b"one"], "a70100000005" "0001" "00000007" "00000003" "6f6e65"),
    (5, [b"a" * 7, b"bb", b"c" * 4096],
     "a70100000005" "0003" "00001015" "00000007" + "61" * 7 + "00000002"
     "6262" "00001000" + "63" * 4096),
    (3, [b"envelope-a", b"envelope-b"],
     "a70100000003" "0002" "0000001c" "0000000a" + b"envelope-a".hex()
     + "0000000a" + b"envelope-b".hex()),
]


class TestZeroCopyFrames:
    """The writer assembles DATA frames as memoryview segment lists; the
    joined segments must be byte-identical to the recorded frame bytes
    (the on-wire format is pinned, only the copies moved)."""

    def test_segments_join_to_reference_bytes(self):
        from repro.fleet.socket_transport import _data_frame_segments

        for channel, blobs, frame in FRAMES[:4]:
            segments = _data_frame_segments(channel, blobs)
            assert b"".join(segments) == bytes.fromhex(frame)
            # Envelope payloads ride as zero-copy views over the original
            # blobs, not fresh bytes.
            views = [seg for seg in segments
                     if isinstance(seg, memoryview)]
            assert len(views) == len(blobs)
            for view, blob in zip(views, blobs):
                assert view.obj is blob

    def test_builder_emits_segment_lists(self):
        from repro.fleet.socket_transport import SocketPeer

        channel, blobs, frame = FRAMES[4]
        peer = SocketPeer.__new__(SocketPeer)
        peer.batch_messages = 16
        peer.batch_bytes = 1 << 20
        peer.credit_frames_sent = 0
        peer.messages_sent = 0
        peer.max_frame_messages = 0
        frames = peer._build_frames([("data", channel, b) for b in blobs])
        assert len(frames) == 1
        assert b"".join(frames[0]) == bytes.fromhex(frame)
        assert peer.messages_sent == 2


class TestSocketChannel:
    def test_fifo_counters_and_recv_many(self):
        t = SocketFleetTransport(2)
        try:
            t.uplink.send(b"a")
            t.uplink.send(b"b")
            t.uplink.send(b"c")
            assert t.uplink.recv() == b"a"
            assert t.uplink.recv_many(2) == [b"b", b"c"]
            assert t.uplink.recv() is None
            assert t.uplink.sent == 3
            assert t.uplink.received == 3
            assert t.uplink.bytes_sent == 3
        finally:
            t.close()

    def test_downlinks_are_isolated(self):
        t = SocketFleetTransport(3)
        try:
            for i in range(3):
                t.downlinks[i].send(b"p%d" % i)
            for i in range(3):
                assert t.downlinks[i].drain() == [b"p%d" % i]
        finally:
            t.close()

    def test_closed_channel_rejects_sends(self):
        from repro.fleet import TransportClosed

        t = SocketFleetTransport(1)
        t.close()
        with pytest.raises(TransportClosed):
            t.uplink.send(b"x")

    def test_large_payload_roundtrip(self):
        t = SocketFleetTransport(1)
        try:
            blob = bytes(range(256)) * 4096  # 1 MiB, > any batch cap
            t.uplink.send(blob)
            assert t.uplink.recv() == blob
        finally:
            t.close()


class TestBatching:
    def _pump(self, transport, n=500):
        for i in range(n):
            transport.uplink.send(b"payload-%04d" % i)
        got = []
        while len(got) < n:
            got.extend(transport.uplink.recv_many(64))
        return got

    def test_batched_coalesces_frames(self):
        t = SocketFleetTransport(1, batch_messages=256,
                                 synchronized=False)
        try:
            got = self._pump(t)
            assert got == [b"payload-%04d" % i for i in range(500)]
            stats = t.socket_stats()
            assert stats["uplink"]["max_frame_messages"] > 1
            assert stats["messages_per_frame"] > 1.0
        finally:
            t.close()

    def test_unbatched_ships_one_message_per_frame(self):
        t = SocketFleetTransport(1, batch_messages=1, synchronized=False)
        try:
            got = self._pump(t, n=100)
            assert got == [b"payload-%04d" % i for i in range(100)]
            assert t.socket_stats()["uplink"]["max_frame_messages"] == 1
        finally:
            t.close()

    def test_batch_ms_window_still_delivers(self):
        t = SocketFleetTransport(1, batch_messages=64, batch_ms=2.0,
                                 synchronized=False)
        try:
            assert self._pump(t, n=200) == \
                [b"payload-%04d" % i for i in range(200)]
        finally:
            t.close()


class TestBackpressure:
    def test_tiny_credit_window_stalls_producer_without_loss(self):
        t = SocketFleetTransport(1, credit_window=4, synchronized=False)
        try:
            sent = []

            def produce():
                for i in range(200):
                    blob = b"m%03d" % i
                    t.uplink.send(blob)
                    sent.append(blob)

            producer = threading.Thread(target=produce)
            producer.start()
            # The producer cannot run ahead of the 4-credit window: drain
            # slowly and watch it lag the consumer by at most the window.
            got = []
            while len(got) < 200:
                batch = t.uplink.recv_many(2, timeout=5.0)
                got.extend(batch)
                assert len(sent) <= len(got) + 4 + 2
            producer.join(timeout=5.0)
            assert not producer.is_alive()
            assert got == [b"m%03d" % i for i in range(200)]
            assert t.uplink._gate.stalls > 0
        finally:
            t.close()


class TestSocketHubLifecycle:
    def test_close_is_idempotent_and_wakes_receivers(self):
        hub = SocketHub(name="t-hub").start()
        peer_a, peer_b = hub.open_pair(family="unix", name="t")
        queue = peer_b.open_receiver(9)
        hub.close()
        hub.close()
        assert queue.pop_many(10, timeout=1.0) == []

    def test_tcp_pair_roundtrip(self):
        t = SocketFleetTransport(1, family="tcp")
        try:
            t.uplink.send(b"over-tcp")
            assert t.uplink.recv() == b"over-tcp"
        finally:
            t.close()


def _frame(kind, payload, count=1, length=None):
    length = len(payload) if length is None else length
    return FRAME_HEADER.pack(FRAME_MAGIC, kind, 0, count, length) + payload


class TestMalformedFrames:
    """A malformed frame stops the reader with a typed protocol error on
    the peer — never an exception escaping the reader task, never an
    unbounded wait for a payload no peer may send."""

    def _feed(self, raw, **peer_opts):
        """The peer state once ``raw`` has been read (before the far end
        closes, which would read as a clean EOF)."""
        hub = SocketHub(name="t-hub").start()
        ours, theirs = socket.socketpair()
        try:
            peer = hub.adopt_socket(theirs, name="t", **peer_opts)
            ours.sendall(raw)
            deadline = time.monotonic() + 5.0
            while not peer.eof and time.monotonic() < deadline:
                time.sleep(0.01)
            return peer.eof, peer.protocol_errors, peer.protocol_error
        finally:
            ours.close()
            hub.close()

    def test_control_payload_not_utf8(self):
        eof, errors, reason = self._feed(_frame(KIND_CONTROL, b"\xff\xfe{"))
        assert (eof, errors) == (True, 1)
        assert "not UTF-8 JSON" in reason

    def test_control_payload_not_an_object(self):
        eof, errors, reason = self._feed(_frame(KIND_CONTROL, b"[1,2]"))
        assert (eof, errors) == (True, 1)
        assert "not a JSON object" in reason

    def test_hello_without_base(self, tmp_path):
        from repro.fleet.serve import FleetServer

        server = FleetServer("pbzip2-1", ("unix", str(tmp_path / "s")),
                             log=lambda line: None)
        hello = json.dumps({"op": "hello", "count": 2}).encode("utf-8")
        eof, errors, reason = self._feed(_frame(KIND_CONTROL, hello),
                                         **server.peer_opts)
        assert (eof, errors) == (True, 1)
        assert "base and count" in reason
        assert server._groups == []

    def test_oversized_length(self):
        eof, errors, reason = self._feed(
            _frame(KIND_DATA, b"", length=3 << 30))
        assert (eof, errors) == (True, 1)
        assert "exceeds" in reason

    def test_batch_bytes_above_the_frame_cap_is_refused(self):
        with pytest.raises(ValueError, match="frame cap"):
            SocketPeer(None, batch_bytes=MAX_FRAME_BYTES + 1)


class TestCampaignEquivalence:
    def test_fault_free_socket_is_identical_to_wire(self):
        wired = campaign(transport="wire")
        socketed = campaign(transport="socket")
        for name in COMPARED:
            assert getattr(socketed, name) == getattr(wired, name), name
        assert wired.sketch is not None and socketed.sketch is not None
        assert render_sketch(socketed.sketch) == render_sketch(wired.sketch)
        # Frame counts vary run to run, so the fleet report carries none:
        # it is the wire campaign's, field for field.
        assert socketed.fleet == wired.fleet

    def test_lossy_socket_matches_lossy_wire(self):
        plan = "drop=0.05,duplicate=0.05,corrupt=0.02,seed=11"
        wired = campaign(fault_plan=parse_fault_plan(plan))
        socketed = campaign(transport="socket",
                            fault_plan=parse_fault_plan(plan))
        for name in COMPARED:
            assert getattr(socketed, name) == getattr(wired, name), name
        assert render_sketch(socketed.sketch) == render_sketch(wired.sketch)

    def test_unbatched_campaign_matches_batched(self, monkeypatch):
        batched = campaign(transport="socket")
        monkeypatch.setattr(
            SocketFleetTransport, "__init__", functools.partialmethod(
                SocketFleetTransport.__init__, batch_bytes=1))
        probe = SocketFleetTransport(1)
        try:
            assert probe.fleet_peer.batch_bytes == 1
        finally:
            probe.close()
        unbatched = campaign(transport="socket")
        for name in COMPARED:
            assert getattr(unbatched, name) == getattr(batched, name), name
        assert render_sketch(unbatched.sketch) == \
            render_sketch(batched.sketch)


class TestServerFaultCampaigns:
    def test_server_crash_resumes_to_identical_sketch(self, tmp_path):
        baseline = campaign(transport="wire")
        crashed = campaign(
            transport="socket",
            fault_plan=parse_fault_plan("seed=7,server_crash_every=5"),
            journal_dir=str(tmp_path))
        assert crashed.found
        assert crashed.fleet["server_crashes"] >= 1
        assert render_sketch(crashed.sketch) == \
            render_sketch(baseline.sketch)

    def test_server_crash_without_journal_is_rejected(self):
        spec = get_bug(BUG)
        with pytest.raises(ValueError, match="journal"):
            CooperativeDeployment(
                spec.module(), spec.workload_factory, endpoints=4,
                transport="socket",
                fault_plan=parse_fault_plan("seed=7,server_crash_every=5"))

    def test_ack_delay_forces_resends_and_converges(self):
        delayed = campaign(
            transport="socket",
            fault_plan=parse_fault_plan("seed=7,ack_delay=0.5"))
        assert delayed.found
        assert delayed.fleet["acks_delayed"] > 0
        assert delayed.fleet["patch_resends"] > 0
        baseline = campaign(transport="wire")
        assert render_sketch(delayed.sketch) == \
            render_sketch(baseline.sketch)
