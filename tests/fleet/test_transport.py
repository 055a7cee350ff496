"""Channel semantics and every transport-level fault mechanism, forced."""

import pytest

from repro.fleet import (
    Channel,
    FaultPlan,
    FleetTransport,
    MessageFaults,
    TransportClosed,
)


def forced(**knobs) -> FaultPlan:
    """A plan where the given faults fire on every message."""
    return FaultPlan(seed=0, messages={"*": MessageFaults(**knobs)})


class TestChannel:
    def test_fifo_and_counters(self):
        ch = Channel("t")
        ch.send(b"a")
        ch.send(b"b")
        assert len(ch) == 2
        assert ch.recv() == b"a"
        assert ch.drain() == [b"b"]
        assert ch.recv() is None
        assert ch.sent == 2 and ch.received == 2
        assert ch.bytes_sent == 2

    def test_closed_channel_rejects_sends(self):
        ch = Channel("t")
        ch.close()
        with pytest.raises(TransportClosed):
            ch.send(b"x")

    def test_recv_many_drains_in_order_up_to_n(self):
        ch = Channel("t")
        for i in range(5):
            ch.send(b"m%d" % i)
        assert ch.recv_many(2) == [b"m0", b"m1"]
        assert ch.recv_many(99) == [b"m2", b"m3", b"m4"]
        assert ch.recv_many(1) == []
        assert ch.received == 5

    def test_recv_many_rejects_nonpositive(self):
        ch = Channel("t")
        ch.send(b"x")
        assert ch.recv_many(0) == []
        assert len(ch) == 1


class TestFaultMechanics:
    def test_clean_transport_delivers_everything(self):
        t = FleetTransport(2)
        t.send_to_client(0, b"patch-bytes", msg_type="patch", key=(1,))
        t.send_to_server(b"run-bytes", msg_type="monitored_run", key=(1,))
        assert t.downlinks[0].recv() == b"patch-bytes"
        assert t.uplink.recv() == b"run-bytes"
        assert t.stats.sent["patch"] == 1
        assert t.stats.delivered["monitored_run"] == 1
        assert t.stats.bytes_sent == len(b"patch-bytes") + len(b"run-bytes")

    def test_drop(self):
        t = FleetTransport(1, forced(drop=1.0))
        t.send_to_server(b"gone", msg_type="monitored_run", key=(1,))
        assert len(t.uplink) == 0
        assert t.stats.dropped["monitored_run"] == 1

    def test_duplicate(self):
        t = FleetTransport(1, forced(duplicate=1.0))
        t.send_to_server(b"twice", msg_type="monitored_run", key=(1,))
        assert t.uplink.drain() == [b"twice", b"twice"]
        assert t.stats.duplicated["monitored_run"] == 1

    def test_truncate_shortens_payload(self):
        t = FleetTransport(1, forced(truncate=1.0))
        t.send_to_server(b"x" * 100, msg_type="monitored_run", key=(1,))
        (payload,) = t.uplink.drain()
        assert len(payload) < 100
        assert t.stats.truncated["monitored_run"] == 1

    def test_corrupt_flips_exactly_one_bit(self):
        t = FleetTransport(1, forced(corrupt=1.0))
        original = b"payload-payload-payload"
        t.send_to_server(original, msg_type="monitored_run", key=(1,))
        (payload,) = t.uplink.drain()
        assert len(payload) == len(original)
        diffs = [(a ^ b) for a, b in zip(payload, original) if a != b]
        assert len(diffs) == 1 and bin(diffs[0]).count("1") == 1

    def test_delay_holds_until_flush(self):
        t = FleetTransport(1, forced(delay=1.0))
        t.send_to_server(b"late", msg_type="monitored_run", key=(1,))
        assert len(t.uplink) == 0
        assert t.flush() == 1
        assert t.uplink.recv() == b"late"
        assert t.stats.delayed["monitored_run"] == 1

    def test_reorder_swaps_adjacent_messages(self):
        t = FleetTransport(1, forced(reorder=1.0))
        t.send_to_server(b"first", msg_type="monitored_run", key=(1,))
        t.send_to_server(b"second", msg_type="monitored_run", key=(2,))
        assert t.uplink.drain() == [b"second", b"first"]

    def test_reordered_message_released_by_flush(self):
        t = FleetTransport(1, forced(reorder=1.0))
        t.send_to_server(b"held", msg_type="monitored_run", key=(1,))
        assert len(t.uplink) == 0
        assert t.flush() == 1
        assert t.uplink.recv() == b"held"

    def test_straggle_forces_past_deadline(self):
        t = FleetTransport(1)  # no fault plan needed: client-level fault
        t.send_to_server(b"straggler", msg_type="monitored_run", key=(1,),
                         straggle=True)
        assert len(t.uplink) == 0
        t.flush()
        assert t.uplink.recv() == b"straggler"


class TestServerQuarantine:
    def test_garbage_is_quarantined_never_raises(self):
        from repro.corpus import get_bug
        from repro.core.server import GistServer

        server = GistServer(get_bug("pbzip2-1").module())
        assert server.receive(b"\x00\x01 not a message") is None
        assert server.receive(b'{"wire":99}') is None
        assert server.quarantined_count == 2
        assert server.messages_received == 0
        assert server.quarantine[0].size > 0

    def test_valid_message_is_received(self):
        from repro.corpus import get_bug
        from repro.core.server import GistServer
        from repro.fleet import wire
        from repro.runtime.failures import FailureKind, FailureReport

        server = GistServer(get_bug("pbzip2-1").module())
        report = FailureReport(kind=FailureKind.SEGFAULT, pc=3, tid=0)
        msg = server.receive(wire.encode_failure_report(report))
        assert msg is not None and msg.payload == report
        assert server.messages_received == 1
        assert server.quarantined_count == 0

    def test_downlink_and_shard_envelopes_are_quarantined(self):
        """Only failure reports, monitored runs and patch acks travel up:
        a decodable ``patch`` or ``shard_state`` envelope on the uplink is
        quarantined, naming its type, and never counts as received."""
        from repro.core.server import GistServer
        from repro.corpus import get_bug
        from repro.fleet import wire
        from repro.instrument.patch import Patch

        server = GistServer(get_bug("pbzip2-1").module())
        blobs = {
            wire.MSG_PATCH: wire.encode_patch(Patch(program="p"), epoch=1),
            wire.MSG_SHARD_STATE: wire.encode_shard_state(0, [], {}),
        }
        for count, (msg_type, blob) in enumerate(blobs.items(), start=1):
            assert wire.decode_message(blob).type == msg_type
            assert server.receive(blob) is None
            assert server.quarantined_count == count
            assert server.messages_received == 0
            assert msg_type in server.quarantine[-1].reason
