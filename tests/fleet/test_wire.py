"""Property tests for the fleet wire codecs.

Every message class must round-trip exactly through encode → bytes →
decode, encoding must be canonical (same object → same bytes), and any
truncated or bit-corrupted payload must either raise :class:`WireError`
or decode to a payload equal to the original — a lossy network must never
be able to smuggle a silently-different object past the digest check.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.predictors import Predictor
from repro.core.refinement import MonitoredRun
from repro.fleet import wire
from repro.hw.watchpoints import TrapRecord
from repro.instrument.patch import Patch
from repro.instrument.planner import HookSpec
from repro.runtime.failures import (
    FailureKind,
    FailureReport,
    OriginHop,
    RaceAccess,
    RaceInfo,
    StackFrameInfo,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_text = st.text(max_size=24)
_uid = st.integers(0, 5000)
_tid = st.integers(0, 7)


def stack_frames():
    return st.tuples(_text, _uid, st.integers(0, 500)).map(
        lambda t: StackFrameInfo(function=t[0], pc=t[1], line=t[2]))


def race_accesses():
    return st.builds(
        RaceAccess,
        tid=_tid,
        pc=_uid,
        step=st.integers(0, 10 ** 6),
        is_write=st.booleans(),
        value=st.integers(-2 ** 31, 2 ** 31),
        stack=st.tuples(stack_frames()) | st.just(()),
    )


def race_infos():
    return st.builds(
        RaceInfo,
        address=st.integers(0, 2 ** 32),
        first=race_accesses(),
        second=race_accesses(),
    )


def origin_hops():
    return st.builds(
        OriginHop,
        kind=st.sampled_from(("origin", "propagation", "deref")),
        tid=_tid,
        pc=_uid,
        step=st.integers(0, 10 ** 6),
        function=_text,
        line=st.integers(0, 500),
        address=st.none() | st.integers(0, 2 ** 32),
    )


def failure_reports():
    return st.builds(
        FailureReport,
        kind=st.sampled_from(list(FailureKind)),
        pc=_uid,
        tid=_tid,
        message=_text,
        stack=st.tuples(*[stack_frames()] * 2) | st.just(()),
        address=st.none() | st.integers(0, 2 ** 32),
        race=st.none() | race_infos(),
        origin=st.lists(origin_hops(), max_size=3).map(tuple),
    )


def trap_records():
    return st.builds(
        TrapRecord,
        seq=st.integers(0, 10 ** 6),
        tid=_tid,
        pc=_uid,
        address=st.integers(0, 2 ** 32),
        is_write=st.booleans(),
        value=st.integers(-2 ** 31, 2 ** 31),
        slot=st.integers(0, 3),
    )


def predictors():
    return st.one_of(
        st.builds(Predictor, kind=st.just("branch"),
                  detail=st.tuples(_uid, st.booleans())),
        st.builds(Predictor, kind=st.just("value"),
                  detail=st.tuples(_uid, st.integers(-2 ** 31, 2 ** 31))))


def monitored_runs():
    return st.builds(
        MonitoredRun,
        run_id=st.integers(0, 10 ** 6),
        endpoint_id=st.integers(-1, 63),
        failed=st.booleans(),
        failure=st.none() | failure_reports(),
        executed=st.dictionaries(_tid, st.lists(_uid, max_size=12),
                                 max_size=3),
        traps=st.lists(trap_records(), max_size=4),
        overhead=st.floats(min_value=0.0, max_value=10.0,
                           allow_nan=False, allow_infinity=False),
        trace_bytes=st.integers(0, 10 ** 6),
        predictors=st.frozensets(predictors(), max_size=6),
    )


def patches():
    hooks = st.lists(
        st.builds(HookSpec, uid=_uid,
                  action=st.sampled_from(("pt_start", "pt_stop", "watch")),
                  note=_text),
        max_size=6).map(tuple)
    return st.builds(
        Patch,
        program=_text,
        hooks=hooks,
        watch_assignment=st.frozensets(_uid, max_size=4),
        slice_uids=st.frozensets(_uid, max_size=8),
    )


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(failure_reports(), st.none() | st.integers(0, 99))
def test_failure_report_round_trip(report, epoch):
    blob = wire.encode_failure_report(report, epoch=epoch)
    msg = wire.decode_message(blob)
    assert msg.type == wire.MSG_FAILURE_REPORT
    assert msg.epoch == epoch
    assert msg.payload == report
    assert msg.payload.identity() == report.identity()


@settings(max_examples=60, deadline=None)
@given(monitored_runs(), st.integers(0, 99))
def test_monitored_run_round_trip(run, epoch):
    blob = wire.encode_monitored_run(run, epoch=epoch)
    msg = wire.decode_message(blob)
    assert msg.type == wire.MSG_MONITORED_RUN
    assert msg.payload == run
    # int thread ids must survive JSON's string keys
    assert all(isinstance(tid, int) for tid in msg.payload.executed)


@settings(max_examples=60, deadline=None)
@given(patches(), st.integers(0, 99))
def test_patch_round_trip(patch, epoch):
    msg = wire.decode_message(wire.encode_patch(patch, epoch=epoch))
    assert msg.type == wire.MSG_PATCH
    assert msg.payload == patch
    # The slice is an optional section: a sliceless patch's body has no
    # "slice" key, so exact-mode patch envelopes keep their pre-slicing
    # bytes and digests.
    assert ("slice" in wire.patch_to_body(patch)) == bool(patch.slice_uids)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 63), st.integers(0, 99), st.text(max_size=16))
def test_patch_ack_round_trip(endpoint_id, epoch, digest):
    msg = wire.decode_message(
        wire.encode_patch_ack(endpoint_id, epoch, digest))
    assert msg.type == wire.MSG_PATCH_ACK
    assert msg.epoch == epoch
    assert msg.payload == {"endpoint_id": endpoint_id, "epoch": epoch,
                           "patch_digest": digest}


@settings(max_examples=30, deadline=None)
@given(monitored_runs())
def test_encoding_is_canonical(run):
    assert wire.encode_monitored_run(run, epoch=3) == \
        wire.encode_monitored_run(run, epoch=3)


def _reference_envelope(blob_type, body, epoch, campaign):
    """``_canonical`` of the envelope dict, built the obvious way."""
    envelope = {"wire": wire.WIRE_VERSION, "type": blob_type,
                "epoch": epoch, "digest": wire.body_digest(body),
                "body": body}
    if campaign is not None:
        envelope["campaign"] = campaign
    return wire._canonical(envelope)


@settings(max_examples=30, deadline=None)
@given(failure_reports(), monitored_runs(), patches(),
       st.none() | st.integers(0, 99), st.none() | st.text(min_size=1,
                                                            max_size=12))
def test_envelope_bytes_are_the_canonical_envelope(report, run, patch,
                                                   epoch, campaign):
    """The envelope splices the body's canonical bytes in rather than
    serializing the body twice; the result is byte for byte the canonical
    envelope, for every message type, with and without a campaign key."""
    cases = [
        (wire.MSG_FAILURE_REPORT, report, wire.encode_failure_report),
        (wire.MSG_MONITORED_RUN, run, wire.encode_monitored_run),
        (wire.MSG_PATCH, patch, wire.encode_patch),
    ]
    for msg_type, obj, encode in cases:
        body = wire._TO_BODY[msg_type](obj)
        assert encode(obj, epoch, campaign) == \
            _reference_envelope(msg_type, body, epoch, campaign), msg_type
    ack = wire.patch_ack_to_body(3, 7, "abc")
    assert wire.encode_patch_ack(3, 7, "abc", campaign) == \
        _reference_envelope(wire.MSG_PATCH_ACK, ack, 7, campaign)
    state = wire.shard_state_to_body(1, [], {})
    assert wire.encode_shard_state(1, [], {}, epoch) == \
        _reference_envelope(wire.MSG_SHARD_STATE, state, epoch, None)


@pytest.mark.parametrize("uid", [True, False, 1.0, 2.5, "3", None, [4]])
def test_executed_uids_must_be_integers(uid):
    """Only JSON integers are uids: a bool, float, string, null or list
    in an executed sequence is a malformed body."""
    body = wire.monitored_run_to_body(
        MonitoredRun(run_id=1, executed={0: [1, 2]}))
    assert wire.monitored_run_from_body(body).executed == {0: [1, 2]}
    body["executed"]["0"] = [1, uid, 2]
    with pytest.raises(wire.WireError, match="executed"):
        wire.monitored_run_from_body(body)


# ---------------------------------------------------------------------------
# Rejection of damaged payloads
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(failure_reports(), st.data())
def test_truncated_payload_is_rejected(report, data):
    blob = wire.encode_failure_report(report, epoch=1)
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(wire.WireError):
        wire.decode_message(blob[:cut])


@settings(max_examples=120, deadline=None)
@given(monitored_runs(), st.data())
def test_bit_corruption_never_smuggles_a_different_payload(run, data):
    blob = wire.encode_monitored_run(run, epoch=2)
    index = data.draw(st.integers(0, len(blob) - 1))
    bit = data.draw(st.integers(0, 7))
    mangled = bytearray(blob)
    mangled[index] ^= 1 << bit
    try:
        msg = wire.decode_message(bytes(mangled))
    except wire.WireError:
        return  # rejected: the common, safe outcome
    # the rare survivable flips (e.g. in the unprotected epoch field) must
    # still deliver the exact original payload — the body is digest-bound
    assert msg.payload == run


def test_decode_rejects_wrong_version_and_type():
    report = FailureReport(kind=FailureKind.SEGFAULT, pc=7, tid=0)
    blob = wire.encode_failure_report(report)
    with pytest.raises(wire.WireError):
        wire.decode_message(blob.replace(b'"wire":1', b'"wire":2'))
    with pytest.raises(wire.WireError):
        wire.decode_message(b'{"wire": 1, "type": "nope"}')
    # Traps travel inside monitored runs; a standalone trap_record
    # envelope, otherwise valid, is an unknown type.
    trap = TrapRecord(seq=0, tid=0, pc=5, address=64, is_write=True,
                      value=1, slot=0)
    lone_trap = wire._encode_envelope(
        "trap_record", wire.trap_record_to_body(trap), None)
    with pytest.raises(wire.WireError, match="unknown message type"):
        wire.decode_message(lone_trap)
    with pytest.raises(wire.WireError):
        wire.decode_message(b'[1, 2, 3]')
    with pytest.raises(wire.WireError):
        wire.decode_message(b'\xff\xfe not utf-8')


def test_digest_mismatch_is_rejected():
    report = FailureReport(kind=FailureKind.ASSERTION, pc=9, tid=1,
                           message="boom")
    blob = wire.encode_failure_report(report)
    tampered = blob.replace(b'"boom"', b'"doom"')
    assert tampered != blob
    with pytest.raises(wire.WireError, match="digest"):
        wire.decode_message(tampered)


# ---------------------------------------------------------------------------
# Failure-kind forward compatibility (versioned envelopes)
# ---------------------------------------------------------------------------

#: The kind vocabulary of a build that predates the detection subsystem.
LEGACY_KINDS = frozenset(
    k.value for k in FailureKind
    if k not in (FailureKind.DATA_RACE, FailureKind.NULL_DEREF))


class TestKindForwardCompat:
    def _race_report(self):
        acc = RaceAccess(tid=1, pc=10, step=5, is_write=True, value=3,
                         stack=(StackFrameInfo("worker", 10, 43),))
        return FailureReport(
            kind=FailureKind.DATA_RACE, pc=10, tid=1, message="race",
            address=0x1001,
            race=RaceInfo(address=0x1001, first=acc,
                          second=dataclasses.replace(acc, tid=2,
                                                     is_write=False)))

    def test_old_server_quarantines_new_kinds(self):
        # A server built from the legacy vocabulary must reject (not
        # crash on) envelopes carrying detection-era kinds.
        for kind in (FailureKind.DATA_RACE, FailureKind.NULL_DEREF):
            body = wire.failure_report_to_body(
                FailureReport(kind=kind, pc=3, tid=0))
            with pytest.raises(wire.WireError, match="unknown failure"):
                wire.failure_report_from_body(body,
                                              known_kinds=LEGACY_KINDS)

    def test_current_kinds_pass_known_filter(self):
        for kind in FailureKind:
            body = wire.failure_report_to_body(
                FailureReport(kind=kind, pc=3, tid=0))
            decoded = wire.failure_report_from_body(
                body, known_kinds=frozenset(k.value for k in FailureKind))
            assert decoded.kind is kind

    def test_future_kind_string_raises_wire_error(self):
        with pytest.raises(wire.WireError):
            wire.parse_failure_kind("quantum decoherence")

    def test_future_kind_envelope_quarantined_by_server(self):
        # The full receive path: a syntactically valid envelope whose body
        # carries a kind this build has never heard of must land in the
        # quarantine, never crash mid-ingest.
        import json

        from repro.core.server import GistServer
        from repro.corpus import get_bug

        blob = wire.encode_failure_report(self._race_report(), epoch=2)
        envelope = json.loads(blob.decode("utf-8"))
        envelope["body"]["kind"] = "quantum decoherence"
        envelope["digest"] = wire.body_digest(envelope["body"])
        tampered = json.dumps(envelope).encode("utf-8")

        server = GistServer(get_bug("evloop-1").module())
        assert server.receive(tampered) is None
        assert server.quarantined_count == 1
        assert "unknown failure kind" in server.quarantine[0].reason
        # The same envelope with its real kind is accepted.
        assert server.receive(blob) is not None

    def test_race_section_round_trips(self):
        report = self._race_report()
        msg = wire.decode_message(wire.encode_failure_report(report))
        assert msg.payload == report
        assert msg.payload.race.first.stack[0].function == "worker"

    def test_race_section_covered_by_digest(self):
        blob = wire.encode_failure_report(self._race_report())
        tampered = blob.replace(b'"value":3', b'"value":4')
        assert tampered != blob
        with pytest.raises(wire.WireError, match="digest"):
            wire.decode_message(tampered)

    def test_legacy_report_bytes_carry_no_new_sections(self):
        report = FailureReport(kind=FailureKind.SEGFAULT, pc=7, tid=0)
        blob = wire.encode_failure_report(report)
        assert b'"race"' not in blob
        assert b'"origin"' not in blob


class TestPredictorsSection:
    """The server ranks a run by the predictors it ships, so a
    ``monitored_run`` body must carry the section."""

    def _run(self):
        return MonitoredRun(run_id=7, endpoint_id=1, failed=True,
                            executed={0: [1, 2, 3]},
                            predictors=frozenset({
                                Predictor("branch", (2, True)),
                                Predictor("value", (3, 0))}))

    def test_empty_set_still_ships_the_section(self):
        body = wire.monitored_run_to_body(MonitoredRun(run_id=1))
        assert body["predictors"] == []
        assert wire.monitored_run_from_body(body).predictors == frozenset()

    def test_body_without_predictors_is_rejected(self):
        body = wire.monitored_run_to_body(self._run())
        del body["predictors"]
        with pytest.raises(wire.WireError, match="predictors"):
            wire.monitored_run_from_body(body)

    def test_server_quarantines_a_run_without_predictors(self):
        import json

        from repro.core.server import GistServer
        from repro.corpus import get_bug

        blob = wire.encode_monitored_run(self._run(), epoch=1)
        envelope = json.loads(blob.decode("utf-8"))
        del envelope["body"]["predictors"]
        envelope["digest"] = wire.body_digest(envelope["body"])
        stripped = json.dumps(envelope).encode("utf-8")

        server = GistServer(get_bug("evloop-1").module())
        assert server.receive(stripped) is None
        assert server.quarantined_count == 1
        assert "predictors" in server.quarantine[0].reason
        assert server.receive(blob).payload == self._run()
