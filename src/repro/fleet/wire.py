"""Versioned JSON wire codecs for fleet traffic.

Everything that crosses the client↔server boundary in the cooperative
deployment is one of three message classes — :class:`FailureReport`,
:class:`Patch`, :class:`MonitoredRun` (whose watchpoint
:class:`TrapRecord` log rides inside it) — plus the small ``patch_ack``
control message; the control plane's ``shard_state`` export travels in the
same envelope.  This module gives each of them an explicit, versioned JSON
wire form, extending the style of :mod:`repro.core.serialize`'s sketch
codec to the live protocol:

- every message travels inside an **envelope** carrying the wire-format
  version, the message type, an optional **patch epoch**, and a **content
  digest** of the canonical body bytes;
- encoding is canonical (sorted keys, compact separators), so equal
  payloads always produce byte-identical messages and therefore identical
  digests — which is what makes server-side idempotent ingestion a set
  lookup;
- decoding validates the version, the digest, and every body field, and
  raises :class:`WireError` on any truncation, corruption, or schema
  mismatch, so a transport fault can never hand the server a half-parsed
  object.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from ..hw.watchpoints import TrapRecord
from ..instrument.patch import Patch
from ..instrument.planner import HookSpec
from ..runtime.failures import (
    FailureKind,
    FailureReport,
    OriginHop,
    RaceAccess,
    RaceInfo,
    StackFrameInfo,
)
from ..core.predictors import (
    predictor_counts_from_body,
    predictor_counts_to_body,
    predictors_from_body,
    predictors_to_body,
)
from ..core.refinement import MonitoredRun

#: Bump when the envelope or any body schema changes incompatibly.
#: (Optional envelope/body fields that are *absent* when unset — the
#: ``campaign`` routing key, a monitored run's ``cohort`` multiplicity —
#: keep old payloads byte-identical and decodable, so they do not bump.)
WIRE_VERSION = 1

MSG_FAILURE_REPORT = "failure_report"
MSG_MONITORED_RUN = "monitored_run"
MSG_PATCH = "patch"
MSG_PATCH_ACK = "patch_ack"
MSG_SHARD_STATE = "shard_state"

#: What an endpoint may send the server.  The server's front door
#: (:meth:`GistServer.receive <repro.core.server.GistServer.receive>`)
#: quarantines every other type.
UPLINK_TYPES = frozenset({MSG_FAILURE_REPORT, MSG_MONITORED_RUN,
                          MSG_PATCH_ACK})


class WireError(Exception):
    """A message failed to decode: truncated, corrupt, or wrong schema."""
    pass


def _canonical(payload: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace — deterministic."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _bytes_digest(canonical: bytes) -> str:
    return hashlib.sha256(canonical).hexdigest()[:16]


def body_digest(body: Any) -> str:
    """Content digest of a message body (over its canonical bytes)."""
    return _bytes_digest(_canonical(body))


# ---------------------------------------------------------------------------
# Body codecs (object <-> plain-JSON body)
# ---------------------------------------------------------------------------


def _require(body: Dict[str, Any], key: str, types) -> Any:
    if not isinstance(body, dict) or key not in body:
        raise WireError(f"missing field {key!r}")
    value = body[key]
    if not isinstance(value, types):
        raise WireError(f"field {key!r} has type {type(value).__name__}")
    return value


def parse_failure_kind(kind_value: str,
                       known: Optional[frozenset] = None) -> FailureKind:
    """Map a wire kind string to :class:`FailureKind`, raising
    :class:`WireError` — never a bare ``ValueError`` — on anything outside
    the ``known`` set.

    ``known`` defaults to every kind this build understands.  Passing an
    older build's kind set simulates (and tests) the forward-compat
    contract: a server that predates a kind must *quarantine* the envelope
    (``WireError`` → :meth:`GistServer.receive` quarantine path), not
    crash mid-ingest with an unhandled exception.
    """
    if known is not None and kind_value not in known:
        raise WireError(
            f"unknown failure kind {kind_value!r} (newer client?)")
    try:
        return FailureKind(kind_value)
    except ValueError:
        raise WireError(
            f"unknown failure kind {kind_value!r} (newer client?)")


def _stack_to_body(stack) -> List[List]:
    return [[f.function, f.pc, f.line] for f in stack]


def _stack_from_body(frames: List) -> Tuple[StackFrameInfo, ...]:
    stack = []
    for frame in frames:
        if not (isinstance(frame, list) and len(frame) == 3
                and isinstance(frame[0], str)
                and isinstance(frame[1], int) and isinstance(frame[2], int)):
            raise WireError("malformed stack frame")
        stack.append(StackFrameInfo(function=frame[0], pc=frame[1],
                                    line=frame[2]))
    return tuple(stack)


def _race_access_to_body(acc: RaceAccess) -> Dict[str, Any]:
    return {"tid": acc.tid, "pc": acc.pc, "step": acc.step,
            "is_write": acc.is_write, "value": acc.value,
            "stack": _stack_to_body(acc.stack)}


def _race_access_from_body(body: Dict[str, Any]) -> RaceAccess:
    return RaceAccess(
        tid=_require(body, "tid", int),
        pc=_require(body, "pc", int),
        step=_require(body, "step", int),
        is_write=bool(_require(body, "is_write", bool)),
        value=_require(body, "value", int),
        stack=_stack_from_body(_require(body, "stack", list)),
    )


def failure_report_to_body(report: FailureReport) -> Dict[str, Any]:
    body = {
        "kind": report.kind.value,
        "pc": report.pc,
        "tid": report.tid,
        "message": report.message,
        "address": report.address,
        "stack": _stack_to_body(report.stack),
    }
    # Detection-subsystem enrichments travel as optional sections, absent
    # when unset, so pre-detector reports keep their exact bytes/digests.
    if report.race is not None:
        body["race"] = {
            "address": report.race.address,
            "first": _race_access_to_body(report.race.first),
            "second": _race_access_to_body(report.race.second),
        }
    if report.origin:
        body["origin"] = [
            {"kind": hop.kind, "tid": hop.tid, "pc": hop.pc,
             "step": hop.step, "function": hop.function, "line": hop.line,
             "address": hop.address}
            for hop in report.origin
        ]
    return body


def failure_report_from_body(
        body: Dict[str, Any],
        known_kinds: Optional[frozenset] = None) -> FailureReport:
    kind = parse_failure_kind(_require(body, "kind", str), known_kinds)
    address = body.get("address")
    if address is not None and not isinstance(address, int):
        raise WireError("field 'address' has wrong type")
    stack = _stack_from_body(_require(body, "stack", list))
    race = None
    race_body = body.get("race")
    if race_body is not None:
        if not isinstance(race_body, dict):
            raise WireError("field 'race' has wrong type")
        race = RaceInfo(
            address=_require(race_body, "address", int),
            first=_race_access_from_body(_require(race_body, "first", dict)),
            second=_race_access_from_body(_require(race_body, "second",
                                                   dict)),
        )
    origin: List[OriginHop] = []
    for hop in body.get("origin", ()):
        if not isinstance(hop, dict):
            raise WireError("malformed origin hop")
        hop_address = hop.get("address")
        if hop_address is not None and not isinstance(hop_address, int):
            raise WireError("origin hop 'address' has wrong type")
        origin.append(OriginHop(
            kind=_require(hop, "kind", str),
            tid=_require(hop, "tid", int),
            pc=_require(hop, "pc", int),
            step=_require(hop, "step", int),
            function=_require(hop, "function", str),
            line=_require(hop, "line", int),
            address=hop_address,
        ))
    return FailureReport(
        kind=kind,
        pc=_require(body, "pc", int),
        tid=_require(body, "tid", int),
        message=_require(body, "message", str),
        stack=stack,
        address=address,
        race=race,
        origin=tuple(origin),
    )


def trap_record_to_body(trap: TrapRecord) -> List:
    """Compact array form — traps dominate monitored-run payload bytes."""
    return [trap.seq, trap.tid, trap.pc, trap.address,
            1 if trap.is_write else 0, trap.value, trap.slot]


def trap_record_from_body(body: List) -> TrapRecord:
    if not (isinstance(body, list) and len(body) == 7):
        raise WireError("malformed trap record")
    seq, tid, pc, address, is_write, value, slot = body
    for name, field in (("seq", seq), ("tid", tid), ("pc", pc),
                        ("address", address), ("is_write", is_write),
                        ("value", value), ("slot", slot)):
        if not isinstance(field, int) or isinstance(field, bool):
            raise WireError(f"trap field {name!r} has wrong type")
    return TrapRecord(seq=seq, tid=tid, pc=pc, address=address,
                      is_write=bool(is_write), value=value, slot=slot)


def monitored_run_to_body(run: MonitoredRun) -> Dict[str, Any]:
    body = {
        "run_id": run.run_id,
        "endpoint_id": run.endpoint_id,
        "failed": run.failed,
        "failure": (failure_report_to_body(run.failure)
                    if run.failure is not None else None),
        "executed": {str(tid): list(seq)
                     for tid, seq in sorted(run.executed.items())},
        "traps": [trap_record_to_body(t) for t in run.traps],
        "overhead": run.overhead,
        "trace_bytes": run.trace_bytes,
        # Client-extracted predictors: a compact, canonically sorted
        # section every run carries, because the server ranks by it.
        "predictors": predictors_to_body(run.predictors),
    }
    # Cohort multiplicity: absent for ordinary single clients, so every
    # pre-cohort payload keeps its exact bytes (and digest).
    if run.cohort > 1:
        body["cohort"] = run.cohort
    return body


#: The element types an executed sequence may hold.
_INT_ONLY = frozenset({int})


def monitored_run_from_body(body: Dict[str, Any]) -> MonitoredRun:
    failure_body = body.get("failure")
    failure = (failure_report_from_body(failure_body)
               if failure_body is not None else None)
    executed: Dict[int, List[int]] = {}
    for tid_text, seq in _require(body, "executed", dict).items():
        try:
            tid = int(tid_text)
        except ValueError:
            raise WireError(f"bad thread id {tid_text!r}")
        # Exact types, checked in C: JSON decodes an integer to ``int``,
        # never to ``bool``, a float or a string.
        if not (isinstance(seq, list) and set(map(type, seq)) <= _INT_ONLY):
            raise WireError("malformed executed sequence")
        executed[tid] = list(seq)
    overhead = _require(body, "overhead", (int, float))
    try:
        predictors = predictors_from_body(
            _require(body, "predictors", list))
    except ValueError as err:
        raise WireError(str(err))
    cohort = 1
    if "cohort" in body:
        cohort = _require(body, "cohort", int)
        if isinstance(cohort, bool) or cohort < 2:
            raise WireError("malformed cohort multiplicity")
    return MonitoredRun(
        run_id=_require(body, "run_id", int),
        endpoint_id=_require(body, "endpoint_id", int),
        failed=_require(body, "failed", bool),
        failure=failure,
        executed=executed,
        traps=[trap_record_from_body(t)
               for t in _require(body, "traps", list)],
        overhead=float(overhead),
        trace_bytes=_require(body, "trace_bytes", int),
        cohort=cohort,
        predictors=predictors,
    )


def patch_to_body(patch: Patch) -> Dict[str, Any]:
    body = {
        "program": patch.program,
        "hooks": [[h.uid, h.action, h.note] for h in patch.hooks],
        "watch": sorted(patch.watch_assignment),
    }
    # Evidence-slicing uids travel as an optional section, absent when
    # unset, so a sliceless patch keeps the legacy body.  Servers stamp
    # the slice into every patch they cut.
    if patch.slice_uids:
        body["slice"] = sorted(patch.slice_uids)
    return body


def patch_from_body(body: Dict[str, Any]) -> Patch:
    hooks = []
    for hook in _require(body, "hooks", list):
        if not (isinstance(hook, list) and len(hook) == 3
                and isinstance(hook[0], int) and isinstance(hook[1], str)
                and isinstance(hook[2], str)):
            raise WireError("malformed hook spec")
        hooks.append(HookSpec(hook[0], hook[1], hook[2]))
    watch = _require(body, "watch", list)
    if not all(isinstance(uid, int) for uid in watch):
        raise WireError("malformed watch assignment")
    slice_uids: List[int] = []
    if "slice" in body:
        slice_uids = _require(body, "slice", list)
        if not all(isinstance(uid, int) and not isinstance(uid, bool)
                   for uid in slice_uids):
            raise WireError("malformed slice uids")
    return Patch(program=_require(body, "program", str),
                 hooks=tuple(hooks), watch_assignment=frozenset(watch),
                 slice_uids=frozenset(slice_uids))


def patch_ack_to_body(endpoint_id: int, epoch: int,
                      patch_digest: str) -> Dict[str, Any]:
    return {"endpoint_id": endpoint_id, "epoch": epoch,
            "patch_digest": patch_digest}


def patch_ack_from_body(body: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "endpoint_id": _require(body, "endpoint_id", int),
        "epoch": _require(body, "epoch", int),
        "patch_digest": _require(body, "patch_digest", str),
    }


def _cms_state_to_body(cms_state: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "width": cms_state["width"],
        "depth": cms_state["depth"],
        "rows": [[list(cell) for cell in row]
                 for row in cms_state["rows"]],
    }


def _cms_state_from_body(body: Dict[str, Any]) -> Dict[str, Any]:
    if not isinstance(body, dict):
        raise WireError("malformed sketch state")
    rows = _require(body, "rows", list)
    out_rows = []
    for row in rows:
        if not isinstance(row, list):
            raise WireError("malformed sketch row")
        cells = []
        for cell in row:
            if not (isinstance(cell, list) and len(cell) == 2
                    and all(isinstance(v, int) and not isinstance(v, bool)
                            for v in cell)):
                raise WireError("malformed sketch cell")
            cells.append([cell[0], cell[1]])
        out_rows.append(cells)
    return {
        "width": _require(body, "width", int),
        "depth": _require(body, "depth", int),
        "rows": out_rows,
    }


def ranker_state_to_body(state: Dict[str, Any]) -> Dict[str, Any]:
    """Canonical body of one :meth:`PredictorRanker.state` snapshot —
    the unit of cross-shard predictor-set merging.  Streaming-mode
    snapshots (``"kind": "sketch"``) additionally carry the Space-Saving
    table's error column and the two count-min sketches; exact snapshots
    keep the pre-streaming body shape byte-for-byte."""
    body = {
        "beta": state["beta"],
        "failure_pc": state["failure_pc"],
        "total_failing": state["total_failing"],
        "total_successful": state["total_successful"],
        "failing": predictor_counts_to_body(state["failing"]),
        "successful": predictor_counts_to_body(state["successful"]),
    }
    if state.get("kind") == "sketch":
        body["kind"] = "sketch"
        body["capacity"] = state["capacity"]
        body["error"] = predictor_counts_to_body(state["error"])
        body["cms_failing"] = _cms_state_to_body(state["cms_failing"])
        body["cms_successful"] = _cms_state_to_body(state["cms_successful"])
    return body


def ranker_state_from_body(body: Dict[str, Any]) -> Dict[str, Any]:
    failure_pc = body.get("failure_pc")
    if failure_pc is not None and (not isinstance(failure_pc, int)
                                   or isinstance(failure_pc, bool)):
        raise WireError("malformed failure_pc")
    try:
        failing = predictor_counts_from_body(
            _require(body, "failing", list))
        successful = predictor_counts_from_body(
            _require(body, "successful", list))
    except ValueError as err:
        raise WireError(str(err))
    state = {
        "beta": float(_require(body, "beta", (int, float))),
        "failure_pc": failure_pc,
        "total_failing": _require(body, "total_failing", int),
        "total_successful": _require(body, "total_successful", int),
        "failing": failing,
        "successful": successful,
    }
    if "kind" in body:
        if body["kind"] != "sketch":
            raise WireError(f"unknown ranker-state kind {body['kind']!r}")
        try:
            error = predictor_counts_from_body(
                _require(body, "error", list))
        except ValueError as err:
            raise WireError(str(err))
        state["kind"] = "sketch"
        state["capacity"] = _require(body, "capacity", int)
        state["error"] = error
        state["cms_failing"] = _cms_state_from_body(
            _require(body, "cms_failing", dict))
        state["cms_successful"] = _cms_state_from_body(
            _require(body, "cms_successful", dict))
    return state


def shard_state_to_body(shard: int,
                        campaigns: List[Dict[str, Any]],
                        clusters: Dict[str, Any]) -> Dict[str, Any]:
    """One shard's exportable control-plane state.

    ``campaigns`` entries carry ``{"key", "bug", "recurrences",
    "stripes": [ranker state, ...]}``; ``clusters`` is a
    :meth:`FailureClusterer.state` snapshot.  The control plane merges
    these digested envelopes into its global view, so shard state crosses
    the same canonical-wire path as fleet traffic.
    """
    return {
        "shard": shard,
        "campaigns": [
            {
                "key": c["key"],
                "bug": c["bug"],
                "recurrences": c["recurrences"],
                "stripes": [ranker_state_to_body(s) for s in c["stripes"]],
            }
            for c in campaigns
        ],
        "clusters": clusters,
    }


def shard_state_from_body(body: Dict[str, Any]) -> Dict[str, Any]:
    campaigns = []
    for entry in _require(body, "campaigns", list):
        if not isinstance(entry, dict):
            raise WireError("malformed shard campaign entry")
        campaigns.append({
            "key": _require(entry, "key", str),
            "bug": _require(entry, "bug", str),
            "recurrences": _require(entry, "recurrences", int),
            "stripes": [ranker_state_from_body(s)
                        for s in _require(entry, "stripes", list)],
        })
    return {
        "shard": _require(body, "shard", int),
        "campaigns": campaigns,
        "clusters": _require(body, "clusters", dict),
    }


_TO_BODY = {
    MSG_FAILURE_REPORT: failure_report_to_body,
    MSG_MONITORED_RUN: monitored_run_to_body,
    MSG_PATCH: patch_to_body,
}

_FROM_BODY = {
    MSG_FAILURE_REPORT: failure_report_from_body,
    MSG_MONITORED_RUN: monitored_run_from_body,
    MSG_PATCH: patch_from_body,
    MSG_PATCH_ACK: patch_ack_from_body,
    MSG_SHARD_STATE: shard_state_from_body,
}


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Message:
    """A decoded wire message: envelope metadata plus the payload object."""

    type: str
    epoch: Optional[int]
    digest: str
    payload: Union[FailureReport, MonitoredRun, Patch, Dict[str, Any]]
    #: Campaign routing key (multi-campaign control plane).  ``None`` for
    #: legacy single-campaign traffic — the envelope key is then absent,
    #: keeping pre-campaign payload bytes (and digests) unchanged.
    campaign: Optional[str] = None


def encode_message(msg_type: str, obj: Any,
                   epoch: Optional[int] = None,
                   campaign: Optional[str] = None) -> bytes:
    """Wrap an object of a known message class into envelope bytes."""
    if msg_type not in _TO_BODY:
        raise ValueError(f"unknown message type {msg_type!r}")
    body = _TO_BODY[msg_type](obj)
    return _encode_envelope(msg_type, body, epoch, campaign)


def _encode_envelope(msg_type: str, body: Any,
                     epoch: Optional[int],
                     campaign: Optional[str] = None) -> bytes:
    """``_canonical`` of the envelope, serializing the body once.

    The body's canonical bytes feed both its digest and the envelope:
    ``"body"`` sorts before every other envelope key, so the envelope is
    ``{"body":`` + those bytes + ``,`` + the rest of the envelope's own
    canonical form."""
    body_bytes = _canonical(body)
    rest = {
        "wire": WIRE_VERSION,
        "type": msg_type,
        "epoch": epoch,
        "digest": _bytes_digest(body_bytes),
    }
    # Routing key is absent (not null) when unset: single-campaign
    # envelopes keep their exact legacy bytes.
    if campaign is not None:
        rest["campaign"] = campaign
    return b'{"body":' + body_bytes + b"," + _canonical(rest)[1:]


def encode_failure_report(report: FailureReport,
                          epoch: Optional[int] = None,
                          campaign: Optional[str] = None) -> bytes:
    return encode_message(MSG_FAILURE_REPORT, report, epoch, campaign)


def encode_monitored_run(run: MonitoredRun,
                         epoch: Optional[int] = None,
                         campaign: Optional[str] = None) -> bytes:
    return encode_message(MSG_MONITORED_RUN, run, epoch, campaign)


def encode_patch(patch: Patch, epoch: Optional[int] = None,
                 campaign: Optional[str] = None) -> bytes:
    return encode_message(MSG_PATCH, patch, epoch, campaign)


def encode_patch_ack(endpoint_id: int, epoch: int,
                     patch_digest: str,
                     campaign: Optional[str] = None) -> bytes:
    return _encode_envelope(
        MSG_PATCH_ACK,
        patch_ack_to_body(endpoint_id, epoch, patch_digest), epoch,
        campaign)


def encode_shard_state(shard: int, campaigns: List[Dict[str, Any]],
                       clusters: Dict[str, Any],
                       epoch: Optional[int] = None) -> bytes:
    return _encode_envelope(
        MSG_SHARD_STATE,
        shard_state_to_body(shard, campaigns, clusters), epoch)


def decode_message(blob: bytes) -> Message:
    """Decode envelope bytes back into a :class:`Message`.

    Raises :class:`WireError` for anything short of a fully valid message:
    non-UTF-8 or non-JSON bytes (truncation, bit corruption), an
    unsupported wire version, an unknown message type, a digest mismatch
    (payload corruption that still parses), or a malformed body.
    """
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise WireError("undecodable message bytes")
    if not isinstance(payload, dict):
        raise WireError("message is not an envelope")
    version = payload.get("wire")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version!r}")
    msg_type = payload.get("type")
    if msg_type not in _FROM_BODY:
        raise WireError(f"unknown message type {msg_type!r}")
    epoch = payload.get("epoch")
    if epoch is not None and (not isinstance(epoch, int)
                              or isinstance(epoch, bool)):
        raise WireError("malformed epoch")
    campaign = payload.get("campaign")
    if campaign is not None and (not isinstance(campaign, str)
                                 or not campaign):
        raise WireError("malformed campaign key")
    if "body" not in payload or "digest" not in payload:
        raise WireError("envelope missing body or digest")
    body = payload["body"]
    digest = payload["digest"]
    if body_digest(body) != digest:
        raise WireError("content digest mismatch")
    try:
        decoded = _FROM_BODY[msg_type](body)
    except WireError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise WireError(f"malformed {msg_type} body: {err}")
    return Message(type=msg_type, epoch=epoch, digest=digest,
                   payload=decoded, campaign=campaign)
