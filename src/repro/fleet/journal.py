"""The write-ahead campaign journal: durable server state for Gist.

PR 4 made the *clients* crash-tolerant — a killed endpoint loses its
in-memory patch and the campaign shrugs.  The server stayed the one
crash-intolerant component: every ingested monitored run lived only in
process memory.  This module closes that gap with a classic write-ahead
log layered under :meth:`DiagnosisCampaign.ingest_wire
<repro.core.server.DiagnosisCampaign.ingest_wire>`:

- every message that **mutates campaign state** is appended to the journal
  *before* it is applied — the canonical wire envelope bytes plus the
  already-verified content digest for monitored runs, small canonical-JSON
  control records for campaign lifecycle transitions (campaign start,
  iteration begin/finish, window growth);
- appends are buffered and ``fsync``'d in batches (every
  ``fsync_bytes`` of new records, plus explicitly at iteration
  boundaries), so the journal adds one sequential write per ingest, not
  one synchronous disk round-trip;
- recovery replays the record stream against a fresh
  :class:`~repro.core.server.GistServer`.  Because campaign state is a
  deterministic fold over *applied* envelopes (the epoch gate and digest
  gate were applied before journaling, so only applied envelopes are ever
  recorded), replay reconstructs ranker counts, refinement evidence,
  seen-digest sets, patch epochs, and AsT window state byte-for-byte.

**Recovery invariant.** For any prefix of the journal ending at an
applied-ingest record, replaying that prefix yields a server whose
campaign state (ranker state, ``shard_state`` export, recurrences, seen
digests, epoch) is identical to the live server's state at the moment
that ingest was applied.  Counters for *rejected* traffic (stale runs,
duplicates, quarantines) are deliberately not journaled — rejected
messages never mutate state, so they are not needed to resume, and a
resumed server's sketches are byte-identical either way.

The file format is binary and self-delimiting: an 8-byte header magic,
then records of ``type (u8) | payload_len (u32) | crc32 (u32) | payload``.
A torn tail (the process died mid-append, or the last batch never hit the
platter) fails its length or CRC check and replay stops cleanly at the
last intact record.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: Journal file header: magic + format version.
JOURNAL_MAGIC = b"GISTWAL1"

#: Record types, in the order they can legally appear per campaign.
REC_CAMPAIGN_START = 1   # canonical JSON: bug/key/sigma/stripes/report_hex
REC_BEGIN_ITERATION = 2  # canonical JSON: {"key": ...}
REC_INGEST = 3           # 16-byte ascii digest + monitored_run envelope
REC_FINISH_ITERATION = 4  # canonical JSON: {"key": ...}
REC_GROW = 5             # canonical JSON: {"key": ...}

_RECORD_TYPES = (REC_CAMPAIGN_START, REC_BEGIN_ITERATION, REC_INGEST,
                 REC_FINISH_ITERATION, REC_GROW)

_HEADER = struct.Struct("!BII")  # type, payload_len, crc32

#: Hex content digests in :mod:`repro.fleet.wire` are 16 characters.
_DIGEST_LEN = 16


class JournalError(Exception):
    """A structurally broken journal (bad header, unknown record type)."""
    pass


def _control_payload(key: Optional[str]) -> bytes:
    # Canonical (sorted-keys, compact) JSON, matching the wire codecs.
    return json.dumps({"key": key}, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def intact_prefix_end(path: os.PathLike) -> int:
    """Byte offset just past the last intact record — where the torn tail
    (if any) starts, and where a reopened journal must resume appending.
    Raises :class:`JournalError` on a bad header magic."""
    with open(path, "rb") as fh:
        if fh.read(len(JOURNAL_MAGIC)) != JOURNAL_MAGIC:
            raise JournalError(f"{path}: not a campaign journal")
        end = len(JOURNAL_MAGIC)
        while True:
            head = fh.read(_HEADER.size)
            if len(head) < _HEADER.size:
                return end
            rec_type, length, crc = _HEADER.unpack(head)
            if rec_type not in _RECORD_TYPES:
                return end
            payload = fh.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                return end
            end += _HEADER.size + length


def journal_path(journal_dir: str, bug: str) -> str:
    """Where one bug's campaign journal lives inside ``journal_dir``."""
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", bug) or "campaign"
    return os.path.join(journal_dir, f"{safe}.wal")


class CampaignJournal:
    """An append-only write-ahead log for one deployment's campaigns.

    ``fresh=True`` truncates any existing file (a deployment starting a
    new campaign); ``fresh=False`` opens in append mode and is how a
    recovered server continues journaling into the same file.  Reopening
    an existing journal first truncates any torn tail (a partial record
    left by a crash mid-append): appending after the garbage would make
    every later record unreachable to :func:`iter_records`, silently
    losing all state journaled after the first recovery.
    """

    def __init__(self, path: os.PathLike, fresh: bool = False,
                 fsync_bytes: int = 64 * 1024) -> None:
        self.path = Path(path)
        self.fsync_bytes = max(int(fsync_bytes), 1)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        exists = self.path.exists() and self.path.stat().st_size > 0
        self.torn_bytes_truncated = 0
        if fresh or not exists:
            self._file = open(self.path, "wb")
            self._file.write(JOURNAL_MAGIC)
        else:
            end = intact_prefix_end(self.path)
            size = self.path.stat().st_size
            if end < size:
                with open(self.path, "rb+") as fh:
                    fh.truncate(end)
                    os.fsync(fh.fileno())
                self.torn_bytes_truncated = size - end
            self._file = open(self.path, "ab")
        self._closed = False
        self._unsynced = len(JOURNAL_MAGIC) if fresh or not exists else 0
        self.records_appended = 0
        self.bytes_appended = 0
        self.syncs = 0

    # -- appending ----------------------------------------------------------

    def append(self, rec_type: int, payload: bytes) -> None:
        """Buffer one record; fsync when a batch's worth has accumulated."""
        if self._closed:
            raise JournalError("journal is closed")
        if rec_type not in _RECORD_TYPES:
            raise JournalError(f"unknown journal record type {rec_type}")
        record = _HEADER.pack(rec_type, len(payload),
                              zlib.crc32(payload)) + payload
        self._file.write(record)
        self.records_appended += 1
        self.bytes_appended += len(record)
        self._unsynced += len(record)
        if self._unsynced >= self.fsync_bytes:
            self.sync()

    def append_campaign_start(self, bug: str, key: Optional[str],
                              sigma: int, stripes: int,
                              report_blob: bytes) -> None:
        payload = json.dumps(
            {"bug": bug, "key": key, "sigma": sigma, "stripes": stripes,
             "report_hex": report_blob.hex()},
            sort_keys=True, separators=(",", ":")).encode("utf-8")
        self.append(REC_CAMPAIGN_START, payload)
        # Campaign identity must survive any crash from here on: one fsync
        # per campaign is free, losing the identity loses everything.
        self.sync()

    def append_begin_iteration(self, key: Optional[str]) -> None:
        self.append(REC_BEGIN_ITERATION, _control_payload(key))
        # Iteration opens are durability points too (one per iteration):
        # a server killed mid-iteration resumes with the window open and
        # only buffered *ingests* — re-suppliable evidence — at risk.
        self.sync()

    def append_ingest(self, digest: str, envelope: bytes) -> None:
        """The WAL step proper: digest + canonical envelope bytes, appended
        *before* the ingest mutates campaign state."""
        self.append(REC_INGEST, digest.encode("ascii") + envelope)

    def append_finish_iteration(self, key: Optional[str]) -> None:
        # Iteration boundaries are durability points: sync unconditionally
        # so a resumed campaign never loses a *closed* iteration.
        self.append(REC_FINISH_ITERATION, _control_payload(key))
        self.sync()

    def append_grow(self, key: Optional[str]) -> None:
        self.append(REC_GROW, _control_payload(key))

    def sync(self) -> None:
        """Flush buffered records and fsync the file."""
        if self._closed or self._unsynced == 0:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self.syncs += 1
        self._unsynced = 0

    def close(self) -> None:
        if self._closed:
            return
        self.sync()
        self._file.close()
        self._closed = True

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> Dict:
        return {
            "path": str(self.path),
            "records_appended": self.records_appended,
            "bytes_appended": self.bytes_appended,
            "syncs": self.syncs,
            "fsync_bytes": self.fsync_bytes,
            "torn_bytes_truncated": self.torn_bytes_truncated,
        }


# ---------------------------------------------------------------------------
# Reading + replay
# ---------------------------------------------------------------------------


def iter_records(path: os.PathLike,
                 strict: bool = False) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(type, payload)`` for every intact record, oldest first.

    A torn tail — short header, short payload, CRC mismatch — ends
    iteration cleanly unless ``strict`` is set, in which case it raises
    :class:`JournalError`.  A bad *header magic* always raises: that is
    not a torn write, it is not a journal.
    """
    with open(path, "rb") as fh:
        if fh.read(len(JOURNAL_MAGIC)) != JOURNAL_MAGIC:
            raise JournalError(f"{path}: not a campaign journal")
        while True:
            head = fh.read(_HEADER.size)
            if not head:
                return
            if len(head) < _HEADER.size:
                if strict:
                    raise JournalError(f"{path}: torn record header")
                return
            rec_type, length, crc = _HEADER.unpack(head)
            if rec_type not in _RECORD_TYPES:
                if strict:
                    raise JournalError(
                        f"{path}: unknown record type {rec_type}")
                return
            payload = fh.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                if strict:
                    raise JournalError(f"{path}: torn or corrupt record")
                return
            yield rec_type, payload


@dataclass
class RecoveredState:
    """What :func:`recover_server` reconstructed from a journal."""

    server: object  # GistServer (typed loosely: fleet must not import core)
    #: Campaign routing key (``None`` for solo campaigns) → campaign.
    campaigns: Dict[Optional[str], object] = field(default_factory=dict)
    records_replayed: int = 0
    ingests_replayed: int = 0
    #: Keys whose last replayed record left an iteration open (the server
    #: died mid-iteration; the resuming driver re-enters monitoring).
    open_iterations: Dict[Optional[str], bool] = field(default_factory=dict)


def recover_server(path: os.PathLike, module, *,
                   context=None, stripes: int = 1, ranker: str = "fmeasure",
                   stats: str = "exact") -> RecoveredState:
    """Rebuild a :class:`~repro.core.server.GistServer` from its journal.

    The replayed server journals nothing (its ``journal`` stays ``None``);
    the caller re-attaches a :class:`CampaignJournal` opened in append
    mode afterwards, so replayed records are never re-appended.

    A record that passes its CRC but whose payload does not decode — not
    UTF-8 JSON, not an object, a missing or mistyped field, a bad
    envelope, or a campaign key no earlier record started — raises
    :class:`JournalError` naming ``path`` and the record's index.
    """
    # Lazy import: fleet ↔ core layering (same pattern as server.receive).
    from ..core.server import GistServer
    from . import wire

    server = GistServer(module, context=context, stripes=stripes,
                        ranker=ranker, stats=stats)
    state = RecoveredState(server=server)
    for index, (rec_type, payload) in enumerate(iter_records(path)):
        where = f"{path}: record {index}"
        state.records_replayed += 1
        if rec_type == REC_INGEST:
            message = _envelope(where, payload[_DIGEST_LEN:],
                                wire.MSG_MONITORED_RUN)
            campaign = _campaign(state, where, message.campaign)
            if campaign.ingest_wire(message) is None:
                raise JournalError(
                    f"{where}: journaled ingest was rejected on replay "
                    "(epoch or digest gate) — journal out of order")
            state.ingests_replayed += 1
            continue
        meta = _control_record(where, rec_type, payload)
        key = meta["key"]
        if rec_type == REC_CAMPAIGN_START:
            try:
                blob = bytes.fromhex(meta["report_hex"])
            except ValueError as exc:
                raise JournalError(f"{where}: bad report_hex ({exc})") \
                    from exc
            report = _envelope(where, blob, wire.MSG_FAILURE_REPORT).payload
            campaign = server.handle_failure_report(
                meta["bug"], report, meta["sigma"], key=key)
            if campaign.stripes != meta["stripes"]:
                raise JournalError(
                    f"{where}: journal recorded {meta['stripes']} ingest "
                    f"stripes but recovery was configured with "
                    f"{campaign.stripes}")
            state.campaigns[key] = campaign
            state.open_iterations[key] = False
            continue
        campaign = _campaign(state, where, key)
        if rec_type == REC_BEGIN_ITERATION:
            campaign.begin_iteration()
            state.open_iterations[key] = True
        elif rec_type == REC_FINISH_ITERATION:
            campaign.finish_iteration()
            state.open_iterations[key] = False
        elif rec_type == REC_GROW:
            campaign.grow()
    return state


#: The fields of a campaign-start record besides ``key``, and their types.
_START_FIELDS = (("bug", str), ("sigma", int), ("stripes", int),
                 ("report_hex", str))


def _control_record(where: str, rec_type: int, payload: bytes) -> Dict:
    """A control record's canonical-JSON object, its fields checked: a
    string or null ``key``, plus :data:`_START_FIELDS` on a campaign
    start."""
    try:
        meta = json.loads(payload.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise JournalError(f"{where}: payload is not UTF-8 JSON ({exc})") \
            from exc
    if not isinstance(meta, dict):
        raise JournalError(f"{where}: payload is not a JSON object")
    if "key" not in meta or not (meta["key"] is None
                                 or isinstance(meta["key"], str)):
        raise JournalError(f"{where}: no string or null 'key'")
    if rec_type == REC_CAMPAIGN_START:
        for name, kind in _START_FIELDS:
            value = meta.get(name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise JournalError(
                    f"{where}: no {kind.__name__} {name!r}")
    return meta


def _envelope(where: str, blob: bytes, msg_type: str):
    """The wire message in ``blob``, which must be a ``msg_type``."""
    from . import wire

    try:
        message = wire.decode_message(blob)
    except wire.WireError as exc:
        raise JournalError(f"{where}: bad envelope ({exc})") from exc
    if message.type != msg_type:
        raise JournalError(
            f"{where}: envelope is a {message.type}, not a {msg_type}")
    return message


def _campaign(state: RecoveredState, where: str, key: Optional[str]):
    campaign = state.campaigns.get(key)
    if campaign is None:
        raise JournalError(f"{where}: no campaign started for key {key!r}")
    return campaign


def prefix_journal(src: os.PathLike, dst: os.PathLike,
                   max_ingests: int) -> int:
    """Copy ``src`` to ``dst``, cutting the stream off right after the
    ``max_ingests``-th applied-ingest record (nothing after it, not even
    control records) — a crash frozen at that exact ingest.  Returns how
    many ingests the prefix contains; the test harness for the recovery
    invariant."""
    journal = CampaignJournal(dst, fresh=True)
    kept = 0
    try:
        for rec_type, payload in iter_records(src):
            if rec_type == REC_INGEST and kept >= max_ingests:
                break
            journal.append(rec_type, payload)
            if rec_type == REC_INGEST:
                kept += 1
                if kept >= max_ingests:
                    break
    finally:
        journal.close()
    return kept
