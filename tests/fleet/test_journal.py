"""The write-ahead campaign journal: format, torn tails, and the
recovery invariant.

The property test at the bottom is the tentpole's correctness anchor:
campaign state is a deterministic fold over applied envelopes, so cutting
the journal after *any* applied ingest, recovering a fresh server from
the prefix, and replaying the remaining records through the public API
must land in exactly the live server's final state — byte-identical
canonical export, for every cut point.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cooperative import CooperativeDeployment
from repro.corpus import get_bug
from repro.fleet import wire
from repro.fleet.journal import (
    JOURNAL_MAGIC,
    REC_BEGIN_ITERATION,
    REC_CAMPAIGN_START,
    REC_FINISH_ITERATION,
    REC_GROW,
    REC_INGEST,
    CampaignJournal,
    JournalError,
    iter_records,
    prefix_journal,
    recover_server,
)

BUG = "transmission-1818"
_DIGEST_LEN = 16


def canonical_state(server) -> bytes:
    """Every piece of campaign state that feeds sketches and exports —
    the real ``shard_state`` wire envelope plus epoch/digest/iteration
    accounting as canonical JSON — the byte-identity oracle for recovery."""
    from repro.core.clustering import FailureClusterer

    camps, extra = [], []
    for campaign in sorted(server.campaigns.values(), key=lambda c: c.key):
        camps.append({
            "key": campaign.key,
            "bug": campaign.bug,
            "recurrences": campaign.total_failure_recurrences,
            "stripes": campaign.stripe_states(),
        })
        extra.append({
            "key": campaign.key,
            "epoch": campaign.epoch,
            "digests": sorted(campaign._seen_digests),
            "iterations": len(campaign.iterations),
        })
    shard = wire.encode_shard_state(0, camps, FailureClusterer().state())
    return shard + b"\n" + json.dumps(
        extra, sort_keys=True, separators=(",", ":")).encode("utf-8")


def replay_records(server, campaigns, records):
    """Apply journal records through the public campaign API — the same
    fold :func:`recover_server` performs, continued from a seam."""
    for rec_type, payload in records:
        if rec_type == REC_CAMPAIGN_START:
            meta = json.loads(payload.decode("utf-8"))
            report = wire.decode_message(
                bytes.fromhex(meta["report_hex"])).payload
            campaigns[meta["key"]] = server.handle_failure_report(
                meta["bug"], report, meta["sigma"], key=meta["key"])
        elif rec_type == REC_BEGIN_ITERATION:
            campaigns[json.loads(payload)["key"]].begin_iteration()
        elif rec_type == REC_INGEST:
            message = wire.decode_message(payload[_DIGEST_LEN:])
            assert campaigns[message.campaign].ingest_wire(message) \
                is not None
        elif rec_type == REC_FINISH_ITERATION:
            campaigns[json.loads(payload)["key"]].finish_iteration()
        elif rec_type == REC_GROW:
            campaigns[json.loads(payload)["key"]].grow()


@pytest.fixture(scope="module")
def journaled(tmp_path_factory):
    """One journaled socket-transport campaign: the WAL file plus the live
    server's final canonical state."""
    jdir = tmp_path_factory.mktemp("wal")
    spec = get_bug(BUG)
    deployment = CooperativeDeployment(
        spec.module(), spec.workload_factory, endpoints=4,
        bug=spec.bug_id, transport="socket", journal_dir=str(jdir))
    stats = deployment.run_campaign(stop_when=spec.sketch_has_root,
                                    max_iterations=6)
    assert stats.found
    final = canonical_state(deployment.server)
    deployment.close()
    path = jdir / f"{BUG}.wal"
    assert path.exists()
    return {"path": path, "final": final, "spec": spec,
            "records": list(iter_records(path))}


class TestFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.wal"
        with CampaignJournal(path, fresh=True) as journal:
            journal.append_campaign_start("bug", None, 2, 1, b"\x01\x02")
            journal.append_begin_iteration(None)
            journal.append_ingest("0badc0ffee15dead", b"envelope-bytes")
            journal.append_finish_iteration(None)
            journal.append_grow(None)
        records = list(iter_records(path))
        assert [r[0] for r in records] == [
            REC_CAMPAIGN_START, REC_BEGIN_ITERATION, REC_INGEST,
            REC_FINISH_ITERATION, REC_GROW]
        assert records[2][1] == b"0badc0ffee15dead" + b"envelope-bytes"
        meta = json.loads(records[0][1])
        assert meta == {"bug": "bug", "key": None, "sigma": 2,
                        "stripes": 1, "report_hex": "0102"}

    def test_torn_tail_is_tolerated_but_strict_raises(self, tmp_path):
        path = tmp_path / "j.wal"
        with CampaignJournal(path, fresh=True) as journal:
            journal.append_begin_iteration(None)
            journal.append_grow(None)
        whole = path.read_bytes()
        path.write_bytes(whole[:-3])  # tear the last record's payload
        assert [r[0] for r in iter_records(path)] == [REC_BEGIN_ITERATION]
        with pytest.raises(JournalError, match="torn"):
            list(iter_records(path, strict=True))

    def test_bad_magic_always_raises(self, tmp_path):
        path = tmp_path / "j.wal"
        path.write_bytes(b"NOTAWAL0" + b"\x00" * 16)
        with pytest.raises(JournalError, match="not a campaign journal"):
            list(iter_records(path))
        with pytest.raises(JournalError, match="not a campaign journal"):
            CampaignJournal(path, fresh=False)

    def test_append_mode_continues_existing_file(self, tmp_path):
        path = tmp_path / "j.wal"
        with CampaignJournal(path, fresh=True) as journal:
            journal.append_grow(None)
        with CampaignJournal(path, fresh=False) as journal:
            journal.append_grow("other")
        assert len(list(iter_records(path))) == 2
        with CampaignJournal(path, fresh=True) as journal:
            pass
        assert list(iter_records(path)) == []

    def test_append_mode_truncates_torn_tail(self, tmp_path):
        # The double-crash scenario: a SIGKILL tears the last record; the
        # reopened journal must truncate the garbage before appending, or
        # everything journaled after the first recovery is unreachable
        # behind it and a second crash silently loses all of it.
        path = tmp_path / "j.wal"
        with CampaignJournal(path, fresh=True) as journal:
            journal.append_begin_iteration(None)
            journal.append_grow(None)
        whole = path.read_bytes()
        path.write_bytes(whole[:-3])  # tear the last record's payload
        with CampaignJournal(path, fresh=False) as journal:
            assert journal.torn_bytes_truncated > 0
            assert journal.stats()["torn_bytes_truncated"] > 0
            journal.append_grow("post-recovery")
            journal.append_finish_iteration("post-recovery")
        assert [r[0] for r in iter_records(path)] == [
            REC_BEGIN_ITERATION, REC_GROW, REC_FINISH_ITERATION]
        # And strict mode agrees the file is whole again.
        assert len(list(iter_records(path, strict=True))) == 3

    def test_clean_reopen_truncates_nothing(self, tmp_path):
        path = tmp_path / "j.wal"
        with CampaignJournal(path, fresh=True) as journal:
            journal.append_grow(None)
        with CampaignJournal(path, fresh=False) as journal:
            assert journal.torn_bytes_truncated == 0

    def test_lifecycle_records_are_durability_points(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.wal", fresh=True)
        journal.append_campaign_start("bug", None, 2, 1, b"\x01")
        journal.append_begin_iteration(None)
        start_syncs = journal.syncs
        assert start_syncs >= 2
        journal.append_ingest("0badc0ffee15dead", b"x" * 32)
        assert journal.syncs == start_syncs  # ingests batch
        journal.append_finish_iteration(None)
        assert journal.syncs == start_syncs + 1
        journal.close()


class TestRecovery:
    def test_full_replay_matches_live_server(self, journaled):
        state = recover_server(journaled["path"],
                               journaled["spec"].module())
        assert canonical_state(state.server) == journaled["final"]
        assert state.ingests_replayed > 0
        assert state.server.journal is None
        assert not any(state.open_iterations.values())

    def test_prefix_journal_counts_ingests(self, journaled, tmp_path):
        cut = tmp_path / "prefix.wal"
        total = sum(1 for t, _ in journaled["records"]
                    if t == REC_INGEST)
        assert prefix_journal(journaled["path"], cut, 1) == 1
        assert sum(1 for t, _ in iter_records(cut)
                   if t == REC_INGEST) == 1
        assert prefix_journal(journaled["path"], cut, total + 99) == total


class TestRecoveryInvariant:
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_any_prefix_plus_suffix_reaches_final_state(self, journaled,
                                                        data):
        records = journaled["records"]
        total = sum(1 for t, _ in records if t == REC_INGEST)
        assert total > 0
        k = data.draw(st.integers(min_value=0, max_value=total),
                      label="cut after ingest #")
        with tempfile.TemporaryDirectory() as tdir:
            cut = Path(tdir) / "prefix.wal"
            assert prefix_journal(journaled["path"], cut, k) == k
            state = recover_server(cut, journaled["spec"].module())
            assert state.ingests_replayed == k
            # Everything past the cut, replayed through the public API:
            # the prefix ends right after the k-th ingest record (for
            # k=0, right before the first one).
            if k == 0:
                suffix_from = next(
                    (i for i, (t, _) in enumerate(records)
                     if t == REC_INGEST), len(records))
            else:
                seen = 0
                for index, (rec_type, _) in enumerate(records):
                    if rec_type == REC_INGEST:
                        seen += 1
                        if seen == k:
                            suffix_from = index + 1
                            break
            replay_records(state.server, dict(state.campaigns),
                           records[suffix_from:])
            assert canonical_state(state.server) == journaled["final"]


class TestCrashRecoveryKeepsServerSettings:
    def test_recovered_server_keeps_ranker_and_stats(self, tmp_path):
        """A simulated server crash rebuilds the server from its journal
        with the same ranking score and statistics mode, so a crashed
        campaign ends in exactly the crash-free campaign's state."""
        from repro.core.render import render_sketch
        from repro.core.streaming import SketchRanker
        from repro.detect.invariants import error_invariant_score
        from repro.fleet import parse_fault_plan

        spec = get_bug("pbzip2-1")

        def run(**kwargs):
            deployment = CooperativeDeployment(
                spec.module(), spec.workload_factory, endpoints=4,
                bug=spec.bug_id, ranker="invariants", stats="streaming",
                **kwargs)
            stats = deployment.run_campaign(stop_when=spec.sketch_has_root,
                                            max_iterations=6)
            (campaign,) = deployment.server.campaigns.values()
            return deployment.server, campaign.ranker(), stats

        _, ranker, clean = run()
        server, recovered, crashed = run(
            journal_dir=str(tmp_path),
            fault_plan=parse_fault_plan("server_crash_every=2,seed=1"))
        assert crashed.fleet["server_crashes"] == 2
        assert (server.ranker_kind, server.stats_kind) == \
            ("invariants", "streaming")
        assert type(recovered) is type(ranker) is SketchRanker
        assert recovered.score is ranker.score is error_invariant_score
        assert wire.body_digest(wire.ranker_state_to_body(
            recovered.state())) == wire.body_digest(
                wire.ranker_state_to_body(ranker.state()))
        assert render_sketch(crashed.sketch) == render_sketch(clean.sketch)


def _start_meta(**fields) -> bytes:
    meta = {"bug": BUG, "key": None, "sigma": 2, "stripes": 1,
            "report_hex": "00"}
    meta.update(fields)
    return json.dumps(meta).encode("utf-8")


#: One CRC-valid record with a malformed payload per case, each of which
#: once escaped recovery as an untyped exception.
_MALFORMED = {
    "non-utf8": (REC_BEGIN_ITERATION, b"\xff\xfe{}"),
    "json-array": (REC_BEGIN_ITERATION, b"[1, 2]"),
    "empty-object": (REC_BEGIN_ITERATION, b"{}"),
    "unknown-campaign-key": (REC_BEGIN_ITERATION, b'{"key": "nope"}'),
    "bad-report-hex": (REC_CAMPAIGN_START, _start_meta(report_hex="zz")),
    "garbage-ingest-envelope": (REC_INGEST, b"0badc0ffee15dead" + b"\x00{"),
    "short-ingest-envelope": (REC_INGEST, b"0badc0ffee"),
}


class TestMalformedPayloads:
    """A record that passes its CRC but carries a malformed payload is a
    :class:`JournalError` naming the journal and the record's index."""

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_recovery_raises_journal_error(self, case, journaled,
                                           tmp_path):
        rec_type, payload = _MALFORMED[case]
        start = journaled["records"][0]
        assert start[0] == REC_CAMPAIGN_START
        path = tmp_path / "bad.wal"
        with CampaignJournal(path, fresh=True) as journal:
            journal.append(*start)
            journal.append(rec_type, payload)
        assert len(list(iter_records(path, strict=True))) == 2
        with pytest.raises(JournalError) as raised:
            recover_server(path, journaled["spec"].module())
        assert str(raised.value).startswith(f"{path}: record 1: ")
