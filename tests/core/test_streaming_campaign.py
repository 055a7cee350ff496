"""Campaign-level streaming-vs-exact A/B (corpus bugs, full pipeline).

The streaming statistics mode must change the memory story, not the
diagnosis: on real corpus bugs the sketch, accuracy, and convergence are
pinned against the exact mode for both ranking scores, both modes put the
same sliced evidence on the wire, and the bounded-state counter engages.
"""

import pytest

from repro.core.gist import Gist
from repro.corpus import get_bug

BUGS = ("pbzip2-1", "memcached-127")


def _diagnose(bug, mode, **kwargs):
    gist = Gist(bug.module(), bug=bug.bug_id, detectors=bug.detectors,
                stats=mode, **kwargs)
    return gist.diagnose(bug.workload_factory, max_iterations=6)


@pytest.mark.parametrize("bug_id", BUGS)
def test_streaming_matches_exact_diagnosis(bug_id):
    bug = get_bug(bug_id)
    exact = _diagnose(bug, "exact")
    streaming = _diagnose(bug, "streaming")
    assert exact.found and streaming.found
    assert streaming.rendered() == exact.rendered()
    assert streaming.stats.iterations == exact.stats.iterations
    assert streaming.stats.total_runs == exact.stats.total_runs


def test_invariants_streaming_matches_exact_diagnosis():
    # The error-invariant score on the bounded count store.
    bug = get_bug("pbzip2-1")
    exact = _diagnose(bug, "exact", ranker="invariants")
    streaming = _diagnose(bug, "streaming", ranker="invariants")
    assert exact.found and streaming.found
    assert streaming.rendered() == exact.rendered()


def test_streaming_counters_engage():
    bug = get_bug("pbzip2-1")
    exact = _diagnose(bug, "exact")
    streaming = _diagnose(bug, "streaming")
    # One evidence path: both modes ship the same sliced patches and
    # evidence, so the wire carries byte-identical traffic.
    assert exact.stats.fleet["transport"]["bytes_sent"] == \
        streaming.stats.fleet["transport"]["bytes_sent"]
    assert streaming.stats.peak_tracked_bytes > 0


def test_streaming_sharded_merge_verifies():
    bug = get_bug("pbzip2-1")
    result = _diagnose(bug, "streaming", shards=2)
    assert result.found
    # Cross-shard fold of sketched stripe states must reproduce the
    # campaign's own merged sketch ranker exactly.
    assert result.plane.merge_verified


def test_streaming_journal_recovery(tmp_path):
    """Replaying journaled (already sliced) envelopes into a fresh
    streaming server rebuilds identical sketch-ranker state."""
    from repro.core.cooperative import CooperativeDeployment
    from repro.fleet.journal import recover_server

    bug = get_bug("pbzip2-1")
    deployment = CooperativeDeployment(
        bug.module(), bug.workload_factory, endpoints=4, bug=bug.bug_id,
        detectors=bug.detectors, journal_dir=str(tmp_path),
        stats="streaming")
    stats = deployment.run_campaign(stop_when=bug.sketch_has_root,
                                    max_iterations=6)
    assert stats.found
    (live,) = deployment.server.campaigns.values()
    deployment.close()

    state = recover_server(tmp_path / f"{bug.bug_id}.wal", bug.module(),
                           stats="streaming")
    (recovered,) = state.campaigns.values()
    assert recovered.stats_kind == "streaming"
    assert recovered.ranker().state() == live.ranker().state()
    assert recovered.ranker().state()["kind"] == "sketch"
