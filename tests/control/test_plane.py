"""Functional control-plane tests: sharding, budgets, cohorts, faults."""

import pytest

from repro.control import CampaignSpec, ConsistentHashRing, ControlPlane
from repro.core import render_sketch
from repro.corpus import get_bug
from repro.fleet import parse_fault_plan

BUGS = ("pbzip2-1", "curl-965", "memcached-127")


def _specs(bug_ids=BUGS):
    specs = []
    for bug_id in bug_ids:
        b = get_bug(bug_id)
        specs.append(CampaignSpec(bug=b.bug_id, module=b.module(),
                                  workload_factory=b.workload_factory,
                                  stop_when=b.sketch_has_root))
    return specs


def _run(**kwargs):
    options = dict(shards=2, endpoints=4, fleet_workers=4,
                   max_iterations=4)
    options.update(kwargs)
    return ControlPlane(_specs(), **options).run()


@pytest.fixture(scope="module")
def plane_result():
    return _run()


class TestConcurrentCampaigns:
    def test_every_campaign_converges(self, plane_result):
        assert all(plane_result.found.values())

    def test_round_budget_is_a_hard_cap(self, plane_result):
        assert plane_result.round_budget == 4 * 8
        assert 0 < plane_result.max_round_runs <= plane_result.round_budget

    def test_run_accounting_adds_up(self, plane_result):
        assert plane_result.total_runs == \
            sum(plane_result.runs_of.values())
        assert all(runs > 0 for runs in plane_result.runs_of.values())

    def test_cross_shard_merge_verified(self, plane_result):
        # Every campaign's striped rankers, round-tripped through
        # shard_state wire envelopes and merged, equal its direct ranker.
        assert plane_result.merge_verified

    def test_clusters_cover_every_campaign(self, plane_result):
        buckets = plane_result.clusters.buckets()
        assert sum(bucket.count for bucket in buckets) >= len(BUGS)
        assert set(plane_result.cluster_key_of.values()) == \
            {bucket.key for bucket in buckets}


class TestShardAssignment:
    def test_campaigns_homed_by_cluster_key_hash(self, plane_result):
        ring = ConsistentHashRing(2)
        assert set(plane_result.cluster_key_of) == set(BUGS)
        for bug_id, cluster_key in plane_result.cluster_key_of.items():
            assert plane_result.shard_of[cluster_key] == \
                ring.lookup(cluster_key)


class TestSchedulers:
    def test_fair_converges_to_identical_sketches(self, plane_result):
        fair = _run(scheduler="fair")
        for bug_id in BUGS:
            assert render_sketch(fair.stats[bug_id].sketch) == \
                render_sketch(plane_result.stats[bug_id].sketch)


class TestCohorts:
    def test_weighted_recurrences_with_identical_sketch_body(
            self, plane_result):
        cohort = _run(cohort_size=1000)
        assert cohort.fleet_scale == 4000
        for bug_id in BUGS:
            solo_stats = plane_result.stats[bug_id]
            cohort_stats = cohort.stats[bug_id]
            # The bootstrap report counts 1; every monitored recurrence
            # counts the full cohort — far beyond the unweighted total.
            assert cohort_stats.failure_recurrences > \
                solo_stats.failure_recurrences
            assert cohort_stats.failure_recurrences >= 1000

            def body(stats):
                return [line for line
                        in render_sketch(stats.sketch).splitlines()
                        if "failure recurrences" not in line]

            # F-measures are invariant under uniform count scaling, so
            # everything but the recurrence trailer is byte-identical.
            assert body(cohort_stats) == body(solo_stats)

    def test_sampled_share_still_converges(self):
        result = _run(cohort_size=1000, cohort_share=0.4, cohort_seed=7)
        assert all(result.found.values())


class TestFaultTolerance:
    def test_lossy_fleet_still_converges(self):
        result = _run(fault_plan=parse_fault_plan("lossy"))
        assert all(result.found.values())
        assert result.merge_verified


class TestDegenerateSingleCampaign:
    def test_one_campaign_one_shard_matches_run_campaign(self):
        from repro.core import CooperativeDeployment

        b = get_bug("pbzip2-1")
        with CooperativeDeployment(b.module(), b.workload_factory,
                                   endpoints=4, bug=b.bug_id,
                                   fleet_workers=4) as deployment:
            solo = deployment.run_campaign(stop_when=b.sketch_has_root,
                                           max_iterations=4)
        result = ControlPlane(_specs(["pbzip2-1"]), shards=1, endpoints=4,
                              fleet_workers=4, max_iterations=4).run()
        stats = result.stats["pbzip2-1"]
        assert render_sketch(stats.sketch) == render_sketch(solo.sketch)
        assert stats.total_runs == solo.total_runs

    @pytest.mark.parametrize("bug_id", BUGS)
    def test_one_campaign_plane_sends_the_solo_traffic(self, bug_id):
        """A fault-free campaign without cohorts sends the same bytes on
        the plane as solo: no envelope names its campaign, so the fleet
        report is identical at any shard count."""
        from repro.core import CooperativeDeployment

        b = get_bug(bug_id)
        with CooperativeDeployment(b.module(), b.workload_factory,
                                   endpoints=4, bug=b.bug_id) as deployment:
            solo = deployment.run_campaign(stop_when=b.sketch_has_root,
                                           max_iterations=4)
        for shards in (1, 2):
            result = ControlPlane(_specs([bug_id]), shards=shards,
                                  endpoints=4, max_iterations=4).run()
            stats = result.stats[bug_id]
            assert stats.fleet == solo.fleet, shards
            assert stats.total_runs == solo.total_runs
            assert render_sketch(stats.sketch) == render_sketch(solo.sketch)


class TestValidation:
    def test_rejects_empty_and_duplicate_specs(self):
        with pytest.raises(ValueError):
            ControlPlane([])
        with pytest.raises(ValueError):
            ControlPlane(_specs(["pbzip2-1", "pbzip2-1"]))

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ControlPlane(_specs(["pbzip2-1"]), shards=0)
