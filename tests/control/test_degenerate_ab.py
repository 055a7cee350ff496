"""Full-corpus A/B: the control plane is a refactor, not a behaviour change.

The acceptance bar for the multi-campaign refactor: running all 11 corpus
bugs *concurrently* — budget-scheduled over a shared fleet, sharded 1, 2,
or 4 ways — must converge every campaign to the **byte-identical** failure
sketch the classic solo path produces.  Budgeted stepping is batch-size
invariant (each deployment consumes the same run-id-ordered evidence
stream no matter how the scheduler slices it) and ranker striping merges
losslessly, so nothing about concurrency, scheduling, or shard count may
leak into a sketch.
"""

import pytest

from repro.control import CampaignSpec, ControlPlane
from repro.core import render_sketch
from repro.corpus import all_bug_ids, get_bug

ENDPOINTS = 4
WORKERS = 4
MAX_ITERATIONS = 6


def _specs():
    specs = []
    for bug_id in all_bug_ids():
        b = get_bug(bug_id)
        specs.append(CampaignSpec(bug=b.bug_id, module=b.module(),
                                  workload_factory=b.workload_factory,
                                  stop_when=b.sketch_has_root))
    return specs


@pytest.fixture(scope="module")
def solo_baseline():
    """Classic sequential campaigns via the pre-plane public path:
    one ``CooperativeDeployment.run_campaign`` per bug, no scheduler, no
    sharding, no cohorts."""
    from repro.core import CooperativeDeployment

    baseline = {}
    for spec in _specs():
        with CooperativeDeployment(
                spec.module, spec.workload_factory,
                endpoints=ENDPOINTS, bug=spec.bug,
                fleet_workers=WORKERS) as deployment:
            stats = deployment.run_campaign(
                stop_when=spec.stop_when, max_iterations=MAX_ITERATIONS)
        assert stats.found, f"solo baseline failed for {spec.bug}"
        baseline[spec.bug] = (render_sketch(stats.sketch),
                              stats.total_runs, stats.iterations)
    return baseline


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_concurrent_campaigns_match_sequential(solo_baseline, shards):
    result = ControlPlane(_specs(), shards=shards, endpoints=ENDPOINTS,
                          fleet_workers=WORKERS,
                          max_iterations=MAX_ITERATIONS).run()
    assert result.merge_verified
    assert result.max_round_runs <= result.round_budget
    for bug_id, (sketch, total_runs, iterations) in solo_baseline.items():
        stats = result.stats[bug_id]
        assert stats.found, f"{bug_id} did not converge at {shards} shards"
        assert render_sketch(stats.sketch) == sketch
        assert stats.total_runs == total_runs
        assert stats.iterations == iterations
