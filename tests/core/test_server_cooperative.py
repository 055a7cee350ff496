"""Server-side campaign and cooperative deployment tests."""

import pytest

from repro.core import (
    CooperativeDeployment,
    GistClient,
    GistServer,
    Workload,
    constant_factory,
)
from repro.hw.watchpoints import NUM_DEBUG_REGISTERS
from repro.lang import compile_source

RACY = """
struct q { void* mut; int data; };
struct q* fifo;

void cons(int unused) {
    mutex_lock(fifo->mut);
    fifo->data = fifo->data - 1;
    mutex_unlock(fifo->mut);
}

int main(int n) {
    fifo = malloc(sizeof(struct q));
    fifo->mut = mutex_create();
    fifo->data = n;
    int t = thread_create(cons, 0);
    mutex_destroy(fifo->mut);
    fifo->mut = NULL;
    thread_join(t);
    free(fifo);
    return 0;
}
"""

MANY_VARS = """
int a = 0;
int b = 0;
int c = 0;
int d = 0;
int e = 0;
int f = 0;
int main(int x) {
    a = x;
    b = a + 1;
    c = b + 1;
    d = c + 1;
    e = d + 1;
    f = e + 1;
    assert(f < 100, "bound");
    return f;
}
"""


def bootstrap(module, workload, seeds=60):
    client = GistClient(module)
    for seed in range(seeds):
        out = client.run(Workload(args=workload.args, seed=seed,
                                  switch_prob=workload.switch_prob)).outcome
        if out.failed:
            return out.failure
    raise AssertionError("no failure found")


class TestCampaign:
    def test_same_identity_reuses_campaign(self):
        module = compile_source(RACY)
        report = bootstrap(module, Workload(args=(3,), switch_prob=0.05))
        server = GistServer(module)
        assert server.campaign is None
        c1 = server.handle_failure_report("bug", report)
        c2 = server.handle_failure_report("bug", report)
        assert c1 is c2
        assert server.campaign is c1

    def test_another_identity_is_refused(self):
        import dataclasses

        module = compile_source(RACY)
        report = bootstrap(module, Workload(args=(3,), switch_prob=0.05))
        server = GistServer(module)
        campaign = server.handle_failure_report("bug", report)
        other = dataclasses.replace(report, pc=report.pc + 1)
        assert other.identity() != report.identity()
        with pytest.raises(ValueError, match="server of its own"):
            server.handle_failure_report("other-bug", other)
        assert server.campaign is campaign
        assert server.handle_failure_report("bug", report) is campaign

    def test_ingest_counts_recurrences_by_identity(self):
        module = compile_source(RACY)
        report = bootstrap(module, Workload(args=(3,), switch_prob=0.05))
        server = GistServer(module)
        campaign = server.handle_failure_report("bug", report)
        campaign.begin_iteration()
        from repro.core import MonitoredRun

        matching = MonitoredRun(run_id=0, failed=True, failure=report)
        assert campaign.ingest(matching)
        other = MonitoredRun(run_id=1, failed=False)
        assert not campaign.ingest(other)
        assert campaign.total_failure_recurrences == 2  # bootstrap + 1

    @pytest.mark.parametrize("stats", ("exact", "streaming"))
    def test_windowed_recurrences_age_out_on_time(self, stats):
        from repro.core import MonitoredRun
        from repro.core.streaming import DEFAULT_WINDOWS

        module = compile_source(MANY_VARS)
        report = bootstrap(module, Workload(args=(100,)))
        server = GistServer(module, stats=stats)
        campaign = server.handle_failure_report("bug", report)
        seen = []
        for run_id in range(DEFAULT_WINDOWS + 2):
            campaign.begin_iteration()
            assert campaign.ingest(MonitoredRun(
                run_id=run_id, failed=True, failure=report,
                predictors=frozenset()))
            campaign.finish_iteration()
            seen.append(campaign.windowed_recurrences())
        if stats == "exact":
            # The lifetime total: the bootstrap report plus every run.
            assert seen == list(range(2, DEFAULT_WINDOWS + 4))
            return
        # One recurrence per iteration.  The ring holds the open window
        # and the last DEFAULT_WINDOWS - 1 sealed ones, and the bootstrap
        # report counts until the first window ages out.
        assert seen == list(range(2, DEFAULT_WINDOWS + 1)) + \
            [DEFAULT_WINDOWS - 1] * 3

    def test_offline_analysis_time_recorded(self):
        module = compile_source(RACY)
        report = bootstrap(module, Workload(args=(3,), switch_prob=0.05))
        server = GistServer(module)
        server.handle_failure_report("bug", report)
        assert server.offline_analysis_seconds > 0.0

    def test_cooperative_watchpoint_splitting(self):
        # A window with more watch candidates than debug registers must be
        # split into patch variants whose assignments cover everything.
        module = compile_source(MANY_VARS)
        # MANY_VARS never fails; drive the server directly from a synthetic
        # failure report at the assert.
        from repro.lang import Opcode
        from repro.runtime.failures import FailureKind, FailureReport

        failing = next(i for i in module.instructions()
                       if i.opcode is Opcode.ASSERT)
        report = FailureReport(kind=FailureKind.ASSERTION, pc=failing.uid,
                               tid=0)
        server = GistServer(module)
        campaign = server.handle_failure_report("bug", report,
                                                initial_sigma=16)
        _it, plan = campaign.begin_iteration()
        assert len(plan.watch_candidates) > NUM_DEBUG_REGISTERS
        patches = campaign.make_patches(8)
        covered = set()
        for patch in patches:
            assert 0 < len(patch.watch_assignment) <= NUM_DEBUG_REGISTERS
            covered |= patch.watch_assignment
        assert covered == set(plan.watch_candidates)


class TestDeployment:
    def test_wait_for_failure_counts_runs(self):
        module = compile_source(RACY)
        dep = CooperativeDeployment(
            module, constant_factory(Workload(args=(3,), switch_prob=0.05)),
            endpoints=3)
        report, runs = dep.wait_for_failure(max_runs=500)
        assert report is not None
        assert 1 <= runs <= 500

    def test_endpoints_round_robin(self):
        module = compile_source(RACY)
        dep = CooperativeDeployment(
            module, constant_factory(Workload(args=(3,))), endpoints=4)
        clients = [dep._draw()[0].endpoint_id for _ in range(8)]
        assert clients == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_invalid_endpoint_count(self):
        module = compile_source(RACY)
        with pytest.raises(ValueError):
            CooperativeDeployment(module, constant_factory(Workload()),
                                  endpoints=0)

    def test_campaign_stats_fields(self):
        module = compile_source(RACY)
        dep = CooperativeDeployment(
            module, constant_factory(Workload(args=(3,), switch_prob=0.05)),
            endpoints=3, bug="racy")
        stats = dep.run_campaign(max_iterations=2,
                                 max_runs_per_iteration=60)
        assert stats.bug == "racy"
        assert stats.total_runs >= stats.monitored_runs
        assert stats.failure_recurrences >= 1
        assert stats.wall_seconds > 0
        if stats.sketch is not None:
            assert stats.iterations >= 1
            assert stats.avg_overhead_percent >= 0.0
