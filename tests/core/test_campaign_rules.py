"""The campaign rules both campaign loops share (``core/server.py``).

``GistServer.route`` is the one place an uplink message reaches the
campaign; ``DiagnosisCampaign.iteration_satisfied`` and
``close_iteration`` say when an iteration has its evidence and what
closing it does, the iteration cap included.  The simulated fleet's
``CooperativeDeployment`` and ``repro fleet serve`` both call them, so
these tests pin the rules once for both.
"""

import pytest

from repro.core import GistServer, MonitoredRun, Workload
from repro.core.server import (MIN_FAILING_PER_ITERATION,
                               MIN_SUCCESSFUL_PER_ITERATION)
from repro.fleet import wire
from repro.fleet.journal import (REC_BEGIN_ITERATION, REC_CAMPAIGN_START,
                                 REC_FINISH_ITERATION, REC_GROW, REC_INGEST,
                                 CampaignJournal, iter_records,
                                 recover_server)
from repro.lang import compile_source

from .test_server_cooperative import RACY, bootstrap


@pytest.fixture(scope="module")
def module():
    return compile_source(RACY)


@pytest.fixture(scope="module")
def report(module):
    return bootstrap(module, Workload(args=(3,), switch_prob=0.05))


def received(server, blob):
    message = server.receive(blob)
    assert message is not None
    return message


def run_blob(run_id, epoch, report=None, cohort=1):
    """A monitored run's envelope: failing with ``report``, else a
    success."""
    run = MonitoredRun(run_id=run_id, endpoint_id=run_id % 4,
                       failed=report is not None, failure=report,
                       overhead=0.01, cohort=cohort)
    return wire.encode_monitored_run(run, epoch=epoch)


def route_blob(server, blob):
    return server.route(received(server, blob))


class TestRoute:
    def test_report_without_campaign_returns_to_the_caller(self, module,
                                                            report):
        server = GistServer(module)
        routed = route_blob(server, wire.encode_failure_report(report))
        assert routed == report
        assert server.campaign is None

    def test_report_with_campaign_is_unmonitored(self, module, report):
        server = GistServer(module)
        campaign = server.handle_failure_report("bug", report)
        assert route_blob(server, wire.encode_failure_report(report)) is None
        assert campaign.unmonitored_reports == 1

    def test_ack_without_campaign_is_dropped(self, module):
        server = GistServer(module)
        ack = wire.encode_patch_ack(2, 1, "0" * 16)
        assert route_blob(server, ack) is None
        assert server.campaign is None

    def test_ack_with_campaign_is_noted(self, module, report):
        server = GistServer(module)
        campaign = server.handle_failure_report("bug", report)
        campaign.begin_iteration()
        ack = wire.encode_patch_ack(2, campaign.epoch, "0" * 16)
        assert route_blob(server, ack) is None
        assert campaign.acked_endpoints == {2}

    def test_run_without_campaign_is_dropped(self, module):
        server = GistServer(module)
        assert route_blob(server, run_blob(0, 1)) is None
        assert server.campaign is None
        assert server.ingests_applied == 0

    def test_applied_run_is_returned(self, module, report):
        server = GistServer(module)
        campaign = server.handle_failure_report("bug", report)
        campaign.begin_iteration()
        routed = route_blob(server, run_blob(0, campaign.epoch, report))
        assert isinstance(routed, MonitoredRun)
        assert routed.failed and routed.failure == report
        assert server.ingests_applied == campaign.iteration_ingests == 1

    def test_stale_and_duplicate_runs_return_nothing(self, module, report):
        server = GistServer(module)
        campaign = server.handle_failure_report("bug", report)
        campaign.begin_iteration()
        blob = run_blob(0, campaign.epoch)
        assert route_blob(server, blob) is not None
        assert route_blob(server, blob) is None
        assert campaign.duplicate_runs_ignored == 1
        assert route_blob(server, run_blob(1, campaign.epoch + 1)) is None
        assert campaign.stale_runs_discarded == 1
        assert server.ingests_applied == campaign.iteration_ingests == 1


class TestIterationSatisfied:
    def test_counts_runs_not_cohort_weights(self, module, report):
        assert (MIN_FAILING_PER_ITERATION,
                MIN_SUCCESSFUL_PER_ITERATION) == (1, 3)
        server = GistServer(module)
        campaign = server.handle_failure_report("bug", report)
        campaign.begin_iteration()
        epoch = campaign.epoch
        route_blob(server, run_blob(0, epoch, report))
        route_blob(server, run_blob(1, epoch, cohort=50))
        # Fifty clients' worth of successes, but one successful run.
        assert campaign.iterations == []
        assert not campaign.iteration_satisfied
        route_blob(server, run_blob(2, epoch))
        assert not campaign.iteration_satisfied
        route_blob(server, run_blob(3, epoch))
        assert campaign.iteration_satisfied
        assert (campaign.iteration_recurrences,
                campaign.iteration_successes) == (1, 3)

    def test_a_new_iteration_starts_unsatisfied(self, module, report):
        server = GistServer(module)
        campaign = server.handle_failure_report("bug", report)
        campaign.begin_iteration()
        for run_id in range(4):
            route_blob(server, run_blob(
                run_id, campaign.epoch, report if run_id == 0 else None))
        assert campaign.iteration_satisfied
        campaign.close_iteration(lambda sketch: False)
        campaign.begin_iteration()
        assert not campaign.iteration_satisfied
        assert campaign.iteration_ingests == 0


def journaled_campaign(module, report, path, sigma=2):
    """A journaled campaign with one satisfied iteration open."""
    server = GistServer(module)
    server.journal = CampaignJournal(path, fresh=True)
    campaign = server.handle_failure_report("bug", report, sigma)
    campaign.begin_iteration()
    for run_id in range(4):
        route_blob(server, run_blob(
            run_id, campaign.epoch, report if run_id == 0 else None))
    return server, campaign


def closed_records(module, report, tmp_path, stop_when, sigma=2,
                   max_iterations=None):
    path = tmp_path / "j.wal"
    server, campaign = journaled_campaign(module, report, path, sigma)
    assert campaign.iteration_open
    outcome = campaign.close_iteration(stop_when, max_iterations)
    assert not campaign.iteration_open
    server.journal.close()
    return outcome, [rec_type for rec_type, _ in iter_records(path)]


OPENED = [REC_CAMPAIGN_START, REC_BEGIN_ITERATION] + [REC_INGEST] * 4


class TestCloseIteration:
    def test_found_finishes_without_growing(self, module, report,
                                            tmp_path):
        (result, found, over), records = closed_records(
            module, report, tmp_path, stop_when=None)
        assert result.sketch is not None
        assert (found, over) == (True, True)
        assert records == OPENED + [REC_FINISH_ITERATION]

    def test_exhausted_finishes_without_growing(self, module, report,
                                                tmp_path):
        (_, found, over), records = closed_records(
            module, report, tmp_path, stop_when=lambda sketch: False,
            sigma=10_000)
        assert (found, over) == (False, True)
        assert records == OPENED + [REC_FINISH_ITERATION]

    def test_the_cap_finishes_without_growing(self, module, report,
                                              tmp_path):
        (result, found, over), records = closed_records(
            module, report, tmp_path, stop_when=lambda sketch: False,
            max_iterations=1)
        assert result.sketch is not None
        assert (found, over) == (False, True)
        assert records == OPENED + [REC_FINISH_ITERATION]

    def test_below_the_cap_finishes_then_grows(self, module, report,
                                               tmp_path):
        (_, found, over), records = closed_records(
            module, report, tmp_path, stop_when=lambda sketch: False,
            max_iterations=2)
        assert (found, over) == (False, False)
        assert records == OPENED + [REC_FINISH_ITERATION, REC_GROW]

    def test_otherwise_finishes_then_grows(self, module, report, tmp_path):
        (result, found, over), records = closed_records(
            module, report, tmp_path, stop_when=lambda sketch: False)
        assert result.sketch is not None
        assert (found, over) == (False, False)
        assert records == OPENED + [REC_FINISH_ITERATION, REC_GROW]


class TestRecoveredIteration:
    def test_cut_inside_an_iteration_recovers_it_open(self, module, report,
                                                      tmp_path):
        path = tmp_path / "j.wal"
        server, campaign = journaled_campaign(module, report, path)
        server.journal.close()  # the server dies mid-iteration
        recovered = recover_server(path, module).server.campaign
        assert recovered.iteration_open
        assert recovered.iteration_satisfied
        assert (recovered.iteration_recurrences,
                recovered.iteration_successes,
                recovered.iteration_ingests) == (1, 3, 4)

    def test_cut_after_a_close_recovers_it_closed(self, module, report,
                                                  tmp_path):
        path = tmp_path / "j.wal"
        server, campaign = journaled_campaign(module, report, path)
        campaign.close_iteration(lambda sketch: False)
        server.journal.close()
        recovered = recover_server(path, module).server.campaign
        assert not recovered.iteration_open
        assert len(recovered.iterations) == 1
