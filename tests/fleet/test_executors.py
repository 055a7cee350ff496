"""Execution engines must not change campaign results — only their speed.

The deployment draws run descriptors sequentially, executes each batch
through a pluggable engine (threads / warm process pool), and
aggregates results in run-id order on the server thread.  For a fixed
seed, every engine must therefore produce identical ``IterationResult``
trajectories and byte-identical final sketches — including over the wire
transport with a seeded fault plan, where jobs cross a real process
boundary as encoded envelopes.

Below the campaigns, the engine contract itself: every engine takes the
same planned batch and returns byte-identical uplink envelopes.

Also here: the incrementally maintained campaign ranker must equal the
recorded ranker state (``tests/golden/rankers.json``, checked against a
from-scratch rebuild when recorded) and engine lifecycle (close / context
manager / injected engines).
"""

import pytest

from repro.core import CooperativeDeployment, render_sketch
from repro.core.client import GistClient
from repro.core.server import GistServer
from repro.corpus import get_bug
from repro.fleet import parse_fault_plan, wire
from repro.fleet.endpoint import RUN_OK, RunPlan
from repro.fleet.executors import (
    EXECUTOR_KINDS,
    ThreadExecutor,
    make_executor,
)
from repro.fleet.procpool import ProcessExecutor

BUG = "pbzip2-1"

#: (executor, workers) matrix every equivalence test runs over.  The
#: first, one thread worker, runs every job inline: the reference.
ENGINES = [("threads", 1), ("threads", 4), ("processes", 2)]


def run_campaign(executor: str, workers: int, fault_plan=None):
    spec = get_bug(BUG)
    deployment = CooperativeDeployment(
        spec.module(), spec.workload_factory,
        endpoints=4, bug=spec.bug_id, fleet_workers=workers,
        executor=executor, fault_plan=fault_plan)
    with deployment:
        stats = deployment.run_campaign(stop_when=spec.sketch_has_root,
                                        max_iterations=4)
    return deployment, stats


@pytest.fixture(scope="module")
def by_engine():
    return {engine: run_campaign(*engine)[1] for engine in ENGINES}


# ---------------------------------------------------------------------------
# A/B equivalence: threads x1 vs threads x4 vs processes
# ---------------------------------------------------------------------------


def test_campaign_stats_identical(by_engine):
    inline = by_engine[ENGINES[0]]
    assert inline.found
    for engine in ENGINES[1:]:
        stats = by_engine[engine]
        assert stats.found == inline.found
        assert stats.iterations == inline.iterations
        assert stats.failure_recurrences == inline.failure_recurrences
        assert stats.total_runs == inline.total_runs
        assert stats.monitored_runs == inline.monitored_runs
        assert stats.bootstrap_runs == inline.bootstrap_runs
        assert stats.avg_overhead_percent == inline.avg_overhead_percent
        assert stats.max_overhead_percent == inline.max_overhead_percent


def test_iteration_trajectory_identical(by_engine):
    def trajectory(stats):
        return [(it.iteration, it.sigma, it.failing_runs,
                 it.successful_runs, sorted(it.refinement.refined_uids()))
                for it in stats.iteration_results]

    reference = trajectory(by_engine[ENGINES[0]])
    for engine in ENGINES[1:]:
        assert trajectory(by_engine[engine]) == reference


def test_sketch_byte_identical(by_engine):
    reference = render_sketch(by_engine[ENGINES[0]].sketch)
    for engine in ENGINES[1:]:
        assert render_sketch(by_engine[engine].sketch) == reference


def test_processes_identical_under_faults():
    plan_a = parse_fault_plan("lossy:7")
    plan_b = parse_fault_plan("lossy:7")
    _, inline = run_campaign("threads", 1, fault_plan=plan_a)
    _, processes = run_campaign("processes", 2, fault_plan=plan_b)
    assert processes.found == inline.found
    assert processes.total_runs == inline.total_runs
    assert processes.failure_recurrences == inline.failure_recurrences
    assert render_sketch(processes.sketch) == render_sketch(inline.sketch)


# ---------------------------------------------------------------------------
# The engine contract: one planned batch, identical uplinks
# ---------------------------------------------------------------------------

#: pbzip2-1's run 0 fails and its run 2 passes, unpatched.
FAILING_RUN, PASSING_RUN = 0, 2
CAMPAIGN_KEY = "pbzip2-1"


@pytest.fixture(scope="module")
def planned_batch():
    """Three planned runs: an unpatched failing run (sends a failure
    report), a patched run standing for a cohort of 3 (sends a monitored
    run), and an unpatched passing run (sends nothing)."""
    spec = get_bug(BUG)
    module = spec.module()
    clients = [GistClient(module, endpoint_id=i) for i in range(3)]
    probe = GistClient(module)
    report = probe.run(spec.workload_factory(FAILING_RUN),
                       run_id=FAILING_RUN).outcome.failure
    campaign = GistServer(module).handle_failure_report(BUG, report)
    campaign.begin_iteration()
    [patch] = campaign.make_patches(1)
    plans = [RunPlan(RUN_OK),
             RunPlan(RUN_OK, patch=patch, patch_epoch=campaign.epoch,
                     cohort=3),
             RunPlan(RUN_OK)]
    run_ids = [FAILING_RUN, FAILING_RUN + 1, PASSING_RUN]
    return [(client, plan, spec.workload_factory(run_id), run_id)
            for client, plan, run_id in zip(clients, plans, run_ids)]


def test_every_engine_returns_identical_uplinks(planned_batch):
    engines = [ThreadExecutor(1), ThreadExecutor(2), ProcessExecutor(2)]
    uplinks = []
    for engine in engines:
        with engine:
            uplinks.append(engine.run(planned_batch, CAMPAIGN_KEY))
    reference = uplinks[0]
    assert [u[0] if u else None for u in reference] == \
        [wire.MSG_FAILURE_REPORT, wire.MSG_MONITORED_RUN, None]
    monitored = wire.decode_message(reference[1][1])
    assert monitored.campaign == CAMPAIGN_KEY
    assert monitored.epoch == planned_batch[1][1].patch_epoch
    assert monitored.payload.cohort == 3
    for engine, result in zip(engines[1:], uplinks[1:]):
        assert result == reference, (engine.kind, engine.jobs)


# ---------------------------------------------------------------------------
# Incremental ranker == recorded ranker
# ---------------------------------------------------------------------------


def campaign_of(deployment):
    campaigns = list(deployment.server.campaigns.values())
    assert len(campaigns) == 1
    return campaigns[0]


def test_incremental_ranker_equals_rebuilt():
    import json

    from tests.core.test_golden_rankers import GOLDEN, ranker_digest

    deployment, stats = run_campaign("threads", 1)
    campaign = campaign_of(deployment)
    assert deployment.server.ingests_applied > 0
    # The fixture's pbzip2-1 campaign differs only in allowing six
    # iterations instead of four: one that converges stops at the same one.
    assert stats.found
    expected = json.loads(GOLDEN.read_text())["bugs"][BUG]["exact"]
    assert ranker_digest(campaign.ranker()) == expected


def test_ranker_carries_over_across_iterations():
    spec = get_bug(BUG)
    with CooperativeDeployment(
            spec.module(), spec.workload_factory,
            endpoints=4, bug=spec.bug_id) as deployment:
        # Never accept the sketch: AsT keeps doubling sigma, so the
        # campaign spans several iterations.
        stats = deployment.run_campaign(stop_when=(lambda sketch: False),
                                        max_iterations=3)
    campaign = campaign_of(deployment)
    assert stats.iterations > 1
    # One campaign-lifetime ranker: its totals cover *every* ingested run,
    # not just the final iteration's.
    ranker = campaign.ranker()
    ingested = deployment.server.ingests_applied
    assert ranker.total_failing + ranker.total_successful == ingested
    last_iteration = stats.iteration_results[-1]
    assert ingested > \
        last_iteration.failing_runs + last_iteration.successful_runs


# ---------------------------------------------------------------------------
# Engine lifecycle
# ---------------------------------------------------------------------------


def test_make_executor_kinds():
    assert make_executor("threads", 2).kind == "threads"
    assert make_executor("processes", 2).kind == "processes"
    for retired in ("fibers", "serial"):
        with pytest.raises(ValueError):
            make_executor(retired, 2)
    for bad in (ThreadExecutor, ProcessExecutor):
        with pytest.raises(ValueError):
            bad(0)


def test_deployment_rejects_unknown_executor():
    spec = get_bug(BUG)
    with pytest.raises(ValueError):
        CooperativeDeployment(spec.module(), spec.workload_factory,
                              bug=spec.bug_id, executor="fibers")


def test_engine_context_manager_lifecycle(planned_batch):
    inline = ThreadExecutor(1)
    reference = inline.run(planned_batch, None)
    assert inline.live_pool is None  # one worker runs inline
    with ThreadExecutor(2) as engine:
        assert engine.live_pool is None  # lazy: nothing spawned yet
        assert engine.run(planned_batch, None) == reference
        assert engine.live_pool is not None
    assert engine.live_pool is None
    engine.close()  # idempotent


def test_deployment_closes_owned_engine():
    spec = get_bug(BUG)
    with CooperativeDeployment(spec.module(), spec.workload_factory,
                               endpoints=2, bug=spec.bug_id,
                               executor="processes",
                               fleet_workers=2) as deployment:
        failure, runs = deployment.wait_for_failure(max_runs=50)
        assert failure is not None
        assert deployment._pool is not None
    assert deployment._pool is None  # closed on exit


def test_injected_engine_survives_deployment_close():
    spec = get_bug(BUG)
    with ProcessExecutor(2) as engine:
        results = []
        for _ in range(2):  # one warm pool serves several campaigns
            with CooperativeDeployment(
                    spec.module(), spec.workload_factory,
                    endpoints=4, bug=spec.bug_id,
                    fleet_workers=2, engine=engine) as deployment:
                results.append(deployment.run_campaign(
                    stop_when=spec.sketch_has_root, max_iterations=4))
            assert engine.live_pool is not None  # caller owns the engine
        assert render_sketch(results[0].sketch) == \
            render_sketch(results[1].sketch)
    assert engine.live_pool is None


def test_executor_kinds_constant():
    assert EXECUTOR_KINDS == ("threads", "processes")
