"""Execution engines must not change campaign results — only their speed.

The deployment draws run descriptors sequentially, executes each batch
through a pluggable engine (serial / threads / warm process pool), and
aggregates results in run-id order on the server thread.  For a fixed
seed, every engine must therefore produce identical ``IterationResult``
trajectories and byte-identical final sketches — including over the wire
transport with a seeded fault plan, where jobs cross a real process
boundary as encoded envelopes.

Also here: the incrementally maintained campaign ranker must equal a
from-scratch rebuild, engine lifecycle (close / context manager /
injected engines), and the shared context's predictor-set cache.
"""

import dataclasses

import pytest

from repro.analysis.context import AnalysisContext
from repro.core import CooperativeDeployment, render_sketch
from repro.core.server import GistServer
from repro.corpus import get_bug
from repro.fleet import parse_fault_plan
from repro.fleet.executors import (
    EXECUTOR_KINDS,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)
from repro.fleet.procpool import ProcessExecutor

BUG = "pbzip2-1"

#: (executor, workers) matrix every equivalence test runs over.
ENGINES = [("serial", 1), ("threads", 4), ("processes", 2)]


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
    return {executor: run_campaign(executor, workers)[1]
            for executor, workers in ENGINES}


# ---------------------------------------------------------------------------
# A/B equivalence: serial vs threads vs processes
# ---------------------------------------------------------------------------


def test_campaign_stats_identical(by_engine):
    serial = by_engine["serial"]
    assert serial.found
    for executor, _ in ENGINES[1:]:
        stats = by_engine[executor]
        assert stats.found == serial.found
        assert stats.iterations == serial.iterations
        assert stats.failure_recurrences == serial.failure_recurrences
        assert stats.total_runs == serial.total_runs
        assert stats.monitored_runs == serial.monitored_runs
        assert stats.bootstrap_runs == serial.bootstrap_runs
        assert stats.avg_overhead_percent == serial.avg_overhead_percent
        assert stats.max_overhead_percent == serial.max_overhead_percent


def test_iteration_trajectory_identical(by_engine):
    def trajectory(stats):
        return [(it.iteration, it.sigma, it.failing_runs,
                 it.successful_runs, sorted(it.refinement.refined_uids()))
                for it in stats.iteration_results]

    reference = trajectory(by_engine["serial"])
    for executor, _ in ENGINES[1:]:
        assert trajectory(by_engine[executor]) == reference


def test_sketch_byte_identical(by_engine):
    reference = render_sketch(by_engine["serial"].sketch)
    for executor, _ in ENGINES[1:]:
        assert render_sketch(by_engine[executor].sketch) == reference


def test_processes_identical_under_faults():
    plan_a = parse_fault_plan("lossy:7")
    plan_b = parse_fault_plan("lossy:7")
    _, serial = run_campaign("serial", 1, fault_plan=plan_a)
    _, processes = run_campaign("processes", 2, fault_plan=plan_b)
    assert processes.found == serial.found
    assert processes.total_runs == serial.total_runs
    assert processes.failure_recurrences == serial.failure_recurrences
    assert render_sketch(processes.sketch) == render_sketch(serial.sketch)


# ---------------------------------------------------------------------------
# Incremental ranker == rebuilt-from-scratch ranker
# ---------------------------------------------------------------------------


def campaign_of(deployment):
    campaigns = list(deployment.server.campaigns.values())
    assert len(campaigns) == 1
    return campaigns[0]


def test_incremental_ranker_equals_rebuilt():
    deployment, stats = run_campaign("serial", 1)
    campaign = campaign_of(deployment)
    assert campaign._predictor_log  # every ingested run is logged
    rebuilt = campaign.rebuild_ranker()
    assert campaign.ranker().state() == rebuilt.state()
    incremental = [(s.predictor, s.f_measure, s.precision, s.recall)
                   for s in campaign.ranker().ranked()]
    reference = [(s.predictor, s.f_measure, s.precision, s.recall)
                 for s in rebuilt.ranked()]
    assert incremental == reference


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
    assert ranker.total_failing + ranker.total_successful == \
        len(campaign._predictor_log)
    last_iteration = stats.iteration_results[-1]
    assert len(campaign._predictor_log) > \
        last_iteration.failing_runs + last_iteration.successful_runs
    assert ranker.state() == campaign.rebuild_ranker().state()


# ---------------------------------------------------------------------------
# Engine lifecycle
# ---------------------------------------------------------------------------


def test_make_executor_kinds():
    assert make_executor("serial", 1).kind == "serial"
    assert make_executor("threads", 2).kind == "threads"
    assert make_executor("processes", 2).kind == "processes"
    with pytest.raises(ValueError):
        make_executor("fibers", 2)
    for bad in (ThreadExecutor, ProcessExecutor):
        with pytest.raises(ValueError):
            bad(0)


def test_deployment_rejects_unknown_executor():
    spec = get_bug(BUG)
    with pytest.raises(ValueError):
        CooperativeDeployment(spec.module(), spec.workload_factory,
                              bug=spec.bug_id, executor="fibers")


def test_engine_context_manager_lifecycle():
    with ThreadExecutor(2) as engine:
        assert engine.live_pool is None  # lazy: nothing spawned yet
        assert engine.map(lambda x: x * x, [1, 2, 3]) == [1, 4, 9]
        assert engine.live_pool is not None
    assert engine.live_pool is None
    engine.close()  # idempotent
    assert SerialExecutor().map(lambda x: x + 1, [1, 2]) == [2, 3]


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


# ---------------------------------------------------------------------------
# Shared-context predictor cache
# ---------------------------------------------------------------------------


def _monitored_run_without_predictors():
    """A real monitored run, stripped back to a legacy (no-predictors)
    payload, plus its campaign's failing pc and module."""
    deployment, _ = run_campaign("serial", 1)
    campaign = campaign_of(deployment)
    run = campaign._runs[-1]
    assert run.predictors is not None
    return dataclasses.replace(run, predictors=None), deployment.module


def test_predictor_cache_hit_miss_counters():
    legacy_run, module = _monitored_run_without_predictors()
    context = AnalysisContext(module)
    server = GistServer(module, context=context)
    digest = "feedface00000001"
    assert context.stats.by_kind.get("predictors") is None
    first = server.predictors_of(legacy_run, digest=digest)
    assert context.stats.by_kind["predictors"]["misses"] == 1
    second = server.predictors_of(legacy_run, digest=digest)
    assert second == first
    assert context.stats.by_kind["predictors"]["hits"] == 1
    assert context.stats.by_kind["predictors"]["misses"] == 1


def test_client_extracted_predictors_seed_the_shared_cache():
    legacy_run, module = _monitored_run_without_predictors()
    context = AnalysisContext(module)
    ingest_server = GistServer(module, context=context)
    full_run = dataclasses.replace(legacy_run)
    full_run.predictors = frozenset(
        GistServer(module).predictors_of(legacy_run))
    digest = "feedface00000002"
    # Client-extracted predictors are published under the run's digest...
    assert ingest_server.predictors_of(full_run, digest=digest) == \
        full_run.predictors
    # ...so a second server sharing the context never re-extracts the
    # same payload, even when it arrives without predictors.
    other_server = GistServer(module, context=context)
    assert other_server.predictors_of(legacy_run, digest=digest) == \
        full_run.predictors
    assert context.stats.by_kind["predictors"]["hits"] == 1
    assert context.stats.by_kind["predictors"].get("misses", 0) == 0


def test_predictor_cache_cleared_with_context():
    legacy_run, module = _monitored_run_without_predictors()
    context = AnalysisContext(module)
    server = GistServer(module, context=context)
    server.predictors_of(legacy_run, digest="feedface00000003")
    context.clear()
    assert context.stats.by_kind["predictors"]["evictions"] >= 1
    server.predictors_of(legacy_run, digest="feedface00000003")
    assert context.stats.by_kind["predictors"]["misses"] == 2


def test_executor_kinds_constant():
    assert EXECUTOR_KINDS == ("serial", "threads", "processes")
