"""Execution engines must not change campaign results — only their speed.

The deployment draws run descriptors sequentially, executes each batch
through a pluggable engine (serial / threads / warm process pool), and
aggregates results in run-id order on the server thread.  For a fixed
seed, every engine must therefore produce identical ``IterationResult``
trajectories and byte-identical final sketches — including over the wire
transport with a seeded fault plan, where jobs cross a real process
boundary as encoded envelopes.

Also here: the incrementally maintained campaign ranker must equal the
recorded ranker state (``tests/golden/rankers.json``, checked against a
from-scratch rebuild when recorded) and engine lifecycle (close / context
manager / injected engines).
"""

import pytest

from repro.core import CooperativeDeployment, render_sketch
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
# Incremental ranker == recorded ranker
# ---------------------------------------------------------------------------


def campaign_of(deployment):
    campaigns = list(deployment.server.campaigns.values())
    assert len(campaigns) == 1
    return campaigns[0]


def test_incremental_ranker_equals_rebuilt():
    import json

    from tests.core.test_golden_rankers import GOLDEN, ranker_digest

    deployment, stats = run_campaign("serial", 1)
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


def test_executor_kinds_constant():
    assert EXECUTOR_KINDS == ("serial", "threads", "processes")
