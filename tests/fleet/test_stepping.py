"""Stepping a campaign in budget slices changes nothing, fault plans
included.

A :class:`~repro.core.cooperative.CooperativeDeployment` aggregates batch
results in run-id order and rewinds the runs after the one where it
stops consuming, so the runs a campaign consumes do not depend on how
its budget is sliced.  Here campaigns step under the traffic fixture's
fault plan (``tests/fleet/test_traffic.py``) in several budget
sequences, at one and three thread workers, with and without a journaled
server killed every 3 ingests.  Each must reproduce the unbudgeted
campaign's traffic row — every count, the whole fleet report and the
sketch — and account for every run its steps consumed.  A bootstrap that
never sees a failure gives up after the same runs, sliced or not.
"""

import functools
import itertools
import tempfile

import pytest

from repro.core import CooperativeDeployment, Workload, constant_factory
from repro.corpus import get_bug
from repro.fleet import parse_fault_plan
from repro.lang import compile_source

from .test_traffic import PLAN, SETTINGS, traffic_row

BUGS = ("curl-965", "apache-21287", "pbzip2-1")
#: Budget sequences, each cycled until the campaign is done.
BUDGETS = ((1,), (2, 5), (7, 1, 3))
SLICED = pytest.mark.parametrize("budgets", BUDGETS,
                                 ids=lambda b: "-".join(map(str, b)))
CRASH = ",server_crash_every=3"


def step_through(deployment, budgets):
    """Step a started deployment with ``budgets`` in turn until it is
    done, then close it; returns the runs its steps consumed."""
    consumed = 0
    with deployment:
        for budget in itertools.cycle(budgets):
            if deployment.done:
                return consumed
            ran = deployment.step(budget)
            assert 0 < ran <= budget
            consumed += ran


def campaign(bug_id, fleet_workers, crash, budgets=None):
    """``(traffic row, runs consumed)`` of one campaign under the plan:
    stepped with ``budgets`` in turn, or through ``run_campaign`` when
    ``budgets`` is None (runs consumed is then None)."""
    spec = get_bug(bug_id)
    with tempfile.TemporaryDirectory() as jdir:
        deployment = CooperativeDeployment(
            spec.module(), spec.workload_factory,
            endpoints=SETTINGS["endpoints"], bug=spec.bug_id,
            fleet_workers=fleet_workers,
            fault_plan=parse_fault_plan(PLAN + (CRASH if crash else "")),
            journal_dir=jdir if crash else None)
        options = {"stop_when": spec.sketch_has_root,
                   "max_iterations": SETTINGS["max_iterations"]}
        if budgets is None:
            return traffic_row(deployment.run_campaign(**options)), None
        deployment.start(**options)
        consumed = step_through(deployment, budgets)
        return traffic_row(deployment.stats), consumed


@functools.lru_cache(maxsize=None)
def unbudgeted(bug_id, fleet_workers, crash):
    return campaign(bug_id, fleet_workers, crash)[0]


@SLICED
@pytest.mark.parametrize("crash", (False, True), ids=("P", "P+crash3"))
@pytest.mark.parametrize("fleet_workers", (1, 3))
@pytest.mark.parametrize("bug_id", BUGS)
def test_budget_slices_leave_traffic_unchanged(bug_id, fleet_workers,
                                               crash, budgets):
    row, consumed = campaign(bug_id, fleet_workers, crash, budgets)
    assert row == unbudgeted(bug_id, fleet_workers, crash)
    # Every consumed run either executed or churned, in both phases.
    assert consumed == row["total_runs"] + row["fleet"]["runs_lost_to_churn"]


NEVER_FAILS = """
int main(int n) {
    int s = 0;
    int i = 0;
    while (i < n) { s = s + i; i = i + 1; }
    return s;
}
"""


@SLICED
def test_a_bootstrap_that_never_lands_gives_up_alike(budgets):
    """With no failure to find, the campaign gives up after
    ``max_bootstrap_runs`` runs however its budget is sliced, and its
    total counts only the runs that executed."""
    def deployment():
        return CooperativeDeployment(
            compile_source(NEVER_FAILS),
            constant_factory(Workload(args=(20,))), endpoints=3,
            fault_plan=parse_fault_plan("churn=0.3,seed=7"))

    solo = deployment().run_campaign(max_bootstrap_runs=7)
    sliced = deployment()
    sliced.start(max_bootstrap_runs=7)
    assert step_through(sliced, budgets) == 7
    assert traffic_row(sliced.stats) == traffic_row(solo)
    assert (solo.bootstrap_runs, solo.iterations) == (7, 0)
    assert solo.total_runs == 7 - solo.fleet["runs_lost_to_churn"] < 7
