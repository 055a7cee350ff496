"""End-to-end fleet-transport campaigns: the golden reference and chaos.

The contract the tentpole stands on: with no fault plan, every corpus
bug's wire campaign reproduces ``tests/golden/campaigns.json`` — the
campaign statistics and rendered-sketch digest recorded from the
pre-transport direct hand-off, which the wire transport matched on every
bug under two hash seeds before the direct path was retired; with the
standard lossy plan, diagnosis still converges to a root-cause sketch and
the server never crashes.

Running this module as a script prints the fixture from live fault-free
wire campaigns; redirect it into ``tests/golden/campaigns.json`` to
re-record after an intended behaviour change::

    PYTHONPATH=src python tests/fleet/test_campaign.py \\
        > tests/golden/campaigns.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.cooperative import TRANSPORTS, CooperativeDeployment
from repro.core.render import render_sketch
from repro.corpus import all_bug_ids, get_bug
from repro.fleet import ClientFaults, FaultPlan, MessageFaults

FAST_BUGS = ("transmission-1818", "apache-21285")

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "campaigns.json"
#: The campaign settings the fixture was recorded at: every bug runs with
#: its declared detectors and stops at its ``sketch_has_root`` oracle.
GOLDEN_SETTINGS = {"endpoints": 4, "max_iterations": 6,
                   "detectors": "declared", "stop_when": "sketch_has_root"}


def campaign(bug_id, fault_plan=None, fleet_workers=1, max_iterations=6,
             endpoints=4, detectors=()):
    spec = get_bug(bug_id)
    deployment = CooperativeDeployment(
        spec.module(), spec.workload_factory, endpoints=endpoints,
        bug=spec.bug_id, fleet_workers=fleet_workers, fault_plan=fault_plan,
        detectors=detectors)
    stats = deployment.run_campaign(stop_when=spec.sketch_has_root,
                                    max_iterations=max_iterations)
    return spec, stats


COMPARED = ("found", "iterations", "failure_recurrences", "total_runs",
            "monitored_runs", "bootstrap_runs", "avg_overhead_percent",
            "max_overhead_percent")


def golden_campaign(bug_id):
    """One fault-free wire campaign at the fixture's settings, as a
    fixture row (the compared statistics + the rendered sketch's SHA-256)
    and the stats it came from."""
    _, stats = campaign(bug_id,
                        max_iterations=GOLDEN_SETTINGS["max_iterations"],
                        endpoints=GOLDEN_SETTINGS["endpoints"],
                        detectors=get_bug(bug_id).detectors)
    row = {name: getattr(stats, name) for name in COMPARED}
    row["sketch_sha256"] = (
        hashlib.sha256(render_sketch(stats.sketch).encode()).hexdigest()
        if stats.sketch is not None else None)
    return row, stats


def record() -> dict:
    return {"settings": GOLDEN_SETTINGS,
            "bugs": {bug_id: golden_campaign(bug_id)[0]
                     for bug_id in all_bug_ids(include_extra=True)}}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_corpus(golden):
    assert golden["settings"] == GOLDEN_SETTINGS
    assert sorted(golden["bugs"]) == all_bug_ids(include_extra=True)


def assert_golden_campaign(bug_id, expected):
    """One fault-free wire campaign reproduces its fixture row."""
    expected = dict(expected)
    row, stats = golden_campaign(bug_id)
    # A mean of float overheads: sum() compensates rounding from Python
    # 3.12 on, which moves the last bit for some bugs.
    assert row.pop("avg_overhead_percent") == pytest.approx(
        expected.pop("avg_overhead_percent"), rel=1e-12, abs=0)
    assert row == expected
    # and the fault-free run carries clean fleet accounting
    assert stats.fleet["transport"]["dropped"] == {}
    assert stats.fleet["quarantined"] == 0


@pytest.mark.parametrize("bug_id", all_bug_ids(include_extra=True))
def test_fault_free_wire_matches_golden(bug_id, golden):
    assert_golden_campaign(bug_id, golden["bugs"][bug_id])


def test_transport_validation():
    spec = get_bug(FAST_BUGS[0])
    for transport in ("carrier-pigeon", "direct"):
        with pytest.raises(ValueError, match="transport") as err:
            CooperativeDeployment(spec.module(), spec.workload_factory,
                                  transport=transport)
        assert str(TRANSPORTS) in str(err.value)
    assert TRANSPORTS == ("wire", "socket")


@pytest.mark.parametrize("fleet_workers", (1, 3))
def test_wait_for_failure_is_the_campaign_bootstrap(fleet_workers):
    """``wait_for_failure`` and a campaign's bootstrap phase are one loop:
    under a lossy plan (whose client crash doubles this bug's bootstrap)
    they consume the same runs and land the same failure."""
    spec = get_bug(FAST_BUGS[1])

    def deployment():
        return CooperativeDeployment(
            spec.module(), spec.workload_factory, endpoints=4,
            bug=spec.bug_id, fleet_workers=fleet_workers,
            fault_plan=FaultPlan.standard_lossy(seed=1))

    with deployment() as waiting:
        report, runs = waiting.wait_for_failure()
    campaigning = deployment()
    stats = campaigning.run_campaign(max_iterations=1)
    diagnosis = campaigning.server.campaign
    assert report is not None
    assert report.identity() == diagnosis.identity
    assert runs == stats.bootstrap_runs


def test_lossy_fleet_still_converges():
    spec, stats = campaign(FAST_BUGS[0],
                           fault_plan=FaultPlan.standard_lossy(seed=1))
    assert stats.found
    assert stats.sketch is not None
    assert spec.sketch_has_root(stats.sketch)
    fleet = stats.fleet
    assert fleet["runs_lost_to_crash"] >= 1  # 1 crash per iteration
    assert fleet["transport"]["sent"]["monitored_run"] > 0


def test_duplicates_are_ignored_idempotently():
    plan = FaultPlan(seed=0, messages={
        "monitored_run": MessageFaults(duplicate=1.0)})
    _, stats = campaign(FAST_BUGS[0], fault_plan=plan)
    assert stats.found
    assert stats.fleet["duplicates_ignored"] > 0
    # duplicated ingestion must not inflate the run statistics
    _, clean = campaign(FAST_BUGS[0])
    assert stats.failure_recurrences == clean.failure_recurrences
    assert stats.monitored_runs == clean.monitored_runs


def test_corrupt_patches_quarantine_on_client_and_server_survives():
    plan = FaultPlan(seed=3, messages={
        "*": MessageFaults(corrupt=0.3)})
    _, stats = campaign(FAST_BUGS[0], fault_plan=plan, max_iterations=8)
    fleet = stats.fleet
    damaged = (fleet["quarantined"] + fleet["client_decode_failures"]
               + sum(fleet["transport"]["corrupted"].values()))
    assert damaged > 0  # the plan really fired…
    assert stats.total_runs > 0  # …and the campaign kept running


def test_crashed_clients_lose_their_patch():
    plan = FaultPlan(seed=2,
                     clients=ClientFaults(crashes_per_iteration=2))
    _, stats = campaign(FAST_BUGS[0], fault_plan=plan)
    assert stats.fleet["runs_lost_to_crash"] >= 2
    assert stats.found  # surviving endpoints carry the iteration


def test_fault_schedule_is_deterministic_across_fleet_workers():
    plan = FaultPlan.standard_lossy(seed=5)
    _, seq = campaign(FAST_BUGS[0], fault_plan=plan, fleet_workers=1)
    _, par = campaign(FAST_BUGS[0], fault_plan=plan, fleet_workers=4)
    for name in COMPARED:
        assert getattr(par, name) == getattr(seq, name), name
    assert seq.fleet["transport"]["dropped"] == \
        par.fleet["transport"]["dropped"]
    assert seq.fleet["runs_lost_to_crash"] == \
        par.fleet["runs_lost_to_crash"]


if __name__ == "__main__":
    print(json.dumps(record(), indent=2, sort_keys=True))
