"""Campaign traffic under a heavy fault plan: the golden reference.

``tests/golden/traffic.json`` pins what a campaign sends and counts under
one plan, :data:`PLAN` (drops, corruption, duplicates, reorders,
stragglers, a client crash per iteration, churn and delayed acks): every
:class:`~repro.core.cooperative.CampaignStats` count, the per-iteration
run counts, the whole fleet report (the journal's file path aside), the
overhead floats and the SHA-256 of the rendered sketch.

The rows are four bugs solo under the plan, under the plan with a
journaled server killed every 3 ingests, and under the plan on three
thread workers, plus one three-bug control plane at 2 shards and cohort
50 with a journaled server killed every 4 ingests.  Between them every
fleet-report counter is non-zero somewhere.

Running this module as a script prints the fixture from live campaigns;
redirect it into ``tests/golden/traffic.json`` to re-record after an
intended behaviour change::

    PYTHONPATH=src python tests/fleet/test_traffic.py \\
        > tests/golden/traffic.json
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.control import CampaignSpec, ControlPlane
from repro.core.cooperative import CooperativeDeployment
from repro.core.render import render_sketch
from repro.corpus import get_bug
from repro.fleet import parse_fault_plan

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "traffic.json"

PLAN = ("drop=0.05,corrupt=0.05,duplicate=0.1,reorder=0.1,straggle=0.2,"
        "crashes=1,churn=0.1,ack_delay=0.3,seed=7")
BUGS = ("pbzip2-1", "curl-965", "memcached-127", "apache-21287")
PLANE_BUGS = ("pbzip2-1", "curl-965", "memcached-127")

#: Solo variants: extra fault-plan keys, journaling, and thread workers.
VARIANTS = {
    "P": {"plan": "", "journal": False, "fleet_workers": 1},
    "P+crash3": {"plan": ",server_crash_every=3", "journal": True,
                 "fleet_workers": 1},
    "P+threads3": {"plan": "", "journal": False, "fleet_workers": 3},
}
PLANE = {"shards": 2, "cohort_size": 50, "plan": ",server_crash_every=4",
         "journal": True}
SETTINGS = {"plan": PLAN, "endpoints": 4, "max_iterations": 6,
            "stop_when": "sketch_has_root", "variants": VARIANTS,
            "plane": PLANE}

#: Overhead floats are means of float sums; compared to a relative 1e-12.
FLOATS = ("avg_overhead_percent", "max_overhead_percent")


def traffic_row(stats):
    """One campaign's pinned traffic: counts, fleet report, sketch."""
    fleet = json.loads(json.dumps(stats.fleet))  # plain, JSON-typed copy
    fleet.get("journal", {}).pop("path", None)
    return {
        "found": stats.found,
        "iterations": stats.iterations,
        "failure_recurrences": stats.failure_recurrences,
        "total_runs": stats.total_runs,
        "monitored_runs": stats.monitored_runs,
        "bootstrap_runs": stats.bootstrap_runs,
        "peak_tracked_bytes": stats.peak_tracked_bytes,
        "iteration_failing_runs": [r.failing_runs
                                   for r in stats.iteration_results],
        "iteration_successful_runs": [r.successful_runs
                                      for r in stats.iteration_results],
        "avg_overhead_percent": stats.avg_overhead_percent,
        "max_overhead_percent": stats.max_overhead_percent,
        "fleet": fleet,
        "sketch_sha256": (
            hashlib.sha256(render_sketch(stats.sketch).encode()).hexdigest()
            if stats.sketch is not None else None),
    }


def solo_campaign(bug_id, variant):
    """``(row, applied ingests)`` of one solo campaign under ``variant``."""
    options = VARIANTS[variant]
    spec = get_bug(bug_id)
    with tempfile.TemporaryDirectory() as jdir:
        deployment = CooperativeDeployment(
            spec.module(), spec.workload_factory,
            endpoints=SETTINGS["endpoints"], bug=spec.bug_id,
            fleet_workers=options["fleet_workers"],
            fault_plan=parse_fault_plan(PLAN + options["plan"]),
            journal_dir=jdir if options["journal"] else None)
        stats = deployment.run_campaign(
            stop_when=spec.sketch_has_root,
            max_iterations=SETTINGS["max_iterations"])
        return traffic_row(stats), deployment.server.ingests_applied


def plane_campaigns():
    """``{bug: (row, applied ingests)}`` for the control-plane rows."""
    specs = []
    for bug_id in PLANE_BUGS:
        spec = get_bug(bug_id)
        specs.append(CampaignSpec(bug=spec.bug_id, module=spec.module(),
                                  workload_factory=spec.workload_factory,
                                  stop_when=spec.sketch_has_root))
    with tempfile.TemporaryDirectory() as jdir:
        plane = ControlPlane(
            specs, shards=PLANE["shards"], endpoints=SETTINGS["endpoints"],
            cohort_size=PLANE["cohort_size"],
            fault_plan=parse_fault_plan(PLAN + PLANE["plan"]),
            journal_dir=jdir, max_iterations=SETTINGS["max_iterations"])
        result = plane.run()
        return {bug_id: (traffic_row(result.stats[bug_id]),
                         plane.deployments[bug_id].server.ingests_applied)
                for bug_id in PLANE_BUGS}


SOLO_ROWS = [f"{bug_id}/{variant}" for bug_id in BUGS
             for variant in VARIANTS]
PLANE_ROWS = [f"plane/{bug_id}" for bug_id in PLANE_BUGS]


def record() -> dict:
    rows = {}
    for name in SOLO_ROWS:
        rows[name] = solo_campaign(*name.split("/"))[0]
    for bug_id, (row, _) in plane_campaigns().items():
        rows[f"plane/{bug_id}"] = row
    return {"settings": SETTINGS, "rows": rows}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def plane_rows():
    return plane_campaigns()


def assert_traffic(row, ingests, expected):
    """A live row reproduces its fixture row, and every monitored run it
    counted is one the server applied."""
    assert row["monitored_runs"] == ingests
    row, expected = dict(row), dict(expected)
    for name in FLOATS:
        assert row.pop(name) == pytest.approx(expected.pop(name),
                                              rel=1e-12, abs=0), name
    assert row == expected


def test_golden_covers_every_row(golden):
    assert golden["settings"] == json.loads(json.dumps(SETTINGS))
    assert sorted(golden["rows"]) == sorted(SOLO_ROWS + PLANE_ROWS)


@pytest.mark.parametrize("name", SOLO_ROWS)
def test_solo_traffic_matches_golden(name, golden):
    assert_traffic(*solo_campaign(*name.split("/")), golden["rows"][name])


@pytest.mark.parametrize("bug_id", PLANE_BUGS)
def test_plane_traffic_matches_golden(bug_id, golden, plane_rows):
    assert_traffic(*plane_rows[bug_id], golden["rows"][f"plane/{bug_id}"])


@pytest.mark.parametrize("bug_id", BUGS)
def test_server_crash_is_invisible_in_the_fleet_report(bug_id, golden):
    """A server killed and recovered from its journal carries the counts
    of rejected traffic, which the journal does not record: only the
    crash count, the journal and the plan's text tell it from its twin."""
    def without_crashes(row):
        fleet = {counter: value for counter, value in row["fleet"].items()
                 if counter not in ("server_crashes", "journal",
                                    "fault_plan")}
        return dict(row, fleet=fleet)

    crashed = golden["rows"][f"{bug_id}/P+crash3"]
    assert crashed["fleet"]["server_crashes"] > 0
    assert without_crashes(crashed) == \
        without_crashes(golden["rows"][f"{bug_id}/P"])


@pytest.mark.parametrize("bug_id", BUGS)
def test_fleet_workers_are_invisible_in_traffic(bug_id, golden):
    """Three thread workers consume the run stream one worker does, so
    the campaign sends and counts the same traffic."""
    assert golden["rows"][f"{bug_id}/P+threads3"] == \
        golden["rows"][f"{bug_id}/P"]


def test_every_fleet_counter_fires_somewhere(golden):
    """The plan exercises every counter the fleet report carries, so a
    counter that stops counting shows up as a fixture change."""
    rows = list(golden["rows"].values())
    for counter, value in rows[0]["fleet"].items():
        if isinstance(value, int):
            assert any(row["fleet"][counter] for row in rows), counter


if __name__ == "__main__":
    print(json.dumps(record(), indent=2, sort_keys=True))
