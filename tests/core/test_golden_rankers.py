"""Recorded predictor-ranker state of every corpus campaign.

``tests/golden/rankers.json`` holds, for every corpus bug at the settings
of ``tests/golden/campaigns.json``, the content digest of the campaign's
final ranker snapshot::

    wire.body_digest(wire.ranker_state_to_body(campaign.ranker().state()))

once with exact statistics and once with streaming statistics.  The exact
rows were recorded while the server still kept a per-ingest predictor log,
and each was checked at record time against a from-scratch replay of that
log; the rows now stand in for the replay.  Both recordings, under
``PYTHONHASHSEED`` 0 and 4242, were byte-identical.

Running this module prints the fixture from live campaigns::

    PYTHONPATH=src python -m tests.core.test_golden_rankers \\
        > tests/golden/rankers.json
"""

import json
from pathlib import Path

import pytest

from repro.core.cooperative import CooperativeDeployment
from repro.corpus import all_bug_ids, get_bug
from repro.fleet import wire
from tests.fleet.test_campaign import GOLDEN_SETTINGS as CAMPAIGN_SETTINGS

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "rankers.json"
MODES = ("exact", "streaming")
SETTINGS = dict(CAMPAIGN_SETTINGS, stats=list(MODES))


def ranker_campaign(bug_id, mode):
    """One fault-free campaign at the fixture's settings; returns its
    (only) :class:`~repro.core.server.DiagnosisCampaign`."""
    spec = get_bug(bug_id)
    with CooperativeDeployment(
            spec.module(), spec.workload_factory,
            endpoints=SETTINGS["endpoints"], bug=spec.bug_id,
            detectors=spec.detectors, stats=mode) as deployment:
        deployment.run_campaign(stop_when=spec.sketch_has_root,
                                max_iterations=SETTINGS["max_iterations"])
    (campaign,) = deployment.server.campaigns.values()
    return campaign


def ranker_digest(ranker) -> str:
    return wire.body_digest(wire.ranker_state_to_body(ranker.state()))


def record() -> dict:
    bugs = {}
    for bug_id in all_bug_ids(include_extra=True):
        row = {}
        for mode in MODES:
            row[mode] = ranker_digest(ranker_campaign(bug_id, mode).ranker())
        bugs[bug_id] = row
    return {"settings": SETTINGS, "bugs": bugs}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_corpus(golden):
    assert golden["settings"] == SETTINGS
    assert sorted(golden["bugs"]) == all_bug_ids(include_extra=True)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bug_id", all_bug_ids(include_extra=True))
def test_ranker_state_matches_golden(bug_id, mode, golden):
    campaign = ranker_campaign(bug_id, mode)
    assert ranker_digest(campaign.ranker()) == golden["bugs"][bug_id][mode]


if __name__ == "__main__":
    print(json.dumps(record(), indent=2, sort_keys=True))
