"""Privacy policies through the real diagnosis pipeline.

Verifies the §6 claim structure: anonymized runs still diagnose — bucketed
values preserve zero-ness and cross-run determinism, so the failure-
predicting facts survive the policy.
"""

import pytest

from repro.core import (
    Anonymizer,
    GistClient,
    GistServer,
    PredictorRanker,
    ValuePolicy,
)
from repro.corpus import get_bug


@pytest.fixture(scope="module")
def campaign_runs():
    """Real monitored runs from a transmission-1818 deployment."""
    spec = get_bug("transmission-1818")
    module = spec.module()
    client = GistClient(module)
    report = None
    for i in range(200):
        out = client.run(spec.workload_factory(i)).outcome
        if out.failed:
            report = out.failure
            break
    server = GistServer(module)
    campaign = server.handle_failure_report(spec.bug_id, report,
                                            initial_sigma=4)
    campaign.begin_iteration()
    patches = campaign.make_patches(1)
    failing, successful = [], []
    for i in range(300):
        res = client.run(spec.workload_factory(500 + i), patch=patches[0])
        run = res.monitored
        if run.failed and run.failure.identity() == report.identity():
            failing.append(run)
        elif not run.failed:
            successful.append(run)
        if len(failing) >= 2 and len(successful) >= 4:
            break
    return module, failing, successful


def _top_value(module, failing, successful, anonymizer=None):
    """The top value predictor, ranked from the predictor sets the runs
    ship (anonymized first when ``anonymizer`` is given)."""
    ranker = PredictorRanker(failure_pc=failing[0].failure.pc)
    for run in failing:
        if anonymizer:
            run = anonymizer.anonymize_run(run)
        ranker.add_run(run.predictors, failed=True)
    for run in successful:
        if anonymizer:
            run = anonymizer.anonymize_run(run)
        ranker.add_run(run.predictors, failed=False)
    return ranker.best("value")


class TestAnonymizedDiagnosis:
    def test_bucket_policy_preserves_the_zero_predictor(self, campaign_runs):
        module, failing, successful = campaign_runs
        raw_top = _top_value(module, failing, successful)
        bucketed_top = _top_value(module, failing, successful,
                                  Anonymizer(ValuePolicy.BUCKET))
        # transmission's root predictor is bandwidth == 0 — zero survives
        # bucketing, so the same fact tops both rankings.
        assert raw_top.predictor.detail[1] == 0
        assert bucketed_top.predictor.detail == raw_top.predictor.detail
        assert bucketed_top.f_measure == pytest.approx(raw_top.f_measure)

    def test_hash_policy_preserves_correlation(self, campaign_runs):
        module, failing, successful = campaign_runs
        hashed_top = _top_value(module, failing, successful,
                                Anonymizer(ValuePolicy.HASH, salt=b"k"))
        # Values are scrambled, but the zero fact (distinguished) and its
        # perfect correlation survive.
        assert hashed_top.predictor.detail[1] == 0
        assert hashed_top.precision == pytest.approx(1.0)

    def test_order_patterns_untouched_by_policies(self, campaign_runs):
        module, failing, successful = campaign_runs
        anon = Anonymizer(ValuePolicy.HASH)
        for run in failing:
            raw_orders = {p for p in run.predictors if p.kind == "order"}
            anon_orders = {p for p in anon.anonymize_run(run).predictors
                           if p.kind == "order"}
            assert raw_orders and raw_orders == anon_orders

    def test_hash_policy_ships_no_raw_value(self, campaign_runs):
        """No predictor computed from a raw non-zero value leaves the
        endpoint: value predictors carry hashed values, and everything
        not derived from values carries over unchanged."""
        module, failing, successful = campaign_runs
        anon = Anonymizer(ValuePolicy.HASH, salt=b"k")
        runs = failing + successful
        assert any(t.value != 0 for run in runs for t in run.traps)
        for run in runs:
            raw = {t.value for t in run.traps if t.value != 0}
            shipped = anon.anonymize_run(run).predictors
            values = {p.detail[1] for p in shipped if p.kind == "value"}
            assert values == {anon.anonymize_value(t.value)
                              for t in run.traps}
            assert not values & raw
            assert {p for p in shipped if p.kind != "value"} == \
                {p for p in run.predictors if p.kind != "value"}
