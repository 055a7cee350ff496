"""Patch installation on one endpoint: ``FleetEndpoint.poll_patches``.

The simulated fleet and the standalone ``repro fleet client`` both install
patches through this one method, so its rules are pinned here: one patch
slot, never a downgrade to an older epoch, an ack per installed patch (a
resend is acked again), and silence about everything that is not a valid
patch.  A campaign key, given at construction, picks the endpoint's fault
sub-plan and cohort draws and never reaches the wire.
"""

from types import SimpleNamespace

from repro.control.cohort import CohortModel
from repro.fleet import parse_fault_plan, wire
from repro.fleet.endpoint import NO_PATCH, FleetEndpoint
from repro.instrument.patch import Patch
from repro.runtime.failures import FailureKind, FailureReport


def endpoint(endpoint_id=5, **kwargs):
    # The patch slot reads nothing of the client but its id.
    return FleetEndpoint(SimpleNamespace(endpoint_id=endpoint_id), None, 4,
                         **kwargs)


def patch_blob(program, epoch):
    return wire.encode_patch(Patch(program=program), epoch=epoch)


def test_installs_the_newest_patch():
    ep = endpoint()
    assert ep.installed == NO_PATCH
    acks = ep.poll_patches([patch_blob("first", 1), patch_blob("third", 3),
                            patch_blob("second", 2)])
    assert len(acks) == 2  # the reordered epoch-2 patch is not installed
    patch, epoch, _ = ep.installed
    assert (patch.program, epoch) == ("third", 3)
    # A run planned on this endpoint runs the installed patch.
    plan = ep.plan_run(9)
    assert (plan.patch.program, plan.patch_epoch) == ("third", 3)


def test_acks_are_the_canonical_patch_acks():
    ep = endpoint(endpoint_id=7)
    blob = patch_blob("p", 4)
    digest = wire.decode_message(blob).digest
    assert ep.poll_patches([blob]) == [wire.encode_patch_ack(7, 4, digest)]
    assert ep.installed[2] == digest
    assert b'"campaign"' not in ep.poll_patches([blob])[0]


def test_an_older_epoch_is_ignored_and_not_acked():
    ep = endpoint()
    assert len(ep.poll_patches([patch_blob("new", 5)])) == 1
    assert ep.poll_patches([patch_blob("old", 4)]) == []
    assert ep.installed[0].program == "new"
    # The same epoch again (a resend) is installed and acked again.
    assert len(ep.poll_patches([patch_blob("new", 5)])) == 1
    assert ep.installed[1] == 5


def test_undecodable_and_non_patch_payloads_are_ignored():
    ep = endpoint()
    report = FailureReport(kind=FailureKind.SEGFAULT, pc=3, tid=0)
    blobs = [
        b"\x00 not a message",
        patch_blob("p", 1)[:-3],                    # truncated
        wire.encode_failure_report(report),         # not a patch
        wire.encode_patch_ack(5, 1, "abc"),         # not a patch
        wire.encode_patch(Patch(program="p")),      # a patch without epoch
    ]
    assert ep.poll_patches(blobs) == []
    assert ep.decode_failures == 2
    assert ep.installed == NO_PATCH


def test_a_keyed_endpoint_runs_its_campaign_sub_plan():
    plan = parse_fault_plan("lossy:7")
    assert endpoint(key="pbzip2-1").plan is None
    assert FleetEndpoint(SimpleNamespace(endpoint_id=2), plan, 4,
                         key="pbzip2-1").plan == plan.derive("pbzip2-1")
    assert plan.derive("pbzip2-1") != plan
    assert FleetEndpoint(SimpleNamespace(endpoint_id=2), plan, 4).plan \
        is plan


def test_a_keyed_endpoint_draws_cohorts_under_its_key():
    cohorts = CohortModel(size=1000, share=0.4, seed=3)
    run_ids = (2, 6, 10, 14)
    draws = {}
    for key in ("pbzip2-1", None):
        ep = endpoint(endpoint_id=2, cohort_model=cohorts, key=key)
        draws[key] = [ep.plan_run(run_id).cohort for run_id in run_ids]
        assert draws[key] == [cohorts.multiplicity(key or "", 2, run_id)
                              for run_id in run_ids]
    assert draws["pbzip2-1"] != draws[None]
