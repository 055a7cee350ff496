"""Patch installation on one endpoint: ``FleetEndpoint.poll_patches``.

The simulated fleet and the standalone ``repro fleet client`` both install
patches through this one method, so its rules are pinned here: one patch
per campaign routing key (``None`` for untagged traffic), never a
downgrade to an older epoch, an ack per installed patch, and silence
about everything that is not a valid patch.
"""

from types import SimpleNamespace

from repro.fleet import wire
from repro.fleet.endpoint import FleetEndpoint
from repro.instrument.patch import Patch
from repro.runtime.failures import FailureKind, FailureReport


def endpoint(endpoint_id=5):
    # The patch store reads nothing of the client but its id.
    return FleetEndpoint(SimpleNamespace(endpoint_id=endpoint_id), None, 4)


def patch_blob(program, epoch, campaign=None):
    return wire.encode_patch(Patch(program=program), epoch=epoch,
                             campaign=campaign)


def test_installs_the_newest_patch_per_campaign_key():
    ep = endpoint()
    acks = ep.poll_patches([patch_blob("untagged-1", 1),
                            patch_blob("tagged-2", 2, "k"),
                            patch_blob("untagged-3", 3)])
    assert len(acks) == 3
    patch, epoch, _ = ep.patch_state(None)
    assert (patch.program, epoch) == ("untagged-3", 3)
    patch, epoch, _ = ep.patch_state("k")
    assert (patch.program, epoch) == ("tagged-2", 2)
    assert ep.patch_state("other") == (None, None, None)
    # A run planned for a key runs that key's patch.
    plan = ep.plan_run(9, campaign="k")
    assert (plan.patch.program, plan.patch_epoch) == ("tagged-2", 2)


def test_acks_are_the_canonical_patch_acks():
    ep = endpoint(endpoint_id=7)
    for key in (None, "k"):
        blob = patch_blob("p", 4, key)
        digest = wire.decode_message(blob).digest
        assert ep.poll_patches([blob]) == [
            wire.encode_patch_ack(7, 4, digest, campaign=key)]
        assert ep.patch_state(key)[2] == digest


def test_an_older_epoch_is_ignored_and_not_acked():
    ep = endpoint()
    assert len(ep.poll_patches([patch_blob("new", 5)])) == 1
    assert ep.poll_patches([patch_blob("old", 4)]) == []
    assert ep.patch_state(None)[0].program == "new"
    # The same epoch again (a resend) is installed and acked again.
    assert len(ep.poll_patches([patch_blob("new", 5)])) == 1
    # Keys are independent: another key's store starts empty.
    assert len(ep.poll_patches([patch_blob("old", 4, "k")])) == 1


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
    assert ep.patches == {}
