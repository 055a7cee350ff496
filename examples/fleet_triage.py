"""Fleet triage: clustering, prioritizing, diagnosing, and anonymizing.

A larger deployment scenario stitching the extensions together:

1. a fleet of endpoints runs two *different* buggy programs;
2. raw failure reports stream into a WER-style clusterer (§7), which
   buckets them by failure site and ranks buckets by hit count;
3. the top bucket gets a Gist diagnosis campaign;
4. the trap log that would leave user endpoints is anonymized with the
   bucket policy (§6) — and the sketch still diagnoses the bug, because
   bucketing preserves the zero/sign structure predictors rely on.

Run:  python examples/fleet_triage.py
"""

from repro.core import (
    Anonymizer,
    CooperativeDeployment,
    FailureClusterer,
    GistClient,
    ValuePolicy,
    Workload,
    constant_factory,
    information_shipped,
    render_sketch,
)
from repro.corpus import get_bug


def main() -> None:
    specs = [get_bug("transmission-1818"), get_bug("sqlite-1672")]
    clusterer = FailureClusterer()

    # Phase 1: the fleet runs; failures stream into the clusterer.
    print("phase 1: collecting failure reports from the fleet...")
    per_bug = {}
    for spec in specs:
        client = GistClient(spec.module())
        for i in range(60):
            out = client.run(spec.workload_factory(i)).outcome
            if out.failed:
                bucket = clusterer.add(out.failure)
                per_bug.setdefault(spec.bug_id, bucket)
    print(clusterer.summary())

    # Phase 2: triage — diagnose the hottest bucket first.
    top = clusterer.next_to_diagnose()
    target = next(spec for spec in specs
                  if per_bug.get(spec.bug_id)
                  and per_bug[spec.bug_id].key == top.key)
    print(f"\nphase 2: diagnosing the hottest bucket {top.key} "
          f"({top.count} hits) -> {target.bug_id}")
    deployment = CooperativeDeployment(
        target.module(), target.workload_factory, endpoints=4,
        bug=target.bug_id)
    stats = deployment.run_campaign(stop_when=target.sketch_has_root,
                                    max_iterations=6)
    assert stats.sketch is not None
    print(render_sketch(stats.sketch))

    # Phase 3: what actually left the endpoints, privacy-wise.
    print("\nphase 3: privacy accounting for one monitored run")
    anonymizer = Anonymizer(ValuePolicy.BUCKET)
    client = GistClient(target.module())
    # Re-run one monitored workload to inspect its outbound payload.
    campaign = deployment.server.campaign
    campaign.begin_iteration()
    patch = campaign.make_patches(1)[0]
    res = client.run(target.workload_factory(999), patch=patch)
    run = res.monitored
    raw_bits = information_shipped(run)
    shipped = anonymizer.anonymize_run(run)
    print(f"raw payload        : {raw_bits} bits of value data")
    print(f"bucketed payload   : {information_shipped(shipped)} bits")
    print("zero-ness preserved:",
          all((t.value == 0) == (o.value == 0)
              for t, o in zip(shipped.traps, run.traps)))


if __name__ == "__main__":
    main()
