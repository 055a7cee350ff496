"""Fleet-transport chaos benchmark.

Two claims the tentpole must hold, measured over the whole corpus:

1. **Golden equivalence** — with no fault plan, the wire transport's
   campaigns match the recorded pre-wire reference
   (``tests/golden/campaigns.json``: the statistics and rendered-sketch
   digest of the pre-transport direct hand-off) for every corpus bug,
   run at the fixture's recorded settings.
2. **Chaos convergence** — under the standard lossy plan (5% drop + 2%
   bit-corrupt on every message class + 1 client crash per iteration),
   every bug still reaches a root-cause sketch within ≤ 2× the fault-free
   iteration count, and the server never crashes.

Emits ``BENCH_fleet_chaos.json`` at the repo root with per-bug iteration
counts (fault-free vs faulted) and message accounting (sent, dropped,
corrupted, quarantined, crash losses).
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.core.cooperative import CooperativeDeployment
from repro.core.render import render_sketch
from repro.corpus import all_bug_ids, get_bug
from repro.fleet import FaultPlan

from _shared import bench_bug_ids, emit, shared_context

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT = REPO_ROOT / "BENCH_fleet_chaos.json"
GOLDEN = json.loads(
    (REPO_ROOT / "tests" / "golden" / "campaigns.json").read_text())

#: The benchmark's standard lossy fleet (see FaultPlan.standard_lossy).
#: Campaigns reuse the same early (epoch, run-id) keys, so the seed picks
#: one deterministic fault schedule for all bugs; this one exercises both
#: drops and corruptions inside the window real campaigns reach.
LOSSY = FaultPlan.standard_lossy(seed=3)


def _campaign(spec, fault_plan=None, endpoints=4, max_iterations=10):
    deployment = CooperativeDeployment(
        spec.module(), spec.workload_factory, endpoints=endpoints,
        bug=spec.bug_id, context=shared_context(spec.bug_id),
        fault_plan=fault_plan, detectors=spec.detectors)
    return deployment.run_campaign(stop_when=spec.sketch_has_root,
                                   max_iterations=max_iterations)


def _matches_golden(bug_id: str, stats) -> bool:
    """Does a fault-free campaign reproduce the bug's recorded row?"""
    expected = GOLDEN["bugs"][bug_id]
    for name, value in expected.items():
        if name == "sketch_sha256":
            actual = (hashlib.sha256(
                render_sketch(stats.sketch).encode()).hexdigest()
                if stats.sketch is not None else None)
        else:
            actual = getattr(stats, name)
        if name == "avg_overhead_percent":
            # A mean of float overheads: sum() compensates rounding from
            # Python 3.12 on, which moves the last bit for some bugs.
            if not math.isclose(actual, value, rel_tol=1e-12):
                return False
        elif actual != value:
            return False
    return True


def _measure_bug(bug_id: str) -> dict:
    spec = get_bug(bug_id)

    settings = GOLDEN["settings"]
    wired = _campaign(spec, endpoints=settings["endpoints"],
                      max_iterations=settings["max_iterations"])

    chaos = _campaign(spec, fault_plan=LOSSY)
    fleet = chaos.fleet or {}
    transport = fleet.get("transport", {})
    return {
        "ab_identical": _matches_golden(bug_id, wired),
        "iterations_fault_free": wired.iterations,
        "iterations_faulted": chaos.iterations,
        "found_fault_free": wired.found,
        "found_faulted": chaos.found,
        "runs_fault_free": wired.total_runs,
        "runs_faulted": chaos.total_runs,
        "messages_sent": sum(transport.get("sent", {}).values()),
        "messages_dropped": sum(transport.get("dropped", {}).values()),
        "messages_corrupted": sum(
            transport.get("corrupted", {}).values()),
        "quarantined": fleet.get("quarantined", 0),
        "stale_discarded": fleet.get("stale_discarded", 0),
        "duplicates_ignored": fleet.get("duplicates_ignored", 0),
        "runs_lost_to_crash": fleet.get("runs_lost_to_crash", 0),
        "client_decode_failures": fleet.get("client_decode_failures", 0),
        "patch_resends": fleet.get("patch_resends", 0),
    }


def _compute() -> dict:
    bugs = {bug_id: _measure_bug(bug_id) for bug_id in bench_bug_ids()}
    totals = {
        key: sum(row[key] for row in bugs.values())
        for key in ("messages_sent", "messages_dropped",
                    "messages_corrupted", "quarantined",
                    "runs_lost_to_crash", "iterations_fault_free",
                    "iterations_faulted")
    }
    totals["ab_identical_bugs"] = sum(
        row["ab_identical"] for row in bugs.values())
    totals["converged_under_chaos"] = sum(
        row["found_faulted"] for row in bugs.values())
    return {"benchmark": "fleet_chaos",
            "fault_plan": LOSSY.describe(),
            "bugs": bugs, "totals": totals}


def _render(data: dict) -> str:
    lines = ["Fleet transport under chaos "
             f"({data['fault_plan']})",
             "=" * 78,
             f"{'Bug':<18} {'ref':>4} {'iters ff/ch':>12} "
             f"{'msgs':>6} {'drop':>5} {'corr':>5} {'quar':>5} "
             f"{'crash':>6}"]
    for bug_id, row in data["bugs"].items():
        lines.append(
            f"{bug_id:<18} {'ok' if row['ab_identical'] else 'DIFF':>4} "
            f"{row['iterations_fault_free']:>5} /"
            f"{row['iterations_faulted']:>5} "
            f"{row['messages_sent']:>6} {row['messages_dropped']:>5} "
            f"{row['messages_corrupted']:>5} {row['quarantined']:>5} "
            f"{row['runs_lost_to_crash']:>6}")
    t = data["totals"]
    lines.append("-" * 78)
    lines.append(
        f"match reference: {t['ab_identical_bugs']}/{len(data['bugs'])}   "
        f"converged under chaos: "
        f"{t['converged_under_chaos']}/{len(data['bugs'])}   "
        f"dropped {t['messages_dropped']} + corrupted "
        f"{t['messages_corrupted']} of {t['messages_sent']} messages")
    return "\n".join(lines)


@pytest.mark.benchmark(group="fleet_chaos")
def test_bench_fleet_chaos(benchmark):
    data = benchmark.pedantic(_compute, rounds=1, iterations=1)
    emit("fleet_chaos", _render(data))
    OUT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")

    n = len(data["bugs"])
    # Claim 1: fault-free wire matches the recorded pre-wire reference.
    assert data["totals"]["ab_identical_bugs"] == n, data["bugs"]
    # Claim 2: every bug converges under the standard lossy plan, within
    # twice the fault-free iteration budget, and the faults really fired.
    for bug_id, row in data["bugs"].items():
        assert row["found_fault_free"], bug_id
        assert row["found_faulted"], bug_id
        assert row["iterations_faulted"] <= \
            2 * max(row["iterations_fault_free"], 1), (bug_id, row)
    assert data["totals"]["runs_lost_to_crash"] > 0
    if set(data["bugs"]) == set(all_bug_ids()):
        # Every fault class fires over the full corpus's message volume.
        assert data["totals"]["messages_dropped"] > 0
        assert data["totals"]["messages_corrupted"] > 0
    else:
        # A corpus subset may send too few messages for each independent
        # per-message fault class to fire; only require that some did.
        assert (data["totals"]["messages_dropped"]
                + data["totals"]["messages_corrupted"]) > 0
