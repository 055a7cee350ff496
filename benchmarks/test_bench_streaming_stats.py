"""Bounded-memory streaming statistics benchmark.

Three claims about ``--stats streaming``, measured explicitly:

1. **Bounded state** — on a synthetic 100k-modeled-run stream whose
   distinct-predictor population keeps growing (the million-run campaign
   shape: value predictors with churning operands), the exact ranker's
   tracked state grows O(distinct) while the sketch ranker's stays O(K):
   flat across a 10x stream extension and ≥ 10x smaller at the end — yet
   both agree on the top-ranked predictor.
2. **Payload reduction** — with evidence slicing, clients prune monitored
   runs to the patch's slice before transmission.  The unsliced side is
   ``streaming_unsliced_bytes.json``: per bench bug, the bytes of the
   ``monitored_run`` envelopes the server received in an exact-mode
   campaign back when exact mode shipped every decoded uid.  Across the
   bench bugs the aggregate reduction ``unsliced / sliced`` over the live
   streaming campaigns must clear 2x, and every streaming diagnosis must
   render the byte-identical sketch of its exact twin (memory mode changes
   the memory story, not the answer).
3. **Merge throughput** — shard-state folding via ``PredictorRanker.merge``
   (one C-speed ``Counter.update`` per outcome) must beat rebuilding the
   global ranker by replaying every run through ``add_run`` by ≥ 3x.

Emits ``BENCH_streaming_stats.json`` at the repo root.  All bars are
deliberately conservative (measured ratios land far above them) so the
guard trips on regressions, not runner noise.
"""

import json
import random
from pathlib import Path
from time import perf_counter

import pytest

from repro.core.cooperative import CooperativeDeployment
from repro.core.render import render_sketch
from repro.core.predictors import Predictor
from repro.core.stats import PredictorRanker
from repro.core.streaming import SketchRanker
from repro.corpus import get_bug
from repro.fleet import wire

from _shared import bench_bug_ids, emit, shared_context

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT = REPO_ROOT / "BENCH_streaming_stats.json"
UNSLICED = Path(__file__).resolve().parent / "streaming_unsliced_bytes.json"

PHYSICAL_RUNS = 10_000
COHORT_WEIGHT = 10          # 10k physical x 10 = 100k modeled runs
CHURN_PER_RUN = 2           # fresh value predictors per physical run
CHECKPOINTS = (1_000, 10_000)
ENDPOINTS = 4
MAX_ITERATIONS = 6

MERGE_SHARDS = 8
MERGE_RUNS_PER_SHARD = 2_000

ROOT = Predictor("branch", (7, True))


def _synthetic_run(rng: random.Random, i: int):
    """One physical run: a perfectly-predictive root on failures, a stable
    noise core, and ever-fresh value-predictor churn (distinct population
    grows linearly with the stream, as real operand values do)."""
    failed = i % 2 == 1
    predictors = [Predictor("branch", (uid, False)) for uid in range(5)]
    if failed:
        predictors.append(ROOT)
    for _ in range(CHURN_PER_RUN):
        predictors.append(Predictor("value", (rng.randrange(1000),
                                              1_000_000 + i)))
    return predictors, failed


def _scaling() -> dict:
    rng = random.Random(0xBEEF)
    exact = PredictorRanker(failure_pc=7)
    sketch = SketchRanker(failure_pc=7)
    checkpoints = []
    for i in range(PHYSICAL_RUNS):
        predictors, failed = _synthetic_run(rng, i)
        exact.add_run(predictors, failed, weight=COHORT_WEIGHT)
        sketch.add_run(predictors, failed, weight=COHORT_WEIGHT)
        if i + 1 in CHECKPOINTS:
            checkpoints.append({
                "physical_runs": i + 1,
                "modeled_runs": (i + 1) * COHORT_WEIGHT,
                "exact_tracked_bytes": exact.tracked_bytes(),
                "sketch_tracked_bytes": sketch.tracked_bytes(),
            })
    first, last = checkpoints[0], checkpoints[-1]
    # Structural O(K) ceiling: both resident tables (<= capacity entries
    # each) + the error table + two fully-saturated count-min sketches.
    # No stream, however long, can push the sketch ranker past this.
    ceiling = (2 * sketch.capacity * 120 + sketch.capacity * 64
               + 2 * sketch._cms_failing.width
               * sketch._cms_failing.depth * 48)
    return {
        "modeled_runs": PHYSICAL_RUNS * COHORT_WEIGHT,
        "checkpoints": checkpoints,
        "sketch_ceiling_bytes": ceiling,
        "sketch_bounded": last["sketch_tracked_bytes"] <= ceiling,
        "exact_growth": round(last["exact_tracked_bytes"]
                              / first["exact_tracked_bytes"], 3),
        "sketch_growth": round(last["sketch_tracked_bytes"]
                               / first["sketch_tracked_bytes"], 3),
        "state_ratio": round(last["exact_tracked_bytes"]
                             / last["sketch_tracked_bytes"], 3),
        "top1_parity": (sketch.best().predictor == exact.best().predictor
                        and sketch.best().predictor == ROOT),
        "error_bound": sketch.error_bound(),
    }


def _campaign(bug, mode: str):
    """One campaign at the bench settings, plus the bytes of every
    ``monitored_run`` envelope its server received."""
    deployment = CooperativeDeployment(
        bug.module(), bug.workload_factory, endpoints=ENDPOINTS,
        bug=bug.bug_id, detectors=bug.detectors, stats=mode,
        context=shared_context(bug.bug_id))
    server = deployment.server
    receive = server.receive
    received = []

    def counting_receive(blob):
        message = receive(blob)
        if message is not None and message.type == wire.MSG_MONITORED_RUN:
            received.append(len(blob))
        return message

    server.receive = counting_receive
    with deployment:
        stats = deployment.run_campaign(stop_when=bug.sketch_has_root,
                                        max_iterations=MAX_ITERATIONS)
    return stats, sum(received)


def _corpus_ab() -> dict:
    unsliced_of = json.loads(UNSLICED.read_text())["monitored_run_bytes"]
    per_bug = {}
    total_sliced = total_unsliced = 0
    for bug_id in bench_bug_ids():
        bug = get_bug(bug_id)
        exact, _ = _campaign(bug, "exact")
        streaming, sliced = _campaign(bug, "streaming")
        assert exact.found and streaming.found, bug_id
        unsliced = unsliced_of[bug_id]
        total_sliced += sliced
        total_unsliced += unsliced
        per_bug[bug_id] = {
            "found": streaming.found,
            "sketch_identical": (render_sketch(streaming.sketch)
                                 == render_sketch(exact.sketch)),
            "total_runs_identical":
                streaming.total_runs == exact.total_runs,
            "monitored_run_bytes": sliced,
            "unsliced_bytes": unsliced,
            "payload_ratio": round(unsliced / sliced, 3) if sliced else 1.0,
            "peak_tracked_bytes": streaming.peak_tracked_bytes,
        }
    return {
        "per_bug": per_bug,
        "monitored_run_bytes": total_sliced,
        "unsliced_bytes": total_unsliced,
        "payload_ratio": round(total_unsliced / total_sliced, 3),
    }


def _merge_microbench() -> dict:
    """Shard-state fold (Counter.update) vs replaying every run."""
    rng = random.Random(0xFEED)
    shard_runs = []
    for _ in range(MERGE_SHARDS):
        runs = []
        for i in range(MERGE_RUNS_PER_SHARD):
            predictors, failed = _synthetic_run(rng, i)
            runs.append((predictors, failed, 1))
        shard_runs.append(runs)
    partials = [PredictorRanker.from_runs(runs, failure_pc=7)
                for runs in shard_runs]

    started = perf_counter()
    merged = PredictorRanker(failure_pc=7)
    for partial in partials:
        merged.merge(partial)
    merge_seconds = perf_counter() - started

    started = perf_counter()
    replayed = PredictorRanker(failure_pc=7)
    for runs in shard_runs:
        for predictors, failed, weight in runs:
            replayed.add_run(predictors, failed, weight=weight)
    replay_seconds = perf_counter() - started

    assert merged.state() == replayed.state()
    return {
        "shards": MERGE_SHARDS,
        "runs_per_shard": MERGE_RUNS_PER_SHARD,
        "merge_seconds": round(merge_seconds, 6),
        "replay_seconds": round(replay_seconds, 6),
        "speedup": round(replay_seconds / merge_seconds, 2),
    }


def _compute() -> dict:
    return {
        "benchmark": "streaming_stats",
        "bugs": bench_bug_ids(),
        "scaling": _scaling(),
        "corpus": _corpus_ab(),
        "merge": _merge_microbench(),
    }


def _render(data: dict) -> str:
    scaling = data["scaling"]
    lines = [f"Bounded-memory streaming statistics "
             f"({scaling['modeled_runs']:,} modeled runs, "
             f"{len(data['bugs'])} corpus bugs)",
             "=" * 72,
             f"{'modeled runs':>14} {'exact bytes':>12} "
             f"{'sketch bytes':>13}"]
    for cp in scaling["checkpoints"]:
        lines.append(f"{cp['modeled_runs']:>14,} "
                     f"{cp['exact_tracked_bytes']:>12,} "
                     f"{cp['sketch_tracked_bytes']:>13,}")
    lines.append(f"exact grew {scaling['exact_growth']:,.1f}x, sketch "
                 f"{scaling['sketch_growth']:,.2f}x (O(K) ceiling "
                 f"{scaling['sketch_ceiling_bytes']:,} bytes); final "
                 f"state ratio {scaling['state_ratio']:,.1f}x  "
                 f"(bar: >= 10x)")
    lines.append("-" * 72)
    lines.append(f"{'bug':>18} {'sketch ==':>10} {'ratio':>7} "
                 f"{'peak bytes':>11}")
    for bug_id, row in data["corpus"]["per_bug"].items():
        lines.append(f"{bug_id:>18} {str(row['sketch_identical']):>10} "
                     f"{row['payload_ratio']:>6.2f}x "
                     f"{row['peak_tracked_bytes']:>11,}")
    lines.append(f"aggregate payload reduction against recorded unsliced "
                 f"bytes: {data['corpus']['payload_ratio']:,.2f}x  "
                 f"(bar: >= 2x)")
    merge = data["merge"]
    lines.append(f"shard merge: {merge['merge_seconds']*1000:.1f} ms vs "
                 f"{merge['replay_seconds']*1000:.1f} ms replay = "
                 f"{merge['speedup']:,.1f}x  (bar: >= 3x)")
    return "\n".join(lines)


@pytest.mark.benchmark(group="streaming_stats")
def test_bench_streaming_stats(benchmark):
    data = benchmark.pedantic(_compute, rounds=1, iterations=1)
    emit("streaming_stats", _render(data))
    OUT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")

    scaling = data["scaling"]
    # Claim 1: O(K) sketch state vs O(distinct) exact state, same top-1.
    assert scaling["exact_growth"] >= 5.0, scaling
    assert scaling["sketch_growth"] <= 1.25, scaling
    assert scaling["sketch_bounded"], scaling
    assert scaling["state_ratio"] >= 10.0, scaling
    assert scaling["top1_parity"], scaling
    # Claim 2: >= 2x aggregate monitored-run payload reduction against
    # the recorded unsliced bytes, identical sketches.
    corpus = data["corpus"]
    assert corpus["payload_ratio"] >= 2.0, corpus["payload_ratio"]
    for bug_id, row in corpus["per_bug"].items():
        assert row["found"] and row["sketch_identical"], (bug_id, row)
    # Claim 3: shard-state folding beats replay.
    assert data["merge"]["speedup"] >= 3.0, data["merge"]
