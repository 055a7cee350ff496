"""Detection-subsystem benchmark: overhead, race quality, ranker A/B.

Three claims about the failure-class detectors, measured explicitly:

1. **Overhead** — detectors are pure observers of event streams the
   modeled hardware already produces, so they must add **zero** modeled
   production cost: identical ``base_cost``/``extra_cost`` with and
   without detectors on every detection-corpus workload (far inside the
   ≤ 15% budget), and identical campaign overhead on the null-handoff
   bug, which diagnoses either way.  The simulator-side wall-clock
   slowdown of the Python callbacks is tracked informationally with a
   generous sanity cap: the median of interleaved detector-off/on
   rounds' ratios, so a host burst that slows one round moves one ratio,
   not the result.
2. **Race quality** — the happens-before detector finds the seeded race
   in every race bug (recall 1.0) and cites only genuinely
   unsynchronized functions across the whole corpus (precision 1.0).
3. **Ranker A/B** — the error-invariants ranking engine
   (``--ranker invariants``) must diagnose the corpus as well as the
   F-measure ranker: same bugs found, accuracy within a small delta.

Emits ``BENCH_detectors.json`` at the repo root.
"""

import json
import statistics
from pathlib import Path
from time import perf_counter

import pytest

from repro.corpus import get_bug
from repro.corpus.evaluation import evaluate_bug
from repro.detect import apply_detectors, make_detectors
from repro.detect.races import RaceDetector
from repro.runtime.interpreter import run_program

from _shared import bench_bug_ids, emit, shared_context

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT = REPO_ROOT / "BENCH_detectors.json"

#: The detection corpus is fixed — these three exist to exercise the
#: detectors, so the REPRO_BENCH_BUGS subset never excludes them.
DETECTION_BUGS = ("evloop-1", "ringbuf-1", "tpqueue-1")
RACE_BUGS = ("evloop-1", "ringbuf-1")

#: Modeled detector overhead budget (acceptance bar; measured value is 0).
MAX_DETECTOR_OVERHEAD_PCT = 15.0
#: Sanity cap on the simulator-side wall-clock slowdown of the Python
#: tracer callbacks (informational; not a modeled-cost claim).
MAX_WALL_SLOWDOWN_X = 12.0
#: The invariants ranker may trail F-measure accuracy by at most this.
MAX_ACCURACY_DELTA = 10.0

PROBE_RUNS = 8
#: Interleaved detector-off/on rounds behind each wall-clock slowdown (the
#: side that runs first alternates).
OVERHEAD_ROUNDS = 7
MAX_ITERATIONS = 4

#: Functions with genuinely unsynchronized shared accesses, per bug —
#: verified against the annotated sources (the modeled bugs' own unlocked
#: RMWs, teardown use-after-frees, and init/spawn orderings).  Any racing
#: access cited outside its bug's set is a false positive.
GENUINE_RACY_FUNCS = {
    "apache-21285": {"release_conn"},
    "apache-21287": {"cleanup_stats", "dec", "decrement_refcount"},
    "apache-25520": {"log_write", "worker"},
    "apache-45605": {"eos_cleanup", "output_filter"},
    "cppcheck-2782": set(),
    "cppcheck-3238": set(),
    "curl-965": set(),
    "memcached-127": {"client_thread", "incr_item"},
    "pbzip2-1": {"consumer", "main"},
    "pbzip2-cv": {"consumer", "main"},
    "sqlite-1672": {"reader", "writer"},
    "transmission-1818": {"event_loop", "main"},
    "evloop-1": {"worker"},
    "ringbuf-1": {"publish", "prio_producer", "main"},
    # The null handoff is itself unsynchronized: both workers store the
    # claimed task pointer into the shared ``cur`` cell outside the pool
    # mutex, and the slot pointer is read after unlock while the
    # submitter stores it under lock.
    "tpqueue-1": {"worker", "main"},
}


def _sweep_bugs():
    ordered = list(bench_bug_ids())
    for bug_id in DETECTION_BUGS:
        if bug_id not in ordered:
            ordered.append(bug_id)
    return ordered


# ---------------------------------------------------------------------------
# 1. Overhead
# ---------------------------------------------------------------------------


def _timed_runs(spec, module, detectors, runs=PROBE_RUNS):
    """(wall seconds, [(base_cost, extra_cost)]) over the first workloads."""
    costs = []
    started = perf_counter()
    for index in range(runs):
        workload = spec.workload_factory(index)
        tracers = make_detectors(detectors)
        outcome = run_program(module, args=list(workload.args),
                              scheduler=workload.make_scheduler(),
                              max_steps=workload.max_steps,
                              tracers=list(tracers))
        if tracers:
            outcome = apply_detectors(outcome, tracers)
        costs.append((outcome.base_cost, outcome.extra_cost))
    return perf_counter() - started, costs


def _overhead_table() -> dict:
    table = {}
    for bug_id in DETECTION_BUGS:
        spec = get_bug(bug_id)
        module = spec.module()
        _timed_runs(spec, module, (), runs=2)  # warm interpreter caches
        off, on = (), spec.detectors
        ratios = []
        for round_ in range(OVERHEAD_ROUNDS):
            walls = {}
            for detectors in ((off, on) if round_ % 2 == 0 else (on, off)):
                walls[detectors], costs = _timed_runs(spec, module,
                                                      detectors)
                if detectors:
                    costs_on = costs
                else:
                    costs_off = costs
            ratios.append(walls[on] / max(walls[off], 1e-9))
        modeled_delta = sum(b + e for b, e in costs_on) \
            - sum(b + e for b, e in costs_off)
        modeled_base = sum(b + e for b, e in costs_off)
        table[bug_id] = {
            "modeled_cost_off": modeled_base,
            "modeled_cost_on": modeled_base + modeled_delta,
            "detector_overhead_percent":
                round(100.0 * modeled_delta / modeled_base, 3),
            "wall_slowdown_x": round(statistics.median(ratios), 2),
            "round_slowdowns_x": [round(r, 2) for r in ratios],
            "costs_identical": costs_on == costs_off,
        }
    return table


# ---------------------------------------------------------------------------
# 2. Race recall / precision
# ---------------------------------------------------------------------------


def _race_quality() -> dict:
    per_bug = {}
    cited_total = 0
    cited_genuine = 0
    seeded_found = 0
    for bug_id in _sweep_bugs():
        spec = get_bug(bug_id)
        module = spec.module()
        allowed = GENUINE_RACY_FUNCS[bug_id]
        cited = set()
        promoted = 0
        for index in range(PROBE_RUNS):
            workload = spec.workload_factory(index)
            detector = RaceDetector()
            outcome = run_program(module, args=list(workload.args),
                                  scheduler=workload.make_scheduler(),
                                  max_steps=workload.max_steps,
                                  tracers=[detector])
            outcome = apply_detectors(outcome, [detector])
            cited |= {fn for fn, _line in detector.racy_lines()}
            if outcome.failed and outcome.failure.race is not None:
                promoted += 1
        genuine = cited & allowed
        cited_total += len(cited)
        cited_genuine += len(genuine)
        if bug_id in RACE_BUGS and promoted > 0:
            seeded_found += 1
        per_bug[bug_id] = {
            "cited_functions": sorted(cited),
            "false_positives": sorted(cited - allowed),
            "race_failures_promoted": promoted,
        }
    return {
        "per_bug": per_bug,
        "recall": round(seeded_found / len(RACE_BUGS), 3),
        "precision": (round(cited_genuine / cited_total, 3)
                      if cited_total else 1.0),
    }


# ---------------------------------------------------------------------------
# 3. Ranker A/B
# ---------------------------------------------------------------------------


def _ranker_ab() -> dict:
    rows = {}
    for bug_id in _sweep_bugs():
        spec = get_bug(bug_id)
        row = {}
        for ranker in ("fmeasure", "invariants"):
            ev = evaluate_bug(spec, max_iterations=MAX_ITERATIONS,
                              context=shared_context(bug_id),
                              ranker=ranker)
            row[ranker] = {
                "found": ev.found,
                "relevance": round(ev.relevance, 2),
                "ordering": round(ev.ordering, 2),
                "accuracy": round(ev.overall_accuracy, 2),
                "recurrences": ev.recurrences,
                "campaign_overhead_percent":
                    round(ev.avg_overhead_percent, 2),
            }
        rows[bug_id] = row
    return rows


def _render(payload) -> str:
    lines = ["Detection subsystem: overhead, race quality, ranker A/B",
             "=" * 72, "", "Detector overhead (modeled cost; budget 15%):"]
    for bug_id, row in payload["overhead"].items():
        lines.append(f"  {bug_id:<12} +{row['detector_overhead_percent']}% "
                     f"modeled, {row['wall_slowdown_x']}x wall (simulator)")
    quality = payload["race_quality"]
    lines.append("")
    lines.append(f"Race detector: recall={quality['recall']:.2f} "
                 f"precision={quality['precision']:.2f}")
    lines.append("")
    lines.append(f"{'Bug':<14} {'fmeasure':<22} invariants")
    for bug_id, row in payload["ranker_ab"].items():
        cells = []
        for ranker in ("fmeasure", "invariants"):
            r = row[ranker]
            mark = "found" if r["found"] else "MISSED"
            cells.append(f"{mark} acc={r['accuracy']:>6.2f}")
        lines.append(f"{bug_id:<14} {cells[0]:<22} {cells[1]}")
    return "\n".join(lines)


@pytest.mark.benchmark(group="detectors")
def test_bench_detectors(benchmark):
    def _compute():
        return {
            "overhead": _overhead_table(),
            "race_quality": _race_quality(),
            "ranker_ab": _ranker_ab(),
        }

    payload = benchmark.pedantic(_compute, rounds=1, iterations=1)
    payload["guards"] = {
        "max_detector_overhead_percent": MAX_DETECTOR_OVERHEAD_PCT,
        "max_wall_slowdown_x": MAX_WALL_SLOWDOWN_X,
        "max_accuracy_delta": MAX_ACCURACY_DELTA,
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    emit("detectors", _render(payload))

    # 1. Observers are free in the modeled cost model: identical costs,
    #    so detector overhead is 0% — far inside the 15% budget.
    for bug_id, row in payload["overhead"].items():
        assert row["costs_identical"], \
            f"{bug_id}: detectors changed modeled costs"
        assert row["detector_overhead_percent"] \
            <= MAX_DETECTOR_OVERHEAD_PCT
        assert row["wall_slowdown_x"] <= MAX_WALL_SLOWDOWN_X, \
            f"{bug_id}: simulator slowdown {row['wall_slowdown_x']}x"

    # Attaching detectors must not change the campaign's instrumentation
    # overhead either (tpqueue diagnoses both ways: plain segfault
    # without the tracer, null-deref with it).
    spec = get_bug("tpqueue-1")
    with_det = evaluate_bug(spec, max_iterations=2,
                            context=shared_context("tpqueue-1"))
    without = evaluate_bug(
        _spec_without_detectors(spec), max_iterations=2,
        context=shared_context("tpqueue-1"))
    assert abs(with_det.avg_overhead_percent
               - without.avg_overhead_percent) < 3.0

    # 2. Seeded races all found; nothing cited beyond the allowlists.
    quality = payload["race_quality"]
    assert quality["recall"] == 1.0
    assert quality["precision"] == 1.0
    for bug_id, row in quality["per_bug"].items():
        assert row["false_positives"] == [], \
            f"{bug_id}: false positives {row['false_positives']}"

    # 3. The invariants ranker diagnoses every bug the F-measure ranker
    #    does, at comparable accuracy.
    for bug_id, row in payload["ranker_ab"].items():
        fm, inv = row["fmeasure"], row["invariants"]
        assert inv["found"] == fm["found"], \
            f"{bug_id}: rankers disagree on root-cause discovery"
        assert inv["accuracy"] >= fm["accuracy"] - MAX_ACCURACY_DELTA, \
            f"{bug_id}: invariants accuracy regressed: {inv} vs {fm}"


def _spec_without_detectors(spec):
    import dataclasses
    return dataclasses.replace(spec, detectors=())
