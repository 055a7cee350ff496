"""Micro-benchmark for the interpreter hot path.

Measures, per corpus bug, the interpreter tiers against the preserved
strict reference interpreter (``mode="strict"``):

- steps/sec **uninstrumented** (no tracers — the "production run" the paper
  needs to stay near-native), for both the decoded tier and the compiled
  tier (GIR compiled to Python generators),
- steps/sec **PT-traced** (full Intel-PT-style control-flow tracing),
- steps/sec **fully instrumented** (PT + an armed watchpoint unit), again
  for the compiled tier as well (instrumented runs run compiled too),
- **PT decode** throughput: the table-driven decoder against the preserved
  reference decoder on each bug's real encoded stream,
- warm end-to-end **diagnosis** wall time (full cooperative campaign with a
  pre-warmed analysis context, where interpretation dominates).

Emits ``BENCH_interpreter_hotpath.json`` at the repo root, alongside
``BENCH_analysis_cache.json``.  ``hotpath_baseline.json`` (committed) holds
the expected speedup ratios; the regression guard compares *ratios*, not
absolute steps/sec, so it is stable across machines — both sides of every
ratio run on the same host, so a real regression shrinks the ratio no
matter how fast the hardware is.
"""

import json
import statistics
import time
from pathlib import Path

import pytest

from repro.analysis.context import AnalysisContext
from repro.core import CooperativeDeployment
from repro.corpus import get_bug
from repro.hw.watchpoints import WatchpointUnit
from repro.pt import PTDecoder, ReferencePTDecoder
from repro.pt.encoder import PTEncoder
from repro.runtime import interpreter as interp_mod
from repro.runtime.compiled import compiled_program
from repro.runtime.decoded import decoded_program
from repro.runtime.interpreter import Interpreter
from repro.runtime.memory import GLOBAL_BASE

from _shared import bench_bug_ids, emit

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT = REPO_ROOT / "BENCH_interpreter_hotpath.json"
BASELINE = Path(__file__).parent / "hotpath_baseline.json"

#: Minimum timed seconds per (bug, config, mode) sample; short workloads
#: are re-run until the clock accumulates this much.
MIN_SAMPLE_S = 0.10
#: Best-of samples per measurement — the max filters scheduler noise out
#: of a ratio whose both sides are measured the same way.
SAMPLES = 3
#: Allowed slack vs the committed baseline speedup ratio before the
#: regression guard fails (ISSUE 3: fail on >30% regression).
GUARD_FRACTION = 0.7


def _tracer_sets(module):
    def none():
        return []

    def pt():
        return [PTEncoder(trace_on_start=True)]

    def full():
        tracers = [PTEncoder(trace_on_start=True)]
        wpu = WatchpointUnit()
        if module.globals:
            wpu.set_watchpoint(GLOBAL_BASE, length=4, condition="rw")
        tracers.append(wpu)
        return tracers

    return {"uninstrumented": none, "pt_traced": pt,
            "fully_instrumented": full}


def _steps_per_sec(spec, mode, make_tracers):
    module = spec.module()
    workload = spec.workload_factory(0)
    # Build shared artifacts outside the timed region.
    decoded_program(module)
    if mode == "compiled":
        compiled_program(module)
    best = 0.0
    for _sample in range(SAMPLES):
        total_steps = 0
        total_s = 0.0
        runs = 0
        while total_s < MIN_SAMPLE_S or runs < 3:
            interp = Interpreter(module, args=list(workload.args),
                                 scheduler=workload.make_scheduler(),
                                 tracers=make_tracers(),
                                 max_steps=workload.max_steps,
                                 mode=mode)
            t0 = time.perf_counter()
            outcome = interp.run()
            total_s += time.perf_counter() - t0
            total_steps += outcome.steps
            runs += 1
        best = max(best, total_steps / total_s)
    return best


def _pt_decode_throughput(spec):
    """Decoded uids/sec: the table-driven decoder vs the reference, on the
    concatenated real streams of one seed-0 full-trace run."""
    module = spec.module()
    workload = spec.workload_factory(0)
    pt = PTEncoder(trace_on_start=True)
    Interpreter(module, args=list(workload.args),
                scheduler=workload.make_scheduler(),
                tracers=[pt], max_steps=workload.max_steps,
                mode="decoded").run()
    streams = [pt.raw_trace(tid) for tid in sorted(pt.buffers)]
    rates = {}
    for label, decoder in (("table", PTDecoder(module)),
                           ("reference", ReferencePTDecoder(module))):
        best = 0.0
        for _sample in range(SAMPLES):
            uids = 0
            total_s = 0.0
            while total_s < MIN_SAMPLE_S:
                for raw in streams:
                    t0 = time.perf_counter()
                    trace = decoder.decode(raw)
                    total_s += time.perf_counter() - t0
                    uids += len(trace.executed_sequence())
            best = max(best, uids / total_s)
        rates[label] = best
    return rates


def _campaign(spec, context):
    deployment = CooperativeDeployment(
        spec.module(), spec.workload_factory,
        endpoints=4, bug=spec.bug_id, context=context)
    return deployment.run_campaign(stop_when=spec.sketch_has_root,
                                   max_iterations=4)


def _warm_diagnosis(spec):
    """Warm-context campaign wall time, fast vs strict.

    Campaign clients build their own interpreters, so the mode is toggled
    the way an operator would: via the process-wide default.
    """
    context = AnalysisContext(spec.module())
    _campaign(spec, context)  # warm: analysis artifacts + decode + imports
    saved = interp_mod.INTERP_MODE_DEFAULT
    try:
        timings = {}
        outcomes = {}
        for label, mode in (("fast", saved), ("strict", "strict")):
            interp_mod.INTERP_MODE_DEFAULT = mode
            t0 = time.perf_counter()
            stats = _campaign(spec, context)
            timings[label] = time.perf_counter() - t0
            outcomes[label] = (stats.found, stats.total_runs)
    finally:
        interp_mod.INTERP_MODE_DEFAULT = saved
    # The campaigns are deterministic, so the two modes must agree on the
    # diagnosis itself — speed is the only difference being measured.
    assert outcomes["fast"] == outcomes["strict"], spec.bug_id
    return timings


def _measure_bug(bug_id: str) -> dict:
    spec = get_bug(bug_id)
    row = {}
    for config, make_tracers in _tracer_sets(spec.module()).items():
        fast = _steps_per_sec(spec, "decoded", make_tracers)
        strict = _steps_per_sec(spec, "strict", make_tracers)
        row[config] = {
            "fast_steps_per_sec": round(fast),
            "strict_steps_per_sec": round(strict),
            "speedup": round(fast / strict, 2),
        }
        if config in ("uninstrumented", "fully_instrumented"):
            # The compiled tier's headline ratios are vs the decoded tier,
            # plain and with every kind of instrumentation attached.
            compiled = _steps_per_sec(spec, "compiled", make_tracers)
            row[config]["compiled_steps_per_sec"] = round(compiled)
            row[config]["compiled_speedup_vs_decoded"] = round(
                compiled / fast, 2)
            row[config]["compiled_speedup_vs_strict"] = round(
                compiled / strict, 2)
    decode = _pt_decode_throughput(spec)
    row["pt_decode"] = {
        "table_uids_per_sec": round(decode["table"]),
        "reference_uids_per_sec": round(decode["reference"]),
        "speedup": round(decode["table"] / decode["reference"], 2),
    }
    diag = _warm_diagnosis(spec)
    row["warm_diagnosis"] = {
        "fast_s": round(diag["fast"], 4),
        "strict_s": round(diag["strict"], 4),
        "speedup": round(diag["strict"] / max(diag["fast"], 1e-9), 2),
    }
    return row


def _compute() -> dict:
    bugs = {bug_id: _measure_bug(bug_id) for bug_id in bench_bug_ids()}
    uninstr = [row["uninstrumented"]["speedup"] for row in bugs.values()]
    compiled = [row["uninstrumented"]["compiled_speedup_vs_decoded"]
                for row in bugs.values()]
    instrumented = [row["fully_instrumented"]["compiled_speedup_vs_decoded"]
                    for row in bugs.values()]
    decode = [row["pt_decode"]["speedup"] for row in bugs.values()]
    diag = [row["warm_diagnosis"]["speedup"] for row in bugs.values()]
    summary = {
        "median_uninstrumented_speedup": round(
            statistics.median(uninstr), 2),
        "median_compiled_speedup_vs_decoded": round(
            statistics.median(compiled), 2),
        "median_instrumented_compiled_speedup_vs_decoded": round(
            statistics.median(instrumented), 2),
        "median_pt_decode_speedup": round(statistics.median(decode), 2),
        "median_warm_diagnosis_speedup": round(statistics.median(diag), 2),
        "bugs_at_3x_uninstrumented": sum(1 for s in uninstr if s >= 3.0),
        "bugs_at_3x_compiled": sum(1 for s in compiled if s >= 3.0),
        "bugs_at_2x_pt_decode": sum(1 for s in decode if s >= 2.0),
        "bugs_at_1_5x_diagnosis": sum(1 for s in diag if s >= 1.5),
        "bug_count": len(bugs),
    }
    return {"benchmark": "interpreter_hotpath", "bugs": bugs,
            "summary": summary}


def _render(data: dict) -> str:
    lines = ["Interpreter hot path: compiled / decoded tiers vs strict "
             "reference",
             "=" * 78,
             f"{'Bug':<18} {'compiled (ksteps/s)':>20} {'vs dec':>7} "
             f"{'instr vs dec':>12} {'dec/strict':>10} {'ptdec':>6} "
             f"{'diag':>6}"]
    for bug_id, row in data["bugs"].items():
        u = row["uninstrumented"]
        instr = row["fully_instrumented"]
        lines.append(
            f"{bug_id:<18} "
            f"{u['compiled_steps_per_sec'] / 1e3:>20.0f} "
            f"{u['compiled_speedup_vs_decoded']:>6.2f}x "
            f"{instr['compiled_speedup_vs_decoded']:>11.2f}x "
            f"{u['speedup']:>9.2f}x "
            f"{row['pt_decode']['speedup']:>5.2f}x "
            f"{row['warm_diagnosis']['speedup']:>5.2f}x")
    s = data["summary"]
    lines.append("-" * 78)
    lines.append(
        f"median speedup: {s['median_compiled_speedup_vs_decoded']:.2f}x "
        f"compiled-vs-decoded ("
        f"{s['median_instrumented_compiled_speedup_vs_decoded']:.2f}x "
        f"instrumented), {s['median_uninstrumented_speedup']:.2f}x "
        f"decoded-vs-strict, {s['median_pt_decode_speedup']:.2f}x PT "
        f"decode, {s['median_warm_diagnosis_speedup']:.2f}x warm diagnosis")
    lines.append(
        f"floors: {s['bugs_at_3x_compiled']}/{s['bug_count']} bugs >= 3x "
        f"compiled, {s['bugs_at_2x_pt_decode']}/{s['bug_count']} >= 2x PT "
        f"decode, {s['bugs_at_1_5x_diagnosis']}/{s['bug_count']} >= 1.5x "
        f"diag")
    return "\n".join(lines)


@pytest.mark.benchmark(group="interpreter_hotpath")
def test_bench_interpreter_hotpath(benchmark):
    data = benchmark.pedantic(_compute, rounds=1, iterations=1)
    emit("interpreter_hotpath", _render(data))
    OUT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")

    # Regression guard vs the committed baseline: every guarded ratio is
    # machine-independent (both sides run on the same host), so losing
    # more than (1 - GUARD_FRACTION) of one means that path regressed.
    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text())["bugs"]
        guarded = (
            ("uninstrumented_speedup",
             lambda row: row["uninstrumented"]["speedup"]),
            ("compiled_speedup_vs_decoded",
             lambda row: row["uninstrumented"]
             ["compiled_speedup_vs_decoded"]),
            ("instrumented_compiled_speedup_vs_decoded",
             lambda row: row["fully_instrumented"]
             ["compiled_speedup_vs_decoded"]),
            ("pt_decode_speedup",
             lambda row: row["pt_decode"]["speedup"]),
        )
        for bug_id, row in data["bugs"].items():
            for key, getter in guarded:
                expected = baseline.get(bug_id, {}).get(key)
                if expected:
                    got = getter(row)
                    assert got >= GUARD_FRACTION * expected, (
                        f"{bug_id}: {key} {got}x fell below "
                        f"{GUARD_FRACTION:.0%} of baseline {expected}x")

    # Every configuration must at least not be slower than the reference.
    for bug_id, row in data["bugs"].items():
        for config in ("uninstrumented", "pt_traced", "fully_instrumented"):
            assert row[config]["speedup"] >= 1.0, (bug_id, config, row)
        assert row["pt_decode"]["speedup"] >= 1.0, (bug_id, row)

    # The acceptance bars (ISSUE 3 + ISSUE 6), asserted only on a
    # corpus-scale run (the CI smoke job restricts REPRO_BENCH_BUGS).
    summary = data["summary"]
    if summary["bug_count"] >= 6:
        assert summary["bugs_at_3x_uninstrumented"] * 2 >= \
            summary["bug_count"], summary
        assert summary["bugs_at_1_5x_diagnosis"] * 2 >= \
            summary["bug_count"], summary
        assert summary["median_compiled_speedup_vs_decoded"] >= 3.0, summary
        assert summary["median_pt_decode_speedup"] >= 2.0, summary
