"""Micro-benchmark for the interpreter hot path.

Measures, per corpus bug:

- steps/sec of the compiled tier (GIR compiled to Python generators)
  against the decoded tier (pre-decoded closure streams), both
  **uninstrumented** (no tracers — the "production run" the paper needs to
  stay near-native) and **fully instrumented** (full-trace PT + an armed
  watchpoint unit; instrumented runs run compiled too).  Each round times
  the two tiers back to back, and the reported speedup is the median of
  the per-round ratios, so a host burst that slows one round moves one
  ratio, not the result;
- **PT decode** throughput: decoded uids/sec of the table-driven decoder
  on each bug's real encoded stream.

Emits ``BENCH_interpreter_hotpath.json`` at the repo root, alongside
``BENCH_analysis_cache.json``.  ``hotpath_baseline.json`` (committed) holds
the expected speedup ratios; the regression guard compares *ratios*, not
absolute steps/sec, so it is stable across machines — both sides of every
ratio run on the same host, so a real regression shrinks the ratio no
matter how fast the hardware is.  End-to-end diagnosis time is measured by
``perfbench``'s ``corpus-diagnose`` workload, not here.
"""

import json
import statistics
import time
from pathlib import Path

import pytest

from repro.corpus import get_bug
from repro.hw.watchpoints import WatchpointUnit
from repro.pt import PTDecoder
from repro.pt.encoder import PTEncoder
from repro.runtime.compiled import compiled_program
from repro.runtime.decoded import decoded_program
from repro.runtime.interpreter import Interpreter
from repro.runtime.memory import GLOBAL_BASE

from _shared import bench_bug_ids, emit

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT = REPO_ROOT / "BENCH_interpreter_hotpath.json"
BASELINE = Path(__file__).parent / "hotpath_baseline.json"

#: Minimum timed seconds per (bug, config, tier) sample; short workloads
#: are re-run until the clock accumulates this much.
MIN_SAMPLE_S = 0.10
#: Interleaved rounds per (bug, config): each times both tiers once.
ROUNDS = 7
#: Best-of samples for PT decode throughput.
SAMPLES = 3
#: Allowed slack vs the committed baseline speedup ratio before the
#: regression guard fails (ISSUE 3: fail on >30% regression).
GUARD_FRACTION = 0.7


def _tracer_sets(module):
    def none():
        return []

    def full():
        tracers = [PTEncoder(trace_on_start=True)]
        wpu = WatchpointUnit()
        if module.globals:
            wpu.set_watchpoint(GLOBAL_BASE, length=4, condition="rw")
        tracers.append(wpu)
        return tracers

    return {"uninstrumented": none, "fully_instrumented": full}


def _sample_rate(module, workload, mode, make_tracers):
    """Steps/sec of one sample: runs until :data:`MIN_SAMPLE_S` and three
    runs have accumulated."""
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
    return total_steps / total_s


def _tier_speedup(spec, make_tracers):
    """Compiled vs decoded steps/sec over :data:`ROUNDS` interleaved
    rounds (the first tier alternates), with the median per-round
    ratio."""
    module = spec.module()
    workload = spec.workload_factory(0)
    # Build shared artifacts outside the timed region.
    decoded_program(module)
    compiled_program(module)
    rates = {"compiled": [], "decoded": []}
    for round_ in range(ROUNDS):
        order = ("decoded", "compiled") if round_ % 2 == 0 \
            else ("compiled", "decoded")
        for mode in order:
            rates[mode].append(
                _sample_rate(module, workload, mode, make_tracers))
    ratios = [c / d for c, d in zip(rates["compiled"], rates["decoded"])]
    return {
        "compiled_steps_per_sec": round(max(rates["compiled"])),
        "decoded_steps_per_sec": round(max(rates["decoded"])),
        "round_ratios": [round(r, 2) for r in ratios],
        "compiled_speedup_vs_decoded": round(statistics.median(ratios), 2),
    }


def _pt_decode_throughput(spec):
    """Decoded uids/sec of the table-driven decoder on the concatenated
    real streams of one seed-0 full-trace run."""
    module = spec.module()
    workload = spec.workload_factory(0)
    pt = PTEncoder(trace_on_start=True)
    Interpreter(module, args=list(workload.args),
                scheduler=workload.make_scheduler(),
                tracers=[pt], max_steps=workload.max_steps,
                mode="decoded").run()
    streams = [pt.raw_trace(tid) for tid in sorted(pt.buffers)]
    decoder = PTDecoder(module)
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
    return best


def _measure_bug(bug_id: str) -> dict:
    spec = get_bug(bug_id)
    row = {config: _tier_speedup(spec, make_tracers)
           for config, make_tracers in _tracer_sets(spec.module()).items()}
    row["pt_decode"] = {"uids_per_sec": round(_pt_decode_throughput(spec))}
    return row


def _compute() -> dict:
    bugs = {bug_id: _measure_bug(bug_id) for bug_id in bench_bug_ids()}
    compiled = [row["uninstrumented"]["compiled_speedup_vs_decoded"]
                for row in bugs.values()]
    instrumented = [row["fully_instrumented"]["compiled_speedup_vs_decoded"]
                    for row in bugs.values()]
    decode = [row["pt_decode"]["uids_per_sec"] for row in bugs.values()]
    summary = {
        "median_compiled_speedup_vs_decoded": round(
            statistics.median(compiled), 2),
        "median_instrumented_compiled_speedup_vs_decoded": round(
            statistics.median(instrumented), 2),
        "median_pt_decode_uids_per_sec": round(statistics.median(decode)),
        "bugs_at_3x_compiled": sum(1 for s in compiled if s >= 3.0),
        "bug_count": len(bugs),
    }
    return {"benchmark": "interpreter_hotpath", "bugs": bugs,
            "summary": summary}


def _render(data: dict) -> str:
    lines = ["Interpreter hot path: compiled vs decoded tier, PT decode",
             "=" * 70,
             f"{'Bug':<18} {'compiled (ksteps/s)':>20} {'vs dec':>7} "
             f"{'instr vs dec':>12} {'ptdec (Muids/s)':>16}"]
    for bug_id, row in data["bugs"].items():
        u = row["uninstrumented"]
        instr = row["fully_instrumented"]
        lines.append(
            f"{bug_id:<18} "
            f"{u['compiled_steps_per_sec'] / 1e3:>20.0f} "
            f"{u['compiled_speedup_vs_decoded']:>6.2f}x "
            f"{instr['compiled_speedup_vs_decoded']:>11.2f}x "
            f"{row['pt_decode']['uids_per_sec'] / 1e6:>16.2f}")
    s = data["summary"]
    lines.append("-" * 70)
    lines.append(
        f"median speedup: {s['median_compiled_speedup_vs_decoded']:.2f}x "
        f"compiled-vs-decoded ("
        f"{s['median_instrumented_compiled_speedup_vs_decoded']:.2f}x "
        f"instrumented); median PT decode "
        f"{s['median_pt_decode_uids_per_sec'] / 1e6:.2f}M uids/s")
    lines.append(
        f"floor: {s['bugs_at_3x_compiled']}/{s['bug_count']} bugs >= 3x "
        f"compiled")
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
            ("compiled_speedup_vs_decoded",
             lambda row: row["uninstrumented"]
             ["compiled_speedup_vs_decoded"]),
            ("instrumented_compiled_speedup_vs_decoded",
             lambda row: row["fully_instrumented"]
             ["compiled_speedup_vs_decoded"]),
        )
        for bug_id, row in data["bugs"].items():
            for key, getter in guarded:
                expected = baseline.get(bug_id, {}).get(key)
                if expected:
                    got = getter(row)
                    assert got >= GUARD_FRACTION * expected, (
                        f"{bug_id}: {key} {got}x fell below "
                        f"{GUARD_FRACTION:.0%} of baseline {expected}x")

    # The acceptance bar, asserted only on a corpus-scale run (the CI
    # smoke job restricts REPRO_BENCH_BUGS).
    summary = data["summary"]
    if summary["bug_count"] >= 6:
        assert summary["median_compiled_speedup_vs_decoded"] >= 3.0, summary
