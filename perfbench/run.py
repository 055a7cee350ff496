"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus-diagnose --seed 1 \\
        --seconds 10 --trace 0

Run it from the root of a checkout: the program is imported from
``src/repro`` next to this directory, and nothing else is used.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
machine context and unbounded detail (sample counts, exact work counts,
the host-speed loop before and after the measured phase).

``--trace 0`` reports the end-to-end metrics (:data:`END_TO_END`),
measured with nothing wrapped.  ``--trace 1`` is a separate run with the
same seed that reports the per-layer metrics (:data:`PER_LAYER`) from an
outside-in span trace (:mod:`perfbench.spans`) and writes the spans to
``.perfbench/`` in the checkout.  See :mod:`perfbench` for what each
metric means and which end-to-end metric each layer should move.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spans as sp  # noqa: E402
from perfbench.summary import (CALIBRATION_REF_S, calibration_s,  # noqa: E402
                               host_loop_s, machine, percentile,
                               percentile_or_zero)

WORKLOAD_NAMES = ("corpus-diagnose", "fleet-plain", "server-replay")

#: (name, unit) of every end-to-end metric, reported by ``--trace 0`` on
#: every workload.  An operation is a diagnosis (``corpus-diagnose``), a
#: plain run (``fleet-plain``) or a campaign replay (``server-replay``).
END_TO_END = [
    ("setup_s", "s"),
    ("corpus_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p75", "ms"),
    ("runs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
]

#: (name, unit) of every per-layer metric, reported by ``--trace 1`` on
#: every workload; a layer a workload does not exercise reads 0.
PER_LAYER = [
    ("lang.compile_s", "s"), ("lang.modules", "count"),
    ("analysis.slice_s", "s"), ("analysis.hit_rate", "share"),
    ("instrument.plan_s", "s"), ("instrument.apply_s", "s"),
    ("instrument.patches", "count"),
    ("runtime.compile_s", "s"),
    ("runtime.plain_s", "s"), ("runtime.plain_runs", "count"),
    ("runtime.plain_steps", "count"), ("runtime.plain_steps_per_s", "1/s"),
    ("runtime.monitored_s", "s"), ("runtime.monitored_runs", "count"),
    ("runtime.monitored_steps", "count"),
    ("runtime.monitored_steps_per_s", "1/s"),
    ("pt.decode_s", "s"), ("pt.trace_bytes", "bytes"),
    ("hw.traps", "count"),
    ("detect.runs", "count"),
    ("core.predictors_s", "s"), ("core.predictors", "count"),
    ("core.ingest_s", "s"), ("core.ingested", "count"),
    ("core.refine_s", "s"), ("core.sketch_s", "s"), ("core.render_s", "s"),
    ("core.close_self_s", "s"), ("core.close_ms.p50", "ms"),
    ("core.close_ms.p75", "ms"), ("core.iterations", "count"),
    ("core.recurrences_mean", "count"),
    ("core.client_self_s", "s"), ("core.unattributed_s", "s"),
    ("fleet.encode_s", "s"), ("fleet.decode_s", "s"),
    ("fleet.envelopes", "count"), ("fleet.envelope_bytes", "bytes"),
    ("fleet.quarantined", "count"), ("fleet.stale", "count"),
    ("fleet.duplicates", "count"), ("fleet.useful_ratio", "share"),
    ("trace.wall_s", "s"), ("trace.overhead", "ratio"),
    ("error_rate", "share"),
]


@dataclass
class Sample:
    round: int
    bug: int
    seconds: float
    ok: bool
    runs: int
    counts: Dict[str, int]
    #: Host-speed calibration taken right after the operation.
    calibration: float


def run_ops(workload, rounds: range, recorder=None) -> List[Sample]:
    """The closed loop: rounds visit the bugs round-robin, one operation in
    flight.  An operation that raises is reported and counted as failed.

    Garbage is collected before each operation, outside its timing, so an
    operation pays for collecting its own garbage only: when a full
    collection lands is otherwise set by what ran before, which the seed
    reorders."""
    from perfbench.workloads import Checked

    samples = []
    for r in rounds:
        for i, spec in enumerate(workload.specs):
            gc.collect()
            start = time.perf_counter()
            try:
                arg = workload.input(r, i)
                if recorder is None:
                    start = time.perf_counter()
                    result = workload.op(i, arg)
                    seconds = time.perf_counter() - start
                else:
                    with recorder.op(f"{workload.name}/{r}/{spec.bug_id}"):
                        start = time.perf_counter()
                        result = workload.op(i, arg)
                        seconds = time.perf_counter() - start
                checked = workload.check(r, i, result)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                seconds = time.perf_counter() - start
                checked = Checked(False, 0, {})
            samples.append(Sample(r, i, seconds, checked.ok, checked.runs,
                                  checked.counts, calibration_s()))
    return samples


def normalized(samples: List[Sample]) -> List[float]:
    """Each operation's time at the reference host speed: scaled by the
    median calibration of its round, so a slow spell of the host that
    lasts longer than a round does not read as a slower program."""
    by_round: Dict[int, List[float]] = defaultdict(list)
    for s in samples:
        by_round[s.round].append(s.calibration)
    speed = {r: CALIBRATION_REF_S / statistics.median(cals)
             for r, cals in by_round.items()}
    return [s.seconds * speed[s.round] for s in samples]


def summed_counts(samples: List[Sample]) -> Dict[str, int]:
    totals: Dict[str, int] = defaultdict(int)
    for sample in samples:
        for key, value in sample.counts.items():
            totals[key] += value
    return dict(sorted(totals.items()))


def end_to_end(samples: List[Sample], seconds: List[float],
               setup_s: float) -> Dict[str, float]:
    """End-to-end metrics from per-operation ``seconds``."""
    op_ms = [t * 1e3 for t in seconds]
    by_bug: Dict[int, List[float]] = defaultdict(list)
    for s, t in zip(samples, seconds):
        by_bug[s.bug].append(t)
    return {
        "setup_s": setup_s,
        "corpus_s": sum(statistics.median(v) for v in by_bug.values()),
        "op_ms.p50": percentile(op_ms, 50),
        "op_ms.p75": percentile(op_ms, 75),
        "runs_per_s": sum(s.runs for s in samples) / sum(seconds),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def tail(values: List[float]) -> Dict[str, float]:
    """The highest of p99/p90/p75 with ten samples beyond it."""
    for p in (99, 90, 75):
        try:
            return {f"p{p}": percentile(values, p)}
        except ValueError:
            continue
    return {}


def per_layer(setup_spans, setup_counts, spans, counts,
              samples: List[Sample], overhead: float,
              hit_rate: float) -> Dict[str, float]:
    metrics: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for name, seconds in sp.self_time_by_name(setup_spans).items():
        if name in sp.SETUP_SPANS:
            metrics[sp.SELF_TIME_METRIC[name]] = seconds
    for name, seconds in sp.self_time_by_name(spans).items():
        if name not in sp.SETUP_SPANS:
            metrics[sp.SELF_TIME_METRIC[name]] = seconds
    metrics["lang.modules"] = setup_counts.get("lang.modules", 0)
    for key, value in counts.items():
        if key in metrics:
            metrics[key] = value
    for kind in ("plain", "monitored"):
        busy = metrics[f"runtime.{kind}_s"]
        steps = metrics[f"runtime.{kind}_steps"]
        metrics[f"runtime.{kind}_steps_per_s"] = steps / busy if busy else 0.0
    close_ms = [d * 1e3 for d in sp.durations(spans, "core.close")]
    metrics["core.close_ms.p50"] = percentile_or_zero(close_ms, 50)
    metrics["core.close_ms.p75"] = percentile_or_zero(close_ms, 75)
    recurrences = [s.counts["recurrences"] for s in samples
                   if "recurrences" in s.counts]
    metrics["core.recurrences_mean"] = (statistics.mean(recurrences)
                                        if recurrences else 0.0)
    op_counts = summed_counts(samples)
    metrics["fleet.stale"] = op_counts.get("stale", 0)
    metrics["fleet.duplicates"] = op_counts.get("duplicates", 0)
    envelopes = metrics["fleet.envelopes"]
    wasted = (metrics["fleet.quarantined"] + metrics["fleet.stale"]
              + metrics["fleet.duplicates"])
    metrics["fleet.useful_ratio"] = ((envelopes - wasted) / envelopes
                                     if envelopes else 0.0)
    metrics["analysis.hit_rate"] = hit_rate
    metrics["trace.wall_s"] = sum(sp.durations(spans, sp.OP_SPAN))
    metrics["trace.overhead"] = overhead
    metrics["error_rate"] = (sum(not s.ok for s in samples)
                             / len(samples))
    return metrics


def _replica_rounds(rounds: int) -> int:
    """Rounds re-run untraced, before and after the traced phase, to price
    the trace."""
    return max(1, rounds // 4)


def _iqr(values: List[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def _hits(contexts) -> List[int]:
    served = sum(c.stats.hits + c.stats.disk_hits for c in contexts)
    return [served, served + sum(c.stats.misses for c in contexts)]


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]

    from repro.corpus import all_bugs

    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    rounds = max(cls.min_rounds, math.ceil(args.seconds / cls.round_s))
    specs = all_bugs(include_extra=True)
    workload = cls(specs, args.seed, rounds)

    recorder = wrapped = None
    if args.trace:
        recorder = sp.SpanRecorder()
        wrapped = sp.install(recorder)
        recorder.active = sp.SETUP_SPANS
    try:
        workload.setup()
    finally:
        if wrapped is not None:
            wrapped.restore()
    setup_s = time.perf_counter() - _STARTED
    # What set-up built lives for the whole run; frozen, it is not
    # rescanned by every collection of the measured phase.
    gc.collect()
    gc.freeze()
    loop_before = host_loop_s()

    if args.trace:
        setup_spans, setup_counts = recorder.take()
        replica_rounds = range(_replica_rounds(rounds))
        before = run_ops(workload, replica_rounds)
        contexts = getattr(workload, "contexts", [])
        hits_before = _hits(contexts)
        wrapped = sp.install(recorder)
        recorder.active = sp.MEASURED_SPANS
        try:
            samples = run_ops(workload, range(rounds), recorder)
        finally:
            wrapped.restore()
        hits_after = _hits(contexts)
        spans, counts = recorder.take()
        # The same operations untraced, once before and once after the
        # traced phase, so warm-up favours neither side.
        after = run_ops(workload, replica_rounds)
        untraced = (sum(normalized(before)) + sum(normalized(after))) / 2
        traced = sum(normalized(samples)[:len(before)])
        served, total = (a - b for a, b in zip(hits_after, hits_before))
        values = per_layer(setup_spans, setup_counts, spans, counts,
                           samples, traced / untraced,
                           served / total if total else 0.0)
        units = dict(PER_LAYER)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        sp.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl",
                {"setup": setup_spans, "measure": spans})
    else:
        samples = run_ops(workload, range(rounds))
        # Set-up has no operations to sample host speed between, so it is
        # scaled by the measured phase's median loop time.
        scaled_setup_s = setup_s * CALIBRATION_REF_S / statistics.median(
            s.calibration for s in samples)
        values = end_to_end(samples, normalized(samples), scaled_setup_s)
        units = dict(END_TO_END)
    loop_after = host_loop_s()

    failed = sum(not s.ok for s in samples)
    op_s = [s.seconds for s in samples]
    calibrations = [s.calibration for s in samples]
    print(json.dumps({
        "context": dict(machine(), host_loop_before_s=loop_before,
                        host_loop_after_s=loop_after,
                        calibration_s=statistics.median(calibrations),
                        calibration_iqr_s=_iqr(calibrations),
                        workload=args.workload, seed=args.seed,
                        seconds=args.seconds, trace=args.trace,
                        rounds=rounds),
        "detail": {"operations": len(samples),
                   "raw": end_to_end(samples, op_s, setup_s),
                   "op_ms_tail": tail([t * 1e3 for t in normalized(samples)]),
                   "bug_median_s": {
                       spec.bug_id: statistics.median(
                           s.seconds for s in samples if s.bug == i)
                       for i, spec in enumerate(specs)},
                   "counts": summed_counts(samples),
                   "failed_ops": [f"{s.round}/{specs[s.bug].bug_id}"
                                  for s in samples if not s.ok]},
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
