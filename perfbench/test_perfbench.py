"""Self-tests for the benchmark's own helpers.

Run from the root of a checkout::

    python3 -m unittest perfbench.test_perfbench
"""

from __future__ import annotations

import json
import sys
import threading
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import run, spans  # noqa: E402
from perfbench.summary import (offsets, panel_offsets,  # noqa: E402
                               percentile)


class PercentileTest(unittest.TestCase):
    def test_refuses_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(ValueError):
            percentile(list(range(39)), 75)
        with self.assertRaises(ValueError):
            percentile(list(range(999)), 99)
        with self.assertRaises(ValueError):
            percentile(list(range(19)), 50)

    def test_accepts_ten_samples_beyond(self):
        self.assertEqual(percentile(list(range(40)), 75), 29.25)
        self.assertEqual(percentile(list(range(100)), 90), 89.1)
        self.assertEqual(percentile(list(range(20)), 50), 9.5)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_trace_with_worker_thread_span(self):
        clock = FakeClock()
        rec = spans.SpanRecorder(clock)

        def worker_span():
            # The worker's stack is empty: its span joins the operation.
            clock.now = 3.0
            index = rec.push("runtime.monitored")
            clock.now = 6.0
            rec.pop(index)

        with rec.op("corpus-diagnose/0/bug") as root:
            clock.now = 1.0
            outer = rec.push("core.client")
            clock.now = 2.0
            inner = rec.push("pt.decode")
            clock.now = 3.0
            rec.pop(inner)
            thread = threading.Thread(target=worker_span)
            thread.start()
            thread.join(timeout=10)
            self.assertFalse(thread.is_alive())
            clock.now = 4.0
            rec.pop(outer)
            clock.now = 10.0
        recorded, _counts = rec.take()

        worker = next(s for s in recorded if s.name == "runtime.monitored")
        self.assertEqual(worker.parent, root)
        self.assertEqual(worker.op, "corpus-diagnose/0/bug")
        self.assertNotEqual(worker.thread, recorded[root].thread)
        own = dict(zip((s.name for s in recorded),
                       spans.self_times(recorded)))
        # Root [0,10] with children [1,4] and [3,6]: their union is 5 s.
        self.assertEqual(own["op"], 5.0)
        self.assertEqual(own["core.client"], 2.0)
        self.assertEqual(own["pt.decode"], 1.0)
        self.assertEqual(own["runtime.monitored"], 3.0)

    def test_sequential_self_times_sum_to_the_operation(self):
        clock = FakeClock()
        rec = spans.SpanRecorder(clock)
        with rec.op("fleet-plain/0/bug"):
            for start in (1.0, 5.0):
                clock.now = start
                index = rec.push("runtime.plain")
                clock.now = start + 2.0
                rec.pop(index)
            clock.now = 9.0
        recorded, _ = rec.take()
        totals = spans.self_time_by_name(recorded)
        self.assertEqual(totals, {"op": 5.0, "runtime.plain": 4.0})
        self.assertEqual(sum(totals.values()),
                         sum(spans.durations(recorded, "op")))


class OffsetsTest(unittest.TestCase):
    def test_seed_reproduces_offsets(self):
        self.assertEqual(offsets(7, 15), offsets(7, 15))

    def test_seeds_differ(self):
        self.assertNotEqual(offsets(7, 15), offsets(8, 15))
        self.assertEqual(len(set(offsets(7, 15))), 15)

    def test_panel_seed_reorders_the_same_offsets(self):
        panel = [(10 * b + 1, 10 * b + 2, 10 * b + 3) for b in range(15)]
        first = panel_offsets(7, 3, panel)
        self.assertEqual(first, panel_offsets(7, 3, panel))
        self.assertNotEqual(first, panel_offsets(8, 3, panel))
        for b, offsets_b in enumerate(panel):
            self.assertEqual(sorted(row[b] for row in first),
                             list(offsets_b))


class WrappingTest(unittest.TestCase):
    def test_restore_puts_every_original_back(self):
        from repro.core.client import GistClient
        from repro.core import client
        from repro.fleet import wire

        before = (GistClient.__dict__["run"], client.apply_patch,
                  wire.encode_monitored_run)
        wrapped = spans.install(spans.SpanRecorder())
        self.assertIsNot(GistClient.__dict__["run"], before[0])
        wrapped.restore()
        after = (GistClient.__dict__["run"], client.apply_patch,
                 wire.encode_monitored_run)
        for original, restored in zip(before, after):
            self.assertIs(original, restored)


class ReplayTamperTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from repro.corpus import get_bug
        from perfbench.workloads import ServerReplay

        cls.workload = ServerReplay([get_bug("ringbuf-1")], seed=3,
                                    rounds=1)
        cls.workload.setup()

    def _replay_with(self, tamper_kind):
        from perfbench.workloads import BLOB, Recording
        from repro.fleet import wire

        recording = self.workload.recordings[0]
        log = list(recording.log)
        for index, (kind, blob) in enumerate(log):
            if kind == BLOB and \
                    wire.decode_message(blob).type == tamper_kind:
                flipped = bytearray(blob)
                flipped[len(flipped) // 2] ^= 0x20
                log[index] = (kind, bytes(flipped))
                break
        else:
            self.fail(f"no {tamper_kind} envelope recorded")
        self.workload.recordings[0] = Recording(log, recording.sketch_text)
        try:
            return run.run_ops(self.workload, range(1))
        finally:
            self.workload.recordings[0] = recording

    def test_untouched_replay_passes(self):
        samples = run.run_ops(self.workload, range(1))
        self.assertTrue(samples[0].ok)

    def test_tampered_monitored_run_is_an_error(self):
        samples = self._replay_with("monitored_run")
        self.assertEqual(len(samples), 1)
        self.assertFalse(samples[0].ok)

    def test_tampered_failure_report_is_an_error(self):
        samples = self._replay_with("failure_report")
        self.assertEqual(len(samples), 1)
        self.assertFalse(samples[0].ok)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_match(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        from perfbench.workloads import WORKLOADS

        self.assertEqual(list(run.WORKLOAD_NAMES), list(WORKLOADS))
        names = [w["name"] for w in spec["workloads"]]
        self.assertLessEqual(set(names), set(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
