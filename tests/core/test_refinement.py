"""Slice refinement and global event ordering tests (§3.2)."""

import pytest

from repro.core import (MonitoredRun, RunningRefinement,
                        global_event_order, refine)
from repro.hw.watchpoints import TrapRecord


def trap(seq, tid, pc, addr=0x1000, write=False, value=0):
    return TrapRecord(seq=seq, tid=tid, pc=pc, address=addr,
                      is_write=write, value=value, slot=0)


def evidence(*runs):
    """The refinement aggregate of ``runs``."""
    agg = RunningRefinement()
    for run in runs:
        agg.add(run)
    return agg


class TestRefine:
    def test_removes_unexecuted_window_statements(self):
        run = MonitoredRun(run_id=0, executed={0: [1, 2, 3]})
        result = refine({1, 2, 3, 4, 5}, evidence(run))
        assert result.removed_uids == {4, 5}
        assert result.refined_uids() == {1, 2, 3}

    def test_union_across_runs(self):
        a = MonitoredRun(run_id=0, executed={0: [1, 2]})
        b = MonitoredRun(run_id=1, executed={0: [3]})
        result = refine({1, 2, 3, 4}, evidence(a, b))
        assert result.removed_uids == {4}

    def test_write_traps_always_discovered(self):
        run = MonitoredRun(run_id=0, executed={0: [1]},
                           traps=[trap(1, 0, 99, write=True)])
        result = refine({1}, evidence(run), slice_uids={1})
        assert 99 in result.discovered_uids

    def test_read_traps_filtered_by_slice(self):
        run = MonitoredRun(
            run_id=0, executed={0: [1]},
            traps=[trap(1, 0, 50, write=False),
                   trap(2, 0, 60, write=False)])
        result = refine({1}, evidence(run), slice_uids={1, 50})
        assert 50 in result.discovered_uids
        assert 60 not in result.discovered_uids

    def test_no_slice_filter_keeps_all(self):
        run = MonitoredRun(run_id=0, executed={0: [1]},
                           traps=[trap(1, 0, 60, write=False)])
        result = refine({1}, evidence(run), slice_uids=None)
        assert 60 in result.discovered_uids

    def test_window_members_not_rediscovered(self):
        run = MonitoredRun(run_id=0, executed={0: [1]},
                           traps=[trap(1, 0, 1, write=True)])
        result = refine({1}, evidence(run), slice_uids={1})
        assert result.discovered_uids == set()

    def test_aggregate_does_not_grow_with_runs(self):
        run = MonitoredRun(run_id=0, executed={0: [1, 2], 1: [3]},
                           traps=[trap(1, 0, 2, write=True)])
        once = evidence(run)
        many = evidence(*[run] * 50)
        assert many.tracked_bytes() == once.tracked_bytes()
        assert refine({1, 4}, many).refined_uids() == \
            refine({1, 4}, once).refined_uids() == {1, 2}


class TestGlobalEventOrder:
    def test_single_thread_keeps_local_order(self):
        run = MonitoredRun(run_id=0, executed={0: [5, 6, 7]})
        events = global_event_order(run)
        assert [e.uid for e in events] == [5, 6, 7]
        assert all(not e.anchored for e in events)

    def test_trap_anchors_order_across_threads(self):
        # T1 writes (seq 10) strictly before T0 reads (seq 20): the merge
        # must put T1's write first even though T0 has the lower tid.
        run = MonitoredRun(
            run_id=0,
            executed={0: [100, 101], 1: [200, 201]},
            traps=[trap(10, tid=1, pc=200, write=True),
                   trap(20, tid=0, pc=100)],
        )
        events = global_event_order(run)
        uid_order = [e.uid for e in events]
        assert uid_order.index(200) < uid_order.index(100)

    def test_interpolated_events_follow_their_anchor(self):
        run = MonitoredRun(
            run_id=0,
            executed={0: [100, 101], 1: [200, 201]},
            traps=[trap(10, tid=0, pc=100), trap(30, tid=1, pc=200)],
        )
        events = global_event_order(run)
        uid_order = [e.uid for e in events]
        # 101 follows its thread's anchor at seq 10, before T1's at 30.
        assert uid_order.index(101) < uid_order.index(200)

    def test_unmatched_traps_become_events(self):
        # A trap whose pc is absent from the PT stream (data-flow-only
        # observation) still appears, exactly ordered by its seq.
        run = MonitoredRun(
            run_id=0,
            executed={0: [1]},
            traps=[trap(5, tid=2, pc=999, write=True, value=42)],
        )
        events = global_event_order(run)
        ghost = [e for e in events if e.uid == 999]
        assert len(ghost) == 1
        assert ghost[0].anchored
        assert ghost[0].value == 42

    def test_anchored_events_carry_values(self):
        run = MonitoredRun(
            run_id=0,
            executed={0: [100]},
            traps=[trap(1, tid=0, pc=100, write=True, value=7)],
        )
        (event,) = global_event_order(run)
        assert event.anchored
        assert event.is_write
        assert event.value == 7

    def test_repeated_pc_matches_in_order(self):
        # The same instruction traps twice; both occurrences anchor.
        run = MonitoredRun(
            run_id=0,
            executed={0: [100, 100]},
            traps=[trap(1, 0, 100, value=1), trap(2, 0, 100, value=2)],
        )
        events = global_event_order(run)
        assert [e.value for e in events] == [1, 2]
