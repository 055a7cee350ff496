"""Scheduler tests, including determinism properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.scheduler import (
    FixedScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)


class TestRoundRobin:
    def test_runs_quantum_then_switches(self):
        s = RoundRobinScheduler(quantum=3)
        picks = [s.pick([0, 1], 0 if i else None) for i in range(8)]
        # After the first pick, thread 0 runs its quantum then 1 takes over.
        assert picks[0] == 0

    def test_cycles_through_all(self):
        s = RoundRobinScheduler(quantum=1)
        current = None
        seen = []
        for step in range(6):
            current = s.pick([0, 1, 2], current)
            seen.append(current)
        assert set(seen) == {0, 1, 2}

    def test_skips_unrunnable_current(self):
        s = RoundRobinScheduler(quantum=10)
        assert s.pick([1, 2], 0) in (1, 2)

    def test_invalid_quantum(self):
        with pytest.raises(ValueError):
            RoundRobinScheduler(quantum=0)


class TestRandom:
    def test_same_seed_same_decisions(self):
        a = RandomScheduler(seed=7, switch_prob=0.3)
        b = RandomScheduler(seed=7, switch_prob=0.3)
        pa = [a.pick([0, 1, 2], 0) for i in range(200)]
        pb = [b.pick([0, 1, 2], 0) for i in range(200)]
        assert pa == pb

    def test_different_seeds_differ(self):
        a = RandomScheduler(seed=1, switch_prob=0.5)
        b = RandomScheduler(seed=2, switch_prob=0.5)
        pa = [a.pick([0, 1], 0) for i in range(100)]
        pb = [b.pick([0, 1], 0) for i in range(100)]
        assert pa != pb

    def test_zero_switch_prob_sticks_with_current(self):
        s = RandomScheduler(seed=3, switch_prob=0.0)
        assert all(s.pick([0, 1], 0) == 0 for i in range(50))

    def test_picks_only_runnable(self):
        s = RandomScheduler(seed=11, switch_prob=1.0)
        for i in range(100):
            assert s.pick([3, 5], 3) in (3, 5)

    def test_invalid_prob(self):
        with pytest.raises(ValueError):
            RandomScheduler(seed=0, switch_prob=1.5)

    @given(seed=st.integers(0, 10_000), prob=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_always_returns_runnable(self, seed, prob):
        s = RandomScheduler(seed=seed, switch_prob=prob)
        runnable = [2, 4, 9]
        for i in range(20):
            assert s.pick(runnable, 2) in runnable


class TestFixed:
    def test_follows_plan(self):
        s = FixedScheduler([(0, 2), (1, 3), (0, 1)])
        picks = [s.pick([0, 1], None) for i in range(6)]
        assert picks == [0, 0, 1, 1, 1, 0]

    def test_falls_back_after_plan(self):
        s = FixedScheduler([(1, 1)])
        assert s.pick([0, 1], None) == 1
        assert s.pick([0, 1], 1) == 0  # lowest runnable

    def test_skips_blocked_planned_thread(self):
        s = FixedScheduler([(2, 5), (0, 1)])
        # Thread 2 is not runnable: its quantum is abandoned.
        assert s.pick([0, 1], None) == 0

    def test_empty_plan(self):
        s = FixedScheduler([])
        assert s.pick([4, 7], None) == 4

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4)),
                    max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_never_picks_unrunnable(self, plan):
        s = FixedScheduler(plan)
        runnable = [0, 1]
        for i in range(12):
            assert s.pick(runnable, None) in runnable
