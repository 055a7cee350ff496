"""PCT scheduler tests."""

import pytest

from repro.lang import compile_source
from repro.runtime import PCTScheduler, RandomScheduler, run_program


class TestMechanics:
    def test_deterministic_per_seed(self):
        a = PCTScheduler(seed=5, depth=3, expected_steps=100)
        b = PCTScheduler(seed=5, depth=3, expected_steps=100)
        pa = [a.pick([0, 1, 2], None) for i in range(100)]
        pb = [b.pick([0, 1, 2], None) for i in range(100)]
        assert pa == pb

    def test_highest_priority_runs_until_change_point(self):
        sched = PCTScheduler(seed=1, depth=1, expected_steps=100)
        picks = {sched.pick([0, 1], None) for i in range(50)}
        # depth=1 means no change points: one thread monopolizes.
        assert len(picks) == 1

    def test_change_points_demote(self):
        sched = PCTScheduler(seed=3, depth=4, expected_steps=30)
        seen = set()
        for i in range(200):
            seen.add(sched.pick([0, 1], None))
        # With several change points inside the horizon, both threads run.
        assert seen == {0, 1}

    def test_only_runnable_returned(self):
        sched = PCTScheduler(seed=7, depth=3, expected_steps=50)
        for i in range(100):
            assert sched.pick([4, 9], None) in (4, 9)

    def test_unknown_tids_get_priorities(self):
        sched = PCTScheduler(seed=2, depth=2, max_threads=2)
        assert sched.pick([40, 41], None) in (40, 41)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            PCTScheduler(seed=0, depth=0)


RACY = """
int x = 0;
int y = 0;
void w(int v) {
    x = 1;
    y = 1;
}
int main() {
    int t = thread_create(w, 0);
    int ly = y;
    int lx = x;
    thread_join(t);
    // Order violation visible only when the write of y lands between
    // the two reads: ly == 1 requires x written first, so lx must be 1.
    assert(!(ly == 1 && lx == 0), "causality");
    return 0;
}
"""


class TestBugFinding:
    def test_pct_drives_real_executions(self):
        module = compile_source(RACY)
        outcomes = set()
        for seed in range(30):
            out = run_program(module,
                              scheduler=PCTScheduler(seed, depth=3,
                                                     expected_steps=80))
            outcomes.add(out.failed)
        # PCT explores orderings; all runs complete without hangs.
        assert outcomes <= {True, False}

    def test_pct_finds_narrow_window_faster_than_uniform(self):
        # A two-change-point ordering bug: statistically, PCT at depth 2-3
        # hits it at least as often as low-probability uniform preemption.
        src = """
            int stage = 0;
            void w(int v) {
                stage = 1;
                stage = 2;
            }
            int main() {
                int t = thread_create(w, 0);
                int s = stage;
                thread_join(t);
                assert(s != 1, "observed the intermediate state");
                return 0;
            }
        """
        module = compile_source(src)
        pct_hits = sum(
            run_program(module, scheduler=PCTScheduler(s, depth=3,
                                                       expected_steps=40)
                        ).failed
            for s in range(150))
        uniform_hits = sum(
            run_program(module, scheduler=RandomScheduler(s, 0.02)).failed
            for s in range(150))
        assert pct_hits > uniform_hits
        assert pct_hits > 0
