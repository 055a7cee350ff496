"""Budget-scheduler policy: caps, starvation, floors, determinism."""

import pytest

from repro.control import BudgetScheduler


class FakeDriver:
    """Duck-typed stand-in for a CooperativeDeployment."""

    def __init__(self, recurrences=0, done=False, converged=False):
        self._recurrences = recurrences
        self.done = done
        self.converged = converged

    def recurrences(self):
        return self._recurrences


class TestBudgetCap:
    def test_allocations_never_exceed_round_budget(self):
        sched = BudgetScheduler("infogain", endpoints=4, quantum=8)
        drivers = {f"bug-{i}": FakeDriver(recurrences=i * 7)
                   for i in range(5)}
        alloc = sched.allocate(drivers)
        assert sum(alloc.values()) <= sched.round_budget == 32

    def test_single_campaign_gets_whole_round(self):
        sched = BudgetScheduler(endpoints=4, quantum=8)
        alloc = sched.allocate({"solo": FakeDriver(recurrences=3)})
        assert alloc == {"solo": 32}


class TestStarvation:
    def test_done_and_converged_get_zero(self):
        sched = BudgetScheduler("infogain", endpoints=4, quantum=4)
        alloc = sched.allocate({
            "hot": FakeDriver(recurrences=100),
            "finished": FakeDriver(recurrences=100, done=True),
            "converged": FakeDriver(recurrences=100, converged=True),
        })
        assert alloc["finished"] == 0
        assert alloc["converged"] == 0
        # The starved campaigns' share is recycled, not wasted.
        assert alloc["hot"] == sched.round_budget

    def test_all_done_allocates_nothing(self):
        sched = BudgetScheduler(endpoints=2, quantum=2)
        alloc = sched.allocate({"a": FakeDriver(done=True),
                                "b": FakeDriver(done=True)})
        assert alloc == {"a": 0, "b": 0}


class TestInfogainPolicy:
    def test_hot_campaign_outbids_cold(self):
        sched = BudgetScheduler("infogain", endpoints=8, quantum=8)
        alloc = sched.allocate({"hot": FakeDriver(recurrences=50),
                                "cold": FakeDriver(recurrences=0)})
        assert alloc["hot"] > alloc["cold"] >= 1

    def test_bootstrap_floor_keeps_cold_campaign_alive(self):
        # 10 hot campaigns must not starve the one still bootstrapping.
        sched = BudgetScheduler("infogain", endpoints=8, quantum=8)
        drivers = {f"hot-{i}": FakeDriver(recurrences=500)
                   for i in range(10)}
        drivers["cold"] = FakeDriver(recurrences=0)
        assert sched.allocate(drivers)["cold"] >= 1


class TestFairPolicy:
    def test_even_split_ignores_recurrences(self):
        sched = BudgetScheduler("fair", endpoints=4, quantum=4)
        alloc = sched.allocate({"hot": FakeDriver(recurrences=1000),
                                "cold": FakeDriver(recurrences=0)})
        assert alloc["hot"] == alloc["cold"] == 8


class TestDeterminism:
    def test_split_independent_of_dict_order(self):
        sched = BudgetScheduler("infogain", endpoints=3, quantum=3)
        drivers = {f"bug-{i}": FakeDriver(recurrences=i) for i in range(4)}
        reversed_drivers = dict(reversed(list(drivers.items())))
        assert sched.allocate(drivers) == sched.allocate(reversed_drivers)


class TestValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            BudgetScheduler("priority")

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            BudgetScheduler(endpoints=0)
        with pytest.raises(ValueError):
            BudgetScheduler(quantum=0)
