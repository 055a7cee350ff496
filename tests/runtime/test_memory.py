"""Memory subsystem tests."""

import pytest

from repro.runtime.failures import FailureKind
from repro.runtime.memory import (
    GLOBAL_BASE,
    HEAP_BASE,
    Memory,
    MemoryFault,
    STACK_BASE,
    STRING_BASE,
)


@pytest.fixture
def mem():
    return Memory()


class TestRegions:
    def test_region_classification(self, mem):
        assert Memory.region_of(0) == "null"
        assert Memory.region_of(GLOBAL_BASE) == "global"
        assert Memory.region_of(STRING_BASE) == "string"
        assert Memory.region_of(HEAP_BASE) == "heap"
        assert Memory.region_of(STACK_BASE) == "stack"

    def test_shared_heuristic(self, mem):
        assert mem.is_shared(GLOBAL_BASE)
        assert mem.is_shared(HEAP_BASE)
        assert not mem.is_shared(STACK_BASE + 10)
        assert not mem.is_shared(0)


class TestNullPage:
    def test_read_null_faults(self, mem):
        with pytest.raises(MemoryFault) as err:
            mem.read(0)
        assert err.value.kind is FailureKind.SEGFAULT

    def test_write_near_null_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.write(0xFFF, 1)


class TestGlobals:
    def test_map_and_access(self, mem):
        base = mem.map_global("counter", 1, (42,))
        assert mem.read(base) == 42
        mem.write(base, 43)
        assert mem.read(base) == 43

    def test_initializer_padding(self, mem):
        base = mem.map_global("arr", 4, (1, 2))
        assert [mem.read(base + i) for i in range(4)] == [1, 2, 0, 0]

    def test_reverse_lookup(self, mem):
        base = mem.map_global("a", 3)
        mem.map_global("b", 2)
        assert mem.global_name_at(base + 2) == "a"
        assert mem.global_name_at(mem.global_base("b")) == "b"
        assert mem.global_name_at(0x500000) is None

    def test_globals_packed_consecutively(self, mem):
        a = mem.map_global("a", 3)
        b = mem.map_global("b", 1)
        assert b == a + 3

    def test_unmapped_global_region_faults(self, mem):
        mem.map_global("only", 1)
        with pytest.raises(MemoryFault):
            mem.read(GLOBAL_BASE + 100)


class TestHeap:
    def test_malloc_zeroed(self, mem):
        base = mem.malloc(4)
        assert [mem.read(base + i) for i in range(4)] == [0, 0, 0, 0]

    def test_blocks_have_guard_gap(self, mem):
        a = mem.malloc(2)
        b = mem.malloc(2)
        assert b >= a + 3  # one-slot redzone

    def test_out_of_bounds_faults(self, mem):
        base = mem.malloc(2)
        with pytest.raises(MemoryFault) as err:
            mem.read(base + 2)
        assert err.value.kind is FailureKind.OUT_OF_BOUNDS

    def test_double_free(self, mem):
        base = mem.malloc(1)
        mem.free(base)
        with pytest.raises(MemoryFault) as err:
            mem.free(base)
        assert err.value.kind is FailureKind.DOUBLE_FREE

    def test_free_records_pc(self, mem):
        base = mem.malloc(1, pc=11)
        mem.free(base, pc=22)
        with pytest.raises(MemoryFault) as err:
            mem.read(base)
        assert "22" in err.value.detail

    def test_use_after_free(self, mem):
        base = mem.malloc(3)
        mem.write(base + 1, 7)
        mem.free(base)
        with pytest.raises(MemoryFault) as err:
            mem.read(base + 1)
        assert err.value.kind is FailureKind.USE_AFTER_FREE
        with pytest.raises(MemoryFault):
            mem.write(base, 1)

    def test_free_unmaps_exactly_the_block(self, mem):
        mem.map_global("g", 1)
        before = mem.malloc(2)
        block = mem.malloc(3)
        after = mem.malloc(1)
        mapped = set(mem._slots)
        mem.free(block, pc=5)
        assert mapped - set(mem._slots) == set(range(block, block + 3))
        assert set(mem._slots) <= mapped
        mem.write(before + 1, 4)  # the neighbours stay live
        assert mem.read(before + 1) == 4
        assert mem.read(after) == 0
        for address in range(block, block + 3):
            with pytest.raises(MemoryFault) as err:
                mem.read(address)
            assert err.value.kind is FailureKind.USE_AFTER_FREE
            assert err.value.detail == "(freed at pc=5)"

    def test_free_null_is_noop(self, mem):
        mem.free(0)  # must not raise

    def test_free_non_heap_pointer_faults(self, mem):
        base = mem.map_global("g", 1)
        with pytest.raises(MemoryFault) as err:
            mem.free(base)
        assert err.value.kind is FailureKind.SEGFAULT

    def test_free_interior_pointer_faults(self, mem):
        base = mem.malloc(4)
        with pytest.raises(MemoryFault):
            mem.free(base + 1)

    def test_zero_size_malloc_gets_one_slot(self, mem):
        base = mem.malloc(0)
        mem.write(base, 1)
        assert mem.read(base) == 1


class TestStrings:
    def test_map_string_nul_terminated(self, mem):
        base = mem.map_string("ab")
        assert mem.read(base) == ord("a")
        assert mem.read(base + 1) == ord("b")
        assert mem.read(base + 2) == 0

    def test_read_cstring(self, mem):
        base = mem.map_string("hello")
        assert mem.read_cstring(base) == "hello"
        assert mem.read_cstring(base + 1) == "ello"

    def test_string_region_read_only(self, mem):
        base = mem.map_string("x")
        with pytest.raises(MemoryFault):
            mem.write(base, 65)

    def test_empty_string(self, mem):
        base = mem.map_string("")
        assert mem.read_cstring(base) == ""


class TestStacks:
    def test_per_thread_isolation(self, mem):
        a = mem.stack_alloc(0, 4)
        b = mem.stack_alloc(1, 4)
        assert abs(a - b) >= 0x100000

    def test_stack_release(self, mem):
        base = mem.stack_alloc(0, 2)
        top = mem.stack_alloc(0, 2)
        mem.write(top, 9)
        mem.stack_release(0, top)
        with pytest.raises(MemoryFault):
            mem.read(top)
        mem.write(base, 5)  # lower frame still alive
        assert mem.read(base) == 5

    def test_stack_zeroed(self, mem):
        base = mem.stack_alloc(2, 3)
        assert [mem.read(base + i) for i in range(3)] == [0, 0, 0]
