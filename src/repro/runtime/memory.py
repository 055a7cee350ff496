"""Simulated word-addressed memory.

The address space is partitioned into regions so that the rest of the system
can classify an address without metadata lookups (the paper's data-flow
tracker, for instance, refuses to watch stack addresses — §3.2.3):

====================  ==========================================
``0 .. 0xFFF``        the null page; any access faults (SEGFAULT)
``0x1000 ..``         globals
``0x80000 ..``        interned string data (read-only)
``0x100000 ..``       heap (bump-allocated blocks)
``0x10000000 ..``     per-thread stacks, ``0x100000`` slots apart
====================  ==========================================

Each slot holds one Python int, and a slot is mapped exactly while it may
be accessed: globals and strings for the whole run, a heap block from
``malloc`` to ``free``, a stack slot while its frame lives, and nothing in
the null page ever.  So every mapped slot is readable and every mapped one
outside the string data writable: an access that hits ``_slots`` cannot
fault, and only a miss pays for classification (:meth:`Memory._check`).
The heap keeps each block's bookkeeping after ``free`` unmaps its slots,
so a miss still tells double frees, use-after-free and out-of-bounds heap
accesses apart, the failure kinds the bug corpus needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .failures import FailureKind

NULL_PAGE_END = 0x1000
GLOBAL_BASE = 0x1000
STRING_BASE = 0x80000
HEAP_BASE = 0x100000
STACK_BASE = 0x10000000
STACK_STRIDE = 0x100000


class MemoryFault(Exception):
    """Raised by memory accesses that the hardware would trap on."""

    def __init__(self, kind: FailureKind, address: int, detail: str = "") -> None:
        super().__init__(f"{kind.value} at {hex(address)} {detail}".strip())
        self.kind = kind
        self.address = address
        self.detail = detail


@dataclass
class HeapBlock:
    """Bookkeeping for one heap allocation (liveness + alloc/free pcs)."""
    base: int
    size: int
    freed: bool = False
    alloc_pc: int = -1
    free_pc: int = -1


class Memory:
    """The simulated address space for one program execution."""

    def __init__(self) -> None:
        self._slots: Dict[int, int] = {}
        self._global_top = GLOBAL_BASE
        self._string_top = STRING_BASE
        self._heap_top = HEAP_BASE
        self._blocks: Dict[int, HeapBlock] = {}     # base -> block
        self._block_index: list = []                # sorted bases for lookup
        self._global_names: Dict[int, str] = {}     # base addr -> name
        self._global_bases: Dict[str, int] = {}     # name -> base addr
        self._global_regions: list = []             # (base, size, name)
        self._stack_tops: Dict[int, int] = {}       # tid -> next free slot

    # -- region classification ------------------------------------------------

    @staticmethod
    def region_of(address: int) -> str:
        """One of 'null', 'global', 'string', 'heap', 'stack'."""
        if address < NULL_PAGE_END:
            return "null"
        if address < STRING_BASE:
            return "global"
        if address < HEAP_BASE:
            return "string"
        if address < STACK_BASE:
            return "heap"
        return "stack"

    def is_shared(self, address: int) -> bool:
        """Heuristic the watchpoint planner uses: globals/heap/strings are
        potentially shared between threads; stack slots are not."""
        return self.region_of(address) in ("global", "heap", "string")

    # -- globals ------------------------------------------------------------------

    def map_global(self, name: str, size: int,
                   init: Tuple[int, ...] = ()) -> int:
        size = max(size, 1)
        base = self._global_top
        self._global_top += size
        self._global_names[base] = name
        self._global_bases[name] = base
        self._global_regions.append((base, size, name))
        for i in range(size):
            self._slots[base + i] = init[i] if i < len(init) else 0
        return base

    def global_base(self, name: str) -> int:
        return self._global_bases[name]

    def global_name_at(self, address: int) -> Optional[str]:
        """Reverse map an address to the global containing it, if any."""
        for base, size, name in self._global_regions:
            if base <= address < base + size:
                return name
        return None

    # -- strings --------------------------------------------------------------------

    def map_string(self, value: str) -> int:
        """Map a NUL-terminated string; returns its base address."""
        base = self._string_top
        for i, ch in enumerate(value):
            self._slots[base + i] = ord(ch)
        self._slots[base + len(value)] = 0
        self._string_top = base + len(value) + 1
        return base

    # -- heap ------------------------------------------------------------------------

    def malloc(self, size: int, pc: int = -1) -> int:
        if size <= 0:
            size = 1
        base = self._heap_top
        # A one-slot guard gap between blocks makes off-by-one heap accesses
        # land on unmapped slots and fault, like a poisoned redzone.
        self._heap_top = base + size + 1
        block = HeapBlock(base=base, size=size, alloc_pc=pc)
        self._blocks[base] = block
        self._block_index.append(base)
        for i in range(size):
            self._slots[base + i] = 0
        return base

    def free(self, address: int, pc: int = -1) -> None:
        if address == 0:
            return  # free(NULL) is a no-op, as in C
        block = self._blocks.get(address)
        if block is None:
            raise MemoryFault(FailureKind.SEGFAULT, address,
                              "free of a non-heap pointer")
        if block.freed:
            raise MemoryFault(FailureKind.DOUBLE_FREE, address,
                              f"(first freed at pc={block.free_pc})")
        block.freed = True
        block.free_pc = pc
        # Unmap: an access to the freed block now misses _slots and faults
        # in _check.  The bump allocator never hands the addresses out
        # again, so nothing can read the dropped values.
        slots = self._slots
        for addr in range(address, address + block.size):
            del slots[addr]

    def _block_containing(self, address: int) -> Optional[HeapBlock]:
        # Linear scan is fine: it runs only on heap misses, which are
        # faults, and corpus programs allocate tens of blocks.
        for base in self._block_index:
            block = self._blocks[base]
            if base <= address < base + block.size:
                return block
        return None

    # -- stacks -----------------------------------------------------------------------

    def stack_alloc(self, tid: int, size: int) -> int:
        top = self._stack_tops.setdefault(tid, STACK_BASE + tid * STACK_STRIDE)
        base = top
        self._stack_tops[tid] = top + max(size, 1)
        for i in range(size):
            self._slots[base + i] = 0
        return base

    def stack_release(self, tid: int, base: int) -> None:
        """Pop the stack back to ``base`` (frame teardown)."""
        top = self._stack_tops.get(tid)
        if top is not None and base <= top:
            for addr in range(base, top):
                self._slots.pop(addr, None)
            self._stack_tops[tid] = base

    # -- access ------------------------------------------------------------------------

    def _check(self, address: int, is_write: bool) -> None:
        if address < NULL_PAGE_END:
            raise MemoryFault(FailureKind.SEGFAULT, address,
                              "null-page access")
        region = self.region_of(address)
        if region == "heap":
            block = self._block_containing(address)
            if block is None:
                raise MemoryFault(FailureKind.OUT_OF_BOUNDS, address,
                                  "heap access outside any block")
            if block.freed:
                raise MemoryFault(FailureKind.USE_AFTER_FREE, address,
                                  f"(freed at pc={block.free_pc})")
            return
        if region == "string" and is_write:
            raise MemoryFault(FailureKind.SEGFAULT, address,
                              "write to read-only string data")
        if address not in self._slots:
            raise MemoryFault(FailureKind.SEGFAULT, address,
                              f"unmapped {region} access")

    def read(self, address: int) -> int:
        # Fast path: a mapped slot cannot fault on a read (freed heap
        # blocks are unmapped, and nothing below GLOBAL_BASE is ever
        # mapped), so the region checks collapse to one dict probe; only
        # a miss is classified.
        value = self._slots.get(address)
        if value is not None:
            return value
        self._check(address, is_write=False)
        return self._slots.get(address, 0)

    def write(self, address: int, value: int) -> None:
        # Fast path mirrors read() but excludes the read-only string
        # region (writes there must SEGFAULT via _check).
        if (address < STRING_BASE or address >= HEAP_BASE) \
                and address in self._slots:
            self._slots[address] = value
            return
        self._check(address, is_write=True)
        self._slots[address] = value

    # -- string helpers (builtins) ------------------------------------------------------

    def read_cstring(self, address: int, limit: int = 1 << 16) -> str:
        chars = []
        for i in range(limit):
            v = self.read(address + i)
            if v == 0:
                return "".join(chars)
            chars.append(chr(v & 0x10FFFF))
        raise MemoryFault(FailureKind.SEGFAULT, address,
                          "unterminated string")
