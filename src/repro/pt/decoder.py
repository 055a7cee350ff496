"""The decode side of the PT simulator.

Like the real libipt, the decoder owns a copy of the program and *replays*
control flow from it: the packet stream only disambiguates what static
analysis cannot — conditional branch outcomes (TNT) and return targets
(TIP).  Direct jumps and calls are followed through the GIR module without
consuming any packets, which is exactly why the trace is so compact.

The output is a list of :class:`TraceWindow` objects (one per PGE..PGD
span), each holding the executed instruction uids in order.  Gist's slice
refinement intersects these with the static slice (§3.2.2).  The walk also
records every conditional branch outcome it consumes, as a
``(branch uid, taken)`` fact per TNT bit: those facts are the branch
failure predictors (§3.3) and the branch arms of PT coverage, so nothing
re-derives them from the executed sequences.

:class:`PTDecoder` is table-driven: per-module successor tables (plain
successor / BR taken / BR not-taken, indexed by uid) are precomputed once
per module epoch, the packet cursor (the one implementation of the packet
grammar) scans bytes in a single pass with a memoized one-packet
lookahead, and pending TNT bits live in a packed integer.  The walk moves
one *straight-line run* at a time: the tuple of uids from an instruction
up to and including the next one that needs a packet (a BR or RET) or
cannot be resolved statically.  Per run it peeks the packet stream once
and extends the window by the whole tuple, so its cost follows the
packets, not the retired instructions.  Runs are built on first use and
cached with the module's other tables.

Given a *keep set* (:meth:`PTDecoder.decode`), the walk prunes in the
same pass: it filters each distinct run once per decode and collects the
kept uids of every window, in order, in :attr:`DecodedTrace.kept`.  This
is client-side evidence slicing (*Slicing Event Traces of Large Software
Systems*, PAPERS.md): an endpoint ships only the uids its patch's slice
can use, without materialising the full sequence first.

PT decode sits on the diagnosis path for every monitored run, so it is
built for speed; ``tests/golden/tiers.json`` pins its windows on every
corpus stream to digests recorded when it agreed with the original
object-walking decoder.

Byte-level corruption (a truncated packet, an unknown opcode byte),
stream/program mismatches (a missing TNT bit) and packets naming
instructions the program does not have (a window start or return target
outside the uid range) raise :class:`DecodeError` carrying the byte offset
of the offending packet — a trace is never silently truncated.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Collection, List, Optional, Set, Tuple

from ..lang.ir import Module, Opcode
from . import packets as P

#: Runaway guard: decoding never follows more instructions than this.
MAX_DECODE_STEPS = 5_000_000

_RUNAWAY = "decode budget exhausted (runaway reconstruction)"


class DecodeError(Exception):
    """The packet stream cannot be reconciled with the program.

    ``offset`` (when not None) is the byte offset into the raw buffer of
    the packet that triggered the error.
    """

    def __init__(self, message: str, offset: Optional[int] = None) -> None:
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass
class TraceWindow:
    """One contiguous traced region of one thread's execution."""

    start_uid: int
    end_uid: int = -1
    executed: List[int] = field(default_factory=list)
    truncated_by_overflow: bool = False
    #: PTWRITE-style data packets (§6 future-hardware mode), in order.
    mem_events: List["P.PTW"] = field(default_factory=list)


@dataclass
class DecodedTrace:
    """All windows recovered from one thread's packet buffer."""

    windows: List[TraceWindow] = field(default_factory=list)
    #: ``(branch uid, taken)`` for every TNT bit the walk consumed.  A BR
    #: whose window closed before its bit arrived records nothing.
    branches: Set[Tuple[int, bool]] = field(default_factory=set)
    #: Decoded with a keep set: the executed uids it holds, every
    #: window's in order (the windows' own ``executed`` stay empty).
    #: None for a full decode.
    kept: Optional[List[int]] = None

    def executed_uids(self) -> Set[int]:
        out: Set[int] = set()
        for window in self.windows:
            out.update(window.executed)
        return out

    def executed_sequence(self) -> List[int]:
        out: List[int] = []
        for window in self.windows:
            out.extend(window.executed)
        return out

    def mem_events(self) -> List["P.PTW"]:
        out: List["P.PTW"] = []
        for window in self.windows:
            out.extend(window.mem_events)
        return out


class _PacketCursor:
    """Single-pass byte-scanning packet reader with one-packet lookahead.

    ``peek()`` memoizes the parsed packet (and its start offset), so the
    following ``pop()`` re-decodes nothing.  ``offset`` is the start byte
    of the most recently *popped* packet; ``peek_offset()`` exposes the
    lookahead's.  ``packets_parsed`` counts parse work for the memoization
    regression tests.  Byte-level corruption raises :class:`DecodeError`
    with the offending packet's offset.
    """

    __slots__ = ("_buf", "_pos", "_memo", "exhausted", "offset",
                 "packets_parsed")

    def __init__(self, raw: bytes) -> None:
        self._buf = raw
        self._pos = 0
        #: Memoized lookahead: (packet, start offset) or None.
        self._memo: Optional[Tuple[P.Packet, int]] = None
        self.exhausted = False
        self.offset = 0
        self.packets_parsed = 0

    def _parse_next(self) -> Optional[Tuple[P.Packet, int]]:
        buf = self._buf
        pos = self._pos
        n = len(buf)
        while pos < n and buf[pos] == 0x00:  # PAD
            pos += 1
        if pos >= n:
            self._pos = pos
            self.exhausted = True
            return None
        start = pos
        byte = buf[pos]
        try:
            if byte == 0x02 and pos + 1 < n:
                nxt = buf[pos + 1]
                if nxt == 0x82:
                    pkt: P.Packet = P.PSB()
                    pos += 2
                elif nxt == 0xF3:
                    pkt = P.OVF()
                    pos += 2
                else:
                    raise P.PacketError(
                        f"unknown extended packet 0x02 {nxt:#x}")
            elif byte == 0x0D:
                uid, pos = P.decode_uleb128(buf, pos + 1)
                pkt = P.TIP(uid)
            elif byte == 0x11:
                uid, pos = P.decode_uleb128(buf, pos + 1)
                pkt = P.TIPPGE(uid)
            elif byte == 0x01:
                uid, pos = P.decode_uleb128(buf, pos + 1)
                pkt = P.TIPPGD(uid)
            elif byte == 0x19:
                if pos + 1 >= n:
                    raise P.PacketError("truncated PTW packet")
                is_write = bool(buf[pos + 1])
                uid, pos = P.decode_uleb128(buf, pos + 2)
                address, pos = P.decode_uleb128(buf, pos)
                value, pos = P.decode_zigzag(buf, pos)
                tsc, pos = P.decode_uleb128(buf, pos)
                pkt = P.PTW(uid, address, value, is_write, tsc)
            elif not byte & 1 and byte != 0:
                pkt = P._decode_tnt_byte(byte)
                pos += 1
            else:
                raise P.PacketError(f"unknown packet header {byte:#x} "
                                    f"at {pos}")
        except P.PacketError as exc:
            raise DecodeError(str(exc), offset=start) from exc
        self._pos = pos
        self.packets_parsed += 1
        return pkt, start

    def peek(self) -> Optional[P.Packet]:
        memo = self._memo
        if memo is None:
            if self.exhausted:
                return None
            memo = self._memo = self._parse_next()
            if memo is None:
                return None
        return memo[0]

    def peek_offset(self) -> int:
        """Start byte of the memoized lookahead (peek() first)."""
        return self._memo[1] if self._memo is not None else len(self._buf)

    def pop(self) -> Optional[P.Packet]:
        memo = self._memo
        if memo is None:
            if self.exhausted:
                return None
            memo = self._parse_next()
            if memo is None:
                return None
        else:
            self._memo = None
        self.offset = memo[1]
        return memo[0]


# Successor-table kinds.
_K_STRAIGHT = 0   # plain / JMP / user CALL: one statically known successor
_K_BR = 1         # conditional: needs a TNT bit
_K_RET = 2        # return: needs a TIP packet
_K_DYNAMIC = 3    # malformed IR: resolve lazily, failing where the walk does

#: Per-module successor tables, invalidated by analysis-epoch bumps.
_TABLE_CACHE: "weakref.WeakKeyDictionary[Module, Tuple[int, tuple]]" = \
    weakref.WeakKeyDictionary()


def _build_tables(module: Module):
    """Dense uid-indexed successor tables for one module.

    ``kind[uid]`` selects the walk action; ``succ[uid]`` is the fall-through
    successor for straight-line kinds, ``taken[uid]``/``nottaken[uid]`` the
    BR arms.  Instructions whose successor cannot be statically resolved
    (malformed labels, terminatorless blocks — ``Module.finalize`` does not
    verify, so hand-built or parsed GIR can carry them) are marked
    ``_K_DYNAMIC``: the walk resolves them through the module when it
    reaches them, so a malformed successor fails only if it is followed.
    ``runs[uid]`` is the straight-line run starting at ``uid``
    (:func:`_straight_run`), None until the walk first starts a run there:
    few uids ever start one (window starts, branch arms, return points),
    so building runs eagerly for every uid would cost quadratic memory in
    long straight-line code for runs nothing reads.
    """
    instrs = list(module.instructions())
    n = max((ins.uid for ins in instrs), default=-1) + 1
    kind = [_K_DYNAMIC] * n
    succ: List[int] = [-1] * n
    taken: List[int] = [-1] * n
    nottaken: List[int] = [-1] * n

    def block_first(func_name: str, label: str) -> int:
        return module.functions[func_name].blocks[label].instrs[0].uid

    for func in module.functions.values():
        for bb in func.blocks.values():
            block_instrs = bb.instrs
            last = len(block_instrs) - 1
            for i, ins in enumerate(block_instrs):
                uid = ins.uid
                op = ins.opcode
                try:
                    if op == Opcode.BR:
                        kind[uid] = _K_BR
                        taken[uid] = block_first(ins.func_name,
                                                 ins.labels[0])
                        nottaken[uid] = block_first(ins.func_name,
                                                    ins.labels[1])
                    elif op == Opcode.RET:
                        kind[uid] = _K_RET
                    elif op == Opcode.JMP:
                        kind[uid] = _K_STRAIGHT
                        succ[uid] = block_first(ins.func_name, ins.labels[0])
                    elif op == Opcode.CALL and \
                            ins.callee in module.functions:
                        callee = module.functions[ins.callee]
                        kind[uid] = _K_STRAIGHT
                        succ[uid] = callee.blocks[callee.entry].instrs[0].uid
                    elif i < last:
                        kind[uid] = _K_STRAIGHT
                        succ[uid] = block_instrs[i + 1].uid
                    # else: non-terminator at block end — leave _K_DYNAMIC.
                except (KeyError, IndexError):
                    kind[uid] = _K_DYNAMIC
    return kind, succ, taken, nottaken, [None] * n


def _straight_run(kind, succ, uid: int) -> Tuple[int, ...]:
    """The uids the walk retires from ``uid`` without a packet: ``uid``,
    then its straight-line successors, up to and including the first
    instruction that is not ``_K_STRAIGHT`` (a BR, a RET, or one the tables
    could not resolve).  A straight-line cycle (a JMP loop with no BR) ends
    its run before the first repeat; the walk continues through ``succ``
    into the run that starts there, so a runaway loop still exhausts the
    decode budget."""
    run = [uid]
    seen = {uid}
    while kind[uid] == _K_STRAIGHT:
        uid = succ[uid]
        if uid in seen:
            break
        run.append(uid)
        seen.add(uid)
    return tuple(run)


def _module_tables(module: Module):
    cached = _TABLE_CACHE.get(module)
    epoch = module.analysis_epoch
    if cached is not None and cached[0] == epoch:
        return cached[1]
    tables = _build_tables(module)
    _TABLE_CACHE[module] = (epoch, tables)
    return tables


class PTDecoder:
    """Reconstructs executed-instruction sequences from raw PT buffers.

    Table-driven: see the module docstring.
    """

    def __init__(self, module: Module) -> None:
        if not module.finalized:
            raise ValueError("module must be finalized")
        self.module = module
        (self._kind, self._succ, self._taken, self._nottaken,
         self._runs) = _module_tables(module)

    # -- dynamic successor resolution (malformed IR) ------------------------

    def _entry_uid(self, func_name: str) -> int:
        func = self.module.functions[func_name]
        return func.blocks[func.entry].instrs[0].uid

    def _block_first_uid(self, func_name: str, label: str) -> int:
        return self.module.functions[func_name].blocks[label].instrs[0].uid

    def _next_uid(self, uid: int) -> int:
        ins = self.module.instr(uid)
        bb = self.module.block_of(ins)
        return bb.instrs[ins.index_in_block + 1].uid

    def _resolve_dynamic(self, uid: int) -> int:
        """Successor of a uid the tables could not resolve statically
        (raises the module's lookup error when there is none)."""
        ins = self.module.instr(uid)
        op = ins.opcode
        if op == Opcode.JMP:
            return self._block_first_uid(ins.func_name, ins.labels[0])
        if op == Opcode.CALL and ins.callee in self.module.functions:
            return self._entry_uid(ins.callee)
        return self._next_uid(uid)

    # -- decoding -----------------------------------------------------------

    def decode(self, raw: bytes,
               keep: Optional[Collection[int]] = None) -> DecodedTrace:
        """Decode one thread's packet buffer.

        With ``keep`` (a container of uids), the walk prunes as it goes:
        :attr:`DecodedTrace.kept` collects the executed uids ``keep``
        holds, in order across windows, and the windows' ``executed``
        lists stay empty.  Window bounds, ``mem_events`` and branch facts
        are those of a full decode either way, and so is every error.
        """
        trace = DecodedTrace()
        cursor = _PacketCursor(raw)
        budget = MAX_DECODE_STEPS
        pruned = None
        if keep is not None:
            trace.kept = []
            # Per start uid: its run filtered by ``keep``, once per decode.
            pruned = [None] * len(self._kind)
        while True:
            pkt = cursor.pop()
            if pkt is None:
                return trace
            tp = type(pkt)
            if tp is P.PSB or tp is P.OVF:
                continue
            if tp is P.TIPPGE:
                if not 0 <= pkt.uid < len(self._kind):
                    raise DecodeError(f"window start uid {pkt.uid} is "
                                      f"outside the program",
                                      offset=cursor.offset)
                window = TraceWindow(start_uid=pkt.uid)
                if keep is None:
                    budget = self._walk(window, cursor, budget,
                                        trace.branches, window.executed)
                else:
                    budget = self._walk(window, cursor, budget,
                                        trace.branches, trace.kept, keep,
                                        pruned)
                trace.windows.append(window)
                continue
            # A dangling TNT/TIP/PGD outside any window: tolerated (can
            # happen after an overflow resync); skip to the next PGE.

    def _walk(self, window: TraceWindow, cursor: _PacketCursor,
              budget: int, branches: Set[Tuple[int, bool]],
              out: List[int], keep: Optional[Collection[int]] = None,
              pruned: Optional[list] = None) -> int:
        """Follow control flow from the window start, consuming packets.

        One iteration retires one straight-line run (:func:`_straight_run`):
        it drains PTW packets and peeks the next packet once, extends
        ``out`` by the run (by its ``keep``-filtered tuple, cached per
        start uid in ``pruned``, when pruning), then acts on the run's last
        instruction.  A PGD whose uid lies in the run, arriving with no TNT
        bits pending, cuts the run after that uid and ends the window
        (tracing was switched off exactly there: straight-line guesses
        beyond it would be phantoms, e.g. code "after" a failed
        assertion).  The budget counts uids, so a runaway stream fails on
        the same uid a per-instruction walk would.

        Pending TNT bits are a packed integer (oldest outcome at the least
        significant bit).  Each consumed bit adds its ``(branch uid,
        taken)`` fact to ``branches``.
        """
        kind = self._kind
        succ = self._succ
        taken = self._taken
        nottaken = self._nottaken
        runs = self._runs
        extend = out.extend
        add_branch = branches.add
        mem_events = window.mem_events
        peek = cursor.peek
        pop = cursor.pop
        tnt_val = 0
        tnt_len = 0
        uid = window.start_uid
        while True:
            run = runs[uid]
            if run is None:
                run = runs[uid] = _straight_run(kind, succ, uid)
            if budget <= 1:
                raise DecodeError(_RUNAWAY)
            nxt_pkt = peek()
            while type(nxt_pkt) is P.PTW:
                mem_events.append(pop())
                nxt_pkt = peek()
            if type(nxt_pkt) is P.TIPPGD and not tnt_len and \
                    nxt_pkt.uid in run:
                cut = run.index(nxt_pkt.uid) + 1
                if budget <= cut:
                    raise DecodeError(_RUNAWAY)
                pop()
                run = run[:cut]
                extend(run if pruned is None
                       else [u for u in run if u in keep])
                window.end_uid = run[-1]
                return budget - cut
            budget -= len(run)
            if budget <= 0:
                raise DecodeError(_RUNAWAY)
            if pruned is None:
                extend(run)
            else:
                kept = pruned[uid]
                if kept is None:
                    kept = pruned[uid] = tuple(u for u in run if u in keep)
                extend(kept)
            uid = run[-1]
            k = kind[uid]
            if k == _K_BR:
                if not tnt_len:
                    refilled = self._refill_tnt(cursor, window, uid)
                    if refilled is None:
                        return budget
                    tnt_val, tnt_len = refilled
                bit = tnt_val & 1
                add_branch((uid, bit == 1))
                uid = taken[uid] if bit else nottaken[uid]
                tnt_val >>= 1
                tnt_len -= 1
            elif k == _K_RET:
                target = self._need_tip(tnt_len, cursor, window, uid)
                if target is None or target < 0:
                    if window.end_uid == -1:
                        window.end_uid = uid
                    return budget
                uid = target
            elif k == _K_STRAIGHT:
                uid = succ[uid]  # a straight-line cycle's repeat
            else:
                ins = self.module.instr(uid)
                if ins.opcode == Opcode.BR:
                    # BR whose labels failed static resolution: consume a
                    # TNT bit first (reference order), then fail the lookup.
                    if not tnt_len:
                        refilled = self._refill_tnt(cursor, window, uid)
                        if refilled is None:
                            return budget
                        tnt_val, tnt_len = refilled
                    bit = tnt_val & 1
                    add_branch((uid, bit == 1))
                    label = ins.labels[0] if bit else ins.labels[1]
                    tnt_val >>= 1
                    tnt_len -= 1
                    uid = self._block_first_uid(ins.func_name, label)
                else:
                    uid = self._resolve_dynamic(uid)

    # -- packet needs -------------------------------------------------------

    def _refill_tnt(self, cursor: _PacketCursor, window: TraceWindow,
                    at_uid: int) -> Optional[Tuple[int, int]]:
        """Pull packets until TNT bits arrive.  Returns the packed queue,
        or None when the window closed (stream end, PGD, overflow)."""
        while True:
            pkt = cursor.pop()
            if pkt is None:
                window.end_uid = at_uid
                return None
            tp = type(pkt)
            if tp is P.TNT:
                val = 0
                n = 0
                for bit in pkt.bits:
                    if bit:
                        val |= 1 << n
                    n += 1
                return val, n
            if tp is P.PTW:
                window.mem_events.append(pkt)
            elif tp is P.TIPPGD:
                self._finish_window(window, pkt.uid, at_uid)
                return None
            elif tp is P.OVF:
                window.truncated_by_overflow = True
                window.end_uid = at_uid
                return None
            elif tp is P.PSB:
                continue
            else:
                raise DecodeError(
                    f"expected TNT at uid {at_uid}, got {pkt!r}",
                    offset=cursor.offset)

    def _need_tip(self, tnt_len: int, cursor: _PacketCursor,
                  window: TraceWindow, at_uid: int) -> Optional[int]:
        # Any buffered TNT bits must be drained before a TIP in a valid
        # stream; the encoder flushes on TIP, so leftovers mean corruption.
        if tnt_len:
            raise DecodeError(f"unconsumed TNT bits before return "
                              f"at uid {at_uid}", offset=cursor.offset)
        while True:
            pkt = cursor.pop()
            if pkt is None:
                window.end_uid = at_uid
                return None
            tp = type(pkt)
            if tp is P.TIP:
                # A negative target is a thread exit; the walk ends there.
                if pkt.uid >= len(self._kind):
                    raise DecodeError(f"return target uid {pkt.uid} is "
                                      f"outside the program",
                                      offset=cursor.offset)
                return pkt.uid
            if tp is P.PTW:
                window.mem_events.append(pkt)
                continue
            if tp is P.TIPPGD:
                self._finish_window(window, pkt.uid, at_uid)
                return None
            if tp is P.OVF:
                window.truncated_by_overflow = True
                window.end_uid = at_uid
                return None
            if tp is P.PSB:
                continue
            raise DecodeError(f"expected TIP at uid {at_uid}, got {pkt!r}",
                              offset=cursor.offset)

    def _finish_window(self, window: TraceWindow, pgd_uid: int,
                       at_uid: int) -> None:
        """Close a window on a PGD that arrived where the walk needed a
        packet, at ``at_uid`` (a BR or RET).  The PGD's uid says where
        tracing was switched off; a negative one (thread exit) names no
        instruction, so the window ends at ``at_uid``.  No executed uid
        lies between the two: everything after ``at_uid`` needed the
        packet the PGD stands in for."""
        window.end_uid = pgd_uid if pgd_uid >= 0 else at_uid
