"""Thread schedulers.

Concurrency bugs in the corpus manifest only under particular interleavings,
so scheduling is a first-class, *seeded* concern:

- :class:`RandomScheduler` drives "production" runs: each seed is one
  simulated user execution, and some seeds produce the failing interleaving.
- :class:`RoundRobinScheduler` is a deterministic sanity scheduler.
- :class:`FixedScheduler` replays an explicit interleaving; corpus bugs use
  it to pin down their *failing* schedule, and the record/replay baseline
  uses it to prove faithful replay.

Schedulers decide at every instruction boundary, and are additionally
consulted at *yield points* (blocking sync ops, usleep), which is where real
preemption is most likely and where races interleave.

A scheduler's per-step decision comes in two forms: :meth:`Scheduler.pick`
answers it in one call, and :meth:`Scheduler.split_pick` hands out its two
halves — a draw that decides whether to switch and a consult that chooses
the next thread — so the compiled tier's generated gate can draw inline
and call back into Python only when the draw says "switch".
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

#: ``consult(runnable, current)``: the thread that runs next.
Consult = Callable[[Sequence[int], Optional[int]], int]


class Scheduler:
    """Picks which runnable thread executes the next instruction.

    Contract, on the scheduler's *state stream*: over a run, the
    scheduler's state (seeded RNGs, quantum and step counters) advances
    exactly as one :meth:`pick` per retired instruction would advance it —
    *including* steps where only one thread is runnable.  An "optimized"
    loop that skipped single-thread picks would desync every interleaving
    downstream of the first spawn.

    The decoded tier and every full pick of the interpreter's main loop
    call :meth:`pick` itself.  The compiled tier's per-instruction gate
    instead runs :meth:`split_pick`'s halves: ``draw() < threshold`` and,
    only when that holds, ``consult(runnable, current)``; the current
    thread keeps running when the draw fails or the consult names it.  At a
    gate the current thread is always runnable, so a scheduler whose
    ``pick`` is exactly "keep ``current`` unless ``draw() < threshold``,
    else ``consult``" consumes the same state either way.  The tier
    equivalence and scheduler-stream tests pin both tiers to one stream.
    """

    def pick(self, runnable: Sequence[int], current: Optional[int]) -> int:
        raise NotImplementedError

    def split_pick(self) -> Tuple[Callable[[], float], float, Consult]:
        """``(draw, threshold, consult)``: the per-step decision in two
        halves, for a caller whose current thread is runnable.

        The default never skips a consult — ``float()`` draws 0.0, below
        the threshold 1.0 — and consults :meth:`pick`, so a scheduler that
        does not split its decision still sees every step."""
        return float, 1.0, self.pick

    def describe(self) -> str:
        return type(self).__name__


class RoundRobinScheduler(Scheduler):
    """Runs each thread for ``quantum`` steps, cycling in tid order."""

    def __init__(self, quantum: int = 50) -> None:
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.quantum = quantum
        self._remaining = quantum

    def pick(self, runnable: Sequence[int], current: Optional[int]) -> int:
        if current in runnable and self._remaining > 0:
            self._remaining -= 1
            return current  # type: ignore[return-value]
        self._remaining = self.quantum - 1
        if current is None or current not in runnable:
            return runnable[0]
        ordered = sorted(runnable)
        for tid in ordered:
            if tid > current:
                return tid
        return ordered[0]

    def describe(self) -> str:
        return f"round-robin(quantum={self.quantum})"


class RandomScheduler(Scheduler):
    """Seeded random preemption.

    ``switch_prob`` is the per-step probability of a context switch; the
    default (0.02) preempts every ~50 instructions, small enough that most
    runs of a racy program succeed and a minority fail — the regime the
    paper's cooperative setting assumes (rare in-production failures).
    """

    def __init__(self, seed: int, switch_prob: float = 0.02) -> None:
        if not 0.0 <= switch_prob <= 1.0:
            raise ValueError("switch_prob must be within [0, 1]")
        self.seed = seed
        self.switch_prob = switch_prob
        self._rng = random.Random(seed)

    def pick(self, runnable: Sequence[int], current: Optional[int]) -> int:
        if current in runnable and self._rng.random() >= self.switch_prob:
            return current  # type: ignore[return-value]
        return self._consult(runnable, current)

    def split_pick(self) -> Tuple[Callable[[], float], float, Consult]:
        """One C-level draw per step; Python code only on a switch."""
        return self._rng.random, self.switch_prob, self._consult

    def _consult(self, runnable: Sequence[int],
                 current: Optional[int]) -> int:
        return runnable[self._rng.randrange(len(runnable))]

    def describe(self) -> str:
        return f"random(seed={self.seed}, p={self.switch_prob})"


class PCTScheduler(Scheduler):
    """Probabilistic Concurrency Testing (Burckhardt et al.; the approach
    behind the paper's [47] CHESS/Heisenbugs line of work).

    Threads get distinct random priorities; the scheduler always runs the
    highest-priority runnable thread, except at ``depth - 1`` pre-chosen
    *change points* where the current thread's priority drops below
    everyone else's.  For a bug of depth d, a run finds it with probability
    ≥ 1/(n · k^(d-1)) — much better than uniform random preemption for
    rare orderings, which makes PCT a useful corpus-calibration tool.
    """

    def __init__(self, seed: int, depth: int = 3,
                 expected_steps: int = 10_000, max_threads: int = 16) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.seed = seed
        self.depth = depth
        rng = random.Random(seed)
        # Initial priorities: a random permutation band well above the
        # change-point priorities (which are 0..depth-2, lower = weaker).
        base = list(range(depth, depth + max_threads))
        rng.shuffle(base)
        self._priorities = {tid: base[tid % max_threads]
                            for tid in range(max_threads)}
        self._change_points = sorted(
            rng.randrange(max(expected_steps, 1))
            for _ in range(depth - 1))
        self._next_change = 0
        self._steps = 0
        self._rng = rng

    def _priority(self, tid: int) -> int:
        if tid not in self._priorities:
            self._priorities[tid] = self._rng.randrange(
                self.depth, self.depth + 100)
        return self._priorities[tid]

    def pick(self, runnable: Sequence[int], current: Optional[int]) -> int:
        self._steps += 1
        chosen = max(runnable, key=self._priority)
        if self._next_change < len(self._change_points) and \
                self._steps >= self._change_points[self._next_change]:
            # Demote the running thread to the next change-point priority.
            self._priorities[chosen] = self._next_change
            self._next_change += 1
            chosen = max(runnable, key=self._priority)
        return chosen

    def describe(self) -> str:
        return f"pct(seed={self.seed}, depth={self.depth})"


class FixedScheduler(Scheduler):
    """Replays an explicit interleaving.

    The plan is a list of ``(tid, steps)`` pairs.  When the plan runs out —
    or names a thread that is not currently runnable — the scheduler falls
    back to the lowest runnable tid, so a plan only needs to pin down the
    critical window of the interleaving, not the whole execution.
    """

    def __init__(self, plan: Sequence[Tuple[int, int]]) -> None:
        self.plan: List[Tuple[int, int]] = [(t, n) for t, n in plan]
        self._index = 0
        self._used = 0

    def pick(self, runnable: Sequence[int], current: Optional[int]) -> int:
        while self._index < len(self.plan):
            tid, steps = self.plan[self._index]
            if self._used >= steps:
                self._index += 1
                self._used = 0
                continue
            if tid in runnable:
                self._used += 1
                return tid
            # The planned thread can't run (blocked/finished): the plan's
            # remaining quantum for it is abandoned.
            self._index += 1
            self._used = 0
        return min(runnable)

    def describe(self) -> str:
        return f"fixed(plan={self.plan})"
