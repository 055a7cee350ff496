"""Guards on the compiled tier's reach and on its generated source.

A module the GIR compiler rejects silently runs on the decoded tier (the
``CompileError`` fallback), so every corpus module must compile, and so
must a function nested deeper than inlining goes.  MiniC only lowers to
structured control flow, so random GIR graphs check the inliner on the
rest: irreducible loops, self-loops, unreachable blocks and branches
whose arms name one block.  The size of the
generated source sets what building a compiled program costs: Python's
``compile()`` takes nearly all of the build time, and its peak memory
grows with the source, so the corpus total is capped.  What every retired
instruction and every block transition pays is set by the source too, so
its shape is checked line by line.
"""

import random
import re

import pytest

from repro.corpus import all_bug_ids, get_bug
from repro.lang import compile_source
from repro.lang.girparser import parse_gir
from repro.pt import PTEncoder
from repro.runtime.compiled import (
    _FunctionCompiler,
    _ModuleCompiler,
    compiled_program,
)
from repro.runtime.interpreter import Interpreter
from tests.runtime.test_hotpath_equivalence import TIERS, _outcome_key

#: Bytes of generated source for the 15 corpus modules when the cap was
#: set, plus 5%.  Raise it only together with a measured reason.
SOURCE_BUDGET = int(2_268_058 * 1.05)


def _programs():
    return {bug_id: compiled_program(get_bug(bug_id).module())
            for bug_id in all_bug_ids(include_extra=True)}


def test_every_corpus_module_compiles():
    # compiled_program raises CompileError for a module it cannot lower.
    programs = _programs()
    assert len(programs) == 15
    for bug_id, program in programs.items():
        assert set(program.functions) == \
            set(get_bug(bug_id).module().functions), bug_id


def test_generated_source_within_budget():
    total = sum(program.source_bytes for program in _programs().values())
    assert total <= SOURCE_BUDGET, (
        f"generated source grew to {total} bytes "
        f"(budget {SOURCE_BUDGET})")


def _compiled_functions(module):
    """``(name, compiler, source lines)`` of every function of
    ``module``."""
    mc = _ModuleCompiler(module)
    for fname, func in module.functions.items():
        compiler = _FunctionCompiler(mc, fname, func)
        yield fname, compiler, compiler.compile().split("\n")


def _dispatches(compiler, lines):
    """The target label of every ``_b = k`` line."""
    labels = {i: label for label, i in compiler.block_ids.items()}
    for line in lines:
        match = re.fullmatch(r" *_b = (\d+)", line)
        if match:
            yield labels[int(match.group(1))]


def test_steps_are_counted_per_block():
    """Outside its body a retired instruction runs the scheduler draw and
    one compare against its path's step budget: no generated line tests a
    dirty flag, refreshes the runnable set, calls ``abs`` or carries a
    packed-charge accumulator, and the only statements that advance
    ``_step`` are extended-block exits, each followed by the dispatch to
    the next one."""
    for bug_id in all_bug_ids(include_extra=True):
        for fname, _, lines in _compiled_functions(
                get_bug(bug_id).module()):
            lines = [line.strip() for line in lines]
            where = f"{bug_id}/{fname}"
            for banned in ("_dirty", "_refresh", "abs(", "_acc"):
                assert not any(banned in line for line in lines), \
                    (where, banned)
            for at, line in enumerate(lines):
                if line.startswith("_step +="):
                    assert lines[at + 1].startswith("_b = "), (where, at)


def test_single_predecessor_blocks_are_inlined():
    """Every corpus function nests shallower than the inlining cap, so a
    dispatch names only the entry or a block with zero or several
    predecessor edges (a loop header or a join): a block with exactly
    one runs inline at that edge, and has no arm of its own."""
    for bug_id in all_bug_ids(include_extra=True):
        for fname, compiler, lines in _compiled_functions(
                get_bug(bug_id).module()):
            for label in [*_dispatches(compiler, lines), *compiler.arms]:
                assert label == compiler.start or \
                    compiler.preds[label] != 1, (bug_id, fname, label)


#: ``main`` of 150 nested ``if``s, each true arm one level deeper than the
#: last: inlined all the way, Python would refuse the source (it allows 100
#: levels of indentation).
DEEP_IFS = "\n".join(
    ["int main(int n) {", "    int s = 0;"]
    + [f"if (n > {i}) {{ s = s + {i};" for i in range(150)]
    + ["}" * 150, "    return s;", "}"])

#: ``main`` of a chain of 200 ``else if``s: each ``else`` block is inlined
#: at the same indentation as the last, but one emitter call deeper.
ELSE_IFS = "\n".join(
    ["int main(int n) {", "    int s = 0;", "    if (n == 0) { s = 1; }"]
    + [f"    else if (n == {i}) {{ s = {i}; }}" for i in range(1, 200)]
    + ["    return s;", "}"])


@pytest.mark.parametrize("source, exit_value", [
    (DEEP_IFS, lambda n: sum(range(min(n, 150)))),
    (ELSE_IFS, lambda n: n if 0 < n < 200 else int(n == 0)),
], ids=["nested-ifs", "else-if-chain"])
def test_nesting_past_the_inline_cap_compiles(source, exit_value):
    """Past :data:`_MAX_INLINE_DEPTH` blocks on a path, a single-predecessor
    block gets an arm of its own, so the function still compiles (else it
    would silently run on the decoded tier), and both tiers agree."""
    module = compile_source(source)
    compiled_program(module)  # raises CompileError if Python rejects it
    _, compiler, lines = next(_compiled_functions(module))
    capped = {label for label in _dispatches(compiler, lines)
              if compiler.preds[label] == 1}
    assert capped and capped <= set(compiler.arms)
    for n in (0, 5, 149, 150, 199, 200):
        got = {}
        for mode in TIERS:
            interp = Interpreter(module, args=[n], mode=mode)
            assert interp.mode == mode
            got[mode] = (_outcome_key(interp.run()), interp.cost.counts)
        assert got["compiled"] == got["decoded"], n
        assert got["compiled"][0][1] == exit_value(n), n


def _random_cfg(rng):
    """GIR text of a ``main`` over 2–40 blocks, each with a few updates of
    ``%y`` and the loop counter ``%c`` (a call, a print) and a random
    terminator: a jump or a branch on ``%c`` to any block, or a return."""
    labels = ["entry"] + [f"b{i}" for i in range(1, rng.randint(2, 40))]
    lines = ["def h(%v) {", "entry:", "  %w = binop * %v, 3", "  ret %w",
             "}", "def main(%x) {", "entry:", "  %c = const 0",
             "  %y = const 1"]
    for i, label in enumerate(labels):
        if i:
            lines.append(f"{label}:")
        lines += rng.sample(["  %y = binop + %y, 2", "  %c = binop + %c, 1",
                             "  %y = binop ^ %y, %x", "  %y = call h %y",
                             "  call print %c"], rng.randint(0, 3))
        end = rng.random()
        if end < 0.15 and i:
            lines.append("  ret %y")
        elif end < 0.5:
            lines.append(f"  jmp -> {rng.choice(labels)}")
        else:
            then = labels[min(i + 1, len(labels) - 1)] \
                if rng.random() < 0.5 else rng.choice(labels)
            lines += [f"  %k = binop < %c, {rng.randint(0, 12)}",
                      f"  br %k -> {then}, {rng.choice(labels)}"]
    return "\n".join(lines + ["}"])


def test_random_control_flow_graphs_run_alike():
    """Each graph runs on both tiers under a random step budget (about
    half the runs hang, mostly mid-path), plain and with full-trace PT:
    outcome, per-opcode counts and PT bytes must agree."""
    rng = random.Random(29)
    for case in range(100):
        module = parse_gir(_random_cfg(rng))
        arg, max_steps = rng.choice((0, 5)), rng.randint(1, 300)
        got = {}
        for mode in TIERS:
            pt = PTEncoder(trace_on_start=True)
            runs = []
            for tracers in ([], [pt]):
                interp = Interpreter(module, args=[arg], tracers=tracers,
                                     max_steps=max_steps, mode=mode)
                assert interp.mode == mode
                runs.append((_outcome_key(interp.run()), interp.cost.counts))
            got[mode] = runs, {tid: pt.raw_trace(tid) for tid in pt.buffers}
        assert got["compiled"] == got["decoded"], case
