"""Whole-pipeline property tests over randomly generated MiniC programs.

A hypothesis strategy generates small, deterministic, single-threaded MiniC
programs (arithmetic, branches, ``&&`` and ``||`` conditions, bounded loops
with ``break`` and ``continue``, globals, one helper call), and every
generated program must satisfy the system-wide invariants:

1. it compiles and the IR verifies;
2. execution is deterministic (same outcome twice);
3. a full Intel-PT trace decodes to *exactly* the retired instruction
   sequence (the encoder/decoder round-trip, on arbitrary control flow);
4. GIR assembly round-trips to an equivalently-behaving module;
5. a recording replays to the same behaviour digest;
6. the compiled and decoded interpreter tiers agree on the outcome, the
   per-opcode counts and the full-trace PT bytes.

These catch the cross-cutting bugs unit tests miss: codegen emitting block
shapes the PT decoder mishandles, printer/parser asymmetries, and so on.
"""

from hypothesis import given, settings, strategies as st

from repro.lang import compile_source, parse_gir, verify
from repro.lang.girparser import parse_gir as _parse_gir
from repro.pt import PTConfig, PTDecoder, PTEncoder
from repro.replay import record, replay
from repro.runtime import Interpreter, run_program
from repro.runtime.events import Tracer
from tests.runtime.test_hotpath_equivalence import TIERS, _outcome_key

# ---------------------------------------------------------------------------
# Program generator
# ---------------------------------------------------------------------------

_VARS = ["a", "b", "c"]
_OPS = ["+", "-", "*", "|", "&", "^"]
_CMP = ["<", "<=", ">", ">=", "==", "!="]


@st.composite
def expressions(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return str(draw(st.integers(-20, 20)))
        if choice == 1:
            return draw(st.sampled_from(_VARS))
        return "g"
    left = draw(expressions(depth=depth + 1))
    right = draw(expressions(depth=depth + 1))
    op = draw(st.sampled_from(_OPS))
    return f"({left} {op} {right})"


@st.composite
def comparisons(draw):
    left = draw(expressions(depth=1))
    right = draw(expressions(depth=1))
    return f"({left} {draw(st.sampled_from(_CMP))} {right})"


@st.composite
def conditions(draw):
    """A comparison, or two joined by a short-circuit ``&&`` or ``||``."""
    first = draw(comparisons())
    joiner = draw(st.sampled_from(["", "&&", "||"]))
    if not joiner:
        return first
    return f"({first} {joiner} {draw(comparisons())})"


@st.composite
def statements(draw, depth=0, in_loop=False):
    last = 5 if depth < 2 else 2
    kind = draw(st.integers(0, last + 2 if in_loop else last))
    if kind > last:
        # Loop control; the loop's counter still advances on a continue.
        word = "break" if kind == last + 1 else "continue"
        return [f"if {draw(conditions())} {{ {word}; }}"]
    if kind in (0, 1):
        var = draw(st.sampled_from(_VARS))
        return [f"{var} = {draw(expressions())};"]
    if kind == 2:
        return [f"g = {draw(expressions())};"]
    if kind == 3:
        body = draw(blocks(depth=depth + 1, in_loop=in_loop))
        out = [f"if {draw(conditions())} {{"] + body + ["}"]
        if draw(st.booleans()):
            out += ["else {"] + draw(blocks(depth=depth + 1,
                                            in_loop=in_loop)) + ["}"]
        return out
    if kind == 4:
        # Bounded loop: a fresh counter guarantees termination.
        bound = draw(st.integers(1, 5))
        var = draw(st.sampled_from(_VARS))
        body = draw(blocks(depth=depth + 1, in_loop=True))
        return ([f"for (int k{depth} = 0; k{depth} < {bound}; k{depth}++) {{"]
                + body + [f"{var} = {var} + 1;", "}"])
    return [f"h({draw(expressions())});"]


@st.composite
def blocks(draw, depth=0, in_loop=False):
    out = []
    for _ in range(draw(st.integers(1, 3))):
        out.extend(draw(statements(depth=depth, in_loop=in_loop)))
    return out


@st.composite
def programs(draw):
    body = draw(blocks())
    lines = [
        "int g = 1;",
        "void h(int v) { g = g + (v & 7); }",
        "int main(int x) {",
        "    int a = x;",
        "    int b = x + 1;",
        "    int c = 0;",
    ]
    lines += [f"    {line}" for line in body]
    lines += [
        "    print(g);",
        "    return (a & 63) + (b & 63) + (c & 63);",
        "}",
    ]
    return "\n".join(lines)


def _step_sequence(module, args):
    class Steps(Tracer):
        def __init__(self):
            self.seq = []

        def on_step(self, interp, tid, ins):
            self.seq.append(ins.uid)

    steps = Steps()
    outcome = Interpreter(module, args=args, tracers=[steps],
                          max_steps=100_000).run()
    return steps.seq, outcome


@given(source=programs(), arg=st.integers(-5, 20))
@settings(max_examples=40, deadline=None)
def test_compile_verify_and_determinism(source, arg):
    module = compile_source(source)
    verify(module)
    a = run_program(module, args=[arg], max_steps=100_000)
    b = run_program(module, args=[arg], max_steps=100_000)
    assert not a.failed, a.failure.format() if a.failure else ""
    assert (a.exit_value, a.steps, a.stdout, a.base_cost) == \
        (b.exit_value, b.steps, b.stdout, b.base_cost)


@given(source=programs(), arg=st.integers(-5, 20))
@settings(max_examples=30, deadline=None)
def test_pt_roundtrip_reconstructs_execution(source, arg):
    module = compile_source(source)
    encoder = PTEncoder(PTConfig(), trace_on_start=True)
    interp = Interpreter(module, args=[arg], tracers=[encoder],
                         max_steps=100_000)
    interp.run()
    decoded = PTDecoder(module).decode(
        encoder.raw_trace(0)).executed_sequence()
    truth, _ = _step_sequence(module, [arg])
    assert decoded == truth


@given(source=programs(), arg=st.integers(-5, 20))
@settings(max_examples=25, deadline=None)
def test_gir_roundtrip_behaviour(source, arg):
    module = compile_source(source)
    restored = parse_gir(module.format())
    verify(restored)
    a = run_program(module, args=[arg], max_steps=100_000)
    b = run_program(restored, args=[arg], max_steps=100_000)
    assert (a.exit_value, a.steps, a.stdout) == \
        (b.exit_value, b.steps, b.stdout)


@given(source=programs(), arg=st.integers(-5, 20))
@settings(max_examples=25, deadline=None)
def test_record_replay_fidelity(source, arg):
    module = compile_source(source)
    outcome, log = record(module, args=[arg], max_steps=100_000)
    result = replay(module, log)
    assert result.matched
    assert result.outcome.exit_value == outcome.exit_value


def _tier_runs(module, arg, mode):
    """On tier ``mode``: a plain run's outcome and per-opcode counts, a
    full-trace PT run's, and that run's PT bytes."""
    pt = PTEncoder(PTConfig(), trace_on_start=True)
    runs = []
    for tracers in ([], [pt]):
        interp = Interpreter(module, args=[arg], tracers=tracers,
                             max_steps=100_000, mode=mode)
        assert interp.mode == mode
        runs.append((_outcome_key(interp.run()), interp.cost.counts))
    return runs, {tid: pt.raw_trace(tid) for tid in sorted(pt.buffers)}


@given(source=programs(), arg=st.integers(-5, 20))
@settings(max_examples=40, deadline=None)
def test_tiers_agree_on_generated_programs(source, arg):
    module = compile_source(source)
    compiled, decoded = (_tier_runs(module, arg, mode) for mode in TIERS)
    assert compiled == decoded
