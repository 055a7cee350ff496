"""GIR assembly round-trip tests."""

import pytest

from repro.corpus import all_bugs
from repro.lang import compile_source, verify
from repro.lang.girparser import GirParseError, parse_gir
from repro.runtime import run_program

SRC = """
struct pair { int a; int b; };
int table[4];
int g = 7;

int helper(int v) {
    if (v > 2) { return v * 2; }
    return v;
}

void worker(int n) {
    g = g + helper(n);
}

int main(int n) {
    struct pair* p = malloc(sizeof(struct pair));
    p->a = n;
    p->b = helper(n);
    table[1] = p->a + p->b;
    int t = thread_create(worker, n);
    thread_join(t);
    char* s = "round{trip}";
    assert(strlen(s) > 0, "nonempty");
    print(table[1]);
    free(p);
    return g;
}
"""


def roundtrip(module):
    return parse_gir(module.format())


class TestRoundTrip:
    def test_structural_identity(self):
        original = compile_source(SRC)
        restored = roundtrip(original)
        assert set(restored.functions) == set(original.functions)
        assert set(restored.globals) == set(original.globals)
        assert restored.strings == original.strings
        for name, func in original.functions.items():
            other = restored.functions[name]
            assert other.params == func.params
            assert list(other.blocks) == list(func.blocks)
            for label, bb in func.blocks.items():
                for a, b in zip(bb.instrs, other.blocks[label].instrs):
                    assert a.opcode is b.opcode
                    assert a.dst == b.dst
                    assert a.operands == b.operands
                    assert a.op == b.op
                    assert a.callee == b.callee
                    assert a.labels == b.labels
                    assert a.size == b.size
                    assert a.line == b.line

    def test_format_is_fixed_point(self):
        original = compile_source(SRC)
        once = roundtrip(original).format()
        twice = parse_gir(once).format()
        # Everything except assert-message/text annotations survives
        # byte-identically; assert text does too, so full equality holds.
        assert once == twice

    def test_restored_module_verifies(self):
        restored = roundtrip(compile_source(SRC))
        verify(restored)

    def test_restored_module_runs_identically(self):
        original = compile_source(SRC)
        restored = roundtrip(original)
        a = run_program(original, args=[3])
        b = run_program(restored, args=[3])
        assert (a.exit_value, a.steps, a.stdout) == \
            (b.exit_value, b.steps, b.stdout)

    @pytest.mark.parametrize("bug_id", [b.bug_id for b in all_bugs()])
    def test_corpus_roundtrips(self, bug_id):
        from repro.corpus import get_bug

        original = get_bug(bug_id).module()
        restored = roundtrip(original)
        verify(restored)
        assert restored.num_instructions() == original.num_instructions()


class TestErrors:
    def test_unknown_opcode(self):
        with pytest.raises(GirParseError):
            parse_gir("def f() {\nentry:\n  frobnicate %x\n}")

    def test_unterminated_function(self):
        with pytest.raises(GirParseError):
            parse_gir("def f() {\nentry:\n  ret")

    def test_bad_operand(self):
        with pytest.raises(GirParseError):
            parse_gir("def f() {\nentry:\n  %a = const $$$\n}")

    def test_missing_arrow_on_branch(self):
        with pytest.raises(GirParseError):
            parse_gir("def f() {\nentry:\n  jmp somewhere\n}")

    def test_content_outside_function(self):
        with pytest.raises(GirParseError):
            parse_gir("  %a = const 1\n")

    def test_duplicate_block_label(self):
        with pytest.raises(GirParseError) as err:
            parse_gir("def f() {\nentry:\n  ret\nentry:\n  ret\n}")
        assert err.value.lineno == 4

    @pytest.mark.parametrize("text, lineno", [
        ("@g : [1] = [3 +]", 1),                   # global initializer
        ("str#0 = 'hi' + x", 1),                   # not a literal
        ("str#0 = '\\x'", 1),                      # bad escape
        ("def f() {\nentry:\n  assert %c !'\\x'\n}", 3),  # assert message
    ])
    def test_bad_literal(self, text, lineno):
        with pytest.raises(GirParseError) as err:
            parse_gir(text)
        assert err.value.lineno == lineno
