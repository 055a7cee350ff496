"""Lexer unit tests."""

import pytest

from repro.lang.lexer import LexError, tokenize
from repro.lang.tokens import TokKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokKind.EOF

    def test_whitespace_only(self):
        toks = tokenize("  \t\n  \r\n ")
        assert [t.kind for t in toks] == [TokKind.EOF]

    def test_identifiers(self):
        toks = tokenize("foo _bar x1 longer_name")
        assert [t.kind for t in toks[:-1]] == [TokKind.IDENT] * 4
        assert values("foo _bar x1") == ["foo", "_bar", "x1"]

    def test_keywords_not_identifiers(self):
        assert kinds("int")[0] is TokKind.KW_INT
        assert kinds("while")[0] is TokKind.KW_WHILE
        assert kinds("struct")[0] is TokKind.KW_STRUCT
        assert kinds("NULL")[0] is TokKind.KW_NULL

    def test_keyword_prefix_is_identifier(self):
        assert kinds("integer")[0] is TokKind.IDENT
        assert kinds("whiles")[0] is TokKind.IDENT

    def test_decimal_literals(self):
        toks = tokenize("0 7 42 123456")
        assert all(t.kind is TokKind.INT for t in toks[:-1])
        assert values("0 7 42") == ["0", "7", "42"]

    def test_hex_literals(self):
        toks = tokenize("0x10 0xFF")
        assert [t.value for t in toks[:-1]] == ["0x10", "0xFF"]
        assert int(toks[0].value, 0) == 16

    def test_char_literals(self):
        toks = tokenize("'a' '\\n' '\\0' '{'")
        assert [t.kind for t in toks[:-1]] == [TokKind.CHAR] * 4
        assert toks[0].value == "a"
        assert toks[1].value == "\n"
        assert toks[2].value == "\0"
        assert toks[3].value == "{"

    def test_string_literals(self):
        toks = tokenize('"hello" "" "a\\tb"')
        assert [t.kind for t in toks[:-1]] == [TokKind.STRING] * 3
        assert toks[0].value == "hello"
        assert toks[1].value == ""
        assert toks[2].value == "a\tb"

    def test_string_with_braces(self):
        # The curl corpus input.
        toks = tokenize('"{}{"')
        assert toks[0].value == "{}{"


class TestOperators:
    @pytest.mark.parametrize("text,kind", [
        ("->", TokKind.ARROW),
        ("==", TokKind.EQ),
        ("!=", TokKind.NE),
        ("<=", TokKind.LE),
        (">=", TokKind.GE),
        ("&&", TokKind.ANDAND),
        ("||", TokKind.OROR),
        ("<<", TokKind.SHL),
        (">>", TokKind.SHR),
        ("++", TokKind.PLUSPLUS),
        ("--", TokKind.MINUSMINUS),
        ("+=", TokKind.PLUS_ASSIGN),
        ("-=", TokKind.MINUS_ASSIGN),
    ])
    def test_multichar_operators(self, text, kind):
        assert kinds(text)[0] is kind

    def test_maximal_munch(self):
        # `a->b` is IDENT ARROW IDENT, not IDENT MINUS GT IDENT.
        ks = kinds("a->b")
        assert ks[:3] == [TokKind.IDENT, TokKind.ARROW, TokKind.IDENT]

    def test_minus_vs_arrow(self):
        ks = kinds("a - >")
        assert ks[:3] == [TokKind.IDENT, TokKind.MINUS, TokKind.GT]

    def test_ampersand_forms(self):
        assert kinds("& &&")[:2] == [TokKind.AMP, TokKind.ANDAND]

    def test_assignment_vs_equality(self):
        assert kinds("= ==")[:2] == [TokKind.ASSIGN, TokKind.EQ]


class TestComments:
    def test_line_comment(self):
        assert kinds("x // comment here\ny")[:2] == \
            [TokKind.IDENT, TokKind.IDENT]

    def test_block_comment(self):
        assert kinds("a /* ignore * this */ b")[:2] == \
            [TokKind.IDENT, TokKind.IDENT]

    def test_block_comment_spanning_lines(self):
        toks = tokenize("a /* one\ntwo\nthree */ b")
        assert toks[1].line == 3

    def test_annotation_marker_is_comment(self):
        # The corpus //@ markers must lex away entirely.
        toks = tokenize("x = 1; //@ root acc=3\n")
        assert [t.kind for t in toks[:-1]] == [
            TokKind.IDENT, TokKind.ASSIGN, TokKind.INT, TokKind.SEMI]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")


class TestPositions:
    def test_line_and_column_tracking(self):
        toks = tokenize("a\n  b\nc")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (2, 3)
        assert (toks[2].line, toks[2].col) == (3, 1)

    def test_column_after_tab(self):
        toks = tokenize("\tx")
        assert toks[0].line == 1


class TestErrors:
    @pytest.mark.parametrize("literal", ["09", "0x"])
    def test_malformed_integer_literal(self, literal):
        from repro.lang import compile_source

        with pytest.raises(LexError) as err:
            compile_source(f"int main() {{\n  return {literal};\n}}")
        assert (err.value.line, err.value.col) == (2, 10)

    def test_unknown_character(self):
        with pytest.raises(LexError) as err:
            tokenize("a $ b")
        assert err.value.line == 1

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"open')

    def test_string_with_newline(self):
        with pytest.raises(LexError):
            tokenize('"a\nb"')

    def test_empty_char_literal(self):
        with pytest.raises(LexError):
            tokenize("''")

    def test_unknown_escape(self):
        with pytest.raises(LexError):
            tokenize('"\\q"')
