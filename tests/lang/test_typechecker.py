"""Typechecker unit tests."""

import pytest

from repro.lang.parser import parse
from repro.lang.typechecker import TypeError_, check
from repro.lang.mtypes import (
    ArrayType,
    IntType,
    PointerType,
    StructType,
)


def check_src(source):
    return check(parse(source))


class TestStructLayout:
    def test_field_offsets(self):
        info = check_src("""
            struct q { void* mut; int head; int tail; int items[8]; };
            int main() { return 0; }
        """)
        st = info.struct("q")
        assert st.field_named("mut").offset == 0
        assert st.field_named("head").offset == 1
        assert st.field_named("tail").offset == 2
        assert st.field_named("items").offset == 3
        assert st.size() == 11

    def test_nested_struct_by_pointer(self):
        info = check_src("""
            struct inner { int a; int b; };
            struct outer { struct inner* link; int c; };
            int main() { return 0; }
        """)
        outer = info.struct("outer")
        assert outer.size() == 2
        field = outer.field_named("link")
        assert isinstance(field.ctype, PointerType)

    def test_embedded_struct_value(self):
        info = check_src("""
            struct inner { int a; int b; };
            struct outer { struct inner emb; int c; };
            int main() { return 0; }
        """)
        outer = info.struct("outer")
        assert outer.field_named("emb").offset == 0
        assert outer.field_named("c").offset == 2
        assert outer.size() == 3

    def test_self_recursive_value_struct_rejected(self):
        with pytest.raises(TypeError_):
            check_src("struct s { struct s inner; }; int main() { return 0; }")

    def test_self_recursive_pointer_allowed(self):
        info = check_src("""
            struct node { struct node* next; int v; };
            int main() { return 0; }
        """)
        assert info.struct("node").size() == 2

    def test_duplicate_field_rejected(self):
        with pytest.raises(TypeError_,
                           match="^1:23: duplicate field 'a' in struct s$"):
            check_src("struct s { int a; int a; }; int main() { return 0; }")


class TestDeclarations:
    def test_unknown_identifier(self):
        with pytest.raises(TypeError_):
            check_src("int main() { return missing; }")

    def test_redeclaration_in_same_scope(self):
        with pytest.raises(TypeError_):
            check_src("int main() { int x = 1; int x = 2; return x; }")

    def test_shadowing_in_nested_scope_ok(self):
        check_src("int main() { int x = 1; { int x = 2; } return x; }")

    def test_global_visible_in_function(self):
        check_src("int g = 5; int main() { return g; }")

    def test_for_scope_variable(self):
        check_src("int main() { for (int i = 0; i < 3; i++) { } return 0; }")

    def test_for_variable_not_visible_after(self):
        with pytest.raises(TypeError_):
            check_src(
                "int main() { for (int i = 0; i < 3; i++) { } return i; }")


class TestCalls:
    def test_unknown_function(self):
        with pytest.raises(TypeError_):
            check_src("int main() { return nothere(); }")

    def test_arity_mismatch(self):
        with pytest.raises(TypeError_):
            check_src("""
                int f(int a, int b) { return a; }
                int main() { return f(1); }
            """)

    def test_builtin_arity(self):
        with pytest.raises(TypeError_):
            check_src('int main() { strlen("a", "b"); return 0; }')

    def test_thread_create_requires_function_name(self):
        with pytest.raises(TypeError_):
            check_src("int main() { return thread_create(42, 0); }")

    def test_thread_create_rejects_builtin_routine(self):
        with pytest.raises(TypeError_):
            check_src("int main() { return thread_create(strlen, 0); }")

    def test_thread_create_accepts_user_function(self):
        check_src("""
            void worker(int arg) { }
            int main() { return thread_create(worker, 7); }
        """)


class TestExpressions:
    def test_field_on_non_struct(self):
        with pytest.raises(TypeError_):
            check_src("int main() { int x = 0; return x.field; }")

    def test_arrow_on_non_pointer(self):
        with pytest.raises(TypeError_):
            check_src("""
                struct s { int a; };
                int main() { struct s v; return v->a; }
            """)

    def test_unknown_field(self):
        with pytest.raises(TypeError_):
            check_src("""
                struct s { int a; };
                int main() { struct s* p = malloc(sizeof(struct s));
                             return p->b; }
            """)

    def test_deref_non_pointer(self):
        with pytest.raises(TypeError_):
            check_src("int main() { int x = 1; return *x; }")

    def test_index_non_indexable(self):
        with pytest.raises(TypeError_):
            check_src("int main() { int x = 1; return x[0]; }")

    def test_assignment_to_rvalue(self):
        with pytest.raises(TypeError_):
            check_src("int main() { 3 = 4; return 0; }")

    def test_assignment_to_deref_ok(self):
        check_src("int main() { int* p = malloc(1); *p = 3; return *p; }")

    def test_pointer_arithmetic_type(self):
        info = check_src("""
            int main(char* s) {
                char* t = s + 2;
                return strlen(t);
            }
        """)
        assert info is not None

    def test_string_literal_is_char_pointer(self):
        check_src('int main() { return strlen("abc"); }')

    def test_address_of_rvalue_rejected(self):
        with pytest.raises(TypeError_):
            check_src("int main() { int* p = &3; return 0; }")


class TestAnnotatedTypes:
    def test_expression_ctype_attached(self):
        prog = parse("int main() { int x = 1 + 2; return x; }")
        check(prog)
        init = prog.functions[0].body.stmts[0].init
        assert isinstance(init.ctype, IntType)

    def test_array_decl_type(self):
        prog = parse("int main() { int buf[4]; return buf[0]; }")
        check(prog)
        ret = prog.functions[0].body.stmts[1].value
        assert isinstance(ret.ctype, IntType)
