"""Semantic analysis for MiniC.

The checker resolves struct layouts and function signatures, verifies
identifier/field/call usage, and annotates every expression node with a
``ctype`` attribute consumed by the code generator.  It is deliberately
permissive about int/pointer mixing (our corpus mimics C programs that do
such things) but strict about anything that would make code generation
ambiguous: unknown names, unknown fields, bad arity, non-lvalue assignment.
"""

from __future__ import annotations

from typing import Dict, Optional

from . import ast_nodes as A
from .mtypes import (
    BUILTIN_SIGS,
    CHAR,
    CHAR_PTR,
    INT,
    VOID,
    ArrayType,
    CType,
    FuncSig,
    PointerType,
    StructType,
    make_pointer,
)


class TypeError_(Exception):
    """Semantic error (named with a trailing underscore to avoid shadowing
    the builtin)."""

    def __init__(self, message: str, node: A.Node) -> None:
        super().__init__(f"{node.line}:{node.col}: {message}")
        self.node = node


class TypeInfo:
    """The result of checking: everything the code generator needs."""

    def __init__(self) -> None:
        self.structs: Dict[str, StructType] = {}
        self.functions: Dict[str, FuncSig] = {}
        self.global_types: Dict[str, CType] = {}

    def struct(self, name: str) -> StructType:
        try:
            return self.structs[name]
        except KeyError:
            raise KeyError(f"unknown struct {name!r}") from None


class _Scope:
    """A lexical scope mapping names to types."""

    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.vars: Dict[str, CType] = {}

    def declare(self, name: str, ctype: CType, node: A.Node) -> None:
        if name in self.vars:
            raise TypeError_(f"redeclaration of {name!r}", node)
        self.vars[name] = ctype

    def lookup(self, name: str) -> Optional[CType]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        return None


class TypeChecker:
    """Single-pass semantic checker; annotates expressions with ctypes."""
    def __init__(self, program: A.Program) -> None:
        self.program = program
        self.info = TypeInfo()
        self._current_func: Optional[FuncSig] = None
        self._loop_depth = 0

    # -- entry point -----------------------------------------------------------

    def check(self) -> TypeInfo:
        self._collect_structs()
        self._collect_functions()
        self._check_globals()
        for func in self.program.functions:
            self._check_function(func)
        return self.info

    # -- declaration collection ----------------------------------------------

    def _collect_structs(self) -> None:
        # Two passes so structs can point at each other.
        for decl in self.program.structs:
            if decl.name in self.info.structs:
                raise TypeError_(f"duplicate struct {decl.name!r}", decl)
            self.info.structs[decl.name] = StructType(decl.name)
        for decl in self.program.structs:
            st = self.info.structs[decl.name]
            for fdecl in decl.fields:
                ftype = self._resolve(fdecl.type_expr, fdecl)
                if isinstance(ftype, StructType) and ftype.name == decl.name \
                        and fdecl.array_size == 0:
                    raise TypeError_(
                        f"struct {decl.name} contains itself", fdecl)
                if st.has_field(fdecl.name):
                    raise TypeError_(f"duplicate field {fdecl.name!r} in "
                                     f"struct {decl.name}", fdecl)
                if fdecl.array_size > 0:
                    st.add_field(fdecl.name, ArrayType(ftype, fdecl.array_size))
                else:
                    st.add_field(fdecl.name, ftype)

    def _collect_functions(self) -> None:
        for name, (ret, params) in BUILTIN_SIGS.items():
            self.info.functions[name] = FuncSig(
                name=name, return_type=ret or VOID,
                param_types=list(params), param_names=[], is_builtin=True)
        for func in self.program.functions:
            if func.name in self.info.functions:
                raise TypeError_(f"redefinition of {func.name!r}", func)
            ret = self._resolve(func.return_type, func)
            ptypes = [self._resolve(p.type_expr, p) for p in func.params]
            pnames = [p.name for p in func.params]
            self.info.functions[func.name] = FuncSig(
                name=func.name, return_type=ret,
                param_types=ptypes, param_names=pnames)

    def _check_globals(self) -> None:
        for g in self.program.globals:
            base = self._resolve(g.type_expr, g)
            gtype: CType = ArrayType(base, g.array_size) if g.array_size else base
            if g.name in self.info.global_types:
                raise TypeError_(f"duplicate global {g.name!r}", g)
            self.info.global_types[g.name] = gtype
            if g.init is not None:
                scope = _Scope()
                self._check_expr(g.init, scope)

    # -- helpers ----------------------------------------------------------------

    def _resolve(self, texpr: Optional[A.TypeExpr], node: A.Node) -> CType:
        if texpr is None:
            raise TypeError_("missing type", node)
        if texpr.base == "int":
            base: CType = INT
        elif texpr.base == "char":
            base = CHAR
        elif texpr.base == "void":
            base = VOID
        elif texpr.base == "struct":
            if texpr.struct_name not in self.info.structs:
                raise TypeError_(f"unknown struct {texpr.struct_name!r}", node)
            base = self.info.structs[texpr.struct_name]
        else:  # pragma: no cover - parser prevents this
            raise TypeError_(f"unknown type {texpr.base!r}", node)
        return make_pointer(base, texpr.pointer_depth)

    # -- functions & statements -----------------------------------------------

    def _check_function(self, func: A.FuncDecl) -> None:
        sig = self.info.functions[func.name]
        self._current_func = sig
        scope = _Scope()
        for pname, ptype in zip(sig.param_names, sig.param_types):
            scope.declare(pname, ptype or INT, func)
        assert func.body is not None
        self._check_block(func.body, _Scope(scope))
        self._current_func = None

    def _check_block(self, block: A.Block, scope: _Scope) -> None:
        for stmt in block.stmts:
            self._check_stmt(stmt, scope)

    def _check_stmt(self, stmt: A.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, A.VarDecl):
            base = self._resolve(stmt.type_expr, stmt)
            vtype: CType = (ArrayType(base, stmt.array_size)
                            if stmt.array_size else base)
            if stmt.init is not None:
                self._check_expr(stmt.init, scope)
            scope.declare(stmt.name, vtype, stmt)
        elif isinstance(stmt, A.ExprStmt):
            if stmt.expr is not None:
                self._check_expr(stmt.expr, scope)
        elif isinstance(stmt, A.Block):
            self._check_block(stmt, _Scope(scope))
        elif isinstance(stmt, A.If):
            self._check_expr(stmt.cond, scope)
            self._check_block(stmt.then_body, _Scope(scope))
            if stmt.else_body is not None:
                self._check_block(stmt.else_body, _Scope(scope))
        elif isinstance(stmt, A.While):
            self._check_expr(stmt.cond, scope)
            self._loop_depth += 1
            self._check_block(stmt.body, _Scope(scope))
            self._loop_depth -= 1
        elif isinstance(stmt, A.For):
            inner = _Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner)
            if stmt.cond is not None:
                self._check_expr(stmt.cond, inner)
            if stmt.step is not None:
                self._check_expr(stmt.step, inner)
            self._loop_depth += 1
            self._check_block(stmt.body, _Scope(inner))
            self._loop_depth -= 1
        elif isinstance(stmt, A.Return):
            assert self._current_func is not None
            if stmt.value is not None:
                self._check_expr(stmt.value, scope)
            elif not isinstance(self._current_func.return_type, type(VOID)):
                # return; from a non-void function is tolerated in C, and a
                # few corpus programs rely on it.
                pass
        elif isinstance(stmt, (A.Break, A.Continue)):
            if self._loop_depth == 0:
                raise TypeError_("break/continue outside loop", stmt)
        elif isinstance(stmt, A.AssertStmt):
            self._check_expr(stmt.cond, scope)
        else:  # pragma: no cover - parser prevents this
            raise TypeError_(f"unknown statement {type(stmt).__name__}", stmt)

    # -- expressions --------------------------------------------------------------

    def _check_expr(self, expr: Optional[A.Expr], scope: _Scope) -> CType:
        if expr is None:
            raise AssertionError("missing expression")
        ctype = self._infer(expr, scope)
        expr.ctype = ctype  # type: ignore[attr-defined]
        return ctype

    def _infer(self, expr: A.Expr, scope: _Scope) -> CType:
        if isinstance(expr, A.IntLit):
            return INT
        if isinstance(expr, A.CharLit):
            return CHAR
        if isinstance(expr, A.StrLit):
            return CHAR_PTR
        if isinstance(expr, A.NullLit):
            return PointerType(VOID)
        if isinstance(expr, A.SizeOf):
            self._resolve(expr.type_expr, expr)
            return INT
        if isinstance(expr, A.Ident):
            vtype = scope.lookup(expr.name)
            if vtype is None:
                vtype = self.info.global_types.get(expr.name)
            if vtype is None:
                raise TypeError_(f"unknown identifier {expr.name!r}", expr)
            return vtype
        if isinstance(expr, A.Unary):
            return self._infer_unary(expr, scope)
        if isinstance(expr, A.Binary):
            left = self._check_expr(expr.left, scope)
            self._check_expr(expr.right, scope)
            if expr.op in ("+", "-") and (left.is_pointer()
                                          or isinstance(left, ArrayType)):
                return left if left.is_pointer() else \
                    PointerType(left.elem)  # type: ignore[union-attr]
            return INT
        if isinstance(expr, A.Assign):
            target_type = self._check_expr(expr.target, scope)
            self._check_expr(expr.value, scope)
            self._require_lvalue(expr.target)
            return target_type
        if isinstance(expr, A.IncDec):
            t = self._check_expr(expr.target, scope)
            self._require_lvalue(expr.target)
            return t
        if isinstance(expr, A.Index):
            base = self._check_expr(expr.base, scope)
            self._check_expr(expr.index, scope)
            if isinstance(base, ArrayType):
                return base.elem
            if isinstance(base, PointerType):
                return base.pointee if base.pointee.size() else INT
            raise TypeError_("indexing a non-array, non-pointer value", expr)
        if isinstance(expr, A.Field):
            return self._infer_field(expr, scope)
        if isinstance(expr, A.Call):
            return self._infer_call(expr, scope)
        raise TypeError_(f"unknown expression {type(expr).__name__}", expr)

    def _infer_unary(self, expr: A.Unary, scope: _Scope) -> CType:
        operand = self._check_expr(expr.operand, scope)
        if expr.op == "*":
            if isinstance(operand, PointerType):
                return operand.pointee if operand.pointee.size() else INT
            if isinstance(operand, ArrayType):
                return operand.elem
            raise TypeError_("dereferencing a non-pointer", expr)
        if expr.op == "&":
            self._require_lvalue(expr.operand)
            return PointerType(operand)
        return INT

    def _infer_field(self, expr: A.Field, scope: _Scope) -> CType:
        base = self._check_expr(expr.base, scope)
        if expr.arrow:
            if not isinstance(base, PointerType) or \
                    not isinstance(base.pointee, StructType):
                raise TypeError_("-> on a non-struct-pointer", expr)
            st = base.pointee
        else:
            if not isinstance(base, StructType):
                raise TypeError_(". on a non-struct value", expr)
            st = base
        if not st.has_field(expr.name):
            raise TypeError_(
                f"struct {st.name} has no field {expr.name!r}", expr)
        return st.field_named(expr.name).ctype

    def _infer_call(self, expr: A.Call, scope: _Scope) -> CType:
        sig = self.info.functions.get(expr.name)
        if sig is None:
            raise TypeError_(f"call to unknown function {expr.name!r}", expr)
        if expr.name == "thread_create":
            if len(expr.args) != 2:
                raise TypeError_("thread_create takes (routine, arg)", expr)
            routine = expr.args[0]
            if not isinstance(routine, A.Ident) or \
                    routine.name not in self.info.functions or \
                    self.info.functions[routine.name].is_builtin:
                raise TypeError_(
                    "thread_create's first argument must name a user "
                    "function", expr)
            routine.ctype = INT  # type: ignore[attr-defined]
            self._check_expr(expr.args[1], scope)
            return INT
        if not sig.is_builtin and len(expr.args) != len(sig.param_types):
            raise TypeError_(
                f"{expr.name} expects {len(sig.param_types)} arguments, "
                f"got {len(expr.args)}", expr)
        if sig.is_builtin and len(sig.param_types) != len(expr.args):
            raise TypeError_(
                f"builtin {expr.name} expects {len(sig.param_types)} "
                f"arguments, got {len(expr.args)}", expr)
        for arg in expr.args:
            self._check_expr(arg, scope)
        return sig.return_type

    def _require_lvalue(self, expr: Optional[A.Expr]) -> None:
        if isinstance(expr, (A.Ident, A.Index, A.Field)):
            return
        if isinstance(expr, A.Unary) and expr.op == "*":
            return
        assert expr is not None
        raise TypeError_("expression is not assignable", expr)


def check(program: A.Program) -> TypeInfo:
    """Type-check a parsed program, returning layout/signature info."""
    return TypeChecker(program).check()
