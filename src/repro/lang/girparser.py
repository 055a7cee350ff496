"""Parser for GIR assembly text (the output of :meth:`Module.format`).

Round-tripping the IR through text makes modules diffable, storable next to
bug reports, and hand-editable in tests: ``parse_gir(module.format())``
reconstructs an equivalent module (same functions, blocks, instructions,
globals, strings, and debug lines — uids are reassigned by finalization and
the original MiniC source text is not embedded in the assembly).
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Tuple

from .ir import (
    BasicBlock,
    ConstInt,
    FuncRef,
    Function,
    GlobalRef,
    GlobalVar,
    Instr,
    Module,
    NullPtr,
    Opcode,
    Operand,
    Register,
    StrConst,
)

_LINE_SUFFIX = re.compile(r"\s*;\s*line\s+(\d+)\s*$")
_GLOBAL = re.compile(r"^@(\w+)\s*:\s*\[(\d+)\](?:\s*=\s*(\[.*\]))?$")
_STRING = re.compile(r"^str#(\d+)\s*=\s*(.+)$")
_FUNC = re.compile(r"^def\s+(\w+)\((.*)\)\s*\{$")
_LABEL = re.compile(r"^([\w.]+):$")
_ASSERT_MSG = re.compile(r"\s*!('(?:[^'\\]|\\.)*')\s*$")

_OPCODES = {op.value: op for op in Opcode}

#: Binary/unary operator spellings, longest first for greedy matching.
_OPERATORS = sorted(
    ["+", "-", "*", "/", "%", "==", "!=", "<=", ">=", "<", ">",
     "&", "|", "^", "<<", ">>", "!", "~"], key=len, reverse=True)


class GirParseError(Exception):
    """Malformed GIR assembly text."""
    def __init__(self, message: str, lineno: int) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _literal(text: str, lineno: int):
    """``ast.literal_eval`` with its errors typed as :class:`GirParseError`."""
    try:
        return ast.literal_eval(text)
    except (SyntaxError, ValueError):
        raise GirParseError(f"bad literal {text!r}", lineno) from None


def _parse_operand(text: str, lineno: int) -> Operand:
    text = text.strip()
    if text == "null":
        return NullPtr()
    if text.startswith("%"):
        return Register(text[1:])
    if text.startswith("@"):
        return GlobalRef(text[1:])
    if text.startswith("&"):
        return FuncRef(text[1:])
    if text.startswith("str#"):
        return StrConst(int(text[4:]))
    try:
        return ConstInt(int(text, 0))
    except ValueError:
        raise GirParseError(f"bad operand {text!r}", lineno) from None


def _split_operands(text: str, lineno: int) -> Tuple[Operand, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_operand(part, lineno)
                 for part in text.split(","))


def _parse_instr(text: str, lineno: int) -> Instr:
    line_no = 0
    match = _LINE_SUFFIX.search(text)
    if match:
        line_no = int(match.group(1))
        text = text[: match.start()]
    text = text.strip()

    dst: Optional[Register] = None
    if text.startswith("%"):
        head, _, rest = text.partition("=")
        reg_text = head.strip()
        if not rest:
            raise GirParseError("destination without '='", lineno)
        dst = Register(reg_text[1:])
        text = rest.strip()

    parts = text.split(None, 1)
    opcode = _OPCODES.get(parts[0])
    if opcode is None:
        raise GirParseError(f"unknown opcode {parts[0]!r}", lineno)
    rest = parts[1] if len(parts) > 1 else ""

    instr = Instr(opcode, dst=dst, line=line_no)

    if opcode in (Opcode.BINOP, Opcode.UNOP):
        for op in _OPERATORS:
            if rest.startswith(op + " ") or rest == op:
                instr.op = op
                rest = rest[len(op):].strip()
                break
        else:
            raise GirParseError(f"missing operator in {text!r}", lineno)
        instr.operands = _split_operands(rest, lineno)
        return instr

    if opcode == Opcode.CALL:
        callee, _, args = rest.partition(" ")
        instr.callee = callee.strip()
        instr.operands = _split_operands(args, lineno)
        return instr

    if opcode == Opcode.ALLOCA:
        match = re.match(r"^\[(\d+)\]\s*$", rest)
        if not match:
            raise GirParseError(f"bad alloca size in {text!r}", lineno)
        instr.size = int(match.group(1))
        return instr

    if opcode in (Opcode.BR, Opcode.JMP):
        body, arrow, labels = rest.partition("->")
        if not arrow:
            raise GirParseError(f"missing '->' in {text!r}", lineno)
        instr.operands = _split_operands(body, lineno)
        instr.labels = tuple(lbl.strip() for lbl in labels.split(","))
        return instr

    if opcode == Opcode.ASSERT:
        match = _ASSERT_MSG.search(rest)
        if match:
            instr.text = _literal(match.group(1), lineno)
            rest = rest[: match.start()]
        instr.operands = _split_operands(rest, lineno)
        return instr

    # CONST, MOVE, LOAD, STORE, GEP, RET: plain operand lists.
    instr.operands = _split_operands(rest, lineno)
    return instr


def parse_gir(text: str) -> Module:
    """Parse GIR assembly into a finalized module."""
    module = Module("module")
    func: Optional[Function] = None
    block: Optional[BasicBlock] = None
    expected_strings: List[Tuple[int, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("; module"):
            module.name = stripped[len("; module"):].strip() or "module"
            continue
        if stripped.startswith(";"):
            continue
        if func is None:
            match = _GLOBAL.match(stripped)
            if match:
                name, size, init_text = match.groups()
                init = tuple(_literal(init_text, lineno)) if init_text else ()
                module.add_global(GlobalVar(name, size=int(size), init=init))
                continue
            match = _STRING.match(stripped)
            if match:
                expected_strings.append(
                    (int(match.group(1)), _literal(match.group(2), lineno)))
                continue
        match = _FUNC.match(stripped)
        if match:
            if func is not None:
                raise GirParseError("nested function definition", lineno)
            name, params_text = match.groups()
            params = [p.strip()[1:] for p in params_text.split(",")
                      if p.strip()]
            func = Function(name=name, params=params)
            block = None
            continue
        if stripped == "}":
            if func is None:
                raise GirParseError("'}' outside function", lineno)
            module.add_function(func)
            func = None
            block = None
            continue
        match = _LABEL.match(stripped)
        if match and func is not None:
            try:
                block = func.add_block(match.group(1))
            except ValueError as err:
                raise GirParseError(str(err), lineno) from None
            continue
        if func is None or block is None:
            raise GirParseError(f"unexpected content {stripped!r}", lineno)
        block.instrs.append(_parse_instr(stripped, lineno))

    if func is not None:
        raise GirParseError("unterminated function", len(text.splitlines()))

    # Strings must be registered in index order to preserve StrConst refs.
    for index, value in sorted(expected_strings):
        if index != len(module.strings):
            raise GirParseError(
                f"string index {index} out of order", 0)
        module.strings.append(value)
    return module.finalize()
