"""Hand-written lexer for MiniC.

MiniC is the C subset our bug corpus is written in; see
:mod:`repro.lang.parser` for the grammar.  The lexer supports ``//`` and
``/* */`` comments, decimal/hex integer literals, character literals with the
usual escapes, and string literals.
"""

from __future__ import annotations

from typing import List

from .tokens import KEYWORDS, Token, TokKind


class LexError(Exception):
    """Raised on malformed input; carries the source position."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
}

# Multi-char operators, longest first so maximal munch works.
_OPERATORS = [
    ("->", TokKind.ARROW),
    ("<<", TokKind.SHL),
    (">>", TokKind.SHR),
    ("==", TokKind.EQ),
    ("!=", TokKind.NE),
    ("<=", TokKind.LE),
    (">=", TokKind.GE),
    ("&&", TokKind.ANDAND),
    ("||", TokKind.OROR),
    ("++", TokKind.PLUSPLUS),
    ("--", TokKind.MINUSMINUS),
    ("+=", TokKind.PLUS_ASSIGN),
    ("-=", TokKind.MINUS_ASSIGN),
    ("(", TokKind.LPAREN),
    (")", TokKind.RPAREN),
    ("{", TokKind.LBRACE),
    ("}", TokKind.RBRACE),
    ("[", TokKind.LBRACKET),
    ("]", TokKind.RBRACKET),
    (";", TokKind.SEMI),
    (",", TokKind.COMMA),
    (".", TokKind.DOT),
    ("*", TokKind.STAR),
    ("/", TokKind.SLASH),
    ("%", TokKind.PERCENT),
    ("+", TokKind.PLUS),
    ("-", TokKind.MINUS),
    ("&", TokKind.AMP),
    ("|", TokKind.PIPE),
    ("^", TokKind.CARET),
    ("!", TokKind.NOT),
    ("~", TokKind.TILDE),
    ("=", TokKind.ASSIGN),
    ("<", TokKind.LT),
    (">", TokKind.GT),
]


class Lexer:
    """Streaming tokenizer over one MiniC source string."""
    def __init__(self, source: str) -> None:
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1

    # -- low-level helpers ---------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.src[i] if i < len(self.src) else ""

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.src):
                if self.src[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _error(self, msg: str) -> LexError:
        return LexError(msg, self.line, self.col)

    # -- scanning --------------------------------------------------------------

    def _skip_trivia(self) -> None:
        while True:
            c = self._peek()
            if c and c in " \t\r\n":
                self._advance()
            elif c == "/" and self._peek(1) == "/":
                while self._peek() and self._peek() != "\n":
                    self._advance()
            elif c == "/" and self._peek(1) == "*":
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if not self._peek():
                        raise self._error("unterminated block comment")
                    self._advance()
                self._advance(2)
            else:
                return

    def _scan_escape(self) -> str:
        self._advance()  # backslash
        c = self._peek()
        if c not in _ESCAPES:
            raise self._error(f"unknown escape \\{c}")
        self._advance()
        return _ESCAPES[c]

    def _scan_string(self) -> str:
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            c = self._peek()
            if not c or c == "\n":
                raise self._error("unterminated string literal")
            if c == '"':
                self._advance()
                return "".join(chars)
            if c == "\\":
                chars.append(self._scan_escape())
            else:
                chars.append(c)
                self._advance()

    def _scan_char(self) -> str:
        self._advance()  # opening quote
        c = self._peek()
        if c == "\\":
            value = self._scan_escape()
        elif c and c != "'":
            value = c
            self._advance()
        else:
            raise self._error("empty character literal")
        if self._peek() != "'":
            raise self._error("unterminated character literal")
        self._advance()
        return value

    def _scan_number(self) -> str:
        start = self.pos
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
        return self.src[start:self.pos]

    def _scan_ident(self) -> str:
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        return self.src[start:self.pos]

    def tokens(self) -> List[Token]:
        """Tokenize the whole input, ending with an EOF token."""
        out: List[Token] = []
        while True:
            self._skip_trivia()
            line, col = self.line, self.col
            c = self._peek()
            if not c:
                out.append(Token(TokKind.EOF, "", line, col))
                return out
            if c.isdigit():
                text = self._scan_number()
                try:
                    int(text, 0)  # rejects "09" and a bare "0x"
                except ValueError:
                    raise LexError(f"malformed integer literal {text!r}",
                                   line, col) from None
                out.append(Token(TokKind.INT, text, line, col))
            elif c.isalpha() or c == "_":
                text = self._scan_ident()
                kind = KEYWORDS.get(text, TokKind.IDENT)
                out.append(Token(kind, text, line, col))
            elif c == '"':
                out.append(Token(TokKind.STRING, self._scan_string(), line, col))
            elif c == "'":
                out.append(Token(TokKind.CHAR, self._scan_char(), line, col))
            else:
                for text, kind in _OPERATORS:
                    if self.src.startswith(text, self.pos):
                        self._advance(len(text))
                        out.append(Token(kind, text, line, col))
                        break
                else:
                    raise self._error(f"unexpected character {c!r}")


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: tokenize MiniC source."""
    return Lexer(source).tokens()
