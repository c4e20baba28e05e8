"""Lossless tokenizer for Prolog source text.

Tokenization itself is context-free; whether an atom token is an operator
is decided by the reader, against the operator table in force at the
moment it consumes the token.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .diagnostics import Diagnostic, Severity
from .spans import LineIndex, SourceSpan

SYMBOL_CHARS = set("#$&*+-./:<=>?@^~\\")
SOLO_CHARS = set("!;")


class TokenKind(enum.Enum):
    NAME_ATOM = "name_atom"
    QUOTED_ATOM = "quoted_atom"
    SYMBOL_ATOM = "symbol_atom"
    SOLO_CHAR = "solo_char"
    VARIABLE = "variable"
    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    OPEN_PAREN = "open_paren"
    OPEN_PAREN_CT = "open_paren_ct"
    CLOSE_PAREN = "close_paren"
    OPEN_BRACKET = "open_bracket"
    CLOSE_BRACKET = "close_bracket"
    OPEN_BRACE = "open_brace"
    CLOSE_BRACE = "close_brace"
    COMMA = "comma"
    BAR = "bar"
    END = "end"
    LINE_COMMENT = "line_comment"
    BLOCK_COMMENT = "block_comment"
    LAYOUT = "layout"
    INVALID = "invalid"


ATOM_KINDS = {
    TokenKind.NAME_ATOM,
    TokenKind.QUOTED_ATOM,
    TokenKind.SYMBOL_ATOM,
    TokenKind.SOLO_CHAR,
}

# Kinds that never participate in parsing decisions.
TRIVIA_KINDS = {TokenKind.LAYOUT, TokenKind.LINE_COMMENT, TokenKind.BLOCK_COMMENT}

# '(' directly after one of these becomes OPEN_PAREN_CT (f(x) vs f (x)).
_CT_PRECEDERS = ATOM_KINDS | {TokenKind.VARIABLE}


@dataclass(frozen=True, slots=True)
class Token:
    kind: TokenKind
    text: str
    span: SourceSpan
    # Decoded payload: int/float value, or unquoted text for quoted
    # atoms and strings. None for all other kinds.
    value: object = None

    def atom_name(self) -> str:
        """The atom this token denotes, for atom-like kinds."""
        if self.kind == TokenKind.QUOTED_ATOM:
            return self.value  # type: ignore[return-value]
        if self.kind == TokenKind.COMMA:
            return ","
        if self.kind == TokenKind.BAR:
            return "|"
        return self.text


_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "`": "`",
    "0": "\0",
}


class _Scanner:
    def __init__(self, source: str, file_id: str):
        self.src = source
        self.n = len(source)
        self.file_id = file_id
        self.lines = LineIndex(source)
        self.pos = 0
        self.tokens: list[Token] = []
        self.diagnostics: list[Diagnostic] = []

    def peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.src[i] if i < self.n else ""

    def emit(self, kind: TokenKind, start: int, value=None):
        span = self.lines.span(self.file_id, start, self.pos)
        self.tokens.append(Token(kind, self.src[start : self.pos], span, value))

    def error(self, code: str, message: str, start: int):
        span = self.lines.span(self.file_id, start, self.pos)
        self.diagnostics.append(Diagnostic(Severity.ERROR, code, message, span))

    def last_solid_kind(self) -> Optional[TokenKind]:
        if self.tokens:
            return self.tokens[-1].kind
        return None

    def run(self):
        while self.pos < self.n:
            ch = self.src[self.pos]
            if ch.isspace():
                self.layout()
            elif ch == "%":
                self.line_comment()
            elif ch == "/" and self.peek(1) == "*":
                self.block_comment()
            elif ch.isdigit():
                self.number()
            elif ch == "_" or ch.isalpha():
                self.name_or_variable()
            elif ch == "'":
                self.quoted(TokenKind.QUOTED_ATOM, "'")
            elif ch == '"':
                self.quoted(TokenKind.STRING, '"')
            elif ch in SYMBOL_CHARS:
                self.symbol()
            elif ch in SOLO_CHARS:
                self.pos += 1
                self.emit(TokenKind.SOLO_CHAR, self.pos - 1)
            elif ch == ",":
                self.pos += 1
                self.emit(TokenKind.COMMA, self.pos - 1)
            elif ch == "|":
                self.pos += 1
                self.emit(TokenKind.BAR, self.pos - 1)
            elif ch == "(":
                prev = self.last_solid_kind()
                self.pos += 1
                kind = (
                    TokenKind.OPEN_PAREN_CT
                    if prev in _CT_PRECEDERS
                    else TokenKind.OPEN_PAREN
                )
                self.emit(kind, self.pos - 1)
            elif ch == ")":
                self.pos += 1
                self.emit(TokenKind.CLOSE_PAREN, self.pos - 1)
            elif ch == "[":
                self.pos += 1
                self.emit(TokenKind.OPEN_BRACKET, self.pos - 1)
            elif ch == "]":
                self.pos += 1
                self.emit(TokenKind.CLOSE_BRACKET, self.pos - 1)
            elif ch == "{":
                self.pos += 1
                self.emit(TokenKind.OPEN_BRACE, self.pos - 1)
            elif ch == "}":
                self.pos += 1
                self.emit(TokenKind.CLOSE_BRACE, self.pos - 1)
            else:
                start = self.pos
                self.pos += 1
                self.emit(TokenKind.INVALID, start)
                self.error("invalid_character", f"invalid character {ch!r}", start)

    def layout(self):
        start = self.pos
        while self.pos < self.n and self.src[self.pos].isspace():
            self.pos += 1
        self.emit(TokenKind.LAYOUT, start)

    def line_comment(self):
        start = self.pos
        while self.pos < self.n and self.src[self.pos] != "\n":
            self.pos += 1
        self.emit(TokenKind.LINE_COMMENT, start)

    def block_comment(self):
        start = self.pos
        self.pos += 2
        while self.pos < self.n:
            if self.src[self.pos] == "*" and self.peek(1) == "/":
                self.pos += 2
                self.emit(TokenKind.BLOCK_COMMENT, start)
                return
            self.pos += 1
        self.emit(TokenKind.INVALID, start)
        self.error("unterminated_block_comment", "unterminated block comment", start)

    def name_or_variable(self):
        start = self.pos
        first = self.src[self.pos]
        while self.pos < self.n and (
            self.src[self.pos].isalnum() or self.src[self.pos] == "_"
        ):
            self.pos += 1
        if first == "_" or first.isupper():
            self.emit(TokenKind.VARIABLE, start)
        else:
            self.emit(TokenKind.NAME_ATOM, start)

    def number(self):
        start = self.pos
        if self.src[self.pos] == "0" and self.peek(1) == "'":
            self.char_code(start)
            return
        if self.src[self.pos] == "0" and self.peek(1) in ("x", "o", "b"):
            base = {"x": 16, "o": 8, "b": 2}[self.peek(1)]
            digits = {16: "0123456789abcdefABCDEF", 8: "01234567", 2: "01"}[base]
            self.pos += 2
            dstart = self.pos
            while self.pos < self.n and self.src[self.pos] in digits:
                self.pos += 1
            if self.pos == dstart:
                self.emit(TokenKind.INVALID, start)
                self.error("bad_number", "missing digits after radix prefix", start)
                return
            self.emit(TokenKind.INTEGER, start, int(self.src[dstart : self.pos], base))
            return
        while self.pos < self.n and self.src[self.pos].isdigit():
            self.pos += 1
        is_float = False
        if (
            self.peek() == "."
            and self.peek(1).isdigit()
        ):
            is_float = True
            self.pos += 1
            while self.pos < self.n and self.src[self.pos].isdigit():
                self.pos += 1
        if self.peek() in ("e", "E"):
            j = 1
            if self.peek(1) in ("+", "-"):
                j = 2
            if self.peek(j).isdigit():
                is_float = True
                self.pos += j + 1
                while self.pos < self.n and self.src[self.pos].isdigit():
                    self.pos += 1
        text = self.src[start : self.pos]
        if is_float:
            self.emit(TokenKind.FLOAT, start, float(text))
        else:
            self.emit(TokenKind.INTEGER, start, int(text))

    def char_code(self, start: int):
        self.pos += 2  # 0'
        ch = self.peek()
        if ch == "":
            self.emit(TokenKind.INVALID, start)
            self.error("bad_number", "end of input in character code", start)
            return
        if ch == "\\":
            decoded, ok = self.escape_sequence()
            if not ok or decoded == "":
                self.emit(TokenKind.INVALID, start)
                self.error("bad_number", "invalid escape in character code", start)
                return
            self.emit(TokenKind.INTEGER, start, ord(decoded))
            return
        if ch == "'" and self.peek(1) == "'":
            self.pos += 2
            self.emit(TokenKind.INTEGER, start, ord("'"))
            return
        self.pos += 1
        self.emit(TokenKind.INTEGER, start, ord(ch))

    def escape_sequence(self) -> tuple[str, bool]:
        """Consume one backslash escape; returns (decoded text, ok)."""
        self.pos += 1  # backslash
        ch = self.peek()
        if ch == "":
            return "", False
        if ch == "\n":
            self.pos += 1
            return "", True  # line continuation
        if ch in _ESCAPES:
            self.pos += 1
            return _ESCAPES[ch], True
        if ch == "x":
            self.pos += 1
            dstart = self.pos
            while self.peek() in "0123456789abcdefABCDEF" and self.peek() != "":
                self.pos += 1
            if self.pos == dstart:
                return "", False
            code = int(self.src[dstart : self.pos], 16)
            if self.peek() == "\\":
                self.pos += 1
            return chr(code), True
        if ch.isdigit():
            dstart = self.pos
            while self.peek().isdigit():
                self.pos += 1
            code = int(self.src[dstart : self.pos], 8)
            if self.peek() == "\\":
                self.pos += 1
            return chr(code), True
        return "", False

    def quoted(self, kind: TokenKind, quote: str):
        start = self.pos
        self.pos += 1
        parts: list[str] = []
        while self.pos < self.n:
            ch = self.src[self.pos]
            if ch == quote:
                if self.peek(1) == quote:  # doubled quote
                    parts.append(quote)
                    self.pos += 2
                    continue
                self.pos += 1
                self.emit(kind, start, "".join(parts))
                return
            if ch == "\\":
                decoded, ok = self.escape_sequence()
                if not ok:
                    # Lenient: keep the character after the backslash verbatim.
                    if self.peek() != "":
                        parts.append(self.peek())
                        self.pos += 1
                    continue
                parts.append(decoded)
                continue
            parts.append(ch)
            self.pos += 1
        self.emit(TokenKind.INVALID, start)
        what = "quoted atom" if quote == "'" else "string"
        code = "unterminated_quoted_atom" if quote == "'" else "unterminated_string"
        self.error(code, f"unterminated {what}", start)

    def symbol(self):
        start = self.pos
        # A lone '.' followed by layout, a comment, or end-of-input is the
        # clause terminator.
        if self.src[self.pos] == ".":
            nxt = self.peek(1)
            if (
                nxt == ""
                or nxt.isspace()
                or nxt == "%"
                or (nxt == "/" and self.peek(2) == "*")
            ):
                self.pos += 1
                self.emit(TokenKind.END, start)
                return
        while self.pos < self.n and self.src[self.pos] in SYMBOL_CHARS:
            self.pos += 1
        self.emit(TokenKind.SYMBOL_ATOM, start)


def tokenize(source: str, file_id: str = "<string>") -> tuple[list[Token], list[Diagnostic]]:
    """Lex `source` into a lossless token stream.

    Joining all token texts reproduces the source exactly; lexical errors
    become INVALID tokens plus diagnostics, never exceptions.
    """
    scanner = _Scanner(source, file_id)
    scanner.run()
    return scanner.tokens, scanner.diagnostics
