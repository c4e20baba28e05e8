"""Reference lexer used to cross-check `plkit.lexer.tokenize`.

This is the character-at-a-time scanner plkit used before its lexer became
one master regex, kept as the oracle and sharing no code with the package.
It differs from that scanner in one deliberate way: a digit is an ASCII
digit `0`-`9` (ISO/IEC 13211-1 6.4.4), where the old scanner called
`str.isdigit`, which crashed on `²` and read `1١` as the integer 11.

`oracle_tokenize` returns plain tuples:
    tokens:      (kind, text, value, start, end, sline, scol, eline, ecol)
    diagnostics: (code, message, start, end, sline, scol, eline, ecol)
where `kind` is the `TokenKind` value string and positions are as in
`SourceSpan`. It may raise on inputs the old scanner crashed on (an octal
escape with an 8 or 9, a code point past U+10FFFF, a decimal integer over
Python's digit limit).
"""

from __future__ import annotations

import bisect

SYMBOL_CHARS = set("#$&*+-./:<=>?@^~\\")
SOLO_CHARS = set("!;")
DIGITS = "0123456789"
_CT_PRECEDERS = {"name_atom", "quoted_atom", "symbol_atom", "solo_char", "variable"}

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "a": "\a", "b": "\b", "f": "\f",
    "v": "\v", "\\": "\\", "'": "'", '"': '"', "`": "`", "0": "\0",
}


def _isdigit(ch: str) -> bool:
    return ch != "" and ch in DIGITS


class _Scanner:
    def __init__(self, source: str):
        self.src = source
        self.n = len(source)
        self.line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
        self.pos = 0
        self.tokens: list[tuple] = []
        self.diagnostics: list[tuple] = []

    def position(self, offset: int) -> tuple[int, int]:
        line = bisect.bisect_right(self.line_starts, offset) - 1
        return line + 1, offset - self.line_starts[line] + 1

    def coords(self, start: int) -> tuple:
        return (start, self.pos, *self.position(start), *self.position(self.pos))

    def peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.src[i] if i < self.n else ""

    def emit(self, kind: str, start: int, value=None):
        self.tokens.append((kind, self.src[start:self.pos], value, *self.coords(start)))

    def error(self, code: str, message: str, start: int):
        self.diagnostics.append((code, message, *self.coords(start)))

    def run(self):
        punct = {",": "comma", "|": "bar", ")": "close_paren", "[": "open_bracket",
                 "]": "close_bracket", "{": "open_brace", "}": "close_brace"}
        while self.pos < self.n:
            ch = self.src[self.pos]
            if ch.isspace():
                self.layout()
            elif ch == "%":
                self.line_comment()
            elif ch == "/" and self.peek(1) == "*":
                self.block_comment()
            elif _isdigit(ch):
                self.number()
            elif ch == "_" or ch.isalpha():
                self.name_or_variable()
            elif ch == "'":
                self.quoted("quoted_atom", "'")
            elif ch == '"':
                self.quoted("string", '"')
            elif ch in SYMBOL_CHARS:
                self.symbol()
            elif ch in SOLO_CHARS:
                self.pos += 1
                self.emit("solo_char", self.pos - 1)
            elif ch == "(":
                prev = self.tokens[-1][0] if self.tokens else None
                self.pos += 1
                self.emit("open_paren_ct" if prev in _CT_PRECEDERS else "open_paren",
                          self.pos - 1)
            elif ch in punct:
                self.pos += 1
                self.emit(punct[ch], self.pos - 1)
            else:
                start = self.pos
                self.pos += 1
                self.emit("invalid", start)
                self.error("invalid_character", f"invalid character {ch!r}", start)

    def layout(self):
        start = self.pos
        while self.pos < self.n and self.src[self.pos].isspace():
            self.pos += 1
        self.emit("layout", start)

    def line_comment(self):
        start = self.pos
        while self.pos < self.n and self.src[self.pos] != "\n":
            self.pos += 1
        self.emit("line_comment", start)

    def block_comment(self):
        start = self.pos
        self.pos += 2
        while self.pos < self.n:
            if self.src[self.pos] == "*" and self.peek(1) == "/":
                self.pos += 2
                self.emit("block_comment", start)
                return
            self.pos += 1
        self.emit("invalid", start)
        self.error("unterminated_block_comment", "unterminated block comment", start)

    def name_or_variable(self):
        start = self.pos
        first = self.src[self.pos]
        while self.pos < self.n and (
            self.src[self.pos].isalnum() or self.src[self.pos] == "_"
        ):
            self.pos += 1
        if first == "_" or first.isupper():
            self.emit("variable", start)
        else:
            self.emit("name_atom", start)

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
                self.emit("invalid", start)
                self.error("bad_number", "missing digits after radix prefix", start)
                return
            self.emit("integer", start, int(self.src[dstart:self.pos], base))
            return
        while self.pos < self.n and _isdigit(self.src[self.pos]):
            self.pos += 1
        is_float = False
        if self.peek() == "." and _isdigit(self.peek(1)):
            is_float = True
            self.pos += 1
            while self.pos < self.n and _isdigit(self.src[self.pos]):
                self.pos += 1
        if self.peek() in ("e", "E"):
            j = 1
            if self.peek(1) in ("+", "-"):
                j = 2
            if _isdigit(self.peek(j)):
                is_float = True
                self.pos += j + 1
                while self.pos < self.n and _isdigit(self.src[self.pos]):
                    self.pos += 1
        text = self.src[start:self.pos]
        if is_float:
            self.emit("float", start, float(text))
        else:
            self.emit("integer", start, int(text))

    def char_code(self, start: int):
        self.pos += 2  # 0'
        ch = self.peek()
        if ch == "":
            self.emit("invalid", start)
            self.error("bad_number", "end of input in character code", start)
            return
        if ch == "\\":
            decoded, ok = self.escape_sequence()
            if not ok or decoded == "":
                self.emit("invalid", start)
                self.error("bad_number", "invalid escape in character code", start)
                return
            self.emit("integer", start, ord(decoded))
            return
        if ch == "'" and self.peek(1) == "'":
            self.pos += 2
            self.emit("integer", start, ord("'"))
            return
        self.pos += 1
        self.emit("integer", start, ord(ch))

    def escape_sequence(self) -> tuple[str, bool]:
        self.pos += 1  # backslash
        ch = self.peek()
        if ch == "":
            return "", False
        if ch == "\n":
            self.pos += 1
            return "", True
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
            code = int(self.src[dstart:self.pos], 16)
            if self.peek() == "\\":
                self.pos += 1
            return chr(code), True
        if _isdigit(ch):
            dstart = self.pos
            while _isdigit(self.peek()):
                self.pos += 1
            code = int(self.src[dstart:self.pos], 8)
            if self.peek() == "\\":
                self.pos += 1
            return chr(code), True
        return "", False

    def quoted(self, kind: str, quote: str):
        start = self.pos
        self.pos += 1
        parts: list[str] = []
        while self.pos < self.n:
            ch = self.src[self.pos]
            if ch == quote:
                if self.peek(1) == quote:
                    parts.append(quote)
                    self.pos += 2
                    continue
                self.pos += 1
                self.emit(kind, start, "".join(parts))
                return
            if ch == "\\":
                decoded, ok = self.escape_sequence()
                if not ok:
                    if self.peek() != "":
                        parts.append(self.peek())
                        self.pos += 1
                    continue
                parts.append(decoded)
                continue
            parts.append(ch)
            self.pos += 1
        self.emit("invalid", start)
        what = "quoted atom" if quote == "'" else "string"
        code = "unterminated_quoted_atom" if quote == "'" else "unterminated_string"
        self.error(code, f"unterminated {what}", start)

    def symbol(self):
        start = self.pos
        if self.src[self.pos] == ".":
            nxt = self.peek(1)
            if (
                nxt == ""
                or nxt.isspace()
                or nxt == "%"
                or (nxt == "/" and self.peek(2) == "*")
            ):
                self.pos += 1
                self.emit("end", start)
                return
        while self.pos < self.n and self.src[self.pos] in SYMBOL_CHARS:
            self.pos += 1
        self.emit("symbol_atom", start)


def oracle_tokenize(source: str) -> tuple[list[tuple], list[tuple]]:
    scanner = _Scanner(source)
    scanner.run()
    return scanner.tokens, scanner.diagnostics
