"""Tokenizer for Prolog source text.

`tokenize` gives the tokens the reader reads, in source order, and then
the comments, in source order, as plain tuples `(kind, text, start, end,
value)`: `start` and `end` are the code-point offsets of `text` in the
source, and `value` is the decoded number or quoted text, or None. Layout
is skipped, never built. `lossless` is the view that covers every
character: `Token` objects in source order, with one LAYOUT token in each
gap between two tokens, so that joining their texts gives the source back.

Every offset below `OFFSET_BOUND` is one shared int object, taken from a
module-level table: a project's model holds each offset value once, not once
per token of every file. Larger offsets are fresh ints; the bound keeps the
table small for a program that lexes one long file.

Tokenization itself is context-free; whether an atom token is an operator
is decided by the reader, against the operator table in force at the
moment it consumes the token.

One master regular expression of named alternatives (the "Writing a
Tokenizer" recipe of the `re` documentation) skips layout and scans
comments, names, variables, decimal numbers, symbol atoms, punctuation and
quoted text without backslashes. Hand-written code handles escapes, `0'`
character codes, radix numbers, unterminated tokens, invalid characters and
tokens that start with a non-ASCII character.
"""

from __future__ import annotations

import enum
import operator
import re
from typing import Optional

from .diagnostics import Diagnostic, Severity
from .spans import LineIndex, SourceSpan

SYMBOL_CHARS = set("#$&*+-./:<=>?@^~\\")


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

    # Members are singletons; Enum's own __hash__ is Python code, and the
    # reader tests kinds against sets for nearly every token.
    __hash__ = object.__hash__


ATOM_KINDS = {
    TokenKind.NAME_ATOM,
    TokenKind.QUOTED_ATOM,
    TokenKind.SYMBOL_ATOM,
    TokenKind.SOLO_CHAR,
}

COMMENT_KINDS = {TokenKind.LINE_COMMENT, TokenKind.BLOCK_COMMENT}

# '(' right after one of these, with no layout or comment between, becomes
# OPEN_PAREN_CT (f(x) vs f (x)).
_CT_PRECEDERS = ATOM_KINDS | {TokenKind.VARIABLE}


class Token:
    """One lexeme of the lossless view, or a comment a sentence keeps: its
    kind, text and decoded value, and the [start, end) code-point offsets of
    its text in the file that `lines` indexes."""

    __slots__ = ("kind", "text", "lines", "start", "end", "value")

    def __init__(self, kind: TokenKind, text: str, lines: LineIndex,
                 start: int, end: int, value=None):
        self.kind = kind
        self.text = text
        self.lines = lines
        self.start = start
        self.end = end
        # Decoded payload: int/float value, or unquoted text for quoted
        # atoms and strings. None for all other kinds.
        self.value = value

    @property
    def span(self) -> SourceSpan:
        """A new span over the token, built on each call."""
        return SourceSpan(self.lines, self.start, self.end)

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.span!r}, {self.value!r})"


# Each match skips a run of layout, then takes one token. Alternatives are
# tried in order: `end` before `symbol`, radix and character-code prefixes
# before decimal numbers, `float` before `integer`. A quoted item matches
# only when it is closed and holds no backslash; the final `hand`
# alternative takes any other character to the hand-written scanners below.
# After trailing layout nothing matches, as `hand` takes no layout.
_MASTER = re.compile(rf"""\s*(?:
    (?P<name>[a-z]\w*)
  | (?P<variable>[A-Z_]\w*)
  | (?P<punct>[(),|\[\]{{}}])
  | (?P<solo>[!;])
  | (?P<end>\.(?=\s|%|/\*|\Z))
  | (?P<prefixed_number>0['xob])
  | (?P<float>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))
  | (?P<integer>[0-9]+)
  | (?P<line_comment>%[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<open_comment>/\*)
  | (?P<symbol>[{re.escape(''.join(sorted(SYMBOL_CHARS)))}]+)
  | (?P<quoted>'[^'\\]*(?:''[^'\\]*)*'(?!'))
  | (?P<string>"[^"\\]*(?:""[^"\\]*)*"(?!"))
  | (?P<hand>\S)
)""", re.VERBOSE | re.DOTALL)

# By the number of the group that matched: the kind of a token that needs
# no more than its text, or None where the scanner has more to do.
_PLAIN_KINDS = [None] * (_MASTER.groups + 1)
for _group, _kind in {
    "name": TokenKind.NAME_ATOM,
    "variable": TokenKind.VARIABLE,
    "solo": TokenKind.SOLO_CHAR,
    "end": TokenKind.END,
    "symbol": TokenKind.SYMBOL_ATOM,
}.items():
    _PLAIN_KINDS[_MASTER.groupindex[_group]] = _kind
_COMMENT_GROUPS = {_MASTER.groupindex["line_comment"]: TokenKind.LINE_COMMENT,
                   _MASTER.groupindex["block_comment"]: TokenKind.BLOCK_COMMENT}
_PUNCT, _INTEGER, _FLOAT, _QUOTED, _STRING = (
    _MASTER.groupindex[group] for group in ("punct", "integer", "float", "quoted", "string"))

_PUNCT_KINDS = {
    "(": TokenKind.OPEN_PAREN,
    ")": TokenKind.CLOSE_PAREN,
    "[": TokenKind.OPEN_BRACKET,
    "]": TokenKind.CLOSE_BRACKET,
    "{": TokenKind.OPEN_BRACE,
    "}": TokenKind.CLOSE_BRACE,
    ",": TokenKind.COMMA,
    "|": TokenKind.BAR,
}

_WORD = re.compile(r"\w+")
_HEX = re.compile("[0-9a-fA-F]+")
_OCTAL = re.compile("[0-7]+")
_RADIX = {"x": (16, _HEX), "o": (8, _OCTAL), "b": (2, re.compile("[01]+"))}
_UNQUOTED_RUN = {"'": re.compile(r"[^'\\]+"), '"': re.compile(r'[^"\\]+')}

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

# What a hand-written scanner returns: the token's kind, its end offset, its
# value, and the (code, message) of the error it reports or None.
_Scanned = tuple[TokenKind, int, object, Optional[tuple[str, str]]]


def _scan_by_hand(src: str, start: int) -> _Scanned:
    ch = src[start]
    if ch == "0":  # the master regex matched 0' 0x 0o or 0b
        if src[start + 1] == "'":
            return _char_code(src, start)
        base, digits = _RADIX[src[start + 1]]
        m = digits.match(src, start + 2)
        if m is None:
            return (TokenKind.INVALID, start + 2, None,
                    ("bad_number", "missing digits after radix prefix"))
        return TokenKind.INTEGER, m.end(), int(m.group(), base), None
    if ch == "/":  # the master regex matched /* with no closing */
        return (TokenKind.INVALID, len(src), None,
                ("unterminated_block_comment", "unterminated block comment"))
    if ch == "'":
        return _quoted(src, start, TokenKind.QUOTED_ATOM)
    if ch == '"':
        return _quoted(src, start, TokenKind.STRING)
    if ch.isalpha():  # a non-ASCII letter
        kind = TokenKind.VARIABLE if ch.isupper() else TokenKind.NAME_ATOM
        return kind, _WORD.match(src, start).end(), None, None
    return (TokenKind.INVALID, start + 1, None,
            ("invalid_character", f"invalid character {ch!r}"))


def _char_code(src: str, start: int) -> _Scanned:
    pos = start + 2  # 0'
    if pos == len(src):
        return (TokenKind.INVALID, pos, None,
                ("bad_number", "end of input in character code"))
    ch = src[pos]
    if ch == "\\":
        decoded, ok, pos = _escape(src, pos)
        if not ok or decoded == "":
            return (TokenKind.INVALID, pos, None,
                    ("bad_number", "invalid escape in character code"))
        return TokenKind.INTEGER, pos, ord(decoded), None
    if ch == "'" and src.startswith("'", pos + 1):
        return TokenKind.INTEGER, pos + 2, ord("'"), None
    return TokenKind.INTEGER, pos + 1, ord(ch), None


def _escape(src: str, pos: int) -> tuple[str, bool, int]:
    """Decode the backslash escape at `pos`: (text, ok, offset after it)."""
    pos += 1  # backslash
    if pos == len(src):
        return "", False, pos
    ch = src[pos]
    if ch == "\n":
        return "", True, pos + 1  # line continuation
    if ch in _ESCAPES:
        return _ESCAPES[ch], True, pos + 1
    if ch == "x":
        base, m = 16, _HEX.match(src, pos + 1)
        if m is None:
            return "", False, pos + 1
    elif ch in "1234567":
        base, m = 8, _OCTAL.match(src, pos)
    else:
        return "", False, pos
    code = int(m.group(), base)
    pos = m.end()
    if code > 0x10FFFF:
        return "", False, pos
    if src.startswith("\\", pos):
        pos += 1
    return chr(code), True, pos


def _quoted(src: str, start: int, kind: TokenKind) -> _Scanned:
    quote = src[start]
    unquoted_run = _UNQUOTED_RUN[quote]
    n = len(src)
    pos = start + 1
    parts: list[str] = []
    while pos < n:
        m = unquoted_run.match(src, pos)
        if m is not None:
            parts.append(m.group())
            pos = m.end()
            continue
        if src[pos] == quote:
            if src.startswith(quote, pos + 1):  # doubled quote
                parts.append(quote)
                pos += 2
                continue
            return kind, pos + 1, "".join(parts), None
        decoded, ok, pos = _escape(src, pos)
        if ok:
            parts.append(decoded)
        elif pos < n:
            # Lenient: keep the character after the backslash verbatim.
            parts.append(src[pos])
            pos += 1
    if quote == "'":
        return (TokenKind.INVALID, n, None,
                ("unterminated_quoted_atom", "unterminated quoted atom"))
    return TokenKind.INVALID, n, None, ("unterminated_string", "unterminated string")


# Kinds as module globals: on Python 3.11 each TokenKind.X lookup runs
# EnumType.__getattr__.
_INTEGER_KIND, _FLOAT_KIND, _QUOTED_KIND, _STRING_KIND = (
    TokenKind.INTEGER, TokenKind.FLOAT, TokenKind.QUOTED_ATOM, TokenKind.STRING)
_OPEN_PAREN, _OPEN_PAREN_CT = TokenKind.OPEN_PAREN, TokenKind.OPEN_PAREN_CT
_INFINITY = float("inf")

# The shared offsets. The table is an immutable tuple, built once and never
# changed in place, so lexers in several threads read it without a lock. At
# this bound it costs ~0.3 MB with its ints; a table grown to fit one long
# file would cost more than sharing its offsets saves.
OFFSET_BOUND = 1 << 13
_OFFSETS = tuple(range(OFFSET_BOUND))


def tokenize(source: str, file_id: str = "<string>") -> tuple[list[tuple], list[Diagnostic]]:
    """Lex `source` into tuples `(kind, text, start, end, value)`: its
    tokens in source order, then its comments in source order, so that a
    reader can slice the comments off. Layout is skipped. Lexical errors
    become INVALID tokens plus diagnostics, never exceptions.
    """
    tokens: list[tuple] = []
    comments: list[tuple] = []
    diagnostics: list[Diagnostic] = []
    append = tokens.append
    match = _MASTER.match
    plain_kinds = _PLAIN_KINDS
    offsets, bound = _OFFSETS, OFFSET_BOUND
    lines = None  # built for the first diagnostic
    pos = 0  # the end of the last token or comment
    while True:
        m = match(source, pos)
        if m is None:  # at the end, or only layout is left
            tokens += comments
            return tokens, diagnostics
        group = m.lastindex
        start, end = m.span(group)
        if end < bound:
            start, end = offsets[start], offsets[end]
        elif start < bound:
            start = offsets[start]
        kind = plain_kinds[group]
        if kind is not None:
            append((kind, source[start:end], start, end, None))
            pos = end
            continue
        value = error = None
        if group == _PUNCT:
            kind = _PUNCT_KINDS[source[start]]
            # no layout or comment between it and the token before it
            if (kind is _OPEN_PAREN and tokens and tokens[-1][3] == start
                    and tokens[-1][0] in _CT_PRECEDERS):
                kind = _OPEN_PAREN_CT
        elif group == _INTEGER:
            kind = _INTEGER_KIND
            try:
                value = int(source[start:end])
            except ValueError:  # more digits than the interpreter converts
                kind = TokenKind.INVALID
                error = ("bad_number", "integer literal has too many digits")
        elif group == _QUOTED:
            kind = _QUOTED_KIND
            value = source[start + 1:end - 1].replace("''", "'")
        elif group == _STRING:
            kind = _STRING_KIND
            value = source[start + 1:end - 1].replace('""', '"')
        elif group == _FLOAT:
            kind = _FLOAT_KIND
            value = float(source[start:end])
            if value == _INFINITY:  # past the largest float
                kind, value = TokenKind.INVALID, None
                error = ("bad_number", "float literal out of range")
        elif group in _COMMENT_GROUPS:
            comments.append((_COMMENT_GROUPS[group], source[start:end], start, end, None))
            pos = end
            continue
        else:
            kind, end, value, error = _scan_by_hand(source, start)
            if end < bound:
                end = offsets[end]
        append((kind, source[start:end], start, end, value))
        if error is not None:
            if lines is None:
                lines = LineIndex(file_id, source)
            diagnostics.append(Diagnostic(Severity.ERROR, error[0], error[1],
                                          SourceSpan(lines, start, end)))
        pos = end


def lossless(source: str, file_id: str = "<string>") -> tuple[list[Token], list[Diagnostic]]:
    """The lossless view of `source`: each token and comment of `tokenize`
    as a `Token`, in source order, with one LAYOUT token for each run of
    layout between them, so that joining all token texts reproduces the
    source exactly."""
    tokens, diagnostics = tokenize(source, file_id)
    tokens.sort(key=operator.itemgetter(2))
    lines = LineIndex(file_id, source)
    view: list[Token] = []
    pos, n = 0, len(source)
    # A last, empty item at the end of the source closes the final gap.
    for kind, text, start, end, value in [*tokens, (None, "", n, n, None)]:
        if pos < start:
            view.append(Token(TokenKind.LAYOUT, source[pos:start], lines, pos, start))
        if kind is not None:
            view.append(Token(kind, text, lines, start, end, value))
        pos = end
    return view, diagnostics
