"""Canonical text rendering of terms.

Output is guaranteed to re-parse (under the same operator table) to a
structurally equal term: operators print in operator notation with
minimal parenthesization, atoms are quoted when their spelling demands
it, and spacing is inserted only where adjacent tokens would otherwise
fuse during lexing.
"""

from __future__ import annotations

import re

from .database import Database, OperatorTable
from .lexer import SYMBOL_CHARS
from .terms import (
    Atom,
    Compound,
    Float,
    Int,
    Str,
    Term,
    Var,
    list_parts,
)

_NAME_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")

_QUOTE_ESCAPES = {
    "\\": "\\\\",
    "'": "\\'",
    "\n": "\\n",
    "\t": "\\t",
    "\r": "\\r",
    "\a": "\\a",
    "\b": "\\b",
    "\f": "\\f",
    "\v": "\\v",
    "\0": "\\0",
}


def atom_needs_quote(name: str) -> bool:
    if _NAME_ATOM_RE.match(name):
        return False
    if name in ("[]", "{}", "!", ";"):
        return False
    if name and all(c in SYMBOL_CHARS for c in name) and name != ".":
        return False
    return True


def quote_atom(name: str) -> str:
    body = "".join(_QUOTE_ESCAPES.get(c, c) for c in name)
    return f"'{body}'"


def atom_text(name: str) -> str:
    return quote_atom(name) if atom_needs_quote(name) else name


def _string_text(value: str) -> str:
    body = "".join(
        {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}.get(c, c)
        for c in value
    )
    return f'"{body}"'


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def _fuses(a: str, b: str) -> bool:
    """Whether the characters a and b, written side by side, would lex as
    part of one token."""
    return ((a in SYMBOL_CHARS and b in SYMBOL_CHARS)
            or (_is_ident_char(a) and _is_ident_char(b))
            or (a == "'" and b == "'"))


class _Gap:
    """A place between the parts of an operator term where a space is
    written if the characters on either side would fuse. After a prefix
    operator, a space is also written before a '(' (which would read as
    the operator's argument list, not a parenthesized operand) and, after
    a prefix '-' or '+', before a digit (which would read as a signed
    number); an infix or postfix operator atom there is put in
    parentheses."""

    def __init__(self, before_paren: bool):
        self.before_paren = before_paren


_GAP = _Gap(False)
_PREFIX_GAP = _Gap(True)


class _Printer:
    def __init__(self, table: OperatorTable):
        self.table = table

    def fmt(self, term: Term, max_priority: int) -> str:
        """`term` as text, in parentheses if its priority exceeds
        `max_priority`.

        The text is written left to right from an explicit stack of what
        is still to be written: text pieces, gaps, and (compound, max
        priority) pairs, each replaced by the pieces of its compound. Depth
        is bounded by memory, not by Python's recursion limit.
        """
        if not isinstance(term, Compound):
            return _fmt_atomic(term)
        out: list[str] = []
        last = ""  # the last character written
        gap = None  # a gap waiting for the next piece
        todo = self.fmt_compound(term, max_priority)
        todo.reverse()
        while todo:
            item = todo.pop()
            if item.__class__ is tuple:  # (compound, max priority)
                todo += reversed(self.fmt_compound(*item))
                continue
            if item.__class__ is _Gap:
                gap = item
                continue
            if gap is not None:
                if gap is _PREFIX_GAP:
                    entry = self.table.by_name.get(item)
                    if entry and "prefix" not in entry:
                        # An infix or postfix operator atom right after a
                        # prefix operator would read as an operator with
                        # the prefix one as its left argument.
                        item = f"({item})"
                if _fuses(last, item[0]) or (gap.before_paren and (
                        item[0] == "("
                        or (item[0].isdigit() and out[-1] in ("-", "+")))):
                    out.append(" ")
                gap = None
            out.append(item)
            last = item[-1]
        return "".join(out)

    def fmt_compound(self, term: Compound, max_priority: int) -> list:
        """What `term` is written as, in order."""
        parts_tail = list_parts(term)
        if parts_tail is not None:
            return _sequence("[", *parts_tail, "]")
        if term.name == "{}" and len(term.args) == 1:
            return ["{", _arg(term.args[0], 1200), "}"]
        rendered = self.fmt_operator(term)
        if rendered is not None:
            pieces, priority = rendered
            if priority > max_priority:
                return ["(", *pieces, ")"]
            return pieces
        return self.fmt_canonical(term)

    def fmt_operator(self, term: Compound):
        """What `term` is written as in operator notation, and its
        priority; None when it has none."""
        name, args = term.name, term.args
        if len(args) == 2:
            if name == ",":
                return [_arg(args[0], 999), _GAP, ",", _GAP,
                        _arg(args[1], 1000)], 1000
            op = self.table.infix(name)
            if op is None or atom_needs_quote(name):
                return None
            return [_arg(args[0], op.left_arg_max()), _GAP, name, _GAP,
                    _arg(args[1], op.right_arg_max())], op.priority
        if len(args) != 1:
            return None
        op = self.table.prefix(name)
        if op is not None and not atom_needs_quote(name):
            return [name, _PREFIX_GAP, _arg(args[0], op.right_arg_max())], \
                op.priority
        op = self.table.postfix(name)
        if op is not None and not atom_needs_quote(name):
            return [_arg(args[0], op.left_arg_max()), _GAP, name], op.priority
        return None

    def fmt_canonical(self, term: Compound) -> list:
        return _sequence(atom_text(term.name) + "(", term.args, None, ")")


def _arg(term: Term, max_priority: int):
    """An argument as a piece: the text of an atomic term, or a (compound,
    max priority) pair still to write."""
    if isinstance(term, Compound):
        return (term, max_priority)
    return _fmt_atomic(term)


def _sequence(opening: str, items: list, tail, closing: str) -> list:
    """The pieces of `opening`, the items at priority 999 separated by
    commas, then '|' and `tail` unless it is None, then `closing`. The text
    between compound items is one piece."""
    pieces: list = []
    text = opening
    for item in items:
        if isinstance(item, Compound):
            pieces += (text, (item, 999))
            text = ","
        else:
            text += _fmt_atomic(item) + ","
    if tail is None:
        text = text[:-1] + closing
    elif isinstance(tail, Compound):
        pieces += (text[:-1] + "|", (tail, 999))
        text = closing
    else:
        text = text[:-1] + "|" + _fmt_atomic(tail) + closing
    pieces.append(text)
    return pieces


def _fmt_atomic(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Atom):
        return atom_text(term.name)
    if isinstance(term, Int):
        return str(term.value)
    if isinstance(term, Float):
        return repr(term.value)
    if isinstance(term, Str):
        return _string_text(term.value)
    raise TypeError(f"not a term: {term!r}")


# The default operators, for printing without a database; only read.
_DEFAULT_TABLE = OperatorTable()


def pretty_print(term: Term, db: Database | None = None,
                 max_priority: int = 1200) -> str:
    table = db.operators if db is not None else _DEFAULT_TABLE
    return _Printer(table).fmt(term, max_priority)


def sentence_text(term: Term, db: Database | None = None) -> str:
    """Term plus clause terminator, spaced so the '.' stays an End token."""
    text = pretty_print(term, db)
    if text and text[-1] in SYMBOL_CHARS:
        return text + " ."
    return text + "."
