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


def _concat(parts: list[str]) -> str:
    """Join fragments, spacing only where tokens would fuse."""
    out = ""
    for part in parts:
        if not part:
            continue
        if out:
            a, b = out[-1], part[0]
            if (a in SYMBOL_CHARS and b in SYMBOL_CHARS) or (
                _is_ident_char(a) and _is_ident_char(b)
            ) or (a == "'" and b == "'"):
                out += " "
        out += part
    return out


class _Printer:
    def __init__(self, table: OperatorTable):
        self.table = table

    def fmt(self, term: Term, max_priority: int) -> str:
        if isinstance(term, Var):
            return term.name
        if isinstance(term, Int):
            return str(term.value)
        if isinstance(term, Float):
            return repr(term.value)
        if isinstance(term, Str):
            return _string_text(term.value)
        if isinstance(term, Atom):
            return atom_text(term.name)
        if isinstance(term, Compound):
            return self.fmt_compound(term, max_priority)
        raise TypeError(f"not a term: {term!r}")

    def fmt_compound(self, term: Compound, max_priority: int) -> str:
        parts_tail = list_parts(term)
        if parts_tail is not None:
            items, tail = parts_tail
            inner = ",".join(self.fmt(x, 999) for x in items)
            if tail is not None:
                inner += "|" + self.fmt(tail, 999)
            return f"[{inner}]"
        if term.name == "{}" and term.arity == 1:
            return "{" + self.fmt(term.args[0], 1200) + "}"
        rendered = self.fmt_operator(term)
        if rendered is not None:
            text, priority = rendered
            if priority > max_priority:
                return f"({text})"
            return text
        return self.fmt_canonical(term)

    def fmt_operator(self, term: Compound):
        if term.arity == 2:
            if term.name == ",":
                left = self.fmt(term.args[0], 999)
                right = self.fmt(term.args[1], 1000)
                return _concat([left, ",", right]), 1000
            op = self.table.infix(term.name)
            if op is None or atom_needs_quote(term.name):
                return None
            left = self.fmt(term.args[0], op.left_arg_max())
            right = self.fmt(term.args[1], op.right_arg_max())
            return _concat([left, term.name, right]), op.priority
        if term.arity == 1:
            op = self.table.prefix(term.name)
            if op is not None and not atom_needs_quote(term.name):
                arg = term.args[0]
                arg_text = self.fmt(arg, op.right_arg_max())
                # Keep a space so 'signed literal' folding cannot re-fuse
                # "- 1" into the integer -1.
                if term.name in ("-", "+") and isinstance(arg, (Int, Float)):
                    return f"{term.name} {arg_text}", op.priority
                if arg_text.startswith("("):
                    # A '(' straight after the atom would read as a compound
                    # argument list, not a parenthesized operand.
                    return f"{term.name} {arg_text}", op.priority
                return _concat([term.name, arg_text]), op.priority
            op = self.table.postfix(term.name)
            if op is not None and not atom_needs_quote(term.name):
                arg_text = self.fmt(term.args[0], op.left_arg_max())
                return _concat([arg_text, term.name]), op.priority
        return None

    def fmt_canonical(self, term: Compound) -> str:
        args = ",".join(self.fmt(a, 999) for a in term.args)
        return f"{atom_text(term.name)}({args})"


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
