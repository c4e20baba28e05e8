"""Typed AST nodes for Prolog terms.

Lists and curly terms are kept in their canonical compound encoding
('.'/2 chains ending in '[]', and '{}'/1) so that structural equality
stays a plain functor/argument comparison; the pretty printer restores
the sugar. Operator applications are Compound nodes tagged with the
operator definition that produced them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .spans import SourceSpan

LIST_FUNCTOR = "."
NIL = "[]"
CURLY_FUNCTOR = "{}"


class Term:
    __slots__ = ("span", "functor_span")

    def __init__(self, span: Optional[SourceSpan] = None,
                 functor_span: Optional[SourceSpan] = None):
        self.span = span
        self.functor_span = functor_span or span


class Atom(Term):
    __slots__ = ("name",)

    def __init__(self, name: str, span=None, functor_span=None):
        # Term.__init__ inlined here and below: the reader builds a leaf per
        # token
        self.span = span
        self.functor_span = functor_span or span
        self.name = name

    def __repr__(self):
        return f"Atom({self.name!r})"


class Var(Term):
    __slots__ = ("name", "vid")

    def __init__(self, name: str, vid: int, span=None):
        self.span = self.functor_span = span
        self.name = name
        self.vid = vid

    def __repr__(self):
        return f"Var({self.name}#{self.vid})"


class Int(Term):
    __slots__ = ("value",)

    def __init__(self, value: int, span=None):
        self.span = self.functor_span = span
        self.value = value

    def __repr__(self):
        return f"Int({self.value})"


class Float(Term):
    __slots__ = ("value",)

    def __init__(self, value: float, span=None):
        self.span = self.functor_span = span
        self.value = value

    def __repr__(self):
        return f"Float({self.value})"


class Str(Term):
    __slots__ = ("value",)

    def __init__(self, value: str, span=None):
        self.span = self.functor_span = span
        self.value = value

    def __repr__(self):
        return f"Str({self.value!r})"


class Compound(Term):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: list, span=None, functor_span=None):
        if not args:
            raise ValueError("compound term needs at least one argument")
        # Term.__init__ inlined: the solver builds a compound per list cell
        self.span = span
        self.functor_span = functor_span or span
        self.name = name
        self.args = args

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self):
        return f"Compound({self.name!r}, {self.args!r})"


class OpApply(Compound):
    """Compound built by the reader from operator notation."""

    __slots__ = ("op",)

    def __init__(self, op, args: list, span=None, functor_span=None):
        # Compound.__init__ inlined; an operator has one or two arguments
        self.span = span
        self.functor_span = functor_span or span
        self.name = op.name
        self.args = args
        self.op = op

    def __repr__(self):
        return f"OpApply({self.op.name!r}/{self.op.fixity}, {self.args!r})"


def make_list(items: Iterable[Term], tail: Optional[Term] = None,
              span=None) -> Term:
    result = tail if tail is not None else Atom(NIL, span)
    for item in reversed(list(items)):
        result = Compound(LIST_FUNCTOR, [item, result], span)
    return result


def list_parts(term: Term) -> Optional[tuple[list, Optional[Term]]]:
    """Decompose a '.'/2 chain into (items, tail); tail None means proper."""
    items = []
    node = term
    while isinstance(node, Compound) and node.name == LIST_FUNCTOR and node.arity == 2:
        items.append(node.args[0])
        node = node.args[1]
    if not items:
        return None
    if isinstance(node, Atom) and node.name == NIL:
        return items, None
    return items, node


def struct_eq(a: Term, b: Term) -> bool:
    """Structural equality, spans excluded; variables compare by name.
    Walks both terms with an explicit stack of pairs, left to right."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if isinstance(a, Atom):
            same = isinstance(b, Atom) and a.name == b.name
        elif isinstance(a, Var):
            same = isinstance(b, Var) and a.name == b.name
        elif isinstance(a, Int):
            same = isinstance(b, Int) and a.value == b.value
        elif isinstance(a, Float):
            same = isinstance(b, Float) and a.value == b.value
        elif isinstance(a, Str):
            same = isinstance(b, Str) and a.value == b.value
        elif isinstance(a, Compound):
            same = (isinstance(b, Compound) and a.name == b.name
                    and a.arity == b.arity)
            if same:
                pairs.extend(reversed(list(zip(a.args, b.args))))
        else:
            raise TypeError(f"not a term: {a!r}")
        if not same:
            return False
    return True


def rebuild(term: Term, variable: Callable, compound: Callable):
    """`term` with each variable v replaced by variable(v) and each compound
    that holds a variable by compound(name, new arguments). Ground subterms
    stay the term's own objects, so they are never copied. Explicit stack; a
    compound is pushed again as (compound,) below its arguments."""
    out: list = []
    todo: list = [term]
    while todo:
        t = todo.pop()
        if type(t) is tuple:
            t = t[0]
            args = out[-len(t.args):]
            del out[-len(t.args):]
            # terms compare by identity: true when no argument was replaced
            out.append(t if args == t.args else compound(t.name, args))
        elif isinstance(t, Var):
            out.append(variable(t))
        elif isinstance(t, Compound):
            todo.append((t,))
            todo.extend(reversed(t.args))
        else:
            out.append(t)
    return out[0]


def indicator_of(term: Term) -> Optional[tuple[str, int]]:
    """name/arity of a callable term, else None."""
    if isinstance(term, Compound):
        return term.name, term.arity
    if isinstance(term, Atom):
        return term.name, 0
    return None
