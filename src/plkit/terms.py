"""Typed AST nodes for Prolog terms.

Lists and curly terms are kept in their canonical compound encoding
('.'/2 chains ending in '[]', and '{}'/1) so that structural equality
stays a plain functor/argument comparison; the pretty printer restores
the sugar. Operator applications are Compound nodes tagged with the
operator definition that produced them, which hold their one or two
arguments in slots rather than in a list.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .spans import SourceSpan

LIST_FUNCTOR = "."
NIL = "[]"


class Term:
    """A term read from source holds its file's `LineIndex` in `lines` and
    the [start, end) code-point offsets of its text; any other term holds
    `lines` None. Every subclass sets the three in its own `__init__`: the
    reader builds a leaf per token and the solver a compound per list cell.
    Two places set slots without the constructor, so a slot added to one of
    these classes is added there too: clause code (`engine._generate`), for
    a Compound, Int or Float that no source holds and for a RuntimeVar, and
    the reader (`Reader.parse_term`), for a Var and for an infix OpApply,
    whose `first` and `second` it sets."""

    __slots__ = ("lines", "start", "end")

    @property
    def span(self) -> Optional[SourceSpan]:
        """A new span over the term's text, built on each call; None for a
        term not read from source."""
        lines = self.lines
        return None if lines is None else SourceSpan(lines, self.start, self.end)


class Atom(Term):
    __slots__ = ("name",)

    def __init__(self, name: str, lines=None, start=0, end=0):
        self.lines = lines
        self.start = start
        self.end = end
        self.name = name

    def __repr__(self):
        return f"Atom({self.name!r})"


class Var(Term):
    __slots__ = ("name", "vid")

    def __init__(self, name: str, vid: int, lines=None, start=0, end=0):
        self.lines = lines
        self.start = start
        self.end = end
        self.name = name
        self.vid = vid

    def __repr__(self):
        return f"Var({self.name}#{self.vid})"


class Int(Term):
    __slots__ = ("value",)

    def __init__(self, value: int, lines=None, start=0, end=0):
        self.lines = lines
        self.start = start
        self.end = end
        self.value = value

    def __repr__(self):
        return f"Int({self.value})"


class Float(Term):
    __slots__ = ("value",)

    def __init__(self, value: float, lines=None, start=0, end=0):
        self.lines = lines
        self.start = start
        self.end = end
        self.value = value

    def __repr__(self):
        return f"Float({self.value})"


class Str(Term):
    __slots__ = ("value",)

    def __init__(self, value: str, lines=None, start=0, end=0):
        self.lines = lines
        self.start = start
        self.end = end
        self.value = value

    def __repr__(self):
        return f"Str({self.value!r})"


class Compound(Term):
    """A compound term. One read from source also holds the offsets of its
    functor's text: the name token, the operator, the '{' of a curly term,
    or for a list cell the cell's own offsets as first read."""

    __slots__ = ("name", "args", "functor_start", "functor_end")

    def __init__(self, name: str, args: list, lines=None, start=0, end=0,
                 functor_start=0, functor_end=0):
        if not args:
            raise ValueError("compound term needs at least one argument")
        self.lines = lines
        self.start = start
        self.end = end
        self.functor_start = functor_start
        self.functor_end = functor_end
        self.name = name
        self.args = args

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def functor_span(self) -> Optional[SourceSpan]:
        """A new span over the functor's text, built on each call; None for
        a term not read from source."""
        lines = self.lines
        return (None if lines is None
                else SourceSpan(lines, self.functor_start, self.functor_end))

    def __repr__(self):
        return f"Compound({self.name!r}, {self.args!r})"


class OpApply(Compound):
    """Compound built by the reader from operator notation. Its one or two
    arguments are the slots `first` and `second`, `second` None for a
    prefix or postfix operator; the Compound's own `args` slot stays empty.
    `args` is read-only and builds a new list of the arguments on each call,
    so any code that reads a Compound's arguments reads an OpApply's too;
    code that walks many terms reads `first` and `second` instead."""

    __slots__ = ("op", "first", "second")

    def __init__(self, op, args: list, lines=None, start=0, end=0,
                 functor_start=0, functor_end=0):
        # Compound.__init__ inlined; an operator has one or two arguments
        self.lines = lines
        self.start = start
        self.end = end
        self.functor_start = functor_start
        self.functor_end = functor_end
        self.name = op.name
        self.first = args[0]
        self.second = args[1] if len(args) == 2 else None
        self.op = op

    @property
    def args(self) -> list:
        second = self.second
        return [self.first] if second is None else [self.first, second]

    @property
    def arity(self) -> int:
        return 1 if self.second is None else 2

    def __repr__(self):
        return f"OpApply({self.op.name!r}/{self.op.fixity}, {self.args!r})"


def make_list(items: Iterable[Term], tail: Optional[Term] = None) -> Term:
    result = tail if tail is not None else Atom(NIL)
    for item in reversed(list(items)):
        result = Compound(LIST_FUNCTOR, [item, result])
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
    """name/arity of a callable term, else None. Builds no argument list."""
    if isinstance(term, Compound):
        return term.name, term.arity
    if isinstance(term, Atom):
        return term.name, 0
    return None
