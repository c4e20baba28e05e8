"""Mutable runtime state consulted during parsing and directive execution:
operator table, predicate database, module info, and flags."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import errors
from .spans import SourceSpan
from .terms import Term, indicator_of

PREFIX_FIXITIES = ("fy", "fx")
INFIX_FIXITIES = ("xfx", "xfy", "yfx")
POSTFIX_FIXITIES = ("xf", "yf")
ALL_FIXITIES = PREFIX_FIXITIES + INFIX_FIXITIES + POSTFIX_FIXITIES


@dataclass(frozen=True)
class OperatorDef:
    name: str
    priority: int
    fixity: str

    @property
    def op_class(self) -> str:
        if self.fixity in PREFIX_FIXITIES:
            return "prefix"
        if self.fixity in INFIX_FIXITIES:
            return "infix"
        return "postfix"

    def left_arg_max(self) -> int:
        # Meaningful for infix/postfix: y allows equal priority, x strictly less.
        if self.fixity in ("xfy", "xfx", "xf"):
            return self.priority - 1
        return self.priority

    def right_arg_max(self) -> int:
        # Meaningful for infix/prefix.
        if self.fixity in ("xfy", "fy"):
            return self.priority
        return self.priority - 1


# op(P, Fixity, Name) seed entries for a fresh table.
DEFAULT_OPERATORS = [
    (1200, "xfx", ":-"),
    (1200, "xfx", "-->"),
    (1200, "fx", ":-"),
    (1200, "fx", "?-"),
    (1100, "xfy", ";"),
    (1050, "xfy", "->"),
    (1000, "xfy", ","),
    (900, "fy", "\\+"),
    (700, "xfx", "="),
    (700, "xfx", "\\="),
    (700, "xfx", "=="),
    (700, "xfx", "\\=="),
    (700, "xfx", "@<"),
    (700, "xfx", "@>"),
    (700, "xfx", "@=<"),
    (700, "xfx", "@>="),
    (700, "xfx", "=.."),
    (700, "xfx", "is"),
    (700, "xfx", "=:="),
    (700, "xfx", "=\\="),
    (700, "xfx", "<"),
    (700, "xfx", ">"),
    (700, "xfx", "=<"),
    (700, "xfx", ">="),
    (500, "yfx", "+"),
    (500, "yfx", "-"),
    (500, "yfx", "/\\"),
    (500, "yfx", "\\/"),
    (500, "yfx", "xor"),
    (400, "yfx", "*"),
    (400, "yfx", "/"),
    (400, "yfx", "//"),
    (400, "yfx", "rem"),
    (400, "yfx", "mod"),
    (400, "yfx", "div"),
    (400, "yfx", "<<"),
    (400, "yfx", ">>"),
    (200, "xfx", "**"),
    (200, "xfy", "^"),
    (200, "fy", "-"),
    (200, "fy", "+"),
    (200, "fy", "\\"),
]

# Grammar soundness: these may not be redefined or removed.
PROTECTED_OPERATOR_NAMES = {",", "|"}


class OperatorTable:
    def __init__(self):
        # name -> {"prefix"|"infix"|"postfix": OperatorDef}; names with no
        # definition have no entry. The reader reads it directly.
        self.by_name: dict[str, dict[str, OperatorDef]] = {}
        for priority, fixity, name in DEFAULT_OPERATORS:
            definition = OperatorDef(name, priority, fixity)
            self.by_name.setdefault(name, {})[definition.op_class] = definition

    def add(self, definition: OperatorDef):
        """Install, replace, or (priority 0) remove a definition."""
        name = definition.name
        if definition.fixity not in ALL_FIXITIES:
            raise errors.domain_error(f"invalid fixity {definition.fixity!r}")
        if not 0 <= definition.priority <= 1200:
            raise errors.domain_error(
                f"operator priority {definition.priority} outside 0..1200"
            )
        if name in PROTECTED_OPERATOR_NAMES:
            raise errors.permission_error(f"operator {name!r} may not be modified")
        entry = self.by_name.setdefault(name, {})
        cls = definition.op_class
        if definition.priority == 0:
            entry.pop(cls, None)
            if not entry:
                del self.by_name[name]
            return
        if cls == "infix" and "postfix" in entry:
            raise errors.permission_error(
                f"{name!r} already has a postfix definition"
            )
        if cls == "postfix" and "infix" in entry:
            raise errors.permission_error(
                f"{name!r} already has an infix definition"
            )
        entry[cls] = definition

    def prefix(self, name: str) -> Optional[OperatorDef]:
        return self.by_name.get(name, {}).get("prefix")

    def infix(self, name: str) -> Optional[OperatorDef]:
        return self.by_name.get(name, {}).get("infix")

    def postfix(self, name: str) -> Optional[OperatorDef]:
        return self.by_name.get(name, {}).get("postfix")

    def defs(self, name: str) -> list[OperatorDef]:
        return list(self.by_name.get(name, {}).values())


class PredicateIndicator(NamedTuple):
    """name/arity; equal to, and hashed as, the plain (name, arity) tuple."""

    name: str
    arity: int

    def __str__(self):
        return f"{self.name}/{self.arity}"


def predicate_label(indicator: tuple[str, int], dcg: bool) -> str:
    """name/N, or name//N-2 for a DCG nonterminal, whose rules with N-2
    written arguments define the predicate name/N."""
    name, arity = indicator
    return f"{name}//{arity - 2}" if dcg else f"{name}/{arity}"


@dataclass
class Clause:
    head: Term
    body: Term
    span: Optional[SourceSpan] = None


@dataclass
class PredicateEntry:
    indicator: PredicateIndicator
    clauses: list[Clause] = field(default_factory=list)
    properties: set[str] = field(default_factory=set)
    # The solver's compiled form of `clauses`, built on the first call and
    # dropped whenever a clause is added.
    compiled: object = field(default=None, repr=False, compare=False)

    @property
    def dcg(self) -> bool:
        """Whether a DCG rule defines the predicate."""
        return "dcg" in self.properties

    @property
    def display_label(self) -> str:
        return predicate_label(self.indicator, self.dcg)


@dataclass
class ImportRecord:
    target: Term  # use_module argument as written
    indicators: Optional[list[PredicateIndicator]]  # None = all
    span: Optional[SourceSpan] = None
    resolved_file: Optional[str] = None


@dataclass
class ModuleInfo:
    name: str
    exports: set[PredicateIndicator] = field(default_factory=set)


class Database:
    """One consulted-file session: operators, predicates, module, flags."""

    def __init__(self, operators: Optional[OperatorTable] = None):
        self.operators = operators if operators is not None else OperatorTable()
        self.predicates: dict[PredicateIndicator, PredicateEntry] = {}
        self.module: Optional[ModuleInfo] = None
        self.imports: list[ImportRecord] = []
        self.flags: dict[str, Term] = {}
        self.loaded_files: set[str] = set()
        # op/3 definitions executed in this session (own plus imported),
        # with the spans of the declaring directives.
        self.declared_operators: list[tuple[OperatorDef, Optional[SourceSpan]]] = []

    def assert_clause(self, head: Term, body: Term,
                      span: Optional[SourceSpan] = None,
                      indicator: Optional[PredicateIndicator] = None,
                      ) -> PredicateEntry:
        """Add a clause to the predicate `indicator`, by default the one its
        head names."""
        if indicator is None:
            ind = indicator_of(head)
            if ind is None:
                raise errors.type_error(
                    "clause head must be an atom or compound term")
            indicator = PredicateIndicator(*ind)
        entry = self.predicates.setdefault(indicator, PredicateEntry(indicator))
        entry.clauses.append(Clause(head, body, span))
        entry.compiled = None
        return entry

    def lookup(self, indicator: tuple[str, int]) -> Optional[PredicateEntry]:
        return self.predicates.get(indicator)

    def declare(self, indicator: PredicateIndicator, prop: str) -> PredicateEntry:
        entry = self.predicates.setdefault(indicator, PredicateEntry(indicator))
        entry.properties.add(prop)
        return entry


def default_table() -> OperatorTable:
    return OperatorTable()
