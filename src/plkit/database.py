"""Mutable runtime state consulted during parsing and directive execution:
operator table, predicate database, module info, and flags."""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import errors
from .lexer import indicator_text
from .spans import SourceSpan
from .terms import Term, indicator_of

# Where each fixity's definition sits in a name's (prefix, infix, postfix)
# table entry.
_CLASS_SLOT = {"fy": 0, "fx": 0, "xfx": 1, "xfy": 1, "yfx": 1, "xf": 2, "yf": 2}


class OperatorDef:
    __slots__ = ("name", "priority", "fixity", "left_max", "right_max")

    def __init__(self, name: str, priority: int, fixity: str):
        self.name = name
        self.priority = priority
        self.fixity = fixity
        # The highest priority each argument may have: an x argument needs
        # strictly lower priority than the operator, a y argument at most
        # equal. left_max means something for infix and postfix operators,
        # right_max for infix and prefix ones.
        self.left_max = priority - 1 if fixity in ("xfy", "xfx", "xf") else priority
        self.right_max = priority if fixity in ("xfy", "fy") else priority - 1


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


_ABSENT = (None, None, None)


def _default_entries() -> dict[str, tuple]:
    by_name: dict[str, tuple] = {}
    for priority, fixity, name in DEFAULT_OPERATORS:
        entry = list(by_name.get(name, _ABSENT))
        entry[_CLASS_SLOT[fixity]] = OperatorDef(name, priority, fixity)
        by_name[name] = tuple(entry)
    return by_name


# Built once and shared by every fresh table; no table mutates an entry.
_DEFAULT_ENTRIES = _default_entries()


class OperatorTable:
    def __init__(self):
        # name -> its (prefix, infix, postfix) definitions, None where a
        # class is absent; names with no definition have no entry. Entries
        # are shared with the defaults until `add` replaces a name's tuple.
        # The reader and the printer read it directly.
        self.by_name: dict[str, tuple] = dict(_DEFAULT_ENTRIES)

    def add(self, definition: OperatorDef):
        """Install, replace, or (priority 0) remove a definition."""
        name = definition.name
        slot = _CLASS_SLOT.get(definition.fixity)
        if slot is None:
            raise errors.domain_error(f"invalid fixity {definition.fixity!r}")
        if not 0 <= definition.priority <= 1200:
            raise errors.domain_error(
                f"operator priority {definition.priority} outside 0..1200"
            )
        if name in PROTECTED_OPERATOR_NAMES:
            raise errors.permission_error(f"operator {name!r} may not be modified")
        entry = list(self.by_name.get(name, _ABSENT))
        if definition.priority == 0:
            entry[slot] = None
        elif slot == 1 and entry[2] is not None:
            raise errors.permission_error(
                f"{name!r} already has a postfix definition"
            )
        elif slot == 2 and entry[1] is not None:
            raise errors.permission_error(
                f"{name!r} already has an infix definition"
            )
        else:
            entry[slot] = definition
        if any(entry):
            self.by_name[name] = tuple(entry)
        else:
            self.by_name.pop(name, None)

    def prefix(self, name: str) -> Optional[OperatorDef]:
        return self.by_name.get(name, _ABSENT)[0]

    def infix(self, name: str) -> Optional[OperatorDef]:
        return self.by_name.get(name, _ABSENT)[1]

    def postfix(self, name: str) -> Optional[OperatorDef]:
        return self.by_name.get(name, _ABSENT)[2]

    def defs(self, name: str) -> list[OperatorDef]:
        return [d for d in self.by_name.get(name, _ABSENT) if d is not None]


class PredicateIndicator(NamedTuple):
    """name/arity; equal to, and hashed as, the plain (name, arity) tuple."""

    name: str
    arity: int


class Clause:
    """A clause that no source holds, such as one `assert_clause` adds. A
    consulted clause is its `reader.Sentence`, which has the same `head`,
    `body` and `span`."""

    __slots__ = ("head", "body")

    # read from no source: no line table and no span
    lines = None
    span = None

    def __init__(self, head: Term, body: Term):
        self.head = head
        self.body = body


class PredicateEntry:
    __slots__ = ("indicator", "clauses", "properties", "compiled")

    def __init__(self, indicator: PredicateIndicator,
                 clauses: Optional[list[Clause]] = None,
                 properties: Optional[set[str]] = None, compiled: object = None):
        self.indicator = indicator
        self.clauses = [] if clauses is None else clauses
        self.properties = set() if properties is None else properties
        # The solver's compiled form of `clauses`, built on the first call
        # and dropped whenever a clause is added.
        self.compiled = compiled

    @property
    def dcg(self) -> bool:
        """Whether a DCG rule defines the predicate."""
        return "dcg" in self.properties

    @property
    def display_label(self) -> str:
        return indicator_text(*self.indicator, self.dcg)


class ImportRecord:
    __slots__ = ("target", "indicators", "span", "resolved_file")

    def __init__(self, target: Term,
                 indicators: Optional[list[PredicateIndicator]],
                 span: Optional[SourceSpan] = None,
                 resolved_file: Optional[str] = None):
        self.target = target  # use_module argument as written
        self.indicators = indicators  # None = all
        self.span = span
        self.resolved_file = resolved_file


class ModuleInfo:
    __slots__ = ("name", "exports")

    def __init__(self, name: str,
                 exports: Optional[set[PredicateIndicator]] = None):
        self.name = name
        self.exports = set() if exports is None else exports


class Database:
    """One consulted-file session: operators, predicates, module, flags.

    `indicators` maps (name, arity) to the one PredicateIndicator that the
    session's sentences, predicates, exports and imports hold for it, which
    is also its key. A Loader gives every database it makes its one table,
    so that a build holds one object per indicator."""

    def __init__(self, indicators: Optional[dict] = None):
        self.operators = OperatorTable()
        self.predicates: dict[PredicateIndicator, PredicateEntry] = {}
        self.module: Optional[ModuleInfo] = None
        self.imports: list[ImportRecord] = []
        self.flags: dict[str, Term] = {}
        self.loaded_files: set[str] = set()
        # op/3 definitions executed in this session (own plus imported)
        self.declared_operators: list[OperatorDef] = []
        self.indicators: dict[tuple[str, int], PredicateIndicator] = (
            {} if indicators is None else indicators)

    def indicator(self, name: str, arity: int) -> PredicateIndicator:
        """The one PredicateIndicator name/arity of this session's table."""
        found = self.indicators.get((name, arity))
        if found is None:
            found = PredicateIndicator(name, arity)
            self.indicators[found] = found
        return found

    def assert_clause(self, head: Term, body: Term,
                      indicator: Optional[PredicateIndicator] = None,
                      ) -> PredicateEntry:
        """Add the clause `head :- body` to the predicate `indicator`, by
        default the one its head names."""
        return self.add_clause(Clause(head, body), indicator)

    def add_clause(self, clause, indicator: Optional[PredicateIndicator] = None,
                   ) -> PredicateEntry:
        """Add `clause`, a Clause or a consulted Sentence, to the predicate
        `indicator`, by default the one its head names."""
        if indicator is None:
            ind = indicator_of(clause.head)
            if ind is None:
                raise errors.type_error(
                    "clause head must be an atom or compound term")
            indicator = self.indicator(*ind)
        entry = self._entry(indicator)
        entry.clauses.append(clause)
        entry.compiled = None
        return entry

    def _entry(self, indicator: PredicateIndicator) -> PredicateEntry:
        """The entry of `indicator`, made on its first clause or declaration."""
        entry = self.predicates.get(indicator)
        if entry is None:
            entry = self.predicates[indicator] = PredicateEntry(indicator)
        return entry

    def lookup(self, indicator: tuple[str, int]) -> Optional[PredicateEntry]:
        return self.predicates.get(indicator)

    def declare(self, indicator: PredicateIndicator, prop: str) -> PredicateEntry:
        entry = self._entry(indicator)
        entry.properties.add(prop)
        return entry
