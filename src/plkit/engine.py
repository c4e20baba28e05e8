"""Consulting parsed sentences (directive execution and clause storage), a
minimal resolution engine, and the interactive read-eval loop."""

from __future__ import annotations

import itertools
import operator
import os
import traceback
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from . import errors, lexer
from .database import (
    Database,
    ImportRecord,
    ModuleInfo,
    OperatorDef,
    PredicateEntry,
    PredicateIndicator,
)
from .diagnostics import Diagnostic, Severity
from .errors import PrologError
from .lexer import TokenKind
from .printer import pretty_print
from .reader import Reader, Sentence
from .spans import SourceSpan, file_start
from .terms import (
    Atom,
    Compound,
    Float,
    Int,
    Str,
    Term,
    Var,
    indicator_of,
    rebuild,
)

@dataclass
class SolveLimits:
    """Bounds on one solve() call. `max_depth` is the number of user or
    prelude predicate calls nested on the current branch (a countdown from n
    nests n + 1), a goal run through a variable counting as one more; going
    past it raises resource_error. `max_solutions` caps the solutions
    solve() yields."""

    max_depth: int = 10_000
    max_solutions: int = 10_000

    def __post_init__(self):
        if self.max_depth < 1 or self.max_solutions < 1:
            raise ValueError("limits must be >= 1")


# --- file loading ---------------------------------------------------------


class Loader:
    """Resolves and consults files referenced by directives.

    Consulted files are cached so diamond imports parse once; a loading
    set guards against import cycles, and the include chain against
    include cycles.
    """

    def __init__(self, library_paths: tuple[str, ...] = ()):
        self.library_paths = tuple(library_paths)
        self._cache: dict[str, tuple[Database, list[Sentence], list[Diagnostic]]] = {}
        self._loading: set[str] = set()
        self._sources: dict[str, str] = {}
        # The file consult_file is consulting, then the files that
        # `:- include` has consulted into its database, innermost last.
        self.include_chain: list[str] = []

    def resolve(self, target: Term, base_dir: str) -> Optional[str]:
        names: list[str] = []
        search: list[str] = []
        if isinstance(target, Compound) and target.name == "library" and target.arity == 1:
            inner = target.args[0]
            if not isinstance(inner, (Atom, Str)):
                return None
            name = inner.name if isinstance(inner, Atom) else inner.value
            names = [name, name + ".pl"]
            search = list(self.library_paths)
        elif isinstance(target, (Atom, Str)):
            name = target.name if isinstance(target, Atom) else target.value
            names = [name, name + ".pl"] if not name.endswith(".pl") else [name]
            search = [base_dir] + list(self.library_paths)
        else:
            return None
        for directory in search:
            for candidate in names:
                path = os.path.normpath(os.path.join(directory, candidate))
                if os.path.isfile(path):
                    return path
        return None

    def consult_file(self, path: str):
        """Parse `path` into its own database; cached and cycle-safe.

        An OSError from reading the file propagates. Any other exception
        raised while reading, lexing or consulting it (a file that is not
        UTF-8, or a defect in plkit) becomes an `internal_error` diagnostic
        on the file, so that one file cannot stop the analysis of the others.
        """
        path = os.path.abspath(path)
        if path in self._cache:
            return self._cache[path]
        if path in self._loading:
            return None  # cycle: the partial result is not reusable
        self._loading.add(path)
        outer_chain, self.include_chain = self.include_chain, [path]
        try:
            db = Database()
            try:
                source = _read_text(path)
                self._sources[path] = source
                sentences, diagnostics = consult_source(source, db, self, path)
            except OSError:
                raise
            except Exception as err:  # the per-file backstop
                sentences, diagnostics = [], [internal_error(path, err)]
            result = (db, sentences, diagnostics)
            self._cache[path] = result
            return result
        finally:
            self._loading.discard(path)
            self.include_chain = outer_chain

    def source_of(self, path: str) -> Optional[str]:
        return self._sources.get(os.path.abspath(path))


def internal_error(path: str, err: Exception) -> Diagnostic:
    """Report `err` on the start of `path`, with where it was raised."""
    frame, line = list(traceback.walk_tb(err.__traceback__))[-1]
    where = f"{os.path.basename(frame.f_code.co_filename)}:{line}"
    return _error(file_start(path), "internal_error",
                  f"internal error ({type(err).__name__} at {where}): {err}")


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# --- consulting -----------------------------------------------------------


def consult_sentence(sentence: Sentence, db: Database,
                     loader: Loader) -> list[Diagnostic]:
    """Run a directive, or store a clause, fact or DCG rule. A PrologError
    becomes a diagnostic on the sentence."""
    try:
        if sentence.kind == "directive":
            return exec_directive(sentence.goal, db, loader)
        body = Atom("true") if sentence.kind == "fact" else sentence.body
        # defines() is None for a head that is not callable, which
        # assert_clause rejects
        entry = db.assert_clause(sentence.head, body, sentence.span,
                                 sentence.defines())
        if sentence.kind == "dcg_rule":
            entry.properties.add("dcg")
    except PrologError as err:
        return [Diagnostic(Severity.ERROR, err.kind, err.message, sentence.span)]
    return []


def consult_source(source: str, db: Database, loader: Loader,
                   file_id: str) -> tuple[list[Sentence], list[Diagnostic]]:
    """Phase I for one file: tokenize, then consult_tokens."""
    tokens, lex_diags = lexer.tokenize(source, file_id)
    return consult_tokens(source, tokens, lex_diags, db, loader, file_id)


def consult_tokens(source: str, tokens: list[tuple], lex_diags: list[Diagnostic],
                   db: Database, loader: Loader, file_id: str,
                   ) -> tuple[list[Sentence], list[Diagnostic]]:
    """Phase I over the tokens of `source`: read sentences, consulting
    each before the next is parsed so directives reshape the grammar
    mid-file."""
    reader = Reader(source, tokens, db, file_id)
    # The reader appends its parse errors here too, so they interleave with
    # the consult diagnostics in source order.
    diagnostics = reader.diagnostics = list(lex_diags)
    sentences: list[Sentence] = []
    while not reader.at_eof():
        sentence = reader.read_sentence()
        if sentence is not None:
            sentences.append(sentence)
            diagnostics.extend(consult_sentence(sentence, db, loader))
    return sentences, diagnostics


# --- directive execution --------------------------------------------------


def _atom_name(term: Term) -> Optional[str]:
    return term.name if isinstance(term, Atom) else None


def _comma_list(term: Term) -> list[Term]:
    items = []
    node = term
    while isinstance(node, Compound) and node.name == "," and node.arity == 2:
        items.append(node.args[0])
        node = node.args[1]
    items.append(node)
    return items


def _proper_list(term: Term) -> Optional[list[Term]]:
    items = []
    node = term
    while isinstance(node, Compound) and node.name == "." and node.arity == 2:
        items.append(node.args[0])
        node = node.args[1]
    if isinstance(node, Atom) and node.name == "[]":
        return items
    return None


def _parse_indicator(term: Term) -> Optional[PredicateIndicator]:
    if (
        isinstance(term, Compound)
        and term.name == "/"
        and term.arity == 2
        and isinstance(term.args[0], Atom)
        and isinstance(term.args[1], Int)
        and term.args[1].value >= 0
    ):
        return PredicateIndicator(term.args[0].name, term.args[1].value)
    # name//arity: DCG nonterminal, resolvable at arity+2
    if (
        isinstance(term, Compound)
        and term.name == "//"
        and term.arity == 2
        and isinstance(term.args[0], Atom)
        and isinstance(term.args[1], Int)
        and term.args[1].value >= 0
    ):
        return PredicateIndicator(term.args[0].name, term.args[1].value + 2)
    return None


def _error(span: SourceSpan, code: str, message: str) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, span)


def _warn(span: SourceSpan, code: str, message: str) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message, span)


def exec_directive(goal: Term, db: Database, loader: Loader) -> list[Diagnostic]:
    ind = indicator_of(goal)
    if ind is None:
        return [_error(goal.span, "malformed_directive",
                       "directive goal must be callable")]
    name, arity = ind
    handler = _DIRECTIVES.get((name, arity))
    if handler is None:
        return [_warn(goal.span, "unknown_directive",
                      f"unknown directive {name}/{arity}")]
    return handler(goal, db, loader)


def _dir_op(goal: Compound, db: Database, loader: Loader) -> list[Diagnostic]:
    prio_t, fix_t, name_t = goal.args
    if not isinstance(prio_t, Int):
        return [_error(prio_t.span, "malformed_directive",
                       "op/3 priority must be an integer")]
    fixity = _atom_name(fix_t)
    if fixity is None:
        return [_error(fix_t.span, "malformed_directive",
                       "op/3 fixity must be an atom")]
    names = _proper_list(name_t)
    if names is None:
        names = [name_t]
    diagnostics: list[Diagnostic] = []
    for nt in names:
        opname = _atom_name(nt)
        if opname is None:
            diagnostics.append(_error(nt.span, "malformed_directive",
                                      "op/3 name must be an atom"))
            continue
        try:
            definition = OperatorDef(opname, prio_t.value, fixity)
            db.operators.add(definition)
            db.declared_operators.append((definition, goal.span))
        except PrologError as err:
            diagnostics.append(_error(goal.span, err.kind, err.message))
    return diagnostics


def _dir_module(goal: Compound, db: Database, loader: Loader) -> list[Diagnostic]:
    name_t, exports_t = goal.args
    name = _atom_name(name_t)
    if name is None:
        return [_error(name_t.span, "malformed_directive",
                       "module name must be an atom")]
    exports = _proper_list(exports_t)
    if exports is None:
        return [_error(exports_t.span, "malformed_directive",
                       "module exports must be a list")]
    module = ModuleInfo(name)
    diagnostics: list[Diagnostic] = []
    for item in exports:
        indicator = _parse_indicator(item)
        if indicator is None:
            diagnostics.append(_error(item.span, "malformed_directive",
                                      "export must be name/arity"))
            continue
        module.exports.add(indicator)
    db.module = module
    return diagnostics


def _dir_use_module(goal: Compound, db: Database, loader: Loader) -> list[Diagnostic]:
    target = goal.args[0]
    indicators: Optional[list[PredicateIndicator]] = None
    diagnostics: list[Diagnostic] = []
    if goal.arity == 2:
        items = _proper_list(goal.args[1])
        if items is None:
            return [_error(goal.args[1].span, "malformed_directive",
                           "import list must be a list")]
        indicators = []
        for item in items:
            indicator = _parse_indicator(item)
            if indicator is None:
                diagnostics.append(_error(item.span, "malformed_directive",
                                          "import must be name/arity"))
                continue
            indicators.append(indicator)
    record = ImportRecord(target, indicators, goal.span)
    db.imports.append(record)
    base_dir = os.path.dirname(goal.span.file_id) if goal.span else "."
    path = loader.resolve(target, base_dir or ".")
    if path is None:
        diagnostics.append(_warn(target.span, "file_not_found",
                                 f"cannot resolve {pretty_print(target)}"))
        return diagnostics
    record.resolved_file = path
    loaded = loader.consult_file(path)
    if loaded is None:
        return diagnostics  # import cycle; the other load is in progress
    target_db, _, _ = loaded
    # Operator declarations of the imported file become visible here.
    for definition, span in target_db.declared_operators:
        try:
            db.operators.add(definition)
            db.declared_operators.append((definition, span))
        except PrologError:
            pass
    return diagnostics


def _dir_declare(prop: str):
    def handler(goal: Compound, db: Database, loader: Loader) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        items = _proper_list(goal.args[0])
        if items is None:
            items = _comma_list(goal.args[0])
        for item in items:
            indicator = _parse_indicator(item)
            if indicator is None:
                diagnostics.append(_error(item.span, "malformed_directive",
                                          f"{prop} argument must be name/arity"))
                continue
            db.declare(indicator, prop)
        return diagnostics

    return handler


def _dir_include(goal: Compound, db: Database, loader: Loader) -> list[Diagnostic]:
    return _load_into(goal, db, loader, once_only=False)


def _dir_ensure_loaded(goal: Compound, db: Database, loader: Loader) -> list[Diagnostic]:
    return _load_into(goal, db, loader, once_only=True)


def _load_into(goal: Compound, db: Database, loader: Loader,
               once_only: bool) -> list[Diagnostic]:
    target = goal.args[0]
    base_dir = os.path.dirname(goal.span.file_id) if goal.span else "."
    path = loader.resolve(target, base_dir or ".")
    if path is None:
        return [_warn(target.span, "file_not_found",
                      f"cannot resolve {pretty_print(target)}")]
    if once_only and path in db.loaded_files:
        return []
    if path in loader.include_chain:  # already being consulted into db
        if once_only:
            return []
        return [_error(target.span, "include_cycle",
                       f"{pretty_print(target)} is already being included")]
    db.loaded_files.add(path)
    try:
        source = _read_text(path)
    except OSError as err:
        return [_warn(target.span, "file_not_found", str(err))]
    loader.include_chain.append(path)
    try:
        _, diagnostics = consult_source(source, db, loader, path)
    finally:
        loader.include_chain.pop()
    return diagnostics


def _dir_set_flag(goal: Compound, db: Database, loader: Loader) -> list[Diagnostic]:
    flag = _atom_name(goal.args[0])
    if flag is None:
        return [_error(goal.args[0].span, "malformed_directive",
                       "flag name must be an atom")]
    db.flags[flag] = goal.args[1]
    return []


_DIRECTIVES = {
    ("op", 3): _dir_op,
    ("module", 2): _dir_module,
    ("use_module", 1): _dir_use_module,
    ("use_module", 2): _dir_use_module,
    ("dynamic", 1): _dir_declare("dynamic"),
    ("discontiguous", 1): _dir_declare("discontiguous"),
    ("include", 1): _dir_include,
    ("ensure_loaded", 1): _dir_ensure_loaded,
    ("set_prolog_flag", 2): _dir_set_flag,
}


# --- resolution engine ----------------------------------------------------
#
# One iterative machine after Aït-Kaci, "Warren's Abstract Machine: A
# Tutorial Reconstruction" (1991): a goal list, a choicepoint stack and a
# trail, without the WAM's compiler. Cut follows ISO/IEC 13211-1 §7.7-7.8.
#
# Variables are bound in place: the solver's variables are RuntimeVars whose
# `ref` holds the binding. A binding goes on the trail only when the variable
# is older than the newest choicepoint (conditional trailing, §5): a variable
# made after it disappears when the machine backtracks to it. The age is the
# vid, drawn from one counter, and each choicepoint records a vid drawn at
# its creation as its boundary.
#
# A frame of the goal list is (goal, next frame, depth, cut barrier, home):
# depth counts the user or prelude calls nested above the goal, the cut
# barrier is the choicepoint height that `!` truncates to, and home is the
# database whose definitions the goal's calls see first. The goal list ends
# in _SOLVED. A choicepoint is (trail mark, boundary, goal, next, depth,
# home, clauses, index of the next clause) for a call with clauses left, or
# (trail mark, boundary, None, frame) for the other branch of ';' or the
# success of '\+'.

_SOLVED = ("solved",)
_CUT = Atom("!")
_FAIL = Atom("fail")


class RuntimeVar(Var):
    """A variable of a running solve: unbound while `ref` is None. Parsed
    terms keep the plain Var; solve() builds its query into these."""

    __slots__ = ("ref",)
    span = None

    def __init__(self, name: str, vid: int):
        self.name = name
        self.vid = vid
        self.ref = None


class _Compiled:
    """A predicate's clauses as templates, with an index per argument
    position built on demand.

    `clauses` holds them as _compile_clause makes them. `indexes` maps an
    argument position to (index, unkeyed): `index` maps a key of that
    argument to the clauses that may match it, in source order, and
    `unkeyed` holds the clauses whose argument there is a variable, which
    match any other key."""

    __slots__ = ("clauses", "indexes")

    def __init__(self, entry: PredicateEntry):
        self.clauses = [_compile_clause(clause) for clause in entry.clauses]
        self.indexes: dict = {}

    def index(self, position: int) -> tuple:
        """The (index, unkeyed) pair of an argument position, built from the
        head templates on its first use."""
        built = self.indexes.get(position)
        if built is None:
            index: dict = {}
            unkeyed: list = []
            for clause in self.clauses:
                key = _template_key(clause[0][position])
                if key is None:
                    unkeyed.append(clause)
                    for alternatives in index.values():
                        alternatives.append(clause)
                else:
                    alternatives = index.get(key)
                    if alternatives is None:
                        alternatives = index[key] = unkeyed.copy()
                    alternatives.append(clause)
            built = self.indexes[position] = (
                {key: tuple(alternatives) for key, alternatives in index.items()},
                tuple(unkeyed))
        return built


def _compile_clause(clause) -> tuple:
    """A clause as (head argument templates, body goal templates in reverse
    order, variable names by slot). In a template a variable becomes its
    slot number and a compound holding a variable becomes (name, argument
    templates); a `true` goal is dropped and a variable goal X runs as
    call(X)."""
    slots: dict[int, int] = {}
    names: list[str] = []

    def slot(var: Var) -> int:
        number = slots.get(var.vid)
        if number is None:
            number = slots[var.vid] = len(names)
            names.append(var.name)
        return number

    def template(term: Term):
        return rebuild(term, slot, lambda name, args: (name, tuple(args)))

    head = clause.head.args if isinstance(clause.head, Compound) else []
    goals = _comma_list(clause.body)
    return (
        tuple(template(arg) for arg in head),
        tuple(template(Compound("call", [g]) if isinstance(g, Var) else g)
              for g in reversed(goals)
              if not (isinstance(g, Atom) and g.name == "true")),
        tuple(names),
    )


def _index_key(term: Term):
    """Index key of a bound, dereferenced term: an atom's name, a
    compound's (name, arity), a number's or string's (type, value)."""
    if isinstance(term, Compound):
        return term.name, len(term.args)
    if isinstance(term, Atom):
        return term.name
    return type(term), term.value


def _template_key(template):
    """Index key of a head argument template: None for a slot."""
    kind = type(template)
    if kind is int:
        return None
    if kind is tuple:
        return template[0], len(template[1])
    return _index_key(template)


def _same_atomic(a: Term, b: Term) -> bool:
    if type(a) is not type(b):
        return False
    return a.name == b.name if type(a) is Atom else a.value == b.value


def _divide(a, b):
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    return a / b


def _integers(name: str, a, b):
    if isinstance(a, float) or isinstance(b, float):
        raise errors.type_error(f"{name}/2 needs integers")


def _int_divide(a, b):
    """ISO `//`: the quotient truncated toward zero."""
    _integers("//", a, b)
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


def _mod(a, b):
    """ISO `mod`: the remainder takes the divisor's sign, as Python's."""
    _integers("mod", a, b)
    return a % b


_EVALUABLE = {
    ("+", 2): operator.add,
    ("-", 2): operator.sub,
    ("*", 2): operator.mul,
    ("/", 2): _divide,
    ("//", 2): _int_divide,
    ("mod", 2): _mod,
    ("-", 1): operator.neg,
    ("+", 1): operator.pos,
    ("abs", 1): abs,
}


class Solver:
    """Runs goals against a database. `inferences` counts the calls of user
    or prelude predicates, `backtracks` the choicepoints popped, and
    `deepest` the largest depth a goal reached (see SolveLimits); they add
    up over every solve() of the solver."""

    __slots__ = ("db", "limits", "_vids", "trail", "choicepoints", "_boundary",
                 "inferences", "backtracks", "deepest")

    def __init__(self, db: Database, limits: Optional[SolveLimits] = None):
        self.db = db
        self.limits = limits or SolveLimits()
        self._vids = itertools.count(1_000_000)
        self.trail: list[RuntimeVar] = []
        self.choicepoints: list[tuple] = []
        # Variables with a vid below this are older than the newest
        # choicepoint; only their bindings are trailed.
        self._boundary = 0
        self.inferences = 0
        self.backtracks = 0
        self.deepest = 0

    # bindings

    def walk(self, term: Term) -> Term:
        while type(term) is RuntimeVar:
            bound = term.ref
            if bound is None:
                return term
            term = bound
        return term

    def bind(self, var: RuntimeVar, term: Term):
        var.ref = term
        if var.vid < self._boundary:
            self.trail.append(var)

    def undo(self, mark: int):
        trail = self.trail
        for var in trail[mark:]:
            var.ref = None
        del trail[mark:]

    def _new_boundary(self) -> int:
        """Count every variable made so far as older than the newest
        choicepoint, for one about to be pushed; return the boundary."""
        boundary = self._boundary = next(self._vids)
        return boundary

    def _restore_boundary(self):
        """The boundary of the newest choicepoint left, after a pop or cut."""
        cps = self.choicepoints
        self._boundary = cps[-1][1] if cps else 0

    def unify(self, a: Term, b: Term) -> bool:
        """Unify `a` and `b`, binding the younger of two variables. Explicit
        stack; a compound pair met again is skipped, so cyclic bindings
        terminate."""
        todo: Optional[list] = None
        while True:
            while type(a) is RuntimeVar:
                bound = a.ref
                if bound is None:
                    break
                a = bound
            while type(b) is RuntimeVar:
                bound = b.ref
                if bound is None:
                    break
                b = bound
            if a is b:
                pass
            elif type(a) is RuntimeVar:
                if type(b) is RuntimeVar and b.vid > a.vid:
                    self.bind(b, a)
                else:
                    self.bind(a, b)
            elif type(b) is RuntimeVar:
                self.bind(b, a)
            elif isinstance(a, Compound):
                if not (isinstance(b, Compound) and a.name == b.name
                        and len(a.args) == len(b.args)):
                    return False
                if todo is None:
                    todo, seen = [], set()
                pair = (id(a), id(b))
                if pair not in seen:
                    seen.add(pair)
                    todo.extend(zip(a.args, b.args))
            elif not _same_atomic(a, b):
                return False
            if not todo:
                return True
            a, b = todo.pop()

    def _unify_and_undo(self, a: Term, b: Term) -> tuple[bool, bool]:
        """Whether `a` and `b` unify, and whether that binds anything; the
        bindings are undone. Meanwhile every binding is trailed, a variable
        younger than every choicepoint too."""
        boundary = self._boundary
        self._new_boundary()
        mark = len(self.trail)
        unifies = self.unify(a, b)
        binds = len(self.trail) > mark
        self.undo(mark)
        self._boundary = boundary
        return unifies, binds

    def resolve_out(self, term: Term) -> Term:
        """Fully dereference for output; raises _Cyclic on self-reference.
        Explicit stack."""
        out: list[Term] = []
        active: set[int] = set()  # bound variables on the path from the root
        todo: list = [(term, None)]
        while todo:
            t, left = todo.pop()
            if left is not None:  # every argument of t is resolved
                args = out[-len(t.args):]
                del out[-len(t.args):]
                out.append(Compound(t.name, args))
                active.difference_update(left)
                continue
            passed = []
            while type(t) is RuntimeVar:
                bound = t.ref
                if bound is None:
                    break
                if t.vid in active:
                    raise _Cyclic()
                passed.append(t.vid)
                t = bound
            if isinstance(t, Compound):
                active.update(passed)
                todo.append((t, passed))
                todo.extend((a, None) for a in reversed(t.args))
            else:
                out.append(t)
        return out[0]

    # arithmetic

    def eval_arith(self, term: Term):
        """The value of an arithmetic expression. Explicit stack: each
        evaluable compound leaves (function, arity, the variables passed to
        reach it) below its arguments, and a variable met again inside its
        own value makes the expression cyclic."""
        values: list = []
        active: set[int] = set()  # bound variables on the path from the root
        todo: list = [term]
        while todo:
            item = todo.pop()
            if type(item) is tuple:
                function, arity, passed = item
                try:
                    if arity == 2:
                        b = values.pop()
                        values[-1] = function(values[-1], b)
                    else:
                        values[-1] = function(values[-1])
                except ZeroDivisionError:
                    raise errors.PrologError("evaluation_error",
                                             "zero divisor") from None
                active.difference_update(passed)
                continue
            t = item
            passed = []
            while type(t) is RuntimeVar:
                bound = t.ref
                if bound is None:
                    raise errors.instantiation_error("unbound variable in arithmetic")
                if t.vid in active:
                    raise errors.type_error("cyclic arithmetic expression")
                passed.append(t.vid)
                t = bound
            if isinstance(t, (Int, Float)):
                values.append(t.value)
                continue
            function = _EVALUABLE.get((t.name, len(t.args))) \
                if isinstance(t, Compound) else None
            if function is None:
                try:
                    t = self.resolve_out(t)
                except _Cyclic:
                    pass  # shown with its variables unresolved
                raise errors.type_error(
                    f"not an arithmetic expression: {pretty_print(t)}")
            active.update(passed)
            todo.append((function, len(t.args), passed))
            todo.extend(reversed(t.args))
        return values[0]

    @staticmethod
    def to_number(value) -> Term:
        return Int(value) if isinstance(value, int) else Float(value)

    # the machine

    def solve(self, goal: Term) -> Iterator[dict[str, Term]]:
        """Solutions of `goal` as bindings for its named variables, at most
        `limits.max_solutions`. The goal is built once into fresh runtime
        variables (ground subterms shared), so `goal` itself is never bound.
        One solve at a time: a new one abandons the last."""
        fresh: dict[int, RuntimeVar] = {}

        def variable(var: Var) -> RuntimeVar:
            runtime = fresh.get(var.vid)
            if runtime is None:
                runtime = fresh[var.vid] = RuntimeVar(var.name, next(self._vids))
            return runtime

        query = rebuild(goal, variable, Compound)
        named = [(var.name, var) for var in fresh.values() if var.name != "_"]
        self.trail.clear()
        self.choicepoints.clear()
        self._boundary = 0
        count = 0
        for _ in self._run(query):
            try:
                binding = {name: self.resolve_out(var) for name, var in named}
            except _Cyclic:
                continue
            yield binding
            count += 1
            if count >= self.limits.max_solutions:
                return

    def _run(self, goal: Term) -> Iterator[None]:
        """Yield once per solution of a built goal; the bindings are in its
        variables."""
        cps = self.choicepoints
        max_depth = self.limits.max_depth
        frame = (goal, _SOLVED, 0, 0, self.db)
        while True:
            if frame is None:
                frame = self._backtrack()
                if frame is None:
                    return
            if frame is _SOLVED:
                yield
                frame = None
                continue
            goal, nxt, depth, cut, home = frame
            if type(goal) is RuntimeVar:
                # A variable goal runs as call/1, one level deeper: every
                # cyclic goal passes through one, so its depth is bounded too.
                goal = self.walk(goal)
                cut = len(cps)
                depth += 1
                if depth > max_depth:
                    raise errors.resource_error("depth limit exceeded")
                if depth > self.deepest:
                    self.deepest = depth
            if isinstance(goal, Compound):
                name = goal.name
                key = name, len(goal.args)
            elif isinstance(goal, Atom):
                name = goal.name
                key = name, 0
            elif isinstance(goal, Var):
                raise errors.instantiation_error("unbound goal")
            else:
                raise errors.type_error("goal must be callable")
            native = BUILTIN_INDICATORS.get(key)
            if native is None or native.__class__ is PredicateEntry:
                if depth >= max_depth:
                    raise errors.resource_error("depth limit exceeded")
                depth += 1
                if depth > self.deepest:
                    self.deepest = depth
                self.inferences += 1
                home, clauses = self._solve_user(goal, key, home)
                frame = self._try_clauses(goal, nxt, depth, home, clauses, 0)
            elif native is Solver._control:
                frame = self._control(name, goal, nxt, depth, cut, home)
            elif native(self, goal):
                frame = nxt
            else:
                frame = None

    def _solve_user(self, goal: Term, key: tuple[str, int],
                    home: Database) -> tuple[Database, list]:
        """One call of a user or prelude predicate: the database it is
        defined in and the clauses to try, narrowed by the index on the
        call's leftmost bound argument. The caller's home database is
        searched first, then the prelude, so a program's own append/3 wins
        in the program, and the prelude's in the prelude. Called once per
        call; backtracking into another clause does not call it again."""
        entry = home.lookup(key)
        if entry is None and home is not _PRELUDE:
            home = _PRELUDE
            entry = home.lookup(key)
        if entry is None:
            raise errors.existence_error(
                f"unknown predicate {PredicateIndicator(*key)}")
        compiled = entry.compiled
        if compiled is None:
            if entry.dcg:
                # a DCG rule is stored untranslated: its body is no goal
                raise errors.existence_error(
                    f"unknown predicate {entry.indicator}")
            compiled = entry.compiled = _Compiled(entry)
        if key[1]:
            for position, arg in enumerate(goal.args):
                arg = self.walk(arg)
                if type(arg) is not RuntimeVar:
                    index, unkeyed = compiled.index(position)
                    return home, index.get(_index_key(arg), unkeyed)
        return home, compiled.clauses

    def _try_clauses(self, goal: Term, nxt, depth: int, home: Database,
                     clauses, start: int):
        """Resolve `goal` with the first of clauses[start:] whose head
        unifies: its body frames, pushed in front of `nxt`, or None when no
        head unifies. A choicepoint records any clauses left."""
        trail, cps = self.trail, self.choicepoints
        barrier = len(cps)
        args = goal.args if isinstance(goal, Compound) else ()
        last = len(clauses) - 1
        for i in range(start, last + 1):
            head, body, names = clauses[i]
            if i < last:
                # The choicepoint for the clauses left comes before the head
                # match, as the WAM's try_me_else: a head that binds a
                # variable and then fails must be undone.
                boundary = self._new_boundary()
            elif i > start:
                self._restore_boundary()
            slots = [None] * len(names)
            mark = len(trail)
            if self._match(head, args, slots, names):
                if i < last:
                    cps.append((mark, boundary, goal, nxt, depth, home, clauses,
                                i + 1))
                frame = nxt
                for template in body:
                    frame = (self._build(template, slots, names), frame,
                             depth, barrier, home)
                return frame
            self.undo(mark)
        return None

    def _match(self, head: tuple, args, slots: list, names: tuple) -> bool:
        """Unify a clause's head argument templates with a call's arguments,
        left to right. A slot takes the call's term at its first occurrence;
        no head term is built unless it meets an unbound variable. Explicit
        stack of argument-pair iterators."""
        trail, boundary = self.trail, self._boundary
        todo = [zip(head, args)]
        while todo:
            for t, x in todo[-1]:
                while type(x) is RuntimeVar:
                    bound = x.ref
                    if bound is None:
                        break
                    x = bound
                kind = type(t)
                if kind is int:
                    if slots[t] is None:
                        slots[t] = x
                    elif not self.unify(slots[t], x):
                        return False
                elif kind is tuple:
                    if type(x) is RuntimeVar:
                        x.ref = self._build(t, slots, names)
                        if x.vid < boundary:
                            trail.append(x)
                    elif (isinstance(x, Compound) and x.name == t[0]
                          and len(x.args) == len(t[1])):
                        todo.append(zip(t[1], x.args))
                        break
                    else:
                        return False
                elif type(x) is RuntimeVar:
                    x.ref = t
                    if x.vid < boundary:
                        trail.append(x)
                elif t is not x and not self.unify(t, x):
                    return False
            else:
                todo.pop()
        return True

    def _build(self, template, slots: list, names: tuple) -> Term:
        """Instantiate a clause template: a slot becomes its term, or a fresh
        variable at its first occurrence. Explicit stack."""
        kind = type(template)
        if kind is int:
            term = slots[template]
            if term is None:
                term = slots[template] = RuntimeVar(names[template], next(self._vids))
            return term
        if kind is not tuple:
            return template
        vids = self._vids
        root = Compound(template[0], list(template[1]))
        todo = [root.args]
        while todo:
            args = todo.pop()
            for i, t in enumerate(args):
                kind = type(t)
                if kind is int:
                    term = slots[t]
                    if term is None:
                        term = slots[t] = RuntimeVar(names[t], next(vids))
                    args[i] = term
                elif kind is tuple:
                    args[i] = Compound(t[0], list(t[1]))
                    todo.append(args[i].args)
        return root

    def _backtrack(self):
        """Undo to the newest choicepoint and take its next alternative: the
        frame to run, or None once no choicepoint is left."""
        cps = self.choicepoints
        while cps:
            choice = cps.pop()
            self.backtracks += 1
            self.undo(choice[0])
            self._restore_boundary()
            if choice[2] is None:
                return choice[3]
            _, _, goal, nxt, depth, home, clauses, start = choice
            frame = self._try_clauses(goal, nxt, depth, home, clauses, start)
            if frame is not None:
                return frame
        return None

    def _control(self, name: str, goal: Term, nxt, depth: int, cut: int,
                 home: Database):
        """The frame after a control construct. `!` truncates the
        choicepoints to its barrier; a cut in an if-then-else condition, in
        '\\+' or in call/1 is local to it, and one in a ';' branch cuts the
        clause."""
        cps = self.choicepoints
        if name == "!":
            del cps[cut:]
            self._restore_boundary()
            return nxt
        args = goal.args
        if name == ",":
            return (args[0], (args[1], nxt, depth, cut, home), depth, cut, home)
        if name == "call":
            return (args[0], nxt, depth, len(cps), home)
        height = len(cps)
        mark = len(self.trail)
        if name == "\\+":
            cps.append((mark, self._new_boundary(), None, nxt))
            fail = (_FAIL, None, depth, cut, home)
            return (args[0], (_CUT, fail, depth, height, home),
                    depth, height + 1, home)
        if name == ";":
            cps.append((mark, self._new_boundary(),
                        None, (args[1], nxt, depth, cut, home)))
            left = self.walk(args[0])
            if not (isinstance(left, Compound) and left.name == "->"
                    and len(left.args) == 2):
                return (args[0], nxt, depth, cut, home)
            cond, then = left.args
        else:  # "->" without an else branch
            cond, then = args
        # A cut in the condition reaches back to the current height only; the
        # commit after it cuts to `height`, dropping any else branch too.
        commit = (_CUT, (then, nxt, depth, cut, home), depth, height, home)
        return (cond, commit, depth, len(cps), home)

    # built-ins: each returns whether it succeeded; its bindings are trailed

    def _bi_true(self, goal):
        return True

    def _bi_fail(self, goal):
        return False

    def _bi_unify(self, goal):
        return self.unify(goal.args[0], goal.args[1])

    def _bi_not_unify(self, goal):
        return not self._unify_and_undo(goal.args[0], goal.args[1])[0]

    def _bi_is(self, goal):
        value = self.to_number(self.eval_arith(goal.args[1]))
        return self.unify(goal.args[0], value)

    def _syntactic_eq(self, a: Term, b: Term) -> bool:
        """Whether `a` and `b` are identical under the bindings: they unify
        without binding anything."""
        unifies, binds = self._unify_and_undo(a, b)
        return unifies and not binds

    def _bi_struct_eq(self, goal):
        return self._syntactic_eq(goal.args[0], goal.args[1])

    def _bi_struct_neq(self, goal):
        return not self._syntactic_eq(goal.args[0], goal.args[1])

    def _bi_functor(self, goal):
        t = self.walk(goal.args[0])
        if isinstance(t, Var):
            name_t = self.walk(goal.args[1])
            arity_t = self.walk(goal.args[2])
            if isinstance(name_t, Var) or isinstance(arity_t, Var):
                raise errors.instantiation_error("functor/3: underinstantiated")
            if not isinstance(arity_t, Int) or arity_t.value < 0:
                raise errors.type_error("functor/3: bad arity")
            if arity_t.value == 0:
                return self.unify(t, name_t)
            if not isinstance(name_t, Atom):
                raise errors.type_error("functor/3: functor must be an atom")
            return self.unify(t, Compound(
                name_t.name,
                [RuntimeVar("_", next(self._vids)) for _ in range(arity_t.value)],
            ))
        if isinstance(t, Compound):
            name_term: Term = Atom(t.name)
            arity = t.arity
        elif isinstance(t, Atom):
            name_term = Atom(t.name)
            arity = 0
        else:
            name_term = t
            arity = 0
        return self.unify(goal.args[1], name_term) \
            and self.unify(goal.args[2], Int(arity))

    def _bi_arg(self, goal):
        n = self.walk(goal.args[0])
        t = self.walk(goal.args[1])
        if isinstance(n, Var) or isinstance(t, Var):
            raise errors.instantiation_error("arg/3: underinstantiated")
        if not isinstance(n, Int) or not isinstance(t, Compound):
            raise errors.type_error("arg/3: bad arguments")
        return 1 <= n.value <= t.arity \
            and self.unify(goal.args[2], t.args[n.value - 1])

    def _bi_univ(self, goal):
        from .terms import make_list

        t = self.walk(goal.args[0])
        if not isinstance(t, Var):
            if isinstance(t, Compound):
                items: list[Term] = [Atom(t.name)] + list(t.args)
            else:
                items = [t]
            return self.unify(goal.args[1], make_list(items))
        spec = self.walk(goal.args[1])
        elems: list[Term] = []
        cells: set[int] = set()  # ids of the list cells walked so far
        node = spec
        while True:
            node = self.walk(node)
            if isinstance(node, Atom) and node.name == "[]":
                break
            if isinstance(node, Compound) and node.name == "." and node.arity == 2:
                if id(node) in cells:
                    raise errors.type_error("=../2: cyclic list")
                cells.add(id(node))
                elems.append(self.walk(node.args[0]))
                node = node.args[1]
                continue
            if isinstance(node, Var):
                raise errors.instantiation_error("=../2: partial list")
            raise errors.type_error("=../2: not a list")
        if not elems:
            raise errors.domain_error("=../2: empty list")
        if len(elems) == 1:
            built = elems[0]
        else:
            head = elems[0]
            if not isinstance(head, Atom):
                raise errors.type_error("=../2: functor must be an atom")
            built = Compound(head.name, elems[1:])
        return self.unify(t, built)


def _arith_compare(op):
    def compare(solver: Solver, goal):
        return op(solver.eval_arith(goal.args[0]), solver.eval_arith(goal.args[1]))
    return compare


def _type_test(test):
    def check(solver: Solver, goal):
        return test(solver.walk(goal.args[0]))
    return check


# Library predicates after ISO/IEC 13211-1 §8, in Prolog and without helper
# predicates. The solver runs them like user predicates, after the user's
# own; their own inner calls see the prelude first.
PRELUDE = """\
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
length([], 0).
length([_|T], N) :-
    ( nonvar(N) -> N > 0, N0 is N - 1, length(T, N0) ; length(T, N0), N is N0 + 1 ).
reverse([], []).
reverse([H|T], R) :- reverse(T, RT), append(RT, [H], R).
nth0(0, [X|_], X).
nth0(I, [_|T], X) :-
    ( var(I) -> nth0(I0, T, X), I is I0 + 1 ; I > 0, I0 is I - 1, nth0(I0, T, X) ).
nth1(I, L, X) :- nth0(I0, L, X), I is I0 + 1.
between(L, H, L) :- L =< H.
between(L, H, X) :- L < H, L1 is L + 1, between(L1, H, X).
last([X], X).
last([_|T], X) :- last(T, X).
"""


def _consult_prelude() -> Database:
    db = Database()
    consult_source(PRELUDE, db, Loader(), "<prelude>")
    return db


_PRELUDE = _consult_prelude()

# The one builtin registry: each indicator maps to its native solver function
# (a test that returns whether it succeeded), to the machine's control case,
# or to its prelude entry. The solver, the cross-file analysis, hover and
# completion all read it; builtin_catalog.txt holds each entry's doc text.
BUILTIN_INDICATORS: dict[tuple[str, int], Callable | PredicateEntry] = {
    ("true", 0): Solver._bi_true,
    ("!", 0): Solver._control,  # ISO cut: commits to the clause's choices
    ("fail", 0): Solver._bi_fail,
    ("false", 0): Solver._bi_fail,
    (",", 2): Solver._control,
    (";", 2): Solver._control,
    ("->", 2): Solver._control,
    ("=", 2): Solver._bi_unify,
    ("\\=", 2): Solver._bi_not_unify,
    ("is", 2): Solver._bi_is,
    ("=:=", 2): _arith_compare(operator.eq),
    ("=\\=", 2): _arith_compare(operator.ne),
    ("<", 2): _arith_compare(operator.lt),
    (">", 2): _arith_compare(operator.gt),
    ("=<", 2): _arith_compare(operator.le),
    (">=", 2): _arith_compare(operator.ge),
    ("==", 2): Solver._bi_struct_eq,
    ("\\==", 2): Solver._bi_struct_neq,
    ("atom", 1): _type_test(lambda t: isinstance(t, Atom)),
    ("var", 1): _type_test(lambda t: isinstance(t, Var)),
    ("nonvar", 1): _type_test(lambda t: not isinstance(t, Var)),
    ("number", 1): _type_test(lambda t: isinstance(t, (Int, Float))),
    ("functor", 3): Solver._bi_functor,
    ("arg", 3): Solver._bi_arg,
    ("=..", 2): Solver._bi_univ,
    ("call", 1): Solver._control,
    ("\\+", 1): Solver._control,
    **_PRELUDE.predicates,
}


class _Cyclic(Exception):
    pass


def solve(goal: Term, db: Database,
          limits: Optional[SolveLimits] = None) -> Iterator[dict[str, Term]]:
    """Solutions of `goal` as bindings for its named variables.

    Output bindings are fully dereferenced and occurs-checked: a solution
    whose bindings would be cyclic is dropped.
    """
    return Solver(db, limits).solve(goal)


# --- read-eval loop -------------------------------------------------------


def repl(db: Database, inp, out, loader: Optional[Loader] = None,
         limits: Optional[SolveLimits] = None) -> None:
    """Interactive goal loop: '?- ' prompt, ';' asks for the next solution.

    The buffer is lexed again only when it may hold a complete sentence:
    after a sentence or an answer line changed it, or when the appended
    line has a '.', as a line without one cannot end a sentence."""
    loader = loader or Loader()
    limits = limits or SolveLimits()
    buffer = ""
    lex = False  # the buffer may now hold a complete sentence
    while True:
        if lex:
            tokens, lex_diags = lexer.tokenize(buffer, "<repl>")
            lex = any(tok[0] is TokenKind.END for tok in tokens)
        if not lex:
            out.write("?- ")
            try:
                out.flush()
            except Exception:
                pass
            line = inp.readline()
            if line == "":
                return
            buffer += line
            lex = "." in line
            continue
        reader = Reader(buffer, tokens, db, "<repl>")
        sentence = reader.read_sentence()
        buffer = buffer[reader.consumed_end:]
        for diag in lex_diags + reader.diagnostics:
            out.write(f"syntax error: {diag.message}\n")
        if sentence is None:
            continue
        if sentence.kind == "directive":
            for diag in exec_directive(sentence.goal, db, loader):
                out.write(f"{diag.severity.value}: {diag.message}\n")
            out.write("true\n")
            continue
        try:
            for binding in solve(sentence.term, db, limits):
                for name, value in binding.items():
                    out.write(f"{name} = {pretty_print(value, db)}\n")
                out.write("true\n")
                cont = inp.readline()
                if cont.strip() != ";":
                    if cont and cont.strip():
                        buffer = cont + buffer
                    break
            else:
                out.write("false\n")
        except PrologError as err:
            out.write(f"error: {err.kind}: {err.message}\n")
