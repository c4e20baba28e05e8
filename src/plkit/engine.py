"""Post-processing of parsed sentences: the engine chain, directive
execution, a minimal resolution engine, and the interactive read-eval loop."""

from __future__ import annotations

import itertools
import operator
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from . import errors
from .database import (
    Clause,
    Database,
    ImportRecord,
    ModuleInfo,
    OperatorDef,
    PredicateIndicator,
)
from .diagnostics import Diagnostic, Severity
from .errors import PrologError
from .printer import pretty_print
from .reader import Reader, Sentence
from .spans import SourceSpan
from .terms import (
    Atom,
    Compound,
    Float,
    Int,
    Str,
    Term,
    Var,
    indicator_of,
    term_variables,
)

EngineHandler = Callable[[Sentence, Database, "Loader"], list[Diagnostic]]

@dataclass
class SolveLimits:
    max_depth: int = 10_000
    max_solutions: int = 10_000

    def __post_init__(self):
        if self.max_depth < 1 or self.max_solutions < 1:
            raise ValueError("limits must be >= 1")


# --- file loading ---------------------------------------------------------


class Loader:
    """Resolves and consults files referenced by directives.

    Consulted files are cached so diamond imports parse once; a loading
    set guards against import cycles.
    """

    def __init__(self, library_paths: tuple[str, ...] = (),
                 read_file: Optional[Callable[[str], str]] = None):
        self.library_paths = tuple(library_paths)
        self.read_file = read_file or _read_text
        self._cache: dict[str, tuple[Database, list[Sentence], list[Diagnostic]]] = {}
        self._loading: set[str] = set()
        self._sources: dict[str, str] = {}
        self._tokens: dict[str, list] = {}

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
        """Parse `path` into its own database; cached and cycle-safe."""
        path = os.path.abspath(path)
        if path in self._cache:
            return self._cache[path]
        if path in self._loading:
            return None  # cycle: the partial result is not reusable
        self._loading.add(path)
        try:
            from .lexer import tokenize

            db = Database()
            source = self.read_file(path)
            tokens, lex_diags = tokenize(source, path)
            self._sources[path] = source
            self._tokens[path] = tokens
            sentences, diagnostics = consult_tokens(tokens, lex_diags, db,
                                                    self, path)
            result = (db, sentences, diagnostics)
            self._cache[path] = result
            return result
        finally:
            self._loading.discard(path)

    def source_of(self, path: str) -> Optional[str]:
        return self._sources.get(os.path.abspath(path))

    def tokens_of(self, path: str) -> list:
        return self._tokens.get(os.path.abspath(path), [])


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# --- engine chain ---------------------------------------------------------


def directive_engine(sentence: Sentence, db: Database,
                     loader: Loader) -> list[Diagnostic]:
    if sentence.kind != "directive":
        return []
    return exec_directive(sentence.goal, db, loader)


def storage_engine(sentence: Sentence, db: Database,
                   loader: Loader) -> list[Diagnostic]:
    if sentence.kind == "directive":
        return []
    try:
        if sentence.kind == "clause":
            db.assert_clause(sentence.head, sentence.body, sentence.span)
        elif sentence.kind == "fact":
            db.assert_clause(sentence.head, Atom("true"), sentence.span)
        elif sentence.kind == "dcg_rule":
            entry = db.assert_clause(sentence.head, sentence.body, sentence.span)
            entry.properties.add("dcg")
    except PrologError as err:
        return [Diagnostic(Severity.ERROR, err.kind, err.message,
                           sentence.head.span or sentence.span)]
    return []


def default_chain() -> list[EngineHandler]:
    return [directive_engine, storage_engine]


def dispatch(sentence: Sentence, chain: list[EngineHandler], db: Database,
             loader: Loader) -> list[Diagnostic]:
    """Pass one sentence through every engine in order, containing failures."""
    diagnostics: list[Diagnostic] = []
    for handler in chain:
        try:
            diagnostics.extend(handler(sentence, db, loader) or [])
        except PrologError as err:
            diagnostics.append(
                Diagnostic(Severity.ERROR, err.kind, err.message, sentence.span)
            )
    return diagnostics


def consult_source(source: str, db: Database, loader: Loader, file_id: str,
                   chain: Optional[list[EngineHandler]] = None,
                   ) -> tuple[list[Sentence], list[Diagnostic]]:
    """Phase I for one file: read sentences, dispatching each before the
    next is parsed so directives reshape the grammar mid-file."""
    from .lexer import tokenize

    tokens, lex_diags = tokenize(source, file_id)
    return consult_tokens(tokens, lex_diags, db, loader, file_id, chain)


def consult_tokens(tokens: list, lex_diags: list[Diagnostic], db: Database,
                   loader: Loader, file_id: str,
                   chain: Optional[list[EngineHandler]] = None,
                   ) -> tuple[list[Sentence], list[Diagnostic]]:
    """Phase I over an already-tokenized file."""
    if chain is None:
        chain = default_chain()
    diagnostics = list(lex_diags)
    reader = Reader(tokens, db, file_id)
    sentences: list[Sentence] = []
    while True:
        result = reader.read_sentence()
        diagnostics.extend(result.diagnostics)
        if result.at_eof:
            break
        if result.sentence is not None:
            sentences.append(result.sentence)
            diagnostics.extend(dispatch(result.sentence, chain, db, loader))
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
            db.add_operator(definition)
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
            db.add_operator(definition)
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
    db.loaded_files.add(path)
    try:
        source = loader.read_file(path)
    except OSError as err:
        return [_warn(target.span, "file_not_found", str(err))]
    _, diagnostics = consult_source(source, db, loader, path)
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


class Solver:
    def __init__(self, db: Database, limits: Optional[SolveLimits] = None):
        self.db = db
        self.limits = limits or SolveLimits()
        self._vids = itertools.count(1_000_000)
        self.subst: dict[int, Term] = {}

    # substitution helpers

    def walk(self, term: Term) -> Term:
        while isinstance(term, Var):
            bound = self.subst.get(term.vid)
            if bound is None:
                return term
            term = bound
        return term

    def bind(self, var: Var, term: Term, trail: list[int]):
        self.subst[var.vid] = term
        trail.append(var.vid)

    def undo(self, trail: list[int], mark: int):
        while len(trail) > mark:
            del self.subst[trail.pop()]

    def unify(self, a: Term, b: Term, trail: list[int]) -> bool:
        a = self.walk(a)
        b = self.walk(b)
        # Identity short-circuit; also keeps unification of a cyclic
        # binding against itself (X = f(X) inside a larger goal) finite.
        if a is b:
            return True
        if isinstance(a, Var):
            if isinstance(b, Var) and a.vid == b.vid:
                return True
            self.bind(a, b, trail)
            return True
        if isinstance(b, Var):
            self.bind(b, a, trail)
            return True
        if isinstance(a, Atom):
            return isinstance(b, Atom) and a.name == b.name
        if isinstance(a, Int):
            return isinstance(b, Int) and a.value == b.value
        if isinstance(a, Float):
            return isinstance(b, Float) and a.value == b.value
        if isinstance(a, Str):
            return isinstance(b, Str) and a.value == b.value
        if isinstance(a, Compound):
            if not (isinstance(b, Compound) and a.name == b.name
                    and a.arity == b.arity):
                return False
            for x, y in zip(a.args, b.args):
                if not self.unify(x, y, trail):
                    return False
            return True
        return False

    def rename(self, term: Term, mapping: dict[int, Var]) -> Term:
        if isinstance(term, Var):
            fresh = mapping.get(term.vid)
            if fresh is None:
                fresh = Var(term.name, next(self._vids))
                mapping[term.vid] = fresh
            return fresh
        if isinstance(term, Compound):
            return Compound(term.name, [self.rename(a, mapping) for a in term.args])
        return term

    def resolve_out(self, term: Term, active: frozenset = frozenset()) -> Term:
        """Fully dereference for output; raises _Cyclic on self-reference."""
        traversed = set()
        t = term
        while isinstance(t, Var):
            if t.vid in active:
                raise _Cyclic()
            traversed.add(t.vid)
            bound = self.subst.get(t.vid)
            if bound is None:
                return t
            t = bound
        if isinstance(t, Compound):
            inner = active | traversed
            return Compound(t.name, [self.resolve_out(a, inner) for a in t.args])
        return t

    # arithmetic

    def eval_arith(self, term: Term):
        term = self.walk(term)
        if isinstance(term, Int) or isinstance(term, Float):
            return term.value
        if isinstance(term, Var):
            raise errors.instantiation_error("unbound variable in arithmetic")
        if isinstance(term, Compound):
            name, arity = term.name, term.arity
            if arity == 2:
                a = self.eval_arith(term.args[0])
                b = self.eval_arith(term.args[1])
                if name == "+":
                    return a + b
                if name == "-":
                    return a - b
                if name == "*":
                    return a * b
                if name == "/":
                    if b == 0:
                        raise errors.PrologError("evaluation_error", "zero divisor")
                    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
                        return a // b
                    return a / b
                if name == "//":
                    if b == 0:
                        raise errors.PrologError("evaluation_error", "zero divisor")
                    return int(a) // int(b)
                if name == "mod":
                    if b == 0:
                        raise errors.PrologError("evaluation_error", "zero divisor")
                    return a % b
            if arity == 1:
                a = self.eval_arith(term.args[0])
                if name == "-":
                    return -a
                if name == "+":
                    return a
                if name == "abs":
                    return abs(a)
        raise errors.type_error(
            f"not an arithmetic expression: {pretty_print(self.resolve_out(term))}"
        )

    @staticmethod
    def to_number(value) -> Term:
        return Int(value) if isinstance(value, int) else Float(value)

    # the resolution loop

    def solve(self, goal: Term, depth: int = 0) -> Iterator[None]:
        """Yield once per solution; bindings live in self.subst."""
        if depth > self.limits.max_depth:
            raise errors.resource_error("depth limit exceeded")
        goal = self.walk(goal)
        if isinstance(goal, Var):
            raise errors.instantiation_error("unbound goal")
        ind = indicator_of(goal)
        if ind is None:
            raise errors.type_error("goal must be callable")
        native = BUILTIN_INDICATORS.get(ind)
        if callable(native):
            yield from native(self, goal, depth)
        else:
            yield from self._solve_user(goal, *ind, depth)

    def _solve_user(self, goal: Term, name: str, arity: int,
                    depth: int) -> Iterator[None]:
        # the user's own definition wins over the prelude's
        entry = self.db.lookup(PredicateIndicator(name, arity))
        clauses = entry.clauses if entry is not None \
            else BUILTIN_INDICATORS.get((name, arity))
        if clauses is None:
            raise errors.existence_error(f"unknown predicate {name}/{arity}")
        trail: list[int] = []
        for clause in list(clauses):
            mapping: dict[int, Var] = {}
            head = self.rename(clause.head, mapping)
            body = self.rename(clause.body, mapping)
            mark = len(trail)
            if self.unify(goal, head, trail):
                yield from self.solve(body, depth + 1)
            self.undo(trail, mark)

    # built-ins

    def _bi_true(self, goal, depth):
        yield

    def _bi_fail(self, goal, depth):
        return
        yield  # pragma: no cover

    def _bi_conj(self, goal, depth):
        a, b = goal.args
        for _ in self.solve(a, depth + 1):
            yield from self.solve(b, depth + 1)

    def _bi_disj(self, goal, depth):
        a, b = goal.args
        a_w = self.walk(a)
        if isinstance(a_w, Compound) and a_w.name == "->" and a_w.arity == 2:
            cond, then = a_w.args
            for _ in self.solve(cond, depth + 1):
                yield from self.solve(then, depth + 1)
                return
            yield from self.solve(b, depth + 1)
            return
        yield from self.solve(a, depth + 1)
        yield from self.solve(b, depth + 1)

    def _bi_ifthen(self, goal, depth):
        cond, then = goal.args
        for _ in self.solve(cond, depth + 1):
            yield from self.solve(then, depth + 1)
            return

    def _bi_unify(self, goal, depth):
        trail: list[int] = []
        if self.unify(goal.args[0], goal.args[1], trail):
            yield
        self.undo(trail, 0)

    def _bi_not_unify(self, goal, depth):
        trail: list[int] = []
        ok = self.unify(goal.args[0], goal.args[1], trail)
        self.undo(trail, 0)
        if not ok:
            yield

    def _bi_is(self, goal, depth):
        value = self.to_number(self.eval_arith(goal.args[1]))
        trail: list[int] = []
        if self.unify(goal.args[0], value, trail):
            yield
        self.undo(trail, 0)

    def _syntactic_eq(self, a: Term, b: Term) -> bool:
        a = self.walk(a)
        b = self.walk(b)
        if isinstance(a, Var) or isinstance(b, Var):
            return isinstance(a, Var) and isinstance(b, Var) and a.vid == b.vid
        if isinstance(a, Compound) and isinstance(b, Compound):
            return (a.name == b.name and a.arity == b.arity
                    and all(self._syntactic_eq(x, y)
                            for x, y in zip(a.args, b.args)))
        if type(a) is not type(b):
            return False
        if isinstance(a, Atom):
            return a.name == b.name
        return a.value == b.value  # Int/Float/Str

    def _bi_struct_eq(self, goal, depth):
        if self._syntactic_eq(goal.args[0], goal.args[1]):
            yield

    def _bi_struct_neq(self, goal, depth):
        if not self._syntactic_eq(goal.args[0], goal.args[1]):
            yield

    def _bi_functor(self, goal, depth):
        t = self.walk(goal.args[0])
        trail: list[int] = []
        if isinstance(t, Var):
            name_t = self.walk(goal.args[1])
            arity_t = self.walk(goal.args[2])
            if isinstance(name_t, Var) or isinstance(arity_t, Var):
                raise errors.instantiation_error("functor/3: underinstantiated")
            if not isinstance(arity_t, Int) or arity_t.value < 0:
                raise errors.type_error("functor/3: bad arity")
            if arity_t.value == 0:
                built = name_t
            else:
                if not isinstance(name_t, Atom):
                    raise errors.type_error("functor/3: functor must be an atom")
                built = Compound(
                    name_t.name,
                    [Var("_", next(self._vids)) for _ in range(arity_t.value)],
                )
            if self.unify(t, built, trail):
                yield
            self.undo(trail, 0)
            return
        if isinstance(t, Compound):
            name_term: Term = Atom(t.name)
            arity = t.arity
        elif isinstance(t, Atom):
            name_term = Atom(t.name)
            arity = 0
        else:
            name_term = t
            arity = 0
        if self.unify(goal.args[1], name_term, trail) and self.unify(
            goal.args[2], Int(arity), trail
        ):
            yield
        self.undo(trail, 0)

    def _bi_arg(self, goal, depth):
        n = self.walk(goal.args[0])
        t = self.walk(goal.args[1])
        if isinstance(n, Var) or isinstance(t, Var):
            raise errors.instantiation_error("arg/3: underinstantiated")
        if not isinstance(n, Int) or not isinstance(t, Compound):
            raise errors.type_error("arg/3: bad arguments")
        if 1 <= n.value <= t.arity:
            trail: list[int] = []
            if self.unify(goal.args[2], t.args[n.value - 1], trail):
                yield
            self.undo(trail, 0)

    def _bi_univ(self, goal, depth):
        from .terms import make_list

        t = self.walk(goal.args[0])
        trail: list[int] = []
        if not isinstance(t, Var):
            if isinstance(t, Compound):
                items: list[Term] = [Atom(t.name)] + list(t.args)
            else:
                items = [t]
            if self.unify(goal.args[1], make_list(items), trail):
                yield
            self.undo(trail, 0)
            return
        spec = self.walk(goal.args[1])
        elems: list[Term] = []
        node = spec
        while True:
            node = self.walk(node)
            if isinstance(node, Atom) and node.name == "[]":
                break
            if isinstance(node, Compound) and node.name == "." and node.arity == 2:
                elems.append(self.walk(node.args[0]))
                node = node.args[1]
                continue
            raise errors.instantiation_error("=../2: list not proper")
        if not elems:
            raise errors.domain_error("=../2: empty list")
        if len(elems) == 1:
            built = elems[0]
        else:
            head = elems[0]
            if not isinstance(head, Atom):
                raise errors.type_error("=../2: functor must be an atom")
            built = Compound(head.name, elems[1:])
        if self.unify(t, built, trail):
            yield
        self.undo(trail, 0)

    def _bi_call(self, goal, depth):
        yield from self.solve(goal.args[0], depth + 1)

    def _bi_naf(self, goal, depth):
        for _ in self.solve(goal.args[0], depth + 1):
            return
        yield


def _arith_compare(op):
    def compare(solver: Solver, goal, depth):
        if op(solver.eval_arith(goal.args[0]), solver.eval_arith(goal.args[1])):
            yield
    return compare


def _type_test(test):
    def check(solver: Solver, goal, depth):
        if test(solver.walk(goal.args[0])):
            yield
    return check


# Library predicates after ISO/IEC 13211-1 §8, in Prolog and without helper
# predicates. The solver runs them like user predicates, after the user's own.
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


def _prelude_clauses() -> dict[tuple[str, int], list[Clause]]:
    db = Database()
    consult_source(PRELUDE, db, Loader(), "<prelude>")
    return {(i.name, i.arity): e.clauses for i, e in db.predicates.items()}


# The one builtin registry: each indicator maps to its native solver function
# or to its prelude clauses. The solver, the cross-file analysis, hover and
# completion all read it; builtin_catalog.txt holds each entry's doc text.
BUILTIN_INDICATORS: dict[tuple[str, int], Callable | list[Clause]] = {
    ("true", 0): Solver._bi_true,
    ("!", 0): Solver._bi_true,  # cut is approximated by success
    ("fail", 0): Solver._bi_fail,
    ("false", 0): Solver._bi_fail,
    (",", 2): Solver._bi_conj,
    (";", 2): Solver._bi_disj,
    ("->", 2): Solver._bi_ifthen,
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
    ("call", 1): Solver._bi_call,
    ("\\+", 1): Solver._bi_naf,
    **_prelude_clauses(),
}


class _Cyclic(Exception):
    pass


def solve(goal: Term, db: Database,
          limits: Optional[SolveLimits] = None) -> Iterator[dict[str, Term]]:
    """Solutions of `goal` as bindings for its named variables.

    Output bindings are fully dereferenced and occurs-checked: a solution
    whose bindings would be cyclic is dropped.
    """
    limits = limits or SolveLimits()
    solver = Solver(db, limits)
    goal_vars = [v for v in term_variables(goal) if v.name != "_"]
    count = 0
    for _ in solver.solve(goal):
        try:
            binding = {}
            for var in goal_vars:
                binding[var.name] = solver.resolve_out(var)
        except _Cyclic:
            continue
        yield binding
        count += 1
        if count >= limits.max_solutions:
            return


# --- read-eval loop -------------------------------------------------------


def repl(db: Database, inp, out, loader: Optional[Loader] = None,
         limits: Optional[SolveLimits] = None) -> None:
    """Interactive goal loop: '?- ' prompt, ';' asks for the next solution."""
    from .lexer import tokenize

    loader = loader or Loader()
    limits = limits or SolveLimits()
    buffer = ""
    while True:
        if not _has_end(buffer):
            out.write("?- ")
            try:
                out.flush()
            except Exception:
                pass
            line = inp.readline()
            if line == "":
                return
            buffer += line
            continue
        tokens, lex_diags = tokenize(buffer, "<repl>")
        reader = Reader(tokens, db, "<repl>")
        result = reader.read_sentence()
        consumed = reader.i
        remainder_offset = (
            tokens[consumed - 1].span.end_offset if consumed > 0 else len(buffer)
        )
        buffer = buffer[remainder_offset:]
        for diag in lex_diags + result.diagnostics:
            out.write(f"syntax error: {diag.message}\n")
        if result.sentence is None:
            continue
        sentence = result.sentence
        if sentence.kind == "directive":
            for diag in exec_directive(sentence.goal, db, loader):
                out.write(f"{diag.severity.value}: {diag.message}\n")
            out.write("true\n")
            continue
        goal = sentence.term
        try:
            for binding in solve(goal, db, limits):
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


def _has_end(buffer: str) -> bool:
    from .lexer import TokenKind, tokenize

    tokens, _ = tokenize(buffer, "<repl>")
    return any(t.kind == TokenKind.END for t in tokens)
