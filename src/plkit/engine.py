"""Consulting parsed sentences (directive execution and clause storage), a
minimal resolution engine, and the interactive read-eval loop."""

from __future__ import annotations

import itertools
import operator
import os
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
from .lexer import TokenKind, indicator_text
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

class SolveLimits:
    """Bounds on one solve() call. `max_depth` is the number of user or
    prelude predicate calls nested on the current branch (a countdown from n
    nests n + 1), a goal run through a variable counting as one more; going
    past it raises resource_error. `max_solutions` caps the solutions
    solve() yields."""

    __slots__ = ("max_depth", "max_solutions")

    def __init__(self, max_depth: int = 10_000, max_solutions: int = 10_000):
        if max_depth < 1 or max_solutions < 1:
            raise ValueError("limits must be >= 1")
        self.max_depth = max_depth
        self.max_solutions = max_solutions


# ISO's max_arity flag: functor/3 and =../2 build no compound with more
# arguments, and raise representation_error(max_arity) instead.
MAX_ARITY = 65_535


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
        # the predicate indicators of every database the loader makes
        self._indicators: dict[tuple[str, int], PredicateIndicator] = {}
        self._loading: set[str] = set()
        self._sources: dict[str, str] = {}
        # The file consult_file is consulting, then the files that
        # `:- include` has consulted into its database, innermost last.
        self.include_chain: list[str] = []

    def resolve(self, goal: Compound, diagnostics: list[Diagnostic]) -> Optional[str]:
        """The file that the target of the loading directive `goal` names:
        library(Name) in the library paths, any other name in the
        directive's directory and then in them. When there is none, a
        `file_not_found` warning on the target goes on `diagnostics`."""
        target = goal.args[0]
        if isinstance(target, Compound) and target.name == "library" and target.arity == 1:
            inner, search = target.args[0], self.library_paths
        else:
            base_dir = os.path.dirname(goal.span.file_id) if goal.span else ""
            inner, search = target, (base_dir or ".", *self.library_paths)
        if isinstance(inner, (Atom, Str)):
            name = inner.name if isinstance(inner, Atom) else inner.value
            names = [name] if inner is target and name.endswith(".pl") else [name, name + ".pl"]
            for directory in search:
                for candidate in names:
                    path = os.path.normpath(os.path.join(directory, candidate))
                    if os.path.isfile(path):
                        return path
        diagnostics.append(_warn(target.span, "file_not_found",
                                 f"cannot resolve {pretty_print(target)}"))
        return None

    def consult_file(self, path: str):
        """Parse `path` into (its own database, sentences, diagnostics);
        cached and cycle-safe: None for a file still loading.

        A file that cannot be read or is not UTF-8 gives an empty database
        and one `unreadable_file` error on its start. Any exception raised
        while consulting it is a defect in plkit, and becomes an
        `internal_error` diagnostic on the file, so that one file cannot
        stop the analysis of the others.
        """
        path = os.path.abspath(path)
        if path in self._cache:
            return self._cache[path]
        if path in self._loading:
            return None  # cycle: the partial result is not reusable
        self._loading.add(path)
        outer_chain, self.include_chain = self.include_chain, [path]
        try:
            db = Database(self._indicators)
            sentences: list[Sentence] = []
            try:
                source, diagnostics = _read_source(path, file_start(path),
                                                   os.path.basename(path))
                if not diagnostics:
                    self._sources[path] = source
                    sentences, diagnostics = consult_source(source, db, self, path)
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
    import traceback

    frame, line = list(traceback.walk_tb(err.__traceback__))[-1]
    where = f"{os.path.basename(frame.f_code.co_filename)}:{line}"
    return _error(file_start(path), "internal_error",
                  f"internal error ({type(err).__name__} at {where}): {err}")


def _read_source(path: str, span: SourceSpan,
                name: str) -> tuple[str, list[Diagnostic]]:
    """The text of the source file `path` and no diagnostics, or "" and one
    `unreadable_file` error on `span`, naming the file `name`, when it
    cannot be read or is not UTF-8. The one place a source file is read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read(), []
    except (OSError, UnicodeDecodeError) as err:
        return "", [_error(span, "unreadable_file", f"cannot read {name}: {err}")]


# --- consulting -----------------------------------------------------------


def consult_sentence(sentence: Sentence, db: Database,
                     loader: Loader) -> list[Diagnostic]:
    """Run a directive, or store a clause, fact or DCG rule: the sentence
    itself is the stored clause. A PrologError becomes a diagnostic on the
    sentence."""
    try:
        if sentence.kind == "directive":
            return exec_directive(sentence.goal, db, loader)
        # the indicator is None for a head that is not callable, which
        # add_clause rejects
        entry = db.add_clause(sentence, sentence.indicator)
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
    mid-file. The list `tokens` is consumed: the reader clears the tokens
    of the sentences it has read."""
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


def _parse_indicator(term: Term, db: Database) -> Optional[PredicateIndicator]:
    if (
        isinstance(term, Compound)
        and term.name in ("/", "//")
        and term.arity == 2
        and isinstance(term.args[0], Atom)
        and isinstance(term.args[1], Int)
        and term.args[1].value >= 0
    ):
        # name//arity: DCG nonterminal, resolvable at arity+2
        extra = 2 if term.name == "//" else 0
        return db.indicator(term.args[0].name, term.args[1].value + extra)
    return None


def _indicators(items: list[Term], what: str, db: Database,
                diagnostics: list[Diagnostic]) -> list[PredicateIndicator]:
    """The predicate indicators among a directive's `items`, from the table
    of `db`; each other item adds a `malformed_directive` error, "WHAT must
    be name/arity"."""
    indicators = []
    for item in items:
        indicator = _parse_indicator(item, db)
        if indicator is None:
            diagnostics.append(_error(item.span, "malformed_directive",
                                      f"{what} must be name/arity"))
        else:
            indicators.append(indicator)
    return indicators


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
                      f"unknown directive {indicator_text(name, arity)}")]
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
            db.declared_operators.append(definition)
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
    diagnostics: list[Diagnostic] = []
    db.module = ModuleInfo(name, set(_indicators(exports, "export", db, diagnostics)))
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
        indicators = _indicators(items, "import", db, diagnostics)
    record = ImportRecord(target, indicators, goal.span)
    db.imports.append(record)
    path = loader.resolve(goal, diagnostics)
    if path is None:
        return diagnostics
    record.resolved_file = path
    loaded = loader.consult_file(path)
    if loaded is None:
        return diagnostics  # import cycle; the other load is in progress
    target_db, _, _ = loaded
    # Operator declarations of the imported file become visible here.
    for definition in target_db.declared_operators:
        try:
            db.operators.add(definition)
            db.declared_operators.append(definition)
        except PrologError:
            pass
    return diagnostics


def _dir_declare(prop: str):
    def handler(goal: Compound, db: Database, loader: Loader) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        items = _proper_list(goal.args[0])
        if items is None:
            items = _comma_list(goal.args[0])
        for indicator in _indicators(items, f"{prop} argument", db, diagnostics):
            db.declare(indicator, prop)
        return diagnostics

    return handler


def _load_into(goal: Compound, db: Database, loader: Loader,
               once_only: bool) -> list[Diagnostic]:
    target = goal.args[0]
    diagnostics: list[Diagnostic] = []
    path = loader.resolve(goal, diagnostics)
    if path is None:
        return diagnostics
    if once_only and path in db.loaded_files:
        return []
    if path in loader.include_chain:  # already being consulted into db
        if once_only:
            return []
        return [_error(target.span, "include_cycle",
                       f"{pretty_print(target)} is already being included")]
    db.loaded_files.add(path)
    # a file that cannot be read leaves the includer's own sentences to read
    source, unreadable = _read_source(path, target.span, pretty_print(target))
    if unreadable:
        return unreadable
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
    ("include", 1): lambda goal, db, loader: _load_into(goal, db, loader, False),
    ("ensure_loaded", 1): lambda goal, db, loader: _load_into(goal, db, loader, True),
    ("set_prolog_flag", 2): _dir_set_flag,
}


# --- resolution engine ----------------------------------------------------
#
# One iterative machine after Aït-Kaci, "Warren's Abstract Machine: A
# Tutorial Reconstruction" (1991): a goal list, a choicepoint stack and a
# trail. Of the WAM's compiler it keeps the clause code: the head's get and
# the body's put instructions become one Python function per clause shape.
# Cut follows ISO/IEC 13211-1 §7.7-7.8.
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
# database whose definitions the goal's calls see first. A goal is a term,
# or the (callee, arguments) pair that clause code makes of a call (see
# _compile_clause). The goal list ends in _SOLVED. A choicepoint is (trail
# mark, boundary, arguments, next, depth, home, clauses, index of the next
# clause) for a call with clauses left, or (trail mark, boundary, None,
# frame) for the other branch of ';' or the success of '\+'.

_SOLVED = ("solved",)
# the control constructs whose arguments call/1 checks are goals
_SKELETON = frozenset((",", ";", "->"))
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
    """A predicate's clauses, with an index per argument position built on
    demand.

    `clauses` holds them as _compile_clause makes them: each with the code
    that resolves a call with it, straight-line Python shared by every
    clause of its shape, or the template walker for a clause past the size
    bound. `indexes` maps an argument position to (index, unkeyed): `index`
    maps a key of that argument to the clauses that may match it, in source
    order, and `unkeyed` holds the clauses whose argument there is a
    variable, which match any other key."""

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


# A clause keeps the template walker unless its shape has fewer nodes than
# _CODE_NODES and it nests a compound holding a variable less deep than
# _CODE_DEPTH. The head binds: its code nests an indented block per level of
# a head argument, and Python refuses 100 levels of indentation. A term the
# code builds is written compound by compound into flat temporaries, so a
# body term nests no code; its depth is bounded only by the generator's own
# recursion (`term`, `match`, `_evaluable`) and so by Python's.
_CODE_NODES = 400
_CODE_DEPTH = 24
# a clause shape -> its generated code, made on the first clause of the shape
_SHAPES: dict[tuple, Callable] = {}
# a shape's tag for an atom or an integer; any other constant is "g"
_CONSTANT_TAGS = {Atom: "a", Int: "i"}


def _compile_clause(clause) -> tuple:
    """A clause as (head argument templates, code, K). `code(solver, args,
    K)` unifies the head with a call's arguments and answers the clause's
    body goals built in reverse order, or None when the head does not unify.

    In a template a variable becomes its slot number and a compound holding
    a variable becomes (name, argument templates); a `true` goal is dropped
    and a variable goal X runs as call(X). The one walk that makes the
    templates also gives each its code tree, which names each functor name
    and constant by its index in K: ("slot", number), ("constant", tag,
    index), ("compound", index of its name, argument trees), or ("call",
    index of its callee, goal tree) for a body goal that calls a builtin,
    user or prelude predicate (see _callee). K holds those names, constants
    and callees in the order the walk meets them, followed by the variable
    names by slot. A call's code answers (callee, arguments), with no term
    built for it; a control construct or a goal that is not callable stays
    a term.
    Clauses of one shape, the same trees, share the code _generate makes of
    it; the shape key also holds the clause's leading arithmetic guards (see
    _guards), which the code runs inline, so that `code` answers False when
    one fails.
    A clause past the size bound keeps the walker, `_walk_clause`, and its K
    is (head templates, body templates, variable names): its goals stay
    terms."""
    head = clause.head.args if isinstance(clause.head, Compound) else ()
    goals = [Compound("call", [g]) if isinstance(g, Var) else g
             for g in reversed(_comma_list(clause.body))
             if not (isinstance(g, Atom) and g.name == "true")]
    slots: dict[int, int] = {}
    names: list[str] = []
    head_slots = 0  # the slots of the head's variables, numbered first
    constants: list = []
    nodes = 0
    deepest = 0
    depth = 0  # compounds around the next term
    # rebuild()'s walk over the head arguments, then the goals, leaving
    # their templates on `out` and their trees on `trees`; a compound's
    # arguments precede it on `todo` as (compound, nodes mark, constants
    # mark)
    out: list = []
    trees: list = []
    todo: list = [*reversed(goals), *reversed(head)]
    while todo:
        t = todo.pop()
        kind = type(t)
        if kind is tuple:
            t, mark, constants_mark = t
            n = len(t.args)
            args = out[-n:]
            del out[-n:]
            if args == t.args:  # ground: shared, and one constant
                del trees[-n:], constants[constants_mark:]
                nodes = mark + 1
                trees.append(("constant", "g", len(constants)))
                constants.append(t)
                out.append(t)
            else:
                trees[-n:] = [("compound", len(constants), tuple(trees[-n:]))]
                constants.append(t.name)
                out.append((t.name, tuple(args)))
                if depth > deepest:
                    deepest = depth
            depth -= 1
        elif isinstance(t, Var):
            nodes += 1
            number = slots.get(t.vid)
            if number is None:
                number = slots[t.vid] = len(names)
                names.append(t.name)
            trees.append(("slot", number))
            out.append(number)
        elif isinstance(t, Compound):
            todo.append((t, nodes, len(constants)))
            nodes += 1
            depth += 1
            todo.extend(reversed(t.args))
        else:
            nodes += 1
            trees.append(("constant", _CONSTANT_TAGS.get(kind, "g"), len(constants)))
            constants.append(t)
            out.append(t)
        if depth:
            continue
        if len(out) == len(head):  # the last head argument is complete
            head_slots = len(names)
        elif len(out) > len(head):  # a body goal is complete
            callee = _callee(out[-1])
            if callee is not None:
                trees[-1] = ("call", len(constants), trees[-1])
                constants.append(callee)
    head, body = tuple(out[:len(head)]), tuple(out[len(head):])
    if nodes >= _CODE_NODES or deepest >= _CODE_DEPTH:
        return head, _walk_clause, (head, body, tuple(names))
    key = (len(head), _guards(head_slots, body), len(constants), *trees)
    code = _SHAPES.get(key)
    if code is None:
        code = _SHAPES[key] = _generate(key)
    return head, code, (*constants, *names)


def _callee(goal):
    """The callee of a body goal's template: a builtin's native function, or
    the (name, arity) key of a user or prelude predicate; None for a control
    construct, which stays a term, and for a goal that is not callable."""
    key = (goal[0], len(goal[1])) if type(goal) is tuple else indicator_of(goal)
    if key is None:
        return None
    native = BUILTIN_INDICATORS.get(key)
    if native is None or native.__class__ is PredicateEntry:
        return key
    return None if native is Solver._control else native


def _guards(head_slots: int, body: tuple) -> tuple:
    """The leading run of a compiled clause's body goals that its code runs
    inline: is/2 and the comparisons whose evaluated sides hold only
    variables of the head, slots 0 to `head_slots` - 1, or of an earlier
    guard's `is` left side, and no compound holding a variable but an
    evaluable one. Each guard is its name followed by the names of the
    compounds it evaluates, in the order its code tree's compounds close."""
    guards: list = []
    seen: Optional[set] = None
    for goal in reversed(body):
        if not (type(goal) is tuple and len(goal[1]) == 2
                and (goal[0] == "is" or goal[0] in _COMPARISONS)):
            break
        if seen is None:
            seen = set(range(head_slots))
        left, right = goal[1]
        functions: list = []
        if not all(_evaluable(side, seen, functions)
                   for side in ((right,) if goal[0] == "is" else (left, right))):
            break
        guards.append((goal[0], *functions))
        if goal[0] == "is" and type(left) is int:
            seen.add(left)
    return tuple(guards)


def _evaluable(template, seen: set, functions: list) -> bool:
    """Whether a guard's code can evaluate `template`: each slot in `seen`
    and each compound evaluable, whose names it appends as the compounds
    close. Recursion is bounded by _CODE_DEPTH."""
    if type(template) is int:
        return template in seen
    if type(template) is tuple:
        name, args = template
        if (name, len(args)) not in _EVALUABLE \
                or not all(_evaluable(arg, seen, functions) for arg in args):
            return False
        functions.append(name)
    return True


# the slots of Term and their values on a term not read from source, as every
# constructor but RuntimeVar's, which leaves them unset, sets them
_NO_SOURCE = (("lines", "None"), ("start", "0"), ("end", "0"))
# how a dereferenced non-variable x fails to unify with the constant K[k]
_MISMATCH = {
    "a": "type({x}) is not Atom or {x}.name != K[{k}].name",
    "i": "type({x}) is not Int or {x}.value != K[{k}].value",
    "g": "{x} is not K[{k}] and not unify(K[{k}], {x})",
}


def _generate(shape: tuple) -> Callable:
    """The code of a clause shape, (head arity, guards, the number of names
    and constants before the variable names in K, then the code trees of
    the head arguments and of the body goals in reverse order, as
    _compile_clause makes them), as a Python function: the WAM's get and
    unify instructions for the head, then its put instructions for the body
    (Aït-Kaci 1991, §2-5), doing what _walk_clause does in the same order.
    A slot is a local from its first occurrence on, and K is the only way a
    name or a constant reaches the code. Between the two, the guards run
    inline in source order, as their builtins would (Van Roy 1990, shallow
    backtracking): an integer operand gives its value, any other goes
    through eval_arith, a failed comparison answers False, and an `is`
    gives a slot first met on its left the number itself, with no variable
    made for it. A call answers (K[callee], arguments): a tuple of the
    goal's arguments, a ground goal's own `args`, or () for an atom.
    Each compound the code binds or builds, each fresh variable and each
    number a guard gives a slot is written slot by slot, as the WAM's put
    instructions write a structure's cells onto the heap: `new` (that is
    object.__new__) and one store per slot that Compound(name, args),
    RuntimeVar(name, vid), Int(v) or Float(v) sets, with no __init__ frame,
    which costs more than the object. nrev of 200 took about 31 ms
    in-process so, against 36 ms with constructor calls and the longer call
    path before it (best of 15, Python 3.11, 2-vCPU host).
    Recursion is bounded by _CODE_DEPTH."""
    guards, n_constants, trees = shape[1], shape[2], shape[3:]
    end = len(trees) - len(guards)  # the guards close the body in reverse
    head, body = trees[:shape[0]], trees[shape[0]:end]
    lines: list[str] = []
    defined: set[int] = set()
    # a slot's value once a guard has evaluated it: no binding a guard makes
    # can change it, as every variable it passed through is bound
    evaluated: dict[int, str] = {}
    needs: set[str] = set()  # the solver's attributes the code reads
    locals_made = itertools.count()
    functions: list[Callable] = []  # the evaluable functions, as F0, F1, ...

    def emit(indent: int, line: str):
        lines.append("    " * indent + line)

    def deref(x: str, indent: int):
        emit(indent, f"while type({x}) is RV:")
        emit(indent + 1, f"b = {x}.ref")
        emit(indent + 1, "if b is None:")
        emit(indent + 2, "break")
        emit(indent + 1, f"{x} = b")

    def new(x: str, cls: str, slots, indent: int):
        """Make `x` a new `cls` holding `slots`, (slot, value) pairs: what
        its constructor sets, with no __init__ frame."""
        emit(indent, f"{x} = new({cls})")
        for slot, value in slots:
            emit(indent, f"{x}.{slot} = {value}")

    def fresh(tree, indent: int):
        """Make the variables of the slots first met building `tree`, in
        the order Solver._build makes them."""
        todo = [tree]
        while todo:
            for arg in todo.pop()[2]:
                if arg[0] == "slot" and arg[1] not in defined:
                    defined.add(arg[1])
                    needs.add("vid")
                    new(f"s{arg[1]}", "RV", (("name", f"K[{n_constants + arg[1]}]"),
                                             ("vid", "vid()"), ("ref", "None")), indent)
                elif arg[0] == "compound":
                    todo.append(arg)

    def term(tree, indent: int) -> str:
        """An expression for `tree`, after the statements that build its
        compounds, innermost first."""
        if tree[0] == "slot":
            return f"s{tree[1]}"
        if tree[0] == "constant":
            return f"K[{tree[2]}]"
        args = ", ".join([term(arg, indent) for arg in tree[2]])
        x = f"x{next(locals_made)}"
        new(x, "Compound", (*_NO_SOURCE, ("functor_start", "0"), ("functor_end", "0"),
                            ("name", f"K[{tree[1]}]"), ("args", f"[{args}]")), indent)
        return x

    def number(x: str, value: str, indent: int):
        """Make `x` the Int or Float of the number `value`."""
        new(x, f"Int if type({value}) is int else Float",
            (*_NO_SOURCE, ("value", value)), indent)

    def bind(x: str, value: str, indent: int):
        needs.update(("boundary", "trail"))
        emit(indent, f"{x}.ref = {value}")
        emit(indent, f"if {x}.vid < boundary:")
        emit(indent + 1, f"trail.append({x})")

    def match(tree, x: str, indent: int):
        deref(x, indent)
        if tree[0] == "slot":
            if tree[1] in defined:
                needs.add("unify")
                emit(indent, f"if not unify(s{tree[1]}, {x}):")
                emit(indent + 1, "return None")
            else:
                defined.add(tree[1])
                emit(indent, f"s{tree[1]} = {x}")
            return
        emit(indent, f"if type({x}) is RV:")
        if tree[0] == "constant":
            bind(x, f"K[{tree[2]}]", indent + 1)
            if tree[1] == "g":
                needs.add("unify")
            emit(indent, f"elif {_MISMATCH[tree[1]].format(x=x, k=tree[2])}:")
            emit(indent + 1, "return None")
            return
        before = set(defined)
        fresh(tree, indent + 1)
        bind(x, term(tree, indent + 1), indent + 1)
        defined.intersection_update(before)
        arguments = tree[2]
        emit(indent, f"elif (isinstance({x}, Compound) and {x}.name == K[{tree[1]}]"
                     f" and len({x}.args) == {len(arguments)}):")
        xs = [f"x{next(locals_made)}" for _ in arguments]
        emit(indent + 1, f"{', '.join(xs)}, = {x}.args")
        for argument, sub in zip(arguments, xs):
            match(argument, sub, indent + 1)
        emit(indent, "else:")
        emit(indent + 1, "return None")

    def value(tree, names) -> str:
        """An expression for the value of an evaluated side; each step that
        may raise is a statement of its own, in eval_arith's order."""
        if tree[0] == "constant":
            if tree[1] == "i":
                return f"K[{tree[2]}].value"
            x = f"x{next(locals_made)}"
            needs.add("eval_arith")
            emit(2, f"{x} = eval_arith(K[{tree[2]}])")
            return x
        if tree[0] == "slot":
            x = evaluated.get(tree[1])
            if x is None:
                x = evaluated[tree[1]] = f"x{next(locals_made)}"
                needs.add("eval_arith")
                emit(2, f"{x} = s{tree[1]}")
                deref(x, 2)
                emit(2, f"{x} = {x}.value if type({x}) is Int else eval_arith(s{tree[1]})")
            return x
        operands = [value(arg, names) for arg in tree[2]]
        functions.append(_EVALUABLE[next(names), len(operands)])
        x = f"x{next(locals_made)}"
        emit(2, f"{x} = F{len(functions) - 1}({', '.join(operands)})")
        emit(2, f"if type({x}) is float and {x} - {x}:")  # inf or nan
        emit(3, f"raise evaluation_error({x})")
        return x

    if head:
        emit(1, f"{', '.join(f'a{i}' for i in range(len(head)))}, = args")
    for i, tree in enumerate(head):
        match(tree, f"a{i}", 1)
    if guards:
        emit(1, "try:")
        for tree, (name, *names) in zip(reversed(trees[end:]), guards):
            left, right = tree[2][2]  # a guard is a call of a compound
            names = iter(names)
            if name != "is":
                left = value(left, names)
                right = value(right, names)
                emit(2, f"if not {left} {_COMPARISONS[name][0]} {right}:")
                emit(3, "return False")
                continue
            result = value(right, names)
            if left[0] == "slot" and left[1] not in defined:
                defined.add(left[1])
                evaluated[left[1]] = result
                number(f"s{left[1]}", result, 2)
            else:
                if left[0] == "compound":
                    fresh(left, 2)
                left = term(left, 2)
                x = f"x{next(locals_made)}"
                number(x, result, 2)
                needs.add("unify")
                emit(2, f"if not unify({left}, {x}):")
                emit(3, "return False")
        emit(1, "except ArithmeticError as error:")
        emit(2, "raise evaluation_error(error) from None")
    goals = []
    for tree in body:
        if tree[0] != "call":
            if tree[0] == "compound":
                fresh(tree, 1)
            goals.append(term(tree, 1))
            continue
        _, callee, goal = tree
        if goal[0] == "compound":
            fresh(goal, 1)
            args = f"({''.join(term(arg, 1) + ', ' for arg in goal[2])})"
        else:
            args = "()" if goal[1] == "a" else f"K[{goal[2]}].args"
        goals.append(f"(K[{callee}], {args})")
    emit(1, f"return ({', '.join(goals)},)" if goals else "return ()")
    prologue = [f"    {name} = solver.{attribute}" for name, attribute in (
        ("boundary", "_boundary"), ("trail", "trail"), ("unify", "unify"),
        ("vid", "_vid"), ("eval_arith", "eval_arith")) if name in needs]
    namespace = {**_CODE_GLOBALS,
                 **{f"F{i}": function for i, function in enumerate(functions)}}
    exec(compile("\n".join(["def code(solver, args, K):", *prologue, *lines]),
                 "<clause code>", "exec"), namespace)
    return namespace["code"]


def _walk_clause(solver, args, clause: tuple):
    """The code of a clause past the size bound: walk its templates, `clause`
    being (head templates, body templates, variable names)."""
    head, body, names = clause
    slots = [None] * len(names)
    if not solver._match(head, args, slots, names):
        return None
    return [solver._build(template, slots, names) for template in body]


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
# each arithmetic comparison: the Python operator clause code writes, and
# the function its builtin applies
_COMPARISONS = {
    "=:=": ("==", operator.eq),
    "=\\=": ("!=", operator.ne),
    "<": ("<", operator.lt),
    ">": (">", operator.gt),
    "=<": ("<=", operator.le),
    ">=": (">=", operator.ge),
}


def _evaluation_error(cause) -> PrologError:
    """ISO evaluation_error (ISO/IEC 13211-1 §9.1.4) for a Python arithmetic
    exception, or for a float result that is infinite or not a number."""
    if isinstance(cause, ZeroDivisionError):
        return PrologError("evaluation_error", "zero divisor")
    if cause != cause:  # not a number
        return PrologError("evaluation_error", "undefined")
    return PrologError("evaluation_error", "float overflow")


# the globals of every clause's code, besides its evaluable functions
_CODE_GLOBALS = {"RV": RuntimeVar, "Compound": Compound, "Atom": Atom, "Int": Int,
                 "Float": Float, "new": object.__new__,
                 "evaluation_error": _evaluation_error}


class Solver:
    """Runs goals against a database. `inferences` counts the calls of user
    or prelude predicates, `backtracks` the choicepoints popped, and
    `deepest` the largest depth a goal reached (see SolveLimits); they add
    up over every solve() of the solver."""

    __slots__ = ("db", "limits", "_vid", "trail", "choicepoints", "_boundary",
                 "inferences", "backtracks", "deepest")

    def __init__(self, db: Database, limits: Optional[SolveLimits] = None):
        self.db = db
        self.limits = limits or SolveLimits()
        self._vid = itertools.count(1_000_000).__next__  # the next vid
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
        boundary = self._boundary = self._vid()
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
                        value = function(values[-1], b)
                    else:
                        value = function(values[-1])
                except ArithmeticError as error:
                    raise _evaluation_error(error) from None
                if type(value) is float and value - value:  # inf or nan
                    raise _evaluation_error(value)
                values[-1] = value
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
                raise errors.type_error(
                    f"not an arithmetic expression: {self._shown(t)}")
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
                runtime = fresh[var.vid] = RuntimeVar(var.name, self._vid())
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
        variables. A frame's goal is a (callee, arguments) pair made by
        clause code, or a term: the query, an argument of a control
        construct or call/1, or a goal of the walker. A term is turned into
        the same pair through BUILTIN_INDICATORS, its callee being a native
        function or, for a user or prelude predicate, its key; a control
        construct goes to _control instead. Then one block runs every call.
        A user call with one candidate clause runs that clause's code here,
        as the WAM runs a call with no try/retry/trust: it pushes no
        choicepoint and draws no boundary, and a head that fails is undone
        and counts no backtrack. Two or more candidates go to
        _try_clauses."""
        trail, cps = self.trail, self.choicepoints
        max_depth = self.limits.max_depth
        # read once per run, not once per class: a tracer may wrap the method
        # between runs
        solve_user = self._solve_user
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
            if type(goal) is tuple:
                callee, args = goal
            else:
                if type(goal) is RuntimeVar:
                    # A variable goal runs as call/1, one level deeper: every
                    # cyclic goal passes through one, so its depth is bounded
                    # too.
                    goal = self.walk(goal)
                    self._check_callable(goal)
                    cut = len(cps)
                    depth += 1
                    if depth > max_depth:
                        raise errors.resource_error("depth limit exceeded")
                    if depth > self.deepest:
                        self.deepest = depth
                if isinstance(goal, Compound):
                    name = goal.name
                    args = goal.args
                    key = name, len(args)
                elif isinstance(goal, Atom):
                    name = goal.name
                    args = ()
                    key = name, 0
                elif isinstance(goal, Var):
                    raise errors.instantiation_error("unbound goal")
                else:
                    raise errors.type_error("goal must be callable")
                callee = BUILTIN_INDICATORS.get(key)
                if callee is None or callee.__class__ is PredicateEntry:
                    callee = key
                elif callee is Solver._control:
                    frame = self._control(name, goal, nxt, depth, cut, home)
                    continue
            if callee.__class__ is tuple:
                if depth >= max_depth:
                    raise errors.resource_error("depth limit exceeded")
                depth += 1
                if depth > self.deepest:
                    self.deepest = depth
                self.inferences += 1
                home, clauses = solve_user(callee, args, home)
                if len(clauses) != 1:
                    frame = self._try_clauses(args, nxt, depth, home, clauses, 0)
                    continue
                _, code, constants = clauses[0]
                mark = len(trail)
                goals = code(self, args, constants)
                if goals is None or goals is False:
                    self.undo(mark)
                    frame = None
                    continue
                barrier = len(cps)
                frame = nxt
                for built in goals:
                    frame = (built, frame, depth, barrier, home)
            elif callee(self, args):
                frame = nxt
            else:
                frame = None

    def _solve_user(self, key: tuple[str, int], args,
                    home: Database) -> tuple[Database, list]:
        """One call of a user or prelude predicate: the database it is
        defined in and the clauses to try, narrowed by the index on the
        call's leftmost bound argument. The caller's home database is
        searched first, then the prelude, so a program's own append/3 wins
        in the program, and the prelude's in the prelude; the name is looked
        up on every call, so a predicate defined after a clause was compiled
        is seen by its next call. Called once per call; backtracking into
        another clause does not call it again. With first-argument indexing
        most calls get one clause, which _run then runs itself."""
        entry = home.lookup(key)
        if entry is None and home is not _PRELUDE:
            home = _PRELUDE
            entry = home.lookup(key)
        if entry is None:
            raise errors.existence_error(
                f"unknown predicate {indicator_text(*key)}")
        compiled = entry.compiled
        if compiled is None:
            if entry.dcg:
                # a DCG rule is stored untranslated: its body is no goal
                raise errors.existence_error(
                    f"unknown predicate {indicator_text(*entry.indicator)}")
            compiled = entry.compiled = _Compiled(entry)
        position = 0
        for arg in args:
            while type(arg) is RuntimeVar:
                bound = arg.ref
                if bound is None:
                    break
                arg = bound
            else:  # bound: index the call on this argument
                index, unkeyed = (compiled.indexes.get(position)
                                  or compiled.index(position))
                kind = type(arg)
                if kind is Compound:
                    arg_key = arg.name, len(arg.args)
                elif kind is Atom:
                    arg_key = arg.name
                else:
                    arg_key = _index_key(arg)
                return home, index.get(arg_key, unkeyed)
            position += 1
        return home, compiled.clauses

    def _try_clauses(self, args, nxt, depth: int, home: Database,
                     clauses, start: int):
        """Resolve a call with arguments `args` by the first of
        clauses[start:] whose head unifies: its body frames, pushed in front
        of `nxt`, or None when no head unifies. A choicepoint records the
        arguments and any clauses left. A call with one candidate clause
        never comes here: _run runs it."""
        trail, cps = self.trail, self.choicepoints
        barrier = len(cps)
        last = len(clauses) - 1
        for i in range(start, last + 1):
            _, code, constants = clauses[i]
            if i < last:
                # The choicepoint for the clauses left comes before the head
                # match, as the WAM's try_me_else: a head that binds a
                # variable and then fails must be undone.
                boundary = self._new_boundary()
            elif i > start:
                self._restore_boundary()
            mark = len(trail)
            goals = code(self, args, constants)
            if goals is not None and goals is not False:
                if i < last:
                    cps.append((mark, boundary, args, nxt, depth, home, clauses,
                                i + 1))
                frame = nxt
                for built in goals:
                    frame = (built, frame, depth, barrier, home)
                return frame
            if goals is False and i < last:
                # A guard failed: count the backtrack to the clauses left
                # that running it as a goal makes.
                self.backtracks += 1
            self.undo(mark)
        return None

    def _match(self, head: tuple, args, slots: list, names: tuple) -> bool:
        """Unify the head argument templates of a clause past the size bound
        with a call's arguments, left to right. A slot takes the call's term
        at its first occurrence; no head term is built unless it meets an
        unbound variable. Explicit stack of argument-pair iterators."""
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
        """Instantiate a compound or atomic template of a clause past the
        size bound, never a bare slot: a slot in it becomes its term, or a
        fresh variable at its first occurrence. Explicit stack."""
        if type(template) is not tuple:
            return template
        vid = self._vid
        root = Compound(template[0], list(template[1]))
        todo = [root.args]
        while todo:
            args = todo.pop()
            for i, t in enumerate(args):
                kind = type(t)
                if kind is int:
                    term = slots[t]
                    if term is None:
                        term = slots[t] = RuntimeVar(names[t], vid())
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
            _, _, args, nxt, depth, home, clauses, start = choice
            frame = self._try_clauses(args, nxt, depth, home, clauses, start)
            if frame is not None:
                return frame
        return None

    def _check_callable(self, goal: Term):
        """Raise ISO call/1's type_error(callable) when the ',', ';' and '->'
        skeleton of `goal` holds a term that is neither callable nor a
        variable (ISO/IEC 13211-1 §7.8.3.4), before any of it runs. Explicit
        stack; a skeleton node met again is skipped."""
        todo = [goal]
        seen: Optional[set] = None
        while todo:
            g = self.walk(todo.pop())
            if isinstance(g, Compound):
                if g.name in _SKELETON and len(g.args) == 2:
                    if seen is None:
                        seen = set()
                    if id(g) not in seen:
                        seen.add(id(g))
                        todo.extend(g.args)
            elif not isinstance(g, (Atom, Var)):
                raise errors.type_error(
                    f"goal must be callable: {self._shown(goal)}")

    def _shown(self, term: Term) -> str:
        """`term` printed with its bindings; a cyclic one shows its
        variables unresolved."""
        try:
            term = self.resolve_out(term)
        except _Cyclic:
            pass
        return pretty_print(term)

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
            if type(args[0]) is not RuntimeVar:  # else checked as it runs
                self._check_callable(args[0])
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

    # built-ins: each takes the call's arguments and returns whether it
    # succeeded; its bindings are trailed

    def _bi_true(self, args):
        return True

    def _bi_fail(self, args):
        return False

    def _bi_unify(self, args):
        return self.unify(args[0], args[1])

    def _bi_not_unify(self, args):
        return not self._unify_and_undo(args[0], args[1])[0]

    def _bi_is(self, args):
        value = self.to_number(self.eval_arith(args[1]))
        return self.unify(args[0], value)

    def _syntactic_eq(self, a: Term, b: Term) -> bool:
        """Whether `a` and `b` are identical under the bindings: they unify
        without binding anything."""
        unifies, binds = self._unify_and_undo(a, b)
        return unifies and not binds

    def _bi_struct_eq(self, args):
        return self._syntactic_eq(args[0], args[1])

    def _bi_struct_neq(self, args):
        return not self._syntactic_eq(args[0], args[1])

    def _bi_functor(self, args):
        t = self.walk(args[0])
        if isinstance(t, Var):
            name_t = self.walk(args[1])
            arity_t = self.walk(args[2])
            if isinstance(name_t, Var) or isinstance(arity_t, Var):
                raise errors.instantiation_error("functor/3: underinstantiated")
            if not isinstance(arity_t, Int) or arity_t.value < 0:
                raise errors.type_error("functor/3: bad arity")
            if arity_t.value > MAX_ARITY:
                raise errors.representation_error(
                    f"functor/3: arity over max_arity {MAX_ARITY}")
            if arity_t.value == 0:
                return self.unify(t, name_t)
            if not isinstance(name_t, Atom):
                raise errors.type_error("functor/3: functor must be an atom")
            return self.unify(t, Compound(
                name_t.name,
                [RuntimeVar("_", self._vid()) for _ in range(arity_t.value)],
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
        return self.unify(args[1], name_term) \
            and self.unify(args[2], Int(arity))

    def _bi_arg(self, args):
        n = self.walk(args[0])
        t = self.walk(args[1])
        if isinstance(n, Var) or isinstance(t, Var):
            raise errors.instantiation_error("arg/3: underinstantiated")
        if not isinstance(n, Int) or not isinstance(t, Compound):
            raise errors.type_error("arg/3: bad arguments")
        return 1 <= n.value <= t.arity \
            and self.unify(args[2], t.args[n.value - 1])

    def _bi_univ(self, args):
        from .terms import make_list

        t = self.walk(args[0])
        if not isinstance(t, Var):
            if isinstance(t, Compound):
                items: list[Term] = [Atom(t.name)] + list(t.args)
            else:
                items = [t]
            return self.unify(args[1], make_list(items))
        spec = self.walk(args[1])
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
        if len(elems) > MAX_ARITY + 1:
            raise errors.representation_error(
                f"=../2: arity over max_arity {MAX_ARITY}")
        if len(elems) == 1:
            built = elems[0]
        else:
            head = elems[0]
            if not isinstance(head, Atom):
                raise errors.type_error("=../2: functor must be an atom")
            built = Compound(head.name, elems[1:])
        return self.unify(t, built)


def _arith_compare(op):
    def compare(solver: Solver, args):
        return op(solver.eval_arith(args[0]), solver.eval_arith(args[1]))
    return compare


def _type_test(test):
    def check(solver: Solver, args):
        return test(solver.walk(args[0]))
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
    **{(name, 2): _arith_compare(op) for name, (_, op) in _COMPARISONS.items()},
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
        end = reader.consumed_end
        buffer = buffer[end:]
        # a later sentence's lexical errors are printed with that sentence
        for diag in [d for d in lex_diags if d.span.start_offset < end] + reader.diagnostics:
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
                        buffer += cont  # typed after the rest of the buffer
                    break
            else:
                out.write("false\n")
        except PrologError as err:
            out.write(f"error: {err.kind}: {err.message}\n")
