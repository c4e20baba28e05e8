"""Project-level analysis: per-file indexing, cross-file linking, and the
IDE queries (outline, hover, completion, quick fixes) served from the
resulting immutable model."""

from __future__ import annotations

import contextlib
import gc
import glob as globmod
import os
from typing import Optional

from .catalog import load_default_catalog
from .database import (
    Database,
    PredicateEntry,
    PredicateIndicator,
)
from .diagnostics import Diagnostic, Severity, sort_key
from .engine import BUILTIN_INDICATORS, Loader, Solver, internal_error
from .lexer import ATOM_KINDS, atom_text, indicator_text, tokenize
from .printer import pretty_print
from .reader import Sentence
from .spans import LineIndex, SourceSpan
from .terms import Atom, Compound, OpApply, Term, indicator_of


class ProjectConfig:
    __slots__ = ("globs", "library_paths", "completion_cap", "doc_out")

    def __init__(self, globs: tuple[str, ...] = ("**/*.pl",),
                 library_paths: tuple[str, ...] = (), completion_cap: int = 50,
                 doc_out: str = "prologdoc"):
        if not globs:
            raise ValueError("at least one source glob is required")
        if completion_cap < 1:
            raise ValueError("completion cap must be >= 1")
        self.globs = globs
        self.library_paths = library_paths
        self.completion_cap = completion_cap
        self.doc_out = doc_out


class FileIndex:
    """One file's model: the loader's consult of it. Its database holds the
    module, the imports and the predicates, with the clauses of the files
    it includes; its diagnostics are phase I's. Link walks `sentences` for
    the file's singleton, discontiguous and call diagnostics."""

    __slots__ = ("file", "sentences", "db", "diagnostics")

    def __init__(self, file: str, sentences: list[Sentence], db: Database,
                 diagnostics: list[Diagnostic]):
        self.file = file
        self.sentences = sentences
        self.db = db
        self.diagnostics = diagnostics

    def definition(self, name: str, arity: int) -> Optional[PredicateEntry]:
        """The predicate name/arity when a clause defines it; else the DCG
        nonterminal name//arity, which is found by its written arity."""
        entry = self.db.predicates.get((name, arity))
        if entry is not None and entry.clauses:
            return entry
        entry = self.db.predicates.get((name, arity + 2))
        return entry if entry is not None and entry.dcg else None

    def first_clause(self, entry: PredicateEntry) -> Optional[Sentence]:
        """The first clause of `entry` in this file's own text, not in a
        file it includes. It reads each clause's line table, and builds no
        span."""
        file = self.file
        for clause in entry.clauses:
            lines = clause.lines
            if lines is not None and lines.file_id == file:
                return clause
        return None

    def unique_defs(self) -> list[PredicateEntry]:
        """The predicates with a clause in this file's own text, in the
        order of their first such clause."""
        firsts = []
        for entry in self.db.predicates.values():
            first = self.first_clause(entry)
            if first is not None:
                firsts.append((first.term.start, entry))
        firsts.sort(key=lambda pair: pair[0])
        return [entry for _, entry in firsts]


class GlobalIndex:
    __slots__ = ("files", "exporters", "visible", "libraries")

    def __init__(self, files: dict[str, FileIndex],
                 exporters: dict[tuple[str, int], list[str]],
                 visible: dict[str, dict[tuple[str, int], str]],
                 libraries: dict[str, FileIndex]):
        self.files = files
        # (name, arity) -> exporting file paths, sorted
        self.exporters = exporters
        # file -> the predicates its imports make visible, (name, arity) ->
        # exporting file; the first import wins
        self.visible = visible
        # import targets outside `files`, such as library files, by path;
        # check reports nothing about them
        self.libraries = libraries

    def lookup(self, path: str) -> Optional[FileIndex]:
        """The index of project file or import target `path`."""
        found = self.files.get(path)
        return found if found is not None else self.libraries.get(path)


class OutlineItem:
    __slots__ = ("kind", "label", "target_span", "children")

    def __init__(self, kind: str, label: str, target_span: SourceSpan,
                 children: Optional[list[OutlineItem]] = None):
        # ExportedPredicate | PrivatePredicate | DcgNonterminal |
        # ImportDirective | Module
        self.kind = kind
        self.label = label
        self.target_span = target_span
        self.children = [] if children is None else children


class HoverInfo:
    __slots__ = ("text", "span")

    def __init__(self, text: str, span: SourceSpan):
        self.text = text
        self.span = span


class CompletionItem:
    __slots__ = ("label", "kind", "synopsis", "insert_text")

    def __init__(self, label: str, kind: str, synopsis: str, insert_text: str):
        self.label = label
        self.kind = kind  # Predicate | Module | Dcg | Variable | Keyword
        self.synopsis = synopsis
        self.insert_text = insert_text


class QuickFix:
    __slots__ = ("title", "edits", "fixes_diagnostic", "base_digests")

    def __init__(self, title: str, edits: list[tuple[str, SourceSpan, str]],
                 fixes_diagnostic: tuple[str, SourceSpan],
                 base_digests: Optional[dict[str, str]] = None):
        self.title = title
        self.edits = edits  # (file, span, replacement)
        self.fixes_diagnostic = fixes_diagnostic
        # content digests of every touched file at fix creation time
        self.base_digests = {} if base_digests is None else base_digests


class ProjectModel:
    __slots__ = ("root", "config", "index", "diagnostics", "sources", "loader",
                 "_doc_texts")

    def __init__(self, root: str, config: ProjectConfig, index: GlobalIndex,
                 diagnostics: list[Diagnostic], sources: dict[str, str],
                 loader: Loader):
        self.root = root
        self.config = config
        self.index = index
        self.diagnostics = diagnostics
        self.sources = sources
        self.loader = loader
        # doc hover text by predicate (name, arity) or module (name, 0),
        # built on the first doc hover
        self._doc_texts: Optional[dict] = None

    def file_index(self, file: str) -> Optional[FileIndex]:
        return self.index.files.get(os.path.abspath(file))

    def doc_text(self, name: str, arity: int) -> Optional[str]:
        """The doc block text of predicate name/arity or, with arity 0, of
        module `name`; the first block in file order wins."""
        if self._doc_texts is None:
            from .docgen import project_docs

            self._doc_texts = {}
            for block in project_docs(self).blocks:
                key = block.target if block.target_kind == "predicate" \
                    else (block.target, 0)
                self._doc_texts.setdefault(
                    key, "\n".join(f"{tag} {body}" for tag, body in block.entries))
        return self._doc_texts.get((name, arity))


class StaleFixError(Exception):
    pass


# --- phase II -------------------------------------------------------------

# Goals whose arguments are goals in turn: the control constructs but cut
_TRANSPARENT = frozenset(indicator for indicator, native in BUILTIN_INDICATORS.items()
                         if native is Solver._control and indicator[1] > 0)
# DCG body items that are not nonterminal calls: terminal lists and cut
_DCG_NON_CALLS = {(".", 2), ("[]", 0), ("!", 0)}


def _walk_goals(body: Term, dcg: bool = False):
    """Yield the calls of `body` in source order as ((name, arity), goal),
    looking through control constructs, call/1 and, in a DCG body, {}/1. A
    nonterminal's key is its predicate's, which has two more arguments."""
    stack = [body]
    while stack:
        goal = stack.pop()
        ind = indicator_of(goal)
        if ind is None:
            continue  # a variable (meta-call), or a number or string terminal
        if ind in _TRANSPARENT:
            if type(goal) is OpApply:  # its arguments are slots: no list
                if goal.second is not None:
                    stack.append(goal.second)
                stack.append(goal.first)
            else:
                stack.extend(reversed(goal.args))
        elif dcg and ind == ("{}", 1):
            yield from _walk_goals(goal.args[0])  # plain goals: no deeper recursion
        elif not (dcg and ind in _DCG_NON_CALLS):
            yield ((ind[0], ind[1] + 2) if dcg else ind), goal


def index_file(sentences: list[Sentence], db: Database, file: str,
               tokens: object = None,
               phase1_diagnostics: list[Diagnostic] = ()) -> FileIndex:
    """Phase II: the one way to make a FileIndex, from one file's sentences
    consulted into `db` and its phase I diagnostics. Link gives the file's
    singleton, discontiguous and call diagnostics.

    `tokens` is unused, as the model keeps no tokens; it stays for callers
    that pass the phase I diagnostics positionally.
    """
    return FileIndex(file, sentences, db, list(phase1_diagnostics))


# --- phase III + IV -------------------------------------------------------


def _file_exports(index: FileIndex) -> set[tuple[str, int]]:
    if index.db.module is not None:
        return index.db.module.exports
    # A non-module "database" file exports every predicate it defines.
    return {ind for ind, entry in index.db.predicates.items() if entry.clauses}


def _link_file(index: FileIndex, indices: dict[str, FileIndex],
               exported_arities: dict[str, list[int]],
               outside: dict[str, FileIndex],
               loader: Loader,
               ) -> tuple[dict[tuple[str, int], str], list[Diagnostic]]:
    """Resolve one file's imports and calls: the predicates its imports
    make visible, each with its exporting file (the first import wins), and
    the file's diagnostics past phase I, its singleton and discontiguous
    warnings included. An undefined call's "did you mean" names the smallest
    other arity under its name that the file defines or sees, or that some
    file exports (`exported_arities`)."""
    diagnostics: list[Diagnostic] = []
    visible: dict[tuple[str, int], str] = {}
    for record in index.db.imports:
        path = record.resolved_file
        target_index = indices.get(path) if path else None
        if target_index is None and path:
            # a file outside `indices`, indexed once per link call and not
            # checked: its index is the loader's cached consult
            target_index = outside.get(path)
            if target_index is None:
                db, sentences, phase1 = loader.consult_file(path)
                target_index = outside[path] = index_file(
                    sentences, db, path, phase1_diagnostics=phase1)
        if target_index is None:
            diagnostics.append(
                Diagnostic(
                    Severity.WARNING,
                    "unresolved_import",
                    f"cannot resolve import {pretty_print(record.target)}",
                    record.span,
                )
            )
            continue
        # a target whose own text could not be read: a consult with no
        # sentence and an unreadable_file error
        unreadable = None if target_index.sentences else next(
            (d for d in target_index.diagnostics if d.code == "unreadable_file"), None)
        if unreadable is not None:
            # its exports are unknown, so what the import lists is visible;
            # check reports no file outside the project, so the import does
            if path not in indices:
                diagnostics.append(Diagnostic(Severity.ERROR, "unreadable_file",
                                              unreadable.message, record.span))
            for indicator in record.indicators or ():
                visible.setdefault(indicator, target_index.file)
            continue
        available = _file_exports(target_index)
        wanted = available if record.indicators is None else record.indicators
        for indicator in wanted:
            if indicator in available:
                visible.setdefault(indicator, target_index.file)
                continue
            diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    "not_exported",
                    f"{indicator_text(*indicator)} is not exported by "
                    f"{os.path.basename(target_index.file)}",
                    record.span,
                    data={
                        "name": indicator.name,
                        "arity": indicator.arity,
                        "exporter": target_index.file,
                    },
                )
            )

    # declared-but-undefined dynamic predicates are legitimate call targets
    local = {ind for ind, entry in index.db.predicates.items()
             if entry.clauses or "dynamic" in entry.properties}
    # name -> arities of local and visible, built at the first undefined call
    own_arities: Optional[dict[str, list[int]]] = None
    seen: set[PredicateIndicator] = set()
    prev_indicator: Optional[PredicateIndicator] = None
    for sentence in index.sentences:
        if sentence.kind == "directive":
            prev_indicator = None
            continue
        indicator = sentence.indicator
        if indicator is None:
            continue  # a head that is not callable
        # clause order interruption without a discontiguous declaration
        if indicator in seen and prev_indicator not in (None, indicator):
            entry = index.db.predicates[indicator]
            if "discontiguous" not in entry.properties:
                diagnostics.append(Diagnostic(
                    Severity.WARNING, "discontiguous_clauses",
                    f"clauses of {indicator_text(*indicator, entry.dcg)} are not together "
                    "(missing discontiguous declaration?)", sentence.span))
        seen.add(indicator)
        prev_indicator = indicator
        for var in sentence.singletons:
            if not var.name.startswith("_"):
                diagnostics.append(Diagnostic(Severity.WARNING, "singleton_variable",
                                              f"singleton variable {var.name}", var.span))
        if sentence.kind == "fact":
            continue
        for key, goal in _walk_goals(sentence.body, sentence.kind == "dcg_rule"):
            if key in local or key in BUILTIN_INDICATORS or key in visible:
                continue
            name, arity = key
            span = goal.span
            related = []
            if own_arities is None:
                own_arities = {}
                for known, other in (*local, *visible):
                    own_arities.setdefault(known, []).append(other)
            neighbors = [other for other in (*own_arities.get(name, ()),
                                             *exported_arities.get(name, ()))
                         if other != arity]
            if neighbors:
                related = [(span, f"did you mean {indicator_text(name, min(neighbors))}?")]
            diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    "undefined_predicate",
                    f"undefined predicate {indicator_text(name, arity)}",
                    span,
                    related=related,
                    data={"name": name, "arity": arity, "file": index.file},
                )
            )
    return visible, diagnostics


def link(indices: dict[str, FileIndex],
         loader: Loader) -> tuple[GlobalIndex, list[Diagnostic]]:
    """Phase III: resolve imports and calls across all file indices, in one
    walk over each file's sentences that also gives its singleton variable
    and discontiguous clause warnings. This is the one place imports are
    resolved: check reports what it finds, and completion offers the
    predicates it makes visible. An import target outside `indices` is
    indexed once per call from the loader's cached consult, which a finished
    load holds for every target, and kept in the result's `libraries`; no
    FileIndex is changed."""
    diagnostics: list[Diagnostic] = []
    exporters: dict[tuple[str, int], list[str]] = {}
    for path in sorted(indices):
        for key in sorted(_file_exports(indices[path])):
            exporters.setdefault(key, []).append(path)
    exported_arities: dict[str, list[int]] = {}
    for name, arity in exporters:
        exported_arities.setdefault(name, []).append(arity)

    visible: dict[str, dict[tuple[str, int], str]] = {}
    outside: dict[str, FileIndex] = {}
    for path in sorted(indices):
        try:
            visible[path], file_diags = _link_file(indices[path], indices,
                                                   exported_arities, outside, loader)
            diagnostics.extend(file_diags)
        except Exception as err:  # the per-file backstop, as in consult_file
            diagnostics.append(internal_error(path, err))
    return GlobalIndex(dict(indices), exporters, visible, outside), diagnostics


def discover_files(root: str, config: ProjectConfig) -> list[str]:
    found: set[str] = set()
    for pattern in config.globs:
        for path in globmod.glob(os.path.join(root, pattern), recursive=True):
            if os.path.isfile(path):
                found.add(os.path.abspath(path))
    return sorted(found)


@contextlib.contextmanager
def collector_paused():
    """Pause the cyclic garbage collector for the block, and restore the
    caller's setting after it. The block receives that setting: True when
    the collector was on.

    A built model holds no reference cycles, so reference counting frees
    it: a model built, used and dropped inside the block is never walked by
    the collector. Unlike `gc.freeze()`, the pause is undone when the block
    ends, so a model a library caller drops later is still freed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield enabled
    finally:
        if enabled:
            gc.enable()


def build_project(root: str, config: Optional[ProjectConfig] = None) -> ProjectModel:
    """Run phases I-IV over every file under `root` matching the config.
    The output is sorted, whatever order the files are read in.

    The build runs with the collector paused: it allocates several terms per
    token of source, all living as long as the model, and the collector
    would walk them again and again as the model grows. The model holds few
    objects beyond its terms: an operator term keeps its arguments in
    slots, a consulted sentence is itself the stored clause and builds its
    span only when asked, a build holds one indicator object per predicate
    name and arity, and a sentence with no comments holds the shared empty
    tuple. When the collector was on, one young collection before returning
    moves the new objects out of generation 0, so the collection the build
    deferred runs here and not at the caller's next allocation. A caller
    that pauses the collector itself, as the one-shot CLI commands do, skips
    that collection.
    """
    with collector_paused() as enabled:
        model = _build_project(root, config)
    if enabled:
        gc.collect(0)
    return model


def _build_project(root: str, config: Optional[ProjectConfig]) -> ProjectModel:
    config = config or ProjectConfig()
    if not os.path.isdir(root):
        raise FileNotFoundError(f"project root {root!r} is not a directory")
    loader = Loader(library_paths=tuple(
        os.path.join(root, p) if not os.path.isabs(p) else p
        for p in config.library_paths
    ))
    files = discover_files(root, config)
    indices: dict[str, FileIndex] = {}
    sources: dict[str, str] = {}
    for path in files:
        # the loader caches, so files pulled in early as import targets are
        # read, tokenized, and consulted exactly once
        db, sentences, phase1 = loader.consult_file(path)
        path = os.path.abspath(path)
        sources[path] = loader.source_of(path) or ""
        try:
            indices[path] = index_file(sentences, db, path,
                                       phase1_diagnostics=phase1)
        except Exception as err:  # the per-file backstop, as in consult_file
            # An index with the file's database and sentences, whose
            # calls link still checks.
            indices[path] = FileIndex(path, sentences, db,
                                      [*phase1, internal_error(path, err)])
    index, link_diags = link(indices, loader)
    # A file that others include is consulted once more for each includer,
    # which gives its phase I diagnostics again: each is reported once.
    unique = {(*sort_key(d), d.severity): d
              for fi in indices.values() for d in fi.diagnostics}
    diagnostics = sorted([*unique.values(), *link_diags], key=sort_key)
    return ProjectModel(
        root=os.path.abspath(root),
        config=config,
        index=index,
        diagnostics=diagnostics,
        sources=sources,
        loader=loader,
    )


# --- outline --------------------------------------------------------------


def outline(file: str, model: ProjectModel) -> list[OutlineItem]:
    index = model.file_index(file)
    if index is None:
        return []
    items: list[OutlineItem] = []
    module = index.db.module
    exports = module.exports if module is not None else set()
    if module is not None:
        for sentence in index.sentences:
            if sentence.kind == "directive":
                ind = indicator_of(sentence.goal)
                if ind == ("module", 2):
                    items.append(OutlineItem("Module", module.name,
                                             sentence.span))
                    break
    for record in index.db.imports:
        if record.span is not None:
            items.append(
                OutlineItem("ImportDirective", pretty_print(record.target),
                            record.span)
            )
    for entry in index.db.predicates.values():
        first = index.first_clause(entry)
        if first is None:
            continue  # defined only in an included file, or declared
        if entry.dcg:
            kind = "DcgNonterminal"
        elif entry.indicator in exports:
            kind = "ExportedPredicate"
        else:
            kind = "PrivatePredicate"
        items.append(OutlineItem(kind, entry.display_label, first.span))
    items.sort(key=lambda it: it.target_span.start_offset)
    return items


# --- hover ----------------------------------------------------------------


def _sentence_at(index: FileIndex, offset: int) -> Optional[Sentence]:
    """The sentence whose text covers `offset`, found by its offsets."""
    for sentence in index.sentences:
        if sentence.term.start <= offset < sentence.end:
            return sentence
    return None


def _term_at(term: Term, offset: int) -> Optional[Term]:
    """The innermost subterm of `term` whose text covers `offset`."""
    if not term.start <= offset < term.end:
        return None
    while isinstance(term, Compound):
        # an OpApply's arguments are slots: no list is built for them
        args = (term.first, term.second) if type(term) is OpApply else term.args
        for arg in args:
            if arg is not None and arg.start <= offset < arg.end:
                term = arg
                break
        else:
            break
    return term


def _atom_token_span(term: Term, offset: int) -> Optional[SourceSpan]:
    """The span of the token at `offset`, where `term` is the innermost term
    covering it, when that token is an atom; else None.

    A compound's functor offsets are its name token's, except that a list
    cell's run over its elements and ',', '|' and '{' functors are
    punctuation. An atom's offsets are its token's, except for '[]' and '{}'
    written with brackets and for an atom in parentheses: only that rare
    leaf is lexed again.
    """
    if isinstance(term, Compound):
        start, end = term.functor_start, term.functor_end
        if (not start <= offset < end
                or start <= term.args[0].start < end
                or term.lines.text[start] in ",|{"):
            return None
        return term.functor_span
    if not isinstance(term, Atom):
        return None
    start, text = term.start, term.lines.text
    if text[start] not in "([{]":
        return term.span
    for kind, _, tstart, tend, _ in tokenize(text[start:term.end])[0]:
        if tstart <= offset - start < tend:
            if kind not in ATOM_KINDS:
                return None
            return SourceSpan(term.lines, start + tstart, start + tend)
    return None


def hover(file: str, offset: int, mode: str,
          model: ProjectModel) -> Optional[HoverInfo]:
    """mode: 'definition' or 'doc'. Answers only on an atom token: a
    predicate name, an operator or a use_module target."""
    index = model.file_index(file)
    if index is None:
        return None
    sentence = _sentence_at(index, offset)
    if sentence is None:
        return None
    term = _term_at(sentence.term, offset)
    span = _atom_token_span(term, offset) if term is not None else None
    if span is None:
        return None

    # use_module target: show the export list of the imported file
    if sentence.kind == "directive":
        ind = indicator_of(sentence.goal)
        if ind is not None and ind[0] == "use_module":
            target = sentence.goal.args[0]
            if target.start <= offset < target.end:
                return _hover_import(target, index, model, span)

    name, arity = indicator_of(term)

    if mode == "doc":
        text = model.doc_text(name, arity)
        return HoverInfo(text, span) if text is not None else None

    # operator atom: render its definition(s)
    if isinstance(term, OpApply):
        d = term.op
        op_line = f"op({d.priority}, {d.fixity}, {atom_text(d.name)})"
        doc = _builtin_doc(name, arity)
        return HoverInfo(op_line if doc is None else doc + "\n" + op_line, span)
    defs = index.db.operators.defs(name)
    if defs and arity == 0:
        lines = [f"op({d.priority}, {d.fixity}, {atom_text(d.name)})"
                 for d in sorted(defs, key=lambda d: d.fixity)]
        return HoverInfo("\n".join(lines), span)

    entry = _find_def(name, arity, index, model)
    if entry is not None:
        first = entry.clauses[0]
        at = first.span
        return HoverInfo(f"{pretty_print(first.head)} defined at "
                         f"{os.path.basename(at.file_id)}:{at.start_line}", span)

    doc = _builtin_doc(name, arity)
    return HoverInfo(doc, span) if doc is not None else None


def _builtin_doc(name: str, arity: int) -> Optional[str]:
    entry = load_default_catalog().get((name, arity))
    if entry is None:
        return None
    return "\n".join([f"{indicator_text(name, arity)}: {entry.synopsis}", *entry.arguments])


def _hover_import(target: Term, index: FileIndex, model: ProjectModel,
                  span: SourceSpan) -> Optional[HoverInfo]:
    for record in index.db.imports:
        if record.target is not target:
            continue
        if record.resolved_file:
            target_index = model.index.lookup(record.resolved_file)
            if target_index is not None:
                exports = sorted(indicator_text(*ind) for ind in _file_exports(target_index))
                label = pretty_print(record.target)
                return HoverInfo(
                    f"{label} exports: " + (", ".join(exports) or "(nothing)"),
                    span,
                )
    return None


def _find_def(name: str, arity: int, index: FileIndex,
              model: ProjectModel) -> Optional[PredicateEntry]:
    indicator = PredicateIndicator(name, arity)
    paths = [index.file, *model.index.exporters.get(indicator, [])]
    origin = model.index.visible.get(index.file, {}).get(indicator)
    if origin is not None:  # also an import target outside the project
        paths.append(origin)
    for path in paths:
        other = model.index.lookup(path)
        entry = other.definition(name, arity) if other is not None else None
        if entry is not None:
            return entry
    return None


# --- completion -----------------------------------------------------------


def _prefix_at(source: str, offset: int) -> str:
    start = offset
    while start > 0 and (source[start - 1].isalnum() or source[start - 1] == "_"):
        start -= 1
    return source[start:offset]


def complete(file: str, offset: int, model: ProjectModel) -> list[CompletionItem]:
    index = model.file_index(file)
    if index is None:
        return []
    source = model.sources.get(index.file, "")
    prefix = _prefix_at(source, offset)
    items: list[tuple[tuple, CompletionItem]] = []

    def add(name: str, arity: Optional[int], kind: str, synopsis: str, locality: int,
            dcg: bool = False):
        """A candidate if `name` starts with `prefix`: labelled name/arity,
        or `name` alone where `arity` is None."""
        if not name.startswith(prefix):
            return
        rank = 0 if name == prefix else 1
        label = name if arity is None else indicator_text(name, arity, dcg)
        insert = name if kind == "Variable" else atom_text(name)
        items.append(((rank, locality, label),
                      CompletionItem(label, kind, synopsis, insert)))

    if prefix and (prefix[0].isupper() or prefix[0] == "_"):
        sentence = _sentence_at(index, offset)
        if sentence is not None:
            for var in sentence.variables:
                add(var.name, None, "Variable", "clause variable", 0)
    else:
        sentence = _sentence_at(index, offset)
        in_import = (
            sentence is not None
            and sentence.kind == "directive"
            and (indicator_of(sentence.goal) or ("",))[0] == "use_module"
        )
        if in_import:
            for path in sorted(model.index.files):
                module = model.index.files[path].db.module
                if module is not None:
                    add(module.name, None, "Module",
                        f"module in {os.path.basename(path)}", 1)
        for entry in index.db.predicates.values():
            if entry.clauses:
                add(*entry.indicator, "Dcg" if entry.dcg else "Predicate",
                    pretty_print(entry.clauses[0].head), 0, entry.dcg)
        visible = model.index.visible.get(index.file, {})
        for (name, arity), origin in sorted(visible.items()):
            other = model.index.lookup(origin)
            found = other.definition(name, arity) if other is not None else None
            synopsis = (pretty_print(found.clauses[0].head) if found is not None
                        else f"{indicator_text(name, arity)} from {os.path.basename(origin)}")
            add(name, arity, "Predicate", synopsis, 1)
        catalog = load_default_catalog()
        for name, arity in BUILTIN_INDICATORS:
            add(name, arity, "Keyword", catalog[name, arity].synopsis, 2)

    items.sort(key=lambda pair: pair[0])
    return [item for _, item in items[: model.config.completion_cap]]


# --- quick fixes ----------------------------------------------------------


def _digest(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _directive_insert_offset(index: FileIndex) -> int:
    offset = 0
    for sentence in index.sentences:
        if sentence.kind == "directive":
            offset = sentence.end
        else:
            break
    return offset


def quick_fixes(diagnostic: Diagnostic, model: ProjectModel) -> list[QuickFix]:
    if diagnostic.code == "undefined_predicate" and diagnostic.data:
        return _fixes_undefined(diagnostic, model)
    if diagnostic.code == "not_exported" and diagnostic.data:
        return _fixes_not_exported(diagnostic, model)
    return []


def _point_span(file: str, offset: int, source: str) -> SourceSpan:
    return SourceSpan(LineIndex(file, source), offset, offset)


def _fixes_undefined(diagnostic: Diagnostic, model: ProjectModel) -> list[QuickFix]:
    name = diagnostic.data["name"]
    arity = diagnostic.data["arity"]
    file = diagnostic.data["file"]
    index = model.file_index(file)
    if index is None:
        return []
    source = model.sources.get(index.file, "")
    fixes: list[QuickFix] = []
    for exporter in model.index.exporters.get((name, arity), []):
        if exporter == index.file:
            continue
        rel = os.path.relpath(exporter, os.path.dirname(index.file))
        if rel.endswith(".pl"):
            rel = rel[:-3]
        target_atom = atom_text(rel.replace(os.sep, "/"))
        insert_at = _directive_insert_offset(index)
        directive = f":- use_module({target_atom}, [{indicator_text(name, arity)}]).\n"
        if insert_at > 0:
            directive = "\n" + directive
        span = _point_span(index.file, insert_at, source)
        fixes.append(
            QuickFix(
                title=f"Import {indicator_text(name, arity)} from "
                      f"{os.path.basename(exporter)}",
                edits=[(index.file, span, directive)],
                fixes_diagnostic=(diagnostic.code, diagnostic.span),
                base_digests={index.file: _digest(source)},
            )
        )
    fixes.sort(key=lambda f: f.title)
    return fixes


def _fixes_not_exported(diagnostic: Diagnostic, model: ProjectModel) -> list[QuickFix]:
    name = diagnostic.data["name"]
    arity = diagnostic.data["arity"]
    exporter = diagnostic.data["exporter"]
    target = model.index.files.get(os.path.abspath(exporter))
    if target is None or target.db.module is None:
        return []
    source = model.sources.get(target.file, "")
    for sentence in target.sentences:
        if sentence.kind != "directive":
            continue
        if (indicator_of(sentence.goal) or ("",))[0] != "module":
            continue
        exports_term = sentence.goal.args[1]
        span = exports_term.span
        old = source[span.start_offset:span.end_offset]
        extended = old.rstrip()
        if extended.endswith("]"):
            inner = extended[:-1].rstrip()
            sep = "" if inner.endswith("[") else ", "
            new_text = f"{inner}{sep}{indicator_text(name, arity)}]"
        else:
            return []
        return [
            QuickFix(
                title=f"Export {indicator_text(name, arity)} from "
                      f"{os.path.basename(exporter)}",
                edits=[(target.file, span, new_text)],
                fixes_diagnostic=(diagnostic.code, diagnostic.span),
                base_digests={target.file: _digest(source)},
            )
        ]
    return []


def apply_fix(fix: QuickFix, sources: dict[str, str]) -> dict[str, str]:
    """Apply a fix's edits; rejects the whole fix if any file changed."""
    for file, digest in fix.base_digests.items():
        current = sources.get(file)
        if current is None or _digest(current) != digest:
            raise StaleFixError(f"{file} changed since the fix was computed")
    updated = dict(sources)
    by_file: dict[str, list[tuple[SourceSpan, str]]] = {}
    for file, span, replacement in fix.edits:
        by_file.setdefault(file, []).append((span, replacement))
    for file, edits in by_file.items():
        text = updated[file]
        for span, replacement in sorted(edits, key=lambda e: -e[0].start_offset):
            text = text[: span.start_offset] + replacement + text[span.end_offset:]
        updated[file] = text
    return updated
