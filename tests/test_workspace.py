import gc
import os

import pytest
from test_acceptance import make_corpus

from plkit import workspace
from plkit.diagnostics import Severity
from plkit.lexer import ATOM_KINDS, Token, lossless
from plkit.spans import SourceSpan
from plkit.workspace import (
    ProjectConfig,
    StaleFixError,
    apply_fix,
    build_project,
    complete,
    hover,
    outline,
    quick_fixes,
)

B_SOURCE = """\
:- module(b, [f/1, h/2]).

% Author: Jan
% Description: Wraps g/1.
f(X) :- g(X).

g(1).

h(X, Y) :- f(X), f(Y).
"""

A_SOURCE = """\
:- module(a, [main/0]).
:- use_module(b, [f/1]).

main :- f(1).
"""


def build(project, files, **cfg):
    root = project(files)
    return build_project(root, ProjectConfig(**cfg) if cfg else None), root


def errors(model):
    return [d for d in model.diagnostics if d.severity == Severity.ERROR]


def by_code(model, code):
    return [d for d in model.diagnostics if d.code == code]


def fpath(root, name):
    return os.path.join(root, name)


def at(model, root, name, needle):
    file = fpath(root, name)
    return file, model.sources[file].index(needle)


# --- project building and linking -----------------------------------------


@pytest.mark.parametrize("enabled", [True, False])
def test_build_project_restores_gc_setting(project, enabled, monkeypatch):
    root = project({"a.pl": A_SOURCE, "b.pl": B_SOURCE})
    missing = os.path.join(root, "missing.pl")
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        build_project(root)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(workspace, "discover_files",
                            lambda root, config: [fpath(root, "a.pl"), missing])
        model = build_project(root)
        assert [d.code for d in model.diagnostics] == ["unreadable_file"]
        assert gc.isenabled() is enabled
        with pytest.raises(FileNotFoundError):
            build_project(missing)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_clean_project_has_no_diagnostics(project):
    model, _ = build(project, {"a.pl": A_SOURCE, "b.pl": B_SOURCE})
    assert model.diagnostics == []


def test_each_file_gets_isolated_database(project):
    model, root = build(project, {
        "one.pl": ":- op(650, xfx, ~~>).\na ~~> b.\n",
        "two.pl": "plain(fact).\n",
    })
    one = model.file_index(fpath(root, "one.pl"))
    two = model.file_index(fpath(root, "two.pl"))
    assert one.db.operators.infix("~~>") is not None
    assert two.db.operators.infix("~~>") is None


def test_undefined_predicate_error(project):
    model, root = build(project, {
        "a.pl": ":- module(a, [main/0]).\nmain :- missing(1).\n"})
    diags = by_code(model, "undefined_predicate")
    assert len(diags) == 1
    diag = diags[0]
    assert diag.severity == Severity.ERROR
    assert diag.data["name"] == "missing"
    assert diag.data["arity"] == 1


def test_did_you_mean_arity_neighbor(project):
    model, _ = build(project, {
        "a.pl": "p(1, 2).\nq :- p(1).\n"})
    diags = by_code(model, "undefined_predicate")
    assert len(diags) == 1
    assert any("p/2" in message for _, message in diags[0].related)


def test_import_makes_predicate_visible(project):
    model, _ = build(project, {"a.pl": A_SOURCE, "b.pl": B_SOURCE})
    assert by_code(model, "undefined_predicate") == []


def test_missing_import_is_undefined(project):
    source = A_SOURCE.replace(":- use_module(b, [f/1]).\n", "")
    model, _ = build(project, {"a.pl": source, "b.pl": B_SOURCE})
    assert len(by_code(model, "undefined_predicate")) == 1


def test_not_exported_error(project):
    source = A_SOURCE.replace("[f/1]", "[f/1, g/1]").replace(
        "main :- f(1).", "main :- f(1), g(1).")
    model, _ = build(project, {"a.pl": source, "b.pl": B_SOURCE})
    diags = by_code(model, "not_exported")
    assert len(diags) == 1
    assert diags[0].severity == Severity.ERROR
    assert "g/1" in diags[0].message


def test_unresolved_import_warning(project):
    model, _ = build(project, {
        "a.pl": ":- module(a, []).\n:- use_module(phantom).\n"})
    assert any(d.code == "unresolved_import" and d.severity == Severity.WARNING
               for d in model.diagnostics)


def test_builtins_are_never_undefined(project):
    model, _ = build(project, {
        "a.pl": "p(X) :- X = 1, X > 0, \\+ fail.\n"})
    assert by_code(model, "undefined_predicate") == []


def test_dynamic_predicates_are_never_undefined(project):
    model, _ = build(project, {
        "a.pl": ":- dynamic(counter/1).\nbump :- counter(_).\n"})
    assert by_code(model, "undefined_predicate") == []


def test_singleton_variable_warning(project):
    model, _ = build(project, {"a.pl": "p(X, Lonely) :- q(X).\nq(1).\n"})
    diags = by_code(model, "singleton_variable")
    assert len(diags) == 1
    assert "Lonely" in diags[0].message
    assert diags[0].severity == Severity.WARNING


def test_underscore_prefix_suppresses_singleton(project):
    model, _ = build(project, {"a.pl": "p(X, _Extra) :- q(X).\nq(1).\n"})
    assert by_code(model, "singleton_variable") == []


def test_singleton_read_twice_by_a_second_reading(project):
    # `- p X p -` is read with `-` as a prefix operator until the second
    # `p` clashes; `-` is then read as an atom and `p X p -` again, so X
    # occurs once in the term, though its token is read twice.
    model, root = build(project, {"a.pl": (":- op(200, xfy, p).\n"
                                           ":- op(200, fx, p).\n"
                                           "t(Y) :- Y = (- p X p -).\n")})
    assert [d.machine_line().split("\t")[1:] for d in model.diagnostics] == [
        ["3", "18", "3", "19", "warning", "singleton_variable", "singleton variable X"]]
    items = complete_at(model, root, "a.pl", "- p X")
    assert [(i.label, i.kind) for i in items] == [("X", "Variable")]


def test_discontiguous_clauses_warning(project):
    model, _ = build(project, {
        "a.pl": "p(1).\nq(1).\np(2).\n"})
    diags = by_code(model, "discontiguous_clauses")
    assert len(diags) == 1
    assert "p/1" in diags[0].message


def test_discontiguous_directive_suppresses_warning(project):
    model, _ = build(project, {
        "a.pl": ":- discontiguous(p/1).\np(1).\nq(1).\np(2).\n"})
    assert by_code(model, "discontiguous_clauses") == []


def test_dcg_rules_link_at_expanded_arity(project):
    model, _ = build(project, {
        "a.pl": "s --> np, vp.\nnp --> [dog].\nvp --> [barks].\n"})
    assert by_code(model, "undefined_predicate") == []


def test_included_predicates_are_defined_in_the_including_file(project):
    # parts/ is outside the glob, so only main.pl's database holds inc_p/1
    model, root = build(project, {
        "main.pl": ":- include('parts/inc').\nmain :- inc_p(1).\n",
        "parts/inc.pl": "inc_p(X) :- X > 0.\n"}, globs=("*.pl",))
    assert model.diagnostics == []
    file, offset = at(model, root, "main.pl", "inc_p(1)")
    assert "inc_p/1" in [c.label for c in complete(file, offset + 3, model)]
    info = hover(file, offset, "definition", model)
    assert info is not None and info.text == "inc_p(X) defined at inc.pl:1"
    # the outline lists only what the file's own text defines
    assert [i.label for i in outline(file, model)] == ["main/0"]


def test_no_import_fix_for_an_included_predicate(project):
    model, _ = build(project, {
        "main.pl": ":- include(inc).\nmain :- inc_p(1), o(2).\n",
        "inc.pl": "inc_p(X) :- X > 0.\n",
        "other.pl": ":- module(other, [o/1]).\no(_).\n"})
    assert [d.message for d in model.diagnostics] == ["undefined predicate o/1"]
    assert [fix.title for d in model.diagnostics
            for fix in quick_fixes(d, model)] == ["Import o/1 from other.pl"]


@pytest.mark.parametrize("files", [
    {"a.pl": ":- include(a).\np.\n"},
    {"a.pl": ":- include(b).\na.\n", "b.pl": ":- include(a).\nb.\n"},
], ids=["self", "pair"])
def test_an_include_cycle_is_a_diagnostic_on_the_directive(project, files):
    model, root = build(project, files)
    assert [d.code for d in model.diagnostics] == ["include_cycle"] * len(files)
    for d in model.diagnostics:
        # the span is the target of the file's own include directive
        source = model.sources[d.span.file_id]
        start = source.index(":- include(") + len(":- include(")
        assert (d.span.start_offset, d.span.end_offset) == (start, start + 1)
        assert d.severity == Severity.ERROR


def test_ensure_loaded_of_the_file_being_consulted_is_no_cycle(project):
    # re-entry is the cycle; ensure_loaded of a file being consulted is not
    model, _ = build(project, {"a.pl": ":- ensure_loaded(a).\np.\n"})
    assert model.diagnostics == []


@pytest.mark.parametrize("inside", [True, False])
def test_an_included_files_parse_error_is_reported_once(project, inside):
    # once when the included file is a project file too, and once, not
    # dropped, when it lies outside the project's glob
    model, root = build(project, {
        "main.pl": ":- include('parts/inc').\n",
        "other.pl": ":- include('parts/inc').\n",
        "parts/inc.pl": "p(X) :- X > .\n"},
        globs=("**/*.pl",) if inside else ("*.pl",))
    assert [(os.path.relpath(d.span.file_id, root), d.span.start_line,
             d.span.start_col, d.code) for d in model.diagnostics] == [
        (os.path.join("parts", "inc.pl"), 1, 13, "unexpected_token")]


def test_a_nonterminal_is_no_plain_predicate(project):
    model, root = build(project, {"a.pl": "g --> [a].\nx :- g.\n"})
    assert [d.message for d in by_code(model, "undefined_predicate")] == [
        "undefined predicate g/0"]
    # hover finds the nonterminal by its written arity, at its head too
    for needle in ("g -->", "g.\n"):
        file, offset = at(model, root, "a.pl", needle)
        info = hover(file, offset, "definition", model)
        assert info is not None and info.text == "g defined at a.pl:1"


def test_diagnostics_deterministic_under_file_order(project, monkeypatch):
    files = {"a.pl": A_SOURCE, "b.pl": B_SOURCE,
             "c.pl": "x :- ghost(1).\n"}
    root = project(files)
    paths = sorted(fpath(root, n) for n in files)
    monkeypatch.setattr(workspace, "discover_files", lambda root, config: paths)
    first = build_project(root)
    monkeypatch.setattr(workspace, "discover_files",
                        lambda root, config: list(reversed(paths)))
    second = build_project(root)
    assert ([d.machine_line() for d in first.diagnostics]
            == [d.machine_line() for d in second.diagnostics])


# --- outline --------------------------------------------------------------


def test_outline_shape_and_order(project):
    model, root = build(project, {"a.pl": A_SOURCE, "b.pl": B_SOURCE})
    items = outline(fpath(root, "b.pl"), model)
    assert [(i.kind, i.label) for i in items] == [
        ("Module", "b"),
        ("ExportedPredicate", "f/1"),
        ("PrivatePredicate", "g/1"),
        ("ExportedPredicate", "h/2"),
    ]
    offsets = [i.target_span.start_offset for i in items]
    assert offsets == sorted(offsets)


def test_outline_imports_and_dcg(project):
    model, root = build(project, {
        "a.pl": ":- use_module(other).\ngreeting --> [hi].\np(1).\n",
        "other.pl": "o(1).\n"})
    items = outline(fpath(root, "a.pl"), model)
    kinds = [i.kind for i in items]
    assert "ImportDirective" in kinds
    assert "DcgNonterminal" in kinds
    labels = [i.label for i in items]
    assert "greeting//0" in labels


# --- hover ----------------------------------------------------------------


def test_hover_user_predicate(project):
    model, root = build(project, {"a.pl": A_SOURCE, "b.pl": B_SOURCE})
    file, offset = at(model, root, "a.pl", "f(1)")
    info = hover(file, offset, "definition", model)
    assert info is not None
    assert "f(X)" in info.text
    assert "b.pl:5" in info.text


def test_hover_builtin_catalog(project):
    model, root = build(project, {"a.pl": "p(X) :- X = 1.\n"})
    file, offset = at(model, root, "a.pl", "=")
    info = hover(file, offset, "definition", model)
    assert info is not None
    assert "Unify" in info.text


def test_hover_operator(project):
    model, root = build(project, {
        "a.pl": ":- op(700, xfx, ===).\np :- q.\nq.\n"})
    file, offset = at(model, root, "a.pl", "===")
    info = hover(file, offset, "definition", model)
    assert info is not None
    assert "op(700, xfx, ===)" in info.text


def test_hover_import_target_lists_exports(project):
    model, root = build(project, {
        "a.pl": A_SOURCE + ":- use_module(c).\n", "b.pl": B_SOURCE,
        "c.pl": ":- module(c, [k/0]).\nk.\n"})
    file = fpath(root, "a.pl")
    for target, exports in (("b", "b exports: f/1, h/2"), ("c", "c exports: k/0")):
        offset = model.sources[file].index(f"use_module({target}") + len("use_module(")
        info = hover(file, offset, "definition", model)
        assert info is not None
        assert info.text == exports


def test_hover_doc_mode(project, monkeypatch):
    from plkit import docgen

    calls = []
    original = docgen.project_docs
    monkeypatch.setattr(docgen, "project_docs",
                        lambda model: calls.append(model) or original(model))
    model, root = build(project, {"a.pl": A_SOURCE, "b.pl": B_SOURCE})
    file, offset = at(model, root, "b.pl", "f(X)")
    for _ in range(2):
        info = hover(file, offset, "doc", model)
        assert info is not None
        assert "Jan" in info.text
        assert "Wraps g/1." in info.text
    # the doc blocks are extracted once per model
    assert len(calls) == 1


def test_hover_nothing_on_layout(project):
    model, root = build(project, {"a.pl": "p(1).\n"})
    file = fpath(root, "a.pl")
    assert hover(file, model.sources[file].index("("), "definition",
                 model) is None


HOVER_SOURCE = """\
:- use_module(library(x)).
:- use_module(b, [f/1]).
p((a), 'q a', [], [ ], {x}, [H|T], X) :- a , b, f(H), q(T, X).
q(- 1, -1) :- \\+ ( /* c */ [] ), {}, [ a | c ] = (([a|c])).
a.
b.
"""


def _hover_answers(model, file):
    """Hover at every offset of `file` in both modes, with a lex of the
    whole file as the oracle: an offset in a token that is not an atom, or
    past the last token, gets no answer, and an answer's span is the
    token's. Returns the number of answers."""
    source = model.sources[file]
    tokens, _ = lossless(source, file)
    answers = 0
    for token in [*tokens, None]:
        if token is None:
            offsets = [len(source)]
        else:
            offsets = range(token.span.start_offset, token.span.end_offset)
        for offset in offsets:
            for mode in ("definition", "doc"):
                info = hover(file, offset, mode, model)
                if token is None or token.kind not in ATOM_KINDS:
                    assert info is None, (offset, mode, info)
                elif info is not None:
                    got = (info.span.start_offset, info.span.end_offset)
                    assert got == (token.span.start_offset,
                                   token.span.end_offset), (offset, mode)
                    answers += 1
    return answers


def test_hover_differential_against_a_full_lex(tmp_path):
    corpus = str(tmp_path / "corpus")
    make_corpus(corpus, 6)
    model = build_project(corpus)
    counts = [_hover_answers(model, os.path.join(corpus, f"mod{i}.pl"))
              for i in range(6)]
    hand = tmp_path / "hand"
    hand.mkdir()
    (hand / "h.pl").write_text(HOVER_SOURCE, encoding="utf-8")
    (hand / "b.pl").write_text(B_SOURCE, encoding="utf-8")
    model = build_project(str(hand))
    counts.append(_hover_answers(model, str(hand / "h.pl")))
    # the answer counts hover gave when it looked tokens up in a kept list
    assert counts == [878, 889, 889, 893, 889, 889, 27]


def test_hover_none_on_a_variable_in_a_list(project):
    # '.'/2 is defined, and the list cell around a variable or a sign once
    # answered for it; a list cell's functor span is no token at all
    model, root = build(project, {"a.pl": "[a].\np([H|T], [-1]) :- q(H, T).\n"})
    file = fpath(root, "a.pl")
    source = model.sources[file]
    for needle, at_char in (("H|", 0), ("|T", 1), ("-1", 0), ("|T", 0), ("T]", 1)):
        offset = source.index(needle) + at_char
        for mode in ("definition", "doc"):
            assert hover(file, offset, mode, model) is None, needle
    assert model.file_index(file).db.lookup((".", 2)).clauses


def test_built_model_keeps_no_tokens(tmp_path):
    def live_tokens():
        return sum(1 for obj in gc.get_objects() if type(obj) is Token)

    make_corpus(str(tmp_path), 50)
    gc.collect()
    before = live_tokens()
    model = build_project(str(tmp_path))
    comments = sum(len(sentence.leading_comments)
                   for index in model.index.files.values()
                   for sentence in index.sentences)
    assert comments == 100
    assert live_tokens() - before <= comments


def test_built_model_is_acyclic(tmp_path):
    # Reference counting frees a dropped model whole, so the collector never
    # needs to walk one.
    make_corpus(str(tmp_path), 50)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        model = build_project(str(tmp_path))
        assert len(model.index.files) == 50
        del model
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_built_model_builds_spans_only_for_sentences_and_calls(tmp_path):
    def live_spans():
        return sum(1 for obj in gc.get_objects() if type(obj) is SourceSpan)

    make_corpus(str(tmp_path), 50)
    gc.collect()
    before = live_spans()
    model = build_project(str(tmp_path))
    files = model.index.files.values()
    sentences = sum(len(index.sentences) for index in files)
    calls = sum(len(index.calls) for index in files)
    assert sentences > 0 and calls > 0
    assert live_spans() - before <= sentences + calls


# --- completion -----------------------------------------------------------


def complete_at(model, root, name, needle):
    file = fpath(root, name)
    offset = model.sources[file].index(needle) + len(needle)
    return complete(file, offset, model)


def test_complete_local_before_imported_before_builtin(project):
    model, root = build(project, {
        "a.pl": (":- module(a, []).\n:- use_module(b, [f/1]).\n"
                 "fix_it :- f(1).\nfar(1).\n"),
        "b.pl": B_SOURCE})
    items = complete_at(model, root, "a.pl", "fix_it :- f")
    labels = [i.label for i in items]
    assert "f/1" in labels
    assert labels.index("fix_it/0") < labels.index("fail/0")
    assert labels.index("f/1") < labels.index("fail/0")


# Three project files that each import one module from a library directory
# outside the project's globs.
LIBRARY_PROJECT = {
    **{f"src/{name}.pl": f":- use_module(library(util)).\n{name} :- helper({name}).\n"
       for name in ("a", "b", "c")},
    "lib/util.pl": ":- module(util, [helper/1]).\nhelper(_).\n",
}
LIBRARY_CONFIG = {"globs": ("src/*.pl",), "library_paths": ("lib",)}


def test_complete_offers_library_imports(project):
    model, root = build(project, LIBRARY_PROJECT, **LIBRARY_CONFIG)
    assert not errors(model)  # check sees helper/1 as imported
    items = complete_at(model, root, "src/a.pl", "a :- he")
    assert [(i.label, i.kind, i.synopsis) for i in items] == [
        ("helper/1", "Predicate", "helper(_)")]


def test_hover_on_library_import(project):
    model, root = build(project, LIBRARY_PROJECT, **LIBRARY_CONFIG)
    util = fpath(root, "lib/util.pl")
    # the library file is indexed for the queries, not checked
    assert util in model.index.libraries and util not in model.index.files
    assert not model.diagnostics
    for needle, text in (("helper", "helper(_) defined at util.pl:2"),
                         ("util", "library(util) exports: helper/1")):
        file, offset = at(model, root, "src/a.pl", needle)
        info = hover(file, offset, "definition", model)
        assert info is not None and info.text == text, needle


def test_library_import_target_is_indexed_once(project, monkeypatch):
    files = []
    original = workspace.index_file

    def counted(sentences, db, file, *args, **kwargs):
        files.append(os.path.basename(file))
        return original(sentences, db, file, *args, **kwargs)

    monkeypatch.setattr(workspace, "index_file", counted)
    build(project, LIBRARY_PROJECT, **LIBRARY_CONFIG)
    assert sorted(files) == ["a.pl", "b.pl", "c.pl", "util.pl"]


def test_complete_builtin_member(project):
    model, root = build(project, {"a.pl": "p :- mem_x.\nmem_x.\n"})
    items = complete_at(model, root, "a.pl", "p :- mem")
    assert any(i.label == "member/2" for i in items)


def test_complete_matches_and_inserts_a_quoted_name_whole(project):
    model, root = build(project, {"a.pl": "p :- atom.\n'atom/x'(1).\n"})
    items = complete_at(model, root, "a.pl", "p :- atom")
    labels = [i.label for i in items]
    # the builtin atom/1 is the exact match; 'atom/x' only starts with atom
    assert labels.index("atom/1") < labels.index("atom/x/1")
    inserts = {i.label: i.insert_text for i in items}
    assert inserts["atom/x/1"] == "'atom/x'" and inserts["atom/1"] == "atom"


def test_complete_variable_prefix(project):
    model, root = build(project, {
        "a.pl": "p(Count, Counter) :- Count > 0, Co.\n"})
    items = complete_at(model, root, "a.pl", "Count > 0, Co")
    labels = [i.label for i in items]
    assert "Count" in labels and "Counter" in labels
    assert all(i.kind == "Variable" for i in items)


def test_completion_cap(project):
    root = project({"a.pl": "p :- q.\nq.\n"})
    model = build_project(root, ProjectConfig(completion_cap=3))
    file = fpath(root, "a.pl")
    offset = model.sources[file].index("p :- q") + len("p :- ")
    items = complete(file, offset + 1, model)
    assert len(items) <= 3


# --- quick fixes ----------------------------------------------------------


def test_fix_undefined_by_import(project):
    source = A_SOURCE.replace(":- use_module(b, [f/1]).\n", "")
    model, root = build(project, {"a.pl": source, "b.pl": B_SOURCE})
    diag = by_code(model, "undefined_predicate")[0]
    fixes = quick_fixes(diag, model)
    assert len(fixes) == 1
    assert "Import f/1" in fixes[0].title
    updated = apply_fix(fixes[0], model.sources)
    for file, content in updated.items():
        with open(file, "w", encoding="utf-8") as fh:
            fh.write(content)
    rebuilt = build_project(root)
    assert errors(rebuilt) == []


def test_fix_not_exported_by_extending_exports(project):
    source = A_SOURCE.replace("[f/1]", "[f/1, g/1]").replace(
        "main :- f(1).", "main :- f(1), g(1).")
    model, root = build(project, {"a.pl": source, "b.pl": B_SOURCE})
    diag = by_code(model, "not_exported")[0]
    fixes = quick_fixes(diag, model)
    assert fixes
    updated = apply_fix(fixes[0], model.sources)
    b_file = fpath(root, "b.pl")
    assert "g/1" in updated[b_file].splitlines()[0]
    for file, content in updated.items():
        with open(file, "w", encoding="utf-8") as fh:
            fh.write(content)
    rebuilt = build_project(root)
    assert errors(rebuilt) == []


def test_stale_fix_rejected(project):
    source = A_SOURCE.replace(":- use_module(b, [f/1]).\n", "")
    model, root = build(project, {"a.pl": source, "b.pl": B_SOURCE})
    diag = by_code(model, "undefined_predicate")[0]
    fix = quick_fixes(diag, model)[0]
    drifted = dict(model.sources)
    for file in list(drifted):
        drifted[file] = "% edited meanwhile\n" + drifted[file]
    with pytest.raises(StaleFixError):
        apply_fix(fix, drifted)


def test_apply_fix_does_not_mutate_input(project):
    source = A_SOURCE.replace(":- use_module(b, [f/1]).\n", "")
    model, _ = build(project, {"a.pl": source, "b.pl": B_SOURCE})
    diag = by_code(model, "undefined_predicate")[0]
    fix = quick_fixes(diag, model)[0]
    before = dict(model.sources)
    apply_fix(fix, model.sources)
    assert model.sources == before
