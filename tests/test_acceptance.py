"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Criterion 1 cross-checks the reader against an independently written
reference reader (tests/oracle_reader.py) since no external Prolog
system is available in the test environment; the oracle shares no code
with the package.
"""

import os
import random
import time

from conftest import read_term
from plkit import workspace
from plkit.cli import main
from plkit.database import Database
from plkit.diagnostics import Severity
from plkit.engine import Loader, consult_source, solve
from plkit.lexer import tokenize
from plkit.printer import pretty_print
from plkit.reader import Reader
from plkit.terms import Atom, Compound, Var, struct_eq
from plkit.workspace import build_project

from oracle_reader import oracle_read
from term_gen import TermGen, to_tuple, tt_apply, tt_unify, tt_variant


def parse_one(text, db=None):
    db = db or Database()
    tokens, lex_diags = tokenize(text + " .", "<t>")
    assert not lex_diags, text
    reader = Reader(text + " .", tokens, db, "<t>")
    sentence = reader.read_sentence()
    assert sentence is not None and not reader.diagnostics, text
    return sentence.term


def read_file_sentences(source, db=None):
    db = db or Database()
    return consult_source(source, db, Loader(), "<t>")


# --- 1: reader differential suite -----------------------------------------


def test_criterion_01_reader_differential():
    """>= 200 random terms (depth <= 5, default table), printed and read by
    both readers; 100% structural agreement; < 10 s."""
    db = Database()
    gen = TermGen(1)
    start = time.perf_counter()
    checked = 0
    for _ in range(400):
        gen.fresh_sentence()
        term = gen.term(5)
        text = pretty_print(term, db)
        ours = to_tuple(parse_one(text, db))
        reference = oracle_read(text)
        assert ours == reference, text
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 200
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


# --- 2: dynamic grammar ---------------------------------------------------


def test_criterion_02_dynamic_grammar():
    """':- op(700, xfx, ===). a === b.' parses; swapped order yields a
    syntax diagnostic on the '===' sentence."""
    source = ":- op(700, xfx, ===).\na === b.\n"
    sentences, diagnostics = read_file_sentences(source)
    assert not diagnostics
    # the second sentence is a headed sentence (a bodiless clause)
    assert [s.kind for s in sentences] == ["directive", "fact"]
    assert to_tuple(sentences[1].term) == (
        "compound", "===", [("atom", "a"), ("atom", "b")])

    swapped = "a === b.\n:- op(700, xfx, ===).\n"
    sentences, diagnostics = read_file_sentences(swapped)
    syntax = [d for d in diagnostics if d.severity == Severity.ERROR]
    assert len(syntax) == 1
    assert syntax[0].span.start_line == 1
    assert [s.kind for s in sentences] == ["directive"]


# --- 3: multi-error recovery ----------------------------------------------


def test_criterion_03_multi_error_recovery():
    """5 malformed clauses interleaved with 5 valid ones: >= 5 Error
    diagnostics and exactly 5 parsed sentences."""
    source = "\n".join([
        "good_one(a).",
        "bad_one(.",
        "good_two(b) :- good_one(a).",
        "bad_two( ] ).",
        "good_three(c).",
        "bad_three :- , x.",
        "good_four(d).",
        "bad_four(a))).",
        "good_five(e).",
        "bad_five(f) :- g(.",
        "",
    ])
    db = Database()
    sentences, diagnostics = consult_source(source, db, Loader(), "<t>")
    errors = [d for d in diagnostics if d.severity == Severity.ERROR]
    assert len(errors) >= 5
    assert len(sentences) == 5
    assert [s.head.name for s in sentences] == [
        "good_one", "good_two", "good_three", "good_four", "good_five"]


# --- 4: round-trip property ------------------------------------------------


def test_criterion_04_round_trip():
    """1000 generated terms satisfy parse(print(parse(print(t)))) fixpoint
    with zero failures."""
    db = Database()
    gen = TermGen(4)
    failures = 0
    for _ in range(1000):
        gen.fresh_sentence()
        term = gen.term(5)
        printed = pretty_print(term, db)
        reparsed = parse_one(printed, db)
        reprinted = pretty_print(reparsed, db)
        if not (struct_eq(reparsed, term) and reprinted == printed):
            failures += 1
    assert failures == 0


# --- 5: unification oracle -------------------------------------------------


def test_criterion_05_unification_oracle():
    """Exhaustive pairs over the bounded signature (depth <= 3, functors
    f/1 and g/2, vars X and Y): solve('T1 = T2') agrees with the
    brute-force unifier on every pair, and each success is an MGU."""
    x, y = Var("X", 1), Var("Y", 2)
    depth1 = [Atom("a"), x, y]

    def grow(terms):
        out = [Compound("f", [t]) for t in terms]
        for left in terms:
            for right in terms:
                out.append(Compound("g", [left, right]))
        return out

    depth2 = depth1 + grow(depth1)
    depth3 = depth1 + grow(depth2)
    assert len(depth3) == 243

    db = Database()
    tuples = [to_tuple(t) for t in depth3]
    for i, t1 in enumerate(depth3):
        for j, t2 in enumerate(depth3):
            goal = Compound("=", [t1, t2])
            results = list(solve(goal, db))
            oracle = tt_unify(tuples[i], tuples[j])
            assert (len(results) == 1) == (oracle is not None), (
                pretty_print(t1, db), pretty_print(t2, db))
            if oracle is None:
                continue
            binding = {name: to_tuple(value)
                       for name, value in results[0].items()}
            s1 = tt_apply(binding, tuples[i])
            s2 = tt_apply(binding, tuples[j])
            # substitution check: the binding actually unifies the pair
            assert s1 == s2, (pretty_print(t1, db), pretty_print(t2, db))
            # most-general check: instance is a variant of the oracle MGU's
            assert tt_variant(s1, tt_apply(oracle, tuples[i]))


# --- 6: cross-file analysis and quick fix ----------------------------------


def test_criterion_06_cross_file_quick_fix(project, capsys):
    """Two-file fixture: 0 errors with the import, exactly 1
    undefined_predicate without it, cmd_fix restores 0 errors."""
    with_import = {
        "main.pl": ":- use_module(lib, [f/1]).\nrun :- f(1).\n",
        "lib.pl": ":- module(lib, [f/1]).\nf(1).\n",
    }
    root = project(with_import)
    model = build_project(root)
    assert [d for d in model.diagnostics if d.severity == Severity.ERROR] == []

    with open(os.path.join(root, "main.pl"), "w", encoding="utf-8") as fh:
        fh.write("run :- f(1).\n")
    model = build_project(root)
    undefined = [d for d in model.diagnostics
                 if d.code == "undefined_predicate"]
    assert len(undefined) == 1

    code = main(["fix", root, "undefined_predicate", "--apply"])
    out = capsys.readouterr().out
    assert code == 0
    assert "errors: 1 -> 0" in out
    rebuilt = build_project(root)
    assert [d for d in rebuilt.diagnostics
            if d.severity == Severity.ERROR] == []


# --- 7: outline fixture -----------------------------------------------------


def test_criterion_07_outline(project):
    """Module m exporting f/1, defining f/1 and g/0, one DCG s//1, one
    use_module: exactly 5 items in source order with valid spans."""
    from plkit.workspace import outline

    files = {
        "m.pl": (":- module(m, [f/1]).\n"
                 ":- use_module(other).\n"
                 "f(X) :- g, s(X, _, _).\n"
                 "g.\n"
                 "s(word) --> [word].\n"),
        "other.pl": ":- module(other, []).\n",
    }
    root = project(files)
    model = build_project(root)
    items = outline(os.path.join(root, "m.pl"), model)
    assert [(i.kind, i.label) for i in items] == [
        ("Module", "m"),
        ("ImportDirective", "other"),
        ("ExportedPredicate", "f/1"),
        ("PrivatePredicate", "g/0"),
        ("DcgNonterminal", "s//1"),
    ]
    source = model.sources[os.path.join(root, "m.pl")]
    offsets = []
    for item in items:
        span = item.target_span
        assert 0 <= span.start_offset < span.end_offset <= len(source)
        assert span.start_line >= 1 and span.start_col >= 1
        offsets.append(span.start_offset)
    assert offsets == sorted(offsets)


# --- 8: documentation generation -------------------------------------------


DOC_FIXTURE = {
    "geometry.pl": (
        ":- module(geometry, [area/2]).\n"
        "\n"
        "% Author: Grace\n"
        "% Arguments: Shape the figure; Area its surface\n"
        "% Description: Relates a shape to its area.\n"
        "area(square(S), A) :- A is S * S.\n"
        "\n"
        "perimeter(square(S), P) :- P is 4 * S.\n"
    ),
    "client.pl": (
        ":- module(client, [demo/0]).\n"
        ":- use_module(geometry, [area/2]).\n"
        "demo :- area(square(2), _A).\n"
    ),
}


def test_criterion_08_prologdoc(project, tmp_path):
    """HTML output contains the three default tags verbatim, a predicate
    table covering every defined predicate, zero dangling intra-project
    links; two consecutive runs are byte-identical."""
    import re

    from plkit.docgen import generate_html, project_docs

    root = project(DOC_FIXTURE)
    model = build_project(root)
    out_dir = os.path.join(root, "prologdoc")
    written = generate_html(model, project_docs(model), out_dir)
    pages = {}
    for path in written:
        with open(path, encoding="utf-8") as fh:
            pages[os.path.basename(path)] = fh.read()

    geometry = pages["geometry.html"]
    for tag in ("Author:", "Arguments:", "Description:"):
        assert tag in geometry

    # table covers 100% of defined predicates
    for path, index in model.index.files.items():
        page = pages[os.path.basename(path)[:-3] + ".html"]
        for info in index.unique_defs():
            anchor = f"pred-{info.indicator.name}-{info.indicator.arity}"
            assert f'href="#{anchor}"' in page, info.display_label
            assert f'id="{anchor}"' in page

    # zero dangling links
    targets = set(pages)
    for name, content in pages.items():
        anchors = {m for m in re.findall(r'id="([^"]+)"', content)}
        for href in re.findall(r'href="([^"]+)"', content):
            if href.startswith("#"):
                assert href[1:] in anchors, (name, href)
            elif not href.startswith(("http:", "https:")):
                base = href.split("#")[0]
                assert base in targets or base == "style.css", (name, href)

    second = generate_html(model, project_docs(model), out_dir)
    assert second == written
    for path in written:
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == pages[os.path.basename(path)]


# --- 9 and 10: determinism and scale ---------------------------------------


def make_corpus(root, n_files):
    """Synthetic project: modules with imports, docs, DCGs, and a few
    deliberate diagnostics."""
    os.makedirs(root, exist_ok=True)
    for i in range(n_files):
        lines = [f":- module(mod{i}, [p{i}/1, q{i}/2]).\n"]
        if i > 0:
            lines.append(f":- use_module(mod{i - 1}, [p{i - 1}/1]).\n")
        lines.append("% Author: Corpus Generator\n")
        lines.append(f"% Description: Synthetic module number {i}.\n")
        lines.append(f"p{i}(0).\n")
        for k in range(1, 50):
            lines.append(f"p{i}({k}) :- p{i}({k - 1}).\n")
        for k in range(45):
            lines.append(f"q{i}(X, Y) :- Y is X + {k}, X > {k}.\n")
        lines.append(f"r{i} --> [tok{i}], r{i}.\n")
        lines.append(f"r{i} --> [].\n")
        lines.append(f"s{i}(X, Unused{i}) :- p{i}(X).\n")  # singleton
        if i % 7 == 3:
            lines.append(f"t{i} :- missing_target{i}(1).\n")  # undefined
        with open(os.path.join(root, f"mod{i}.pl"), "w",
                  encoding="utf-8") as fh:
            fh.write("".join(lines))


def check_output(root, capsys):
    code = main(["check", root, "--format=machine"])
    out = capsys.readouterr().out
    assert code == 1  # the corpus contains deliberate errors
    return out


def test_criterion_09_determinism(tmp_path, capsys, monkeypatch):
    """cmd_check output over a 20-file corpus is byte-identical across
    three runs and across shuffled discovery order."""
    root = str(tmp_path / "corpus20")
    make_corpus(root, 20)
    outputs = {check_output(root, capsys) for _ in range(3)}
    assert len(outputs) == 1
    baseline = outputs.pop()
    assert baseline.strip()

    paths = sorted(os.path.join(root, name) for name in os.listdir(root))
    rng = random.Random(9)
    for _ in range(3):
        shuffled = paths[:]
        rng.shuffle(shuffled)
        monkeypatch.setattr(workspace, "discover_files", lambda root, config: shuffled)
        model = build_project(root)
        lines = "".join(d.machine_line() + "\n" for d in model.diagnostics)
        assert lines == baseline


def test_criterion_10_scale(tmp_path, capsys):
    """A 50-file, ~5000-line corpus completes cmd_check in under 5 s."""
    root = str(tmp_path / "corpus50")
    make_corpus(root, 50)
    total_lines = 0
    for name in os.listdir(root):
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            total_lines += sum(1 for _ in fh)
    assert total_lines >= 4500, total_lines
    start = time.perf_counter()
    out = check_output(root, capsys)
    elapsed = time.perf_counter() - start
    assert out.strip()
    assert elapsed < 5.0, f"cmd_check took {elapsed:.2f}s"
