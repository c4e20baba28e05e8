import os
import re

from plkit.database import Database
from plkit.docgen import (
    RECOGNIZED_TAGS,
    extract_docs,
    generate_html,
    project_docs,
)
from plkit.engine import Loader, consult_source
from plkit.workspace import ProjectConfig, build_project

DOCUMENTED = """\
:- module(shapes, [area/2]).

% Author: Maria
% Arguments: Shape the figure; Area its surface
% Description: Relates a shape term to its area.
area(square(S), A) :- A is S * S.
area(rect(W, H), A) :- A is W * H.

% Description: Internal helper.
double(X, Y) :- Y is X * 2.
"""


def sentences_of(source):
    db = Database()
    sents, diagnostics = consult_source(source, db, Loader(), "<t>")
    assert not [d for d in diagnostics if d.severity.value == "error"]
    return sents


def test_extract_blocks_and_tags():
    blocks, diagnostics = extract_docs(sentences_of(DOCUMENTED), "<t>")
    assert not diagnostics
    assert [(b.target_kind, b.target) for b in blocks] == [
        ("predicate", ("area", 2)),
        ("predicate", ("double", 2)),
    ]
    area = blocks[0]
    assert area.entry("Author:") == "Maria"
    assert area.entry("Description:") == "Relates a shape term to its area."


def test_untagged_comments_ignored():
    source = "% just a remark\n% nothing tagged here\np(1).\n"
    blocks, diagnostics = extract_docs(sentences_of(source), "<t>")
    assert blocks == [] and diagnostics == []


def test_block_comment_form():
    source = "/* Description: From a block comment.\n   Author: Sam */\np(1).\n"
    blocks, _ = extract_docs(sentences_of(source), "<t>")
    assert len(blocks) == 1
    assert blocks[0].entry("Author:") == "Sam"


def test_unknown_tags_kept_but_do_not_qualify():
    source = "% Deprecated: old\n% Description: ok\np(1).\n"
    blocks, _ = extract_docs(sentences_of(source), "<t>")
    assert len(blocks) == 1
    assert blocks[0].entry("Deprecated:") == "old"


def test_multiline_tag_bodies():
    source = ("% Description: first line\n"
              "%   continued line\n"
              "% Author: Ann\n"
              "p(1).\n")
    blocks, _ = extract_docs(sentences_of(source), "<t>")
    assert blocks[0].entry("Description:") == "first line\ncontinued line"


def test_doc_must_precede_first_clause():
    source = "p(1).\n% Description: too late\np(2).\n"
    blocks, diagnostics = extract_docs(sentences_of(source), "<t>")
    assert blocks == []
    assert [d.code for d in diagnostics] == ["doc_not_at_first_clause"]


def test_one_block_per_target():
    source = ("% Description: once\n"
              "p(1).\n"
              "% Description: q doc\n"
              "q :- p(1).\n")
    blocks, diagnostics = extract_docs(sentences_of(source), "<t>")
    assert len(blocks) == 2 and not diagnostics


def test_duplicate_doc_warns():
    # two separate comment groups above the same first clause
    source = ("% Description: about p\n"
              "\n"
              "% Author: second block\n"
              "p(1).\n")
    blocks, diagnostics = extract_docs(sentences_of(source), "<t>")
    assert len(blocks) == 1
    assert [d.code for d in diagnostics] == ["duplicate_doc"]


def test_module_doc_block():
    source = ("% Description: Geometry helpers.\n"
              ":- module(geo, []).\n")
    blocks, _ = extract_docs(sentences_of(source), "<t>")
    assert [(b.target_kind, b.target) for b in blocks] == [("module", "geo")]


def test_dcg_doc_display():
    source = "% Description: a greeting\ngreeting --> [hi].\n"
    blocks, _ = extract_docs(sentences_of(source), "<t>")
    assert blocks[0].target == ("greeting", 2)
    # a user sees the nonterminal's label in the warning on a late block
    late = source + "% Description: late\ngreeting --> [ho].\n"
    _, diagnostics = extract_docs(sentences_of(late), "<t>")
    assert [d.message for d in diagnostics] == [
        "documentation for greeting//0 must precede its first clause"]


# --- HTML generation ------------------------------------------------------


def build_docs(project, files, out="docs", config=None):
    root = project(files)
    model = build_project(root, config)
    docs = project_docs(model)
    out_dir = os.path.join(root, out)
    written = generate_html(model, docs, out_dir)
    return root, model, out_dir, written


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_generated_files(project):
    root, _, out_dir, written = build_docs(project, {"shapes.pl": DOCUMENTED})
    names = sorted(os.path.basename(p) for p in written)
    assert names == ["index.html", "shapes.html", "style.css"]
    for path in written:
        assert os.path.isfile(path)


def test_index_links_every_page(project):
    _, _, out_dir, _ = build_docs(project, {
        "shapes.pl": DOCUMENTED, "extra.pl": "e(1).\n"})
    index = read(os.path.join(out_dir, "index.html"))
    assert 'href="shapes.html"' in index
    assert 'href="extra.html"' in index


def test_predicate_table_and_anchors(project):
    _, _, out_dir, _ = build_docs(project, {"shapes.pl": DOCUMENTED})
    page = read(os.path.join(out_dir, "shapes.html"))
    assert 'href="#pred-area-2"' in page
    assert 'id="pred-area-2"' in page
    assert 'id="pred-double-2"' in page
    for tag in RECOGNIZED_TAGS:
        assert tag in page


def test_anchor_names_url_escaped(project):
    _, _, out_dir, _ = build_docs(project, {
        "q.pl": "% Description: odd name\n'my pred'(1).\n"})
    page = read(os.path.join(out_dir, "q.html"))
    match = re.search(r'id="pred-([^"]+)-1"', page)
    assert match is not None
    assert "%20" in match.group(1)


def test_module_doc_block_on_the_file_page(project):
    _, _, out_dir, _ = build_docs(project, {
        "geo.pl": "% Author: Maria\n% Description: Geometry helpers.\n"
                  ":- module(geo, []).\n"})
    page = read(os.path.join(out_dir, "geo.html"))
    assert ('<p>Module: <code>geo</code></p>\n<dl><dt class="tag">Author:</dt>'
            '<dd>Maria</dd><dt class="tag">Description:</dt>'
            '<dd>Geometry helpers.</dd></dl>') in page


def test_import_cross_links(project):
    _, _, out_dir, _ = build_docs(project, {
        "a.pl": ":- module(a, []).\n:- use_module(b).\n",
        "b.pl": ":- module(b, [f/1]).\nf(1).\n"})
    page = read(os.path.join(out_dir, "a.html"))
    assert 'href="b.html"' in page


def test_unresolved_import_noted_not_linked(project):
    _, _, out_dir, _ = build_docs(project, {
        "a.pl": ":- module(a, []).\n:- use_module(elsewhere).\n"})
    page = read(os.path.join(out_dir, "a.html"))
    assert "(unresolved)" in page


def test_library_import_resolved_not_linked(project):
    _, _, out_dir, written = build_docs(project, {
        "src/a.pl": ":- use_module(library(util)).\na :- helper(a).\n",
        "lib/util.pl": ":- module(util, [helper/1]).\nhelper(_).\n"},
        config=ProjectConfig(globs=("src/*.pl",), library_paths=("lib",)))
    # lib/util.pl is no project file, so it has no page to link to
    assert sorted(map(os.path.basename, written)) == [
        "index.html", "src__a.html", "style.css"]
    page = read(os.path.join(out_dir, "src__a.html"))
    assert "<li>library(util)</li>" in page
    assert "(unresolved)" not in page


def test_synopsis_uses_canonical_variable_names(project):
    _, _, out_dir, _ = build_docs(project, {
        "p.pl": "join(Left_99, _Right0, Out9) :- q(Left_99, _Right0, Out9).\n"
                "q(_, _, _).\n"})
    page = read(os.path.join(out_dir, "p.html"))
    assert "join(A,B,C)" in page


def test_regeneration_is_byte_identical(project):
    root, model, out_dir, written = build_docs(project, {
        "shapes.pl": DOCUMENTED, "extra.pl": "e(1).\n"})
    first = {path: read(path) for path in written}
    model2 = build_project(root)
    written2 = generate_html(model2, project_docs(model2), out_dir)
    assert written2 == written
    assert {path: read(path) for path in written2} == first
