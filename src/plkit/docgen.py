"""PrologDoc extraction and cross-linked HTML summary generation.

A doc block is a run of '%' line comments (no blank line inside) or a
single block comment, containing at least one of the recognized entry
tags, written directly above the first clause of the predicate it
documents (or above the module/2 directive for module docs).
"""

from __future__ import annotations

import html
import os
import re
import urllib.parse
from dataclasses import dataclass, field
from typing import Optional, Union

from .database import PredicateEntry, predicate_label
from .diagnostics import Diagnostic, Severity
from .lexer import Token, TokenKind
from .printer import pretty_print
from .reader import Sentence
from .spans import SourceSpan
from .terms import Atom, Compound, Var, indicator_of, rebuild

RECOGNIZED_TAGS = ("Author:", "Arguments:", "Description:")

_TAG_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*:)\s*(.*)$")


@dataclass
class DocBlock:
    entries: list[tuple[str, str]]
    raw_span: SourceSpan
    target_kind: str  # "predicate" | "module"
    target: Union[tuple[str, int], str]
    display: str

    def entry(self, tag: str) -> Optional[str]:
        for t, body in self.entries:
            if t == tag:
                return body
        return None


@dataclass
class FileDocs:
    file: str
    blocks: list[DocBlock] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)


@dataclass
class ProjectDocs:
    per_file: dict[str, FileDocs]

    @property
    def blocks(self) -> list[DocBlock]:
        return [b for fd in self.per_file.values() for b in fd.blocks]

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return [d for fd in self.per_file.values() for d in fd.diagnostics]


# --- extraction -----------------------------------------------------------


def _comment_groups(comments: list[Token]) -> list[list[Token]]:
    """Split comment tokens into blocks: adjacent '%' lines group together,
    each block comment stands alone."""
    groups: list[list[Token]] = []
    for token in comments:
        if token.kind == TokenKind.BLOCK_COMMENT:
            groups.append([token])
            continue
        if (
            groups
            and groups[-1][-1].kind == TokenKind.LINE_COMMENT
            and token.kind == TokenKind.LINE_COMMENT
            and token.span.start_line == groups[-1][-1].span.end_line + 1
        ):
            groups[-1].append(token)
        else:
            groups.append([token])
    return groups


def _strip_comment_text(group: list[Token]) -> list[str]:
    lines: list[str] = []
    for token in group:
        if token.kind == TokenKind.LINE_COMMENT:
            lines.append(token.text.lstrip("%").strip())
        else:  # block comment
            body = token.text
            if body.startswith("/*"):
                body = body[2:]
            if body.endswith("*/"):
                body = body[:-2]
            for raw in body.splitlines():
                lines.append(raw.strip().lstrip("*").strip())
    return lines


def _parse_entries(lines: list[str]) -> list[tuple[str, str]]:
    entries: list[tuple[str, str]] = []
    current: Optional[list] = None
    for line in lines:
        match = _TAG_RE.match(line)
        if match:
            if current is not None:
                entries.append((current[0], "\n".join(current[1]).strip()))
            current = [match.group(1), [match.group(2)]]
        elif current is not None and line:
            current[1].append(line)
    if current is not None:
        entries.append((current[0], "\n".join(current[1]).strip()))
    return entries


def extract_docs(sentences: list[Sentence], file: str) -> tuple[list[DocBlock], list[Diagnostic]]:
    blocks: list[DocBlock] = []
    diagnostics: list[Diagnostic] = []
    taken_targets: set = set()
    defines = [sentence.defines() for sentence in sentences]
    # first defining sentence per predicate
    first_def: dict[tuple[str, int], int] = {}
    for i, defined in enumerate(defines):
        if defined is not None:
            first_def.setdefault(defined, i)

    for i, sentence in enumerate(sentences):
        for group in _comment_groups(sentence.leading_comments):
            entries = _parse_entries(_strip_comment_text(group))
            if not any(tag in RECOGNIZED_TAGS for tag, _ in entries):
                continue
            span = group[0].span.enclose(group[-1].span)
            if sentence.kind == "directive":
                ind = indicator_of(sentence.goal)
                if ind != ("module", 2):
                    continue
                name_term = sentence.goal.args[0]
                if not isinstance(name_term, Atom):
                    continue
                target_kind, target = "module", name_term.name
                display = name_term.name
            elif defines[i] is None:
                continue
            else:
                key = defines[i]
                display = predicate_label(key, sentence.kind == "dcg_rule")
                if first_def.get(key) != i:
                    diagnostics.append(
                        Diagnostic(
                            Severity.WARNING,
                            "doc_not_at_first_clause",
                            f"documentation for {display} must precede its "
                            "first clause",
                            span,
                        )
                    )
                    continue
                target_kind, target = "predicate", key
            if (target_kind, target) in taken_targets:
                diagnostics.append(
                    Diagnostic(Severity.WARNING, "duplicate_doc",
                               f"{display} already has a documentation block",
                               span)
                )
                continue
            taken_targets.add((target_kind, target))
            blocks.append(DocBlock(entries, span, target_kind, target, display))
    return blocks, diagnostics


def project_docs(model) -> ProjectDocs:
    per_file: dict[str, FileDocs] = {}
    for path in sorted(model.index.files):
        index = model.index.files[path]
        blocks, diagnostics = extract_docs(index.sentences, path)
        per_file[path] = FileDocs(path, blocks, diagnostics)
    return ProjectDocs(per_file)


# --- HTML generation ------------------------------------------------------

STYLESHEET = """\
body { font-family: sans-serif; margin: 2em auto; max-width: 52em; }
h1, h2 { border-bottom: 1px solid #ccc; padding-bottom: 0.2em; }
table { border-collapse: collapse; width: 100%; }
th, td { border: 1px solid #ccc; padding: 0.3em 0.6em; text-align: left; }
code { background: #f4f4f4; padding: 0 0.2em; }
.tag { font-weight: bold; }
.note { color: #a33; }
"""


def _page_name(model, path: str) -> str:
    rel = os.path.relpath(path, model.root)
    if rel.endswith(".pl"):
        rel = rel[:-3]
    return rel.replace(os.sep, "__") + ".html"


def _anchor(name: str, arity: int) -> str:
    return f"pred-{urllib.parse.quote(name, safe='')}-{arity}"


def _synopsis(entry: PredicateEntry) -> str:
    """The first clause head with its variables named A, B, ... Z, A1, ...
    in order of first occurrence."""
    names: dict[int, Var] = {}

    def rename(var: Var) -> Var:
        renamed = names.get(var.vid)
        if renamed is None:
            n = len(names)
            name = chr(ord("A") + n % 26) + (str(n // 26) if n >= 26 else "")
            renamed = names[var.vid] = Var(name, var.vid)
        return renamed

    return pretty_print(rebuild(entry.clauses[0].head, rename, Compound))


def _entries_html(block: DocBlock) -> str:
    rows = []
    for tag, body in block.entries:
        rows.append(
            f"<dt class=\"tag\">{html.escape(tag)}</dt>"
            f"<dd>{html.escape(body)}</dd>"
        )
    return "<dl>" + "".join(rows) + "</dl>" if rows else ""


def generate_html(model, docs: ProjectDocs, out_dir: str) -> list[str]:
    """Write index.html, one page per source file, and style.css.

    Output is deterministic byte-for-byte for identical input.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []

    css_path = os.path.join(out_dir, "style.css")
    _write(css_path, STYLESHEET)
    written.append(css_path)

    paths = sorted(model.index.files)
    index_rows = []
    for path in paths:
        rel = os.path.relpath(path, model.root)
        page = _page_name(model, path)
        index_rows.append(f'<li><a href="{html.escape(page)}">{html.escape(rel)}</a></li>')
    index_html = _wrap(
        "Project documentation",
        "<h1>Project documentation</h1>\n<ul>\n"
        + "\n".join(index_rows)
        + "\n</ul>",
    )
    index_path = os.path.join(out_dir, "index.html")
    _write(index_path, index_html)
    written.append(index_path)

    for path in paths:
        page_path = os.path.join(out_dir, _page_name(model, path))
        _write(page_path, _file_page(model, docs, path))
        written.append(page_path)
    return written


def _file_page(model, docs: ProjectDocs, path: str) -> str:
    index = model.index.files[path]
    file_docs = docs.per_file.get(path, FileDocs(path))
    rel = os.path.relpath(path, model.root)
    parts: list[str] = [f"<h1>{html.escape(rel)}</h1>"]

    module_block = None
    for block in file_docs.blocks:
        if block.target_kind == "module":
            module_block = block
            break
    module = index.db.module
    if module is not None:
        parts.append(f"<p>Module: <code>{html.escape(module.name)}</code></p>")
    if module_block is not None:
        parts.append(_entries_html(module_block))

    if index.db.imports:
        rows = []
        for record in index.db.imports:
            label = html.escape(pretty_print(record.target))
            path = record.resolved_file
            if path in model.index.files:
                page = _page_name(model, path)
                rows.append(f'<li><a href="{html.escape(page)}">{label}</a></li>')
            elif path and model.index.lookup(path) is not None:
                # a library file: resolved, but it has no page to link to
                rows.append(f"<li>{label}</li>")
            else:
                rows.append(f'<li>{label} <span class="note">(unresolved)</span></li>')
        parts.append("<h2>Imports</h2>\n<ul>\n" + "\n".join(rows) + "\n</ul>")

    defs = index.unique_defs()
    parts.append("<h2>Predicates</h2>")
    if defs:
        rows = ["<tr><th>Predicate</th><th>Synopsis</th></tr>"]
        for entry in defs:
            anchor = _anchor(*entry.indicator)
            rows.append(
                f'<tr><td><a href="#{anchor}">{html.escape(entry.display_label)}'
                f"</a></td><td><code>{html.escape(_synopsis(entry))}</code></td></tr>"
            )
        parts.append("<table>\n" + "\n".join(rows) + "\n</table>")
    else:
        parts.append("<p>No predicates defined.</p>")

    doc_by_target = {
        block.target: block
        for block in file_docs.blocks
        if block.target_kind == "predicate"
    }
    for entry in defs:
        anchor = _anchor(*entry.indicator)
        parts.append(
            f'<h3 id="{anchor}">{html.escape(entry.display_label)}</h3>'
        )
        parts.append(f"<p><code>{html.escape(_synopsis(entry))}</code></p>")
        block = doc_by_target.get(entry.indicator)
        if block is not None:
            parts.append(_entries_html(block))
    return _wrap(rel, "\n".join(parts))


def _wrap(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n<html>\n<head>\n"
        '<meta charset="utf-8">\n'
        f"<title>{html.escape(title)}</title>\n"
        '<link rel="stylesheet" href="style.css">\n'
        "</head>\n<body>\n"
        f"{body}\n"
        '<p><a href="index.html">Project index</a></p>\n'
        "</body>\n</html>\n"
    )


def _write(path: str, content: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)
