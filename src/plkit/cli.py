"""Command-line front end: check, outline, hover, complete, fix, doc, repl."""

from __future__ import annotations

import argparse
import os
import sys

from .database import Database
from .diagnostics import Diagnostic, Severity
from .docgen import generate_html, project_docs
from .engine import Loader, internal_error, repl as run_repl
from .workspace import (
    ProjectConfig,
    ProjectModel,
    StaleFixError,
    apply_fix,
    build_project,
    collector_paused,
    complete,
    hover,
    outline,
    quick_fixes,
)

CONFIG_FILE = "plkit.cfg"

EXIT_OK = 0
EXIT_ERRORS = 1
EXIT_FAILURE = 2


class ConfigError(Exception):
    """A plkit.cfg that cannot be read or holds a bad value."""


def read_config(root: str, args) -> tuple[ProjectConfig, str]:
    """The project's config and output format. Command-line flags win over
    plkit.cfg, whose flat key=value lines accumulate repeated keys."""
    path = os.path.join(root, CONFIG_FILE)
    values: dict[str, list[str]] = {}
    if os.path.isfile(path):
        try:
            with open(path, encoding="utf-8") as fh:
                for raw in fh:
                    line = raw.strip()
                    if line and not line.startswith("#") and "=" in line:
                        key, _, value = line.partition("=")
                        values.setdefault(key.strip(), []).append(value.strip())
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read {path}: {err}") from None
    cap = values.get("cap", ["50"])[0]
    if not cap.isdecimal() or int(cap) < 1:
        raise ConfigError(f"{path}: cap must be an integer >= 1, not {cap!r}")
    fmt = args.format or values.get("format", ["human"])[0]
    if fmt not in ("human", "machine"):
        raise ConfigError(f"{path}: format must be human or machine, not {fmt!r}")
    config = ProjectConfig(globs=tuple(args.glob or values.get("glob", ())) or ("**/*.pl",),
                           library_paths=tuple(args.lib or values.get("lib", ())),
                           completion_cap=int(cap),
                           doc_out=values.get("doc_out", ["prologdoc"])[0])
    return config, fmt


def print_diagnostics(diagnostics: list[Diagnostic], fmt: str, out) -> bool:
    """Write one line per diagnostic. A diagnostic that cannot be formatted
    is reported as an `internal_error` on its file in its place; the result
    says whether that happened."""
    failed = False
    for diag in diagnostics:
        try:
            line = diag.machine_line() if fmt == "machine" else diag.human_line()
        except Exception as err:  # the emit backstop
            failed = True
            try:
                path = diag.span.file_id
            except Exception:
                path = "<unknown>"
            diag = internal_error(path, err)
            line = diag.machine_line() if fmt == "machine" else diag.human_line()
        out.write(line + "\n")
    return failed


def _to_offset(source: str, line: int, col: int):
    if line < 1 or col < 1:
        return None
    lines = source.split("\n")
    if line > len(lines):
        return None
    if col > len(lines[line - 1]) + 1:
        return None
    return sum(len(l) + 1 for l in lines[: line - 1]) + col - 1


def cmd_check(args, out) -> int:
    root = args.root
    if not os.path.isdir(root):
        sys.stderr.write(f"error: {root!r} is not a directory\n")
        return EXIT_FAILURE
    config, fmt = read_config(root, args)
    model = build_project(root, config)
    failed = print_diagnostics(model.diagnostics, fmt, out)
    has_errors = failed or any(d.severity == Severity.ERROR
                               for d in model.diagnostics)
    return EXIT_ERRORS if has_errors else EXIT_OK


def _file_command_model(args) -> tuple[ProjectModel, str, str] | int:
    """The project model, the file and the output format of a command on
    one file, or the exit code of a bad file."""
    file = os.path.abspath(args.file)
    if not os.path.isfile(file):
        sys.stderr.write(f"error: {file!r} is not a file\n")
        return EXIT_FAILURE
    root = os.path.abspath(args.root) if args.root else os.path.dirname(file)
    config, fmt = read_config(root, args)
    model = build_project(root, config)
    if model.file_index(file) is None:
        sys.stderr.write(f"error: {file!r} is not part of the project\n")
        return EXIT_FAILURE
    return model, file, fmt


def cmd_outline(args, out) -> int:
    result = _file_command_model(args)
    if isinstance(result, int):
        return result
    model, file, fmt = result
    for item in outline(file, model):
        s = item.target_span
        if fmt == "machine":
            out.write("\t".join([item.kind, item.label, str(s.start_line),
                                 str(s.start_col), str(s.end_line),
                                 str(s.end_col)]) + "\n")
        else:
            out.write(f"{s.start_line}:{s.start_col} {item.kind} {item.label}\n")
    return EXIT_OK


def cmd_hover(args, out) -> int:
    result = _file_command_model(args)
    if isinstance(result, int):
        return result
    model, file, fmt = result
    source = model.sources[file]
    offset = _to_offset(source, args.line, args.col)
    if offset is None:
        sys.stderr.write("error: position out of range\n")
        return EXIT_FAILURE
    info = hover(file, offset, args.mode, model)
    if info is None:
        return EXIT_OK
    if fmt == "machine":
        text = info.text.replace("\n", "\\n")
        out.write(f"{info.span.start_line}\t{info.span.start_col}\t{text}\n")
    else:
        out.write(info.text + "\n")
    return EXIT_OK


def cmd_complete(args, out) -> int:
    result = _file_command_model(args)
    if isinstance(result, int):
        return result
    model, file, fmt = result
    source = model.sources[file]
    offset = _to_offset(source, args.line, args.col)
    if offset is None:
        sys.stderr.write("error: position out of range\n")
        return EXIT_FAILURE
    for item in complete(file, offset, model):
        if fmt == "machine":
            out.write("\t".join([item.label, item.kind,
                                 item.synopsis.replace("\t", " "),
                                 item.insert_text]) + "\n")
        else:
            out.write(f"{item.label} ({item.kind}) {item.synopsis}\n")
    return EXIT_OK


def _match_selector(diag: Diagnostic, selector: str) -> bool:
    # CODE[@FILEPART[:LINE]]
    code, _, rest = selector.partition("@")
    if diag.code != code:
        return False
    if not rest:
        return True
    filepart, _, line = rest.partition(":")
    if filepart and filepart not in diag.span.file_id:
        return False
    if line:
        try:
            if diag.span.start_line != int(line):
                return False
        except ValueError:
            return False
    return True


def cmd_fix(args, out) -> int:
    root = args.root
    if not os.path.isdir(root):
        sys.stderr.write(f"error: {root!r} is not a directory\n")
        return EXIT_FAILURE
    config, _ = read_config(root, args)
    model = build_project(root, config)
    matches = [d for d in model.diagnostics if _match_selector(d, args.selector)]
    if len(matches) != 1:
        sys.stderr.write(
            f"error: selector matches {len(matches)} diagnostics (need exactly 1)\n"
        )
        for diag in matches:
            sys.stderr.write("  " + diag.human_line() + "\n")
        return EXIT_FAILURE
    diagnostic = matches[0]
    fixes = quick_fixes(diagnostic, model)
    if not fixes:
        out.write("no fixes available\n")
        return EXIT_OK
    if not args.apply:
        for i, fix in enumerate(fixes):
            out.write(f"[{i}] {fix.title}\n")
        return EXIT_OK
    if args.index is None:
        if len(fixes) > 1:
            sys.stderr.write("error: multiple fixes, pick one with --index\n")
            for i, fix in enumerate(fixes):
                sys.stderr.write(f"  [{i}] {fix.title}\n")
            return EXIT_FAILURE
        chosen = fixes[0]
    else:
        if not 0 <= args.index < len(fixes):
            sys.stderr.write(f"error: fix index {args.index} out of range\n")
            return EXIT_FAILURE
        chosen = fixes[args.index]
    try:
        updated = apply_fix(chosen, model.sources)
    except StaleFixError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_FAILURE
    for file, _, _ in chosen.edits:
        with open(file, "w", encoding="utf-8") as fh:
            fh.write(updated[file])
    before = sum(1 for d in model.diagnostics if d.severity == Severity.ERROR)
    rebuilt = build_project(root, config)
    after = sum(1 for d in rebuilt.diagnostics if d.severity == Severity.ERROR)
    out.write(f"applied: {chosen.title}\n")
    out.write(f"errors: {before} -> {after}\n")
    return EXIT_OK


def cmd_doc(args, out) -> int:
    root = args.root
    if not os.path.isdir(root):
        sys.stderr.write(f"error: {root!r} is not a directory\n")
        return EXIT_FAILURE
    model = build_project(root, read_config(root, args)[0])
    out_dir = args.out or os.path.join(root, model.config.doc_out)
    docs = project_docs(model)
    try:
        written = generate_html(model, docs, out_dir)
    except OSError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_FAILURE
    # misplaced and duplicate doc blocks: warnings, so the exit code stays 0
    print_diagnostics(docs.diagnostics, "human", sys.stderr)
    for path in written:
        out.write(path + "\n")
    return EXIT_OK


def cmd_repl(args, out) -> int:
    db = Database()
    run_repl(db, sys.stdin, out, Loader(tuple(args.lib or ())))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["human", "machine"], default=None,
                        help="output format (default: human, or config file)")
    common.add_argument("--lib", action="append", metavar="PATH",
                        help="library search path (repeatable)")
    common.add_argument("--glob", action="append", metavar="PATTERN",
                        help="source glob (repeatable, default **/*.pl)")
    parser = argparse.ArgumentParser(
        prog="plkit",
        description="Prolog project checker, IDE query engine, and doc generator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("check", help="build a project and list diagnostics")
    p.add_argument("root")
    p.set_defaults(func=cmd_check)

    p = add_parser("outline", help="structural outline of one file")
    p.add_argument("file")
    p.add_argument("--root", default=None)
    p.set_defaults(func=cmd_outline)

    p = add_parser("hover", help="hover info at a 1-based line:col")
    p.add_argument("file")
    p.add_argument("line", type=int)
    p.add_argument("col", type=int)
    p.add_argument("--mode", choices=["definition", "doc"], default="definition")
    p.add_argument("--root", default=None)
    p.set_defaults(func=cmd_hover)

    p = add_parser("complete", help="completion proposals at line:col")
    p.add_argument("file")
    p.add_argument("line", type=int)
    p.add_argument("col", type=int)
    p.add_argument("--root", default=None)
    p.set_defaults(func=cmd_complete)

    p = add_parser("fix", help="list or apply quick fixes")
    p.add_argument("root")
    p.add_argument("selector", help="diagnostic selector CODE[@FILEPART[:LINE]]")
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--apply", action="store_true")
    p.set_defaults(func=cmd_fix)

    p = add_parser("doc", help="generate the HTML documentation tree")
    p.add_argument("root")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_doc)

    p = add_parser("repl", help="interactive read-eval loop")
    p.set_defaults(func=cmd_repl)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "repl":  # runs goals: the collector stays on
            return cmd_repl(args, sys.stdout)
        # A one-shot command builds a model, uses it and drops it while the
        # collector is paused, so the collector never walks it.
        with collector_paused():
            return args.func(args, sys.stdout)
    except (FileNotFoundError, ConfigError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
