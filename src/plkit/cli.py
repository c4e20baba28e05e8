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
# stdout closed by its reader, as `| head` does: the status a shell reports
# for a process that SIGPIPE ended (128 + 13)
EXIT_CLOSED_STDOUT = 141


class CommandError(Exception):
    """A command that cannot run as asked: a bad argument or plkit.cfg, or
    a file it cannot write. `main` prints the message after `error: `."""


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
            raise CommandError(f"cannot read {path}: {err}") from None
    cap = values.get("cap", ["50"])[0]
    if not cap.isdecimal() or int(cap) < 1:
        raise CommandError(f"{path}: cap must be an integer >= 1, not {cap!r}")
    fmt = args.format or values.get("format", ["human"])[0]
    if fmt not in ("human", "machine"):
        raise CommandError(f"{path}: format must be human or machine, not {fmt!r}")
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


def _root_command_model(args) -> tuple[ProjectModel, str]:
    """The project model and the output format of a command on a project
    root."""
    if not os.path.isdir(args.root):
        raise CommandError(f"{args.root!r} is not a directory")
    config, fmt = read_config(args.root, args)
    return build_project(args.root, config), fmt


def cmd_check(args, out) -> int:
    model, fmt = _root_command_model(args)
    failed = print_diagnostics(model.diagnostics, fmt, out)
    has_errors = failed or any(d.severity == Severity.ERROR
                               for d in model.diagnostics)
    return EXIT_ERRORS if has_errors else EXIT_OK


def _file_command_model(args) -> tuple[ProjectModel, str, str]:
    """The project model, the file and the output format of a command on
    one file of the project."""
    file = os.path.abspath(args.file)
    if not os.path.isfile(file):
        raise CommandError(f"{file!r} is not a file")
    root = os.path.abspath(args.root) if args.root else os.path.dirname(file)
    if not os.path.isdir(root):
        raise CommandError(f"project root {root!r} is not a directory")
    config, fmt = read_config(root, args)
    model = build_project(root, config)
    if model.file_index(file) is None:
        raise CommandError(f"{file!r} is not part of the project")
    return model, file, fmt


def _position_command_model(args) -> tuple[ProjectModel, str, int, str]:
    """The project model, the file, the offset of the 1-based line:col and
    the output format of a command at a position in one file."""
    model, file, fmt = _file_command_model(args)
    lines = model.sources[file].split("\n")
    if not (1 <= args.line <= len(lines)
            and 1 <= args.col <= len(lines[args.line - 1]) + 1):
        raise CommandError("position out of range")
    offset = sum(len(l) + 1 for l in lines[: args.line - 1]) + args.col - 1
    return model, file, offset, fmt


def cmd_outline(args, out) -> int:
    model, file, fmt = _file_command_model(args)
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
    model, file, offset, fmt = _position_command_model(args)
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
    model, file, offset, fmt = _position_command_model(args)
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
    model, _ = _root_command_model(args)
    matches = [d for d in model.diagnostics if _match_selector(d, args.selector)]
    if len(matches) != 1:
        raise CommandError("\n  ".join(
            [f"selector matches {len(matches)} diagnostics (need exactly 1)",
             *(diag.human_line() for diag in matches)]))
    diagnostic = matches[0]
    fixes = quick_fixes(diagnostic, model)
    if not fixes:
        out.write("no fixes available\n")
        return EXIT_OK
    if not args.apply:
        for i, fix in enumerate(fixes):
            out.write(f"[{i}] {fix.title}\n")
        return EXIT_OK
    if args.index is None and len(fixes) > 1:
        raise CommandError("\n  ".join(
            ["multiple fixes, pick one with --index",
             *(f"[{i}] {fix.title}" for i, fix in enumerate(fixes))]))
    index = args.index or 0
    if not 0 <= index < len(fixes):
        raise CommandError(f"fix index {args.index} out of range")
    chosen = fixes[index]
    try:
        updated = apply_fix(chosen, model.sources)
        for file, _, _ in chosen.edits:
            with open(file, "w", encoding="utf-8") as fh:
                fh.write(updated[file])
    except (StaleFixError, OSError) as err:
        raise CommandError(err) from None
    before = sum(1 for d in model.diagnostics if d.severity == Severity.ERROR)
    rebuilt = build_project(args.root, model.config)
    after = sum(1 for d in rebuilt.diagnostics if d.severity == Severity.ERROR)
    out.write(f"applied: {chosen.title}\n")
    out.write(f"errors: {before} -> {after}\n")
    return EXIT_OK


def cmd_doc(args, out) -> int:
    model, _ = _root_command_model(args)
    out_dir = args.out or os.path.join(args.root, model.config.doc_out)
    docs = project_docs(model)
    try:
        written = generate_html(model, docs, out_dir)
    except OSError as err:
        raise CommandError(err) from None
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
            status = cmd_repl(args, sys.stdout)
        else:
            # A one-shot command builds a model, uses it and drops it while
            # the collector is paused, so the collector never walks it.
            with collector_paused():
                status = args.func(args, sys.stdout)
        sys.stdout.flush()
        return status
    except CommandError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_FAILURE
    except BrokenPipeError:
        # The rest of the output is not wanted. stdout still holds it, and
        # the interpreter flushes stdout at exit, so point stdout at devnull
        # for that flush to succeed.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
