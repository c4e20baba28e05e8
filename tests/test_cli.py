import dataclasses
import gc
import io
import os
import subprocess
import sys

import pytest

from plkit import cli
from plkit.cli import main

CLEAN = {
    "a.pl": ":- module(a, [main/0]).\n:- use_module(b, [f/1]).\nmain :- f(1).\n",
    "b.pl": ":- module(b, [f/1]).\n% Description: wrapper\nf(X) :- g(X).\ng(1).\n",
}
BROKEN = {
    "a.pl": "main :- missing(1).\n",
}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_clean_exit_zero(project, capsys):
    root = project(CLEAN)
    code, out, _ = run(["check", root], capsys)
    assert code == 0
    assert out == ""


@pytest.mark.parametrize("enabled", [True, False])
def test_check_restores_gc_setting(project, capsys, monkeypatch, enabled):
    root = project(BROKEN)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run(["check", root], capsys)[0] == 1
        assert gc.isenabled() is enabled

        def broken_build(*args):
            raise RuntimeError("build failed")

        monkeypatch.setattr(cli, "build_project", broken_build)
        with pytest.raises(RuntimeError):
            main(["check", root])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_check_errors_exit_one(project, capsys):
    root = project(BROKEN)
    code, out, _ = run(["check", root, "--format=machine"], capsys)
    assert code == 1
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 1
    fields = lines[0].split("\t")
    assert len(fields) == 8
    file, sl, sc, el, ec, severity, code_field, message = fields
    assert file.endswith("a.pl")
    assert severity == "error"
    assert code_field == "undefined_predicate"
    assert all(f.isdigit() for f in (sl, sc, el, ec))


def test_check_accepts_prelude_predicates(project, capsys):
    root = project({"a.pl": ("p(L, N) :- member(x, L), append(L, [y], M), "
                             "length(M, N), between(1, N, _).\n")})
    code, out, _ = run(["check", root, "--format=machine"], capsys)
    assert code == 0
    assert "undefined_predicate" not in out


def test_check_warnings_only_exit_zero(project, capsys):
    root = project({"a.pl": "p(X, Unused) :- q(X).\nq(1).\n"})
    code, out, _ = run(["check", root, "--format=machine"], capsys)
    assert code == 0
    assert "singleton_variable" in out


def test_check_non_ascii_digits_exit_one(project, capsys):
    files = {"a.pl": "p(²).\n", "b.pl": "X = 1١.\n", "c.pl": "0e١.\n"}
    root = project(files)
    code, out, err = run(["check", root, "--format=machine"], capsys)
    assert code == 1
    assert "Traceback" not in err
    reported = {line.split("\t")[0].rsplit(os.sep, 1)[-1] for line in out.splitlines()}
    assert reported == set(files)


def test_check_reports_a_float_literal_out_of_range(project, capsys):
    root = project({"a.pl": "p(1.0e400).\nq(1.5e308).\n"})
    code, out, _ = run(["check", root, "--format=machine"], capsys)
    assert code == 1
    fields = [line.split("\t") for line in out.splitlines()]
    assert [(f[1], f[2], f[6], f[7]) for f in fields
            if f[6] == "bad_number"] == [("1", "3", "bad_number", "float literal out of range")]
    assert all(f[1] == "1" for f in fields)


def test_check_prints_an_included_files_parse_error_once(project, capsys):
    root = project({"main.pl": ":- include(inc).\n", "inc.pl": "p(X) :- X > .\n"})
    code, out, _ = run(["check", root], capsys)
    assert code == 1
    assert out == (f"{os.path.join(root, 'inc.pl')}:1:13: error: unexpected '.' "
                   "where a term was expected [unexpected_token]\n")


def test_check_reports_internal_error_per_file(project, capsys, monkeypatch):
    import plkit.lexer

    tokenize = plkit.lexer.tokenize

    def failing(source, file_id="<string>"):
        if file_id.endswith("bad.pl"):
            raise RuntimeError("lexer defect")
        return tokenize(source, file_id)

    monkeypatch.setattr(plkit.lexer, "tokenize", failing)
    root = project({"bad.pl": "ok.\n", **BROKEN})
    code, out, _ = run(["check", root, "--format=machine"], capsys)
    assert code == 1
    lines = sorted(line.split("\t") for line in out.splitlines())
    assert [(f[0].rsplit(os.sep, 1)[-1], f[6]) for f in lines] == [
        ("a.pl", "undefined_predicate"), ("bad.pl", "internal_error")]
    assert "RuntimeError" in lines[1][7] and "lexer defect" in lines[1][7]


def test_check_reports_internal_error_while_indexing(project, capsys, monkeypatch):
    import plkit.workspace

    index_file = plkit.workspace.index_file

    def failing(sentences, db, file, *rest, **kwargs):
        if file.endswith("bad.pl"):
            raise RuntimeError("index defect")
        return index_file(sentences, db, file, *rest, **kwargs)

    monkeypatch.setattr(plkit.workspace, "index_file", failing)
    # user.pl imports bad.pl, which link must not index a second time
    root = project({"bad.pl": ":- module(bad, [ok/0]).\nok.\n",
                    "user.pl": ":- use_module(bad).\nmain :- ok.\n", **BROKEN})
    code, out, _ = run(["check", root, "--format=machine"], capsys)
    assert code == 1
    lines = sorted(line.split("\t") for line in out.splitlines())
    assert [(f[0].rsplit(os.sep, 1)[-1], f[6]) for f in lines] == [
        ("a.pl", "undefined_predicate"), ("bad.pl", "internal_error")]
    assert "RuntimeError" in lines[1][7] and "index defect" in lines[1][7]


def test_check_reports_internal_error_while_linking(project, capsys, monkeypatch):
    import plkit.workspace

    link_file = plkit.workspace._link_file

    def failing(index, *rest):
        if index.file.endswith("bad.pl"):
            raise RuntimeError("link defect")
        return link_file(index, *rest)

    monkeypatch.setattr(plkit.workspace, "_link_file", failing)
    root = project({"bad.pl": "main :- missing.\n", **BROKEN})
    code, out, _ = run(["check", root, "--format=machine"], capsys)
    assert code == 1
    lines = sorted(line.split("\t") for line in out.splitlines())
    assert [(f[0].rsplit(os.sep, 1)[-1], f[6]) for f in lines] == [
        ("a.pl", "undefined_predicate"), ("bad.pl", "internal_error")]
    assert "RuntimeError" in lines[1][7] and "link defect" in lines[1][7]


def test_check_of_an_import_cycle_is_the_same_in_both_load_orders(project, capsys,
                                                                   monkeypatch):
    import plkit.workspace

    # each file imports the other, so the second one loaded finds the first
    # still loading
    root = project({
        "a.pl": ":- module(a, [p/0]).\n:- use_module(b).\np :- q(1).\n",
        "b.pl": ":- module(b, [q/1]).\n:- use_module(a).\nq(X) :- p, nothere(X).\n"})
    paths = [os.path.join(root, "a.pl"), os.path.join(root, "b.pl")]
    outputs = []
    for order in (paths, paths[::-1]):
        monkeypatch.setattr(plkit.workspace, "discover_files",
                            lambda root, config, order=order: order)
        code, out, _ = run(["check", root, "--format=machine"], capsys)
        assert code == 1
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert [line.split("\t")[6:] for line in outputs[0].splitlines()] == [
        ["undefined_predicate", "undefined predicate nothere/1"]]


def test_check_reports_internal_error_while_emitting(project, capsys, monkeypatch):
    from plkit.diagnostics import Diagnostic

    human_line = Diagnostic.human_line

    def failing(diag):
        if diag.code == "singleton_variable":
            raise RuntimeError("emit defect")
        return human_line(diag)

    monkeypatch.setattr(Diagnostic, "human_line", failing)
    # Only a warning, so check would exit 0; the failed emit makes it 1.
    root = project({"w.pl": "p(X).\n"})
    code, out, err = run(["check", root], capsys)
    assert code == 1 and err == ""
    assert out.startswith(os.path.join(root, "w.pl") + ":1:1: error: internal error")
    assert "RuntimeError" in out and "emit defect" in out


def test_long_list_fact_does_not_crash(tmp_path):
    """check, outline and hover over one fact holding a 50,000-element
    list: no Python recursion, so no traceback."""
    n = 50_000
    text = "p([" + "a," * (n - 1) + "true]).\n"
    (tmp_path / "long.pl").write_text(text, encoding="utf-8")
    file = str(tmp_path / "long.pl")
    col = text.index("true") + 1
    for argv, expected in ((["check", str(tmp_path)], ""),
                           (["outline", file], "p/1"),
                           (["hover", file, "1", str(col)], "true/0")):
        result = subprocess.run([sys.executable, "-m", "plkit.cli", *argv],
                                capture_output=True, text=True,
                                env=dict(os.environ), timeout=120)
        assert result.returncode == 0, (argv, result.stderr[-300:])
        assert "Traceback" not in result.stderr, argv
        assert expected in result.stdout, argv


def test_check_reports_non_utf8_file(project, capsys, tmp_path):
    root = project({"user.pl": ":- use_module(bad).\nok.\n", **BROKEN})
    (tmp_path / "bad.pl").write_bytes(b"p(\xff).\n")
    code, out, _ = run(["check", root, "--format=machine"], capsys)
    assert code == 1
    lines = sorted(line.split("\t") for line in out.splitlines())
    assert [(f[0].rsplit(os.sep, 1)[-1], f[6]) for f in lines] == [
        ("a.pl", "undefined_predicate"), ("bad.pl", "unreadable_file")]
    assert lines[1][1:3] == ["1", "1"]
    assert "codec can't decode byte 0xff" in lines[1][7]


def test_check_missing_root_exit_two(project, capsys):
    code, _, err = run(["check", "/no/such/dir"], capsys)
    assert code == 2
    assert "error" in err


TWO_EXPORTERS = {
    "a.pl": "main :- f(1).\n",
    "b.pl": ":- module(b, [f/1]).\nf(1).\n",
    "c.pl": ":- module(c, [f/1]).\nf(2).\n",
}


def _read_only(monkeypatch):
    def read_only(file, mode="r", *args, **kwargs):
        if "w" in mode:
            raise PermissionError(13, "Permission denied", file)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", read_only, raising=False)


def _stale_fixes(monkeypatch):
    fixes = cli.quick_fixes

    def stale(diagnostic, model):
        return [dataclasses.replace(fix, base_digests=dict.fromkeys(fix.base_digests, "0"))
                for fix in fixes(diagnostic, model)]

    monkeypatch.setattr(cli, "quick_fixes", stale)


def _in(root, name):
    return os.path.join(root, name)


# (files, argv, stderr after "error: ", set-up), with {root} standing for the
# project directory; each is a usage or environment failure: exit 2
EXIT_TWO = {
    "root is not a directory": (
        CLEAN, ["check", "{root}/none"], lambda r: f"{_in(r, 'none')!r} is not a directory", None),
    "file is not a file": (
        CLEAN, ["outline", "{root}/none.pl"], lambda r: f"{_in(r, 'none.pl')!r} is not a file", None),
    "file is not part of the project": (
        {**CLEAN, "notes.txt": "p.\n"}, ["outline", "{root}/notes.txt"],
        lambda r: f"{_in(r, 'notes.txt')!r} is not part of the project", None),
    "--root is not a directory": (
        CLEAN, ["hover", "{root}/a.pl", "1", "1", "--root", "{root}/none"],
        lambda r: f"project root {_in(r, 'none')!r} is not a directory", None),
    "line out of range": (
        CLEAN, ["hover", "{root}/a.pl", "99", "1"], lambda r: "position out of range", None),
    "column out of range": (
        CLEAN, ["complete", "{root}/a.pl", "3", "99"], lambda r: "position out of range", None),
    "selector matches no diagnostic": (
        CLEAN, ["fix", "{root}", "undefined_predicate"],
        lambda r: "selector matches 0 diagnostics (need exactly 1)", None),
    "selector matches two diagnostics": (
        {"a.pl": "m1 :- ghost(1).\n", "c.pl": "m2 :- ghost(2).\n"},
        ["fix", "{root}", "undefined_predicate"],
        lambda r: "selector matches 2 diagnostics (need exactly 1)\n"
                  f"  {_in(r, 'a.pl')}:1:7: error: undefined predicate ghost/1 [undefined_predicate]\n"
                  f"  {_in(r, 'c.pl')}:1:7: error: undefined predicate ghost/1 [undefined_predicate]",
        None),
    "several fixes and no --index": (
        TWO_EXPORTERS, ["fix", "{root}", "undefined_predicate", "--apply"],
        lambda r: "multiple fixes, pick one with --index\n"
                  "  [0] Import f/1 from b.pl\n  [1] Import f/1 from c.pl", None),
    "fix index out of range": (
        TWO_EXPORTERS, ["fix", "{root}", "undefined_predicate", "--apply", "--index", "2"],
        lambda r: "fix index 2 out of range", None),
    "fix cannot write its file": (
        TWO_EXPORTERS, ["fix", "{root}", "undefined_predicate", "--apply", "--index", "0"],
        lambda r: f"[Errno 13] Permission denied: {_in(r, 'a.pl')!r}", _read_only),
    "fix has gone stale": (
        TWO_EXPORTERS, ["fix", "{root}", "undefined_predicate", "--apply", "--index", "1"],
        lambda r: f"{_in(r, 'a.pl')} changed since the fix was computed", _stale_fixes),
    "doc cannot write its output directory": (
        {**CLEAN, "site": "a file\n"}, ["doc", "{root}", "--out", "{root}/site"],
        lambda r: f"[Errno 17] File exists: {_in(r, 'site')!r}", None),
    "plkit.cfg is not UTF-8": (
        {**CLEAN, "plkit.cfg": "cap = \udcff\n"}, ["check", "{root}"],
        lambda r: f"cannot read {_in(r, 'plkit.cfg')}: 'utf-8' codec can't decode "
                  "byte 0xff in position 6: invalid start byte", None),
    "plkit.cfg has a bad cap": (
        {**CLEAN, "plkit.cfg": "cap = 0\n"}, ["check", "{root}"],
        lambda r: f"{_in(r, 'plkit.cfg')}: cap must be an integer >= 1, not '0'", None),
    "plkit.cfg has a bad format": (
        {**CLEAN, "plkit.cfg": "format = xml\n"}, ["outline", "{root}/a.pl"],
        lambda r: f"{_in(r, 'plkit.cfg')}: format must be human or machine, not 'xml'", None),
}


@pytest.mark.parametrize("case", EXIT_TWO)
def test_a_usage_failure_is_one_error_line_and_exit_two(capsys, tmp_path, monkeypatch,
                                                        case):
    files, argv, message, set_up = EXIT_TWO[case]
    for name, content in files.items():  # "\udcff" writes the byte 0xff
        (tmp_path / name).write_bytes(content.encode("utf-8", "surrogateescape"))
    root = str(tmp_path)
    if set_up is not None:
        set_up(monkeypatch)
    code, out, err = run([arg.replace("{root}", root) for arg in argv], capsys)
    assert (code, out, err) == (2, "", f"error: {message(root)}\n")


def test_machine_format_from_config_file(project, capsys):
    root = project(dict(BROKEN, **{"plkit.cfg": "format=machine\n"}))
    _, out, _ = run(["check", root], capsys)
    assert "\t" in out
    # command-line flag wins over the config file
    _, out, _ = run(["check", root, "--format=human"], capsys)
    assert "\t" not in out.splitlines()[0]


@pytest.mark.parametrize("config, message", [
    (b"cap = abc\n", "cap must be an integer >= 1, not 'abc'"),
    (b"cap = 0\n", "cap must be an integer >= 1, not '0'"),
    (b"cap = \xff\n", "'utf-8' codec can't decode byte 0xff"),
    (b"format = xml\n", "format must be human or machine, not 'xml'"),
])
def test_bad_config_file_exit_two(project, capsys, tmp_path, config, message):
    root = project(CLEAN)
    (tmp_path / "plkit.cfg").write_bytes(config)
    code, out, err = run(["check", root], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert os.path.join(root, "plkit.cfg") in err and message in err


def test_config_glob(project, capsys):
    root = project({
        "plkit.cfg": "glob=src/**/*.pl\n",
        "src/deep/ok.pl": "p(1).\n",
        "ignored.pl": "broken(.\n",
    })
    code, out, _ = run(["check", root], capsys)
    assert code == 0 and out == ""


def test_outline_machine(project, capsys):
    root = project(CLEAN)
    code, out, _ = run(
        ["outline", os.path.join(root, "b.pl"), "--format=machine"], capsys)
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert [r[0] for r in rows] == [
        "Module", "ExportedPredicate", "PrivatePredicate"]
    assert [r[1] for r in rows] == ["b", "f/1", "g/1"]
    assert all(len(r) == 6 for r in rows)


def test_pushback_rule_defines_its_nonterminal(project, capsys):
    for pushback in ("[x]", '"x"'):
        root = project({"pb.pl": f"greeting, {pushback} --> [hello].\nfoo --> greeting.\n"})
        assert run(["check", root], capsys) == (0, "", ""), pushback
        code, out, _ = run(["outline", os.path.join(root, "pb.pl")], capsys)
        assert code == 0
        assert out.splitlines() == ["1:1 DcgNonterminal greeting//0",
                                    "2:1 DcgNonterminal foo//0"], pushback


def test_an_operator_is_not_seen_by_a_file_that_does_not_import_it(project, capsys):
    root = project({"a.pl": ":- op(700, xfx, ===).\nrel(a === b).\n",
                    "b.pl": "rel2(a === b).\n"})
    code, out, _ = run(["check", root, "--format", "machine"], capsys)
    assert code == 1
    assert out == (f"{os.path.join(root, 'b.pl')}\t1\t8\t1\t11\terror\t"
                   "unbalanced_delimiter\texpected ')', found '==='\n")


def test_hover_definition(project, capsys):
    root = project(CLEAN)
    code, out, _ = run(
        ["hover", os.path.join(root, "a.pl"), "3", "9", "--root", root], capsys)
    assert code == 0
    assert "f(X) defined at b.pl:3" in out


def test_hover_doc_mode(project, capsys):
    root = project(CLEAN)
    code, out, _ = run(
        ["hover", os.path.join(root, "a.pl"), "3", "9",
         "--mode=doc", "--root", root], capsys)
    assert code == 0
    assert "wrapper" in out


def test_hover_out_of_range_exit_two(project, capsys):
    root = project(CLEAN)
    code, _, err = run(
        ["hover", os.path.join(root, "a.pl"), "99", "1"], capsys)
    assert code == 2
    assert "out of range" in err


def test_complete_machine(project, capsys):
    root = project(CLEAN)
    code, out, _ = run(
        ["complete", os.path.join(root, "a.pl"), "3", "10",
         "--root", root, "--format=machine"], capsys)
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert all(len(r) == 4 for r in rows)
    assert any(r[0] == "f/1" for r in rows)


def test_fix_list_then_apply(project, capsys):
    root = project({
        "a.pl": "main :- f(1).\n",
        "b.pl": ":- module(b, [f/1]).\nf(1).\n",
    })
    code, out, _ = run(["fix", root, "undefined_predicate"], capsys)
    assert code == 0
    assert "[0]" in out and "Import f/1" in out

    code, out, _ = run(
        ["fix", root, "undefined_predicate", "--apply"], capsys)
    assert code == 0
    assert "errors: 1 -> 0" in out
    with open(os.path.join(root, "a.pl"), encoding="utf-8") as fh:
        assert "use_module" in fh.read()

    code, _, _ = run(["check", root], capsys)
    assert code == 0


def test_fix_apply_reports_a_file_it_cannot_write(project, capsys, monkeypatch):
    root = project({
        "a.pl": "main :- f(1).\n",
        "b.pl": ":- module(b, [f/1]).\nf(1).\n",
    })
    _read_only(monkeypatch)
    code, out, err = run(["fix", root, "undefined_predicate", "--apply"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: [Errno 13] Permission denied: {os.path.join(root, 'a.pl')!r}\n"


def test_fix_selector_must_be_unique(project, capsys):
    root = project({
        "a.pl": "m1 :- ghost(1).\n",
        "c.pl": "m2 :- ghost(2).\n",
    })
    code, _, err = run(["fix", root, "undefined_predicate", "--apply"], capsys)
    assert code == 2
    assert "matches 2" in err
    # narrowing by file part makes it unique; no exporter -> no fixes
    code, out, _ = run(["fix", root, "undefined_predicate@a.pl"], capsys)
    assert code == 0
    assert "no fixes" in out


def test_fix_selector_with_line(project, capsys):
    root = project({
        "a.pl": "m1 :- ghost(1).\nm2 :- ghost(2).\n",
        "b.pl": ":- module(b, [ghost/1]).\nghost(_).\n",
    })
    code, out, _ = run(
        ["fix", root, "undefined_predicate@a.pl:2", "--apply"], capsys)
    assert code == 0
    assert "errors: 2 -> 0" in out  # one import fixes both call sites


def test_doc_command(project, capsys):
    root = project(CLEAN)
    code, out, _ = run(["doc", root], capsys)
    assert code == 0
    written = out.splitlines()
    assert any(p.endswith("index.html") for p in written)
    assert all(os.path.isfile(p) for p in written)
    assert os.path.dirname(written[0]).endswith("prologdoc")


def test_doc_out_flag(project, capsys, tmp_path):
    root = project(CLEAN)
    out_dir = str(tmp_path / "site")
    code, out, _ = run(["doc", root, "--out", out_dir], capsys)
    assert code == 0
    assert os.path.isfile(os.path.join(out_dir, "index.html"))


@pytest.mark.parametrize("source, line, code", [
    ("p(1).\n% Description: too late\np(2).\n", 2, "doc_not_at_first_clause"),
    ("% Description: about p\n\n% Author: second block\np(1).\n", 3, "duplicate_doc"),
])
def test_doc_reports_doc_warnings(project, capsys, source, line, code):
    root = project({"a.pl": source})
    status, out, err = run(["doc", root], capsys)
    assert status == 0
    written = out.splitlines()
    assert written and all(os.path.isfile(p) for p in written)
    [warning] = err.splitlines()
    assert warning.startswith(f"{os.path.join(root, 'a.pl')}:{line}:1: warning: ")
    assert warning.endswith(f"[{code}]")


def test_repl_subprocess():
    env = dict(os.environ)
    result = subprocess.run(
        [sys.executable, "-m", "plkit.cli", "repl"],
        input="X is 6 * 7.\nfail.\n",
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0
    assert "X = 42" in result.stdout
    assert "false" in result.stdout


def test_check_output_deterministic(project, capsys):
    files = {
        "a.pl": "m :- ghost(1), also_missing(a, b).\n",
        "b.pl": "p(X, Singleton) :- X = 1.\n",
        "c.pl": "broken(.\nok.\n",
    }
    root = project(files)
    outputs = set()
    for _ in range(3):
        _, out, _ = run(["check", root, "--format=machine"], capsys)
        outputs.add(out)
    assert len(outputs) == 1
