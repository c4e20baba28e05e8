"""Adversarial inputs: deep, long and broken terms through every front end.

Each input goes through the lexer, `check`, `doc`, `outline`, `hover`,
`complete` and REPL answer printing. Nothing may escape as a Python
exception: the tokens rejoin to the source, `check` exits 0 or 1, and no
command prints a traceback. Terms are walked with explicit stacks
throughout, so sizes far beyond Python's recursion limit are used.
"""

import io
import os
import subprocess
import sys

import pytest

from plkit.cli import main
from plkit.database import Database
from plkit.engine import Loader, consult_source, repl, solve
from plkit.lexer import lossless
from plkit.printer import pretty_print
from plkit.terms import struct_eq

from conftest import read_term

N = 10_000

# name -> a term that is far deeper or longer than the recursion limit
TERMS = {
    "nested": "f(" * N + "a" + ")" * N,
    "body": "(" + ", ".join(f"q{i % 7}" for i in range(N)) + ")",
    "list": "[" + ",".join(str(i) for i in range(50_000)) + "]",
    "prefix": "- " * N + "a",
    "infix": " + ".join(["a"] * N),
}

SOURCES = {f"{name}_fact": f"p({text}).\n" for name, text in TERMS.items()}
SOURCES["body_clause"] = ("p :- " + TERMS["body"][1:-1] + ".\n"
                          + "".join(f"q{i}.\n" for i in range(7)))

# Every way a token can run into the end of the input, after a good clause.
UNTERMINATED = {
    "block_comment": "/* no end",
    "quoted_atom": "q('no end",
    "quoted_atom_escape": "q('no end\\",
    "string": 'q("no end',
    "char_code": "q(0'",
    "char_code_escape": "q(0'\\",
    "radix": "q(0x",
    "open_paren": "q(a, f(",
    "missing_end": "q(a)",
}
SOURCES.update({f"unterminated_{name}": "ok(1).\n" + text
                for name, text in UNTERMINATED.items()})


@pytest.fixture(params=sorted(SOURCES))
def case(request, tmp_path):
    root = tmp_path / request.param
    root.mkdir()
    path = root / "x.pl"
    path.write_text(SOURCES[request.param], encoding="utf-8")
    return str(root), str(path), SOURCES[request.param]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err, argv
    return code, captured.out


def test_tokens_rejoin_to_the_source(case):
    _, _, source = case
    tokens, _ = lossless(source, "x.pl")
    assert "".join(token.text for token in tokens) == source
    end = 0
    for token in tokens:
        assert token.start == end and source[token.start:token.end] == token.text
        end = token.end
    assert end == len(source)


def test_every_command_finishes(case, capsys, tmp_path):
    root, path, source = case
    code, out = run(["check", root, "--format", "machine"], capsys)
    assert code in (0, 1)
    assert "internal_error" not in out
    if source.startswith("ok(1)"):  # a lexical or syntax error at the end
        assert code == 1 and out
    else:
        assert code == 0 and out == ""
    code, out = run(["doc", root, "--out", str(tmp_path / "doc")], capsys)
    assert code == 0 and "x.html" in out
    code, out = run(["outline", path], capsys)
    assert code == 0 and ("p/" in out or "ok/1" in out)
    for command, col in (("hover", "1"), ("complete", "2")):
        code, out = run([command, path, "1", col], capsys)
        assert code == 0 and out


def test_check_in_a_subprocess(tmp_path):
    """One `plkit check` over every input at once: the real exit code and
    stderr, at the interpreter's own stack depth."""
    for name, source in SOURCES.items():
        (tmp_path / f"{name}.pl").write_text(source, encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "plkit.cli", "check",
                             str(tmp_path), "--format", "machine"],
                            capture_output=True, text=True,
                            env=dict(os.environ), timeout=300)
    assert result.returncode == 1, result.stderr[-300:]
    assert result.stderr == ""
    assert "internal_error" not in result.stdout


@pytest.mark.parametrize("name", sorted(TERMS))
def test_repl_prints_the_answer(name):
    out = io.StringIO()
    repl(Database(), io.StringIO(f"X = {TERMS[name]}.\n"), out, Loader())
    text = out.getvalue()
    answer = text[text.index("X = ") + 4:text.index("\ntrue")]
    assert struct_eq(read_term(answer), read_term(TERMS[name]))


def test_repl_prints_a_deep_solver_answer():
    db = Database()
    consult_source("mk(0, a).\nmk(N, f(X)) :- N > 0, M is N - 1, mk(M, X).\n",
                   db, Loader(), "mk.pl")
    out = io.StringIO()
    repl(db, io.StringIO("mk(3000, L).\n"), out, Loader())
    assert "L = " + "f(" * 3000 + "a" + ")" * 3000 + "\ntrue" in out.getvalue()


# name -> (goal, its answers as printed bindings): goals that chain or nest
# far beyond the recursion limit, run through the solver
GOALS = {
    "sum": ("X is " + " + ".join(["1"] * N), [{"X": str(N)}]),
    "conjunction": (", ".join(["true"] * N), [{}]),
    "call": ("call(" * N + "true" + ")" * N, [{}]),
    "negation": ("\\+ " * N + "true", [{}]),  # an even count: succeeds
    # two separately read terms, so not one object
    "equality": (TERMS["nested"] + " == " + TERMS["nested"], [{}]),
}


@pytest.mark.parametrize("name", sorted(GOALS))
def test_solve_a_deep_goal(name):
    goal, answers = GOALS[name]
    db = Database()
    assert [{var: pretty_print(value, db) for var, value in binding.items()}
            for binding in solve(read_term(goal, db), db)] == answers


@pytest.mark.parametrize("name", sorted(TERMS))
def test_print_parse_round_trip(name):
    term = read_term(TERMS[name])
    assert struct_eq(read_term(pretty_print(term)), term)
