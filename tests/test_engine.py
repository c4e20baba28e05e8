import io
import itertools
import random
import tracemalloc

import pytest

from conftest import read_term
from plkit import engine, lexer
from plkit.catalog import load_default_catalog
from plkit.database import Database, PredicateIndicator
from plkit.diagnostics import Severity
from plkit.engine import (
    BUILTIN_INDICATORS,
    Loader,
    SolveLimits,
    Solver,
    consult_sentence,
    consult_source,
    repl,
    solve,
)
from plkit.errors import PrologError
from plkit.lexer import tokenize
from plkit.printer import pretty_print
from plkit.reader import Reader
from plkit.terms import (
    Atom, Compound, Float, Int, OpApply, Str, Term, Var, make_list, struct_eq,
)
from term_gen import TermGen, to_tuple, tt_apply, tt_unify, tt_variant


def load(source, db=None, loader=None):
    db = db or Database()
    sentences, diagnostics = consult_source(source, db, loader or Loader(), "<t>")
    return db, sentences, diagnostics


def solutions(goal_text, db, **kw):
    goal = read_term(goal_text, db)
    return list(solve(goal, db, SolveLimits(**kw) if kw else None))


# --- consulting -----------------------------------------------------------


def test_consult_sentence_runs_directives_and_stores_clauses():
    db = Database()
    source = ":- dynamic(p/1).\np(1).\nq(X) :- p(X).\ns --> [t].\n"
    tokens, _ = tokenize(source, "<t>")
    reader = Reader(source, tokens, db, "<t>")
    kinds = []
    while not reader.at_eof():
        sentence = reader.read_sentence()
        kinds.append(sentence.kind)
        assert consult_sentence(sentence, db, Loader()) == []
    assert kinds == ["directive", "fact", "clause", "dcg_rule"]
    p = db.lookup(PredicateIndicator("p", 1))
    assert "dynamic" in p.properties
    assert [c.head.args[0].value for c in p.clauses] == [1]
    (q_clause,) = db.lookup(PredicateIndicator("q", 1)).clauses
    assert q_clause.body.name == "p"
    assert "dcg" in db.lookup(PredicateIndicator("s", 2)).properties


def test_consult_failure_is_contained(monkeypatch):
    def bomb(goal, db, loader):
        raise PrologError("type_error", "boom")

    monkeypatch.setattr(engine, "exec_directive", bomb)
    db, sentences, diagnostics = load(":- dynamic(p/1).\na.\n")
    assert [d.code for d in diagnostics] == ["type_error"]
    assert diagnostics[0].span == sentences[0].span
    assert db.lookup(PredicateIndicator("a", 0)) is not None


def test_clauses_stored_in_source_order():
    db, _, diagnostics = load("p(1).\np(2) :- q.\np(3).\n")
    assert not diagnostics
    entry = db.lookup(PredicateIndicator("p", 1))
    assert [c.head.args[0].value for c in entry.clauses] == [1, 2, 3]


# --- directives -----------------------------------------------------------


def test_op_directive():
    db, _, diagnostics = load(":- op(650, xfy, with).\na with b with c.\n")
    assert not diagnostics
    assert db.operators.infix("with").priority == 650
    assert len(db.declared_operators) == 1


def test_module_directive():
    db, _, diagnostics = load(":- module(shop, [item/2, price/1]).\n")
    assert not diagnostics
    assert db.module.name == "shop"
    assert PredicateIndicator("item", 2) in db.module.exports
    assert PredicateIndicator("price", 1) in db.module.exports


def test_dynamic_and_discontiguous():
    db, _, diagnostics = load(
        ":- dynamic(counter/1).\n:- discontiguous((a/1, b/2)).\n")
    assert not diagnostics
    assert "dynamic" in db.lookup(PredicateIndicator("counter", 1)).properties
    assert "discontiguous" in db.lookup(PredicateIndicator("a", 1)).properties
    assert "discontiguous" in db.lookup(PredicateIndicator("b", 2)).properties


def test_dcg_indicator_in_declaration():
    db, _, diagnostics = load(":- discontiguous(phrase_bit//1).\n")
    assert not diagnostics
    assert db.lookup(PredicateIndicator("phrase_bit", 3)) is not None


def test_unknown_directive_warns():
    _, _, diagnostics = load(":- does_not_exist(1).\n")
    assert len(diagnostics) == 1
    assert diagnostics[0].severity == Severity.WARNING
    assert diagnostics[0].code == "unknown_directive"


# One directive per check that rejects a directive's argument (an
# unresolved use_module/1 is test_use_module_unresolved_warns): the code of
# each diagnostic and the text of the term it is reported on.
_REJECTED_DIRECTIVES = [
    (":- 1.", [("malformed_directive", "1")]),
    (":- op(foo, xfx, ===).", [("malformed_directive", "foo")]),
    (":- op(700, 1, ===).", [("malformed_directive", "1")]),
    (":- op(700, xfx, [===, 2]).", [("malformed_directive", "2")]),
    (":- module(1, []).", [("malformed_directive", "1")]),
    (":- module(m, foo).", [("malformed_directive", "foo")]),
    (":- module(m, [foo]).", [("malformed_directive", "foo")]),
    (":- use_module(no_such_file, foo).", [("malformed_directive", "foo")]),
    (":- use_module(no_such_file, [foo]).",
     [("malformed_directive", "foo"), ("file_not_found", "no_such_file")]),
    (":- dynamic(foo).", [("malformed_directive", "foo")]),
    (":- include(no_such_file).", [("file_not_found", "no_such_file")]),
    (":- ensure_loaded(no_such_file).", [("file_not_found", "no_such_file")]),
    (":- set_prolog_flag(1, codes).", [("malformed_directive", "1")]),
]


def test_malformed_directive_errors():
    severity = {"malformed_directive": Severity.ERROR,
                "file_not_found": Severity.WARNING}
    for text, expected in _REJECTED_DIRECTIVES:
        _, sentences, diagnostics = load(text + "\n")
        assert [(d.code, text[d.span.start_offset:d.span.end_offset])
                for d in diagnostics] == expected, text
        assert all(d.severity is severity[d.code] for d in diagnostics), text
        assert [s.kind for s in sentences] == ["directive"], text


def test_set_prolog_flag():
    db, _, diagnostics = load(":- set_prolog_flag(double_quotes, codes).\n")
    assert not diagnostics
    assert db.flags["double_quotes"].name == "codes"


def test_use_module_unresolved_warns(tmp_path):
    loader = Loader()
    _, _, diagnostics = load(":- use_module(no_such_library).\n", loader=loader)
    assert any(d.code == "file_not_found" and d.severity == Severity.WARNING
               for d in diagnostics)


def test_use_module_resolves_and_imports_operators(tmp_path):
    lib = tmp_path / "ops.pl"
    lib.write_text(":- module(ops, [plus2/2]).\n"
                   ":- op(650, xfx, ~~>).\n"
                   "plus2(X, Y) :- Y is X + 2.\n", encoding="utf-8")
    main = tmp_path / "main.pl"
    main.write_text(":- use_module(ops).\na ~~> b.\n", encoding="utf-8")
    db2 = Database()
    text = main.read_text(encoding="utf-8")
    sentences, diagnostics = consult_source(text, db2, Loader(), str(main))
    assert not diagnostics
    assert db2.operators.infix("~~>").priority == 650
    assert len(db2.imports) == 1
    assert db2.imports[0].resolved_file == str(lib)


def test_library_search_path(tmp_path):
    libdir = tmp_path / "libs"
    libdir.mkdir()
    (libdir / "util.pl").write_text(
        ":- module(util, [id/1]).\nid(X) :- X = X.\n", encoding="utf-8")
    src = tmp_path / "app.pl"
    src.write_text(":- use_module(library(util)).\n", encoding="utf-8")
    db = Database()
    _, diagnostics = consult_source(src.read_text(encoding="utf-8"), db,
                                    Loader((str(libdir),)), str(src))
    assert not diagnostics
    assert db.imports[0].resolved_file == str(libdir / "util.pl")


def test_include_inlines_sentences(tmp_path):
    inc = tmp_path / "facts.pl"
    inc.write_text("p(1).\np(2).\n", encoding="utf-8")
    src = tmp_path / "main.pl"
    src.write_text(f":- include('{inc}').\nq :- p(1).\n", encoding="utf-8")
    db = Database()
    _, diagnostics = consult_source(src.read_text(encoding="utf-8"), db,
                                    Loader(), str(src))
    assert not diagnostics
    assert len(db.lookup(PredicateIndicator("p", 1)).clauses) == 2


def test_ensure_loaded_is_idempotent(tmp_path):
    other = tmp_path / "other.pl"
    other.write_text("z(9).\n", encoding="utf-8")
    src = tmp_path / "main.pl"
    src.write_text(f":- ensure_loaded('{other}').\n"
                   f":- ensure_loaded('{other}').\n", encoding="utf-8")
    db = Database()
    _, diagnostics = consult_source(src.read_text(encoding="utf-8"), db,
                                    Loader(), str(src))
    assert not diagnostics
    assert str(other) in db.loaded_files


@pytest.mark.parametrize("content", [None, b"p(\xff).\n"], ids=["missing", "not_utf8"])
def test_an_unreadable_file_is_a_cached_consult(tmp_path, content):
    path = tmp_path / "bad.pl"
    if content is not None:
        path.write_bytes(content)
    loader = Loader()
    first = loader.consult_file(str(path))
    db, sentences, diagnostics = first
    assert (db.predicates, sentences) == ({}, [])
    assert [(d.code, d.span.start_offset, d.span.end_offset) for d in diagnostics] == [
        ("unreadable_file", 0, 0)]
    assert diagnostics[0].message.startswith("cannot read bad.pl: ")
    assert loader.consult_file(str(path)) is first


def test_a_consult_frees_tokens_as_it_reads():
    """The reader consumes its token list: consulting a fact file peaks
    below the tokens' own size plus half of what the consult keeps, where
    a reader that held every token until the end would peak at their sum."""
    source = "".join(f"row({k}, {k * 7919 % 10 ** 6}, w{k}).\n" for k in range(3000))
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tokens = tokenize(source, "rows.pl")
        token_size = tracemalloc.get_traced_memory()[0] - base
        del tokens
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = consult_source(source, Database(), Loader(), "rows.pl")
        live, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    assert len(result[0]) == 3000 and not result[1]
    assert peak - base < token_size + (live - base) / 2


# --- solver ---------------------------------------------------------------


def test_fact_query():
    db, _, _ = load("likes(mary, wine).\nlikes(john, beer).\n")
    results = solutions("likes(mary, X)", db)
    assert [to_tuple(r["X"]) for r in results] == [("atom", "wine")]


def test_an_integer_past_the_str_digit_limit_prints():
    db, _, _ = load("p(0, X, X).\n"
                    "p(N, A, X) :- N > 0, M is N - 1, B is A * 10, p(M, B, X).\n")
    (answer,) = solutions("p(5000, 1, X)", db)
    assert pretty_print(answer["X"]) == "1" + "0" * 5000
    with pytest.raises(PrologError) as caught:
        solutions("p(5000, 1, X), call(X)", db)
    assert caught.value.kind == "type_error"
    assert caught.value.message.endswith(": 1" + "0" * 5000)


def test_rule_chaining_and_multiple_solutions():
    db, _, _ = load(
        "parent(tom, bob).\nparent(bob, ann).\nparent(bob, pat).\n"
        "grand(X, Z) :- parent(X, Y), parent(Y, Z).\n")
    results = solutions("grand(tom, W)", db)
    assert [r["W"].name for r in results] == ["ann", "pat"]


def test_unification_builtin():
    db = Database()
    results = solutions("f(X, b) = f(a, Y)", db)
    assert len(results) == 1
    assert results[0]["X"].name == "a"
    assert results[0]["Y"].name == "b"


def test_occurs_check_on_output():
    db = Database()
    assert solutions("X = f(X)", db) == []
    assert solutions("X = f(Y), Y = g(X)", db) == []


def test_not_unify_and_negation():
    db, _, _ = load("p(1).\n")
    assert len(solutions("a \\= b", db)) == 1
    assert solutions("a \\= a", db) == []
    assert len(solutions("\\+ p(2)", db)) == 1
    assert solutions("\\+ p(1)", db) == []


def test_arithmetic():
    db = Database()
    assert solutions("X is 2 + 3 * 4", db)[0]["X"].value == 14
    assert solutions("X is (2 + 4) // 3", db)[0]["X"].value == 2
    assert solutions("X is 7 mod 3", db)[0]["X"].value == 1
    assert solutions("X is 1 / 2", db)[0]["X"].value == 0.5
    assert solutions("X is 4 / 2", db)[0]["X"].value == 2
    assert solutions("X is -(3)", db)[0]["X"].value == -3
    # ISO: // truncates toward zero, mod takes the divisor's sign
    for goal, value in [("X is -7 // 2", -3), ("X is 7 // -2", -3),
                        ("X is -7 // -2", 3), ("X is -7 mod 2", 1),
                        ("X is 7 mod -2", -1)]:
        assert solutions(goal, db)[0]["X"].value == value, goal


def test_arithmetic_comparisons():
    db = Database()
    assert len(solutions("1 + 1 =:= 2", db)) == 1
    assert solutions("1 > 2", db) == []
    assert len(solutions("2 =< 2", db)) == 1
    assert len(solutions("3 =\\= 4", db)) == 1


def test_arithmetic_errors():
    db = Database()
    with pytest.raises(PrologError) as err:
        solutions("X is 1 / 0", db)
    assert err.value.kind == "evaluation_error"
    with pytest.raises(PrologError) as err:
        solutions("X is foo + 1", db)
    assert err.value.kind == "type_error"
    with pytest.raises(PrologError) as err:
        solutions("X is Y + 1", db)
    assert err.value.kind == "instantiation_error"
    for goal in ["X is 7.5 // 2", "X is 7 // 2.0", "X is 7.5 mod 2",
                 "X is 7 mod 2.0"]:
        with pytest.raises(PrologError) as err:
            solutions(goal, db)
        assert err.value.kind == "type_error", goal
    with pytest.raises(PrologError) as err:
        solutions("X is 7 // 0", db)
    assert err.value.kind == "evaluation_error"


FLOAT_GUARDS = """\
times(X, Y, Z) :- Z is X * Y.
minus(X, Y, Z) :- Z is X - Y.
above(X, Y) :- X * Y > 0.
"""
BIG = "9" * 400  # an integer too large for a float


@pytest.mark.parametrize("goal", [
    "X is 1.0e308 * 10",
    "1.0e308 * 10 > 0",
    "X is BIG * 1.5",
    "X is BIG / 7",
    "times(1.0e308, 10, X)",
    "above(1.0e308, 10)",
    "times(BIG, 1.5, X)",
])
def test_float_overflow_is_an_evaluation_error(goal):
    """ISO 9.1.4: a float result that overflows, through the builtin and
    through a clause's inline guard."""
    db, _, _ = load(FLOAT_GUARDS)
    with pytest.raises(PrologError) as err:
        solutions(goal.replace("BIG", BIG), db)
    assert (err.value.kind, err.value.message) == ("evaluation_error", "float overflow")


def test_an_undefined_float_result_is_an_evaluation_error():
    db, _, _ = load(FLOAT_GUARDS)
    infinity = Float(float("inf"))
    for goal in (Compound("is", [Var("X", 1), Compound("-", [infinity, infinity])]),
                 Compound("minus", [infinity, infinity, Var("X", 1)])):
        with pytest.raises(PrologError) as err:
            list(solve(goal, db))
        assert (err.value.kind, err.value.message) == ("evaluation_error", "undefined")


def test_syntactic_equality():
    db = Database()
    assert len(solutions("f(X) == f(X)", db)) == 1
    assert solutions("f(X) == f(Y)", db) == []
    assert len(solutions("f(X) \\== f(Y)", db)) == 1


def test_type_tests():
    db = Database()
    assert len(solutions("atom(foo)", db)) == 1
    assert solutions("atom(f(x))", db) == []
    assert len(solutions("var(X)", db)) == 1
    assert solutions("nonvar(X)", db) == []
    assert len(solutions("number(3.5)", db)) == 1


def test_functor_both_directions():
    db = Database()
    r = solutions("functor(f(a, b), N, A)", db)[0]
    assert r["N"].name == "f" and r["A"].value == 2
    r = solutions("functor(T, point, 2)", db)[0]
    assert to_tuple(r["T"])[:2] == ("compound", "point")
    r = solutions("functor(T, foo, 0)", db)[0]
    assert r["T"].name == "foo"
    r = solutions("functor(foo, N, A)", db)[0]
    assert (r["N"].name, r["A"].value) == ("foo", 0)
    r = solutions("functor(3, N, A)", db)[0]
    assert (r["N"].value, r["A"].value) == (3, 0)
    with pytest.raises(PrologError) as err:
        solutions("functor(T, 1, 2)", db)
    assert err.value.kind == "type_error"


def test_arg_and_univ():
    db = Database()
    assert solutions("arg(2, f(a, b, c), X)", db)[0]["X"].name == "b"
    r = solutions("f(a, b) =.. L", db)[0]
    assert to_tuple(r["L"]) == (
        "compound", ".",
        [("atom", "f"),
         ("compound", ".",
          [("atom", "a"),
           ("compound", ".", [("atom", "b"), ("atom", "[]")])])])
    assert solutions("T =.. [g, 1]", db)[0]["T"].name == "g"
    assert to_tuple(solutions("foo =.. L", db)[0]["L"]) == (
        "compound", ".", [("atom", "foo"), ("atom", "[]")])
    assert to_tuple(solutions("3 =.. L", db)[0]["L"]) == (
        "compound", ".", [("int", 3), ("atom", "[]")])
    assert to_tuple(solutions("X =.. [a]", db)[0]["X"]) == ("atom", "a")
    for goal, kind in [("T =.. [g|_]", "instantiation_error"),
                       ("T =.. foo", "type_error"),
                       ("T =.. [g|b]", "type_error")]:
        with pytest.raises(PrologError) as err:
            solutions(goal, db)
        assert err.value.kind == kind, goal


def test_control_constructs():
    db, _, _ = load("p(1).\np(2).\n")
    assert len(solutions("p(1) ; p(9)", db)) == 1
    assert len(solutions("p(9) ; p(2)", db)) == 1
    assert [r["X"].value for r in solutions("(p(X), X > 1)", db)] == [2]
    # if-then-else commits to the first condition solution
    assert solutions("(p(X) -> true ; fail)", db)[0]["X"].value == 1
    assert solutions("(p(9) -> X = yes ; X = no)", db)[0]["X"].name == "no"
    # if-then without else fails when its condition fails, and else
    # commits to the first condition solution
    assert solutions("( true -> X = 1 )", db)[0]["X"].value == 1
    assert solutions("( fail -> X = 1 )", db) == []
    assert [r["X"].value for r in solutions("( p(X) -> true )", db)] == [1]


def test_call():
    db, _, _ = load("p(7).\n")
    assert solutions("G = p(X), call(G)", db)[0]["X"].value == 7


@pytest.mark.parametrize("goal", [
    # ISO/IEC 13211-1 §7.8.3.4: the whole body is checked before it runs
    "call((fail, 1))",
    "call((write(3), 1))",
    "call((1 ; true))",
    "G = (fail, 1), call(G)",
    "G = (fail -> true ; 1.5), G",
])
def test_call_of_a_body_that_is_not_callable(goal):
    with pytest.raises(PrologError) as err:
        solutions(goal, Database())
    assert err.value.kind == "type_error"


def test_call_of_a_body_with_a_variable_runs():
    assert solutions("call((fail, X))", Database()) == []
    assert len(solutions("G = (true ; X), call(G)", Database(),
                         max_solutions=1)) == 1


def test_unknown_predicate_raises_existence_error():
    db = Database()
    with pytest.raises(PrologError) as err:
        solutions("no_such_thing(1)", db)
    assert err.value.kind == "existence_error"


def test_calling_a_dcg_rule_raises_existence_error():
    # a DCG rule is stored at name/N+2, untranslated: the solver runs
    # neither its body nor a nonterminal's written arity
    db, _, diagnostics = load("s --> [t].\n")
    assert not diagnostics
    for goal, indicator in (("s", "s/0"), ("s(A, B)", "s/2")):
        for _ in range(2):  # also once the predicate has been called
            with pytest.raises(PrologError) as err:
                solutions(goal, db)
            assert err.value.kind == "existence_error"
            assert err.value.message == f"unknown predicate {indicator}"


def test_prelude_library_predicates():
    db = Database()
    assert [r["X"].value for r in solutions("member(X, [1,2])", db)] == [1, 2]
    assert [r["X"].value for r in solutions("between(1, 3, X)", db)] == [1, 2, 3]
    assert len(solutions("append(X, Y, [1,2])", db)) == 3
    assert solutions("length([a,b,c], N)", db)[0]["N"].value == 3
    assert len(solutions("length(L, 2), L = [_,_]", db)) == 1
    assert [r["I"].value for r in solutions("nth0(I, [a,b], b)", db)] == [1]
    assert solutions("nth1(2, [a,b,c], X)", db)[0]["X"].name == "b"
    assert solutions("last([1,2,3], X)", db)[0]["X"].value == 3
    reversed_ = solutions("reverse([1,2,3], R)", db)[0]["R"]
    assert struct_eq(reversed_, read_term("[3,2,1]"))


def test_user_definition_wins_over_prelude():
    db, _, _ = load("append(_, _, mine).\n")
    assert [r["X"].name for r in solutions("append([], [], X)", db)] == ["mine"]
    # the other prelude predicates stay available
    assert len(solutions("member(a, [a])", db)) == 1
    # and the prelude's own calls still see the prelude's append/3
    reversed_ = [r["R"] for r in solutions("reverse([1,2], R)", db)]
    assert len(reversed_) == 1 and struct_eq(reversed_[0], read_term("[2,1]"))


def test_depth_limit_terminates():
    db, _, _ = load("loop :- loop.\n")
    with pytest.raises(PrologError) as err:
        solutions("loop", db, max_depth=50)
    assert err.value.kind == "resource_error"


def test_depth_limit_counts_nested_calls():
    db, _, _ = load(COUNT)
    # count(n) nests n + 1 calls of count/1
    assert len(solutions("count(49)", db, max_depth=50)) == 1
    with pytest.raises(PrologError) as err:
        solutions("count(50)", db, max_depth=50)
    assert err.value.kind == "resource_error"


# --- cut ------------------------------------------------------------------

CUT_PROGRAM = """\
m(1).
m(2).
m(3).
first(X) :- m(X), !.
in_branch(X) :- ( m(X), ! ; X = 9 ).
in_branch(8).
in_condition(X) :- ( (!, fail) -> X = 0 ; X = 1 ).
in_condition(2).
in_negation(X) :- \\+ (!, fail), X = 1.
in_negation(2).
in_call(X) :- call(!), m(X).
in_call(4).
"""


@pytest.mark.parametrize("goal, answers", [
    ("first(X)", [1]),
    ("in_branch(X)", [1]),  # a cut in a ';' branch cuts the clause
    # a cut in an if-then-else condition, in \+ and in call/1 is local
    ("in_condition(X)", [1, 2]),
    ("in_negation(X)", [1, 2]),
    ("in_call(X)", [1, 2, 3, 4]),
])
def test_cut(goal, answers):
    db, _, diagnostics = load(CUT_PROGRAM)
    assert not diagnostics
    assert [r["X"].value for r in solutions(goal, db)] == answers


def test_cut_at_top_level_commits():
    db, _, _ = load(CUT_PROGRAM)
    assert [r["X"].value for r in solutions("m(X), !", db)] == [1]
    assert [r["X"].value for r in solutions("(m(X) ; X = 4), X > 1, !", db)] == [2]


# --- scale: none of these may raise RecursionError ------------------------

COUNT = "count(0).\ncount(N) :- N > 0, N1 is N - 1, count(N1).\n"
NREV = ("app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n"
        "nrev([], []).\nnrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n")


def nrev_goal(n):
    return Compound("nrev", [make_list([Int(i) for i in range(n)]), Var("R", -1)])


def int_list(term):
    values = []
    while isinstance(term, Compound) and term.name == ".":
        values.append(term.args[0].value)
        term = term.args[1]
    assert isinstance(term, Atom) and term.name == "[]"
    return values


def test_long_countdown():
    db, _, _ = load(COUNT)
    assert len(solutions("count(5000)", db)) == 1


def test_nrev_1000():
    db, _, _ = load(NREV)
    solver = Solver(db)
    answers = solver.solve(nrev_goal(1000))
    result = next(answers)
    assert int_list(result["R"]) == list(reversed(range(1000)))
    # the run leaves no choicepoint, so it trails (almost) no binding
    assert len(solver.trail) < 1000
    assert list(answers) == []


def test_long_list_unifies():
    db = Database()
    items = make_list([Int(i) for i in range(1, 3001)])
    (result,) = solve(Compound("=", [Var("X", -1), items]), db)
    assert int_list(result["X"]) == list(range(1, 3001))
    copy = make_list([Int(i) for i in range(1, 3001)])
    assert len(list(solve(Compound("==", [items, copy]), db))) == 1


def test_cyclic_unification_terminates():
    db = Database()
    assert solutions("X = f(X), Y = f(Y), X = Y", db) == []
    assert solutions("X = f(X), Y = f(Y), X == Y", db) == []


@pytest.mark.parametrize("goal, kind", [
    ("X = X + 1, Y is X", "type_error"),
    ("X = f(X), Y is X", "type_error"),
    ("X = (true, X), call(X)", "resource_error"),
    ("X = (fail ; X), X", "resource_error"),
    ("X = [a|X], T =.. X", "type_error"),
])
def test_cyclic_goals_raise(goal, kind):
    with pytest.raises(PrologError) as err:
        solutions(goal, Database(), max_depth=50)
    assert err.value.kind == kind


def test_prelude_recursion_is_not_bounded_by_python():
    db = Database()
    assert solutions(f"length({list(range(400))}, N)", db)[0]["N"].value == 400
    assert len(solutions("between(1, 1000, 400)", db)) == 1
    assert [r["X"].value for r in solutions("between(1, 1000, X), X > 998", db)] \
        == [999, 1000]


# --- resolution steps and indexing ------------------------------------------


def test_one_solve_user_call_per_predicate_call(monkeypatch):
    calls = []
    original = Solver._solve_user

    def counted(self, key, args, home):
        calls.append(key)
        return original(self, key, args, home)

    monkeypatch.setattr(Solver, "_solve_user", counted)
    db, _, _ = load(NREV)
    assert len(list(solve(nrev_goal(30), db))) == 1
    assert len(calls) == 31 * 32 // 2
    # backtracking into another clause is not another call
    calls.clear()
    db, _, _ = load(CUT_PROGRAM)
    assert len(solutions("m(X)", db)) == 3
    assert calls == [("m", 1)]


def test_nrev_builds_only_its_list_cells(monkeypatch):
    db, _, _ = load(NREV)
    goal = nrev_goal(30)
    built = []
    original = Compound.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    def new(cls):
        term = object.__new__(cls)
        if isinstance(term, Compound):
            built.append(term)
        return term

    monkeypatch.setattr(Compound, "__init__", counted)
    # clause code makes its terms with the `new` of its globals, so count
    # what code generated afresh makes with it
    monkeypatch.setattr(engine, "_SHAPES", {})
    monkeypatch.setattr(engine, "_CODE_GLOBALS", {**engine._CODE_GLOBALS, "new": new})
    assert len(list(solve(goal, db))) == 1
    # the query's 31 compounds, then one list cell per inference but the
    # first: body goals are handed to the solver as (callee, args), not built
    assert len(built) == 496


def test_clause_code_builds_complete_terms():
    """Clause code makes its terms without their constructors; each slot a
    constructor sets holds the same value as on a term the constructor
    builds, and a slot that it leaves unset stays unset."""
    db, _, _ = load("p(f(N), g(M)) :- I is M + 1, F is M / 2.0, q(h(I, F, V, N)).\n")
    _, code, constants = engine._compile_clause(db.lookup(("p", 2)).clauses[0])
    solver = Solver(db)
    x = engine.RuntimeVar("X", 0)
    (_, (h,)), = code(solver, (x, Compound("g", [Int(3)])), constants)
    f = x.ref  # the head compound that binds X
    i, fl, v, n = h.args
    assert (type(i), type(fl), n) == (Int, Float, f.args[0])
    missing = object()
    for term, twin in [(f, Compound(f.name, f.args)), (h, Compound(h.name, h.args)),
                       (i, Int(i.value)), (fl, Float(fl.value)),
                       (v, engine.RuntimeVar(v.name, v.vid)),
                       (n, engine.RuntimeVar(n.name, n.vid))]:
        assert type(term) is type(twin)
        slots = [slot for cls in type(term).__mro__
                 for slot in cls.__dict__.get("__slots__", ())]
        assert {slot: getattr(term, slot, missing) for slot in slots} == \
            {slot: getattr(twin, slot, missing) for slot in slots}
        assert term.span is None and getattr(term, "functor_span", None) is None


def test_counters_on_nrev():
    db, _, _ = load(NREV)
    solver = Solver(db)
    answers = solver.solve(nrev_goal(30))
    next(answers)
    # every call has one candidate clause, so no choicepoint is ever made
    # and no binding is trailed
    assert len(solver.trail) == 0
    assert list(answers) == [] and len(solver.trail) == 0
    assert solver.inferences == 31 * 32 // 2
    assert solver.backtracks == 0
    # each level's app/3 recursion reaches as deep as the innermost nrev/2
    assert solver.deepest == 31


def test_counters_on_backtracking_and_depth():
    db, _, _ = load(CUT_PROGRAM + COUNT)
    solver = Solver(db)
    assert len(list(solver.solve(read_term("m(X)", db)))) == 3
    assert (solver.inferences, solver.backtracks) == (1, 2)
    solver = Solver(db, SolveLimits(max_depth=50))
    assert len(list(solver.solve(read_term("count(49)", db)))) == 1
    assert solver.deepest == 50


def test_first_argument_index_keeps_source_order():
    db, _, _ = load("p(a, 1).\np(_, 2).\np(b, 3).\np(a, 4).\n"
                    "p(_, 5).\np(f(x), 6).\np(1, 7).\np(a, 8).\n")
    assert [r["N"].value for r in solutions("p(a, N)", db)] == [1, 2, 4, 5, 8]
    assert [r["N"].value for r in solutions("p(f(Y), N)", db)] == [2, 5, 6]
    assert [r["N"].value for r in solutions("p(1, N)", db)] == [2, 5, 7]
    assert [r["N"].value for r in solutions("p(K, N)", db)] == list(range(1, 9))


LATER = """\
q(1, a, x).
q(2, _, y).
q(3, b, x).
q(4, a, _).
q(5, _, z).
q(6, a, x).
q(7, f(k), x).
q(8, f(k, l), x).
q(9, g(k), _).
"""


def test_later_argument_index_keeps_source_order():
    db, _, _ = load(LATER)
    # bound only on the second argument, then only on the third
    assert [r["N"].value for r in solutions("q(N, a, T)", db)] == [1, 2, 4, 5, 6]
    assert [r["N"].value for r in solutions("q(N, K, x)", db)] == [1, 3, 4, 6, 7, 8, 9]
    assert [r["N"].value for r in solutions("q(N, K, z)", db)] == [4, 5, 9]
    # a compound is keyed by name/arity
    assert [r["N"].value for r in solutions("q(N, f(Y), T)", db)] == [2, 5, 7]
    assert [r["N"].value for r in solutions("q(N, g(k), T)", db)] == [2, 5, 9]
    assert [r["N"].value for r in solutions("q(N, c, T)", db)] == [2, 5]


def test_argument_index_keys_are_distinct():
    db, _, _ = load("k(p, 1, int).\nk(p, '1', atom).\nk(p, 1.0, float).\n"
                    "k(p, f(a), f1).\nk(p, f(a, b), f2).\nk(p, g(a), g1).\n")
    for goal, answer in [("k(P, 1, W)", "int"), ("k(P, '1', W)", "atom"),
                         ("k(P, 1.0, W)", "float"), ("k(P, f(X), W)", "f1"),
                         ("k(P, f(X, Y), W)", "f2")]:
        solver = Solver(db)
        assert [r["W"].name for r in solver.solve(read_term(goal, db))] == [answer]
        # the index left one candidate clause: no choicepoint was made
        assert solver.backtracks == 0, goal


def test_assert_clause_drops_a_later_argument_index():
    db, _, _ = load("s(a, 1).\ns(b, 2).\n")
    assert [r["K"].name for r in solutions("s(K, 1)", db)] == ["a"]
    db.assert_clause(read_term("s(c, 1)"), Atom("true"))
    assert [r["K"].name for r in solutions("s(K, 1)", db)] == ["a", "c"]


# --- one-candidate calls ----------------------------------------------------


SUM_TO = ("sum_to(0, S, S).\n"
          "sum_to(N, A, S) :- N > 0, A1 is A + N, N1 is N - 1, sum_to(N1, A1, S).\n")


def counted_run(db, goal_text, messages=False, **limits):
    """Each answer, printed, with the trail length at it, or the error kind
    (with its message if `messages`); then the solver's inferences,
    backtracks, deepest and trail length."""
    solver = Solver(db, SolveLimits(**limits) if limits else None)
    try:
        outcome = [({name: pretty_print(value) for name, value in binding.items()},
                    len(solver.trail))
                   for binding in solver.solve(read_term(goal_text, db))]
    except PrologError as err:
        outcome = (err.kind, err.message) if messages else err.kind
    return outcome, solver.inferences, solver.backtracks, solver.deepest, len(solver.trail)


def test_counters_on_sum_to():
    db, _, _ = load(SUM_TO)
    # sum_to(N, ...) with N > 0 has one candidate; sum_to(0, ...) has two and
    # makes the run's one choicepoint, which trails S and is popped at the end
    assert counted_run(db, "sum_to(50, 0, S)") == ([({"S": "1275"}, 1)], 51, 1, 51, 0)


def test_one_candidate_head_that_fails_is_undone():
    db, _, _ = load("p(a, f(1)).\n")
    # p(X, f(2)) is indexed on f(2): one candidate, whose head binds X to a
    # and then fails; only the ';' choicepoint is popped
    assert counted_run(db, "(p(X, f(2)) ; true), var(X)") == ([({"X": "X"}, 0)], 1, 1, 1, 0)
    assert counted_run(db, "p(X, f(2))") == ([], 1, 0, 1, 0)


def test_cut_in_a_one_candidate_clause_cuts_to_its_call():
    db, _, _ = load(CUT_PROGRAM + "two(X, Y) :- m(X), first(Y).\n")
    # first/1 has one clause: its cut drops m(Y)'s choicepoint, not m(X)'s
    assert counted_run(db, "two(X, Y)") == (
        [({"X": "1", "Y": "1"}, 2), ({"X": "2", "Y": "1"}, 2), ({"X": "3", "Y": "1"}, 1)],
        8, 2, 3, 1)


def test_deterministic_recursion_stops_at_the_depth_limit():
    db, _, _ = load("up(N) :- N1 is N + 1, up(N1).\n")
    assert counted_run(db, "up(0)", max_depth=50) == ("resource_error", 50, 0, 50, 0)


def test_one_candidate_clause_past_the_size_bound_runs_the_walker():
    nested, ground = "X", "a"
    for _ in range(30):
        nested, ground = f"f({nested})", f"f({ground})"
    db, _, _ = load(f"deep(X, {nested}) :- atom(X).\n")
    assert counted_run(db, f"deep(Y, {ground})") == ([({"Y": "a"}, 0)], 1, 0, 1, 0)
    assert [clause[1] for clause in db.lookup(("deep", 2)).compiled.clauses] \
        == [engine._walk_clause]
    assert counted_run(db, f"(deep(b, {ground}) ; true)") == ([({}, 0)], 1, 1, 1, 0)
    assert counted_run(db, f"deep(Y, {ground.replace('(a)', '(1)')})") == ([], 1, 0, 1, 0)


@pytest.mark.parametrize("goals, walker", [(399, False), (400, True)])
def test_the_size_bound_counts_the_terms_of_a_clause_not_its_calls(goals, walker):
    # each atom goal is one node; naming its callee adds no node
    db, _, _ = load(f"big :- {', '.join(['p'] * goals)}.\np.\n")
    assert counted_run(db, "big") == ([({}, 0)], goals + 1, 0, 2, 0)
    code = db.lookup(("big", 0)).compiled.clauses[0][1]
    assert (code is engine._walk_clause) is walker


def test_other_bound_arguments_are_keyed_by_index_key(monkeypatch):
    db, _, _ = load('k(1.5, float).\nk("s", string).\nk(1 + 2, operator).\n'
                    "k(a, atom).\nk(f(b), compound).\n")
    assert len(solutions("k(a, W)", db)) == 1  # builds the first-argument index
    keyed = []
    original = engine._index_key

    def recorded(term):
        keyed.append(type(term))
        return original(term)

    monkeypatch.setattr(engine, "_index_key", recorded)
    output = run_repl('k(1.5, W).\nk("s", W).\nk(1 + 2, W).\nk(f(Y), W).\n', db)
    for answer in ("float", "string", "operator", "compound"):
        assert f"W = {answer}" in output
    # an exact Atom or Compound is keyed in place
    assert keyed == [Float, Str, OpApply]


# --- call sites: a compiled body goal names its callee -----------------------


def test_a_call_site_sees_a_predicate_consulted_later():
    db, _, _ = load("r(X) :- q(X).\n")
    assert counted_run(db, "r(X)", messages=True) == (
        ("existence_error", "unknown predicate q/1"), 2, 0, 2, 0)
    load("q(1).\n", db)
    assert counted_run(db, "r(X)", messages=True) == ([({"X": "1"}, 0)], 2, 0, 2, 0)


def test_a_call_site_sees_a_definition_that_shadows_the_prelude():
    db, _, _ = load("s(L) :- append([1], [2], L).\n")
    assert counted_run(db, "s(L)", messages=True) == ([({"L": "[1,2]"}, 0)], 3, 0, 3, 0)
    load("append(_, _, mine).\n", db)
    assert counted_run(db, "s(L)", messages=True) == ([({"L": "mine"}, 0)], 2, 0, 2, 0)


def test_a_call_site_sees_a_clause_added_to_its_callee():
    db, _, _ = load("t(X) :- u(X).\nu(1).\n")
    assert counted_run(db, "t(X)", messages=True) == ([({"X": "1"}, 0)], 2, 0, 2, 0)
    load("u(2).\n", db)
    assert counted_run(db, "t(X)", messages=True) == (
        [({"X": "1"}, 1), ({"X": "2"}, 0)], 2, 1, 2, 0)


def test_a_dcg_nonterminal_called_as_a_goal_raises_on_every_call():
    db, _, _ = load("greet --> [hi].\ng(S) :- greet(S, []).\n")
    unknown = ("existence_error", "unknown predicate greet/2")
    assert counted_run(db, "g(S)", messages=True) == (unknown, 2, 0, 2, 0)
    assert counted_run(db, "g(S)", messages=True) == (unknown, 2, 0, 2, 0)
    assert counted_run(db, "greet(S, [])", messages=True) == (unknown, 1, 0, 1, 0)


def test_a_body_goal_that_is_not_callable_raises_on_every_call():
    db, _, _ = load('x :- 1.\nw :- "str".\n')
    for goal in ("x", "x", "w", "w"):
        assert counted_run(db, goal, messages=True) == (
            ("type_error", "goal must be callable"), 1, 0, 1, 0)


NATIVES = """\
n1(X, Y) :- atom(X), X = Y.
n1(X, Y) :- X = f(Y).
n2(X) :- X \\= a.
n3(X, Y) :- X == Y.
n4(T, N, A) :- functor(T, N, A).
n5(N, T, A) :- arg(N, T, A).
n6(T, L) :- T =.. L.
n7 :- atom(a), functor(f(a), f, 1), f(a) = f(a).
n8 :- fail.
n9 :- n7.
n10 :- n5(1, f(a), a).
"""


@pytest.mark.parametrize("goal, outcome, inferences, backtracks", [
    ("n1(a, W)", [({"W": "a"}, 1)], 1, 1),
    ("n1(Z, W)", [({"Z": "f(W)", "W": "W"}, 0)], 1, 1),
    ("n1(f(b), W)", [({"W": "b"}, 0)], 1, 1),
    ("n2(b)", [({}, 0)], 1, 0),
    ("n2(a)", [], 1, 0),
    ("n2(Y)", [], 1, 0),
    ("n3(A, A)", [({"A": "A"}, 0)], 1, 0),
    ("n3(A, B)", [], 1, 0),
    ("n4(f(a, b), N, A)", [({"N": "f", "A": "2"}, 0)], 1, 0),
    ("n4(T, foo, 2)", [({"T": "foo(_,_)"}, 0)], 1, 0),
    ("n4(T, N, 2)", ("instantiation_error", "functor/3: underinstantiated"), 1, 0),
    ("n4(T, foo, -1)", ("type_error", "functor/3: bad arity"), 1, 0),
    ("n5(2, f(a, b), A)", [({"A": "b"}, 0)], 1, 0),
    ("n5(N, f(a), A)", ("instantiation_error", "arg/3: underinstantiated"), 1, 0),
    ("n5(a, f(a), A)", ("type_error", "arg/3: bad arguments"), 1, 0),
    ("n5(3, f(a), A)", [], 1, 0),
    ("n6(f(a), L)", [({"L": "[f,a]"}, 0)], 1, 0),
    ("n6(T, [g, 1])", [({"T": "g(1)"}, 0)], 1, 0),
    ("n6(T, [])", ("domain_error", "=../2: empty list"), 1, 0),
    ("n6(T, [1, 2])", ("type_error", "=../2: functor must be an atom"), 1, 0),
    ("n6(T, L)", ("instantiation_error", "=../2: partial list"), 1, 0),
    ("n7", [({}, 0)], 1, 0),
    ("n8", [], 1, 0),
    ("n9", [({}, 0)], 2, 0),
    ("n10", [({}, 0)], 2, 0),
])
def test_natives_called_from_clause_code(goal, outcome, inferences, backtracks):
    db, _, _ = load(NATIVES)
    assert counted_run(db, goal, messages=True) == (outcome, inferences, backtracks, inferences, 0)


@pytest.mark.parametrize("goal, outcome, counts", [
    ("call(G)", ("instantiation_error", "unbound goal"), (0, 0, 1)),
    ("G", ("instantiation_error", "unbound goal"), (0, 0, 1)),
    ("G = 3, call(G)", ("type_error", "goal must be callable: 3"), (0, 0, 0)),
    ("G = !, G", [({"G": "!"}, 0)], (0, 0, 1)),
    ("G = [], call(G)", ("existence_error", "unknown predicate []/0"), (1, 0, 2)),
])
def test_term_goals(goal, outcome, counts):
    """Goals that reach the solver as terms, not from clause code: the
    (inferences, backtracks, deepest) they count, and their outcome."""
    assert counted_run(Database(), goal, messages=True) == (outcome, *counts, 0)


# --- conditional trailing ----------------------------------------------------


@pytest.mark.parametrize("goal", [
    # \= and \== undo the bindings they try, also of a variable younger
    # than every choicepoint
    "f(Y, a) \\= f(1, b), var(Y)",
    "Y \\== Z, Y = 1, var(Z)",
    "\\+ \\+ Y = 1, var(Y)",
    # a head that binds X and then fails, with a clause left, is undone
    "r(X, f(2)), var(X)",
])
def test_bindings_are_undone(goal):
    db, _, _ = load("r(a, f(1)).\nr(Z, f(2)).\n")
    assert len(solutions(goal, db)) == 1


def test_query_term_is_never_bound():
    db, _, _ = load("p(1).\np(2).\n")
    goal = read_term("p(X), Y = f(X)", db)
    limits = SolveLimits(max_solutions=1)
    first = list(solve(goal, db, limits))
    assert [r["X"].value for r in first] == [1]
    # the abandoned run left the parsed term as it was
    again = list(solve(goal, db))
    assert [r["X"].value for r in again] == [1, 2]
    assert struct_eq(again[1]["Y"], read_term("f(2)"))
    assert struct_eq(goal, read_term("p(X), Y = f(X)"))


def test_assert_clause_drops_the_compiled_form():
    db, _, _ = load("q(1).\n")
    assert len(solutions("q(X)", db)) == 1
    db.assert_clause(read_term("q(2)"), Atom("true"))
    assert [r["X"].value for r in solutions("q(X)", db)] == [1, 2]


def test_solution_cap_on_infinite_relation():
    db, _, _ = load("nat(z).\nnat(s(N)) :- nat(N).\n")
    results = solutions("nat(X)", db, max_solutions=5)
    assert len(results) == 5


def test_catalog_documents_exactly_the_registry():
    assert set(load_default_catalog()) == set(BUILTIN_INDICATORS)


def test_builtin_set_is_closed():
    # the user database may not shadow a built-in silently: names used by
    # the solver dispatch table all appear in the published indicator set
    assert ("=", 2) in BUILTIN_INDICATORS
    assert ("is", 2) in BUILTIN_INDICATORS
    assert ("functor", 3) in BUILTIN_INDICATORS
    assert ("\\+", 1) in BUILTIN_INDICATORS


def test_solver_returns_mgu():
    db = Database()
    cases = [
        ("f(X, b)", "f(a, Y)"),
        ("g(X, X)", "g(Y, a)"),
        ("h(X)", "h(Y)"),
        ("t(X, f(X))", "t(a, Z)"),
    ]
    for left, right in cases:
        goal = read_term(f"{left} = {right}", db)
        result = list(solve(goal, db))
        t1, t2 = to_tuple(goal.args[0]), to_tuple(goal.args[1])
        oracle = tt_unify(t1, t2)
        assert oracle is not None and len(result) == 1
        binding = {name: to_tuple(value)
                   for name, value in result[0].items()}
        assert tt_variant(tt_apply(binding, t1), tt_apply(oracle, t1))


# --- clause code ------------------------------------------------------------

# Quoted atoms and strings that would break generated code if it held them
# as source text, and Python keywords as functor names.
QUOTED = r"""
q('it''s', "say \"\"\" now").
q('back\\slash', "new\nline").
q('__import__(''os'')', "__import__('os').system('true')").
q('\"\"\"', "'''").
'def'(class, 'None') :- 'return'(X), X = lambda.
'return'(lambda).
'if'(X, Y) :- q(X, Y).
'K'('K', "K[0]", f('K[1]', Y), Y).
"""
QUOTED_GOALS = ["q(A, S)", "'if'(A, S)", "'def'(A, B)", "'K'(A, B, C, D)",
                "q('__import__(''os'')', S)", "q(A, \"'''\")", "q(A, \"'\")"]


def exact(term):
    """A solution's term as tuples, each variable with its name and vid."""
    if isinstance(term, Var):
        return ("var", term.name, term.vid)
    if isinstance(term, Compound):
        return ("compound", term.name, [exact(arg) for arg in term.args])
    return to_tuple(term)


def all_answers(db, goals):
    return [[{name: exact(value) for name, value in binding.items()}
             for binding in solve(read_term(goal, db), db)] for goal in goals]


def test_quoted_constants_reach_clause_code_as_values(monkeypatch):
    db, _, diagnostics = load(QUOTED)
    assert not diagnostics
    generated = all_answers(db, QUOTED_GOALS)
    assert all(clause[1] is not engine._walk_clause
               for entry in db.predicates.values()
               for clause in entry.compiled.clauses)
    assert [(answer["A"], answer["S"]) for answer in generated[0]] == [
        (("atom", "it's"), ("str", 'say """ now')),
        (("atom", "back\\slash"), ("str", "new\nline")),
        (("atom", "__import__('os')"), ("str", "__import__('os').system('true')")),
        (("atom", '"""'), ("str", "'''")),
    ]
    assert generated[1] == generated[0]
    assert generated[2] == [{"A": ("atom", "class"), "B": ("atom", "None")}]
    (answer,) = generated[3]
    assert answer["C"][:2] == ("compound", "f") and answer["C"][2][0] == ("atom", "K[1]")
    assert generated[5] == [{"A": ("atom", '"""')}] and generated[6] == []
    monkeypatch.setattr(engine, "_CODE_NODES", 0)
    db, _, _ = load(QUOTED)
    assert all_answers(db, QUOTED_GOALS) == generated


def test_head_code_matches_a_parsed_operator_term():
    db, _, _ = load("parts(X + Y, X, Y).\n")
    goal = read_term("parts(1 + 2, A, B)", db)
    # the reader's operator term, ground, is shared into the run as it is
    assert type(goal.args[0]) is OpApply
    (answer,) = solve(goal, db)
    assert (answer["A"].value, answer["B"].value) == (1, 2)


def random_program(seed: int):
    """A program over TermGen terms: facts q/1, rules r/2 that call q/1 and
    rules p/2 that call r/2 and q/1; and goals that call each."""
    gen = TermGen(seed)
    rng = gen.rng
    db = Database()

    def call(callees):
        name, arity = rng.choice(callees)
        return Compound(name, [gen.term(2) for _ in range(arity)])

    def goal(callees):
        roll = rng.random()
        if roll < 0.5:
            return call(callees)
        if roll < 0.65:
            return Compound("=", [gen.term(3), gen.term(3)])
        if roll < 0.75:
            return Compound("\\+", [call(callees)])
        if roll < 0.85:
            return Compound(";", [call(callees), call(callees)])
        if roll < 0.9:
            return Atom("!")
        if roll < 0.95:
            return Atom("true")
        return gen.var()  # runs as call/1

    for name, arity, count, callees in (("q", 1, 8, ()),
                                        ("r", 2, 6, [("q", 1)]),
                                        ("p", 2, 6, [("q", 1), ("r", 2)])):
        for _ in range(count):
            gen.fresh_sentence()
            head = Compound(name, [gen.term(3) for _ in range(arity)])
            body: Term = Atom("true")
            for _ in range(rng.randint(0, 3) if callees else 0):
                body = Compound(",", [goal(callees), body])
            db.assert_clause(head, body)
    goals = []
    for callees in ([("q", 1)], [("r", 2)], [("p", 2)]) * 4:
        gen.fresh_sentence()
        goals.append(call(callees))
    return db, goals


def solve_program(seed: int, program=random_program):
    """Each goal's answers with the trail length after each, or its error,
    and the solver's counters after it."""
    db, goals = program(seed)
    solver = Solver(db, SolveLimits(max_depth=20, max_solutions=20))
    runs = []
    for goal in goals:
        try:
            outcome = [({name: exact(value) for name, value in binding.items()},
                        len(solver.trail)) for binding in solver.solve(goal)]
        except PrologError as err:
            outcome = err.kind
        runs.append((outcome, solver.inferences, solver.backtracks,
                     solver.deepest, len(solver.trail)))
    return runs


def test_clause_code_agrees_with_the_template_walker(monkeypatch):
    seeds = range(60)
    generated = [solve_program(seed) for seed in seeds]
    monkeypatch.setattr(engine, "_CODE_NODES", 0)
    walked = [solve_program(seed) for seed in seeds]
    for seed, (ours, theirs) in enumerate(zip(generated, walked)):
        assert ours == theirs, seed
    # the goals do more than fail
    outcomes = [run[0] for runs in generated for run in runs]
    assert sum(isinstance(o, list) and len(o) > 0 for o in outcomes) > 50


# the rarer operands of a guard: a float, one that overflows, an atom, a
# ground evaluable compound and one that is not evaluable
ODD_OPERANDS = [Float(0.5), Float(1.0e300), Atom("a"), Compound("+", [Int(1), Int(2)]),
                Compound("foo", [Int(1)])]


def random_guard_program(seed: int):
    """A program of g/2 clauses whose bodies start with is/2 and comparison
    guards over the head's variables, integers, floats, atoms, unbound
    variables and zero divisors, with bound, compound and fresh `is` left
    sides, then call n/1; and goals that call g/2."""
    rng = random.Random(seed)
    vids = itertools.count(1)

    def var(name):
        return Var(name, next(vids))

    def operand(known):
        roll = rng.random()
        if roll < 0.5:
            return rng.choice(known)
        if roll < 0.9:
            return Int(rng.randint(-3, 3))
        return var("U") if roll < 0.91 else rng.choice(ODD_OPERANDS)

    def expression(depth, known):
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            return operand(known)
        if roll < 0.5:
            return Compound(rng.choice(["-", "abs"]), [expression(depth - 1, known)])
        name = rng.choice(["+", "-", "*"] * 5 + ["/", "//", "mod", "foo"])
        return Compound(name, [expression(depth - 1, known), expression(depth - 1, known)])

    db = Database()
    for n in (Int(0), Int(1), Int(2), Float(2.5), Atom("a")):
        db.assert_clause(Compound("n", [n]), Atom("true"))
    for _ in range(5):
        x, y = var("X"), var("Y")
        head = Compound("g", [rng.choice([x, x, Compound("f", [x]), Int(2)]),
                              rng.choice([y, y, Int(3)])])
        known = [x]  # Y may be unbound
        goals = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                left = rng.choice([var("Z"), var("Z"), x, y, Int(3), Float(4.0),
                                   Compound("f", [var("W")])])
                goals.append(Compound("is", [left, expression(2, known)]))
                if type(left) is Var and left is not y:
                    known.append(left)
            else:
                op = rng.choice(["<", ">", "=<", ">=", "=:=", "=\\="])
                goals.append(Compound(op, [expression(2, known), expression(1, known)]))
        goals.append(Compound("n", [rng.choice(known + [y, var("V")])]))
        body: Term = goals[-1]
        for goal in reversed(goals[:-1]):
            body = Compound(",", [goal, body])
        db.assert_clause(head, body)
    goals = [Compound("g", [rng.choice([Int(0), Int(1), Int(2), Int(3), Int(-2),
                                        Int(2), Compound("f", [Int(2)]), *ODD_OPERANDS[:3],
                                        var("A")]),
                            rng.choice([Int(3), var("B"), var("B")])])
             for _ in range(12)]
    return db, goals


def solve_guard_program(seed: int):
    """solve_program's runs of a random_guard_program, each variable's vid
    replaced by its rank among the run's vids."""
    runs = solve_program(seed, random_guard_program)
    vids = set()

    def renumber(item, rank=None):
        if isinstance(item, dict):
            return {key: renumber(value, rank) for key, value in item.items()}
        if isinstance(item, (list, tuple)):
            if len(item) == 3 and item[0] == "var":
                vids.add(item[2])
                return item if rank is None else (*item[:2], rank[item[2]])
            return type(item)(renumber(part, rank) for part in item)
        return item

    renumber(runs)
    return renumber(runs, {vid: rank for rank, vid in enumerate(sorted(vids))})


def test_inline_guards_agree_with_the_template_walker(monkeypatch):
    """The guards that clause code runs inline answer, fail, raise, count,
    trail and order variables as the goals the walker builds do. An `is`
    makes no variable for a fresh left side, so later variables get smaller
    vids; their order, which decides binding direction and trailing, stays."""
    seeds = range(150)
    monkeypatch.setattr(engine, "_SHAPES", {})
    generated = [solve_guard_program(seed) for seed in seeds]
    assert sum(bool(key[1]) for key in engine._SHAPES) > 400
    monkeypatch.setattr(engine, "_CODE_NODES", 0)
    walked = [solve_guard_program(seed) for seed in seeds]
    for seed, (ours, theirs) in enumerate(zip(generated, walked)):
        assert ours == theirs, seed
    outcomes = [run[0] for runs in generated for run in runs]
    assert sum(isinstance(o, list) and len(o) > 0 for o in outcomes) > 100
    for kind in ("instantiation_error", "type_error", "evaluation_error"):
        assert outcomes.count(kind) > 40, kind


# --- repl -----------------------------------------------------------------


def run_repl(script, db=None):
    out = io.StringIO()
    repl(db or Database(), io.StringIO(script), out, Loader())
    return out.getvalue()


def test_repl_basic_solution():
    output = run_repl("X = 1.\n")
    assert "X = 1" in output
    assert "true" in output


def test_repl_backtracking_with_semicolon():
    db, _, _ = load("c(red).\nc(green).\n")
    output = run_repl("c(X).\n;\n;\n", db)
    assert "X = red" in output
    assert "X = green" in output
    assert "false" in output


def test_repl_failure():
    output = run_repl("1 = 2.\n")
    assert "false" in output


def test_repl_directive_and_dynamic_operator():
    output = run_repl(":- op(700, xfx, ===).\nX = (a === b).\n")
    assert output.count("true") >= 2
    assert "X = a===b" in output


def test_repl_syntax_error_recovers():
    output = run_repl("f(.\nX = ok.\n")
    assert "syntax error" in output
    assert "X = ok" in output


def test_repl_two_goals_on_one_line():
    output = run_repl("X = 1. Y = 2.\n")
    assert "X = 1" in output
    assert "Y = 2" in output


def test_repl_answers_sentences_in_the_order_they_were_typed():
    # Z = 3 is read while X = 1 waits for a ';', after Y = 2 was typed
    assert run_repl("X = 1. Y = 2.\nZ = 3.\n") == (
        "?- X = 1\ntrue\nY = 2\ntrue\nZ = 3\ntrue\n?- ")


def test_repl_prints_a_lexical_error_once_with_its_own_sentence():
    assert run_repl("X = 1. Y = \x01 .\n") == (
        "?- X = 1\ntrue\n"
        "syntax error: invalid character '\\x01'\n"
        "syntax error: unexpected '\\x01' where a term was expected\n?- ")


def test_repl_goal_split_over_two_lines():
    output = run_repl("X =\n 1.\n")
    assert "X = 1" in output
    assert "syntax error" not in output


def test_repl_goal_after_syntax_error_continues_on_next_line():
    output = run_repl("f(. X =\n 1.\n")
    assert "syntax error" in output
    assert "X = 1" in output


def test_repl_lexes_a_goal_typed_over_many_lines_once(monkeypatch):
    calls = []
    original = lexer.tokenize

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(lexer, "tokenize", counted)
    # a line without '.' cannot end the goal, so it is not lexed
    output = run_repl("X = [a,\n" + "a,\n" * 1998 + "b].\n")
    assert "X = [" + "a," * 1999 + "b]\ntrue\n" in output
    assert len(calls) <= 3


def test_repl_reports_engine_errors():
    output = run_repl("undefined_pred(1).\n")
    assert "existence_error" in output
