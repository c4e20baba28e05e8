import io

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
from plkit.reader import Reader
from plkit.terms import Atom, Compound, Int, Var, make_list, struct_eq
from term_gen import to_tuple, tt_apply, tt_unify, tt_variant


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


def test_malformed_directive_errors():
    _, _, diagnostics = load(":- op(foo, xfx, ===).\n")
    assert any(d.code == "malformed_directive" and d.severity == Severity.ERROR
               for d in diagnostics)


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


# --- solver ---------------------------------------------------------------


def test_fact_query():
    db, _, _ = load("likes(mary, wine).\nlikes(john, beer).\n")
    results = solutions("likes(mary, X)", db)
    assert [to_tuple(r["X"]) for r in results] == [("atom", "wine")]


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


def test_call():
    db, _, _ = load("p(7).\n")
    assert solutions("G = p(X), call(G)", db)[0]["X"].value == 7


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

    def counted(self, *args):
        calls.append(args[1])
        return original(self, *args)

    monkeypatch.setattr(Solver, "_solve_user", counted)
    db, _, _ = load(NREV)
    assert len(list(solve(nrev_goal(30), db))) == 1
    assert len(calls) == 31 * 32 // 2
    # backtracking into another clause is not another call
    calls.clear()
    db, _, _ = load(CUT_PROGRAM)
    assert len(solutions("m(X)", db)) == 3
    assert calls == [("m", 1)]


def test_counters_on_nrev():
    db, _, _ = load(NREV)
    solver = Solver(db)
    assert len(list(solver.solve(nrev_goal(30)))) == 1
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
