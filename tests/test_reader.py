import os
import random

import pytest
from conftest import read_one, read_term
from plkit.database import Database, OperatorDef
from plkit.engine import Loader, consult_source
from plkit.lexer import tokenize
from plkit.printer import pretty_print
from plkit.reader import CLEAR_EVERY, Reader
from plkit.terms import Atom, Compound, Int, OpApply, Var
from term_gen import TermGen, to_tuple
from test_acceptance import make_corpus


def tup(text, db=None):
    return to_tuple(read_term(text, db))


def read_source(source, db=None):
    db = db or Database()
    tokens, lex_diags = tokenize(source, "<t>")
    reader = Reader(source, tokens, db, "<t>")
    sentences = []
    while not reader.at_eof():
        sentence = reader.read_sentence()
        if sentence is not None:
            sentences.append(sentence)
    return sentences, list(lex_diags) + reader.diagnostics


# --- structure ------------------------------------------------------------


def test_atomic_terms():
    assert tup("foo") == ("atom", "foo")
    assert tup("'odd atom'") == ("atom", "odd atom")
    assert tup("42") == ("int", 42)
    assert tup("3.5") == ("float", 3.5)
    assert tup('"text"') == ("str", "text")
    assert tup("X") == ("var", "X")


def test_canonical_compound():
    assert tup("f(a, B, 1)") == (
        "compound", "f", [("atom", "a"), ("var", "B"), ("int", 1)])


def test_space_before_paren_is_not_argument_list():
    # f (x) reads as prefix-less atom applied to nothing: just an error,
    # unless f is an operator.  With default table, 'f' is plain: the
    # parenthesis cannot attach.
    _, diagnostics = read_source("f (x).")
    assert diagnostics  # unexpected '('


def test_operator_precedence_tree():
    assert tup("1 + 2 * 3") == (
        "compound", "+",
        [("int", 1), ("compound", "*", [("int", 2), ("int", 3)])])
    assert tup("(1 + 2) * 3") == (
        "compound", "*",
        [("compound", "+", [("int", 1), ("int", 2)]), ("int", 3)])


def test_yfx_left_associative():
    assert tup("1 - 2 - 3") == (
        "compound", "-",
        [("compound", "-", [("int", 1), ("int", 2)]), ("int", 3)])


def test_xfy_right_associative():
    assert tup("a ; b ; c") == (
        "compound", ";",
        [("atom", "a"), ("compound", ";", [("atom", "b"), ("atom", "c")])])


def test_xfx_not_associative():
    _, diagnostics = read_source("a = b = c.")
    assert any(d.code in ("unexpected_token", "operator_clash")
               for d in diagnostics)


def test_comma_nests_right():
    assert tup("a, b, c") == (
        "compound", ",",
        [("atom", "a"), ("compound", ",", [("atom", "b"), ("atom", "c")])])


def test_clause_structure():
    sentence = read_one("head(X) :- body(X), more.")
    assert sentence.kind == "clause"
    assert to_tuple(sentence.head) == ("compound", "head", [("var", "X")])
    assert to_tuple(sentence.body)[1] == ","


def test_fact_and_directive_and_dcg():
    assert read_one("just_a_fact.").kind == "fact"
    assert read_one(":- dynamic(foo/1).").kind == "directive"
    assert read_one("greeting --> [hello], name.").kind == "dcg_rule"


def test_dcg_pushback_head_defines_the_nonterminal():
    sentence = read_one("greeting, [x] --> [hello].")
    assert sentence.kind == "dcg_rule"
    assert to_tuple(sentence.head) == ("atom", "greeting")
    assert sentence.indicator == ("greeting", 2)
    assert to_tuple(sentence.term.args[0])[1] == ","  # the term is as read
    sentence = read_one("p(X), [] --> q(X).")
    assert to_tuple(sentence.head) == ("compound", "p", [("var", "X")])
    assert sentence.indicator == ("p", 3)
    sentence = read_one('greeting, "x" --> [hello].')
    assert to_tuple(sentence.head) == ("atom", "greeting")
    assert sentence.indicator == ("greeting", 2)


def test_dcg_head_with_a_non_list_after_the_comma_is_the_whole_head():
    sentence = read_one("a, b --> c.")
    assert to_tuple(sentence.head) == (
        "compound", ",", [("atom", "a"), ("atom", "b")])
    assert sentence.indicator == (",", 4)


def test_sentence_indicator():
    assert read_one("p(a, b).").indicator == ("p", 2)
    assert read_one("p :- q.").indicator == ("p", 0)
    assert read_one("s(X) --> [X].").indicator == ("s", 3)
    assert read_one(":- dynamic(p/1).").indicator is None
    assert read_one("3 :- true.").indicator is None


def test_prefix_operators():
    assert tup("- X") == ("compound", "-", [("var", "X")])
    assert tup("\\+ a") == ("compound", "\\+", [("atom", "a")])
    assert tup(":- a") == ("compound", ":-", [("atom", "a")])


def test_negative_number_literals():
    assert tup("-1") == ("int", -1)
    assert tup("-2.5") == ("float", -2.5)
    assert tup("1 - 2") == ("compound", "-", [("int", 1), ("int", 2)])
    # Adjacent after an operand: infix minus, not a negative literal.
    assert tup("X-1") == ("compound", "-", [("var", "X"), ("int", 1)])


def test_operator_atom_as_operand():
    assert tup("f(+)") == ("compound", "f", [("atom", "+")])
    # quoting disables operator-hood: '-' is the left operand of infix -
    assert tup("'-' - a") == ("compound", "-", [("atom", "-"), ("atom", "a")])
    assert tup("[=, mod]") == (
        "compound", ".",
        [("atom", "="),
         ("compound", ".", [("atom", "mod"), ("atom", "[]")])])


def test_prefix_operator_before_an_infix_operator_is_an_atom():
    # ISO/IEC 13211-1 §6.3.4.2: `- = a` is =(-, a)
    for text, op in (("- = a", "="), ("\\+ = a", "="), ("- * a", "*")):
        left = text.split()[0]
        assert tup(f"p({text})") == (
            "compound", "p", [("compound", op, [("atom", left), ("atom", "a")])])
    minus_a = ("compound", "-", [("atom", "a")])
    assert tup("- - a") == ("compound", "-", [minus_a])
    assert tup("- + a") == ("compound", "-", [("compound", "+", [("atom", "a")])])
    assert tup("- 1") == ("compound", "-", [("int", 1)])
    assert tup("-(1)") == ("compound", "-", [("int", 1)])
    assert tup("\\+ \\+ a") == (
        "compound", "\\+", [("compound", "\\+", [("atom", "a")])])
    assert tup("- = - a") == ("compound", "=", [("atom", "-"), minus_a])
    # an infix operator before '(' is a functor, and one with no term after
    # it an atom: the prefix reading stays
    assert tup("- =(a, b)") == (
        "compound", "-", [("compound", "=", [("atom", "a"), ("atom", "b")])])
    assert tup("f((- =))") == (
        "compound", "f", [("compound", "-", [("atom", "=")])])


def test_lists():
    assert tup("[]") == ("atom", "[]")
    assert tup("[a]") == ("compound", ".", [("atom", "a"), ("atom", "[]")])
    assert tup("[a, b | T]") == (
        "compound", ".",
        [("atom", "a"),
         ("compound", ".", [("atom", "b"), ("var", "T")])])


def test_curly():
    assert tup("{}") == ("atom", "{}")
    assert tup("{a, b}") == (
        "compound", "{}",
        [("compound", ",", [("atom", "a"), ("atom", "b")])])


def test_argument_priority_is_999():
    # A naked 1200-priority term cannot be an argument...
    _, diagnostics = read_source("f(a :- b).")
    assert diagnostics
    # ...but a parenthesized one can.
    assert tup("f((a :- b))") == (
        "compound", "f",
        [("compound", ":-", [("atom", "a"), ("atom", "b")])])


def test_variable_identity_per_sentence():
    term = read_term("f(X, X, Y)")
    x1, x2, y = term.args
    assert x1.vid == x2.vid
    assert y.vid != x1.vid
    # '_' is always fresh
    a, b = read_term("g(_, _)").args
    assert a.vid != b.vid


def test_variables_not_shared_across_sentences():
    sentences, _ = read_source("f(X). g(X).")
    v1 = sentences[0].term.args[0]
    v2 = sentences[1].term.args[0]
    assert v1.vid != v2.vid


def _var_occurrences(term):
    """Every variable occurrence in `term`, left to right: a walk of the
    term read, the oracle for a sentence's `variables` and `singletons`."""
    if not isinstance(term, Compound):
        return [term] if isinstance(term, Var) else []
    found = []
    stack = [iter(term.args)]  # the arguments still to visit, per level
    while stack:
        for arg in stack[-1]:
            if isinstance(arg, Compound):
                stack.append(iter(arg.args))
                break
            if isinstance(arg, Var):
                found.append(arg)
        else:
            stack.pop()
    return found


def _walked_variables(term):
    """The named variables of `term` and its singletons, as (name, start)
    of each one's first occurrence, found by walking the term."""
    occurrences = {}
    for var in _var_occurrences(term):
        if var.name != "_":
            occurrences.setdefault(var.vid, []).append(var)
    return ([(occ[0].name, occ[0].start) for occ in occurrences.values()],
            [(occ[0].name, occ[0].start) for occ in occurrences.values()
             if len(occ) == 1])


def _read_variables(sentence):
    return ([(var.name, var.start) for var in sentence.variables],
            [(var.name, var.start) for var in sentence.singletons])


def test_variables_and_singletons():
    sentence = read_one("p(X, _, _Y, X, Z, _) :- q(_Y, W).")
    assert _read_variables(sentence) == (
        [("X", 2), ("_Y", 8), ("Z", 15), ("W", 30)], [("Z", 15), ("W", 30)])
    assert read_one("a :- b.").variables == ()


# Token soups read under these tables reach second readings, where a prefix
# operator is read again as an atom and the tokens after it are read again.
SOUP_TABLES = [
    [("p", 200, "xfy"), ("p", 200, "fx")],
    [("q", 500, "xf"), ("p", 200, "xfy"), ("p", 200, "fx")],
]
SOUP_TOKENS = ["X", "Y", "_", "p", "p", "q", "-", "a", "(", ")"]


def test_variables_and_singletons_agree_with_a_walk_of_the_term(tmp_path):
    sentences = []
    make_corpus(str(tmp_path), 40)
    for path in sorted(tmp_path.iterdir()):
        sentences += read_source(path.read_text(encoding="utf-8"))[0]
    gen, db = TermGen(18), Database()
    for _ in range(300):
        gen.fresh_sentence()
        sentences.append(read_one(pretty_print(gen.term(5), db) + " .", db))
    rng = random.Random(18)
    for table in SOUP_TABLES:
        db = Database()
        for name, priority, fixity in table:
            db.operators.add(OperatorDef(name, priority, fixity))
        soups = (" ".join(rng.choices(SOUP_TOKENS, k=rng.randint(1, 6))) + " ."
                 for _ in range(10_000))
        sentences += read_source("\n".join(soups), db)[0]
    assert len(sentences) > 8000
    for sentence in sentences:
        assert _read_variables(sentence) == _walked_variables(sentence.term), (
            sentence.span.lines.text[sentence.span.start_offset:sentence.span.end_offset])


@pytest.mark.parametrize("source", [
    # `-` is read as a prefix operator until the second `p` clashes, then
    # as an atom, and `p X p -` is read again.
    "t(Y) :- Y = (- p X p -).",
], ids=["prefix"])
def test_a_second_reading_counts_its_variables_once(source):
    db = Database()
    db.operators.add(OperatorDef("p", 200, "xfy"))
    db.operators.add(OperatorDef("p", 200, "fx"))
    x = source.index("X")
    assert _read_variables(read_one(source, db)) == (
        [("Y", 2), ("X", x)], [("X", x)])


def test_spans_cover_source():
    term = read_term("foo(bar, X)")
    assert term.span is not None
    assert term.span.start_offset == 0
    assert term.span.end_offset == len("foo(bar, X)")
    assert term.functor_span.start_offset == 0
    assert term.functor_span.end_offset == 3
    assert term.args[0].span.start_offset == 4


def _texts(term):
    """The source text of a term's span, and of its functor span for a
    compound."""
    text = term.lines.text
    span = text[term.span.start_offset:term.span.end_offset]
    if not isinstance(term, Compound):
        assert not hasattr(term, "functor_span")
        return span
    functor = term.functor_span
    return span, text[functor.start_offset:functor.end_offset]


def test_span_and_functor_span_of_each_construct():
    source = "f((a), (g(x)), [a, b | T], [ ], {}, {a, b}, -1, - 1)"
    term = read_term(source)
    paren_atom, paren_compound, lst, nil, curly_atom, curly, signed, minus = term.args
    assert _texts(term) == (source, "f")
    assert _texts(paren_atom) == "(a)"
    assert _texts(paren_compound) == ("(g(x))", "g")
    # A list cell's functor span is its own span as first read; only the
    # outermost cell's span then moves to the brackets.
    assert _texts(lst) == ("[a, b | T]", "a, b | T")
    assert _texts(lst.args[0]) == "a"
    assert _texts(lst.args[1]) == ("b | T", "b | T")
    assert _texts(lst.args[1].args[1]) == "T"
    assert _texts(nil) == "[ ]"
    assert _texts(curly_atom) == "{}"
    assert _texts(curly) == ("{a, b}", "{")
    assert _texts(curly.args[0]) == ("a, b", ",")
    assert _texts(signed) == "-1"
    assert _texts(minus) == ("- 1", "-")
    # the '[]' that ends a proper list spans its ']'
    assert _texts(read_term("[a]").args[1]) == "]"
    db = Database()
    db.operators.add(OperatorDef("@@", 100, "xf"))
    postfix_in_infix = read_term("a @@ + b", db)
    assert _texts(postfix_in_infix) == ("a @@ + b", "+")
    assert _texts(postfix_in_infix.args[0]) == ("a @@", "@@")
    assert _texts(read_term("(-(a))")) == ("(-(a))", "-")


def test_an_operator_term_holds_its_arguments_in_slots():
    db = Database()
    db.operators.add(OperatorDef("@@", 100, "xf"))
    for text, names in (("- a", ["a"]), ("a + b", ["a", "b"]), ("a @@", ["a"])):
        term = read_term(text, db)
        assert type(term) is OpApply, text
        # `args` is built from the slots on each call, and is read-only
        assert [arg.name for arg in term.args] == names, text
        assert term.args == [term.first] + ([] if term.second is None else [term.second])
        assert term.args is not term.args and term.arity == len(names)
        with pytest.raises(AttributeError):
            term.args = []


def test_leading_comments_attached():
    sentences, diagnostics = read_source("% doc line\n%% more\nfoo.\nbar.")
    assert not diagnostics
    assert [t.text for t in sentences[0].leading_comments] == [
        "% doc line", "%% more"]
    assert sentences[1].leading_comments == ()


def test_comments_inside_and_after_errors():
    source = ("% one\nfoo :- % two\n  bar.\n% three\nbad(. % four\n"
              "% five\nbaz.\n% six\n")
    sentences, diagnostics = read_source(source)
    assert len(diagnostics) == 1
    # A comment inside a sentence leads it too. Those before the '.' of a
    # sentence skipped by error recovery, and those after the last
    # sentence, lead none.
    assert [[t.text for t in s.leading_comments] for s in sentences] == [
        ["% one", "% two"], ["% four", "% five"]]


def test_comment_read_once_across_a_second_reading():
    # '?-' is first read as a prefix operator, whose argument fails at the
    # '.'; read again as an atom it is the left side of 'mod'. The comment
    # in the text read twice leads the sentence once.
    source = ":- op(100, yf, @@).\n?- mod->% c\n .\n"
    sentences, diagnostics = consult_source(source, Database(), Loader(), "<t>")
    assert not diagnostics
    term = sentences[1].term
    assert to_tuple(term) == ("compound", "mod", [("atom", "?-"), ("atom", "->")])
    assert [t.text for t in sentences[1].leading_comments] == ["% c"]


def test_deep_terms_read_without_recursion():
    n = 20_000
    for text in ("f(" * n + "a" + ")" * n, "- " * n + "a", "[" * n + "a" + "]" * n):
        term = read_term(text)
        depth = 0
        while isinstance(term, Compound):
            term, depth = term.args[0], depth + 1
        assert (depth, term.name) == (n, "a")
    _, diagnostics = read_source("p(" + "[" * n + "a.")
    assert [d.code for d in diagnostics] == ["unbalanced_delimiter"]


def test_sentence_span_shared_with_its_clause():
    db = Database()
    sentences, _ = consult_source("p(X) :- q(X).\n", db, Loader(), "<t>")
    sentence = sentences[0]
    assert (sentence.span.start_offset, sentence.span.end_offset) == (0, 13)
    (clause,) = db.lookup(("p", 1)).clauses
    # the stored clause is the sentence, so it has no span of its own
    assert clause is sentence


def test_consumed_end_is_past_the_sentence_read_or_skipped():
    source = "a. /* c */ f(. b."
    tokens, _ = tokenize(source, "<t>")
    reader = Reader(source, tokens, Database(), "<t>")
    assert reader.consumed_end == 0
    reader.read_sentence()
    assert reader.consumed_end == 2
    assert reader.read_sentence() is None  # the error skips through 'f(.'
    assert reader.consumed_end == 14
    reader.read_sentence()
    assert reader.consumed_end == 17 and reader.at_eof()


def test_the_reader_clears_the_tokens_it_has_read():
    # a sentence read, 5 tokens, and one skipped by error recovery, 3
    source = "p(1). f(. " * CLEAR_EVERY
    tokens, _ = tokenize(source, "<t>")
    reader = Reader(source, tokens, Database(), "<t>")
    assert reader.toks is tokens  # consumed, not copied
    while not reader.at_eof():
        reader.read_sentence()
        assert tokens[reader.i - 1] is not None  # consumed_end reads it
        behind = reader.i - 2 - CLEAR_EVERY
        assert behind < 0 or tokens[behind] is None
    assert reader.consumed_end == len(source) - 1
    assert len(reader.diagnostics) == CLEAR_EVERY
    assert sum(tok is not None for tok in tokens) <= CLEAR_EVERY + 2


@pytest.mark.parametrize("buffer, end", [
    ("X = 1.  \n", 6),
    ("X = 1.\n\n  ", 6),
    ("a. % c\n  ", 2),
    ("foo(a  \n", 5),
    ("   \n", 0),
])
def test_consumed_end_before_trailing_layout(buffer, end):
    # the read-eval loop keeps the buffer from consumed_end on
    tokens, _ = tokenize(buffer, "<repl>")
    reader = Reader(buffer, tokens, Database(), "<repl>")
    reader.read_sentence()
    assert reader.consumed_end == end and reader.at_eof()


def test_a_sign_before_a_paren():
    # '-(1)' is the compound -(1); '- (1)' the prefix operator on 1
    assert type(read_term("-(1)")) is Compound
    assert type(read_term("- (1)")) is OpApply
    assert tup("-(1)") == tup("- (1)") == ("compound", "-", [("int", 1)])
    assert tup("-1") == ("int", -1)


# --- diagnostics and recovery ---------------------------------------------


@pytest.mark.parametrize("source, position", [
    ("p(a)  \n\n", (3, 1)),
    ("p(a)  \n\n% tail", (3, 7)),
    ("p(a)  % tail\n\n", (3, 1)),
])
def test_missing_end_sits_at_the_end_of_the_source(source, position):
    _, diagnostics = read_source(source)
    assert [(d.code, d.span.start_line, d.span.start_col, d.span.start_offset)
            for d in diagnostics] == [("missing_end", *position, len(source))]


@pytest.mark.parametrize("source", ["", "   \n\t ", "% only\n", "/* only */"])
def test_layout_and_comments_alone_read_nothing(source):
    assert read_source(source) == ([], [])


def test_missing_end_diagnostic():
    _, diagnostics = read_source("foo(a)")
    assert any(d.code == "missing_end" for d in diagnostics)


def test_recovery_drops_to_next_end():
    sentences, diagnostics = read_source("foo(. bar. baz.")
    assert len(diagnostics) == 1
    assert [to_tuple(s.term) for s in sentences] == [
        ("atom", "bar"), ("atom", "baz")]


def test_each_broken_sentence_reports_once():
    source = "ok1. f(]. ok2. ) broken. ok3."
    sentences, diagnostics = read_source(source)
    assert len([s for s in sentences]) == 3
    assert len(diagnostics) == 2


def test_unbalanced_close_diagnostic():
    _, diagnostics = read_source("f(a)).")
    assert diagnostics


def test_operator_clash_reported():
    _, diagnostics = read_source("a :- b :- c.")
    assert diagnostics


# --- dynamic grammar ------------------------------------------------------


def test_directive_reshapes_grammar_mid_file():
    db = Database()
    source = ":- op(700, xfx, ===).\na === b.\n"
    sentences, diagnostics = consult_source(source, db, Loader(), "<t>")
    assert not diagnostics
    assert to_tuple(sentences[1].term) == (
        "compound", "===", [("atom", "a"), ("atom", "b")])


def test_operator_use_before_declaration_fails():
    db = Database()
    source = "a === b.\n:- op(700, xfx, ===).\n"
    sentences, diagnostics = consult_source(source, db, Loader(), "<t>")
    assert len(diagnostics) == 1
    assert len(sentences) == 1  # only the directive survives


def test_operator_removal_mid_file():
    db = Database()
    source = (":- op(700, xfx, ===).\na === b.\n"
              ":- op(0, xfx, ===).\nc === d.\n")
    _, diagnostics = consult_source(source, db, Loader(), "<t>")
    assert len(diagnostics) == 1


def test_bar_is_no_operator():
    _, diagnostics = consult_source(":- op(1100, xfy, '|').\n", Database(),
                                    Loader(), "<t>")
    assert [d.code for d in diagnostics] == ["permission_error"]
    sentences, diagnostics = read_source("p(a | b).\nq.\n")
    assert [d.code for d in diagnostics] == ["unbalanced_delimiter"]
    assert [s.indicator for s in sentences] == [("q", 0)]


def test_curly_term_closed_by_a_parenthesis():
    sentences, diagnostics = read_source("r({a).\nq.\n")
    assert [(d.code, d.message) for d in diagnostics] == [
        ("unbalanced_delimiter", "expected '}', found ')'")]
    assert [s.indicator for s in sentences] == [("q", 0)]


def test_read_terms_have_every_slot_set(tmp_path):
    make_corpus(str(tmp_path), 50)
    # every kind of term, the anonymous variable among them
    (tmp_path / "all.pl").write_text(
        "t(_, X, 'q', 1.5, \"s\", [a|X], {x}, - 1, -(a), - a, f(g), a = b).\n",
        encoding="utf-8")
    loader = Loader()
    for name in sorted(os.listdir(tmp_path)):
        path = str(tmp_path / name)
        _, sentences, _ = loader.consult_file(path)
        lines = sentences[0].span.lines
        assert lines.file_id == path
        assert lines.text == (tmp_path / name).read_text(encoding="utf-8")
        for sentence in sentences:
            assert sentence.span.lines is lines
            stack = [sentence.term]
            while stack:
                term = stack.pop()
                slots = [slot for cls in type(term).__mro__
                         for slot in getattr(cls, "__slots__", ())]
                assert all(hasattr(term, slot) for slot in slots), term
                assert term.lines is lines
                offsets = [term.start, term.end]
                if isinstance(term, Compound):
                    offsets += (term.functor_start, term.functor_end)
                    stack.extend(term.args)
                assert all(type(offset) is int for offset in offsets)


def test_read_at_reduced_priority():
    db = Database()
    tokens, _ = tokenize("a, b", "<t>")
    reader = Reader("a, b", tokens, db, "<t>")
    term = reader.parse_term(999)
    # At 999 the comma operator is out of reach: only 'a' parses.
    assert to_tuple(term) == ("atom", "a")
