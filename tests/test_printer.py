import decimal
import random

from conftest import read_term
from plkit.database import Database
from plkit.printer import atom_needs_quote, pretty_print, sentence_text
from plkit.terms import Atom, Compound, Float, Int, Str, Var, make_list, struct_eq
from term_gen import TermGen


def pp(term):
    return pretty_print(term, Database())


def roundtrip(term, db=None):
    db = db or Database()
    return read_term(pretty_print(term, db), db)


def test_atoms_printed_plain_or_quoted():
    assert pp(Atom("foo")) == "foo"
    assert pp(Atom("fooBar_9")) == "fooBar_9"
    assert pp(Atom("+")) == "+"
    assert pp(Atom("[]")) == "[]"
    assert pp(Atom("{}")) == "{}"
    assert pp(Atom("hello world")) == "'hello world'"
    assert pp(Atom("Upper")) == "'Upper'"
    assert pp(Atom("")) == "''"
    assert pp(Atom("it's")) == "'it\\'s'"
    assert pp(Atom("a\nb")) == "'a\\nb'"


def test_atom_needs_quote():
    assert not atom_needs_quote("foo")
    assert not atom_needs_quote("==")
    assert not atom_needs_quote("!")
    assert atom_needs_quote("two words")
    assert atom_needs_quote("1abc")
    assert atom_needs_quote("a-b")


def test_numbers_and_strings():
    assert pp(Int(42)) == "42"
    assert pp(Int(-7)) == "-7"
    assert pp(Float(2.5)) == "2.5"
    assert pp(Str('say "hi"')) == '"say \\"hi\\""'


def test_integers_of_any_size_print_in_decimal():
    """str() refuses an int of more than 4300 digits by default; the
    printer splits it instead. `decimal` converts without that limit."""
    rng = random.Random(7)
    for digits in (1, 600, 640, 4300, 4301, 5001, 20000):
        low = 10 ** (digits - 1)
        for n in (low, 10 * low - 1, rng.randrange(low, 10 * low), 10 * low // 3):
            for value in (n, -n):
                assert pp(Int(value)) == str(decimal.Decimal(value)), (digits, value < 0)


def test_operator_notation_restored():
    term = read_term("1 + 2 * 3")
    assert pp(term) == "1+2*3"


def test_minimal_parenthesization():
    cases = [
        "(1+2)*3",
        "1+2*3",
        "a:-b,c",
        "a;b,c",
        "(a;b),c",
        "a= ( b:-c)",
        "- (1+2)",
        "\\+a",
        "f(a,b)",
        "1-2-3",
        "1- (2-3)",
    ]
    db = Database()
    for text in cases:
        term = read_term(text, db)
        printed = pretty_print(term, db)
        assert struct_eq(read_term(printed, db), term), (text, printed)


def test_list_sugar():
    assert pp(make_list([Int(1), Int(2), Int(3)])) == "[1,2,3]"
    assert pp(make_list([Int(1)], Var("T", 1))) == "[1|T]"
    assert pp(Atom("[]")) == "[]"


def test_curly_sugar():
    assert pp(Compound("{}", [Atom("a")])) == "{a}"


def test_quoted_functor_canonical_form():
    printed = pp(Compound("two words", [Int(1)]))
    assert printed == "'two words'(1)"


def test_prefix_minus_over_number_does_not_refold():
    term = Compound("-", [Int(1)])
    printed = pp(term)
    back = roundtrip(term)
    assert struct_eq(back, term), printed


def test_prefix_sign_before_a_digit_keeps_a_space():
    # "-0**X" would read back as 0**X with the sign folded into the number
    x = Var("X", 1)
    for term, text in (
            (Compound("-", [Compound("**", [Int(0), x])]), "- 0**X"),
            (Compound("-", [Compound("**", [Float(1.5e3), Int(2)])]),
             "- 1500.0**2"),
            (Compound("-", [Compound("^", [Int(0), x])]), "- 0^X"),
            (Compound("+", [Compound("**", [Float(1.0e10), x])]),
             "+ 10000000000.0**X"),
            (Compound("-", [Int(-1)]), "- -1"),
            (Compound("-", [Compound("-", [Int(1)])]), "- - 1")):
        assert pp(term) == text
        assert struct_eq(roundtrip(term), term), text
    assert pp(Compound("-", [Atom("a")])) == "-a"
    assert pp(Compound("\\", [Int(1)])) == "\\1"


def test_prefix_op_before_open_paren_keeps_arity():
    term = Compound("-", [Compound(",", [Atom("a"), Atom("b")])])
    back = roundtrip(term)
    assert struct_eq(back, term)


def test_operator_atom_after_prefix_operator_in_parentheses():
    # unparenthesised, the infix operator would read as the operator and the
    # prefix one as its left argument
    for term in (Compound("-", [Atom("=")]),
                 Compound("-", [Compound("-", [Atom("*")]), Atom("a")]),
                 Compound("\\", [Compound("**", [Atom("is"), Atom("x")])])):
        assert "(" in pp(term)
        assert struct_eq(roundtrip(term), term), pp(term)
    assert pp(Compound("-", [Atom("-")])) == "- -"


def test_token_fusion_avoided():
    # adjacent symbol atoms must not merge into one symbol run
    term = Compound("=", [Atom("a"), Compound("-", [Atom("b")])])
    back = roundtrip(term)
    assert struct_eq(back, term)


def test_respects_dynamic_operator_table():
    from plkit.database import OperatorDef

    db = Database()
    db.operators.add(OperatorDef("===", 700, "xfx"))
    term = read_term("a === b", db)
    assert pretty_print(term, db) == "a===b"
    # without the operator the same term prints canonically
    fresh = Database()
    assert pretty_print(term, fresh) == "===(a,b)"
    assert struct_eq(read_term("===(a,b)", fresh), term)


def test_sentence_text_terminator():
    db = Database()
    assert sentence_text(read_term("foo", db), db) == "foo."
    # symbol-ending text needs a space before '.' to keep the End token
    text = sentence_text(read_term("a = (=)", db), db)
    assert text.endswith(" .")
    assert struct_eq(read_term(text[:-1].rstrip(), db), read_term("a = (=)", db))


def test_round_trip_property_seeded():
    db = Database()
    gen = TermGen(20240817)
    for _ in range(300):
        gen.fresh_sentence()
        term = gen.term(4)
        printed = pretty_print(term, db)
        back = read_term(printed, db)
        assert struct_eq(back, term), printed
        assert pretty_print(back, db) == printed


def test_round_trip_over_generated_seeds():
    """parse(print(t)) == t and print is a fixpoint for 300 terms of depth
    5 from each TermGen seed 0-59, the shapes criterion 04 draws."""
    db = Database()
    failures = []
    for seed in range(60):
        gen = TermGen(seed)
        for _ in range(300):
            gen.fresh_sentence()
            term = gen.term(5)
            printed = pretty_print(term, db)
            back = read_term(printed, db)
            if not (struct_eq(back, term) and pretty_print(back, db) == printed):
                failures.append((seed, printed))
    assert failures == []
