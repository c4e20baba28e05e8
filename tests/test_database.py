import pytest

from plkit.database import (
    Database,
    OperatorDef,
    OperatorTable,
    PredicateIndicator,
)
from plkit.engine import Loader, consult_source
from plkit.errors import PrologError
from plkit.terms import Atom, Compound, Int, Var


def test_default_table_seeded():
    table = OperatorTable()
    assert table.infix(":-").priority == 1200
    assert table.prefix(":-").fixity == "fx"
    assert table.infix(",").priority == 1000
    assert table.prefix("-").fixity == "fy"
    assert table.infix("-").fixity == "yfx"
    assert table.infix("xor").priority == 500


def test_arg_priority_bounds():
    xfx = OperatorDef("=", 700, "xfx")
    assert xfx.left_max == 699
    assert xfx.right_max == 699
    yfx = OperatorDef("+", 500, "yfx")
    assert yfx.left_max == 500
    assert yfx.right_max == 499
    xfy = OperatorDef(";", 1100, "xfy")
    assert xfy.left_max == 1099
    assert xfy.right_max == 1100
    fy = OperatorDef("-", 200, "fy")
    assert fy.right_max == 200


def test_add_and_remove_operator():
    table = OperatorTable()
    table.add(OperatorDef("===", 700, "xfx"))
    assert table.infix("===").priority == 700
    table.add(OperatorDef("===", 0, "xfx"))  # priority 0 removes
    assert table.infix("===") is None


def test_operator_validation():
    table = OperatorTable()
    with pytest.raises(PrologError) as err:
        table.add(OperatorDef("bad", 1300, "xfx"))
    assert err.value.kind == "domain_error"
    with pytest.raises(PrologError):
        table.add(OperatorDef("bad", 700, "zfz"))
    with pytest.raises(PrologError) as err:
        table.add(OperatorDef(",", 900, "xfx"))
    assert err.value.kind == "permission_error"


def test_infix_postfix_conflict():
    table = OperatorTable()
    with pytest.raises(PrologError):
        table.add(OperatorDef("+", 400, "xf"))  # '+' is already infix


def test_infix_after_postfix_conflict():
    source = ":- op(200, xf, done).\n:- op(700, xfx, done).\n"
    db = Database()
    _, diagnostics = consult_source(source, db, Loader(), "<t>")
    assert [(d.code, d.message) for d in diagnostics] == [
        ("permission_error", "'done' already has a postfix definition")]
    assert db.operators.postfix("done").priority == 200
    assert db.operators.infix("done") is None


def test_same_name_prefix_and_infix_coexist():
    table = OperatorTable()
    assert table.prefix("-") is not None
    assert table.infix("-") is not None
    assert len(table.defs("-")) == 2


def test_op_directive_changes_only_its_own_table():
    db = Database()
    source = ":- op(700, xfx, ===).\n:- op(0, fy, -).\n:- op(300, yfx, +).\n"
    _, diagnostics = consult_source(source, db, Loader(), "<t>")
    assert diagnostics == []
    assert db.operators.infix("===").priority == 700
    # removing the prefix '-' keeps its infix definition
    assert db.operators.prefix("-") is None
    assert db.operators.infix("-").priority == 500
    assert db.operators.infix("+").priority == 300
    for other in (Database().operators, OperatorTable()):
        assert other.infix("===") is None
        assert other.prefix("-").priority == 200
        assert other.infix("+").priority == 500
        assert len(other.defs("-")) == 2


def test_tables_share_default_entries_until_changed():
    first, second = OperatorTable(), OperatorTable()
    assert first.by_name["-"] is second.by_name["-"]
    first.add(OperatorDef("-", 0, "fy"))
    assert first.by_name["-"] == (None, second.infix("-"), None)
    assert second.by_name["-"][0] is not None
    first.add(OperatorDef("-", 0, "yfx"))
    assert "-" not in first.by_name
    assert second.defs("-") == [second.prefix("-"), second.infix("-")]


def test_assert_clause_and_lookup():
    db = Database()
    head = Compound("fact", [Int(1)])
    db.assert_clause(head, Atom("true"))
    entry = db.lookup(PredicateIndicator("fact", 1))
    assert entry is not None
    assert len(entry.clauses) == 1
    assert db.lookup(PredicateIndicator("fact", 2)) is None


def test_indicator_is_the_name_arity_tuple():
    indicator = PredicateIndicator("fact", 1)
    assert indicator == ("fact", 1)
    assert hash(indicator) == hash(("fact", 1))
    assert str(indicator) == "fact/1"
    db = Database()
    entry = db.assert_clause(Compound("fact", [Int(1)]), Atom("true"))
    assert db.lookup(("fact", 1)) is entry


def test_assert_clause_rejects_non_callable_head():
    db = Database()
    with pytest.raises(PrologError) as err:
        db.assert_clause(Int(3), Atom("true"))
    assert err.value.kind == "type_error"
    with pytest.raises(PrologError):
        db.assert_clause(Var("X", 1), Atom("true"))


def test_declare_properties():
    db = Database()
    entry = db.declare(PredicateIndicator("p", 2), "dynamic")
    assert "dynamic" in entry.properties
    db.declare(PredicateIndicator("p", 2), "discontiguous")
    assert entry.properties == {"dynamic", "discontiguous"}


def test_clause_order_preserved():
    db = Database()
    for n in range(5):
        db.assert_clause(Compound("n", [Int(n)]), Atom("true"))
    entry = db.lookup(PredicateIndicator("n", 1))
    values = [clause.head.args[0].value for clause in entry.clauses]
    assert values == [0, 1, 2, 3, 4]
