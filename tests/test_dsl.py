"""Interpreter semantics and static validation, frozen against hand-computed
oracles on the four-frame example."""

from __future__ import annotations

import pytest

from tablesynth.dsl import (
    AGGREGATIONS,
    PREDICATE_SYMBOLS,
    ActionSignature,
    And,
    ColP,
    ConstP,
    ExecState,
    Filter,
    GroupJoin,
    Join,
    MutateP,
    Not,
    Or,
    Order,
    Program,
    SymbolApp,
    Yield,
    eval_predicate,
    exec_filter,
    exec_groupjoin,
    exec_join,
    exec_order,
    exec_program,
    exec_yield,
    predicate_size,
    validate_program,
)
from tablesynth.errors import IntRangeError, SchemaError, ValidationFailure
from tablesynth.features import ExtractSpec, TokenClass, linear, substring, sum_feature
from tablesynth.progtext import parse_feature
from tablesynth.table import ColumnType, Id, Schema, Table

from conftest import FRAME_SCHEMA, SHIFT

INT = ColumnType.INT
STR = ColumnType.STR
ID = ColumnType.ID


def test_filter_odd_frames(frames_in, odd_u):
    assert exec_filter(frames_in, SymbolApp("IsOdd", "frame")) == odd_u


def test_predicate_symbols(frames_in):
    s = frames_in.schema
    row = ("tiktok.jpg", 3, Id("f3"))
    assert eval_predicate(SymbolApp("IsOdd", "frame"), row, s)
    assert not eval_predicate(SymbolApp("IsEven", "frame"), row, s)
    assert eval_predicate(SymbolApp("IntGeq", "frame", 3), row, s)
    assert not eval_predicate(SymbolApp("IntLt", "frame", 3), row, s)
    assert eval_predicate(SymbolApp("StrEq", "file", "tiktok.jpg"), row, s)
    assert eval_predicate(SymbolApp("IsSubstring", "file", "tok"), row, s)
    assert eval_predicate(SymbolApp("StartsWith", "file", "tik"), row, s)
    assert eval_predicate(SymbolApp("EndsWith", "file", "jpg"), row, s)
    assert eval_predicate(
        And(SymbolApp("IsOdd", "frame"), Not(SymbolApp("IntEq", "frame", 1))),
        row, s)
    assert eval_predicate(
        Or(SymbolApp("IntEq", "frame", 9), SymbolApp("IsOdd", "frame")),
        row, s)


def test_negative_parity_is_mathematical():
    s = Schema([("n", INT)])
    assert eval_predicate(SymbolApp("IsOdd", "n"), (-3,), s)
    assert eval_predicate(SymbolApp("IsEven", "n"), (-4,), s)


#: Operands of the two-argument symbols against the column value 5 / "abcd":
#: below, equal and above 5; a prefix, the value itself, a suffix, an infix
#: and a longer string of "abcd".
_OPERANDS = {INT: (5, (4, 5, 6)), STR: ("abcd", ("ab", "abcd", "cd", "bc", "abcde"))}
#: symbol -> whether it holds for each operand above (two-argument symbols),
#: or for -3..3 (one-argument symbols).
_SYMBOL_TRUTH = {
    "IntEq": (False, True, False),
    "IntLt": (False, False, True),
    "IntLeq": (False, True, True),
    "IntGt": (True, False, False),
    "IntGeq": (True, True, False),
    "StrEq": (False, True, False, False, False),
    "IsSubstring": (True, True, True, True, False),
    "StartsWith": (True, True, False, False, False),
    "EndsWith": (False, True, True, False, False),
    "IsOdd": (True, False, True, False, True, False, True),
    "IsEven": (False, True, False, True, False, True, False),
}


@pytest.mark.parametrize("symbol", list(PREDICATE_SYMBOLS))
def test_every_predicate_symbol(symbol):
    kinds, ty = PREDICATE_SYMBOLS[symbol][:2]
    truth = _SYMBOL_TRUTH[symbol]
    if kinds == "c":
        s = Schema([("a", ty)])
        # Parity is mathematical on negatives too.
        got = [eval_predicate(SymbolApp(symbol, "a"), (v,), s) for v in range(-3, 4)]
        assert tuple(got) == truth
        return
    assert kinds.split() == ["cc", "ck"]
    value, operands = _OPERANDS[ty]
    s = Schema([("a", ty), ("b", ty)])
    cc = SymbolApp(symbol, "a", "b", arg_is_col=True)
    for operand, holds in zip(operands, truth, strict=True):
        row = (value, operand)
        assert eval_predicate(cc, row, s) is holds, operand
        assert eval_predicate(SymbolApp(symbol, "a", operand), row, s) is holds, operand
        kept = exec_filter(Table("t", s, [row]), cc)
        assert kept.nrows == int(holds)


#: aggregation -> its value on each group of _AGG_GROUPS.
_AGG_GROUPS = {1: (-3, -4), 2: (10,), 3: (7, 2, 0, 0)}
_AGG_TRUTH = {
    "max": {1: -3, 2: 10, 3: 7},
    "min": {1: -4, 2: 10, 3: 0},
    "sum": {1: -7, 2: 10, 3: 9},
    "avg": {1: -3, 2: 10, 3: 2},  # -7/2 truncates toward zero, to -3
    "cnt": {1: 2, 2: 1, 3: 4},
}


@pytest.mark.parametrize("agg", list(AGGREGATIONS))
def test_every_aggregation(agg):
    rows = [(g, k, v) for g, vals in _AGG_GROUPS.items() for k, v in enumerate(vals)]
    t = Table("t", Schema([("g", INT), ("k", INT), ("v", INT)]), rows)
    out = exec_groupjoin(t, "g", [(agg, "v")])
    assert out.schema.names == ("g", "k", "v", f"{agg}_v")
    assert {row[0]: row[3] for row in out.rows} == _AGG_TRUTH[agg]
    if agg == "sum":
        big = Table("t", Schema([("g", INT), ("v", INT)]),
                    [(1, 2**62), (1, 2**62 + 1)])
        with pytest.raises(IntRangeError):
            exec_groupjoin(big, "g", [(agg, "v")])


_MIXED = Table("m", Schema([("s", STR), ("n", INT), ("id", ID)]),
               [("ab", 3, Id("r1"))])


@pytest.mark.parametrize("predicate", [
    SymbolApp("IsOdd", "s"),
    SymbolApp("IsSubstring", "n", "x"),
    SymbolApp("IntLt", "s", 3),
], ids=["IsOdd-on-Str", "IsSubstring-on-Int", "IntLt-on-Str"])
def test_filter_rejects_mistyped_predicate(predicate):
    with pytest.raises(SchemaError):
        exec_filter(_MIXED, predicate)
    with pytest.raises(SchemaError):
        eval_predicate(predicate, _MIXED.rows[0], _MIXED.schema)


_TOO_BIG = 99999999999999999999  # outside the signed 64-bit range


@pytest.mark.parametrize("projection,out_type", [
    (MutateP(linear(1, 0), ("s",)), INT),
    (MutateP(substring(ExtractSpec((TokenClass("Digits"),), 1)), ("n",)), STR),
    (MutateP(linear(1, 0), ("n", "n")), INT),
    (MutateP(sum_feature(0), ("n",)), INT),
    (MutateP(parse_feature("concat[x1{Lower#1}]"), ("s",)), STR),
    (ConstP(_TOO_BIG), INT),
], ids=["linear-over-Str", "substring-over-Int", "linear-of-two", "sum-of-one",
        "concat-reads-missing-input", "int-constant-out-of-range"])
def test_yield_rejects_mistyped_feature_input(projection, out_type):
    sig = ActionSignature("act", (("v", out_type),))
    stmt = Yield("m", (ConstP("act"), projection))
    with pytest.raises(SchemaError):
        exec_yield(ExecState({"m": _MIXED}), stmt, sig)
    violations = validate_program(Program((), (stmt,)), [_MIXED.schema], ["m"], sig)
    assert [v.rule for v in violations] == ["type check"]
    assert violations[0].message.startswith("yield 0 arg 1: ")


def test_out_of_range_filter_constant_is_a_type_violation():
    sig = ActionSignature("act", (("v", INT),))
    program = Program((Filter("u", "m", SymbolApp("IntLt", "n", _TOO_BIG)),),
                      (Yield("u", (ConstP("act"), ColP("n"))),))
    violations = validate_program(program, [_MIXED.schema], ["m"], sig)
    assert [(v.rule, v.message) for v in violations] == [
        ("type check", f"statement 0: integer {_TOO_BIG} out of 64-bit range")]


def test_yield_rejects_another_action(frames_in):
    stmt = Yield("ti", (ConstP("blur"), ColP("id"), ConstP("GB"), ColP("frame"),
                        ColP("frame")))
    with pytest.raises(SchemaError, match="names action 'blur'"):
        exec_yield(ExecState({"ti": frames_in}), stmt, SHIFT)


def test_predicate_size_counts_leaves():
    p = And(SymbolApp("IsOdd", "a"),
            Or(SymbolApp("IntEq", "a", 1), Not(SymbolApp("IntLt", "a", 5))))
    assert predicate_size(p) == 3


def test_join_only_id_columns_and_prefixing():
    people = Table("people", Schema([("id", ID), ("name", STR)]),
                   [(Id("p1"), "ann"), (Id("p2"), "bob")])
    pets = Table("pets", Schema([("owner", ID), ("name", STR)]),
                 [(Id("p1"), "rex"), (Id("p1"), "tug"), (Id("p3"), "moo")])
    j = exec_join(people, pets, "id", "owner")
    # Colliding names take a "<tableName>." prefix; only matches survive.
    assert "people.name" in j.schema and "pets.name" in j.schema
    assert j.nrows == 2
    with pytest.raises(SchemaError):
        exec_join(people, pets, "name", "name")


def test_groupjoin_aggregates_and_suffix():
    t = Table("t", Schema([("g", INT), ("v", INT)]),
              [(1, 4), (1, 7), (2, 10)])
    g = exec_groupjoin(t, "g", [("max", "v"), ("sum", "v")])
    assert g.schema.names == ("g", "v", "max_v", "sum_v")
    assert set(g.rows) == {(1, 4, 7, 11), (1, 7, 7, 11), (2, 10, 10, 10)}
    # cnt counts group members; avg truncates toward zero.
    c = exec_groupjoin(t, "g", [("cnt", "g")])
    assert set(c.column("cnt_g")) == {1, 2}
    a = exec_groupjoin(Table("t", t.schema, [(1, -3), (1, -4)]),
                       "g", [("avg", "v")])
    assert a.column("avg_v") == (-3, -3)  # (-7)/2 truncates to -3


def test_groupjoin_name_collision_gets_suffix():
    t = Table("t", Schema([("g", INT), ("max_v", INT), ("v", INT)]),
              [(1, 0, 4)])
    g = exec_groupjoin(t, "g", [("max", "v")])
    assert "max_v_2" in g.schema
    # The second aggregate's name is fresh against the first's.
    t = Table("t", Schema([("g", INT), ("v", INT), ("max_v", INT), ("v_2", INT)]),
              [(1, 4, 0, 9)])
    g = exec_groupjoin(t, "g", [("max", "v"), ("max", "v_2")])
    assert g.schema.names[4:] == ("max_v_2", "max_v_2_2")
    assert g.rows == ((1, 4, 0, 9, 4, 9),)


def test_operators_build_one_table_each(monkeypatch):
    t = Table("t", Schema([("g", INT), ("v", INT)]), [(1, 4), (1, 7), (2, 10)])
    built = []
    init = Table.__init__

    def counting_init(self, name, schema, rows):
        built.append(name)
        init(self, name, schema, rows)

    monkeypatch.setattr(Table, "__init__", counting_init)
    exec_groupjoin(t, "g", [("max", "v"), ("sum", "v")], "grouped")
    assert built == ["grouped"]
    built.clear()
    exec_order(t, "v", col_index="g", name="ordered")
    assert built == ["ordered"]


def test_order_competition_ranking():
    t = Table("t", Schema([("v", INT)]), [(10,), (20,), (30,)])
    o = exec_order(t, "v")
    assert o.column("ord_v") == (0, 1, 2)
    o = exec_order(t, "v", c_start=5, c_inv=True)
    assert o.column("ord_v") == (7, 6, 5)


def test_order_grouped_and_ties():
    t = Table("t", Schema([("g", INT), ("v", INT)]),
              [(1, 5), (1, 9), (2, 5), (2, 5)])
    o = exec_order(t, "v", col_index="g")
    ranks = {row[:2]: row[2] for row in o.rows}
    assert ranks[(1, 5)] == 0 and ranks[(1, 9)] == 1
    assert ranks[(2, 5)] == 0  # ties share the smallest rank


def _running_program() -> Program:
    return Program(
        (Filter("u", "ti", SymbolApp("IsOdd", "frame")),
         Filter("v", "ti", SymbolApp("IsEven", "frame"))),
        (Yield("u", (ConstP("shift"), ColP("id"), ConstP("GB"),
                     MutateP(linear(-5, -25), ("frame",)),
                     MutateP(linear(-5, -25), ("frame",)))),
         Yield("v", (ConstP("shift"), ColP("id"), ConstP("GB"),
                     MutateP(linear(5, 20), ("frame",)),
                     MutateP(linear(5, 20), ("frame",))))),
    )


def test_exec_program_running_example(frames_in, shift_out):
    out = exec_program(_running_program(), [frames_in], SHIFT)
    assert out == shift_out


def test_exec_program_multiple_inputs_schema_env():
    # Regression: with several inputs the validator must pair each table
    # name with its own schema regardless of iteration order.
    a = Table("a", Schema([("x", INT)]), [(1,)])
    b = Table("b", Schema([("y", INT), ("id", ID)]), [(2, Id("r"))])
    prog = Program(
        (Filter("u", "b", SymbolApp("IsEven", "y")),),
        (Yield("u", (ConstP("act"), ColP("y"))),),
    )
    sig = ActionSignature("act", (("n", INT),))
    out = exec_program(prog, [a, b], sig)
    assert out.rows == (("act", 2),)
    out2 = exec_program(prog, [b, a], sig)
    assert out == out2


def test_validate_catches_violations(frames_in):
    schemas, names = [frames_in.schema], [frames_in.name]
    bad = Program(
        (Filter("u", "nope", SymbolApp("IsOdd", "frame")),
         Filter("u", "ti", SymbolApp("IsOdd", "missing"))),
        (),
    )
    rules = {v.rule for v in validate_program(bad, schemas, names, SHIFT)}
    assert "defined-before-use" in rules
    assert "nonempty mapping" in rules

    redef = Program((Filter("ti", "ti", SymbolApp("IsOdd", "frame")),),
                    (Yield("ti", (ConstP("shift"), ColP("id"), ConstP("GB"),
                                  ColP("frame"), ColP("frame"))),))
    rules = {v.rule for v in validate_program(redef, schemas, names, SHIFT)}
    assert "fresh name" in rules

    wrong_action = Program((), (Yield("ti", (ConstP("blur"), ColP("id"),
                                             ConstP("GB"), ColP("frame"),
                                             ColP("frame"))),))
    rules = {v.rule for v in validate_program(wrong_action, schemas, names, SHIFT)}
    assert "action constant" in rules

    wrong_arity = Program((), (Yield("ti", (ConstP("shift"), ColP("id"))),))
    assert validate_program(wrong_arity, schemas, names, SHIFT)

    mistyped = Program((Filter("u", "ti", SymbolApp("IsOdd", "file")),), ())
    violations = validate_program(mistyped, schemas, names, SHIFT)
    assert [(v.rule, v.message) for v in violations if v.rule == "type check"] == [
        ("type check", "statement 0: column 'file' is not Int for IsOdd")]

    # A Join on non-Id columns is reported once per column, not again by
    # the type check.
    counts = Schema([("n", INT)])
    int_join = Program((Join("u", "ti", "c", "frame", "n"),), ())
    violations = validate_program(int_join, schemas + [counts], names + ["c"], SHIFT)
    assert [(v.rule, v.message) for v in violations] == [
        ("Id-typed join", "statement 0 joins on non-Id 'frame'"),
        ("Id-typed join", "statement 0 joins on non-Id 'n'"),
        ("nonempty mapping", "program has no Yield"),
    ]


def test_exec_program_raises_named_violations(frames_in):
    bad = Program((), (Yield("missing", (ConstP("shift"),)),))
    with pytest.raises(ValidationFailure) as exc:
        exec_program(bad, [frames_in], SHIFT)
    assert exc.value.violations


_ODD_YIELD = Yield("ti", (ConstP("shift"), ColP("id"), ConstP("GB"),
                          ColP("frame"), ColP("frame")))


@pytest.mark.parametrize("program,violation", [
    (Program((Filter("u", "ti", 42),), (_ODD_YIELD,)),
     ("type check", "statement 0: not a predicate: 42")),
    (Program((_ODD_YIELD,), (_ODD_YIELD,)),
     ("type check", f"statement 0 is not a transform statement: {_ODD_YIELD!r}")),
    (Program((), (Filter("u", "ti", SymbolApp("IsOdd", "frame")),)),
     ("type check", "yield 0 is not a Yield: "
                    "Filter(target='u', src='ti', predicate=SymbolApp(symbol='IsOdd', "
                    "col='frame', arg=None, arg_is_col=False))")),
], ids=["filter-with-int-predicate", "yield-as-transform", "filter-as-mapping"])
def test_malformed_program_is_a_named_violation(frames_in, program, violation):
    with pytest.raises(ValidationFailure) as exc:
        exec_program(program, [frames_in], SHIFT)
    assert [(v.rule, v.message) for v in exc.value.violations] == [violation]


def test_eval_predicate_rejects_a_non_predicate(frames_in):
    with pytest.raises(SchemaError, match="not a predicate: 42"):
        eval_predicate(42, frames_in.rows[0], frames_in.schema)


def test_runtime_range_error_names_its_statement():
    sig = ActionSignature("act", (("v", INT),))
    big = Table("t", Schema([("a", INT), ("s", STR)]), [(2**62, "x"), (2**62, "y")])
    summed = Program((GroupJoin("g", "t", "a", (("sum", "a"),)),),
                     (Yield("g", (ConstP("act"), ColP("sum_a"))),))
    with pytest.raises(SchemaError) as exc:
        exec_program(summed, [big], sig)
    assert str(exc.value) == ("transform statement 0: "
                              "integer 9223372036854775808 out of 64-bit range")
    scaled = Program((), (Yield("t", (ConstP("act"),
                                      MutateP(linear(4, 0), ("a",)))),))
    with pytest.raises(SchemaError) as exc:
        exec_program(scaled, [big], sig)
    assert str(exc.value) == ("mapping statement 0: "
                              "integer 18446744073709551616 out of 64-bit range")


def test_empty_filter_result_is_legal(frames_in):
    prog = Program(
        (Filter("u", "ti", SymbolApp("IntGeq", "frame", 100)),
         Filter("v", "ti", SymbolApp("IntLt", "frame", 100))),
        (Yield("u", (ConstP("shift"), ColP("id"), ConstP("GB"),
                     ColP("frame"), ColP("frame"))),
         Yield("v", (ConstP("shift"), ColP("id"), ConstP("R"),
                     ColP("frame"), ColP("frame")))),
    )
    out = exec_program(prog, [frames_in], SHIFT)
    assert out.nrows == 4
    assert set(out.column("channel")) == {"R"}
