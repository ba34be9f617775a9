"""Interpreter semantics and static validation, frozen against hand-computed
oracles on the four-frame example."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from tablesynth import dsl, table
from tablesynth.domains import load_benchmark
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
    exec_transform,
    exec_yield,
    validate_program,
)
from tablesynth.errors import IntRangeError, SchemaError, ValidationFailure
from tablesynth.features import ExtractSpec, TokenClass, linear, substring, sum_feature
from tablesynth.progtext import parse_feature, parse_program
from tablesynth.synth import SynthTask, _atoms, _column_set, _Engine
from tablesynth.table import ColumnType, Id, Schema, Table

from conftest import BENCHMARKS, FRAME_SCHEMA, SHIFT

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
    canonical = Table._canonical

    def counting_init(self, name, schema, rows):
        built.append(name)
        init(self, name, schema, rows)

    def counting_canonical(name, schema, rows):
        built.append(name)
        return canonical(name, schema, rows)

    # Operators build checked tables or, from rows they derive from a
    # checked table, unchecked ones: count both kinds.
    monkeypatch.setattr(Table, "__init__", counting_init)
    monkeypatch.setattr(Table, "_canonical", staticmethod(counting_canonical))
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


def test_order_checks_its_start_before_any_row_and_each_rank_once():
    empty = Table("t", Schema([("v", INT)]), [])
    with pytest.raises(IntRangeError):
        exec_order(empty, "v", c_start=2**64)
    t = Table("t", Schema([("v", INT)]), [(1,), (2,)])
    ranks = exec_order(t, "v", c_start=2**63 - 2).column("ord_v")
    assert ranks == (2**63 - 2, 2**63 - 1)
    with pytest.raises(IntRangeError, match="integer 9223372036854775808 out of"):
        exec_order(t, "v", c_start=2**63 - 1)


def test_validate_reports_an_order_start_out_of_range(frames_in):
    program = parse_program(
        "o = Order(ti, frame, 99999999999999999999, false);\n"
        'Yield("shift", o, id, "GB", frame, frame);')
    violations = validate_program(program, [frames_in.schema], ["ti"], SHIFT)
    assert [(v.rule, v.message) for v in violations] == [
        ("type check",
         "statement 0: integer 99999999999999999999 out of 64-bit range")]


# Random checked tables: an Id key, an Int or Str column, then up to two
# Int (negatives included), Str or Id columns, all over small domains so that
# values tie within and across groups.
_CELLS = {INT: st.integers(-3, 3), STR: st.sampled_from(["", "a", "ab", "b"]),
          ID: st.sampled_from([Id("x"), Id("y"), Id("z")])}


@st.composite
def _tables(draw, name="t", max_rows=8):
    types = ([ID, draw(st.sampled_from([INT, STR]))]
             + draw(st.lists(st.sampled_from([INT, STR, ID]), max_size=2)))
    schema = Schema((f"c{i}", ty) for i, ty in enumerate(types))
    rows = draw(st.lists(st.tuples(*(_CELLS[ty] for ty in types)),
                         max_size=max_rows))
    return Table(name, schema, rows)


#: Random tables, one-row tables drawn as often as the rest.
_SMALL_OR_ANY_TABLES = st.one_of(_tables(max_rows=1), _tables())


@st.composite
def _groupjoin_args(draw, t):
    col_index = draw(st.sampled_from(t.schema.names))
    aggs = []
    for _ in range(draw(st.integers(1, 2))):
        col, ty = draw(st.sampled_from(t.schema.columns))
        aggs.append((draw(st.sampled_from(sorted(AGGREGATIONS)))
                     if ty is INT else "cnt", col))
    return col_index, aggs


@st.composite
def _order_args(draw, t):
    col = draw(st.sampled_from([n for n, ty in t.schema.columns if ty is not ID]))
    return (col, draw(st.integers(-5, 5)), draw(st.booleans()),
            draw(st.sampled_from((None,) + t.schema.names)))


def _groupjoin_by_rescan(t, col_index, aggs):
    """GroupJoin's rows by definition: every row's aggregates over its group."""
    gi = t.schema.index(col_index)
    return tuple(
        row + tuple(AGGREGATIONS[agg]([r[t.schema.index(col)] for r in t.rows
                                       if r[gi] == row[gi]])
                    for agg, col in aggs)
        for row in t.rows)


def _order_by_rescan(t, col, c_start, c_inv, col_index):
    """Order's rows by definition: c_start plus the number of rows of the
    same group whose value is smaller (larger when inverted)."""
    ci = t.schema.index(col)
    gi = t.schema.index(col_index) if col_index is not None else None
    rows = []
    for row in t.rows:
        group = [r for r in t.rows if gi is None or r[gi] == row[gi]]
        beats = (lambda r: r[ci] > row[ci]) if c_inv else (lambda r: r[ci] < row[ci])
        rows.append(row + (c_start + sum(1 for r in group if beats(r)),))
    return tuple(rows)


@given(st.data())
def test_groupjoin_and_order_match_their_definitions(data):
    t = data.draw(_tables())
    col_index, aggs = data.draw(_groupjoin_args(t))
    assert exec_groupjoin(t, col_index, aggs).rows == _groupjoin_by_rescan(
        t, col_index, aggs)
    args = data.draw(_order_args(t))
    assert exec_order(t, *args).rows == _order_by_rescan(t, *args)


def _repeated_columns(t: Table) -> list[str]:
    """The columns of ``t`` in which some value occurs twice."""
    return [n for n in t.schema.names if len(set(t.column(n))) < t.nrows]


@given(st.data())
def test_grouping_by_a_distinct_column_adds_only_constants_and_copies(data):
    # Over a column of distinct values each row is its own group.
    t = data.draw(_SMALL_OR_ANY_TABLES)
    repeated = _repeated_columns(t)
    for col_index in [n for n in t.schema.names if n not in repeated]:
        _, aggs = data.draw(_groupjoin_args(t))
        grouped = exec_groupjoin(t, col_index, aggs)
        added = [grouped.column(n) for n in grouped.schema.names[len(t.schema):]]
        assert added == [(1,) * t.nrows if agg == "cnt" else t.column(col)
                         for agg, col in aggs]
        col, c_start, c_inv, _ = data.draw(_order_args(t))
        ranked = exec_order(t, col, c_start, c_inv, col_index)
        assert ranked.column(ranked.schema.names[-1]) == (c_start,) * t.nrows


@given(st.data())
def test_candidates_group_only_by_columns_with_a_repeated_value(data):
    t = data.draw(_SMALL_OR_ANY_TABLES)
    sig = ActionSignature("act", tuple(t.schema.columns))
    out = Table("to", sig.output_schema(), [("act",) + r for r in t.rows])
    engine = _Engine(SynthTask((t,), out, sig))
    drawn = list(engine._candidates(1))
    repeated = _repeated_columns(t)
    assert {s.col_index for s in drawn if isinstance(s, GroupJoin)} == set(repeated)
    # Every ungrouped Order is still drawn.
    assert {(s.col, s.col_index) for s in drawn if isinstance(s, Order)} == {
        (col, by) for col, ty in t.schema.columns if ty is not ID
        for by in [None] + repeated if by != col}


def _assert_canonical(out: Table):
    checked = Table(out.name, out.schema, out.rows)
    assert out.rows == checked.rows
    assert out == checked and hash(out) == hash(checked)


class _CapturingEngine(_Engine):
    """Records each hypothesis table that matching builds, and matches none."""

    def __init__(self, task):
        super().__init__(task)
        self.h_tables = []

    def _surjections(self, t, h, ids):
        self.h_tables.append(h)
        return iter(())


@given(st.data())
def test_tables_built_from_checked_rows_are_canonical(data):
    t1 = data.draw(_tables("t1"))
    t2 = data.draw(_tables("t2"))
    predicate = data.draw(st.sampled_from(_atoms(t1.schema, [0, -1, "a"])))
    _assert_canonical(exec_filter(t1, predicate))
    _assert_canonical(exec_join(t1, t2, "c0", "c0"))
    _assert_canonical(exec_groupjoin(t1, *data.draw(_groupjoin_args(t1))))
    _assert_canonical(exec_order(t1, *data.draw(_order_args(t1))))
    _assert_canonical(t1.renamed("u"))
    # The hypothesis table: a subset of a checked output, in output order.
    sig = ActionSignature("act", tuple(t1.schema.columns))
    out = Table("to", sig.output_schema(), [("act",) + r for r in t1.rows])
    positions = sorted(data.draw(st.sets(st.integers(0, out.nrows - 1),
                                         min_size=1)
                                 if out.nrows else st.just(set())))
    engine = _CapturingEngine(SynthTask((out.renamed("ti"),), out, sig))
    engine.match_hypothesis(positions, ())
    [h] = engine.h_tables  # the input is scanned once; no table is kept
    _assert_canonical(h)
    assert h.rows == tuple(out.rows[i] for i in positions)


@pytest.mark.parametrize("bad", [True, 1.5])
def test_groupjoin_type_checks_the_cells_it_computes(monkeypatch, bad):
    t = Table("t", Schema([("g", INT), ("v", INT)]), [(1, 4), (2, 7)])
    monkeypatch.setitem(AGGREGATIONS, "max", lambda values: bad)
    with pytest.raises(SchemaError):
        exec_groupjoin(t, "g", [("max", "v")])
    # A state's cache keeps only checked columns: every call checks again.
    state = ExecState({"t": t})
    for _ in range(2):
        with pytest.raises(SchemaError):
            exec_transform(state, GroupJoin("u", "t", "g", (("max", "v"),)))


def test_a_state_computes_each_groupjoin_aggregate_once(monkeypatch):
    t = Table("t", Schema([("g", INT), ("v", INT)]), [(1, 4), (1, 5), (2, 7)])
    groups_seen = []
    monkeypatch.setitem(AGGREGATIONS, "max",
                        lambda values: groups_seen.append(values) or max(values))
    state = ExecState({"t": t})
    for target, aggs in (("u", (("max", "v"),)),
                         ("w", (("cnt", "v"), ("max", "v"), ("max", "v")))):
        exec_transform(state, GroupJoin(target, "t", "g", aggs))
    assert groups_seen == [[4, 5], [7]]


@given(st.data())
def test_groupjoin_through_a_state_cache_equals_a_fresh_call(data):
    # Two states define two tables of one schema under swapped names; each
    # state's cache must serve each name only its own table, across calls
    # and within a call that repeats an aggregate.
    t1 = data.draw(_tables("t"))
    t2 = Table("t", t1.schema, data.draw(st.lists(
        st.tuples(*(_CELLS[ty] for _, ty in t1.schema.columns)), max_size=8)))
    states = [ExecState({"t": t1, "u": t2.renamed("u")}),
              ExecState({"t": t2, "u": t1.renamed("u")})]
    for k in range(4):
        col_index, aggs = data.draw(_groupjoin_args(t1))
        aggs += data.draw(st.lists(st.sampled_from(aggs), max_size=2))
        src = data.draw(st.sampled_from(["t", "u"]))
        for state in data.draw(st.permutations(states)):
            got = exec_transform(state, GroupJoin(f"g{k}", src, col_index,
                                                  tuple(aggs)))
            fresh = exec_groupjoin(state[src], col_index, aggs, f"g{k}")
            assert got == fresh and got.name == fresh.name
            assert got.rows == _groupjoin_by_rescan(state[src], col_index, aggs)


@st.composite
def _predicates_over(draw, t, max_size=3):
    """A random predicate of at most ``max_size`` atoms over ``t``: atoms
    under ``And`` and ``Or``, any node possibly negated."""
    atoms = _atoms(t.schema, [0, -1, "a"])

    def tree(size):
        if size == 1:
            p = draw(st.sampled_from(atoms))
        else:
            left = draw(st.integers(1, size - 1))
            op = draw(st.sampled_from([And, Or]))
            p = op(tree(left), tree(size - left))
        return Not(p) if draw(st.booleans()) else p

    return tree(draw(st.integers(1, max_size)))


def _holds_by_definition(p, row, schema) -> bool:
    """``p`` on one row: its atoms by their symbol's test, then Python's
    ``not``, ``and`` and ``or``."""
    if isinstance(p, SymbolApp):
        return dsl._leaf_holds(p, row, schema)
    if isinstance(p, Not):
        return not _holds_by_definition(p.inner, row, schema)
    left = _holds_by_definition(p.left, row, schema)
    right = _holds_by_definition(p.right, row, schema)
    return left and right if isinstance(p, And) else left or right


@given(st.data())
def test_a_filter_mask_holds_eval_predicate_row_by_row(data):
    # One cache for every predicate, as a search shares its atoms' masks.
    t = data.draw(_SMALL_OR_ANY_TABLES)
    cache = {}
    for _ in range(3):
        p = data.draw(_predicates_over(t))
        mask = dsl.predicate_mask(t, p, cache)
        assert 0 <= mask < 1 << t.nrows
        for i, row in enumerate(t.rows):
            holds = _holds_by_definition(p, row, t.schema)
            assert bool(mask >> i & 1) == eval_predicate(p, row, t.schema) == holds
        assert exec_filter(t, p).rows == tuple(
            r for r in t.rows if eval_predicate(p, r, t.schema))


@given(st.data())
def test_filter_and_order_through_a_state_cache_equal_fresh_calls(data):
    # As for GroupJoin: two states define two tables of one schema under
    # swapped names, and each state's cache must serve each name only its
    # own table's atom masks and ranks.
    t1 = data.draw(_tables("t"))
    t2 = Table("t", t1.schema, data.draw(st.lists(
        st.tuples(*(_CELLS[ty] for _, ty in t1.schema.columns)), max_size=8)))
    states = [ExecState({"t": t1, "u": t2.renamed("u")}),
              ExecState({"t": t2, "u": t1.renamed("u")})]
    for k in range(4):
        p = data.draw(_predicates_over(t1))
        args = data.draw(_order_args(t1))
        src = data.draw(st.sampled_from(["t", "u"]))
        for state in data.draw(st.permutations(states)):
            t = state[src]
            got = exec_transform(state, Filter(f"f{k}", src, p))
            fresh = exec_filter(t, p, f"f{k}")
            assert got == fresh and got.name == fresh.name
            assert got.rows == tuple(r for r in t.rows
                                     if eval_predicate(p, r, t.schema))
            got = exec_transform(state, Order(f"o{k}", src, *args))
            fresh = exec_order(t, *args, name=f"o{k}")
            assert got == fresh and got.name == fresh.name
            assert got.rows == _order_by_rescan(t, *args)


def _renamed_stmt(stmt, names: dict):
    """``stmt`` over the source ``t`` with its column names mapped by
    ``names``."""
    def pred(p):  # a depth-1 predicate: an atom or a negated atom
        if isinstance(p, Not):
            return Not(pred(p.inner))
        return SymbolApp(p.symbol, names[p.col],
                         names[p.arg] if p.arg_is_col else p.arg, p.arg_is_col)
    if isinstance(stmt, Filter):
        return Filter(stmt.target, "t", pred(stmt.predicate))
    if isinstance(stmt, GroupJoin):
        return GroupJoin(stmt.target, "t", names[stmt.col_index],
                         tuple((agg, names[col]) for agg, col in stmt.aggs))
    return Order(stmt.target, "t", names[stmt.col], stmt.c_start, stmt.c_inv,
                 names.get(stmt.col_index))


@given(st.data())
def test_tables_equal_up_to_duplicate_columns_give_equal_column_sets(data):
    # Forward search keeps one of two tables with one column set. Every
    # depth-1 statement over the copy must then have a counterpart over the
    # table it merges into, with an equal column set or the same failure.
    base = data.draw(_tables("b"))
    n = len(base.schema)
    # The copy's columns: each column of the base, in any order, some twice.
    picks = data.draw(st.permutations(range(n)))
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
        picks.insert(data.draw(st.integers(picks.index(i) + 1, len(picks))), i)
    copy = Table("tp", Schema((f"d{k}", base.schema.columns[i][1])
                              for k, i in enumerate(picks)),
                 [tuple(row[i] for i in picks) for row in base.rows])
    # The table it merges into: its first occurrence of each column.
    first = sorted(range(n), key=picks.index)
    t = Table("t", Schema(base.schema.columns[i] for i in first),
              [tuple(row[i] for i in first) for row in base.rows])
    assert _column_set(copy) == _column_set(t)
    names = {f"d{k}": base.schema.names[i] for k, i in enumerate(picks)}
    sig = ActionSignature("act", tuple(copy.schema.columns))
    out = Table("to", sig.output_schema(), [("act",) + r for r in copy.rows])
    engine = _Engine(SynthTask((copy,), out, sig, (0, -1, "a")))
    state = ExecState({"tp": copy, "t": t})
    for stmt in engine._candidates(1):
        assert not isinstance(stmt, Join)
        try:
            want = _column_set(exec_transform(state, stmt))
        except SchemaError:
            want = SchemaError
        try:
            got = _column_set(exec_transform(state, _renamed_stmt(stmt, names)))
        except SchemaError:
            got = SchemaError
        assert got == want, stmt


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


def test_exec_program_type_checks_each_statement_once(monkeypatch):
    case = load_benchmark(BENCHMARKS / "gif" / "running-example.json")
    program = parse_program(case.reference_program)
    calls = {"_yield_problems": 0, "_check_predicate": 0}

    def counted(name):
        check = getattr(dsl, name)

        def wrapper(*args):
            calls[name] += 1
            return check(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(dsl, name, counted(name))
    type_of = table.type_of
    cells = []

    def counted_type_of(value):
        cells.append(value)
        return type_of(value)

    monkeypatch.setattr(table, "type_of", counted_type_of)
    monkeypatch.setattr(dsl, "type_of", counted_type_of)
    assert exec_program(program, case.inputs, case.action) == case.output
    assert calls == {"_yield_problems": 2, "_check_predicate": 2}
    # The output's 20 cells are typed once, in their Yield's table; the
    # union of the Yields' rows is not checked again.
    assert case.output.nrows * len(case.output.schema) == 20
    assert len(cells) == 24


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


def test_exec_yield_rejects_a_non_yield(frames_in):
    stmt = Filter("u", "ti", SymbolApp("IsOdd", "frame"))
    with pytest.raises(SchemaError, match="not a Yield: Filter"):
        exec_yield(ExecState({"ti": frames_in}), stmt, SHIFT)


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
