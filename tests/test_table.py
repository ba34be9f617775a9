"""Tables: canonical set semantics, typing, and JSON round trips."""

from __future__ import annotations

import copy
import gc
import pickle
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from tablesynth.dsl import ConstP, Program, Yield
from tablesynth.errors import (
    IntRangeError,
    RowLookupError,
    SchemaError,
    TableSynthError,
)
from tablesynth.table import (
    ColumnType,
    Id,
    Schema,
    Table,
    append_column,
    check_int,
    dumps_table,
    fetch,
    loads_table,
    project,
    table_from_json,
    table_to_json,
    type_of,
    union,
    value_from_json,
)
from tablesynth.features import FeatureFamily, TokenClass
from tablesynth.progtext import format_program, parse_program

INT = ColumnType.INT
STR = ColumnType.STR
ID = ColumnType.ID


def test_type_of():
    assert type_of(3) is INT
    assert type_of("x") is STR
    assert type_of(Id("a")) is ID
    with pytest.raises(SchemaError):
        type_of(True)  # bools are not Int values
    with pytest.raises(SchemaError):
        type_of(3.5)


def test_id_is_one_object_per_label():
    a = Id("a")
    assert Id("a") is a
    assert Id("a") == a and hash(Id("a")) == hash(a)
    assert a != Id("b")
    assert a != "a" and "a" != a  # an Id is not its label
    assert repr(a) == "Id('a')"


def test_ids_order_by_label():
    assert sorted([Id("c"), Id("a"), Id("b")]) == [Id("a"), Id("b"), Id("c")]
    assert Id("a") < Id("b") <= Id("b") and Id("c") > Id("b") >= Id("b")
    with pytest.raises(TypeError):
        Id("a") < "b"


def test_id_needs_a_string_label():
    for bad in 5, None, b"a", ["a"]:
        with pytest.raises(SchemaError):
            Id(bad)
    assert Id("a").label == "a"


def test_id_round_trips_through_json_and_program_text():
    t = Table("t", Schema([("id", ID)]), [(Id("e1"),)])
    assert loads_table(dumps_table(t)).rows[0][0] is Id("e1")
    program = Program((), (Yield("t", (ConstP("act"), ConstP(Id("e7")))),))
    parsed = parse_program(format_program(program))
    assert parsed == program
    assert parsed.mapping[0].projections[1].value is Id("e7")


# -- the interning contract, for every interned class ------------------------

#: Per interned class, its fields built from a fresh string.
each_interned_class = pytest.mark.parametrize("cls, fields", [
    (Id, lambda s: (s,)),
    (TokenClass, lambda s: ("Punct", s)),
], ids=["Id", "TokenClass"])


@each_interned_class
def test_interned_copies_are_the_live_object(cls, fields):
    a = cls(*fields("copied"))
    assert pickle.loads(pickle.dumps(a)) is a
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a
    assert copy.deepcopy([a, (a,)]) == [a, (a,)]


@each_interned_class
def test_interned_objects_are_immutable(cls, fields):
    a = cls(*fields("fixed"))
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, "other")
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.other = 1
    assert tuple(getattr(a, name) for name in cls.__slots__) == fields("fixed")


@each_interned_class
def test_an_unreferenced_interned_object_leaves_its_table(cls, fields):
    key = fields("only-in-this-test")
    cls(*key)
    gc.collect()
    assert key not in cls._instances
    a = cls(*key)
    assert cls._instances[key] is a


@each_interned_class
def test_threads_building_the_same_fields_share_objects(cls, fields):
    rounds = [[fields(f"thread-{r}-{i}") for i in range(50)] for r in range(20)]
    built = [[] for _ in range(4)]
    start = threading.Barrier(4, timeout=10)

    def build(k):
        for keys in rounds:  # each round starts together, on fresh fields
            start.wait()
            built[k] += [cls(*key) for key in keys]

    threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for objs in built:
        assert ([tuple(getattr(x, name) for name in cls.__slots__) for x in objs]
                == [key for keys in rounds for key in keys])
        assert all(x is y for x, y in zip(objs, built[0]))


def test_hot_value_types_hash_in_c():
    # Identity hashing: the interpreter's own slot, no Python frame per hash.
    assert Id.__hash__ is object.__hash__
    assert ColumnType.__hash__ is object.__hash__
    assert FeatureFamily.__hash__ is object.__hash__
    for member in (*ColumnType, *FeatureFamily):
        assert pickle.loads(pickle.dumps(member)) is member
        assert copy.deepcopy(member) is member


def test_check_int_range():
    assert check_int(2**63 - 1) == 2**63 - 1
    assert check_int(-(2**63)) == -(2**63)
    with pytest.raises(IntRangeError):
        check_int(2**63)
    with pytest.raises(IntRangeError):
        check_int(-(2**63) - 1)


def test_schema_unique_names():
    with pytest.raises(SchemaError):
        Schema([("a", INT), ("a", STR)])


def test_schema_lookup():
    s = Schema([("a", INT), ("b", STR)])
    assert s.names == ("a", "b")
    assert s.index("b") == 1
    assert s.type_of("a") is INT
    assert "a" in s and "z" not in s
    with pytest.raises(SchemaError):
        s.index("z")


def test_table_dedup_and_sort():
    s = Schema([("a", INT)])
    t = Table("t", s, [(3,), (1,), (3,), (2,)])
    assert t.rows == ((1,), (2,), (3,))
    assert t.nrows == 3


def test_table_equality_ignores_name():
    s = Schema([("a", INT)])
    assert Table("x", s, [(1,)]) == Table("y", s, [(1,)])
    assert hash(Table("x", s, [(1,)])) == hash(Table("y", s, [(1,)]))
    assert Table("x", s, [(1,)]) != Table("x", s, [(2,)])


def test_table_rejects_wrong_types():
    s = Schema([("a", INT)])
    with pytest.raises(SchemaError):
        Table("t", s, [("oops",)])
    with pytest.raises(SchemaError):
        Table("t", s, [(1, 2)])


def test_fetch_project_append():
    s = Schema([("a", INT), ("b", STR)])
    t = Table("t", s, [(1, "x"), (2, "y")])
    assert fetch(t, (1, "x"), "b") == "x"
    with pytest.raises(RowLookupError):
        fetch(t, (9, "z"), "b")
    p = project(t, ["b"])
    assert p.schema.names == ("b",)
    t2 = append_column(t, "c", INT, [10, 20])
    assert t2.column("c") == (10, 20)
    with pytest.raises(SchemaError):
        append_column(t, "a", INT, [1, 2])  # name collision


def test_union_requires_same_schema():
    a = Table("a", Schema([("x", INT)]), [(1,)])
    b = Table("b", Schema([("x", INT)]), [(2,)])
    c = Table("c", Schema([("y", INT)]), [(2,)])
    assert union(a, b).rows == ((1,), (2,))
    with pytest.raises(SchemaError):
        union(a, c)


def test_json_round_trip():
    s = Schema([("id", ID), ("n", INT), ("s", STR)])
    t = Table("t", s, [(Id("e1"), -4, "hi"), (Id("e2"), 7, "")])
    assert table_from_json(table_to_json(t)) == t
    assert loads_table(dumps_table(t)) == t
    # Id cells serialize as tagged objects, not bare strings.
    obj = table_to_json(t)
    assert obj["rows"][0][0] == {"id": "e1"}


def test_json_values_are_range_checked():
    assert [value_from_json(v) for v in (-2**63, 2**63 - 1)] == [-2**63, 2**63 - 1]
    for value in (2**63, -2**63 - 1, 2**70):
        with pytest.raises(IntRangeError, match="out of 64-bit range"):
            value_from_json(value)


@pytest.mark.parametrize("obj, message", [
    (None, "NoneType is not a JSON object"), ([], "list is not a JSON object"),
    ({"name": "t", "columns": []}, "missing 'rows'"),
])
def test_malformed_table_objects_are_named(obj, message):
    with pytest.raises(SchemaError, match=f"^malformed table object: {message}$"):
        table_from_json(obj)


@pytest.mark.parametrize("name", [5, ["a"], None, b"a"])
def test_names_are_checked_not_converted(name):
    # An unhashable name is a SchemaError too, not a TypeError from the
    # duplicate-name check.
    with pytest.raises(SchemaError, match="is not a string"):
        Schema([(name, INT)])
    with pytest.raises(SchemaError, match="is not a string"):
        Table(name, Schema([("a", INT)]), [])
    with pytest.raises(SchemaError, match="is not a string"):
        Table("t", Schema([("a", INT)]), []).renamed(name)
    good = {"name": "t", "columns": [{"name": "a", "type": "Int"}], "rows": []}
    for obj in ({**good, "name": name},
                {**good, "columns": [{"name": name, "type": "Int"}]}):
        with pytest.raises(SchemaError, match="is not a string"):
            table_from_json(obj)


def test_errors_are_a_hierarchy():
    assert issubclass(SchemaError, TableSynthError)
    assert issubclass(IntRangeError, TableSynthError)
    assert issubclass(RowLookupError, TableSynthError)


rows_st = st.lists(
    st.tuples(st.integers(-50, 50),
              st.text(alphabet="abc", max_size=3)),
    max_size=6,
)


@given(rows_st, rows_st)
def test_union_commutes_and_dedups(r1, r2):
    s = Schema([("n", INT), ("s", STR)])
    a, b = Table("a", s, r1), Table("b", s, r2)
    u = union(a, b)
    assert u == union(b, a)
    assert union(u, u) == u
    assert set(u.rows) == set(a.rows) | set(b.rows)


# Rows over an Id, an Int and a Str column, from small domains so that rows
# repeat and Id labels coincide with Str values.
_MIXED = Schema([("id", ID), ("n", INT), ("s", STR)])
_MIXED_CELLS = (st.sampled_from([Id("a"), Id("b")]), st.integers(-2, 2),
                st.sampled_from(["", "a", "b"]))
_mixed_rows_st = st.lists(st.tuples(*_MIXED_CELLS), max_size=6)
#: A probe of any arity from 2 to 4, with any cell in any position.
_probe_st = st.lists(st.one_of(*_MIXED_CELLS), min_size=2, max_size=4).map(tuple)


@given(st.data())
def test_tables_of_one_row_set_are_equal(data):
    rows = data.draw(_mixed_rows_st)
    t = Table("t", _MIXED, rows)
    shuffled = data.draw(st.permutations(rows))
    repeated = shuffled + data.draw(st.lists(st.sampled_from(rows))
                                    if rows else st.just([]))
    for other in (Table("u", _MIXED, shuffled), Table("v", _MIXED, repeated)):
        assert other == t and hash(other) == hash(t)
        assert other.rows == t.rows


@given(_mixed_rows_st, _mixed_rows_st)
def test_tables_of_different_row_sets_differ(r1, r2):
    t1, t2 = Table("t", _MIXED, r1), Table("t", _MIXED, r2)
    assert (t1 == t2) == (set(r1) == set(r2))


@given(_mixed_rows_st, st.lists(_probe_st, max_size=4))
def test_row_membership_holds_exactly_for_members(rows, probes):
    t = Table("t", _MIXED, rows)
    for row in rows:
        assert row in t and list(row) in t
        # Its sort key is no member: an Id is not its label.
        assert (row[0].label,) + row[1:] not in t
    for probe in probes:
        assert (probe in t) == (probe in set(rows))


@given(rows_st)
def test_row_order_is_canonical(rows):
    s = Schema([("n", INT), ("s", STR)])
    t = Table("t", s, rows)
    assert Table("t", s, reversed(rows)) == t
    assert table_from_json(table_to_json(t)).rows == t.rows


# -- the column cache ----------------------------------------------------------

def _tables_of(rows):
    """A public table over ``rows``, the same rows through ``_canonical`` and
    ``renamed``, and a table without rows."""
    t = Table("t", _MIXED, rows)
    return [t, Table._canonical("c", _MIXED, t.rows), t.renamed("r"),
            Table("e", _MIXED, [])]


@given(_mixed_rows_st)
def test_a_column_is_the_rows_read_down_and_kept(rows):
    for t in _tables_of(rows):
        for i, name in enumerate(t.schema.names):
            col = t.column(name)
            assert col == tuple(r[i] for r in t.rows)
            assert t.column(name) is col
    with pytest.raises(SchemaError):
        t.column("z")


def test_the_column_cache_is_not_table_state():
    rows = [(Id("a"), 1, "x"), (Id("b"), 2, "y")]
    read, unread = Table("t", _MIXED, rows), Table("t", _MIXED, rows)
    assert read.column("n") == (1, 2)
    assert not hasattr(read, "__dict__")
    assert read == unread and hash(read) == hash(unread)
    assert pickle.dumps(read) == pickle.dumps(unread)
    for other in (pickle.loads(pickle.dumps(read)), copy.copy(read),
                  copy.deepcopy(read)):
        assert other == read and other.name == read.name
        assert other.rows == read.rows and other.column("s") == ("x", "y")
    # Equality and hashing never read the cache, even a wrong one.
    read._columns = ((), (), ())
    assert read == unread and hash(read) == hash(unread)
