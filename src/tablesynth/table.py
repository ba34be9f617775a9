"""Value, schema, and table primitives.

Tables are immutable, schema-typed sets of rows. Rows are kept in a canonical
total order (per-cell ordering, identity tokens compared by label) so that
iteration, hashing, and serialization are deterministic. Cell values are plain
``int`` and ``str`` plus the opaque :class:`Id` token; booleans are rejected.
Ids are interned, one object per label, so they compare and hash by identity.
:class:`Interned` is the one interning mechanism; ``features.TokenClass``
uses it too.

The public ``Table(...)`` checks every cell, removes duplicate rows and sorts
them. ``Table._canonical`` only stores its rows. An operator may pass rows to
it only when it derives them, in canonical order, from checked tables (a
subsequence of one table's rows, nested pairs of two tables' rows, a table's
rows with cells appended, or the distinct rows of tables of one schema
sorted by ``row_key``), and it type-checks every cell it computes.
"""

from __future__ import annotations

import enum
import json
import threading
import weakref
from typing import Iterable, Sequence

from .errors import IntRangeError, RowLookupError, SchemaError

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


class Interned:
    """Base of the interned value types (hash-consing): ``cls(*fields)``
    returns the one live object with those fields, so equality and hashing
    are ``object``'s identity, which run in C. Each subclass has its own
    weak table and lock. The fields fill the subclass's ``__slots__``; an
    object is built, checked by ``_check`` and kept only when none is live,
    and leaves the table once no one references it. Fields are immutable,
    and copies rebuild through the constructor."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls):
        cls._instances = weakref.WeakValueDictionary()
        cls._lock = threading.Lock()

    def __new__(cls, *fields):
        with cls._lock:
            try:
                return cls._instances[fields]
            except (KeyError, TypeError):  # none is live, or unhashable fields
                pass
            self = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields, strict=True):
                object.__setattr__(self, name, value)
            self._check()
            cls._instances[fields] = self
        return self

    def _check(self):
        """Raise when the fields make no valid object."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Id(Interned):
    """Opaque identity token. Equality-comparable; never used in arithmetic
    or string features. The label ordering is used only for canonicalization.
    Interned: ``Id(label)`` returns the one live object per label."""

    __slots__ = ("label",)

    def _check(self):
        if not isinstance(self.label, str):
            raise SchemaError(f"an Id label must be a string, not {self.label!r}")

    def __lt__(self, other):
        return self.label < other.label if isinstance(other, Id) else NotImplemented

    def __le__(self, other):
        return self.label <= other.label if isinstance(other, Id) else NotImplemented

    def __gt__(self, other):
        return self.label > other.label if isinstance(other, Id) else NotImplemented

    def __ge__(self, other):
        return self.label >= other.label if isinstance(other, Id) else NotImplemented

    def __repr__(self) -> str:
        return f"Id({self.label!r})"


class ColumnType(enum.Enum):
    INT = "Int"
    STR = "Str"
    ID = "Id"

    # Members are singletons: identity hashing runs in C, Enum.__hash__ does not.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


Value = int | str | Id


def type_of(value: Value) -> ColumnType:
    """Return the unique column type of a cell value; an Int outside the
    signed 64-bit range raises IntRangeError."""
    if isinstance(value, bool):
        raise SchemaError("boolean is not a table value")
    if isinstance(value, int):
        check_int(value)
        return ColumnType.INT
    if isinstance(value, str):
        return ColumnType.STR
    if isinstance(value, Id):
        return ColumnType.ID
    raise SchemaError(f"unsupported cell value {value!r}")


def check_int(n: int) -> int:
    """Reject integers outside the signed 64-bit range (no silent wrap)."""
    if not (I64_MIN <= n <= I64_MAX):
        raise IntRangeError(f"integer {n} out of 64-bit range")
    return n


def row_key(row: Sequence[Value]) -> tuple:
    """The canonical sort key of a row: Id cells compare by label. Within one
    column all values share a type, so per-type keys suffice."""
    return tuple(v.label if isinstance(v, Id) else v for v in row)


def _checked_name(name: str) -> str:
    """``name``, which must be a ``str``: a table or column name is never
    converted, so a JSON name of another type is a SchemaError."""
    if not isinstance(name, str):
        raise SchemaError(f"name {name!r} is not a string")
    return name


class Schema:
    """Ordered list of (name, type) columns; lookup is by name."""

    __slots__ = ("columns", "_index", "_hash")

    def __init__(self, columns: Iterable[tuple[str, ColumnType]]):
        cols = tuple((_checked_name(n), t) for n, t in columns)
        if not cols:
            raise SchemaError("a schema must have at least one column")
        names = [n for n, _ in cols]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        for _, t in cols:
            if not isinstance(t, ColumnType):
                raise SchemaError(f"bad column type {t!r}")
        self.columns = cols
        self._index = {n: i for i, (n, _) in enumerate(cols)}
        # Every seen-table lookup hashes a schema.
        self._hash = hash(cols)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def type_of(self, name: str) -> ColumnType:
        return self.columns[self.index(name)][1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{t}" for n, t in self.columns)
        return f"Schema({inner})"


class Table:
    """Named, schema-typed, unordered set of rows with deterministic storage.

    ``rows`` is a tuple sorted by the canonical key; duplicates are removed at
    construction. Equality and hashing ignore the name: two tables are equal
    iff they have the same schema and the same row set. Equal row sets are
    equal ``rows`` tuples because the canonical order is total, so both
    compare ``(schema, rows)``. ``column`` keeps the columns it builds in one
    more slot, which equality, hashing and pickling leave out.
    """

    __slots__ = ("name", "schema", "rows", "_columns")

    def __init__(self, name: str, schema: Schema, rows: Iterable[Sequence[Value]]):
        self.name = _checked_name(name)
        self.schema = schema
        checked = set()
        for row in rows:
            row = tuple(row)
            if len(row) != len(schema):
                raise SchemaError(
                    f"row arity {len(row)} != schema arity {len(schema)} in {name!r}"
                )
            for value, (col, ty) in zip(row, schema.columns):
                if type_of(value) is not ty:
                    raise SchemaError(
                        f"cell {value!r} does not match column {col}:{ty} in {name!r}"
                    )
            checked.add(row)
        self.rows = tuple(sorted(checked, key=row_key))

    @classmethod
    def _canonical(cls, name: str, schema: Schema, rows: Iterable[tuple]) -> "Table":
        """A table over ``rows`` stored as given. They must already be typed
        for ``schema``, distinct and in canonical order (see the module
        docstring for who may call this)."""
        t = cls.__new__(cls)
        t.name = _checked_name(name)
        t.schema = schema
        t.rows = tuple(rows)
        return t

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __contains__(self, row) -> bool:
        return tuple(row) in self.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Table)
            and self.schema == other.schema
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.schema, self.rows))

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {self.nrows} rows, {self.schema!r})"

    def column(self, name: str) -> tuple[Value, ...]:
        """All values of one column, in canonical row order.

        The first call transposes every row into a tuple per column and
        keeps them; a later call returns the kept tuple. A table without
        rows has ``()`` for every column."""
        i = self.schema.index(name)
        try:
            columns = self._columns
        except AttributeError:
            columns = self._columns = (tuple(zip(*self.rows)) if self.rows
                                       else ((),) * len(self.schema))
        return columns[i]

    def __getstate__(self):
        # The column cache is rebuilt on first use, not copied or pickled.
        return None, {"name": self.name, "schema": self.schema, "rows": self.rows}

    def renamed(self, name: str) -> "Table":
        return Table._canonical(name, self.schema, self.rows)


# ---------------------------------------------------------------------------
# The four primitive table operations.


def fetch(t: Table, row, col: str) -> Value:
    """Value of the cell at ``row`` (a row tuple or canonical index) and ``col``."""
    i = t.schema.index(col)
    if isinstance(row, int) and not isinstance(row, bool):
        try:
            return t.rows[row][i]
        except IndexError:
            raise RowLookupError(f"row index {row} out of range") from None
    row = tuple(row)
    if row not in t:
        raise RowLookupError(f"row {row!r} is not a member of {t.name!r}")
    return row[i]


def project(t: Table, cols: Sequence[str]) -> Table:
    """Keep exactly ``cols`` (in the given order) and deduplicate rows."""
    if not cols:
        raise SchemaError("projection onto zero columns")
    idx = [t.schema.index(c) for c in cols]
    schema = Schema((c, t.schema.columns[i][1]) for c, i in zip(cols, idx))
    return Table(t.name, schema, (tuple(row[i] for i in idx) for row in t.rows))


def append_column(t: Table, name: str, ty: ColumnType, vals: Sequence[Value]) -> Table:
    """Append a column; ``vals`` is aligned to the canonical row order."""
    if name in t.schema:
        raise SchemaError(f"column {name!r} already exists")
    if len(vals) != t.nrows:
        raise SchemaError(f"{len(vals)} values for {t.nrows} rows")
    for v in vals:
        if type_of(v) is not ty:
            raise SchemaError(f"value {v!r} does not match declared type {ty}")
    schema = Schema(list(t.schema.columns) + [(name, ty)])
    out = Table(t.name, schema, (row + (v,) for row, v in zip(t.rows, vals)))
    assert out.nrows == t.nrows, "appending may not merge distinct rows"
    return out


def union(t1: Table, t2: Table) -> Table:
    """Set union of two tables with identical schemas."""
    if t1.schema != t2.schema:
        raise SchemaError(f"schema mismatch: {t1.schema!r} vs {t2.schema!r}")
    return Table(t1.name, t1.schema, t1.rows + t2.rows)


# ---------------------------------------------------------------------------
# JSON serialization. Format: {name, columns:[{name,type}], rows:[[...]]},
# Id cells encoded as {"id": "<label>"}.


def value_to_json(value: Value):
    if isinstance(value, Id):
        return {"id": value.label}
    return value


def value_from_json(obj) -> Value:
    """The table value ``obj`` encodes; an Int outside the signed 64-bit
    range raises IntRangeError."""
    if isinstance(obj, dict):
        if set(obj) != {"id"} or not isinstance(obj["id"], str):
            raise SchemaError(f"malformed Id cell {obj!r}")
        return Id(obj["id"])
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise SchemaError(f"unsupported cell {obj!r}")
    return check_int(obj) if isinstance(obj, int) else obj


def table_to_json(t: Table) -> dict:
    return {
        "name": t.name,
        "columns": [{"name": n, "type": str(ty)} for n, ty in t.schema.columns],
        "rows": [[value_to_json(v) for v in row] for row in t.rows],
    }


def table_from_json(obj: dict) -> Table:
    try:
        name = obj["name"]
        columns = obj["columns"]
        rows = obj["rows"]
    except KeyError as exc:
        raise SchemaError(f"malformed table object: missing {exc}") from None
    except TypeError:
        raise SchemaError(f"malformed table object: {type(obj).__name__} is "
                          "not a JSON object") from None
    try:
        schema = Schema((c["name"], ColumnType(c["type"])) for c in columns)
    except (TypeError, KeyError, ValueError) as exc:
        raise SchemaError(f"malformed column list: {exc}") from None
    return Table(name, schema, ([value_from_json(v) for v in row] for row in rows))


def dumps_table(t: Table) -> str:
    return json.dumps(table_to_json(t), indent=2)


def loads_table(text: str) -> Table:
    return table_from_json(json.loads(text))
