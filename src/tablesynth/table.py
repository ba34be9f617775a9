"""Value, schema, and table primitives.

Tables are immutable, schema-typed sets of rows. Rows are kept in a canonical
total order (per-cell ordering, identity tokens compared by label) so that
iteration, hashing, and serialization are deterministic. Cell values are plain
``int`` and ``str`` plus the opaque :class:`Id` token; booleans are rejected.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import IntRangeError, RowLookupError, SchemaError

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


@dataclass(frozen=True, order=True)
class Id:
    """Opaque identity token. Equality-comparable; never used in arithmetic
    or string features. The label ordering is used only for canonicalization."""

    label: str

    def __repr__(self) -> str:
        return f"Id({self.label!r})"


class ColumnType(enum.Enum):
    INT = "Int"
    STR = "Str"
    ID = "Id"

    def __str__(self) -> str:
        return self.value


Value = int | str | Id


def type_of(value: Value) -> ColumnType:
    """Return the unique column type of a cell value."""
    if isinstance(value, bool):
        raise SchemaError("boolean is not a table value")
    if isinstance(value, int):
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


class Schema:
    """Ordered list of (name, type) columns; lookup is by name."""

    __slots__ = ("columns", "_index")

    def __init__(self, columns: Iterable[tuple[str, ColumnType]]):
        cols = tuple((str(n), t) for n, t in columns)
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
        return hash(self.columns)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{t}" for n, t in self.columns)
        return f"Schema({inner})"


class Table:
    """Named, schema-typed, unordered set of rows with deterministic storage.

    ``rows`` is a tuple sorted by the canonical key; duplicates are removed at
    construction. Equality and hashing ignore the name: two tables are equal
    iff they have the same schema and the same row set.
    """

    __slots__ = ("name", "schema", "rows", "_rowset")

    def __init__(self, name: str, schema: Schema, rows: Iterable[Sequence[Value]]):
        self.name = str(name)
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
                if isinstance(value, int):
                    check_int(value)
            checked.add(row)
        self.rows = tuple(sorted(checked, key=row_key))
        self._rowset = frozenset(self.rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __contains__(self, row) -> bool:
        return tuple(row) in self._rowset

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Table)
            and self.schema == other.schema
            and self._rowset == other._rowset
        )

    def __hash__(self) -> int:
        return hash((self.schema, self._rowset))

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {self.nrows} rows, {self.schema!r})"

    def column(self, name: str) -> tuple[Value, ...]:
        """All values of one column, in canonical row order."""
        i = self.schema.index(name)
        return tuple(row[i] for row in self.rows)

    def renamed(self, name: str) -> "Table":
        return Table(name, self.schema, self.rows)


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
    if isinstance(obj, dict):
        if set(obj) != {"id"} or not isinstance(obj["id"], str):
            raise SchemaError(f"malformed Id cell {obj!r}")
        return Id(obj["id"])
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise SchemaError(f"unsupported cell {obj!r}")
    return obj


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
    except (TypeError, KeyError) as exc:
        raise SchemaError(f"malformed table object: missing {exc}") from None
    try:
        schema = Schema((c["name"], ColumnType(c["type"])) for c in columns)
    except (TypeError, KeyError, ValueError) as exc:
        raise SchemaError(f"malformed column list: {exc}") from None
    return Table(name, schema, ([value_from_json(v) for v in row] for row in rows))


def dumps_table(t: Table) -> str:
    return json.dumps(table_to_json(t), indent=2)


def loads_table(text: str) -> Table:
    return table_from_json(json.loads(text))
