"""Abstract syntax, static validity, and interpretation of table programs.

A program is a sequence of transformation statements (Filter / Join /
GroupJoin / Order), each defining a fresh intermediate table, followed by a
nonempty sequence of Yield mapping statements whose outputs are unioned into
the final action table.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .errors import IntRangeError, SchemaError, ValidationFailure
from .features import FAMILIES, FeatureInstance, apply_feature, FeatureMissError
from .table import ColumnType, Schema, Table, Value, check_int, row_key, type_of

# ---------------------------------------------------------------------------
# Predicates.

#: symbol -> (argument kinds, operand type, test). Kinds: "cc" column/column,
#: "ck" column/constant, "c" single column. The test takes the column value,
#: then the second argument's value for two-argument kinds.
PREDICATE_SYMBOLS = {
    "IntEq": ("cc ck", ColumnType.INT, operator.eq),
    "IntLt": ("cc ck", ColumnType.INT, operator.lt),
    "IntLeq": ("cc ck", ColumnType.INT, operator.le),
    "IntGt": ("cc ck", ColumnType.INT, operator.gt),
    "IntGeq": ("cc ck", ColumnType.INT, operator.ge),
    "StrEq": ("cc ck", ColumnType.STR, operator.eq),
    "IsSubstring": ("cc ck", ColumnType.STR, operator.contains),
    "StartsWith": ("cc ck", ColumnType.STR, str.startswith),
    "EndsWith": ("cc ck", ColumnType.STR, str.endswith),
    # Mathematical parity: -3 is odd.
    "IsOdd": ("c", ColumnType.INT, lambda v: v % 2 == 1),
    "IsEven": ("c", ColumnType.INT, lambda v: v % 2 == 0),
}


@dataclass(frozen=True)
class SymbolApp:
    """A predicate symbol applied to a column and an optional column/constant."""

    symbol: str
    col: str
    arg: Union[str, int, None] = None  # second column name or constant
    arg_is_col: bool = False

    def __post_init__(self):
        if self.symbol not in PREDICATE_SYMBOLS:
            raise SchemaError(f"unknown predicate symbol {self.symbol}")


@dataclass(frozen=True)
class And:
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class Or:
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class Not:
    inner: "Predicate"


Predicate = Union[SymbolApp, And, Or, Not]


def _leaf_holds(app: SymbolApp, row, schema: Schema) -> bool:
    kinds, _, test = PREDICATE_SYMBOLS[app.symbol]
    v1 = row[schema.index(app.col)]
    if kinds == "c":
        return test(v1)
    return test(v1, row[schema.index(app.arg)] if app.arg_is_col else app.arg)


def predicate_mask(t: Table, p: Predicate, cache: dict) -> int:
    """The rows of ``t`` that satisfy a ``p`` that ``_check_predicate``
    accepted over ``t.schema``, as a mask: bit ``i`` is set when row ``i``
    does. Each atom is tested row by row, and its mask is kept in ``cache``
    under ``(t.name, atom)``; ``Not``, ``And`` and ``Or`` combine masks."""
    if isinstance(p, SymbolApp):
        key = (t.name, p)
        mask = cache.get(key)
        if mask is None:
            mask = cache[key] = sum(1 << i for i, row in enumerate(t.rows)
                                    if _leaf_holds(p, row, t.schema))
        return mask
    if isinstance(p, Not):
        return ((1 << t.nrows) - 1) ^ predicate_mask(t, p.inner, cache)
    left = predicate_mask(t, p.left, cache)
    right = predicate_mask(t, p.right, cache)
    return left & right if isinstance(p, And) else left | right


def eval_predicate(p: Predicate, row, schema: Schema) -> bool:
    """Whether ``row`` of a table of ``schema`` satisfies ``p``; raises
    SchemaError when ``p`` is not a predicate or is mistyped for ``schema``,
    and IntRangeError when one of its Int constants is out of range."""
    _check_predicate(p, schema)
    return predicate_mask(Table._canonical("row", schema, [tuple(row)]), p,
                          {}) == 1


def _check_predicate(p: Predicate, schema: Schema):
    """Raise SchemaError naming every type problem of ``p`` over ``schema``."""
    problems = _predicate_problems(p, schema)
    if problems:
        raise SchemaError("; ".join(problems))


def _predicate_problems(p: Predicate, schema: Schema) -> list[str]:
    """Type-check a predicate; returns problem descriptions."""
    problems: list[str] = []
    if isinstance(p, SymbolApp):
        kinds, ty, _ = PREDICATE_SYMBOLS[p.symbol]
        unary = kinds == "c"
        for name in [p.col] + ([p.arg] if p.arg_is_col else []):
            if name not in schema:
                problems.append(f"unknown column {name!r}")
            elif schema.type_of(name) is not ty:
                problems.append(f"column {name!r} is not {ty} for {p.symbol}")
        if unary and p.arg is not None:
            problems.append(f"{p.symbol} takes a single column")
        if not unary:
            if p.arg is None:
                problems.append(f"{p.symbol} needs a second argument")
            elif not p.arg_is_col and type_of(p.arg) is not ty:
                problems.append(f"constant {p.arg!r} is not {ty} for {p.symbol}")
        return problems
    if isinstance(p, Not):
        return _predicate_problems(p.inner, schema)
    if isinstance(p, (And, Or)):
        return _predicate_problems(p.left, schema) + _predicate_problems(p.right, schema)
    return [f"not a predicate: {p!r}"]


# ---------------------------------------------------------------------------
# Statements.


@dataclass(frozen=True)
class Filter:
    target: str
    src: str
    predicate: Predicate


@dataclass(frozen=True)
class Join:
    target: str
    src1: str
    src2: str
    col1: str
    col2: str


@dataclass(frozen=True)
class GroupJoin:
    target: str
    src: str
    col_index: str
    aggs: tuple[tuple[str, str], ...]  # (agg, column)


@dataclass(frozen=True)
class Order:
    target: str
    src: str
    col: str
    c_start: int = 0
    c_inv: bool = False
    col_index: Optional[str] = None


TransformStmt = Union[Filter, Join, GroupJoin, Order]


def _avg(values: Sequence[int]) -> int:
    s = sum(values)
    # Integer division truncated toward zero keeps Int closed.
    q = abs(s) // len(values)
    return q if s >= 0 else -q


#: aggregation -> its value over one group's column values. Only ``cnt``
#: accepts a column that is not Int.
AGGREGATIONS = {
    "max": max,
    "min": min,
    "sum": lambda values: check_int(sum(values)),
    "avg": _avg,
    "cnt": len,
}


def sources(stmt: TransformStmt) -> list[str]:
    """The names of the tables ``stmt`` reads."""
    return [stmt.src1, stmt.src2] if isinstance(stmt, Join) else [stmt.src]


@dataclass(frozen=True)
class ColP:
    name: str


@dataclass(frozen=True)
class ConstP:
    value: Value


@dataclass(frozen=True)
class MutateP:
    feature: FeatureInstance
    cols: tuple[str, ...]


Projection = Union[ColP, ConstP, MutateP]


@dataclass(frozen=True)
class Yield:
    src: str
    projections: tuple[Projection, ...]


@dataclass(frozen=True)
class ActionSignature:
    """Defines the output schema <action:Str, arg1:t1, ...>."""

    name: str
    args: tuple[tuple[str, ColumnType], ...]

    def output_schema(self) -> Schema:
        return Schema([("action", ColumnType.STR)] + list(self.args))


@dataclass(frozen=True)
class Program:
    transform: tuple[TransformStmt, ...]
    mapping: tuple[Yield, ...]


@dataclass
class ExecState:
    """Defined tables, keyed by name. ``exec_transform`` reads it; only
    ``define`` grows it. A name is defined once and never rebound, so
    ``cache`` keeps what operators compute from a table under its name:
    each predicate atom's row mask (``predicate_mask``), each GroupJoin
    grouping and aggregate column (``exec_groupjoin``) and each Order rank
    column (``exec_order``)."""

    tables: dict[str, Table] = field(default_factory=dict)
    cache: dict = field(default_factory=dict, compare=False, repr=False)

    def define(self, t: Table):
        if t.name in self.tables:
            raise SchemaError(f"table {t.name!r} already defined")
        self.tables[t.name] = t

    def __getitem__(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"table {name!r} not defined") from None


# ---------------------------------------------------------------------------
# Transformation semantics.


def exec_filter(t: Table, predicate: Predicate, name: str = "filtered",
                cache: Optional[dict] = None) -> Table:
    """The rows of ``t`` that satisfy ``predicate``. ``cache`` holds atom
    masks as ``predicate_mask`` keeps them: an ``ExecState`` passes its
    own; a call without one computes its own."""
    _check_predicate(predicate, t.schema)
    return _filtered(t, predicate, name, {} if cache is None else cache)


def _filtered(t: Table, predicate: Predicate, name: str, cache: dict) -> Table:
    """The rows of ``t`` that satisfy a ``predicate`` that ``_check_predicate``
    accepted over ``t.schema``, selected by its mask."""
    mask = predicate_mask(t, predicate, cache)
    rows = [r for i, r in enumerate(t.rows) if mask >> i & 1]
    return Table._canonical(name, t.schema, rows)


def exec_join(t1: Table, t2: Table, col1: str, col2: str, name: str = "joined") -> Table:
    if t1.name == t2.name:
        raise SchemaError("join operands must have distinct names")
    for t, c in ((t1, col1), (t2, col2)):
        if t.schema.type_of(c) is not ColumnType.ID:
            raise SchemaError(f"join column {c!r} of {t.name!r} is not Id-typed")
    colliding = set(t1.schema.names) & set(t2.schema.names)

    def out_name(t: Table, col: str) -> str:
        return f"{t.name}.{col}" if col in colliding else col

    schema = Schema(
        [(out_name(t1, n), ty) for n, ty in t1.schema.columns]
        + [(out_name(t2, n), ty) for n, ty in t2.schema.columns]
    )
    i1 = t1.schema.index(col1)
    i2 = t2.schema.index(col2)
    # Nested in row order, so canonical: row_key(r1 + r2) is row_key(r1) + row_key(r2).
    rows = [r1 + r2 for r1 in t1.rows for r2 in t2.rows if r1[i1] == r2[i2]]
    return Table._canonical(name, schema, rows)


def _fresh_col(base: str, schema_names) -> str:
    if base not in schema_names:
        return base
    k = 2
    while f"{base}_{k}" in schema_names:
        k += 1
    return f"{base}_{k}"


def _int_column(vals: list, col: str, name: str) -> tuple[int, ...]:
    """``vals`` as a tuple, once each is checked to be an Int value of the
    column ``col`` of the table ``name``."""
    for v in vals:
        if type_of(v) is not ColumnType.INT:
            raise SchemaError(f"cell {v!r} does not match column "
                              f"{col}:{ColumnType.INT} in {name!r}")
    return tuple(vals)


def _with_int_columns(
    t: Table, columns: Sequence[tuple[str, Sequence[int]]], name: str
) -> Table:
    """``t`` extended by Int columns, built once and named ``name``.
    ``columns`` holds (base name, values aligned to ``t.rows``) pairs whose
    values ``_int_column`` checked; each column takes a fresh name against
    the columns before it. ``t``'s rows keep their canonical order."""
    names = list(t.schema.names)
    for base, _ in columns:
        names.append(_fresh_col(base, names))
    schema = Schema(list(t.schema.columns)
                    + [(n, ColumnType.INT) for n in names[len(t.schema):]])
    new_cells = zip(*(vals for _, vals in columns))
    return Table._canonical(name, schema,
                            [row + cells for row, cells in zip(t.rows, new_cells)])


def exec_groupjoin(
    t: Table, col_index: str, aggs: Sequence[tuple[str, str]],
    name: str = "grouped", cache: Optional[dict] = None,
) -> Table:
    """``t`` extended by each aggregate of its row's group by ``col_index``.
    ``cache`` holds what ``_groupjoin_columns`` keeps: an ``ExecState``
    passes its own, so each grouping and column is computed once per
    state; a call without one computes its own."""
    return _with_int_columns(t, _groupjoin_columns(
        t, col_index, aggs, name, {} if cache is None else cache), name)


def _groupjoin_columns(t: Table, col_index: str, aggs: Sequence[tuple[str, str]],
                       name: str, cache: dict) -> list[tuple[str, tuple]]:
    """The (base name, values) columns a GroupJoin appends to ``t``.
    ``cache`` keeps, per ``(t.name, col_index)``, the grouping and, per
    ``(t.name, col_index, agg, col)``, the checked aggregate column."""
    if not aggs:
        raise SchemaError("groupjoin needs at least one aggregation")
    gi = t.schema.index(col_index)
    for agg, col in aggs:
        if agg not in AGGREGATIONS:
            raise SchemaError(f"unknown aggregation {agg!r}")
        ty = t.schema.type_of(col)
        if agg != "cnt" and ty is not ColumnType.INT:
            raise SchemaError(f"{agg} over non-Int column {col!r}")
    key = (t.name, col_index)
    groups = cache.get(key)
    if groups is None:
        groups = cache[key] = {}
        for row in t.rows:
            groups.setdefault(row[gi], []).append(row)
    columns = []
    for agg, col in aggs:
        vals = cache.get(key + (agg, col))
        if vals is None:
            ci = t.schema.index(col)
            per_group = {k: AGGREGATIONS[agg]([g[ci] for g in rows])
                         for k, rows in groups.items()}
            vals = cache[key + (agg, col)] = _int_column(
                [per_group[row[gi]] for row in t.rows], f"{agg}_{col}", name)
        columns.append((f"{agg}_{col}", vals))
    return columns


def exec_order(
    t: Table,
    col: str,
    c_start: int = 0,
    c_inv: bool = False,
    col_index: Optional[str] = None,
    name: str = "ordered",
    cache: Optional[dict] = None,
) -> Table:
    """``t`` extended by each row's rank on ``col`` within its group by
    ``col_index`` (all rows when None), counted from ``c_start``. ``cache``
    holds what ``_order_columns`` keeps, as for ``exec_groupjoin``."""
    return _with_int_columns(t, _order_columns(
        t, col, c_start, c_inv, col_index, name,
        {} if cache is None else cache), name)


def _order_columns(t: Table, col: str, c_start: int, c_inv: bool,
                   col_index: Optional[str], name: str,
                   cache: dict) -> list[tuple[str, tuple]]:
    """The one (base name, values) column an Order appends to ``t``.
    ``cache`` keeps the checked ranks per ``(t.name, col, c_start, c_inv,
    col_index)``."""
    ty = t.schema.type_of(col)
    if ty is ColumnType.ID:
        raise SchemaError(f"cannot order on Id column {col!r}")
    # Checked before any row, so the validator's empty-table probe sees it;
    # ``_int_column`` range-checks every rank.
    check_int(c_start)
    key = (t.name, col, c_start, c_inv, col_index)
    ranks = cache.get(key)
    if ranks is None:
        ci = t.schema.index(col)
        gi = t.schema.index(col_index) if col_index is not None else None

        def group_of(row):
            return None if gi is None else row[gi]

        # Per group, its sorted values: a row's rank counts the values
        # strictly below it (above it when inverted).
        values: dict[Value, list] = {}
        for row in t.rows:
            values.setdefault(group_of(row), []).append(row[ci])
        for vs in values.values():
            vs.sort()
        ranks = []
        for row in t.rows:
            vs = values[group_of(row)]
            if c_inv:
                smaller = len(vs) - bisect.bisect_right(vs, row[ci])
            else:
                smaller = bisect.bisect_left(vs, row[ci])
            ranks.append(c_start + smaller)
        ranks = cache[key] = _int_column(ranks, f"ord_{col}", name)
    return [(f"ord_{col}", ranks)]


def appended_columns(state: ExecState,
                     stmt: Union[GroupJoin, Order]) -> list[tuple[str, tuple]]:
    """The (base name, values) Int columns a GroupJoin or Order appends to
    its source, computed through ``state.cache`` as ``exec_transform``
    computes them, so building the table after this call recomputes
    nothing."""
    t = state[stmt.src]
    if isinstance(stmt, GroupJoin):
        return _groupjoin_columns(t, stmt.col_index, stmt.aggs, stmt.target,
                                  state.cache)
    return _order_columns(t, stmt.col, stmt.c_start, stmt.c_inv,
                          stmt.col_index, stmt.target, state.cache)


def exec_transform(state: ExecState, stmt: TransformStmt) -> Table:
    """The table ``stmt`` computes from the tables defined in ``state``,
    named ``stmt.target``. It is not defined in ``state``; the caller
    decides whether to keep it."""
    if isinstance(stmt, Filter):
        return exec_filter(state[stmt.src], stmt.predicate, stmt.target,
                           state.cache)
    if isinstance(stmt, Join):
        return exec_join(state[stmt.src1], state[stmt.src2], stmt.col1, stmt.col2, stmt.target)
    if isinstance(stmt, GroupJoin):
        return exec_groupjoin(state[stmt.src], stmt.col_index, stmt.aggs,
                              stmt.target, state.cache)
    if isinstance(stmt, Order):
        return exec_order(state[stmt.src], stmt.col, stmt.c_start, stmt.c_inv,
                          stmt.col_index, stmt.target, state.cache)
    raise SchemaError(f"not a transform statement: {stmt!r}")


# ---------------------------------------------------------------------------
# Mapping semantics.


def _projection_type(p: Projection, schema: Schema) -> ColumnType:
    if isinstance(p, ColP):
        return schema.type_of(p.name)
    if isinstance(p, ConstP):
        return type_of(p.value)
    if isinstance(p, MutateP):
        f = p.feature
        fixed = FAMILIES[f.family][1] is not None
        if len(p.cols) < f.arity or (fixed and len(p.cols) > f.arity):
            at_least = "" if fixed else "at least "
            raise SchemaError(f"{f.family.value} takes {at_least}{f.arity} inputs, "
                              f"got {len(p.cols)}")
        for c in p.cols:
            if schema.type_of(c) is not f.in_type:
                raise SchemaError(f"mutate input {c!r} is not {f.in_type}")
        return f.out_type
    raise SchemaError(f"not a projection: {p!r}")


def _projection_values(p: Projection, t: Table) -> list[Value]:
    """The values of a projection that ``_projection_type`` accepted."""
    if isinstance(p, ColP):
        return list(t.column(p.name))
    if isinstance(p, ConstP):
        return [p.value] * t.nrows
    idx = [t.schema.index(c) for c in p.cols]
    return [apply_feature(p.feature, [row[i] for i in idx]) for row in t.rows]


def _yield_problems(stmt: Yield, schema: Schema,
                    action: ActionSignature) -> list[tuple[str, str]]:
    """The (rule, message) problems of ``stmt`` over a table of ``schema``:
    its action constant, its arity and each projection's type. A message
    continues a sentence whose subject names the Yield."""
    problems = []
    head = stmt.projections[0] if stmt.projections else None
    if not (isinstance(head, ConstP) and isinstance(head.value, str)):
        problems.append(("action constant", "must start with a constant string"))
    elif head.value != action.name:
        problems.append(("action constant", f"names action {head.value!r}, "
                                            f"expected {action.name!r}"))
    out_schema = action.output_schema()
    if len(stmt.projections) != len(out_schema):
        problems.append(("argument arity", f"has {len(stmt.projections)} projections, "
                                           f"action wants {len(out_schema)}"))
        return problems
    for j, (p, (col_name, col_ty)) in enumerate(
        zip(stmt.projections, out_schema.columns)
    ):
        try:
            ty = _projection_type(p, schema)
        except (SchemaError, IntRangeError) as exc:
            problems.append(("type check", f"arg {j}: {exc}"))
            continue
        if ty is not col_ty:
            problems.append(("argument type",
                             f"arg {j} ({col_name}) has type {ty}, wants {col_ty}"))
    return problems


def exec_yield(state: ExecState, stmt: Yield, action: ActionSignature) -> Table:
    if not isinstance(stmt, Yield):
        raise SchemaError(f"not a Yield: {stmt!r}")
    t = state[stmt.src]
    problems = _yield_problems(stmt, t.schema, action)
    if problems:
        raise SchemaError("; ".join(f"yield {message}" for _, message in problems))
    return _yielded(t, stmt, action)


def _yielded(t: Table, stmt: Yield, action: ActionSignature) -> Table:
    """The action rows of a Yield that ``_yield_problems`` accepted over
    ``t.schema``."""
    columns = [_projection_values(p, t) for p in stmt.projections]
    rows = {tuple(c[i] for c in columns) for i in range(t.nrows)}
    return Table("yielded", action.output_schema(), rows)


def exec_program(
    program: Program, inputs: Sequence[Table], action: ActionSignature
) -> Table:
    """Run the program over its inputs; returns the union of Yield outputs,
    named ``out``. Each statement is type-checked first, by
    ``validate_program``: a table's schema depends only on its sources'
    schemas, so the checks on the probe tables hold on the real ones.
    Filters and Yields then run unchecked; Join, GroupJoin and Order run
    through ``exec_transform``, whose operators check again."""
    violations = validate_program(program, [t.schema for t in inputs],
                                  [t.name for t in inputs], action)
    if violations:
        raise ValidationFailure(violations)
    state = ExecState()
    for t in inputs:
        state.define(t)
    for i, stmt in enumerate(program.transform):
        try:
            state.define(_filtered(state[stmt.src], stmt.predicate, stmt.target,
                                   state.cache)
                         if isinstance(stmt, Filter) else exec_transform(state, stmt))
        except (SchemaError, FeatureMissError, IntRangeError) as exc:
            raise SchemaError(f"transform statement {i}: {exc}") from exc
    rows = set()
    for i, stmt in enumerate(program.mapping):
        try:
            rows.update(_yielded(state[stmt.src], stmt, action).rows)
        except (SchemaError, FeatureMissError, IntRangeError) as exc:
            raise SchemaError(f"mapping statement {i}: {exc}") from exc
    # Each Yield's rows were checked in its own table: only sort the union.
    return Table._canonical("out", action.output_schema(),
                            sorted(rows, key=row_key))


# ---------------------------------------------------------------------------
# Static validity.


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str


def _transform_schema(stmt: TransformStmt, env: dict[str, Schema]) -> Schema:
    """Schema of a transform statement's result, given defined schemas.

    Runs the statement on empty tables of its sources' schemas; every
    operator type-checks its arguments before it reads a row, so this
    raises SchemaError on any type problem."""
    probe = ExecState({src: Table(src, env[src], []) for src in sources(stmt)})
    return exec_transform(probe, stmt).schema


def validate_program(
    program: Program,
    input_schemas: Sequence[Schema],
    input_names: Sequence[str],
    action: ActionSignature,
) -> list[Violation]:
    """Static validity: defined-before-use, fresh names, type checks, and the
    Yield rules (action constant first, argument types agree). Returns the
    list of violations; empty means valid."""
    violations: list[Violation] = []
    env: dict[str, Schema] = dict(zip(input_names, input_schemas))
    for i, stmt in enumerate(program.transform):
        if not isinstance(stmt, TransformStmt):
            violations.append(Violation(
                "type check", f"statement {i} is not a transform statement: {stmt!r}"))
            continue
        srcs = sources(stmt)
        missing = [s for s in srcs if s not in env]
        if missing:
            violations.append(
                Violation("defined-before-use", f"statement {i} uses undefined {missing}")
            )
            continue
        if stmt.target in env:
            violations.append(
                Violation("fresh name", f"statement {i} redefines {stmt.target!r}")
            )
            continue
        joined = (((stmt.src1, stmt.col1), (stmt.src2, stmt.col2))
                  if isinstance(stmt, Join) else ())
        non_id = [Violation("Id-typed join", f"statement {i} joins on non-Id {col!r}")
                  for src, col in joined
                  if col in env[src] and env[src].type_of(col) is not ColumnType.ID]
        if non_id:  # the probe would only report them again
            violations += non_id
        else:
            try:
                env[stmt.target] = _transform_schema(stmt, env)
                continue
            except (SchemaError, IntRangeError) as exc:
                violations.append(Violation("type check", f"statement {i}: {exc}"))
        env[stmt.target] = env[srcs[0]]  # keep going with a best guess
    if not program.mapping:
        violations.append(Violation("nonempty mapping", "program has no Yield"))
    for i, stmt in enumerate(program.mapping):
        if not isinstance(stmt, Yield):
            violations.append(Violation("type check", f"yield {i} is not a Yield: {stmt!r}"))
            continue
        if stmt.src not in env:
            violations.append(
                Violation("defined-before-use", f"yield {i} uses undefined {stmt.src!r}")
            )
            continue
        violations += [Violation(rule, f"yield {i} {message}") for rule, message
                       in _yield_problems(stmt, env[stmt.src], action)]
    return violations
