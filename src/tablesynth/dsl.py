"""Abstract syntax, static validity, and interpretation of table programs.

A program is a sequence of transformation statements (Filter / Join /
GroupJoin / Order), each defining a fresh intermediate table, followed by a
nonempty sequence of Yield mapping statements whose outputs are unioned into
the final action table.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .errors import SchemaError, ValidationFailure
from .features import FAMILIES, FeatureInstance, apply_feature, FeatureMissError
from .table import ColumnType, Schema, Table, Value, check_int, type_of

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


def predicate_size(p: Predicate) -> int:
    """Number of predicate symbols (leaves)."""
    if isinstance(p, SymbolApp):
        return 1
    if isinstance(p, Not):
        return predicate_size(p.inner)
    return predicate_size(p.left) + predicate_size(p.right)


def _leaf_holds(app: SymbolApp, row, schema: Schema) -> bool:
    kinds, _, test = PREDICATE_SYMBOLS[app.symbol]
    v1 = row[schema.index(app.col)]
    if kinds == "c":
        return test(v1)
    return test(v1, row[schema.index(app.arg)] if app.arg_is_col else app.arg)


def _holds(p: Predicate, row, schema: Schema) -> bool:
    """``p`` on ``row``, for a ``p`` that ``_check_predicate`` accepted."""
    if isinstance(p, SymbolApp):
        return _leaf_holds(p, row, schema)
    if isinstance(p, Not):
        return not _holds(p.inner, row, schema)
    if isinstance(p, And):
        return _holds(p.left, row, schema) and _holds(p.right, row, schema)
    if isinstance(p, Or):
        return _holds(p.left, row, schema) or _holds(p.right, row, schema)
    raise SchemaError(f"not a predicate: {p!r}")


def eval_predicate(p: Predicate, row, schema: Schema) -> bool:
    """Whether ``row`` of a table of ``schema`` satisfies ``p``; raises
    SchemaError when ``p`` is mistyped for ``schema``."""
    _check_predicate(p, schema)
    return _holds(p, row, schema)


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
    return _predicate_problems(p.left, schema) + _predicate_problems(p.right, schema)


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
    ``define`` grows it."""

    tables: dict[str, Table] = field(default_factory=dict)

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


def exec_filter(t: Table, predicate: Predicate, name: str = "filtered") -> Table:
    _check_predicate(predicate, t.schema)
    rows = [r for r in t.rows if _holds(predicate, r, t.schema)]
    return Table(name, t.schema, rows)


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
    rows = [r1 + r2 for r1 in t1.rows for r2 in t2.rows if r1[i1] == r2[i2]]
    return Table(name, schema, rows)


def _fresh_col(base: str, schema_names) -> str:
    if base not in schema_names:
        return base
    k = 2
    while f"{base}_{k}" in schema_names:
        k += 1
    return f"{base}_{k}"


def _with_int_columns(
    t: Table, columns: Sequence[tuple[str, Sequence[int]]], name: str
) -> Table:
    """``t`` extended by Int columns, built once and named ``name``.
    ``columns`` holds (base name, values aligned to ``t.rows``) pairs; each
    column takes a fresh name against the columns before it."""
    names = list(t.schema.names)
    for base, _ in columns:
        names.append(_fresh_col(base, names))
    schema = Schema(list(t.schema.columns)
                    + [(n, ColumnType.INT) for n in names[len(t.schema):]])
    new_cells = zip(*(vals for _, vals in columns))
    return Table(name, schema, (row + cells for row, cells in zip(t.rows, new_cells)))


def exec_groupjoin(
    t: Table, col_index: str, aggs: Sequence[tuple[str, str]], name: str = "grouped"
) -> Table:
    if not aggs:
        raise SchemaError("groupjoin needs at least one aggregation")
    gi = t.schema.index(col_index)
    for agg, col in aggs:
        if agg not in AGGREGATIONS:
            raise SchemaError(f"unknown aggregation {agg!r}")
        ty = t.schema.type_of(col)
        if agg != "cnt" and ty is not ColumnType.INT:
            raise SchemaError(f"{agg} over non-Int column {col!r}")
    groups: dict[Value, list] = {}
    for row in t.rows:
        groups.setdefault(row[gi], []).append(row)
    columns = []
    for agg, col in aggs:
        ci = t.schema.index(col)
        vals = [AGGREGATIONS[agg]([g[ci] for g in groups[row[gi]]]) for row in t.rows]
        columns.append((f"{agg}_{col}", vals))
    return _with_int_columns(t, columns, name)


def exec_order(
    t: Table,
    col: str,
    c_start: int = 0,
    c_inv: bool = False,
    col_index: Optional[str] = None,
    name: str = "ordered",
) -> Table:
    ty = t.schema.type_of(col)
    if ty is ColumnType.ID:
        raise SchemaError(f"cannot order on Id column {col!r}")
    ci = t.schema.index(col)
    gi = t.schema.index(col_index) if col_index is not None else None
    ranks = []
    for row in t.rows:
        group = [r for r in t.rows if gi is None or r[gi] == row[gi]]
        if c_inv:
            smaller = sum(1 for r in group if r[ci] > row[ci])
        else:
            smaller = sum(1 for r in group if r[ci] < row[ci])
        ranks.append(check_int(c_start + smaller))
    return _with_int_columns(t, [(f"ord_{col}", ranks)], name)


def exec_transform(state: ExecState, stmt: TransformStmt) -> Table:
    """The table ``stmt`` computes from the tables defined in ``state``,
    named ``stmt.target``. It is not defined in ``state``; the caller
    decides whether to keep it."""
    if isinstance(stmt, Filter):
        return exec_filter(state[stmt.src], stmt.predicate, stmt.target)
    if isinstance(stmt, Join):
        return exec_join(state[stmt.src1], state[stmt.src2], stmt.col1, stmt.col2, stmt.target)
    if isinstance(stmt, GroupJoin):
        return exec_groupjoin(state[stmt.src], stmt.col_index, stmt.aggs, stmt.target)
    if isinstance(stmt, Order):
        return exec_order(
            state[stmt.src], stmt.col, stmt.c_start, stmt.c_inv, stmt.col_index, stmt.target
        )
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
        except SchemaError as exc:
            problems.append(("type check", f"arg {j}: {exc}"))
            continue
        if ty is not col_ty:
            problems.append(("argument type",
                             f"arg {j} ({col_name}) has type {ty}, wants {col_ty}"))
    return problems


def exec_yield(state: ExecState, stmt: Yield, action: ActionSignature) -> Table:
    t = state[stmt.src]
    problems = _yield_problems(stmt, t.schema, action)
    if problems:
        raise SchemaError("; ".join(f"yield {message}" for _, message in problems))
    columns = [_projection_values(p, t) for p in stmt.projections]
    rows = {tuple(c[i] for c in columns) for i in range(t.nrows)}
    return Table("yielded", action.output_schema(), rows)


def exec_program(
    program: Program, inputs: Sequence[Table], action: ActionSignature
) -> Table:
    """Run the program over its inputs; returns the union of Yield outputs,
    named ``out``."""
    violations = validate_program(program, [t.schema for t in inputs],
                                  [t.name for t in inputs], action)
    if violations:
        raise ValidationFailure(violations)
    state = ExecState()
    for t in inputs:
        state.define(t)
    for i, stmt in enumerate(program.transform):
        try:
            state.define(exec_transform(state, stmt))
        except (SchemaError, FeatureMissError) as exc:
            raise SchemaError(f"transform statement {i}: {exc}") from exc
    rows = []
    for i, stmt in enumerate(program.mapping):
        try:
            rows += exec_yield(state, stmt, action).rows
        except (SchemaError, FeatureMissError) as exc:
            raise SchemaError(f"mapping statement {i}: {exc}") from exc
    return Table("out", action.output_schema(), rows)


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
        if isinstance(stmt, Join):
            for src, col in ((stmt.src1, stmt.col1), (stmt.src2, stmt.col2)):
                if col in env[src] and env[src].type_of(col) is not ColumnType.ID:
                    violations.append(
                        Violation("Id-typed join", f"statement {i} joins on non-Id {col!r}")
                    )
        try:
            env[stmt.target] = _transform_schema(stmt, env)
        except SchemaError as exc:
            violations.append(Violation("type check", f"statement {i}: {exc}"))
            env[stmt.target] = env[srcs[0]]  # keep going with a best guess
    if not program.mapping:
        violations.append(Violation("nonempty mapping", "program has no Yield"))
    for i, stmt in enumerate(program.mapping):
        if stmt.src not in env:
            violations.append(
                Violation("defined-before-use", f"yield {i} uses undefined {stmt.src!r}")
            )
            continue
        violations += [Violation(rule, f"yield {i} {message}") for rule, message
                       in _yield_problems(stmt, env[stmt.src], action)]
    return violations
