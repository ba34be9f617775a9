"""Built-in domain definitions, the benchmark file format, and the
generalization check on pending data.

A domain declares entity schemas (with union-typed fields where the source
data may hold either strings or integers) and action signatures. Benchmarks
are JSON files referencing a built-in domain by name or embedding a custom
domain spec; a sibling ``<id>.prog`` file holds the committed reference
program used for regression checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .dsl import ActionSignature, Program, exec_program
from .errors import BenchmarkFormatError, TableSynthError
from .progtext import NAME_RE
from .table import ColumnType, Schema, Table, Value, table_from_json, value_from_json

# ---------------------------------------------------------------------------
# Domain specifications.


@dataclass(frozen=True)
class FieldSpec:
    """A named field admitting one or more concrete column types."""

    name: str
    types: frozenset[ColumnType]

    def __post_init__(self):
        if not self.types:
            raise BenchmarkFormatError(f"field {self.name!r} admits no type")


def _f(name: str, *types: ColumnType) -> FieldSpec:
    return FieldSpec(name, frozenset(types))


@dataclass(frozen=True)
class EntitySpec:
    name: str
    fields: tuple[FieldSpec, ...]
    variadic: bool = False  # trailing field repeats as <name>1, <name>2, ...

    def __post_init__(self):
        if self.variadic and not self.fields:
            raise BenchmarkFormatError(f"variadic entity {self.name!r} has no field")

    def admits(self, schema: Schema) -> bool:
        fixed = self.fields[:-1] if self.variadic else self.fields
        cols = list(schema.columns)
        if len(cols) < len(fixed):
            return False
        for (name, ty), spec in zip(cols, fixed):
            if name != spec.name or ty not in spec.types:
                return False
        rest = cols[len(fixed):]
        if not self.variadic:
            return not rest
        tail = self.fields[-1]
        for k, (name, ty) in enumerate(rest, start=1):
            if name != f"{tail.name}{k}" or ty not in tail.types:
                return False
        return True


@dataclass(frozen=True)
class ActionSpec:
    name: str
    args: tuple[FieldSpec, ...]

    def signature_for(self, output_schema: Schema) -> ActionSignature:
        """Resolve union-typed arguments against a concrete output schema."""
        cols = list(output_schema.columns)
        if not cols or cols[0] != ("action", ColumnType.STR):
            raise BenchmarkFormatError(
                f"output table must start with action:Str for {self.name!r}")
        if len(cols) - 1 != len(self.args):
            raise BenchmarkFormatError(
                f"action {self.name!r} takes {len(self.args)} arguments, "
                f"output table has {len(cols) - 1}")
        resolved = []
        for (name, ty), spec in zip(cols[1:], self.args):
            if name != spec.name or ty not in spec.types:
                raise BenchmarkFormatError(
                    f"output column {name}:{ty} does not fit argument "
                    f"{spec.name} of {self.name!r}")
            resolved.append((name, ty))
        return ActionSignature(self.name, tuple(resolved))


@dataclass(frozen=True)
class DomainSpec:
    name: str
    entities: tuple[EntitySpec, ...]
    actions: tuple[ActionSpec, ...]

    def action(self, name: str) -> ActionSpec:
        for a in self.actions:
            if a.name == name:
                return a
        raise BenchmarkFormatError(f"domain {self.name!r} has no action {name!r}")

    def admits_table(self, t: Table) -> bool:
        return any(e.admits(t.schema) for e in self.entities)


# -- serialization -----------------------------------------------------------


def _field_to_json(f: FieldSpec) -> dict:
    return {"name": f.name, "types": sorted(str(t) for t in f.types)}


def _field_from_json(obj: dict) -> FieldSpec:
    try:
        return FieldSpec(obj["name"],
                         frozenset(ColumnType(t) for t in obj["types"]))
    except (TypeError, KeyError, ValueError) as exc:
        raise BenchmarkFormatError(f"malformed field spec: {exc}") from None


def domain_to_json(d: DomainSpec) -> dict:
    return {
        "name": d.name,
        "entities": [
            {"name": e.name, "fields": [_field_to_json(f) for f in e.fields],
             "variadic": e.variadic}
            for e in d.entities
        ],
        "actions": [
            {"name": a.name, "args": [_field_to_json(f) for f in a.args]}
            for a in d.actions
        ],
    }


def domain_from_json(obj: dict) -> DomainSpec:
    try:
        entities = tuple(
            EntitySpec(e["name"],
                       tuple(_field_from_json(f) for f in e["fields"]),
                       bool(e.get("variadic", False)))
            for e in obj["entities"]
        )
        actions = tuple(
            ActionSpec(a["name"], tuple(_field_from_json(f) for f in a["args"]))
            for a in obj["actions"]
        )
        return DomainSpec(obj["name"], entities, actions)
    except (TypeError, KeyError) as exc:
        raise BenchmarkFormatError(f"malformed domain spec: {exc}") from None


# -- built-ins ---------------------------------------------------------------

INT = ColumnType.INT
STR = ColumnType.STR
ID = ColumnType.ID


def builtin_domains() -> tuple[DomainSpec, ...]:
    """The three built-in domains: file management, spreadsheet, and XML.

    Boolean file fields are encoded as Int 0/1 and modification time as Int
    epoch seconds; derived year/month/day fields come precomputed in both Int
    and string form.
    """
    file_entity = EntitySpec("file", (
        _f("id", ID), _f("basename", STR), _f("extension", STR),
        _f("path", STR), _f("size", INT), _f("modification_time", INT),
        _f("readable", INT), _f("writable", INT), _f("executable", INT),
        _f("group", STR), _f("year", INT), _f("month", INT), _f("day", INT),
        _f("year_s", STR), _f("month_s", STR), _f("day_s", STR),
    ))
    file_domain = DomainSpec("file", (file_entity,), (
        ActionSpec("chmod", (_f("id", ID), _f("mod", STR))),
        ActionSpec("copy", (_f("id", ID), _f("path", STR))),
        ActionSpec("unzip", (_f("id", ID), _f("path", STR))),
        ActionSpec("move", (_f("id", ID), _f("path", STR))),
        ActionSpec("rename", (_f("id", ID), _f("name", STR))),
        ActionSpec("delete", (_f("id", ID),)),
        ActionSpec("chgrp", (_f("id", ID), _f("group", STR))),
        ActionSpec("chext", (_f("id", ID), _f("extension", STR))),
        ActionSpec("tar", (_f("id", ID), _f("name", STR))),
    ))
    cell_entity = EntitySpec("cell", (
        _f("id", ID), _f("row", INT), _f("col", INT),
        _f("row_head", STR, INT), _f("col_head", STR, INT),
        _f("content", STR, INT), _f("read_ord", INT),
    ))
    tabular_entity = EntitySpec("tabular", (
        _f("row", INT), _f("col", STR, INT),
    ), variadic=True)
    spreadsheet_domain = DomainSpec(
        "spreadsheet", (cell_entity, tabular_entity),
        (ActionSpec("fill", (_f("content", STR, INT), _f("row", INT),
                             _f("col", INT))),),
    )
    element_entity = EntitySpec("element", (
        _f("id", ID), _f("tag", STR), _f("text", STR),
        _f("parent", ID), _f("previous", ID), _f("next", ID),
    ))
    attribute_entity = EntitySpec("attribute", (
        _f("id", ID), _f("element", ID), _f("key", STR), _f("value", STR),
    ))
    xml_domain = DomainSpec("xml", (element_entity, attribute_entity), (
        ActionSpec("delete_element", (_f("element", ID),)),
        ActionSpec("modify_text", (_f("element", ID), _f("text", STR))),
        ActionSpec("modify_attribute", (_f("element", ID), _f("value", STR))),
        ActionSpec("modify_tag", (_f("element", ID), _f("tag", STR))),
        ActionSpec("add_element", (_f("parent", ID), _f("tag", STR),
                                   _f("text", STR))),
        ActionSpec("add_element_above", (_f("element", ID), _f("tag", STR),
                                         _f("text", STR))),
        ActionSpec("add_attribute", (_f("element", ID), _f("key", STR),
                                     _f("value", STR))),
        ActionSpec("wrap", (_f("element", ID), _f("tag", STR))),
        ActionSpec("move_below", (_f("element", ID), _f("target", ID))),
        ActionSpec("append_child", (_f("element", ID), _f("target", ID))),
    ))
    return (file_domain, spreadsheet_domain, xml_domain)


def find_domain(name: str) -> DomainSpec:
    for d in builtin_domains():
        if d.name == name:
            return d
    raise BenchmarkFormatError(f"unknown domain {name!r}")


# ---------------------------------------------------------------------------
# Benchmarks.


@dataclass(frozen=True)
class BenchmarkCase:
    id: str
    domain: DomainSpec
    description: str
    inputs: tuple[Table, ...]
    output: Table
    constants: tuple[Value, ...]
    pending: tuple[Table, ...]
    expected: Table
    action: ActionSignature
    reference_program: Optional[str] = None  # canonical text; marks regression

    @property
    def is_regression(self) -> bool:
        return self.reference_program is not None


def read_json_file(path: Path):
    """The parsed JSON contents of ``path``."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8/JSON, too deep
        raise BenchmarkFormatError(f"cannot read {path}: {exc}") from None


def load_benchmark(path) -> BenchmarkCase:
    path = Path(path)
    return benchmark_from_json(read_json_file(path), path)


def _json_array(obj, key: str, default=None) -> list:
    """The field ``key`` of ``obj``, which must be a JSON array; a missing
    field is ``default``, or a KeyError when there is none."""
    value = obj[key] if default is None else obj.get(key, default)
    if not isinstance(value, list):
        raise BenchmarkFormatError(f"{key!r} must be a JSON array, "
                                   f"not {type(value).__name__}")
    return value


def benchmark_from_json(obj, path: Path) -> BenchmarkCase:
    """The benchmark case that ``obj``, parsed from the file ``path``,
    describes. Its reference program is read from the sibling ``.prog``
    file, if there is one."""
    try:
        case_id = obj["id"]
        description = obj.get("description", "")
        inputs = tuple(table_from_json(t) for t in _json_array(obj, "inputs"))
        output = table_from_json(obj["output"])
        constants = tuple(value_from_json(v) for v in _json_array(obj, "constants", []))
        pending = tuple(table_from_json(t) for t in _json_array(obj, "pending", []))
        expected = (table_from_json(obj["expected"])
                    if "expected" in obj else None)
        if "domain_spec" in obj:
            domain = domain_from_json(obj["domain_spec"])
        else:
            domain = find_domain(obj["domain"])
    except KeyError as exc:
        raise BenchmarkFormatError(f"{path}: missing key {exc}") from None
    except TypeError as exc:
        raise BenchmarkFormatError(f"{path}: malformed benchmark: {exc}") from None
    except TableSynthError as exc:
        raise BenchmarkFormatError(f"{path}: {exc}") from None

    for t in inputs + pending:
        for name in (t.name, *t.schema.names):
            if not NAME_RE.fullmatch(name):
                raise BenchmarkFormatError(
                    f"{path}: table {t.name!r}: the name {name!r} cannot be "
                    f"written in program text")
    for t in inputs:
        if not domain.admits_table(t):
            raise BenchmarkFormatError(
                f"{path}: input table {t.name!r} matches no entity schema "
                f"of domain {domain.name!r}")
    by_name = {t.name: t for t in inputs}
    if len(by_name) != len(inputs):
        raise BenchmarkFormatError(f"{path}: duplicate input table names")
    if pending:
        if sorted(t.name for t in pending) != sorted(by_name):
            raise BenchmarkFormatError(
                f"{path}: pending tables must mirror the input tables")
        for t in pending:
            if t.schema != by_name[t.name].schema:
                raise BenchmarkFormatError(
                    f"{path}: pending table {t.name!r} has a different "
                    f"schema than the input table")
    a = output.schema.index("action") if "action" in output.schema else None
    if a is None or not output.rows:
        raise BenchmarkFormatError(f"{path}: output table is empty or has "
                                   f"no action column")
    action_names = {row[a] for row in output.rows}
    if len(action_names) != 1:
        raise BenchmarkFormatError(
            f"{path}: output mixes actions {sorted(action_names)}")
    action = domain.action(next(iter(action_names))).signature_for(output.schema)
    if expected is None:
        expected = Table("expected", output.schema, [])
    elif expected.schema != output.schema:
        raise BenchmarkFormatError(
            f"{path}: expected table schema differs from the output schema")
    reference = None
    prog_path = path.with_suffix(".prog")
    if prog_path.exists():
        try:
            reference = prog_path.read_text()
        except UnicodeDecodeError as exc:
            raise BenchmarkFormatError(f"cannot read {prog_path}: {exc}") from None
    return BenchmarkCase(case_id, domain, description, inputs, output,
                         constants, pending, expected, action, reference)


def load_benchmark_dir(root) -> list[BenchmarkCase]:
    """The cases of every ``*.json`` file under the directory ``root``, by
    id. A root that is no directory or holds no case is an error, so a
    mistyped path cannot pass as an empty benchmark."""
    root = Path(root)
    if not root.is_dir():
        raise BenchmarkFormatError(f"{root}: not a benchmark directory")
    paths = sorted(root.glob("**/*.json"))
    if not paths:
        raise BenchmarkFormatError(f"{root}: no *.json benchmark files")
    cases = [load_benchmark(p) for p in paths]
    return sorted(cases, key=lambda c: c.id)


@dataclass(frozen=True)
class OverfitReport:
    overfit: bool
    missing: tuple = ()  # rows expected but not produced
    extra: tuple = ()  # rows produced but not expected
    error: Optional[str] = None


def check_overfit(case: BenchmarkCase, program: Program) -> OverfitReport:
    """Run the program on the pending tables; differences from the expected
    output mean the program fit the examples but not the intent."""
    if not case.pending:
        return OverfitReport(False)
    try:
        got = exec_program(program, case.pending, case.action)
    except TableSynthError as exc:
        return OverfitReport(True, error=str(exc))
    want = case.expected
    if got == want:
        return OverfitReport(False)
    missing = tuple(r for r in want.rows if r not in got)
    extra = tuple(r for r in got.rows if r not in want)
    return OverfitReport(True, missing, extra)
