"""Output checks that do not trust the engine's own verification.

Every returned program is re-run on the task inputs, printed and parsed
back, and the parsed program is re-run too. Held-out inputs say whether the
program generalizes; that is measured, not a failure. The ``bench`` report
is validated against its JSON schema with a small validator for the subset
of JSON Schema the schema file uses.
"""

from __future__ import annotations

from typing import Optional

import tablesynth.progtext as progtext
from tablesynth.dsl import exec_program
from tablesynth.errors import TableSynthError
from tablesynth.synth import SynthResult

from workloads import Case

#: Statuses a workload may end in: every workload is sized to finish well
#: inside the default deadline, so a timeout means the run measured a wait.
FINAL_STATUSES = ("solved", "exhausted")


def _reproduces(program, inputs, action, want) -> Optional[str]:
    try:
        got = exec_program(program, list(inputs), action)
    except TableSynthError as exc:
        return f"raises {exc}"
    return None if got == want.renamed(got.name) else "output differs"


def check_result(case: Case, result: SynthResult) -> tuple[list[str], Optional[bool]]:
    """Problems with one result, and whether it generalizes to the held-out
    input (``None`` when nothing was returned)."""
    problems = []
    if result.status not in FINAL_STATUSES:
        problems.append(f"status {result.status}")
    if result.program is None:
        if result.status == "solved":
            problems.append("solved without a program")
        return problems, None
    task = case.task
    bad = _reproduces(result.program, task.inputs, task.action, task.output)
    if bad:
        problems.append(f"re-run on task inputs: {bad}")
    text = progtext.format_program(result.program)
    try:
        parsed = progtext.parse_program(text)
    except TableSynthError as exc:
        problems.append(f"program text does not parse: {exc}")
    else:
        if progtext.format_program(parsed) != text:
            problems.append("program text does not round-trip")
        bad = _reproduces(parsed, task.inputs, task.action, task.output)
        if bad:
            problems.append(f"re-run of parsed text: {bad}")
    generalized = _reproduces(result.program, case.held_out, task.action,
                              case.expected) is None
    return problems, generalized


# -- JSON Schema subset --------------------------------------------------------

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}
_ANNOTATIONS = {"$schema", "title", "description"}
_KEYWORDS = {"type", "required", "additionalProperties", "properties", "items",
             "enum", "minimum", "maximum"}


def schema_errors(value, schema: dict, path: str = "$") -> list[str]:
    """Violations of ``schema`` by ``value``; an unsupported keyword is
    reported as a violation, so the check fails closed."""
    unknown = set(schema) - _KEYWORDS - _ANNOTATIONS
    if unknown:
        return [f"{path}: unsupported schema keywords {sorted(unknown)}"]
    if "type" in schema:
        types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_TYPES[t](value) for t in types):
            return [f"{path}: {value!r} is not of type {schema['type']}"]
    errors = []
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if _TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value} < {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{path}: {value} > {schema['maximum']}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing {key!r}")
        for key, item in value.items():
            if key in props:
                errors += schema_errors(item, props[key], f"{path}.{key}")
            elif extra is False:
                errors.append(f"{path}: unexpected {key!r}")
            elif isinstance(extra, dict):
                errors += schema_errors(item, extra, f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors += schema_errors(item, schema["items"], f"{path}[{i}]")
    return errors
