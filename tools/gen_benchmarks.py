"""Regenerate the shipped benchmark corpus.

Each case is built programmatically, solved with default settings, and
checked to be non-over-fitting before its JSON file and reference program
are written. Run from the repository root:

    python3 tools/gen_benchmarks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The corpus is written by this checkout's engine, not an installed one.
sys.path.insert(0, str(ROOT / "src"))

from tablesynth.domains import check_overfit, domain_to_json, load_benchmark
from tablesynth.domains import ActionSpec, DomainSpec, EntitySpec, FieldSpec
from tablesynth.progtext import format_program
from tablesynth.synth import SynthTask, synthesize
from tablesynth.table import (
    ColumnType,
    Id,
    Schema,
    Table,
    table_to_json,
    value_to_json,
)

BENCH = ROOT / "benchmarks"

INT = ColumnType.INT
STR = ColumnType.STR
ID = ColumnType.ID


def _f(name, *types):
    return FieldSpec(name, frozenset(types))


def write_case(rel: str, case_id: str, domain: str, description: str,
               inputs, output, constants, pending, expected,
               domain_spec=None):
    obj = {
        "id": case_id,
        "domain": domain,
        "description": description,
        "inputs": [table_to_json(t) for t in inputs],
        "output": table_to_json(output),
        "constants": [value_to_json(v) for v in constants],
        "pending": [table_to_json(t) for t in pending],
        "expected": table_to_json(expected),
    }
    if domain_spec is not None:
        obj["domain_spec"] = domain_to_json(domain_spec)
    path = BENCH / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path


def solve_and_freeze(path: Path):
    case = load_benchmark(path)
    task = SynthTask(case.inputs, case.output, case.action, case.constants)
    result = synthesize(task)
    if result.status != "solved":
        raise SystemExit(f"{case.id}: {result.status}")
    report = check_overfit(case, result.program)
    if report.overfit:
        raise SystemExit(f"{case.id}: over-fitting\n"
                         f"{format_program(result.program)}\n{report}")
    text = format_program(result.program)
    path.with_suffix(".prog").write_text(text)
    print(f"{case.id}: solved in {result.stats.elapsed_ms} ms")
    print(text)
    return text


def gif_domain() -> DomainSpec:
    frames = EntitySpec("frame", (_f("file", STR), _f("frame", INT),
                                  _f("id", ID)))
    return DomainSpec("gif", (frames,), (
        ActionSpec("shift", (_f("id", ID), _f("channel", STR),
                             _f("bx", INT), _f("by", INT))),
    ))


def case_running_example():
    domain = gif_domain()
    schema = Schema([("file", STR), ("frame", INT), ("id", ID)])
    inputs = [Table("ti", schema,
                    [("tiktok.jpg", k, Id(f"f{k}")) for k in range(1, 5)])]
    out_schema = Schema([("action", STR), ("id", ID), ("channel", STR),
                         ("bx", INT), ("by", INT)])
    output = Table("to", out_schema, [
        ("shift", Id("f1"), "GB", -30, -30),
        ("shift", Id("f2"), "GB", 30, 30),
        ("shift", Id("f3"), "GB", -40, -40),
        ("shift", Id("f4"), "GB", 40, 40),
    ])
    pending = [Table("ti", schema,
                     [("tiktok.jpg", k, Id(f"f{k}")) for k in range(5, 9)])]
    expected = Table("expected", out_schema, [
        ("shift", Id("f5"), "GB", -50, -50),
        ("shift", Id("f6"), "GB", 50, 50),
        ("shift", Id("f7"), "GB", -60, -60),
        ("shift", Id("f8"), "GB", 60, 60),
    ])
    return write_case(
        "gif/running-example.json", "gif/running-example", "gif",
        "Shift the GB channel of odd frames down and even frames up, with a "
        "bias linear in the frame number.",
        inputs, output, [], pending, expected, domain_spec=domain)


CELL = Schema([("id", ID), ("row", INT), ("col", INT), ("row_head", STR),
               ("col_head", STR), ("content", INT), ("read_ord", INT)])


def case_pass_fail():
    scores = [95, 58, 77, 60, 45]
    names = ["ann", "bob", "cat", "dan", "eve"]
    inputs = [Table("cells", CELL,
                    [(Id(f"c{i}"), i + 1, 2, names[i], "score", scores[i],
                      7 + 2 * i) for i in range(5)])]
    out_schema = Schema([("action", STR), ("content", STR), ("row", INT),
                         ("col", INT)])
    output = Table("to", out_schema,
                   [("fill", "Pass" if s >= 60 else "Fail", i + 1, 3)
                    for i, s in enumerate(scores)])
    pend_scores = [("fay", 59), ("gus", 60), ("hal", 100)]
    pending = [Table("cells", CELL,
                     [(Id(f"p{i}"), i + 1, 2, n, "score", s, 20 + 2 * i)
                      for i, (n, s) in enumerate(pend_scores)])]
    expected = Table("expected", out_schema,
                     [("fill", "Pass" if s >= 60 else "Fail", i + 1, 3)
                      for i, (_, s) in enumerate(pend_scores)])
    return write_case(
        "spreadsheet/pass-fail.json", "spreadsheet/pass-fail", "spreadsheet",
        "Classify each score as Pass (at least 60) or Fail in the next "
        "column.",
        inputs, output, [60], pending, expected)


FILE = Schema([("id", ID), ("basename", STR), ("extension", STR),
               ("path", STR), ("size", INT), ("modification_time", INT),
               ("readable", INT), ("writable", INT), ("executable", INT),
               ("group", STR), ("year", INT), ("month", INT), ("day", INT),
               ("year_s", STR), ("month_s", STR), ("day_s", STR)])


def _file_row(label, basename, ext, path, size, mtime, r, w, x, group,
              y, m, d):
    return (Id(label), basename, ext, path, size, mtime, r, w, x, group,
            y, m, d, str(y), str(m), str(d))


def case_delete_pdf():
    rows = [
        _file_row("f1", "notes.pdf", "pdf", "/home/a", 120, 1680000001,
                  1, 1, 0, "staff", 2023, 3, 28),
        _file_row("f2", "pdf_guide.txt", "txt", "/home/a", 95, 1680000050,
                  1, 0, 0, "users", 2023, 3, 28),
        _file_row("f3", "scan.pdf", "pdf", "/home/b", 451, 1680000700,
                  1, 1, 1, "users", 2023, 3, 28),
        _file_row("f4", "backup_pdf", "zip", "/home/b", 730, 1680003000,
                  0, 1, 0, "staff", 2023, 3, 28),
        _file_row("f5", "draft.pdf", "pdf", "/home/c", 88, 1680007000,
                  1, 0, 1, "staff", 2023, 3, 28),
        _file_row("f6", "data.csv", "csv", "/home/c", 207, 1680009000,
                  1, 1, 0, "users", 2023, 3, 28),
    ]
    inputs = [Table("files", FILE, rows)]
    out_schema = Schema([("action", STR), ("id", ID)])
    output = Table("to", out_schema,
                   [("delete", Id(l)) for l in ("f1", "f3", "f5")])
    prows = [
        _file_row("p1", "old.pdf", "pdf", "/tmp", 300, 1680100000,
                  1, 1, 0, "users", 2023, 3, 29),
        _file_row("p2", "pdfs.txt", "txt", "/tmp", 12, 1680100300,
                  1, 0, 0, "staff", 2023, 3, 29),
        _file_row("p3", "talk.pdf", "pdf", "/tmp", 91, 1680100500,
                  0, 1, 1, "staff", 2023, 3, 29),
    ]
    pending = [Table("files", FILE, prows)]
    expected = Table("expected", out_schema,
                     [("delete", Id("p1")), ("delete", Id("p3"))])
    return write_case(
        "file/delete-pdf.json", "file/delete-pdf", "file",
        "Delete every file whose extension is pdf.",
        inputs, output, ["pdf"], pending, expected)


ELEMENT = Schema([("id", ID), ("tag", STR), ("text", STR), ("parent", ID),
                  ("previous", ID), ("next", ID)])
ATTRIBUTE = Schema([("id", ID), ("element", ID), ("key", STR),
                    ("value", STR)])
NULL = Id("null")


def case_wrap_items():
    elements = Table("elements", ELEMENT, [
        (Id("e0"), "body", "", NULL, NULL, NULL),
        (Id("e1"), "list", "", Id("e0"), NULL, Id("e4")),
        (Id("e2"), "item", "apples", Id("e1"), NULL, Id("e3")),
        (Id("e3"), "item", "pears", Id("e1"), Id("e2"), NULL),
        (Id("e4"), "note", "fresh", Id("e0"), Id("e1"), NULL),
    ])
    attributes = Table("attributes", ATTRIBUTE, [
        (Id("a1"), Id("e1"), "class", "fruits"),
        (Id("a2"), Id("e2"), "lang", "en"),
    ])
    out_schema = Schema([("action", STR), ("element", ID), ("tag", STR)])
    output = Table("to", out_schema,
                   [("wrap", Id("e2"), "div"), ("wrap", Id("e3"), "div")])
    p_elements = Table("elements", ELEMENT, [
        (Id("q0"), "body", "", NULL, NULL, NULL),
        (Id("q1"), "item", "plums", Id("q0"), NULL, Id("q2")),
        (Id("q2"), "title", "stock", Id("q0"), Id("q1"), NULL),
    ])
    p_attributes = Table("attributes", ATTRIBUTE, [
        (Id("b1"), Id("q2"), "class", "head"),
    ])
    expected = Table("expected", out_schema, [("wrap", Id("q1"), "div")])
    return write_case(
        "xml/wrap-items.json", "xml/wrap-items", "xml",
        "Wrap every item element in a div.",
        [elements, attributes], output, ["item"],
        [p_elements, p_attributes], expected)


def case_fill_sum():
    tabular = Schema([("row", INT), ("col1", INT), ("col2", INT)])
    data = [(1, 12, 7), (2, 30, 25), (3, 8, 41), (4, 19, 3)]
    inputs = [Table("sheet", tabular, data)]
    out_schema = Schema([("action", STR), ("content", INT), ("row", INT),
                         ("col", INT)])
    output = Table("to", out_schema,
                   [("fill", a + b, r, 3) for r, a, b in data])
    pdata = [(1, 100, 9), (2, 4, 4)]
    pending = [Table("sheet", tabular, pdata)]
    expected = Table("expected", out_schema,
                     [("fill", a + b, r, 3) for r, a, b in pdata])
    return write_case(
        "spreadsheet/fill-sum.json", "spreadsheet/fill-sum", "spreadsheet",
        "Fill the third column of each row with the sum of the first two.",
        inputs, output, [], pending, expected)


def case_fill_rowsum():
    rows = []
    data = {1: (14, 3), 2: (52, 9), 3: (6, 27), 4: (71, 40)}
    ord_ = 0
    for r, (a, b) in data.items():
        for c, v in ((1, a), (2, b)):
            rows.append((Id(f"c{r}{c}"), r, c, f"r{r}", f"h{c}", v, 5 + 3 * ord_))
            ord_ += 1
    inputs = [Table("cells", CELL, rows)]
    out_schema = Schema([("action", STR), ("content", INT), ("row", INT),
                         ("col", INT)])
    output = Table("to", out_schema,
                   [("fill", a + b, r, 3) for r, (a, b) in data.items()])
    pdata = {1: (200, 5), 2: (33, 33)}
    prows = []
    ord_ = 0
    for r, (a, b) in pdata.items():
        for c, v in ((1, a), (2, b)):
            prows.append((Id(f"p{r}{c}"), r, c, f"r{r}", f"h{c}", v, 6 + 3 * ord_))
            ord_ += 1
    pending = [Table("cells", CELL, prows)]
    expected = Table("expected", out_schema,
                     [("fill", a + b, r, 3) for r, (a, b) in pdata.items()])
    return write_case(
        "spreadsheet/fill-rowsum.json", "spreadsheet/fill-rowsum",
        "spreadsheet",
        "Fill the third column of each row with the sum of that row's cells.",
        inputs, output, [], pending, expected)


def main():
    paths = [
        case_running_example(),
        case_pass_fail(),
        case_delete_pdf(),
        case_wrap_items(),
        case_fill_sum(),
        case_fill_rowsum(),
    ]
    for p in paths:
        solve_and_freeze(p)


if __name__ == "__main__":
    sys.exit(main())
