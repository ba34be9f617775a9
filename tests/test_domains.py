"""Builtin domain catalogs, domain JSON round trips, and benchmark loading."""

from __future__ import annotations

import json

import pytest

from tablesynth.domains import (
    EntitySpec,
    builtin_domains,
    check_overfit,
    domain_from_json,
    domain_to_json,
    find_domain,
    load_benchmark,
    load_benchmark_dir,
)
from tablesynth.errors import BenchmarkFormatError
from tablesynth.progtext import parse_program
from tablesynth.table import ColumnType, Id, Schema, Table

from conftest import BENCHMARKS

INT = ColumnType.INT
STR = ColumnType.STR
ID = ColumnType.ID


def test_builtin_domain_names():
    assert [d.name for d in builtin_domains()] == ["file", "spreadsheet", "xml"]
    assert find_domain("xml").name == "xml"
    with pytest.raises(BenchmarkFormatError):
        find_domain("nope")


def test_file_domain_catalog():
    d = find_domain("file")
    files = d.entities[0]
    assert files.name == "file"
    assert len(files.fields) == 16
    assert {a.name for a in d.actions} == {
        "chmod", "copy", "unzip", "move", "rename", "delete", "chgrp",
        "chext", "tar",
    }
    assert [f.name for f in d.action("delete").args] == ["id"]


def test_spreadsheet_domain_catalog():
    d = find_domain("spreadsheet")
    names = {e.name for e in d.entities}
    assert names == {"cell", "tabular"}
    fill = d.action("fill")
    assert [f.name for f in fill.args] == ["content", "row", "col"]
    # Content cells hold either strings or numbers.
    content = next(f for f in d.entities[0].fields if f.name == "content")
    assert content.types == frozenset({STR, INT})


def test_xml_domain_catalog():
    d = find_domain("xml")
    assert {e.name for e in d.entities} == {"element", "attribute"}
    assert {a.name for a in d.actions} == {
        "delete_element", "modify_text", "modify_attribute", "modify_tag",
        "add_element", "add_element_above", "add_attribute", "wrap",
        "move_below", "append_child",
    }


def test_variadic_tabular_admission():
    d = find_domain("spreadsheet")
    tab = next(e for e in d.entities if e.name == "tabular")
    assert tab.admits(Schema([("row", INT), ("col1", INT), ("col2", STR)]))
    assert tab.admits(Schema([("row", INT), ("col1", INT)]))
    assert not tab.admits(Schema([("row", INT), ("colA", INT)]))


def test_domain_json_round_trip():
    for d in builtin_domains():
        assert domain_from_json(domain_to_json(d)) == d


def test_load_benchmark_dir_sorted():
    cases = load_benchmark_dir(BENCHMARKS)
    ids = [c.id for c in cases]
    assert ids == sorted(ids)
    assert len(cases) == 6
    assert all(c.is_regression for c in cases)


def test_load_benchmark_fields():
    case = load_benchmark(BENCHMARKS / "spreadsheet" / "pass-fail.json")
    assert case.domain.name == "spreadsheet"
    assert case.constants == (60,)
    assert case.action.name == "fill"
    assert case.pending and case.expected is not None
    assert case.reference_program is not None
    parse_program(case.reference_program)


def test_inline_domain_spec():
    case = load_benchmark(BENCHMARKS / "gif" / "running-example.json")
    assert case.domain.name == "gif"
    assert case.action.name == "shift"


def _broken(tmp_path, mutate, case="file/delete-pdf.json"):
    src = json.loads((BENCHMARKS / case).read_text())
    mutate(src)
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(src))
    return p


def test_load_rejects_unknown_entity(tmp_path):
    def mutate(src):
        src["inputs"][0]["columns"][0]["name"] = "mystery"
    with pytest.raises(BenchmarkFormatError):
        load_benchmark(_broken(tmp_path, mutate))


def _rename_table(src, new):
    for t in src["inputs"] + src["pending"]:
        t["name"] = new


def _rename_column(src, new):
    src["domain_spec"]["entities"][0]["fields"][1]["name"] = new
    for t in src["inputs"] + src["pending"]:
        t["columns"][1]["name"] = new


@pytest.mark.parametrize("rename, bad", [(_rename_table, "my frames"),
                                         (_rename_column, "frame no"),
                                         (_rename_column, "2nd")])
def test_load_rejects_names_program_text_cannot_spell(tmp_path, rename, bad):
    # A program over such a table would print, and then not parse back.
    p = _broken(tmp_path, lambda src: rename(src, bad), "gif/running-example.json")
    with pytest.raises(BenchmarkFormatError, match=repr(bad)):
        load_benchmark(p)
    good = _broken(tmp_path, lambda src: rename(src, "my_frames.v2"),
                   "gif/running-example.json")
    (t,) = load_benchmark(good).inputs
    assert "my_frames.v2" in (t.name, *t.schema.names)


def test_variadic_entity_needs_a_field_to_repeat(tmp_path):
    with pytest.raises(BenchmarkFormatError, match="has no field"):
        EntitySpec("cell", (), variadic=True)

    def mutate(src):
        src["domain_spec"]["entities"][0].update(fields=[], variadic=True)
    with pytest.raises(BenchmarkFormatError, match="has no field"):
        load_benchmark(_broken(tmp_path, mutate, "gif/running-example.json"))


def test_load_rejects_pending_schema_mismatch(tmp_path):
    def mutate(src):
        src["pending"][0]["columns"] = src["pending"][0]["columns"][:-1]
        src["pending"][0]["rows"] = [r[:-1] for r in src["pending"][0]["rows"]]
    with pytest.raises(BenchmarkFormatError):
        load_benchmark(_broken(tmp_path, mutate))


def test_load_rejects_mixed_actions(tmp_path):
    def mutate(src):
        src["output"]["rows"][0][0] = "move"
    with pytest.raises(BenchmarkFormatError):
        load_benchmark(_broken(tmp_path, mutate))


@pytest.mark.parametrize("key, value", [("constants", {"a": 1}), ("constants", "ab"),
                                        ("inputs", {"ti": 1}), ("pending", "ti")])
def test_load_rejects_a_list_field_that_is_not_an_array(tmp_path, key, value):
    with pytest.raises(BenchmarkFormatError, match=f"'{key}' must be a JSON array"):
        load_benchmark(_broken(tmp_path, lambda src: src.update({key: value}),
                               "gif/running-example.json"))


@pytest.mark.parametrize("content", [b"[]", b'{"id": "x", "inputs": 5}',
                                     b"\xff\xfe not utf-8",
                                     pytest.param(b"[" * 200_000,
                                                  id="deeply-nested")])
def test_load_rejects_malformed_file(tmp_path, content):
    p = tmp_path / "broken.json"
    p.write_bytes(content)
    with pytest.raises(BenchmarkFormatError):
        load_benchmark(p)


def test_load_rejects_non_utf8_reference_program(tmp_path):
    p = _broken(tmp_path, lambda src: None)
    p.with_suffix(".prog").write_bytes(b"\xff\xfe")
    with pytest.raises(BenchmarkFormatError):
        load_benchmark(p)


def test_check_overfit_accepts_reference_programs():
    for case in load_benchmark_dir(BENCHMARKS):
        program = parse_program(case.reference_program)
        report = check_overfit(case, program)
        assert not report.overfit, case.id


def test_check_overfit_flags_wrong_generalization():
    case = load_benchmark(BENCHMARKS / "file" / "delete-pdf.json")
    # Deleting everything matches nothing about the examples' intent on
    # the pending inputs: extra rows must be reported.
    program = parse_program('Yield("delete", files, id);\n')
    report = check_overfit(case, program)
    assert report.overfit
    assert report.extra


def test_check_overfit_vacuous_without_pending():
    case = load_benchmark(BENCHMARKS / "file" / "delete-pdf.json")
    from dataclasses import replace
    vacuous = replace(case, pending=(), expected=None)
    program = parse_program('Yield("delete", files, id);\n')
    assert not check_overfit(vacuous, program).overfit
