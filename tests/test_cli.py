"""Command-line interface: exit codes, stdout/stderr contracts, and the
benchmark report schema."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import jsonschema
import pytest

from tablesynth.cli import (
    EXIT_ERROR,
    EXIT_EXHAUSTED,
    EXIT_SOLVED,
    EXIT_TIMEOUT,
    main,
)
from tablesynth.table import table_from_json

from conftest import BENCHMARKS, ROOT, SCHEMAS

WRAP = str(BENCHMARKS / "xml" / "wrap-items.json")
WRAP_PROG = str(BENCHMARKS / "xml" / "wrap-items.prog")


def test_synth_solved(capsys):
    code = main(["synth", WRAP])
    out, err = capsys.readouterr()
    assert code == EXIT_SOLVED
    assert 'strEq(tag, "item")' in out
    stats = json.loads(err.strip().splitlines()[-1])
    assert stats["mode"] == "bi"
    assert stats["elapsed_ms"] >= 0


def test_synth_both_modes(capsys):
    code = main(["synth", WRAP, "--mode", "both"])
    out, err = capsys.readouterr()
    assert code == EXIT_SOLVED
    modes = [json.loads(line)["mode"] for line in err.strip().splitlines()]
    assert modes == ["bi", "forward-only"]


def test_synth_exhausted_at_depth_zero(capsys):
    code = main(["synth", WRAP, "--max-depth", "0"])
    capsys.readouterr()
    assert code == EXIT_EXHAUSTED


def test_synth_timeout(capsys):
    code = main(["synth", WRAP, "--timeout", "1e-9"])
    capsys.readouterr()
    assert code == EXIT_TIMEOUT


def test_synth_missing_file(capsys):
    code = main(["synth", "no-such-file.json"])
    _, err = capsys.readouterr()
    assert code == EXIT_ERROR
    assert "error:" in err


def test_env_var_overrides_default(capsys, monkeypatch):
    monkeypatch.setenv("BEE_MAX_DEPTH", "0")
    code = main(["synth", WRAP])
    capsys.readouterr()
    assert code == EXIT_EXHAUSTED


def test_exec_reference_program(capsys):
    code = main(["exec", WRAP_PROG, WRAP])
    out, _ = capsys.readouterr()
    assert code == EXIT_SOLVED
    assert json.loads(out)["name"] == "out"
    table = table_from_json(json.loads(out))
    case = json.loads(open(WRAP).read())
    assert table == table_from_json(case["output"]).renamed(table.name)


def test_exec_pending(capsys):
    code = main(["exec", WRAP_PROG, WRAP, "--pending"])
    out, _ = capsys.readouterr()
    assert code == EXIT_SOLVED
    case = json.loads(open(WRAP).read())
    expected = table_from_json(case["expected"])
    assert table_from_json(json.loads(out)) == expected.renamed("out")


def test_exec_tables_file(tmp_path, capsys):
    case = json.loads(open(WRAP).read())
    tables = {
        "action": {"name": "wrap",
                   "args": [{"name": "element", "type": "Id"},
                            {"name": "tag", "type": "Str"}]},
        "tables": case["inputs"],
    }
    p = tmp_path / "tables.json"
    p.write_text(json.dumps(tables))
    code = main(["exec", WRAP_PROG, str(p)])
    out, _ = capsys.readouterr()
    assert code == EXIT_SOLVED
    assert table_from_json(json.loads(out)).nrows == 2


def test_exec_invalid_program(tmp_path, capsys):
    bad = tmp_path / "bad.prog"
    bad.write_text('Yield("wrap", nowhere, id, "div");\n')
    code = main(["exec", str(bad), WRAP])
    _, err = capsys.readouterr()
    assert code == EXIT_ERROR
    assert "invalid program" in err


@pytest.mark.parametrize("program, tables", [
    pytest.param(None, b"not json {", id="tables-not-json"),
    pytest.param(None, b"[]", id="tables-top-level-list"),
    pytest.param(None, b'{"tables": []}', id="tables-no-action"),
    pytest.param(None, json.dumps({
        "action": {"name": "wrap", "args": [{"name": "tag", "type": "Bogus"}]},
        "tables": []}).encode(), id="tables-unknown-arg-type"),
    pytest.param(b'Yield("wrap", \xff);', None, id="program-not-utf8"),
])
def test_exec_bad_file_exits_1_without_traceback(tmp_path, program, tables):
    prog_path, tables_path = WRAP_PROG, WRAP
    if program is not None:
        prog_path = tmp_path / "bad.prog"
        prog_path.write_bytes(program)
    if tables is not None:
        tables_path = tmp_path / "tables.json"
        tables_path.write_bytes(tables)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tablesynth.cli", "exec", str(prog_path),
         str(tables_path)], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_ERROR
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("program", [
    'Yield("act", t, linear(1,0)(a, b), s);',
    'Yield("act", t, sum(0)(a), s);',
    'Yield("act", t, a, concat[x1{Lower#1}](s));',
], ids=["linear-of-two-inputs", "sum-of-one-input", "concat-reads-missing-input"])
def test_exec_wrong_feature_input_count_is_invalid(tmp_path, program):
    prog_path, tables_path = tmp_path / "bad.prog", tmp_path / "tables.json"
    prog_path.write_text(program)
    tables_path.write_text(json.dumps({
        "action": {"name": "act", "args": [{"name": "v", "type": "Int"},
                                           {"name": "w", "type": "Str"}]},
        "tables": [{"name": "t",
                    "columns": [{"name": "a", "type": "Int"},
                                {"name": "b", "type": "Int"},
                                {"name": "s", "type": "Str"}],
                    "rows": [[1, 2, "ab"]]}]}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tablesynth.cli", "exec", str(prog_path),
         str(tables_path)], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_ERROR
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("invalid program [type check]: yield 0 arg ")


def test_bench_report_matches_schema(capsys, tmp_path):
    # A one-case directory keeps this test fast.
    sub = tmp_path / "xml"
    sub.mkdir()
    for suffix in (".json", ".prog"):
        (sub / ("wrap-items" + suffix)).write_text(
            open(str(BENCHMARKS / "xml" / ("wrap-items" + suffix))).read())
    code = main(["bench", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == EXIT_SOLVED
    payload = json.loads(out.split("\n\n")[0])
    schema = json.loads(open(SCHEMAS / "run_report.schema.json").read())
    jsonschema.validate(payload, schema)
    (report,) = payload["reports"]
    assert report["solved"] == report["total"] == 1
    assert report["regression_failures"] == 0
    assert "wrap-items" in out.split("\n\n", 1)[1]


def test_bench_regression_failure_exit(capsys, tmp_path):
    # An unsolvable regression case (depth 0) must fail the run.
    sub = tmp_path / "xml"
    sub.mkdir()
    for suffix in (".json", ".prog"):
        (sub / ("wrap-items" + suffix)).write_text(
            open(str(BENCHMARKS / "xml" / ("wrap-items" + suffix))).read())
    code = main(["bench", str(tmp_path), "--max-depth", "0"])
    out, _ = capsys.readouterr()
    assert code == EXIT_ERROR
    payload = json.loads(out.split("\n\n")[0])
    assert payload["reports"][0]["regression_failures"] == 1


def test_usage_error_exits_nonzero(capsys):
    # Exit 1, not argparse's own 2, which would read as "timeout".
    for argv in (["frobnicate"], ["synth", WRAP, "--mode", "nope"],
                 ["synth", WRAP, "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


def test_malformed_env_value_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("BEE_MAX_DEPTH", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["synth", WRAP])
    assert exc.value.code == EXIT_ERROR
    assert "--max-depth" in capsys.readouterr().err


def test_nan_timeout_rejected(capsys):
    code = main(["synth", WRAP, "--timeout", "nan"])
    _, err = capsys.readouterr()
    assert code == EXIT_ERROR
    assert "error:" in err
