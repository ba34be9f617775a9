"""Command-line interface: exit codes, stdout/stderr contracts, and the
benchmark report schema."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from tablesynth import cli
from tablesynth.cli import (
    EXIT_ERROR,
    EXIT_EXHAUSTED,
    EXIT_SOLVED,
    EXIT_TIMEOUT,
    main,
)
from tablesynth.synth import SynthSettings
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


def test_synth_stops_keeping_tables_at_the_first_match(capsys):
    # delete-pdf's one hypothesis matches the 23rd table kept; the rest of
    # depth 1 (1195 tables in all) is never built.
    code = main(["synth", str(BENCHMARKS / "file" / "delete-pdf.json")])
    _, err = capsys.readouterr()
    assert code == EXIT_SOLVED
    stats = json.loads(err.strip().splitlines()[-1])
    assert (stats["forward_tables"], stats["hypotheses_tried"],
            stats["hypotheses_untried"]) == (23, 1, 0)


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
    case = json.loads(Path(WRAP).read_text())
    assert table == table_from_json(case["output"]).renamed(table.name)


def test_exec_pending(capsys):
    code = main(["exec", WRAP_PROG, WRAP, "--pending"])
    out, _ = capsys.readouterr()
    assert code == EXIT_SOLVED
    case = json.loads(Path(WRAP).read_text())
    expected = table_from_json(case["expected"])
    assert table_from_json(json.loads(out)) == expected.renamed("out")


def _wrap_tables_file() -> dict:
    """A tables file of the wrap case's inputs and action."""
    case = json.loads(Path(WRAP).read_text())
    return {
        "action": {"name": "wrap",
                   "args": [{"name": "element", "type": "Id"},
                            {"name": "tag", "type": "Str"}]},
        "tables": case["inputs"],
    }


def test_exec_tables_file(tmp_path, capsys):
    p = tmp_path / "tables.json"
    p.write_text(json.dumps(_wrap_tables_file()))
    code = main(["exec", WRAP_PROG, str(p)])
    out, _ = capsys.readouterr()
    assert code == EXIT_SOLVED
    assert table_from_json(json.loads(out)).nrows == 2


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda f: f.update(tables={}), id="tables-object"),
    pytest.param(lambda f: f["action"].update(args={}), id="args-object"),
    pytest.param(lambda f: f["action"]["args"][0].update(name=[1]),
                 id="arg-name-list"),
    pytest.param(lambda f: f["tables"][0].update(name=["items"]),
                 id="table-name-list"),
    pytest.param(lambda f: f["tables"][0]["columns"][0].update(name=5),
                 id="column-name-int"),
])
def test_exec_tables_file_is_checked_not_converted(tmp_path, capsys, mutate):
    tables = _wrap_tables_file()
    mutate(tables)
    p = tmp_path / "tables.json"
    p.write_text(json.dumps(tables))
    code = main(["exec", WRAP_PROG, str(p)])
    out, err = capsys.readouterr()
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: ")


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
    pytest.param(b'Yield("wrap", t, linear(2,13835058055282163712)(n));', None,
                 id="feature-parameter-out-of-range"),
    pytest.param(b"t1 = Filter(items, intEq(num, " + b"9" * 5000 + b"));", None,
                 id="int-literal-past-digit-limit"),
    pytest.param(b'Yield("wrap", t, concat[x' + b"1" * 5000 + b"{Alnum#1}](n));",
                 None, id="concat-position-past-digit-limit"),
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


def test_exec_deeply_nested_predicate_exits_1_without_traceback(tmp_path):
    prog_path = tmp_path / "deep.prog"
    predicate = "not(" * 1000 + "isOdd(frame)" + ")" * 1000
    prog_path.write_text(f"t1 = Filter(ti, {predicate});\n"
                         'Yield("shift", t1, id, "GB", frame, frame);\n')
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tablesynth.cli", "exec", str(prog_path),
         str(BENCHMARKS / "gif" / "running-example.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_ERROR
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def _running_example_with(mutate):
    def write(path):
        src = json.loads((BENCHMARKS / "gif" / "running-example.json").read_text())
        mutate(src)
        path.write_text(json.dumps(src))
    return write


@pytest.mark.parametrize("command", ["synth", "exec"])
@pytest.mark.parametrize("write", [
    pytest.param(lambda path: path.write_text("[" * 200_000), id="deep-json"),
    pytest.param(_running_example_with(lambda src: src["domain_spec"]["entities"][0]
                                       .update(fields=[], variadic=True)),
                 id="empty-variadic-entity"),
    pytest.param(_running_example_with(lambda src: src.update(constants={"a": 1})),
                 id="constants-object"),
    pytest.param(_running_example_with(lambda src: src.update(constants="ab")),
                 id="constants-string"),
])
def test_bad_benchmark_file_exits_1_without_traceback(tmp_path, command, write):
    path = tmp_path / "case.json"
    write(path)
    args = [str(BENCHMARKS / "gif" / "running-example.prog")] * (command == "exec")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tablesynth.cli", command, *args, str(path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_ERROR
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("command", ["synth", "exec"])
@pytest.mark.parametrize("mutate, message", [
    pytest.param(lambda src: src.update(constants=[2**70]),
                 "integer 1180591620717411303424 out of 64-bit range",
                 id="constant-out-of-range"),
    pytest.param(lambda src: src.update(output=None),
                 "malformed table object: NoneType is not a JSON object",
                 id="null-table"),
])
def test_bad_benchmark_value_names_the_file(tmp_path, command, mutate, message):
    path = tmp_path / "case.json"
    _running_example_with(mutate)(path)
    args = [str(BENCHMARKS / "gif" / "running-example.prog")] * (command == "exec")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tablesynth.cli", command, *args, str(path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_ERROR
    assert proc.stderr == f"error: {path}: {message}\n"


@pytest.mark.parametrize("program, where", [
    ('Yield("act", t, linear(1,0)(a, b), s);', "yield 0 arg "),
    ('Yield("act", t, sum(0)(a), s);', "yield 0 arg "),
    ('Yield("act", t, a, concat[x1{Lower#1}](s));', "yield 0 arg "),
    ('u = Filter(t, intLt(a, 99999999999999999999));\nYield("act", u, a, s);',
     "statement 0: "),
    ('Yield("act", t, 99999999999999999999, s);', "yield 0 arg "),
], ids=["linear-of-two-inputs", "sum-of-one-input", "concat-reads-missing-input",
        "filter-int-out-of-range", "yield-int-out-of-range"])
def test_exec_wrong_feature_input_count_is_invalid(tmp_path, program, where):
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
    assert proc.stderr.startswith("invalid program [type check]: " + where)


def test_bench_report_matches_schema(capsys, tmp_path):
    # A one-case directory keeps this test fast.
    sub = tmp_path / "xml"
    sub.mkdir()
    for suffix in (".json", ".prog"):
        (sub / ("wrap-items" + suffix)).write_text(
            (BENCHMARKS / "xml" / ("wrap-items" + suffix)).read_text())
    code = main(["bench", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == EXIT_SOLVED
    payload = json.loads(out.split("\n\n")[0])
    schema = json.loads((SCHEMAS / "run_report.schema.json").read_text())
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
            (BENCHMARKS / "xml" / ("wrap-items" + suffix)).read_text())
    code = main(["bench", str(tmp_path), "--max-depth", "0"])
    out, _ = capsys.readouterr()
    assert code == EXIT_ERROR
    payload = json.loads(out.split("\n\n")[0])
    assert payload["reports"][0]["regression_failures"] == 1


def test_settings_flags_default_to_synth_settings(capsys, monkeypatch):
    for name in ("TIMEOUT", "MAX_DEPTH", "HYPOTHESIS_BOUND", "MODE"):
        monkeypatch.delenv(f"BEE_{name}", raising=False)
    monkeypatch.setenv("COLUMNS", "200")  # no help line wraps
    args = cli.build_parser().parse_args(["synth", WRAP])
    assert cli._settings(args, args.mode) == SynthSettings()

    # The flags read the defaults from ``SynthSettings``; they repeat none.
    @dataclasses.dataclass(frozen=True)
    class Other(SynthSettings):
        max_depth: int = 1
        hypothesis_bound: int = 7
        timeout: float = 9.5
        mode: str = "forward-only"

    monkeypatch.setattr(cli, "SynthSettings", Other)
    args = cli.build_parser().parse_args(["synth", WRAP])
    assert cli._settings(args, args.mode) == Other()
    with pytest.raises(SystemExit):
        main(["synth", "--help"])
    help_text = capsys.readouterr().out
    assert "(default 9.5)" in help_text and "(default forward-only)" in help_text


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
