"""Repository tooling: the corpus generator reproduces the shipped corpus,
and the task-record printer gives one stable record per workload task."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import subprocess
import sys

from conftest import BENCHMARKS, ROOT


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gen_benchmarks_regenerates_corpus(tmp_path, monkeypatch, capsys):
    gen = _load_tool("gen_benchmarks")
    monkeypatch.setattr(gen, "BENCH", tmp_path)
    gen.main()
    capsys.readouterr()
    committed = sorted(p.relative_to(BENCHMARKS) for p in BENCHMARKS.rglob("*")
                       if p.suffix in (".json", ".prog"))
    generated = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")
                       if p.is_file())
    assert generated == committed
    for rel in committed:
        assert (tmp_path / rel).read_bytes() == (BENCHMARKS / rel).read_bytes(), rel


def test_task_records_of_the_corpus():
    cmd = [sys.executable, str(ROOT / "tools" / "task_records.py"),
           "--seed", "404", "--workload", "corpus"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    records = [json.loads(line) for line in runs[0].splitlines()]
    programs = {str(p.relative_to(BENCHMARKS).with_suffix("")): p.read_text()
                for p in BENCHMARKS.rglob("*.prog")}
    assert [r["id"] for r in records] == sorted(programs)
    for r in records:
        assert set(r) == {"id", "status", "program", "forward_tables",
                          "hypotheses_tried", "hypotheses_untried",
                          "matches_solved", "generalized"}
        assert r["status"] == "solved" and r["generalized"] is True
        assert r["program"] == programs[r["id"]]


def test_task_records_of_the_first_rename_tasks(monkeypatch):
    # The string solvers decide these programs, tie-breaking included. The
    # first 20 programs narrow a change down; all 100 records pin the
    # workload.
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends to it
    tool = _load_tool("task_records")
    records = list(tool.task_records("rename", 404))
    assert [r["status"] for r in records] == ["solved"] * 100
    text = "\n".join(r["program"] for r in records[:20])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "9b7bddf454a87356"
    assert _search_digest(records) == "6abfd190a37fa12b"


def _search_digest(records) -> str:
    """A digest of each record's status, program text and search counters."""
    fields = ("status", "program", "forward_tables", "hypotheses_tried",
              "matches_solved")
    text = "\n".join(json.dumps([r[f] for f in fields]) for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_task_records_of_the_first_sweep_tasks(monkeypatch):
    # Matching decides these searches: a change to the row maps, the family
    # order or a solver's fit moves a status, a program or a counter here.
    # The first 40 records narrow a change down; all 200 pin the sweep.
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends to it
    tool = _load_tool("task_records")
    records = list(tool.task_records("sweep", 404))
    assert [r["status"] for r in records[:40]].count("solved") == 33
    assert _search_digest(records[:40]) == "86a9336ed104c8ee"
    assert [r["status"] for r in records].count("solved") == 166
    assert _search_digest(records) == "d5da3ab3776e93f5"


def test_task_records_of_the_parity_baseline(monkeypatch):
    # The forward-only baseline tries every larger subset of the 14 output
    # rows before the two parity halves.
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends to it
    tool = _load_tool("task_records")
    [record] = tool.task_records("parity-fwd", 404)
    assert record["status"] == "solved" and record["generalized"] is True
    assert [record["forward_tables"], record["hypotheses_tried"],
            record["matches_solved"]] == [4, 8830, 2]
    assert _search_digest([record]) == "a1ffe964b46cb86f"
