"""Repository tooling: the corpus generator reproduces the shipped corpus."""

from __future__ import annotations

import importlib.util

from conftest import BENCHMARKS, ROOT


def test_gen_benchmarks_regenerates_corpus(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "gen_benchmarks", ROOT / "tools" / "gen_benchmarks.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
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
