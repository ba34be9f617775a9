"""Acceptance gate: the seven shipped behavior guarantees.

1. The four-frame worked example is solved end to end in under 10 seconds
   and its program generalizes to frames 5-8 (biases +-50 / +-60).
2. The pass/fail spreadsheet task (constant pool {60}) is solved in under
   10 seconds with two threshold filters and constant-projection Yields,
   and classifies pending scores 59 / 60 / 100 correctly.
3. Ablation: the bidirectional search solves the parity family for
   k in {4, 10, 20} within 120 seconds each, while the forward-only
   baseline times out at k = 20.
4. Soundness on 200 random tasks: every returned program reproduces the
   output example exactly.
5. Solver recovery: 500 random parameterizations per feature family are
   recovered from sampled data, under 60 seconds total.
6. Interpreter laws hold on 1000 random cases each.
7. Regression rule: every shipped benchmark with a committed reference
   program stays solved and non-over-fitting.
"""

from __future__ import annotations

import bisect
import random
import time

import pytest

from tablesynth.domains import check_overfit, load_benchmark, load_benchmark_dir
from tablesynth.dsl import (
    ConstP,
    Filter,
    Not,
    SymbolApp,
    exec_filter,
    exec_groupjoin,
    exec_join,
    exec_order,
    exec_program,
)
from tablesynth.features import (
    ConcatProgram,
    ExtractSegment,
    ExtractSpec,
    LiteralSegment,
    TokenClass,
    apply_feature,
    concat,
    div,
    linear,
    mod,
    solve_concat,
    solve_div,
    solve_linear,
    solve_mod,
    solve_substring,
    solve_sum,
    substring,
    sum_feature,
)
from tablesynth.errors import FeatureMissError
from tablesynth.progtext import format_program, parse_program
from tablesynth.synth import SynthSettings, SynthTask, synthesize, synthesize_forward_only
from tablesynth.table import ColumnType, Id, Schema, Table, project, union
from tablesynth.taskgen import ablation_family, random_task

from conftest import BENCHMARKS

INT = ColumnType.INT
STR = ColumnType.STR
ID = ColumnType.ID


def _solve_case(path, **settings):
    case = load_benchmark(path)
    task = SynthTask(case.inputs, case.output, case.action, case.constants,
                     SynthSettings(**settings) if settings else SynthSettings())
    return case, synthesize(task)


# -- criterion 1: worked example end to end ----------------------------------

def test_criterion_1_running_example():
    start = time.monotonic()
    case, result = _solve_case(BENCHMARKS / "gif" / "running-example.json")
    elapsed = time.monotonic() - start
    assert result.status == "solved"
    assert elapsed < 10.0
    got = exec_program(result.program, list(case.pending), case.action)
    assert got == case.expected.renamed(got.name)
    biases = {row[1].label: row[3] for row in got.rows}
    assert biases == {"f5": -50, "f6": 50, "f7": -60, "f8": 60}


# -- criterion 2: threshold classification, not over-fitting -----------------

def test_criterion_2_pass_fail():
    start = time.monotonic()
    case, result = _solve_case(BENCHMARKS / "spreadsheet" / "pass-fail.json")
    elapsed = time.monotonic() - start
    assert result.status == "solved"
    assert elapsed < 10.0
    assert case.constants == (60,)

    program = result.program
    filters = [s for s in program.transform if isinstance(s, Filter)]
    assert len(filters) == 2
    symbols = set()
    for f in filters:
        p = f.predicate.inner if isinstance(f.predicate, Not) else f.predicate
        assert isinstance(p, SymbolApp)
        assert p.col == "content" and p.arg == 60
        symbols.add(p.symbol)
    assert symbols == {"IntLt", "IntGeq"}
    labels = set()
    for y in program.mapping:
        content = y.projections[1]
        assert isinstance(content, ConstP)
        labels.add(content.value)
    assert labels == {"Pass", "Fail"}

    report = check_overfit(case, program)
    assert not report.overfit
    got = exec_program(program, list(case.pending), case.action)
    verdicts = {row[2]: row[1] for row in got.rows}  # row -> content
    assert verdicts == {1: "Fail", 2: "Pass", 3: "Pass"}  # 59, 60, 100


# -- criterion 3: ablation against the forward-only baseline -----------------

@pytest.mark.parametrize("k", [4, 10, 20])
def test_criterion_3_bidirectional_scales(k):
    task = ablation_family(k, SynthSettings(timeout=120.0))
    start = time.monotonic()
    result = synthesize(task)
    elapsed = time.monotonic() - start
    assert result.status == "solved", k
    assert elapsed < 120.0
    out = exec_program(result.program, list(task.inputs), task.action)
    assert out == task.output.renamed(out.name)


@pytest.mark.parametrize("k", [4, 10])
def test_criterion_3_forward_only_small(k):
    task = ablation_family(k, SynthSettings(timeout=120.0))
    result = synthesize_forward_only(task)
    assert result.status == "solved", k


@pytest.mark.slow
def test_criterion_3_forward_only_times_out_at_20():
    task = ablation_family(20, SynthSettings(timeout=120.0))
    result = synthesize_forward_only(task)
    assert result.status == "timeout"


# -- criterion 4: soundness on random tasks ----------------------------------

@pytest.mark.slow
def test_criterion_4_soundness_200_random_tasks():
    rng = random.Random(404)
    # A short budget keeps the run practical; soundness must hold for
    # whatever the engine returns under any settings.
    settings = SynthSettings(timeout=3.0, max_depth=2)
    returned = 0
    for _ in range(200):
        task, _generator = random_task(rng, settings)
        result = synthesize(task)
        if result.status != "solved":
            continue
        returned += 1
        got = exec_program(result.program, list(task.inputs), task.action)
        assert got == task.output.renamed(got.name)
    # Not every random split is reachable within the ranked hypothesis
    # bound; the distribution still solves comfortably more than 3 in 4.
    assert returned >= 150


# -- criterion 5: solver recovery --------------------------------------------

_TOKENS = [TokenClass("Digits"), TokenClass("Alnum"), TokenClass("Alpha"),
           TokenClass("Lower"), TokenClass("Upper")]


def _random_text(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(2, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            parts.append("".join(rng.choices("abcdefgh", k=rng.randint(1, 5))))
        elif kind == 1:
            parts.append("".join(rng.choices("0123456789", k=rng.randint(1, 4))))
        else:
            parts.append("".join(rng.choices("ABCDE", k=rng.randint(1, 3))))
        parts.append(rng.choice([".", "-", "_", " "]))
    return "".join(parts[:-1])


def test_criterion_5_solver_recovery_under_60s():
    rng = random.Random(505)
    start = time.monotonic()

    for _ in range(500):
        a, b = rng.randint(-9, 9), rng.randint(-99, 99)
        xs = rng.sample(range(-100, 100), rng.randint(2, 5))
        truth = linear(a, b)
        assert solve_linear([(x, apply_feature(truth, (x,))) for x in xs]) == truth

    for _ in range(500):
        bb = rng.randint(-30, 30)
        truth = sum_feature(bb)
        triples = [(rng.randint(-50, 50), rng.randint(-50, 50), 0)
                   for _ in range(rng.randint(1, 4))]
        triples = [(x, y, apply_feature(truth, (x, y))) for x, y, _ in triples]
        assert solve_sum(triples) == truth

    for _ in range(500):
        d, bb = rng.randint(2, 100), rng.randint(-60, 60)
        truth = div(bb, d)
        xs = rng.sample(range(-300, 300), rng.randint(2, 6))
        pairs = [(x, apply_feature(truth, (x,))) for x in xs]
        f = solve_div(pairs)
        assert f is not None
        assert all(apply_feature(f, (x,)) == y for x, y in pairs)

    for _ in range(500):
        d = rng.randint(2, 10)
        b1, b2 = rng.randrange(d), rng.randint(-20, 20)
        truth = mod(b1, b2, d)
        xs = rng.sample(range(-50, 50), rng.randint(2, 6))
        pairs = [(x, apply_feature(truth, (x,))) for x in xs]
        f = solve_mod(pairs)
        assert f is not None
        assert all(apply_feature(f, (x,)) == y for x, y in pairs)

    for _ in range(500):
        spec = ExtractSpec((rng.choice(_TOKENS),),
                           rng.choice([1, 2, -1]))
        truth = substring(spec)
        texts = []
        outs = []
        for _ in range(rng.randint(1, 3)):
            for _attempt in range(50):
                t = _random_text(rng)
                try:
                    y = apply_feature(truth, (t,))
                except FeatureMissError:
                    continue
                if y:
                    texts.append(t)
                    outs.append(y)
                    break
        if not texts:
            continue
        f = solve_substring(list(zip(texts, outs)))
        assert f is not None
        assert all(apply_feature(f, (t,)) == y for t, y in zip(texts, outs))

    for _ in range(500):
        prog = ConcatProgram((
            ExtractSegment(0, ExtractSpec((TokenClass("Alnum"),), 1)),
            LiteralSegment(rng.choice(["-", "_", "."])),
            ExtractSegment(1, ExtractSpec((TokenClass("Digits"),), 1)),
        ))
        truth = concat(prog)
        rows = []
        for _ in range(rng.randint(1, 2)):
            for _attempt in range(50):
                ins = (_random_text(rng), _random_text(rng))
                try:
                    y = apply_feature(truth, ins)
                except Exception:
                    continue
                rows.append((ins, y))
                break
        if not rows:
            continue
        f = solve_concat(rows)
        assert f is not None
        assert all(apply_feature(f, ins) == y for ins, y in rows)

    assert time.monotonic() - start < 60.0


# -- criterion 6: interpreter laws -------------------------------------------

def _random_table(rng: random.Random, nrows: int) -> Table:
    schema = Schema([("id", ID), ("g", INT), ("v", INT), ("s", STR)])
    rows = [(Id(f"e{i}"), rng.randint(0, 2), rng.randint(-9, 9),
             rng.choice("abc")) for i in range(nrows)]
    return Table("t", schema, rows)


def test_criterion_6_filter_partition_law():
    rng = random.Random(61)
    for _ in range(1000):
        t = _random_table(rng, rng.randint(0, 7))
        p = SymbolApp(rng.choice(["IsOdd", "IsEven"]), "v")
        left = exec_filter(t, p)
        right = exec_filter(t, Not(p))
        assert union(left, right) == t
        assert not (set(left.rows) & set(right.rows))


def test_criterion_6_join_matches_nested_loop():
    rng = random.Random(62)
    s1 = Schema([("id", ID), ("a", INT)])
    s2 = Schema([("ref", ID), ("b", STR)])
    for _ in range(1000):
        t1 = Table("t1", s1, [(Id(f"x{rng.randint(0, 4)}"), rng.randint(0, 9))
                              for _ in range(rng.randint(0, 6))])
        t2 = Table("t2", s2, [(Id(f"x{rng.randint(0, 4)}"), rng.choice("ab"))
                              for _ in range(rng.randint(0, 6))])
        j = exec_join(t1, t2, "id", "ref")
        expected = {r1 + r2 for r1 in t1.rows for r2 in t2.rows
                    if r1[0] == r2[0]}
        assert set(j.rows) == expected


def test_criterion_6_groupjoin_preserves_rows():
    rng = random.Random(63)
    for _ in range(1000):
        t = _random_table(rng, rng.randint(1, 7))
        g = exec_groupjoin(t, "g", [("max", "v"), ("cnt", "g")])
        assert g.nrows == t.nrows
        assert project(g, ["id", "g", "v", "s"]) == t
        for row in g.rows:
            members = [r[2] for r in t.rows if r[1] == row[1]]
            assert row[4] == max(members)
            assert row[5] == len(members)


def test_criterion_6_order_is_competition_ranking():
    rng = random.Random(64)
    for _ in range(1000):
        t = _random_table(rng, rng.randint(1, 7))
        inv = rng.random() < 0.5
        start = rng.randint(-3, 3)
        grouped = rng.random() < 0.5
        o = exec_order(t, "v", c_start=start, c_inv=inv,
                       col_index="g" if grouped else None)
        assert o.schema.names[-1] == "ord_v"
        for row in o.rows:
            group = [r[2] for r in t.rows if not grouped or r[1] == row[1]]
            if inv:
                rank = sum(1 for v in group if v > row[2])
            else:
                rank = bisect.bisect_left(sorted(group), row[2])
            assert row[-1] == start + rank


# -- criterion 7: benchmark regression rule ----------------------------------

@pytest.mark.parametrize("case_path",
                         sorted(BENCHMARKS.glob("**/*.json")),
                         ids=lambda p: p.stem)
def test_criterion_7_regression_rule(case_path):
    case = load_benchmark(case_path)
    assert case.is_regression
    reference = parse_program(case.reference_program)
    got = exec_program(reference, list(case.inputs), case.action)
    assert got == case.output.renamed(got.name)
    assert not check_overfit(case, reference).overfit

    task = SynthTask(case.inputs, case.output, case.action, case.constants)
    result = synthesize(task)
    assert result.status == "solved"
    assert not check_overfit(case, result.program).overfit
