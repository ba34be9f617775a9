"""Synthesis engine: scoring oracles, hypothesis ranking, row-surjection
candidates, and end-to-end synthesis on the worked example."""

from __future__ import annotations

import pytest

from tablesynth.domains import load_benchmark
from tablesynth.dsl import ActionSignature, exec_program
from tablesynth.errors import SchemaError
from tablesynth.progtext import format_program
from tablesynth.synth import (
    SynthSettings,
    SynthTask,
    _Engine,
    generate_hypotheses,
    score_subtable,
    synthesize,
    synthesize_forward_only,
)
from tablesynth.table import ColumnType, Id, Schema, Table
from tablesynth.taskgen import ablation_family

from conftest import BENCHMARKS, ROOT, SHIFT, SHIFT_SCHEMA

INT = ColumnType.INT
STR = ColumnType.STR
ID = ColumnType.ID

EXPECTED_RUNNING = """t1 = Filter(ti, isOdd(frame));
t2 = Filter(ti, isEven(frame));
Yield("shift", t1, id, "GB", linear(-5,-25)(frame), linear(-5,-25)(frame));
Yield("shift", t2, id, "GB", linear(5,20)(frame), linear(5,20)(frame));
"""
EXPECTED_FAMILY = EXPECTED_RUNNING.replace('t2, id, "GB"', 't2, id, "R"')
EXPECTED_WRAP = """t8 = Filter(elements, strEq(tag, "item"));
Yield("wrap", t8, id, "div");
"""
EXPECTED_FILL_SUM = 'Yield("fill", sheet, sum(0)(col1, col2), row, 3);\n'
EXPECTED_FILL_ROWSUM = """t247 = GroupJoin(cells, row, sum(content));
Yield("fill", t247, sum_content, row, 3);
"""
EXPECTED_RENAME = ('Yield("rename", files, id, '
                   'concat[x1{Alnum#1} "_" x0{Digits#1}](name, owner));\n')


# -- consistency score -------------------------------------------------------

def test_score_single_row_equals_column_count(shift_out, frames_in):
    row = [shift_out.rows[0]]
    assert score_subtable(row, SHIFT_SCHEMA, [frames_in]) == 5


def test_score_yield1(yield1, frames_in):
    # Two constant columns (action, channel) over two rows.
    assert score_subtable(yield1.rows, SHIFT_SCHEMA, [frames_in]) == 4


def test_score_full_output(shift_out, frames_in):
    assert score_subtable(shift_out.rows, SHIFT_SCHEMA, [frames_in]) == 8


def test_score_ordered_run():
    s = Schema([("n", INT)])
    inp = Table("i", Schema([("x", INT)]), [(0,)])
    assert score_subtable([(4,), (5,), (6,)], s, [inp]) == 3
    assert score_subtable([(4,), (6,)], s, [inp]) == 0
    # A singleton never earns the ordered term on its own.
    assert score_subtable([(4,)], s, [inp]) == 1


def test_score_concat_coverage():
    s = Schema([("s", STR)])
    inp = Table("i", Schema([("name", STR)]), [("tiktok.jpg",)])
    assert score_subtable([("tiktok",)], s, [inp]) == 2  # const + concat
    assert score_subtable([("zzz",)], s, [inp]) == 1  # const only


def test_score_empty():
    assert score_subtable([], SHIFT_SCHEMA, []) == 0


# -- hypothesis pool ---------------------------------------------------------

def test_hypotheses_ranked_and_bounded(shift_out, frames_in, yield1, yield2):
    pool = generate_hypotheses(shift_out, [frames_in], 20)
    assert 0 < len(pool) <= 20
    # Highest score first; the full output table wins here.
    assert pool[0].rows == frozenset(shift_out.rows)
    scores = [h.score for h in pool]
    assert scores == sorted(scores, reverse=True)
    rowsets = {h.rows for h in pool}
    assert frozenset(yield1.rows) in rowsets
    assert frozenset(yield2.rows) in rowsets
    target = frozenset(shift_out.rows)
    assert all(h.rows and h.rows <= target for h in pool)


def test_hypotheses_distinct(shift_out, frames_in):
    pool = generate_hypotheses(shift_out, [frames_in], 50)
    rowsets = [h.rows for h in pool]
    assert len(rowsets) == len(set(rowsets))


# -- row surjections ---------------------------------------------------------

def _engine(frames_in, shift_out) -> _Engine:
    return _Engine(SynthTask((frames_in,), shift_out, SHIFT))


def test_singleton_hypothesis_gets_trivial_surjection(frames_in, shift_out):
    eng = _engine(frames_in, shift_out)
    h = Table("h", SHIFT_SCHEMA, [shift_out.rows[0]])
    assert list(eng._surjections(frames_in, h)) == [(0, 0, 0, 0)]


def test_id_anchor_surjection(frames_in, shift_out, yield1, odd_u):
    eng = _engine(frames_in, shift_out)
    # ODD_U carries exactly the ids of YIELD1: one anchored surjection.
    maps = list(eng._surjections(odd_u, yield1))
    assert len(maps) == 1
    (r,) = maps
    for i, row in enumerate(odd_u.rows):
        assert yield1.rows[r[i]][1] == row[2]  # id columns line up


def test_no_anchor_no_match(frames_in, shift_out, yield2, odd_u):
    eng = _engine(frames_in, shift_out)
    # YIELD2's ids are absent from ODD_U, so no surjection survives.
    assert list(eng._surjections(odd_u, yield2)) == []


def test_smaller_source_cannot_cover(frames_in, shift_out, odd_u):
    eng = _engine(frames_in, shift_out)
    # A 2-row table has no surjection onto 4 target rows.
    assert list(eng._surjections(odd_u, shift_out.renamed("h"))) == []


def test_blind_surjections_without_identifying_column():
    # No output column has pairwise distinct values, so the full-table
    # hypothesis has no anchor and every row map is enumerated.
    sheet = Table("sheet", Schema([("row", INT), ("col", INT), ("content", STR)]),
                  [(1, 1, "x"), (1, 2, "x"), (2, 1, "y"), (2, 2, "y")])
    fill = ActionSignature("fill", (("content", STR), ("row", INT), ("col", INT)))
    out = Table("out", fill.output_schema(),
                [("fill", c, r, k) for r, k, c in sheet.rows])
    eng = _Engine(SynthTask((sheet,), out, fill))
    maps = list(eng._surjections(sheet, out))
    assert len(maps) == 24
    assert all(sorted(r) == [0, 1, 2, 3] for r in maps)
    # Without an Int column nothing yields the non-constant row/col columns.
    texts = Table("texts", Schema([("content", STR)]), [(c,) for _, _, c in sheet.rows])
    assert list(eng._surjections(texts, out)) == []
    result = synthesize(SynthTask((sheet,), out, fill))
    assert result.status == "solved"
    assert exec_program(result.program, [sheet], fill) == out


# -- end-to-end --------------------------------------------------------------

def test_synthesize_running_example(frames_in, shift_out):
    task = SynthTask((frames_in,), shift_out, SHIFT)
    result = synthesize(task)
    assert result.status == "solved"
    assert format_program(result.program) == EXPECTED_RUNNING
    assert exec_program(result.program, [frames_in], SHIFT) == shift_out
    stats = result.stats.to_json()
    assert stats["mode"] == "bi"
    assert stats["elapsed_ms"] >= 0
    assert stats["forward_tables"] > 0
    assert stats["hypotheses_tried"] >= stats["matches_solved"] >= 2


def test_synthesize_respects_timeout(frames_in, shift_out):
    settings = SynthSettings(timeout=1e-9)
    task = SynthTask((frames_in,), shift_out, SHIFT, settings=settings)
    assert synthesize(task).status == "timeout"
    with pytest.raises(Exception):
        SynthSettings(timeout=0.0)
    # NaN compares false with everything, so its deadline would never fire.
    with pytest.raises(Exception):
        SynthSettings(timeout=float("nan"))


@pytest.mark.parametrize("const", [True, 1.5, None])
def test_task_rejects_constant_that_is_not_a_table_value(frames_in, shift_out, const):
    with pytest.raises(SchemaError):
        SynthTask((frames_in,), shift_out, SHIFT, (3, const))


def test_unsolvable_at_depth_zero(frames_in, shift_out):
    settings = SynthSettings(max_depth=0)
    task = SynthTask((frames_in,), shift_out, SHIFT, settings=settings)
    assert synthesize(task).status == "exhausted"


def test_forward_only_solves_small_family():
    task = ablation_family(4)
    result = synthesize_forward_only(task)
    assert result.status == "solved"
    out = exec_program(result.program, list(task.inputs), task.action)
    assert out == task.output.renamed(out.name)
    assert result.stats.to_json()["mode"] == "forward-only"


def test_bidirectional_solves_family_sizes():
    for k in (4, 10):
        task = ablation_family(k)
        result = synthesize(task)
        assert result.status == "solved", k


def test_task_rejects_mismatched_output_schema(frames_in):
    bad = Table("to", Schema([("action", STR), ("id", ID)]), [("shift", Id("f1"))])
    with pytest.raises(Exception):
        SynthTask((frames_in,), bad, SHIFT)


def _family(k):
    return lambda settings: ablation_family(k, settings)


def _benchmark(name):
    def make(settings):
        case = load_benchmark(BENCHMARKS / f"{name}.json")
        return SynthTask(case.inputs, case.output, case.action, case.constants,
                         settings)
    return make


def _rename(settings):
    """newname = owner + "_" + digits(name): a concat over two columns."""
    files = Table("files", Schema([("id", ID), ("name", STR), ("owner", STR)]), [
        (Id("f1"), "report12.pdf", "alice"), (Id("f2"), "notes7.txt", "bob"),
        (Id("f3"), "photo33.jpg", "carol"), (Id("f4"), "draft5.doc", "dave"),
    ])
    action = ActionSignature("rename", (("id", ID), ("newname", STR)))
    out = Table("to", action.output_schema(), [
        ("rename", Id("f1"), "alice_12"), ("rename", Id("f2"), "bob_7"),
        ("rename", Id("f3"), "carol_33"), ("rename", Id("f4"), "dave_5"),
    ])
    return SynthTask((files,), out, action, (), settings)


@pytest.mark.parametrize(
    "make, mode, max_depth, status, counters, program",
    [
        pytest.param(_family(4), "bi", 3, "solved", (25, 7, 2),
                     EXPECTED_FAMILY, id="family4-bi"),
        pytest.param(_family(4), "forward-only", 3, "solved", (25, 10, 2),
                     EXPECTED_FAMILY, id="family4-fwd"),
        pytest.param(_family(10), "forward-only", 3, "solved", (25, 562, 2),
                     EXPECTED_FAMILY, id="family10-fwd"),
        pytest.param(_benchmark("gif/running-example"), "bi", 3, "solved",
                     (41, 12, 2), EXPECTED_RUNNING, id="gif-bi"),
        pytest.param(_benchmark("gif/running-example"), "forward-only", 3,
                     "solved", (41, 10, 2), EXPECTED_RUNNING, id="gif-fwd"),
        pytest.param(_benchmark("xml/wrap-items"), "forward-only", 3, "solved",
                     (38, 1, 1), EXPECTED_WRAP, id="wrap-fwd"),
        pytest.param(_family(4), "forward-only", 0, "exhausted", (1, 15, 0),
                     None, id="family4-fwd-depth0"),
        # The matcher's candidate order: a two-column sum, a GroupJoin
        # aggregate, and a concat whose inputs come in permutation order.
        pytest.param(_benchmark("spreadsheet/fill-sum"), "bi", 3, "solved",
                     (130, 1, 1), EXPECTED_FILL_SUM, id="fill-sum-bi"),
        pytest.param(_benchmark("spreadsheet/fill-rowsum"), "bi", 3, "solved",
                     (550, 1, 1), EXPECTED_FILL_ROWSUM, id="fill-rowsum-bi"),
        pytest.param(_rename, "bi", 1, "solved", (8, 1, 1), EXPECTED_RENAME,
                     id="rename-two-inputs-bi"),
    ],
)
def test_search_counters_and_program_pinned(make, mode, max_depth, status,
                                            counters, program):
    # Both modes share one search loop; these pin its work per hypothesis
    # source so a refactor cannot silently change what either one does.
    settings = SynthSettings(max_depth=max_depth, mode=mode)
    result = synthesize(make(settings))
    stats = result.stats
    assert result.status == status
    assert stats.mode == mode
    assert (stats.forward_tables, stats.hypotheses_tried,
            stats.matches_solved) == counters
    text = format_program(result.program) if result.program else None
    assert text == program


def test_tracer_hooks_reach_the_engine(monkeypatch):
    # The benchmark's traced run patches engine names by attribute; a rename
    # here would silently zero its per-layer counters.
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()  # inside the try: a failed install is undone too
        result = synthesize(_rename(SynthSettings(max_depth=1)))
    finally:
        tracer.uninstall()
    assert result.status == "solved"
    for counter in ("synth.exec_transform.calls", "synth.forward.kept",
                    "synth.solve.calls", "features.solve_concat.calls"):
        assert tracer.count[counter] > 0, counter
