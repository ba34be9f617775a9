"""Synthesis engine: scoring oracles, hypothesis ranking, row-surjection
candidates, and end-to-end synthesis on the worked example."""

from __future__ import annotations

import gc
import itertools
import random
import time
import weakref

import pytest
from hypothesis import given, strategies as st

from tablesynth.domains import load_benchmark
from tablesynth.dsl import ActionSignature, exec_program
from tablesynth.errors import IntRangeError, SchemaError
from tablesynth.progtext import format_program
from tablesynth.synth import (
    Hypothesis,
    HypothesisGenerator,
    SynthSettings,
    SynthTask,
    _concat_feasible,
    _Deadline,
    _Engine,
    _SubsetSource,
    _row_chars,
    generate_hypotheses,
    score_subtable,
    synthesize,
    synthesize_forward_only,
)
from tablesynth.table import ColumnType, Id, Schema, Table
from tablesynth.taskgen import ablation_family, random_task

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
EXPECTED_WRAP = """t3 = Filter(elements, strEq(tag, "item"));
Yield("wrap", t3, id, "div");
"""
EXPECTED_FILL_SUM = 'Yield("fill", sheet, sum(0)(col1, col2), row, 3);\n'
EXPECTED_FILL_ROWSUM = """t176 = GroupJoin(cells, row, sum(content));
Yield("fill", t176, sum_content, row, 3);
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
    # Characters spread over two rows: no single row composes the value.
    rows = Table("i", Schema([("name", STR)]), [("ab",), ("cd",)])
    assert score_subtable([("ac",)], s, [rows]) == 1
    # Characters spread over two fields of one row: one row composes it.
    fields = Table("i", Schema([("first", STR), ("n", INT), ("last", STR)]),
                   [("ab", 0, "cd")])
    assert score_subtable([("ac",)], s, [fields]) == 2
    # The empty string is composed of nothing.
    assert score_subtable([("",)], s, [inp]) == 1


def _pieces_reference(value, inputs):
    """Brute force: some cut of ``value`` into pieces, each a substring of
    a Str field of one input row."""
    n = len(value)
    for t in inputs:
        for row in t.rows:
            fields = [v for v, (_, ty) in zip(row, t.schema.columns)
                      if ty is STR]
            for k in range(n):
                for cuts in itertools.combinations(range(1, n), k):
                    ends = (0, *cuts, n)
                    if all(any(value[a:b] in f for f in fields)
                           for a, b in zip(ends, ends[1:])):
                        return True
    return False


@st.composite
def _input_tables(draw):
    cells = {INT: st.integers(0, 3), STR: st.text("abc", max_size=3)}
    tables = []
    for k in range(draw(st.integers(0, 3))):
        types = draw(st.lists(st.sampled_from([INT, STR]),
                              min_size=1, max_size=3))
        rows = draw(st.lists(st.tuples(*(cells[ty] for ty in types)),
                             max_size=4))
        schema = Schema([(f"c{j}", ty) for j, ty in enumerate(types)])
        tables.append(Table(f"i{k}", schema, rows))
    return tables


@given(st.text("abcd", max_size=6), _input_tables())
def test_concat_feasible_matches_brute_force(value, inputs):
    assert (_concat_feasible(value, _row_chars(inputs))
            == _pieces_reference(value, inputs))


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


def test_hypothesis_queue_pinned_with_rank_updates(shift_out, frames_in):
    # The whole emission sequence of the worked example, with a match
    # reported after the 1st and 3rd emissions: a match pulls its
    # complement to the front, and the rest keep their rank order.
    gen = HypothesisGenerator(shift_out, [frames_in], SynthSettings())
    emitted = []
    while (h := gen.next()) is not None:
        emitted.append((" ".join(sorted(r[1].label for r in h.rows)),
                        h.score, h.provenance))
        if len(emitted) in (1, 3):
            gen.update_rank(h)
    assert emitted == [
        ("f1 f2 f3 f4", 8, "full-table"),
        ("f1 f2 f3", 6, "signature-group"),
        ("f1 f2 f4", 6, "signature-group"),
        ("f3", 5, "complement"),
        ("f1 f3 f4", 6, "signature-group"),
        ("f2 f3 f4", 6, "signature-group"),
        ("f1", 5, "signature-group"),
        ("f2", 5, "signature-group"),
        ("f4", 5, "signature-group"),
        ("f1 f2", 4, "signature-group"),
        ("f1 f3", 4, "signature-group"),
        ("f1 f4", 4, "signature-group"),
        ("f2 f3", 4, "signature-group"),
        ("f2 f4", 4, "signature-group"),
        ("f3 f4", 4, "signature-group"),
    ]


def test_consecutive_runs_decide_a_sweep_task():
    # Draw 116 of the depth-1 sweep splits ``num`` at 10. The third
    # hypothesis is the consecutive run num = 4, 5 (the rows below 10). Its
    # match pulls its complement to the front, and the complement matches.
    # Without the runs the search ends exhausted.
    rng = random.Random(404)
    for _ in range(117):
        task, _ = random_task(rng, SynthSettings(max_depth=1))
    result = synthesize(task)
    stats = result.stats
    assert result.status == "solved"
    assert (stats.forward_tables, stats.hypotheses_tried,
            stats.matches_solved) == (91, 4, 2)
    assert format_program(result.program) == (
        "t8 = Filter(items, intLt(num, 10));\n"
        "t11 = Filter(items, intGeq(num, 10));\n"
        'Yield("act", t11, id, num, num);\n'
        'Yield("act", t8, id, num, linear(2,-18)(num));\n')


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
    # hypothesis has no row map; smaller hypotheses cover its rows.
    sheet = Table("sheet", Schema([("row", INT), ("col", INT), ("content", STR)]),
                  [(1, 1, "x"), (1, 2, "x"), (2, 1, "y"), (2, 2, "y")])
    fill = ActionSignature("fill", (("content", STR), ("row", INT), ("col", INT)))
    out = Table("out", fill.output_schema(),
                [("fill", c, r, k) for r, k, c in sheet.rows])
    eng = _Engine(SynthTask((sheet,), out, fill))
    assert list(eng._surjections(sheet, out)) == []
    result = synthesize(SynthTask((sheet,), out, fill))
    assert result.status == "solved"
    assert exec_program(result.program, [sheet], fill) == out


def test_long_table_without_identifying_column_solves():
    # No Id column and no output column with distinct values. The two rows
    # of each content value have distinct ``row`` values, so those smaller
    # hypotheses are matched through ``row`` and cover the output.
    t = Table("t", Schema([("a", INT), ("s", STR)]),
              [(a, "xy"[a % 2]) for a in range(1000)])
    fill = ActionSignature("fill", (("content", STR), ("row", INT)))
    out = Table("out", fill.output_schema(),
                [("fill", c, r) for c in "xy" for r in (0, 1)])
    result = synthesize(SynthTask((t,), out, fill,
                                  settings=SynthSettings(timeout=10)))
    assert result.status == "solved"
    assert exec_program(result.program, [t], fill) == out


def test_row_maps_of_one_engine_equal_a_fresh_engines(
        frames_in, shift_out, odd_u, even_v, yield1, yield2):
    # An engine reads a hypothesis table's identifying columns once and
    # keeps them for the next forward table. ``swap`` is matched through its
    # Id column and, in the other order, through its two Int columns.
    k_id = Table("k", Schema([("k", INT), ("id", ID)]),
                 [(1, Id("f1")), (2, Id("f2"))])
    swap = Table("h", SHIFT_SCHEMA, [("shift", Id("f1"), "GB", 2, 2),
                                     ("shift", Id("f2"), "GB", 1, 1)])
    tables = (frames_in, odd_u, even_v, k_id)

    def fresh(t, h):
        return list(_engine(frames_in, shift_out)._surjections(t, h))

    eng = _engine(frames_in, shift_out)
    suspended = eng._surjections(k_id, swap)
    first = next(suspended)
    h1_copy = yield1.renamed("y1")  # equal to yield1, a distinct object
    for h in (yield1, yield2, swap, yield1, h1_copy):
        for t in tables:
            assert list(eng._surjections(t, h)) == fresh(t, h), (t, h)
    # A map stream started before the others were read is unchanged.
    assert [first, *suspended] == fresh(k_id, swap) == [(0, 1), (1, 0)]
    assert fresh(odd_u, yield1) == fresh(odd_u, h1_copy) != []


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


def test_synthesize_out_of_range_fit_is_not_a_match():
    # linear(2**62, 0) fits the first two rows and leaves the 64-bit range
    # on the third; the search drops it and matches smaller hypotheses.
    t = Table("t", Schema([("id", ID), ("x", INT)]),
              [(Id(f"r{i}"), x) for i, x in enumerate([0, 1, 3])])
    act = ActionSignature("act", (("id", ID), ("y", INT)))
    out = Table("out", act.output_schema(),
                [("act", Id(f"r{i}"), y) for i, y in enumerate([0, 2**62, 0])])
    result = synthesize(SynthTask((t,), out, act))
    assert result.status == "solved"
    assert exec_program(result.program, [t], act) == out


def test_synthesize_empty_output_is_exhausted():
    # The empty hypothesis matches an empty input, but its empty cover is no
    # program. No program yields an empty output from a non-empty input, so
    # no forward table is built for it.
    act = ActionSignature("act", (("id", ID), ("y", INT)))
    out = Table("out", act.output_schema(), [])
    schema = Schema([("id", ID), ("x", INT), ("s", STR)])
    for rows in ([], [(Id(f"r{i}"), i, f"s{i}") for i in range(4)]):
        t = Table("t", schema, rows)
        result = synthesize(SynthTask((t,), out, act,
                                      settings=SynthSettings(timeout=60)))
        assert result.status == "exhausted", rows
        assert result.stats.forward_tables == 1, rows


def test_synthesize_respects_timeout(frames_in, shift_out):
    settings = SynthSettings(timeout=1e-9)
    task = SynthTask((frames_in,), shift_out, SHIFT, settings=settings)
    assert synthesize(task).status == "timeout"
    with pytest.raises(Exception):
        SynthSettings(timeout=0.0)
    # NaN compares false with everything, so its deadline would never fire.
    with pytest.raises(Exception):
        SynthSettings(timeout=float("nan"))


def test_task_without_inputs_respects_timeout():
    # No input table means no forward table, so matching never checks the
    # deadline; the subset source's own check ends the search. Without it
    # all 3 x 2**20 subsets are tried, which ends exhausted after ~40 s.
    act = ActionSignature("act", (("id", ID), ("y", INT)))
    out = Table("out", act.output_schema(),
                [("act", Id(f"r{i}"), i) for i in range(20)])
    task = SynthTask((), out, act, settings=SynthSettings(timeout=0.5))
    start = time.monotonic()
    assert synthesize_forward_only(task).status == "timeout"
    assert time.monotonic() - start < 5


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


def test_subset_source_yields_each_row_set_once_larger_first(shift_out):
    source = _SubsetSource(shift_out, _Deadline(60))
    row_sets = [h.rows for h in iter(source.next, None)]
    assert len(set(row_sets)) == len(row_sets) == 2**4 - 1
    assert all(rows and rows <= frozenset(shift_out.rows) for rows in row_sets)
    sizes = [len(rows) for rows in row_sets]
    assert sizes == sorted(sizes, reverse=True)


def test_bidirectional_solves_family_sizes():
    for k in (4, 10):
        task = ablation_family(k)
        result = synthesize(task)
        assert result.status == "solved", k


def test_task_rejects_mismatched_output_schema(frames_in):
    bad = Table("to", Schema([("action", STR), ("id", ID)]), [("shift", Id("f1"))])
    with pytest.raises(Exception):
        SynthTask((frames_in,), bad, SHIFT)


def test_task_rejects_out_of_range_constant(frames_in, shift_out):
    with pytest.raises(IntRangeError):
        SynthTask((frames_in,), shift_out, SHIFT, (2**70,))


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
                     (4, 1, 1), EXPECTED_WRAP, id="wrap-fwd"),
        pytest.param(_family(4), "forward-only", 0, "exhausted", (1, 15, 0),
                     None, id="family4-fwd-depth0"),
        # The matcher's candidate order: a two-column sum, a GroupJoin
        # aggregate, and a concat whose inputs come in permutation order.
        pytest.param(_benchmark("spreadsheet/fill-sum"), "bi", 3, "solved",
                     (1, 1, 1), EXPECTED_FILL_SUM, id="fill-sum-bi"),
        pytest.param(_benchmark("spreadsheet/fill-rowsum"), "bi", 3, "solved",
                     (177, 1, 1), EXPECTED_FILL_ROWSUM, id="fill-rowsum-bi"),
        pytest.param(_rename, "bi", 1, "solved", (1, 1, 1), EXPECTED_RENAME,
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


def _fully_kept(task, depth):
    """The entries of an engine that keeps depths 1..``depth`` in full."""
    engine = _Engine(task)
    for d in range(1, depth + 1):
        engine.stream = engine._keep(d)
        engine.expand()
    return engine.entries


def test_lazy_entries_are_a_prefix_of_fully_kept_depths():
    # Matching keeps a depth only as far as its scan reaches. What it keeps
    # must be the start of what keeping every depth in full keeps, and all
    # of it when the search ends without a match.
    rng = random.Random(404)
    tasks = [_benchmark(p.relative_to(BENCHMARKS).with_suffix("").as_posix())(
                 SynthSettings()) for p in sorted(BENCHMARKS.glob("*/*.json"))]
    assert len(tasks) == 6
    tasks += [random_task(rng, SynthSettings(max_depth=1))[0] for _ in range(24)]
    # One hypothesis per depth that matches without covering the output:
    # no scan reaches the end of depth 2, so only the drain keeps the rest.
    tasks.append(ablation_family(4, SynthSettings(max_depth=2,
                                                  hypothesis_bound=1)))
    statuses, cut = [], 0
    for i, task in enumerate(tasks):
        engine = _Engine(task)
        status = engine.run().status
        statuses.append(status)
        lazy = [(e.stmt, e.table) for e in engine.entries]
        depth = (max(e.depth for e in engine.entries) if status == "solved"
                 else task.settings.max_depth)
        full = [(e.stmt, e.table) for e in _fully_kept(task, depth)]
        if status == "solved":
            assert lazy == full[:len(lazy)], i
            cut += len(lazy) < len(full)
        else:
            assert lazy == full, i
    assert set(statuses) == {"solved", "exhausted"}
    assert cut > 0


def test_a_finished_engine_is_freed_without_the_cycle_collector():
    # fill-rowsum is solved in the middle of a depth, so its stream is
    # suspended when run() returns; that stream's frame refers to the engine.
    gc.disable()
    try:
        engine = _Engine(_benchmark("spreadsheet/fill-rowsum")(SynthSettings()))
        assert engine.run().status == "solved"
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        gc.enable()


def test_a_search_leaves_no_cyclic_garbage():
    # Every object a search makes is freed by reference counting, so the
    # cycle collector finds nothing after it.
    gc.collect()
    gc.disable()
    try:
        results = [synthesize(_benchmark("spreadsheet/fill-rowsum")(
                       SynthSettings())),
                   synthesize(_rename(SynthSettings()))]
        assert [r.status for r in results] == ["solved", "solved"]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_matching_on_a_fresh_engine_scans_the_inputs():
    # Before run() there is no depth to pull from: only inputs are scanned.
    task = _rename(SynthSettings())
    eng = _Engine(task)
    h = Hypothesis(frozenset(task.output.rows), 0, "full-table")
    assert eng.match_hypothesis(h).src == "files"
    assert len(eng.entries) == 1


@pytest.mark.parametrize("input_name", ["cells", "t1"])
def test_kept_tables_are_named_in_kept_order(input_name):
    # A candidate that is not kept spends no name, so the table kept at
    # index i of the entries is t<i>; an input's name is skipped instead.
    case = load_benchmark(BENCHMARKS / "spreadsheet/fill-rowsum.json")
    (cells,) = case.inputs
    task = SynthTask((cells.renamed(input_name),), case.output, case.action,
                     case.constants)
    engine = _Engine(task)
    assert engine.run().status == "solved"
    names = [e.table.name for e in engine.entries[1:]]
    shift = 1 if input_name == "t1" else 0
    assert names == [f"t{i + shift}" for i in range(1, len(engine.entries))]
    assert input_name not in names


def test_tracer_hooks_reach_the_engine(monkeypatch):
    # The benchmark's traced run patches engine names by attribute; a rename
    # here would silently zero its per-layer counters.
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer

    # The rename task matches its input table and keeps no forward table;
    # fill-rowsum keeps 177 before it matches one.
    tracer = Tracer()
    try:
        tracer.install()  # inside the try: a failed install is undone too
        results = [synthesize(_rename(SynthSettings(max_depth=1))),
                   synthesize(_benchmark("spreadsheet/fill-rowsum")(
                       SynthSettings()))]
    finally:
        tracer.uninstall()
    assert [r.status for r in results] == ["solved", "solved"]
    for counter in ("synth.exec_transform.calls", "synth.forward.kept",
                    "synth.solve.calls", "features.solve_concat.calls"):
        assert tracer.count[counter] > 0, counter
