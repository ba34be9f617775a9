"""Synthesis engine: scoring oracles, hypothesis ranking, row-surjection
candidates, and end-to-end synthesis on the worked example."""

from __future__ import annotations

import gc
import itertools
import random
import time
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

import tablesynth.features as features
import tablesynth.synth as synth
from tablesynth.domains import load_benchmark
from tablesynth.dsl import (AGGREGATIONS, ActionSignature, ExecState, Filter,
                            GroupJoin, Join, MutateP, Order, exec_program,
                            exec_transform, validate_program)
from tablesynth.errors import IntRangeError, SchemaError, TableSynthError
from tablesynth.progtext import format_program
from tablesynth.synth import (
    GROUPJOIN_MAX_AGGS,
    POWERSET_ROWS,
    HypothesisGenerator,
    SynthSettings,
    SynthTask,
    _concat_feasible,
    _Deadline,
    _Engine,
    _SubsetSource,
    _column_set,
    _identifying_columns,
    _predicates,
    _row_chars,
    score_subtable,
    synthesize,
    synthesize_forward_only,
)
from tablesynth.table import ColumnType, Id, Schema, Table, row_key
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
EXPECTED_FILL_ROWSUM = """t21 = GroupJoin(cells, row, sum(content));
Yield("fill", t21, sum_content, row, 3);
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
    gen = HypothesisGenerator(shift_out, [frames_in],
                              SynthSettings(hypothesis_bound=20))
    pool = [_as_hypothesis(shift_out, entry) for entry in iter(gen.next, None)]
    assert 0 < len(pool) <= 20
    # Highest score first; the full output table wins here.
    assert pool[0][0] == frozenset(shift_out.rows)
    scores = [score for _, score, _ in pool]
    assert scores == sorted(scores, reverse=True)
    rowsets = {rows for rows, _, _ in pool}
    assert frozenset(yield1.rows) in rowsets
    assert frozenset(yield2.rows) in rowsets
    target = frozenset(shift_out.rows)
    assert all(rows and rows <= target for rows in rowsets)


def test_hypotheses_distinct(shift_out, frames_in):
    gen = HypothesisGenerator(shift_out, [frames_in],
                              SynthSettings(hypothesis_bound=50))
    pool = [_as_hypothesis(shift_out, entry) for entry in iter(gen.next, None)]
    rowsets = [rows for rows, _, _ in pool]
    assert len(rowsets) == len(set(rowsets))


def test_hypothesis_queue_pinned_with_rank_updates(shift_out, frames_in):
    # The whole emission sequence of the worked example, with a match
    # reported after the 1st and 3rd emissions: a match pulls its
    # complement to the front, and the rest keep their rank order.
    gen = HypothesisGenerator(shift_out, [frames_in], SynthSettings())
    emitted = []
    while (entry := gen.next()) is not None:
        rows, score, tag = _as_hypothesis(shift_out, entry)
        emitted.append((" ".join(sorted(r[1].label for r in rows)), score, tag))
        if len(emitted) in (1, 3):
            gen.update_rank(entry[1])
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


def test_untried_hypotheses_are_counted_where_the_bound_cuts():
    # The depth-1 sweep: a task ends exhausted with row sets its hypothesis
    # bound kept from matching; a solved task stops before a bound cuts.
    rng = random.Random(404)
    untried = {}
    for i in range(200):
        task, _ = random_task(rng, SynthSettings(max_depth=1))
        result = synthesize(task)
        untried[i] = (result.status, result.stats.hypotheses_untried)
    assert all(n == 0 for status, n in untried.values() if status == "solved")
    cut = [i for i, (_, n) in untried.items() if n]
    assert [untried[i][0] for i in cut] == ["exhausted"] * 7
    assert sum(n for _, n in untried.values()) == 270


def test_scored_hypotheses_are_counted_per_search(monkeypatch):
    # The bi pool is scored a size at a time, as far as the queue's head
    # needs it. Scoring the whole pool (and complements) took 2925 entries
    # on the seed-404 rename workload and 4965 on the depth-1 sweep.
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.workloads import rename

    cases = rename(ROOT, 404).cases
    assert sum(synthesize(c.task).stats.hypotheses_scored
               for c in cases) <= 150
    rng = random.Random(404)
    tasks = [random_task(rng, SynthSettings(max_depth=1))[0]
             for _ in range(200)]
    assert sum(synthesize(t).stats.hypotheses_scored for t in tasks) == 2336
    assert synthesize_forward_only(tasks[0]).stats.hypotheses_scored == 0


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
            stats.matches_solved) == (16, 4, 2)
    assert format_program(result.program) == (
        "t8 = Filter(items, intLt(num, 10));\n"
        "t11 = Filter(items, intGeq(num, 10));\n"
        'Yield("act", t11, id, num, num);\n'
        'Yield("act", t8, id, num, linear(2,-18)(num));\n')


# -- the generator against its row-set definition ----------------------------

def _rank(h: tuple) -> tuple:
    """Higher score first, then more rows, then canonical row-set order."""
    rows, score, _ = h
    return (-score, -len(rows), sorted(row_key(r) for r in rows))


def _as_hypothesis(output, entry) -> tuple:
    """A hypothesis source's entry ``(key, mask, tag)`` as ``(rows, score,
    tag)``: the frozenset of the rows of ``output`` at its positions, and
    the score its key ranks by."""
    key, mask, tag = entry
    assert mask == sum(1 << i for i in key[2])
    return frozenset(output.rows[i] for i in key[2]), -key[0], tag


def _score_subtable_reference(rows, schema, inputs):
    """``score_subtable`` scored row by row from the values of the list."""
    rows = list(rows)
    if not rows:
        return 0
    row_chars = _row_chars(inputs)
    per_col = 0
    for j, (_, ty) in enumerate(schema.columns):
        vals = [r[j] for r in rows]
        if len(set(vals)) == 1:
            per_col += 1
        if ty is INT and len(vals) >= 2:
            s = sorted(vals)
            if all(b - a == 1 for a, b in zip(s, s[1:])):
                per_col += 1
        if ty is STR:
            if all(_concat_feasible(v, row_chars) for v in vals):
                per_col += 1
    return per_col * len(rows)


class _GeneratorReference:
    """``HypothesisGenerator`` over frozensets of rows, as entries ``(rows,
    score, tag)``: every pool entry is scored by
    ``_score_subtable_reference`` and ranked by ``_rank``."""

    def __init__(self, output, inputs, settings):
        self.output = output
        self.inputs = list(inputs)
        self.bound = settings.hypothesis_bound
        self.all_rows = frozenset(output.rows)
        pool = {self.all_rows: "full-table"}
        for j, (_, ty) in enumerate(output.schema.columns):
            groups = {}
            for row in output.rows:
                groups.setdefault(row[j], []).append(row)
            for group in groups.values():
                pool.setdefault(frozenset(group), "signature-group")
            if ty is INT:
                for run in self._consecutive_runs(j):
                    pool.setdefault(run, "signature-group")
        if output.nrows <= POWERSET_ROWS:
            for k in range(1, output.nrows):
                for combo in itertools.combinations(output.rows, k):
                    pool.setdefault(frozenset(combo), "signature-group")
        self.queue = sorted(
            ((rows, _score_subtable_reference(rows, output.schema,
                                              self.inputs), tag)
             for rows, tag in pool.items()), key=_rank)
        self.emitted = 0

    def _consecutive_runs(self, j):
        by_val = {r[j]: r for r in self.output.rows}
        if len(by_val) != self.output.nrows:
            return []
        runs = [[v for _, v in run] for _, run in itertools.groupby(
            enumerate(sorted(by_val)), key=lambda p: p[1] - p[0])]
        return [frozenset(by_val[v] for v in run) for run in runs if len(run) >= 2]

    def next(self):
        if self.emitted >= self.bound or not self.queue:
            return None
        self.emitted += 1
        return self.queue.pop(0)

    def update_rank(self, matched):
        complement = self.all_rows - matched[0]
        self.queue = [h for h in self.queue if h[0] != complement]
        if complement:
            self.queue.insert(0, (
                complement,
                _score_subtable_reference(complement, self.output.schema,
                                          self.inputs),
                "complement"))


_CELLS = {ID: st.text("ab", max_size=2).map(Id), INT: st.integers(-3, 3),
          STR: st.text("abd", max_size=2)}  # "d" is in no input table


@st.composite
def _checked_tables(draw, max_rows=8):
    types = draw(st.lists(st.sampled_from([ID, INT, STR]), min_size=1,
                          max_size=4))
    rows = draw(st.lists(st.tuples(*(_CELLS[ty] for ty in types)),
                         max_size=max_rows))
    return Table("o", Schema([(f"c{j}", ty) for j, ty in enumerate(types)]),
                 rows)


@given(_checked_tables(), _input_tables(), st.data())
def test_position_key_orders_as_rank(table, inputs, data):
    # The generator ranks row sets by output-row positions; assembly ranks
    # matches by sorted row keys. Both must give one order.
    gen = HypothesisGenerator(table, inputs, SynthSettings())
    masks = data.draw(st.lists(st.integers(0, (1 << table.nrows) - 1),
                               unique=True))
    entries = {m: gen._entry(m, "t") for m in masks}
    hyps = {m: _as_hypothesis(table, entry) for m, entry in entries.items()}
    assert (sorted(masks, key=lambda m: entries[m][0])
            == sorted(masks, key=lambda m: _rank(hyps[m])))


@given(_checked_tables(), _input_tables(), st.data())
def test_score_subtable_equals_its_reference(table, inputs, data):
    # A row listed twice is scored once per occurrence.
    rows = data.draw(st.lists(st.sampled_from(table.rows), max_size=6)
                     if table.rows else st.just([]))
    assert (score_subtable(rows, table.schema, inputs)
            == _score_subtable_reference(rows, table.schema, inputs))


_NAMES = Table("i", Schema([("name", STR), ("n", INT)]),
               [("ab", 0), ("a", 1)])
_SPAN_NOT_RUN = Table("o", Schema([("id", ID), ("n", INT)]),
                      [(Id("a"), 0), (Id("b"), 2), (Id("c"), 2)])
_WIDE = Table("o", Schema([("id", ID), ("k", INT), ("m", INT), ("s", STR),
                           ("u", STR)]),
              [(Id(f"r{i}"), k, m, s, u) for i, (k, m, s, u) in enumerate([
                  (-2, 0, "ab", "d"), (-1, 2, "", "a"), (0, 2, "d", "ab"),
                  (2, 1, "ab", ""), (3, 0, "b", "b"), (5, -1, "a", "d"),
                  (6, 2, "ab", "ab"), (7, 3, "ba", "a")])])


@given(_checked_tables(max_rows=POWERSET_ROWS + 3), _input_tables(),
       st.lists(st.booleans()), st.integers(1, 80))
# An empty output: its pool is the one mask 0, tagged full-table.
@example(Table("o", Schema([("n", INT)]), []), [_NAMES], [True], 20)
@example(Table("o", Schema([("s", STR), ("n", INT)]), [("ab", 1)]),
         [_NAMES], [True], 20)
# The full table ranks first and matches: its complement is 0.
@example(Table("o", Schema([("s", STR), ("n", INT)]), [("ab", 1), ("ab", 2)]),
         [_NAMES], [True], 20)
@example(_SPAN_NOT_RUN, [_NAMES], [False], 20)
# The bound ends with five row sets left, among them the other pairs.
@example(_SPAN_NOT_RUN, [_NAMES], [], 2)
# Rank updates whose complements were already emitted.
@example(_SPAN_NOT_RUN, [_NAMES], [False, True, True], 20)
# More than POWERSET_ROWS rows: a match's complement is not a pool mask.
@example(_WIDE, [_NAMES], [False, True], 20)
@example(_WIDE, [_NAMES], [True, False, True, True], 80)
def test_hypothesis_generator_equals_its_reference(output, inputs, matches,
                                                   bound):
    # ``matches[k]`` reports a match of the (k+1)-th emission: its
    # complement jumps the queue.
    settings = SynthSettings(hypothesis_bound=bound)
    reported = iter(matches)
    gen = HypothesisGenerator(output, inputs, settings)
    emitted = []
    while (entry := gen.next()) is not None:
        emitted.append(_as_hypothesis(output, entry))
        if next(reported, False):
            gen.update_rank(entry[1])
    reported = iter(matches)
    ref = _GeneratorReference(output, inputs, settings)
    expected = []
    while (h := ref.next()) is not None:
        expected.append(h)
        if next(reported, False):
            ref.update_rank(h)
    assert emitted == expected
    assert gen.untried() == len(ref.queue)


# -- row surjections ---------------------------------------------------------

def _engine(frames_in, shift_out) -> _Engine:
    return _Engine(SynthTask((frames_in,), shift_out, SHIFT))


def _maps(eng: _Engine, t: Table, h: Table) -> list:
    """The row maps ``eng`` reads from t onto h."""
    return list(eng._surjections(t, h, _identifying_columns(h)))


def test_singleton_hypothesis_gets_trivial_surjection(frames_in, shift_out):
    eng = _engine(frames_in, shift_out)
    h = Table("h", SHIFT_SCHEMA, [shift_out.rows[0]])
    assert _maps(eng, frames_in, h) == [(0, 0, 0, 0)]


def test_id_anchor_surjection(frames_in, shift_out, yield1, odd_u):
    eng = _engine(frames_in, shift_out)
    # ODD_U carries exactly the ids of YIELD1: one anchored surjection.
    maps = _maps(eng, odd_u, yield1)
    assert len(maps) == 1
    (r,) = maps
    for i, row in enumerate(odd_u.rows):
        assert yield1.rows[r[i]][1] == row[2]  # id columns line up


def test_no_anchor_no_match(frames_in, shift_out, yield2, odd_u):
    eng = _engine(frames_in, shift_out)
    # YIELD2's ids are absent from ODD_U, so no surjection survives.
    assert _maps(eng, odd_u, yield2) == []


def test_smaller_source_cannot_cover(frames_in, shift_out, odd_u):
    eng = _engine(frames_in, shift_out)
    # A 2-row table has no surjection onto 4 target rows.
    assert _maps(eng, odd_u, shift_out.renamed("h")) == []


def test_blind_surjections_without_identifying_column():
    # No output column has pairwise distinct values, so the full-table
    # hypothesis has no row map; smaller hypotheses cover its rows.
    sheet = Table("sheet", Schema([("row", INT), ("col", INT), ("content", STR)]),
                  [(1, 1, "x"), (1, 2, "x"), (2, 1, "y"), (2, 2, "y")])
    fill = ActionSignature("fill", (("content", STR), ("row", INT), ("col", INT)))
    out = Table("out", fill.output_schema(),
                [("fill", c, r, k) for r, k, c in sheet.rows])
    eng = _Engine(SynthTask((sheet,), out, fill))
    assert _maps(eng, sheet, out) == []
    result = synthesize(SynthTask((sheet,), out, fill))
    assert result.status == "solved"
    assert exec_program(result.program, [sheet], fill) == out


def test_no_returned_program_holds_a_feature_parameter_out_of_range():
    # div(2**63, 2)(x) computes both outputs, but 2**63 is no Int value.
    t = Table("t", Schema([("id", ID), ("x", INT)]), [(Id("a"), 0), (Id("b"), 2)])
    act = ActionSignature("act", (("id", ID), ("y", INT)))
    out = Table("out", act.output_schema(),
                [("act", Id("a"), 2**62), ("act", Id("b"), 2**62 + 1)])
    result = synthesize(SynthTask((t,), out, act,
                                  settings=SynthSettings(max_depth=1)))
    assert result.status == "solved"
    params = [p for stmt in result.program.mapping for proj in stmt.projections
              if isinstance(proj, MutateP) for p in proj.feature.params]
    assert params and all(-2**63 <= p < 2**63 for p in params)
    assert exec_program(result.program, [t], act) == out


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


def test_row_maps_through_an_id_column_and_two_int_columns(
        frames_in, shift_out):
    # ``swap`` is matched through its Id column and, in the other order,
    # through its two Int columns; the second Int column reads the same map.
    k_id = Table("k", Schema([("k", INT), ("id", ID)]),
                 [(1, Id("f1")), (2, Id("f2"))])
    swap = Table("h", SHIFT_SCHEMA, [("shift", Id("f1"), "GB", 2, 2),
                                     ("shift", Id("f2"), "GB", 1, 1)])
    assert _maps(_engine(frames_in, shift_out), k_id, swap) == [(0, 1), (1, 0)]


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


@pytest.mark.parametrize("table_name, column", [
    ("my files", "n"), ("files", "my n"), ("files", "1n")])
def test_task_rejects_names_program_text_cannot_spell(table_name, column):
    # Such a task could end solved with a program parse_program rejects.
    act = ActionSignature("act", (("id", ID),))
    t = Table(table_name, Schema([("id", ID), (column, INT)]), [(Id("a"), 1)])
    out = Table("out", act.output_schema(), [("act", Id("a"))])
    with pytest.raises(SchemaError):
        SynthTask((t,), out, act)


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
    row_sets = [_as_hypothesis(shift_out, entry)[0]
                for entry in iter(source.next, None)]
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
        pytest.param(_family(4), "bi", 3, "solved", (4, 7, 2),
                     EXPECTED_FAMILY, id="family4-bi"),
        pytest.param(_family(4), "forward-only", 3, "solved", (4, 10, 2),
                     EXPECTED_FAMILY, id="family4-fwd"),
        pytest.param(_family(10), "forward-only", 3, "solved", (4, 562, 2),
                     EXPECTED_FAMILY, id="family10-fwd"),
        pytest.param(_benchmark("gif/running-example"), "bi", 3, "solved",
                     (15, 12, 2), EXPECTED_RUNNING, id="gif-bi"),
        pytest.param(_benchmark("gif/running-example"), "forward-only", 3,
                     "solved", (15, 10, 2), EXPECTED_RUNNING, id="gif-fwd"),
        pytest.param(_benchmark("xml/wrap-items"), "forward-only", 3, "solved",
                     (4, 1, 1), EXPECTED_WRAP, id="wrap-fwd"),
        pytest.param(_family(4), "forward-only", 0, "exhausted", (1, 15, 0),
                     None, id="family4-fwd-depth0"),
        # The matcher's candidate order: a two-column sum, a GroupJoin
        # aggregate, and a concat whose inputs come in permutation order.
        pytest.param(_benchmark("spreadsheet/fill-sum"), "bi", 3, "solved",
                     (1, 1, 1), EXPECTED_FILL_SUM, id="fill-sum-bi"),
        pytest.param(_benchmark("spreadsheet/fill-rowsum"), "bi", 3, "solved",
                     (22, 1, 1), EXPECTED_FILL_ROWSUM, id="fill-rowsum-bi"),
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
        engine.expand(engine._keep(d))
    return engine.entries


def _reference_entries(task, depth):
    """(name, statement, table, depth) of each table a naive keep loop keeps
    in depths 1..``depth``: it draws every Filter over every predicate and
    every Join, GroupJoin and Order that ``_Engine._candidates`` draws
    without its mask test, builds each with ``exec_transform`` and keeps a
    non-empty table whose ``_column_set`` is new."""
    entries, state, seen, memo = [], ExecState(), set(), {}

    def keep(stmt, table, d):
        key = _column_set(table)
        if stmt is None or (table.nrows and key not in seen):
            entries.append((table.name, stmt, table, d))
            state.define(table)
            seen.add(key)

    def fresh():
        k = len(entries)
        while f"t{k}" in state.tables:
            k += 1
        return f"t{k}"

    def candidates(d, existing):
        constants = sorted(task.constants, key=lambda v: (str(type(v)), v))
        for name, _, t, e_depth in existing:
            for pred in _predicates(t.schema, constants, d - e_depth, memo):
                yield Filter(fresh(), name, pred)
        for (n1, _, t1, d1), (n2, _, t2, d2) in itertools.permutations(
                existing, 2):
            if max(d1, d2) + 1 == d:
                for c1, c2 in itertools.product(
                        [c for c, ty in t1.schema.columns if ty is ID],
                        [c for c, ty in t2.schema.columns if ty is ID]):
                    yield Join(fresh(), n1, n2, c1, c2)
        for name, _, t, e_depth in existing:
            if e_depth != d - 1:
                continue
            ints = [c for c, ty in t.schema.columns if ty is INT]
            grouping = [c for c in t.schema.names
                        if len(set(t.column(c))) < t.nrows]
            for by in grouping:
                singles = [("cnt", by)] + [(agg, c) for c in ints
                                           for agg in AGGREGATIONS if agg != "cnt"]
                for n in range(1, GROUPJOIN_MAX_AGGS + 1):
                    for aggs in itertools.combinations(singles, n):
                        yield GroupJoin(fresh(), name, by, aggs)
            for col, ty in t.schema.columns:
                if ty is not ID:
                    for by in [None] + [c for c in grouping if c != col]:
                        yield Order(fresh(), name, col, 0, False, by)

    for t in task.inputs:
        keep(None, t, 0)
    for d in range(1, depth + 1):
        for stmt in candidates(d, list(entries)):
            try:
                table = exec_transform(state, stmt)
            except TableSynthError:
                continue
            keep(stmt, table, d)
    return entries


#: Corpus cases fully kept to depth 1 only: at depth 2, fill-rowsum keeps
#: 38k tables, and delete-pdf draws a Join per pair of its 1196 tables.
_DEPTH_ONE = ("file/delete-pdf", "spreadsheet/fill-rowsum")


@pytest.mark.parametrize("name", sorted(
    str(p.relative_to(BENCHMARKS).with_suffix(""))
    for p in BENCHMARKS.rglob("*.json")) + ["random-404"])
def test_engine_keeps_what_the_naive_keep_loop_keeps(name):
    # The engine drops a Filter by its row mask, and a GroupJoin or Order by
    # its appended columns, before it builds the table; the naive loop
    # builds every one. Both must keep the same tables under the same names.
    depth = 1 if name in _DEPTH_ONE else 2
    settings = SynthSettings(max_depth=depth)
    if name == "random-404":
        rng = random.Random(404)
        tasks = [random_task(rng, settings)[0] for _ in range(40)]
    else:
        tasks = [_benchmark(name)(settings)]
    for task in tasks:
        got = [(e.table.name, e.stmt, e.table, e.depth)
               for e in _fully_kept(task, depth)]
        assert got == _reference_entries(task, depth)


def test_a_kept_groupjoin_or_order_reuses_its_column_set(monkeypatch):
    # ``_keep`` computes a GroupJoin's or Order's column set from its
    # source's and the columns it appends; ``_add_entry`` takes it from
    # there instead of transposing the built table again.
    transposed = []
    column_set = synth._column_set

    def counting(t):
        transposed.append(t.name)
        return column_set(t)

    monkeypatch.setattr(synth, "_column_set", counting)
    engine = _Engine(_benchmark("spreadsheet/fill-rowsum")(SynthSettings()))
    engine.expand(engine._keep(1))
    shaped = [e.table for e in engine.entries
              if isinstance(e.stmt, (GroupJoin, Order))]
    assert shaped
    assert not {t.name for t in shaped} & set(transposed)
    assert "cells" in transposed  # the input is transposed
    for t in shaped:
        assert engine.columns_of[t.name] == column_set(t)


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


def test_each_column_is_enumerated_once_per_search(monkeypatch):
    # The rename task's solvers try name, owner, (name, owner) and (owner,
    # name) over the same column texts. Each column's extract specs are
    # enumerated once per search, and again by the next search: nothing is
    # kept across searches.
    enumerated = []
    extractions = features._extractions

    def counting(classes, texts):
        enumerated.append(tuple(texts))
        return extractions(classes, texts)

    monkeypatch.setattr(features, "_extractions", counting)
    task = _rename(SynthSettings())
    (files,) = task.inputs
    assert synthesize(task).status == "solved"
    assert sorted(enumerated) == sorted([files.column("name"),
                                         files.column("owner")])
    first = list(enumerated)
    assert synthesize(task).status == "solved"
    assert enumerated == first * 2


def test_matching_on_a_fresh_engine_scans_the_inputs():
    # Before run() there is no depth to pull from: only inputs are scanned.
    task = _rename(SynthSettings())
    eng = _Engine(task)
    assert eng.match_hypothesis(range(task.output.nrows), ()).src == "files"
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


def test_kept_tables_differ_in_their_column_sets():
    # pass-fail's input and depth 1 hold 191 distinct tables but only 96
    # column sets: a table whose columns a kept one already holds, some of
    # them duplicated or reordered, is dropped.
    entries = _fully_kept(_benchmark("spreadsheet/pass-fail")(SynthSettings()), 1)
    keys = [_column_set(e.table) for e in entries]
    assert len(keys) == len(set(keys)) == 96


def test_equal_inputs_are_both_kept_and_named():
    # t2 holds t1's rows. Each is an input the program may name, so both are
    # kept, and no derived table takes the name t2.
    t1 = Table("t1", Schema([("id", ID), ("n", INT)]),
               [(Id(f"e{i}"), i) for i in range(1, 7)])
    action = ActionSignature("act", (("id", ID),))
    out = Table("out", action.output_schema(),
                [("act", Id(f"e{i}")) for i in (1, 3, 5)])
    engine = _Engine(SynthTask((t1, t1.renamed("t2")), out, action))
    result = engine.run()
    assert result.status == "solved"
    assert format_program(result.program) == ("t3 = Filter(t1, isOdd(n));\n"
                                              'Yield("act", t3, id);\n')
    assert [e.table.name for e in engine.entries[:2]] == ["t1", "t2"]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 4), st.booleans())
def test_every_input_is_kept_and_derived_tables_differ_in_column_sets(
        seed, k, copy_first):
    # A copy of the input under a name the engine could also hand out.
    task, _ = random_task(random.Random(seed), SynthSettings(max_depth=1))
    (items,) = task.inputs
    copy = items.renamed(f"t{k}")
    inputs = (copy, items) if copy_first else (items, copy)
    task = SynthTask(inputs, task.output, task.action, task.constants,
                     task.settings)
    engine = _Engine(task)
    result = engine.run()
    for t in inputs:
        assert engine.state[t.name] is t
    derived = [_column_set(e.table) for e in engine.entries if e.stmt]
    kept = [_column_set(e.table) for e in engine.entries]
    assert len(set(derived)) == len(derived)
    assert not set(derived) & {_column_set(t) for t in inputs}
    assert len(kept) - len(set(kept)) == 1  # the copy's
    if result.program is not None:
        assert validate_program(result.program, [t.schema for t in inputs],
                                [t.name for t in inputs], task.action) == []


def test_tracer_hooks_reach_the_engine(monkeypatch):
    # The benchmark's traced run patches engine names by attribute; a rename
    # here would silently zero its per-layer counters.
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer

    # The rename task matches its input table and keeps no forward table;
    # fill-rowsum keeps 21 and matches the last.
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
