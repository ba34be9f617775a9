"""Bidirectional synthesis of table programs from one input/output example.

Forward direction: depth-bounded enumeration of transform statements, with
observational equivalence classing. Each depth is one stream of candidate
statements (``_Engine._candidates``); a candidate whose table is new and
non-empty is kept, and any other is dropped. A candidate's target is named
``t<k>`` when it is drawn, where ``k`` counts the tables kept so far (inputs
included, input names skipped), so tables are named in the order they are
kept. Backward direction: sub-tables of the output example (hypotheses)
ranked by a consistency score, each matched against forward tables by
solving per-column feature parameters. Matched hypotheses are combined by
exact cover, and the winning cover is assembled into a verified program.

Matching pulls forward tables from the depth's stream: a depth is kept only
as far as the scan of a hypothesis reaches, and the rest of it is kept
before the next depth starts or the search gives up. So every depth's
statements, names and kept tables are those of a fully built depth, and a
solved search stops keeping tables at its first match.

One search loop serves both modes; they differ only in the per-depth source
of hypotheses. The bidirectional mode uses the ranked, bounded
``HypothesisGenerator``. The forward-only baseline enumerates every subset of
the output rows in decreasing size; it is intentionally exponential in the
number of output rows.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, dataclass, replace
from typing import Iterator, Optional, Sequence

from .dsl import (
    AGGREGATIONS,
    PREDICATE_SYMBOLS,
    ActionSignature,
    And,
    ColP,
    ConstP,
    Filter,
    GroupJoin,
    Join,
    MutateP,
    Not,
    Or,
    Order,
    Predicate,
    Program,
    Projection,
    SymbolApp,
    TransformStmt,
    Yield,
    exec_program,
    exec_transform,
    exec_yield,
    ExecState,
    sources,
)
from .errors import (EngineInternalError, SchemaError, TableSynthError,
                     ValidationFailure)
from .features import (  # the solvers are looked up by name in _Engine._solve
    FeatureFamily,
    enumerate_feature_families,
    solve_concat,
    solve_div,
    solve_linear,
    solve_mod,
    solve_substring,
    solve_sum,
)
from .table import ColumnType, Schema, Table, Value, row_key, type_of

# ---------------------------------------------------------------------------
# Configuration and result types.

#: Most aggregates one GroupJoin statement computes.
GROUPJOIN_MAX_AGGS = 2
#: Most input columns one concat feature reads.
CONCAT_MAX_INPUTS = 2
#: Sub-table pools are augmented with the full power set when the output
#: example is at most this many rows; keeps small examples complete.
POWERSET_ROWS = 6
#: (value type, input count) -> the feature families over that signature,
#: for the input counts ``_Engine._solve_column`` tries.
_FAMILIES_BY_SIGNATURE = {
    (ty, arity): tuple(enumerate_feature_families((ty,) * arity, ty))
    for ty in ColumnType for arity in range(1, CONCAT_MAX_INPUTS + 1)
}


@dataclass(frozen=True)
class SynthSettings:
    max_depth: int = 3
    hypothesis_bound: int = 20
    timeout: float = 120.0
    mode: str = "bi"  # "bi" | "forward-only"

    def __post_init__(self):
        # ``not >`` also rejects a NaN timeout, which would never expire.
        if (self.max_depth < 0 or self.hypothesis_bound <= 0
                or not self.timeout > 0):
            raise SchemaError("settings must be positive")
        if self.mode not in ("bi", "forward-only"):
            raise SchemaError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class SynthTask:
    inputs: tuple[Table, ...]
    output: Table
    action: ActionSignature
    constants: tuple[Value, ...] = ()
    settings: SynthSettings = SynthSettings()

    def __post_init__(self):
        names = [t.name for t in self.inputs]
        if len(set(names)) != len(names):
            raise SchemaError("input tables must have distinct names")
        if self.output.schema != self.action.output_schema():
            raise SchemaError("output schema does not match the action signature")
        a = self.output.schema.index("action")
        for row in self.output.rows:
            if row[a] != self.action.name:
                raise SchemaError(f"output row names action {row[a]!r}, "
                                  f"expected {self.action.name!r}")
        for const in self.constants:
            type_of(const)  # a constant must be a table value, not a bool


@dataclass(frozen=True)
class ForwardEntry:
    stmt: Optional[TransformStmt]  # None for input tables
    table: Table
    depth: int


@dataclass(frozen=True)
class Hypothesis:
    rows: frozenset
    score: int
    provenance: str  # signature-group | complement | full-table


@dataclass
class SynthStats:
    elapsed_ms: int = 0
    forward_tables: int = 0
    hypotheses_tried: int = 0
    matches_solved: int = 0
    mode: str = "bi"

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SynthResult:
    status: str  # solved | timeout | exhausted
    program: Optional[Program]
    stats: SynthStats


class _SearchTimeout(Exception):
    pass


class _Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def check(self):
        if time.monotonic() > self.end:
            raise _SearchTimeout


# ---------------------------------------------------------------------------
# Consistency score (per-column constant / consecutive-run / concat terms).


def _row_chars(inputs: Sequence[Table]) -> list[set]:
    """Per input row, the set of characters of its Str fields."""
    return [set("".join(fields)) for t in inputs
            for fields in zip(*(t.column(n) for n, ty in t.schema.columns
                                if ty is ColumnType.STR))]


def _concat_feasible(value: str, row_chars: Sequence[set]) -> bool:
    """Whether ``value`` is a concat of substrings of the Str fields of one
    input row, given each row's characters (``_row_chars``): it is non-empty
    and each of its characters is in them."""
    needed = set(value)
    return bool(needed) and any(needed <= chars for chars in row_chars)


def score_subtable(rows: Sequence, schema: Schema, inputs: Sequence[Table]) -> int:
    """S(t) = sum over columns of (const + ordered + concat terms) x row count.

    A Str column earns the concat term when each of its values is non-empty
    and has all its characters in the Str fields of one input row. The
    input rows' characters are collected once per call."""
    rows = list(rows)
    if not rows:
        return 0
    row_chars = _row_chars(inputs)
    per_col = 0
    for j, (_, ty) in enumerate(schema.columns):
        vals = [r[j] for r in rows]
        if len(set(vals)) == 1:
            per_col += 1
        if ty is ColumnType.INT and len(vals) >= 2:
            s = sorted(vals)
            if all(b - a == 1 for a, b in zip(s, s[1:])):
                per_col += 1
        if ty is ColumnType.STR:
            if all(_concat_feasible(v, row_chars) for v in vals):
                per_col += 1
    return per_col * len(rows)


# ---------------------------------------------------------------------------
# Hypothesis generation and ranking.


def _rank(h: Hypothesis) -> tuple:
    """Higher score first, then more rows, then canonical row-set order."""
    return (-h.score, -len(h.rows), sorted(row_key(r) for r in h.rows))


class HypothesisGenerator:
    """Prioritized, bounded queue of sub-tables of the output example.

    The pool holds the full example; per column, the rows sharing each
    value; per Int column with distinct values, each maximal run of two or
    more consecutive integers; and, for an example of at most
    ``POWERSET_ROWS`` rows, every proper non-empty subset. It is ranked by
    ``_rank``, and a match pulls its complement to the front
    (``update_rank``).
    """

    def __init__(self, output: Table, inputs: Sequence[Table],
                 settings: SynthSettings):
        self.output = output
        self.inputs = list(inputs)
        self.bound = settings.hypothesis_bound
        self.all_rows = frozenset(output.rows)
        pool: dict[frozenset, str] = {self.all_rows: "full-table"}
        for j, (_, ty) in enumerate(output.schema.columns):
            groups: dict[Value, list] = {}
            for row in output.rows:
                groups.setdefault(row[j], []).append(row)
            for group in groups.values():
                pool.setdefault(frozenset(group), "signature-group")
            if ty is ColumnType.INT:
                for run in self._consecutive_runs(j):
                    pool.setdefault(run, "signature-group")
        if output.nrows <= POWERSET_ROWS:
            for k in range(1, output.nrows):
                for combo in itertools.combinations(output.rows, k):
                    pool.setdefault(frozenset(combo), "signature-group")
        self.queue: list[Hypothesis] = sorted(
            (Hypothesis(rows, score_subtable(rows, output.schema, self.inputs), tag)
             for rows, tag in pool.items()), key=_rank)
        self.emitted = 0

    def _consecutive_runs(self, j: int) -> list[frozenset]:
        by_val = {r[j]: r for r in self.output.rows}
        if len(by_val) != self.output.nrows:
            return []
        # Along sorted distinct values, value minus position is constant
        # exactly within a run of consecutive integers.
        runs = [[v for _, v in run] for _, run in itertools.groupby(
            enumerate(sorted(by_val)), key=lambda p: p[1] - p[0])]
        return [frozenset(by_val[v] for v in run) for run in runs if len(run) >= 2]

    def next(self) -> Optional[Hypothesis]:
        if self.emitted >= self.bound or not self.queue:
            return None
        self.emitted += 1
        return self.queue.pop(0)

    def update_rank(self, matched: Hypothesis):
        complement = self.all_rows - matched.rows
        self.queue = [h for h in self.queue if h.rows != complement]
        if complement:
            self.queue.insert(0, Hypothesis(
                complement,
                score_subtable(complement, self.output.schema, self.inputs),
                "complement",
            ))


class _SubsetSource:
    """The forward-only baseline's hypotheses: every non-empty subset of the
    output rows, larger first. Unscored and unbounded. A row set matched at
    an earlier depth is tried again and finds the same first entry."""

    def __init__(self, output: Table, deadline: _Deadline):
        self.deadline = deadline
        self.hypotheses = (Hypothesis(frozenset(combo), 0, "signature-group")
                           for k in range(output.nrows, 0, -1)
                           for combo in itertools.combinations(output.rows, k))

    def next(self) -> Optional[Hypothesis]:
        # Matching checks the deadline per forward table; without input
        # tables there is none to scan, and this is the only check.
        self.deadline.check()
        return next(self.hypotheses, None)

    def update_rank(self, matched: Hypothesis):
        pass


# ---------------------------------------------------------------------------
# Forward expansion.

#: symbols without a complementary symbol in the set get an explicit Not atom.
_NEGATABLE = ("IntEq", "StrEq", "IsSubstring", "StartsWith", "EndsWith")
#: symbols whose column/column form is tried in one argument order only.
_SYMMETRIC = ("IntEq", "StrEq")
#: Aggregates over an Int column; ``cnt`` is tried once per grouping column.
_INT_AGGREGATES = tuple(agg for agg in AGGREGATIONS if agg != "cnt")


def _symbols(kind: str, ty: ColumnType) -> list[str]:
    """The predicate symbols with argument kind ``kind`` over ``ty``, in
    ``PREDICATE_SYMBOLS`` order."""
    return [sym for sym, (kinds, sym_ty, _) in PREDICATE_SYMBOLS.items()
            if kind in kinds.split() and sym_ty is ty]


def _atoms(schema: Schema, constants: Sequence[Value]) -> list[Predicate]:
    atoms: list[Predicate] = []
    cols = {ty: [n for n, cty in schema.columns if cty is ty] for ty in ColumnType}
    for ty, names in cols.items():
        for col in names:
            atoms += [SymbolApp(sym, col) for sym in _symbols("c", ty)]
    for ty, names in cols.items():
        for a, b in itertools.combinations(names, 2):
            for sym in _symbols("cc", ty):
                atoms.append(SymbolApp(sym, a, b, arg_is_col=True))
                if sym not in _SYMMETRIC:
                    atoms.append(SymbolApp(sym, b, a, arg_is_col=True))
    for const in constants:
        ty = type_of(const)
        for col in cols[ty]:
            atoms += [SymbolApp(sym, col, const) for sym in _symbols("ck", ty)]
    atoms += [Not(a) for a in atoms
              if isinstance(a, SymbolApp) and a.symbol in _NEGATABLE]
    return atoms


def _predicates(schema: Schema, constants, size: int,
                memo: dict) -> list[Predicate]:
    key = (schema, size)
    if key in memo:
        return memo[key]
    if size == 1:
        out = _atoms(schema, constants)
    else:
        out = []
        smaller = _predicates(schema, constants, size - 1, memo)
        atoms = _predicates(schema, constants, 1, memo)
        for left in atoms:
            for right in smaller:
                out.append(And(left, right))
                out.append(Or(left, right))
    memo[key] = out
    return out


class _Engine:
    def __init__(self, task: SynthTask):
        self.task = task
        self.settings = task.settings
        self.deadline = _Deadline(self.settings.timeout)
        self.stats = SynthStats(mode=self.settings.mode)
        self.entries: list[ForwardEntry] = []
        self.state = ExecState()  # every entry's table, by name
        self.seen_tables: dict[Table, ForwardEntry] = {}
        self.pred_memo: dict = {}
        self.solver_cache: dict = {}
        #: The last hypothesis table ``_surjections`` saw, and its
        #: identifying columns (``_identifying_columns``).
        self.id_table: Optional[Table] = None
        self.id_columns: list[tuple[ColumnType, dict]] = []
        #: The current depth's keep loop, suspended after its last kept entry.
        self.stream: Iterator[ForwardEntry] = iter(())
        for t in task.inputs:
            self._add_entry(None, t, 0)

    # -- forward search ------------------------------------------------------

    def _fresh_name(self) -> str:
        """``t<k>`` for the least ``k``, from the number of kept entries up,
        that no defined table uses (only an input can)."""
        k = len(self.entries)
        while f"t{k}" in self.state.tables:
            k += 1
        return f"t{k}"

    def _add_entry(self, stmt, table: Table, depth: int) -> bool:
        if table in self.seen_tables:
            return False
        entry = ForwardEntry(stmt, table, depth)
        self.entries.append(entry)
        self.state.define(table)
        self.seen_tables[table] = entry
        return True

    def _candidates(self, d: int) -> Iterator[TransformStmt]:
        """Every depth-``d`` statement over the entries kept before it:
        Filters per entry, Joins over Id-column pairs, then per entry of depth
        ``d - 1`` its GroupJoins and Orders. A target is named when its
        statement is drawn, after the one before it was kept or dropped."""
        existing = list(self.entries)
        constants = sorted(self.task.constants, key=lambda v: (str(type(v)), v))
        for e in existing:
            size = d - e.depth
            if size >= 1:
                for pred in _predicates(e.table.schema, constants, size,
                                        self.pred_memo):
                    yield Filter(self._fresh_name(), e.table.name, pred)
        ids = {e.table.name: [n for n, ty in e.table.schema.columns
                              if ty is ColumnType.ID] for e in existing}
        for e1, e2 in itertools.permutations(existing, 2):
            if max(e1.depth, e2.depth) + 1 == d:
                for c1, c2 in itertools.product(ids[e1.table.name],
                                                ids[e2.table.name]):
                    yield Join(self._fresh_name(), e1.table.name,
                               e2.table.name, c1, c2)
        for e in existing:
            if e.depth != d - 1:
                continue
            schema = e.table.schema
            int_cols = [n for n, ty in schema.columns if ty is ColumnType.INT]
            for col_index in schema.names:
                singles = [("cnt", col_index)]
                singles += [(agg, c) for c in int_cols for agg in _INT_AGGREGATES]
                for n in range(1, GROUPJOIN_MAX_AGGS + 1):
                    for aggs in itertools.combinations(singles, n):
                        yield GroupJoin(self._fresh_name(), e.table.name,
                                        col_index, aggs)
            orderable = [n for n, ty in schema.columns if ty is not ColumnType.ID]
            for col in orderable:
                for col_index in [None] + [n for n in schema.names if n != col]:
                    yield Order(self._fresh_name(), e.table.name, col, 0, False,
                                col_index)

    def _keep(self, d: int) -> Iterator[ForwardEntry]:
        """Keep each depth-``d`` candidate whose table is new and non-empty,
        yielding each entry once it is kept."""
        for stmt in self._candidates(d):
            self.deadline.check()
            try:
                table = exec_transform(self.state, stmt)
            except TableSynthError:
                continue
            # Empty intermediates can never feed a Yield.
            if table.nrows and self._add_entry(stmt, table, d):
                yield self.entries[-1]

    def expand(self):
        """Keep the rest of the current depth."""
        for _ in self.stream:
            pass

    # -- matching ------------------------------------------------------------

    def _solve(self, family: FeatureFamily, data: tuple):
        key = (family, data)
        if key in self.solver_cache:
            return self.solver_cache[key]
        self.deadline.check()
        # Looked up by name per call, so a solver replaced on this module is
        # the one run.
        result = globals()["solve_" + family.value](data)
        self.solver_cache[key] = result
        return result

    def _surjections(self, t: Table, h: Table) -> Iterator[tuple[int, ...]]:
        """Candidate row surjections t-rows -> h-rows.

        A one-row h takes every row of t. Otherwise a column of h whose
        values are pairwise distinct identifies the row map: each candidate
        is that column read out of a type-compatible column of t (Id anchors
        are the special case), with every row of h reached. An h of two or
        more rows without such a column has no candidate; its rows are left
        to smaller hypotheses (value groups, consecutive runs, the power set,
        a match's complement).
        """
        if h.nrows == 1:
            yield (0,) * t.nrows
            return
        seen = set()
        for ty_j, index in self._identifying_columns(h):
            for c, (_, tty) in enumerate(t.schema.columns):
                if tty is not ty_j:
                    continue
                r = []
                for trow in t.rows:
                    i = index.get(trow[c])
                    if i is None:
                        break
                    r.append(i)
                else:
                    rt = tuple(r)
                    if len(set(rt)) == h.nrows and rt not in seen:
                        seen.add(rt)
                        yield rt

    def _identifying_columns(self, h: Table) -> list[tuple[ColumnType, dict]]:
        """Per column of h whose values are pairwise distinct, its type and
        its value -> row position dict. Matching scans every forward table
        with one hypothesis table, so they are built once per table object
        (an equal table built later is a new object and is read again)."""
        if h is not self.id_table:
            self.id_table = h
            self.id_columns = []
            for j, (_, ty) in enumerate(h.schema.columns):
                index = {row[j]: i for i, row in enumerate(h.rows)}
                if len(index) == h.nrows:
                    self.id_columns.append((ty, index))
        return self.id_columns

    def _solve_columns(self, t: Table, h: Table,
                       r: tuple[int, ...]) -> Optional[tuple[Projection, ...]]:
        """Find one projection per output column reproducing h under r."""
        projections: list[Projection] = [ConstP(self.task.action.name)]
        for j in range(1, len(h.schema)):
            want = tuple(h.rows[r[i]][j] for i in range(t.nrows))
            found = self._solve_column(t, h.schema.columns[j][1], want)
            if found is None:
                return None
            projections.append(found)
        return tuple(projections)

    def _solve_column(self, t: Table, ty: ColumnType,
                      want: tuple) -> Optional[Projection]:
        """A column of t equal to ``want``, else a constant, else the first
        feature over 1..CONCAT_MAX_INPUTS columns of t that a solver fits."""
        cols = {n: t.column(n) for n, cty in t.schema.columns if cty is ty}
        for name, col in cols.items():
            if col == want:
                return ColP(name)
        if ty is not ColumnType.ID and len(set(want)) == 1:
            return ConstP(want[0])
        for arity in range(1, CONCAT_MAX_INPUTS + 1):
            for family in _FAMILIES_BY_SIGNATURE[ty, arity]:
                concat = family is FeatureFamily.CONCAT
                pick = itertools.permutations if concat else itertools.combinations
                for combo in pick(cols, arity):
                    ins = [cols[c] for c in combo]
                    data = tuple(zip(zip(*ins), want) if concat
                                 else zip(*ins, want))
                    inst = self._solve(family, data)
                    if inst is not None:
                        return MutateP(inst, combo)
        return None

    def match_hypothesis(self, h: Hypothesis) -> Optional[Yield]:
        """First forward table (ascending depth) admitting an exact match.
        Past the last kept entry, the scan keeps more of the current depth."""
        output = self.task.output
        # h.rows is a subset of the checked output: its rows in output order.
        h_table = Table._canonical("h", output.schema,
                                   [r for r in output.rows if r in h.rows])
        # The list iterator ends at the entries kept so far; the stream then
        # yields each entry it appends.
        for entry in itertools.chain(self.entries, self.stream):
            self.deadline.check()
            t = entry.table
            if t.nrows < h_table.nrows:
                continue
            for r in self._surjections(t, h_table):
                projections = self._solve_columns(t, h_table, r)
                if projections is None:
                    continue
                stmt = Yield(t.name, projections)
                self._verify_match(t, h_table, stmt)
                return stmt
        return None

    def _verify_match(self, t: Table, h_table: Table, stmt: Yield):
        got = exec_yield(ExecState({t.name: t}), stmt, self.task.action)
        if got != h_table:
            raise EngineInternalError("match replay does not reproduce hypothesis")

    # -- assembly ------------------------------------------------------------

    def assemble_mapping(self, matched: Sequence[tuple[Yield, Hypothesis]]):
        """Exact cover of the output rows by pairwise-disjoint hypotheses."""
        first: dict[frozenset, Yield] = {}  # per row set, its best-ranked match
        for stmt, h in sorted(matched, key=lambda m: _rank(m[1])):
            first.setdefault(h.rows, stmt)
        return _cover(list(first.items()), 0, frozenset(self.task.output.rows))

    def assemble_program(self, mapping: Sequence[Yield]) -> Program:
        needed: set[str] = set()
        # A worklist, not a recursive closure: a closure that names itself
        # and this engine would keep the engine alive until a cyclic GC.
        todo = [stmt.src for stmt in mapping]
        while todo:
            name = todo.pop()
            stmt = self.seen_tables[self.state[name]].stmt
            if stmt is not None and name not in needed:
                needed.add(name)
                todo += sources(stmt)
        # An entry's sources were kept before it, so kept order is topological.
        transform = tuple(e.stmt for e in self.entries
                          if e.table.name in needed)
        program = Program(transform, tuple(mapping))
        try:
            got = exec_program(program, self.task.inputs, self.task.action)
        except ValidationFailure as exc:
            raise EngineInternalError(
                f"assembled program invalid: {exc.violations}") from exc
        if got != self.task.output:
            raise EngineInternalError("assembled program does not reproduce "
                                      "the output example")
        return program

    # -- top-level loop ------------------------------------------------------

    def _hypotheses(self):
        """This depth's hypothesis source, chosen by the search mode."""
        if self.settings.mode == "forward-only":
            return _SubsetSource(self.task.output, self.deadline)
        return HypothesisGenerator(self.task.output, self.task.inputs,
                                   self.settings)

    def run(self) -> SynthResult:
        start = time.monotonic()
        matched: list[tuple[Yield, Hypothesis]] = []
        try:
            max_depth = self.settings.max_depth
            # Kept tables are non-empty and a Yield over a non-empty table
            # yields rows, so an empty output is matched against the inputs
            # only.
            depths = (range(1, max_depth + 1)
                      if max_depth > 0 and self.task.output.nrows else [0])
            for d in depths:
                if d > 0:
                    self.stream = self._keep(d)
                source = self._hypotheses()
                while (h := source.next()) is not None:
                    self.stats.hypotheses_tried += 1
                    stmt = self.match_hypothesis(h)
                    if stmt is None:
                        continue
                    self.stats.matches_solved += 1
                    matched.append((stmt, h))
                    source.update_rank(h)
                    cover = self.assemble_mapping(matched)
                    if cover:  # an empty output's empty cover is no program
                        program = self.assemble_program(cover)
                        return self._finish("solved", program, start)
                self.expand()
            return self._finish("exhausted", None, start)
        except _SearchTimeout:
            return self._finish("timeout", None, start)

    def _finish(self, status, program, start) -> SynthResult:
        # A suspended stream's frame refers to this engine; dropping it lets
        # reference counting free the engine.
        self.stream = iter(())
        self.stats.forward_tables = len(self.entries)
        self.stats.elapsed_ms = int((time.monotonic() - start) * 1000)
        return SynthResult(status, program, self.stats)


def _cover(items: Sequence[tuple[frozenset, Yield]], start: int,
           remaining: frozenset) -> Optional[list[Yield]]:
    """The first exact cover of ``remaining`` by pairwise-disjoint row sets
    of ``items[start:]``, in item order; None if there is none. A module
    function, not a closure that names itself, so a search leaves no
    reference cycle behind."""
    if not remaining:
        return []
    for k in range(start, len(items)):
        rows, stmt = items[k]
        if rows <= remaining:
            rest = _cover(items, k + 1, remaining - rows)
            if rest is not None:
                return [stmt] + rest
    return None


# ---------------------------------------------------------------------------
# Public entry points.


def synthesize(task: SynthTask) -> SynthResult:
    return _Engine(task).run()


def synthesize_forward_only(task: SynthTask) -> SynthResult:
    return synthesize(replace(task, settings=replace(task.settings,
                                                      mode="forward-only")))


def generate_hypotheses(output: Table, inputs: Sequence[Table],
                        bound: int) -> list[Hypothesis]:
    """The ranked hypothesis stream, fully drained (bounded)."""
    gen = HypothesisGenerator(output, inputs,
                              SynthSettings(hypothesis_bound=bound))
    return list(iter(gen.next, None))
