"""Bidirectional synthesis of table programs from one input/output example.

Forward direction: depth-bounded enumeration of transform statements, with
observational equivalence classing. Backward direction: sub-tables of the
output example (hypotheses) ranked by a consistency score, each matched
against forward tables by solving per-column feature parameters. Matched
hypotheses are combined by exact cover, and the winning cover is assembled
into a verified program.

One search loop serves both modes; they differ only in the per-depth source
of hypotheses. The bidirectional mode uses the ranked, bounded
``HypothesisGenerator``. The forward-only baseline enumerates every subset of
the output rows in decreasing size; it is intentionally exponential in the
number of output rows.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
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
from .features import (
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
#: Search nodes spent enumerating unanchored row surjections per table pair.
SURJECTION_NODE_CAP = 20000


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
    order: int  # creation index, used for topological assembly


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
        return {
            "elapsed_ms": self.elapsed_ms,
            "forward_tables": self.forward_tables,
            "hypotheses_tried": self.hypotheses_tried,
            "matches_solved": self.matches_solved,
            "mode": self.mode,
        }


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


def _concat_feasible(value: str, inputs: Sequence[Table]) -> bool:
    """Greedy longest-match coverage of ``value`` by substrings of the string
    fields of some single input row."""
    if not value:
        return False
    for t in inputs:
        str_idx = [i for i, (_, ty) in enumerate(t.schema.columns)
                   if ty is ColumnType.STR]
        if not str_idx:
            continue
        for row in t.rows:
            fields = [row[i] for i in str_idx]
            pos = 0
            while pos < len(value):
                # Every prefix of a field's substring is one too, so the
                # longest covered piece ends just before the first miss.
                end = pos
                while end < len(value) and any(value[pos:end + 1] in f
                                               for f in fields):
                    end += 1
                if end == pos:
                    break
                pos = end
            if pos == len(value):
                return True
    return False


def score_subtable(rows: Sequence, schema: Schema, inputs: Sequence[Table]) -> int:
    """S(t) = sum over columns of (const + ordered + concat terms) x row count."""
    rows = list(rows)
    if not rows:
        return 0
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
            if all(_concat_feasible(v, inputs) for v in vals):
                per_col += 1
    return per_col * len(rows)


# ---------------------------------------------------------------------------
# Hypothesis generation and ranking.


def _rowset_key(rows: frozenset) -> tuple:
    return tuple(sorted(row_key(r) for r in rows))


class HypothesisGenerator:
    """Prioritized, bounded queue of sub-tables of the output example.

    Candidates: the full example; per-column constant-signature groups;
    maximal consecutive-integer runs per Int column; concat-feasible groups
    per Str column; pairwise intersections; complements of everything; plus
    the full power set when the example is small enough. Ranked by score
    descending, then more rows, then canonical row-set order.
    """

    def __init__(self, output: Table, inputs: Sequence[Table],
                 settings: SynthSettings):
        self.output = output
        self.inputs = list(inputs)
        self.bound = settings.hypothesis_bound
        self.all_rows = frozenset(output.rows)
        pool: dict[frozenset, str] = {self.all_rows: "full-table"}

        def add(rows, tag):
            if rows and rows not in pool:
                pool[frozenset(rows)] = tag

        for j, (_, ty) in enumerate(output.schema.columns):
            groups: dict[Value, list] = {}
            for row in output.rows:
                groups.setdefault(row[j], []).append(row)
            for group in groups.values():
                add(frozenset(group), "signature-group")
            if ty is ColumnType.INT:
                for run in self._consecutive_runs(j):
                    add(run, "signature-group")
            if ty is ColumnType.STR:
                feasible = [r for r in output.rows
                            if _concat_feasible(r[j], self.inputs)]
                add(frozenset(feasible), "signature-group")
        base = list(pool)
        for a, b in itertools.combinations(base, 2):
            add(a & b, "signature-group")
        for c in list(pool):
            add(self.all_rows - c, "complement")
        if output.nrows <= POWERSET_ROWS:
            for k in range(1, output.nrows):
                for combo in itertools.combinations(output.rows, k):
                    add(frozenset(combo), "signature-group")
        self.queue: list[Hypothesis] = sorted(
            (Hypothesis(rows, score_subtable(rows, output.schema, self.inputs), tag)
             for rows, tag in pool.items()),
            key=lambda h: (-h.score, -len(h.rows), _rowset_key(h.rows)),
        )
        self.emitted = 0

    def _consecutive_runs(self, j: int) -> list[frozenset]:
        vals = [r[j] for r in self.output.rows]
        if len(set(vals)) != len(vals):
            return []
        by_val = {r[j]: r for r in self.output.rows}
        runs = []
        current = []
        for v in sorted(by_val):
            if current and v != current[-1] + 1:
                runs.append(current)
                current = []
            current.append(v)
        runs.append(current)
        return [frozenset(by_val[v] for v in run) for run in runs if len(run) >= 2]

    def next(self) -> Optional[Hypothesis]:
        if self.emitted >= self.bound or not self.queue:
            return None
        self.emitted += 1
        return self.queue.pop(0)

    def update_rank(self, matched: Hypothesis):
        complement = self.all_rows - matched.rows
        demoted = [h for h in self.queue
                   if h.rows < matched.rows and h.rows != complement]
        kept = [h for h in self.queue
                if not (h.rows < matched.rows) and h.rows != complement]
        front = []
        if complement:
            front = [Hypothesis(
                complement,
                score_subtable(complement, self.output.schema, self.inputs),
                "complement",
            )]
        self.queue = front + kept + demoted


class _SubsetSource:
    """The forward-only baseline's hypotheses: every subset of the output
    rows, larger first, except the row sets in ``skip`` (those matched at an
    earlier depth). Unscored and unbounded."""

    def __init__(self, output: Table, deadline: _Deadline, skip: set):
        self.deadline = deadline
        self.skip = skip
        self.subsets = (frozenset(combo) for k in range(output.nrows, 0, -1)
                        for combo in itertools.combinations(output.rows, k))

    def next(self) -> Optional[Hypothesis]:
        for rows in self.subsets:
            self.deadline.check()
            if rows not in self.skip:
                return Hypothesis(rows, 0, "signature-group")
        return None

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
        self.name_counter = 0
        for t in task.inputs:
            self._add_entry(None, t, 0)

    # -- forward search ------------------------------------------------------

    def _fresh_name(self) -> str:
        while True:
            self.name_counter += 1
            name = f"t{self.name_counter}"
            if name not in self.state.tables:
                return name

    def _add_entry(self, stmt, table: Table, depth: int) -> bool:
        if table in self.seen_tables:
            return False
        entry = ForwardEntry(stmt, table, depth, len(self.entries))
        self.entries.append(entry)
        self.state.define(table)
        self.seen_tables[table] = entry
        self.stats.forward_tables = len(self.entries)
        return True

    def _try_stmt(self, stmt: TransformStmt, depth: int):
        try:
            table = exec_transform(self.state, stmt)
        except TableSynthError:
            return
        if table.nrows == 0:
            return  # empty intermediates can never feed a Yield
        self._add_entry(stmt, table, depth)

    def expand(self, d: int):
        existing = list(self.entries)
        constants = sorted(self.task.constants, key=lambda v: (str(type(v)), v))
        for e in existing:
            self.deadline.check()
            size = d - e.depth
            if size >= 1:
                for pred in _predicates(e.table.schema, constants, size,
                                        self.pred_memo):
                    self.deadline.check()
                    self._try_stmt(Filter(self._fresh_name(), e.table.name, pred),
                                   d)
        for e1 in existing:
            for e2 in existing:
                if e1 is e2 or max(e1.depth, e2.depth) + 1 != d:
                    continue
                id1 = [n for n, ty in e1.table.schema.columns
                       if ty is ColumnType.ID]
                id2 = [n for n, ty in e2.table.schema.columns
                       if ty is ColumnType.ID]
                for c1 in id1:
                    for c2 in id2:
                        self.deadline.check()
                        self._try_stmt(
                            Join(self._fresh_name(), e1.table.name,
                                 e2.table.name, c1, c2), d)
        for e in existing:
            if e.depth != d - 1:
                continue
            schema = e.table.schema
            int_cols = [n for n, ty in schema.columns if ty is ColumnType.INT]
            for col_index in schema.names:
                singles = [("cnt", col_index)]
                singles += [(agg, c) for c in int_cols for agg in _INT_AGGREGATES]
                pools = [aggs for n in range(1, GROUPJOIN_MAX_AGGS + 1)
                         for aggs in itertools.combinations(singles, n)]
                for aggs in pools:
                    self.deadline.check()
                    self._try_stmt(
                        GroupJoin(self._fresh_name(), e.table.name, col_index,
                                  tuple(aggs)), d)
            orderable = [n for n, ty in schema.columns if ty is not ColumnType.ID]
            for col in orderable:
                for col_index in [None] + [n for n in schema.names if n != col]:
                    self.deadline.check()
                    self._try_stmt(
                        Order(self._fresh_name(), e.table.name, col, 0, False,
                              col_index), d)

    # -- matching ------------------------------------------------------------

    def _solve(self, family: FeatureFamily, data: tuple):
        key = (family, data)
        if key in self.solver_cache:
            return self.solver_cache[key]
        self.deadline.check()
        # Built per call, so a solver replaced on this module is the one run.
        solvers = {
            FeatureFamily.LINEAR: solve_linear,
            FeatureFamily.DIV: solve_div,
            FeatureFamily.MOD: solve_mod,
            FeatureFamily.SUM: solve_sum,
            FeatureFamily.SUBSTRING: solve_substring,
            FeatureFamily.CONCAT: solve_concat,
        }
        result = solvers[family](data)
        self.solver_cache[key] = result
        return result

    def _surjections(self, t: Table, h: Table) -> Iterator[tuple[int, ...]]:
        """Candidate row surjections t-rows -> h-rows.

        A column of h whose values are pairwise distinct identifies the row
        map: each candidate comes from reading that column out of some
        type-compatible concrete column of t (Id anchors are the special
        case). When such a column exists only anchored candidates are tried;
        blind enumeration is reserved for hypotheses without one.
        """
        if h.nrows == 1:
            yield (0,) * t.nrows
            return
        identifying = []
        for j in range(len(h.schema)):
            vals = [row[j] for row in h.rows]
            if len(set(vals)) == len(vals):
                identifying.append((j, {v: i for i, v in enumerate(vals)}))
        if identifying:
            seen = set()
            for j, index in identifying:
                ty_j = h.schema.columns[j][1]
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
            return
        yield from self._enumerate_surjections(t, h)

    def _enumerate_surjections(self, t, h):
        nh = h.nrows
        # A non-Id column of h comes from a constant, or from a column of t
        # of its type through a projection or a feature, whatever the row
        # pair; only an Id column constrains which t row maps to which h row.
        t_types = {ty for _, ty in t.schema.columns}
        t_id = [i for i, (_, ty) in enumerate(t.schema.columns)
                if ty is ColumnType.ID]
        h_id = []
        for j, (_, ty) in enumerate(h.schema.columns):
            if ty is ColumnType.ID:
                h_id.append(j)
            elif ty not in t_types and len({r[j] for r in h.rows}) > 1:
                return
        compat = [[i for i, hrow in enumerate(h.rows)
                   if all(any(trow[c] == hrow[j] for c in t_id) for j in h_id)]
                  for trow in t.rows]
        budget = [SURJECTION_NODE_CAP]

        def rec(k, assignment, covered):
            if budget[0] <= 0:
                return
            budget[0] -= 1
            if k == t.nrows:
                if len(covered) == nh:
                    yield tuple(assignment)
                return
            remaining = t.nrows - k
            if nh - len(covered) > remaining:
                return
            for i in compat[k]:
                assignment.append(i)
                added = i not in covered
                if added:
                    covered.add(i)
                yield from rec(k + 1, assignment, covered)
                if added:
                    covered.remove(i)
                assignment.pop()

        yield from rec(0, [], set())

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
            for family in enumerate_feature_families((ty,) * arity, ty):
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
        """First forward table (ascending depth) admitting an exact match."""
        h_table = Table("h", self.task.output.schema, h.rows)
        for entry in self.entries:  # appended in (depth, order) order
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
        target = frozenset(self.task.output.rows)
        seen = set()
        items = []
        for stmt, h in sorted(matched, key=lambda m: (-m[1].score,
                                                      -len(m[1].rows),
                                                      _rowset_key(m[1].rows))):
            if h.rows not in seen:
                seen.add(h.rows)
                items.append((stmt, h.rows))

        def rec(start, remaining, picked):
            if not remaining:
                return list(picked)
            for k in range(start, len(items)):
                stmt, rows = items[k]
                if rows <= remaining:
                    picked.append(stmt)
                    result = rec(k + 1, remaining - rows, picked)
                    if result is not None:
                        return result
                    picked.pop()
            return None

        return rec(0, target, [])

    def assemble_program(self, mapping: Sequence[Yield]) -> Program:
        needed: dict[str, ForwardEntry] = {}

        def visit(name: str):
            entry = self.seen_tables[self.state[name]]
            if entry.stmt is None or name in needed:
                return
            for src in sources(entry.stmt):
                visit(src)
            needed[name] = entry

        for stmt in mapping:
            visit(stmt.src)
        transform = tuple(e.stmt for e in
                          sorted(needed.values(), key=lambda e: e.order))
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

    def _hypotheses(self, matched: Sequence[tuple[Yield, Hypothesis]]):
        """This depth's hypothesis source, chosen by the search mode."""
        if self.settings.mode == "forward-only":
            return _SubsetSource(self.task.output, self.deadline,
                                 {h.rows for _, h in matched})
        return HypothesisGenerator(self.task.output, self.task.inputs,
                                   self.settings)

    def run(self) -> SynthResult:
        start = time.monotonic()
        matched: list[tuple[Yield, Hypothesis]] = []
        try:
            max_depth = self.settings.max_depth
            depths = range(1, max_depth + 1) if max_depth > 0 else [0]
            for d in depths:
                if d > 0:
                    self.expand(d)
                source = self._hypotheses(matched)
                while (h := source.next()) is not None:
                    self.stats.hypotheses_tried += 1
                    stmt = self.match_hypothesis(h)
                    if stmt is None:
                        continue
                    self.stats.matches_solved += 1
                    matched.append((stmt, h))
                    source.update_rank(h)
                    cover = self.assemble_mapping(matched)
                    if cover is not None:
                        program = self.assemble_program(cover)
                        return self._finish("solved", program, start)
            return self._finish("exhausted", None, start)
        except _SearchTimeout:
            return self._finish("timeout", None, start)

    def _finish(self, status, program, start) -> SynthResult:
        self.stats.elapsed_ms = int((time.monotonic() - start) * 1000)
        return SynthResult(status, program, self.stats)


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
    out = []
    while True:
        h = gen.next()
        if h is None:
            return out
        out.append(h)
