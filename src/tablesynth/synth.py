"""Bidirectional synthesis of table programs from one input/output example.

Forward direction: depth-bounded enumeration of transform statements, with
observational equivalence classing. Each depth is one stream of candidate
statements (``_Engine._candidates``); a candidate whose table is new and
non-empty is kept, and any other is dropped. Every input is kept. A derived
table is new when no kept table holds the same set of typed columns
(``_column_set``): such tables differ only in duplicated or reordered
columns, so either one answers for the other. Most candidates are decided
before their table is built, from per-source facts that the engine's
``ExecState`` caches once per search: a Filter is drawn only when its row
mask over its source is new and neither empty nor full, and a GroupJoin or
Order is dropped when its source's column set plus the Int columns it
appends is already kept. A table is built only for a new key, and its
build reuses the cached masks, groupings, aggregate and rank columns.
A candidate's target is named
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

import bisect
import heapq
import itertools
import time
from dataclasses import asdict, dataclass, replace
from typing import Collection, Iterable, Iterator, Optional, Sequence

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
    appended_columns,
    exec_program,
    exec_transform,
    exec_yield,
    ExecState,
    predicate_mask,
    sources,
)
from .errors import (EngineInternalError, SchemaError, TableSynthError,
                     ValidationFailure)
from .features import (  # the solvers are looked up by name in _Engine._solve
    FAMILIES,
    FeatureFamily,
    enumerate_feature_families,
    solve_concat,
    solve_div,
    solve_linear,
    solve_mod,
    solve_substring,
    solve_sum,
)
from .progtext import NAME_RE
from .table import ColumnType, Schema, Table, Value, type_of

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
        for name in names + [c for t in self.inputs for c in t.schema.names]:
            if not NAME_RE.fullmatch(name):
                raise SchemaError(f"input name {name!r} cannot be written in "
                                  "program text")
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


@dataclass
class SynthStats:
    elapsed_ms: int = 0
    forward_tables: int = 0
    hypotheses_tried: int = 0
    #: Entries left in a depth's hypothesis queue when the bound ended its
    #: loop: row sets the search never tried to match.
    hypotheses_untried: int = 0
    #: Entries the depths' hypothesis sources scored: pool row sets and
    #: match complements (0 forward-only).
    hypotheses_scored: int = 0
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


def _column_facts(rows: Sequence, schema: Schema,
                  inputs: Sequence[Table]) -> list[tuple]:
    """What scoring a set of positions of ``rows`` needs, per column: its
    type, its values, each position's value-group mask, and for a Str
    column the mask of positions whose value is concat-feasible."""
    row_chars = _row_chars(inputs)
    facts = []
    for j, (_, ty) in enumerate(schema.columns):
        vals = [r[j] for r in rows]
        groups: dict[Value, int] = {}
        for i, v in enumerate(vals):
            groups[v] = groups.get(v, 0) | 1 << i
        feasible = sum(1 << i for i, v in enumerate(vals)
                       if ty is ColumnType.STR and _concat_feasible(v, row_chars))
        facts.append((ty, vals, [groups[v] for v in vals], feasible))
    return facts


def _score(facts: Sequence[tuple], mask: int, positions: Sequence[int]) -> int:
    """The score of the rows at ``positions`` (``mask``): per column, one value
    group, distinct Ints spanning ``n - 1``, each value concat-feasible."""
    n = len(positions)
    if not n:
        return 0
    per_col = 0
    for ty, vals, group_of, feasible in facts:
        per_col += not mask & ~group_of[positions[0]]
        if ty is ColumnType.INT and n >= 2:
            ints = {vals[i] for i in positions}
            per_col += len(ints) == n and max(ints) - min(ints) == n - 1
        per_col += ty is ColumnType.STR and not mask & ~feasible
    return per_col * n


def score_subtable(rows: Sequence, schema: Schema, inputs: Sequence[Table]) -> int:
    """S(t) = sum over columns of (const + ordered + concat terms) x row count.

    A Str column earns the concat term when each of its values is non-empty
    and has all its characters in the Str fields of one input row. A row
    listed twice counts twice."""
    rows = list(rows)
    return _score(_column_facts(rows, schema, inputs), (1 << len(rows)) - 1,
                  range(len(rows)))


# ---------------------------------------------------------------------------
# Hypothesis generation and ranking.


def _consecutive_runs(vals: Sequence[int]) -> list[int]:
    """Position masks of the maximal consecutive runs of distinct ``vals``."""
    by_val = {v: i for i, v in enumerate(vals)}
    if len(by_val) != len(vals):
        return []
    # Along sorted distinct values, value minus position is constant
    # exactly within a run of consecutive integers.
    runs = [[v for _, v in run] for _, run in itertools.groupby(
        enumerate(sorted(by_val)), key=lambda p: p[1] - p[0])]
    return [sum(1 << by_val[v] for v in run) for run in runs if len(run) >= 2]


def _positions(mask: int) -> tuple[int, ...]:
    """The positions of ``mask``'s set bits, ascending."""
    return tuple([i for i in range(mask.bit_length()) if mask >> i & 1])


class HypothesisGenerator:
    """Prioritized, bounded queue of sub-tables of the output example.

    The pool holds the full example; per column, the rows sharing each
    value; per Int column with distinct values, each maximal run of two or
    more consecutive integers; and, for an example of at most
    ``POWERSET_ROWS`` rows, every proper non-empty subset. A row set is a
    bitmask over the output's row positions, scored from column facts
    computed once. ``next`` hands out entries ``(key, mask, tag)`` in
    ``key`` order (higher score, then more rows, then row positions), and a
    match pulls its complement to the front (``update_rank``). The tag is
    the entry's provenance: full-table, signature-group or complement.

    The pool is scored a size at a time. Each row count has a score bound
    from the column facts (``_bound``), and its row sets are scored (those
    of the power set also drawn) only when that bound can reach the head of
    the queue. So a search that stops after a few entries scores few of
    them. ``scored`` counts the entries scored, complements included.
    """

    def __init__(self, output: Table, inputs: Sequence[Table],
                 settings: SynthSettings):
        self.bound = settings.hypothesis_bound
        self.facts = _column_facts(output.rows, output.schema, inputs)
        self.nrows = n = output.nrows
        self.full = (1 << n) - 1
        self.pool: Collection[int]
        if 0 < n <= POWERSET_ROWS:
            self.pool = range(1, self.full + 1)  # every non-empty mask
            sizes: Iterable[int] = range(1, n + 1)
        else:
            self.pool = {self.full}
            for ty, vals, group_of, _ in self.facts:
                self.pool.update(group_of)
                if ty is ColumnType.INT:
                    self.pool.update(_consecutive_runs(vals))
            sizes = {mask.bit_count() for mask in self.pool}
        # Per column and term, the most rows that can earn it (``_bound``):
        # for the const or ordered term, the largest value group or the
        # count of distinct Ints; for the concat term, the feasible rows.
        self.limits = sorted(itertools.chain.from_iterable(
            (max(max(map(int.bit_count, group_of)),
                 len(set(vals)) if ty is ColumnType.INT else 0),
             feasible.bit_count())
            for ty, vals, group_of, feasible in self.facts if vals))
        #: The sizes not yet scored, as ``(-bound, -size)``, the next last.
        self.buckets = sorted(((-self._bound(k), -k) for k in sizes),
                              reverse=True)
        self.heap: list[tuple] = []  # the scored pool entries
        self.front: list[tuple] = []  # complements, the latest last
        self.gone: set[int] = set()  # pool masks emitted or removed
        self.emitted = 0
        self.scored = 0

    def _bound(self, k: int) -> int:
        """No row set of ``k`` rows scores more. Per column, the const term
        needs a value group of ``k`` rows, the ordered term ``k >= 2``
        distinct Ints (so the two exclude each other, and a column earns at
        most one), and the concat term ``k`` feasible rows. So each limit of
        at least ``k`` adds at most one per row."""
        return k * (len(self.limits) - bisect.bisect_left(self.limits, k))

    def _entry(self, mask: int, tag: str) -> tuple:
        """``(key, mask, tag)``, ``key = (-score, -size, positions)`` with
        positions ascending. A table stores its rows in row-key order, so
        ties of score and size fall to canonical row-set order."""
        return self._keyed(mask, _positions(mask), tag)

    def _keyed(self, mask: int, positions: tuple, tag: str) -> tuple:
        """``_entry`` given ``mask``'s positions."""
        self.scored += 1
        score = _score(self.facts, mask, positions)
        return (-score, -len(positions), positions), mask, tag

    def _open(self, k: int):
        """Score the pool's row sets of ``k`` rows into the heap."""
        if isinstance(self.pool, range):
            # Both combinations run in one order: positions and their bits.
            bits = [1 << i for i in range(self.nrows)]
            rowsets: Iterable = zip(
                itertools.combinations(range(self.nrows), k),
                map(sum, itertools.combinations(bits, k)))
        else:
            rowsets = ((_positions(mask), mask) for mask in self.pool
                       if mask.bit_count() == k)
        self.heap += [self._keyed(mask, positions, "full-table"
                                  if mask == self.full else "signature-group")
                      for positions, mask in rowsets if mask not in self.gone]
        heapq.heapify(self.heap)

    def _pop(self) -> Optional[tuple]:
        """The pool's next entry in key order. A size is scored first when
        its ``(-bound, -size)`` is below the head's key, as one of its row
        sets could then precede the head (it cannot tie: the head's size is
        scored). Keys are unique per mask, so the order is that of the
        whole pool sorted."""
        heap, buckets = self.heap, self.buckets
        while True:
            if heap and heap[0][1] in self.gone:
                heapq.heappop(heap)
            elif buckets and (not heap or buckets[-1] < heap[0][0]):
                self._open(-buckets.pop()[1])
            else:
                return heapq.heappop(heap) if heap else None

    def next(self) -> Optional[tuple]:
        if self.emitted >= self.bound:
            return None
        if self.front:
            entry = self.front.pop()
        elif (entry := self._pop()) is not None:
            self.gone.add(entry[1])
        else:
            return None
        self.emitted += 1
        return entry

    def untried(self) -> int:
        """Entries the bound keeps from being handed out."""
        return len(self.front) + len(self.pool) - len(self.gone)

    def update_rank(self, mask: int):
        complement = self.full & ~mask
        self.front = [e for e in self.front if e[1] != complement]
        if complement in self.pool:
            self.gone.add(complement)
        if complement:
            self.front.append(self._entry(complement, "complement"))


class _SubsetSource:
    """The forward-only baseline's hypotheses: every non-empty subset of the
    output row positions, larger first, as ``HypothesisGenerator`` entries
    of score 0. Unscored and unbounded. A row set matched at an earlier
    depth is tried again and finds the same first match."""

    scored = 0

    def __init__(self, output: Table, deadline: _Deadline):
        self.deadline = deadline
        n = output.nrows
        self.entries = (((0, -k, combo), sum(1 << i for i in combo),
                         "signature-group")
                        for k in range(n, 0, -1)
                        for combo in itertools.combinations(range(n), k))

    def next(self) -> Optional[tuple]:
        # Matching checks the deadline per forward table; without input
        # tables there is none to scan, and this is the only check.
        self.deadline.check()
        return next(self.entries, None)

    def update_rank(self, mask: int):
        pass

    def untried(self) -> int:
        return 0  # unbounded: a depth's loop drains it


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
        self.seen_columns: set[frozenset] = set()
        #: Each kept table's column set, by name.
        self.columns_of: dict[str, frozenset] = {}
        #: Per kept table's name, the row masks its Filters have drawn.
        self.seen_masks: dict[str, set[int]] = {}
        #: The last GroupJoin or Order ``_keep`` drew past the column-set
        #: test, and its column set, which ``_add_entry`` then reuses.
        self.column_memo: tuple = (None, None)
        self.pred_memo: dict = {}
        self.solver_cache: dict = {}
        #: Each Str column's extract specs, shared by the string solvers
        #: (``features._column_extractions``).
        self.extractions: dict = {}
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
        """Keep ``table`` if it is an input (``stmt`` None), which the
        program may name, or if no kept table has its column set
        (``_column_set``)."""
        memo_stmt, memo_columns = self.column_memo
        columns = (memo_columns if stmt is not None and stmt is memo_stmt
                   else _column_set(table))
        if stmt is not None and columns in self.seen_columns:
            return False
        self.entries.append(ForwardEntry(stmt, table, depth))
        self.state.define(table)
        self.seen_columns.add(columns)
        self.columns_of[table.name] = columns
        return True

    def _candidates(self, d: int) -> Iterator[TransformStmt]:
        """Every depth-``d`` statement over the entries kept before it:
        Filters per entry, Joins over Id-column pairs, then per entry of depth
        ``d - 1`` its GroupJoins and Orders. A Filter is drawn only for the
        first predicate whose row mask over its source is new and neither
        empty nor full: any other gives no rows, its source's rows, or the
        rows of a Filter drawn before it from that source. A GroupJoin or a
        grouped Order is drawn only over a column with a repeated value: a
        column of distinct values puts each row in its own group, so a
        GroupJoin over it appends only ``cnt = 1`` and copies of Int columns,
        and an Order within it ranks every row 0. A target is named when its
        statement is drawn, after the one before it was kept or dropped."""
        existing = list(self.entries)
        constants = sorted(self.task.constants, key=lambda v: (str(type(v)), v))
        for e in existing:
            t = e.table
            seen = self.seen_masks.setdefault(t.name, {0, (1 << t.nrows) - 1})
            for pred in _predicates(t.schema, constants, d - e.depth,
                                    self.pred_memo):
                if len(seen) == 1 << t.nrows:  # every row set is drawn
                    break
                self.deadline.check()
                mask = predicate_mask(t, pred, self.state.cache)
                if mask not in seen:
                    seen.add(mask)
                    yield Filter(self._fresh_name(), t.name, pred)
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
            grouping = [n for n in schema.names
                        if len(set(e.table.column(n))) < e.table.nrows]
            for col_index in grouping:
                singles = [("cnt", col_index)]
                singles += [(agg, c) for c in int_cols for agg in _INT_AGGREGATES]
                for n in range(1, GROUPJOIN_MAX_AGGS + 1):
                    for aggs in itertools.combinations(singles, n):
                        yield GroupJoin(self._fresh_name(), e.table.name,
                                        col_index, aggs)
            orderable = [n for n, ty in schema.columns if ty is not ColumnType.ID]
            for col in orderable:
                for col_index in [None] + [n for n in grouping if n != col]:
                    yield Order(self._fresh_name(), e.table.name, col, 0, False,
                                col_index)

    def _keep(self, d: int) -> Iterator[ForwardEntry]:
        """Keep each depth-``d`` candidate whose table is new and non-empty,
        yielding each entry once it is kept. A GroupJoin's or Order's
        column set is its source's plus the Int columns it appends, so one
        whose set is known is dropped before its table is built, and one
        that is kept hands its set on to ``_add_entry``."""
        for stmt in self._candidates(d):
            self.deadline.check()
            try:
                if isinstance(stmt, (GroupJoin, Order)):
                    key = self.columns_of[stmt.src].union(
                        (ColumnType.INT, vals)
                        for _, vals in appended_columns(self.state, stmt))
                    if key in self.seen_columns:
                        continue
                    self.column_memo = (stmt, key)
                table = exec_transform(self.state, stmt)
            except TableSynthError:
                continue
            # Empty intermediates can never feed a Yield.
            if table.nrows and self._add_entry(stmt, table, d):
                yield self.entries[-1]

    def expand(self, stream: Iterable[ForwardEntry]):
        """Keep the rest of the depth whose keep loop is ``stream``."""
        for _ in stream:
            pass

    # -- matching ------------------------------------------------------------

    def _solve(self, family: FeatureFamily, data: tuple):
        key = (family, data)
        if key in self.solver_cache:
            return self.solver_cache[key]
        self.deadline.check()
        # Looked up by name per call, so a solver replaced on this module is
        # the one run.
        solver = globals()["solve_" + family.value]
        if FAMILIES[family][0] is ColumnType.STR:
            result = solver(data, self.extractions)
        else:
            result = solver(data)
        self.solver_cache[key] = result
        return result

    def _surjections(self, t: Table, h: Table,
                     ids: Sequence[tuple]) -> Iterator[tuple[int, ...]]:
        """Candidate row surjections t-rows -> h-rows.

        A one-row h takes every row of t. Otherwise a column of h whose
        values are pairwise distinct identifies the row map (``ids``, from
        ``_identifying_columns(h)``): each candidate is that column read out
        of a type-compatible column of t (Id anchors are the special case),
        with every row of h reached. An h of two or more rows without such a
        column has no candidate; its rows are left to smaller hypotheses
        (value groups, consecutive runs, the power set, a match's
        complement).
        """
        if h.nrows == 1:
            yield (0,) * t.nrows
            return
        seen = set()
        for ty_j, index in ids:
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

    def _solve_columns(self, t: Table, h: Table,
                       r: tuple[int, ...]) -> Optional[tuple[Projection, ...]]:
        """Find one projection per output column reproducing h under r."""
        projections: list[Projection] = [ConstP(self.task.action.name)]
        for name, ty in h.schema.columns[1:]:
            want = tuple(map(h.column(name).__getitem__, r))
            found = self._solve_column(t, ty, want)
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

    def match_hypothesis(self, positions: Sequence[int],
                         stream: Iterable[ForwardEntry]) -> Optional[Yield]:
        """First forward table (ascending depth) admitting an exact match of
        the output rows at ``positions`` (ascending). Past the last kept
        entry, the scan pulls more of the current depth from ``stream``."""
        output = self.task.output
        # A subsequence of the checked output's rows, so canonical.
        h_table = Table._canonical("h", output.schema,
                                   [output.rows[i] for i in positions])
        ids = _identifying_columns(h_table)
        # The list iterator ends at the entries kept so far; the stream then
        # yields each entry it appends.
        for entry in itertools.chain(self.entries, stream):
            self.deadline.check()
            t = entry.table
            if t.nrows < h_table.nrows:
                continue
            for r in self._surjections(t, h_table, ids):
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

    def assemble_mapping(self, matched: dict[int, tuple[tuple, Yield]]):
        """Exact cover of the output rows by pairwise-disjoint matches, tried
        in key order. ``matched`` maps a row set's mask to its key and first
        match; the key depends only on the mask, so key order is rank order."""
        items = [(mask, stmt) for mask, (_, stmt)
                 in sorted(matched.items(), key=lambda m: m[1][0])]
        return _cover(items, 0, (1 << self.task.output.nrows) - 1)

    def assemble_program(self, mapping: Sequence[Yield]) -> Program:
        # An entry's sources were kept before it, so one backward pass over
        # kept order reaches every table a needed one reads.
        needed = {stmt.src for stmt in mapping}
        transform = []
        for e in reversed(self.entries):
            if e.stmt is not None and e.table.name in needed:
                transform.append(e.stmt)
                needed.update(sources(e.stmt))
        transform.reverse()
        program = Program(tuple(transform), tuple(mapping))
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

    def run(self) -> SynthResult:
        start = time.monotonic()
        matched: dict[int, tuple[tuple, Yield]] = {}
        try:
            max_depth = self.settings.max_depth
            # Kept tables are non-empty and a Yield over a non-empty table
            # yields rows, so an empty output is matched against the inputs
            # only.
            depths = (range(1, max_depth + 1)
                      if max_depth > 0 and self.task.output.nrows else [0])
            for d in depths:
                # The depth's keep loop, suspended after its last kept entry.
                stream = self._keep(d) if d > 0 else ()
                source = (_SubsetSource(self.task.output, self.deadline)
                          if self.settings.mode == "forward-only" else
                          HypothesisGenerator(self.task.output,
                                              self.task.inputs, self.settings))
                try:
                    while (entry := source.next()) is not None:
                        self.stats.hypotheses_tried += 1
                        key, mask, _ = entry
                        stmt = self.match_hypothesis(key[2], stream)
                        if stmt is None:
                            continue
                        self.stats.matches_solved += 1
                        matched.setdefault(mask, (key, stmt))
                        source.update_rank(mask)
                        cover = self.assemble_mapping(matched)
                        if cover:  # an empty output's empty cover is no program
                            program = self.assemble_program(cover)
                            return self._finish("solved", program, start)
                finally:  # also when the depth solves or times out
                    self.stats.hypotheses_scored += source.scored
                self.stats.hypotheses_untried += source.untried()
                self.expand(stream)
            return self._finish("exhausted", None, start)
        except _SearchTimeout:
            return self._finish("timeout", None, start)

    def _finish(self, status, program, start) -> SynthResult:
        self.stats.forward_tables = len(self.entries)
        self.stats.elapsed_ms = int((time.monotonic() - start) * 1000)
        return SynthResult(status, program, self.stats)


def _column_set(t: Table) -> frozenset:
    """The set of ``t``'s columns as (type, values in row order) pairs. Two
    tables with equal sets have as many rows, and each column of one is,
    row by row, a column of the other: they differ only in repeated and
    reordered columns. A statement over one then has a
    counterpart over the other, its column names mapped, whose result has
    the same column set, and a Yield over one reads the same rows from the
    other. So forward search keeps the first of them only. A table without
    rows, which forward search never derives, has the empty set."""
    return frozenset(zip([ty for _, ty in t.schema.columns], zip(*t.rows)))


def _identifying_columns(h: Table) -> list[tuple[ColumnType, dict]]:
    """Per column of h whose values are pairwise distinct, its type and its
    value -> row position dict."""
    ids = []
    for j, (_, ty) in enumerate(h.schema.columns):
        index = {row[j]: i for i, row in enumerate(h.rows)}
        if len(index) == h.nrows:
            ids.append((ty, index))
    return ids


def _cover(items: Sequence[tuple[int, Yield]], start: int,
           remaining: int) -> Optional[list[Yield]]:
    """The first exact cover of the position mask ``remaining`` by
    pairwise-disjoint masks of ``items[start:]``, in item order; None if
    there is none. A module function, not a closure that names itself, so a
    search leaves no reference cycle behind."""
    if not remaining:
        return []
    for k in range(start, len(items)):
        mask, stmt = items[k]
        if not mask & ~remaining:
            rest = _cover(items, k + 1, remaining & ~mask)
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
