"""Higher-order feature families and their parameter solvers.

Six families are supported: linear, div, mod, and sum over integers, and
substring/concat over strings. A ``FeatureInstance`` is a family and its
parameters. ``FAMILIES`` is the one definition of each family's value type,
input count, parameter kinds and row-wise application; the family list of
a signature, an instance's checks, types and arity, and the text parser's
instances derive from it. Substring's one parameter is an ExtractSpec and
concat's a ConcatProgram. Each family also has a solver
(a ``solve_*`` function) that instantiates the free parameters from
(input, expected output) pairs. Solvers are deterministic: given the same
pairs they return the same instance, with documented tie-breaking
(smallest dividend, fewest tokens, fewest segments).

Integer semantics: div floors toward minus infinity and mod returns a value
in [0, d), so interpretation and solving agree on negative operands. An
instance rejects a parameter outside the signed 64-bit range with
IntRangeError, and the solvers treat such an instance as no fit.
"""

from __future__ import annotations

import enum
import heapq
import os.path
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .errors import FeatureMissError, IntRangeError, SchemaError
from .table import I64_MIN, ColumnType, Interned, Value, check_int, type_of


class FeatureFamily(enum.Enum):
    LINEAR = "linear"
    DIV = "div"
    MOD = "mod"
    SUM = "sum"
    SUBSTRING = "substring"
    CONCAT = "concat"

    # Members are singletons: identity hashing runs in C, Enum.__hash__ does not.
    __hash__ = object.__hash__


def enumerate_feature_families(
    in_types: Sequence[ColumnType], out_type: ColumnType
) -> list[FeatureFamily]:
    """Families type-compatible with the signature, in ``FAMILIES`` order."""
    ins = tuple(in_types)
    return [fam for fam, (ty, count, _, _) in FAMILIES.items()
            if ins and out_type is ty and all(t is ty for t in ins)
            and count in (None, len(ins))]


# ---------------------------------------------------------------------------
# Token classes and substring extraction.


class TokenClass(Interned):
    """One character class; ``kind`` is a name or 'Punct' with a single char.
    Interned: ``TokenClass(kind, char)`` returns the one live object per
    ``(kind, char)``, and rejects a kind that names no class."""

    __slots__ = ("kind", "char")

    def __new__(cls, kind: str, char: str = "") -> "TokenClass":
        return Interned.__new__(cls, kind, char)

    def _check(self):
        named = isinstance(self.kind, str) and self.kind in _TOKEN_PATTERNS
        punct = (self.kind == "Punct" and isinstance(self.char, str)
                 and len(self.char) == 1)
        if not (named or punct):
            raise SchemaError(f"bad token class {self!r}")

    def __repr__(self) -> str:
        return f"TokenClass(kind={self.kind!r}, char={self.char!r})"

    def pattern(self) -> str:
        base = _TOKEN_PATTERNS.get(self.kind) or re.escape(self.char)
        # Maximal run: not extendable by the same class on either side.
        return f"(?:(?<!{base}){base}+(?!{base}))"

    def __str__(self) -> str:
        return f"'{self.char}'" if self.kind == "Punct" else self.kind


#: kind -> character pattern, in ranking order: specific numeric runs first,
#: then the broad alphanumeric class, then alphabetic subclasses. Earlier
#: classes win ties in solvers.
_TOKEN_PATTERNS = {
    "Digits": "[0-9]",
    "Alnum": "[A-Za-z0-9]",
    "Alpha": "[A-Za-z]",
    "Lower": "[a-z]",
    "Upper": "[A-Z]",
    "Whitespace": r"[ \t]",
}

BASE_TOKEN_CLASSES = tuple(TokenClass(kind) for kind in _TOKEN_PATTERNS)


@dataclass(frozen=True)
class ExtractSpec:
    """k-th maximal match of a token sequence; negative k counts from the end.
    The solvers build thousands per search, so the checks are type tests."""

    tokens: tuple[TokenClass, ...]
    occurrence: int

    def __post_init__(self):
        tokens = self.tokens
        if type(tokens) is not tuple or any(type(t) is not TokenClass
                                            for t in tokens):
            raise SchemaError(f"tokens {tokens!r} are no tuple of TokenClass")
        if not tokens:
            raise SchemaError("empty token sequence")
        if type(self.occurrence) is not int:
            raise SchemaError(f"occurrence {self.occurrence!r} is no int")
        if self.occurrence == 0:
            raise SchemaError("occurrence must be nonzero")

    def __str__(self) -> str:
        return "{%s#%d}" % ("".join(str(t) for t in self.tokens), self.occurrence)


@lru_cache(maxsize=4096)
def _compiled(tokens: tuple[TokenClass, ...]):
    return re.compile("".join(t.pattern() for t in tokens))


def _pick(matches: Sequence[str], k: int) -> Optional[str]:
    """The k-th of ``matches`` (negative k counts from the end), or None."""
    idx = k - 1 if k > 0 else len(matches) + k
    return matches[idx] if 0 <= idx < len(matches) else None


def extract(spec: ExtractSpec, text: str) -> str:
    """Apply ``spec`` to ``text``; raises FeatureMissError when nothing matches."""
    found = _pick(_compiled(spec.tokens).findall(text), spec.occurrence)
    if found is None:
        raise FeatureMissError(f"{spec} has no match {spec.occurrence} in {text!r}")
    return found


# ---------------------------------------------------------------------------
# Concatenation programs.


@dataclass(frozen=True)
class ExtractSegment:
    input_pos: int
    spec: ExtractSpec


@dataclass(frozen=True)
class LiteralSegment:
    text: str

    def __post_init__(self):
        if not self.text:
            raise SchemaError("empty literal segment")


Segment = ExtractSegment | LiteralSegment


@dataclass(frozen=True)
class ConcatProgram:
    """A non-empty tuple of segments. Each is checked here, once per
    program, not once per segment the solver tries: an extract segment
    reads an ``int`` input position >= 0 with an ExtractSpec, and a
    literal is a non-empty ``str``."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        segments = self.segments
        if type(segments) is not tuple or not segments:
            raise SchemaError(f"concat segments {segments!r} are no "
                              "non-empty tuple")
        for seg in segments:
            if isinstance(seg, ExtractSegment):
                pos = seg.input_pos
                if type(pos) is not int or pos < 0:
                    raise SchemaError(f"bad concat input position {pos!r}")
                if not isinstance(seg.spec, ExtractSpec):
                    raise SchemaError(f"{seg.spec!r} is no ExtractSpec")
            elif not isinstance(seg, LiteralSegment):
                raise SchemaError(f"{seg!r} is no concat segment")
            elif type(seg.text) is not str or not seg.text:
                raise SchemaError(f"bad concat literal {seg.text!r}")

    def run(self, inputs: Sequence[str]) -> str:
        pieces = []
        for seg in self.segments:
            if isinstance(seg, LiteralSegment):
                pieces.append(seg.text)
            else:
                if seg.input_pos >= len(inputs):
                    raise SchemaError(f"input position {seg.input_pos} out of range")
                pieces.append(extract(seg.spec, inputs[seg.input_pos]))
        return "".join(pieces)


# ---------------------------------------------------------------------------
# Concrete feature instances.


#: family -> (value type, input count or None for any count, parameter
#: kinds, row function). Inputs and output share the value type. An
#: instance holds one parameter per kind: an ``int`` kind is an Int value.
#: The row function takes the instance, then one row's input values.
FAMILIES = {
    FeatureFamily.LINEAR: (
        ColumnType.INT, 1, (int, int),
        lambda f, x: check_int(f.params[0] * x + f.params[1])),
    FeatureFamily.DIV: (
        ColumnType.INT, 1, (int, int),
        lambda f, x: check_int((x + f.params[0]) // f.params[1])),
    FeatureFamily.MOD: (
        ColumnType.INT, 1, (int, int, int),
        lambda f, x: check_int((x + f.params[0]) % f.params[2] + f.params[1])),
    FeatureFamily.SUM: (
        ColumnType.INT, 2, (int,),
        lambda f, x, y: check_int(x + y + f.params[0])),
    FeatureFamily.SUBSTRING: (
        ColumnType.STR, 1, (ExtractSpec,),
        lambda f, x: extract(f.params[0], x)),
    FeatureFamily.CONCAT: (
        ColumnType.STR, None, (ConcatProgram,),
        lambda f, *xs: f.params[0].run(xs)),
}


@dataclass(frozen=True)
class FeatureInstance:
    """A fully instantiated feature: a family and its parameters, checked
    however the instance is built against the family's ``FAMILIES`` row:
    one parameter per kind, each of its kind (an Int value for ``int``, so
    IntRangeError past 64 bits), with a ``div`` divisor of at least 2 and a
    ``mod`` divisor in [2, 10] above its offset b1 (SchemaError otherwise).
    Substring's one parameter is its ExtractSpec, concat's its
    ConcatProgram."""

    family: FeatureFamily
    params: tuple = ()

    def __post_init__(self):
        family, params = self.family, self.params
        row = FAMILIES.get(family)
        if row is None:
            raise SchemaError(f"unknown feature family {family!r}")
        kinds = row[2]
        if len(params) != len(kinds):
            raise SchemaError(f"{family.value} takes {len(kinds)} parameters, "
                              f"got {len(params)}")
        for kind, p in zip(kinds, params):
            if kind is int:
                if type_of(p) is not ColumnType.INT:
                    raise SchemaError(f"{family.value} parameters must be Int values")
            elif not isinstance(p, kind):
                raise SchemaError(f"{family.value} parameter {p!r} is no "
                                  f"{kind.__name__}")
        if family is FeatureFamily.DIV and params[1] < 2:
            raise SchemaError("div dividend must be >= 2")
        if family is FeatureFamily.MOD:
            b1, _, d = params
            if not 2 <= d <= 10:
                raise SchemaError("mod dividend must be in [2, 10]")
            if not 0 <= b1 < d:
                raise SchemaError("mod offset b1 must be in [0, d)")

    @property
    def arity(self) -> int:
        """The family's input count; for concat, the highest segment
        position + 1."""
        count = FAMILIES[self.family][1]
        if count is not None:
            return count
        return 1 + max((s.input_pos for s in self.params[0].segments
                        if isinstance(s, ExtractSegment)), default=0)

    @property
    def in_type(self) -> ColumnType:
        return FAMILIES[self.family][0]

    @property
    def out_type(self) -> ColumnType:
        return self.in_type


def linear(a: int, b: int) -> FeatureInstance:
    return FeatureInstance(FeatureFamily.LINEAR, (a, b))


def div(b: int, d: int) -> FeatureInstance:
    return FeatureInstance(FeatureFamily.DIV, (b, d))


def mod(b1: int, b2: int, d: int) -> FeatureInstance:
    return FeatureInstance(FeatureFamily.MOD, (b1, b2, d))


def sum_feature(b: int) -> FeatureInstance:
    return FeatureInstance(FeatureFamily.SUM, (b,))


def substring(spec: ExtractSpec) -> FeatureInstance:
    return FeatureInstance(FeatureFamily.SUBSTRING, (spec,))


def concat(program: ConcatProgram) -> FeatureInstance:
    return FeatureInstance(FeatureFamily.CONCAT, (program,))


def apply_feature(f: FeatureInstance, args: Sequence[Value]) -> Value:
    """Row-wise application; raises SchemaError on a wrong input count and
    FeatureMissError on extraction misses."""
    _, count, _, row = FAMILIES[f.family]
    if count is not None and len(args) != count:
        raise SchemaError(f"{f.family.value} takes {count} inputs, got {len(args)}")
    return row(f, *args)


# ---------------------------------------------------------------------------
# Solver caps: the bounds of the enumerative solvers' search spaces.

#: Largest divisor ``solve_div`` tries.
DIV_MAX_DIVIDEND = 100
#: Most token classes in one extract spec.
MAX_TOKENS = 3
#: Largest occurrence index, counted from either end.
MAX_OCCURRENCE = 3
#: Most segments in one concat program.
MAX_SEGMENTS = 6
#: Longest literal segment.
MAX_LITERAL_LEN = 20


# ---------------------------------------------------------------------------
# Integer solvers.


def _instance(make, *params) -> Optional[FeatureInstance]:
    """``make(*params)``, or None when a parameter is outside the 64-bit
    range: the solvers treat such an instance as no fit."""
    try:
        return make(*params)
    except IntRangeError:
        return None


def _fits(inst: FeatureInstance, cases: Sequence[tuple[int, ...]]) -> bool:
    """Whether ``inst`` maps each case's inputs to its last item; a value
    outside the 64-bit range is a misfit."""
    try:
        return all(apply_feature(inst, c[:-1]) == c[-1] for c in cases)
    except IntRangeError:
        return False


def solve_linear(pairs: Sequence[tuple[int, int]]) -> Optional[FeatureInstance]:
    """Fit y = a*x + b with integer a, b; requires two distinct x values."""
    distinct = {}
    for x, y in pairs:
        if x in distinct:
            if distinct[x] != y:
                return None
        else:
            distinct[x] = y
    if len(distinct) < 2:
        return None
    (x1, y1), (x2, y2) = list(distinct.items())[:2]
    if (y2 - y1) % (x2 - x1) != 0:
        return None
    a = (y2 - y1) // (x2 - x1)
    b = y1 - a * x1
    inst = _instance(linear, a, b)
    return inst if inst is not None and _fits(inst, pairs) else None


def solve_sum(triples: Sequence[tuple[int, int, int]]) -> Optional[FeatureInstance]:
    """Fit out = x + y + b."""
    if not triples:
        return None
    x0, y0, out0 = triples[0]
    b = out0 - x0 - y0
    inst = _instance(sum_feature, b)
    return inst if inst is not None and _fits(inst, triples) else None


def _div_range(pairs: Sequence[tuple[int, int]]) -> Optional[tuple[int, int]]:
    """The divisors in ``[2, DIV_MAX_DIVIDEND]`` at which each pair's
    interval for b meets the first pair's, as ``(lo, hi)``, or None when
    there is none.

    With dx = x - x0 and dy = y - y0, the two intervals meet iff
    |d*dy - dx| <= d - 1, that is d*(dy - 1) <= dx - 1 and
    d*(-dy - 1) <= -dx - 1. Each inequality d*a <= c keeps a half-line of
    d, every d or none."""
    (x0, y0), lo, hi = pairs[0], 2, DIV_MAX_DIVIDEND
    for x, y in pairs[1:]:
        dx, dy = x - x0, y - y0
        for a, c in ((dy - 1, dx - 1), (-dy - 1, -dx - 1)):
            if a > 0:
                hi = min(hi, c // a)
            elif a < 0:
                lo = max(lo, -(c // -a))
            elif c < 0:
                return None
        if lo > hi:
            return None
    return lo, hi


def solve_div(pairs: Sequence[tuple[int, int]]) -> Optional[FeatureInstance]:
    """Fit y = floor((x + b) / d) by interval intersection over b for each d.

    Each pair constrains b to [d*y - x, d*y - x + d - 1]. The smallest d
    whose intersection holds a b in the 64-bit range wins, with the smallest
    such b: the smallest feasible b, raised to -2**63 if it is below. It runs
    over ``_div_range`` only: a divisor outside it leaves some pair's
    interval disjoint from the first pair's, so the winner is the same as
    over every d in [2, DIV_MAX_DIVIDEND]. Bounds only tighten, so a divisor
    is dropped at its first empty intersection.
    """
    if len(pairs) < 2:
        return None
    bounds = _div_range(pairs)
    if bounds is None:
        return None
    (x0, y0), rest = pairs[0], pairs[1:]
    for d in range(bounds[0], bounds[1] + 1):
        lo = d * y0 - x0
        hi = lo + d - 1
        for x, y in rest:
            plo = d * y - x
            if plo > lo:
                lo = plo
            if plo + d - 1 < hi:
                hi = plo + d - 1
            if lo > hi:
                break
        else:
            b = max(lo, I64_MIN)
            inst = _instance(div, b, d) if b <= hi else None
            if inst is not None:
                return inst
    return None


def solve_mod(pairs: Sequence[tuple[int, int]]) -> Optional[FeatureInstance]:
    """Fit y = (x + b1) mod d + b2 with d in [2, 10], b1 in [0, d); a b2
    outside the 64-bit range is no fit, and the scan moves to the next b1.

    Every output lies in [b2, b2 + d - 1], so no d below the outputs' span
    plus one fits: the scan starts there, and there is none when that is
    above 10."""
    if len(pairs) < 2:
        return None
    (x1, y1), rest = pairs[0], pairs[1:]
    ys = [y for _, y in pairs]
    for d in range(max(2, max(ys) - min(ys) + 1), 11):
        for b1 in range(d):
            b2 = y1 - (x1 + b1) % d
            # The pairs are tested inline; an instance is built only for a
            # fit, and ``_fits`` then rejects a value out of the 64-bit range.
            for x, y in rest:
                if (x + b1) % d + b2 != y:
                    break
            else:
                inst = _instance(mod, b1, b2, d)
                if inst is not None and _fits(inst, pairs):
                    return inst
    return None


# ---------------------------------------------------------------------------
# String solvers.


def _token_classes(texts: Sequence[str]) -> list[TokenClass]:
    """The base classes, then one Punct class per punctuation char in ``texts``."""
    chars = sorted({c for s in texts for c in s if not c.isalnum() and c not in " \t"})
    return list(BASE_TOKEN_CLASSES) + [TokenClass("Punct", c) for c in chars]


def _extractions(classes: Sequence[TokenClass], texts: Sequence[str]):
    """Yield ``(spec, [extract(spec, t) for t in texts])`` for every extract
    spec that matches on every text: fewer tokens first, then token
    sequences in ``classes`` order by prefix, then occurrence order 1, 2,
    ..., then -1, -2, ... Adjacent equal tokens can never match a
    maximal-run sequence and are skipped.

    A match of ``(t1..tL)`` starts with a match of ``(t1..tL-1)`` at the
    same position and contains, where ``t2`` starts, a match of
    ``(t2..tL)``. So a sequence with no match on some text has no extension
    with one on either side, and only the sequences of length L - 1 that
    matched on every text are live. A sequence of length L is scanned only
    when its prefix and its suffix are both live. A scan reads the texts in
    order and stops at the first one the sequence does not match, so a dead
    sequence costs one text for each text it matched, plus one. Occurrence
    k exists on every text when it exists on the one with the fewest
    matches, so the occurrences are read from that count."""
    live = [()]
    for _ in range(MAX_TOKENS):
        alive = set(live)
        grown = []
        for prefix in live:
            for c in classes:
                if prefix and c is prefix[-1]:
                    continue
                tokens = prefix + (c,)
                if tokens[1:] not in alive:
                    continue
                findall = _compiled(tokens).findall
                found = []
                for t in texts:
                    matches = findall(t)
                    if not matches:
                        break
                    found.append(matches)
                if len(found) < len(texts):
                    continue
                grown.append(tokens)
                k = min([MAX_OCCURRENCE, *map(len, found)])
                for occ in range(1, k + 1):
                    yield ExtractSpec(tokens, occ), [m[occ - 1] for m in found]
                for occ in range(1, k + 1):
                    yield ExtractSpec(tokens, -occ), [m[-occ] for m in found]
        live = grown


def _column_extractions(texts: tuple[str, ...], memo: dict) -> list:
    """The ``_extractions`` of one column's texts, over the column's own
    token classes, read from ``memo`` (keyed by the texts) or enumerated
    into it. A Punct class taken from another column matches none of these
    texts, so it is never yielded or grown: the list depends on the texts
    alone, and every solver call over the same column can share it."""
    found = memo.get(texts)
    if found is None:
        found = memo[texts] = list(_extractions(_token_classes(texts), texts))
    return found


def solve_substring(pairs: Sequence[tuple[str, str]],
                    extractions: Optional[dict] = None) -> Optional[FeatureInstance]:
    """Find one extract spec reproducing every (input, output) pair.

    ``extractions`` is the memo of each column's extract specs that one
    search shares between its string solver calls (``_column_extractions``);
    a call without one starts a fresh memo."""
    if not pairs or any(not y for _, y in pairs):
        return None
    # Extraction only returns substrings; quick reject saves enumeration.
    if any(y not in x for x, y in pairs):
        return None
    inputs = tuple(x for x, _ in pairs)
    outputs = [y for _, y in pairs]
    memo = {} if extractions is None else extractions
    for spec, results in _column_extractions(inputs, memo):
        if results == outputs:
            return substring(spec)
    return None


def solve_concat(rows: Sequence[tuple[tuple[str, ...], str]],
                 extractions: Optional[dict] = None) -> Optional[FeatureInstance]:
    """Find a concat program (extract and literal segments) reproducing every
    (inputs, output) row. Ranks programs by literal characters, then by
    segment count, so an extract-only program beats a shorter one with a
    literal; at equal rank, extract segments are tried first.
    ``extractions`` is as for ``solve_substring``.

    A search state is each row's position in its output. An extract move
    from it must place its first row's result at the first row's
    position, so the usable pieces are indexed by every offset where that
    result occurs in the first output, and a state reads only its own
    offset's pieces, checking the other rows with ``startswith``. A
    literal fits exactly when it is a prefix of every row's remaining
    output, so the literal moves are the prefixes of the rows' longest
    common one, capped at ``MAX_LITERAL_LEN``."""
    # Every segment yields a non-empty string, so no program has an empty
    # output.
    if not rows or any(not out for _, out in rows):
        return None
    n_inputs = len(rows[0][0])
    if any(len(ins) != n_inputs for ins, _ in rows):
        return None
    outs = [out for _, out in rows]
    memo = {} if extractions is None else extractions

    # A usable segment must extract on every row and the result must occur
    # in that row's output, otherwise it can never be placed. It is filed
    # under each offset where its first row's result occurs in the first
    # output, overlapping occurrences included, in piece order.
    out0 = outs[0]
    at_offset: dict[int, list] = {}
    for pos in range(n_inputs):
        for spec, results in _column_extractions(
                tuple(ins[pos] for ins, _ in rows), memo):
            if all(r in out for r, out in zip(results, outs)):
                piece = (ExtractSegment(pos, spec), results)
                i = out0.find(results[0])
                while i >= 0:
                    at_offset.setdefault(i, []).append(piece)
                    i = out0.find(results[0], i + 1)

    def moves(positions: tuple[int, ...]):
        # Extract moves carry zero literal cost and are explored first; only
        # the pieces filed under the first row's position can fit.
        for seg, results in at_offset.get(positions[0], ()):
            nxt = []
            for p, out, r in zip(positions, outs, results):
                if not out.startswith(r, p):
                    break
                nxt.append(p + len(r))
            else:
                yield seg, tuple(nxt), 0
        # Literal moves: every prefix of the rows' common remaining prefix,
        # longest first.
        common = os.path.commonprefix(
            [out[p:p + MAX_LITERAL_LEN] for out, p in zip(outs, positions)])
        for length in range(len(common), 0, -1):
            yield (LiteralSegment(common[:length]),
                   tuple(p + length for p in positions), length)

    goal = tuple(len(out) for out in outs)
    start = tuple(0 for _ in outs)

    # Uniform-cost search minimizing (total literal characters, segment
    # count): extracts are preferred to literals even when a single long
    # literal would cover the whole output.
    counter = 0
    frontier = [(0, 0, 0, start, ())]
    best: dict[tuple[int, ...], tuple[int, int]] = {start: (0, 0)}
    while frontier:
        lit_cost, n_segs, _, positions, segs = heapq.heappop(frontier)
        if positions == goal:
            return concat(ConcatProgram(segs))
        if best.get(positions, (lit_cost, n_segs)) < (lit_cost, n_segs):
            continue
        if n_segs == MAX_SEGMENTS:
            continue
        for seg, nxt, step_cost in moves(positions):
            cost = (lit_cost + step_cost, n_segs + 1)
            if nxt in best and best[nxt] <= cost:
                continue
            best[nxt] = cost
            counter += 1
            heapq.heappush(frontier, cost + (counter, nxt, segs + (seg,)))
    return None
