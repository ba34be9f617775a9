"""Higher-order feature families and their parameter solvers.

Six families are supported: linear, div, mod, and sum over integers, and
substring/concat over strings. ``FAMILIES`` is the one definition of each
family's value type, input count, row-wise application and constructor;
the family list of a signature, an instance's types and arity, and the
text parser's constructors derive from it. Each family also has a solver
(a ``solve_*`` function) that instantiates the free parameters from
(input, expected output) pairs. Solvers are deterministic: given the same
pairs they return the same instance, with documented tie-breaking
(smallest dividend, fewest tokens, fewest segments).

Integer semantics: div floors toward minus infinity and mod returns a value
in [0, d), so interpretation and solving agree on negative operands.
"""

from __future__ import annotations

import enum
import heapq
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .errors import FeatureMissError, SchemaError
from .table import ColumnType, Value, check_int


class FeatureFamily(enum.Enum):
    LINEAR = "linear"
    DIV = "div"
    MOD = "mod"
    SUM = "sum"
    SUBSTRING = "substring"
    CONCAT = "concat"


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


@dataclass(frozen=True)
class TokenClass:
    """One character class; ``kind`` is a name or 'Punct' with a single char."""

    kind: str
    char: str = ""

    def pattern(self) -> str:
        base = _TOKEN_PATTERNS.get(self.kind)
        if base is None:
            if self.kind != "Punct" or len(self.char) != 1:
                raise SchemaError(f"bad token class {self!r}")
            base = re.escape(self.char)
        # Maximal run: not extendable by the same class on either side.
        return f"(?:(?<!{base}){base}+(?!{base}))"

    def __str__(self) -> str:
        return f"'{self.char}'" if self.kind == "Punct" else self.kind


_TOKEN_PATTERNS = {
    "Digits": "[0-9]",
    "Lower": "[a-z]",
    "Upper": "[A-Z]",
    "Alpha": "[A-Za-z]",
    "Alnum": "[A-Za-z0-9]",
    "Whitespace": r"[ \t]",
}

DIGITS = TokenClass("Digits")
LOWER = TokenClass("Lower")
UPPER = TokenClass("Upper")
ALPHA = TokenClass("Alpha")
ALNUM = TokenClass("Alnum")
WHITESPACE = TokenClass("Whitespace")

# Ranking order: specific numeric runs first, then the broad alphanumeric
# class, then alphabetic subclasses. Earlier classes win ties in solvers.
BASE_TOKEN_CLASSES = (DIGITS, ALNUM, ALPHA, LOWER, UPPER, WHITESPACE)


@dataclass(frozen=True)
class ExtractSpec:
    """k-th maximal match of a token sequence; negative k counts from the end."""

    tokens: tuple[TokenClass, ...]
    occurrence: int

    def __post_init__(self):
        if not self.tokens:
            raise SchemaError("empty token sequence")
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
    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise SchemaError("empty concat program")

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


@dataclass(frozen=True)
class FeatureInstance:
    """A fully instantiated feature: family plus family-specific parameters."""

    family: FeatureFamily
    params: tuple = ()
    extract_spec: Optional[ExtractSpec] = None
    concat: Optional[ConcatProgram] = None

    @property
    def arity(self) -> int:
        """The family's input count; for concat, the highest segment
        position + 1."""
        count = FAMILIES[self.family][1]
        if count is not None:
            return count
        return 1 + max((s.input_pos for s in self.concat.segments
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
    if d < 2:
        raise SchemaError("div dividend must be >= 2")
    return FeatureInstance(FeatureFamily.DIV, (b, d))


def mod(b1: int, b2: int, d: int) -> FeatureInstance:
    if not 2 <= d <= 10:
        raise SchemaError("mod dividend must be in [2, 10]")
    if not 0 <= b1 < d:
        raise SchemaError("mod offset b1 must be in [0, d)")
    return FeatureInstance(FeatureFamily.MOD, (b1, b2, d))


def sum_feature(b: int) -> FeatureInstance:
    return FeatureInstance(FeatureFamily.SUM, (b,))


def substring(spec: ExtractSpec) -> FeatureInstance:
    return FeatureInstance(FeatureFamily.SUBSTRING, extract_spec=spec)


def concat(program: ConcatProgram) -> FeatureInstance:
    return FeatureInstance(FeatureFamily.CONCAT, concat=program)


#: family -> (value type, input count or None for any count, row function,
#: constructor). Inputs and output share the value type. The row function
#: takes the instance, then one row's input values.
FAMILIES = {
    FeatureFamily.LINEAR: (
        ColumnType.INT, 1,
        lambda f, x: check_int(f.params[0] * x + f.params[1]), linear),
    FeatureFamily.DIV: (
        ColumnType.INT, 1,
        lambda f, x: check_int((x + f.params[0]) // f.params[1]), div),
    FeatureFamily.MOD: (
        ColumnType.INT, 1,
        lambda f, x: check_int((x + f.params[0]) % f.params[2] + f.params[1]), mod),
    FeatureFamily.SUM: (
        ColumnType.INT, 2,
        lambda f, x, y: check_int(x + y + f.params[0]), sum_feature),
    FeatureFamily.SUBSTRING: (
        ColumnType.STR, 1,
        lambda f, x: extract(f.extract_spec, x), substring),
    FeatureFamily.CONCAT: (
        ColumnType.STR, None,
        lambda f, *xs: f.concat.run(xs), concat),
}


def apply_feature(f: FeatureInstance, args: Sequence[Value]) -> Value:
    """Row-wise application; raises SchemaError on a wrong input count and
    FeatureMissError on extraction misses."""
    _, count, row, _ = FAMILIES[f.family]
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
    inst = linear(a, b)
    if all(apply_feature(inst, (x,)) == y for x, y in pairs):
        return inst
    return None


def solve_sum(triples: Sequence[tuple[int, int, int]]) -> Optional[FeatureInstance]:
    """Fit out = x + y + b."""
    if not triples:
        return None
    x0, y0, out0 = triples[0]
    b = out0 - x0 - y0
    inst = sum_feature(b)
    if all(apply_feature(inst, (x, y)) == out for x, y, out in triples):
        return inst
    return None


def solve_div(pairs: Sequence[tuple[int, int]]) -> Optional[FeatureInstance]:
    """Fit y = floor((x + b) / d) by interval intersection over b for each d.

    Each pair constrains b to [d*y - x, d*y - x + d - 1]. The first nonempty
    intersection (smallest d, then smallest feasible b) wins.
    """
    if len(pairs) < 2:
        return None
    for d in range(2, DIV_MAX_DIVIDEND + 1):
        lo, hi = None, None
        for x, y in pairs:
            plo = d * y - x
            phi = plo + d - 1
            lo = plo if lo is None else max(lo, plo)
            hi = phi if hi is None else min(hi, phi)
        if lo <= hi:
            return div(lo, d)
    return None


def solve_mod(pairs: Sequence[tuple[int, int]]) -> Optional[FeatureInstance]:
    """Fit y = (x + b1) mod d + b2 with d in [2, 10], b1 in [0, d)."""
    if len(pairs) < 2:
        return None
    x1, y1 = pairs[0]
    for d in range(2, 11):
        for b1 in range(d):
            b2 = y1 - (x1 + b1) % d
            inst = mod(b1, b2, d)
            if all(apply_feature(inst, (x,)) == y for x, y in pairs):
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
    spec that matches on every text: fewer tokens first, then occurrence
    order 1, 2, ..., then -1, -2, ... Each token sequence scans each text
    once. Adjacent equal tokens can never match a maximal-run sequence and
    are skipped."""
    occs = list(range(1, MAX_OCCURRENCE + 1)) + [
        -k for k in range(1, MAX_OCCURRENCE + 1)
    ]

    def sequences(length: int):
        if length == 1:
            for c in classes:
                yield (c,)
            return
        for prefix in sequences(length - 1):
            for c in classes:
                if c != prefix[-1]:
                    yield prefix + (c,)

    for length in range(1, MAX_TOKENS + 1):
        for tokens in sequences(length):
            pattern = _compiled(tokens)
            found = [pattern.findall(t) for t in texts]
            if not all(found):
                continue
            for occ in occs:
                results = [_pick(matches, occ) for matches in found]
                if None not in results:
                    yield ExtractSpec(tokens, occ), results


def solve_substring(pairs: Sequence[tuple[str, str]]) -> Optional[FeatureInstance]:
    """Find one extract spec reproducing every (input, output) pair."""
    if not pairs or any(not y for _, y in pairs):
        return None
    # Extraction only returns substrings; quick reject saves enumeration.
    if any(y not in x for x, y in pairs):
        return None
    inputs = [x for x, _ in pairs]
    outputs = [y for _, y in pairs]
    for spec, results in _extractions(_token_classes(inputs), inputs):
        if results == outputs:
            return substring(spec)
    return None


def solve_concat(rows: Sequence[tuple[tuple[str, ...], str]]) -> Optional[FeatureInstance]:
    """Find a concat program (extract and literal segments) reproducing every
    (inputs, output) row. Searches by increasing segment count; at equal
    count, extract segments are preferred over literals."""
    if not rows:
        return None
    n_inputs = len(rows[0][0])
    if any(len(ins) != n_inputs for ins, _ in rows):
        return None
    classes = _token_classes([x for ins, _ in rows for x in ins])
    outs = [out for _, out in rows]

    # A usable segment must extract on every row and the result must occur
    # in that row's output, otherwise it can never be placed.
    pieces = [
        (ExtractSegment(pos, spec), results)
        for pos in range(n_inputs)
        for spec, results in _extractions(classes, [ins[pos] for ins, _ in rows])
        if all(r in out for r, out in zip(results, outs))
    ]

    def moves(positions: tuple[int, ...]):
        # Extract moves carry zero literal cost and are explored first.
        for seg, results in pieces:
            nxt = []
            for p, out, r in zip(positions, outs, results):
                if not out.startswith(r, p):
                    break
                nxt.append(p + len(r))
            else:
                yield seg, tuple(nxt), 0
        # Literal moves: common across rows by construction.
        remaining0 = outs[0][positions[0]:]
        limit = min(len(remaining0), MAX_LITERAL_LEN)
        for length in range(limit, 0, -1):
            lit = remaining0[:length]
            if all(out.startswith(lit, p) for out, p in zip(outs, positions)):
                yield LiteralSegment(lit), tuple(p + length for p in positions), length

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
