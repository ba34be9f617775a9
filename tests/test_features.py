"""Value features: semantics frozen against hand-computed oracles, plus
randomized solver-recovery checks."""

from __future__ import annotations

import copy
import hashlib
import itertools
import pickle
import random

import pytest
from hypothesis import example, given, strategies as st

import tablesynth.features as features
from tablesynth.errors import FeatureMissError, IntRangeError, SchemaError
from tablesynth.features import (
    BASE_TOKEN_CLASSES,
    MAX_OCCURRENCE,
    MAX_TOKENS,
    ConcatProgram,
    ExtractSegment,
    ExtractSpec,
    FeatureFamily,
    FeatureInstance,
    LiteralSegment,
    TokenClass,
    apply_feature,
    concat,
    div,
    enumerate_feature_families,
    extract,
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
    _extractions,
    _token_classes,
)
from tablesynth.progtext import format_feature
from tablesynth.table import ColumnType

ALNUM = TokenClass("Alnum")
DIGITS = TokenClass("Digits")
ALPHA = TokenClass("Alpha")


# -- application semantics ---------------------------------------------------

def test_linear_apply():
    f = linear(-5, -25)
    assert apply_feature(f, (1,)) == -30
    assert apply_feature(f, (3,)) == -40
    g = linear(5, 20)
    assert apply_feature(g, (2,)) == 30
    assert apply_feature(g, (4,)) == 40


def test_div_floors_toward_negative_infinity():
    f = div(0, 2)
    assert apply_feature(f, (5,)) == 2
    assert apply_feature(f, (-5,)) == -3
    assert apply_feature(div(1, 3), (-1,)) == 0


def test_mod_semantics_and_bounds():
    f = mod(1, 10, 3)  # (x + 1) mod 3 + 10
    assert apply_feature(f, (5,)) == 10
    assert apply_feature(f, (-1,)) == 10
    assert apply_feature(f, (1,)) == 12
    with pytest.raises(SchemaError):
        mod(3, 0, 3)  # b1 out of [0, d)
    with pytest.raises(SchemaError):
        mod(0, 0, 11)  # d out of [2, 10]


def test_sum_apply():
    assert apply_feature(sum_feature(-2), (10, 5)) == 13


def test_extract_maximal_runs():
    spec = ExtractSpec((ALNUM,), 1)
    assert extract(spec, "tiktok.jpg") == "tiktok"
    assert extract(ExtractSpec((ALNUM,), 2), "tiktok.jpg") == "jpg"
    assert extract(ExtractSpec((ALNUM,), -1), "tiktok.jpg") == "jpg"
    assert extract(ExtractSpec((DIGITS,), 1), "a12b345") == "12"
    assert extract(ExtractSpec((DIGITS,), -2), "a12b345") == "12"
    with pytest.raises(FeatureMissError):
        extract(ExtractSpec((DIGITS,), 3), "a12b345")
    with pytest.raises(FeatureMissError):
        extract(ExtractSpec((DIGITS,), -3), "a12b345")


def test_concat_program_run():
    prog = ConcatProgram((
        ExtractSegment(0, ExtractSpec((ALNUM,), 1)),
        LiteralSegment("-"),
        ExtractSegment(1, ExtractSpec((DIGITS,), 1)),
    ))
    assert apply_feature(concat(prog), ("report.txt", "year 2021")) == "report-2021"


def test_arity_and_types():
    assert linear(1, 0).arity == 1
    assert sum_feature(0).arity == 2
    prog = ConcatProgram((ExtractSegment(2, ExtractSpec((ALNUM,), 1)),))
    assert concat(prog).arity == 3
    assert concat(prog).in_type is concat(prog).out_type is ColumnType.STR
    assert sum_feature(0).in_type is ColumnType.INT
    # A fixed-count family rejects any other count, never unpacking blindly.
    with pytest.raises(SchemaError):
        apply_feature(linear(1, 0), (1, 2))
    with pytest.raises(SchemaError):
        apply_feature(sum_feature(0), (1,))


# -- notation ----------------------------------------------------------------

def test_feature_notation():
    assert format_feature(linear(-5, -25)) == "linear(-5,-25)"
    assert format_feature(mod(0, 0, 2)) == "mod(0,0,2)"
    assert format_feature(substring(ExtractSpec((ALNUM,), 1))) == "substring{Alnum#1}"
    prog = ConcatProgram((
        ExtractSegment(0, ExtractSpec((ALNUM,), 1)),
        LiteralSegment("-"),
        ExtractSegment(1, ExtractSpec((DIGITS,), 1)),
    ))
    assert format_feature(concat(prog)) == 'concat[x0{Alnum#1} "-" x1{Digits#1}]'


# -- solvers on worked examples ---------------------------------------------

def test_solve_linear_worked_example():
    assert solve_linear([(1, -30), (3, -40)]) == linear(-5, -25)
    assert solve_linear([(2, 30), (4, 40)]) == linear(5, 20)
    assert solve_linear([(1, 0), (2, 1), (3, 9)]) is None
    assert solve_linear([(1, 5)]) is None  # one distinct x is ambiguous
    assert solve_linear([(2, 5), (4, 10)]) is None  # non-integer slope
    # a = 2**62 fits the first two pairs; 3 * 2**62 is out of range.
    assert solve_linear([(0, 0), (1, 2**62), (3, 0)]) is None


def test_solve_div_worked_example():
    f = solve_div([(4, 2), (5, 2), (6, 3)])
    assert f is not None
    assert f.params == (0, 2)
    assert solve_div([(1, 100), (2, -100)]) is None


def test_solve_mod_worked_example():
    f = solve_mod([(1, 1), (2, 0), (3, 1), (4, 0)])
    assert f is not None
    assert all(apply_feature(f, (x,)) == x % 2 for x in range(1, 5))
    assert solve_mod([(1, 1), (2, 50)]) is None
    # d = 2, b1 = 0 gives b2 = 2**63 - 1, so x = 1 maps out of range.
    assert solve_mod([(0, 2**63 - 1), (1, 0)]) is None


def test_solve_sum_worked_example():
    assert solve_sum([(10, 5, 13), (2, 2, 2)]) == sum_feature(-2)
    assert solve_sum([(1, 1, 3), (2, 2, 2)]) is None
    assert solve_sum([(0, 0, 0), (2**62, 2**62, 0)]) is None  # out of range


def test_solve_substring_prefers_alnum():
    f = solve_substring([("tiktok.jpg", "tiktok")])
    assert f is not None
    assert str(f.params[0]) == "{Alnum#1}"
    assert solve_substring([("abc", "zzz")]) is None


def test_solve_substring_multi_row():
    f = solve_substring([("a-12", "12"), ("b-345", "345")])
    assert f is not None
    assert apply_feature(f, ("x-9",)) == "9"


def test_solve_concat_worked_example():
    f = solve_concat([(("report.txt", "year 2021"), "report-2021")])
    assert f is not None
    assert format_feature(f) == 'concat[x0{Alnum#1} "-" x1{Digits#1}]'


def test_solve_concat_prefers_extracts_over_literals():
    # A single literal would cover the output; extraction must win.
    f = solve_concat([(("report",), "report")])
    assert f is not None
    assert format_feature(f) == "concat[x0{Alnum#1}]"


def test_solve_concat_infeasible():
    # Beyond max_segments * max_literal_len with nothing to extract.
    assert solve_concat([(("abc",), "xyz" * 50)]) is None
    # Every segment yields a non-empty string, so no program fits an empty
    # output.
    assert solve_concat([(("a",), "")]) is None
    assert solve_concat([(("a",), ""), (("b",), "")]) is None


def _string_problems(seed: int, n: int) -> list:
    """Problems as lists of ``(inputs, output)`` rows, most outputs drawn from
    a random extract/literal program: even problems have one input per row
    and a single extraction, odd ones one or two inputs and up to three
    segments."""
    rng = random.Random(seed)
    classes = list(BASE_TOKEN_CLASSES) + [TokenClass("Punct", c) for c in ".-_"]

    def text():
        return "".join(rng.choice("abcXY0129 .-_") for _ in range(rng.randint(4, 12)))

    def spec():
        tokens = tuple(rng.choice(classes) for _ in range(rng.randint(1, 2)))
        return ExtractSpec(tokens, rng.choice((1, 2, 3, -1, -2, -3)))

    def value(segs, ins):
        try:
            return "".join(s if isinstance(s, str) else extract(s[1], ins[s[0]])
                           for s in segs)
        except FeatureMissError:
            return None

    problems = []
    for i in range(n):
        width = 1 if i % 2 == 0 else rng.randint(1, 2)
        segs = [(rng.randrange(width), spec())]
        if i % 2:
            segs += [rng.choice("-_.") if rng.random() < 0.4
                     else (rng.randrange(width), spec())
                     for _ in range(rng.randint(0, 2))]
        rows = []
        for _ in range(rng.randint(1, 3)):
            for _ in range(20):
                ins = tuple(text() for _ in range(width))
                out = value(segs, ins)
                if out is not None:
                    break
            else:  # an unrelated slice: a row the program cannot explain
                i0 = rng.randrange(len(ins[0]))
                out = ins[0][i0:rng.randint(i0 + 1, len(ins[0]))]
            rows.append((ins, out))
        problems.append(rows)
    return problems


def test_string_solver_results_pinned():
    # Tie-breaking is part of the solvers' contract: this digest of every
    # returned instance (hits and misses) must not move under a refactor.
    found = []
    for i, rows in enumerate(_string_problems(11, 100)):
        if i % 2 == 0:
            f = solve_substring([(ins[0], y) for ins, y in rows])
        else:
            f = solve_concat(rows)
        found.append(format_feature(f) if f else "-")
    assert sum(f != "-" for f in found) == 59
    digest = hashlib.sha256("\n".join(found).encode()).hexdigest()[:16]
    assert digest == "d3efcf46b87d4ddb"


def _extractions_unpruned(classes, texts):
    """Reference enumeration: every token sequence up to ``MAX_TOKENS``
    without adjacent equal tokens is scanned, live prefix or not."""
    occs = [*range(1, MAX_OCCURRENCE + 1), *range(-1, -MAX_OCCURRENCE - 1, -1)]
    for length in range(1, MAX_TOKENS + 1):
        for tokens in itertools.product(classes, repeat=length):
            if any(a == b for a, b in zip(tokens, tokens[1:])):
                continue
            pattern = features._compiled(tokens)
            found = [pattern.findall(t) for t in texts]
            if not all(found):
                continue
            for occ in occs:
                results = [features._pick(m, occ) for m in found]
                if None not in results:
                    yield ExtractSpec(tokens, occ), results


@given(st.lists(st.text("aZ9 ._", max_size=8), max_size=3))
def test_extractions_match_the_unpruned_enumeration(texts):
    classes = _token_classes(texts)
    assert (list(_extractions(classes, texts))
            == list(_extractions_unpruned(classes, texts)))


#: Per column, the characters of its texts: each column has punctuation
#: that another lacks.
_COLUMN_ALPHABETS = ("aZ9 ._", "bY8-/", "cX7 :_")


@given(st.integers(2, 3).flatmap(lambda n: st.lists(
    st.tuples(*(st.text(a, max_size=8) for a in _COLUMN_ALPHABETS[:n])),
    min_size=1, max_size=3)))
def test_a_columns_extractions_depend_on_its_texts_alone(rows):
    # The string solvers share one column's extractions between calls over
    # different column sets: a Punct class of another column adds nothing.
    every = _token_classes([x for row in rows for x in row])
    for texts in zip(*rows):
        assert (list(_extractions(every, texts))
                == list(_extractions(_token_classes(texts), texts)))


def test_extractions_never_scan_a_dead_prefix(monkeypatch):
    # No Upper or Whitespace run in either text: every sequence that starts
    # with one is dead, and so is each of its extensions.
    texts = ["report12.pdf", "notes7-a.txt"]
    compiled = features._compiled
    scanned = []

    def counting(tokens):
        scanned.append(tokens)
        return compiled(tokens)

    monkeypatch.setattr(features, "_compiled", counting)
    assert list(_extractions(_token_classes(texts), texts))
    assert max(map(len, scanned)) == MAX_TOKENS
    # Every sequence scanned has a live prefix and a live suffix. Growing
    # from live prefixes alone scans 85.
    assert len(scanned) == 34
    for tokens in scanned:
        for part in tokens[:-1], tokens[1:]:
            assert not part or all(compiled(part).search(t) for t in texts), \
                tokens


# -- token classes -----------------------------------------------------------

def test_token_class_is_one_object_per_kind_and_char():
    lower = TokenClass("Lower")
    assert TokenClass("Lower") is lower and TokenClass("Lower", "") is lower
    assert TokenClass("Punct", ".") is TokenClass("Punct", ".")
    assert TokenClass("Punct", ".") != TokenClass("Punct", "-")
    assert lower != TokenClass("Upper")
    assert TokenClass.__hash__ is object.__hash__
    assert repr(lower) == "TokenClass(kind='Lower', char='')"
    assert repr(TokenClass("Punct", ".")) == "TokenClass(kind='Punct', char='.')"
    with pytest.raises(TypeError):
        lower < TokenClass("Upper")
    # Copies of a spec hold the live token classes.
    dot = TokenClass("Punct", ".")
    spec = ExtractSpec((ALNUM, dot), -1)
    assert pickle.loads(pickle.dumps(spec)).tokens[1] is dot
    assert copy.deepcopy(spec) == spec


def test_token_class_is_checked_by_its_pattern():
    for bad in TokenClass("Bogus"), TokenClass("Punct"), TokenClass("Punct", "ab"):
        with pytest.raises(SchemaError):
            bad.pattern()


# -- randomized recovery -----------------------------------------------------

@given(st.integers(-9, 9), st.integers(-40, 40),
       st.lists(st.integers(-30, 30), min_size=2, max_size=5, unique=True))
def test_solve_linear_recovers(a, b, xs):
    truth = linear(a, b)
    pairs = [(x, apply_feature(truth, (x,))) for x in xs]
    f = solve_linear(pairs)
    assert f == truth


@given(st.integers(2, 10), st.integers(0, 9), st.integers(-20, 20),
       st.lists(st.integers(-30, 30), min_size=4, max_size=8, unique=True))
def test_solve_mod_is_consistent(d, b1, b2, xs):
    b1 = b1 % d
    truth = mod(b1, b2, d)
    pairs = [(x, apply_feature(truth, (x,))) for x in xs]
    f = solve_mod(pairs)
    assert f is not None
    assert all(apply_feature(f, (x,)) == y for x, y in pairs)


def test_solve_div_is_consistent_randomized():
    rng = random.Random(7)
    for _ in range(100):
        d = rng.randint(2, 100)
        b = rng.randint(-50, 50)
        truth = div(b, d)
        xs = rng.sample(range(-200, 200), 5)
        pairs = [(x, apply_feature(truth, (x,))) for x in xs]
        f = solve_div(pairs)
        assert f is not None
        assert all(apply_feature(f, (x,)) == y for x, y in pairs)


# -- integer solvers against their plain definitions -------------------------

def _div_interval(pairs, d):
    """The interval ``(lo, hi)`` of offsets b that fit every pair at divisor
    ``d``; empty when ``lo > hi``."""
    lo, hi = None, None
    for x, y in pairs:
        plo = d * y - x
        phi = plo + d - 1
        lo = plo if lo is None else max(lo, plo)
        hi = phi if hi is None else min(hi, phi)
    return lo, hi


def _solve_div_reference(pairs):
    """``solve_div`` without the early exit: every pair narrows every
    divisor's interval before the interval is tested. A divisor fits with
    its smallest offset from -2**63 up; one whose offsets ``div`` rejects
    as out of range fits nothing."""
    if len(pairs) < 2:
        return None
    for d in range(2, features.DIV_MAX_DIVIDEND + 1):
        lo, hi = _div_interval(pairs, d)
        lo = max(lo, -2**63)
        if lo <= hi:
            try:
                return div(lo, d)
            except IntRangeError:
                continue
    return None


def _solve_mod_reference(pairs):
    """``solve_mod`` without the inline test: an instance per candidate,
    checked by ``_fits``. A candidate ``mod`` rejects as out of range fits
    nothing."""
    if len(pairs) < 2:
        return None
    x1, y1 = pairs[0]
    for d in range(2, 11):
        for b1 in range(d):
            b2 = y1 - (x1 + b1) % d
            try:
                inst = mod(b1, b2, d)
            except IntRangeError:
                continue
            if features._fits(inst, pairs):
                return inst
    return None


_INT64_EDGES = (-2**63 - 1, -2**63, -2**63 + 1, 2**63 - 2, 2**63 - 1, 2**63)
_INTS = st.one_of(st.integers(-60, 60), st.sampled_from(_INT64_EDGES),
                  st.integers(-2**65, 2**65))


@st.composite
def _int_pairs(draw):
    """0, 1 or many ``(x, y)`` pairs; y is arbitrary or the value of a div or
    mod instance (offsets may sit at the 64-bit bounds), and one y may be
    nudged so that no instance fits."""
    xs = draw(st.lists(st.one_of(st.integers(-60, 60), _INTS), max_size=8))
    kind = draw(st.sampled_from(("free", "div", "mod")))
    if kind == "free":
        ys = [draw(_INTS) for _ in xs]
    elif kind == "div":
        d, b = draw(st.integers(2, 120)), draw(_INTS)
        ys = [(x + b) // d for x in xs]
    else:
        d, b1, b2 = draw(st.integers(2, 12)), draw(st.integers(0, 11)), draw(_INTS)
        ys = [(x + b1) % d + b2 for x in xs]
    if ys and draw(st.booleans()):
        i = draw(st.integers(0, len(ys) - 1))
        ys[i] += draw(st.sampled_from((-1, 1)))
    return list(zip(xs, ys))


@given(_int_pairs())
@example([(1, -2**62), (3, -2**62 + 1)])
def test_solve_div_equals_its_definition(pairs):
    assert solve_div(pairs) == _solve_div_reference(pairs)


@given(_int_pairs())
def test_solve_mod_equals_its_definition(pairs):
    assert solve_mod(pairs) == _solve_mod_reference(pairs)


@given(_int_pairs())
def test_the_divisor_bound_skips_only_divisors_that_fit_no_offset(pairs):
    if len(pairs) < 2:
        return
    bounds = features._div_range(pairs)
    for d in range(2, features.DIV_MAX_DIVIDEND + 1):
        if bounds is None or not bounds[0] <= d <= bounds[1]:
            lo, hi = _div_interval(pairs, d)
            assert lo > hi, d


def test_the_divisor_bound_of_worked_examples():
    # Outputs that fall as x rises admit no divisor.
    assert features._div_range([(1, 5), (2, 4)]) is None
    # Equal inputs need equal outputs.
    assert features._div_range([(3, 1), (3, 2)]) is None
    # y rises by 1 over 10: d*0 <= 9 and d*2 >= 11, so d >= 6.
    assert features._div_range([(0, 0), (10, 1)]) == (6, features.DIV_MAX_DIVIDEND)
    # y rises by 3 over 10: d*2 <= 9 and d*4 >= 11, so 3 <= d <= 4.
    assert features._div_range([(0, 0), (10, 3)]) == (3, 4)
    assert solve_div([(0, 0), (10, 3)]) == div(0, 3)


@pytest.mark.parametrize("d", range(2, 11))
def test_solve_mod_starts_at_the_outputs_span(d):
    # x = 0..d-1 reaches every residue, so the outputs span exactly d - 1
    # and the smallest divisor that fits is d itself.
    pairs = [(x, (x + 1) % d - 5) for x in range(d)]
    f = solve_mod(pairs)
    assert f is not None and f.params[2] == d
    assert all(apply_feature(f, (x,)) == y for x, y in pairs)


def test_solve_mod_rejects_outputs_spanning_more_than_nine():
    assert solve_mod([(0, 0), (1, 10)]) is None
    assert solve_mod([(x, x) for x in range(11)]) is None
    assert solve_mod([(x, x) for x in range(10)]) == mod(0, 0, 10)


def test_solve_mod_rejects_an_out_of_range_output():
    # d = 2, b1 = 0, b2 = 2**63 computes both outputs exactly, but they lie
    # past the 64-bit range, so no instance fits.
    pairs = [(0, 2**63), (1, 2**63 + 1)]
    assert all((x + 0) % 2 + 2**63 == y for x, y in pairs)
    assert solve_mod(pairs) is None
    assert solve_mod([(3, 1), (4, 2), (5, -2**63 - 1)]) is None


@pytest.mark.parametrize("make, params", [
    (linear, (2, 2**63)), (linear, (-2**63 - 1, 0)), (div, (2**63, 2)),
    (div, (0, 2**63)), (mod, (0, -2**63 - 1, 2)), (sum_feature, (2**63,)),
])
def test_int_constructors_reject_parameters_out_of_range(make, params):
    with pytest.raises(IntRangeError):
        make(*params)


def test_solvers_fit_no_instance_with_a_parameter_out_of_range():
    # Each fit's parameter is past 2**63 - 1, though every value is in range.
    assert solve_div([(0, 2**62), (2, 2**62 + 1)]) is None
    assert solve_linear([(-2**62, 2**62), (-2**62 + 1, 2**62 + 2)]) is None
    assert solve_sum([(-2**62, -2**62, 2**62)]) is None
    # At d = 3, b1 = 0 needs b2 = -2**63 - 1; the scan moves on to b1 = 2.
    pairs = [(1, -2**63), (2, -2**63 + 1), (4, -2**63)]
    assert solve_mod(pairs) == mod(2, -2**63, 3)
    # At d = 2 both pairs admit b in [-2**63 - 1, -2**63]: the smallest b is
    # out of range, the next one fits.
    pairs = [(1, -2**62), (3, -2**62 + 1)]
    assert solve_div(pairs) == div(-2**63, 2)
    assert all(apply_feature(div(-2**63, 2), (x,)) == y for x, y in pairs)


@pytest.mark.parametrize("family, fields, error", [
    (FeatureFamily.LINEAR, {"params": (2**70, 0)}, IntRangeError),
    (FeatureFamily.MOD, {"params": (0, -2**63 - 1, 2)}, IntRangeError),
    (FeatureFamily.DIV, {"params": (True, 2)}, SchemaError),
    (FeatureFamily.SUM, {"params": ("1",)}, SchemaError),
    (FeatureFamily.SUBSTRING, {}, SchemaError),
    (FeatureFamily.SUBSTRING, {"params": ("Alpha#1",)}, SchemaError),
    (FeatureFamily.CONCAT, {}, SchemaError),
    # The parameter count and the div and mod divisor and offset rules.
    (FeatureFamily.LINEAR, {}, SchemaError),
    (FeatureFamily.LINEAR, {"params": (1, 2, 3)}, SchemaError),
    (FeatureFamily.SUM, {"params": ()}, SchemaError),
    (FeatureFamily.DIV, {"params": (0, 0)}, SchemaError),
    (FeatureFamily.DIV, {"params": (0, 1)}, SchemaError),
    (FeatureFamily.DIV, {"params": (0,)}, SchemaError),
    (FeatureFamily.MOD, {"params": (0, 0, 0)}, SchemaError),
    (FeatureFamily.MOD, {"params": (0, 0, 11)}, SchemaError),
    (FeatureFamily.MOD, {"params": (2, 0, 2)}, SchemaError),
    (FeatureFamily.MOD, {"params": (-1, 0, 2)}, SchemaError),
    (FeatureFamily.MOD, {"params": (0, 2)}, SchemaError),
    (FeatureFamily.SUBSTRING, {"params": (ExtractSpec((ALPHA,), 1), 1)},
     SchemaError),
    ("linear", {"params": (1, 0)}, SchemaError),
])
def test_feature_instances_are_checked_however_built(family, fields, error):
    # The constructors are one way in; the dataclass is another.
    with pytest.raises(error):
        FeatureInstance(family, **fields)


# -- family enumeration --------------------------------------------------------

INT, STR, ID = ColumnType.INT, ColumnType.STR, ColumnType.ID


@pytest.mark.parametrize("ins, out, families", [
    ((INT,), INT, [FeatureFamily.LINEAR, FeatureFamily.DIV, FeatureFamily.MOD]),
    ((INT, INT), INT, [FeatureFamily.SUM]),
    ((STR,), STR, [FeatureFamily.SUBSTRING, FeatureFamily.CONCAT]),
    ((STR, STR), STR, [FeatureFamily.CONCAT]),
    ((ID,), ID, []),
    ((ID,), STR, []),
    ((STR, ID), STR, []),
    ((INT,), ID, []),
    ((), STR, []),
    ((INT,), STR, []),
    ((INT, INT, INT), INT, []),
])
def test_enumerate_feature_families(ins, out, families):
    # The matcher tries families in exactly this order, so it is pinned.
    assert enumerate_feature_families(ins, out) == families
