"""Value features: semantics frozen against hand-computed oracles, plus
randomized solver-recovery checks."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from tablesynth.errors import FeatureMissError, SchemaError
from tablesynth.features import (
    BASE_TOKEN_CLASSES,
    ConcatProgram,
    ExtractSegment,
    ExtractSpec,
    FeatureFamily,
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


def test_solve_sum_worked_example():
    assert solve_sum([(10, 5, 13), (2, 2, 2)]) == sum_feature(-2)
    assert solve_sum([(1, 1, 3), (2, 2, 2)]) is None


def test_solve_substring_prefers_alnum():
    f = solve_substring([("tiktok.jpg", "tiktok")])
    assert f is not None
    assert str(f.extract_spec) == "{Alnum#1}"
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
