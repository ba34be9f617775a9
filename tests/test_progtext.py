"""Program text notation: formatting oracles and parse round trips."""

from __future__ import annotations

import pytest

from tablesynth.dsl import (
    PREDICATE_SYMBOLS,
    ColP,
    ConstP,
    Filter,
    GroupJoin,
    Join,
    MutateP,
    Not,
    Or,
    Order,
    Program,
    SymbolApp,
    Yield,
)
from tablesynth.errors import ProgramParseError
from tablesynth.features import (
    ConcatProgram,
    ExtractSegment,
    ExtractSpec,
    FeatureFamily,
    LiteralSegment,
    TokenClass,
    concat,
    div,
    linear,
    mod,
    substring,
    sum_feature,
)
from tablesynth.progtext import (
    format_feature,
    format_predicate,
    format_program,
    parse_feature,
    parse_predicate,
    parse_program,
)
from tablesynth.table import ColumnType

RUNNING_TEXT = """t1 = Filter(ti, isOdd(frame));
t2 = Filter(ti, isEven(frame));
Yield("shift", t1, id, "GB", linear(-5,-25)(frame), linear(-5,-25)(frame));
Yield("shift", t2, id, "GB", linear(5,20)(frame), linear(5,20)(frame));
"""


def test_format_running_example():
    prog = Program(
        (Filter("t1", "ti", SymbolApp("IsOdd", "frame")),
         Filter("t2", "ti", SymbolApp("IsEven", "frame"))),
        (Yield("t1", (ConstP("shift"), ColP("id"), ConstP("GB"),
                      MutateP(linear(-5, -25), ("frame",)),
                      MutateP(linear(-5, -25), ("frame",)))),
         Yield("t2", (ConstP("shift"), ColP("id"), ConstP("GB"),
                      MutateP(linear(5, 20), ("frame",)),
                      MutateP(linear(5, 20), ("frame",))))),
    )
    assert format_program(prog) == RUNNING_TEXT


def test_parse_round_trip_running_example():
    prog = parse_program(RUNNING_TEXT)
    assert format_program(prog) == RUNNING_TEXT


def test_round_trip_all_statement_kinds():
    text = (
        't1 = Join(a, b, id, owner);\n'
        't2 = GroupJoin(t1, g, max(v), cnt(g));\n'
        't3 = Order(t2, v, 0, false, g);\n'
        't4 = Filter(t3, and(intLt(v, 3), not(strEq(s, "x"))));\n'
        'Yield("act", t4, id:e1, sum(-2)(a, b), "lit", 7);\n'
    )
    prog = parse_program(text)
    assert format_program(prog) == text
    assert isinstance(prog.transform[0], Join)
    assert isinstance(prog.transform[1], GroupJoin)
    assert isinstance(prog.transform[2], Order)
    assert isinstance(prog.transform[3], Filter)


def test_predicate_round_trip():
    p = Or(SymbolApp("IsSubstring", "name", "pdf"),
           Not(SymbolApp("IntEq", "n", 4)))
    text = format_predicate(p)
    assert text == 'or(isSubstring(name, "pdf"), not(intEq(n, 4)))'
    assert format_predicate(parse_predicate(text)) == text


def test_feature_round_trip():
    for f in (linear(3, -7), mod(1, -4, 5),
              substring(ExtractSpec((TokenClass("Digits"),), -2)),
              concat(ConcatProgram((
                  ExtractSegment(0, ExtractSpec((TokenClass("Alnum"),), 1)),
                  LiteralSegment("-"),
                  ExtractSegment(1, ExtractSpec((TokenClass("Digits"),), 1)),
              )))):
        assert parse_feature(format_feature(f)) == f


#: One constant per operand type, for the column/constant form.
_CONSTANT = {ColumnType.INT: -4, ColumnType.STR: 'a "q"'}


@pytest.mark.parametrize("symbol", list(PREDICATE_SYMBOLS))
def test_every_symbol_round_trips(symbol):
    kinds, ty = PREDICATE_SYMBOLS[symbol][:2]
    forms = {"c": SymbolApp(symbol, "a"),
             "cc": SymbolApp(symbol, "a", "b", arg_is_col=True),
             "ck": SymbolApp(symbol, "a", _CONSTANT[ty])}
    for kind in kinds.split():
        p = Not(forms[kind])
        text = format_predicate(p)
        assert text.startswith(f"not({symbol[0].lower()}{symbol[1:]}(a")
        assert parse_predicate(text) == p


_FAMILY_EXAMPLES = {
    FeatureFamily.LINEAR: (linear(3, -7), ("n",)),
    FeatureFamily.DIV: (div(-1, 4), ("n",)),
    FeatureFamily.MOD: (mod(1, -4, 5), ("n",)),
    FeatureFamily.SUM: (sum_feature(-2), ("n", "m")),
    FeatureFamily.SUBSTRING: (substring(ExtractSpec((TokenClass("Digits"),), -2)),
                              ("s",)),
    FeatureFamily.CONCAT: (concat(ConcatProgram((
        ExtractSegment(1, ExtractSpec((TokenClass("Alnum"), TokenClass("Punct", "."),
                                       TokenClass("Upper")), 1)),
        LiteralSegment("-"),
        ExtractSegment(0, ExtractSpec((TokenClass("Digits"),), 3)),
    ))), ("s", "r")),
}


@pytest.mark.parametrize("family", list(FeatureFamily), ids=lambda f: f.value)
def test_every_feature_family_round_trips(family):
    f, cols = _FAMILY_EXAMPLES[family]
    text = format_feature(f)
    assert text.startswith(family.value)
    assert parse_feature(text) == f
    # And as a Yield projection, where the parser tells features from columns.
    prog = Program((), (Yield("t", (ConstP("act"), MutateP(f, cols), ColP(family.value))),))
    text = format_program(prog)
    assert parse_program(text) == prog
    assert format_program(parse_program(text)) == text


def test_parse_rejects_garbage():
    with pytest.raises(ProgramParseError):
        parse_program("t1 = Blur(ti);")
    with pytest.raises(ProgramParseError):
        parse_program('Yield("act", ti, id;')  # unbalanced
    with pytest.raises(ProgramParseError):
        parse_program("")  # no Yield at all
    with pytest.raises(ProgramParseError):
        # Transform statements may not follow the first Yield.
        parse_program('Yield("a", ti, id);\nt1 = Filter(ti, isOdd(n));')
    # Text that ends right after ``id``, where ``id:<label>`` could begin.
    for text in ('Yield("fill", sheet, id', 'Yield("fill", sheet, "a", id',
                 "u = Filter(t, strEq(tag, id", 'Yield("fill", sheet, id:'):
        with pytest.raises(ProgramParseError):
            parse_program(text)
    with pytest.raises(ProgramParseError):
        parse_predicate("strEq(tag, id")
