"""Canonical text form of programs and feature instances.

One statement per line:

    u = Filter(ti, isOdd(frame));
    w = Join(t1, t2, id, parent);
    g = GroupJoin(t, folder, max(size));
    o = Order(t, size, 0, false);
    Yield("shift", u, id, "GB", linear(-5,-25)(frame), linear(-5,-25)(frame));

Feature instances print as ``linear(-5,-25)``, ``mod(0,0,2)``,
``substring{Alnum#1}``, ``concat[x0{Alnum#1} "-" x1{Digits#1}]``. The parser
round-trips everything the printer emits.
"""

from __future__ import annotations

import re

from .dsl import (
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
    PREDICATE_SYMBOLS,
    Predicate,
    Program,
    Projection,
    SymbolApp,
    TransformStmt,
    Yield,
)
from .errors import ProgramParseError
from .features import (
    BASE_TOKEN_CLASSES,
    ConcatProgram,
    ExtractSegment,
    ExtractSpec,
    FAMILIES,
    FeatureFamily,
    FeatureInstance,
    LiteralSegment,
    TokenClass,
    concat,
    substring,
)
from .table import ColumnType, Id, Value

# ---------------------------------------------------------------------------
# Printing.

#: Predicate symbols print with a lowercased first letter: ``IsOdd`` -> ``isOdd``.
_SYMBOL_TEXT = {sym: sym[0].lower() + sym[1:] for sym in PREDICATE_SYMBOLS}
_TEXT_SYMBOL = {v: k for k, v in _SYMBOL_TEXT.items()}
_TOKEN_CLASS_NAMES = frozenset(c.kind for c in BASE_TOKEN_CLASSES)
#: Feature families print by their enum value: ``linear``, ``concat``, ...
_FAMILY_NAMES = {fam.value: fam for fam in FeatureFamily}
#: Int families, whose parameters print as integers, with their constructors.
_INT_PARAM_MAKERS = {fam: make for fam, (ty, _, _, make) in FAMILIES.items()
                     if ty is ColumnType.INT}


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_predicate(p: Predicate) -> str:
    if isinstance(p, SymbolApp):
        head = _SYMBOL_TEXT[p.symbol]
        if p.arg is None:
            return f"{head}({p.col})"
        arg = p.arg if p.arg_is_col else _format_const(p.arg)
        return f"{head}({p.col}, {arg})"
    if isinstance(p, Not):
        return f"not({format_predicate(p.inner)})"
    op = "and" if isinstance(p, And) else "or"
    return f"{op}({format_predicate(p.left)}, {format_predicate(p.right)})"


def _format_const(v: Value) -> str:
    if isinstance(v, Id):
        return f"id:{v.label}"
    return _quote(v) if isinstance(v, str) else str(v)


def format_feature(f: FeatureInstance) -> str:
    fam = f.family
    if fam in _INT_PARAM_MAKERS:
        return f"{fam.value}({','.join(str(p) for p in f.params)})"
    if fam is FeatureFamily.SUBSTRING:
        return f"substring{f.extract_spec}"
    segs = []
    for seg in f.concat.segments:
        if isinstance(seg, LiteralSegment):
            segs.append(_quote(seg.text))
        else:
            segs.append(f"x{seg.input_pos}{seg.spec}")
    return f"concat[{' '.join(segs)}]"


def format_projection(p: Projection) -> str:
    if isinstance(p, ColP):
        return p.name
    if isinstance(p, ConstP):
        return _format_const(p.value)
    return f"{format_feature(p.feature)}({', '.join(p.cols)})"


def format_stmt(stmt) -> str:
    if isinstance(stmt, Filter):
        return f"{stmt.target} = Filter({stmt.src}, {format_predicate(stmt.predicate)});"
    if isinstance(stmt, Join):
        return (f"{stmt.target} = Join({stmt.src1}, {stmt.src2}, "
                f"{stmt.col1}, {stmt.col2});")
    if isinstance(stmt, GroupJoin):
        aggs = ", ".join(f"{agg}({col})" for agg, col in stmt.aggs)
        return f"{stmt.target} = GroupJoin({stmt.src}, {stmt.col_index}, {aggs});"
    if isinstance(stmt, Order):
        parts = [stmt.src, stmt.col, str(stmt.c_start),
                 "true" if stmt.c_inv else "false"]
        if stmt.col_index is not None:
            parts.append(stmt.col_index)
        return f"{stmt.target} = Order({', '.join(parts)});"
    if isinstance(stmt, Yield):
        head = format_projection(stmt.projections[0])
        rest = [format_projection(p) for p in stmt.projections[1:]]
        return f"Yield({', '.join([head, stmt.src] + rest)});"
    raise ProgramParseError(f"cannot print {stmt!r}")


def format_program(program: Program) -> str:
    lines = [format_stmt(s) for s in program.transform]
    lines += [format_stmt(s) for s in program.mapping]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Tokenizer.

#: A table or column name as program text spells it.
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")

#: A ``char`` is a Punct token class: any one character between apostrophes,
#: an apostrophe included (``'''``).
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<str>"(?:[^"\\]|\\.)*")
  | (?P<char>'[\s\S]')
  | (?P<int>-?\d+)
  | (?P<name>""" + NAME_RE.pattern + r""")
  | (?P<punct>[()\[\]{},;=#:])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ProgramParseError(f"bad character {text[pos]!r} at offset {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group(0)))
    return out


def _unquote(tok: str) -> str:
    return tok[1:-1].replace('\\"', '"').replace("\\\\", "\\")


#: Connectives a predicate may nest; far above the search's ``max_depth``,
#: and far below what would exhaust the interpreter's recursion.
_MAX_PREDICATE_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0):
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else ("eof", "")

    def take(self, kind=None, value=None):
        k, v = self.peek()
        if (kind is not None and k != kind) or (value is not None and v != value):
            want = value or kind
            raise ProgramParseError(f"expected {want!r}, found {v!r} (token {self.pos})")
        self.pos += 1
        return v

    def at(self, value: str) -> bool:
        return self.peek()[1] == value

    def eat(self, value: str) -> bool:
        if self.at(value):
            self.pos += 1
            return True
        return False

    def done(self) -> bool:
        return self.pos == len(self.toks)

    def at_id_constant(self) -> bool:
        """At ``id:<label>``, as opposed to a column named ``id``."""
        return self.peek() == ("name", "id") and self.peek(1)[1] == ":"

    # -- constants -----------------------------------------------------------

    def constant(self) -> Value:
        k, v = self.peek()
        if k == "str":
            self.pos += 1
            return _unquote(v)
        if k == "int":
            self.pos += 1
            return int(v)
        if self.at_id_constant():
            self.pos += 2
            return Id(self.take("name"))
        raise ProgramParseError(f"expected a constant, found {v!r}")

    # -- extract specs -------------------------------------------------------

    def extract_spec(self) -> ExtractSpec:
        self.take(value="{")
        tokens: list[TokenClass] = []
        while not self.at("#"):
            k, v = self.peek()
            if k == "char":
                self.pos += 1
                tokens.append(TokenClass("Punct", v[1]))
            elif k == "name":
                self.pos += 1
                if v not in _TOKEN_CLASS_NAMES:
                    raise ProgramParseError(f"unknown token class {v!r}")
                tokens.append(TokenClass(v))
            else:
                raise ProgramParseError(f"bad token class {v!r}")
        self.take(value="#")
        occ = int(self.take("int"))
        self.take(value="}")
        return ExtractSpec(tuple(tokens), occ)

    # -- features ------------------------------------------------------------

    def feature(self, head: str) -> FeatureInstance:
        fam = _FAMILY_NAMES.get(head)
        if fam in _INT_PARAM_MAKERS:
            self.take(value="(")
            params = [int(self.take("int"))]
            while self.eat(","):
                params.append(int(self.take("int")))
            self.take(value=")")
            try:
                return _INT_PARAM_MAKERS[fam](*params)
            except TypeError:
                raise ProgramParseError(f"wrong parameter count for {head}") from None
        if fam is FeatureFamily.SUBSTRING:
            return substring(self.extract_spec())
        if fam is FeatureFamily.CONCAT:
            self.take(value="[")
            segments = []
            while not self.at("]"):
                k, v = self.peek()
                if k == "str":
                    self.pos += 1
                    segments.append(LiteralSegment(_unquote(v)))
                elif k == "name" and re.fullmatch(r"x\d+", v):
                    self.pos += 1
                    segments.append(ExtractSegment(int(v[1:]), self.extract_spec()))
                else:
                    raise ProgramParseError(f"bad concat segment {v!r}")
            self.take(value="]")
            return concat(ConcatProgram(tuple(segments)))
        raise ProgramParseError(f"unknown feature family {head!r}")

    # -- predicates ----------------------------------------------------------

    def predicate(self, nesting: int = 0) -> Predicate:
        if nesting > _MAX_PREDICATE_NESTING:
            raise ProgramParseError(f"predicate nested deeper than "
                                    f"{_MAX_PREDICATE_NESTING} levels")
        head = self.take("name")
        self.take(value="(")
        if head == "not":
            inner = self.predicate(nesting + 1)
            self.take(value=")")
            return Not(inner)
        if head in ("and", "or"):
            left = self.predicate(nesting + 1)
            self.take(value=",")
            right = self.predicate(nesting + 1)
            self.take(value=")")
            return And(left, right) if head == "and" else Or(left, right)
        symbol = _TEXT_SYMBOL.get(head)
        if symbol is None:
            raise ProgramParseError(f"unknown predicate symbol {head!r}")
        col = self.take("name")
        arg = None
        arg_is_col = False
        if self.eat(","):
            k, v = self.peek()
            if k == "name" and not self.at_id_constant():
                self.pos += 1
                arg, arg_is_col = v, True
            else:
                arg = self.constant()
        self.take(value=")")
        return SymbolApp(symbol, col, arg, arg_is_col)

    # -- projections ---------------------------------------------------------

    def projection(self) -> Projection:
        k = self.peek()[0]
        if k in ("str", "int") or self.at_id_constant():
            return ConstP(self.constant())
        name = self.take("name")
        nxt = self.peek()[1]
        if name in _FAMILY_NAMES and nxt in ("(", "{", "["):
            f = self.feature(name)
            self.take(value="(")
            cols = [self.take("name")]
            while self.eat(","):
                cols.append(self.take("name"))
            self.take(value=")")
            return MutateP(f, tuple(cols))
        return ColP(name)

    # -- statements ----------------------------------------------------------

    def statement(self):
        name = self.take("name")
        if name == "Yield":
            self.take(value="(")
            action = ConstP(_unquote(self.take("str")))
            self.take(value=",")
            src = self.take("name")
            projections: list[Projection] = [action]
            while self.eat(","):
                projections.append(self.projection())
            self.take(value=")")
            self.take(value=";")
            return Yield(src, tuple(projections))
        target = name
        self.take(value="=")
        op = self.take("name")
        self.take(value="(")
        if op == "Filter":
            src = self.take("name")
            self.take(value=",")
            pred = self.predicate()
            self.take(value=")")
            self.take(value=";")
            return Filter(target, src, pred)
        if op == "Join":
            parts = [self.take("name")]
            for _ in range(3):
                self.take(value=",")
                parts.append(self.take("name"))
            self.take(value=")")
            self.take(value=";")
            return Join(target, *parts)
        if op == "GroupJoin":
            src = self.take("name")
            self.take(value=",")
            col_index = self.take("name")
            aggs = []
            while self.eat(","):
                agg = self.take("name")
                self.take(value="(")
                col = self.take("name")
                self.take(value=")")
                aggs.append((agg, col))
            self.take(value=")")
            self.take(value=";")
            return GroupJoin(target, src, col_index, tuple(aggs))
        if op == "Order":
            src = self.take("name")
            self.take(value=",")
            col = self.take("name")
            c_start, c_inv, col_index = 0, False, None
            if self.eat(","):
                c_start = int(self.take("int"))
                self.take(value=",")
                flag = self.take("name")
                if flag not in ("true", "false"):
                    raise ProgramParseError(f"bad boolean {flag!r}")
                c_inv = flag == "true"
                if self.eat(","):
                    col_index = self.take("name")
            self.take(value=")")
            self.take(value=";")
            return Order(target, src, col, c_start, c_inv, col_index)
        raise ProgramParseError(f"unknown statement kind {op!r}")


def parse_feature(text: str) -> FeatureInstance:
    p = _Parser(text)
    head = p.take("name")
    f = p.feature(head)
    if not p.done():
        raise ProgramParseError("trailing input after feature")
    return f


def parse_predicate(text: str) -> Predicate:
    p = _Parser(text)
    pred = p.predicate()
    if not p.done():
        raise ProgramParseError("trailing input after predicate")
    return pred


def parse_program(text: str) -> Program:
    p = _Parser(text)
    transform: list[TransformStmt] = []
    mapping: list[Yield] = []
    while not p.done():
        stmt = p.statement()
        if isinstance(stmt, Yield):
            mapping.append(stmt)
        elif mapping:
            raise ProgramParseError("transform statement after Yield")
        else:
            transform.append(stmt)
    if not mapping:
        raise ProgramParseError("program has no Yield statement")
    return Program(tuple(transform), tuple(mapping))
