"""Synthetic task generators for experiments and randomized testing.

``ablation_family`` builds the parity-split task family used to compare the
bidirectional search with the forward-only baseline. ``random_task`` draws a
random program (depth <= 2, at most two Yield statements, features within the
solver caps) together with the input tables it was executed on, so the
generating program is an oracle for the produced example.
"""

from __future__ import annotations

import random
from typing import Optional

from .dsl import (
    ActionSignature,
    ColP,
    ConstP,
    Filter,
    MutateP,
    Program,
    SymbolApp,
    Yield,
    exec_program,
)
from .errors import TableSynthError
from .features import linear, sum_feature
from .synth import SynthSettings, SynthTask
from .table import ColumnType, Id, Schema, Table


def ablation_family(k: int, settings: SynthSettings = SynthSettings()) -> SynthTask:
    """k actions split by frame parity; odd frames shift channel GB by
    linear(-5,-25), even frames shift channel R by linear(5,20)."""
    schema = Schema([("frame", ColumnType.INT), ("id", ColumnType.ID)])
    inp = Table("ti", schema, [(i, Id(f"f{i:02d}")) for i in range(1, k + 1)])
    sig = ActionSignature("shift", (
        ("id", ColumnType.ID), ("channel", ColumnType.STR),
        ("bx", ColumnType.INT), ("by", ColumnType.INT),
    ))
    rows = []
    for i in range(1, k + 1):
        if i % 2:
            rows.append(("shift", Id(f"f{i:02d}"), "GB", -5 * i - 25, -5 * i - 25))
        else:
            rows.append(("shift", Id(f"f{i:02d}"), "R", 5 * i + 20, 5 * i + 20))
    out = Table("to", sig.output_schema(), rows)
    return SynthTask((inp,), out, sig, settings=settings)


_WORDS = ("report", "draft", "notes", "photo", "backup", "song", "video",
          "sheet", "memo", "log")
_EXTS = ("txt", "pdf", "jpg", "zip", "csv")


def _random_input(rng: random.Random) -> Table:
    n = rng.randint(4, 8)
    schema = Schema([
        ("id", ColumnType.ID),
        ("num", ColumnType.INT),
        ("size", ColumnType.INT),
        ("name", ColumnType.STR),
    ])
    nums = rng.sample(range(1, 40), n)
    rows = [
        (Id(f"e{i:02d}"), nums[i], rng.randint(1, 500),
         f"{rng.choice(_WORDS)}{rng.randint(1, 99)}.{rng.choice(_EXTS)}")
        for i in range(n)
    ]
    return Table("items", schema, rows)


def _random_projections(rng: random.Random):
    """Column list for one Yield; always includes the id column so every
    output row stays traceable to an entity."""
    projections = [ColP("id")]
    args = [("id", ColumnType.ID)]
    k = rng.randint(1, 2)
    for i in range(k):
        choice = rng.randrange(4)
        if choice == 0:
            projections.append(ColP("num"))
            args.append((f"a{i}", ColumnType.INT))
        elif choice == 1:
            a = rng.choice([-3, -2, -1, 1, 2, 3])
            b = rng.randint(-20, 20)
            projections.append(MutateP(linear(a, b), ("num",)))
            args.append((f"a{i}", ColumnType.INT))
        elif choice == 2:
            b = rng.randint(-10, 10)
            projections.append(MutateP(sum_feature(b), ("num", "size")))
            args.append((f"a{i}", ColumnType.INT))
        else:
            projections.append(ConstP(rng.choice(_WORDS)))
            args.append((f"a{i}", ColumnType.STR))
    return projections, args


def random_task(rng: random.Random,
                settings: Optional[SynthSettings] = None) -> tuple[SynthTask, Program]:
    """One random task plus the program that generated its output example."""
    while True:
        inp = _random_input(rng)
        constants: list = []
        transform = []
        split = rng.random() < 0.5
        if split:
            pred = SymbolApp("IsOdd", "num")
            inv = SymbolApp("IsEven", "num")
        else:
            pivot = rng.choice([row[1] for row in inp.rows])
            constants.append(pivot)
            pred = SymbolApp("IntGeq", "num", pivot)
            inv = SymbolApp("IntLt", "num", pivot)
        two_yields = rng.random() < 0.5
        projections, args = _random_projections(rng)
        action = ActionSignature("act", tuple(args))
        if two_yields:
            transform = [Filter("u", "items", pred), Filter("v", "items", inv)]
            proj2 = list(projections)
            # The second branch differs in its last projection.
            a = rng.choice([-3, -2, 2, 3])
            b = rng.randint(-20, 20)
            if args[-1][1] is ColumnType.INT:
                proj2[-1] = MutateP(linear(a, b), ("num",))
            else:
                proj2[-1] = ConstP(rng.choice(_WORDS) + "x")
            mapping = [
                Yield("u", tuple([ConstP("act")] + projections)),
                Yield("v", tuple([ConstP("act")] + proj2)),
            ]
        else:
            deep = rng.random() < 0.4
            if deep:
                transform = [Filter("u", "items", pred)]
                src = "u"
            else:
                src = "items"
            mapping = [Yield(src, tuple([ConstP("act")] + projections))]
        program = Program(tuple(transform), tuple(mapping))
        try:
            output = exec_program(program, [inp], action)
        except TableSynthError:
            continue
        if not output.rows:
            continue
        task = SynthTask((inp,), output.renamed("to"), action,
                         tuple(constants), settings or SynthSettings())
        return task, program
