"""The benchmark's workloads: each builds its task list from the seed.

A workload is a list of ``Case``s. Every case carries a held-out input and
the output its generating program (or the benchmark's own ``expected``
table) gives on it, so the benchmark can tell a program that generalizes
from one that only fits the example. The engine sees only ``case.task``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from tablesynth.dsl import ActionSignature, ColP, ConstP, MutateP, Program, Yield, exec_program
from tablesynth.domains import load_benchmark_dir
from tablesynth.errors import TableSynthError
from tablesynth.features import (
    ConcatProgram,
    ExtractSegment,
    ExtractSpec,
    LiteralSegment,
    TokenClass,
    concat,
)
from tablesynth.synth import SynthResult, SynthSettings, SynthTask, synthesize, synthesize_forward_only
from tablesynth.table import ColumnType, Id, Schema, Table
from tablesynth.taskgen import ablation_family, random_task

#: Tasks per pass. Sized so one untraced pass takes a few seconds on one
#: core: enough samples for a p95 tail, and at least two passes per run.
SWEEP_TASKS = 200
RENAME_TASKS = 100
PARITY_K = 14


@dataclass(frozen=True)
class Case:
    id: str
    task: SynthTask
    held_out: tuple[Table, ...]
    expected: Table
    #: A corpus case with a committed reference program.
    regression: bool = False


@dataclass(frozen=True)
class Workload:
    cases: tuple[Case, ...]
    #: ``None`` for the corpus, which runs through the ``bench`` CLI path.
    solve: Optional[Callable[[SynthTask], SynthResult]]


def _oracle_output(program: Program, inputs, action) -> Optional[Table]:
    """Output of a generating program on held-out inputs; ``None`` when the
    program cannot run there or yields nothing worth comparing."""
    try:
        out = exec_program(program, list(inputs), action)
    except TableSynthError:
        return None
    return out if out.rows else None


# -- corpus ------------------------------------------------------------------


def corpus(root: Path, seed: int) -> Workload:
    """The shipped regression cases; the seed changes nothing."""
    cases = []
    for bc in load_benchmark_dir(root / "benchmarks"):
        task = SynthTask(bc.inputs, bc.output, bc.action, bc.constants)
        cases.append(Case(bc.id, task, bc.pending, bc.expected, bc.is_regression))
    return Workload(tuple(cases), None)


# -- sweep -------------------------------------------------------------------


def sweep(root: Path, seed: int) -> Workload:
    """``random_task`` draws at depth 1. Held-out inputs come from a second
    stream so the task sequence for a seed matches the acceptance sweep."""
    settings = SynthSettings(max_depth=1)
    rng = random.Random(seed)
    held_rng = random.Random(f"held-out-{seed}")
    cases = []
    for i in range(SWEEP_TASKS):
        task, program = random_task(rng, settings)
        while True:
            held = random_task(held_rng)[0].inputs
            expected = _oracle_output(program, held, task.action)
            if expected is not None:
                break
        cases.append(Case(f"sweep-{i:03d}", task, held, expected))
    return Workload(tuple(cases), synthesize)


# -- parity-fwd --------------------------------------------------------------


def parity_fwd(root: Path, seed: int) -> Workload:
    """The paper's forward-only baseline on the parity family at k=14; the
    held-out input is frames k+1..2k. The family is fixed, so the seed
    changes nothing."""
    k = PARITY_K
    task = ablation_family(k)
    big = ablation_family(2 * k)
    held_frames = [r for r in big.inputs[0].rows if r[0] > k]
    held = Table(task.inputs[0].name, task.inputs[0].schema, held_frames)
    expected = Table("expected", big.output.schema,
                     [r for r in big.output.rows if r[1] in {f[1] for f in held_frames}])
    return Workload((Case(f"parity-{k}", task, (held,), expected),),
                    synthesize_forward_only)


# -- rename ------------------------------------------------------------------

_WORDS = ("report", "draft", "notes", "photo", "backup", "song", "video",
          "sheet", "memo", "invoice")
_EXTS = ("txt", "pdf", "jpg", "zip", "csv")
_OWNERS = ("alice", "bob", "carol", "dave", "erin", "frank", "grace")
_LITERALS = ("_", "-", ".", "v", "old_", "_bak")

_LOWER = TokenClass("Lower")
_DIGITS = TokenClass("Digits")
_ALNUM = TokenClass("Alnum")
_ALPHA = TokenClass("Alpha")
_DOT = TokenClass("Punct", ".")

#: Extractions a rename can take from ``name`` (input 0) and ``owner``
#: (input 1); every one matches on every generated row.
_NAME_SPECS = (
    ExtractSpec((_LOWER,), 1),            # word
    ExtractSpec((_DIGITS,), 1),           # number
    ExtractSpec((_ALPHA,), -1),           # extension
    ExtractSpec((_ALNUM,), 1),            # word and number
    ExtractSpec((_DIGITS, _DOT), 1),      # number and dot
)
_OWNER_SPECS = (ExtractSpec((_LOWER,), 1),)

RENAME_SCHEMA = Schema([("id", ColumnType.ID), ("num", ColumnType.INT),
                        ("name", ColumnType.STR), ("owner", ColumnType.STR)])
RENAME_ACTION = ActionSignature("rename", (("id", ColumnType.ID),
                                           ("newname", ColumnType.STR)))


def _rename_input(rng: random.Random) -> Table:
    n = rng.randint(4, 7)
    nums = rng.sample(range(1, 60), n)
    rows = [(Id(f"f{i:02d}"), nums[i],
             f"{rng.choice(_WORDS)}{rng.randint(1, 99)}.{rng.choice(_EXTS)}",
             rng.choice(_OWNERS))
            for i in range(n)]
    return Table("files", RENAME_SCHEMA, rows)


def _rename_program(rng: random.Random, two_inputs: bool) -> Program:
    """A random concat over ``name``, or ``name`` and ``owner``: at most
    five segments, so within ``DEFAULT_CAPS``, and always starting with an
    extraction."""
    segments = [ExtractSegment(0, rng.choice(_NAME_SPECS))]
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.4:
            segments.append(LiteralSegment(rng.choice(_LITERALS)))
        elif two_inputs and roll < 0.7:
            segments.append(ExtractSegment(1, rng.choice(_OWNER_SPECS)))
        else:
            segments.append(ExtractSegment(0, rng.choice(_NAME_SPECS)))
    if two_inputs and not any(isinstance(s, ExtractSegment) and s.input_pos == 1
                              for s in segments):
        segments.append(ExtractSegment(1, _OWNER_SPECS[0]))
    cols = ("name", "owner") if two_inputs else ("name",)
    feature = MutateP(concat(ConcatProgram(tuple(segments))), cols)
    return Program((), (Yield("files", (ConstP("rename"), ColP("id"), feature)),))


def rename_task(rng: random.Random, held_rng: random.Random, two_inputs: bool,
                settings: SynthSettings) -> tuple[SynthTask, Table, Table]:
    """One file-rename task, plus a held-out input and the output the
    task's generating program gives on it."""
    while True:
        inp = _rename_input(rng)
        program = _rename_program(rng, two_inputs)
        output = _oracle_output(program, (inp,), RENAME_ACTION)
        if output is not None:
            break
    while True:
        held = _rename_input(held_rng)
        expected = _oracle_output(program, (held,), RENAME_ACTION)
        if expected is not None:
            break
    task = SynthTask((inp,), output.renamed("to"), RENAME_ACTION, (), settings)
    return task, held, expected


def rename(root: Path, seed: int) -> Workload:
    settings = SynthSettings(max_depth=1)
    rng = random.Random(seed)
    held_rng = random.Random(f"held-out-{seed}")
    cases = []
    for i in range(RENAME_TASKS):
        # A concat over two columns costs the solver several times one over
        # a single column; a fixed two-in-three share keeps the mix, and so
        # the median, from moving with the seed.
        task, held, expected = rename_task(rng, held_rng, i % 3 != 0, settings)
        cases.append(Case(f"rename-{i:03d}", task, (held,), expected))
    return Workload(tuple(cases), synthesize)


WORKLOADS = {"corpus": corpus, "sweep": sweep, "parity-fwd": parity_fwd,
             "rename": rename}
