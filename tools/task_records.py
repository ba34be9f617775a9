"""Print one JSON record per benchmark workload task, for equivalence checks.

Each task of ``perfbench/workloads.py`` is built from ``--seed`` and solved
once, as the benchmark solves it (the corpus with ``synthesize``). A record
holds the task id, the status, the program text, the three search counters
and whether the program reproduces the held-out output (``null`` when no
program was returned). Timings are left out, so two runs of one checkout
print the same lines, and a ``diff`` of the output of two checkouts shows
every task whose search changed. Run from the repository root:

    python3 tools/task_records.py --seed 404 > records.jsonl
    python3 tools/task_records.py --seed 404 --workload corpus
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The records are of this checkout's engine and workloads, not installed ones.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from tablesynth.progtext import format_program
from tablesynth.synth import synthesize

import checks
import workloads


def task_records(workload: str, seed: int):
    """The records of one workload's tasks, in task order."""
    built = workloads.WORKLOADS[workload](ROOT, seed)
    solve = built.solve or synthesize
    for case in built.cases:
        result = solve(case.task)
        _, generalized = checks.check_result(case, result)
        yield {
            "id": case.id,
            "status": result.status,
            "program": (None if result.program is None
                        else format_program(result.program)),
            "forward_tables": result.stats.forward_tables,
            "hypotheses_tried": result.stats.hypotheses_tried,
            "matches_solved": result.stats.matches_solved,
            "generalized": generalized,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append",
                        choices=tuple(workloads.WORKLOADS),
                        help="a workload to run (repeatable); default: all")
    args = parser.parse_args(argv)
    for name in args.workload or workloads.WORKLOADS:
        for record in task_records(name, args.seed):
            print(json.dumps(record, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
