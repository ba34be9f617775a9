"""Command-line interface: synthesize, execute, and benchmark.

Exit codes: 0 solved, 2 timeout, 3 search exhausted, 1 usage or data error
(a malformed flag or ``BEE_*`` value included). Settings flags can also be
set through environment variables prefixed ``BEE_`` (BEE_TIMEOUT,
BEE_MAX_DEPTH, BEE_HYPOTHESIS_BOUND, BEE_MODE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .domains import (BenchmarkCase, benchmark_from_json, check_overfit, load_benchmark,
                      load_benchmark_dir, read_json_file)
from .dsl import ActionSignature, exec_program
from .errors import (BenchmarkFormatError, ProgramParseError, TableSynthError,
                     ValidationFailure)
from .progtext import format_program, parse_program
from .synth import SynthResult, SynthSettings, SynthTask, synthesize
from .table import ColumnType, table_from_json, table_to_json

EXIT_SOLVED = 0
EXIT_ERROR = 1
EXIT_TIMEOUT = 2
EXIT_EXHAUSTED = 3

_STATUS_EXIT = {"solved": EXIT_SOLVED, "timeout": EXIT_TIMEOUT,
                "exhausted": EXIT_EXHAUSTED}


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_ERROR on a usage error; argparse's own 2 would read
    as a timeout."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _env(name: str, default: str) -> str:
    # argparse runs a string default through the flag's ``type``, so a
    # malformed value is reported as a usage error.
    return os.environ.get(f"BEE_{name}", default)


def _add_settings_flags(p: argparse.ArgumentParser):
    p.add_argument("--timeout", type=float, default=_env("TIMEOUT", "120"),
                   help="search budget in seconds (default 120)")
    p.add_argument("--max-depth", type=int, default=_env("MAX_DEPTH", "3"),
                   help="maximum transformation depth (default 3)")
    p.add_argument("--hypothesis-bound", type=int,
                   default=_env("HYPOTHESIS_BOUND", "20"),
                   help="hypotheses tried per depth (default 20)")
    p.add_argument("--mode", choices=("bi", "forward-only", "both"),
                   default=_env("MODE", "bi"),
                   help="search mode (default bi)")


def _settings(args, mode: str) -> SynthSettings:
    return SynthSettings(max_depth=args.max_depth,
                         hypothesis_bound=args.hypothesis_bound,
                         timeout=args.timeout, mode=mode)


def _task(case: BenchmarkCase, settings: SynthSettings) -> SynthTask:
    return SynthTask(case.inputs, case.output, case.action, case.constants,
                     settings)


def cmd_synth(args) -> int:
    case = load_benchmark(args.benchmark)
    modes = ("bi", "forward-only") if args.mode == "both" else (args.mode,)
    results: list[tuple[str, SynthResult]] = []
    for mode in modes:
        results.append((mode, synthesize(_task(case, _settings(args, mode)))))
    best = next((r for _, r in results if r.status == "solved"),
                results[0][1])
    if best.program is not None:
        sys.stdout.write(format_program(best.program))
    for mode, r in results:
        print(json.dumps(r.stats.to_json()), file=sys.stderr)
    return _STATUS_EXIT[results[0][1].status]


def _load_exec_inputs(path: Path, use_pending: bool):
    """Tables and action from a tables file ({"action", "tables"}) or a
    benchmark file."""
    obj = read_json_file(path)
    if not isinstance(obj, dict):
        raise BenchmarkFormatError(f"{path}: expected a JSON object")
    if "tables" not in obj:
        case = benchmark_from_json(obj, path)
        tables = case.pending if use_pending else case.inputs
        return list(tables), case.action
    try:
        action = ActionSignature(
            obj["action"]["name"],
            tuple((a["name"], ColumnType(a["type"]))
                  for a in obj["action"]["args"]),
        )
        tables = [table_from_json(t) for t in obj["tables"]]
    except KeyError as exc:
        raise BenchmarkFormatError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise BenchmarkFormatError(f"{path}: malformed tables file: {exc}") from None
    return tables, action


def cmd_exec(args) -> int:
    try:
        text = Path(args.program).read_text()
    except UnicodeDecodeError as exc:
        raise ProgramParseError(f"{args.program}: not UTF-8 text: {exc}") from None
    program = parse_program(text)
    tables, action = _load_exec_inputs(Path(args.tables), args.pending)
    try:
        out = exec_program(program, tables, action)
    except ValidationFailure as exc:
        for v in exc.violations:
            print(f"invalid program [{v.rule}]: {v.message}", file=sys.stderr)
        return EXIT_ERROR
    print(json.dumps(table_to_json(out), indent=2))
    return EXIT_SOLVED


def _run_report(cases, args, mode: str) -> dict:
    per_case = []
    solved = overfit_count = regression_failures = 0
    for case in cases:
        result = synthesize(_task(case, _settings(args, mode)))
        entry = {
            "id": case.id,
            "outcome": result.status,
            "elapsed_ms": result.stats.elapsed_ms,
            "overfit": False,
            "program": None,
        }
        if result.status == "solved":
            solved += 1
            entry["program"] = format_program(result.program)
            report = check_overfit(case, result.program)
            entry["overfit"] = report.overfit
            if report.overfit:
                overfit_count += 1
        if case.is_regression and (result.status != "solved"
                                   or entry["overfit"]):
            regression_failures += 1
        per_case.append(entry)
    total = len(cases)
    return {
        "mode": mode,
        "total": total,
        "solved": solved,
        "success_rate": solved / total if total else 0.0,
        "overfit": overfit_count,
        "overfit_rate": overfit_count / solved if solved else 0.0,
        "regression_failures": regression_failures,
        "cases": per_case,
    }


def _report_table(report: dict) -> str:
    lines = [f"mode: {report['mode']}  solved {report['solved']}/"
             f"{report['total']}  overfit {report['overfit']}/"
             f"{report['solved'] or 0}"]
    for c in report["cases"]:
        flag = " overfit" if c["overfit"] else ""
        lines.append(f"  {c['id']:<30} {c['outcome']:<10} "
                     f"{c['elapsed_ms']:>7} ms{flag}")
    return "\n".join(lines)


def cmd_bench(args) -> int:
    cases = load_benchmark_dir(args.benchmarks)
    modes = ("bi", "forward-only") if args.mode == "both" else (args.mode,)
    reports = [_run_report(cases, args, mode) for mode in modes]
    print(json.dumps({"reports": reports}, indent=2))
    print()
    for report in reports:
        print(_report_table(report))
    failed = sum(r["regression_failures"] for r in reports)
    return EXIT_ERROR if failed else EXIT_SOLVED


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tablesynth",
        description="Synthesize table-transformation programs from "
                    "input/output examples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a program from a benchmark")
    p.add_argument("benchmark", help="benchmark JSON file")
    _add_settings_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("exec", help="run a program on tables")
    p.add_argument("program", help="program text file")
    p.add_argument("tables", help="tables file or benchmark JSON")
    p.add_argument("--pending", action="store_true",
                   help="with a benchmark file, run on the pending tables")
    p.set_defaults(func=cmd_exec)

    p = sub.add_parser("bench", help="run a benchmark directory")
    p.add_argument("benchmarks", help="directory of benchmark files")
    _add_settings_flags(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TableSynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
