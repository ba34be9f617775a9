"""tablesynth benchmark: one workload, timed, checked, optionally traced.

    python3 perfbench/run.py --workload sweep --seed 404 --seconds 20 --trace 0

Run from the root of a source checkout; the engine is imported from
``src/``. The workload's tasks are built from ``--seed`` (see
``workloads.py``), then run in passes, single-threaded, until ``--seconds``
is spent; every pass runs the same tasks, so counters and returned programs
must repeat exactly. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
passes alternate and the metrics are the per-layer ones. End-to-end
timings are scaled by a reference workload timed from an interval timer
while each untraced pass and set-up runs (see ``Reference``). The line
before the result is a JSON detail record: counters, program digest,
unscaled timings, tail percentile and sample count, and (traced) where the
time went. Exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Timings are scaled to a machine on which the reference work's median
#: takes this long; on a 2-vCPU 2.1 GHz Xeon VM its median ranged from
#: 3.6 to 7.2 ms with the load from other tenants.
REFERENCE_S = 0.005
#: While an untraced pass or a set-up runs, the reference work runs this
#: often.
REFERENCE_EVERY_S = 0.1
#: A solve is scaled by the samples taken during it, or for a shorter solve
#: by those in a window this wide around it.
REFERENCE_WINDOW_S = 0.5

#: Set-up repeats before each pass: at least this many, and more while
#: under the time floor. Spreading them over the run lets their median see
#: the same mix of machine load as the passes.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 100
SETUP_FLOOR_S = 0.2


@dataclass
class Outcome:
    case_id: str
    status: str
    text: Optional[str]
    counters: tuple[int, int, int]  # forward_tables, hypotheses_tried, matches_solved
    start_s: float
    solve_s: float
    problems: list[str]
    generalized: Optional[bool]
    #: Factor that maps ``solve_s`` to the reference machine.
    scale: float = 1.0

    def fingerprint(self) -> tuple:
        return (self.case_id, self.status, self.text, self.counters)


@dataclass
class Pass:
    traced: bool
    wall_s: float
    outcomes: list[Outcome]
    layers: dict = field(default_factory=dict)
    #: Factor that maps this pass's timings to the reference machine.
    scale: float = 1.0

    def scaled_wall_s(self) -> float:
        """Wall time on the reference machine: each solve at its own scale,
        the time between solves at the pass's."""
        solving = sum(o.solve_s for o in self.outcomes)
        return ((self.wall_s - solving) * self.scale
                + sum(o.solve_s * o.scale for o in self.outcomes))


def _reference_work() -> int:
    """Fixed pure-Python work that uses no tablesynth code: build, sort and
    group tuples, the operations the engine spends its time on."""
    rows = [(i * 7919 % 1009, "r%d" % (i % 97), i % 13) for i in range(4000)]
    rows.sort(key=lambda r: (r[2], r[1], r[0]))
    groups: dict[str, list[int]] = {}
    for r in rows:
        groups.setdefault(r[1], []).append(r[0])
    return len(frozenset(tuple(v) for v in groups.values()))


class Reference:
    """Times ``_reference_work`` from a SIGALRM interval timer while a pass
    or a set-up runs, so each can scale its timings by the machine speed it
    saw. On a shared VM the same pass ran up to 45% slower from one quarter
    hour to the next, and its speed also moved within seconds. The samples must
    fall inside the engine's calls: over 24 six-second corpus solves, a
    solve's time correlated 0.90 with the median of the samples taken
    during it, and 0.09 with samples taken just before and after it.
    ``clock()`` leaves out the time spent on the reference work. The
    garbage collector is off while it runs, so it never pays for collecting
    the engine's objects."""

    def __init__(self):
        self.samples: list[float] = []
        self.at: list[float] = []  # ``clock()`` when each sample started
        self.spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame):
        self.at.append(self.clock())
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            _reference_work()
        finally:
            if enabled:
                gc.enable()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, first: int = 0) -> float:
        """Factor that maps timings to the reference machine, from the
        samples taken since ``samples[first]`` (all of them if none were)."""
        return REFERENCE_S / statistics.median(self.samples[first:] or self.samples)

    def local_scale(self, start: float, end: float) -> Optional[float]:
        """Scale from the samples taken between ``start`` and ``end`` by
        ``clock()``, widened to ``REFERENCE_WINDOW_S`` around a shorter
        interval; ``None`` if there are none."""
        pad = max(0.0, (REFERENCE_WINDOW_S - (end - start)) / 2)
        lo = bisect.bisect_left(self.at, start - pad)
        hi = bisect.bisect_right(self.at, end + pad)
        if lo == hi:
            return None
        return REFERENCE_S / statistics.median(self.samples[lo:hi])


def _outcome(case, result, start_s, solve_s, checks, format_program) -> Outcome:
    problems, generalized = checks.check_result(case, result)
    s = result.stats
    text = format_program(result.program) if result.program is not None else None
    return Outcome(case.id, result.status, text,
                   (s.forward_tables, s.hypotheses_tried, s.matches_solved),
                   start_s, solve_s, problems, generalized)


def run_generated(workload, checks, progtext, clock) -> tuple[float, list[Outcome]]:
    """One pass over the tasks; returns the pass wall time by ``clock`` and
    the checked outcomes."""
    pairs = []
    start = clock()
    for case in workload.cases:
        t0 = clock()
        result = workload.solve(case.task)
        pairs.append((case, result, t0, clock() - t0))
    wall = clock() - start
    return wall, [_outcome(c, r, t0, dt, checks, progtext.format_program)
                  for c, r, t0, dt in pairs]


def run_corpus(workload, checks, progtext, clock) -> tuple[float, list[Outcome]]:
    """One ``tablesynth bench benchmarks`` run; ``cli.synthesize`` is wrapped
    where the CLI looks it up, to time each call and keep its result."""
    import tablesynth.cli as cli

    calls = []
    original = cli.synthesize

    def timed(task):
        t0 = clock()
        result = original(task)
        calls.append((result, t0, clock() - t0))
        return result

    out = io.StringIO()
    cli.synthesize = timed
    start = clock()
    try:
        with redirect_stdout(out):
            code = cli.main(["bench", str(ROOT / "benchmarks")])
    finally:
        cli.synthesize = original
    wall = clock() - start

    report_problems = []
    try:
        report, _ = json.JSONDecoder().raw_decode(out.getvalue())
    except json.JSONDecodeError as exc:
        report, report_problems = {"reports": []}, [f"bench report is not JSON: {exc}"]
    schema = json.loads((ROOT / "schemas" / "run_report.schema.json").read_text())
    report_problems += checks.schema_errors(report, schema)
    reports = report.get("reports") or [{}]
    entries = reports[0].get("cases", []) if isinstance(reports[0], dict) else []
    if len(entries) != len(workload.cases) or len(calls) != len(workload.cases):
        report_problems.append(f"bench ran {len(calls)} cases and reported "
                               f"{len(entries)}; the corpus has {len(workload.cases)}")
    regression_failures = reports[0].get("regression_failures", 0) if entries else 0
    if (code != 0) != bool(regression_failures):
        report_problems.append(f"bench exit code {code} with {regression_failures} "
                               f"regression failures")

    outcomes = []
    seen_failures = 0
    for i, case in enumerate(workload.cases):
        if i >= len(calls):
            outcomes.append(Outcome(case.id, "missing", None, (0, 0, 0), 0.0, 0.0,
                                    ["not run by bench"], None))
            continue
        result, t0, dt = calls[i]
        o = _outcome(case, result, t0, dt, checks, progtext.format_program)
        entry = entries[i] if i < len(entries) else {}
        if entry.get("id") != case.id or entry.get("outcome") != result.status:
            o.problems.append(f"report entry {entry.get('id')} disagrees")
        if entry.get("program") != o.text:
            o.problems.append("report program differs from the returned program")
        if o.generalized is not None and entry.get("overfit") != (not o.generalized):
            o.problems.append("report over-fit flag differs from the held-out check")
        if case.regression and (result.status != "solved" or entry.get("overfit")):
            o.problems.append("regression case failed in the bench report")
            seen_failures += 1
        o.problems += report_problems
        outcomes.append(o)
    if seen_failures != regression_failures:
        for o in outcomes:
            o.problems.append(f"bench reports {regression_failures} regression "
                              f"failures, the checks found {seen_failures}")
    return wall, outcomes


def _tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; below twenty samples no such percentile lies above
    the median, and the maximum is reported as percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def _solve_times(passes: list[Pass], scaled: bool) -> list[float]:
    """One solve time per task: its median over the passes, which are
    spread across the run. The sample count is then the workload's size,
    whatever number of passes fit."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for o in p.outcomes:
            times.setdefault(o.case_id, []).append(o.solve_s * (o.scale if scaled else 1))
    return [statistics.median(ts) for ts in times.values()]


def _digest(outcomes: list[Outcome]) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(f"{o.case_id}\t{o.status}\t{o.text}\n".encode())
    return h.hexdigest()[:16]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end_metrics(setups: list[tuple[float, float]], passes: list[Pass],
                       reference: Reference) -> tuple[dict, dict]:
    """``setups`` holds each set-up repeat's start by ``reference.clock()``
    and its duration."""
    outcomes = [o for p in passes for o in p.outcomes]
    raw_times = _solve_times(passes, scaled=False)
    times = _solve_times(passes, scaled=True)
    solved = [o for o in outcomes if o.status == "solved"]
    generalized = sum(1 for o in solved if o.generalized)
    failed = sum(1 for o in outcomes if o.problems)
    pct, tail = _tail(times)
    raw = {
        "setup_s": statistics.median(d for _, d in setups),
        "tasks_per_s": len(outcomes) / sum(p.wall_s for p in passes),
        "solve_ms.p50": 1000 * statistics.median(raw_times),
        "solve_ms.tail": 1000 * _tail(raw_times)[1],
    }
    setup_s = statistics.median(
        d * (reference.local_scale(t0, t0 + d) or reference.scale()) for t0, d in setups)
    metrics = {
        "setup_s": (setup_s, "s"),
        "tasks_per_s": (len(outcomes) / sum(p.scaled_wall_s() for p in passes), "1/s"),
        "solve_ms.p50": (1000 * statistics.median(times), "ms"),
        "solve_ms.tail": (1000 * tail, "ms"),
        "solved_frac": (len(solved) / len(outcomes), "frac"),
        "generalized_frac": (_ratio(generalized, len(solved)), "frac"),
        "checked_frac": ((len(outcomes) - failed) / len(outcomes), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "unscaled": raw,
        "reference": {"median_ms": 1000 * statistics.median(reference.samples),
                      "samples": len(reference.samples),
                      "pass_scales": [round(p.scale, 4) for p in passes]},
        "solve_ms.tail": {"percentile": round(pct, 2), "samples": len(times),
                          "passes": len(passes)},
        "overfit_frac": _ratio(len(solved) - generalized, len(solved)),
        "failed_frac": failed / len(outcomes),
    }
    return metrics, detail


def per_layer_metrics(passes: list[Pass], tracing) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    c = traced[0].layers["count"]
    outcomes = traced[0].outcomes
    kept, executed = c["synth.forward.kept"], c["synth.exec_transform.calls"]
    tried = sum(o.counters[1] for o in outcomes)
    solved = sum(o.counters[2] for o in outcomes)
    m = {
        "synth.forward_tables": (sum(o.counters[0] for o in outcomes), "count"),
        "synth.forward.kept_ratio": (_ratio(kept, executed), "ratio"),
        "synth.hypotheses_tried": (tried, "count"),
        "synth.matches_solved": (solved, "count"),
        "synth.match.hit_ratio": (_ratio(solved, tried), "ratio"),
        "synth.score_subtable.calls": (c["synth.score_subtable.calls"], "count"),
        "synth.surjections.yielded": (c["synth.surjections.yielded"], "count"),
        "synth.solve.calls": (c["synth.solve.calls"], "count"),
        "synth.solve.cache_hit_ratio": (
            _ratio(c["synth.solve.cache_hits"], c["synth.solve.calls"]), "ratio"),
        "features.extract.calls": (c["features.extract.calls"], "count"),
        "features.extract.miss_ratio": (
            _ratio(c["features.extract.errors"], c["features.extract.calls"]), "ratio"),
        "dsl.exec_transform.errors": (
            c["dsl.exec_transform.errors"] + c["synth.exec_transform.errors"], "count"),
    }
    for name in tracing.SPAN_LAYERS:
        m[f"{name}.s"] = (statistics.median(p.layers["self_s"][name] for p in traced), "s")
    for name in ("table.Table",) + tuple(n for n in tracing.SPAN_LAYERS
                                         if n.startswith(("dsl.", "features."))):
        m[f"{name}.calls"] = (c[f"{name}.calls"], "count")
    for s in ("linear", "div", "mod", "sum", "substring", "concat"):
        name = f"features.solve_{s}"
        m[f"{name}.hit_ratio"] = (_ratio(c[f"{name}.hits"], c[f"{name}.calls"]), "ratio")
    traced_s = statistics.median(p.wall_s for p in traced)
    untraced_s = statistics.median(p.wall_s for p in untraced)
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.overhead_ratio"] = (_ratio(traced_s - untraced_s, untraced_s), "ratio")
    return m


def layer_shares(metrics: dict, traced: Pass, tracing) -> dict:
    """Where the traced time went: the layer with the most self time, the
    operator with the most time including the tables it builds, and who
    caused the table construction."""
    spans = {n: metrics[f"{n}.s"][0] for n in tracing.SPAN_LAYERS}
    total = sum(spans.values())
    ops = {n: traced.layers["total_s"].get(n, 0.0) for n in tracing.SPAN_LAYERS
           if n.startswith("dsl.")}
    table_callers = {caller: s for (name, caller), s in traced.layers["by_caller"].items()
                     if name == "table.Table"}
    return {
        "dominant_layer": max(spans, key=spans.get),
        "self_share": {n: round(v / total, 4) for n, v in
                       sorted(spans.items(), key=lambda kv: -kv[1])[:6]},
        "dominant_operator": max(ops, key=ops.get),
        "operator_share_incl": {n: round(v / total, 4) for n, v in ops.items()},
        "table_share_by_caller": {c: round(v / total, 4) for c, v in
                                  sorted(table_callers.items(), key=lambda kv: -kv[1])[:4]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "sweep", "parity-fwd", "rename"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    needed = [SRC / "tablesynth" / "__init__.py", ROOT / "benchmarks",
              ROOT / "schemas" / "run_report.schema.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: not a tablesynth checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tablesynth
    if Path(tablesynth.__file__).resolve().parent != SRC / "tablesynth":
        print(f"error: imported tablesynth from {tablesynth.__file__}", file=sys.stderr)
        return 2
    import tablesynth.progtext as progtext

    import checks
    import tracing
    import workloads

    build = workloads.WORKLOADS[args.workload]
    setups: list[tuple[float, float]] = []

    def set_up():
        spent = []
        while len(spent) < SETUP_MIN_REPEATS or (
                len(spent) < SETUP_MAX_REPEATS and sum(d for _, d in spent) < SETUP_FLOOR_S):
            t0 = reference.clock()
            workload = build(ROOT, args.seed)
            spent.append((t0, reference.clock() - t0))
        setups.extend(spent)
        return workload

    tracer = tracing.Tracer() if args.trace else None
    reference = Reference()
    passes: list[Pass] = []
    last_iteration = {False: 0.0, True: 0.0}  # set-up, pass and checks
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        iteration_start = time.perf_counter()
        with reference.sampling():
            workload = set_up()
        run_pass = run_corpus if workload.solve is None else run_generated
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        first_sample = len(reference.samples)
        try:
            # Traced passes are not scaled, and the timer would add its
            # work to whichever layer's span is open.
            with nullcontext() if traced else reference.sampling():
                wall, outcomes = run_pass(workload, checks, progtext, reference.clock)
        finally:
            if traced:
                tracer.uninstall()
        p = Pass(traced, wall, outcomes)
        if not traced:
            p.scale = reference.scale(first_sample)
            for o in outcomes:
                o.scale = reference.local_scale(o.start_s, o.start_s + o.solve_s) or p.scale
        if traced:
            p.layers = {"self_s": dict(tracer.self_s), "total_s": dict(tracer.total_s),
                        "by_caller": dict(tracer.self_by_caller),
                        "count": Counter(tracer.count)}
            p.layers["self_s"].update({n: 0.0 for n in tracing.SPAN_LAYERS
                                       if n not in tracer.self_s})
        passes.append(p)
        now = time.perf_counter()
        last_iteration[traced] = now - iteration_start
        enough = len(passes) >= (2 if tracer else 1)
        next_traced = tracer is not None and len(passes) % 2 == 1
        if enough and now - start + last_iteration[next_traced] > args.seconds:
            break

    # Every pass runs the same tasks: results and counters must repeat.
    first = passes[0].outcomes
    for p in passes[1:]:
        for o, ref in zip(p.outcomes, first):
            if o.fingerprint() != ref.fingerprint():
                o.problems.append("result or counters differ from the first pass")
    traced_passes = [p for p in passes if p.traced]
    for p in traced_passes[1:]:
        if p.layers["count"] != traced_passes[0].layers["count"]:
            for o in p.outcomes:
                o.problems.append("layer counters differ between traced passes")

    untraced = [p for p in passes if not p.traced]
    e2e, detail = end_to_end_metrics(setups, untraced, reference)
    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(1 for o in outcomes if o.problems)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "tasks_per_pass": len(first),
        "passes": {"untraced": len(untraced), "traced": len(traced_passes)},
        "setup_repeats": len(setups),
        "counters": {
            "forward_tables": sum(o.counters[0] for o in first),
            "hypotheses_tried": sum(o.counters[1] for o in first),
            "matches_solved": sum(o.counters[2] for o in first),
        },
        "program_digest": _digest(first),
        "problems": sorted({f"{o.case_id}: {msg}" for o in outcomes
                            for msg in o.problems})[:20],
    })
    if tracer:
        metrics = per_layer_metrics(passes, tracing)
        detail["counters"].update({
            k: metrics[k][0] for k in metrics
            if k.endswith(".calls") and k.startswith(("features.", "synth."))})
        detail.update(layer_shares(metrics, traced_passes[0], tracing))
    else:
        metrics = e2e
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
