"""plkit benchmark: seeded, single-process, closed-loop workloads.

    python3 perfbench/run.py --workload check_corpus --seed 1 --seconds 25 --trace 0

Run from the root of a plkit checkout; plkit is imported from its `src/`.
One caller issues one operation at a time and waits for it (closed loop).
Every output is checked against what the seeded generator wrote
(`corpus.py`). With `--trace 0` the last stdout line is a JSON object with
the end-to-end metrics; with `--trace 1` every operation runs twice, once
plain and once with spans recorded around each layer (`tracing.py`), and the
JSON holds the per-layer metrics and the tracing overhead. Lines before it,
prefixed with '#', name the per-workload figures and every known-defect
probe. Generated inputs live under `.perfbench/` and are removed on exit;
the spans of a traced run are written to `.perfbench/traces/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import reprlib
import resource
import shutil
import statistics
import sys
import types
from collections import Counter

import corpus
from tracing import Tracer, clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

PROJECT_FILES = 200
# Set-ups per run, their median being setup_s: as many as fit in a few
# seconds (an import takes ~0.07 s, a consult ~0.8 s, a build ~6 s).
IMPORT_REPS, CONSULT_REPS, BUILD_REPS = 5, 5, 3
# Imports back to back all fall in one second of the run, and the speed of a
# shared virtual machine can change from one second to the next, so
# check_corpus times more imports after each check.
IMPORTS_PER_CHECK = 3
# One IDE cycle runs one query of each kind. No traffic mix is assumed: each
# kind's latency is reported on its own, and kind_mean_ms weighs them equally.
IDE_KINDS = ("hover", "hover_import", "hover_doc", "complete", "complete_var",
             "outline", "fix")
DEEP_NESTING = 400
# The speed of a shared virtual machine drifts by up to 1.4x for tens of
# seconds at a time, longer than a run can average out. A fixed pure-Python
# loop, timed once per CALIBRATE_EVERY seconds of the timed loop, measures
# that speed; the end-to-end times are scaled by REFERENCE_MS (the loop's
# usual time on the baseline's host) over its mean, to the power
# HOST_EXPONENT. The exponent is below 1 because part of plkit's time waits
# on memory, which does not follow the CPU's speed: over runs on that host,
# the IDE queries' spread was least at 0.5, the solver's at 1, and 0.75 kept
# every metric of every workload steady.
CALIBRATE_EVERY = 0.2
REFERENCE_MS = 1.7
HOST_EXPONENT = 0.75


# --- plkit ------------------------------------------------------------------

def import_plkit() -> types.SimpleNamespace:
    """(Re)import plkit from this checkout's src/ and return its modules."""
    for name in [n for n in sys.modules if n == "plkit" or n.startswith("plkit.")]:
        del sys.modules[name]
    pl = types.SimpleNamespace(**{
        name: importlib.import_module(f"plkit.{name}")
        for name in ("cli", "database", "docgen", "engine", "lexer", "terms",
                     "workspace")
    })
    if not os.path.abspath(pl.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"plkit was imported from {pl.cli.__file__}, not {SRC}")
    return pl


def install_layers(tracer: Tracer, pl):
    """Wrap each layer's entry point where its caller looks it up."""
    counts = tracer.counts

    def lexed(args, result, first):
        counts["lexer.tokens"] += len(result[0])
        counts["lexer.bytes"] += len(args[0])

    def read(args, result, first):
        counts["reader.sentences"] += len(result[0])

    def consulted(args, result, first):
        counts["loader.consult_calls"] += 1
        if result is not None and "lexer" not in tracer.names_since(first):
            counts["loader.cache_hits"] += 1

    def docs(args, result, first):
        counts["docgen.project_docs_calls"] += 1

    def printed(args, result, first):
        counts["printer.calls"] += 1

    # Loader.consult_file imports tokenize at call time; the CLI and the
    # workspace bind build_project, print_diagnostics, index_file, link and
    # pretty_print at import time; _hover_doc imports project_docs per call.
    tracer.patch(pl.lexer, "tokenize", "lexer", lexed)
    tracer.patch(pl.engine, "consult_tokens", "reader", read)
    tracer.patch(pl.engine.Loader, "consult_file", "loader", consulted)
    tracer.patch(pl.workspace, "index_file", "workspace.index_file")
    tracer.patch(pl.workspace, "link", "workspace.link")
    tracer.patch(pl.workspace, "build_project", "workspace.build_project")
    tracer.patch(pl.cli, "build_project", "workspace.build_project")
    tracer.patch(pl.cli, "print_diagnostics", "cli.print_diagnostics")
    tracer.patch(pl.docgen, "project_docs", "docgen.project_docs", docs)
    tracer.patch(pl.workspace, "pretty_print", "printer.pretty_print", printed)
    tracer.count(pl.engine.Solver, "_solve_user", "engine.inferences")
    tracer.count(pl.database.Database, "lookup", "database.lookup_calls")
    tracer.start()


# --- host speed -----------------------------------------------------------------

class _Cell:
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail


def reference_work() -> int:
    """Fixed work of the kind plkit does: allocate small objects, follow
    references, hash into a dict. About 2 ms; plkit is not involved."""
    total = 0
    for _ in range(12):
        cells = None
        for i in range(300):
            cells = _Cell((i, "a"), cells)
        seen = {}
        while cells is not None:
            seen[cells.head] = seen.get(cells.head, 0) + 1
            total += cells.head[0]
            cells = cells.tail
    return total


# --- operations ---------------------------------------------------------------

class Op:
    """One timed call and the check of its result."""

    def __init__(self, kind: str, call, check, span: str | None = None):
        self.kind = kind
        self.call = call      # () -> result
        self.check = check    # result -> bool
        self.span = span      # name of the layer span the harness records


class Runner:
    """Times operations; in trace mode runs each one plain and traced.

    With `collect_each`, a full collection runs before every operation,
    outside the timed region, so no operation pays for its predecessor's
    garbage.
    """

    def __init__(self, traced: bool, collect_each: bool = False):
        self.pl = None  # plkit modules, set by timed_setup
        self.traced = traced
        self.collect_each = collect_each
        self.tracing = False
        self.tracer = Tracer()
        self.samples: list[tuple[str, float, bool]] = []   # plain runs
        self.traced_samples: list[tuple[str, float, bool]] = []
        self.setup_counts: Counter = Counter()  # tracer counts of the traced set-up
        self.pair = 0
        self.units = 0
        self.calibration: list[float] = []  # times of reference_work
        self.last_calibration = clock()

    def calibrate(self, minimum: int = 0):
        """Time reference_work once per CALIBRATE_EVERY seconds since the
        last sample, so the samples cover the run evenly, and until there
        are `minimum` samples. The collector is off meanwhile, so plkit's
        heap stays out of them."""
        due = int((clock() - self.last_calibration) / CALIBRATE_EVERY)
        self.last_calibration += due * CALIBRATE_EVERY
        due = max(due, minimum - len(self.calibration))
        for _ in range(due):
            gc.disable()
            start = clock()
            reference_work()
            self.calibration.append(clock() - start)
            gc.enable()

    def span(self, name: str):
        """A span around a call the harness makes, when tracing."""
        return self.tracer.span(name) if self.tracing else contextlib.nullcontext()

    def _once(self, op: Op, trace: bool) -> tuple[float, bool]:
        tracer = self.tracer
        self.calibrate()
        if self.collect_each:
            gc.collect()
        if trace:
            install_layers(tracer, self.pl)
            tracer.begin("op")
            self.tracing = True
        start = clock()
        try:
            if op.span:
                with self.span(op.span):
                    result = op.call()
            else:
                result = op.call()
            error = None
        except Exception as err:  # a crash is a failed operation
            result, error = None, err
        elapsed = clock() - start
        if trace:
            self.tracing = False
            tracer.end()
            tracer.stop()
        try:
            ok = error is None and bool(op.check(result))
        except Exception:  # output too malformed to check
            ok = False
        return elapsed, ok

    def run(self, op: Op):
        if not self.traced:
            self.samples.append((op.kind, *self._once(op, False)))
            return
        # alternate which run goes first, so warm caches favour neither
        order = (False, True) if self.pair % 2 == 0 else (True, False)
        self.pair += 1
        for trace in order:
            (self.traced_samples if trace else self.samples).append(
                (op.kind, *self._once(op, trace)))

    def loop(self, ops: list[Op], unit: int, seconds: float, between=None):
        """Run `ops` round-robin, `unit` at a time, until `seconds` have
        passed, calling `between()` between units. In trace mode every unit
        also runs traced, and the per-layer figures are per unit. The host's
        speed is sampled over the loop only."""
        self.last_calibration = clock()
        deadline = clock() + seconds
        i = 0
        while True:
            for _ in range(unit):
                self.run(ops[i % len(ops)])
                i += 1
            self.units += 1
            if clock() >= deadline:
                self.calibrate(minimum=1)
                return
            if between is not None:
                between()


def captured(fn, *args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fn(*args)
    return code, buf.getvalue()


# --- set-up -------------------------------------------------------------------

def setup_once(runner: Runner, build) -> tuple[float, object]:
    """Import plkit into `runner.pl` and run `build` on it, from a collected
    heap; return the time taken and the result. The caller releases its
    previous result first, so set-ups do not drift with a growing heap."""
    runner.pl = None
    gc.collect()
    start = clock()
    runner.pl = import_plkit()
    result = build(runner.pl)
    return clock() - start, result


def timed_setup(runner: Runner, reps: int, build):
    """Set up `reps` times and keep the last result. In trace mode one more
    set-up is traced; it is paired with the median plain one for overhead.
    """
    times, result = [], None
    for _ in range(reps):
        result = None
        elapsed, result = setup_once(runner, build)
        times.append(elapsed)
    if runner.traced:
        result = None
        gc.collect()
        tracer = runner.tracer
        tracer.begin("setup")
        start = clock()
        runner.pl = import_plkit()
        install_layers(tracer, runner.pl)
        result = build(runner.pl)
        elapsed = clock() - start
        tracer.end()
        tracer.stop()
        runner.setup_counts = Counter(tracer.counts)
        runner.traced_samples.append(("setup", elapsed, True))
        runner.samples.append(("setup", statistics.median(times), True))
    gc.collect()
    return times, result


# --- workloads ------------------------------------------------------------------

def check_corpus(args, work):
    """Cold `plkit check --format machine` runs over the generated project."""
    project = os.path.join(work, "project")
    manifest = corpus.make_project(project, PROJECT_FILES, args.seed)
    runner = Runner(args.trace, collect_each=True)
    times, _ = timed_setup(runner, IMPORT_REPS, lambda pl: None)

    def check(result):
        code, out = result
        got = Counter()
        for line in out.splitlines():
            fields = line.split("\t")
            got[(fields[6], os.path.relpath(fields[0], project), int(fields[1]))] += 1
        return code == 1 and got == manifest.diagnostics

    op = Op("check", lambda: captured(runner.pl.cli.main,
                                      ["check", project, "--format", "machine"]),
            check)

    def imports():
        for _ in range(IMPORTS_PER_CHECK):
            times.append(setup_once(runner, lambda pl: None)[0])
    runner.loop([op], 1, args.seconds, imports)
    report = {"check.wall_s": (median_of(runner.samples, "check"), "s")}
    return times, runner, report


def ide_session(args, work):
    """A seeded mix of IDE queries against one built project."""
    project = os.path.join(work, "project")
    manifest = corpus.make_project(project, PROJECT_FILES, args.seed)
    runner = Runner(args.trace)
    times, model = timed_setup(runner, BUILD_REPS,
                               lambda pl: pl.workspace.build_project(project))
    pl = runner.pl
    ws = pl.workspace
    rng = random.Random(args.seed)

    def path(rel):
        return os.path.join(project, rel)

    def hover_def(rel, offset, key):
        target = manifest.defs[key]
        suffix = f" defined at {os.path.basename(target.file)}:{target.line}"
        return Op("hover", lambda: ws.hover(path(rel), offset, "definition", model),
                  lambda r: r is not None and r.text.startswith(key[0] + "(")
                  and r.text.endswith(suffix), "workspace.hover")

    def hover_text(kind, mode, rel, offset, expected):
        return Op(kind, lambda: ws.hover(path(rel), offset, mode, model),
                  lambda r: r is not None and r.text == expected, f"workspace.{kind}")

    def complete(kind, rel, offset, label):
        return Op(kind, lambda: ws.complete(path(rel), offset, model),
                  lambda items: label in [item.label for item in items],
                  f"workspace.{kind}")

    def outline(rel, expected):
        module, labels = expected
        kinds = {"ExportedPredicate", "PrivatePredicate", "DcgNonterminal"}

        def ok(items):
            return ([i.label for i in items if i.kind == "Module"] == [module]
                    and {i.label for i in items if i.kind in kinds} == labels)
        return Op("outline", lambda: ws.outline(path(rel), model), ok,
                  "workspace.outline")

    by_position = {(d.code, os.path.relpath(d.span.file_id, project), d.span.start_line): d
                   for d in model.diagnostics}
    verified: dict[tuple, bool] = {}

    def fix(code, rel, line, edited, inserted):
        diagnostic = by_position[(code, rel, line)]
        edited = path(edited)

        def call():
            with runner.span("workspace.quick_fixes"):
                fixes = ws.quick_fixes(diagnostic, model)
            with runner.span("workspace.apply_fix"):
                return fixes, ws.apply_fix(fixes[0], model.sources)

        def ok(result):
            fixes, updated = result
            if len(fixes) != 1 or inserted not in updated[edited] \
                    or inserted in model.sources[edited]:
                return False
            if any(updated[f] is not text for f, text in model.sources.items()
                   if f != edited):
                return False
            key = (code, rel, line)
            if key not in verified:
                verified[key] = fix_removes(pl, model, diagnostic, edited,
                                            updated[edited])
            return verified[key]
        return Op("fix", call, ok)

    pools = {
        "hover": [hover_def(*q) for q in manifest.hover_def],
        "hover_import": [hover_text("hover_import", "definition", *q)
                         for q in manifest.hover_import],
        "hover_doc": [hover_text("hover_doc", "doc", *q) for q in manifest.hover_doc],
        "complete": [complete("complete", *q) for q in manifest.complete],
        "complete_var": [complete("complete_var", *q) for q in manifest.complete_var],
        "outline": [outline(rel, manifest.outlines[rel]) for rel in manifest.files],
        "fix": [fix(*q) for q in manifest.fixes],
    }
    for pool in pools.values():
        rng.shuffle(pool)
    # Each unit of the loop is one cycle, one query of each kind; the
    # pools differ in length, so the sequence is long enough for every
    # pool to come round.
    ops = [pools[kind][n % len(pools[kind])]
           for n in range(max(map(len, pools.values()))) for kind in IDE_KINDS]
    runner.loop(ops, len(IDE_KINDS), args.seconds)

    queries = [s for s in runner.samples if s[0] != "setup"]
    report = {
        "ide.hover_p50_ms": (1e3 * median_of(runner.samples, "hover"), "ms"),
        "ide.hover_doc_p50_ms": (1e3 * median_of(runner.samples, "hover_doc"), "ms"),
        "ide.complete_p50_ms": (1e3 * median_of(runner.samples, "complete"), "ms"),
        "ide.query_p99_ms": (1e3 * percentile([s[1] for s in queries], 99), "ms"),
        "ide.queries_per_s": (len(queries) / sum(s[1] for s in queries), "1/s"),
    }
    return times, runner, report


def fix_removes(pl, model, diagnostic, edited, text) -> bool:
    """Re-analyse the edited file against the built model; True when the
    fixed diagnostic is gone."""
    db = pl.database.Database()
    sentences, diags = pl.engine.consult_source(text, db, model.loader, edited)
    indices = {edited: pl.workspace.index_file(sentences, db, edited, [], diags)}
    home = diagnostic.span.file_id
    if home != edited:
        indices[home] = model.file_index(home)
    _, linked = pl.workspace.link(indices, model.loader)
    return not any(d.code == diagnostic.code and d.span.file_id == home
                   and d.message == diagnostic.message for d in linked)


def solve_goals(args, work):
    """Consult one engine program, then solve seeded goals."""
    program = os.path.join(work, "engine.pl")
    goals = corpus.make_program(program, args.seed)

    def consult(pl):
        db, _, diagnostics = pl.engine.Loader().consult_file(program)
        if diagnostics:
            raise RuntimeError(f"engine program has diagnostics: {diagnostics}")
        return db

    # Each goal starts from a collected heap, so the garbage of the goals
    # before it (their order is seeded) does not land in its time.
    runner = Runner(args.trace, collect_each=True)
    times, db = timed_setup(runner, CONSULT_REPS, consult)
    pl = runner.pl
    # a unit of the loop is every cycle, so each size runs equally often
    cycles = [goal_op(pl, db, goal, runner) for goal in goals]
    runner.loop(cycles, len(cycles), args.seconds)

    nrev_goals = [g for g in goals if g.kind == "nrev"]
    nrev = [s for s in runner.samples if s[0] == "nrev"]
    inferences = len(nrev) // len(nrev_goals) * sum(g.inferences for g in nrev_goals)
    report = {
        "solve.nrev_lips": (inferences / sum(s[1] for s in nrev), "1/s"),
        "solve.lookup_p50_ms": (1e3 * median_of(runner.samples, "lookup_first"), "ms"),
        "solve.lookup_later_p50_ms": (1e3 * median_of(runner.samples, "lookup_later"),
                                      "ms"),
    }
    return times, runner, report


def goal_op(pl, db, goal, runner) -> Op:
    """An Op solving `goal`; its answers must equal the Python-computed ones.
    In trace mode the counted inferences must equal the analytic count."""
    T = pl.terms
    names: list[str] = []

    def term(value):
        if value is None:
            names.append(f"Out{len(names)}")
            return T.Var(names[-1], 10 ** 9 + len(names))
        if isinstance(value, int):
            return T.Int(value)
        if isinstance(value, str):
            return T.Atom(value)
        return T.make_list([term(v) for v in value])

    query = T.Compound(goal.functor, [term(a) for a in goal.args])
    counts = runner.tracer.counts
    mark = [0, False]  # inference count before the call; traced or not

    def call():
        mark[:] = counts["engine.inferences"], runner.tracing
        return list(pl.engine.solve(query, db))

    def check(answers):
        got = [tuple(value(T, b[n]) for n in names) for b in answers]
        if got != goal.answer:
            return False
        # an untraced run counts nothing
        expected = goal.inferences if mark[1] else 0
        return counts["engine.inferences"] - mark[0] == expected
    return Op(goal.kind, call, check, "engine.solve")


def value(T, term):
    """A term built from plkit.terms `T` as a Python int, atom name or
    list; None for any other term."""
    if isinstance(term, T.Int):
        return term.value
    if isinstance(term, T.Atom) and term.name != "[]":
        return term.name
    items = []
    while isinstance(term, T.Compound) and term.name == "." and len(term.args) == 2:
        items.append(value(T, term.args[0]))
        term = term.args[1]
    return items if isinstance(term, T.Atom) and term.name == "[]" else None


# --- known-defect probes ------------------------------------------------------

def probes(work) -> dict[str, str]:
    """Inputs that plkit mishandles today. Each result is 'pass' or 'fail:
    why'; none is timed. Run untraced after the timed loop."""
    pl = import_plkit()
    T = pl.terms
    program = os.path.join(work, "probe.pl")
    with open(program, "w", encoding="utf-8") as fh:
        fh.write(corpus.ENGINE_RULES)
    db = pl.engine.Loader().consult_file(program)[0]
    results = {}

    def probe(name, expected, fn):
        try:
            got = fn()
        except Exception as err:
            got = type(err).__name__
        results[name] = "pass" if got == expected else f"fail: got {reprlib.repr(got)}"

    def solutions(query, var):
        return [value(T, b[var]) for b in pl.engine.solve(query, db)]

    items = list(range(300))
    probe("nrev_300", [items[::-1]], lambda: solutions(
        T.Compound("nrev", [T.make_list([T.Int(i) for i in items]), T.Var("R", 1)]),
        "R"))
    probe("count_300", 1, lambda: len(list(pl.engine.solve(
        T.Compound("count", [T.Int(300)]), db))))
    probe("cut_commits", [1], lambda: solutions(
        T.Compound("first", [T.Var("X", 1)]), "X"))

    deep = os.path.join(work, "deep")
    os.makedirs(deep)
    with open(os.path.join(deep, "deep.pl"), "w", encoding="utf-8") as fh:
        fh.write("deep(" + "f(" * DEEP_NESTING + "a" + ")" * DEEP_NESTING + ").\n")
    probe("nested_400_check", (0, ""), lambda: captured(
        pl.cli.main, ["check", deep, "--format", "machine"]))

    # hover on the second use_module target of a file must describe that
    # import, not the first one
    side = os.path.join(work, "imports")
    os.makedirs(side)
    for name, exports in (("one", "a/0"), ("two", "b/0")):
        with open(os.path.join(side, f"{name}.pl"), "w", encoding="utf-8") as fh:
            fh.write(f":- module({name}, [{exports}]).\n{exports[0]}.\n")
    main_text = ":- use_module(one).\n:- use_module(two).\n"
    with open(os.path.join(side, "main.pl"), "w", encoding="utf-8") as fh:
        fh.write(main_text)

    def second_import():
        model = pl.workspace.build_project(side)
        info = pl.workspace.hover(os.path.join(side, "main.pl"),
                                  main_text.index("two"), "definition", model)
        return info.text if info else None
    probe("hover_second_import", "two exports: b/0", second_import)
    return results


# --- metrics --------------------------------------------------------------------

def median_of(samples, kind) -> float:
    return statistics.median(s[1] for s in samples if s[0] == kind)


def percentile(values, p) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def by_kind(samples) -> dict[str, list[float]]:
    """Latencies of each operation kind."""
    kinds: dict[str, list[float]] = {}
    for kind, elapsed, _ in samples:
        if kind != "setup":
            kinds.setdefault(kind, []).append(elapsed)
    return dict(sorted(kinds.items()))


def trimmed_mean(values, share=0.01) -> float:
    """Mean without the fastest and slowest `share` of the values."""
    values = sorted(values)
    cut = int(len(values) * share)
    return statistics.fmean(values[cut:len(values) - cut])


def host_scale(runner: Runner) -> float:
    """REFERENCE_MS over the mean time of reference_work in this run, to
    the power HOST_EXPONENT."""
    return (REFERENCE_MS / (1e3 * trimmed_mean(runner.calibration))) ** HOST_EXPONENT


def end_to_end(times, runner: Runner) -> dict:
    """Every time is scaled by host_scale, an estimate of the time it would
    have taken on the baseline's host at its usual speed."""
    scale = host_scale(runner)
    ops = [s[1] for s in runner.samples if s[0] != "setup"]
    # A mean, not a median: on a shared virtual machine the CPU's speed can
    # switch between states ~1.5x apart every few seconds, and a median
    # snaps to whichever state held most of a run. The 1% trim keeps a rare
    # full collection out of a sub-millisecond kind; op_p99_ms still sees it.
    means = [trimmed_mean(v) for v in by_kind(runner.samples).values()]
    return {
        "setup_s": (scale * statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "kind_mean_ms": (scale * 1e3 * statistics.geometric_mean(means), "ms"),
        "op_p99_ms": (scale * 1e3 * percentile(ops, 99), "ms"),
        "ops_per_s": (len(ops) / sum(ops) / scale, "1/s"),
    }


def per_layer(runner: Runner) -> dict:
    """Per-layer figures of a traced run.

    Times and counts are the traced set-up's plus the mean of one traced
    unit of the loop (a check, an IDE cycle, all solve cycles), so they do
    not grow with the number of units that fit in the run. Ratios are taken
    over the whole traced run.
    """
    tracer = runner.tracer
    by_root = tracer.self_times()
    setup, ops = by_root["setup"], by_root["op"]
    units = runner.units
    counts = tracer.counts
    setup_counts = runner.setup_counts
    setup_wall = sum(s[1] for s in runner.traced_samples if s[0] == "setup")
    wall = sum(s[1] for s in runner.traced_samples)
    plain = sum(s[1] for s in runner.samples)

    def self_s(name):
        return setup[name] + ops[name] / units

    def total_s(name):
        return setup[name] + ops[name]

    def count(name):
        return setup_counts[name] + (counts[name] - setup_counts[name]) / units

    def ratio(a, b):
        return a / b if b else 0.0

    def p50_ms(name):
        values = tracer.durations(name)
        return 1e3 * statistics.median(values) if values else 0.0

    queries = ("workspace.hover", "workspace.hover_import", "workspace.hover_doc",
               "workspace.complete", "workspace.complete_var", "workspace.outline",
               "workspace.quick_fixes", "workspace.apply_fix")
    metrics = {name: (self_s(span), "s") for name, span in (
        ("lexer.self_s", "lexer"),
        ("reader.self_s", "reader"),
        ("loader.self_s", "loader"),
        ("workspace.index_self_s", "workspace.index_file"),
        ("workspace.link_self_s", "workspace.link"),
        ("workspace.build_residual_s", "workspace.build_project"),
        ("cli.emit_self_s", "cli.print_diagnostics"),
        ("gc.pause_s", "gc"),
        ("docgen.project_docs_s", "docgen.project_docs"),
        ("printer.self_s", "printer.pretty_print"),
        ("engine.solve_s", "engine.solve"),
    )}
    residual = setup["setup"] + ops["op"]
    doc_hovers = sum(1 for s in runner.traced_samples if s[0] == "hover_doc")
    metrics.update({
        "workspace.query_self_s": (sum(map(self_s, queries)), "s"),
        "lexer.tokens": (count("lexer.tokens"), "count"),
        "lexer.bytes_per_s": (ratio(counts["lexer.bytes"], total_s("lexer")), "B/s"),
        "reader.sentences_per_s": (ratio(counts["reader.sentences"], total_s("reader")),
                                   "1/s"),
        "loader.consult_calls": (count("loader.consult_calls"), "count"),
        "loader.cache_hit_ratio": (ratio(counts["loader.cache_hits"],
                                         counts["loader.consult_calls"]), "ratio"),
        "gc.gen2_collections": (count("gc.gen2_collections"), "count"),
        "gc.pause_share": (ratio(total_s("gc"), wall), "ratio"),
        "docgen.project_docs_calls_per_doc_hover": (
            ratio(counts["docgen.project_docs_calls"], doc_hovers), "ratio"),
        "printer.calls": (count("printer.calls"), "count"),
        "engine.inferences": (count("engine.inferences"), "count"),
        "engine.inferences_per_s": (ratio(counts["engine.inferences"],
                                          total_s("engine.solve")), "1/s"),
        "database.lookup_calls": (count("database.lookup_calls"), "count"),
        "trace.wall_s": (setup_wall + (wall - setup_wall) / units, "s"),
        "trace.residual_s": (setup["setup"] + ops["op"] / units, "s"),
        "trace.residual_share": (ratio(residual, wall), "ratio"),
        # spans measured against the harness's own clock: 1 unless a span
        # escaped its operation or one was left open
        "trace.accounted_frac": (ratio(tracer.root_time(), wall), "ratio"),
        "trace.overhead_frac": (ratio(wall, plain) - 1, "ratio"),
    })
    for name in queries:
        metrics[f"{name}_p50_ms"] = (p50_ms(name), "ms")
    return metrics


WORKLOADS = {
    "check_corpus": check_corpus,
    "ide_session": ide_session,
    "solve_goals": solve_goals,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)

    if not os.path.isdir(os.path.join(SRC, "plkit")):
        print(f"error: no plkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        times, runner, report = WORKLOADS[args.workload](args, work)
        outcomes = probes(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = runner.samples + runner.traced_samples
    failed = sum(1 for s in ops if not s[2])
    failed_probes = sum(1 for o in outcomes.values() if o != "pass")
    report["failed_frac"] = ((failed + failed_probes) / (len(ops) + len(outcomes)),
                             "ratio")
    for name, outcome in outcomes.items():
        print(f"# probe {name}: {outcome}")
    for name, (v, unit) in report.items():
        print(f"# {name} {v:.6g} {unit}")
    for kind, values in by_kind(runner.samples).items():
        print(f"# kind {kind}: p50 {1e3 * statistics.median(values):.6g} ms, "
              f"mean {1e3 * trimmed_mean(values):.6g} ms over {len(values)} operations")

    if args.trace:
        print(f"# trace: per-layer figures per set-up plus one of {runner.units} units")
        metrics = per_layer(runner)
        metrics["probe.failed"] = (failed_probes, "count")
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        runner.tracer.dump(os.path.join(
            WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl"))
    else:
        print(f"# host: reference loop {1e3 * trimmed_mean(runner.calibration):.4g} ms "
              f"(baseline {REFERENCE_MS} ms) over {len(runner.calibration)} samples; "
              f"end-to-end times scaled by {host_scale(runner):.4f}")
        metrics = end_to_end(times, runner)
    # a traced run whose spans do not cover its operations is not correct
    accounted = metrics.get("trace.accounted_frac", (1.0, ""))[0]
    trace_ok = abs(accounted - 1) <= 0.02
    if not trace_ok:
        print(f"# trace check failed: spans cover {accounted:.4f} of the traced time")
    print(json.dumps({
        "correct": failed == 0 and trace_ok,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
