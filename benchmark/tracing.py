"""The traced run: per-layer metrics from spans recorded around catalan_lab calls.

Spans are recorded from this file only, around calls into the library's
modules (words, formulas, paths, bijections, verify, oeis) and the CLI.
Nothing inside the library is changed. A span holds a name, the span that
was open when it started (its parent), its first start, its last end, the
time spent inside it, its call count and a work count. Calls to a wrapped
function with the same name under the same parent fold into one span, so
that the 200k stat_value calls of one distribution stay one record; each
block the layer suite times is a span of its own. The spans stay in memory
and are written out with the run record when the run ends. A span's self
time is its busy time minus the busy time of its direct children.

The run has four parts:

1. the chosen workload once as fresh processes, untraced, which gives the
   reference wall time that the trace overhead is stated against;
2. the commands of all three workloads in this process through
   ``cli.main(argv)`` with standard output captured and the library's
   functions wrapped, which gives the ``cli.*`` times, the sweep, identity,
   verify, oeis and sampler spans, and, for the chosen workload, the traced
   time against the reference and the share of it that layer self times
   account for;
3. ``totals --parallel 2`` in this process, untraced, beside the traced
   ``totals`` of part 2;
4. the layer suite: blocks that call each module's public functions
   directly on fixed inputs (and seeded random ones at n=100).

Every output and every block result is checked; a failed check counts
toward the run's ``failed``.
"""

import contextlib
import functools
import io
import itertools
import math
import random
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import checks
import runner
from workloads import COMMAND_NAMES, WORKLOADS

from catalan_lab import bijections, cli, formulas, oeis, paths, verify, words
from catalan_lab.formulas import IdentityId
from catalan_lab.paths import D, U
from catalan_lab.words import StatId, StatKind


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    busy: float = 0.0
    calls: int = 0
    count: int = 0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[tuple[Span, float]] = field(default_factory=list)
    _folded: dict[tuple[str, int | None], Span] = field(default_factory=dict)

    def _enter(self, name: str, fold: bool) -> Span:
        parent = self._stack[-1][0].id if self._stack else None
        span = self._folded.get((name, parent)) if fold else None
        if span is None:
            span = Span(len(self.spans), name, parent)
            self.spans.append(span)
            if fold:
                self._folded[(name, parent)] = span
        now = time.perf_counter()
        if not span.calls:
            span.start = now
        span.calls += 1
        self._stack.append((span, now))
        return span

    def _leave(self) -> None:
        span, started = self._stack.pop()
        now = time.perf_counter()
        span.busy += now - started
        span.end = now

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time a block as a span of its own."""
        span = self._enter(name, fold=False)
        try:
            yield span
        finally:
            self._leave()

    def wrap(self, fn: Callable, name, count: Callable | None = None) -> Callable:
        """fn with each call recorded; name is a string or a function of the args."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            span = self._enter(label, fold=True)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave()
            if count is not None:
                span.count += count(result)
            return result

        return traced

    def wrap_iter(self, fn: Callable, name: str) -> Callable:
        """Generator function fn with the time inside each next() recorded."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._iterate(name, fn(*args, **kwargs))

        return traced

    def _iterate(self, name: str, items: Iterator) -> Iterator:
        while True:
            span = self._enter(name, fold=True)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self._leave()
            span.count += 1
            yield item

    def self_times(self) -> dict[int, float]:
        child_busy: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_busy[s.parent] = child_busy.get(s.parent, 0.0) + s.busy
        return {s.id: s.busy - child_busy.get(s.id, 0.0) for s in self.spans}

    def descendants(self, root: int) -> list[Span]:
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        out, todo = [], [root]
        while todo:
            for s in kids.get(todo.pop(), []):
                out.append(s)
                todo.append(s.id)
        return out

    def total(self, name: str, attr: str = "busy") -> float:
        return sum(getattr(s, attr) for s in self.spans if s.name == name)


def _cases(report: verify.VerifyReport) -> int:
    return report.cases_run


def _wrapped_functions(tracer: Tracer) -> list[tuple[object, str, Callable]]:
    """(owner, attribute, traced replacement) for each call site the CLI uses."""
    calls = [
        (
            cli,
            "sweep_totals",
            words.sweep_totals,
            lambda n, **_: f"words.sweep_totals.n{n}",
        ),
        (cli, "stat_value", words.stat_value, "words.stat_value"),
        (cli, "closed_total", formulas.closed_total, "formulas.closed_total"),
        (cli, "narayana", formulas.narayana, "formulas.narayana"),
        (oeis, "closed_total", formulas.closed_total, "formulas.closed_total"),
        (
            formulas,
            "identity_check",
            formulas.identity_check,
            lambda ident, *_: f"formulas.identity_check.{ident.value}",
        ),
        (
            cli,
            "random_dyck_path",
            bijections.random_dyck_path,
            lambda n, *_: f"bijections.random_dyck_path.n{n}",
        ),
        (oeis, "format_bfile", oeis.format_bfile, "oeis.format_bfile"),
    ]
    replacements = [
        (owner, attr, tracer.wrap(fn, name)) for owner, attr, fn, name in calls
    ]
    replacements += [
        (cli, attr, tracer.wrap_iter(fn, name))
        for attr, fn, name in (
            ("enumerate_catalan", words.enumerate_catalan, "words.enumerate_catalan"),
            ("enumerate_dyck", paths.enumerate_dyck, "paths.enumerate_dyck"),
        )
    ]
    replacements += [
        (
            oeis.OeisBinding,
            "terms",
            tracer.wrap(oeis.OeisBinding.terms, lambda b, _: f"oeis.terms.{b.id}", len),
        ),
    ]
    for suite in verify.SUITE_CAPS:
        fn = getattr(verify, f"verify_{suite}")
        traced = tracer.wrap(fn, f"verify.{suite}", _cases)
        replacements.append((verify, fn.__name__, traced))
    return replacements


@contextlib.contextmanager
def _patched(replacements: list[tuple[object, str, Callable]]) -> Iterator[None]:
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, replacement in replacements:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


class Checker:
    """Counts attempted and failed checks and keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail or 'check failed'}")

    def output(self, label: str, code: int, text: str, check: Callable) -> None:
        try:
            if code != 0:
                raise checks.CheckFailed(f"exit code {code}")
            check(text)
        except checks.CheckFailed as exc:
            self(label, False, str(exc))
        else:
            self(label, True)


def _cli_in_process(args: tuple[str, ...]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    return code, buf.getvalue()


def _run_commands(
    tracer: Tracer, check: Checker, seed: int
) -> tuple[dict[str, int], dict[tuple[str, ...], str]]:
    """Part 2: every workload's commands in process, traced.

    Returns the span id of each workload and the output of each command.
    """
    roots, outputs = {}, {}
    with _patched(_wrapped_functions(tracer)):
        for workload, commands in WORKLOADS.items():
            with tracer.span(f"workload.{workload}") as root:
                for cmd in commands(seed):
                    with tracer.span(f"cli.{cmd.name}"):
                        code, outputs[cmd.args] = _cli_in_process(cmd.args)
                    check.output(" ".join(cmd.args), code, outputs[cmd.args], cmd.check)
            roots[workload] = root.id
    return roots, outputs


# ---------------------------------------------------------------- layer suite
#
# Sizes: words at n=11/12, Dyck paths at n=8..12 and random inputs at n=100,
# binomials on both sides of PASCAL_ROW_LIMIT, closed forms at n=2000.

STAT_WORD_N = 11
ROUNDTRIP_N = 8
RANDOM_N = 100
RANDOM_INPUTS = 20
COUNT_FACTOR_N = 10


def _timed(tracer: Tracer, name: str, fn: Callable[[], object]) -> tuple[object, float]:
    with tracer.span(name) as span:
        result = fn()
    return result, span.busy


def _words_layer(tracer: Tracer, check: Checker, out: dict) -> None:
    n = STAT_WORD_N
    count, t = _timed(
        tracer,
        "words.enumerate_catalan",
        lambda: sum(1 for _ in words.enumerate_catalan(12)),
    )
    check("enumerate_catalan(12) count", count == checks.catalan(12))
    out["words.enumerate_catalan.words_per_s"] = (count / t, "1/s")

    domain = list(words.enumerate_catalan(n))
    images, t = _timed(
        tracer, "words.word_to_path", lambda: [words.word_to_path(w) for w in domain]
    )
    out["words.word_to_path_s"] = (t, "s")
    back, t = _timed(
        tracer, "words.path_to_word", lambda: [words.path_to_word(p) for p in images]
    )
    out["words.path_to_word_s"] = (t, "s")
    check("word/path round trips", back == domain)

    for kind in StatKind:
        stat = StatId(kind)
        total, t = _timed(
            tracer,
            f"words.stat_value.{kind.value}",
            lambda: sum(words.stat_value(w, stat) for w in domain),
        )
        check(f"stat_value {kind.value} total", total == formulas.closed_total(n, stat))
        out[f"words.stat_value_s.{kind.value}"] = (t, "s")


def _formulas_layer(
    tracer: Tracer, check: Checker, rng: random.Random, out: dict
) -> None:
    def pairs(lo: int, hi: int, count: int) -> list[tuple[int, int]]:
        ns = [rng.randint(lo, hi) for _ in range(count)]
        return [(n, rng.randint(0, n)) for n in ns]

    formulas.binomial(formulas.PASCAL_ROW_LIMIT, 0)  # build the table before timing
    for name, args in (
        ("binomial_table", pairs(0, 600, 300_000)),
        ("binomial_comb", pairs(formulas.PASCAL_ROW_LIMIT + 1, 2000, 10_000)),
    ):
        values, t = _timed(
            tracer,
            f"formulas.{name}",
            lambda: [formulas.binomial(n, k) for n, k in args],
        )
        check(
            f"{name} values",
            all(v == math.comb(n, k) for v, (n, k) in zip(values[:2000], args)),
        )
        out[f"formulas.{name}.calls_per_s"] = (len(args) / t, "1/s")

    for kind in StatKind:
        _, t = _timed(
            tracer,
            f"formulas.closed_total.{kind.value}",
            lambda: formulas.closed_total(2000, StatId(kind)),
        )
        out[f"formulas.closed_total_s.{kind.value}"] = (t, "s")
    for ident in IdentityId:
        # spans from the in-process `verify --suite identities` (n <= 300)
        name = f"formulas.identity_check.{ident.value}"
        out[f"formulas.identity_check_s.{ident.value}"] = (tracer.total(name), "s")


def _paths_layer(tracer: Tracer, check: Checker, out: dict) -> None:
    count, t = _timed(
        tracer, "paths.enumerate_dyck", lambda: sum(1 for _ in paths.enumerate_dyck(12))
    )
    check("enumerate_dyck(12) count", count == checks.catalan(12))
    out["paths.enumerate_dyck.paths_per_s"] = (count / t, "1/s")
    count, t = _timed(
        tracer,
        "paths.enumerate_lattice",
        lambda: sum(1 for _ in paths.enumerate_lattice(20, 0)),
    )
    check("enumerate_lattice(20, 0) count", count == math.comb(20, 10))
    out["paths.enumerate_lattice.paths_per_s"] = (count / t, "1/s")

    n = COUNT_FACTOR_N
    dyck = list(paths.enumerate_dyck(n))
    factors = {
        # verify_bijections' marked factor counts, with their closed forms
        "uu": ([(U, U)], {}, math.comb(2 * n - 1, n - 2)),
        "ddu": ([(D, D, U)], {}, math.comb(2 * n - 2, n - 3)),
        "udu": ([(U, D, U)], {}, math.comb(2 * n - 2, n - 2)),
        "uuddu": ([(U, U, D, D, U)], {}, math.comb(2 * n - 4, n - 3)),
        "uudd non-terminal": (
            [(U, U, D, D)], {"terminal": False}, math.comb(2 * n - 3, n - 3)
        ),
        "deep-valley": (
            [(U,) + (D,) * j + (U, U) for j in range(2, 2 * n)],
            {},
            math.comb(2 * n - 3, n - 4),
        ),
    }

    def count_all() -> dict[str, int]:
        return {
            label: sum(paths.count_factor(p, pat, **opts) for p in dyck for pat in pats)
            for label, (pats, opts, _) in factors.items()
        }

    counts, t = _timed(tracer, "paths.count_factor", count_all)
    expected = {label: want for label, (_, _, want) in factors.items()}
    check("count_factor totals", counts == expected, str(counts))
    out["paths.count_factor_s"] = (t, "s")
    kj, t = _timed(
        tracer, "paths.ddu_udu_counts", lambda: [paths.ddu_udu_counts(p) for p in dyck]
    )
    check(
        "ddu_udu_counts totals",
        (sum(k for k, _ in kj), sum(j for _, j in kj))
        == (math.comb(2 * n - 2, n - 3), math.comb(2 * n - 2, n - 2)),
    )
    out["paths.ddu_udu_counts_s"] = (t, "s")


def _shuffled(rng: random.Random, ups: int, downs: int) -> list[int]:
    steps = [U] * ups + [D] * downs
    rng.shuffle(steps)
    return steps


def _roundtrip_cases(rng: random.Random) -> dict[str, tuple[list, Callable]]:
    """Map name -> (inputs, round trip returning True when it restores the input).

    Inputs are every object at n=8 plus seeded random ones at n=100. The last
    passage classes and the cycle lemma have no inverse map; their round trip
    checks the defining property of the result instead.
    """
    bij, n = bijections, ROUNDTRIP_N
    dyck = {m: list(paths.enumerate_dyck(m)) for m in range(n + 1)}
    rand = [bij.random_dyck_path(RANDOM_N, rng) for _ in range(RANDOM_INPUTS)]

    def walks(ups: int, downs: int) -> list[paths.Path]:
        return [
            paths.Path(tuple(_shuffled(rng, ups, downs)))
            for _ in range(10 * RANDOM_INPUTS)
        ]

    cases = {}
    split = [
        ((U, U), D, {}),
        ((U, D, U), D, {}),
        ((D, D, U), D, {}),
        ((U, U, D, D, U), U, {}),
        ((U,), U, {"min_end_height": 2}),
        ((D,), D, {"min_end_height": 2}),
    ]
    cases["split_reverse"] = (
        [
            (mp, pattern, survivor)
            for pattern, survivor, opts in split
            for mp in verify.marked_set(dyck[n] + rand, pattern, **opts)
        ],
        lambda c: bij.split_reverse_inverse(bij.split_reverse(c[0], c[2]), c[1], c[2])
        == c[0],
    )
    low = [p for p in paths.enumerate_lattice(2 * n - 2, 0) if p.min_height >= -1]
    cases["low_path"] = (
        low + [bij.dyck_to_low_path(q) for q in rand],
        lambda p: bij.dyck_to_low_path(bij.low_path_to_dyck(p)) == p,
    )
    cases["marked_unit"] = (
        [(p, i) for p in dyck[n - 1] + rand for i in range(1, len(paths.units(p)) + 1)],
        lambda c: bij.drop_marked_unit(bij.lift_marked_unit(*c)) == c,
    )
    high = [
        (mp, ell)
        for ell in range(1, n - 2)
        for mp in verify.marked_set(dyck[n - ell - 1], (U,), min_end_height=2)
    ]
    high += [
        (mp, ell)
        for ell in (1, 2)
        for mp in verify.marked_set(rand, (U,), min_end_height=2)
    ]
    cases["sym_valley"] = (
        high,
        lambda c: bij.sym_valley_remove(bij.sym_valley_insert(*c)) == c,
    )
    cases["ud_insert_remove"] = (
        dyck[n] + rand,
        lambda p: bij.insert_ud(*bij.remove_ud(p)) == p,
    )
    precursors = [p for p in dyck[n] if paths.ddu_udu_counts(p)[1] == 0]
    precursors += [bij.remove_ud(p)[0] for p in rand]
    cases["peak_vector"] = (
        precursors,
        lambda p: bij.peak_rebuild(bij.peak_decompose(p)) == p,
    )
    marks = [
        bij.AreaMark(p, i, j)
        for p in dyck[n]
        for i, s in enumerate(p.steps)
        if s == U
        for j in range(p.height_profile[i])
    ]
    for p in rand:
        ups = [i for i, s in enumerate(p.steps) if s == U]
        for i in rng.sample(ups, 10):
            marks.append(bij.AreaMark(p, i, rng.randrange(p.height_profile[i])))
    cases["area_mark"] = (
        marks,
        lambda am: bij.area_mark_decode(bij.area_mark_encode(am)) == am,
    )
    touching = [
        p
        for p in list(paths.enumerate_lattice(2 * n, 0)) + walks(RANDOM_N, RANDOM_N)
        if -1 in p.height_profile
    ]
    cases["reflection"] = (
        touching,
        lambda p: bij.reflect_after_touch(bij.reflect_after_touch(p, -1), -1) == p,
    )

    def passes(lam: paths.Path) -> bool:
        kind, i = bij.last_passage_class(lam)
        heights = (0,) + lam.height_profile
        if kind == "exceptional":
            return i is None
        if kind == "through-two":
            return heights[2 * i] == 2
        return heights[2 * i - 1] == -1

    cases["last_passage"] = (
        list(paths.enumerate_lattice(2 * n - 1, 1)) + walks(RANDOM_N, RANDOM_N - 1),
        passes,
    )

    def rotation_positive(vals: tuple[int, ...]) -> bool:
        r = bij.raney_shift(vals)
        return min(itertools.accumulate(vals[r - 1 :] + vals[: r - 1])) > 0

    seqs = [
        v
        for length in range(1, 6)
        for v in itertools.product(range(-2, 3), repeat=length)
        if sum(v) == 1
    ]
    # complemented shuffles of n up and n + 1 down steps, as the sampler draws
    seqs += [tuple(-s for s in w.steps) for w in walks(RANDOM_N, RANDOM_N + 1)]
    cases["raney_shift"] = (seqs, rotation_positive)
    return cases


def _bijections_layer(
    tracer: Tracer, check: Checker, rng: random.Random, out: dict
) -> None:
    for name, (inputs, roundtrip) in _roundtrip_cases(rng).items():
        bad, t = _timed(
            tracer, f"bijections.{name}", lambda: sum(not roundtrip(x) for x in inputs)
        )
        check(f"{name} round trips", bad == 0, f"{bad} of {len(inputs)} failed")
        out[f"bijections.{name}_roundtrip_s"] = (t, "s")
    for n in (200, 100000):
        # spans from the in-process `sample` commands
        span = f"bijections.random_dyck_path.n{n}"
        busy = tracer.total(span)
        rate = tracer.total(span, "calls") / busy if busy else 0.0
        out[f"bijections.random_dyck_path.paths_per_s.n{n}"] = (rate, "1/s")


def _verify_and_oeis_layers(
    tracer: Tracer, check: Checker, bfile: str, out: dict
) -> None:
    for suite in ("transport", "distributions"):
        fn = getattr(verify, f"verify_{suite}")
        report = tracer.wrap(fn, f"verify.{suite}", _cases)(verify.SUITE_CAPS[suite])
        check(f"verify {suite}", report.passed and report.cases_run > 0)
    for suite in verify.SUITE_CAPS:
        # identities and bijections come from the in-process `verify` commands
        span = f"verify.{suite}"
        out[f"{span}_s"] = (tracer.total(span), "s")
        out[f"{span}.cases_run"] = (tracer.total(span, "count"), "count")

    for seq in ("A057552", "A000346"):
        out[f"oeis.terms_s.{seq}"] = (tracer.total(f"oeis.terms.{seq}"), "s")
    entries, t = _timed(tracer, "oeis.parse_bfile", lambda: oeis.parse_bfile(bfile))
    out["oeis.parse_bfile_s"] = (t, "s")
    text, t = _timed(
        tracer, "oeis.format_bfile", lambda: oeis.format_bfile(sorted(entries.items()))
    )
    check("b-file format/parse round trip", text == bfile)
    out["oeis.format_bfile_s"] = (t, "s")


# ---------------------------------------------------------------- the run


@dataclass
class TraceResult:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failures: list[str]
    spans: list[Span]


def run(workload: str, seed: int, env: dict[str, str], src_lines: int) -> TraceResult:
    tracer, check = Tracer(), Checker()
    out: dict[str, tuple[float, str]] = {}

    # 1. the untraced reference
    reference = []
    for cmd in WORKLOADS[workload](seed):
        done = runner.launch(runner.cli_argv(cmd.args), env)
        check.output(" ".join(cmd.args), done.exit, done.stdout, cmd.check)
        reference.append(done)
    untraced = sum(r.wall_s for r in reference)

    # 2. all commands in process, traced
    roots, outputs = _run_commands(tracer, check, seed)
    self_time = tracer.self_times()
    mine = tracer.descendants(roots[workload])
    traced = sum(s.busy for s in mine if s.name.startswith("cli."))
    layer = sum(self_time[s.id] for s in mine if not s.name.startswith("cli."))
    out["trace.untraced_wall_s"] = (untraced, "s")
    out["trace.overhead_ratio"] = (traced / untraced, "ratio")
    # the tracer's own cost lands inside the spans, so the share is taken of
    # the traced time; against the untraced wall time it could exceed 1
    out["trace.layer_share"] = (layer / traced, "ratio")
    for name in COMMAND_NAMES:
        out[f"cli.{name}_s"] = (tracer.total(f"cli.{name}"), "s")
    out["cli.cpu_s"] = (sum(r.cpu_s for r in reference), "s")
    for n in (12, 13, 14):
        span = f"words.sweep_totals.n{n}"
        out[f"words.sweep_totals_s.n{n}"] = (tracer.total(span), "s")
    bfile = next(text for args, text in outputs.items() if "A000346" in args)

    # 3. the parallel totals pair
    totals = WORKLOADS["exhaustive"](seed)[0]
    with tracer.span("cli.totals_parallel2") as span:
        code, text = _cli_in_process(totals.args + ("--parallel", "2"))
    check.output("totals --parallel 2", code, text, totals.check)
    out["cli.totals_parallel2_s"] = (span.busy, "s")

    # 4. the layer suite
    rng = random.Random(seed)
    with tracer.span("layer-suite"):
        _words_layer(tracer, check, out)
        _formulas_layer(tracer, check, rng, out)
        _paths_layer(tracer, check, out)
        _bijections_layer(tracer, check, rng, out)
        _verify_and_oeis_layers(tracer, check, bfile, out)
    out["src_lines"] = (src_lines, "count")
    return TraceResult(out, check.attempted, check.failures, tracer.spans)
