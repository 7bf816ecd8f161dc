"""Command line front end.

Subcommands: enumerate, totals, verify, oeis, distribution, sample.
Exit codes: 0 success or full match, 1 verification mismatch, 2 usage or
limit error. Output is deterministic; the sampler requires an explicit
seed and is then deterministic too. The table commands share one row
writer. ``main`` lifts the int/str conversion digit limit, which b-file
terms outgrow, for the CLI process only; importing the library does not.

Start-up counts in every command's time, and it is measured with each
module compiled from source in every process. So this module loads only the
standard library and ``limits``, and each command binds the library names
it reads when it runs (``_bind``): ``sample`` and ``enumerate --kind paths``
load only ``paths``, ``enumerate --kind words`` loads no ``formulas``, and
``--help`` loads no library module. The suites, b-files, json and csv load
with the one command or format that uses them. A value set on this module
first, such as a test's stand-in or a tracer's wrapper, is what runs.
"""

import argparse
import functools
import os
import random
import sys
from collections.abc import Callable, Iterable
from importlib import import_module
from operator import itemgetter
from types import SimpleNamespace

from . import _SOURCE
from .limits import SUITE_CAPS, EnumerationLimitError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

_PARALLEL_DEPTH = 4

# Output is written in batches of about this many characters: one write per
# row costs a system call per row when standard output is unbuffered.
WRITE_CHARS = 1 << 16


def _bind(*names: str) -> None:
    """Bind each named library export in this module, unless it is bound here
    already, so that a value set on the module first is the one called."""
    scope = globals()
    for name in names:
        if name not in scope:
            module = import_module(f".{_SOURCE[name]}", __package__)
            scope[name] = getattr(module, name)


# Every library export reads as an attribute of this module, even one that no
# command reads: benchmark/tracing.py replaces such names by name.
def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(name)
    return globals()[name]


def _parse_stats(text: str) -> "list[StatId]":
    _bind("StatId", "StatKind")
    if text.strip() == "all":
        return [StatId(kind) for kind in StatKind]
    stats = [StatId.parse(part) for part in text.split(",") if part.strip()]
    if not stats:
        raise ValueError("no statistics selected")
    return stats


def _sweep_shard(task: tuple[int, tuple[int, ...], int | None]) -> "SweepTotals":
    _bind("sweep_totals")  # a worker process may not have run the command
    n, prefix, max_n = task
    return sweep_totals(n, prefix=prefix, max_n=max_n)


def _totals_for(n: int, max_n: int | None, parallel: int) -> "SweepTotals":
    if parallel <= 1 or n <= _PARALLEL_DEPTH + 1:
        return sweep_totals(n, max_n=max_n)
    from concurrent.futures import ProcessPoolExecutor

    prefixes = [w.letters for w in enumerate_catalan(_PARALLEL_DEPTH, max_n=max_n)]
    tasks = [(n, prefix, max_n) for prefix in prefixes]
    # one worker per shard at most: the fork start method forks them all at once
    with ProcessPoolExecutor(max_workers=min(parallel, len(tasks))) as pool:
        shards = list(pool.map(_sweep_shard, tasks))
    return functools.reduce(lambda a, b: a + b, shards)


def _write_rows(
    fmt: str, header: list[str], rows: Iterable, plain: Callable[..., str] | None
) -> None:
    """Print dict rows as csv, as one JSON object per line, or as plain text.

    csv writes ``header`` first, lowercases booleans and spreads a dict-valued
    cell over its own columns; json keeps such a cell nested; plain writes
    ``plain(row)``, or the row itself when ``plain`` is None, and its rows
    need not be dicts. ``rows`` may be a generator, so output streams, in
    batches of at most ``WRITE_CHARS`` characters plus one row.
    """
    if fmt == "csv":  # csv lines end in their own terminator
        lines, end = _csv_lines(header, rows), ""
    elif fmt == "json":
        import json

        lines, end = map(json.dumps, rows), "\n"
    else:
        lines, end = rows if plain is None else map(plain, rows), "\n"
    glue, extra = end.join, len(end)
    out = sys.stdout
    batch, size = [], 0
    for line in lines:
        batch.append(line)
        size += len(line) + extra
        if size >= WRITE_CHARS:
            out.write(glue(batch) + end)
            batch, size = [], 0
    if batch:
        out.write(glue(batch) + end)


def _csv_lines(header: list[str], rows: Iterable[dict]) -> Iterable[str]:
    import csv

    written = []
    writer = csv.writer(SimpleNamespace(write=written.append))
    writer.writerow(header)
    yield written.pop()
    for row in rows:
        cells = []
        for v in row.values():
            cells += v.values() if isinstance(v, dict) else [v]
        writer.writerow([str(c).lower() if type(c) is bool else c for c in cells])
        yield written.pop()


def cmd_enumerate(args) -> int:
    stats = _parse_stats(args.stats) if args.stats else []
    if stats and args.kind == "paths":
        raise ValueError("per-item statistics are only available for words")
    if stats and args.format == "plain":
        raise ValueError("per-item statistics need --format csv or json")
    if args.kind == "words":
        _bind("enumerate_catalan", "stat_value")
        items = enumerate_catalan(args.n, max_n=args.max_n)
        texts = map(str, items)
    else:  # the paths' text, with no Path built
        _bind("enumerate_dyck_texts")
        texts = enumerate_dyck_texts(args.n, max_n=args.max_n)
    if args.format == "plain":  # one line per item: its text
        _write_rows("plain", [], texts, None)
        return EXIT_OK
    named = [(str(s), s) for s in stats]
    if stats:  # words only
        rows = (
            {
                "index": i,
                "value": str(item),
                "stats": {name: stat_value(item, s) for name, s in named},
            }
            for i, item in enumerate(items)
        )
    else:
        rows = ({"index": i, "value": text} for i, text in enumerate(texts))
    header = ["index", "value"] + [name for name, _ in named]
    _write_rows(args.format, header, rows, itemgetter("value"))
    return EXIT_OK


def cmd_totals(args) -> int:
    if args.n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {args.n_max}")
    if args.parallel < 1:
        raise ValueError(f"parallel must be at least 1, got {args.parallel}")
    stats = _parse_stats(args.stats)
    _bind("closed_total", "enumerate_catalan", "sweep_totals")
    rows = []
    for n in range(1, args.n_max + 1):
        totals = _totals_for(n, args.max_n, args.parallel)
        for s in stats:
            brute = totals.total(s)
            closed = closed_total(n, s)
            rows.append(
                {"n": n, "stat": str(s), "brute": brute, "closed": closed,
                 "match": brute == closed}
            )
    header = ["n", "stat", "brute", "closed", "match"]
    width = max((len(row["stat"]) for row in rows), default=0)
    layout = f"{{n:>3}} {{stat:<{width}}} {{brute:>22}} {{closed:>22}} {{match}}".format
    if args.format == "plain" and rows:
        sys.stdout.write(layout(**{name: name for name in header}) + "\n")

    def plain(row: dict) -> str:
        return layout(**row | {"match": "ok" if row["match"] else "MISMATCH"})

    _write_rows(args.format, header, rows, plain)
    return EXIT_OK if all(row["match"] for row in rows) else EXIT_MISMATCH


def cmd_verify(args) -> int:
    from .verify import run_suite

    reports = run_suite(args.suite, args.n_max)
    ok = True
    for report in reports:
        sys.stdout.write(report.to_text() + "\n")
        ok = ok and report.passed
    sys.stdout.write("verification PASSED\n" if ok else "verification FAILED\n")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_oeis(args) -> int:
    from . import oeis as oeis_files

    _bind("StatId")
    offset = 1 if args.offset is None else args.offset
    first_n = 1 if args.first_n is None else args.first_n
    if args.id:
        binding = oeis_files.BUILTIN_BINDINGS.get(args.id)
        if binding is None:
            known = ", ".join(sorted(oeis_files.BUILTIN_BINDINGS))
            raise ValueError(f"no built-in binding for {args.id}; known: {known}")
        if args.stat:
            binding = oeis_files.OeisBinding(
                args.id, StatId.parse(args.stat), offset, first_n
            )
        elif args.offset is not None or args.first_n is not None:
            raise ValueError(
                f"--offset and --first-n need --stat; {args.id} has its own"
            )
    elif args.stat:
        binding = oeis_files.OeisBinding(None, StatId.parse(args.stat), offset, first_n)
    else:
        raise ValueError("provide an OEIS id or --stat")
    if args.check:  # a missing or malformed b-file fails before any term
        with open(args.check, encoding="utf-8") as fh:
            reference = oeis_files.parse_bfile(fh.read())
    terms = binding.terms(args.terms)
    if args.check:
        divergence = oeis_files.first_divergence(terms, reference)
        shared = sum(1 for i, _ in terms if i in reference)
        if divergence is None:
            sys.stdout.write(f"match: {shared} shared terms agree\n")
            return EXIT_OK
        index, expected, got = divergence
        sys.stdout.write(
            f"divergence at index {index}: b-file has {expected}, computed {got}\n"
        )
        return EXIT_MISMATCH
    _write_rows("plain", [], oeis_files.bfile_lines(terms), None)
    return EXIT_OK


def cmd_distribution(args) -> int:
    from .words import ADJACENCY_INCREMENTS

    _bind("StatId", "StatKind", "count_histogram", "enumerate_catalan", "stat_value")
    stat = StatId.parse(args.stat)
    if stat.kind in ADJACENCY_INCREMENTS:
        hist = count_histogram(args.n, stat.kind)
    else:
        hist = {}
        for w in enumerate_catalan(args.n, max_n=args.max_n):
            value = stat_value(w, stat)
            hist[value] = hist.get(value, 0) + 1
    narayana_kinds = (StatKind.RUNS_ASC, StatKind.RUNS_WEAK_DESC)
    with_narayana = stat.kind in narayana_kinds
    if with_narayana:
        _bind("narayana")
    rows = []
    for value in sorted(hist):
        row = {"value": value, "count": hist[value]}
        if with_narayana:
            expected = narayana(args.n, value)
            row["narayana"] = expected
            row["match"] = expected == hist[value]
        rows.append(row)
    header = ["value", "count"] + (["narayana", "match"] if with_narayana else [])

    def plain(row: dict) -> str:
        line = f"{row['value']:>4} {row['count']:>16}"
        if with_narayana:
            flag = "ok" if row["match"] else "MISMATCH"
            line += f" {row['narayana']:>16} {flag}"
        return line

    _write_rows(args.format, header, rows, plain)
    if with_narayana and not all(row["match"] for row in rows):
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.count < 1:
        raise ValueError(f"sample count must be positive, got {args.count}")
    _bind("random_dyck_text")
    rng = random.Random(args.seed)
    rows = (
        {"index": i, "value": random_dyck_text(args.n, rng)}
        for i in range(args.count)
    )
    _write_rows(args.format, ["index", "value"], rows, itemgetter("value"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catalan-lab",
        description="Catalan word and Dyck path statistics laboratory",
    )
    parser.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="enumeration ceiling (default: CATALAN_LAB_MAX_N or 16)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list words or paths")
    p.add_argument("--kind", choices=["words", "paths"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p.add_argument("--stats", help="comma-separated statistics to attach (words only)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("totals", help="counted vs closed-form totals")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--stats", default="all", help="comma-separated names or 'all'")
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p.add_argument("--parallel", type=int, default=1, help="worker processes")
    p.set_defaults(func=cmd_totals)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=[*SUITE_CAPS, "all"], required=True)
    p.add_argument(
        "--n-max",
        type=int,
        default=None,
        help=f"bound per suite (caps: {SUITE_CAPS})",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oeis", help="emit or check b-file terms")
    p.add_argument("id", nargs="?", help="OEIS id with a built-in binding")
    p.add_argument("--stat", help="statistic for a custom binding")
    p.add_argument(
        "--offset", type=int, help="first emitted index (with --stat; default 1)"
    )
    p.add_argument(
        "--first-n", type=int, help="word length of first term (with --stat; default 1)"
    )
    p.add_argument("--terms", type=int, default=10)
    p.add_argument("--check", help="b-file to compare against")
    p.set_defaults(func=cmd_oeis)

    p = sub.add_parser("distribution", help="histogram of a statistic")
    p.add_argument("--stat", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p.set_defaults(func=cmd_distribution)

    p = sub.add_parser("sample", help="uniform random Dyck paths")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except EnumerationLimitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader has gone: end quietly, and let the exit-time flush go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
