"""Output checks for the CLI commands the workloads run.

Each check takes a command's standard output and raises CheckFailed when
the output is wrong. The expected values come from evaluations written
here with math.comb, independent of catalan_lab's formulas module; the
OEIS prefixes are also compared with exhaustive sweep_totals totals.
"""

import math
import re
from functools import cache
from itertools import accumulate


class CheckFailed(Exception):
    """A command's output is not what the command promises."""


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def narayana(n: int, k: int) -> int:
    return math.comb(n, k) * math.comb(n, k - 1) // n


def _lines(text: str) -> list[str]:
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckFailed("output does not end with a newline")
    return lines[:-1]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_totals(text: str, *, n_max: int, stats: int) -> None:
    """Every (n, statistic) row is present once, says ok, and brute == closed."""
    rows = _lines(text)[1:]
    _require(len(rows) == n_max * stats, f"{len(rows)} rows, want {n_max * stats}")
    seen = set()
    for row in rows:
        fields = row.split()
        _require(len(fields) == 5, f"malformed row {row!r}")
        n, name, brute, closed, flag = fields
        _require(flag == "ok", f"row not ok: {row!r}")
        _require(brute == closed, f"brute differs from closed form: {row!r}")
        seen.add((int(n), name))
    _require(
        {n for n, _ in seen} == set(range(1, n_max + 1)) and len(seen) == len(rows),
        "rows do not cover each n and statistic exactly once",
    )


def check_distribution(text: str, *, n: int) -> None:
    """A Narayana-distributed statistic: rows ok, counts exact, sum C_n."""
    rows = [line.split() for line in _lines(text)]
    _require(all(len(r) == 4 for r in rows), "rows need value, count, narayana, flag")
    _require([int(r[0]) for r in rows] == list(range(1, n + 1)), "values are not 1..n")
    for value, count, expected, flag in rows:
        _require(flag == "ok", f"row {value} not ok")
        _require(
            int(count) == int(expected) == narayana(n, int(value)),
            f"count for value {value} is not N({n}, {value})",
        )
    total = sum(int(r[1]) for r in rows)
    _require(total == catalan(n), f"counts sum to {total}, want C_{n}")


_SUITE_LINE = re.compile(r"suite (\S+): (\d+) checks, (\d+) failures, \S+s$")


def check_verify(text: str, *, suite: str) -> None:
    """One suite ran with checks and no failures, and the run says PASSED."""
    lines = _lines(text)
    _require(len(lines) == 2, f"expected a suite line and a verdict, got {len(lines)}")
    match = _SUITE_LINE.match(lines[0])
    _require(match is not None, f"malformed suite line {lines[0]!r}")
    name, cases, failures = match.group(1), int(match.group(2)), int(match.group(3))
    _require(name == suite, f"ran suite {name}, want {suite}")
    _require(cases > 0, "suite ran no checks")
    _require(failures == 0, f"{failures} failures")
    _require(lines[1] == "verification PASSED", "verdict is not PASSED")


def _oeis_formula(seq_id: str, count: int) -> list[int]:
    """Terms 1..count; term i is OEIS a(i - 1), as the CLI binds index 1 to n=1."""
    if seq_id == "A000346":
        # a(m) = 2^(2m+1) - C(2m+1, m+1)
        return [2 ** (2 * m + 1) - math.comb(2 * m + 1, m + 1) for m in range(count)]
    if seq_id == "A057552":
        # a(m) = Sum_{k=0..m} C(2k+2, k)
        return list(accumulate(math.comb(2 * k + 2, k) for k in range(count)))
    raise ValueError(f"no formula for {seq_id}")


# The statistic whose totals each sequence lists, and the word length of term 1.
_OEIS_STATISTIC = {"A000346": ("area", 1), "A057552": ("sym-peak", 3)}
PREFIX_TERMS = 12


@cache
def exhaustive_prefix(seq_id: str, count: int = PREFIX_TERMS) -> tuple[int, ...]:
    """The first terms as exhaustive sweep_totals totals over every word."""
    from catalan_lab.words import StatId, sweep_totals

    stat, first_n = _OEIS_STATISTIC[seq_id]
    return tuple(
        sweep_totals(first_n + i).total(StatId.parse(stat)) for i in range(count)
    )


def check_oeis(
    text: str, *, seq_id: str, terms: int, prefix: int = PREFIX_TERMS
) -> None:
    """b-file lines 1..terms equal the OEIS formula, and the prefix is exhaustive."""
    entries = [line.split() for line in _lines(text)]
    _require(all(len(e) == 2 for e in entries), "b-file lines need index and value")
    _require(
        [int(e[0]) for e in entries] == list(range(1, terms + 1)),
        f"indices are not 1..{terms}",
    )
    values = [int(e[1]) for e in entries]
    for i, (got, want) in enumerate(zip(values, _oeis_formula(seq_id, terms)), 1):
        _require(got == want, f"{seq_id} term {i} is {got}, formula gives {want}")
    _require(
        tuple(values[:prefix]) == exhaustive_prefix(seq_id, prefix),
        f"{seq_id} prefix differs from exhaustive totals",
    )


_STEP = {"U": 1, "D": -1}


def _is_dyck(line: str, n: int) -> bool:
    if len(line) != 2 * n or line.count("U") != n:
        return False
    try:
        return min(accumulate(map(_STEP.__getitem__, line)), default=0) >= 0
    except KeyError:
        return False


def check_paths(text: str, *, n: int, count: int, distinct: bool = False) -> None:
    """count lines, each a Dyck path of length 2n; all distinct when asked."""
    lines = _lines(text)
    _require(len(lines) == count, f"{len(lines)} paths, want {count}")
    bad = next((i for i, line in enumerate(lines) if not _is_dyck(line, n)), None)
    _require(bad is None, f"line {bad} is not a Dyck path of length {2 * n}")
    if distinct:
        _require(len(set(lines)) == count, "paths repeat")
