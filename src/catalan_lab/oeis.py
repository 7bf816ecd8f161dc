"""OEIS b-file emission and checking for the statistic total sequences.

A b-file is one "index value" pair per line. Each built-in binding records
the sequence id, the statistic whose totals it lists, the index at which
the emitted sequence starts, and the word length producing the first term.
Checking compares terms at equal indices over the shared index range;
there is no realignment by value searching.
"""

from collections.abc import Iterable
from dataclasses import dataclass

# closed_total stays importable from here: benchmark/tracing.py wraps
# oeis.closed_total by name
from .formulas import closed_total, closed_totals  # noqa: F401
from .words import StatId, StatKind


@dataclass(frozen=True)
class OeisBinding:
    id: str | None
    stat: StatId
    offset: int = 1
    first_n: int = 1

    def terms(self, count: int) -> list[tuple[int, int]]:
        """The first ``count`` (index, value) pairs, stepped from term to term."""
        values = closed_totals(self.stat, self.first_n, count)
        return list(zip(range(self.offset, self.offset + count), values))


BUILTIN_BINDINGS = {
    "A000346": OeisBinding("A000346", StatId(StatKind.AREA), offset=1, first_n=1),
    "A097613": OeisBinding("A097613", StatId(StatKind.SEMI), offset=1, first_n=1),
    "A051924": OeisBinding("A051924", StatId(StatKind.RUNS_DESC), offset=1, first_n=1),
    "A000984": OeisBinding(
        "A000984", StatId(StatKind.RUNS_WEAK_ASC), offset=1, first_n=1
    ),
    "A002054": OeisBinding("A002054", StatId(StatKind.CORNER_HU), offset=1, first_n=2),
    "A002694": OeisBinding("A002694", StatId(StatKind.CORNER_DH), offset=1, first_n=3),
    "A057552": OeisBinding("A057552", StatId(StatKind.SYM_PEAK), offset=1, first_n=3),
}


def format_bfile(terms: Iterable[tuple[int, int]]) -> str:
    return "".join(f"{i} {v}\n" for i, v in terms)


def _clip(line: str, limit: int = 40) -> str:
    """repr of a b-file line for an error, cut after ``limit`` characters."""
    return repr(line) if len(line) <= limit else repr(line[:limit]) + "…"


def parse_bfile(text: str) -> dict[int, int]:
    """Parse b-file text, skipping blank lines and # comments."""
    entries: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'index value', got {_clip(raw)}")
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer entry {_clip(raw)}") from None
        if index in entries:
            raise ValueError(f"line {lineno}: duplicate index {index}")
        entries[index] = value
    return entries


def first_divergence(
    terms: Iterable[tuple[int, int]], reference: dict[int, int]
) -> tuple[int, int, int] | None:
    """First (index, reference value, computed value) mismatch on shared indices."""
    compared = 0
    for i, v in terms:
        if i in reference:
            compared += 1
            if reference[i] != v:
                return (i, reference[i], v)
    if compared == 0:
        raise ValueError("no overlapping indices between sequence and b-file")
    return None
