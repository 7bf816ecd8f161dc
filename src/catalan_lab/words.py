"""Catalan words and their statistics.

A Catalan word starts at 1 and never rises by more than one letter at a
time. The module enumerates words, converts between words and Dyck paths
(i-th up step ends at height of the i-th letter), evaluates every tracked
statistic on a single word, and computes totals over all words of a given
length as a sum over marked positions of prefixes times completions. The
histograms of the adjacency statistics come from a count over the last
letter, with no enumeration.
"""

import re
from collections.abc import Callable, Iterator, Sequence
from enum import Enum
from itertools import accumulate
from operator import ge, gt, le, lt, mul

from .limits import COUNT_MAX_N, check_ceiling
from .paths import D, U, Path, _Value, _require_dyck


class Word(_Value):
    """Immutable Catalan word stored as a tuple of positive letters."""

    __match_args__ = __slots__ = ("letters",)

    def __init__(self, letters: tuple[int, ...]):
        prev = 0
        for i, c in enumerate(letters):
            if c < 1:
                raise ValueError(f"letters must be positive, got {c} at {i}")
            if c > prev + 1:
                raise ValueError(
                    f"letter {c} at position {i} exceeds previous letter {prev} + 1"
                )
            prev = c
        self._set("letters", letters)

    @classmethod
    def from_string(cls, text: str) -> "Word":
        if not text:
            return cls(())
        if "." in text:
            return cls(tuple(int(part) for part in text.split(".")))
        return cls(tuple(int(ch) for ch in text))

    def __str__(self) -> str:
        if all(c <= 9 for c in self.letters):
            return "".join(str(c) for c in self.letters)
        return ".".join(str(c) for c in self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __len__(self) -> int:
        return len(self.letters)


class StatKind(Enum):
    SYM_VALLEY = "sym-valley"
    ELL_VALLEY = "ell-valley"
    SYM_PEAK = "sym-peak"
    ELL_PEAK = "ell-peak"
    RUNS_DESC = "runs-desc"
    RUNS_WEAK_ASC = "runs-weak-asc"
    RUNS_ASC = "runs-asc"
    RUNS_WEAK_DESC = "runs-weak-desc"
    CORNER_HU = "corner-hu"
    CORNER_DH = "corner-dh"
    SEMI = "semi"
    AREA = "area"


PATTERN_KINDS = frozenset(
    {StatKind.SYM_VALLEY, StatKind.ELL_VALLEY, StatKind.SYM_PEAK, StatKind.ELL_PEAK}
)


# The adjacency statistics: the value on the word "1", then the increment each
# later letter c adds after the letter x before it, when c < x, c = x and
# c = x + 1. The count side (SweepTotals.total, count_histogram) reads this
# table; stat_value does not, so it stays the definition-level oracle.
ADJACENCY_INCREMENTS: dict[StatKind, tuple[int, tuple[int, int, int]]] = {
    StatKind.RUNS_DESC: (1, (0, 1, 1)),
    StatKind.RUNS_WEAK_ASC: (1, (1, 0, 0)),
    StatKind.RUNS_ASC: (1, (1, 1, 0)),
    StatKind.RUNS_WEAK_DESC: (1, (0, 0, 1)),
    StatKind.CORNER_HU: (0, (0, 0, 1)),
    StatKind.CORNER_DH: (0, (1, 0, 0)),
    StatKind.SEMI: (2, (1, 1, 2)),
}


# The pattern statistics as run changes: a letter x, a maximal run of the
# letter b (the pattern's middle, ell letters long), then a letter c. Each
# entry says which changes (x, b, c) complete the pattern. The count side
# (sweep_totals) reads this table; _scan_patterns does not, so it stays the
# definition-level oracle.
PATTERN_CHANGES: dict[StatKind, Callable[[int, int, int], bool]] = {
    StatKind.SYM_VALLEY: lambda x, b, c: b == x - 1 and c == x,
    StatKind.ELL_VALLEY: lambda x, b, c: b == c - 1 and 2 <= c <= x,
    StatKind.SYM_PEAK: lambda x, b, c: b == x + 1 and c == x,
    StatKind.ELL_PEAK: lambda x, b, c: b == x + 1 and c <= x,
}


# The run statistics: the comparison of a letter with the one before it under
# which the letter continues a maximal run. stat_value reads this table, not
# ADJACENCY_INCREMENTS, so the two sides are written apart.
_RUN_CONTINUES: dict[StatKind, Callable[[int, int], bool]] = {
    StatKind.RUNS_DESC: lt,
    StatKind.RUNS_WEAK_ASC: ge,
    StatKind.RUNS_ASC: gt,
    StatKind.RUNS_WEAK_DESC: le,
}


class StatId(_Value):
    """A statistic selector: a kind plus, for pattern kinds, an optional ell.

    For the four pattern statistics an absent ell means the total over all
    ell >= 1. The other kinds take no ell.
    """

    __match_args__ = __slots__ = ("kind", "ell")

    def __init__(self, kind: StatKind, ell: int | None = None):
        if ell is not None:
            if kind not in PATTERN_KINDS:
                raise ValueError(f"{kind.value} does not take an ell")
            if ell < 1:
                raise ValueError(f"ell must be positive, got {ell}")
        self._set("kind", kind)
        self._set("ell", ell)

    @classmethod
    def parse(cls, text: str) -> "StatId":
        name, colon, suffix = text.partition(":")
        try:
            kind = StatKind(name.strip())
        except ValueError:
            valid = ", ".join(k.value for k in StatKind)
            raise ValueError(f"unknown statistic {name!r}; expected one of {valid}")
        if not colon:
            return cls(kind)
        # int() alone would also take "1_0", "+1" and non-ASCII digits
        if not re.fullmatch("-?[0-9]+", suffix.strip()):
            raise ValueError(f"ell must be an integer, got {suffix!r}")
        return cls(kind, int(suffix))

    def __str__(self) -> str:
        if self.ell is None:
            return self.kind.value
        return f"{self.kind.value}:{self.ell}"


class BarStep(Enum):
    UP = "up"
    DOWN = "down"
    ACROSS = "across"


def enumerate_catalan(n: int, *, max_n: int | None = None) -> Iterator[Word]:
    """Yield all Catalan words of length n in numeric lexicographic order."""
    check_ceiling(n, max_n)
    seq: list[int] = []

    def rec(last: int) -> Iterator[Word]:
        if len(seq) == n:
            yield Word(tuple(seq))
            return
        for c in range(1, last + 2):
            seq.append(c)
            yield from rec(c)
            seq.pop()

    return rec(0)


def word_to_path(w: Word) -> Path:
    """The Dyck path whose i-th up step ends at height of the i-th letter."""
    steps: list[int] = []
    prev = 0
    for letter in w.letters:
        steps.extend([D] * (prev - letter + 1))
        steps.append(U)
        prev = letter
    steps.extend([D] * prev)
    return Path(tuple(steps))


def path_to_word(p: Path) -> Word:
    """Inverse of word_to_path: read off the heights of the up steps."""
    _require_dyck(p)
    return Word(tuple(h for s, h in zip(p.steps, p.height_profile) if s == U))


def asc_des_lev(w: Word) -> tuple[int, int, int]:
    """Counts of ascents, descents, and levels between adjacent letters."""
    asc = des = lev = 0
    for a, b in zip(w.letters, w.letters[1:]):
        if b > a:
            asc += 1
        elif b < a:
            des += 1
        else:
            lev += 1
    return asc, des, lev


def _walk(letters: tuple[int, ...]) -> str:
    """The boundary walk of the column diagram as a string of U, D and A (across)."""
    heights = zip((0, *letters), (*letters, 0))
    return "A".join(["U" * (c - h) + "D" * (h - c) for h, c in heights])


_BAR_STEPS = {"U": BarStep.UP, "D": BarStep.DOWN, "A": BarStep.ACROSS}


def bargraph_path(w: Word) -> tuple[BarStep, ...]:
    """Boundary walk of the column diagram of ``w``, from (0,0) back to the axis.

    Each column contributes a vertical adjustment to its height followed by
    one across step; a final descent returns to height zero. No across step
    ever occurs at height zero because letters are positive.
    """
    if not w.letters:
        raise ValueError("the empty word has no column diagram")
    return tuple(map(_BAR_STEPS.__getitem__, _walk(w.letters)))


# Hashing a kind or reading it off StatKind runs Python code: hash once at most.
_PATTERN_KIND_TUPLE = tuple(PATTERN_KINDS)
_SYM_VALLEY, _ELL_VALLEY = StatKind.SYM_VALLEY, StatKind.ELL_VALLEY
_SYM_PEAK, _AREA, _SEMI = StatKind.SYM_PEAK, StatKind.AREA, StatKind.SEMI
_CORNER_HU, _CORNER_DH = StatKind.CORNER_HU, StatKind.CORNER_DH


def _scan_patterns(w: Word, kind: StatKind, ell: int | None) -> int:
    """Count pattern occurrences by direct inspection of every start index.

    For each start there is at most one matching ell because the flanking
    letters terminate the middle run.
    """
    letters = w.letters
    n = len(letters)
    total = 0
    for i in range(n - 2):
        a = letters[i]
        mid = letters[i + 1]
        if kind is _SYM_VALLEY:
            if a <= 1 or mid != a - 1:
                continue
            want_end = a
        elif kind is _ELL_VALLEY:
            if mid >= a:
                continue
            want_end = mid + 1
        elif kind is _SYM_PEAK:
            if mid != a + 1:
                continue
            want_end = a
        else:  # ELL_PEAK
            if mid != a + 1:
                continue
            want_end = None  # any end letter <= a
        run = 1
        j = i + 2
        while j < n and letters[j] == mid:
            run += 1
            j += 1
        if j >= n:
            continue
        end = letters[j]
        if want_end is None:
            if end > a:
                continue
        elif end != want_end:
            continue
        if ell is None or ell == run:
            total += 1
    return total


def stat_value(w: Word, s: StatId) -> int:
    """Value of statistic ``s`` on a single word."""
    kind = s.kind
    if kind in _PATTERN_KIND_TUPLE:
        return _scan_patterns(w, kind, s.ell)
    letters = w.letters
    continues = _RUN_CONTINUES.get(kind)
    if continues is not None:
        # every letter starts a run unless it continues the one before it
        return len(letters) - sum(map(continues, letters[1:], letters))
    if kind is _AREA:
        return sum(letters)
    walk = _walk(letters)
    if kind is _CORNER_HU:
        return walk.count("AU")
    if kind is _CORNER_DH:
        return walk.count("DA")
    if kind is _SEMI:
        return len(letters) + walk.count("U")
    raise ValueError(f"unknown statistic {s!r}")


class SweepTotals(_Value, frozen=False):
    """Totals of every tracked statistic over all words of one length.

    ``patterns`` maps each pattern kind to its totals keyed by ell.
    """

    __match_args__ = ("n", "words", "ascents", "descents", "area", "patterns")

    def __init__(
        self,
        n: int,
        words: int,
        ascents: int,
        descents: int,
        area: int,
        patterns: dict[StatKind, dict[int, int]],
    ):
        self.n = n
        self.words = words
        self.ascents = ascents
        self.descents = descents
        self.area = area
        self.patterns = patterns

    @property
    def levels(self) -> int:
        return (self.n - 1) * self.words - self.ascents - self.descents

    def __add__(self, other: "SweepTotals") -> "SweepTotals":
        if self.n != other.n:
            raise ValueError("cannot merge totals for different lengths")

        def merged(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
            return {key: a.get(key, 0) + b.get(key, 0) for key in a.keys() | b.keys()}

        return SweepTotals(
            self.n,
            self.words + other.words,
            self.ascents + other.ascents,
            self.descents + other.descents,
            self.area + other.area,
            {kind: merged(t, other.patterns[kind]) for kind, t in self.patterns.items()},
        )

    def total(self, s: StatId) -> int:
        kind = s.kind
        if kind in PATTERN_KINDS:
            table = self.patterns[kind]
            if s.ell is None:
                return sum(table.values())
            return table.get(s.ell, 0)
        if kind in ADJACENCY_INCREMENTS:
            first, (lt, eq, up) = ADJACENCY_INCREMENTS[kind]
            return (
                first * self.words
                + lt * self.descents
                + eq * self.levels
                + up * self.ascents
            )
        if kind is StatKind.AREA:
            return self.area
        raise ValueError(f"unknown statistic {s!r}")


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def sweep_totals(
    n: int,
    *,
    prefix: Sequence[int] = (),
    max_n: int | None = None,
) -> SweepTotals:
    """Totals of all statistics over words of length n, as prefixes × completions.

    A marked letter or pattern splits a word in two (Flajolet & Sedgewick,
    ch. III), so each total sums, over positions, the prefixes before the
    mark times the completions after it. ``before[i][x]`` counts prefixes of
    length i ending in x (the empty one ends in 0); ``after[i][c]`` counts
    ways to put c at position i and finish (``after[n]``: nothing left).
    Each row is one running sum of its neighbour, since c follows any
    x >= c - 1. A pattern is x, a run of b of length ell, then a c that
    ``PATTERN_CHANGES`` marks; each ell is the dot product of the marked
    ends at a start j with ``after[j + ell]``. A ``prefix`` is a mask giving
    every other letter 0 ways at its positions, so shard totals over a full
    prefix level add up to the unrestricted totals.
    """
    check_ceiling(n, max_n)
    if n < 1:
        raise ValueError(f"sweep_totals is defined for n >= 1, got {n}")
    prefix = tuple(prefix)
    Word(prefix)
    if len(prefix) > n:
        raise ValueError("prefix longer than the requested words")

    # mask[i][c]: 1 when position i may hold the letter c (letters 0..n + 1)
    mask = [[int(c == p) for c in range(n + 2)] for p in prefix]
    mask += [[0] + [1] * (n + 1)] * (n - len(prefix))
    empty = [1] + [0] * (n + 1)
    before = [empty]
    for row in mask:
        above = list(accumulate(reversed(before[-1])))[::-1]
        before.append([0] + list(map(mul, row[1:], above)))
    after = [empty]
    for row in reversed(mask):
        upto = list(accumulate(after[0]))
        after.insert(0, list(map(mul, row, upto[1:])) + [0])

    # x at position i - 1 and c <= x + 1 at i lie in before[i][x] * after[i][c] words
    area = sum(
        _dot(before[i], list(accumulate(c * a for c, a in enumerate(after[i])))[1:])
        for i in range(n)
    )
    ascents = sum(_dot(before[i], after[i][1:]) for i in range(1, n))
    descents = sum(
        _dot(before[i], accumulate(after[i], initial=0)) for i in range(1, n)
    )

    # the changes of a maximal run, by x: b may follow x, and c may follow b
    changes = [
        (x, b, c)
        for x in range(1, n - 1)
        for b in range(1, x + 2)
        for c in range(1, b + 2)
        if b != x and c != b
    ]
    patterns: dict[StatKind, dict[int, int]] = {}
    for kind, completes in PATTERN_CHANGES.items():
        marked = [change for change in changes if completes(*change)]
        table = patterns[kind] = {}
        for j in range(1, n - 1):
            ends = [0] * (n + 2)
            for x, b, c in marked:
                if x > j:
                    break  # a prefix of length j ends in a letter up to j
                ends[c] += before[j][x] * mask[j][b]
            for ell in range(1, n - j):
                if len(set(prefix[j:j + ell])) > 1:
                    break  # the prefix ends the run before it is ell long
                if total := _dot(ends, after[j + ell]):
                    table[ell] = table.get(ell, 0) + total
    return SweepTotals(n, sum(before[n]), ascents, descents, area, patterns)


def brute_total(n: int, s: StatId, *, max_n: int | None = None) -> int:
    """Total of statistic ``s`` over all words of length n, by ``sweep_totals``.

    Values agree with summing stat_value over enumerate_catalan(n); each call
    runs ``sweep_totals`` afresh, so no caller shares its result.
    """
    if n == 0:
        return sum(stat_value(w, s) for w in enumerate_catalan(0, max_n=max_n))
    return sweep_totals(n, max_n=max_n).total(s)


def count_histogram(n: int, kind: StatKind) -> dict[int, int]:
    """Histogram ``{value: words}`` of an adjacency statistic over length n.

    A bivariate transfer-matrix count over the last letter x, with the
    statistic's value marked (Flajolet & Sedgewick, ch. V). The words of a
    length that end in x form the polynomial sum of count * u**value, kept
    as one integer at u = 2**bits: every count is at most C_n < 4**n, so
    ``bits = 2n`` keeps the coefficients apart. A letter c follows every
    x >= c - 1 and adds the ``ADJACENCY_INCREMENTS`` entry for c < x, c = x
    or c = x + 1, which is a left shift; the prefixes ending above c are
    one running suffix sum over x. Each length thus costs O(n) additions of
    O(n**2)-bit integers. Nothing is enumerated, so the size is bounded by
    ``COUNT_MAX_N`` rather than by the enumeration ceiling.
    """
    if kind not in ADJACENCY_INCREMENTS:
        raise ValueError(f"{kind.value} has no histogram count")
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    if n > COUNT_MAX_N:
        raise ValueError(f"n={n} exceeds the histogram count cap {COUNT_MAX_N}")
    if n == 0:
        return {0: 1}
    bits = 2 * n
    first, increments = ADJACENCY_INCREMENTS[kind]
    # every later letter adds at least ``base``; only the excess is marked
    base = min(increments)
    lt, eq, up = (bits * (inc - base) for inc in increments)
    ends = [0, 1]  # ends[x], for the words of length 1
    for length in range(2, n + 1):
        ends.append(0)
        above = 0
        stepped = [0] * (length + 1)
        for c in range(length, 0, -1):
            stepped[c] = (above << lt) + (ends[c] << eq) + (ends[c - 1] << up)
            above += ends[c]
        ends = stepped
    packed, mask = sum(ends), (1 << bits) - 1
    offset = first + (n - 1) * base
    return {
        offset + value: count
        for value in range(packed.bit_length() // bits + 1)
        if (count := (packed >> (bits * value)) & mask)
    }
