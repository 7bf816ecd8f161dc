"""Exact closed forms: binomials, Catalan and Narayana numbers, statistic
totals, stratified Dyck path counts, and two-sided identity evaluation.

Each statistic's total is one closed form, ``_form``, written in diagonal
binomials C(2m+a, m+b) and their running sums over m, and evaluated one way:
``closed_totals`` starts each diagonal at its first n from one binomial and
steps it to the next n by its term ratio. ``closed_total`` is its one-term
case.

Everything is arbitrary-precision integer arithmetic. Binomials follow a
single global convention: out-of-range arguments give 0. An inexact
division raises ArithmeticError; it signals a bug, never a rounding choice.
"""

import functools
import math
import operator
import threading
from collections.abc import Callable, Iterator
from enum import Enum
from itertools import accumulate, chain, islice, repeat

from .values import _Value
from .words import StatId, StatKind

# Every memo but _far grows under the reentrant _rows_lock, through _grow or,
# for _sym_valley_totals, in one step: whole entries, each computed once, that
# readers read without the lock. Binomials up to PASCAL_ROW_LIMIT come from a
# memoized Pascal triangle; larger arguments fall back to math.comb. Identity
# sweeps to n=300 need row 602. Rows up to _HELD_ROWS are held whole, each as
# its first half, C(m, i) for i <= m // 2: about 1.4 MB. They cover every row
# read whole: the binomial-product-sum dot product and its product columns of
# C(m, k) * C(m-k, k), under 2 MB in all, grown one Pascal row at a time,
# column 0 last, to the last row asked for. Rows above them, up to the limit,
# serve point reads of a few hundred central entries from _far, math.comb
# memoized to 1,024 entries, about 0.3 MB. The running sums of two identities,
# _pair_sums and _mark_sums, keep the entries whose terms read rows up to the
# limit: at most 322 and 321, about 25 KB each. _sym_valley_totals holds the
# _HELD_ROWS sym-valley totals they are checked against, stepped once by
# closed_totals: about 25 KB. Binomials along a diagonal, and their sums,
# never read the table past their first term: _diagonal steps by term ratio.
PASCAL_ROW_LIMIT = 640
_HELD_ROWS = PASCAL_ROW_LIMIT // 2

_rows: list[list[int]] = [[1]]  # _rows[m][i] = C(m, i) for i <= m // 2
_columns: list[list[int]] = []  # _columns[k][m - 2k] = C(m, k) * C(m-k, k)
_pair_sums: list[int] = [0, 0]  # _pair_sums[h] = _pair_sum(h)
_mark_sums: list[int] = [0, 0, 0]  # _mark_sums[h] = sum of _mark_term(m), m < h
# _sym_valley_totals[n - 1] = closed_total(n, sym-valley) for n <= _HELD_ROWS
_sym_valley_totals: list[int] = []
_rows_lock = threading.RLock()  # held while a memo grows
# C(m, i) for _HELD_ROWS < m <= PASCAL_ROW_LIMIT and i <= m // 2; thread-safe
# without _rows_lock
_far = functools.lru_cache(maxsize=1024)(math.comb)


def _grow(table: list, size: int, entry: Callable[[int], object]) -> None:
    """Append ``entry(i)`` to ``table`` for i = len(table), ..., size - 1.

    The one way a memo grows entry by entry. It holds _rows_lock, so each
    entry is appended whole and never twice, and readers, who take no lock,
    see whole entries only. ``entry`` may read binomials and grow other
    tables, since the lock is reentrant.
    """
    with _rows_lock:
        while len(table) < size:
            table.append(entry(len(table)))


def _next_row(m: int) -> list[int]:
    """Row m of the held table, from row m - 1."""
    prev = _rows[m - 1]
    row = [1, *map(operator.add, prev, prev[1:])]
    if m % 2 == 0:  # C(2h, h) = 2 C(2h-1, h-1)
        row.append(2 * prev[-1])
    return row


def _pascal_row(n: int) -> list[int]:
    """Row n of the held table, for n <= _HELD_ROWS."""
    if n >= len(_rows):
        _grow(_rows, n + 1, _next_row)
    return _rows[n]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the zero-outside-range convention."""
    if n < 0 or k < 0 or k > n:
        return 0
    if n <= _HELD_ROWS:
        # the held row read in place, min(k, n - k) written out: calls cost more
        row = _rows[n] if n < len(_rows) else _pascal_row(n)
        return row[k if 2 * k <= n else n - k]
    if n <= PASCAL_ROW_LIMIT:
        return _far(n, k if 2 * k <= n else n - k)
    return math.comb(n, k)


def catalan(n: int) -> int:
    """The n-th Catalan number."""
    if n < 0:
        raise ValueError(f"catalan is defined for n >= 0, got {n}")
    return _exact_div(binomial(2 * n, n), n + 1)


def narayana(n: int, k: int) -> int:
    """Narayana number N(n, k); zero outside 1 <= k <= n, except N(0, 0) = 1."""
    if not 1 <= k <= n:
        return int(n == k == 0)
    return _exact_div(binomial(n, k) * binomial(n, k - 1), n)


def _exact_div(value: int, divisor: int) -> int:
    q, r = divmod(value, divisor)
    if r:
        raise ArithmeticError(f"{value} is not divisible by {divisor}")
    return q


def _half(value: int) -> int:
    return _exact_div(value, 2)


def _diagonal(a: int, b: int, m: int) -> Iterator[int]:
    """C(2i+a, i+b) for i = m, m+1, ...

    Terms are zero until i >= max(-b, b-a) and nonzero from there on, so the
    first nonzero term is one binomial and each later one follows from its
    predecessor by the ratio (2i+a+2)(2i+a+1) / ((i+b+1)(i+a-b+1)).
    """
    i = max(m, -b, b - a)
    yield from repeat(0, i - m)
    term = binomial(2 * i + a, i + b)
    while True:
        yield term
        term = _exact_div(
            term * (2 * i + a + 2) * (2 * i + a + 1), (i + b + 1) * (i + a - b + 1)
        )
        i += 1


def _diagonal_sums(a: int, b: int, lo: int, hi: int) -> Iterator[int]:
    """Sums of C(2m+a, m+b) over lo <= m <= h for h = hi, hi+1, ..., one running sum."""
    sums = accumulate(_diagonal(a, b, lo), initial=0)
    return chain(repeat(0, lo - 1 - hi), islice(sums, max(hi - lo + 1, 0), None))


def _marked_high_ups(m: int, central: int, next_central: int) -> int:
    """Paths of length 2m with one marked up step ending at height two or
    more, from C(2m, m) and C(2m+2, m+1)."""
    if m < 2:
        return 0
    cat = _exact_div(central, m + 1)
    return m * cat - (_exact_div(next_central, m + 2) - cat)


def _form(s: StatId) -> Callable[[int, Callable[..., int]], int]:
    """The closed form of statistic ``s``, as ``form(n, c)``, for ``closed_totals``.

    ``c(a, b, k)`` is the diagonal binomial C(2m+a, m+b) at m = n + k, and
    ``c(a, b, k, lo)`` is its sum over lo <= m <= n + k.
    """
    kind, ell = s.kind, s.ell
    if kind is StatKind.SYM_VALLEY and ell is None:
        return lambda n, c: (
            (3 * n - 2) * _exact_div(c(0, 0, -1), n) - _half(c(0, 0, 0, 1))
        )
    if kind is StatKind.SYM_VALLEY:
        return lambda n, c: (
            _marked_high_ups(n - ell - 1, c(0, 0, -ell - 1), c(0, 0, -ell))
        )
    if kind is StatKind.ELL_VALLEY:
        return lambda n, c: c(-1, -3, -1, 3) if ell is None else c(-1, -3, -ell)
    if kind is StatKind.SYM_PEAK:
        return lambda n, c: c(2, 0, -3, 0) if ell is None else c(-2, -2, -ell)
    if kind is StatKind.ELL_PEAK:
        return lambda n, c: c(-1, -2, -1, 2) if ell is None else c(-1, -2, -ell)
    if kind is StatKind.RUNS_DESC:
        return lambda n, c: c(0, 0) - c(0, 0, -1)
    if kind is StatKind.RUNS_WEAK_ASC:
        return lambda n, c: c(0, 0, -1)
    if kind is StatKind.RUNS_ASC or kind is StatKind.RUNS_WEAK_DESC:
        return lambda n, c: c(-1, 0)
    if kind is StatKind.CORNER_HU:
        return lambda n, c: c(-1, -2)
    if kind is StatKind.CORNER_DH:
        return lambda n, c: c(-2, -3)
    if kind is StatKind.SEMI:
        return lambda n, c: _half(c(0, 0, 1) - c(0, 0))
    if kind is StatKind.AREA:
        return lambda n, c: _half((1 << 2 * n) - c(0, 0))  # 4**n as a shift
    raise ValueError(f"unknown statistic {s!r}")


def closed_total(n: int, s: StatId) -> int:
    """Exact total of statistic ``s`` over all Catalan words of length n.

    Pattern statistics accept a specific ell or, with ell absent, the total
    summed over all ell.
    """
    if n < 1:
        raise ValueError(f"closed_total is defined for n >= 1, got {n}")
    return closed_totals(s, n, 1)[0]


def closed_totals(s: StatId, first: int, count: int) -> list[int]:
    """``closed_total(n, s)`` for n = first, ..., first + count - 1, in one pass.

    Each diagonal binomial and each diagonal sum is a stream that starts at
    the n of its first read from one binomial and steps from one n to the
    next by its term ratio, so a later term costs a few big-integer products
    rather than fresh binomials.
    """
    if first < 1:
        raise ValueError(f"first n must be at least 1, got {first}")
    if count < 1:
        raise ValueError(f"term count must be positive, got {count}")
    form = _form(s)
    streams: dict[tuple, Iterator[int]] = {}
    now: dict[tuple, int] = {}

    def c(a: int, b: int, k: int = 0, lo: int | None = None) -> int:
        key = (a, b, k, lo)
        if key not in streams:  # a stream starts at the n of its first read
            m = n + k
            stream = _diagonal(a, b, m) if lo is None else _diagonal_sums(a, b, lo, m)
            streams[key], now[key] = stream, next(stream)
        return now[key]

    totals = []
    for n in range(first, first + count):
        # every stream steps once per n, and never past the last term
        for key, stream in streams.items():
            now[key] = next(stream)
        totals.append(form(n, c))
    return totals


def _ddu_ks(n: int) -> range:
    """The k for which some Dyck path of length 2n has k DDU factors; empty
    for n < 1."""
    return range((n - 1) // 2 + 1)


def dyck_count_by_ddu(n: int, k: int) -> int:
    """Number of Dyck paths of length 2n with exactly k DDU factors."""
    if k not in _ddu_ks(n):
        return 0
    return _exact_div(
        binomial(n - 1, k) * binomial(n - k - 1, k) << n - 2 * k - 1, k + 1
    )


def dyck_count_by_ddu_udu(n: int, k: int, j: int) -> int:
    """Number of Dyck paths of length 2n with k DDU factors and j UDU factors."""
    if k not in _ddu_ks(n) or j < 0 or j > n - 2 * k - 1:
        return 0
    return _exact_div(
        binomial(n - j - 1, k)
        * binomial(n - j - k - 1, k)
        * binomial(n - 1, j),
        k + 1,
    )


class IdentityId(Enum):
    """Closed-form identities checked exactly on both sides."""

    CATALAN_PEAK_SUM = "catalan-peak-sum"
    CATALAN_DDU_SUM = "catalan-ddu-sum"
    SYM_VALLEY_SUM = "sym-valley-sum"
    LAST_PASSAGE_SUM = "last-passage-sum"
    TERMINAL_PEAK_COUNT = "terminal-peak-count"
    DESCENT_RUN_SPLIT = "descent-run-split"
    BINOMIAL_PRODUCT_SUM = "binomial-product-sum"
    SEMI_PERIMETER_SPLIT = "semi-perimeter-split"
    SYM_VALLEY_MARK_SUM = "sym-valley-mark-sum"
    HALF_CENTRAL = "half-central"
    WEIGHTED_CATALAN = "weighted-catalan"


class IdentityResult(_Value):
    __match_args__ = __slots__ = ("lhs", "rhs")

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


class Identity(_Value):
    """An identity claimed for every n >= ``floor``.

    ``sides(n)`` returns ``(lhs, rhs)``; an identity with a k range ``ks``
    is claimed for every k in ``ks(n)`` and evaluated as ``sides(n, k)``.
    """

    __match_args__ = __slots__ = ("floor", "sides", "ks")
    _defaults = {"ks": None}


def _running_sum(sums: list[int], term: Callable[..., int], reach: int, hi: int) -> int:
    """``sums[hi]``, the sum of ``term(i)`` over i < hi, where term i reads
    rows up to 2i + reach. Entries are stored while their terms read the
    Pascal table; terms past the last stored entry are added to it unstored."""
    last = max(min(hi, (PASCAL_ROW_LIMIT - reach) // 2 + 1), 0)
    if last >= len(sums):
        _grow(sums, last + 1, lambda h: sums[h - 1] + term(h - 1))
    return sum(map(term, range(last, hi)), sums[last])


def _pair_term(i: int) -> int:
    return binomial(2 * i, i - 1) + binomial(2 * i - 1, i)


def _pair_sum(hi: int) -> int:
    """Sum of C(2i, i-1) + C(2i-1, i) over 1 <= i < hi."""
    return _running_sum(_pair_sums, _pair_term, 0, hi)


def _catalan_peak_sum(n: int) -> tuple[int, int]:
    total = sum(
        binomial(n, k) * binomial(n - k, k - 1) << n - 2 * k + 1
        for k in range(1, (n + 1) // 2 + 1)
    )
    return catalan(n), _exact_div(total, n)


def _sym_valley_sum(n: int) -> tuple[int, int]:
    lhs = (3 * n - 1) * catalan(n - 1)
    rhs = 1 + binomial(2 * n - 1, n) + binomial(2 * n - 3, n - 1) + _pair_sum(n - 1)
    return lhs, rhs


def _terminal_peak_count(n: int) -> tuple[int, int]:
    # terminal UUDD marks: all marks minus the non-terminal ones
    lhs = (2 * n - 3) * catalan(n - 2) - binomial(2 * n - 3, n - 3)
    return lhs, binomial(2 * n - 3, n - 2) - binomial(2 * n - 3, n - 3)


def _descent_run_split(n: int) -> tuple[int, int]:
    rhs = (
        binomial(2 * n - 2, n - 1)
        + catalan(n)
        + binomial(2 * n - 1, n - 2)
        + binomial(2 * n - 2, n - 2)
    )
    return binomial(2 * n, n), rhs


def _product_row(m: int) -> int:
    """Append C(m, j) * C(m-j, j) to column j for 1 <= j <= m // 2, and
    return column 0's entry, 1, for _grow to append last."""
    row = _pascal_row(m)
    for j, column in enumerate(islice(_columns, 1, m // 2 + 1), 1):
        column.append(row[j] * _pascal_row(m - j)[j if 3 * j <= m else m - 2 * j])
    return 1


def _product_column(k: int, top: int) -> list[int]:
    """C(m, k) * C(m-k, k) for m = 2k, ..., top at least, top <= _HELD_ROWS.
    The columns grow a row at a time, column 0 last, so all hold its rows."""
    if not _columns or len(_columns[0]) <= top:
        _grow(_columns, top // 2 + 1, lambda _: [])
        _grow(_columns[0], top + 1, _product_row)
    return _columns[k]


def _binomial_product_sum(n: int, k: int) -> tuple[int, int]:
    # term j is C(m, k) * C(m-k, k) * C(n-1, j) with m = n-1-j, read from
    # the held Pascal rows. Stepping the terms by their own ratio instead would
    # compute the lhs with the rhs's algebra and check nothing.
    top = n - 1
    if top <= _HELD_ROWS:
        column, row, lo = _product_column(k, top), _pascal_row(top), 2 * k
        # C(top, i) = C(top, top - i) is the binomial of both m = i and
        # m = top - i, so each held entry row[i] is multiplied once, by the
        # sum of the column entries of those m that lie in [2k, top]. Row[i]
        # for i < mid has two such m at most; row[mid] is the middle of an
        # even top, its own mirror.
        mid = (top + 1) // 2
        mirror = column[top - lo :: -1]  # mirror[i] is the entry of m = top - i
        mirror[lo:mid] = map(operator.add, column, mirror[lo:mid])  # and of m = i
        lhs = sum(map(operator.mul, row[:mid], mirror))
        if top % 2 == 0 and lo <= mid:
            lhs += row[mid] * column[mid - lo]
    else:
        lhs = sum(
            binomial(m, k) * binomial(m - k, k) * binomial(top, top - m)
            for m in range(top, 2 * k - 1, -1)
        )
    return lhs, binomial(n - 1, k) * binomial(n - k - 1, k) << n - 2 * k - 1


def _semi_perimeter_split(n: int) -> tuple[int, int]:
    lhs = binomial(2 * n + 1, n)
    mid = (
        binomial(2 * n - 1, n - 1)
        + catalan(n)
        + binomial(2 * n, n - 1)
        + binomial(2 * n - 1, n - 2)
    )
    short = 2 * binomial(2 * n, n - 1) + catalan(n)
    # equal to lhs only when lhs, mid and short all agree
    return lhs, short if mid == lhs else mid


def _mark_term(m: int) -> int:
    return _marked_high_ups(m, binomial(2 * m, m), binomial(2 * m + 2, m + 1))


def _sym_valley_total(n: int) -> int:
    """closed_total(n, sym-valley), read from _sym_valley_totals for n <= _HELD_ROWS."""
    if n > _HELD_ROWS:
        return closed_total(n, StatId(StatKind.SYM_VALLEY))
    if not _sym_valley_totals:
        with _rows_lock:  # filled whole, in one step, and never twice
            if not _sym_valley_totals:
                _sym_valley_totals.extend(
                    closed_totals(StatId(StatKind.SYM_VALLEY), 1, _HELD_ROWS)
                )
    return _sym_valley_totals[n - 1]


def _sym_valley_mark_sum(n: int) -> tuple[int, int]:
    # the nonzero sym-valley:ell rows, m = n - ell - 1 for 2 <= m <= n - 2
    lhs = _running_sum(_mark_sums, _mark_term, 2, n - 1)
    return lhs, _sym_valley_total(n)


IDENTITIES: dict[IdentityId, Identity] = {
    IdentityId.CATALAN_PEAK_SUM: Identity(1, _catalan_peak_sum),
    IdentityId.CATALAN_DDU_SUM: Identity(
        1, lambda n: (catalan(n), sum(dyck_count_by_ddu(n, k) for k in _ddu_ks(n)))
    ),
    IdentityId.SYM_VALLEY_SUM: Identity(3, _sym_valley_sum),
    IdentityId.LAST_PASSAGE_SUM: Identity(
        2, lambda n: (binomial(2 * n - 1, n), 1 + _pair_sum(n))
    ),
    IdentityId.TERMINAL_PEAK_COUNT: Identity(3, _terminal_peak_count),
    IdentityId.DESCENT_RUN_SPLIT: Identity(3, _descent_run_split),
    IdentityId.BINOMIAL_PRODUCT_SUM: Identity(1, _binomial_product_sum, _ddu_ks),
    IdentityId.SEMI_PERIMETER_SPLIT: Identity(2, _semi_perimeter_split),
    IdentityId.SYM_VALLEY_MARK_SUM: Identity(1, _sym_valley_mark_sum),
    IdentityId.HALF_CENTRAL: Identity(
        1, lambda n: (_half(binomial(2 * n, n)), binomial(2 * n - 1, n))
    ),
    IdentityId.WEIGHTED_CATALAN: Identity(
        1, lambda n: (n * catalan(n), binomial(2 * n, n - 1))
    ),
}


def identity_check(ident: IdentityId, n: int, k: int | None = None) -> IdentityResult:
    """Evaluate both sides of an identity exactly.

    ``k`` is required for BINOMIAL_PRODUCT_SUM, the one identity with a k
    range, and must lie in ``IDENTITIES[ident].ks(n)``, that is
    0 <= k <= (n-1)//2; it is rejected elsewhere.
    """
    entry = IDENTITIES[ident]
    if n < entry.floor:
        raise ValueError(f"{ident.value} holds for n >= {entry.floor}, got n={n}")
    if entry.ks is None:
        if k is not None:
            raise ValueError(f"{ident.value} takes no auxiliary k")
        return IdentityResult(*entry.sides(n))
    if k is None or k not in entry.ks(n):
        raise ValueError(f"{ident.value} needs 0 <= k <= (n-1)//2, got k={k}")
    return IdentityResult(*entry.sides(n, k))
