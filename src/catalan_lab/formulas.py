"""Exact closed forms: binomials, Catalan and Narayana numbers, statistic
totals, stratified Dyck path counts, and two-sided identity evaluation.

Each statistic's total is one closed form, ``_form``, written in diagonal
binomials C(2m+a, m+b) and their running sums over m. ``closed_total``
evaluates it at one n from binomials; ``closed_totals`` evaluates it at
consecutive n, stepping each diagonal from one n to the next by its term
ratio.

Everything is arbitrary-precision integer arithmetic. Binomials follow a
single global convention: out-of-range arguments give 0. An inexact
division raises ArithmeticError; it signals a bug, never a rounding choice.
"""

import math
import operator
import threading
from collections.abc import Callable, Iterator
from enum import Enum
from itertools import accumulate, chain, islice, repeat

from .paths import _Value
from .words import StatId, StatKind

# Binomials up to this row come from a memoized Pascal triangle; larger
# arguments fall back to math.comb. Identity sweeps to n=300 need row 602.
# Each row keeps only its first half, C(m, i) for i <= m // 2: about 7 MB at
# this limit. Beside it, binomial-product-sum memoizes C(m, k) * C(m-k, k),
# each computed once; at most about 10 MB, once its top row reaches the limit.
# Two running sums of the identities are memoized as prefix tables, each entry
# stored only while its terms read rows up to the limit: _pair_sums and
# _mark_sums, at most 322 and 321 entries, about 25 KB each.
# Binomials along a diagonal, and their sums, never read the table past their
# first term: _diagonal steps from term to term by the term ratio.
PASCAL_ROW_LIMIT = 640

_rows: list[list[int]] = [[1]]  # _rows[m][i] = C(m, i) for i <= m // 2
_columns: list[list[int]] = []  # _columns[k][m - 2k] = C(m, k) * C(m-k, k)
_pair_sums: list[int] = [0, 0]  # _pair_sums[h] = _pair_sum(h)
_mark_sums: list[int] = [0, 0, 0]  # _mark_sums[h] = sum of _mark_term(m), m < h
_rows_lock = threading.Lock()  # held while _rows or a memo beside it grows


def _pascal_row(n: int) -> list[int]:
    if n >= len(_rows):
        # rows are appended fully built, so readers only ever see complete rows
        with _rows_lock:
            while len(_rows) <= n:
                prev = _rows[-1]
                row = [1, *map(operator.add, prev, prev[1:])]
                if len(_rows) % 2 == 0:  # C(2h, h) = 2 C(2h-1, h-1)
                    row.append(2 * prev[-1])
                _rows.append(row)
    return _rows[n]


def _stored(n: int, k: int) -> int:
    """C(n, k) for 0 <= k <= n from a row already built: it never takes
    _rows_lock, so the prefix tables read it while they hold the lock."""
    return _rows[n][k if 2 * k <= n else n - k]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the zero-outside-range convention."""
    if n < 0 or k < 0 or k > n:
        return 0
    if n <= PASCAL_ROW_LIMIT:
        # min(k, n - k), written out: the min() call costs more on this path
        return _pascal_row(n)[k if 2 * k <= n else n - k]
    return math.comb(n, k)


def catalan(n: int) -> int:
    """The n-th Catalan number."""
    if n < 0:
        raise ValueError(f"catalan is defined for n >= 0, got {n}")
    return binomial(2 * n, n) // (n + 1)


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
    """_diagonal_sum(a, b, lo, h) for h = hi, hi+1, ..., one running sum."""
    sums = accumulate(_diagonal(a, b, lo), initial=0)
    return chain(repeat(0, lo - 1 - hi), islice(sums, max(hi - lo + 1, 0), None))


def _diagonal_sum(a: int, b: int, lo: int, hi: int) -> int:
    """Sum of C(2m+a, m+b) over lo <= m <= hi, stepped by the term ratio."""
    return next(_diagonal_sums(a, b, lo, hi))


def _marked_high_ups(m: int, central: int, next_central: int) -> int:
    """Paths of length 2m with one marked up step ending at height two or
    more, from C(2m, m) and C(2m+2, m+1)."""
    if m < 2:
        return 0
    cat = _exact_div(central, m + 1)
    return m * cat - (_exact_div(next_central, m + 2) - cat)


def _form(s: StatId) -> Callable[[int, Callable[..., int]], int]:
    """The closed form of statistic ``s``, as ``form(n, c)``, for both evaluators.

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

    def c(a: int, b: int, k: int = 0, lo: int | None = None) -> int:
        m = n + k
        if lo is None:
            return binomial(2 * m + a, m + b)
        return _diagonal_sum(a, b, lo, m)

    return _form(s)(n, c)


def closed_totals(s: StatId, first: int, count: int) -> list[int]:
    """``closed_total(n, s)`` for n = first, ..., first + count - 1, in one pass.

    The same closed forms as ``closed_total``, with each diagonal binomial
    and each diagonal sum a stream stepped from one n to the next by its term
    ratio, so a term costs a few big-integer products rather than fresh
    binomials.
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

    def __init__(self, lhs: int, rhs: int):
        self._set("lhs", lhs)
        self._set("rhs", rhs)

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


class Identity(_Value):
    """An identity claimed for every n >= ``floor``.

    ``sides(n)`` returns ``(lhs, rhs)``; an identity with a k range ``ks``
    is claimed for every k in ``ks(n)`` and evaluated as ``sides(n, k)``.
    """

    __match_args__ = __slots__ = ("floor", "sides", "ks")

    def __init__(
        self,
        floor: int,
        sides: Callable[..., tuple[int, int]],
        ks: Callable[[int], range] | None = None,
    ):
        self._set("floor", floor)
        self._set("sides", sides)
        self._set("ks", ks)


def _running_sum(sums: list[int], term: Callable[..., int], reach: int, hi: int) -> int:
    """``sums[hi]``, the sum of ``term(i, binomial)`` over i < hi, where term i
    reads rows up to 2i + reach. Entries are stored while their terms read the
    Pascal table; terms past the last stored entry are added to it unstored."""
    last = max(min(hi, (PASCAL_ROW_LIMIT - reach) // 2 + 1), 0)
    if last >= len(sums):
        _pascal_row(2 * last - 2 + reach)  # before the lock: _pascal_row takes it too
        # entries are appended fully built, under the lock, and never twice
        with _rows_lock:
            while len(sums) <= last:
                sums.append(sums[-1] + term(len(sums) - 1, _stored))
    return sum((term(i, binomial) for i in range(last, hi)), sums[last])


def _pair_term(i: int, c: Callable[[int, int], int]) -> int:
    return c(2 * i, i - 1) + c(2 * i - 1, i)


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


def _product_column(k: int, top: int) -> list[int]:
    """C(m, k) * C(m-k, k) for m = 2k, 2k+1, ..., up to top at least."""
    if k >= len(_columns) or 2 * k + len(_columns[k]) <= top:
        _pascal_row(top)  # before the lock: _pascal_row takes it too
        # entries are appended fully built, under the lock, and never twice
        with _rows_lock:
            while len(_columns) <= k:
                _columns.append([])
            column = _columns[k]
            for m in range(2 * k + len(column), top + 1):
                column.append(_rows[m][k] * _rows[m - k][min(k, m - 2 * k)])
    return _columns[k]


def _binomial_product_sum(n: int, k: int) -> tuple[int, int]:
    # term j is C(m, k) * C(m-k, k) * C(n-1, j) with m = n-1-j, read from
    # the Pascal rows. Stepping the terms by their own ratio instead would
    # compute the lhs with the rhs's algebra and check nothing.
    top = n - 1
    if top <= PASCAL_ROW_LIMIT:
        column, row, lo = _product_column(k, top), _pascal_row(top), 2 * k
        # C(top, m) for m = 2k..top: the stored half from m = 2k on, then its
        # mirror row[top - m] from m = max(2k, top // 2 + 1) on
        mirror = islice(reversed(row), max(lo, top // 2 + 1) - (top + 1) // 2, None)
        lhs = sum(map(operator.mul, column, chain(islice(row, lo, None), mirror)))
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


def _mark_term(m: int, c: Callable[[int, int], int]) -> int:
    return _marked_high_ups(m, c(2 * m, m), c(2 * m + 2, m + 1))


def _sym_valley_mark_sum(n: int) -> tuple[int, int]:
    # the nonzero sym-valley:ell rows, m = n - ell - 1 for 2 <= m <= n - 2
    lhs = _running_sum(_mark_sums, _mark_term, 2, n - 1)
    return lhs, closed_total(n, StatId(StatKind.SYM_VALLEY))


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

# Smallest n for which each identity is claimed, read from the table.
IDENTITY_FLOOR = {ident: entry.floor for ident, entry in IDENTITIES.items()}


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
