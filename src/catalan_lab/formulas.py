"""Exact closed forms: binomials, Catalan and Narayana numbers, statistic
totals, stratified Dyck path counts, and two-sided identity evaluation.

Everything is arbitrary-precision integer arithmetic. Binomials follow a
single global convention: out-of-range arguments give 0. An inexact
division raises ArithmeticError; it signals a bug, never a rounding choice.
"""

import math
import operator
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, islice, repeat

from .words import StatId, StatKind

# Binomials up to this row come from a memoized Pascal triangle; larger
# arguments fall back to math.comb. Identity sweeps to n=300 need row 602.
# Binomials along a diagonal, and their sums, never read the table past their
# first term: _diagonal steps from term to term by the term ratio.
PASCAL_ROW_LIMIT = 640

_rows: list[list[int]] = [[1]]
_rows_lock = threading.Lock()


def _pascal_row(n: int) -> list[int]:
    if n >= len(_rows):
        # rows are appended fully built, so readers only ever see complete rows
        with _rows_lock:
            while len(_rows) <= n:
                prev = _rows[-1]
                m = len(_rows)
                row = [1] * (m + 1)
                for i in range(1, m):
                    row[i] = prev[i - 1] + prev[i]
                _rows.append(row)
    return _rows[n]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the zero-outside-range convention."""
    if n < 0 or k < 0 or k > n:
        return 0
    if n <= PASCAL_ROW_LIMIT:
        return _pascal_row(n)[k]
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


def _sym_valley_total(n: int) -> int:
    return (3 * n - 2) * catalan(n - 1) - _half(_diagonal_sum(0, 0, 1, n))


def _marked_high_up_count(m: int) -> int:
    """Paths of length 2m with one marked up step ending at height two or more."""
    if m < 2:
        return 0
    return m * catalan(m) - (catalan(m + 1) - catalan(m))


def closed_total(n: int, s: StatId) -> int:
    """Exact total of statistic ``s`` over all Catalan words of length n.

    Pattern statistics accept a specific ell or, with ell absent, the total
    summed over all ell.
    """
    if n < 1:
        raise ValueError(f"closed_total is defined for n >= 1, got {n}")
    kind, ell = s.kind, s.ell
    if kind is StatKind.SYM_VALLEY:
        if ell is None:
            return _sym_valley_total(n)
        return _marked_high_up_count(n - ell - 1)
    if kind is StatKind.ELL_VALLEY:
        if ell is None:
            return _diagonal_sum(-1, -3, 3, n - 1)
        return binomial(2 * n - 2 * ell - 1, n - ell - 3)
    if kind is StatKind.SYM_PEAK:
        if ell is None:
            return _diagonal_sum(2, 0, 0, n - 3)
        return binomial(2 * n - 2 * ell - 2, n - ell - 2)
    if kind is StatKind.ELL_PEAK:
        if ell is None:
            return _diagonal_sum(-1, -2, 2, n - 1)
        return binomial(2 * n - 2 * ell - 1, n - ell - 2)
    if kind is StatKind.RUNS_DESC:
        return binomial(2 * n, n) - binomial(2 * n - 2, n - 1)
    if kind is StatKind.RUNS_WEAK_ASC:
        return binomial(2 * n - 2, n - 1)
    if kind is StatKind.RUNS_ASC or kind is StatKind.RUNS_WEAK_DESC:
        return binomial(2 * n - 1, n)
    if kind is StatKind.CORNER_HU:
        return binomial(2 * n - 1, n - 2)
    if kind is StatKind.CORNER_DH:
        return binomial(2 * n - 2, n - 3)
    if kind is StatKind.SEMI:
        return _half(binomial(2 * n + 2, n + 1) - binomial(2 * n, n))
    if kind is StatKind.AREA:
        return _half(4**n - binomial(2 * n, n))
    raise ValueError(f"unknown statistic {s!r}")


def closed_totals(s: StatId, first: int, count: int) -> list[int]:
    """``closed_total(n, s)`` for n = first, ..., first + count - 1, in one pass.

    The same closed forms as ``closed_total``, with each binomial C(2n+a, n+b)
    and each diagonal sum stepped from one n to the next by its term ratio
    and 4**n by a factor 4, so a term costs a few big-integer products rather
    than fresh binomials.
    """
    if first < 1:
        raise ValueError(f"first n must be at least 1, got {first}")
    if count < 1:
        raise ValueError(f"term count must be positive, got {count}")
    kind, ell = s.kind, s.ell
    ns = range(first, first + count)

    def diag(a: int, b: int, shift: int = 0) -> Iterator[int]:
        """C(2m+a, m+b) for m = n + shift, n = first, first + 1, ..."""
        return _diagonal(a, b, first + shift)

    if kind is StatKind.SYM_VALLEY:
        if ell is None:
            values = map(
                lambda n, c, total: (3 * n - 2) * _exact_div(c, n) - _half(total),
                ns,
                diag(0, 0, -1),
                _diagonal_sums(0, 0, 1, first),
            )
        else:
            def marked(n: int, c: int, c_next: int) -> int:
                # _marked_high_up_count(m) from C(2m, m) and C(2m+2, m+1)
                m = n - ell - 1
                if m < 2:
                    return 0
                cat = _exact_div(c, m + 1)
                return m * cat - (_exact_div(c_next, m + 2) - cat)

            values = map(marked, ns, diag(0, 0, -ell - 1), diag(0, 0, -ell))
    elif kind is StatKind.ELL_VALLEY:
        if ell is None:
            values = _diagonal_sums(-1, -3, 3, first - 1)
        else:
            values = diag(-1, -3, -ell)
    elif kind is StatKind.SYM_PEAK:
        if ell is None:
            values = _diagonal_sums(2, 0, 0, first - 3)
        else:
            values = diag(-2, -2, -ell)
    elif kind is StatKind.ELL_PEAK:
        if ell is None:
            values = _diagonal_sums(-1, -2, 2, first - 1)
        else:
            values = diag(-1, -2, -ell)
    elif kind is StatKind.RUNS_DESC:
        values = map(operator.sub, diag(0, 0), diag(-2, -1))
    elif kind is StatKind.RUNS_WEAK_ASC:
        values = diag(-2, -1)
    elif kind is StatKind.RUNS_ASC or kind is StatKind.RUNS_WEAK_DESC:
        values = diag(-1, 0)
    elif kind is StatKind.CORNER_HU:
        values = diag(-1, -2)
    elif kind is StatKind.CORNER_DH:
        values = diag(-2, -3)
    elif kind is StatKind.SEMI:
        values = map(lambda c_next, c: _half(c_next - c), diag(0, 0, 1), diag(0, 0))
    elif kind is StatKind.AREA:
        powers = accumulate(repeat(4), operator.mul, initial=4**first)
        values = map(lambda p, c: _half(p - c), powers, diag(0, 0))
    else:
        raise ValueError(f"unknown statistic {s!r}")
    # islice stops before stepping past the last term
    return list(islice(values, count))


def dyck_count_by_ddu(n: int, k: int) -> int:
    """Number of Dyck paths of length 2n with exactly k DDU factors."""
    if n < 1 or k < 0 or k > (n - 1) // 2:
        return 0
    return _exact_div(
        binomial(n - 1, k) * binomial(n - k - 1, k) * 2 ** (n - 2 * k - 1), k + 1
    )


def dyck_count_by_ddu_udu(n: int, k: int, j: int) -> int:
    """Number of Dyck paths of length 2n with k DDU factors and j UDU factors."""
    if n < 1 or k < 0 or k > (n - 1) // 2 or j < 0 or j > n - 2 * k - 1:
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


# Smallest n for which each identity is claimed.
IDENTITY_FLOOR = {
    IdentityId.CATALAN_PEAK_SUM: 1,
    IdentityId.CATALAN_DDU_SUM: 1,
    IdentityId.SYM_VALLEY_SUM: 3,
    IdentityId.LAST_PASSAGE_SUM: 2,
    IdentityId.TERMINAL_PEAK_COUNT: 3,
    IdentityId.DESCENT_RUN_SPLIT: 3,
    IdentityId.BINOMIAL_PRODUCT_SUM: 1,
    IdentityId.SEMI_PERIMETER_SPLIT: 2,
    IdentityId.SYM_VALLEY_MARK_SUM: 1,
    IdentityId.HALF_CENTRAL: 1,
    IdentityId.WEIGHTED_CATALAN: 1,
}


@dataclass(frozen=True)
class IdentityResult:
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def identity_check(ident: IdentityId, n: int, k: int | None = None) -> IdentityResult:
    """Evaluate both sides of an identity exactly.

    ``k`` is required for BINOMIAL_PRODUCT_SUM (0 <= k <= (n-1)//2) and
    rejected elsewhere.
    """
    floor = IDENTITY_FLOOR[ident]
    if n < floor:
        raise ValueError(f"{ident.value} holds for n >= {floor}, got n={n}")
    if ident is not IdentityId.BINOMIAL_PRODUCT_SUM:
        if k is not None:
            raise ValueError(f"{ident.value} takes no auxiliary k")
    if ident is IdentityId.CATALAN_PEAK_SUM:
        total = sum(
            binomial(n, k_) * binomial(n - k_, k_ - 1) * 2 ** (n - 2 * k_ + 1)
            for k_ in range(1, (n + 1) // 2 + 1)
        )
        return IdentityResult(catalan(n), _exact_div(total, n))
    if ident is IdentityId.CATALAN_DDU_SUM:
        rhs = sum(dyck_count_by_ddu(n, k_) for k_ in range((n - 1) // 2 + 1))
        return IdentityResult(catalan(n), rhs)
    if ident is IdentityId.SYM_VALLEY_SUM:
        lhs = (3 * n - 1) * catalan(n - 1)
        rhs = (
            1
            + binomial(2 * n - 1, n)
            + binomial(2 * n - 3, n - 1)
            + sum(
                binomial(2 * i, i - 1) + binomial(2 * i - 1, i)
                for i in range(1, n - 1)
            )
        )
        return IdentityResult(lhs, rhs)
    if ident is IdentityId.LAST_PASSAGE_SUM:
        lhs = binomial(2 * n - 1, n)
        rhs = 1 + sum(
            binomial(2 * i, i - 1) + binomial(2 * i - 1, i) for i in range(1, n)
        )
        return IdentityResult(lhs, rhs)
    if ident is IdentityId.TERMINAL_PEAK_COUNT:
        # terminal UUDD marks: all marks minus the non-terminal ones
        lhs = (2 * n - 3) * catalan(n - 2) - binomial(2 * n - 3, n - 3)
        rhs = binomial(2 * n - 3, n - 2) - binomial(2 * n - 3, n - 3)
        return IdentityResult(lhs, rhs)
    if ident is IdentityId.DESCENT_RUN_SPLIT:
        lhs = binomial(2 * n, n)
        rhs = (
            binomial(2 * n - 2, n - 1)
            + catalan(n)
            + binomial(2 * n - 1, n - 2)
            + binomial(2 * n - 2, n - 2)
        )
        return IdentityResult(lhs, rhs)
    if ident is IdentityId.BINOMIAL_PRODUCT_SUM:
        if k is None or k < 0 or k > (n - 1) // 2:
            raise ValueError(
                f"binomial-product-sum needs 0 <= k <= (n-1)//2, got k={k}"
            )
        # term j is C(m, k) * C(m-k, k) * C(n-1, j) with m = n-1-j, read from
        # the Pascal rows. Stepping the terms by their own ratio instead would
        # compute the lhs with the rhs's algebra and check nothing.
        top = n - 1
        if top <= PASCAL_ROW_LIMIT:
            _pascal_row(top)  # every row up to top is built
            cols = [_rows[m][k] * _rows[m - k][k] for m in range(top, 2 * k - 1, -1)]
            lhs = sum(map(operator.mul, cols, _rows[top]))
        else:
            lhs = sum(
                binomial(m, k) * binomial(m - k, k) * binomial(top, top - m)
                for m in range(top, 2 * k - 1, -1)
            )
        rhs = binomial(n - 1, k) * binomial(n - k - 1, k) * 2 ** (n - 2 * k - 1)
        return IdentityResult(lhs, rhs)
    if ident is IdentityId.SEMI_PERIMETER_SPLIT:
        lhs = binomial(2 * n + 1, n)
        mid = (
            binomial(2 * n - 1, n - 1)
            + catalan(n)
            + binomial(2 * n, n - 1)
            + binomial(2 * n - 1, n - 2)
        )
        short = 2 * binomial(2 * n, n - 1) + catalan(n)
        # equal to lhs only when lhs, mid and short all agree
        return IdentityResult(lhs, short if mid == lhs else mid)
    if ident is IdentityId.SYM_VALLEY_MARK_SUM:
        lhs = sum(_marked_high_up_count(n - l - 1) for l in range(1, max(n - 2, 1)))
        rhs = _sym_valley_total(n)
        return IdentityResult(lhs, rhs)
    if ident is IdentityId.HALF_CENTRAL:
        return IdentityResult(_half(binomial(2 * n, n)), binomial(2 * n - 1, n))
    if ident is IdentityId.WEIGHTED_CATALAN:
        return IdentityResult(n * catalan(n), binomial(2 * n, n - 1))
    raise ValueError(f"unknown identity {ident!r}")
