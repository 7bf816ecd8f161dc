import ast
import math
import subprocess
import sys
import threading
import time
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

import pytest

import catalan_lab
from catalan_lab import (
    IdentityId,
    StatId,
    StatKind,
    binomial,
    brute_total,
    catalan,
    closed_total,
    closed_totals,
    dyck_count_by_ddu,
    dyck_count_by_ddu_udu,
    identity_check,
    narayana,
    sweep_totals,
)
from catalan_lab import formulas
from catalan_lab.formulas import (
    IDENTITIES,
    PASCAL_ROW_LIMIT,
    _diagonal_sums,
)


def pascal_oracle(rows):
    """Independent Pascal triangle built by the plain recurrence."""
    table = [[1]]
    for n in range(1, rows + 1):
        prev = table[-1]
        table.append(
            [1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1]
        )
    return table


def comb0(n, k):
    """math.comb with the zero-outside-range convention."""
    return math.comb(n, k) if 0 <= k <= n else 0


def per_ell(kind, form):
    """The totals of ``kind`` at ell = 1, 2, 3, from ``form`` at m = n - ell."""
    return {StatId(kind, l): lambda n, l=l: form(n - l) for l in (1, 2, 3)}


# Every total as plain binomials, the all-ell pattern totals summed term by
# term: the one check of each closed form past n = 60 that reads nothing
# from formulas.
DEFINITIONAL_TOTALS = {
    StatId(StatKind.SYM_VALLEY): lambda n: (3 * n - 2)
    * (comb0(2 * n - 2, n - 1) // n)
    - sum(comb0(2 * k, k) for k in range(1, n + 1)) // 2,
    StatId(StatKind.ELL_VALLEY): lambda n: sum(
        comb0(2 * n - 2 * l - 1, n - l - 3) for l in range(1, n - 2)
    ),
    StatId(StatKind.SYM_PEAK): lambda n: sum(
        comb0(2 * k + 2, k) for k in range(n - 2)
    ),
    StatId(StatKind.ELL_PEAK): lambda n: sum(
        comb0(2 * n - 2 * l - 1, n - l - 2) for l in range(1, n - 1)
    ),
    StatId(StatKind.RUNS_DESC): lambda n: comb0(2 * n, n) - comb0(2 * n - 2, n - 1),
    StatId(StatKind.RUNS_WEAK_ASC): lambda n: comb0(2 * n - 2, n - 1),
    StatId(StatKind.RUNS_ASC): lambda n: comb0(2 * n - 1, n),
    StatId(StatKind.RUNS_WEAK_DESC): lambda n: comb0(2 * n - 1, n),
    StatId(StatKind.CORNER_HU): lambda n: comb0(2 * n - 1, n - 2),
    StatId(StatKind.CORNER_DH): lambda n: comb0(2 * n - 2, n - 3),
    StatId(StatKind.SEMI): lambda n: (comb0(2 * n + 2, n + 1) - comb0(2 * n, n)) // 2,
    StatId(StatKind.AREA): lambda n: (4**n - comb0(2 * n, n)) // 2,
    # marked up steps ending at height >= 2 on paths of semilength m - 1:
    # (m-1) Catalan(m-1) marks, less Catalan(m) - Catalan(m-1) at height one
    **per_ell(
        StatKind.SYM_VALLEY,
        lambda m: comb0(2 * m - 2, m - 1) - comb0(2 * m, m) // (m + 1) if m > 0 else 0,
    ),
    **per_ell(StatKind.ELL_VALLEY, lambda m: comb0(2 * m - 1, m - 3)),
    **per_ell(StatKind.SYM_PEAK, lambda m: comb0(2 * m - 2, m - 2)),
    **per_ell(StatKind.ELL_PEAK, lambda m: comb0(2 * m - 1, m - 2)),
}


class TestBinomial:
    def test_small_values(self):
        assert binomial(4, 2) == 6
        assert binomial(5, -1) == 0
        assert binomial(3, 5) == 0
        assert binomial(-2, 0) == 0
        assert binomial(0, 0) == 1

    def test_central_binomial_n20(self):
        assert binomial(40, 20) == 137846528820

    def test_against_pascal_recurrence(self):
        table = pascal_oracle(60)
        for n in range(61):
            for k in range(n + 1):
                assert binomial(n, k) == table[n][k]

    def test_beyond_row_limit_falls_back(self):
        n = PASCAL_ROW_LIMIT + 7
        assert binomial(n, 3) == math.comb(n, 3)
        assert binomial(n, n + 1) == 0

    def test_concurrent_memo_growth(self):
        import threading

        from catalan_lab import formulas

        saved = list(formulas._rows)
        formulas._rows[:] = [[1]]
        errors = []

        def worker():
            try:
                for n in range(0, 300, 7):
                    if binomial(n, n // 2) != math.comb(n, n // 2):
                        errors.append(n)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker) for _ in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            assert not errors, errors[:3]
            assert all(len(row) == i // 2 + 1 for i, row in enumerate(formulas._rows))
        finally:
            formulas._rows[:] = saved

    def test_both_halves_match_math_comb(self):
        # the stored half, the middle of even rows and the mirrored half, on
        # both sides of the table limit
        sizes = [*range(81), PASCAL_ROW_LIMIT - 1, PASCAL_ROW_LIMIT, PASCAL_ROW_LIMIT + 1]
        for n in sizes:
            assert [binomial(n, k) for k in range(n + 1)] == [
                math.comb(n, k) for k in range(n + 1)
            ], n


class TestCatalanNarayana:
    def test_examples(self):
        assert catalan(0) == 1
        assert catalan(4) == 14
        assert narayana(4, 2) == 6

    def test_catalan_matches_definition(self):
        for n in range(50):
            assert catalan(n) == math.comb(2 * n, n) // (n + 1)
        with pytest.raises(ValueError):
            catalan(-1)

    def test_narayana_row_sums(self):
        for n in range(1, 13):
            assert sum(narayana(n, k) for k in range(1, n + 1)) == catalan(n)

    def test_narayana_symmetry(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert narayana(n, k) == narayana(n, n + 1 - k)

    def test_out_of_range_is_zero(self):
        assert narayana(4, 0) == 0
        assert narayana(4, 5) == 0
        assert narayana(0, 1) == 0

    def test_empty_row_is_one(self):
        assert narayana(0, 0) == 1
        assert sum(narayana(0, k) for k in range(2)) == catalan(0)

    def test_inexact_catalan_division_raises(self, monkeypatch):
        # C(6, 3) + 1 = 21 is not a multiple of 4
        real = formulas.binomial
        monkeypatch.setattr(formulas, "binomial", lambda n, k: real(n, k) + 1)
        with pytest.raises(ArithmeticError):
            catalan(3)


class TestClosedTotal:
    def test_anchor_values(self):
        assert closed_total(4, StatId(StatKind.SYM_VALLEY)) == 1
        assert closed_total(3, StatId(StatKind.AREA)) == 22
        assert closed_total(2, StatId(StatKind.SEMI)) == 7
        assert closed_total(4, StatId(StatKind.ELL_PEAK, 2)) == 1

    def test_row_formulas_spot_values(self):
        assert closed_total(2, StatId(StatKind.RUNS_DESC)) == 4
        assert closed_total(1, StatId(StatKind.RUNS_WEAK_ASC)) == 1
        assert closed_total(2, StatId(StatKind.RUNS_WEAK_ASC)) == 2
        assert closed_total(4, StatId(StatKind.SYM_PEAK)) == 5
        assert closed_total(4, StatId(StatKind.CORNER_HU)) == binomial(7, 2)
        assert closed_total(4, StatId(StatKind.CORNER_DH)) == binomial(6, 1)

    def test_all_ell_totals_sum_the_per_ell_rows(self):
        for n in range(1, 13):
            for kind in (StatKind.ELL_VALLEY, StatKind.ELL_PEAK, StatKind.SYM_PEAK):
                total = closed_total(n, StatId(kind))
                by_ell = sum(
                    closed_total(n, StatId(kind, ell)) for ell in range(1, n + 1)
                )
                assert total == by_ell

    def test_small_n_all_rows_zero_or_positive(self):
        for n in range(1, 5):
            for kind in StatKind:
                assert closed_total(n, StatId(kind)) >= 0

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError):
            closed_total(0, StatId(StatKind.AREA))


class TestDiagonalSum:
    """The term-ratio sum of C(2m+a, m+b) against the sum of its terms."""

    def test_against_termwise_sum(self):
        for a in range(-4, 5):
            for b in range(-4, 5):
                for lo in range(-3, 7):
                    for hi in range(lo - 2, lo + 9):
                        expected = sum(
                            comb0(2 * m + a, m + b) for m in range(lo, hi + 1)
                        )
                        got = next(_diagonal_sums(a, b, lo, hi))
                        assert got == expected, (a, b, lo, hi)

    def test_leading_zero_terms_and_empty_ranges(self):
        # C(2m-1, m-3) is zero for m < 3
        assert next(_diagonal_sums(-1, -3, 0, 2)) == 0
        assert next(_diagonal_sums(-1, -3, 0, 3)) == 1
        assert next(_diagonal_sums(0, 0, 5, 4)) == 0
        assert next(_diagonal_sums(2, 0, 0, -1)) == 0

    @pytest.mark.parametrize("s", list(DEFINITIONAL_TOTALS), ids=str)
    def test_all_ell_totals_across_row_limit(self, s):
        sizes = list(range(1, 41)) + [
            PASCAL_ROW_LIMIT - 1,
            PASCAL_ROW_LIMIT,
            PASCAL_ROW_LIMIT + 1,
            PASCAL_ROW_LIMIT + 2,
            1000,
        ]
        for n in sizes:
            assert closed_total(n, s) == DEFINITIONAL_TOTALS[s](n), n


PATTERN_KINDS = (
    StatKind.SYM_VALLEY,
    StatKind.ELL_VALLEY,
    StatKind.SYM_PEAK,
    StatKind.ELL_PEAK,
)
EVERY_STAT = [StatId(kind) for kind in StatKind] + [
    StatId(kind, ell) for kind in PATTERN_KINDS for ell in (1, 2, 3)
]


class TestClosedTotals:
    """The stepped sequence form against closed_total, one term at a time."""

    @pytest.mark.parametrize("s", EVERY_STAT, ids=str)
    def test_matches_closed_total_to_n_700(self, s):
        last = 700
        expected = [closed_total(n, s) for n in range(1, last + 1)]
        # every run steps from inside the Pascal table (row 2n+2 <= 640 up to
        # n = 319) to far past it
        for first in (1, 2, 3, 7):
            got = closed_totals(s, first, last - first + 1)
            assert got == expected[first - 1:], (s, first)

    def test_per_ell_runs_match_the_count_oracle(self):
        # EVERY_STAT steps ell <= 3 only; here every ell <= 40 is stepped
        # from n = 1, against the counted totals of the words
        last = 40
        sweeps = [sweep_totals(n, max_n=last) for n in range(1, last + 1)]
        for kind in PATTERN_KINDS:
            for ell in range(1, last + 1):
                s = StatId(kind, ell)
                counted = [sweep.total(s) for sweep in sweeps]
                assert closed_totals(s, 1, last) == counted, s

    @pytest.mark.parametrize("first, count", [(0, 3), (-2, 3), (1, 0), (5, -1)])
    def test_rejects_first_or_count_below_one(self, first, count):
        with pytest.raises(ValueError):
            closed_totals(StatId(StatKind.AREA), first, count)

    def test_unknown_statistic_refused(self):
        odd = SimpleNamespace(kind=None, ell=None)
        with pytest.raises(ValueError, match="unknown statistic"):
            closed_total(3, odd)
        with pytest.raises(ValueError, match="unknown statistic"):
            closed_totals(odd, 1, 3)

    def test_inexact_step_raises(self, monkeypatch):
        # a first term off by one cannot be stepped by an exact division
        real = formulas.binomial
        monkeypatch.setattr(formulas, "binomial", lambda n, k: real(n, k) + 1)
        with pytest.raises(ArithmeticError):
            closed_totals(StatId(StatKind.RUNS_WEAK_ASC), 5, 3)


class TestStrataCounts:
    def test_anchor_values(self):
        assert dyck_count_by_ddu(4, 0) == 8
        assert dyck_count_by_ddu(4, 1) == 6
        assert dyck_count_by_ddu(4, 0) + dyck_count_by_ddu(4, 1) == 14
        assert dyck_count_by_ddu_udu(4, 1, 1) == 3
        assert dyck_count_by_ddu(1, 0) == 1

    def test_out_of_range_zero(self):
        assert dyck_count_by_ddu(4, 2) == 0
        assert dyck_count_by_ddu(4, -1) == 0
        assert dyck_count_by_ddu_udu(4, 0, 4) == 0
        assert dyck_count_by_ddu_udu(4, 0, -1) == 0

    def test_j_sum_matches_k_count(self):
        for n in range(1, 14):
            for k in range((n - 1) // 2 + 1):
                assert dyck_count_by_ddu(n, k) == sum(
                    dyck_count_by_ddu_udu(n, k, j) for j in range(n - 2 * k)
                )

    def test_k_sum_is_catalan(self):
        for n in range(1, 20):
            assert sum(
                dyck_count_by_ddu(n, k) for k in range((n - 1) // 2 + 1)
            ) == catalan(n)


class TestIdentities:
    def test_table_lists_every_identity_in_order(self):
        assert list(IDENTITIES) == list(IdentityId)

    def test_catalan_peak_sum_n4(self):
        res = identity_check(IdentityId.CATALAN_PEAK_SUM, 4)
        assert (res.lhs, res.rhs, res.holds) == (14, 14, True)

    def test_binomial_product_sum_n5_k1(self):
        res = identity_check(IdentityId.BINOMIAL_PRODUCT_SUM, 5, 1)
        assert res.lhs == res.rhs == binomial(4, 1) * binomial(3, 1) * 4 == 48

    def test_last_passage_sum_smallest(self):
        res = identity_check(IdentityId.LAST_PASSAGE_SUM, 2)
        assert (res.lhs, res.rhs) == (3, 3)

    def test_semi_perimeter_failure_reports_real_rhs(self, monkeypatch):
        from catalan_lab import formulas

        # off by one only in binomial(2n-1, n-1), a term of the long form alone
        monkeypatch.setattr(
            formulas, "binomial", lambda a, b: binomial(a, b) + ((a, b) == (5, 2))
        )
        res = identity_check(IdentityId.SEMI_PERIMETER_SPLIT, 3)
        assert not res.holds
        assert (res.lhs, res.rhs) == (binomial(7, 3), binomial(7, 3) + 1)

    def test_semi_perimeter_failure_in_short_form_only(self, monkeypatch):
        # C(6, 2) one up and C(5, 2) one down: the long form still equals the
        # lhs, the short form 2 C(2n, n-1) + C_n is two over it
        shift = {(6, 2): 1, (5, 2): -1}
        monkeypatch.setattr(
            formulas, "binomial", lambda a, b: binomial(a, b) + shift.get((a, b), 0)
        )
        res = identity_check(IdentityId.SEMI_PERIMETER_SPLIT, 3)
        assert not res.holds
        assert (res.lhs, res.rhs) == (binomial(7, 3), binomial(7, 3) + 2)

    def test_pair_sum_read_by_its_two_identities(self, monkeypatch):
        # last-passage-sum and half-central agree at every n; only the pair
        # sum, read by last-passage-sum and sym-valley-sum, tells them apart
        pair_sum = formulas._pair_sum
        monkeypatch.setattr(formulas, "_pair_sum", lambda hi: pair_sum(hi) + 1)
        assert not identity_check(IdentityId.LAST_PASSAGE_SUM, 5).holds
        assert not identity_check(IdentityId.SYM_VALLEY_SUM, 5).holds
        assert identity_check(IdentityId.HALF_CENTRAL, 5).holds

    def test_ddu_sum_adds_the_ddu_counts(self, monkeypatch):
        # the two Catalan sums agree in value; only this one reads the counts
        monkeypatch.setattr(formulas, "dyck_count_by_ddu", lambda n, k: 1)
        assert identity_check(IdentityId.CATALAN_DDU_SUM, 7).rhs == 4
        assert identity_check(IdentityId.CATALAN_PEAK_SUM, 7).holds

    def test_sides_at_n7(self):
        # both sides of each identity at n = 7 (k = 1), from math.comb and the
        # enumeration oracle, so a table entry holding another identity's
        # sides reads another value; the two Catalan sums agree at every n,
        # and so do last-passage-sum and half-central
        value = {
            IdentityId.CATALAN_PEAK_SUM: math.comb(14, 7) // 8,
            IdentityId.CATALAN_DDU_SUM: math.comb(14, 7) // 8,
            IdentityId.SYM_VALLEY_SUM: 20 * math.comb(12, 6) // 7,
            IdentityId.LAST_PASSAGE_SUM: math.comb(13, 7),
            IdentityId.TERMINAL_PEAK_COUNT: math.comb(11, 5) - math.comb(11, 4),
            IdentityId.DESCENT_RUN_SPLIT: math.comb(14, 7),
            IdentityId.BINOMIAL_PRODUCT_SUM: 6 * 5 * 2**4,
            IdentityId.SEMI_PERIMETER_SPLIT: math.comb(15, 7),
            IdentityId.SYM_VALLEY_MARK_SUM: brute_total(7, StatId(StatKind.SYM_VALLEY)),
            IdentityId.HALF_CENTRAL: math.comb(13, 7),
            IdentityId.WEIGHTED_CATALAN: math.comb(14, 6),
        }
        for ident in IdentityId:
            k = 1 if ident is IdentityId.BINOMIAL_PRODUCT_SUM else None
            res = identity_check(ident, 7, k)
            assert (res.lhs, res.rhs) == (value[ident], value[ident]), ident

    @pytest.mark.parametrize("ident", list(IdentityId))
    def test_holds_on_sample_range(self, ident):
        floor = IDENTITIES[ident].floor
        for n in range(floor, 60):
            if ident is IdentityId.BINOMIAL_PRODUCT_SUM:
                for k in range((n - 1) // 2 + 1):
                    assert identity_check(ident, n, k).holds, (ident, n, k)
            else:
                assert identity_check(ident, n).holds, (ident, n)

    @pytest.mark.parametrize(
        "sizes, ks",
        [
            (range(1, 61), None),
            # top row n - 1 at the table's last row, then just past it
            (
                [PASCAL_ROW_LIMIT + 1, PASCAL_ROW_LIMIT + 2],
                [0, 1, 57, PASCAL_ROW_LIMIT // 2],
            ),
        ],
    )
    def test_binomial_product_lhs_is_the_triple_product(self, sizes, ks):
        for n in sizes:
            for k in range((n - 1) // 2 + 1) if ks is None else ks:
                literal = sum(
                    comb0(n - j - 1, k) * comb0(n - j - k - 1, k) * math.comb(n - 1, j)
                    for j in range(n - 2 * k)
                )
                res = identity_check(IdentityId.BINOMIAL_PRODUCT_SUM, n, k)
                assert res.lhs == literal, (n, k)

    def test_concurrent_product_memo_growth(self):
        import sys
        import threading

        sizes = range(1, 100)
        expected = {
            (n, k): math.comb(n - 1, k) * math.comb(n - k - 1, k) * 2 ** (n - 2 * k - 1)
            for n in sizes
            for k in range((n - 1) // 2 + 1)
        }
        saved = list(formulas._rows), list(formulas._columns)
        formulas._rows[:], formulas._columns[:] = [[1]], []
        errors = []

        def worker(shift):
            try:  # each thread starts the sweep at another n
                for n in [*sizes[shift:], *sizes[:shift]]:
                    for k in range((n - 1) // 2 + 1):
                        res = identity_check(IdentityId.BINOMIAL_PRODUCT_SUM, n, k)
                        if (res.lhs, res.rhs) != (expected[n, k],) * 2:
                            errors.append((n, k))
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(8 * t,)) for t in range(12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors[:3]
            top = sizes[-1] - 1  # every column is filled to the last top row
            assert formulas._columns == [
                [math.comb(m, k) * math.comb(m - k, k) for m in range(2 * k, top + 1)]
                for k in range(top // 2 + 1)
            ]
        finally:
            sys.setswitchinterval(interval)
            formulas._rows[:], formulas._columns[:] = saved

    @pytest.mark.parametrize("n", [PASCAL_ROW_LIMIT + 2, 1000])
    def test_binomial_product_lhs_past_the_table(self, n):
        for k in (0, 1, n // 4, (n - 1) // 2):
            literal = sum(
                math.comb(m, k) * math.comb(m - k, k) * math.comb(n - 1, n - 1 - m)
                for m in range(2 * k, n)
            )
            assert identity_check(IdentityId.BINOMIAL_PRODUCT_SUM, n, k).lhs == literal

    @pytest.mark.parametrize("ident", list(IdentityId))
    def test_floor_enforced(self, ident):
        floor = IDENTITIES[ident].floor
        if floor > 1:
            with pytest.raises(ValueError):
                identity_check(ident, floor - 1)

    def test_aux_k_rules(self):
        with pytest.raises(ValueError):
            identity_check(IdentityId.CATALAN_PEAK_SUM, 5, 1)
        with pytest.raises(ValueError):
            identity_check(IdentityId.BINOMIAL_PRODUCT_SUM, 5)
        with pytest.raises(ValueError):
            identity_check(IdentityId.BINOMIAL_PRODUCT_SUM, 5, 3)


def literal_pair_sums(top):
    """_pair_sum(h) for h = 0..top, from math.comb."""
    terms = [math.comb(2 * i, i - 1) + math.comb(2 * i - 1, i) for i in range(1, top)]
    return [0, *accumulate(terms, initial=0)]


def literal_mark_sums(top):
    """For h = 0..top, from math.comb: the paths of length 2m with a marked up
    step ending at height >= 2, summed over 2 <= m < h."""
    cat = [math.comb(2 * m, m) // (m + 1) for m in range(top + 1)]
    terms = [m * cat[m] - (cat[m + 1] - cat[m]) for m in range(2, top)]
    return [0, 0, *accumulate(terms, initial=0)]


# both memoized running sums, as their first call in a fresh interpreter
FIRST_CALL = """
import sys
from catalan_lab import formulas
assert len(formulas._rows) == 1  # no Pascal row built yet
print(formulas.identity_check(formulas.IdentityId[sys.argv[1]], 300).holds)
"""


class TestPrefixTables:
    """The running sums of last-passage-sum, sym-valley-sum and
    sym-valley-mark-sum, memoized beside the Pascal table."""

    @pytest.fixture
    def fresh_tables(self, monkeypatch):
        monkeypatch.setattr(formulas, "_pair_sums", [0, 0])
        monkeypatch.setattr(formulas, "_mark_sums", [0, 0, 0])

    @pytest.mark.parametrize("ident", ["SYM_VALLEY_MARK_SUM", "LAST_PASSAGE_SUM"])
    def test_first_call_in_a_fresh_process_returns(self, ident):
        # a table's entries build the Pascal rows they read while the table
        # grows, under the same reentrant lock
        proc = subprocess.run(
            [sys.executable, "-c", FIRST_CALL, ident],
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert proc.stdout.strip() == "True"

    def test_pair_sums_asked_in_descending_order(self, fresh_tables):
        literal = literal_pair_sums(400)
        for hi in range(400, -1, -1):
            assert formulas._pair_sum(hi) == literal[hi], hi

    def test_mark_sums_asked_in_descending_order(self, fresh_tables):
        literal = literal_mark_sums(300)
        for n in range(300, 0, -1):  # the lhs sums over 2 <= m <= n - 2
            res = identity_check(IdentityId.SYM_VALLEY_MARK_SUM, n)
            assert res.lhs == literal[n - 1] and res.holds, n

    def test_concurrent_growth(self, fresh_tables, monkeypatch):
        monkeypatch.setattr(formulas, "_rows", [[1]])
        sizes = range(3, 200)
        idents = [
            IdentityId.LAST_PASSAGE_SUM,
            IdentityId.SYM_VALLEY_SUM,
            IdentityId.SYM_VALLEY_MARK_SUM,
        ]
        errors = []

        def worker(shift):
            try:  # each thread starts the sweep at another n
                for n in [*sizes[shift:], *sizes[:shift]]:
                    for ident in idents:
                        if not identity_check(ident, n).holds:
                            errors.append((ident, n))
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(16 * t,)) for t in range(12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]
        # every entry appended once, in order, up to the largest n asked
        top = sizes[-1]
        assert formulas._pair_sums == literal_pair_sums(top)
        assert formulas._mark_sums == literal_mark_sums(top - 1)

    def test_tables_stop_at_their_caps(self, fresh_tables):
        n = 2000
        assert identity_check(IdentityId.LAST_PASSAGE_SUM, n).holds
        assert identity_check(IdentityId.SYM_VALLEY_MARK_SUM, n).holds
        # entries are stored while their terms read rows up to the limit
        assert len(formulas._rows) <= PASCAL_ROW_LIMIT + 1
        assert len(formulas._pair_sums) == PASCAL_ROW_LIMIT // 2 + 2
        assert len(formulas._mark_sums) == PASCAL_ROW_LIMIT // 2 + 1


# whole rows are held up to here; rows above it, up to the limit, are read
# at points only
HELD = PASCAL_ROW_LIMIT // 2

AFTER_THE_SWEEP = """
from catalan_lab import formulas
from catalan_lab.verify import verify_identities
report = verify_identities(300)
memo = formulas._far.cache_info()
print(report.passed, report.cases_run, len(formulas._rows), memo.currsize, memo.maxsize)
"""


class TestHeldRows:
    """Whole Pascal rows up to half the limit, point reads above it."""

    @pytest.fixture
    def fresh_memo(self):
        formulas._far.cache_clear()
        yield formulas._far
        formulas._far.cache_clear()

    @pytest.mark.parametrize("n", [HELD - 1, HELD, HELD + 1])
    def test_both_halves_at_the_bound(self, n):
        assert [binomial(n, k) for k in range(n + 1)] == [
            math.comb(n, k) for k in range(n + 1)
        ]

    @pytest.mark.parametrize("n", [HELD + 1, HELD + 2])
    def test_binomial_product_lhs_on_either_side_of_the_bound(self, n):
        # top row n - 1 is the last held row, then the first row above it
        for k in range((n - 1) // 2 + 1):
            literal = sum(
                math.comb(m, k) * math.comb(m - k, k) * math.comb(n - 1, n - 1 - m)
                for m in range(2 * k, n)
            )
            assert identity_check(IdentityId.BINOMIAL_PRODUCT_SUM, n, k).lhs == literal

    def test_product_columns_stop_at_the_bound(self, monkeypatch):
        monkeypatch.setattr(formulas, "_columns", [])
        # row n - 1 is the last held row at n = HELD + 1, and above it after
        for n in (HELD + 1, HELD + 2, PASCAL_ROW_LIMIT, PASCAL_ROW_LIMIT + 1, 700):
            for k in (0, 1, 57, (n - 1) // 2):
                assert identity_check(IdentityId.BINOMIAL_PRODUCT_SUM, n, k).holds
        # _columns[k][m - 2k] holds row m
        tops = [2 * k + len(column) - 1 for k, column in enumerate(formulas._columns)]
        assert max(tops) == HELD

    def test_identity_sweep_holds_no_row_above_the_bound(self):
        proc = subprocess.run(
            [sys.executable, "-c", AFTER_THE_SWEEP],
            capture_output=True, text=True, timeout=120, check=True,
        )
        passed, cases, rows, held, bound = proc.stdout.split()
        assert (passed, cases) == ("True", "25642")
        assert int(rows) <= HELD + 1
        assert int(held) <= int(bound)

    def test_memo_stays_bounded_and_exact(self, fresh_memo):
        far_rows = range(HELD + 1, PASCAL_ROW_LIMIT + 1)
        for n in far_rows:
            assert [binomial(n, k) for k in range(n + 1)] == [
                math.comb(n, k) for k in range(n + 1)
            ], n
        info = fresh_memo.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        # read back from the top row down, so that the held entries are hit
        # before any miss evicts them; the top row, read last, is held whole
        top = far_rows[-1]
        assert [binomial(top, k) for k in range(top + 1)] == [
            math.comb(top, k) for k in range(top + 1)
        ]
        assert fresh_memo.cache_info().hits == info.hits + top + 1
        for n in reversed(far_rows[:-1]):
            for k in range(n + 1):
                assert binomial(n, k) == math.comb(n, k), (n, k)
        assert len(formulas._rows) <= HELD + 1

    def test_concurrent_far_reads(self, fresh_memo):
        errors = []

        def worker(shift):
            try:  # each thread starts at another row
                ns = range(HELD + 1 + shift, PASCAL_ROW_LIMIT + 1, 7)
                for n in ns:
                    for k in (0, 1, n // 3, n // 2, n - 1):
                        if binomial(n, k) != math.comb(n, k):
                            errors.append((n, k))
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(t % 7,)) for t in range(12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]
        info = fresh_memo.cache_info()
        assert info.hits > 0 and info.currsize <= info.maxsize
        assert len(formulas._rows) <= HELD + 1


def literal_product_sum(n, k):
    """The binomial-product-sum lhs as the plain triple product, from math.comb."""
    return sum(
        math.comb(m, k) * math.comb(m - k, k) * math.comb(n - 1, m)
        for m in range(2 * k, n)
    )


# the product columns, filled first in a fresh interpreter, before any Pascal
# row beyond row 0 is built
PRODUCT_FIRST = """
import sys
from catalan_lab import formulas
assert len(formulas._rows) == 1
ident = formulas.IdentityId.BINOMIAL_PRODUCT_SUM
res = formulas.identity_check(ident, 300, int(sys.argv[1]))
print(res.holds, res.lhs)
"""


class TestPairedProductSum:
    """The held-row lhs of binomial-product-sum multiplies each C(n-1, i),
    i <= (n-1) // 2, once, by the column entries of m = i and m = n-1-i."""

    @pytest.mark.parametrize("n", [HELD - 1, HELD, HELD + 1])
    def test_every_k_below_the_bound(self, n):
        # top rows 318, 319 and 320: both parities, the last one held
        for k in range((n - 1) // 2 + 1):
            res = identity_check(IdentityId.BINOMIAL_PRODUCT_SUM, n, k)
            assert res.lhs == literal_product_sum(n, k), (n, k)

    def test_small_n_with_no_pair(self):
        # 2k > (n-1) // 2: row entry i is read for m = n-1-i alone, or as the
        # middle of an even top row
        cases = [(n, k) for n in range(1, 40) for k in range((n - 1) // 2 + 1)]
        unpaired = [(n, k) for n, k in cases if 2 * k > (n - 1) // 2]
        assert any(n % 2 for n, _ in unpaired) and any(n % 2 == 0 for n, _ in unpaired)
        for n, k in unpaired:
            res = identity_check(IdentityId.BINOMIAL_PRODUCT_SUM, n, k)
            assert res.lhs == literal_product_sum(n, k), (n, k)

    def test_product_columns_grow_a_row_at_a_time(self, monkeypatch):
        monkeypatch.setattr(formulas, "_columns", [])

        def filled_to(top):  # columns 0..top // 2, each holding rows 2k..top
            return [
                [math.comb(m, k) * math.comb(m - k, k) for m in range(2 * k, top + 1)]
                for k in range(top // 2 + 1)
            ]

        # one k asks for row 39, and every column gets it, not just column 7
        assert identity_check(IdentityId.BINOMIAL_PRODUCT_SUM, 40, 7).holds
        assert formulas._columns == filled_to(39)
        # the next n adds one row to each column, and opens column 20 with it
        assert identity_check(IdentityId.BINOMIAL_PRODUCT_SUM, 41, 0).holds
        assert formulas._columns == filled_to(40)

    @pytest.mark.parametrize("k", [0, 100, 149])
    def test_first_call_in_a_fresh_process_returns(self, k):
        proc = subprocess.run(
            [sys.executable, "-c", PRODUCT_FIRST, str(k)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert proc.stdout.split() == ["True", str(literal_product_sum(300, k))]


# the sym-valley totals memo, filled first in a fresh interpreter, before any
# Pascal row beyond row 0 is built
MEMO_FIRST = """
from catalan_lab import formulas
from catalan_lab.words import StatId, StatKind
assert len(formulas._rows) == 1
total = formulas._sym_valley_total(300)
print(total == formulas.closed_total(300, StatId(StatKind.SYM_VALLEY)),
      len(formulas._sym_valley_totals))
"""


class TestSymValleyTotals:
    """The rhs of sym-valley-mark-sum, stepped once by closed_totals into a
    memo of HELD entries."""

    SYM = StatId(StatKind.SYM_VALLEY)

    @pytest.fixture
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(formulas, "_sym_valley_totals", [])

    def test_memo_equals_closed_total(self, fresh_memo):
        assert identity_check(IdentityId.SYM_VALLEY_MARK_SUM, 5).holds
        assert formulas._sym_valley_totals == [
            closed_total(n, self.SYM) for n in range(1, HELD + 1)
        ]

    def test_memo_stays_at_its_cap(self, fresh_memo):
        for n in (HELD, HELD + 1, 2000):
            assert identity_check(IdentityId.SYM_VALLEY_MARK_SUM, n).holds, n
        assert len(formulas._sym_valley_totals) == HELD

    def test_first_call_in_a_fresh_process_returns(self):
        # closed_totals builds Pascal rows while the memo holds the lock to
        # publish its entries; the lock is reentrant
        proc = subprocess.run(
            [sys.executable, "-c", MEMO_FIRST],
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert proc.stdout.split() == ["True", str(HELD)]

    def test_concurrent_fill(self, fresh_memo, monkeypatch):
        monkeypatch.setattr(formulas, "_rows", [[1]])
        sizes = range(1, 301)
        literal = [closed_total(n, self.SYM) for n in range(1, HELD + 1)]
        errors = []

        def worker(shift):
            try:  # each thread starts the sweep at another n
                for n in [*sizes[shift:], *sizes[:shift]]:
                    res = identity_check(IdentityId.SYM_VALLEY_MARK_SUM, n)
                    if (res.lhs, res.rhs) != (literal[n - 1],) * 2:
                        errors.append(n)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(25 * t,)) for t in range(12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]
        # filled once: HELD entries, not a second copy appended
        assert formulas._sym_valley_totals == literal


class TestOneLock:
    """Every memo grows under one reentrant lock, and the growth of one may
    grow another: the prefix tables and the sym-valley totals read Pascal
    rows, and so do the product columns."""

    def test_concurrent_growth_across_tables(self, monkeypatch):
        monkeypatch.setattr(formulas, "_rows", [[1]])
        monkeypatch.setattr(formulas, "_columns", [])
        monkeypatch.setattr(formulas, "_pair_sums", [0, 0])
        monkeypatch.setattr(formulas, "_mark_sums", [0, 0, 0])
        monkeypatch.setattr(formulas, "_sym_valley_totals", [])
        sizes = range(2, 100)
        idents = [
            IdentityId.LAST_PASSAGE_SUM,
            IdentityId.BINOMIAL_PRODUCT_SUM,
            IdentityId.SYM_VALLEY_MARK_SUM,
        ]
        errors = []

        def worker(t):
            # each thread starts the sweep at another n, and with another
            # identity: a table asked first for a new n builds the rows its
            # entries read while it grows
            shift, order = 8 * t, idents[t % 3 :] + idents[: t % 3]
            try:
                for n in [*sizes[shift:], *sizes[:shift]]:
                    for ident in order:
                        ks = IDENTITIES[ident].ks
                        for k in [None] if ks is None else ks(n):
                            if not identity_check(ident, n, k).holds:
                                errors.append((ident, n, k))
                    # a plain read of a row that last-passage-sum has read
                    if binomial(2 * n - 1, n // 3) != math.comb(2 * n - 1, n // 3):
                        errors.append(("binomial", n))
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(repr(exc))

        # daemon threads, so that a deadlock fails the test and not the run
        threads = [
            threading.Thread(target=worker, args=(t,), daemon=True) for t in range(12)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 120
            for t in threads:
                t.join(timeout=max(deadline - time.monotonic(), 0))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]
        # every entry appended once, in order, up to the largest n asked
        top = sizes[-1]
        assert formulas._pair_sums == literal_pair_sums(top)
        assert formulas._mark_sums == literal_mark_sums(top - 1)
        assert formulas._columns == [
            [math.comb(m, k) * math.comb(m - k, k) for m in range(2 * k, top)]
            for k in range((top - 1) // 2 + 1)
        ]
        assert formulas._sym_valley_totals == [
            closed_total(n, StatId(StatKind.SYM_VALLEY)) for n in range(1, HELD + 1)
        ]
        assert formulas._rows == [
            [math.comb(m, i) for i in range(m // 2 + 1)]
            for m in range(len(formulas._rows))
        ]


class TestOracleAgreement:
    """Closed forms against the enumeration oracle at desk scale."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_row(self, n):
        for kind in StatKind:
            s = StatId(kind)
            assert closed_total(n, s) == brute_total(n, s), kind

    @pytest.mark.parametrize("n", range(1, 9))
    def test_per_ell_rows(self, n):
        for kind in (
            StatKind.SYM_VALLEY,
            StatKind.ELL_VALLEY,
            StatKind.SYM_PEAK,
            StatKind.ELL_PEAK,
        ):
            for ell in range(1, n + 1):
                s = StatId(kind, ell)
                assert closed_total(n, s) == brute_total(n, s), (kind, ell)


class TestOracleIndependence:
    """The enumeration oracles share no code with the closed forms they check."""

    @pytest.mark.parametrize(
        "module", ["words", "paths", "bijections", "path_classes", "values"]
    )
    def test_oracle_does_not_import_formulas(self, module):
        source = Path(catalan_lab.__file__).with_name(f"{module}.py").read_text()
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = ("." * node.level) + (node.module or "")
                imported.add(base)
                imported.update(f"{base}.{alias.name}" for alias in node.names)
        package = {name for name in imported if name.startswith((".", "catalan_lab"))}
        assert not any("formulas" in name.split(".") for name in package), package
        # a package-level import would pull formulas in through __init__
        assert not package & {".", "catalan_lab"}, package
