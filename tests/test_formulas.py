import ast
import math
from pathlib import Path

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
)
from catalan_lab import formulas
from catalan_lab.formulas import IDENTITY_FLOOR, PASCAL_ROW_LIMIT, _diagonal_sum


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


# The all-ell pattern totals as plain sums of binomials, term by term.
DEFINITIONAL_TOTALS = {
    StatKind.SYM_VALLEY: lambda n: (3 * n - 2) * (comb0(2 * n - 2, n - 1) // n)
    - sum(comb0(2 * k, k) for k in range(1, n + 1)) // 2,
    StatKind.ELL_VALLEY: lambda n: sum(
        comb0(2 * n - 2 * l - 1, n - l - 3) for l in range(1, n - 2)
    ),
    StatKind.SYM_PEAK: lambda n: sum(comb0(2 * k + 2, k) for k in range(n - 2)),
    StatKind.ELL_PEAK: lambda n: sum(
        comb0(2 * n - 2 * l - 1, n - l - 2) for l in range(1, n - 1)
    ),
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
            assert all(len(row) == i + 1 for i, row in enumerate(formulas._rows))
        finally:
            formulas._rows[:] = saved


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
                        assert _diagonal_sum(a, b, lo, hi) == expected, (a, b, lo, hi)

    def test_leading_zero_terms_and_empty_ranges(self):
        # C(2m-1, m-3) is zero for m < 3
        assert _diagonal_sum(-1, -3, 0, 2) == 0
        assert _diagonal_sum(-1, -3, 0, 3) == 1
        assert _diagonal_sum(0, 0, 5, 4) == 0
        assert _diagonal_sum(2, 0, 0, -1) == 0

    @pytest.mark.parametrize("kind", list(DEFINITIONAL_TOTALS))
    def test_all_ell_totals_across_row_limit(self, kind):
        sizes = list(range(1, 41)) + [
            PASCAL_ROW_LIMIT - 1,
            PASCAL_ROW_LIMIT,
            PASCAL_ROW_LIMIT + 1,
            PASCAL_ROW_LIMIT + 2,
            1000,
        ]
        for n in sizes:
            assert closed_total(n, StatId(kind)) == DEFINITIONAL_TOTALS[kind](n), n


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

    @pytest.mark.parametrize("first, count", [(0, 3), (-2, 3), (1, 0), (5, -1)])
    def test_rejects_first_or_count_below_one(self, first, count):
        with pytest.raises(ValueError):
            closed_totals(StatId(StatKind.AREA), first, count)

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

    @pytest.mark.parametrize("ident", list(IdentityId))
    def test_holds_on_sample_range(self, ident):
        floor = IDENTITY_FLOOR[ident]
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
        floor = IDENTITY_FLOOR[ident]
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

    @pytest.mark.parametrize("module", ["words", "paths", "bijections"])
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
