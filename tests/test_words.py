import itertools

import pytest

from catalan_lab import (
    BarStep,
    Path,
    StatId,
    StatKind,
    Word,
    asc_des_lev,
    bargraph_path,
    brute_total,
    catalan,
    closed_total,
    count_histogram,
    enumerate_catalan,
    narayana,
    path_to_word,
    stat_value,
    sweep_totals,
    word_to_path,
)
from catalan_lab.limits import COUNT_MAX_N
from catalan_lab.words import ADJACENCY_INCREMENTS, PATTERN_CHANGES, PATTERN_KINDS

W = Word.from_string
P = Path.from_string

C4_WORDS = [
    "1111", "1112", "1121", "1122", "1123", "1211", "1212",
    "1221", "1222", "1223", "1231", "1232", "1233", "1234",
]


def sid(kind, ell=None):
    return StatId(kind, ell)


class TestWordType:
    def test_validation(self):
        W("1231")
        with pytest.raises(ValueError):
            Word((2,))
        with pytest.raises(ValueError):
            Word((1, 3))
        with pytest.raises(ValueError):
            Word((1, 0))

    def test_string_round_trip(self):
        assert str(W("1212")) == "1212"
        assert Word(()) == W("")
        big = Word(tuple(range(1, 12)))
        assert Word.from_string(str(big)) == big


class TestEnumerateCatalan:
    def test_empty(self):
        assert list(enumerate_catalan(0)) == [Word(())]

    def test_n4_full_listing(self):
        assert [str(w) for w in enumerate_catalan(4)] == C4_WORDS

    def test_n5_against_filter_oracle(self):
        def valid(seq):
            prev = 0
            for c in seq:
                if c > prev + 1:
                    return False
                prev = c
            return True

        expected = {
            seq for seq in itertools.product(range(1, 6), repeat=5) if valid(seq)
        }
        got = [w.letters for w in enumerate_catalan(5)]
        assert len(got) == len(set(got)) == 42
        assert set(got) == expected

    @pytest.mark.parametrize("n", range(9))
    def test_counts(self, n):
        assert sum(1 for _ in enumerate_catalan(n)) == catalan(n)

    def test_numeric_lexicographic_order(self):
        for n in range(7):
            letters = [w.letters for w in enumerate_catalan(n)]
            assert letters == sorted(letters)


class TestWordPathConversion:
    def test_worked_example(self):
        assert str(word_to_path(W("123321"))) == "UUUDUDDUDDUD"
        assert str(path_to_word(P("UUUDUDDUDDUD"))) == "123321"

    def test_forced_and_derived(self):
        assert str(word_to_path(W("1"))) == "UD"
        assert str(word_to_path(W("1212"))) == "UUDDUUDD"
        assert str(path_to_word(P("UD"))) == "1"
        assert str(path_to_word(P("UUDDUUDD"))) == "1212"

    @pytest.mark.parametrize("n", range(8))
    def test_round_trips(self, n):
        from catalan_lab import enumerate_dyck

        for w in enumerate_catalan(n):
            assert path_to_word(word_to_path(w)) == w
        for p in enumerate_dyck(n):
            assert word_to_path(path_to_word(p)) == p

    def test_non_dyck_rejected(self):
        with pytest.raises(ValueError):
            path_to_word(P("DU"))


class TestAscDesLev:
    def test_examples(self):
        assert asc_des_lev(W("1111")) == (0, 0, 3)
        assert asc_des_lev(W("1231")) == (2, 1, 0)
        assert asc_des_lev(W("1212")) == (2, 1, 0)

    def test_sum_invariant(self):
        for n in range(1, 8):
            for w in enumerate_catalan(n):
                asc, des, lev = asc_des_lev(w)
                assert asc + des + lev == n - 1


class TestStatId:
    def test_parse_round_trip(self):
        for text in ["sym-valley", "ell-valley:2", "area", "runs-weak-asc"]:
            assert str(StatId.parse(text)) == text

    def test_ell_restrictions(self):
        with pytest.raises(ValueError):
            StatId(StatKind.AREA, 2)
        with pytest.raises(ValueError):
            StatId(StatKind.ELL_PEAK, 0)
        with pytest.raises(ValueError):
            StatId.parse("no-such-stat")
        with pytest.raises(ValueError, match="ell must be an integer, got ''"):
            StatId.parse("sym-valley:")
        with pytest.raises(ValueError, match="ell must be an integer, got 'x'"):
            StatId.parse("sym-valley:x")
        for text in ("1_0", "+1", "\u0661", "1.0"):
            with pytest.raises(ValueError) as raised:
                StatId.parse(f"sym-valley:{text}")
            assert str(raised.value) == f"ell must be an integer, got {text!r}"
        with pytest.raises(ValueError, match="ell must be positive, got -1"):
            StatId.parse("sym-valley:-1")
        assert StatId.parse("sym-valley: 2 ") == StatId(StatKind.SYM_VALLEY, 2)


class TestStatValue:
    def test_anchor_values(self):
        assert stat_value(W("1212"), sid(StatKind.SYM_VALLEY)) == 1
        assert stat_value(W("1221"), sid(StatKind.ELL_PEAK, 2)) == 1
        assert stat_value(W("121"), sid(StatKind.RUNS_WEAK_ASC)) == 2
        assert stat_value(W("123"), sid(StatKind.SEMI)) == 6
        assert stat_value(W("111"), sid(StatKind.AREA)) == 3

    def test_pattern_details(self):
        # 212 is both a symmetric valley and a 1-valley
        assert stat_value(W("1212"), sid(StatKind.ELL_VALLEY, 1)) == 1
        w = W("12112")
        assert stat_value(w, sid(StatKind.SYM_VALLEY, 2)) == 1
        assert stat_value(w, sid(StatKind.SYM_VALLEY)) == 1
        # symmetric peaks match the whole middle run or nothing
        assert stat_value(W("1221"), sid(StatKind.SYM_PEAK, 2)) == 1
        assert stat_value(W("1221"), sid(StatKind.SYM_PEAK, 1)) == 0
        assert stat_value(W("12321"), sid(StatKind.SYM_PEAK)) == 1  # the 232
        assert stat_value(W("1232"), sid(StatKind.ELL_PEAK, 1)) == 1  # 232 only

    def test_runs(self):
        w = W("1221")
        assert stat_value(w, sid(StatKind.RUNS_DESC)) == 3  # 1 | 2 | 21
        assert stat_value(w, sid(StatKind.RUNS_ASC)) == 3  # 12 | 2 | 1
        assert stat_value(w, sid(StatKind.RUNS_WEAK_DESC)) == 2  # 1 | 221
        assert stat_value(Word(()), sid(StatKind.RUNS_DESC)) == 0

    def test_semi_empty_word_is_zero(self):
        # like the corners, and like the histogram count's n = 0 row
        assert stat_value(Word(()), sid(StatKind.SEMI)) == 0

    def test_corners_empty_word(self):
        assert stat_value(Word(()), sid(StatKind.CORNER_HU)) == 0

    def test_reads_no_count_table(self, monkeypatch):
        # every entry of both count-side tables made wrong at run time
        words = [w for n in range(9) for w in enumerate_catalan(n)]
        stats = [sid(k) for k in StatKind]
        stats += [sid(k, ell) for k in PATTERN_KINDS for ell in range(1, 4)]
        before = [[stat_value(w, s) for s in stats] for w in words]
        for kind, (first, increments) in ADJACENCY_INCREMENTS.items():
            wrong = (first + 1, tuple(1 - inc for inc in increments))
            monkeypatch.setitem(ADJACENCY_INCREMENTS, kind, wrong)
        for kind, completes in PATTERN_CHANGES.items():
            monkeypatch.setitem(
                PATTERN_CHANGES, kind, lambda *xbc, f=completes: not f(*xbc)
            )
        # the count side reads the wrong tables ...
        totals = sweep_totals(6)
        for s in stats:
            if s.kind is not StatKind.AREA:
                got = sum(stat_value(w, s) for w in enumerate_catalan(6))
                assert totals.total(s) != got, s
        # ... and the definition-level oracle does not
        assert [[stat_value(w, s) for s in stats] for w in words] == before


class TestBargraph:
    def test_single_column(self):
        assert bargraph_path(W("1")) == (BarStep.UP, BarStep.ACROSS, BarStep.DOWN)

    def test_two_columns(self):
        walk = bargraph_path(W("12"))
        assert walk == (
            BarStep.UP, BarStep.ACROSS, BarStep.UP,
            BarStep.ACROSS, BarStep.DOWN, BarStep.DOWN,
        )
        assert stat_value(W("12"), sid(StatKind.SEMI)) == 4

    def test_corner_example(self):
        walk = bargraph_path(W("121"))
        assert walk == (
            BarStep.UP, BarStep.ACROSS, BarStep.UP, BarStep.ACROSS,
            BarStep.DOWN, BarStep.ACROSS, BarStep.DOWN,
        )
        assert stat_value(W("121"), sid(StatKind.CORNER_HU)) == 1
        assert stat_value(W("121"), sid(StatKind.CORNER_DH)) == 1

    def test_no_across_at_height_zero(self):
        for n in range(1, 7):
            for w in enumerate_catalan(n):
                h = 0
                for step in bargraph_path(w):
                    if step is BarStep.UP:
                        h += 1
                    elif step is BarStep.DOWN:
                        h -= 1
                    else:
                        assert h > 0

    def test_walk_closes(self):
        for w in enumerate_catalan(5):
            walk = bargraph_path(w)
            ups = sum(1 for s in walk if s is BarStep.UP)
            downs = sum(1 for s in walk if s is BarStep.DOWN)
            assert ups == downs

    def test_corners_match_ascents_descents(self):
        for n in range(1, 8):
            for w in enumerate_catalan(n):
                asc, des, _ = asc_des_lev(w)
                assert stat_value(w, sid(StatKind.CORNER_HU)) == asc
                assert stat_value(w, sid(StatKind.CORNER_DH)) == des

    def test_semi_is_length_plus_one_plus_ascents_to_n10(self):
        for n in range(1, 11):
            for w in enumerate_catalan(n):
                asc, _, _ = asc_des_lev(w)
                assert stat_value(w, sid(StatKind.SEMI)) == n + 1 + asc

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            bargraph_path(Word(()))


def naive_total(n, stat):
    return sum(stat_value(w, stat) for w in enumerate_catalan(n))


class TestBruteTotal:
    def test_anchor_values(self):
        assert brute_total(4, sid(StatKind.SYM_VALLEY)) == 1
        assert brute_total(4, sid(StatKind.SYM_PEAK)) == 5
        assert brute_total(2, sid(StatKind.RUNS_DESC)) == 4
        assert brute_total(3, sid(StatKind.AREA)) == 22

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sweep_matches_naive_totals(self, n):
        for kind in StatKind:
            assert brute_total(n, sid(kind)) == naive_total(n, sid(kind)), kind
        for kind in (
            StatKind.SYM_VALLEY,
            StatKind.ELL_VALLEY,
            StatKind.SYM_PEAK,
            StatKind.ELL_PEAK,
        ):
            for ell in range(1, n + 1):
                assert brute_total(n, sid(kind, ell)) == naive_total(
                    n, sid(kind, ell)
                ), (kind, ell)

    def test_empty_length(self):
        assert brute_total(0, sid(StatKind.AREA)) == 0
        assert brute_total(0, sid(StatKind.RUNS_DESC)) == 0
        assert brute_total(0, sid(StatKind.SEMI)) == 0

    def test_ceiling(self):
        from catalan_lab import EnumerationLimitError

        with pytest.raises(EnumerationLimitError):
            brute_total(17, sid(StatKind.AREA))

    def test_result_not_shared_between_callers(self, monkeypatch):
        from catalan_lab import words

        stat = sid(StatKind.SYM_PEAK, 1)
        expected = naive_total(5, stat)
        made = []
        sweep = words.sweep_totals

        def recording(*args, **kwargs):
            made.append(sweep(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(words, "sweep_totals", recording)
        assert brute_total(5, stat) == expected
        made[0].patterns[StatKind.SYM_PEAK][1] = 999
        assert brute_total(5, stat) == expected


class TestSweepTotals:
    def test_shards_add_up(self):
        n = 7
        whole = sweep_totals(n)
        merged = None
        for w2 in enumerate_catalan(2):
            shard = sweep_totals(n, prefix=w2.letters)
            merged = shard if merged is None else merged + shard
        assert merged == whole

    def test_single_word_prefix(self):
        t = sweep_totals(4, prefix=(1, 2, 1, 2))
        assert t.words == 1
        assert t.total(sid(StatKind.SYM_VALLEY)) == 1
        assert t.total(sid(StatKind.AREA)) == 6

    def test_word_count(self):
        for n in range(1, 10):
            assert sweep_totals(n).words == catalan(n)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_prefix_shards_match_stat_value(self, n):
        kinds = (
            StatKind.SYM_VALLEY,
            StatKind.ELL_VALLEY,
            StatKind.SYM_PEAK,
            StatKind.ELL_PEAK,
        )

        def word_row(w):
            asc, des, _ = asc_des_lev(w)
            tables = {
                kind: {ell: stat_value(w, sid(kind, ell)) for ell in range(1, n)}
                for kind in kinds
            }
            return asc, des, stat_value(w, sid(StatKind.AREA)), tables

        rows = {w: word_row(w) for w in enumerate_catalan(n)}
        for length in range(min(n, 4) + 1):
            for prefix in enumerate_catalan(length):
                shard = [
                    row
                    for w, row in rows.items()
                    if w.letters[:length] == prefix.letters
                ]
                t = sweep_totals(n, prefix=prefix.letters)
                assert t.words == len(shard)
                assert t.ascents == sum(row[0] for row in shard)
                assert t.descents == sum(row[1] for row in shard)
                assert t.area == sum(row[2] for row in shard)
                for kind in kinds:
                    sums = {
                        ell: sum(row[3][kind][ell] for row in shard)
                        for ell in range(1, n)
                    }
                    expected = {ell: v for ell, v in sums.items() if v}
                    assert t.patterns[kind] == expected, (prefix, kind)

    @pytest.mark.parametrize("n", range(15, 61))
    def test_matches_closed_forms_above_enumeration(self, n):
        t = sweep_totals(n, max_n=60)
        assert t.words == catalan(n)
        for kind in StatKind:
            assert t.total(sid(kind)) == closed_total(n, sid(kind)), kind
        for kind in PATTERN_KINDS:
            for ell in range(1, n + 1):
                s = sid(kind, ell)
                assert t.total(s) == closed_total(n, s), (kind, ell)

    @pytest.mark.parametrize("kind", list(PATTERN_CHANGES))
    @pytest.mark.parametrize("change", [(1, 2, 1), (2, 1, 2), (2, 3, 1)])
    def test_broken_change_fails_only_its_readers(self, monkeypatch, kind, change):
        # flip whether one run change (x, b, c) completes ``kind``
        n = 6
        stats = [sid(k) for k in StatKind]
        stats += [sid(k, ell) for k in PATTERN_KINDS for ell in range(1, n)]
        oracle = {s: naive_total(n, s) for s in stats}
        completes = PATTERN_CHANGES[kind]
        monkeypatch.setitem(
            PATTERN_CHANGES, kind, lambda *xbc: completes(*xbc) != (xbc == change)
        )
        whole = sweep_totals(n)
        # the shards reach the table through the prefix mask as well
        shards = [sweep_totals(n, prefix=p.letters) for p in enumerate_catalan(3)]
        merged = sum(shards[1:], shards[0])
        for s, total in oracle.items():
            assert naive_total(n, s) == total  # the oracle reads no table
            assert merged.total(s) == whole.total(s), s
        changed = {s.kind for s in stats if whole.total(s) != oracle[s]}
        assert changed == {kind}


def stat_histogram(n, kind):
    hist = {}
    for w in enumerate_catalan(n):
        value = stat_value(w, sid(kind))
        hist[value] = hist.get(value, 0) + 1
    return hist


class TestCountHistogram:
    @pytest.mark.parametrize("n", range(11))
    def test_matches_stat_value(self, n):
        for kind in ADJACENCY_INCREMENTS:
            assert count_histogram(n, kind) == stat_histogram(n, kind), kind

    def test_totals_match_closed_forms(self):
        for n in range(1, 61):
            for kind in ADJACENCY_INCREMENTS:
                hist = count_histogram(n, kind)
                assert sum(hist.values()) == catalan(n)
                total = sum(value * count for value, count in hist.items())
                assert total == closed_total(n, sid(kind)), (n, kind)

    @pytest.mark.parametrize("kind", [StatKind.RUNS_ASC, StatKind.RUNS_WEAK_DESC])
    def test_narayana_row_at_100(self, kind):
        row = {k: narayana(100, k) for k in range(1, 101)}
        assert count_histogram(100, kind) == row

    def test_sweep_total_reads_the_table(self):
        # first·words + lt·descents + eq·levels + up·ascents is, for semi,
        # the semi-perimeter (n + 1)·words + ascents
        for n in range(1, 15):
            t = sweep_totals(n)
            assert t.total(sid(StatKind.SEMI)) == (n + 1) * t.words + t.ascents

    def test_size_and_kind_are_checked(self):
        with pytest.raises(ValueError, match="nonnegative"):
            count_histogram(-1, StatKind.RUNS_ASC)
        with pytest.raises(ValueError, match="cap"):
            count_histogram(COUNT_MAX_N + 1, StatKind.RUNS_ASC)
        for kind in set(StatKind) - set(ADJACENCY_INCREMENTS):
            with pytest.raises(ValueError, match="no histogram count"):
                count_histogram(3, kind)

    @pytest.mark.parametrize("kind", list(ADJACENCY_INCREMENTS))
    @pytest.mark.parametrize("which", range(3))
    def test_broken_increment_fails_only_its_readers(self, monkeypatch, kind, which):
        n = 5
        oracle = {k: stat_histogram(n, k) for k in ADJACENCY_INCREMENTS}
        first, increments = ADJACENCY_INCREMENTS[kind]
        broken = tuple(inc + (i == which) for i, inc in enumerate(increments))
        monkeypatch.setitem(ADJACENCY_INCREMENTS, kind, (first, broken))
        totals = sweep_totals(n)
        for other, hist in oracle.items():
            assert stat_histogram(n, other) == hist  # the oracle reads no table
            total = sum(value * count for value, count in hist.items())
            reads_broken = other is kind
            assert (count_histogram(n, other) != hist) == reads_broken, other
            assert (totals.total(sid(other)) != total) == reads_broken, other
