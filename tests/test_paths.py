import gc
import hashlib
import itertools
import pickle
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from catalan_lab import (
    D,
    U,
    Endpoint,
    EnumerationLimitError,
    MarkedPath,
    Path,
    catalan,
    count_factor,
    ddu_udu_counts,
    enumerate_dyck,
    enumerate_dyck_texts,
    enumerate_lattice,
    factor_occurrences,
    insert_ud,
    is_dyck,
    peak_decompose,
    peak_rebuild,
    random_dyck_path,
    reflect_after_touch,
    remove_ud,
    reverse_complement,
    sym_valley_insert,
    sym_valley_remove,
    units,
)
from catalan_lab.paths import FACTORS
from catalan_lab.verify import BIJECTIONS, marked_set

P = Path.from_string


def all_step_strings(length):
    for steps in itertools.product((U, D), repeat=length):
        yield Path(steps)


def lex_key(steps):
    return tuple(0 if s == U else 1 for s in steps)


def naive_occurrences(p, pattern):
    """String-slicing occurrence count, independent of factor_occurrences."""
    text, pat = str(p), str(pattern)
    return sum(1 for i in range(len(text) - len(pat) + 1) if text[i : i + len(pat)] == pat)


# Reads min_height on the Dyck paths of n = 10 in a fresh interpreter, as a
# command does, and writes the bytes the reads left allocated, per path. It
# runs apart because CPython keeps the attribute names of a class's instances
# in one shared table that takes new names only until the class has a few
# dozen instances; a name stored later gets a dict built for it anyway.
CACHED_READ_BYTES = """
import gc, sys, tracemalloc
from catalan_lab.paths import enumerate_dyck
paths = list(enumerate_dyck(10))
gc.collect()
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
for p in paths:
    p.min_height
gc.collect()
sys.stdout.write(str((tracemalloc.get_traced_memory()[0] - base) / len(paths)))
"""


class TestPathType:
    def test_construction_and_derived(self):
        p = P("UUDD")
        assert p.length == 4
        assert p.height_profile == (1, 2, 1, 0)
        assert p.final_height == 0
        assert p.min_height == 0

    def test_empty_path(self):
        p = Path(())
        assert p.length == 0
        assert p.final_height == 0
        assert p.min_height == 0
        assert str(p) == ""

    def test_min_height_includes_origin(self):
        assert P("UU").min_height == 0
        assert P("DU").min_height == -1

    def test_from_string_accepts_both_cases(self):
        assert P("uudd") == P("UUDD")

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            Path((1, 2))
        with pytest.raises(ValueError):
            P("UXD")

    @pytest.mark.parametrize("steps", [(1, 0), (1, 2), ("U",), ([1],)])
    def test_invalid_step_named(self, steps):
        # an unhashable step is refused as a bad step too, not as a TypeError
        bad = repr(steps[-1])
        with pytest.raises(ValueError) as raised:
            Path(steps)
        assert str(raised.value) == f"steps must be +1 (U) or -1 (D), got {bad}"

    @pytest.mark.parametrize(
        "make", [tuple, list, iter], ids=["tuple", "list", "iterator"]
    )
    def test_any_iterable_of_steps_is_held_as_a_tuple(self, make):
        p = Path(make([U, U, D, D]))
        assert p.steps == (U, U, D, D) and type(p.steps) is tuple
        assert p == P("UUDD") and hash(p) == hash(P("UUDD"))
        assert p.height_profile == (1, 2, 1, 0) and str(p) == "UUDD"

    def test_cached_heights_keep_value_semantics(self):
        p = P("UUDUDDUD")
        profile = p.height_profile
        assert p.min_height == 0
        fresh = P("UUDUDDUD")
        assert p == fresh and hash(p) == hash(fresh)
        assert p.height_profile is profile
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p and hash(copy) == hash(p)
        assert copy.height_profile == profile == (1, 2, 1, 2, 1, 0, 1, 0)
        assert copy.min_height == 0

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="attributes live in a dict before 3.11"
    )
    def test_cached_read_builds_no_instance_dict(self):
        proc = subprocess.run(
            [sys.executable, "-c", CACHED_READ_BYTES],
            capture_output=True, text=True, timeout=120, check=True,
        )
        # an instance dict built for the value would take 64 B per path
        assert float(proc.stdout) < 8

    def test_marked_path_validation(self):
        mp = MarkedPath(P("UUDD"), 1, 2)
        assert mp.marked_factor == (U, D)
        with pytest.raises(ValueError):
            MarkedPath(P("UUDD"), 3, 2)
        with pytest.raises(ValueError):
            MarkedPath(P("UUDD"), 0, 0)

    def test_endpoint_validation(self):
        e = Endpoint(4, -2)
        assert (e.ups, e.downs) == (1, 3)
        with pytest.raises(ValueError):
            Endpoint(3, 0)
        with pytest.raises(ValueError):
            Endpoint(2, 4)
        with pytest.raises(ValueError):
            Endpoint(-1, -1)


class TestIsDyck:
    def test_examples(self):
        assert is_dyck(P("UUDD"))
        assert not is_dyck(P("UDDU"))
        assert is_dyck(Path(()))
        assert not is_dyck(P("UU"))

    def test_matches_running_sum_definition(self):
        # every step string up to length 10, odd lengths included
        for length in range(11):
            for p in all_step_strings(length):
                sums = list(itertools.accumulate(p.steps))
                expected = all(h >= 0 for h in sums) and sum(p.steps) == 0
                assert is_dyck(p) == expected, p


class TestEnumerateDyck:
    def test_empty_case(self):
        assert list(enumerate_dyck(0)) == [Path(())]

    def test_n2_exact(self):
        assert [str(p) for p in enumerate_dyck(2)] == ["UUDD", "UDUD"]

    def test_n4_count_is_catalan(self):
        assert len(list(enumerate_dyck(4))) == 14

    @pytest.mark.parametrize("n", range(6))
    def test_against_filter_oracle(self, n):
        expected = {p for p in all_step_strings(2 * n) if is_dyck(p)}
        got = list(enumerate_dyck(n))
        assert len(got) == len(set(got)) == catalan(n)
        assert set(got) == expected

    @pytest.mark.parametrize("n", range(9))
    def test_counts(self, n):
        assert sum(1 for _ in enumerate_dyck(n)) == catalan(n)

    def test_lexicographic_order(self):
        def key(p):
            return tuple(0 if s == U else 1 for s in p.steps)

        for n in range(10):
            got = [key(p) for p in enumerate_dyck(n)]
            assert got == sorted(got)

    def test_ceiling_refusal_names_limit(self):
        with pytest.raises(EnumerationLimitError, match="16"):
            next(enumerate_dyck(17))

    def test_ceiling_refused_on_call(self):
        # the refusal comes before any path is asked for
        with pytest.raises(EnumerationLimitError):
            enumerate_dyck(17)
        with pytest.raises(EnumerationLimitError):
            enumerate_lattice(34, 0)

    def test_ceiling_override(self):
        assert sum(1 for _ in enumerate_dyck(3, max_n=3)) == 5
        with pytest.raises(EnumerationLimitError, match="3"):
            next(enumerate_dyck(4, max_n=3))

    def test_ceiling_error_survives_pickling(self):
        import pickle

        with pytest.raises(EnumerationLimitError) as raised:
            next(enumerate_dyck(4, max_n=3))
        copy = pickle.loads(pickle.dumps(raised.value))
        assert type(copy) is EnumerationLimitError
        assert (copy.n, copy.limit) == (4, 3)
        assert str(copy) == str(raised.value)
        assert "n=4 exceeds the enumeration ceiling 3" in str(copy)

    def test_env_ceiling(self, monkeypatch):
        monkeypatch.setenv("CATALAN_LAB_MAX_N", "2")
        with pytest.raises(EnumerationLimitError):
            next(enumerate_dyck(3))
        assert sum(1 for _ in enumerate_dyck(3, max_n=5)) == 5

    def test_negative_ceiling_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="max_n must be nonnegative, got -5"):
            next(enumerate_dyck(0, max_n=-5))
        monkeypatch.setenv("CATALAN_LAB_MAX_N", "-5")
        with pytest.raises(
            ValueError, match="CATALAN_LAB_MAX_N must be nonnegative, got -5"
        ):
            next(enumerate_dyck(0))


class TestEnumerateDyckTexts:
    """The text of each enumerated path, written with no Path built."""

    @pytest.mark.parametrize("n", range(12))
    def test_texts_of_enumerate_dyck(self, n):
        assert list(enumerate_dyck_texts(n)) == [str(p) for p in enumerate_dyck(n)]

    def test_negative_size_same_error(self):
        with pytest.raises(ValueError) as dyck:
            enumerate_dyck(-1)
        with pytest.raises(ValueError) as texts:
            enumerate_dyck_texts(-1)
        assert str(texts.value) == str(dyck.value) == "size must be nonnegative, got -1"

    def test_ceiling_refused_on_call(self):
        # the refusal comes before the first next(), so before any output
        with pytest.raises(EnumerationLimitError, match="ceiling 5"):
            enumerate_dyck_texts(6, max_n=5)
        with pytest.raises(EnumerationLimitError):
            enumerate_dyck_texts(17)
        assert sum(1 for _ in enumerate_dyck_texts(5, max_n=5)) == catalan(5)


class TestEnumerateLattice:
    def test_empty(self):
        assert list(enumerate_lattice(0, 0)) == [Path(())]

    def test_forced(self):
        assert [str(p) for p in enumerate_lattice(4, -4)] == ["DDDD"]

    @pytest.mark.parametrize("a,b", [(4, 0), (5, 1), (6, -2), (7, 3)])
    def test_against_product_oracle(self, a, b):
        expected = {p for p in all_step_strings(a) if p.final_height == b}
        got = list(enumerate_lattice(a, b))
        assert len(got) == len(set(got))
        assert set(got) == expected

    def test_n4_count(self):
        assert len(list(enumerate_lattice(4, 0))) == 6

    def test_exact_order_to_a12(self):
        def key(steps):
            return tuple(0 if s == U else 1 for s in steps)

        for a in range(13):
            by_end = {}
            for steps in itertools.product((U, D), repeat=a):
                by_end.setdefault(sum(steps), []).append(steps)
            for b in range(-a, a + 1, 2):
                expected = sorted(by_end[b], key=key)
                got = [p.steps for p in enumerate_lattice(a, b)]
                assert got == expected, (a, b)

    def test_counts_to_a12(self):
        from catalan_lab import binomial

        for a in range(13):
            for b in range(-a, a + 1, 2):
                count = sum(1 for _ in enumerate_lattice(a, b))
                assert count == binomial(a, (a - b) // 2), (a, b)

    def test_invalid_endpoint(self):
        with pytest.raises(ValueError):
            list(enumerate_lattice(3, 0))
        with pytest.raises(ValueError):
            list(enumerate_lattice(2, -4))

    def test_ceiling(self):
        with pytest.raises(EnumerationLimitError):
            next(enumerate_lattice(34, 0))
        assert sum(1 for _ in enumerate_lattice(8, 0, max_n=4)) == 70


class TestBlockEnumeration:
    """The enumerator walks blocks of eight steps; these cases cross them."""

    def test_exact_order_a13_to_a16(self):
        for a in range(13, 17):
            by_end = {}
            for steps in itertools.product((U, D), repeat=a):
                by_end.setdefault(sum(steps), []).append(steps)
            for b in range(-a, a + 1, 2):
                expected = sorted(by_end[b], key=lex_key)
                got = [p.steps for p in enumerate_lattice(a, b)]
                assert got == expected, (a, b)

    def test_first_path_streams_at_n3000(self):
        start = time.perf_counter()
        first = next(enumerate_dyck(3000, max_n=3000))
        elapsed = time.perf_counter() - start
        assert first.steps == (U,) * 3000 + (D,) * 3000
        assert str(first) == "U" * 3000 + "D" * 3000
        assert elapsed < 1.0

    def test_interleaved_calls_keep_their_own_tables(self):
        dyck = sorted(
            (p.steps for p in all_step_strings(14) if is_dyck(p)), key=lex_key
        )
        lattice = sorted(
            (p.steps for p in all_step_strings(9) if p.final_height == 1),
            key=lex_key,
        )
        got_dyck, got_lattice = [], []
        pairs = itertools.zip_longest(enumerate_dyck(7), enumerate_lattice(9, 1))
        for p, q in pairs:
            if p is not None:
                got_dyck.append(p.steps)
            if q is not None:
                got_lattice.append(q.steps)
        assert got_dyck == dyck
        assert got_lattice == lattice

    def test_memory_flat_and_freed(self):
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            paths = enumerate_dyck(10)
            for _ in paths:
                pass
            peak = tracemalloc.get_traced_memory()[1] - base
            gc.collect()
            left = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # the 16,796 paths held at once would take about 9 MB
        assert peak < 2_000_000
        assert left < 20_000


class TestEnumerationPins:
    """Digests of the enumerators' output, recorded before the odometer was
    split into heads and their flatteners."""

    def test_lattice_steps_to_a14(self):
        h = hashlib.sha256()
        for a in range(15):
            for b in range(-a, a + 1, 2):
                for p in enumerate_lattice(a, b):
                    h.update(bytes(s + 1 for s in p.steps))
                    h.update(b"|")
                h.update(b"#")
        assert h.hexdigest() == (
            "152844574165f019dba3e146d286e75aa19a50333fff4fd29c183a7d171d57a9"
        )

    def test_dyck_order_and_cached_text_to_n11(self):
        h = hashlib.sha256()
        for n in range(12):
            for p in enumerate_dyck(n):
                # the text is cached as the path is made, before any str()
                h.update(b"?" if p._text is None else p._text.encode())
                h.update(b"\n")
            h.update(b"#")
        assert h.hexdigest() == (
            "6da3ac615834d337bb04617bff0538c733fd229a18d9d616d73dd4269340c864"
        )


class TestUncheckedPaths:
    """Generated paths skip the step check; outside input still gets it."""

    def test_outside_input_still_checked(self):
        with pytest.raises(ValueError) as raised:
            Path((1, 0))
        assert str(raised.value) == "steps must be +1 (U) or -1 (D), got 0"

    def test_text_from_string(self):
        assert str(P("uDd")) == "UDD"
        assert repr(P("uDd")) == "Path('UDD')"

    @staticmethod
    def assert_like_checked(p):
        checked = Path(p.steps)
        assert p == checked and hash(p) == hash(checked)
        assert str(p) == "".join("U" if s == U else "D" for s in p.steps)
        assert str(p) == str(checked)
        assert p.height_profile == tuple(itertools.accumulate(p.steps))

    def test_enumerated_paths_match_checked(self):
        for n in range(8):
            for p in enumerate_dyck(n):
                self.assert_like_checked(p)
        for a in range(8):
            for b in range(-a, a + 1, 2):
                for p in enumerate_lattice(a, b):
                    self.assert_like_checked(p)

    def test_sampled_paths_match_checked(self):
        rng = random.Random(11)
        for n in [*range(20), 200, 1000]:
            self.assert_like_checked(random_dyck_path(n, rng))

    @staticmethod
    def paths_in(value):
        """The paths a map returns, alone or in marks and tuples."""
        if isinstance(value, Path):
            return [value]
        if isinstance(value, tuple):
            return [p for v in value for p in TestUncheckedPaths.paths_in(v)]
        path = getattr(value, "path", None)
        return [] if path is None else [path]

    def test_map_images_match_checked(self):
        dyck = {n: list(enumerate_dyck(n)) for n in range(8)}
        for entry in BIJECTIONS.values():
            for n in entry.sizes(6):
                for x in entry.inputs(n, dyck):
                    q = entry.forward(x)
                    for p in self.paths_in(q) + self.paths_in(entry.inverse(q)):
                        self.assert_like_checked(p)
        for n in range(1, 7):
            for p in dyck[n]:
                precursor, positions = remove_ud(p)
                images = [
                    reverse_complement(p),
                    reflect_after_touch(p, 1),
                    precursor,
                    insert_ud(precursor, positions),
                    peak_rebuild(peak_decompose(precursor)),
                ]
                for q in images:
                    self.assert_like_checked(q)
            for mp in marked_set(dyck[n], (U,), min_end_height=2):
                out = sym_valley_insert(mp, 2)
                for q in self.paths_in(out) + self.paths_in(sym_valley_remove(out)):
                    self.assert_like_checked(q)

    def test_pickle_round_trip(self):
        for p in enumerate_dyck(5):
            copy = pickle.loads(pickle.dumps(p))
            assert copy == p and hash(copy) == hash(p)
            assert str(copy) == str(p) and repr(copy) == repr(p)
        sampled = random_dyck_path(30, random.Random(4))
        copy = pickle.loads(pickle.dumps(sampled))
        assert copy == sampled and str(copy) == str(sampled)


class TestReverseComplement:
    def test_worked_example(self):
        alpha = P("uuduuddddu")
        assert str(reverse_complement(alpha)) == "DUUUUDDUDD"

    def test_short_cases(self):
        assert reverse_complement(P("UD")) == P("UD")
        assert reverse_complement(Path(())) == Path(())

    def test_involution_all_paths_to_length_16(self):
        for length in range(17):
            for p in all_step_strings(length):
                assert reverse_complement(reverse_complement(p)) == p

    @pytest.mark.parametrize("n", range(7))
    def test_preserves_dyck_class(self, n):
        paths = set(enumerate_dyck(n))
        assert {reverse_complement(p) for p in paths} == paths

    def test_negates_final_height(self):
        for p in all_step_strings(6):
            assert reverse_complement(p).final_height == -p.final_height


class TestCountFactor:
    def test_overlap_semantics(self):
        assert count_factor(P("UUU"), (U, U)) == 2

    def test_total_uu_over_d3(self):
        total = sum(count_factor(p, (U, U)) for p in enumerate_dyck(3))
        oracle = sum(naive_occurrences(p, P("UU")) for p in enumerate_dyck(3))
        assert total == oracle == 5

    def test_total_ddu_over_d3(self):
        total = sum(count_factor(p, (D, D, U)) for p in enumerate_dyck(3))
        assert total == 1

    def test_matches_string_oracle(self):
        patterns = [P("UU"), P("UDU"), P("DDU"), P("UUDDU"), P("UDD")]
        for p in all_step_strings(8):
            for pat in patterns:
                assert count_factor(p, pat) == naive_occurrences(p, pat)

    def test_terminal_filter(self):
        p = P("UUDD")
        assert count_factor(p, (U, U, D, D), terminal=False) == 0
        assert count_factor(p, (U, U, D, D), terminal=True) == 1
        q = P("UUDDUD")
        assert count_factor(q, (U, U, D, D), terminal=False) == 1
        assert count_factor(q, (U, U, D, D), terminal=True) == 0

    def test_min_end_height_filter(self):
        # marked up steps of height two or more across all of D_2
        total = sum(
            count_factor(p, (U,), min_end_height=2) for p in enumerate_dyck(2)
        )
        assert total == 1  # only the second U of UUDD

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            count_factor(P("UD"), ())

    def test_occurrence_indices(self):
        assert factor_occurrences(P("UDUDUD"), (U, D, U)) == [0, 2]

    def test_occurrences_match_slice_and_filter_definition(self):
        patterns = [str(q) for k in range(1, 5) for q in all_step_strings(k)]
        filters = list(itertools.product((None, True, False), (None, 2)))
        for n in range(7):
            for p in enumerate_dyck(n):
                s = str(p)
                tail = len(s.rstrip("D"))  # start of the trailing run of D steps
                for pat in patterns:
                    k = len(pat)
                    starts = [i for i in range(len(s) - k + 1) if s[i : i + k] == pat]
                    for terminal, height in filters:
                        expected = [
                            i
                            for i in starts
                            if (
                                height is None
                                or s[: i + k].count("U") - s[: i + k].count("D")
                                >= height
                            )
                            and (
                                terminal is None
                                or all(i + j >= tail for j, c in enumerate(pat) if c == "D")
                                == terminal
                            )
                        ]
                        got = factor_occurrences(
                            p, P(pat), min_end_height=height, terminal=terminal
                        )
                        assert got == expected, (s, pat, terminal, height)

    def test_occurrences_match_slices_on_all_short_paths(self):
        patterns = [q.steps for k in range(1, 5) for q in all_step_strings(k)]
        filters = list(itertools.product((None, 0, 2), (None, True, False)))
        for length in range(9):
            for p in all_step_strings(length):
                steps, heights = p.steps, (0,) + p.height_profile
                tail = length
                while tail and steps[tail - 1] == D:
                    tail -= 1
                for pat in patterns:
                    k = len(pat)
                    starts = [
                        i for i in range(length - k + 1) if steps[i : i + k] == pat
                    ]
                    for height, terminal in filters:
                        expected = [
                            i
                            for i in starts
                            if (height is None or heights[i + k] >= height)
                            and (
                                terminal is None
                                or all(i + j >= tail for j in range(k) if pat[j] == D)
                                == terminal
                            )
                        ]
                        got = factor_occurrences(
                            p, pat, min_end_height=height, terminal=terminal
                        )
                        assert got == expected, (p, pat, height, terminal)
                assert factor_occurrences(p, (1, 2)) == []
                assert factor_occurrences(p, (0,)) == []


class TestUnits:
    def test_examples(self):
        assert units(P("UUDD")) == [(0, 4)]
        assert units(P("UDUDUD")) == [(0, 2), (2, 4), (4, 6)]
        assert units(P("UDUUDD")) == [(0, 2), (2, 6)]

    def test_cover_exactly(self):
        for p in enumerate_dyck(5):
            spans = units(p)
            assert spans[0][0] == 0 and spans[-1][1] == p.length
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 == s2

    def test_non_dyck_rejected(self):
        with pytest.raises(ValueError):
            units(P("DU"))


class TestFactors:
    @pytest.mark.parametrize("name", list(FACTORS))
    def test_marks_are_the_filtered_occurrences(self, name):
        factor = FACTORS[name]
        filters = {"min_end_height": factor.min_end_height, "terminal": factor.terminal}
        for n in range(8):
            for p in enumerate_dyck(n):
                hits = factor_occurrences(p, factor.steps, **filters)
                marks = factor.marks(p)
                assert marks == [MarkedPath(p, i, len(factor.steps)) for i in hits]
                assert factor.count(p) == len(marks)

    def test_ddu_udu_counts_read_the_table(self, monkeypatch):
        monkeypatch.setitem(FACTORS, "udu", FACTORS["uu"])
        assert ddu_udu_counts(P("UUDDUD")) == (1, 1)


class TestDduUduCounts:
    def test_examples(self):
        assert ddu_udu_counts(P("UUDD")) == (0, 0)
        assert ddu_udu_counts(P("UDUDUD")) == (0, 2)
        assert ddu_udu_counts(P("UUDDUD")) == (1, 0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bound_and_partition(self, n):
        total = 0
        for p in enumerate_dyck(n):
            k, j = ddu_udu_counts(p)
            assert j <= n - 2 * k - 1
            total += 1
        assert total == catalan(n)

    def test_non_dyck_rejected(self):
        with pytest.raises(ValueError):
            ddu_udu_counts(P("UDDU"))
