import gc
import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catalan_lab import (
    D,
    U,
    AreaMark,
    MarkedPath,
    Path,
    PeakVector,
    StatId,
    StatKind,
    area_mark_decode,
    area_mark_encode,
    brute_total,
    catalan,
    count_factor,
    ddu_udu_counts,
    drop_marked_unit,
    dyck_to_low_path,
    enumerate_dyck,
    enumerate_lattice,
    insert_ud,
    is_dyck,
    last_passage_class,
    lift_marked_unit,
    low_path_to_dyck,
    path_to_word,
    peak_decompose,
    peak_rebuild,
    peak_vector_from_slots,
    random_dyck_path,
    raney_shift,
    reflect_after_touch,
    remove_ud,
    split_reverse,
    split_reverse_inverse,
    sym_valley_insert,
    sym_valley_pattern,
    sym_valley_remove,
    units,
)
from catalan_lab.verify import (
    BIJECTIONS,
    Bijection,
    VerifyReport,
    _check_entry,
    _check_map,
    marked_set,
    verify_bijections,
)

P = Path.from_string


class TestReflectAfterTouch:
    def test_worked_example(self):
        assert str(reflect_after_touch(P("DUUUU"), -1)) == "DDDDD"

    def test_touch_only_at_last_point(self):
        assert reflect_after_touch(P("UU"), 2) == P("UU")

    def test_involution_on_p60(self):
        for p in enumerate_lattice(6, 0):
            if -1 not in p.height_profile:
                continue
            q = reflect_after_touch(p, -1)
            assert q.final_height == -2
            assert reflect_after_touch(q, -1) == p

    def test_never_touching_rejected(self):
        with pytest.raises(ValueError):
            reflect_after_touch(P("UU"), -1)

    def test_level_zero_complements_everything(self):
        assert reflect_after_touch(P("UUDD"), 0) == P("DDUU")


class TestSplitReverse:
    def test_uu_example(self):
        mp = MarkedPath(P("UUDD"), 0, 2)
        image = split_reverse(mp, D)
        assert str(image) == "DUU"
        assert image.min_height == -1
        assert split_reverse_inverse(image, (U, U), D) == mp

    def test_uuddu_example(self):
        mp = MarkedPath(P("UUDDUD"), 0, 5)
        image = split_reverse(mp, U)
        assert str(image) == "UU"
        assert split_reverse_inverse(image, (U, U, D, D, U), U) == mp

    def test_survivor_down_starts_image_on_empty_prefix(self):
        mp = MarkedPath(P("DUU"), 0, 1)
        image = split_reverse(mp, D)
        assert image.steps[0] == D

    def test_survivor_validation(self):
        with pytest.raises(ValueError):
            split_reverse(MarkedPath(P("UD"), 0, 1), 0)

    def test_inverse_handles_interior_minima(self):
        # image of a marked UU whose tail revisits the minimum level
        mp = MarkedPath(P("UUDDUD"), 0, 2)
        image = split_reverse(mp, D)
        assert split_reverse_inverse(image, (U, U), D) == mp


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: area_mark_decode(P("")), "image paths have positive even length"),
        (lambda: area_mark_decode(P("DDD")), "image paths have positive even length"),
        (
            lambda: area_mark_decode(P("UD")),
            "image paths end at negative even height, got 0",
        ),
        (
            lambda: area_mark_decode(P("UUUU")),
            "image paths end at negative even height, got 4",
        ),
        (
            lambda: split_reverse_inverse(P("DUU"), (U, U), 0),
            "survivor must be U or D",
        ),
        (
            lambda: split_reverse_inverse(P("UD"), (U,), U),
            "no surviving up step at the rightmost minimum",
        ),
        (
            lambda: split_reverse_inverse(P("UD"), (U,), D),
            "no surviving down step into the leftmost minimum",
        ),
        (
            lambda: split_reverse_inverse(P("DUU"), (U, 0), D),
            "steps must be +1 (U) or -1 (D), got 0",
        ),
    ],
)
def test_inverse_error_messages(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


@pytest.mark.parametrize("name,n", [("area", 6), ("uu", 7)])
def test_inverse_leaves_its_argument_bare(name, n):
    # an inverse that caches heights on the image it reads keeps them for as
    # long as the caller holds the image, as the bijection suite does
    entry = BIJECTIONS[name]
    dyck = {n: list(enumerate_dyck(n))}
    images = [entry.forward(x) for x in entry.inputs(n, dyck)]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for q in images:
            entry.inverse(q)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept < 8 * len(images)


class TestMarkedUnit:
    def test_examples(self):
        assert str(lift_marked_unit(P("UUDD"), 1)) == "UDUUDD"
        assert str(lift_marked_unit(P("UDUD"), 1)) == "UDUDUD"
        assert str(lift_marked_unit(P("UDUD"), 2)) == "UUDDUD"

    def test_total_images_from_d2(self):
        images = {
            lift_marked_unit(p, i)
            for p in enumerate_dyck(2)
            for i in range(1, len(units(p)) + 1)
        }
        assert len(images) == catalan(3) - catalan(2) == 3

    def test_round_trip_exhaustive(self):
        for m in range(1, 6):
            for p in enumerate_dyck(m):
                for idx in range(1, len(units(p)) + 1):
                    q = lift_marked_unit(p, idx)
                    assert is_dyck(q) and len(units(q)) >= 2
                    assert drop_marked_unit(q) == (p, idx)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            lift_marked_unit(P("UUDD"), 2)
        with pytest.raises(ValueError):
            drop_marked_unit(P("UUDD"))


class TestSymValleyInsert:
    def test_worked_example(self):
        mp = MarkedPath(P("UUDD"), 1, 1)
        out = sym_valley_insert(mp, 1)
        assert str(out.path) == "UUDDUUDD"
        assert (out.mark_start, out.mark_len) == (1, 5)
        assert out.marked_factor == sym_valley_pattern(1)
        assert str(path_to_word(out.path)) == "1212"
        assert sym_valley_remove(out) == (mp, 1)

    def test_total_at_n5(self):
        # inserting over every valid ell reaches the 7 symmetric valleys at n=5
        total = 0
        for ell in (1, 2):
            count = 0
            for m_path in enumerate_dyck(4 - ell):
                for i, s in enumerate(m_path.steps):
                    if s == U and m_path.height_profile[i] >= 2:
                        out = sym_valley_insert(MarkedPath(m_path, i, 1), ell)
                        assert out.path.length == 10
                        count += 1
            assert count == brute_total(5, StatId(StatKind.SYM_VALLEY, ell))
            total += count
        assert total == brute_total(5, StatId(StatKind.SYM_VALLEY)) == 7

    def test_height_one_rejected(self):
        with pytest.raises(ValueError):
            sym_valley_insert(MarkedPath(P("UD"), 0, 1), 1)

    def test_mark_shape_rejected(self):
        with pytest.raises(ValueError):
            sym_valley_insert(MarkedPath(P("UUDD"), 2, 1), 1)  # marks a D
        with pytest.raises(ValueError):
            sym_valley_insert(MarkedPath(P("UUDD"), 0, 2), 1)


class TestLowPathMap:
    def test_examples(self):
        assert str(low_path_to_dyck(P("UUDD"))) == "UUUDDD"
        assert str(low_path_to_dyck(P("DUDU"))) == "UDUDUD"

    def test_round_trip_p40(self):
        domain = [p for p in enumerate_lattice(4, 0) if p.min_height >= -1]
        assert len(domain) == 5
        images = {low_path_to_dyck(p) for p in domain}
        assert images == set(enumerate_dyck(3))
        for p in domain:
            assert dyck_to_low_path(low_path_to_dyck(p)) == p

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            low_path_to_dyck(P("DDUU"))
        with pytest.raises(ValueError):
            low_path_to_dyck(P("UD" + "D"))


class TestRaney:
    def test_examples(self):
        assert raney_shift([1]) == 1
        assert raney_shift([-1, 1, 1]) == 2
        assert raney_shift([0, 1, 0]) == 2

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            raney_shift([1, 1])
        with pytest.raises(ValueError):
            raney_shift([])

    @staticmethod
    def valid_shifts(vals):
        lows = [
            min(itertools.accumulate(vals[r:] + vals[:r])) for r in range(len(vals))
        ]
        return [r + 1 for r, low in enumerate(lows) if low > 0]

    def test_uniqueness_exhaustive_short(self):
        for length in range(1, 7):
            for vals in itertools.product(range(-2, 3), repeat=length):
                if sum(vals) != 1:
                    continue
                assert self.valid_shifts(list(vals)) == [raney_shift(vals)]

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=10)
    )
    def test_uniqueness_random(self, vals):
        if sum(vals) != 1:
            vals = vals + [1 - sum(vals)]
            if not all(-3 <= v <= 3 for v in vals) or len(vals) > 10:
                return
        assert self.valid_shifts(vals) == [raney_shift(vals)]

    def test_against_rotation_definition_long(self):
        # long sequences over a narrow range repeat the minimal prefix sum often
        rng = random.Random(2024)
        for _ in range(2000):
            length = rng.randint(1, 300)
            vals = [rng.randint(-2, 2) for _ in range(length - 1)]
            vals.append(1 - sum(vals))
            # rotation r + 1 is valid when no partial sum of it is <= 0
            doubled = vals + vals
            valid = [
                r + 1
                for r in range(length)
                if not any(
                    map((0).__ge__, itertools.accumulate(doubled[r : r + length]))
                )
            ]
            assert valid == [raney_shift(vals)]


class TestPeakMachinery:
    def test_decompose_examples(self):
        assert peak_decompose(P("UUDD")).pairs == ((1, 1),)
        assert peak_decompose(P("UUDDUD")).pairs == ((1, 1), (0, 0))
        assert str(peak_rebuild(PeakVector(((1, 1), (0, 0))))) == "UUDDUD"

    def test_udu_rejected(self):
        with pytest.raises(ValueError):
            peak_decompose(P("UDUD"))

    def test_decompose_invariant_raises(self, monkeypatch):
        from catalan_lab import bijections

        monkeypatch.setattr(bijections, "ddu_udu_counts", lambda p: (5, 0))
        with pytest.raises(RuntimeError):
            peak_decompose(P("UUDD"))

    def test_vector_invariants(self):
        with pytest.raises(ValueError):
            PeakVector(((0, 1), (1, 0)))  # prefix dips
        with pytest.raises(ValueError):
            PeakVector(((1, 0), (0, 1)))  # internal zero down run
        with pytest.raises(ValueError):
            PeakVector(((2, 1),))  # unbalanced

    def test_round_trip_exhaustive(self):
        for n in range(1, 8):
            for p in enumerate_dyck(n):
                k, j = ddu_udu_counts(p)
                if j:
                    continue
                pv = peak_decompose(p)
                assert pv.k == k and pv.n == n
                assert peak_rebuild(pv) == p

    def test_slot_single_slot(self):
        pv = peak_vector_from_slots([(3, 4)])
        assert str(peak_rebuild(pv)) == "UUUUDDDD"

    def test_slot_covering_n4_k1(self):
        hits = {}
        fills = 0
        for ys in itertools.product(range(3), repeat=2):
            if sum(ys) != 2:
                continue
            for zs in itertools.product(range(1, 4), repeat=2):
                if sum(zs) != 3:
                    continue
                fills += 1
                path = peak_rebuild(peak_vector_from_slots(list(zip(ys, zs))))
                hits[path] = hits.get(path, 0) + 1
        assert fills == 6
        assert len(hits) == 3
        assert all(v == 2 for v in hits.values())
        for path in hits:
            assert ddu_udu_counts(path) == (1, 0)

    def test_slot_validation(self):
        with pytest.raises(ValueError):
            peak_vector_from_slots([(1, 0)])
        with pytest.raises(ValueError):
            peak_vector_from_slots([(0, 1), (0, 2)])  # deltas sum to 3


class TestInsertRemoveUd:
    def test_worked_example(self):
        out = insert_ud(P("UUDD"), [0])
        assert str(out) == "UDUUDD"
        assert ddu_udu_counts(out) == (0, 1)

    def test_identity_on_empty_positions(self):
        assert insert_ud(P("UUDD"), []) == P("UUDD")

    def test_d411_cardinality(self):
        paths = [
            insert_ud(pre, [pos])
            for pre in enumerate_dyck(3)
            if ddu_udu_counts(pre) == (1, 0)
            for pos in range(3)
        ]
        assert len(paths) == len(set(paths)) == 3
        for p in paths:
            assert ddu_udu_counts(p) == (1, 1)

    def test_remove_leftmost_rule(self):
        assert remove_ud(P("UDUDUD")) == (P("UD"), (0, 0))
        assert remove_ud(P("UUDUDD")) == (P("UUDD"), (1,))

    def test_mutual_inverse_exhaustive(self):
        for n in range(1, 8):
            for p in enumerate_dyck(n):
                pre, pos = remove_ud(p)
                assert ddu_udu_counts(pre)[1] == 0
                assert insert_ud(pre, pos) == p

    def test_precursor_with_udu_rejected(self):
        with pytest.raises(ValueError):
            insert_ud(P("UDUD"), [])

    def test_bad_position(self):
        with pytest.raises(ValueError):
            insert_ud(P("UUDD"), [2])


class TestAreaMap:
    def test_mark_u2_examples(self):
        am = AreaMark(P("UUDD"), 1, 0)
        assert str(area_mark_encode(am)) == "DDDU"
        am = AreaMark(P("UUDD"), 1, 1)
        assert str(area_mark_encode(am)) == "DDDD"

    def test_mark_u1_examples(self):
        assert str(area_mark_encode(AreaMark(P("UUDD"), 0, 0))) == "UDDD"
        assert str(area_mark_encode(AreaMark(P("UDUD"), 0, 0))) == "DDUD"
        assert str(area_mark_encode(AreaMark(P("UDUD"), 2, 0))) == "DUDD"

    def test_l2_exhausted(self):
        marks = [am for p in enumerate_dyck(2) for am in BIJECTIONS["area"].marks(p)]
        images = {area_mark_encode(am) for am in marks}
        assert len(marks) == len(images) == 5
        all_l2 = {
            Path(steps)
            for steps in itertools.product((U, D), repeat=4)
            if sum(steps) < 0
        }
        assert images == all_l2

    def test_decode_example(self):
        assert area_mark_decode(P("DDDU")) == AreaMark(P("UUDD"), 1, 0)

    def test_round_trip_exhaustive(self):
        for n in range(1, 6):
            for p in enumerate_dyck(n):
                for am in BIJECTIONS["area"].marks(p):
                    assert area_mark_decode(area_mark_encode(am)) == am

    def test_mark_validation(self):
        with pytest.raises(ValueError):
            AreaMark(P("UUDD"), 2, 0)  # marks a D
        with pytest.raises(ValueError):
            AreaMark(P("UUDD"), 1, 2)  # j too large
        with pytest.raises(ValueError):
            AreaMark(P("UU"), 0, 0)  # not Dyck

    def test_decode_rejects_nonnegative_final(self):
        with pytest.raises(ValueError):
            area_mark_decode(P("UD"))

    def test_decode_pinned_on_every_short_path(self):
        # every step sequence of length <= 14: the digest of each mark's repr,
        # or of each error, pins the decoder's results and messages
        digest, marks = hashlib.sha256(), 0
        for length in range(15):
            for steps in itertools.product((U, D), repeat=length):
                p = Path(steps)
                try:
                    am = area_mark_decode(p)
                except Exception as exc:  # noqa: BLE001 - its message is pinned
                    line = f"{type(exc).__name__}: {exc}"
                else:
                    line, marks = repr(am), marks + 1
                    assert AreaMark(am.path, am.up_index, am.j) == am
                    assert area_mark_encode(am) == p
                digest.update(line.encode() + b"\n")
        assert marks == 8569  # the paths of length <= 14 with negative even end
        assert digest.hexdigest() == (
            "8e87b055c4257ae5fd96c2c15d571a80017afa38bd500cb8a489f765f8637d2c"
        )

    @staticmethod
    def block_encode(am):
        """The area map written over the level blocks after the marked step."""
        steps, m = am.path.steps, am.height
        blocks, cur, level, h = [], [], m, m
        for s in steps[am.up_index + 1 :]:
            if s == D and h == level:  # first crossing of each level
                blocks.append(tuple(cur))
                cur, level, h = [], level - 1, h - 1
                continue
            cur.append(s)
            h += s
        blocks.append(tuple(cur))
        assert len(blocks) == m + 1 and h == 0
        out = list(blocks[0])
        for i in range(1, am.j + 1):
            out += [D, *blocks[i]]
        tail = list(blocks[am.j + 1])
        for i in range(am.j + 2, m + 1):
            tail += [D, *blocks[i]]
        head = steps[: am.up_index]
        out += [D, *(-s for s in reversed(head)), D, *(-s for s in reversed(tail))]
        return Path(tuple(out))

    def test_encode_matches_level_blocks(self):
        for n in range(1, 9):
            for p in enumerate_dyck(n):
                for am in BIJECTIONS["area"].marks(p):
                    assert area_mark_encode(am) == self.block_encode(am), am


class TestLastPassage:
    def test_n2_classes(self):
        got = {str(p): last_passage_class(p) for p in enumerate_lattice(3, 1)}
        assert got == {
            "UDU": ("exceptional", None),
            "UUD": ("through-two", 1),
            "DUU": ("through-minus-one", 1),
        }

    def test_n4_block_sizes(self):
        from catalan_lab import binomial

        blocks = {}
        total = 0
        for lam in enumerate_lattice(7, 1):
            blocks[last_passage_class(lam)] = blocks.get(last_passage_class(lam), 0) + 1
            total += 1
        assert total == binomial(7, 3)
        assert blocks[("exceptional", None)] == 1
        for i in range(1, 4):
            assert blocks.get(("through-two", i), 0) == binomial(2 * i, i - 1)
            assert blocks.get(("through-minus-one", i), 0) == binomial(2 * i - 1, i)

    def test_wrong_endpoint(self):
        with pytest.raises(ValueError):
            last_passage_class(P("UU"))


class TestSampler:
    def test_n0(self):
        rng = random.Random(1)
        for _ in range(10):
            assert random_dyck_path(0, rng) == Path(())

    def test_draws_are_dyck(self):
        rng = random.Random(12345)
        for _ in range(500):
            n = rng.randrange(7)
            assert is_dyck(random_dyck_path(n, rng))

    def test_seed_reproducibility(self):
        a = [str(random_dyck_path(5, random.Random(42))) for _ in range(5)]
        b = [str(random_dyck_path(5, random.Random(42))) for _ in range(5)]
        assert a == b

    def test_rough_balance_n2(self):
        rng = random.Random(777)
        hits = {"UUDD": 0, "UDUD": 0}
        draws = 4000
        for _ in range(draws):
            hits[str(random_dyck_path(2, rng))] += 1
        assert hits["UUDD"] + hits["UDUD"] == draws
        assert abs(hits["UUDD"] / draws - 0.5) < 0.05

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            random_dyck_path(-1)

    @staticmethod
    def shuffle_draw(n, rng):
        """The sampler written with random.Random.shuffle."""
        arrangement = [D] * n + [U] * (n + 1)
        rng.shuffle(arrangement)
        r = raney_shift(arrangement)
        return Path(tuple(arrangement[r:] + arrangement[: r - 1]))

    @pytest.mark.parametrize("seed", [0, 1, 2024, 2**32 - 1])
    def test_same_draws_as_shuffle(self, seed):
        rng, ref = random.Random(seed), random.Random(seed)
        for n in [*range(71), 127, 128, 255, 256, 1000]:
            assert random_dyck_path(n, rng) == self.shuffle_draw(n, ref), n
            assert rng.getstate() == ref.getstate(), n

    def test_same_large_draw_as_shuffle(self):
        rng, ref = random.Random(5), random.Random(5)
        assert random_dyck_path(100000, rng) == self.shuffle_draw(100000, ref)
        assert rng.getstate() == ref.getstate()

    def test_same_draws_between_choices(self):
        # as Bijection.draw: a path, then a choice among its steps
        rng, ref = random.Random(99), random.Random(99)
        for n in range(1, 40):
            p, q = random_dyck_path(n, rng), self.shuffle_draw(n, ref)
            assert p == q
            assert rng.choice(range(len(p))) == ref.choice(range(len(q)))
            assert rng.getstate() == ref.getstate()


class TestMarkedSetHelper:
    def test_matches_count_factor(self):
        paths = list(enumerate_dyck(4))
        marks = marked_set(paths, (U, U))
        assert len(marks) == sum(count_factor(p, (U, U)) for p in paths)
        for mp in marks:
            assert mp.marked_factor == (U, U)


# Uniform random Dyck paths far beyond the exhaustively verified sizes.
random_paths = settings(max_examples=25, deadline=None)(
    given(n=st.integers(50, 200), seed=st.integers(0, 2**32 - 1))
)


class TestRandomRoundTrips:
    """Each bijection's round trip on paths drawn by the library's sampler."""

    @staticmethod
    def round_trip(name, n, seed):
        """A random input of the table entry and its image mapped back, or None."""
        entry = BIJECTIONS[name]
        x = entry.draw(n, random.Random(seed))
        if name == "low-path":
            # drawn through the inverse, so check it lands in the domain
            assert x.min_height >= -1
        return None if x is None else (x, entry.inverse(entry.forward(x)))

    @pytest.mark.parametrize("name", list(BIJECTIONS))
    @random_paths
    def test_round_trip(self, name, n, seed):
        trip = self.round_trip(name, n, seed)
        assume(trip is not None)
        x, back = trip
        assert back == x

    @random_paths
    def test_valley_insert(self, n, seed):
        rng = random.Random(seed)
        marks = marked_set([random_dyck_path(n, rng)], (U,), min_end_height=2)
        assume(marks)
        mp, ell = rng.choice(marks), rng.randint(1, n)
        assert sym_valley_remove(sym_valley_insert(mp, ell)) == (mp, ell)

    @random_paths
    def test_peak_vector(self, n, seed):
        # a random path of this size has UDU factors; its precursor has none
        precursor, _ = remove_ud(random_dyck_path(n, random.Random(seed)))
        assert peak_rebuild(peak_decompose(precursor)) == precursor

    @random_paths
    def test_ud_insert_remove(self, n, seed):
        p = random_dyck_path(n, random.Random(seed))
        precursor, positions = remove_ud(p)
        assert insert_ud(precursor, positions) == p


def replaced(entry, **changes):
    """A copy of a ``BIJECTIONS`` entry with the given fields changed."""
    fields = {name: getattr(entry, name) for name in Bijection.__match_args__}
    return Bijection(**{**fields, **changes})


@pytest.mark.parametrize("name", list(BIJECTIONS))
def test_broken_inverse_fails_only_its_entry(monkeypatch, name):
    entry = BIJECTIONS[name]
    monkeypatch.setitem(BIJECTIONS, name, replaced(entry, inverse=lambda q: None))
    dyck = {n: list(enumerate_dyck(n)) for n in range(6)}
    expected = {
        f"{entry.label.format(n=n)}: round trips"
        for n in entry.sizes(5)
        if entry.image(n, dyck) is not None and entry.inputs(n, dyck)
    }
    report = verify_bijections(5)
    assert expected
    assert {desc for desc, _, _ in report.failures} == expected
    x, back = TestRandomRoundTrips.round_trip(name, 60, seed=0)
    assert back != x


@pytest.mark.parametrize("name", list(BIJECTIONS))
def test_collapsed_forward_fails_only_its_entry(monkeypatch, name):
    # every input of a size goes to the image of that size's first input
    entry = BIJECTIONS[name]
    dyck = {n: list(enumerate_dyck(n)) for n in range(7)}
    first, expected = {}, []
    for n in entry.sizes(6):
        inputs = entry.inputs(n, dyck)
        first.update((x, inputs[0]) for x in inputs)
        image = entry.image(n, dyck)
        if image is None or len(inputs) < 2:
            continue
        label = entry.label.format(n=n)
        expected += [
            (f"{label}: images distinct", len(inputs), 1),
            (f"{label}: image set", set(image), {entry.forward(inputs[0])}),
            (f"{label}: round trips", 0, len(inputs) - 1),
        ]
    collapsed = replaced(entry, forward=lambda x: entry.forward(first[x]))
    monkeypatch.setitem(BIJECTIONS, name, collapsed)
    report = verify_bijections(6)
    assert expected
    assert report.failures == expected


class RecordingReport(VerifyReport):
    """A report that keeps every check, passed or failed."""

    def __init__(self):
        super().__init__("recording")
        self.checks = []

    def check(self, description, expected, got):
        super().check(description, expected, got)
        self.checks.append((description, expected, got))


def test_stray_image_records_each_check():
    # one input goes to a path that ends below zero, outside the uu class
    entry, n = BIJECTIONS["uu"], 5
    dyck = {m: list(enumerate_dyck(m)) for m in range(n + 1)}
    inputs = entry.inputs(n, dyck)
    image = set(entry.image(n, dyck))
    stray = P("D" + "UD" * (n - 1))
    assert stray not in image
    rpt = RecordingReport()
    moved = replaced(
        entry, forward=lambda x: stray if x == inputs[0] else entry.forward(x)
    )
    _check_entry(rpt, moved, n, dyck)
    got = image - {entry.forward(inputs[0])} | {stray}
    assert rpt.checks == [
        ("split-reverse uu n=5: images distinct", len(inputs), len(inputs)),
        ("split-reverse uu n=5: image set", image, got),
        ("split-reverse uu n=5: round trips", 0, 1),
        ("split-reverse uu n=5: domain size", len(inputs), len(image)),
    ]
    assert [(type(e), type(g)) for _, e, g in rpt.checks] == [
        (int, int), (set, set), (int, int), (int, int)
    ]
    assert rpt.failures == rpt.checks[1:3]


def test_images_are_held_as_the_expected_paths():
    expected = list(enumerate_dyck(5))

    def copy(p):
        return P(str(p))

    assert all(copy(p) is not p for p in expected)
    rpt = RecordingReport()
    sizes = _check_map(rpt, "copy {}", (p for p in expected), copy, copy, expected)
    assert sizes == (len(expected), len(expected))
    assert rpt.failures == []
    ((_, _, got),) = [c for c in rpt.checks if c[0] == "copy image set"]
    assert {id(q) for q in got} == {id(p) for p in expected}
