import gc
import hashlib
import itertools
import random
import tracemalloc

import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
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
    Word,
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
    random_dyck_text,
    raney_shift,
    reflect_after_touch,
    remove_ud,
    reverse_complement,
    split_reverse,
    split_reverse_inverse,
    sym_valley_insert,
    sym_valley_pattern,
    sym_valley_remove,
    units,
    word_to_path,
)
from catalan_lab import bijections, formulas, verify
from catalan_lab.path_classes import ONTO, ImageRecord, MarkedClass, PathClass
from catalan_lab.verify import (
    BIJECTIONS,
    Bijection,
    VerifyReport,
    _check_entry,
    _check_valley,
    marked_set,
    verify_bijections,
)

P = Path.from_string


def results_digest(results) -> str:
    """The sha256 of one line per result: its repr, or the error it raised.

    ``results`` yields callables; each is called once, in order.
    """
    digest = hashlib.sha256()
    for result in results:
        try:
            line = repr(result())
        except Exception as exc:  # noqa: BLE001 - its message is pinned
            line = f"{type(exc).__name__}: {exc}"
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


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

    def test_forward_pinned_on_every_balanced_path(self):
        # every balanced path of length 2n - 2, n <= 10, the deep ones with
        # their error
        balanced = (p for n in range(1, 11) for p in enumerate_lattice(2 * n - 2, 0))
        digest = results_digest(lambda p=p: low_path_to_dyck(p) for p in balanced)
        assert digest == (
            "34c3bc9060a501894739a994034793a97552337a786f95b3db00236d4edb1a88"
        )

    def test_inverse_pinned_on_every_dyck_path(self):
        # every Dyck path with n <= 10, the empty one with its error
        dyck = (p for n in range(11) for p in enumerate_dyck(n))
        digest = results_digest(lambda p=p: dyck_to_low_path(p) for p in dyck)
        assert digest == (
            "cd23d92ae0317441eeff2832514b86306f46205d37347198639007aa6a3a93a0"
        )


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

    def test_remove_pinned_on_every_dyck_path(self):
        # every Dyck path with n <= 10: each precursor and its positions
        dyck = (p for n in range(11) for p in enumerate_dyck(n))
        digest = results_digest(lambda p=p: remove_ud(p) for p in dyck)
        assert digest == (
            "e4351566efedd21c8d1550c8edc22538d0b34eb1f3d0f1dcdc8e193a86a96987"
        )


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

    def test_pinned_on_every_path_ending_at_one(self):
        # every path of length 2n - 1 ending at height 1, n <= 8
        lams = (lam for n in range(1, 9) for lam in enumerate_lattice(2 * n - 1, 1))
        digest = results_digest(lambda lam=lam: last_passage_class(lam) for lam in lams)
        assert digest == (
            "1779ceeb8f8dd58639e65e350baa241707b3327b28f337d473494002f9b19618"
        )


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

    # reference_draw (conftest.py) is the sampler written out; these tests
    # are named from when the reference was random.Random.shuffle.
    @pytest.mark.parametrize("seed", [0, 1, 2024, 2**32 - 1])
    def test_same_draws_as_shuffle(self, seed, reference_draw):
        rng, ref = random.Random(seed), random.Random(seed)
        for n in [*range(71), 127, 128, 255, 256, 1000]:
            assert random_dyck_path(n, rng) == reference_draw(n, ref), n
            assert rng.getstate() == ref.getstate(), n

    def test_same_large_draw_as_shuffle(self, reference_draw):
        rng, ref = random.Random(5), random.Random(5)
        assert random_dyck_path(100000, rng) == reference_draw(100000, ref)
        assert rng.getstate() == ref.getstate()

    def test_same_draws_between_choices(self, reference_draw):
        # as Bijection.draw: a path, then a choice among its steps
        rng, ref = random.Random(99), random.Random(99)
        for n in range(1, 40):
            p, q = random_dyck_path(n, rng), reference_draw(n, ref)
            assert p == q
            assert rng.choice(range(len(p))) == ref.choice(range(len(q)))
            assert rng.getstate() == ref.getstate()

    def test_reads_only_getrandbits(self):
        class BitsOnly(random.Random):
            def _refuse(self, *args, **kwargs):
                raise AssertionError("the sampler read more than getrandbits")

            random = randrange = choice = shuffle = _refuse

        rng = BitsOnly(3)
        for n in [0, 1, 2, 5, 200, 1001]:
            assert is_dyck(random_dyck_path(n, rng))
            assert len(random_dyck_text(n, rng)) == 2 * n

    @pytest.mark.parametrize("n", [5, 6])
    def test_uniform_chi_square(self, n):
        # 2n + 1 fair bits hold too many U in some draws and too few in
        # others, so both directions of the count fix are drawn
        cells = dict.fromkeys(map(str, enumerate_dyck(n)), 0)
        rng = random.Random(4100 + n)
        draws = 500 * len(cells)
        for _ in range(draws):
            cells[random_dyck_text(n, rng)] += 1
        assert sum(cells.values()) == draws and min(cells.values()) > 0
        result = scipy.stats.chisquare(list(cells.values()))
        assert result.pvalue > 0.001, f"chi-square p={result.pvalue:.5f}"


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

    # a word costs O(n^2), an O(n) sym-valley line per ell, so few are drawn
    @settings(max_examples=3, deadline=None)
    @given(n=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1))
    @example(n=1000, seed=0)
    def test_transport(self, n, seed):
        # every TRANSPORT line on a word far beyond the enumerated sizes
        w = path_to_word(random_dyck_path(n, random.Random(seed)))
        lines = list(verify._transport_sides(w))
        assert [name for name, stat, count in lines if stat != count] == []
        assert len(lines) == len(verify.TRANSPORT) - 1 + n


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
        if entry.image(n, dyck) is None or len(inputs) < 2:
            continue
        label = entry.label.format(n=n)
        hit = entry.forward(inputs[0])
        missing = [q for q in enumerated_image(name, n, dyck) if q != hit]
        record = ImageRecord(0, len(missing), (), tuple(missing[:3]))
        expected += [
            (f"{label}: images distinct", len(inputs), 1),
            (f"{label}: image set", ONTO, record),
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


def uu_checks(n=5):
    """The ``uu`` entry at size ``n``, the Dyck paths it reads and its inputs."""
    dyck = {m: list(enumerate_dyck(m)) for m in range(n + 1)}
    return BIJECTIONS["uu"], dyck, BIJECTIONS["uu"].inputs(n, dyck)


def test_stray_image_records_each_check():
    # one input goes to a path that ends below zero, outside the uu class
    n = 5
    entry, dyck, inputs = uu_checks(n)
    image = enumerated_image("uu", n, dyck)
    stray = P("D" + "UD" * (n - 1))
    assert stray not in image
    rpt = RecordingReport()
    moved = replaced(
        entry, forward=lambda x: stray if x == inputs[0] else entry.forward(x)
    )
    assert _check_entry(rpt, moved, n, dyck) == (len(inputs), len(image))
    record = ImageRecord(1, 1, (stray,), (entry.forward(inputs[0]),))
    assert rpt.checks == [
        ("split-reverse uu n=5: images distinct", len(inputs), len(inputs)),
        ("split-reverse uu n=5: image set", ONTO, record),
        ("split-reverse uu n=5: round trips", 0, 1),
        ("split-reverse uu n=5: domain size", len(inputs), len(image)),
    ]
    assert [(type(e), type(g)) for _, e, g in rpt.checks] == [
        (int, int), (ImageRecord, ImageRecord), (int, int), (int, int)
    ]
    assert rpt.failures == rpt.checks[1:3]


def test_records_show_the_first_few_paths_in_order():
    # every input goes outside the class: at most three strays, in the order
    # met, and the first three class paths, U before D, stand for the rest
    n = 5
    entry, dyck, inputs = uu_checks(n)
    image = enumerated_image("uu", n, dyck)
    strays = [P("U" + str(entry.forward(x))) for x in inputs]
    away = replaced(
        entry,
        forward=dict(zip(inputs, strays)).__getitem__,
        inverse=dict(zip(strays, inputs)).__getitem__,
    )
    rpt = RecordingReport()
    _check_entry(rpt, away, n, dyck)
    record = ImageRecord(len(inputs), len(image), tuple(strays[:3]), tuple(image[:3]))
    assert rpt.failures == [("split-reverse uu n=5: image set", ONTO, record)]


def test_repeated_image_fails_images_distinct():
    # a second copy of one input in place of another: the repeat also leaves
    # one class path unreached, as there are no more inputs than class paths
    n = 5
    entry, dyck, inputs = uu_checks(n)
    twice = [inputs[0], inputs[0], *inputs[2:]]
    rpt = RecordingReport()
    _check_entry(rpt, replaced(entry, marks=None, domain=lambda m: twice), n, dyck)
    record = ImageRecord(0, 1, (), (entry.forward(inputs[1]),))
    assert rpt.failures == [
        ("split-reverse uu n=5: images distinct", len(inputs), len(inputs) - 1),
        ("split-reverse uu n=5: image set", ONTO, record),
    ]


def test_missing_image_fails_image_set():
    # one input left out: its image is missing, and the domain one short
    n = 5
    entry, dyck, inputs = uu_checks(n)
    rest = inputs[1:]
    rpt = RecordingReport()
    _check_entry(rpt, replaced(entry, marks=None, domain=lambda m: rest), n, dyck)
    record = ImageRecord(0, 1, (), (entry.forward(inputs[0]),))
    assert rpt.failures == [
        ("split-reverse uu n=5: image set", ONTO, record),
        ("split-reverse uu n=5: domain size", len(rest), len(inputs)),
    ]


@pytest.mark.parametrize(
    "wrong",
    [
        "DUUDUDU",  # two steps short, though it ends at 1 and reaches -1
        "DUDUDUDUD",  # the right length, but it ends at -1
        "UDUDUDUDU",  # it ends at 1, but never goes below 0
    ],
)
def test_image_outside_the_class_fails_image_set(wrong):
    # the map and its inverse agree on the wrong image, so only the image
    # set sees it: one stray, and the path it should have been is missing
    n = 5
    entry, dyck, inputs = uu_checks(n)
    stray, hit = P(wrong), entry.forward(inputs[0])
    moved = replaced(
        entry,
        forward=lambda x: stray if x == inputs[0] else entry.forward(x),
        inverse=lambda q: inputs[0] if q == stray else entry.inverse(q),
    )
    rpt = RecordingReport()
    _check_entry(rpt, moved, n, dyck)
    assert rpt.failures == [
        ("split-reverse uu n=5: image set", ONTO, ImageRecord(1, 1, (stray,), (hit,))),
    ]


@pytest.mark.parametrize("error", [-1, 1])
def test_wrong_class_size_fails_image_set_and_domain_size(error):
    # every class path is hit once, so the record keeps the size's error as
    # its count of missing paths, and shows none of them
    n = 5
    entry, dyck, inputs = uu_checks(n)
    image = entry.image(n, dyck)
    wrong = PathClass(image.length, image.member, image.size + error)
    rpt = RecordingReport()
    _check_entry(rpt, replaced(entry, image=lambda m, d: wrong), n, dyck)
    assert rpt.failures == [
        ("split-reverse uu n=5: image set", ONTO, ImageRecord(0, error)),
        ("split-reverse uu n=5: domain size", len(inputs), len(inputs) + error),
    ]


def test_area_check_memory():
    # the area entry at n = 8 has 26,333 images; a first run fills the
    # interpreter's tuple free lists, which tracemalloc counts as held and
    # a full collection empties
    entry, n = BIJECTIONS["area"], 8
    dyck = {n: list(enumerate_dyck(n))}
    gc.collect()
    _check_entry(VerifyReport("area"), entry, n, dyck)
    tracemalloc.start()
    try:
        rpt = VerifyReport("area")
        assert _check_entry(rpt, entry, n, dyck) == (26333, 26333)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rpt.passed
    assert peak < 1_000_000


def valley_inputs(m):
    """The valley insertion's inputs on the Dyck paths of size ``m``: their
    marked up steps that end at height two or more."""
    return marked_set(list(enumerate_dyck(m)), (U,), min_end_height=2)


def verify_with_valley_inputs(monkeypatch, m, change):
    """``verify_bijections(6)`` with ``change`` applied to the valley
    insertion's inputs on the Dyck paths of size ``m``."""
    real = verify.marked_set

    def changed(paths, pattern, **filters):
        marks = real(paths, pattern, **filters)
        # the valley insertion passes a list of Dyck paths of one size; the
        # split-reverse entries pass one path at a time, in a tuple
        if type(paths) is list and marks and marks[0].path.length == 2 * m:
            return change(marks)
        return marks

    monkeypatch.setattr(verify, "marked_set", changed)
    return verify_bijections(6)


def move_valley_marks(monkeypatch, moved):
    """Make the valley insertion send each input of ``moved`` at ell = 1 to
    its value, and its inverse send that value back."""
    insert, remove = sym_valley_insert, sym_valley_remove
    back = {q: mp for mp, q in moved.items()}
    monkeypatch.setattr(
        bijections,
        "sym_valley_insert",
        lambda mp, ell: moved[mp] if ell == 1 and mp in moved else insert(mp, ell),
    )
    monkeypatch.setattr(
        bijections,
        "sym_valley_remove",
        lambda mp: (back[mp], 1) if mp in back else remove(mp),
    )


def shifted(mp):
    """``mp`` with its mark moved one step to the right."""
    return MarkedPath(mp.path, mp.mark_start + 1, mp.mark_len)


def test_valley_mark_moved_by_one_fails_image_set(monkeypatch):
    # the map and its inverse agree on a mark one step off its factor, so
    # only the image set sees it: one stray, and the mark it should have been
    inputs = valley_inputs(4)
    hit = sym_valley_insert(inputs[0], 1)
    stray = shifted(hit)
    move_valley_marks(monkeypatch, {inputs[0]: stray})
    report = verify_bijections(6)
    record = ImageRecord(1, 1, (stray,), (hit,))
    assert report.failures == [("valley insert image set n=6 ell=1", ONTO, record)]


def test_valley_repeated_input_fails_images_distinct(monkeypatch):
    # a second copy of one input in place of another, at n = 6, ell = 1
    inputs = valley_inputs(4)
    report = verify_with_valley_inputs(
        monkeypatch, 4, lambda marks: [marks[0], marks[0], *marks[2:]]
    )
    missing = sym_valley_insert(inputs[1], 1)
    assert report.failures == [
        ("valley insert images distinct n=6 ell=1", len(inputs), len(inputs) - 1),
        ("valley insert image set n=6 ell=1", ONTO, ImageRecord(0, 1, (), (missing,))),
    ]


def test_valley_missing_input_fails_image_set(monkeypatch):
    # one input left out: the marks on size 3 feed n = 5, ell = 1 and
    # n = 6, ell = 2, and the insertion has no domain size check
    inputs = valley_inputs(3)
    report = verify_with_valley_inputs(monkeypatch, 3, lambda marks: marks[1:])
    assert report.failures == [
        (
            f"valley insert image set n={n} ell={ell}",
            ONTO,
            ImageRecord(0, 1, (), (sym_valley_insert(inputs[0], ell),)),
        )
        for n, ell in [(5, 1), (6, 2)]
    ]


def test_valley_records_show_the_first_few_marks_in_order(monkeypatch):
    # every mark at n = 6, ell = 1 moved one step: the first three strays in
    # the order met, and the first three class marks from the top rank down,
    # which is U before D along the path and then the later mark first
    inputs = valley_inputs(4)
    strays = [shifted(sym_valley_insert(mp, 1)) for mp in inputs]
    move_valley_marks(monkeypatch, dict(zip(inputs, strays)))
    report = verify_bijections(6)
    marks = marked_set(list(enumerate_dyck(6)), sym_valley_pattern(1))
    top = sorted(marks, key=lambda mp: (str(mp.path), mp.mark_start), reverse=True)
    assert len(marks) == len(inputs)
    record = ImageRecord(len(inputs), len(marks), tuple(strays[:3]), tuple(top[:3]))
    assert report.failures == [("valley insert image set n=6 ell=1", ONTO, record)]


def test_missing_lowest_valley_mark_tests_each_path_once(monkeypatch):
    # the input whose mark at n = 8, ell = 1 has the lowest rank left out: the
    # scan down to it tests each 16-step path at most once, beside one test
    # of each image, and records that mark as missing
    n, ell = 8, 1
    dyck = {m: list(enumerate_dyck(m)) for m in (n - ell - 1, n)}
    marks = marked_set(dyck[n], sym_valley_pattern(ell))
    lowest = min(marks, key=lambda mp: (str(mp.path), mp.mark_start))
    dropped, _ = sym_valley_remove(lowest)
    real = verify.marked_set
    monkeypatch.setattr(
        verify, "marked_set", lambda *args, **kw: [x for x in real(*args, **kw) if x != dropped]
    )
    calls = 0

    def member(q):
        nonlocal calls
        calls += 1
        return is_dyck(q)

    monkeypatch.setattr(verify, "is_dyck", member)
    rpt = VerifyReport("valley")
    _check_valley(rpt, n, ell, dyck)
    record = ImageRecord(0, 1, (), (lowest,))
    assert rpt.failures == [(f"valley insert image set n={n} ell={ell}", ONTO, record)]
    assert calls <= 2 ** (2 * n) + len(marks) - 1


@pytest.mark.parametrize("n", [0, 4, 5])
def test_marked_class_ranks_the_enumerated_marks(n):
    # each mark of the valley factor has its own rank, which unranks to it,
    # and unranking every rank from the top down gives the marks in order
    pattern = sym_valley_pattern(1)
    marks = marked_set(list(enumerate_dyck(n)), pattern)
    image = MarkedClass(2 * n, is_dyck, len(marks), pattern)
    assert image.ranks == 2 * n * 4**n
    ranks = [image.rank(mp) for mp in marks]
    assert len(set(ranks)) == len(marks)
    assert all(0 <= r < image.ranks for r in ranks)
    assert [image.unrank(r) for r in ranks] == marks
    every = (image.unrank(r) for r in reversed(range(image.ranks)))
    top = sorted(marks, key=lambda mp: (str(mp.path), mp.mark_start), reverse=True)
    assert [q for q in every if q is not None] == top


def test_marked_class_strays():
    image = MarkedClass(8, is_dyck, 1, sym_valley_pattern(1))
    assert image.rank(MarkedPath(P("UUDDUUDD"), 1, 5)) == 0b11001100 * 8 + 1
    for stray in [
        MarkedPath(P("UUDDUUDD"), 0, 5),  # another factor
        MarkedPath(P("DUDDUUDU"), 1, 5),  # not a Dyck path
        MarkedPath(P("UUDDUUDDUD"), 1, 5),  # too long
    ]:
        assert image.rank(stray) is None, stray


def test_path_class_ranks_the_empty_path():
    image = PathClass(0, is_dyck, 1)
    assert image.ranks == 1
    assert image.rank(P("")) == 0
    assert image.unrank(0) == P("")


@pytest.mark.parametrize("length", range(11))
def test_rank_is_the_same_whether_the_text_is_kept(length):
    # a path ranks from its steps and builds no text; with its text kept or
    # not it gives one rank, or None for a stray, on every path of the
    # length, the empty path included
    every = PathClass(length, lambda q: True, 1 << length)
    classes = [PathClass(length, is_dyck, 0), PathClass(length + 1, is_dyck, 0)]
    peaks = MarkedClass(length, is_dyck, 0, (U, D))
    for steps in itertools.product((U, D), repeat=length):
        kept, fresh = Path(steps), Path(steps)
        bits = str(kept).replace("U", "1").replace("D", "0")
        assert every.rank(fresh) == every.rank(kept) == int(bits or "0", 2)
        for image in classes:
            assert image.rank(fresh) == image.rank(kept)
        for start in range(length - 1):
            mark = MarkedPath(fresh, start, 2)
            assert peaks.rank(mark) == peaks.rank(MarkedPath(kept, start, 2))
        assert fresh._text is None


def swapped(real, pairs):
    """``real`` with each argument tuple in ``pairs`` sent to its value."""
    return lambda *args: pairs[args] if args in pairs else real(*args)


def test_reverse_complement_image_stray(monkeypatch):
    # UUDD is its own reverse complement; sending it below the axis and back
    # keeps the involution, so only the image check sees the stray
    p, stray = P("UUDD"), P("UDDU")
    changed = swapped(reverse_complement, {(p,): stray, (stray,): p})
    monkeypatch.setattr(verify, "reverse_complement", changed)
    report = verify_bijections(6)
    record = ImageRecord(1, 1, (stray,), (p,))
    assert report.failures == [("reverse-complement image n=2", ONTO, record)]


def test_word_path_image_stray(monkeypatch):
    # the path of 1 2 3 sent one size up: its word is still read, but
    # neither round trip gets back
    w, p, stray = Word((1, 2, 3)), P("UUUDDD"), P("UUUDDDUD")
    monkeypatch.setattr(verify, "word_to_path", swapped(word_to_path, {(w,): stray}))
    report = verify_bijections(6)
    assert report.failures == [
        ("word/path round trips n=3", 0, 2),
        ("word/path image n=3", ONTO, ImageRecord(1, 1, (stray,), (p,))),
    ]


def test_insert_ud_image_stray(monkeypatch):
    # UD inserted before the first up step of UUDD, sent one size up
    pre, pos, p, stray = P("UUDD"), (0,), P("UDUUDD"), P("UDUUDDUD")
    changed = swapped(insert_ud, {(pre, pos): stray})
    monkeypatch.setattr(bijections, "insert_ud", changed)
    report = verify_bijections(6)
    assert report.failures == [
        ("remove/insert UD round trips n=3", 0, 1),
        ("insert/remove UD round trips n=3", 0, 1),
        ("insert UD covers Dyck n=3", ONTO, ImageRecord(1, 1, (stray,), (p,))),
    ]


def test_slot_covering_image_stray(monkeypatch):
    # UUUDDD, the one UDU-free path of size 3 with no DDU, rebuilt below the
    # axis from its peak vector, which its one slot fill also gives
    p, stray = P("UUUDDD"), P("DDDUUU")
    pairs = {(peak_decompose(p),): stray}
    monkeypatch.setattr(bijections, "peak_rebuild", swapped(peak_rebuild, pairs))
    report = verify_bijections(6)
    assert report.failures == [
        ("peak vector round trips n=3", 0, 1),
        ("slot covering image n=3 k=0", ONTO, ImageRecord(1, 1, (stray,), (p,))),
        ("slot covering multiplicity n=3 k=0", {p: 1}, {stray: 1}),
    ]


def test_valley_check_memory():
    # the marks on the 16-step Dyck paths rank into 16 * 2**16 bits, 128 KB,
    # freed after each ell; a byte per rank would hold 1 MB. A first run
    # fills the interpreter's free lists and the paths' kept text
    n = 8
    dyck = {m: list(enumerate_dyck(m)) for m in range(n + 1)}
    for ell in range(1, n - 2):
        _check_valley(VerifyReport("valley"), n, ell, dyck)
    gc.collect()
    tracemalloc.start()
    try:
        rpt = VerifyReport("valley")
        for ell in range(1, n - 2):
            _check_valley(rpt, n, ell, dyck)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rpt.passed and rpt.cases_run == 15
    assert peak < 500_000


# Each split-reverse entry's image class: the paths of 2n - c steps that end
# at height b and reach height `lowest`, for (c, b, lowest).
SPLIT_REVERSE_CLASSES = {
    "uu": (1, 1, -1),
    "udu": (2, 0, -1),
    "ddu": (2, -2, -3),
    "uuddu": (4, 2, 0),
    "high-up": (4, 2, -1),
    "high-down": (4, -2, -4),
}


def enumerated_image(name, n, dyck):
    """The image class of a ``BIJECTIONS`` entry at size ``n``, enumerated in
    lexicographic order (U before D), or None when it is empty."""
    if name == "low-path":
        return dyck[n]
    if name == "marked-unit":
        return [q for q in dyck[n + 1] if len(units(q)) >= 2]
    if name == "area":
        steps = itertools.product((U, D), repeat=2 * n)
        return [Path(s) for s in steps if sum(s) < 0]
    c, b, lowest = SPLIT_REVERSE_CLASSES[name]
    a = 2 * n - c
    if a < abs(b):
        return None
    return [q for q in enumerate_lattice(a, b) if q.min_height <= lowest]


def test_split_reverse_classes_cover_the_table():
    assert set(SPLIT_REVERSE_CLASSES) | {"low-path", "marked-unit", "area"} == set(
        BIJECTIONS
    )


@pytest.mark.parametrize("name", list(BIJECTIONS))
def test_image_sizes_match_the_enumerated_classes(monkeypatch, name):
    # the suite checks these sizes against closed forms, so they are counted
    # without them
    def closed_form(*args):
        raise AssertionError("an image class size read formulas")

    for attr in ("binomial", "catalan", "closed_total", "closed_totals"):
        monkeypatch.setattr(formulas, attr, closed_form)
    entry = BIJECTIONS[name]
    dyck = {m: list(enumerate_dyck(m)) for m in range(10)}
    for n in entry.sizes(8):
        expected = enumerated_image(name, n, dyck)
        image = entry.image(n, dyck)
        if expected is None:
            assert image is None, n
        else:
            assert image.size == len(expected), n


@pytest.mark.parametrize("name", list(BIJECTIONS))
def test_class_members_are_the_enumerated_class(name):
    # every path of the class length, in order (U before D), through the
    # member predicate
    entry = BIJECTIONS[name]
    dyck = {m: list(enumerate_dyck(m)) for m in range(8)}
    for n in entry.sizes(6):
        image = entry.image(n, dyck)
        if image is None:
            continue
        every = itertools.product((U, D), repeat=image.length)
        members = [q for q in map(Path, every) if image.member(q)]
        assert members == enumerated_image(name, n, dyck), n


def test_bijection_check_descriptions_pinned(monkeypatch):
    # the 481 check descriptions of verify_bijections(8), in order
    descriptions = []
    check = VerifyReport.check

    def recording(self, description, expected, got):
        descriptions.append(description)
        check(self, description, expected, got)

    monkeypatch.setattr(VerifyReport, "check", recording)
    report = verify_bijections(8)
    assert report.passed, report.to_text()
    assert len(descriptions) == 481
    digest = hashlib.sha256("\n".join(descriptions).encode()).hexdigest()
    assert digest == (
        "1e7f310d851c1c34e26aa22f996ce1d4daa3eb66b39eb0b4a9ee39dee0140277"
    )
