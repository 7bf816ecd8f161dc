"""Exhaustive verification suites over small sizes.

Each suite enumerates an entire domain, recomputes both sides of a claim
(map image vs. characterization, enumerated total vs. closed form,
histogram vs. distribution), and reports mismatches. The command line
front end prints these reports; the test suite asserts they are clean.
"""

import itertools
import random
import time
from collections import Counter
from collections.abc import Callable, Iterable, Sequence

from . import bijections as bij
from . import formulas
from .limits import SUITE_CAPS
from .path_classes import PathClass, check_onto, walk_counts
from .paths import (
    D,
    U,
    MarkedPath,
    Path,
    _unchecked_path,
    _Value,
    count_factor,
    ddu_udu_counts,
    enumerate_dyck,
    enumerate_lattice,
    factor_occurrences,
    is_dyck,
    reverse_complement,
    units,
)
from .words import (
    ADJACENCY_INCREMENTS,
    StatId,
    StatKind,
    Word,
    asc_des_lev,
    brute_total,
    count_histogram,
    enumerate_catalan,
    path_to_word,
    stat_value,
    word_to_path,
)


class VerifyReport(_Value, frozen=False):
    __match_args__ = ("suite", "cases_run", "failures", "elapsed")

    def __init__(
        self,
        suite: str,
        cases_run: int = 0,
        failures: list[tuple[str, object, object]] | None = None,
        elapsed: float = 0.0,
    ):
        self.suite = suite
        self.cases_run = cases_run
        self.failures = [] if failures is None else failures
        self.elapsed = elapsed

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, description: str, expected, got) -> None:
        self.cases_run += 1
        if expected != got:
            self.failures.append((description, expected, got))

    def to_text(self) -> str:
        lines = [
            f"suite {self.suite}: {self.cases_run} checks, "
            f"{len(self.failures)} failures, {self.elapsed:.2f}s"
        ]
        for desc, expected, got in self.failures[:50]:
            lines.append(f"  FAIL {desc}: expected {expected}, got {got}")
        if len(self.failures) > 50:
            lines.append(f"  ... and {len(self.failures) - 50} more")
        return "\n".join(lines)


def marked_set(
    paths: Iterable[Path],
    pattern: Sequence[int],
    *,
    min_end_height: int | None = None,
) -> list[MarkedPath]:
    """All marked occurrences of a factor across a family of paths."""
    pattern = tuple(pattern)
    out = []
    for p in paths:
        for i in factor_occurrences(p, pattern, min_end_height=min_end_height):
            out.append(MarkedPath(p, i, len(pattern)))
    return out


# Path-side count of each marked factor, read by the transport suite (against
# stat_value) and by the marked-set cardinalities (against binomials).
FACTOR_COUNTS: dict[str, Callable[[Path], int]] = {
    "uu": lambda p: count_factor(p, (U, U)),
    "ddu": lambda p: count_factor(p, (D, D, U)),
    "udu": lambda p: count_factor(p, (U, D, U)),
    "uuddu": lambda p: count_factor(p, (U, U, D, D, U)),
    "uudd non-terminal": lambda p: count_factor(p, (U, U, D, D), terminal=False),
    # the paper's U D^j U U for j >= 2: on a Dyck path every run of D steps
    # follows a U, so each D D U U ends exactly one of them
    "deep-valley": lambda p: count_factor(p, (D, D, U, U)),
}


def negative_final_paths(n: int) -> list[Path]:
    """All length-2n up/down paths with negative final height, in order (U
    before D): the area map's image class written out. The bijection suite
    checks that map against ``PathClass`` instead and never builds this list."""
    steps = itertools.product((U, D), repeat=2 * n)
    return [_unchecked_path(s) for s in steps if sum(s) < 0]


class Bijection(_Value):
    """A map that the bijection suite and the random round trips both check.

    ``label`` is a template over ``n``, run at the sizes ``sizes(n_max)``.
    ``image(n, dyck)`` is the ``PathClass`` the map should be onto, or
    ``None`` when its endpoint class is empty; it may count the class over
    the Dyck paths ``dyck``, never through the map. Inputs that are marks on
    Dyck paths come from ``marks(p)``, over ``dyck[n - shift]`` or on
    ``random_dyck_path(n)``; other inputs come from ``domain(n)`` and
    ``draw_input(n, rng)``.
    """

    __match_args__ = __slots__ = (
        "label", "sizes", "forward", "inverse", "image",
        "marks", "shift", "domain", "draw_input",
    )

    def __init__(
        self,
        label: str,
        sizes: Callable[[int], range],
        forward: Callable,
        inverse: Callable,
        image: Callable[[int, dict[int, list[Path]]], PathClass | None],
        marks: Callable[[Path], list] | None = None,
        shift: int = 0,
        domain: Callable[[int], list] | None = None,
        draw_input: Callable[[int, random.Random], object] | None = None,
    ):
        self._set("label", label)
        self._set("sizes", sizes)
        self._set("forward", forward)
        self._set("inverse", inverse)
        self._set("image", image)
        self._set("marks", marks)
        self._set("shift", shift)
        self._set("domain", domain)
        self._set("draw_input", draw_input)

    def inputs(self, n: int, dyck: dict[int, list[Path]]) -> list:
        return list(self._stream(n, dyck))

    def _stream(self, n: int, dyck: dict[int, list[Path]]) -> Iterable:
        """The inputs at size ``n``; a mark is made when it is read."""
        if self.marks is None:
            return self.domain(n)
        return (x for p in dyck[n - self.shift] for x in self.marks(p))

    def draw(self, n: int, rng: random.Random):
        """One random input, or None when the drawn path carries no mark."""
        if self.marks is None:
            return self.draw_input(n, rng)
        choices = self.marks(bij.random_dyck_path(n, rng))
        return rng.choice(choices) if choices else None


def _split_reverse(name, pattern, survivor, end, lowest, shift=0, **filters):
    """Marks of ``pattern`` against the image paths that reach ``lowest``.

    The image paths have 2n - c steps and end at height b, for (c, b) = end;
    those that reach ``lowest`` are all of them but the ones kept above it.
    """

    def image(n: int, dyck) -> PathClass | None:
        a, b = 2 * n - end[0], end[1]
        if a < abs(b):
            return None
        size = walk_counts(a)[b] - walk_counts(a, lowest + 1)[b]
        return PathClass(
            a, lambda q: q.final_height == b and q.min_height <= lowest, size
        )

    return Bijection(
        label=f"split-reverse {name} n={{n}}",
        sizes=lambda n_max: range(2, n_max + 1),
        forward=lambda mp: bij.split_reverse(mp, survivor),
        inverse=lambda q: bij.split_reverse_inverse(q, pattern, survivor),
        image=image,
        marks=lambda p: marked_set((p,), pattern, **filters),
        shift=shift,
    )


def _has_two_units(q: Path) -> bool:
    return is_dyck(q) and len(units(q)) >= 2


BIJECTIONS: dict[str, Bijection] = {
    # balanced paths staying above level -2 match Dyck paths one size up
    "low-path": Bijection(
        label="low-path map n={n}",
        sizes=lambda n_max: range(1, n_max + 1),
        forward=bij.low_path_to_dyck,
        inverse=bij.dyck_to_low_path,
        image=lambda n, dyck: PathClass(2 * n, is_dyck, len(dyck[n])),
        domain=lambda n: [
            p for p in enumerate_lattice(2 * n - 2, 0) if p.min_height >= -1
        ],
        draw_input=lambda n, rng: bij.dyck_to_low_path(bij.random_dyck_path(n, rng)),
    ),
    # marking a unit corresponds to multi-unit paths one size up
    "marked-unit": Bijection(
        label="marked-unit lift m={n}",
        sizes=lambda n_max: range(1, n_max),
        forward=lambda mark: bij.lift_marked_unit(*mark),
        inverse=bij.drop_marked_unit,
        image=lambda m, dyck: PathClass(
            2 * m + 2, _has_two_units, sum(map(_has_two_units, dyck[m + 1]))
        ),
        marks=lambda p: [(p, idx) for idx in range(1, len(units(p)) + 1)],
    ),
    # a marked factor shrinks to one surviving step between the
    # reverse-complemented sides; high marks sit on paths two sizes smaller
    "uu": _split_reverse("uu", (U, U), D, (1, 1), -1),
    "udu": _split_reverse("udu", (U, D, U), D, (2, 0), -1),
    "ddu": _split_reverse("ddu", (D, D, U), D, (2, -2), -3),
    "uuddu": _split_reverse("uuddu", (U, U, D, D, U), U, (4, 2), 0),
    "high-up": _split_reverse("high-up", (U,), U, (4, 2), -1, 2, min_end_height=2),
    "high-down": _split_reverse("high-down", (D,), D, (4, -2), -4, 2, min_end_height=2),
    # area marks against negative-ending paths of the same length
    "area": Bijection(
        label="area map n={n}",
        sizes=lambda n_max: range(1, min(n_max, 8) + 1),
        forward=bij.area_mark_encode,
        inverse=bij.area_mark_decode,
        image=lambda n, dyck: PathClass(
            2 * n,
            lambda q: q.final_height < 0,
            sum(count for h, count in walk_counts(2 * n).items() if h < 0),
        ),
        marks=lambda p: [
            bij._area_mark(p, idx, j)  # valid by construction: p is Dyck
            for idx, (s, h) in enumerate(zip(p.steps, p.height_profile))
            if s == U
            for j in range(h)
        ],
    ),
}


def verify_bijections(n_max: int = 8) -> VerifyReport:
    rpt = VerifyReport("bijections")
    start = time.perf_counter()
    dyck = {n: list(enumerate_dyck(n)) for n in range(n_max + 1)}
    C = formulas.catalan
    B = formulas.binomial

    def closed(n: int, stat: str) -> int:
        return formulas.closed_total(n, StatId.parse(stat))

    for n in range(n_max + 1):
        # reverse-complement is an involution fixing the Dyck class; the image
        # check rejects any non-Dyck image
        rc = [reverse_complement(p) for p in dyck[n]]
        rc_bad = sum(reverse_complement(q) != p for p, q in zip(dyck[n], rc))
        rpt.check(f"reverse-complement involution on Dyck n={n}", 0, rc_bad)
        rpt.check(f"reverse-complement image n={n}", set(dyck[n]), set(rc))
    del rc  # free the last images before the larger domains below

    for n in range(n_max + 1):
        # word/path conversion round trips both ways
        ws = list(enumerate_catalan(n))
        images = [word_to_path(w) for w in ws]
        errors = sum(path_to_word(p) != w for w, p in zip(ws, images))
        errors += sum(word_to_path(path_to_word(p)) != p for p in dyck[n])
        rpt.check(f"word/path round trips n={n}", 0, errors)
        rpt.check(f"word/path image n={n}", set(dyck[n]), set(images))
    del ws, images  # free the largest words and images, as rc above

    sizes = {}  # (entry name, n) -> numbers of inputs and of image class paths
    for name, entry in BIJECTIONS.items():
        for n in entry.sizes(n_max):
            sizes[name, n] = _check_entry(rpt, entry, n, dyck)

    for n in range(4, n_max + 1):
        # inserting the valley factor after high up steps hits every occurrence
        for ell in range(1, n - 2):
            _check_map(
                rpt,
                f"valley insert {{}} n={n} ell={ell}",
                (
                    (mp, ell)
                    for mp in marked_set(dyck[n - ell - 1], (U,), min_end_height=2)
                ),
                lambda x: bij.sym_valley_insert(*x),
                bij.sym_valley_remove,
                marked_set(dyck[n], bij.sym_valley_pattern(ell)),
            )

    # the (ddu, udu) counts of every Dyck path, read by the next two blocks
    profiles = {p: ddu_udu_counts(p) for m in range(n_max + 1) for p in dyck[m]}
    for n in range(1, n_max + 1):
        # run-length vectors of UDU-free paths and the slot-fill covering
        by_k: dict[int, list[Path]] = {}
        for p in dyck[n]:
            k, j = profiles[p]
            if j == 0:
                by_k.setdefault(k, []).append(p)
        errors = 0
        for k, paths in by_k.items():
            for p in paths:
                pv = bij.peak_decompose(p)
                if bij.peak_rebuild(pv) != p or pv.k != k:
                    errors += 1
        rpt.check(f"peak vector round trips n={n}", 0, errors)
        for k in range((n - 1) // 2 + 1):
            hits: dict[Path, int] = {}
            for ys in _weak_compositions(n - k - 1, k + 1):
                for zs in _positive_compositions(n - k, k + 1):
                    pv = bij.peak_vector_from_slots(list(zip(ys, zs)))
                    hits_path = bij.peak_rebuild(pv)
                    hits[hits_path] = hits.get(hits_path, 0) + 1
            expected_paths = set(by_k.get(k, []))
            rpt.check(f"slot covering image n={n} k={k}", expected_paths, set(hits))
            rpt.check(
                f"slot covering multiplicity n={n} k={k}",
                {p: k + 1 for p in expected_paths},
                hits,
            )

    for n in range(1, n_max + 1):
        # stripping UD factors inverts inserting them, and vice versa
        errors = 0
        for p in dyck[n]:
            pre, pos = bij.remove_ud(p)
            k, j = profiles[p]
            # a precursor that is not a Dyck path has no profile
            if (
                profiles.get(pre) != (k, 0)
                or len(pos) != j
                or bij.insert_ud(pre, pos) != p
            ):
                errors += 1
        rpt.check(f"remove/insert UD round trips n={n}", 0, errors)
        forward_errors = 0
        seen: set[Path] = set()
        for j in range(n):
            m = n - j
            for pre in dyck[m]:
                if profiles[pre][1] != 0:
                    continue
                for pos in itertools.combinations_with_replacement(range(m), j):
                    q = bij.insert_ud(pre, pos)
                    seen.add(q)
                    if bij.remove_ud(q) != (pre, tuple(sorted(pos))):
                        forward_errors += 1
        rpt.check(f"insert/remove UD round trips n={n}", 0, forward_errors)
        rpt.check(f"insert UD covers Dyck n={n}", set(dyck[n]), seen)
        del seen  # freed here, not after the loop, which n_max = 0 skips

    for a, b, level in [(6, 0, -1), (6, 0, -2), (7, 1, -1), (6, -2, -3), (8, 2, -1)]:
        # reflection principle: touching paths match the reflected endpoint class
        touching = [
            p for p in enumerate_lattice(a, b) if level in (0,) + p.height_profile
        ]
        reflected = [bij.reflect_after_touch(p, level) for p in touching]
        errors = sum(
            q.final_height != 2 * level - b or bij.reflect_after_touch(q, level) != p
            for p, q in zip(touching, reflected)
        )
        rpt.check(f"reflection involution a={a} b={b} level={level}", 0, errors)
        rpt.check(
            f"reflection count a={a} b={b} level={level}",
            B(a, (a - (2 * level - b)) // 2),
            len(touching),
        )

    for n in range(2, n_max + 1):
        # last-passage classification partitions the endpoint class
        blocks: dict[tuple[str, int | None], int] = {}
        for lam in enumerate_lattice(2 * n - 1, 1):
            kind, i = bij.last_passage_class(lam)
            blocks[(kind, i)] = blocks.get((kind, i), 0) + 1
        expected_blocks: dict[tuple[str, int | None], int] = {("exceptional", None): 1}
        for i in range(1, n):
            expected_blocks[("through-two", i)] = B(2 * i, i - 1)
            expected_blocks[("through-minus-one", i)] = B(2 * i - 1, i)
        expected_blocks = {k: v for k, v in expected_blocks.items() if v}
        rpt.check(f"last-passage blocks n={n}", expected_blocks, blocks)

    for length in range(1, 6):
        # cycle lemma: exactly one rotation has all-positive partial sums
        for vals in itertools.product(range(-2, 3), repeat=length):
            if sum(vals) != 1:
                continue
            valid = [
                r
                for r in range(1, length + 1)
                if min(itertools.accumulate(vals[r - 1 :] + vals[: r - 1])) > 0
            ]
            if valid != [bij.raney_shift(vals)]:
                rpt.check(f"raney uniqueness {vals}", [bij.raney_shift(vals)], valid)
        rpt.check(f"raney uniqueness scanned length {length}", True, True)

    for n in range(1, n_max + 1):
        # marked-set cardinalities against their closed forms
        paths = dyck[n]
        counts = {name: sum(map(f, paths)) for name, f in FACTOR_COUNTS.items()}
        expected_counts = {
            "uu": B(2 * n - 1, n - 2),
            "ddu": closed(n, "corner-dh"),
            "udu": B(2 * n - 2, n - 2),
            "uuddu": closed(n, "sym-peak:1"),
            "uudd non-terminal": closed(n, "ell-peak:1"),
            "deep-valley": closed(n, "ell-valley:1"),
        }
        rpt.check(f"marked factor counts n={n}", expected_counts, counts)
        high_ups = len(marked_set(paths, (U,), min_end_height=2))
        rpt.check(
            f"high up marks n={n}", n * C(n) - (C(n + 1) - C(n)), high_ups
        )
        # the balanced paths that go below -1 are those the low-path map skips
        deep = walk_counts(2 * n - 2)[0] - sizes["low-path", n][0]
        rpt.check(f"deep balanced paths n={n}", B(2 * n - 2, n - 3), deep)
        quadrant = walk_counts(2 * n - 1, 0)[1]
        rpt.check(f"first-quadrant endpoint-1 paths n={n}", C(n), quadrant)
    for m in range(1, n_max):
        multi_unit = sizes["marked-unit", m][1]
        rpt.check(f"marked-unit image count m={m}", C(m + 1) - C(m), multi_unit)
    for n in range(1, min(n_max, 8) + 1):
        area = closed(n, "area")
        rpt.check(f"negative-final path count n={n}", area, sizes["area", n][1])
        phi_total = sum(
            h for p in dyck[n] for s, h in zip(p.steps, p.height_profile) if s == U
        )
        rpt.check(f"up-step height total n={n}", area, phi_total)

    rpt.elapsed = time.perf_counter() - start
    return rpt


def _check_map(rpt, label, domain, forward, inverse, expected) -> tuple[int, int]:
    """Check in one pass that ``forward`` maps ``domain`` one to one onto
    the paths of ``expected`` and that ``inverse`` maps each image back.

    ``label`` names the checks, with ``{}`` for the name of each. ``domain``
    is read once, so it may be a generator. An image equal to an expected
    path is kept as that path, and the expected set is copied only when the
    images differ from it, so no path is held twice. Returns the numbers of
    inputs and of distinct expected paths.
    """
    canonical = {p: p for p in expected}
    images = set()
    errors = count = 0
    for x in domain:
        q = forward(x)
        images.add(canonical.get(q, q))
        errors += inverse(q) != x
        count += 1
    rpt.check(label.format("images distinct"), count, len(images))
    expected_set = images if images == canonical.keys() else set(canonical)
    rpt.check(label.format("image set"), expected_set, images)
    rpt.check(label.format("round trips"), 0, errors)
    return count, len(canonical)


def _check_entry(rpt, entry: Bijection, n: int, dyck) -> tuple[int, int]:
    """Check one ``BIJECTIONS`` entry at size ``n`` against its image class;
    return the numbers of its inputs and of the paths in that class."""
    label = entry.label.format(n=n)
    domain = entry._stream(n, dyck)
    image = entry.image(n, dyck)
    if image is None:
        rpt.check(f"{label}: empty domain", 0, sum(1 for _ in domain))
        return 0, 0
    count = check_onto(
        rpt, label + ": {}", domain, entry.forward, entry.inverse, image
    )
    return count, image.size


def _weak_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def _positive_compositions(total: int, parts: int):
    for comp in _weak_compositions(total - parts, parts):
        yield tuple(c + 1 for c in comp)


def _transport_sides(w: Word) -> dict[str, tuple[int, int]]:
    """Each statistic of one word beside its counterpart on the word's path."""
    p = word_to_path(w)
    n = len(w)
    asc, des, lev = asc_des_lev(w)
    factors = {name: count(p) for name, count in FACTOR_COUNTS.items()}

    def stat(kind: StatKind, ell: int | None = None) -> int:
        return stat_value(w, StatId(kind, ell))

    return {
        "asc+des+lev": (n - 1, asc + des + lev),
        **{
            f"sym-valley ell={ell}": (
                stat(StatKind.SYM_VALLEY, ell),
                count_factor(p, bij.sym_valley_pattern(ell)),
            )
            for ell in range(1, n + 1)
        },
        "ell-valley 1": (stat(StatKind.ELL_VALLEY, 1), factors["deep-valley"]),
        "sym-peak 1": (stat(StatKind.SYM_PEAK, 1), factors["uuddu"]),
        "ell-peak 1": (stat(StatKind.ELL_PEAK, 1), factors["uudd non-terminal"]),
        "descents as DDU": (des, factors["ddu"]),
        "runs of descents": (
            stat(StatKind.RUNS_DESC),
            1 + factors["uu"] + factors["udu"],
        ),
        "runs of weak ascents": (stat(StatKind.RUNS_WEAK_ASC), 1 + des),
        "runs of ascents": (stat(StatKind.RUNS_ASC), 1 + des + lev),
        "runs of weak descents": (stat(StatKind.RUNS_WEAK_DESC), 1 + asc),
        "semi-perimeter": (stat(StatKind.SEMI), n + 1 + asc),
        "hu corners": (stat(StatKind.CORNER_HU), asc),
        "dh corners": (stat(StatKind.CORNER_DH), des),
        "area as up-step heights": (
            stat(StatKind.AREA),
            sum(h for s, h in zip(p.steps, p.height_profile) if s == U),
        ),
    }


def verify_transport(n_max: int = 9) -> VerifyReport:
    """Word statistics against their factor counterparts on the path side."""
    rpt = VerifyReport("transport")
    start = time.perf_counter()
    for n in range(1, n_max + 1):
        mismatches: Counter[str] = Counter()
        for w in enumerate_catalan(n):
            sides = _transport_sides(w)
            mismatches.update(name for name, (a, b) in sides.items() if a != b)
        rpt.check(f"transport n={n}", {}, dict(mismatches))
    for n in range(5, n_max + 1):
        # adding copies of the middle letter shifts ell without changing counts
        for ell in range(2, n - 3):
            for kind in (StatKind.ELL_VALLEY, StatKind.ELL_PEAK, StatKind.SYM_PEAK, StatKind.SYM_VALLEY):
                rpt.check(
                    f"ell shift {kind.value} n={n} ell={ell}",
                    brute_total(n - ell + 1, StatId(kind, 1)),
                    brute_total(n, StatId(kind, ell)),
                )
    rpt.elapsed = time.perf_counter() - start
    return rpt


def verify_distributions(n_max: int = 10) -> VerifyReport:
    rpt = VerifyReport("distributions")
    start = time.perf_counter()
    adjacency = [StatId(kind) for kind in ADJACENCY_INCREMENTS]
    for n in range(1, n_max + 1):
        hists: dict[StatId, dict[int, int]] = {s: {} for s in adjacency}
        for w in enumerate_catalan(n):
            for s, hist in hists.items():
                k = stat_value(w, s)
                hist[k] = hist.get(k, 0) + 1
        runs_asc = hists[StatId(StatKind.RUNS_ASC)]
        runs_weak_desc = hists[StatId(StatKind.RUNS_WEAK_DESC)]
        narayana_row = {
            k: formulas.narayana(n, k)
            for k in range(1, n + 1)
            if formulas.narayana(n, k)
        }
        rpt.check(f"runs of ascents histogram n={n}", narayana_row, runs_asc)
        rpt.check(
            f"runs of weak descents histogram n={n}", narayana_row, runs_weak_desc
        )
        peaks: dict[int, int] = {}
        for p in enumerate_dyck(n):
            k = count_factor(p, (U, D))
            peaks[k] = peaks.get(k, 0) + 1
        rpt.check(f"peak histogram n={n}", narayana_row, peaks)
        rpt.check(
            f"narayana row sum n={n}",
            formulas.catalan(n),
            sum(narayana_row.values()),
        )
        rpt.check(
            f"narayana symmetry n={n}",
            [formulas.narayana(n, k) for k in range(1, n + 1)],
            [formulas.narayana(n, n + 1 - k) for k in range(1, n + 1)],
        )
        for s, hist in hists.items():
            rpt.check(f"{s} histogram count n={n}", hist, count_histogram(n, s.kind))
    rpt.elapsed = time.perf_counter() - start
    return rpt


def verify_identities(n_max: int = 300) -> VerifyReport:
    rpt = VerifyReport("identities")
    start = time.perf_counter()
    for ident, entry in formulas.IDENTITIES.items():
        for n in range(entry.floor, n_max + 1):
            for k in entry.ks(n) if entry.ks else (None,):
                res = formulas.identity_check(ident, n, k)
                label = f"{ident.value} n={n}" + ("" if k is None else f" k={k}")
                rpt.check(label, res.lhs, res.rhs)
    rpt.elapsed = time.perf_counter() - start
    return rpt


def run_suite(name: str, n_max: int | None = None) -> list[VerifyReport]:
    """Run one named suite, or all of them.

    Without ``n_max`` each suite runs at its cap. With ``n_max``, which must
    be nonnegative, a single suite must stay at or below its cap; for ``all``
    the bound is clipped to each suite's cap.
    """
    if n_max is not None and n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    suites = {
        "bijections": verify_bijections,
        "transport": verify_transport,
        "distributions": verify_distributions,
        "identities": verify_identities,
    }
    if name == "all":
        return [
            fn(SUITE_CAPS[key] if n_max is None else min(n_max, SUITE_CAPS[key]))
            for key, fn in suites.items()
        ]
    if name not in suites:
        raise ValueError(f"unknown suite {name!r}")
    cap = SUITE_CAPS[name]
    limit = cap if n_max is None else n_max
    if limit > cap:
        raise ValueError(f"suite {name} caps at n_max={cap}, got {limit}")
    return [suites[name](limit)]
