"""Verification suites over small sizes.

Each suite recomputes both sides of a claim (map image vs. characterization,
enumerated total vs. closed form, histogram vs. distribution) and reports
mismatches. Most enumerate a whole domain; the identity sweep to n = 300 and
the transport suite's ell shift do not. The command line front end prints
these reports; the test suite asserts they are clean.
"""

import itertools
import random
import time
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence

from . import bijections as bij
from . import formulas
from .limits import SUITE_CAPS
from .path_classes import MarkedClass, PathClass, check_image, check_onto, walk_counts
from .paths import (
    D,
    FACTORS,
    U,
    Factor,
    MarkedPath,
    Path,
    _unchecked_path,
    count_factor,
    ddu_udu_counts,
    enumerate_dyck,
    enumerate_lattice,
    is_dyck,
    reverse_complement,
    units,
)
from .values import _Value
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
    paths: Iterable[Path], pattern: Sequence[int], *, min_end_height: int | None = None
) -> list[MarkedPath]:
    """All marked occurrences of a factor across a family of paths."""
    marks = Factor(tuple(pattern), min_end_height).marks
    return [mp for p in paths for mp in marks(p)]


# The path-side counts of FACTORS read by TRANSPORT (against stat_value) and
# by the marked-set cardinalities (against closed forms).
FACTOR_COUNTS: dict[str, Callable[[Path], int]] = {
    name: FACTORS[name].count
    for name in ("uu", "ddu", "udu", "uuddu", "uudd non-terminal", "deep-valley")
}


def _up_steps(p: Path) -> Iterator[tuple[int, int]]:
    """The index of each up step of ``p`` and the height it ends at."""
    return ((i, h) for i, (s, h) in enumerate(zip(p.steps, p.height_profile)) if s == U)


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
    _defaults = {"marks": None, "shift": 0, "domain": None, "draw_input": None}

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


def _split_reverse(name, survivor, end, lowest, shift=0):
    """Marks of ``FACTORS[name]`` against the image paths that reach ``lowest``.

    The image paths have 2n - c steps and end at height b, for (c, b) = end;
    those that reach ``lowest`` are all of them but the ones kept above it.
    """

    def image(n: int, dyck) -> PathClass | None:
        a, b = 2 * n - end[0], end[1]
        if a < abs(b):
            return None
        size = walk_counts(a)[b] - walk_counts(a, lowest + 1)[b]
        return PathClass(a, lambda q: q.final_height == b and q.min_height <= lowest, size)

    factor = FACTORS[name]
    return Bijection(
        label=f"split-reverse {name} n={{n}}",
        sizes=lambda n_max: range(2, n_max + 1),
        forward=lambda mp: bij.split_reverse(mp, survivor),
        inverse=lambda q: bij.split_reverse_inverse(q, factor.steps, survivor),
        image=image,
        marks=factor.marks,
        shift=shift,
    )


def _has_two_units(q: Path) -> bool:
    return is_dyck(q) and len(units(q)) >= 2


def _dyck_class(n: int) -> PathClass:
    """The Dyck paths of 2n steps, counted over their heights."""
    return PathClass(2 * n, is_dyck, walk_counts(2 * n, 0)[0])


BIJECTIONS: dict[str, Bijection] = {
    # balanced paths staying above level -2 match Dyck paths one size up
    "low-path": Bijection(
        label="low-path map n={n}",
        sizes=lambda n_max: range(1, n_max + 1),
        forward=bij.low_path_to_dyck,
        inverse=bij.dyck_to_low_path,
        image=lambda n, dyck: _dyck_class(n),
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
    "uu": _split_reverse("uu", D, (1, 1), -1),
    "udu": _split_reverse("udu", D, (2, 0), -1),
    "ddu": _split_reverse("ddu", D, (2, -2), -3),
    "uuddu": _split_reverse("uuddu", U, (4, 2), 0),
    "high-up": _split_reverse("high-up", U, (4, 2), -1, 2),
    "high-down": _split_reverse("high-down", D, (4, -2), -4, 2),
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
            for idx, h in _up_steps(p)
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
        check_image(rpt, f"reverse-complement image n={n}", rc, _dyck_class(n))
    del rc  # free the last images before the larger domains below

    for n in range(n_max + 1):
        # word/path conversion round trips both ways
        ws = list(enumerate_catalan(n))
        images = [word_to_path(w) for w in ws]
        errors = sum(path_to_word(p) != w for w, p in zip(ws, images))
        errors += sum(word_to_path(path_to_word(p)) != p for p in dyck[n])
        rpt.check(f"word/path round trips n={n}", 0, errors)
        check_image(rpt, f"word/path image n={n}", images, _dyck_class(n))
    del ws, images  # free the largest words and images, as rc above

    sizes = {}  # (entry name, n) -> numbers of inputs and of image class paths
    for name, entry in BIJECTIONS.items():
        for n in entry.sizes(n_max):
            sizes[name, n] = _check_entry(rpt, entry, n, dyck)

    for n in range(4, n_max + 1):
        # inserting the valley factor after high up steps hits every occurrence
        for ell in range(1, n - 2):
            _check_valley(rpt, n, ell, dyck)

    # the (ddu, udu) counts of every Dyck path, read by the next two blocks
    profiles = {p: ddu_udu_counts(p) for m in range(n_max + 1) for p in dyck[m]}
    for n in range(1, n_max + 1):
        # run-length vectors of UDU-free paths and the slot-fill covering
        by_k: dict[int, list[Path]] = {}
        errors = 0
        for p in dyck[n]:
            k, j = profiles[p]
            if j == 0:
                by_k.setdefault(k, []).append(p)
                pv = bij.peak_decompose(p)
                errors += bij.peak_rebuild(pv) != p or pv.k != k
        rpt.check(f"peak vector round trips n={n}", 0, errors)
        for k in range((n - 1) // 2 + 1):
            hits = Counter(
                bij.peak_rebuild(bij.peak_vector_from_slots(list(zip(ys, zs))))
                for ys, zs in itertools.product(
                    _compositions(n - k - 1, k + 1, 0), _compositions(n - k, k + 1, 1)
                )
            )
            paths = by_k.get(k, [])
            slots = PathClass(2 * n, lambda q: profiles.get(q) == (k, 0), len(paths))
            check_image(rpt, f"slot covering image n={n} k={k}", hits, slots)
            expected = dict.fromkeys(paths, k + 1)
            rpt.check(f"slot covering multiplicity n={n} k={k}", expected, dict(hits))

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
        built = {
            (pre, pos): bij.insert_ud(pre, pos)
            for j in range(n)
            for pre in dyck[n - j]
            if profiles[pre][1] == 0
            for pos in itertools.combinations_with_replacement(range(n - j), j)
        }
        errors = sum(bij.remove_ud(q) != x for x, q in built.items())
        rpt.check(f"insert/remove UD round trips n={n}", 0, errors)
        check_image(rpt, f"insert UD covers Dyck n={n}", built.values(), _dyck_class(n))
        del built  # freed here, not after the loop, which n_max = 0 skips

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
        scanned = unique = 0
        for vals in itertools.product(range(-2, 3), repeat=length):
            if sum(vals) != 1:
                continue
            valid = [
                r
                for r in range(1, length + 1)
                if min(itertools.accumulate(vals[r - 1 :] + vals[: r - 1])) > 0
            ]
            scanned += 1
            if valid == [bij.raney_shift(vals)]:
                unique += 1
            else:
                rpt.check(f"raney uniqueness {vals}", [bij.raney_shift(vals)], valid)
        rpt.check(f"raney uniqueness scanned length {length}", scanned, unique)

    # the statistic of each TRANSPORT line whose count is one factor alone
    counted = {
        t[0]: s for s, t in TRANSPORT.values() if len(t) == 1 and t[0] in FACTOR_COUNTS
    }
    for n in range(1, n_max + 1):
        # marked-set cardinalities against their closed forms
        paths = dyck[n]
        counts = {name: sum(map(f, paths)) for name, f in FACTOR_COUNTS.items()}
        expected_counts = {f: formulas.closed_total(n, s) for f, s in counted.items()}
        expected_counts.update(uu=B(2 * n - 1, n - 2), udu=B(2 * n - 2, n - 2))
        rpt.check(f"marked factor counts n={n}", expected_counts, counts)
        # the valley insertion maps these marks onto the ell = 1 valleys of size n + 2
        high_ups = sum(map(FACTORS["high-up"].count, paths))
        rpt.check(f"high up marks n={n}", closed(n + 2, "sym-valley:1"), high_ups)
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
        phi_total = sum(h for p in dyck[n] for _, h in _up_steps(p))
        rpt.check(f"up-step height total n={n}", area, phi_total)

    rpt.elapsed = time.perf_counter() - start
    return rpt


def _check_valley(rpt, n: int, ell: int, dyck) -> None:
    """Check that inserting the valley factor of ``ell`` after high up steps
    hits each of its occurrences on the Dyck paths of size ``n`` once."""
    pattern = bij.sym_valley_pattern(ell)
    size = sum(count_factor(p, pattern) for p in dyck[n])
    high = FACTORS["high-up"]
    inputs = marked_set(dyck[n - ell - 1], high.steps, min_end_height=high.min_end_height)
    check_onto(
        rpt,
        f"valley insert {{}} n={n} ell={ell}",
        ((mp, ell) for mp in inputs),
        lambda x: bij.sym_valley_insert(*x),
        bij.sym_valley_remove,
        MarkedClass(2 * n, is_dyck, size, pattern),
    )


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
    rpt.check(f"{label}: domain size", count, image.size)
    return count, image.size


def _compositions(total: int, parts: int, least: int) -> list[tuple[int, ...]]:
    """The ways to write ``total`` as ``parts`` ordered parts of ``least`` or more."""
    cells = itertools.product(range(least, total + 1), repeat=parts)
    return [c for c in cells if sum(c) == total]


# The word/path transport: on each Catalan word of length n, a line's statistic
# (a StatId, or "n") equals the sum of its terms. A term is a constant, a
# FACTOR_COUNTS name counted on the word's path, "heights" (the path's up-step
# heights) or the word's "n", "asc", "des" or "lev". The "{ell}" line is one
# line per ell from 1 to n, counting sym_valley_pattern(ell) as "valley".
TRANSPORT: dict[str, tuple[StatId | str, tuple[int | str, ...]]] = {
    "asc+des+lev": ("n", (1, "asc", "des", "lev")),
    "sym-valley ell={ell}": (StatId(StatKind.SYM_VALLEY), ("valley",)),
    "ell-valley 1": (StatId(StatKind.ELL_VALLEY, 1), ("deep-valley",)),
    "sym-peak 1": (StatId(StatKind.SYM_PEAK, 1), ("uuddu",)),
    "ell-peak 1": (StatId(StatKind.ELL_PEAK, 1), ("uudd non-terminal",)),
    "descents as DDU": (StatId(StatKind.CORNER_DH), ("ddu",)),  # a dh corner is a descent
    "runs of descents": (StatId(StatKind.RUNS_DESC), (1, "uu", "udu")),
    "runs of weak ascents": (StatId(StatKind.RUNS_WEAK_ASC), (1, "des")),
    "runs of ascents": (StatId(StatKind.RUNS_ASC), (1, "des", "lev")),
    "runs of weak descents": (StatId(StatKind.RUNS_WEAK_DESC), (1, "asc")),
    "semi-perimeter": (StatId(StatKind.SEMI), (1, "n", "asc")),
    "hu corners": (StatId(StatKind.CORNER_HU), ("asc",)),
    "dh corners": (StatId(StatKind.CORNER_DH), ("des",)),
    "area as up-step heights": (StatId(StatKind.AREA), ("heights",)),
}


def _transport_sides(w: Word) -> Iterator[tuple[str, int, int]]:
    """Each ``TRANSPORT`` line on one word: its name, its statistic and the
    sum of its terms."""
    p = word_to_path(w)
    n = len(w)
    values = {name: count(p) for name, count in FACTOR_COUNTS.items()}
    values.update(zip(("asc", "des", "lev"), asc_des_lev(w)), n=n)
    values["heights"] = sum(h for _, h in _up_steps(p))

    for name, (stat, terms) in TRANSPORT.items():
        for ell in range(1, n + 1) if "{ell}" in name else (None,):
            if ell is not None:
                values["valley"] = count_factor(p, bij.sym_valley_pattern(ell))
            s = stat if ell is None else StatId(stat.kind, ell)
            got = values[s] if isinstance(s, str) else stat_value(w, s)
            # a term that is not a name is a constant, its own value
            yield name.format(ell=ell), got, sum(map(values.get, terms, terms))


def verify_transport(n_max: int = 9) -> VerifyReport:
    """Word statistics against their factor counterparts on the path side."""
    rpt = VerifyReport("transport")
    start = time.perf_counter()
    for n in range(1, n_max + 1):
        mismatches: Counter[str] = Counter()
        for w in enumerate_catalan(n):
            mismatches.update(name for name, a, b in _transport_sides(w) if a != b)
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
        name, ks = ident.value, entry.ks
        for n in range(entry.floor, n_max + 1):
            for k in ks(n) if ks else (None,):
                res = formulas.identity_check(ident, n, k)
                label = f"{name} n={n}" + ("" if k is None else f" k={k}")
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
    if name != "all" and name not in SUITE_CAPS:
        raise ValueError(f"unknown suite {name!r}")
    if name != "all" and n_max is not None and n_max > SUITE_CAPS[name]:
        raise ValueError(f"suite {name} caps at n_max={SUITE_CAPS[name]}, got {n_max}")
    # each verify_<name> is read from the module when it runs, so a wrapped
    # or patched suite is the one that runs
    return [
        globals()[f"verify_{key}"](cap if n_max is None else min(n_max, cap))
        for key, cap in SUITE_CAPS.items()
        if name in ("all", key)
    ]
