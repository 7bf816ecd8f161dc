"""Executable forms of the constructive path maps.

Every map here either has an explicit inverse in this module or an image
characterization that the verification suites check exhaustively at small
sizes. The maps are pure. The cycle lemma (``raney_shift``) and the uniform
sampler built on it live in the paths module and are re-exported here.
Every step of an image comes from a checked path or from the ``U`` and ``D``
constants, so the maps build their paths without the step check; the
caller's pattern in ``split_reverse_inverse`` still gets it.
"""

from collections.abc import Sequence
from itertools import accumulate

from .paths import (
    D,
    U,
    MarkedPath,
    Path,
    _check_steps,
    _marked_path,
    _rc,
    _require_dyck,
    _unchecked_path,
    ddu_udu_counts,
    factor_occurrences,
    is_dyck,
    random_dyck_path,  # noqa: F401
    raney_shift,  # noqa: F401
    units,
)
from .values import _new, _Value


def reflect_after_touch(p: Path, level: int) -> Path:
    """Complement every step after the first vertex at height ``level``.

    Reflecting the tail across the touched line negates its net height, so
    the result ends at 2*level - final_height(p). Applying the map twice
    returns the original path.
    """
    try:
        touch = 0 if level == 0 else p.height_profile.index(level) + 1
    except ValueError:
        raise ValueError(f"path never touches level {level}") from None
    return _unchecked_path(p.steps[:touch] + tuple(-s for s in p.steps[touch:]))


def split_reverse(mp: MarkedPath, survivor: int) -> Path:
    """Reverse-complement both sides of the mark around a single surviving step.

    Writing the path as ``pre + mark + post``, the image is
    ``rc(pre) + survivor + rc(post)`` where ``rc`` is reverse-complement.
    The same template realizes the marked-factor maps for UU, UDU, DDU,
    UUDDU, and the single-step high-mark maps.
    """
    if survivor not in (U, D):
        raise ValueError("survivor must be U or D")
    steps = mp.path.steps
    # rc(pre) and rc(post) are the ends of one reverse complement of the steps
    rc, end = _rc(steps), len(steps) - mp.mark_start
    return _unchecked_path(rc[end:] + (survivor,) + rc[: end - mp.mark_len])


def split_reverse_inverse(
    image: Path, pattern: Path | Sequence[int], survivor: int
) -> MarkedPath:
    """Invert split_reverse by locating the surviving step at the minimum.

    For a surviving up step the junction is the rightmost minimum vertex and
    the survivor starts there; for a surviving down step it is the leftmost
    minimum vertex and the survivor ends there. Both facts follow from the
    sections flanking the survivor being reverse-complements of a Dyck
    prefix and suffix.
    """
    if survivor not in (U, D):
        raise ValueError("survivor must be U or D")
    pat = tuple(pattern.steps if isinstance(pattern, Path) else pattern)
    steps = image.steps
    heights = tuple(accumulate(steps, initial=0))
    low = min(heights)
    if survivor == U:
        vertex = len(heights) - 1 - heights[::-1].index(low)
        if vertex >= len(steps) or steps[vertex] != U:
            raise ValueError("no surviving up step at the rightmost minimum")
        start = vertex
    else:
        vertex = heights.index(low)
        if vertex < 1 or steps[vertex - 1] != D:
            raise ValueError("no surviving down step into the leftmost minimum")
        start = vertex - 1
    # the image is rc(pre) + survivor + rc(post), so pre is rc[end:]
    rc, end = _rc(steps), len(steps) - start
    _check_steps(pat)  # the sections around it come from the checked image
    path = _unchecked_path(rc[end:] + pat + rc[: end - 1])
    # the mark lies in the path by construction; MarkedPath refuses an empty one
    return (_marked_path if pat else MarkedPath)(path, start, len(pat))


def lift_marked_unit(dp: Path, unit_index: int) -> Path:
    """Send a Dyck path with one distinguished unit to a longer multi-unit path.

    With ``dp = head + unit + tail`` the image is ``U + head + D + unit + tail``,
    one size larger and containing at least two units.
    """
    spans = units(dp)
    if not 1 <= unit_index <= len(spans):
        raise ValueError(f"unit_index {unit_index} out of range 1..{len(spans)}")
    start = spans[unit_index - 1][0]
    return _unchecked_path((U,) + dp.steps[:start] + (D,) + dp.steps[start:])


def drop_marked_unit(p: Path) -> tuple[Path, int]:
    """Inverse of lift_marked_unit; defined on multi-unit Dyck paths."""
    spans = units(p)
    if len(spans) < 2:
        raise ValueError("expected a Dyck path with at least two units")
    s0, e0 = spans[0]
    head = p.steps[s0 + 1 : e0 - 1]
    rest = p.steps[e0:]
    unit_index = len(units(_unchecked_path(head))) + 1
    return _unchecked_path(head + rest), unit_index


def sym_valley_pattern(ell: int) -> tuple[int, ...]:
    """The step factor U D (D U)^ell U marking a symmetric valley."""
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    return (U, D) + (D, U) * ell + (U,)


def sym_valley_insert(mp: MarkedPath, ell: int) -> MarkedPath:
    """Insert D (D U)^ell U after a marked up step of height two or more.

    The input is a Dyck path with one marked up step not of height one; the
    output marks the created factor U D (D U)^ell U of length 2*ell + 3.
    """
    inserted = sym_valley_pattern(ell)[1:]
    if mp.mark_len != 1 or mp.marked_factor != (U,):
        raise ValueError("the mark must cover a single up step")
    _require_dyck(mp.path)
    i = mp.mark_start
    if mp.path.height_profile[i] < 2:
        raise ValueError("marked up step must end at height two or more")
    steps = mp.path.steps[: i + 1] + inserted + mp.path.steps[i + 1 :]
    return MarkedPath(_unchecked_path(steps), i, 2 * ell + 3)


def sym_valley_remove(mp: MarkedPath) -> tuple[MarkedPath, int]:
    """Inverse of sym_valley_insert; returns the high-mark path and ell."""
    if mp.mark_len < 5 or mp.mark_len % 2 == 0:
        raise ValueError("mark must cover a factor U D (D U)^ell U")
    ell = (mp.mark_len - 3) // 2
    if mp.marked_factor != sym_valley_pattern(ell):
        raise ValueError("marked factor is not U D (D U)^ell U")
    i = mp.mark_start
    steps = mp.path.steps[: i + 1] + mp.path.steps[i + mp.mark_len :]
    out = MarkedPath(_unchecked_path(steps), i, 1)
    if out.path.height_profile[i] < 2:
        raise ValueError("underlying marked up step has height below two")
    return out, ell


def low_path_to_dyck(p: Path) -> Path:
    """Bijection from balanced paths staying at or above level -1 to Dyck paths.

    The image is U + path + D: the wrap lifts the path one level, so each
    dip D U below the axis becomes a return to it.
    """
    if p.final_height != 0:
        raise ValueError("path must end at height 0")
    if p.min_height < -1:
        raise ValueError("path dips below level -1")
    return _unchecked_path((U,) + p.steps + (D,))


def dyck_to_low_path(dp: Path) -> Path:
    """Inverse of low_path_to_dyck: the path without its first and last steps."""
    _require_dyck(dp)
    if dp.length == 0:
        raise ValueError("expected a nonempty Dyck path")
    return _unchecked_path(dp.steps[1:-1])


class PeakVector(_Value):
    """Run-length pairs (a_i, b_i) describing a Dyck path with no UDU factor.

    The path is the concatenation of blocks U^(a_i + 1) D^(b_i + 1). All
    internal b_i are at least 1, the column sums agree, and every prefix has
    at least as many up-run steps as down-run steps.
    """

    __match_args__ = __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        if not pairs:
            raise ValueError("a peak vector has at least one pair")
        a_sum = b_sum = 0
        for idx, (a, b) in enumerate(pairs):
            last = idx == len(pairs) - 1
            if a < 0 or b < 0:
                raise ValueError(f"negative run length in pair {idx}: {(a, b)}")
            if not last and b < 1:
                raise ValueError(f"internal pair {idx} needs b >= 1, got {b}")
            a_sum += a
            b_sum += b
            if a_sum < b_sum:
                raise ValueError("prefix down runs exceed up runs")
        if a_sum != b_sum:
            raise ValueError(f"unbalanced run sums {a_sum} != {b_sum}")
        self._set("pairs", pairs)

    @property
    def k(self) -> int:
        return len(self.pairs) - 1

    @property
    def n(self) -> int:
        return sum(a for a, _ in self.pairs) + len(self.pairs)


def peak_decompose(p: Path) -> PeakVector:
    """Read off the run-length pairs of a UDU-free Dyck path."""
    _require_dyck(p)
    if p.length == 0:
        raise ValueError("expected a nonempty Dyck path")
    k, j = ddu_udu_counts(p)
    if j:
        raise ValueError("path contains a UDU factor")
    runs: list[tuple[int, int]] = []
    cur = p.steps[0]
    count = 0
    for s in p.steps:
        if s == cur:
            count += 1
        else:
            runs.append((cur, count))
            cur, count = s, 1
    runs.append((cur, count))
    pairs = tuple(
        (runs[i][1] - 1, runs[i + 1][1] - 1) for i in range(0, len(runs), 2)
    )
    pv = PeakVector(pairs)
    if pv.k != k:
        raise RuntimeError(f"peak vector counts {pv.k} DDU factors, path has {k}")
    return pv


def peak_rebuild(pv: PeakVector) -> Path:
    """Inverse of peak_decompose."""
    out: list[int] = []
    for a, b in pv.pairs:
        out.extend([U] * (a + 1))
        out.extend([D] * (b + 1))
    return _unchecked_path(tuple(out))


def peak_vector_from_slots(slots: Sequence[tuple[int, int]]) -> PeakVector:
    """Build a peak vector from slot fills via the cycle lemma.

    Each slot holds a nonnegative number of ups and a positive number of
    downs, with one more down than up overall. Rotating by the unique valid
    cyclic shift, removing one down from the first rotated slot, and
    reversing the order yields a valid peak vector. Every peak vector arises
    from exactly len(slots) distinct fills.
    """
    fills = [(int(y), int(z)) for y, z in slots]
    for y, z in fills:
        if y < 0:
            raise ValueError(f"slot ups must be nonnegative, got {y}")
        if z < 1:
            raise ValueError(f"slot downs must be positive, got {z}")
    deltas = [z - y for y, z in fills]
    r = raney_shift(deltas)  # validates the sum
    rot = fills[r - 1 :] + fills[: r - 1]
    shifted = [(rot[0][0], rot[0][1] - 1)] + rot[1:]
    return PeakVector(tuple(reversed(shifted)))


def insert_ud(precursor: Path, positions: Sequence[int]) -> Path:
    """Insert one U D factor directly before chosen up steps of a UDU-free path.

    ``positions`` is a multiset of 0-based up-step indices; repeats stack
    several U D factors at the same spot. The insertions create exactly one
    UDU occurrence each and leave the DDU count unchanged.
    """
    _require_dyck(precursor)
    if ddu_udu_counts(precursor)[1] != 0:
        raise ValueError("precursor must contain no UDU factor")
    ups = precursor.steps.count(U)
    counts: dict[int, int] = {}
    for pos in positions:
        if not 0 <= pos < ups:
            raise ValueError(f"position {pos} out of range 0..{ups - 1}")
        counts[pos] = counts.get(pos, 0) + 1
    out: list[int] = []
    seen = 0
    for s in precursor.steps:
        if s == U:
            out.extend((U, D) * counts.get(seen, 0))
            seen += 1
        out.append(s)
    return _unchecked_path(tuple(out))


def remove_ud(p: Path) -> tuple[Path, tuple[int, ...]]:
    """Strip inserted U D factors; inverse of insert_ud.

    Deletes the U D opening every UDU occurrence, overlapping ones included.
    A deletion never creates a new UDU, so one pass finds them all, and the
    up steps kept left of a deletion point index its insertion position in
    the precursor.
    """
    _require_dyck(p)
    steps, text = p.steps, str(p)
    kept: list[int] = []
    positions = []
    ups = start = 0
    for i in factor_occurrences(p, (U, D, U)):
        ups += text.count("U", start, i)
        positions.append(ups)
        kept += steps[start:i]
        start = i + 2
    kept += steps[start:]
    return _unchecked_path(tuple(kept)), tuple(positions)


class AreaMark(_Value):
    """A Dyck path with one marked up step and a choice below its height.

    ``up_index`` points at an up step ending at some height m; ``j`` ranges
    over 0..m-1. Counting all such triples totals the up-step heights.
    """

    __match_args__ = __slots__ = ("path", "up_index", "j")

    def __init__(self, path: Path, up_index: int, j: int):
        if not is_dyck(path):
            raise ValueError("area marks live on Dyck paths")
        steps = path.steps
        if not 0 <= up_index < len(steps):
            raise ValueError(f"up_index {up_index} out of range")
        if steps[up_index] != U:
            raise ValueError(f"step {up_index} is not an up step")
        top = path.height_profile[up_index] - 1
        if not 0 <= j <= top:
            raise ValueError(f"need 0 <= j <= {top}, got j={j}")
        self._set("path", path)
        self._set("up_index", up_index)
        self._set("j", j)

    @property
    def height(self) -> int:
        return self.path.height_profile[self.up_index]


_set_mark_path, _set_up_index, _set_j = (
    getattr(AreaMark, name).__set__ for name in AreaMark.__slots__
)


def _area_mark(path: Path, up_index: int, j: int) -> AreaMark:
    """An AreaMark without the checks, for marks known valid: those on the up
    steps of enumerated Dyck paths, and the ones ``area_mark_decode`` rebuilds."""
    am = _new(AreaMark)
    _set_mark_path(am, path)
    _set_up_index(am, up_index)
    _set_j(am, j)
    return am


def area_mark_encode(am: AreaMark) -> Path:
    """Map an area mark to a path of the same length with negative endpoint.

    Write the path as head + U + rest, the marked up step ending at height m,
    and let s be the first step of rest ending at height m - j - 1. The image
    is the steps between the mark and s (the first j + 1 level blocks chained
    by their down steps), a down step, the reverse-complemented head, a down
    step, and the reverse-complemented steps after s. The endpoint lands at
    -2j - 2 and the minimum at -(m + j + 1).
    """
    steps, heights, u = am.path.steps, am.path.height_profile, am.up_index
    s = heights.index(heights[u] - am.j - 1, u + 1)
    rc, size = _rc(steps), len(steps)  # rc of steps[i:k] is rc[size - k : size - i]
    return _unchecked_path(
        steps[u + 1 : s] + (D,) + rc[size - u :] + (D,) + rc[: size - s - 1]
    )


def area_mark_decode(image: Path) -> AreaMark:
    """Inverse of area_mark_encode.

    The endpoint height -2j - 2 fixes j, the minimum -(m + j + 1) fixes m,
    and the leftmost vertices at heights -j - 1 and -(m + j + 1) flank the
    reverse-complemented head section.

    The marked up step's height needs no check: step b - 1 is D, so it is
    heights[a] - heights[b - 1] + 1 = (-j - 1) - (low + 1) + 1 = m.

    Past these checks, head + U + chained + D + tail is a Dyck path, so the
    mark skips AreaMark's checks. The head stays >= 0 and ends at m - 1: its
    section ends at the first vertex at the minimum. The chained steps stay
    >= m - j >= 1: they end before the first vertex at -j - 1, and j < m. The
    tail, from m - j - 1, stays >= 0 and ends at m - j - 1 + low - final = 0.
    """
    steps = image.steps
    if not steps or len(steps) % 2:
        raise ValueError("image paths have positive even length")
    heights = tuple(accumulate(steps, initial=0))
    final = heights[-1]
    if final >= 0 or final % 2:
        raise ValueError(f"image paths end at negative even height, got {final}")
    n = len(steps) // 2
    j = (-final - 2) // 2
    low = min(heights)
    m = -low - j - 1
    if not 0 <= j < m <= n:
        raise ValueError("endpoint and minimum heights are inconsistent")
    a = heights.index(-j - 1)
    b = heights.index(low, a)  # the minimum lies below -j - 1
    if steps[a - 1] != D or steps[b - 1] != D:
        raise ValueError("split points are not down steps")
    # both sections from one reverse complement, as in area_mark_encode
    rc, size = _rc(steps), len(steps)
    head, tail = rc[size - b + 1 : size - a], rc[: size - b]
    reconstructed = _unchecked_path(head + (U,) + steps[: a - 1] + (D,) + tail)
    return _area_mark(reconstructed, len(head), j)


def last_passage_class(lam: Path) -> tuple[str, int | None]:
    """Classify a path ending one above the axis by its last high or low passage.

    Returns ("exceptional", None) for the sawtooth U (D U)^(n-1), otherwise
    ("through-two", i) or ("through-minus-one", i) for the largest i such
    that the path passes through (2i, 2) or (2i - 1, -1).
    """
    if lam.length % 2 == 0 or lam.final_height != 1:
        raise ValueError("expected a path of odd length ending at height 1")
    n = (lam.length + 1) // 2
    if lam.steps == (U, D) * (n - 1) + (U,):
        return ("exceptional", None)
    heights = (0,) + lam.height_profile
    for i in range(n - 1, 0, -1):
        # at most one of the two passages can happen for a given i
        if heights[2 * i] == 2:
            return ("through-two", i)
        if heights[2 * i - 1] == -1:
            return ("through-minus-one", i)
    raise ValueError("path has no last passage and is not the sawtooth")
