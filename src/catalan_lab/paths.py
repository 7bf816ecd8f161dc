"""Lattice paths built from unit up and down steps.

A path is a finite sequence of steps ``U = (1,1)`` and ``D = (1,-1)``,
stored as a tuple of ``+1`` / ``-1``. Dyck paths are the paths that end on
the x-axis and never go below it. The module provides ordered enumeration
(lexicographic with U before D), the reverse-complement involution, factor
occurrences under height and terminality filters, ``FACTORS`` (each factor
the paper counts or marks, defined once), unit decomposition, the (ddu, udu)
profile, the cycle lemma and the uniform Dyck sampler built on it. The
sampler owns only the random source handed to it and reads only its
``getrandbits``, so a seed gives the same draws on one Python. It draws an
arrangement of n + 1 U and n D as fair bits whose count it fixes by
uniformly placed flips, and cuts each draw's text from the arrangement's
text once: ``random_dyck_text`` returns that text and builds no ``Path``,
and ``random_dyck_path`` keeps it in the path it builds. The enumerators,
the sampler, ``reverse_complement``, the maps in ``bijections``,
``words.word_to_path`` and ``verify.negative_final_paths`` build their paths
from the ``U`` and ``D`` constants or from the steps of checked paths, and
skip the step check through ``_unchecked_path``, which the path enumerator
writes out in its loop; ``Path(...)`` still makes it on every other input.
"""

import random
from array import array
from collections.abc import Iterable, Iterator, Sequence
from functools import cache
from itertools import accumulate, product
from operator import indexOf, neg

from .limits import check_ceiling
from .values import _new, _Value

U = 1
D = -1

_STEPS = frozenset({U, D})
_CHAR_TO_STEP = {"U": U, "u": U, "D": D, "d": D}
_step_char = {U: "U", D: "D"}.__getitem__
# The sampler's bits ("1" for U, "0" for D) as text and as array("b") items
_BITS_TO_TEXT = bytes.maketrans(b"10", b"UD")
_BITS_TO_SIGNED = bytes.maketrans(b"10", b"\x01\xff")
_BLOCK = 8  # steps per block of the enumeration tables


class Path(_Value):
    """Immutable up/down step sequence with derived height data, each value
    computed on first read and kept in a slot that holds None until then."""

    __match_args__ = ("steps",)
    __slots__ = ("steps", "_text", "_profile", "_low")

    def __new__(cls, steps: Iterable[int]):
        steps = tuple(steps)
        _check_steps(steps)
        return _unchecked_path(steps)

    @classmethod
    def from_string(cls, text: str) -> "Path":
        try:
            return cls(_CHAR_TO_STEP[ch] for ch in text)
        except KeyError as exc:
            raise ValueError(f"invalid step character {exc.args[0]!r}") from None

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def height_profile(self) -> tuple[int, ...]:
        """Heights after each step; the implicit starting height 0 is not included."""
        profile = self._profile
        if profile is None:
            profile = tuple(accumulate(self.steps))
            _set_profile(self, profile)
        return profile

    @property
    def final_height(self) -> int:
        return sum(self.steps)

    @property
    def min_height(self) -> int:
        """Minimum over all prefix heights, including the starting 0."""
        low = self._low
        if low is None:
            low = min(accumulate(self.steps, initial=0))
            _set_low(self, low)
        return low

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = "".join(map(_step_char, self.steps))
            _set_text(self, text)
        return text

    def __repr__(self) -> str:
        return f"Path({str(self)!r})"

    def __len__(self) -> int:
        return len(self.steps)


# A slot's own setter costs less to call than object.__setattr__.
_set_steps, _set_text, _set_profile, _set_low = (
    getattr(Path, name).__set__ for name in Path.__slots__
)


class MarkedPath(_Value):
    """A path together with one marked contiguous factor."""

    __match_args__ = __slots__ = ("path", "mark_start", "mark_len")

    def __init__(self, path: Path, mark_start: int, mark_len: int):
        if mark_len < 1:
            raise ValueError(f"mark_len must be positive, got {mark_len}")
        if mark_start < 0 or mark_start + mark_len > path.length:
            raise ValueError(
                f"mark [{mark_start}, {mark_start + mark_len}) "
                f"out of range for path of length {path.length}"
            )
        self._set("path", path)
        self._set("mark_start", mark_start)
        self._set("mark_len", mark_len)

    @property
    def marked_factor(self) -> tuple[int, ...]:
        return self.path.steps[self.mark_start : self.mark_start + self.mark_len]


_set_marked, _set_mark_start, _set_mark_len = (
    getattr(MarkedPath, name).__set__ for name in MarkedPath.__slots__
)


def _marked_path(path: Path, mark_start: int, mark_len: int) -> MarkedPath:
    """A MarkedPath without the checks, for a nonempty mark known to lie in
    its path."""
    mp = _new(MarkedPath)
    _set_marked(mp, path)
    _set_mark_start(mp, mark_start)
    _set_mark_len(mp, mark_len)
    return mp


class Endpoint(_Value):
    """A reachable endpoint (a, b): a steps ending at height b."""

    __match_args__ = __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a < 0 or a < abs(b):
            raise ValueError(f"need a >= |b| >= 0, got ({a}, {b})")
        if (a - b) % 2 != 0:
            raise ValueError(f"a and b must have equal parity, got ({a}, {b})")
        self._set("a", a)
        self._set("b", b)

    @property
    def ups(self) -> int:
        return (self.a + self.b) // 2

    @property
    def downs(self) -> int:
        return (self.a - self.b) // 2


def _check_steps(steps: Sequence[int]) -> None:
    """Path's step check: raise ValueError naming the first step not U or D."""
    try:
        valid = _STEPS.issuperset(steps)
    except TypeError:  # an unhashable step, named by the loop below
        valid = False
    if not valid:
        for s in steps:
            if s != U and s != D:
                raise ValueError(f"steps must be +1 (U) or -1 (D), got {s!r}")


def _unchecked_path(steps: tuple[int, ...]) -> Path:
    """A Path of steps known to be U and D, without the step check: for steps
    built from the ``U`` and ``D`` constants or taken from checked paths."""
    p = _new(Path)
    _set_steps(p, steps)
    _set_text(p, None)
    _set_profile(p, None)
    _set_low(p, None)
    return p


def is_dyck(p: Path) -> bool:
    """True when every prefix height is nonnegative and the path ends at 0."""
    return p.min_height == 0 and p.final_height == 0


def _require_dyck(p: Path) -> None:
    if not is_dyck(p):
        raise ValueError(f"expected a Dyck path, got {p!r}")


def _lex_heads(ups: int, downs: int, floor: int) -> Iterator[tuple]:
    """Yield, lexicographically (U < D), the heads of the paths of ``ups`` U
    and ``downs`` D steps that never go below ``floor``, which is at most the
    final height: each head's steps and text, the (steps, text) pairs of the
    final blocks that complete it, in order, and those texts alone.

    The path is cut into blocks of ``_BLOCK`` steps, the last one possibly
    shorter, and counted through like an odometer; a head is every block but
    the last. The blocks that may follow a prefix depend only on the U and D
    steps it leaves, so each list of them is built once per call, with its
    text, and a path is one concatenation of a head and a final block.
    """

    @cache
    def candidates(size):
        """Every block of ``size`` steps, in order, with its text, U count and
        lowest prefix sum."""
        return [
            (s, "".join(map(_step_char, s)), s.count(U), min(accumulate(s, initial=0)))
            for s in product((U, D), repeat=size)
        ]

    @cache
    def blocks(u, d):
        """The blocks after a prefix leaving ``u`` U and ``d`` D steps, in
        order, each with its text and the U and D steps left after it."""
        height = ups - u - downs + d
        size = min(_BLOCK, u + d)
        return [
            (steps, text, u - x, d - size + x)
            for steps, text, x, low in candidates(size)
            if x <= u and size - x <= d and height + low >= floor
        ]

    @cache
    def finals(u, d):
        """The (steps, text) pairs of the final blocks after such a prefix,
        and their texts."""
        found = [(steps, text) for steps, text, _, _ in blocks(u, d)]
        return found, [text for _, text in found]

    stack = [(iter(blocks(ups, downs)), (), "")]
    while stack:
        entries, head, head_text = stack[-1]
        for steps, text, u, d in entries:
            steps, text = head + steps, head_text + text
            if u + d > _BLOCK:
                stack.append((iter(blocks(u, d)), steps, text))
                break
            tails, texts = finals(u, d)
            yield steps, text, tails, texts
        else:
            stack.pop()


def _lex_paths(ups: int, downs: int, floor: int) -> Iterator[Path]:
    """The paths of ``_lex_heads``, in its order, each made as
    ``_unchecked_path`` makes one, with its text kept as if already read.
    The constructor is written out here: its call was about 3% of the
    enumeration's time."""
    for head, head_text, tails, _ in _lex_heads(ups, downs, floor):
        for tail, tail_text in tails:
            p = _new(Path)
            _set_steps(p, head + tail)
            _set_text(p, head_text + tail_text)
            _set_profile(p, None)
            _set_low(p, None)
            yield p


def enumerate_dyck(n: int, *, max_n: int | None = None) -> Iterator[Path]:
    """Yield all Dyck paths of length 2n in lexicographic order (U < D)."""
    check_ceiling(n, max_n)
    return _lex_paths(n, n, 0)


def enumerate_dyck_texts(n: int, *, max_n: int | None = None) -> Iterator[str]:
    """The text of each path of ``enumerate_dyck(n)``, in its order, built
    without a ``Path``."""
    check_ceiling(n, max_n)
    return (
        head_text + text
        for _, head_text, _, texts in _lex_heads(n, n, 0)
        for text in texts
    )


def enumerate_lattice(a: int, b: int, *, max_n: int | None = None) -> Iterator[Path]:
    """Yield all paths with ``a`` steps ending at height ``b``, lexicographically."""
    end = Endpoint(a, b)
    check_ceiling((a + 1) // 2, max_n)
    return _lex_paths(end.ups, end.downs, -end.downs)


def _rc(steps: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(neg, reversed(steps)))


def reverse_complement(p: Path) -> Path:
    """Reverse the steps and swap U with D; an involution negating the endpoint."""
    return _unchecked_path(_rc(p.steps))


def factor_occurrences(
    p: Path,
    pattern: Path | Sequence[int],
    *,
    min_end_height: int | None = None,
    terminal: bool | None = None,
) -> list[int]:
    """Start indices of (possibly overlapping) occurrences of ``pattern``.

    ``min_end_height`` keeps occurrences whose final step ends at that height
    or above. ``terminal=True`` keeps occurrences whose D steps all belong to
    the trailing run of D steps; ``terminal=False`` keeps the rest.
    """
    pat = tuple(pattern.steps if isinstance(pattern, Path) else pattern)
    if not pat:
        raise ValueError("pattern must be nonempty")
    try:
        word = "".join(map(_step_char, pat))
    except (KeyError, TypeError):  # a step other than U or D occurs nowhere
        return []
    text = str(p)
    # with a height filter, last is the offset of the pattern's final step;
    # a one-step pattern hits about every other step, so it takes one pass
    # over the heights rather than one str.find per hit
    if min_end_height is not None and not (last := len(pat) - 1):
        step, steps = pat[0], p.steps
        hits = [
            i
            for i, h in enumerate(p.height_profile)
            if h >= min_end_height and steps[i] == step
        ]
    else:
        hits = []
        i = text.find(word)
        while i >= 0:
            hits.append(i)
            i = text.find(word, i + 1)
        if min_end_height is not None:
            profile = p.height_profile
            hits = [i for i in hits if profile[i + last] >= min_end_height]
    if terminal is not None:
        # a hit is terminal when its first D, if any, is in the trailing D run
        first_d, tail = word.find("D"), len(text.rstrip("D"))
        hits = [i for i in hits if (first_d < 0 or i + first_d >= tail) == terminal]
    return hits


def count_factor(
    p: Path,
    pattern: Path | Sequence[int],
    *,
    min_end_height: int | None = None,
    terminal: bool | None = None,
) -> int:
    """Number of occurrences of ``pattern`` in ``p`` under the given filter."""
    return len(
        factor_occurrences(
            p, pattern, min_end_height=min_end_height, terminal=terminal
        )
    )


class Factor(_Value):
    """A factor's steps and the ``factor_occurrences`` filters it is kept under."""

    __match_args__ = __slots__ = ("steps", "min_end_height", "terminal")
    _defaults = {"min_end_height": None, "terminal": None}

    def occurrences(self, p: Path) -> list[int]:
        h, t = self.min_end_height, self.terminal
        return factor_occurrences(p, self.steps, min_end_height=h, terminal=t)

    def marks(self, p: Path) -> list[MarkedPath]:
        return [_marked_path(p, i, len(self.steps)) for i in self.occurrences(p)]

    def count(self, p: Path) -> int:
        return len(self.occurrences(p))


# The factors the paper counts or marks on Dyck paths, each written only here.
FACTORS: dict[str, Factor] = {
    "uu": Factor((U, U)),
    "ddu": Factor((D, D, U)),
    "udu": Factor((U, D, U)),
    "uuddu": Factor((U, U, D, D, U)),
    "high-up": Factor((U,), min_end_height=2),
    "high-down": Factor((D,), min_end_height=2),
    "uudd non-terminal": Factor((U, U, D, D), terminal=False),
    # the paper's U D^j U U for j >= 2: on a Dyck path every run of D steps
    # follows a U, so each D D U U ends exactly one of them
    "deep-valley": Factor((D, D, U, U)),
}


def units(p: Path) -> list[tuple[int, int]]:
    """Split a Dyck path into its units, returned as (start, stop) index pairs.

    A unit is a factor that leaves the x-axis with its first step and first
    returns to it with its last step.
    """
    _require_dyck(p)
    spans = []
    start = 0
    h = 0
    for i, s in enumerate(p.steps):
        h += s
        if h == 0:
            spans.append((start, i + 1))
            start = i + 1
    return spans


def ddu_udu_counts(p: Path) -> tuple[int, int]:
    """Occurrence counts (k, j) of the factors DDU and UDU in a Dyck path."""
    _require_dyck(p)
    return FACTORS["ddu"].count(p), FACTORS["udu"].count(p)


def raney_shift(values: Sequence[int]) -> int:
    """The unique 1-based cyclic shift giving all-positive partial sums.

    Requires the values to sum to 1. The valid rotation starts right after
    the last position achieving the minimal prefix sum.
    """
    vals = list(values)
    if not vals:
        raise ValueError("sequence must be nonempty")
    total = sum(vals)
    if total != 1:
        raise ValueError(f"sequence must sum to 1, got {total}")
    return _rotation(vals)


def _rotation(values: Sequence[int]) -> int:
    """``raney_shift`` of values known to be nonempty and to sum to 1."""
    # The sum of the first j values is 1 minus the sum of the other len - j,
    # so the last minimal prefix sum is the first maximal suffix sum, read
    # from the right.
    top = max(accumulate(reversed(values)))
    return len(values) - indexOf(accumulate(reversed(values)), top)


def _draw(n: int, rng: random.Random | None) -> tuple[str, array, int]:
    """One draw of the cycle lemma: the Dyck path's text, the arrangement of
    n + 1 U and n D as signed steps, and the rotation ``r`` that cuts the path
    from it, as ``text[r:] + text[:r - 1]`` of the arrangement's text.

    The arrangement starts as the 2n + 1 fair bits of one
    ``getrandbits(2n + 1)``, most significant first, 1 for U. While the ones
    are not n + 1, a position j is drawn by ``getrandbits`` of the bit length
    of 2n + 1, redrawn while j >= 2n + 1, and its bit is flipped when that
    moves the count toward n + 1. The bits are uniform given their count, and
    a uniform subset stays uniform when a uniformly chosen member is removed or
    a uniformly chosen non-member added (Knuth, TAOCP vol. 2, 3.4.2), so the
    arrangement is uniform. About sqrt(n / pi) flips are needed.
    """
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    if rng is None:
        rng = random.Random()
    size = 2 * n + 1
    bits = bytearray(format(rng.getrandbits(size), "b").zfill(size), "ascii")
    excess = bits.count(49) - n - 1  # ones ("1" is byte 49) beyond n + 1
    turned, step = (49, 1) if excess > 0 else (48, -1)
    k = size.bit_length()
    while excess:
        j = rng.getrandbits(k)
        if j < size and bits[j] == turned:
            bits[j] ^= 1  # "0" and "1" differ in the low bit
            excess -= step
    text = bits.translate(_BITS_TO_TEXT).decode("ascii")
    values = array("b", bits.translate(_BITS_TO_SIGNED))
    r = _rotation(values)
    return text[r:] + text[: r - 1], values, r


def random_dyck_path(n: int, rng: random.Random | None = None) -> Path:
    """Draw a uniformly random Dyck path of length 2n via the cycle lemma.

    Arranges n + 1 up and n down steps uniformly at random, finds the unique
    rotation with all-positive partial sums, and drops its forced leading up
    step. Every Dyck path is hit by exactly 2n + 1 arrangements, so the draw
    is uniform without rejection. The only generator method called is
    ``rng.getrandbits``, so on one Python a seed gives the same paths and
    leaves the generator in the same state. The path's text is kept as if
    already read.
    """
    text, values, r = _draw(n, rng)
    p = _unchecked_path(tuple(values[r:] + values[: r - 1]))
    _set_text(p, text)
    return p


def random_dyck_text(n: int, rng: random.Random | None = None) -> str:
    """The text of ``random_dyck_path(n, rng)``, with the same draws and the
    same state left in ``rng``, built without a ``Path``."""
    return _draw(n, rng)[0]
