"""Lattice paths built from unit up and down steps.

A path is a finite sequence of steps ``U = (1,1)`` and ``D = (1,-1)``,
stored as a tuple of ``+1`` / ``-1``. Dyck paths are the paths that end on
the x-axis and never go below it. The module provides ordered enumeration
(lexicographic with U before D), the reverse-complement involution, factor
occurrence counting with the height and terminality filters needed for
marked-path sets, unit decomposition, the (ddu, udu) factor profile, the
cycle lemma and the uniform Dyck sampler built on it. The sampler owns only
the random source handed to it. It shuffles an arrangement of ``"U"`` and
``"D"`` characters and cuts each draw's text from their join once:
``random_dyck_text`` returns that text and builds no ``Path``, and
``random_dyck_path`` keeps it in the path it builds. The enumerators, the
sampler, ``reverse_complement``, the maps in ``bijections`` and
``verify.negative_final_paths`` build their paths from the ``U`` and ``D``
constants or from the steps of checked paths, and skip the step check
through ``_unchecked_path``, which the path enumerator writes out in its
loop; ``Path(...)`` still makes it on every other input.

The library's value classes derive from ``_Value``, not ``dataclass``, whose
import and generated methods took about a third of the command line's import.
The frozen ones keep their values in ``__slots__``, with no ``__dict__``, so a
path takes the same memory whatever is read first.
"""

import random
import sys
from array import array
from collections.abc import Iterator, Sequence
from functools import cache
from itertools import accumulate, product
from operator import attrgetter, indexOf, neg

from .limits import check_ceiling

U = 1
D = -1

_STEPS = frozenset({U, D})
_CHAR_TO_STEP = {"U": U, "u": U, "D": D, "d": D}
_step_char = {U: "U", D: "D"}.__getitem__
_SIGNED_STEPS = bytes.maketrans(b"UD", b"\x01\xff")  # U and D as array("b") items
_BLOCK = 8  # steps per block of the enumeration tables
_new = object.__new__


class _Value:
    """Base of the value classes: a frozen dataclass's methods, written once.

    A subclass lists its fields in ``__match_args__``, in ``__init__`` order,
    and a frozen one also in ``__slots__``; its ``__init__`` checks them and
    stores each with ``self._set(name, value)``, as assigning or deleting an
    attribute raises AttributeError. Pickling and copying call the class again.
    ``class C(_Value, frozen=False)`` has mutable, unhashable instances.
    """

    __slots__ = ()
    _set = object.__setattr__

    def __init_subclass__(cls, frozen: bool = True):
        cls._fields = attrgetter(*cls.__match_args__)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None
        elif len(cls.__match_args__) == 1:
            cls.__hash__ = _Value._hash_one

    # _fields(self) is the field tuple, or the field itself when there is one.
    # Comparing a lone field outside a 1-tuple differs only for a value unequal
    # to itself, and the lone fields here are tuples; the hash needs the tuple.
    def __eq__(self, other):
        cls = type(self)
        if type(other) is cls:
            return cls._fields(self) == cls._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(type(self)._fields(self))

    def _hash_one(self):
        return hash((type(self)._fields(self),))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Path(_Value):
    """Immutable up/down step sequence with derived height data, each value
    computed on first read and kept in a slot that holds None until then."""

    __match_args__ = ("steps",)
    __slots__ = ("steps", "_text", "_profile", "_low")

    def __new__(cls, steps: tuple[int, ...]):
        try:
            valid = _STEPS.issuperset(steps)
        except TypeError:  # an unhashable step, named by the loop below
            valid = False
        if not valid:
            for s in steps:
                if s != U and s != D:
                    raise ValueError(f"steps must be +1 (U) or -1 (D), got {s!r}")
        return _unchecked_path(steps)

    @classmethod
    def from_string(cls, text: str) -> "Path":
        try:
            return cls(tuple(_CHAR_TO_STEP[ch] for ch in text))
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
    return count_factor(p, (D, D, U)), count_factor(p, (U, D, U))


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


def _shuffle(rng: random.Random, x: list) -> None:
    """Shuffle ``x`` in place with exactly the draws of ``rng.shuffle(x)``.

    Step i of ``random.Random.shuffle`` swaps x[i] with x[j], j drawn by
    ``getrandbits(k)`` with k = (i + 1).bit_length() and drawn again while
    j > i. On CPython 3.10-3.12, ``getrandbits(k)`` for k <= 32 is the top k
    bits of one Mersenne Twister word, and ``getrandbits(32 * i)`` packs i
    successive words, least significant first. Every step takes at least one
    word, so a block of i words never draws past what ``shuffle`` would.
    """
    i = len(x) - 1
    k = (i + 1).bit_length()
    shift = 32 - k
    low = (1 << k) // 2 - 1  # i + 1 keeps its bit length while i >= low
    while i > 0:
        words = array("I", rng.getrandbits(32 * i).to_bytes(4 * i, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        for w in words:
            j = w >> shift
            if j <= i:
                x[i], x[j] = x[j], x[i]
                i -= 1
                if i < low:
                    shift += 1
                    low >>= 1


def _draw(n: int, rng: random.Random | None) -> tuple[str, array, int]:
    """One draw of the cycle lemma: the Dyck path's text, the shuffled
    arrangement as signed steps, and the rotation ``r`` that cuts the path
    from it, as ``text[r:] + text[:r - 1]`` of the arrangement's text.

    The arrangement is shuffled as one-character strings, so its text is a
    single join; the signed steps are that text's bytes, translated.
    """
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    if rng is None:
        rng = random.Random()
    arrangement = ["D"] * n + ["U"] * (n + 1)
    _shuffle(rng, arrangement)
    text = "".join(arrangement)
    values = array("b", text.encode("ascii").translate(_SIGNED_STEPS))
    r = _rotation(values)
    return text[r:] + text[: r - 1], values, r


def random_dyck_path(n: int, rng: random.Random | None = None) -> Path:
    """Draw a uniformly random Dyck path of length 2n via the cycle lemma.

    Shuffles n down and n + 1 up steps, finds the unique rotation with
    all-positive partial sums, and drops its forced leading up step. Every
    Dyck path is hit by exactly 2n + 1 arrangements, so the draw is uniform
    without rejection. The only generator method called is
    ``rng.getrandbits``, in blocks, and the words drawn and the state left
    behind are those of ``rng.shuffle`` on the arrangement. The path's text
    is kept as if already read.
    """
    text, values, r = _draw(n, rng)
    p = _unchecked_path(tuple(values[r:] + values[: r - 1]))
    _set_text(p, text)
    return p


def random_dyck_text(n: int, rng: random.Random | None = None) -> str:
    """The text of ``random_dyck_path(n, rng)``, with the same draws and the
    same state left in ``rng``, built without a ``Path``."""
    return _draw(n, rng)[0]
