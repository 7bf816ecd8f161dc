"""Classes of paths and of marked paths, and the check that a map is onto one.

A ``PathClass`` is the set of up/down paths of one length that a predicate
accepts, with its size counted apart from the map it checks: by
``walk_counts``, which counts paths over their heights step by step, or by a
filter over enumerated paths. A ``MarkedClass`` marks each occurrence of a
factor on such paths. ``check_onto`` and ``check_image`` rank each image
without holding it, into a bitmap of one bit per rank: a path ranks as its
U/D text read in binary, U = 1 and D = 0, read from its steps, and a mark on
a path of L steps as its path's rank times L plus its start (Nijenhuis and
Wilf, *Combinatorial Algorithms*; Knuth, *TAOCP* 4A, 7.2.1). The module reads
nothing from ``formulas``, as the bijection suite compares these sizes with
closed forms.
"""

import itertools
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator

from .paths import MarkedPath, Path
from .values import _Value

_FEW = 3  # stray and missing paths an image record shows
_TO_STEPS = str.maketrans("10", "UD")
_STEPS_TO_BITS = bytes.maketrans(b"\x01\xff", b"10")  # U and D as array("b") items


def walk_counts(a: int, floor: int | None = None) -> Counter[int]:
    """The number of ``a``-step paths that end at each height and never go
    below ``floor``, counted step by step over the heights. Every path starts
    at height 0, so none stays above a positive floor."""
    ends = Counter() if floor is not None and floor > 0 else Counter({0: 1})
    for _ in range(a):
        steps = Counter()
        for h, count in ends.items():
            steps[h + 1] += count
            if floor is None or h > floor:
                steps[h - 1] += count
        ends = steps
    return ends


class PathClass(_Value):
    """The paths of ``length`` steps that ``member`` accepts, ``size`` of them."""

    __match_args__ = __slots__ = ("length", "member", "size")
    ranks = property(lambda self: 1 << self.length)

    def rank(self, q: Path) -> int | None:
        """The rank of ``q``, or None when it is outside the class."""
        if len(q) == self.length and self.member(q):
            # its steps' bytes, so no text is built and kept
            bits = array("b", q.steps).tobytes().translate(_STEPS_TO_BITS)
            return int(bits or b"0", 2)
        return None

    def unrank(self, r: int) -> Path | None:
        """The class member of rank ``r``, or None when there is none."""
        bits = format(r | 1 << self.length, "b")[1:]  # all ``length`` digits
        q = Path.from_string(bits.translate(_TO_STEPS))
        return q if self.member(q) else None

    def members(self, ranks: Iterable[int]) -> Iterator[Path]:
        """The class members of ``ranks``, in their order."""
        return (q for r in ranks if (q := self.unrank(r)) is not None)


class MarkedClass(PathClass):
    """Each occurrence of ``factor`` marked on the paths of ``length`` steps
    that ``member`` accepts, ``size`` of them."""

    __match_args__ = (*PathClass.__match_args__, "factor")
    __slots__ = ("factor",)
    ranks = property(lambda self: self.length << self.length)

    def rank(self, q: MarkedPath) -> int | None:
        r = super().rank(q.path)
        if r is not None and q.marked_factor == self.factor:
            return r * self.length + q.mark_start
        return None

    def unrank(self, r: int) -> MarkedPath | None:
        return next(self.members((r,)), None)

    def members(self, ranks: Iterable[int]) -> Iterator[MarkedPath]:
        # a path's marks have consecutive ranks: build and test the path once
        m = len(self.factor)
        for path_rank, marks in itertools.groupby(ranks, lambda r: r // self.length):
            if (p := super().unrank(path_rank)) is None:
                continue
            for start in (r % self.length for r in marks):
                if p.steps[start : start + m] == self.factor:
                    yield MarkedPath(p, start, m)


class ImageRecord(_Value):
    """How the images of a map miss its class: the numbers of distinct stray
    images, outside the class, and of class members no input reaches, with
    the first few of each. A map onto its class has ``ONTO``."""

    __match_args__ = __slots__ = ("strays", "missing", "first_strays", "first_missing")
    _defaults = {"first_strays": (), "first_missing": ()}


ONTO = ImageRecord(0, 0)


def _rank_images(images: Iterable, image: PathClass) -> tuple[ImageRecord, int, int]:
    """How ``images`` miss the class ``image``, their number and the number
    of distinct ones. ``images`` is read once and only its strays are kept;
    the first few missing members are unranked from the bitmap's zeros, from
    the top rank down (U before D), only when some are missing."""
    seen = bytearray((image.ranks + 7) >> 3)
    strays: dict[Path | MarkedPath, None] = {}  # in the order they were met
    count = ranked = 0
    for q in images:
        count += 1
        if (r := image.rank(q)) is None:
            strays[q] = None
        elif not seen[r >> 3] & 1 << (r & 7):
            seen[r >> 3] |= 1 << (r & 7)
            ranked += 1
    missing = image.size - ranked
    zeros = (r for r in reversed(range(image.ranks)) if not seen[r >> 3] & 1 << (r & 7))
    unmarked = itertools.islice(image.members(zeros), min(max(missing, 0), _FEW))
    first_strays = tuple(itertools.islice(strays, _FEW))
    record = ImageRecord(len(strays), missing, first_strays, tuple(unmarked))
    return record, count, ranked + len(strays)


def check_image(rpt, description: str, images: Iterable, image: PathClass) -> None:
    """Check that ``images`` fall in the class ``image`` and cover it."""
    rpt.check(description, ONTO, _rank_images(images, image)[0])


def check_onto(
    rpt, label: str, domain: Iterable, forward, inverse, image: PathClass
) -> int:
    """Check in one pass over ``domain``, which may be a generator, that
    ``forward`` maps it one to one onto the class ``image`` and ``inverse``
    maps each image back; return the number of inputs. ``rpt.check`` records
    the three checks, named by ``label`` with ``{}`` for the name of each."""
    errors = 0

    def images():
        nonlocal errors
        for x in domain:
            q = forward(x)
            errors += inverse(q) != x
            yield q

    record, count, distinct = _rank_images(images(), image)
    rpt.check(label.format("images distinct"), count, distinct)
    rpt.check(label.format("image set"), ONTO, record)
    rpt.check(label.format("round trips"), 0, errors)
    return count
