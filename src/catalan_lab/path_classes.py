"""Classes of lattice paths, and the check that a map is onto one.

A ``PathClass`` is the set of up/down paths of one length that a predicate
accepts, with its size counted apart from the map it checks: by
``walk_counts``, which counts paths over their heights step by step, or by a
filter over enumerated paths. ``check_onto`` checks a map onto a class
without holding its images: it ranks each image as its U/D text read in
binary, U = 1 and D = 0, and marks the rank in a bitmap of one byte per
path of the class length (Nijenhuis and Wilf, *Combinatorial Algorithms*;
Knuth, *TAOCP* 4A, 7.2.1). The module reads nothing from ``formulas``, as
the bijection suite compares these sizes with closed forms.
"""

import itertools
from collections import Counter
from collections.abc import Callable, Iterable

from .paths import Path, _Value

_FEW = 3  # stray and missing paths an image record shows
_TO_BITS = str.maketrans("UD", "10")
_TO_STEPS = str.maketrans("10", "UD")


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

    def __init__(self, length: int, member: Callable[[Path], bool], size: int):
        self._set("length", length)
        self._set("member", member)
        self._set("size", size)


class ImageRecord(_Value):
    """How the images of a map miss its class: the numbers of distinct stray
    images, outside the class, and of class paths no input reaches, with the
    first few of each. A map onto its class has ``ONTO``."""

    __match_args__ = __slots__ = ("strays", "missing", "first_strays", "first_missing")

    def __init__(
        self,
        strays: int,
        missing: int,
        first_strays: tuple[Path, ...] = (),
        first_missing: tuple[Path, ...] = (),
    ):
        self._set("strays", strays)
        self._set("missing", missing)
        self._set("first_strays", first_strays)
        self._set("first_missing", first_missing)


ONTO = ImageRecord(0, 0)


def check_onto(
    rpt, label: str, domain: Iterable, forward, inverse, image: PathClass
) -> int:
    """Check in one pass that ``forward`` maps ``domain`` one to one onto the
    class ``image`` and that ``inverse`` maps each image back; return the
    number of inputs.

    ``rpt.check(description, expected, got)`` records the four checks, named
    by ``label`` with ``{}`` for the name of each. ``domain`` is read once,
    so it may be a generator. The map is onto its class when no image is a
    stray, no rank repeats and there are as many inputs as class paths. Only
    the strays are kept, for the record; the missing paths are unranked from
    the bitmap's zeros only when there are some.
    """
    length, member = image.length, image.member
    seen = bytearray(1 << length)
    strays: dict[Path, None] = {}  # in the order they were met
    errors = count = 0
    for x in domain:
        q = forward(x)
        if len(q) == length and member(q):
            seen[int(str(q).translate(_TO_BITS), 2)] = 1
        else:
            strays[q] = None
        errors += inverse(q) != x
        count += 1
    ranked = seen.count(1)
    rpt.check(label.format("images distinct"), count, ranked + len(strays))
    missing = image.size - ranked
    record = ONTO
    if strays or missing:
        first_missing = _unmarked(seen, image) if missing > 0 else ()
        first_strays = tuple(itertools.islice(strays, _FEW))
        record = ImageRecord(len(strays), missing, first_strays, first_missing)
    rpt.check(label.format("image set"), ONTO, record)
    rpt.check(label.format("round trips"), 0, errors)
    rpt.check(label.format("domain size"), count, image.size)
    return count


def _unmarked(seen: bytearray, image: PathClass) -> tuple[Path, ...]:
    """The first few class paths, in order (U before D), whose rank is not
    marked in ``seen``."""
    found = []
    r = len(seen)
    while len(found) < _FEW and (r := seen.rfind(0, 0, r)) >= 0:
        text = format(r, f"0{image.length}b").translate(_TO_STEPS)
        q = Path.from_string(text)
        if image.member(q):
            found.append(q)
    return tuple(found)
