"""The value classes behave as the frozen dataclasses they replaced: the same
signatures, defaults, reprs, equality and hashes, frozen fields and pickling;
``SweepTotals`` and ``VerifyReport`` stay mutable and unhashable."""

import copy
import pickle

import pytest

from catalan_lab import (
    D,
    U,
    AreaMark,
    Endpoint,
    IdentityResult,
    MarkedPath,
    Path,
    PeakVector,
    StatId,
    StatKind,
    SweepTotals,
    VerifyReport,
    Word,
)
from catalan_lab.formulas import Identity, _catalan_peak_sum
from catalan_lab.oeis import OeisBinding
from catalan_lab.path_classes import ImageRecord, MarkedClass, PathClass
from catalan_lab.paths import _Value
from catalan_lab.verify import Bijection, _FactorMarks


def _sizes(n_max):
    return range(n_max + 1)


def _forward(x):
    return x


def _image(n, dyck):
    return dyck[n]


UUDD = Path((U, U, D, D))
AREA = StatId(StatKind.AREA)

# class, every field by keyword in declaration order, the repr
FROZEN = [
    (Path, {"steps": (U, D)}, "Path('UD')"),
    (
        MarkedPath,
        {"path": UUDD, "mark_start": 1, "mark_len": 2},
        "MarkedPath(path=Path('UUDD'), mark_start=1, mark_len=2)",
    ),
    (Endpoint, {"a": 4, "b": 2}, "Endpoint(a=4, b=2)"),
    (Word, {"letters": (1, 2, 2)}, "Word('122')"),
    (
        StatId,
        {"kind": StatKind.SYM_PEAK, "ell": 2},
        "StatId(kind=<StatKind.SYM_PEAK: 'sym-peak'>, ell=2)",
    ),
    (IdentityResult, {"lhs": 3, "rhs": 4}, "IdentityResult(lhs=3, rhs=4)"),
    (
        Identity,
        {"floor": 1, "sides": _catalan_peak_sum, "ks": _sizes},
        f"Identity(floor=1, sides={_catalan_peak_sum!r}, ks={_sizes!r})",
    ),
    (
        PeakVector,
        {"pairs": ((1, 1), (0, 0))},
        "PeakVector(pairs=((1, 1), (0, 0)))",
    ),
    (
        AreaMark,
        {"path": UUDD, "up_index": 1, "j": 1},
        "AreaMark(path=Path('UUDD'), up_index=1, j=1)",
    ),
    (
        Bijection,
        {
            "label": "map n={n}",
            "sizes": _sizes,
            "forward": _forward,
            "inverse": _forward,
            "image": _image,
            "marks": None,
            "shift": 1,
            "domain": _sizes,
            "draw_input": None,
        },
        f"Bijection(label='map n={{n}}', sizes={_sizes!r}, forward={_forward!r}, "
        f"inverse={_forward!r}, image={_image!r}, marks=None, shift=1, "
        f"domain={_sizes!r}, draw_input=None)",
    ),
    (
        _FactorMarks,
        {"pattern": (U,), "min_end_height": 2},
        "_FactorMarks(pattern=(1,), min_end_height=2)",
    ),
    (
        PathClass,
        {"length": 4, "member": _forward, "size": 2},
        f"PathClass(length=4, member={_forward!r}, size=2)",
    ),
    (
        MarkedClass,
        {"length": 4, "member": _forward, "size": 2, "factor": (U, D)},
        f"MarkedClass(length=4, member={_forward!r}, size=2, factor=(1, -1))",
    ),
    (
        ImageRecord,
        {"strays": 1, "missing": 2, "first_strays": (UUDD,), "first_missing": ()},
        "ImageRecord(strays=1, missing=2, first_strays=(Path('UUDD'),), "
        "first_missing=())",
    ),
    (
        OeisBinding,
        {"id": "A000346", "stat": AREA, "offset": 0, "first_n": 2},
        "OeisBinding(id='A000346', stat=StatId(kind=<StatKind.AREA: 'area'>, "
        "ell=None), offset=0, first_n=2)",
    ),
]
FROZEN_IDS = [cls.__name__ for cls, _, _ in FROZEN]


@pytest.mark.parametrize(("cls", "fields", "text"), FROZEN, ids=FROZEN_IDS)
class TestFrozen:
    def test_keyword_and_positional_construction(self, cls, fields, text):
        by_keyword = cls(**fields)
        by_position = cls(*fields.values())
        assert by_keyword == by_position
        assert tuple(getattr(by_keyword, name) for name in fields) == tuple(
            fields.values()
        )

    def test_repr(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    def test_hash_is_the_field_tuple_hash(self, cls, fields, text):
        assert hash(cls(**fields)) == hash(tuple(fields.values()))

    def test_equality_needs_the_same_class(self, cls, fields, text):
        obj = cls(**fields)
        assert obj != tuple(fields.values())
        assert obj != object()

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, text):
        obj = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError, match=f"assign to field '{name}'"):
                setattr(obj, name, value)
            with pytest.raises(AttributeError, match=f"delete field '{name}'"):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert tuple(getattr(obj, name) for name in fields) == tuple(fields.values())


@pytest.mark.parametrize(
    "obj",
    [
        Path((U, U, D, D)),
        Word((1, 2, 1, 2, 3)),
        StatId(StatKind.ELL_VALLEY, 3),
        MarkedPath(UUDD, 0, 2),
    ],
    ids=repr,
)
def test_pickle_round_trip(obj):
    copy = pickle.loads(pickle.dumps(obj))
    assert type(copy) is type(obj)
    assert copy == obj and hash(copy) == hash(obj) and repr(copy) == repr(obj)


def test_defaults():
    assert StatId(StatKind.AREA) == StatId(StatKind.AREA, None)
    assert Identity(2, _catalan_peak_sum).ks is None
    assert OeisBinding("A1", AREA) == OeisBinding("A1", AREA, 1, 1)
    assert ImageRecord(0, 0) == ImageRecord(0, 0, (), ())
    entry = Bijection("m", _sizes, _forward, _forward, _image)
    assert (entry.marks, entry.shift, entry.domain, entry.draw_input) == (
        None, 0, None, None
    )


def test_checks_still_run():
    with pytest.raises(ValueError, match="does not take an ell"):
        StatId(StatKind.AREA, 1)
    with pytest.raises(ValueError, match="need a >= \\|b\\| >= 0"):
        Endpoint(1, 3)
    with pytest.raises(ValueError, match="mark_len must be positive"):
        MarkedPath(UUDD, 0, 0)
    with pytest.raises(ValueError, match="exceeds previous letter"):
        Word((1, 3))


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (
            lambda: Bijection("m", _sizes, _forward, _forward),
            "Bijection.__init__() missing 1 required positional argument: 'image'",
        ),
        (
            lambda: Bijection("m", _sizes, _forward, _forward, _image, mark=None),
            "Bijection.__init__() got an unexpected keyword argument 'mark'",
        ),
        (
            lambda: Bijection("m", _sizes, _forward, _forward, _image, label="n"),
            "Bijection.__init__() got multiple values for argument 'label'",
        ),
        (
            lambda: IdentityResult(3),
            "IdentityResult.__init__() missing 1 required positional argument: 'rhs'",
        ),
        (
            lambda: IdentityResult(3, 4, diff=1),
            "IdentityResult.__init__() got an unexpected keyword argument 'diff'",
        ),
        (
            lambda: IdentityResult(3, 4, lhs=3),
            "IdentityResult.__init__() got multiple values for argument 'lhs'",
        ),
    ],
    ids=[
        "Bijection-missing", "Bijection-unknown", "Bijection-twice",
        "IdentityResult-missing", "IdentityResult-unknown", "IdentityResult-twice",
    ],
)
def test_built_init_raises_the_signature_errors(call, message):
    with pytest.raises(TypeError) as raised:
        call()
    assert str(raised.value) == message


def test_inherited_hand_written_init_is_kept():
    class Reachable(Endpoint):
        __slots__ = ()

    with pytest.raises(ValueError, match="need a >= \\|b\\| >= 0"):
        Reachable(1, 3)
    assert Reachable(4, 2) == Reachable(b=2, a=4) != Endpoint(4, 2)


def _totals(area):
    return SweepTotals(2, 2, 1, 0, area, {StatKind.SYM_PEAK: {1: area}})


class TestSweepTotals:
    def test_repr(self):
        assert repr(_totals(3)) == (
            "SweepTotals(n=2, words=2, ascents=1, descents=0, area=3, "
            "patterns={<StatKind.SYM_PEAK: 'sym-peak'>: {1: 3}})"
        )

    def test_keyword_construction(self):
        assert _totals(3) == SweepTotals(
            n=2, words=2, ascents=1, descents=0, area=3,
            patterns={StatKind.SYM_PEAK: {1: 3}},
        )

    def test_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(_totals(3))

    def test_equal_after_add(self):
        assert _totals(3) + _totals(4) == SweepTotals(
            2, 4, 2, 0, 7, {StatKind.SYM_PEAK: {1: 7}}
        )
        assert _totals(3) + _totals(4) != _totals(7)

    def test_mutable(self):
        totals = _totals(3)
        totals.area = 5
        assert totals.area == 5 and totals != _totals(3)


class TestVerifyReport:
    def test_defaults_and_repr(self):
        report = VerifyReport("demo")
        assert report == VerifyReport(
            suite="demo", cases_run=0, failures=[], elapsed=0.0
        )
        assert repr(report) == (
            "VerifyReport(suite='demo', cases_run=0, failures=[], elapsed=0.0)"
        )

    def test_failures_are_not_shared(self):
        first, second = VerifyReport("a"), VerifyReport("b")
        first.check("x", 1, 2)
        assert first.failures == [("x", 1, 2)] and second.failures == []

    def test_mutable_and_unhashable(self):
        report = VerifyReport("demo")
        report.elapsed = 1.5
        assert report.elapsed == 1.5
        with pytest.raises(TypeError, match="unhashable"):
            hash(report)


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj))


def _read_cached(obj):
    """Read every cached value a value holds, on it and on its path."""
    for p in (obj, getattr(obj, "path", None)):
        if isinstance(p, Path):
            str(p), p.min_height, p.height_profile
    return obj


@pytest.mark.parametrize(
    "copier", [copy.copy, copy.deepcopy, _pickled], ids=["copy", "deepcopy", "pickle"]
)
@pytest.mark.parametrize(
    "make",
    [
        lambda: Path((U, U, D, U, D, D)),
        lambda: MarkedPath(Path((U, U, D, D, U, D)), 1, 3),
        lambda: AreaMark(Path((U, U, D, U, D, D)), 1, 1),
        lambda: Word((1, 2, 2, 1, 2)),
    ],
    ids=["Path", "MarkedPath", "AreaMark", "Word"],
)
def test_copies_after_cached_reads(make, copier):
    obj = _read_cached(make())
    got = copier(obj)
    assert type(got) is type(obj)
    assert got == obj and hash(got) == hash(obj)
    assert str(got) == str(obj) and repr(got) == repr(obj)
    assert _read_cached(got) == make()


@pytest.mark.parametrize("read_first", [False, True], ids=["fresh", "read"])
@pytest.mark.parametrize("name", ["steps", "min_height", "height_profile", "_text"])
def test_path_names_cannot_be_assigned_or_deleted(name, read_first):
    p = Path((U, D, D, U))
    if read_first:
        _read_cached(p)
    with pytest.raises(AttributeError) as raised:
        setattr(p, name, 0)
    assert str(raised.value) == f"cannot assign to field {name!r}"
    with pytest.raises(AttributeError) as raised:
        delattr(p, name)
    assert str(raised.value) == f"cannot delete field {name!r}"
    assert (p.steps, p.min_height, p.height_profile, str(p)) == (
        (U, D, D, U), -1, (1, 0, -1, 0), "UDDU"
    )


@pytest.mark.parametrize(("cls", "fields", "text"), FROZEN, ids=FROZEN_IDS)
def test_no_instance_dict_after_every_read(cls, fields, text):
    obj = _read_cached(cls(**fields))
    for name in dir(obj):
        if not name.startswith("__"):
            getattr(obj, name)
    str(obj), repr(obj), hash(obj)
    assert not hasattr(obj, "__dict__")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_frozen_class_is_listed():
    frozen = {
        cls
        for cls in _subclasses(_Value)
        if cls.__module__.startswith("catalan_lab") and cls.__hash__ is not None
    }
    assert frozen == {cls for cls, _, _ in FROZEN}
