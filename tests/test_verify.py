import itertools
import json
from pathlib import Path

import pytest

from catalan_lab import D, U, bijections, catalan, paths
from catalan_lab.formulas import IDENTITIES, Identity, IdentityId
from catalan_lab.verify import (
    BIJECTIONS,
    FACTOR_COUNTS,
    SUITE_CAPS,
    TRANSPORT,
    VerifyReport,
    negative_final_paths,
    run_suite,
    verify_bijections,
    verify_distributions,
    verify_identities,
    verify_transport,
)
from catalan_lab.words import ADJACENCY_INCREMENTS


class TestReport:
    def test_check_records_failures(self):
        rpt = VerifyReport("demo")
        rpt.check("ok case", 1, 1)
        rpt.check("bad case", 1, 2)
        assert rpt.cases_run == 2
        assert not rpt.passed
        assert rpt.failures == [("bad case", 1, 2)]
        text = rpt.to_text()
        assert "demo" in text and "bad case" in text


@pytest.mark.parametrize(
    "suite_fn,n_max",
    [
        (verify_bijections, 6),
        (verify_transport, 6),
        (verify_distributions, 7),
        (verify_identities, 80),
    ],
)
def test_suites_pass(suite_fn, n_max):
    report = suite_fn(n_max)
    assert report.passed, report.to_text()
    assert report.cases_run > 0
    assert report.elapsed >= 0


def test_identities_count_every_check():
    # ten identities check once per n from their floor; binomial-product-sum
    # checks once per (n, k), 30 pairs for n <= 10
    assert verify_identities(10).cases_run == 92 + 30


def test_distributions_count_every_check():
    # five Narayana checks and seven histogram counts per n
    report = verify_distributions(5)
    assert report.cases_run == 5 * (5 + len(ADJACENCY_INCREMENTS))


@pytest.mark.parametrize("kind", list(ADJACENCY_INCREMENTS))
def test_broken_increment_fails_only_its_histogram_count(monkeypatch, kind):
    first, (lt, eq, up) = ADJACENCY_INCREMENTS[kind]
    monkeypatch.setitem(ADJACENCY_INCREMENTS, kind, (first, (lt, eq, up + 1)))
    report = verify_distributions(5)
    # every length from 2 on has a word with an ascent
    assert [desc for desc, _, _ in report.failures] == [
        f"{kind.value} histogram count n={n}" for n in range(2, 6)
    ]


def _pinned_descriptions(monkeypatch, suite_fn, n_max, data_file):
    # every check suite_fn(n_max) makes, by description, the pinned file's, and
    # the value each check got
    seen = []
    check = VerifyReport.check

    def record(self, description, expected, got):
        seen.append((description, got))
        check(self, description, expected, got)

    monkeypatch.setattr(VerifyReport, "check", record)
    report = suite_fn(n_max)
    assert report.passed, report.to_text()
    pinned = Path(__file__).parent / "data" / data_file
    descriptions = sorted(description for description, _ in seen)
    return report, descriptions, json.loads(pinned.read_text()), dict(seen)


def test_bijection_check_descriptions_are_pinned(monkeypatch):
    report, seen, pinned, got = _pinned_descriptions(
        monkeypatch, verify_bijections, 8, "bijection_checks.json"
    )
    assert report.cases_run == 481
    assert seen == pinned
    # the suite counts the high-up entry's marks without building them: the
    # count it checks at each n is the number of marks the entry makes there
    marks = BIJECTIONS["high-up"].marks
    for n in range(1, 9):
        expected = sum(len(marks(p)) for p in paths.enumerate_dyck(n))
        assert got[f"high up marks n={n}"] == expected, n


def test_transport_check_descriptions_are_pinned(monkeypatch):
    report, seen, pinned, _ = _pinned_descriptions(
        monkeypatch, verify_transport, 9, "transport_checks.json"
    )
    assert report.cases_run == 49
    assert seen == pinned


def test_identity_check_descriptions_are_pinned(monkeypatch):
    # pins each identity's floor and k range: a floor moved down to an n where
    # the identity still holds adds a description
    report, seen, pinned, _ = _pinned_descriptions(
        monkeypatch, verify_identities, 10, "identity_checks.json"
    )
    assert report.cases_run == 122
    assert seen == pinned


@pytest.mark.parametrize("ident", list(IdentityId))
def test_broken_side_fails_only_its_identity(monkeypatch, ident):
    entry = IDENTITIES[ident]

    def off_by_one(*args):
        lhs, rhs = entry.sides(*args)
        return lhs, rhs + 1

    broken = Identity(floor=entry.floor, sides=off_by_one, ks=entry.ks)
    monkeypatch.setitem(IDENTITIES, ident, broken)
    report = verify_identities(10)
    pinned = Path(__file__).parent / "data" / "identity_checks.json"
    assert sorted(desc for desc, _, _ in report.failures) == [
        desc
        for desc in json.loads(pinned.read_text())
        if desc.startswith(f"{ident.value} n=")
    ]


# the transport comparisons that read each FACTOR_COUNTS entry
FACTOR_READERS = {
    "uu": "runs of descents",
    "ddu": "descents as DDU",
    "udu": "runs of descents",
    "uuddu": "sym-peak 1",
    "uudd non-terminal": "ell-peak 1",
    "deep-valley": "ell-valley 1",
}


@pytest.mark.parametrize("name", list(FACTOR_COUNTS))
def test_broken_factor_count_fails_only_its_readers(monkeypatch, name):
    count = FACTOR_COUNTS[name]
    monkeypatch.setitem(FACTOR_COUNTS, name, lambda p: count(p) + 1)
    transport = verify_transport(5)
    assert transport.failures == [
        (f"transport n={n}", {}, {FACTOR_READERS[name]: catalan(n)})
        for n in range(1, 6)
    ]
    bijections = verify_bijections(5)
    assert [desc for desc, _, _ in bijections.failures] == [
        f"marked factor counts n={n}" for n in range(1, 6)
    ]


# the TRANSPORT lines whose count is one FACTOR_COUNTS entry alone; the marked
# factor counts read the closed forms of their statistics
ONE_FACTOR_LINES = {"ell-valley 1", "sym-peak 1", "ell-peak 1", "descents as DDU"}


@pytest.mark.parametrize("name", list(TRANSPORT))
def test_broken_transport_line_fails_only_its_readers(monkeypatch, name):
    stat, terms = TRANSPORT[name]
    monkeypatch.setitem(TRANSPORT, name, (stat, (*terms, 1)))
    transport = verify_transport(5)
    # the sym-valley line is one line per ell from 1 to n
    assert transport.failures == [
        (f"transport n={n}", {}, {name.format(ell=ell): catalan(n) for ell in range(1, n + 1)})
        for n in range(1, 6)
    ]
    bijections = verify_bijections(5)
    assert [desc for desc, _, _ in bijections.failures] == [
        f"marked factor counts n={n}" for n in range(1, 6) if name in ONE_FACTOR_LINES
    ]


def test_broken_raney_shift_fails_each_scanned_length(monkeypatch):
    # at n_max = 0 the slot covering, the other reader of raney_shift, is skipped
    monkeypatch.setattr(bijections, "raney_shift", lambda values: 1)
    report = verify_bijections(0)
    descriptions = [desc for desc, _, _ in report.failures]
    assert all(desc.startswith("raney uniqueness ") for desc in descriptions)
    # of length 1 only (1,) sums to 1, and shift 1 is its one rotation
    assert [desc for desc in descriptions if "scanned" in desc] == [
        f"raney uniqueness scanned length {length}" for length in range(2, 6)
    ]


def test_deep_valley_count_is_the_papers_sum():
    # the paper's deep valleys, U D^j U U for every j >= 2; no D run of a
    # Dyck path of size n is longer than n
    count = FACTOR_COUNTS["deep-valley"]
    for n in range(11):
        for p in paths.enumerate_dyck(n):
            deep = sum(
                paths.count_factor(p, (U,) + (D,) * j + (U, U)) for j in range(2, n + 1)
            )
            assert count(p) == deep, p


@pytest.mark.parametrize("n", range(7))
def test_negative_final_paths_in_order(n):
    steps = itertools.product((U, D), repeat=2 * n)
    assert negative_final_paths(n) == [paths.Path(s) for s in steps if sum(s) < 0]


class TestRunSuite:
    def test_named_suite(self):
        reports = run_suite("distributions", 5)
        assert len(reports) == 1
        assert reports[0].suite == "distributions"
        assert reports[0].passed

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            run_suite("bijections", SUITE_CAPS["bijections"] + 1)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    def test_all_clips_to_caps(self):
        reports = run_suite("all", 4)
        assert [r.suite for r in reports] == [
            "bijections",
            "transport",
            "distributions",
            "identities",
        ]
        assert all(r.passed for r in reports)
