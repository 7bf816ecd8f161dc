import json
from pathlib import Path

import pytest

from catalan_lab.verify import (
    SUITE_CAPS,
    VerifyReport,
    run_suite,
    verify_bijections,
    verify_distributions,
    verify_identities,
    verify_transport,
)


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


def test_bijection_check_descriptions_are_pinned(monkeypatch):
    # every check verify_bijections(8) makes, by description, against the file
    seen = []
    check = VerifyReport.check

    def record(self, description, expected, got):
        seen.append(description)
        check(self, description, expected, got)

    monkeypatch.setattr(VerifyReport, "check", record)
    report = verify_bijections(8)
    assert report.passed, report.to_text()
    assert report.cases_run == 481
    pinned = Path(__file__).parent / "data" / "bijection_checks.json"
    assert sorted(seen) == json.loads(pinned.read_text())


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
