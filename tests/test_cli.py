import csv
import hashlib
import io
import json
import math
import pathlib
import random
import subprocess
import sys

import pytest

from catalan_lab import StatKind, closed_total, narayana, random_dyck_path
from catalan_lab.cli import WRITE_CHARS, main
from catalan_lab.limits import COUNT_MAX_N, SUITE_CAPS
from catalan_lab.oeis import (
    BUILTIN_BINDINGS,
    first_divergence,
    format_bfile,
    parse_bfile,
)
from catalan_lab.words import ADJACENCY_INCREMENTS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_words_plain(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--kind", "words", "--n", "4")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 14
        assert lines[0] == "1111"
        assert lines[-1] == "1234"

    def test_n0_single_empty_record(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--kind", "words", "--n", "0")
        assert code == 0
        assert out == "\n"

    def test_paths_plain(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--kind", "paths", "--n", "2")
        assert (code, out.splitlines()) == (0, ["UUDD", "UDUD"])

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate", "--kind", "words", "--n", "3",
            "--format", "json", "--stats", "area,runs-desc",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 5
        assert records[0] == {
            "index": 0,
            "value": "111",
            "stats": {"area": 3, "runs-desc": 3},
        }

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--kind", "paths", "--n", "2", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["index", "value"], ["0", "UUDD"], ["1", "UDUD"]]

    def test_ceiling_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--kind", "words", "--n", "17")
        assert code == 2
        assert "16" in err

    def test_paths_ceiling_prints_nothing(self, capsys):
        # the csv header would come first if the ceiling were checked lazily
        code, out, err = run_cli(
            capsys, "enumerate", "--kind", "paths", "--n", "17", "--format", "csv"
        )
        assert (code, out) == (2, "") and "16" in err

    def test_max_n_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CATALAN_LAB_MAX_N", "2")
        code, _, err = run_cli(capsys, "enumerate", "--kind", "words", "--n", "3")
        assert code == 2 and "2" in err
        code, out, _ = run_cli(
            capsys, "--max-n", "5", "enumerate", "--kind", "words", "--n", "3"
        )
        assert code == 0 and len(out.splitlines()) == 5

    def test_stats_on_paths_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "enumerate", "--kind", "paths", "--n", "2", "--stats", "area",
        )
        assert code == 2 and "words" in err

    # size and sha256 of `enumerate --kind words --n 8 --stats all` (1,430
    # rows, every statistic) as printed before the walk-string oracle
    WORDS_N8_ALL_STATS = {
        "csv": (57642, "0fff59eccf9b5bd96e2b4b71cdbad7b2e6a13c9ea0db2a906cfad484d8fe3446"),
        "json": (342081, "1592b2af85d03f18e8ea70fb3bdb2f809a78ed7eabc5223ef15c9fa62acb0bbc"),
    }

    @pytest.mark.parametrize("fmt", WORDS_N8_ALL_STATS)
    def test_words_n8_all_stats_bytes_pinned(self, capsys, fmt):
        code, out, _ = run_cli(
            capsys,
            "enumerate", "--kind", "words", "--n", "8", "--stats", "all",
            "--format", fmt,
        )
        data = out.encode()
        assert code == 0
        assert (len(data), hashlib.sha256(data).hexdigest()) == self.WORDS_N8_ALL_STATS[fmt]


class TestTotals:
    def test_sym_valley_final_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "totals", "--n-max", "4", "--stats", "sym-valley",
            "--format", "csv",
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0] == ["n", "stat", "brute", "closed", "match"]
        assert rows[-1] == ["4", "sym-valley", "1", "1", "true"]

    def test_area_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "totals", "--n-max", "3", "--stats", "area", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [r[2] for r in rows] == ["1", "5", "22"]

    def test_runs_weak_asc_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "totals", "--n-max", "2", "--stats", "runs-weak-asc",
            "--format", "csv",
        )
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [r[2] for r in rows] == ["1", "2"]
        assert code == 0

    def test_csv_round_trip_reproduces_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "totals", "--n-max", "5", "--stats", "all", "--format", "csv"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        rechecked = all(row["brute"] == row["closed"] for row in rows)
        assert rechecked == (code == 0)
        assert all(
            (row["match"] == "true") == (row["brute"] == row["closed"])
            for row in rows
        )

    def test_parallel_matches_serial(self, capsys):
        code_a, out_a, _ = run_cli(
            capsys, "totals", "--n-max", "6", "--stats", "all", "--format", "csv"
        )
        code_b, out_b, _ = run_cli(
            capsys,
            "totals", "--n-max", "6", "--stats", "all", "--format", "csv",
            "--parallel", "2",
        )
        assert (code_a, out_a) == (code_b, out_b)

    def test_parallel_ceiling_is_usage_error(self, capsys):
        # the shards of n = 6 raise the ceiling error in the workers
        code, out, err = run_cli(
            capsys, "--max-n", "5", "totals", "--n-max", "8", "--parallel", "2"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: n=6 exceeds the enumeration ceiling 5 "
            "(override with CATALAN_LAB_MAX_N or an explicit max_n)\n"
        )

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_parallel_below_one_is_usage_error(self, capsys, workers):
        code, out, err = run_cli(
            capsys, "totals", "--n-max", "6", "--stats", "area", "--parallel", workers
        )
        assert (code, out) == (2, "") and "parallel" in err

    def test_parallel_workers_capped_at_shard_count(self, capsys, monkeypatch):
        # a recording stand-in for the pool: no process is started
        import concurrent.futures

        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        argv = ["totals", "--n-max", "6", "--stats", "all", "--format", "csv"]
        serial = run_cli(capsys, *argv)
        sharded = run_cli(capsys, *argv, "--parallel", "100000")
        # only n = 6 is sharded, over the C_4 = 14 prefixes of length 4
        assert asked == [14]
        assert sharded == serial

    def test_deterministic_output(self, capsys):
        _, out_a, _ = run_cli(capsys, "totals", "--n-max", "4", "--stats", "all")
        _, out_b, _ = run_cli(capsys, "totals", "--n-max", "4", "--stats", "all")
        assert out_a == out_b

    def test_unknown_stat(self, capsys):
        code, _, err = run_cli(
            capsys, "totals", "--n-max", "3", "--stats", "bogus"
        )
        assert code == 2 and "bogus" in err

    def test_empty_ell_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "totals", "--n-max", "3", "--stats", "sym-valley:"
        )
        assert (code, out) == (2, "") and "ell must be an integer" in err

    def test_underscored_ell_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "totals", "--n-max", "1", "--stats", "sym-valley:1_0"
        )
        assert (code, out) == (2, "") and "ell must be an integer, got '1_0'" in err

    def test_empty_range(self, capsys):
        code, out, _ = run_cli(capsys, "totals", "--n-max", "0", "--stats", "area")
        assert code == 0 and out == ""

    def test_negative_n_max_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "totals", "--n-max", "-2", "--stats", "area")
        assert (code, out) == (2, "") and "nonnegative" in err

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        import catalan_lab.cli as cli_mod

        real = cli_mod.closed_total
        monkeypatch.setattr(
            cli_mod, "closed_total", lambda n, s: real(n, s) + 1
        )
        code, out, _ = run_cli(
            capsys, "totals", "--n-max", "3", "--stats", "area"
        )
        assert code == 1
        assert "MISMATCH" in out


class TestVerify:
    def test_identities(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "identities", "--n-max", "60"
        )
        assert code == 0
        assert "PASSED" in out

    def test_bijections_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "bijections", "--n-max", "5"
        )
        assert code == 0
        assert "0 failures" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--suite", "bijections", "--n-max", "9"
        )
        assert code == 2 and "caps" in err

    @pytest.mark.parametrize("suite", ["identities", "all"])
    def test_negative_n_max_is_usage_error(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--n-max", "-1")
        assert code == 2
        assert "nonnegative" in err and "PASSED" not in out


class TestOeis:
    def test_a000346_prefix(self, capsys):
        code, out, _ = run_cli(capsys, "oeis", "A000346", "--terms", "4")
        assert code == 0
        assert out == "1 1\n2 5\n3 22\n4 93\n"

    def test_a000984_values(self, capsys):
        code, out, _ = run_cli(capsys, "oeis", "A000984", "--terms", "3")
        assert [line.split()[1] for line in out.splitlines()] == ["1", "2", "6"]

    def test_a057552_starts_at_n3(self, capsys):
        code, out, _ = run_cli(capsys, "oeis", "A057552", "--terms", "3")
        assert [line.split()[1] for line in out.splitlines()] == ["1", "5", "20"]

    def test_custom_stat_binding(self, capsys):
        code, out, _ = run_cli(
            capsys, "oeis", "--stat", "runs-asc", "--terms", "3"
        )
        assert code == 0
        assert [line.split()[1] for line in out.splitlines()] == ["1", "3", "10"]

    @pytest.mark.parametrize("flag", ["--offset", "--first-n"])
    def test_builtin_id_rejects_alignment_flags(self, capsys, flag):
        code, out, err = run_cli(
            capsys, "oeis", "A000346", "--terms", "3", flag, "0"
        )
        assert code == 2
        assert flag in err and out == ""

    def test_custom_binding_honours_alignment_flags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oeis", "A000346", "--stat", "area", "--terms", "2",
            "--offset", "0", "--first-n", "2",
        )
        assert (code, out) == (0, "0 5\n1 22\n")

    def test_check_match(self, capsys, tmp_path):
        bfile = tmp_path / "b000346.txt"
        bfile.write_text("# comment\n1 1\n2 5\n3 22\n4 93\n5 386\n")
        code, out, _ = run_cli(
            capsys, "oeis", "A000346", "--terms", "5", "--check", str(bfile)
        )
        assert code == 0 and "match" in out

    def test_check_divergence(self, capsys, tmp_path):
        bfile = tmp_path / "bad.txt"
        bfile.write_text("1 1\n2 5\n3 999\n")
        code, out, _ = run_cli(
            capsys, "oeis", "A000346", "--terms", "5", "--check", str(bfile)
        )
        assert code == 1
        assert "index 3" in out and "999" in out

    def test_check_aligns_by_index_not_value(self, capsys, tmp_path):
        # a shifted file must diverge rather than silently align
        bfile = tmp_path / "shifted.txt"
        bfile.write_text("2 1\n3 5\n4 22\n")
        code, out, _ = run_cli(
            capsys, "oeis", "A000346", "--terms", "5", "--check", str(bfile)
        )
        assert code == 1

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
    )
    def test_terms_past_int_digit_limit(self, capsys, tmp_path):
        argv = ["oeis", "--stat", "area", "--offset", "8000", "--first-n", "8000",
                "--terms", "1"]
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            index, value = out.split()
            assert index == "8000" and len(value) == 4817
            bfile = tmp_path / "b_area.txt"
            bfile.write_text(out)
            sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
            code, out, err = run_cli(capsys, *argv, "--check", str(bfile))
            assert (code, out, err) == (0, "match: 1 shared terms agree\n", "")
        finally:
            sys.set_int_max_str_digits(saved)

    def test_custom_binding_with_negative_offset(self, capsys):
        code, out, err = run_cli(
            capsys, "oeis", "--stat", "area", "--offset", "-3", "--terms", "2"
        )
        assert (code, out, err) == (0, "-3 1\n-2 5\n", "")

    def test_first_n_below_one(self, capsys):
        code, out, err = run_cli(
            capsys, "oeis", "--stat", "area", "--first-n", "0", "--terms", "3"
        )
        assert (code, out, err) == (2, "", "error: first n must be at least 1, got 0\n")

    def test_unknown_id(self, capsys):
        code, _, err = run_cli(capsys, "oeis", "A999999", "--terms", "3")
        assert code == 2

    def test_missing_binding(self, capsys):
        code, _, err = run_cli(capsys, "oeis", "--terms", "3")
        assert code == 2

    @pytest.mark.parametrize("text", [None, "1 1\n2 five\n"], ids=["missing", "malformed"])
    def test_check_reads_the_bfile_before_any_term(
        self, capsys, monkeypatch, tmp_path, text
    ):
        from catalan_lab.oeis import OeisBinding

        def unreachable(binding, count):
            raise AssertionError("a term was computed before the b-file was read")

        monkeypatch.setattr(OeisBinding, "terms", unreachable)
        bfile = tmp_path / "b.txt"
        if text is not None:
            bfile.write_text(text)
        code, out, err = run_cli(
            capsys, "oeis", "--stat", "corner-hu", "--terms", "99999999999999999999",
            "--check", str(bfile),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestBfileHelpers:
    def test_format_and_parse(self):
        text = format_bfile([(1, 10), (2, 20)])
        assert text == "1 10\n2 20\n"
        assert parse_bfile("# c\n\n1 10\n2 20\n") == {1: 10, 2: 20}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_bfile("1 2 3\n")
        with pytest.raises(ValueError):
            parse_bfile("1 x\n")
        with pytest.raises(ValueError):
            parse_bfile("1 2\n1 3\n")

    @pytest.mark.parametrize("line", ["5 " + "9" * 3000 + "x", "1 2 " + "3" * 3000])
    def test_parse_error_quotes_a_short_prefix(self, line):
        with pytest.raises(ValueError, match="…") as exc:
            parse_bfile(line)
        assert len(str(exc.value)) < 100

    def test_first_divergence_requires_overlap(self):
        with pytest.raises(ValueError):
            first_divergence([(1, 1)], {5: 9})

    def test_builtin_bindings_have_positive_first_terms(self):
        for binding in BUILTIN_BINDINGS.values():
            index, value = binding.terms(1)[0]
            assert index == binding.offset
            assert value > 0

    @pytest.mark.parametrize("seq_id", sorted(BUILTIN_BINDINGS))
    def test_stepped_terms_match_single_values(self, seq_id):
        binding = BUILTIN_BINDINGS[seq_id]
        indices = range(binding.offset, binding.offset + 700)
        expected = [
            (i, closed_total(binding.first_n + i - binding.offset, binding.stat))
            for i in indices
        ]
        assert binding.terms(700) == expected

    def test_terms_rejects_count_below_one(self):
        with pytest.raises(ValueError, match="term count must be positive"):
            BUILTIN_BINDINGS["A000346"].terms(0)


class TestDistribution:
    def test_runs_asc_narayana(self, capsys):
        code, out, _ = run_cli(
            capsys, "distribution", "--stat", "runs-asc", "--n", "4",
            "--format", "csv",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0
        assert [(r["value"], r["count"]) for r in rows] == [
            ("1", "1"), ("2", "6"), ("3", "6"), ("4", "1"),
        ]
        assert all(r["match"] == "true" for r in rows)

    def test_area_n2(self, capsys):
        code, out, _ = run_cli(
            capsys, "distribution", "--stat", "area", "--n", "2", "--format", "json"
        )
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows == [{"value": 2, "count": 1}, {"value": 3, "count": 1}]

    def test_single_bucket_n1(self, capsys):
        code, out, _ = run_cli(capsys, "distribution", "--stat", "semi", "--n", "1")
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_runs_asc_empty_word(self, capsys):
        code, out, _ = run_cli(
            capsys, "distribution", "--stat", "runs-asc", "--n", "0"
        )
        assert code == 0
        assert out.split() == ["0", "1", "1", "ok"]

    def test_semi_empty_word(self, capsys):
        code, out, err = run_cli(capsys, "distribution", "--stat", "semi", "--n", "0")
        assert (code, out.split(), err) == (0, ["0", "1"], "")

    def test_counted_kinds_ignore_the_ceiling(self, capsys, monkeypatch):
        monkeypatch.setenv("CATALAN_LAB_MAX_N", "3")
        for kind in ADJACENCY_INCREMENTS:
            code, out, _ = run_cli(
                capsys, "distribution", "--stat", kind.value, "--n", "8"
            )
            assert code == 0, kind
            assert sum(int(line.split()[1]) for line in out.splitlines()) == 1430
        code, _, _ = run_cli(
            capsys, "--max-n", "3", "distribution", "--stat", "semi", "--n", "17"
        )
        assert code == 0

    @pytest.mark.parametrize("kind", list(ADJACENCY_INCREMENTS))
    def test_counted_kinds_stop_at_the_cap(self, capsys, kind):
        code, out, err = run_cli(
            capsys, "distribution", "--stat", kind.value, "--n", str(COUNT_MAX_N + 1)
        )
        assert (code, out) == (2, "")
        assert f"cap {COUNT_MAX_N}" in err

    @pytest.mark.parametrize("stat", ["area", "sym-valley", "ell-peak:2"])
    def test_enumerated_kinds_keep_the_ceiling(self, capsys, stat):
        code, out, err = run_cli(capsys, "distribution", "--stat", stat, "--n", "17")
        assert (code, out) == (2, "")
        assert "ceiling 16" in err

    @pytest.mark.parametrize("kind", list(StatKind))
    def test_negative_n_is_usage_error(self, capsys, kind):
        code, out, err = run_cli(
            capsys, "distribution", "--stat", kind.value, "--n", "-1"
        )
        assert (code, out) == (2, "")
        assert "size must be nonnegative, got -1" in err

    def test_runs_asc_narayana_row_at_200(self, capsys):
        code, out, _ = run_cli(
            capsys, "distribution", "--stat", "runs-asc", "--n", "200"
        )
        rows = [line.split() for line in out.splitlines()]
        assert code == 0
        assert [int(row[0]) for row in rows] == list(range(1, 201))
        assert all(row[1] == row[2] and row[3] == "ok" for row in rows)
        assert int(rows[99][1]) == narayana(200, 100)


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "catalan_lab.cli", "enumerate",
             "--kind", "paths", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "UUDD\nUDUD\n"

    def test_exit_code_propagates(self):
        proc = subprocess.run(
            [sys.executable, "-m", "catalan_lab.cli", "enumerate",
             "--kind", "words", "--n", "99"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "ceiling" in proc.stderr

    def test_closed_pipe_ends_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "catalan_lab.cli", "enumerate",
             "--kind", "words", "--n", "10"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"1111111111\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_closed_pipe_ends_a_bfile_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "catalan_lab.cli", "oeis", "A000346",
             "--terms", "3000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"1 1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_negative_max_n_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "--max-n", "-5", "enumerate", "--kind", "words", "--n", "0"
        )
        assert code == 2
        assert "max_n must be nonnegative, got -5" in err



# benchmark/tracing.py times the traced run (--trace 1) by replacing these
# module attributes by name; the CLI must keep each one, even one that no
# command reads any more, or that run fails.
TRACED_CLI_NAMES = {
    "sweep_totals": "words",
    "stat_value": "words",
    "enumerate_catalan": "words",
    "closed_total": "formulas",
    "narayana": "formulas",
    "random_dyck_path": "paths",
    "enumerate_dyck": "paths",
}


@pytest.mark.parametrize("name", TRACED_CLI_NAMES)
def test_traced_run_finds_cli_names(name):
    import importlib

    from catalan_lab import cli

    source = importlib.import_module(f"catalan_lab.{TRACED_CLI_NAMES[name]}")
    assert getattr(cli, name) is getattr(source, name)


def test_cli_has_no_unknown_name():
    from catalan_lab import cli

    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018


# Each name the traced run replaces on the CLI, with a command that reads it:
# the command must call the value set on the module, or the traced layer
# metrics fed by that name read zero.
TOTALS_ARGV = ("totals", "--n-max", "3", "--stats", "area")
WORDS_ARGV = ("enumerate", "--kind", "words", "--n", "3", "--stats", "area",
              "--format", "csv")
ENUMERATED_ARGV = ("distribution", "--stat", "area", "--n", "4")
COMMAND_READS = [
    ("sweep_totals", TOTALS_ARGV),
    ("closed_total", TOTALS_ARGV),
    ("enumerate_catalan", ENUMERATED_ARGV),
    ("stat_value", ENUMERATED_ARGV),
    ("narayana", ("distribution", "--stat", "runs-asc", "--n", "4")),
    ("enumerate_catalan", WORDS_ARGV),
    ("stat_value", WORDS_ARGV),
]


@pytest.mark.parametrize(
    ("name", "argv"), COMMAND_READS, ids=[f"{n} in {a[0]}" for n, a in COMMAND_READS]
)
def test_commands_call_the_names_set_on_the_cli(capsys, monkeypatch, name, argv):
    import catalan_lab.cli as cli_mod

    real, calls = getattr(cli_mod, name), []

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, name, recording)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0 and calls


def test_traced_run_finds_oeis_closed_total():
    from catalan_lab import formulas, oeis

    assert oeis.closed_total is formulas.closed_total


@pytest.mark.parametrize("suite", SUITE_CAPS)
def test_traced_run_finds_verify_suites(monkeypatch, suite):
    # the traced run times each suite by replacing verify.verify_<suite>; the
    # suite that run_suite calls is the one bound there when it runs
    from catalan_lab import verify

    ran = []
    report = verify.VerifyReport(suite)
    monkeypatch.setattr(verify, f"verify_{suite}", lambda n_max: ran.append(n_max) or report)
    assert verify.run_suite(suite) == [report]
    assert report in verify.run_suite("all", 0)
    assert ran == [SUITE_CAPS[suite], 0]


class CountingStdout(io.StringIO):
    """A standard output that records the size of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


class TestBatchedWrites:
    # size and sha256 of `enumerate --kind paths --n 10` (16,796 rows) as
    # written before the rows were batched, one write per row
    ROW_BY_ROW = {
        "plain": (352716, "6319d0b590ce2932d00776c059938c9643d4dccb2397e573cf8f1fa1801adca7"),
        "csv": (459191, "174367e2a102e56e21be4667a3346cc4538a9c4cdd7b68bde9f6e994085b4e32"),
        "json": (828690, "08e7409df6ccc107b40825d0e4c6f990b1b6414ccaaea090071b33f22372e9ea"),
    }

    @pytest.mark.parametrize("fmt", ROW_BY_ROW)
    def test_many_rows_few_writes_same_bytes(self, fmt, monkeypatch):
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        code = main(["enumerate", "--kind", "paths", "--n", "10", "--format", fmt])
        data = out.getvalue().encode()
        assert code == 0
        assert (len(data), hashlib.sha256(data).hexdigest()) == self.ROW_BY_ROW[fmt]
        assert len(out.sizes) <= math.ceil(len(data) / WRITE_CHARS) + 1

    def test_paths_n11_bytes_pinned(self, monkeypatch):
        # 22 steps: two full blocks of the enumerator and a partial one;
        # size and sha256 as printed by the successor-rule enumerator
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        code = main(["enumerate", "--kind", "paths", "--n", "11"])
        data = out.getvalue().encode()
        assert code == 0
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            1352078,
            "dfba36bc75f1eb70f53bcba42cea451a3c4228ad926450da114095fd86d6f264",
        )

    def test_long_rows_keep_writes_bounded(self, monkeypatch):
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        code = main(["sample", "--n", "20000", "--count", "8", "--seed", "3"])
        row = 2 * 20000 + 1
        assert code == 0
        assert sum(out.sizes) == 8 * row
        assert 1 < len(out.sizes) and max(out.sizes) < WRITE_CHARS + row

    def test_long_json_rows_keep_writes_bounded(self, monkeypatch):
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        code = main(
            ["sample", "--n", "20000", "--count", "8", "--seed", "3", "--format", "json"]
        )
        assert code == 0
        rng = random.Random(3)
        lines = [
            json.dumps({"index": i, "value": str(random_dyck_path(20000, rng))}) + "\n"
            for i in range(8)
        ]
        assert out.getvalue() == "".join(lines)
        row = max(map(len, lines))
        assert 1 < len(out.sizes) and max(out.sizes) < WRITE_CHARS + row

    def test_bfile_streams_in_batches(self, monkeypatch):
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        code = main(["oeis", "A000346", "--terms", "3000"])
        text = out.getvalue()
        data = text.encode()
        assert code == 0
        # size and sha256 as written whole, by one write of format_bfile
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            2727636,
            "145367e98ce9879f154809578989df73459500530a797bab98c1f220b4a9c589",
        )
        assert text == format_bfile(BUILTIN_BINDINGS["A000346"].terms(3000))
        line = max(map(len, text.splitlines(keepends=True)))
        assert 1 < len(out.sizes) and max(out.sizes) <= WRITE_CHARS + line

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
    )
    def test_streamed_huge_terms_round_trip(self, monkeypatch, tmp_path):
        argv = ["oeis", "--stat", "area", "--offset", "8000", "--first-n", "8000",
                "--terms", "30"]
        saved = sys.get_int_max_str_digits()
        try:
            out = CountingStdout()
            monkeypatch.setattr(sys, "stdout", out)
            sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
            assert main(argv) == 0
            entries = parse_bfile(out.getvalue())
            assert list(entries) == list(range(8000, 8030))
            assert 1 < len(out.sizes)
            bfile = tmp_path / "b_area.txt"
            bfile.write_text(out.getvalue())
            out = CountingStdout()
            monkeypatch.setattr(sys, "stdout", out)
            sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
            assert main([*argv, "--check", str(bfile)]) == 0
            assert out.getvalue() == "match: 30 shared terms agree\n"
        finally:
            sys.set_int_max_str_digits(saved)


class TestSample:
    def test_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--n", "3"])
        assert exc.value.code == 2

    def test_deterministic_with_seed(self, capsys):
        _, out_a, _ = run_cli(
            capsys, "sample", "--n", "5", "--count", "10", "--seed", "9"
        )
        _, out_b, _ = run_cli(
            capsys, "sample", "--n", "5", "--count", "10", "--seed", "9"
        )
        assert out_a == out_b
        assert len(out_a.splitlines()) == 10

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_usage_error(self, capsys, count):
        code, out, err = run_cli(
            capsys, "sample", "--n", "3", "--count", count, "--seed", "1"
        )
        assert (code, out) == (2, "")
        assert f"sample count must be positive, got {count}" in err

    def test_size_past_an_index_is_usage_error(self, capsys):
        # the size is past SAMPLE_MAX_N, so it is refused before any draw
        code, out, err = run_cli(
            capsys, "sample", "--n", "99999999999999999999", "--seed", "1"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_size_past_the_ceiling_is_refused_before_any_draw(self, capsys, monkeypatch):
        import catalan_lab.cli as cli_mod
        from catalan_lab.limits import SAMPLE_MAX_N

        drawn = []
        monkeypatch.setattr(
            cli_mod, "random_dyck_text", lambda n, rng: drawn.append(n) or "UD"
        )
        code, out, err = run_cli(
            capsys, "sample", "--n", str(SAMPLE_MAX_N + 1), "--seed", "1"
        )
        assert (code, out, drawn) == (2, "", [])
        assert err == (
            f"error: sample size must be at most {SAMPLE_MAX_N}, "
            f"got {SAMPLE_MAX_N + 1}\n"
        )
        # the ceiling itself is drawn, here by the stand-in
        code, out, _ = run_cli(capsys, "sample", "--n", str(SAMPLE_MAX_N), "--seed", "1")
        assert (code, out, drawn) == (0, "UD\n", [SAMPLE_MAX_N])

    def test_draws_are_valid(self, capsys):
        from catalan_lab import Path, is_dyck

        _, out, _ = run_cli(
            capsys, "sample", "--n", "4", "--count", "50", "--seed", "3"
        )
        for line in out.splitlines():
            assert is_dyck(Path.from_string(line))


class TestPathOutputPins:
    """stdout (size and sha256), stderr and exit code of the Dyck path
    commands, recorded before ``enumerate --kind paths`` wrote text straight
    from the enumerator's block tables."""

    ENUMERATE = {
        (-1, "plain"): (2, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (-1, "csv"): (2, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (-1, "json"): (2, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (0, "plain"): (0, 1, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
        (0, "csv"): (0, 17, "9cb1804eba4b64ba52e088c85c81ce3ee96a1261ff6e49f7d7ed5c02fe7eb92e"),
        (0, "json"): (0, 26, "6b0be198efd407b86edc9153cd0f2087ddd903eb0daa7f45d359302e2822cb55"),
        (1, "plain"): (0, 3, "26dbd15b828d6d7bf21e81958edb2524dc92c5264721a819aec093e46ab24442"),
        (1, "csv"): (0, 19, "14944fe0f24d02f68c5375a425d3e42992f98a3e5aec05588d95819cb06655be"),
        (1, "json"): (0, 28, "594e3ef2d3ef518570dc813338dff12237871539d67b9f80725f523aa945138b"),
        (2, "plain"): (0, 10, "df96f00e2d15f3ad594a7c3aebff8844dcfb96669f7cd6be91c6720a6ef7f61c"),
        (2, "csv"): (0, 29, "7854c70bce3adfc9fd9daca6ec111c5a4ad4e24f9d9fa36301f09068494659b1"),
        (2, "json"): (0, 60, "07f4581d0c173118e839df300ed42534369b17611e4c03bda6cf6c8e83c2b557"),
        (7, "plain"): (0, 6435, "545598ada93c24313f90c89532164129de468aa40da67bba800520c5a693f164"),
        (7, "csv"): (0, 8483, "e3797ad3fd5174eacabfcb15f827eca97e3f17a8bd9e68cc6d61871bf5389321"),
        (7, "json"): (0, 17908, "b80d75d194b6e09c571b5931a4c5b0a874bd514df27118523a90c6106e713a98"),
    }
    SAMPLE = {
        ("200", "50", "1", "plain"): (20050, "1f70bc9fbec011e492e1a9cafa3ee79f8312b81de9578945258098493e9f1b2c"),
        ("200", "50", "1", "json"): (21340, "687e1fdcb4dd39b8a0d45c0405cae5829b967daadb18f2b73c47fd854634ff4b"),
        ("100000", "2", "2", "plain"): (400002, "5e3939de31fdc7008a880a3e8056f1922fe48dbdcc47f366d57dcaa8cb6a433a"),
        ("100000", "2", "2", "json"): (400052, "49c08b1dbe278351bf5ff0506ab8885bf5bf318c6f0371c289535f2258150aba"),
    }

    @staticmethod
    def digest(out):
        data = out.encode()
        return len(data), hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize(("n", "fmt"), ENUMERATE)
    def test_enumerate_paths(self, capsys, n, fmt):
        code, out, err = run_cli(
            capsys, "enumerate", "--kind", "paths", "--n", str(n), "--format", fmt
        )
        assert (code, *self.digest(out)) == self.ENUMERATE[n, fmt]
        assert err == ("error: size must be nonnegative, got -1\n" if n < 0 else "")

    def test_ceiling_prints_nothing(self, capsys):
        code, out, err = run_cli(
            capsys, "--max-n", "5", "enumerate", "--kind", "paths", "--n", "6",
            "--format", "csv",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: n=6 exceeds the enumeration ceiling 5 "
            "(override with CATALAN_LAB_MAX_N or an explicit max_n)\n"
        )

    @pytest.mark.parametrize(("n", "count", "seed", "fmt"), SAMPLE)
    def test_sample(self, capsys, n, count, seed, fmt):
        code, out, err = run_cli(
            capsys, "sample", "--n", n, "--count", count, "--seed", seed,
            "--format", fmt,
        )
        assert (code, err) == (0, "")
        assert self.digest(out) == self.SAMPLE[n, count, seed, fmt]


class TestSampleWorkloadPins:
    """stdout (size and sha256) of the two ``sample`` commands of the
    benchmark's ``bijective`` workload, recorded once the sampler drew its
    arrangements from fair bits with a fixed count."""

    PINS = {
        ("200", "5000", "1", "plain"): (2005000, "cbebfd8ecc7c0250c07dddd7e8b81b253a125982d53b44d91358e20e21e6ab56"),
        ("200", "5000", "1", "json"): (2143890, "59d58135d4814bda2da6c9a3def561ee0f953ca067414169f38091fbac89a927"),
        ("100000", "10", "2", "plain"): (2000010, "c1a6053b7c62bd324586654be3aa29f7d256179b48713c472c36a7106c070f48"),
    }

    @pytest.mark.parametrize(("n", "count", "seed", "fmt"), PINS)
    def test_workload_sample_bytes_pinned(self, capsys, n, count, seed, fmt):
        code, out, err = run_cli(
            capsys, "sample", "--n", n, "--count", count, "--seed", seed,
            "--format", fmt,
        )
        data = out.encode()
        assert (code, err) == (0, "")
        assert (len(data), hashlib.sha256(data).hexdigest()) == self.PINS[n, count, seed, fmt]


_GOLDEN_TABLES = [
    "enumerate --kind words --n 3",
    "enumerate --kind words --n 0",
    "enumerate --kind words --n 3 --stats area,runs-desc,sym-valley:1",
    "enumerate --kind paths --n 3",
    "totals --n-max 5 --stats all",
    "totals --n-max 0 --stats area",
    "totals --n-max 4 --stats sym-valley:1,area",
    "distribution --stat runs-asc --n 5",
    "distribution --stat runs-asc --n 0",
    "distribution --stat area --n 4",
] + [
    f"distribution --stat {kind} --n 6"
    for kind in (
        "runs-desc", "runs-weak-asc", "runs-weak-desc", "corner-hu", "corner-dh",
        "semi",
    )
]
_GOLDEN_CASES = [
    f"{table} --format {fmt}"
    for table in _GOLDEN_TABLES
    for fmt in ("plain", "csv", "json")
] + [f"sample --n 5 --count 3 --seed 7 --format {fmt}" for fmt in ("plain", "json")]


class TestGoldenOutput:
    """Byte-exact stdout and exit code of every table command in each format.

    ``data/cli_golden.json`` was recorded from the CLI while each command
    still wrote its own csv and json code, so it pins the shared row writer
    to that output. A case with a ``stderr`` entry is a usage error; every
    other case writes nothing to stderr.
    """

    GOLDEN = json.loads(
        (pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text(
            encoding="utf-8"
        )
    )

    @pytest.mark.parametrize("case", _GOLDEN_CASES)
    def test_output_is_pinned(self, capsys, case):
        expected = self.GOLDEN[case]
        code, out, err = run_cli(capsys, *case.split())
        assert (code, out, err) == (
            expected["exit"], expected["stdout"], expected.get("stderr", "")
        )

    def test_sample_cases_are_the_reference_draws(self, reference_draw):
        rng = random.Random(7)
        texts = [str(reference_draw(5, rng)) for _ in range(3)]
        case = "sample --n 5 --count 3 --seed 7 --format"
        assert self.GOLDEN[f"{case} plain"]["stdout"] == "".join(
            f"{text}\n" for text in texts
        )
        assert self.GOLDEN[f"{case} json"]["stdout"] == "".join(
            json.dumps({"index": i, "value": text}) + "\n"
            for i, text in enumerate(texts)
        )
