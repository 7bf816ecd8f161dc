"""Self-test of the output checks: each accepts a good output and rejects
corrupted ones.

Usage, from the root of a checkout: python3 benchmark/selftest.py

The good outputs come from the CLI at tiny sizes, run in this process. Each
corruption is one a broken program could print: a MISMATCH row, a wrong
count, a missing verdict, a wrong b-file term, a non-Dyck path, a repeat.
Exits 1 when a check accepts a corrupted output or rejects a good one.
"""

import contextlib
import io
import sys
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from catalan_lab import cli  # noqa: E402


def cli_output(*args: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    if code != 0:
        raise SystemExit(f"catalan-lab {' '.join(args)} exited {code}")
    return buf.getvalue()


def replace_line(text: str, index: int, edit) -> str:
    lines = text.split("\n")
    lines[index] = edit(lines[index])
    return "\n".join(lines)


def drop_line(text: str, index: int) -> str:
    lines = text.split("\n")
    del lines[index]
    return "\n".join(lines)


def mismatch(line: str) -> str:
    return line.replace(" ok", " MISMATCH")


def bump_last_field(line: str) -> str:
    head, _, last = line.rpartition(" ")
    return f"{head} {int(last) + 1}"


CASES = [
    (
        "totals",
        partial(checks.check_totals, n_max=4, stats=12),
        cli_output("totals", "--n-max", "4", "--stats", "all"),
        {
            "MISMATCH row": lambda t: replace_line(t, 5, mismatch),
            "brute differs from closed": lambda t: replace_line(
                t, 30, lambda s: s.replace(" ok", "").rstrip() + "0 ok"
            ),
            "missing row": lambda t: drop_line(t, 7),
        },
    ),
    (
        "distribution",
        partial(checks.check_distribution, n=6),
        cli_output("distribution", "--stat", "runs-asc", "--n", "6"),
        {
            "MISMATCH row": lambda t: replace_line(t, 2, mismatch),
            "wrong count": lambda t: replace_line(
                t, 1, lambda s: s.replace(s.split()[1], str(int(s.split()[1]) + 1), 1)
            ),
            "missing value": lambda t: drop_line(t, 0),
        },
    ),
    (
        "verify",
        partial(checks.check_verify, suite="identities"),
        cli_output("verify", "--suite", "identities", "--n-max", "20"),
        {
            "missing PASSED": lambda t: drop_line(t, 1),
            "a failure": lambda t: t.replace(" 0 failures", " 1 failures"),
            "other suite": lambda t: t.replace("suite identities", "suite bijections"),
        },
    ),
    (
        "oeis A000346",
        partial(checks.check_oeis, seq_id="A000346", terms=15, prefix=6),
        cli_output("oeis", "A000346", "--terms", "15"),
        {
            "wrong term": lambda t: replace_line(t, 9, bump_last_field),
            "wrong early term": lambda t: replace_line(t, 2, bump_last_field),
            "missing term": lambda t: drop_line(t, 14),
        },
    ),
    (
        "oeis A057552",
        partial(checks.check_oeis, seq_id="A057552", terms=15, prefix=6),
        cli_output("oeis", "A057552", "--terms", "15"),
        {"wrong term": lambda t: replace_line(t, 12, bump_last_field)},
    ),
    (
        "sample",
        partial(checks.check_paths, n=6, count=20),
        cli_output("sample", "--n", "6", "--count", "20", "--seed", "3"),
        {
            "non-Dyck line": lambda t: replace_line(t, 4, lambda s: f"D{s[1:-1]}U"),
            "short line": lambda t: replace_line(t, 4, lambda s: s[2:]),
            "stray character": lambda t: replace_line(t, 4, lambda s: "X" + s[1:]),
            "missing line": lambda t: drop_line(t, 0),
        },
    ),
    (
        "enumerate",
        partial(checks.check_paths, n=5, count=checks.catalan(5), distinct=True),
        cli_output("enumerate", "--kind", "paths", "--n", "5"),
        {
            "repeated path": lambda t: replace_line(t, 3, lambda s: t.split("\n")[2]),
            "missing path": lambda t: drop_line(t, 0),
        },
    ),
]


def main() -> int:
    wrong = 0
    for name, check, good, corruptions in CASES:
        try:
            check(good)
            print(f"ok    {name}: accepts the program's output")
        except checks.CheckFailed as exc:
            wrong += 1
            print(f"WRONG {name}: rejects the program's output ({exc})")
        for label, corrupt in corruptions.items():
            bad = corrupt(good)
            try:
                check(bad)
            except checks.CheckFailed as exc:
                print(f"ok    {name}: rejects {label} ({exc})")
            else:
                wrong += 1
                print(f"WRONG {name}: accepts {label}")
    print("self-test PASSED" if not wrong else f"self-test FAILED ({wrong} wrong)")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
