"""The three benchmark workloads: the CLI commands each one runs, and their checks.

Each workload puts most of its work on a different module, so that a change
to one module shows on one workload and, by prediction, not on the others.
README.md in this directory says why each workload exists and which layer
metric should move which end-to-end metric.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

# Sizes of the commands. The checks are parameterized by the same values.
TOTALS_N_MAX = 14
TOTALS_STATS = 12  # "all" selects every statistic kind
DISTRIBUTION_N = 12
A057552_TERMS = 700
A000346_TERMS = 3000
SMALL_SAMPLE = (200, 5000)  # n, count
LARGE_SAMPLE = (100000, 10)
ENUMERATE_N = 12


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its subcommand, its arguments and its output check."""

    name: str
    args: tuple[str, ...]
    check: Callable[[str], None]


def _exhaustive(seed: int) -> list[Command]:
    return [
        Command(
            "totals",
            ("totals", "--n-max", str(TOTALS_N_MAX), "--stats", "all"),
            partial(checks.check_totals, n_max=TOTALS_N_MAX, stats=TOTALS_STATS),
        ),
        Command(
            "distribution",
            ("distribution", "--stat", "runs-asc", "--n", str(DISTRIBUTION_N)),
            partial(checks.check_distribution, n=DISTRIBUTION_N),
        ),
    ]


def _closed_form(seed: int) -> list[Command]:
    return [
        Command(
            "verify",
            ("verify", "--suite", "identities"),
            partial(checks.check_verify, suite="identities"),
        ),
        Command(
            "oeis",
            ("oeis", "A057552", "--terms", str(A057552_TERMS)),
            partial(checks.check_oeis, seq_id="A057552", terms=A057552_TERMS),
        ),
        Command(
            "oeis",
            ("oeis", "A000346", "--terms", str(A000346_TERMS)),
            partial(checks.check_oeis, seq_id="A000346", terms=A000346_TERMS),
        ),
    ]


def _bijective(seed: int) -> list[Command]:
    (n_small, c_small), (n_large, c_large) = SMALL_SAMPLE, LARGE_SAMPLE
    return [
        Command(
            "verify",
            ("verify", "--suite", "bijections"),
            partial(checks.check_verify, suite="bijections"),
        ),
        Command(
            "sample",
            (
                "sample", "--n", str(n_small), "--count", str(c_small),
                "--seed", str(seed),
            ),
            partial(checks.check_paths, n=n_small, count=c_small),
        ),
        Command(
            "sample",
            (
                "sample", "--n", str(n_large), "--count", str(c_large),
                "--seed", str(seed + 1),
            ),
            partial(checks.check_paths, n=n_large, count=c_large),
        ),
        Command(
            "enumerate",
            ("enumerate", "--kind", "paths", "--n", str(ENUMERATE_N)),
            partial(
                checks.check_paths,
                n=ENUMERATE_N,
                count=checks.catalan(ENUMERATE_N),
                distinct=True,
            ),
        ),
    ]


# Workload name -> the commands of one pass, given the seed.
WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "exhaustive": _exhaustive,
    "closed-form": _closed_form,
    "bijective": _bijective,
}

# Every command name a workload uses, in report order.
COMMAND_NAMES = ("totals", "distribution", "verify", "oeis", "sample", "enumerate")
