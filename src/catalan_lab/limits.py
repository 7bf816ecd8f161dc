"""Enumeration ceiling handling.

Exhaustive enumeration grows like the Catalan numbers, so every enumerator
refuses sizes above a configurable ceiling instead of silently grinding.
Precedence: explicit ``max_n`` argument (CLI flag) > the ``CATALAN_LAB_MAX_N``
environment variable > the built-in default. Counts that enumerate nothing
are bounded by the fixed ``COUNT_MAX_N`` instead, each verification suite
by its entry in ``SUITE_CAPS``, and a ``sample`` draw by ``SAMPLE_MAX_N``.
"""

import os

DEFAULT_MAX_N = 16
ENV_VAR = "CATALAN_LAB_MAX_N"

# Counts that enumerate nothing (words.count_histogram) cost a polynomial in n
# and ignore the ceiling; this fixed cap keeps one call to a few seconds.
COUNT_MAX_N = 400

# A draw costs time and memory linear in n (about 0.16 s and 9 MB at 10**6),
# so the sample command refuses a larger n before it draws.
SAMPLE_MAX_N = 10**7

# The largest n_max of each verification suite; the cli's --suite and --n-max
# options read it without importing the suites.
SUITE_CAPS = {
    "bijections": 8,
    "transport": 9,
    "distributions": 10,
    "identities": 300,
}


class EnumerationLimitError(Exception):
    """Raised when an enumeration request exceeds the configured ceiling."""

    def __init__(self, n: int, limit: int):
        # args are (n, limit), so a worker process can pickle the error back
        super().__init__(n, limit)
        self.n = n
        self.limit = limit

    def __str__(self) -> str:
        return (
            f"n={self.n} exceeds the enumeration ceiling {self.limit} "
            f"(override with {ENV_VAR} or an explicit max_n)"
        )


def enumeration_ceiling(max_n: int | None = None) -> int:
    """Resolve the effective ceiling from argument, environment, or default."""
    source = "max_n"
    if max_n is None:
        env = os.environ.get(ENV_VAR)
        if env is None:
            return DEFAULT_MAX_N
        try:
            source, max_n = ENV_VAR, int(env)
        except ValueError:
            raise ValueError(f"{ENV_VAR} must be an integer, got {env!r}") from None
    if max_n < 0:
        raise ValueError(f"{source} must be nonnegative, got {max_n}")
    return max_n


def check_ceiling(n: int, max_n: int | None = None) -> None:
    """Refuse negative sizes and sizes above the effective ceiling."""
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    limit = enumeration_ceiling(max_n)
    if n > limit:
        raise EnumerationLimitError(n, limit)
