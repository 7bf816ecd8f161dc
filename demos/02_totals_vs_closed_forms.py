"""Counted statistic totals against their exact closed forms.

Every tracked statistic has a closed-form total over the Catalan words of
a given length. The brute side counts the words as prefixes times
completions (``sweep_totals``) without listing any of them; the closed side
is binomial arithmetic. They must agree exactly.
"""

from catalan_lab import StatId, StatKind, brute_total, closed_total, sweep_totals

N_MAX = 9

print(f"{'n':>3} {'statistic':<16} {'brute':>12} {'closed':>12}")
for n in range(1, N_MAX + 1):
    for kind in StatKind:
        s = StatId(kind)
        brute = brute_total(n, s)
        closed = closed_total(n, s)
        assert brute == closed
        if n == N_MAX:
            print(f"{n:>3} {str(s):<16} {brute:>12} {closed:>12}")
print()

# The valley and peak statistics refine by the length ell of the middle run.
n = 9
totals = sweep_totals(n)
print(f"per-ell breakdown at n={n}:")
for kind in (StatKind.ELL_VALLEY, StatKind.ELL_PEAK, StatKind.SYM_PEAK,
             StatKind.SYM_VALLEY):
    row = []
    for ell in range(1, n):
        value = totals.total(StatId(kind, ell))
        if value:
            row.append(f"ell={ell}: {value}")
    print(f"  {kind.value:<12} {', '.join(row)}")
    assert totals.total(StatId(kind)) == sum(
        totals.total(StatId(kind, ell)) for ell in range(1, n)
    )
print()

# A couple of small anchor values, computable by hand.
print("sym-valley total at n=4:", brute_total(4, StatId(StatKind.SYM_VALLEY)))
print("semi-perimeter total at n=2:", brute_total(2, StatId(StatKind.SEMI)))
print("area total at n=3:", brute_total(3, StatId(StatKind.AREA)))
