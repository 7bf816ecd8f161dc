"""Stratified counts, the cycle lemma, and uniform random Dyck paths.

Dyck paths stratify by their numbers of DDU and UDU factors; the strata
sizes come from a slot-filling argument resolved by the cycle lemma. The
same lemma powers a rejection-free uniform sampler.
"""

import random
from collections import Counter

from catalan_lab import (
    catalan,
    ddu_udu_counts,
    dyck_count_by_ddu,
    dyck_count_by_ddu_udu,
    enumerate_dyck,
    peak_rebuild,
    peak_vector_from_slots,
    random_dyck_path,
    raney_shift,
)

n = 8
hist = Counter(ddu_udu_counts(p) for p in enumerate_dyck(n))
print(f"strata of D_{n} by (ddu, udu) counts:")
for k in range((n - 1) // 2 + 1):
    row = [hist.get((k, j), 0) for j in range(n - 2 * k)]
    assert row == [dyck_count_by_ddu_udu(n, k, j) for j in range(n - 2 * k)]
    print(f"  k={k}: {row}  (sum {sum(row)} = {dyck_count_by_ddu(n, k)})")
print(f"grand total {sum(hist.values())} = C_{n} = {catalan(n)}")
print()

# The cycle lemma: a sum-1 integer sequence has exactly one rotation with
# all partial sums positive.
seq = [-1, 2, 0, -1, 1]
r = raney_shift(seq)
print(f"sequence {seq}: valid rotation starts at position {r}")
print("rotated:", seq[r - 1 :] + seq[: r - 1])
print()

# Slot fills cover the UDU-free stratum, each path hit k+1 times.
print("slot fill ((1, 1), (1, 2)) rebuilds to",
      peak_rebuild(peak_vector_from_slots([(1, 1), (1, 2)])))
print()

# Uniform sampling via the same rotation trick: arrange n+1 ups and n
# downs at random, rotate to the unique admissible start, drop the forced
# up step.
rng = random.Random(2026)
draws = 20_000
freq = Counter(str(random_dyck_path(4, rng)) for _ in range(draws))
print(f"{draws} draws over D_4 ({catalan(4)} paths), expected {draws / 14:.0f} each:")
for path_text, count in sorted(freq.items()):
    print(f"  {path_text}: {count}")
