#!/usr/bin/env python3
"""Exact counting: closed formulas, recurrences, enumeration, and the
probability that a random permutation has an r-th root.

Everything is big-integer or reduced-rational arithmetic; methods are
redundant on purpose so they can be cross-checked.
"""

from fractions import Fraction
from math import factorial

from permroot import (
    count_cyc,
    count_cyc_qr,
    count_enriched_cyc,
    count_reg,
    prob_root,
    regular_proportion_product,
    root_count_sequence,
)

print("== three routes to the same count ==")
for r, n in ((2, 8), (3, 6), (4, 8)):
    f = count_reg(r, n)
    print(
        f"|Reg_{r}({n})| = {f} "
        f"(formula) = {count_reg(r, n, 'recurrence')} (recurrence) "
        f"= {count_reg(r, n, 'enumerate')} (enumeration)"
    )

print()
print("== cycle permutations never outnumber regular ones ==")
for r in (2, 3, 4):
    for n in (6, 8, 12):
        c, g = count_cyc(r, n), count_reg(r, n)
        marker = "=" if c == g else "<"
        print(f"  |Cyc_{r}({n})| = {c:>10}  {marker}  |Reg_{r}({n})| = {g}")
print("equality happens exactly at r = 2 with n even, where coloring is trivial:")
print(f"  |Cyc*_3(6)| = {count_enriched_cyc(3, 6)} = |Reg_3(6)| = {count_reg(3, 6)}")

print()
print("== the proportion of r-regular permutations ==")
for r, n in ((2, 8), (3, 9)):
    prod = regular_proportion_product(r, n)
    print(f"  r={r} n={n}: product form {prod} = {count_reg(r, n)}/{factorial(n)}")

print()
print("== p_r(n): probability of an r-th root, exact ==")
header = "r\\n " + "".join(f"{n:>10}" for n in range(1, 13))
print(header)
for r in (2, 3, 5, 4, 8, 9, 6):
    row = "".join(f"{str(prob_root(r, n)):>10}" for n in range(1, 13))
    print(f"{r:<4}{row}")

print()
print("== monotone for prime powers, not in general ==")
p6 = [prob_root(6, n) for n in range(1, 13)]
print("r = 6 is not a prime power, and p_6(n) rises over n = 1..12:")
for n, (a, b) in enumerate(zip(p6, p6[1:]), start=1):
    if a < b:
        print(f"  p_6({n}) = {a} < p_6({n + 1}) = {b}")
seq = root_count_sequence(2, 16)
probs = [Fraction(seq[n], factorial(n)) for n in range(1, 17)]
drops = sum(1 for a, b in zip(probs, probs[1:]) if a > b)
print(f"p_2(n) over n = 1..16 never increases ({drops} strict drops)")

print()
print("== uniform-multiplicity types ==")
print(f"|Cyc_(2,2)(8)| = {count_cyc_qr(2, 2, 8)}  (every length even, every "
      "multiplicity a multiple of 2)")
