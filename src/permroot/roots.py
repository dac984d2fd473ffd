"""Existence and construction of r-th roots of permutations.

A cycle of length m in pi contributes gcd(m, r) cycles of length
m / gcd(m, r) to pi**r.  Root existence therefore depends only on the cycle
type: the cycles of each length must split into bunches of admissible
sizes.  Every admissible size is a multiple of the smallest one, which is
admissible itself, so the rule is one step per length: the count of cycles
of length L must be a multiple of ``smallest_bunch_size(L, r)``.
``type_has_root`` counts the lengths in any order and caches nothing.  For
prime powers r = q**l that step is r when q divides L and 1 otherwise, the
classical criterion.

Construction stays brute force and is the independent oracle the criteria
are validated against: ``find_root_bruteforce`` and
``brute_force_root_tables`` visit every permutation of the ground set in
lexicographic order and compare its r-th power with the target, never
looking at cycle types.  A power is built by square-and-multiply on
one-line tuples (each composition one ``itemgetter`` call), with r reduced
mod lcm(1..n), so a huge r costs no more than a small one; the search first
compares where the power sends the least element, one walk of its cycle.
One pass of the tables serves several degrees, each candidate's powers in
increasing order of the reduced exponent, each from the one before.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from operator import itemgetter

from .errors import DomainError, check_int, check_type
from .permutation import CycleType, Permutation

BRUTE_FORCE_BOUND = 8
# every r up to this bound is decided; a larger r only if it has a prime
# factor up to isqrt(TRIAL_DIVISION_BOUND), so trial division takes at most
# 2**20 steps
TRIAL_DIVISION_BOUND = 2**40


def is_prime(m: int) -> bool:
    return prime_power_decomposition(m) == (m, 1)


def prime_power_decomposition(r: int) -> tuple[int, int] | None:
    """(q, l) with r = q**l and q prime, or None if r is not a prime power.
    Trial division: an r above TRIAL_DIVISION_BOUND with no prime factor up
    to isqrt(TRIAL_DIVISION_BOUND) raises DomainError."""
    check_int(r, "r")
    if r < 2:
        return None
    q = 2
    while q * q <= r:
        if q * q > TRIAL_DIVISION_BOUND:
            raise DomainError(
                f"trial division is bounded by {TRIAL_DIVISION_BOUND}: "
                f"{r} has no prime factor up to {q - 1}"
            )
        if r % q == 0:
            l = 0
            m = r
            while m % q == 0:
                m //= q
                l += 1
            return (q, l) if m == 1 else None
        q += 1
    return (r, 1)


def has_root_prime_power(sigma: Permutation, q: int, l: int) -> bool:
    """True iff sigma has a (q**l)-th root: every count of cycles whose
    length is a multiple of q must be a multiple of q**l.  Once
    l >= n.bit_length(), q**l > n and no count 1 <= c <= n is a multiple
    of it, so l is capped there before the power is built."""
    check_type(sigma, Permutation, "sigma")
    check_int(q, "q", 2)
    if not is_prime(q):
        raise DomainError(f"q must be prime, got {q}")
    check_int(l, "l", 1)
    r = q ** min(l, sigma.size.bit_length())
    counts: dict[int, int] = {}
    for length in sigma.cycle_lengths():
        counts[length] = counts.get(length, 0) + 1
    return all(length % q != 0 or count % r == 0 for length, count in counts.items())


def bunch_sizes(length: int, r: int) -> tuple[int, ...]:
    """Admissible bunch sizes d for cycles of the given length: a pi-cycle of
    length d*length powers to d cycles of that length exactly when
    gcd(d*length, r) = d.  Scans d = 1..r, so it is the test oracle for
    ``smallest_bunch_size``, not a fast path."""
    check_int(length, "length", 1)
    check_int(r, "r", 1)
    return tuple(d for d in range(1, r + 1) if r % d == 0 and gcd(d * length, r) == d)


def smallest_bunch_size(length: int, r: int) -> int:
    """``bunch_sizes(length, r)[0]`` in O(log r) steps: the part of r made of
    the primes that divide length.

    d is admissible iff d = d0 * e, where d0 is the product of p**v_p(r) over
    the primes p dividing gcd(length, r) and e divides the part of r coprime
    to length.  So d0 is admissible and divides every admissible size: a
    count of cycles of this length splits into bunches iff d0 divides it.
    """
    coprime = r
    while (g := gcd(coprime, length)) > 1:
        coprime //= g
    return r // coprime


def type_has_root(lengths, r: int) -> bool:
    """Root existence from the cycle lengths, given in any order."""
    counts: dict[int, int] = {}
    for length in lengths:
        counts[length] = counts.get(length, 0) + 1
    return all(
        count % smallest_bunch_size(length, r) == 0 for length, count in counts.items()
    )


def has_root_general(sigma: Permutation, r: int) -> bool:
    """Root existence for arbitrary r >= 2 via the per-length step rule."""
    check_type(sigma, Permutation, "sigma")
    check_int(r, "root degree", 2)
    return type_has_root(sigma.cycle_lengths(), r)


def is_qr_divisible(rho: CycleType, q: int, r: int) -> bool:
    """True iff every length in rho is divisible by q and every multiplicity
    is divisible by r; vacuously true for the empty type."""
    check_type(rho, CycleType, "rho")
    check_int(q, "q", 2)
    check_int(r, "r", 2)
    return all(ln % q == 0 and ct % r == 0 for ln, ct in rho.pairs)


# -- brute force ---------------------------------------------------------------

def _power(img: tuple[int, ...], e: int) -> tuple[int, ...]:
    """img**e for e >= 0, where ``img`` is a permutation of 0..len(img)-1 in
    one-line form, by square-and-multiply: composing two such tuples is one
    ``itemgetter`` call (which needs len(img) >= 2 when e > 0)."""
    if not e:
        return tuple(range(len(img)))
    result = None
    while True:
        if e & 1:
            result = img if result is None else itemgetter(*img)(result)
        e >>= 1
        if not e:
            return result
        img = itemgetter(*img)(img)


def _check_brute_force_size(n: int) -> None:
    if n > BRUTE_FORCE_BOUND:
        raise DomainError(
            f"brute-force search is limited to {BRUTE_FORCE_BOUND} elements, got {n}"
        )


def _period(n: int) -> int:
    """lcm(1..n): pi**r == pi**(r % lcm(1..n)) for every pi in S_n."""
    return lcm(*range(1, n + 1))


def find_root_bruteforce(sigma: Permutation, r: int) -> Permutation | None:
    """The lexicographically least pi with pi**r = sigma, or None.  Bounded
    to ground sets of at most BRUTE_FORCE_BOUND elements.

    Every candidate is visited in lexicographic order; a candidate whose
    r-th power moves the least element elsewhere than sigma does is
    rejected after one walk of that element's cycle, before its full power
    is built."""
    check_type(sigma, Permutation, "sigma")
    check_int(r, "root degree", 2)
    _check_brute_force_size(sigma.size)
    elems = sigma.elements()
    if not elems:
        return sigma  # S_0 holds only the empty permutation, its own r-th power
    n = len(elems)
    e = r % _period(n)
    # candidates and target act on positions 0..n-1 of the sorted ground set
    positions = {x: i for i, x in enumerate(elems)}
    target = tuple(positions[x] for x in sigma.one_line())
    first = target[0]
    for img in itertools.permutations(range(n)):
        cycle = [0]
        x = img[0]
        while x:
            cycle.append(x)
            x = img[x]
        if cycle[e % len(cycle)] == first and _power(img, e) == target:
            return Permutation.from_one_line(elems, [elems[i] for i in img])
    return None


def brute_force_root_tables(n: int, r_values) -> list[dict[tuple[int, ...], tuple[int, ...]]]:
    """``[brute_force_root_table(n, r) for r in r_values]`` from one pass over
    S_n: each candidate's powers in increasing order of r % lcm(1..n), each
    from the one before (a unit step is one composition).  A degree equal to
    an earlier one mod lcm(1..n) gets a copy of its table."""
    check_int(n, "n", 0)
    r_values = list(r_values)
    for r in r_values:
        check_int(r, "root degree", 1)
    _check_brute_force_size(n)
    exponents = [r % _period(n) for r in r_values]
    tables = {e: {} for e in sorted(set(exponents))}
    # (step from the exponent before, from 0, and the table it fills)
    steps = [(e - d, table) for d, (e, table) in zip([0, *tables], tables.items())]
    shared = {}  # with several tables, one key tuple for all of them
    if steps:
        (first, first_table), *later = steps
        for img in itertools.permutations(range(1, n + 1)):
            # (0, *img) is img on 0..n fixing 0, so a power is 1-based after [1:]
            full = (0, *img)
            power = _power(full, first)
            key = power[1:]
            first_table.setdefault(shared.setdefault(key, key) if later else key, img)
            if later:
                times_img = itemgetter(*full)
                for step, table in later:
                    times = times_img if step == 1 else itemgetter(*_power(full, step))
                    power = times(power)
                    key = power[1:]
                    table.setdefault(shared.setdefault(key, key), img)
    seen: set[int] = set()
    out = []
    for e in exponents:
        out.append(dict(tables[e]) if e in seen else tables[e])
        seen.add(e)
    return out


def brute_force_root_table(n: int, r: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """One pass over S_n: map each one-line permutation with an r-th root to
    its lexicographically least root (also in one-line form); any r >= 1."""
    return brute_force_root_tables(n, [r])[0]
