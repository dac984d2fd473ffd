"""Exact counts and probabilities for the permutation families.

Everything here is arbitrary-precision integer or reduced-rational
arithmetic; no floating point on any path.  Each family is counted
redundantly (closed formula, recurrence, dynamic programming over cycle
types, and at small sizes enumeration) so the routes can be checked against
one another.

Root counts, enriched cycle permutations and uniform-type families all come
from one DP over cycle types, on EGF coefficients scaled by n! so that they
stay integers, A[m] = dp[m] n!/m!.  Its free pass takes every cycle length L
with free multiplicity and weight w_L.  The weights repeat with a period P,
so the exponential-formula recurrence m A[m] = sum_L w_L A[m-L] becomes

    m A[m] = (m-P) A[m-P] (for m > P) + sum_{L <= min(P, m)} w_L A[m-L],

O(n P) big-integer steps instead of O(n^2): P = rad(r) for the roots of
order r (the lengths prime to r), P = r for the enriched cycles.  Its
bunched pass takes every length L whose multiplicity must be a multiple of
a step s > 1, one slice update per (L, multiplicity).  ``root_count_sequence``
runs both on one array and unscales every row; a single count runs them
apart, the bunched one on the grid of its spans sL, and combines them at
row n only.  No binomial or factorial is recomputed per term.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, factorial, gcd, perm
from operator import add, floordiv, mul

from .errors import DomainError, check_int, check_type
from .families import FamilySpec, enumerate_family
from .permutation import CycleType
from .roots import smallest_bunch_size

_METHODS = ("formula", "recurrence", "enumerate")


def falling_factorial(x: int, m: int) -> int:
    """x (x-1) ... (x-m+1); the empty product for m = 0."""
    check_int(x, "x")
    check_int(m, "m", 0)
    out = 1
    for j in range(m):
        out *= x - j
    return out


def double_factorial(k: int) -> int:
    """k (k-2) (k-4) ... down to 1 or 2; defined as 1 for k in {-1, 0}."""
    check_int(k, "k", -1)
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def count_of_type(rho: CycleType) -> int:
    """Number of permutations of a fixed |rho|-element set with cycle type rho."""
    check_type(rho, CycleType, "rho")
    out = factorial(rho.total)
    for length, count in rho.pairs:
        out = _exact_div(out, length**count * factorial(count))
    return out


def _exact_div(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError(f"{a} is not divisible by {b}")
    return q


def _check_params(r: int, n: int) -> None:
    check_int(r, "r", 2)
    check_int(n, "n", 0)


def _check_method(method: str) -> None:
    if method not in _METHODS:
        raise DomainError(f"unknown method {method!r}; options: {', '.join(_METHODS)}")


def count_reg(r: int, n: int, method: str = "formula") -> int:
    """|Reg_r(n)|, the number of permutations of [n] with no cycle length
    divisible by r; 1 for n = 0."""
    _check_params(r, n)
    _check_method(method)
    if method == "enumerate":
        return sum(1 for _ in enumerate_family(FamilySpec.regular(r, n)))
    if method == "recurrence":
        return _reg_recurrence(r, n)
    m = n // r
    num = factorial(n)
    for k in range(1, m + 1):
        num *= k * r - 1
    return _exact_div(num, r**m * factorial(m))


def _reg_recurrence(r: int, n: int) -> int:
    # |Reg_r(rm)| = (rm-1) (rm-1)_{r-1} |Reg_r(rm-r)|, then one partial step
    # |Reg_r(rm+d)| = (rm+d)_d |Reg_r(rm)| for 0 < d < r
    value = 1
    size = 0
    while size + r <= n:
        size += r
        value *= (size - 1) * falling_factorial(size - 1, r - 1)
    if size < n:
        value *= falling_factorial(n, n - size)
    return value


def count_cyc(r: int, n: int, method: str = "formula") -> int:
    """|Cyc_r(n)|, the number of permutations of [n] with every cycle length
    divisible by r; zero unless r divides n, and 1 for n = 0."""
    _check_params(r, n)
    _check_method(method)
    if method == "enumerate":
        return sum(1 for _ in enumerate_family(FamilySpec.cycle(r, n)))
    if n % r != 0:
        return 0
    m = n // r
    if method == "recurrence":
        value = 1
        for j in range(1, m + 1):
            value *= falling_factorial(j * r - 1, r - 1) * (j * r - r + 1)
        return value
    num = factorial(n)
    for k in range(1, m):
        num *= 1 + k * r
    return _exact_div(num, r**m * factorial(m))


# -- dynamic programming over cycle types --------------------------------------
#
# A spec (length, step, weight) admits cycles of that length in multiplicities
# that are multiples of step, each cycle contributing a factor weight.  The
# free specs have step 1; the bunched ones step > 1.  Every caller builds the
# two lists apart: free sorted by length, every length at most n, and only the
# bunched specs whose smallest bunch, step * length, fits in n (which also
# keeps a huge step out of length**step).

def _free_period(n: int, free) -> int:
    """The smallest p with 2p <= n at which the free weights repeat, else n.

    With s_k the weight of free length k+1 (0 if k+1 is not free), p is a
    period when s_k = s_{k-p} for p <= k < n; n always is one.  A period
    p < n maps the smallest free length to a free length p further on, so
    the candidates are those gaps, and the list of s is built only once a
    candidate fits twice in n."""
    weights = None
    for length, _, _ in free[1:]:
        period = length - free[0][0]
        if 2 * period > n:
            break
        if weights is None:
            weights = [0] * n
            for free_length, _, weight in free:
                weights[free_length - 1] += weight
        if weights[period:] == weights[:-period]:
            return period
    return n


def _free_pass(n: int, free) -> list[int]:
    """A for the free specs alone, from A[0] = n!.  Their EGF is
    exp(sum_L w_L x^L/L); differentiating gives m a_m = sum_L w_L a_{m-L} on
    its coefficients a_m = dp[m]/m!, which reads m A[m] = sum_L w_L A[m-L].

    The weights s_k = w_{k+1} repeat with period P (``_free_period``), so
    T_m = m A[m] satisfies T_m - T_{m-P} = sum_{k<P} s_k A[m-1-k]:

        m A[m] = (m-P) A[m-P] (when m > P) + sum_{L <= min(P, m)} w_L A[m-L].

    Each row reads the free lengths up to P only, O(n P) big-integer steps
    in all instead of O(n^2): P = rad(r), the product of the primes of r,
    for the roots of order r, P = r for the enriched cycles, and P = n, the
    plain sum, when nothing repeats.  The division by m is exact because
    A[m] is an integer."""
    period = _free_period(n, free)
    scaled = [factorial(n)] + [0] * n
    for m in range(1, n + 1):
        if m > period:
            total = (m - period) * scaled[m - period]
            top = period
        else:
            total = 0
            top = m
        for length, _, weight in free:
            if length > top:
                break
            total += scaled[m - length] if weight == 1 else weight * scaled[m - length]
        scaled[m] = total // m
    return scaled


def _bunched_pass(values: list[int], bunched, support: int) -> list[int]:
    """Adds the lengths with step s > 1 to A in place and returns it; at the
    start A[u] may be nonzero only where ``support`` divides u (0: u = 0).

    For each such length, A[u+jL] gains A[u] w^j / (L^j j!) for j = s, 2s,
    ... while u + jL <= n.  Each term t_j is an integer: (u+1)...(u+jL)
    divides n!/u! and is a multiple of (jL)!, which L^j j! divides (the
    quotient counts the ways to split jL elements into j L-cycles).  So
    t_{j+s} = t_j w^s / (L^s (j+1)...(j+s)), where (j+1)...(j+s) is
    perm(j+s, s), is an exact division by a small integer.  The pass walks (L, j), not
    sources: per L it copies the sources, the multiples of the support
    (then its gcd with the span sL), and per j divides them all and adds
    them to A[(j+s)L:] in one slice update."""
    size = len(values)
    for length, step, weight in bunched:
        span = step * length
        stride = support or size
        terms = values[: size - span : stride]
        for v in range(span, size, span):
            targets = values[v::stride]
            del terms[len(targets) :]
            if weight != 1:
                terms = map(mul, terms, repeat(weight**step))
            terms = list(map(floordiv, terms, repeat(length**step * perm(v // length, step))))
            values[v::stride] = map(add, targets, terms)
        support = gcd(support, span)
    return values


def _type_dp(n: int, free, bunched) -> list[int]:
    """Count permutations by admissible cycle types: dp[u] counts the
    weighted permutations of a u-element set whose cycles follow the free
    and bunched specs (see above); lengths in neither are forbidden.

    The DP runs on the scaled EGF coefficients A[u] = dp[u] * n!/u!, which
    are integers because n!/u! = (u+1)...n is, in two passes on one array:
    ``_free_pass`` (O(n P) for free weights of period P), then
    ``_bunched_pass``.  Finally dp[u] = A[u] / (n!/u!), exact by the
    definition of A.

    ``_type_dp_row`` needs dp[n] = A[n] only.  The EGF is the product of its
    free and bunched parts, so it runs the passes apart (E and B, both from
    n!) and combines row n alone: dp[n] = sum_k E[n-k] B[k] / n!.  B starts
    as [n!, 0, ..., 0], so its pass walks the grid of the spans added so
    far, not a dense array.  With no bunched specs, dp[n] = E[n].
    """
    scaled = _bunched_pass(_free_pass(n, free), bunched, 1)
    return list(map(floordiv, reversed(scaled), accumulate(range(n, 0, -1), mul, initial=1)))[::-1]


def _type_dp_row(n: int, free, bunched) -> int:
    """``_type_dp(n, free, bunched)[n]``, computed at row n only."""
    free_part = _free_pass(n, free)
    if not bunched:
        return free_part[n]
    bunched_part = _bunched_pass([free_part[0]] + [0] * n, bunched, 0)
    return sum(map(mul, reversed(free_part), bunched_part)) // free_part[0]


def count_enriched_cyc(r: int, n: int) -> int:
    """|Cyc*_r(n)|: r-cycle permutations of [n] with each cycle colored by
    one of r-1 colors.  Equals |Reg_r(n)| when r divides n; zero otherwise."""
    _check_params(r, n)
    if n % r != 0:
        return 0
    return _type_dp_row(n, [(length, 1, r - 1) for length in range(r, n + 1, r)], [])


def count_cyc_qr(q: int, r: int, n: int) -> int:
    """|Cyc_{q,r}(n)|: permutations of [n] where every cycle length is a
    multiple of q and every length occurs a multiple of r times."""
    check_int(q, "q", 2)
    _check_params(r, n)
    if n % (q * r) != 0:
        return 0
    return _type_dp_row(n, [], [(length, r, 1) for length in range(q, n // r + 1, q)])


def count_q_family(r: int, k: int, n: int) -> int:
    """|Q_{r,k}(n)|: permutations of [n] whose cycle containing 1 has length
    exactly k, all other cycles r-regular."""
    FamilySpec.first_cycle(r, k, n)  # checks r, k and n as the family does
    return falling_factorial(n - 1, k - 1) * count_reg(r, n - k)


def count_nreg(r: int, n: int) -> int:
    """|NReg_r(n)|: permutations of [n] whose cycle containing 1 is the only
    one with length divisible by r; the sum of |Q_{r,k}(n)| over those k."""
    _check_params(r, n)
    return sum(count_q_family(r, k, n) for k in range(r, n + 1, r))


def count_AP(n: int, k: int, parity: str) -> int:
    """|A_{n,2k-1}| (parity "odd": all cycles odd, 1 in a (2k-1)-cycle) or
    |P_{n,2k}| (parity "even": 1 in a 2k-cycle, all other cycles odd)."""
    if parity not in ("odd", "even"):
        raise DomainError(f"parity must be 'odd' or 'even', got {parity!r}")
    family = FamilySpec.odd_with_first if parity == "odd" else FamilySpec.even_first
    j = family(n, k).k  # the family checks k >= 1 and n >= j
    m = n - j
    if m % 2 == 0:
        return _exact_div(factorial(n - 1), factorial(m)) * double_factorial(m - 1) ** 2
    return _exact_div(factorial(n - 1), factorial(m - 1)) * double_factorial(m - 2) ** 2


def count_S_rho_q(rho: CycleType, q: int, n: int) -> int:
    """|S_{rho,q}(n)|: permutations of [n] whose q-singular part has cycle
    type rho; the q-regular remainder is free."""
    FamilySpec.singular_type(rho, q, n)  # checks rho, q and n as the family does
    return comb(n, rho.total) * count_of_type(rho) * count_reg(q, n - rho.total)


# -- root counting --------------------------------------------------------------

def root_count_sequence(r: int, upto: int) -> list[int]:
    """|S_n^r| for n = 0..upto, for any r >= 2 and any upto, in one DP.

    The number of cycles of each length L must be a multiple of
    ``smallest_bunch_size(L, r)`` (see ``roots``).
    """
    _check_params(r, upto)
    return _type_dp(upto, *_root_specs(r, upto))


def _root_specs(r: int, n: int) -> tuple[list, list]:
    """The free specs (the lengths prime to r) and the bunched ones (2L <= n),
    spans sharing most with the first span first: ``_bunched_pass`` stays sparse."""
    free = []
    bunched = []
    for length in range(1, n + 1):
        if gcd(length, r) == 1:
            free.append((length, 1, 1))
        elif 2 * length <= n:
            step = smallest_bunch_size(length, r)
            if step * length <= n:
                bunched.append((length, step, 1))
    if len(bunched) > 1:
        first = bunched[0][0] * bunched[0][1]
        bunched.sort(key=lambda spec: -gcd(spec[0] * spec[1], first))
    return free, bunched


def count_roots(r: int, n: int) -> int:
    """|S_n^r|, the number of permutations of [n] having an r-th root,
    exact for any r >= 2 and any n; computes row n only."""
    _check_params(r, n)
    return _type_dp_row(n, *_root_specs(r, n))


def prob_root(r: int, n: int) -> Fraction:
    """p_r(n) = |S_n^r| / n! in lowest terms."""
    return Fraction(count_roots(r, n), factorial(n))


def regular_proportion_product(r: int, n: int) -> Fraction:
    """The product over k = 1..floor(n/r) of (rk-1)/(rk); equals the
    proportion |Reg_r(n)| / n!."""
    _check_params(r, n)
    if n < 1:
        raise DomainError("the proportion is defined for n >= 1")
    out = Fraction(1)
    for k in range(1, n // r + 1):
        out *= Fraction(k * r - 1, k * r)
    return out
