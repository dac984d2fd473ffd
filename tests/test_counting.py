import hashlib
from fractions import Fraction
from math import factorial, prod

import pytest

from permroot.counting import (
    _bunched_pass,
    _free_pass,
    _free_period,
    _root_specs,
    _type_dp,
    _type_dp_row,
    count_AP,
    count_cyc,
    count_cyc_qr,
    count_enriched_cyc,
    count_nreg,
    count_of_type,
    count_q_family,
    count_reg,
    count_roots,
    count_S_rho_q,
    double_factorial,
    falling_factorial,
    prob_root,
    regular_proportion_product,
    root_count_sequence,
)
from permroot.errors import DomainError
from permroot.families import FamilySpec, enumerate_family
from permroot.permutation import CycleType, parse_cycle_type
from permroot.roots import brute_force_root_table, prime_power_decomposition, type_has_root

# sha256 over dp_output_lines(), recorded from the earlier cycle-type DP that
# built each term from math.comb and math.factorial
DP_OUTPUTS_DIGEST = "1c27b48b2c4d6f55b0dcc75f347580023b645b62c73f976b40241e40f7c618ec"


class TestSmallHelpers:
    def test_falling_factorial(self):
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(7, 3) == 210
        assert falling_factorial(3, 0) == 1
        with pytest.raises(DomainError):
            falling_factorial(3, -1)

    def test_double_factorial(self):
        assert double_factorial(-1) == 1
        assert double_factorial(1) == 1
        assert double_factorial(7) == 105
        assert double_factorial(9) == 945
        assert [double_factorial(k) for k in (0, 2, 8)] == [1, 2, 384]

    def test_count_of_type_matches_enumeration(self):
        for n in range(0, 7):
            observed = {}
            for p in enumerate_family(FamilySpec.everything(n)):
                t = p.cycle_type()
                observed[t] = observed.get(t, 0) + 1
            for t, count in observed.items():
                assert count_of_type(t) == count


class TestRegular:
    def test_known_values(self):
        assert count_reg(2, 0) == 1
        assert count_reg(2, 8) == 11025 == double_factorial(7) ** 2
        assert count_reg(3, 6) == 400

    def test_three_methods_agree(self):
        for r in (2, 3, 4):
            for n in range(0, 8):
                formula = count_reg(r, n)
                assert formula == count_reg(r, n, "recurrence")
                assert formula == count_reg(r, n, "enumerate")

    def test_formula_recurrence_large(self):
        for r in range(2, 10):
            for n in (17, 40, 60):
                assert count_reg(r, n) == count_reg(r, n, "recurrence")

    def test_first_cycle_expansion_identity(self):
        # summing over the residue of the first removed block reproduces the
        # block recurrence: |Reg_r(rm)| = sum_{l=1}^{r-1} (rm-1)_{l-1} |Reg_r(rm-l)|
        #                                + (rm-1)_r |Reg_r(rm-r)|
        for r in (2, 3, 4, 5):
            for m in range(1, 7):
                n = r * m
                total = sum(
                    falling_factorial(n - 1, l - 1) * count_reg(r, n - l)
                    for l in range(1, r)
                )
                total += falling_factorial(n - 1, r) * count_reg(r, n - r)
                assert total == count_reg(r, n)

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            count_reg(2, 3, "guess")


class TestCyclePermutations:
    def test_known_values(self):
        assert count_cyc(3, 4) == 0
        assert count_cyc(3, 6) == 160
        assert count_cyc(2, 8) == 11025 == count_reg(2, 8)
        assert count_cyc(2, 0) == 1

    def test_three_methods_agree(self):
        for r in (2, 3, 4):
            for n in range(0, 8):
                formula = count_cyc(r, n)
                assert formula == count_cyc(r, n, "recurrence")
                assert formula == count_cyc(r, n, "enumerate")


class TestEnriched:
    def test_colored_count_equals_regular(self):
        assert count_enriched_cyc(3, 6) == 400
        # 120 six-cycles with 2 colors + 40 double-three-cycles with 4 colorings
        assert 120 * 2 + 40 * 4 == 400
        for r, n in ((2, 6), (3, 6), (4, 4), (4, 8)):
            assert count_enriched_cyc(r, n) == count_reg(r, n)

    def test_r2_reduces_to_plain_count(self):
        for n in (0, 2, 4, 6, 8):
            assert count_enriched_cyc(2, n) == count_cyc(2, n)

    def test_modulus_checked(self):
        with pytest.raises(DomainError):
            count_enriched_cyc(1, 4)
        # no r-cycle permutation of [n] when r does not divide n, as count_cyc says
        for r, n in ((3, 4), (2, 5), (4, 6)):
            assert count_enriched_cyc(r, n) == count_cyc(r, n) == 0

    def test_matches_sum_over_types(self):
        # every cycle length a multiple of r, each cycle colored one of r-1 ways
        for r in range(2, 7):
            for n in range(0, 21, r):
                expected = sum(
                    count_of_type(CycleType.of_lengths(lengths)) * (r - 1) ** len(lengths)
                    for lengths in _partitions(n, n)
                    if all(length % r == 0 for length in lengths)
                )
                assert count_enriched_cyc(r, n) == expected


class TestFirstCycleFamilies:
    def test_matches_enumeration(self):
        cases = [(r, n, k) for r, n in ((3, 3), (2, 5), (3, 7)) for k in range(1, n + 1)]
        # the n = 9 codomain buckets whose sizes the grow/shrink round trips
        # read from the formula and no verify property enumerates
        cases += [(3, 9, k) for k in (3, 6, 9)] + [(2, 9, k) for k in (3, 5, 7, 9)]
        for r, n, k in cases:
            members = sum(
                1 for _ in enumerate_family(FamilySpec.first_cycle(r, k, n))
            )
            assert count_q_family(r, k, n) == members

    def test_neighbour_equality(self):
        for r in (2, 3, 4):
            for n in range(2, 9):
                for k in range(1, n):
                    if (n - k) % r != 0:
                        assert count_q_family(r, k, n) == count_q_family(r, k + 1, n)

    def test_q_2_1_2(self):
        assert count_q_family(2, 1, 2) == 1

    def test_first_cycle_longer_than_n(self):
        message = "need n >= 5 for a first cycle of length 5"
        with pytest.raises(DomainError, match=message):
            count_q_family(2, 5, 4)
        with pytest.raises(DomainError, match=message):
            FamilySpec.first_cycle(2, 5, 4)
        with pytest.raises(DomainError, match=r"k must lie in 1\.\.4, got 0"):
            count_q_family(2, 0, 4)


class TestNearlyRegular:
    def test_matches_enumeration(self):
        for r in (2, 3, 4):
            for n in range(9):
                members = sum(1 for _ in enumerate_family(FamilySpec.nearly_regular(r, n)))
                assert count_nreg(r, n) == members

    @pytest.mark.parametrize("r, n", [(1, 4), (2, -1)])
    def test_domain(self, r, n):
        with pytest.raises(DomainError):
            count_nreg(r, n)


class TestOddEvenFamilies:
    def test_membership_example_count(self, P):
        sigma = P("(1 2 3 4 6) (5 10 8) (7) (9)")
        assert sigma.cycle_containing(1) == (1, 2, 3, 4, 6)
        assert count_AP(10, 3, "odd") == count_AP(10, 3, "even") == 136080

    def test_even_total_equalities(self):
        for n in (4, 6, 8):
            for k in range(1, n // 2 + 1):
                assert count_AP(n, k, "odd") == count_AP(n, k, "even")

    def test_odd_total_equalities(self):
        for n in (5, 7, 9):
            for k in range(1, (n - 1) // 2 + 1):
                assert count_AP(n, k, "even") == count_AP(n, k + 1, "odd")

    def test_matches_enumeration(self):
        for n in range(2, 8):
            for k in range(1, n // 2 + 2):
                if 2 * k - 1 <= n:
                    spec = FamilySpec.odd_with_first(n, k)
                    assert count_AP(n, k, "odd") == sum(
                        1 for _ in enumerate_family(spec)
                    )
                if 2 * k <= n:
                    spec = FamilySpec.even_first(n, k)
                    assert count_AP(n, k, "even") == sum(
                        1 for _ in enumerate_family(spec)
                    )


class TestUniformTypeFamilies:
    def test_small_values(self):
        assert count_cyc_qr(2, 2, 4) == 3
        assert count_cyc_qr(2, 2, 6) == 0  # 6 is not a multiple of qr = 4
        assert count_cyc_qr(2, 2, 8) == sum(
            1 for _ in enumerate_family(FamilySpec.uniform_multiples(2, 2, 8))
        )

    def test_vanishes_off_multiples(self):
        for n in (1, 2, 3, 5, 6, 7):
            assert count_cyc_qr(2, 2, n) == 0

    def test_matches_sum_over_types(self):
        for q in range(2, 6):
            for r in range(2, 6):
                for n in range(0, 21):
                    expected = sum(
                        count_of_type(rho)
                        for rho in map(CycleType.of_lengths, _partitions(n, n))
                        if all(ln % q == 0 and ct % r == 0 for ln, ct in rho.pairs)
                    )
                    assert count_cyc_qr(q, r, n) == expected


class TestSingularTypeFamilies:
    def test_empty_type_is_regular_count(self):
        for q, n in ((2, 5), (3, 7)):
            assert count_S_rho_q(parse_cycle_type(""), q, n) == count_reg(q, n)

    def test_reduced_membership_analogue(self):
        # the double-transposition type inside [5], counted exhaustively
        rho = parse_cycle_type("2^2")
        members = sum(
            1 for _ in enumerate_family(FamilySpec.singular_type(rho, 2, 5))
        )
        assert count_S_rho_q(rho, 2, 5) == members

    def test_padding_identity(self):
        for q in (2, 3):
            for n in range(1, 8):
                if (n + 1) % q == 0:
                    assert n * count_reg(q, n) == count_reg(q, n + 1)

    def test_rejects_regular_length(self):
        with pytest.raises(DomainError):
            count_S_rho_q(parse_cycle_type("3"), 2, 5)


class TestRootCounts:
    def test_table_values(self):
        assert prob_root(2, 6) == Fraction(3, 8)
        assert prob_root(2, 12) == Fraction(209, 720)
        assert prob_root(9, 12) == Fraction(110, 243)

    def test_square_counts_small(self):
        assert [count_roots(2, n) for n in range(1, 8)] == [1, 1, 3, 12, 60, 270, 1890]

    def test_dp_matches_oracle_for_prime_powers(self):
        for r in range(2, 13):
            for n in range(0, 8):
                assert count_roots(r, n) == len(brute_force_root_table(n, r))
        for r, expected in ((6, 8680), (10, 10248), (12, 7210)):
            assert count_roots(r, 8) == len(brute_force_root_table(8, r)) == expected

    def test_matches_sum_over_types_with_roots(self):
        for r in range(2, 13):
            for n in range(0, 21):
                expected = sum(
                    count_of_type(CycleType.of_lengths(lengths))
                    for lengths in _partitions(n, n)
                    if type_has_root(lengths, r)
                )
                assert count_roots(r, n) == expected

    def test_general_r(self):
        assert prob_root(6, 4) == Fraction(1, 6)
        assert prob_root(6, 5) == Fraction(1, 3)
        assert count_roots(6, 8) == 8680

    def test_huge_r(self):
        # every length divisible by 3 needs a multiple of 3**50 cycles, so
        # only the 3-regular permutations have a root
        assert count_roots(3**50, 12) == count_reg(3, 12)

    def test_sequence_consistent(self):
        seq = root_count_sequence(2, 12)
        assert seq[12] == count_roots(2, 12)
        assert Fraction(seq[12], factorial(12)) == Fraction(209, 720)
        seq = root_count_sequence(6, 10)
        assert Fraction(seq[10], factorial(10)) == Fraction(3, 32)

    def test_monotone_with_plateaus_for_prime_powers(self):
        # Bona-McLennan-White and Chernoff: for r = q^l, p_r(n+1) <= p_r(n),
        # with equality whenever q does not divide n+1.  In integers:
        # p_r(n+1) <= p_r(n) iff |S_{n+1}^r| <= (n+1) |S_n^r|.
        for r in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
            q, _ = prime_power_decomposition(r)
            seq = root_count_sequence(r, 301)
            for n in range(301):
                scaled = (n + 1) * seq[n]
                assert seq[n + 1] <= scaled, (r, n)
                if (n + 1) % q:
                    assert seq[n + 1] == scaled, (r, n)

    def test_rejects_bad_parameters(self):
        # the single counts raise the sequence's DomainError, text included
        for args in ((1, 5), (True, 5), (2, -1), (2, "5")):
            with pytest.raises(DomainError) as expected:
                root_count_sequence(*args)
            for call in (count_roots, prob_root):
                with pytest.raises(DomainError) as raised:
                    call(*args)
                assert str(raised.value) == str(expected.value), (call, args)

    def test_row_n_matches_sequence(self):
        # count_roots combines the free and bunched passes at row n alone;
        # root_count_sequence runs them on one array over every row
        sizes = [*range(41), *range(52, 301, 13)]
        for r in (*range(2, 13), 16, 25, 27, 3**50):
            seq = root_count_sequence(r, 300)
            for n in sizes:
                assert count_roots(r, n) == seq[n], (r, n)


class TestTypeDP:
    def test_weighted_steps_match_sum_over_types(self):
        # free and bunched lengths, both with weights other than 1, then each
        # side alone; _type_dp_row must agree with the full DP at every row
        mixed = [(1, 1, 2), (2, 2, 3), (3, 1, 5), (4, 3, 2), (5, 2, 1)]
        free = [spec for spec in mixed if spec[1] == 1]
        bunched = [spec for spec in mixed if spec[1] > 1]
        for specs in (mixed, free, bunched):
            rules = {length: (step, weight) for length, step, weight in specs}
            dp = _type_dp(16, *_split(16, specs))
            for n in range(17):
                expected = 0
                for rho in map(CycleType.of_lengths, _partitions(n, n)):
                    if all(ln in rules and ct % rules[ln][0] == 0 for ln, ct in rho.pairs):
                        weight = 1
                        for ln, ct in rho.pairs:
                            weight *= rules[ln][1] ** ct
                        expected += weight * count_of_type(rho)
                assert dp[n] == expected, (specs, n)
                assert _type_dp_row(n, *_split(n, specs)) == dp[n], (specs, n)


class TestFreePass:
    """The periodic free pass against the plain exponential-formula
    recurrence m A[m] = sum_L w_L A[m-L], kept here as the oracle."""

    SIZES = [*range(41), *range(60, 301, 30)]

    def test_root_specs_match_oracle(self):
        for r in (*range(2, 37), 3**50):
            for n in self.SIZES:
                free = _root_specs(r, n)[0]
                assert _free_pass(n, free) == _free_pass_oracle(n, free), (r, n)

    def test_enriched_specs_match_oracle(self):
        for r in range(2, 13):
            for n in range(0, 301, r):
                free = [(length, 1, r - 1) for length in range(r, n + 1, r)]
                assert _free_pass(n, free) == _free_pass_oracle(n, free), (r, n)

    def test_weighted_specs_match_oracle(self):
        # no period fits twice in n, so P = n and the pass is the plain sum;
        # the first specs are the free side of TestTypeDP's
        for specs in ([(1, 1, 2), (3, 1, 5)], [(1, 1, 2), (3, 1, 5), (4, 1, 7), (6, 1, 1)]):
            for n in range(61):
                free = [spec for spec in specs if spec[0] <= n]
                assert _free_period(n, free) == n, (specs, n)
                assert _free_pass(n, free) == _free_pass_oracle(n, free), (specs, n)

    def test_period_found(self):
        # rad(r) for the roots of order r and r for the enriched cycles,
        # once the period fits twice in n
        for r in (*range(2, 37), 3**50):
            period = _rad(r)
            for n in (*range(2 * period, 2 * period + 30), 300):
                assert _free_period(n, _root_specs(r, n)[0]) == period, (r, n)
        for r in range(2, 13):
            for n in range(2 * r, 301, r):
                free = [(length, 1, r - 1) for length in range(r, n + 1, r)]
                assert _free_period(n, free) == r, (r, n)


class TestBunchedPass:
    """The bunched pass against the per-source loop it replaced, kept here as
    the oracle: dense on the free pass's array, as root_count_sequence runs
    it, and sparse from [n!, 0, ..., 0], where it walks the grid of the
    spans, as the single counts run it."""

    SIZES = [*range(41), *range(60, 301, 30)]

    def check(self, n, free, bunched):
        # the sparse run in both orders: its grid depends on the order
        dense = _free_pass(n, free)
        assert _bunched_pass(dense[:], bunched, 1) == _bunched_pass_oracle(dense, bunched), n
        for specs in (bunched, bunched[::-1]):
            expected = _bunched_pass_oracle([factorial(n)] + [0] * n, specs)
            assert _bunched_pass([factorial(n)] + [0] * n, specs, 0) == expected, (n, specs)

    def test_root_specs_match_oracle(self):
        for r in (*range(2, 37), 3**50):
            for n in self.SIZES:
                self.check(n, *_root_specs(r, n))

    def test_uniform_type_specs_match_oracle(self):
        for q in (2, 3, 4):
            for r in (2, 3, 4):
                for n in self.SIZES:
                    self.check(n, [], [(length, r, 1) for length in range(q, n // r + 1, q)])

    def test_weighted_specs_match_oracle(self):
        # TestTypeDP's mixed specs: weights 3 and 2 on bunched lengths 2 and 4
        mixed = [(1, 1, 2), (2, 2, 3), (3, 1, 5), (4, 3, 2), (5, 2, 1)]
        for n in self.SIZES:
            self.check(n, *_split(n, mixed))


def dp_output_lines():
    """One line per output of every caller of the cycle-type DP."""
    for r in range(2, 13):
        for n, value in enumerate(root_count_sequence(r, 200)):
            yield f"roots {r} {n} {value}"
    for r in range(2, 7):
        for m in range(41):
            yield f"enriched {r} {r * m} {count_enriched_cyc(r, r * m)}"
    for q in (2, 3, 4):
        for r in (2, 3, 4):
            for n in range(121):
                yield f"qr {q} {r} {n} {count_cyc_qr(q, r, n)}"


def test_dp_outputs_unchanged():
    h = hashlib.sha256()
    for line in dp_output_lines():
        h.update(line.encode())
        h.update(b"\n")
    assert h.hexdigest() == DP_OUTPUTS_DIGEST


class TestRegularProportion:
    def test_examples(self):
        assert regular_proportion_product(2, 2) == Fraction(1, 2)
        assert regular_proportion_product(3, 2) == 1  # empty product
        assert regular_proportion_product(2, 8) == Fraction(11025, 40320)

    def test_equals_count_ratio(self):
        for r in range(2, 8):
            for n in range(1, 30):
                assert regular_proportion_product(r, n) == Fraction(
                    count_reg(r, n), factorial(n)
                )


def _partitions(total, largest):
    """Partitions of total into parts <= largest, as sorted tuples."""
    if total == 0:
        yield ()
        return
    for part in range(1, min(total, largest) + 1):
        for rest in _partitions(total - part, part):
            yield rest + (part,)


def _split(n, specs):
    """The free specs (sorted, length <= n) and the bunched specs whose
    smallest bunch fits in n, as the DP entry points take them."""
    free = sorted(spec for spec in specs if spec[1] == 1 and spec[0] <= n)
    bunched = [spec for spec in specs if spec[1] > 1 and spec[0] * spec[1] <= n]
    return free, bunched


def _free_pass_oracle(n, free):
    """m A[m] = sum over the free lengths L <= m of w_L A[m-L], from A[0] = n!."""
    scaled = [factorial(n)] + [0] * n
    for m in range(1, n + 1):
        scaled[m] = sum(weight * scaled[m - length] for length, _, weight in free if length <= m) // m
    return scaled


def _bunched_pass_oracle(scaled, bunched):
    """For each bunched length, the sources u from the top down, zeros
    skipped, each adding its chain A[u+jL] += A[u] w^j / (L^j j!) in place."""
    n = len(scaled) - 1
    for length, step, weight in bunched:
        span = step * length
        divisors = [
            length**step * prod(range(j + 1, j + step + 1))
            for j in range(0, n // length - step + 1, step)
        ]
        for u in range(n - span, -1, -1):
            term = scaled[u]
            if not term:
                continue
            for v, divisor in zip(range(u + span, n + 1, span), divisors):
                term = term * weight**step // divisor
                scaled[v] += term
    return scaled


def _rad(r):
    """The product of the distinct primes of r."""
    out, p = 1, 2
    while r > 1:
        if r % p == 0:
            out *= p
            while r % p == 0:
                r //= p
        p += 1
    return out
