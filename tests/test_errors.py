"""The integer policy: ``errors.check_int`` and the integer parameters of the
public API, which give an answer or raise a ``PermrootError`` on any value."""

import itertools
import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permroot import bijections as bij
from permroot import counting as cnt
from permroot import oeis, roots, verify
from permroot.errors import DomainError, PermrootError, check_int, check_type
from permroot.families import (
    FamilySpec,
    classify,
    enumerate_family,
    enumerate_regular_on,
    is_nearly_regular,
    is_regular,
)
from permroot.permutation import CycleType, EnrichedPermutation, Permutation, parse, parse_cycle_type

# (value, low, high, the DomainError message for name "r", or None to accept)
CHECK_INT_CASES = [
    (2, 2, None, None),
    (0, 0, None, None),
    (-5, None, None, None),
    (10**30, 2, None, None),
    (1, 1, 3, None),
    (3, 1, 3, None),
    (1, 2, None, "r must be an integer >= 2, got 1"),
    (-1, 0, None, "r must be an integer >= 0, got -1"),
    (0, 1, 3, "r must lie in 1..3, got 0"),
    (4, 1, 3, "r must lie in 1..3, got 4"),
    (True, None, None, "r must be an integer, got True"),
    (True, 0, None, "r must be an integer >= 0, got True"),
    (False, 0, None, "r must be an integer >= 0, got False"),
    (True, 1, 3, "r must lie in 1..3, got True"),
    (2.0, None, None, "r must be an integer, got 2.0"),
    (2.0, 2, None, "r must be an integer >= 2, got 2.0"),
    (2.5, 1, 3, "r must lie in 1..3, got 2.5"),
    ("2", 2, None, "r must be an integer >= 2, got '2'"),
    ("2", None, None, "r must be an integer, got '2'"),
    (None, 2, None, "r must be an integer >= 2, got None"),
    (None, 1, 3, "r must lie in 1..3, got None"),
]


@pytest.mark.parametrize(
    "value, low, high, message", CHECK_INT_CASES,
    ids=[f"{value!r}-{low}-{high}" for value, low, high, _ in CHECK_INT_CASES],
)
def test_check_int(value, low, high, message):
    if message is None:
        assert check_int(value, "r", low, high) is None
        return
    with pytest.raises(DomainError) as exc:
        check_int(value, "r", low, high)
    assert type(exc.value) is DomainError and str(exc.value) == message


def test_huge_exponent_is_capped_before_the_power():
    """l = 2**64 would need a 2**64-bit q**l; capped at n.bit_length() the
    answer is the one every l past that point gives."""
    for sigma in (parse("(1 2)"), parse("(1 2) (3 4)"), parse("(1) (2 3 4)"), parse("")):
        past = sigma.size.bit_length() + 3
        for q in (2, 3):
            start = time.perf_counter()
            got = roots.has_root_prime_power(sigma, q, 2**64)
            assert time.perf_counter() - start < 1.0
            assert got == roots.has_root_prime_power(sigma, q, past)
    assert roots.has_root_prime_power(parse("(1 2) (3 4)"), 2, 1)
    assert not roots.has_root_prime_power(parse("(1 2) (3 4)"), 2, 2**64)
    assert roots.has_root_prime_power(parse("(1) (2 3 4)"), 2, 2**64)


# -- every integer parameter answers or raises a PermrootError -----------------

JUNK = (True, False, 2.0, 2.5, "2", "x", None)
HUGE = (2**64, 3**50, -(2**70))
# in-domain sizes (n, m, k, upto, factorial arguments) stay at 8 or below
SIZE = st.one_of(st.integers(-2, 8), st.sampled_from(JUNK))
SMALL = st.one_of(st.integers(-2, 6), st.sampled_from(JUNK))  # n of the brute-force table
# moduli, exponents, elements, labels and bounds take huge ints too
WIDE = st.one_of(st.integers(-2, 8), st.sampled_from(HUGE + JUNK))

SIGMA = parse("(1 2 3) (4 5) (6)")
RHO = CycleType([(2, 1)])
SEQ = oeis.fetch("A001818", source="fixture")


def _first(iterator):
    return list(itertools.islice(iterator, 3))


# name -> (call, one strategy per argument); object-typed arguments stay valid
CALLS = {
    "falling_factorial": (cnt.falling_factorial, (SIZE, SIZE)),
    "double_factorial": (cnt.double_factorial, (SIZE,)),
    "count_reg": (cnt.count_reg, (WIDE, SIZE)),
    "count_cyc": (cnt.count_cyc, (WIDE, SIZE)),
    "count_enriched_cyc": (cnt.count_enriched_cyc, (WIDE, SIZE)),
    "count_cyc_qr": (cnt.count_cyc_qr, (WIDE, WIDE, SIZE)),
    "count_q_family": (cnt.count_q_family, (WIDE, SIZE, SIZE)),
    "count_nreg": (cnt.count_nreg, (WIDE, SIZE)),
    "count_AP": (cnt.count_AP, (SIZE, SIZE, st.sampled_from(["odd", "even"]))),
    "count_S_rho_q": (lambda q, n: cnt.count_S_rho_q(RHO, q, n), (WIDE, SIZE)),
    "root_count_sequence": (cnt.root_count_sequence, (WIDE, SIZE)),
    "count_roots": (cnt.count_roots, (WIDE, SIZE)),
    "prob_root": (cnt.prob_root, (WIDE, SIZE)),
    "regular_proportion_product": (cnt.regular_proportion_product, (WIDE, SIZE)),
    "prime_power_decomposition": (roots.prime_power_decomposition, (WIDE,)),
    "is_prime": (roots.is_prime, (WIDE,)),
    "has_root_prime_power": (lambda q, l: roots.has_root_prime_power(SIGMA, q, l), (WIDE, WIDE)),
    "has_root_general": (lambda r: roots.has_root_general(SIGMA, r), (WIDE,)),
    "find_root_bruteforce": (lambda r: roots.find_root_bruteforce(SIGMA, r), (WIDE,)),
    "is_qr_divisible": (lambda q, r: roots.is_qr_divisible(RHO, q, r), (WIDE, WIDE)),
    "brute_force_root_table": (roots.brute_force_root_table, (SMALL, WIDE)),
    "brute_force_root_tables": (
        lambda n, r: roots.brute_force_root_tables(n, [2, r]), (SMALL, WIDE)
    ),
    "insert_element": (lambda x, r: bij.insert_element(x, parse("(2 3)"), r), (WIDE, WIDE)),
    "extend_regular": (lambda j, r: bij.extend_regular(parse("(1 2) (3)"), j, r), (WIDE, WIDE)),
    "extract_element": (lambda r: bij.extract_element(SIGMA, r), (WIDE,)),
    "grow_first_cycle": (lambda r: bij.grow_first_cycle(SIGMA, r), (WIDE,)),
    "shrink_first_cycle": (lambda r: bij.shrink_first_cycle(SIGMA, r), (WIDE,)),
    "to_nearly_regular": (lambda r: bij.to_nearly_regular(SIGMA, r), (WIDE,)),
    "to_enriched_cycles": (lambda r: bij.to_enriched_cycles(SIGMA, r), (WIDE,)),
    "merge_cycle_class": (
        lambda a, b, bp: bij.merge_cycle_class([(1, a), (3, b)], [bp]), (WIDE, WIDE, WIDE)
    ),
    "FamilySpec": (
        lambda tag, n, r, q, k: FamilySpec(tag, n, r=r, q=q, k=k, rho=RHO),
        (st.sampled_from(["reg", "cyc", "nreg", "q", "cyc-qr", "s-rho-q", "roots", "all"]),
         SIZE, WIDE, WIDE, SIZE),
    ),
    "odd_with_first": (FamilySpec.odd_with_first, (SIZE, SIZE)),
    "even_first": (FamilySpec.even_first, (SIZE, SIZE)),
    "enumerate_family": (
        lambda n, bound: _first(enumerate_family(FamilySpec.regular(2, n), bound)), (SIZE, WIDE)
    ),
    "enumerate_regular_on": (
        lambda a, b, r: _first(enumerate_regular_on([a, b, 7], r)), (WIDE, WIDE, WIDE)
    ),
    "is_regular": (lambda r: is_regular(SIGMA, r), (WIDE,)),
    "is_nearly_regular": (lambda r: is_nearly_regular(SIGMA, r), (WIDE,)),
    "Permutation.power": (SIGMA.power, (WIDE,)),
    "Permutation.identity": (lambda a, b: Permutation.identity([a, b]), (WIDE, WIDE)),
    "Permutation.split_parts": (SIGMA.split_parts, (WIDE,)),
    "CycleType": (lambda length, count: CycleType([(length, count)]), (WIDE, WIDE)),
    "phi_ranges": (lambda r, n: verify._phi_ranges({"r": r, "n": n}), (WIDE, SIZE)),
    "phi_pairs": (lambda r, rn: verify._phi_ranges({"pairs": [(r, rn)]}), (WIDE, SIZE)),
    "term_checks": (lambda upto: list(oeis.term_checks(SEQ, math.factorial, upto)), (SIZE,)),
}


@st.composite
def integer_calls(draw):
    name = draw(st.sampled_from(sorted(CALLS)))
    return name, tuple(draw(arg) for arg in CALLS[name][1])


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(integer_calls())
@example(("count_roots", (2, True)))
@example(("insert_element", (True, 3)))
@example(("prime_power_decomposition", (2.5,)))
@example(("is_prime", (2.5,)))
@example(("has_root_prime_power", (2.0, 1)))
@example(("has_root_prime_power", (2, True)))
@example(("has_root_prime_power", (2, 2**64)))
@example(("brute_force_root_table", (3, True)))
@example(("brute_force_root_table", (-1, 2)))
@example(("brute_force_root_tables", (3, True)))
@example(("brute_force_root_tables", (True, 3)))
@example(("prime_power_decomposition", ("7",)))
@example(("falling_factorial", ("a", 2)))
@example(("term_checks", ("1",)))
@example(("regular_proportion_product", (2, True)))
@example(("enumerate_regular_on", (7, 2, 2)))
@example(("merge_cycle_class", (2, "a", 3)))
@example(("Permutation.identity", (1, True)))
def test_integer_parameters_answer_or_raise_permroot_error(case):
    """Any value of an integer parameter, bool, float, str and None among
    them, gives an answer or a PermrootError, never another exception."""
    name, args = case
    call, _ = CALLS[name]
    try:
        call(*args)
    except PermrootError:
        pass


MOTIVATING_CASES = [
    (cnt.count_roots, (2, True)),
    (bij.insert_element, (True, Permutation([[2]]), 3)),
    (roots.prime_power_decomposition, (2.5,)),
    (roots.is_prime, (2.5,)),
    (roots.has_root_prime_power, (Permutation([[1, 2]]), 2.0, 1)),
    (roots.has_root_prime_power, (Permutation([[1, 2]]), 2, True)),
    (roots.brute_force_root_table, (3, True)),
    (roots.brute_force_root_table, (-1, 2)),
    (roots.prime_power_decomposition, ("7",)),
    (cnt.falling_factorial, ("a", 2)),
    (lambda: list(oeis.term_checks(SEQ, math.factorial, "1")), ()),
    (cnt.regular_proportion_product, (2, True)),
    (lambda: list(enumerate_regular_on([2, 2, 3], 2)), ()),
    (bij.merge_cycle_class, ([[1, 2], [3, "a"]], [3])),
    (roots.bunch_sizes, (1, True)),
    (roots.bunch_sizes, (1, 2.5)),
    (roots.bunch_sizes, (0, 3)),
    (roots.is_qr_divisible, (None, 2, 2)),
    (cnt.count_of_type, (None,)),
    (cnt.count_S_rho_q, (None, 2, 4)),
    (FamilySpec.singular_type, ("2^2", 2, 4)),
    (roots.has_root_general, (None, 2)),
    (roots.has_root_prime_power, (None, 2, 1)),
    (roots.find_root_bruteforce, (None, 2)),
    (bij.extract_element, (None, 2)),
    (bij.insert_element, (1, None, 2)),
    (bij.extend_regular, (None, 1, 2)),
    (bij.grow_first_cycle, (None, 2)),
    (bij.shrink_first_cycle, (None, 2)),
    (bij.to_nearly_regular, (None, 2)),
    (bij.from_nearly_regular, (None,)),
    (bij.split_nearly_regular, (Permutation([[1, 2]]),)),
    (bij.to_enriched_cycles, ("(1 2)", 2)),
    (bij.from_enriched_cycles, (None,)),
    (bij.from_enriched_cycles, (Permutation([[1, 2]]),)),
    (classify, (None, FamilySpec.everything(2))),
    (classify, (Permutation([[1, 2]]), None)),
    (is_regular, (None, 2)),
    (is_nearly_regular, (None, 2)),
    (lambda: next(enumerate_family("all")), ()),
    (parse, (123,)),
    (parse, (None,)),
    (parse, (b"(1 2)",)),
    (parse_cycle_type, (None,)),
    (EnrichedPermutation, ("(1 2)", 2, (1,))),
    (Permutation([[1, 2]]).compose, (None,)),
    (roots.brute_force_root_tables, (3, [2, True])),
    (roots.brute_force_root_tables, (3, [2, 2.5])),
    (roots.brute_force_root_tables, (-1, [2])),
    (roots.brute_force_root_tables, (9, [2, 3])),
]


@pytest.mark.parametrize("call, args", MOTIVATING_CASES)
def test_bad_integers_raise_permroot_error(call, args):
    with pytest.raises(PermrootError):
        call(*args)


def test_check_type_names_the_expected_class():
    check_type(parse("(1 2)"), Permutation, "sigma")
    with pytest.raises(DomainError, match=r"^sigma must be a Permutation, got None$"):
        check_type(None, Permutation, "sigma")
    message = r"^tau must be an EnrichedPermutation, got Permutation\('\(1 2\)'\)$"
    with pytest.raises(DomainError, match=message):
        bij.from_enriched_cycles(parse("(1 2)"))


@pytest.mark.parametrize("call, args, message", [
    (parse, (123,), "text must be a str, got 123"),
    (parse, (b"(1 2)", 2), "text must be a str, got b'(1 2)'"),
    (parse_cycle_type, (None,), "text must be a str, got None"),
    (EnrichedPermutation, ("(1 2)", 2, (1,)), "base must be a Permutation, got '(1 2)'"),
    (Permutation([[1, 2]]).compose, (None,), "other must be a Permutation, got None"),
])
def test_text_and_object_parameters_of_the_permutation_module(call, args, message):
    with pytest.raises(DomainError) as exc:
        call(*args)
    assert type(exc.value) is DomainError and str(exc.value) == message
